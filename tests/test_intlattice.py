import random

from hecke_functor.intlattice import (
    det, identity, inverse_unimodular, kernel_basis,
    mat_mul, mat_vec, saturation_basis, snf, solve_int, transpose,
)


def _random_matrix(rng, m, n, bound=5):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(m))


def test_snf_random():
    rng = random.Random(4161)
    for _ in range(150):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        a = _random_matrix(rng, m, n)
        u, d, v = snf(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(det(u)) == 1
        assert abs(det(v)) == 1
        # diagonal with divisibility
        diag = [d[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        for x, y in zip(diag, diag[1:]):
            assert x >= 0 and y >= 0
            if x == 0:
                assert y == 0
            else:
                assert y % x == 0


def test_snf_known():
    # gcd of entries is 2 and |det| = 8, so the invariant factors are 2, 4
    _, d, _ = snf(((2, 4), (6, 8)))
    assert (d[0][0], d[1][1]) == (2, 4)
    # Cartan matrix of rank-2 type A has determinant 3 and SNF diag (1, 3)
    _, d, _ = snf(((2, -1), (-1, 2)))
    assert (d[0][0], d[1][1]) == (1, 3)


def test_solve_and_kernel():
    rng = random.Random(99)
    for _ in range(100):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = _random_matrix(rng, m, n)
        x = tuple(rng.randint(-3, 3) for _ in range(n))
        b = mat_vec(a, x)
        sol = solve_int(a, b)
        assert sol is not None
        assert mat_vec(a, sol) == b
        for k in kernel_basis(a):
            assert mat_vec(a, k) == (0,) * m


def test_solve_inconsistent():
    assert solve_int(((2,),), (1,)) is None
    assert solve_int(((1, 1), (1, 1)), (0, 1)) is None


def test_column_space_and_saturation():
    a = ((2, 0), (0, 3), (0, 0))
    basis = snf(a).column_basis()
    assert len(basis) == 2
    for col in transpose(a):
        assert solve_int(transpose(tuple(basis)), col) is not None
    sat = saturation_basis([(2, 4, 0)], 3)
    assert sat == [(1, 2, 0)]


def test_inverse_unimodular():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 4)
        u, _, v = snf(_random_matrix(rng, n, n))
        for mat in (u, v):
            inv = inverse_unimodular(mat)
            assert mat_mul(mat, inv) == identity(n)


def _solve_fresh(a, b):
    """One solution of a x = b from a Smith form of a taken for this b alone:
    the solve every right-hand side used to pay for."""
    m = len(a)
    n = len(a[0]) if m else 0
    u, d, v = snf(a)
    c = mat_vec(u, b)
    y = [0] * n
    for i in range(m):
        di = d[i][i] if i < min(m, n) else 0
        if di == 0:
            if c[i] != 0:
                return None
        elif c[i] % di != 0:
            return None
        else:
            y[i] = c[i] // di
    return mat_vec(v, tuple(y))


def _kernel_fresh(a):
    m = len(a)
    n = len(a[0]) if m else 0
    _, d, v = snf(a)
    r = sum(1 for i in range(min(m, n)) if d[i][i] != 0)
    return [transpose(v)[j] for j in range(r, n)]


def _column_space_fresh(a):
    """The column lattice from U^-1 inverted by Gauss-Jordan."""
    m = len(a)
    n = len(a[0]) if m else 0
    u, d, _ = snf(a)
    cols = transpose(inverse_unimodular(u))
    return [tuple(d[i][i] * x for x in cols[i]) for i in range(min(m, n)) if d[i][i] != 0]


def _test_matrices(rng):
    """Random matrices: full rank, rank-deficient (a product through a
    narrower inner dimension) and zero, of every shape up to 5 x 5."""
    for _ in range(200):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        kind = rng.choice(("random", "deficient", "zero"))
        if kind == "random":
            yield _random_matrix(rng, m, n)
        elif kind == "deficient" and m and n:
            k = rng.randint(1, min(m, n))
            yield mat_mul(_random_matrix(rng, m, k, 3), _random_matrix(rng, k, n, 3))
        else:
            yield tuple((0,) * n for _ in range(m))


def test_one_smith_form_serves_every_right_hand_side():
    rng = random.Random(2016)
    unsolvable = 0
    for a in _test_matrices(rng):
        m = len(a)
        n = len(a[0]) if m else 0
        form = snf(a)
        for _ in range(5):
            solvable = mat_vec(a, tuple(rng.randint(-3, 3) for _ in range(n)))
            other = tuple(rng.randint(-6, 6) for _ in range(m))
            for b in (solvable, other):
                x = form.solve(b)
                assert x == _solve_fresh(a, b)
                if x is None:
                    unsolvable += 1
                else:
                    assert mat_vec(a, x) == b
        assert form.kernel() == _kernel_fresh(a)
        assert form.column_basis() == _column_space_fresh(a)
        # U^-1, accumulated beside U, is the inverse Gauss-Jordan finds
        assert form.u_inv == inverse_unimodular(form[0])
    assert unsolvable > 100
