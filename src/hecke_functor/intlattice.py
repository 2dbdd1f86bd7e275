"""
Integer matrix and lattice computations: Smith normal form with transform
matrices, integer linear solving, saturations and column-space bases.
One Smith form answers every right-hand side of its matrix (`SmithForm`).

Matrices are tuples of row tuples of Python ints; everything is exact.
"""

from __future__ import annotations

from fractions import Fraction

IntMatrix = tuple[tuple[int, ...], ...]

__all__ = [
    "identity", "zeros", "transpose", "mat_mul", "mat_vec", "det", "snf",
    "SmithForm", "solve_int", "kernel_basis", "saturation_basis", "inverse_unimodular",
]


def identity(n: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zeros(m: int, n: int) -> IntMatrix:
    return tuple((0,) * n for _ in range(m))


def transpose(a: IntMatrix) -> IntMatrix:
    if not a:
        return ()
    return tuple(zip(*a))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: IntMatrix, v: tuple[int, ...]) -> tuple[int, ...]:
    if a and len(a[0]) != len(v):
        raise ValueError("shape mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def det(a: IntMatrix) -> int:
    """Determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


class SmithForm(tuple):
    """(U, D, V) with U a V = D, as `snf` returns it, and U^-1 beside it: one
    factorisation serves every right-hand side of a (Cohen, *A Course in
    Computational Algebraic Number Theory*, 2.4.3).  a x = b is D y = U b
    with x = V y, the last columns of V span the kernel, and the columns of
    U^-1 D span the column lattice.

    >>> form = snf(((2, 4), (6, 8)))
    >>> form.solve((2, 6)), form.solve((1, 0))
    ((1, 0), None)
    >>> snf(((1, 2), (2, 4))).kernel()
    [(-2, 1)]
    """

    def __new__(cls, u: IntMatrix, d: IntMatrix, v: IntMatrix, u_inv: IntMatrix):
        self = super().__new__(cls, (u, d, v))
        self.u_inv = u_inv
        self.diagonal = tuple(d[i][i] for i in range(min(len(d), len(v))))
        self.rank = sum(1 for x in self.diagonal if x)
        return self

    def solve(self, b: tuple[int, ...]) -> tuple[int, ...] | None:
        """One integer solution x of a x = b, or None."""
        u, _, v = self
        if len(b) != len(u):
            raise ValueError("shape mismatch")
        y = [0] * len(v)
        for i, c in enumerate(mat_vec(u, b)):
            di = self.diagonal[i] if i < len(self.diagonal) else 0
            if di == 0:
                if c != 0:
                    return None
            elif c % di != 0:
                return None
            else:
                y[i] = c // di
        return mat_vec(v, tuple(y))

    def kernel(self) -> list[tuple[int, ...]]:
        """Basis of the integer kernel of a (a saturated sublattice)."""
        return list(transpose(self[2])[self.rank:])

    def column_basis(self) -> list[tuple[int, ...]]:
        """Basis (as vectors) of the lattice spanned by the columns of a."""
        cols = transpose(self.u_inv)
        return [tuple(di * x for x in cols[i]) for i, di in enumerate(self.diagonal) if di]


def snf(a: IntMatrix) -> SmithForm:
    """Smith normal form: returns (U, D, V) with U a V = D.

    U and V are unimodular, D is diagonal with d_1 | d_2 | ... >= 0.

    >>> U, D, V = snf(((2, 4), (6, 8)))
    >>> mat_mul(mat_mul(U, ((2, 4), (6, 8))), V) == D
    True
    >>> [D[i][i] for i in range(2)]
    [2, 4]
    """
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u = [list(row) for row in identity(m)]
    v = [list(row) for row in identity(n)]
    # U^-1 transposed: a row operation on U is a column operation on U^-1
    w = [list(row) for row in identity(m)]

    def row_op(i, j, q):  # row_i -= q * row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]
        w[j] = [x + q * y for x, y in zip(w[j], w[i])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for row in d:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        w[i], w[j] = w[j], w[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        # find a nonzero pivot in the remaining block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    best = abs(d[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # clear row and column t, restarting whenever a remainder appears
        while True:
            dirty = False
            for i in range(t + 1, m):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    row_op(i, t, q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    col_op(j, t, q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                break
        t += 1

    # enforce divisibility d_i | d_{i+1}
    r = min(m, n)
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            if d[i + 1][i + 1] % (d[i][i] or 1) != 0 or d[i][i] == 0 and d[i + 1][i + 1] != 0:
                # fold entry (i+1, i+1) into column i, then re-reduce the 2x2 block
                col_op(i, i + 1, -1)
                while d[i + 1][i] != 0 or d[i][i + 1] != 0:
                    if d[i + 1][i] != 0:
                        if d[i][i] == 0 or (d[i + 1][i] % d[i][i] != 0 and abs(d[i + 1][i]) < abs(d[i][i])):
                            swap_rows(i, i + 1)
                        if d[i][i] != 0:
                            q = d[i + 1][i] // d[i][i]
                            row_op(i + 1, i, q)
                            if d[i + 1][i] != 0:
                                swap_rows(i, i + 1)
                    if d[i][i + 1] != 0:
                        if d[i][i] != 0:
                            q = d[i][i + 1] // d[i][i]
                            col_op(i + 1, i, q)
                            if d[i][i + 1] != 0:
                                swap_cols(i, i + 1)
                        else:
                            swap_cols(i, i + 1)
                changed = True
    # normalize signs
    for i in range(r):
        if d[i][i] < 0:
            d[i] = [-x for x in d[i]]
            u[i] = [-x for x in u[i]]
            w[i] = [-x for x in w[i]]
    return SmithForm(tuple(map(tuple, u)), tuple(map(tuple, d)), tuple(map(tuple, v)),
                     transpose(tuple(map(tuple, w))))


def solve_int(a: IntMatrix, b: tuple[int, ...]) -> tuple[int, ...] | None:
    """One integer solution x of a x = b, or None."""
    return snf(a).solve(b)


def kernel_basis(a: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel of a (a saturated sublattice)."""
    return snf(a).kernel()


def saturation_basis(vectors: list[tuple[int, ...]], ambient_dim: int) -> list[tuple[int, ...]]:
    """Basis of the saturation {x : k x in span for some k > 0} of the span of vectors."""
    if not vectors:
        return []
    form = snf(transpose(tuple(tuple(v) for v in vectors)))  # columns = vectors
    return list(transpose(form.u_inv)[:form.rank])


def inverse_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix."""
    n = len(a)
    if n == 0:
        return ()
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(a)]
    for c in range(n):
        pr = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[pr] = aug[pr], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    out = []
    for i in range(n):
        row = aug[i][n:]
        if any(x.denominator != 1 for x in row):
            raise ValueError("matrix is not unimodular")
        out.append(tuple(int(x) for x in row))
    return tuple(out)


if __name__ == "__main__":
    import doctest
    doctest.testmod()
