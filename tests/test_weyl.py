import itertools
from fractions import Fraction

import pytest

from hecke_functor import intlattice as il
from hecke_functor.rootdata import (
    RootDatumError, build_classical, direct_sum, torus_datum,
)
from hecke_functor.weyl import (
    Eig, ExtAffineElt, WeylGroup, enumerate_weyl, length, omega_subgroup,
    reflect, stabilizer_of_point,
)


A1SC = build_classical("A", 1, "sc")
A1AD = build_classical("A", 1, "ad")
A2 = build_classical("A", 2, "sc")
C2 = build_classical("C", 2, "sc")
GL3 = build_classical("GL", 3)


def test_enumeration_size_guard(monkeypatch):
    import hecke_functor.weyl as weyl_mod
    monkeypatch.setattr(weyl_mod, "WEYL_SIZE_GUARD", 10)
    weyl_mod._build_group.cache_clear()
    assert len(enumerate_weyl(build_classical("B", 2, "ad"))) == 8
    with pytest.raises(RootDatumError):
        enumerate_weyl(build_classical("C", 3, "ad"))   # |W| = 48 > 10


def _breadth_first_reference(datum):
    """Matrices and words of W in breadth-first order, level by level, with
    each product w s_j formed as a full matrix product."""
    from hecke_functor.weyl import _reflection_matrix
    gens = [_reflection_matrix(datum, i) for i in datum.simples]
    matrices, words = [il.identity(datum.rank)], [()]
    index = {matrices[0]: 0}
    frontier = [0]
    while frontier:
        new_frontier = []
        for i in frontier:
            for j, g in enumerate(gens):
                prod = il.mat_mul(matrices[i], g)
                if prod not in index:
                    index[prod] = len(matrices)
                    matrices.append(prod)
                    words.append(words[i] + (j,))
                    new_frontier.append(index[prod])
        frontier = new_frontier
    return matrices, words, gens


@pytest.mark.parametrize("name,datum,order", [
    ("A2", A2, 6), ("C2", C2, 8), ("B3", build_classical("B", 3, "ad"), 48),
    ("D4", build_classical("D", 4, "sc"), 192), ("GL4", build_classical("GL", 4), 24)])
def test_one_pass_enumeration_matches_matrix_products(name, datum, order):
    group = WeylGroup(datum)
    matrices, words, gens = _breadth_first_reference(datum)
    assert group.order == len(group.matrices) == order
    assert group.matrices == matrices and group.words == words
    assert group.index == {m: i for i, m in enumerate(matrices)}
    for i, m in enumerate(group.matrices):
        assert len(group.right_mult[i]) == len(gens)
        for j, g in enumerate(gens):
            assert group.right_mult[i][j] == group.index[il.mat_mul(m, g)]
        product = il.identity(datum.rank)
        for s in group.words[i]:
            product = il.mat_mul(product, gens[s])
        assert product == m


# roots (1, 0) and (0, 1) whose coroots pair with the other root to -3 each:
# not a root datum, and its two reflections generate an infinite group
INFINITE_REFLECTIONS = {"rank": 2, "roots": [[1, 0], [-1, 0], [0, 1], [0, -1]],
                        "coroots": [[2, -3], [-2, 3], [-3, 2], [3, -2]], "simples": [0, 2]}


def test_invalid_datum_is_refused_before_enumeration(monkeypatch):
    from hecke_functor.rootdata import BasedRootDatum
    import hecke_functor.weyl as weyl_mod
    # a small guard keeps a build that skips validation from running away
    monkeypatch.setattr(weyl_mod, "WEYL_SIZE_GUARD", 50)
    datum = BasedRootDatum.from_json(INFINITE_REFLECTIONS)
    for _ in range(2):
        with pytest.raises(RootDatumError, match="not stable"):
            WeylGroup.build(datum)


def test_build_validates_and_enumerates_once(monkeypatch):
    from hecke_functor.hecke import GradedSpec, HeckeSpec
    from hecke_functor.rootdata import BasedRootDatum, direct_sum
    import hecke_functor.weyl as weyl_mod
    weyl_mod._build_group.cache_clear()
    calls = []
    validate = BasedRootDatum.validate
    monkeypatch.setattr(BasedRootDatum, "validate",
                        lambda self: calls.append(self) or validate(self))
    datum = direct_sum(A2, C2)
    group = WeylGroup.build(datum)
    specs = [HeckeSpec(datum), HeckeSpec(datum, labels=2), GradedSpec(datum)]
    assert all(spec.weyl is group for spec in specs)
    assert calls == [datum]
    assert weyl_mod._build_group.cache_info().maxsize is not None


def test_only_data_from_outside_are_validated_before_enumeration(monkeypatch):
    from hecke_functor.functor import tag_root_datum
    from hecke_functor.lparam import GroupTag
    from hecke_functor.rootdata import BasedRootDatum
    import hecke_functor.weyl as weyl_mod
    weyl_mod._build_group.cache_clear()
    calls = []
    validate = BasedRootDatum.validate
    monkeypatch.setattr(BasedRootDatum, "validate",
                        lambda self: calls.append(self) or validate(self))
    # valid by construction: a classical datum and a sum a tag names
    WeylGroup.build(build_classical("B", 3, "ad"))
    WeylGroup.build(tag_root_datum(GroupTag((("SL", 3), ("GL", 2), ("T", 1)))))
    assert calls == []
    # the same kind of sum, decoded from JSON, is validated once
    outside = BasedRootDatum.from_json(direct_sum(C2, torus_datum(1), A1AD).to_json())
    WeylGroup.build(outside)
    WeylGroup.build(outside)
    assert calls == [outside]


def test_reflect_basics():
    for datum in (A2, C2, GL3):
        for i, alpha in enumerate(datum.roots):
            assert reflect(datum, i, alpha) == tuple(-x for x in alpha)
            # involution
            for x in [(1, 0, 0)[: datum.rank], (0, 1, 1)[: datum.rank]]:
                assert reflect(datum, i, reflect(datum, i, x)) == tuple(x)
    # fixed hyperplane
    d = GL3
    i = d.root_index((1, -1, 0))
    assert reflect(d, i, (1, 1, 0)) == (1, 1, 0)


def test_reflect_a2_cartan():
    # s_{a1}(a2) = a1 + a2 because <a2, a1^> = -1
    i1, i2 = A2.simples
    a1, a2 = A2.roots[i1], A2.roots[i2]
    assert reflect(A2, i1, a2) == tuple(x + y for x, y in zip(a1, a2))


def test_enumerate_weyl_orders():
    assert len(enumerate_weyl(A1SC)) == 2
    assert len(enumerate_weyl(A2)) == 6
    assert len(enumerate_weyl(C2)) == 8
    assert len(enumerate_weyl(GL3)) == 6
    assert len(enumerate_weyl(build_classical("D", 4, "sc"))) == 192


def test_words_evaluate_to_matrices():
    for datum in (A2, C2):
        group = WeylGroup.build(datum)
        for i in range(group.order):
            m = il.identity(datum.rank)
            for s in group.words[i]:
                from hecke_functor.weyl import _reflection_matrix
                m = il.mat_mul(m, _reflection_matrix(datum, datum.simples[s]))
            assert m == group.matrices[i]
            # reduced: length equals word length
            assert len(group.words[i]) == _finite_length_oracle(group, i)


def _finite_length_oracle(group, i):
    # number of positive roots sent negative by w^-1... for finite elements
    # length of w equals l(t_0 w)
    return length(ExtAffineElt((0,) * group.datum.rank, group.element(i)),
                  group.datum)


def test_length_identity_and_simples():
    for datum in (A1SC, A2, C2, GL3):
        group = WeylGroup.build(datum)
        zero = (0,) * datum.rank
        assert length(ExtAffineElt(zero, group.element(0)), datum) == 0
        for j in range(len(datum.simples)):
            s = group.element(group.right_mult[0][j])
            assert length(ExtAffineElt(zero, s), datum) == 1


def test_length_translation_a1_sc():
    # translation by the root alpha = 2*omega has length 2
    group = WeylGroup.build(A1SC)
    assert length(ExtAffineElt((2,), group.element(0)), A1SC) == 2
    # the fundamental weight itself has length 1, its pair with s length 0
    assert length(ExtAffineElt((1,), group.element(0)), A1SC) == 1
    s = group.element(group.right_mult[0][0])
    assert length(ExtAffineElt((1,), s), A1SC) == 0


def _bfs_length_oracle(datum, bound):
    """Graph distances from the length-zero elements, multiplying by the
    affine simple reflections; independent of the closed formula."""
    from hecke_functor.weyl import affine_simple_reflections

    group = WeylGroup.build(datum)
    omegas = omega_subgroup(datum)
    gens = affine_simple_reflections(datum)

    def mul(a, b):
        # (x, u)(y, v) = (x + u y, uv) with indices
        (x, ui) = a
        (y, vi) = b
        return (tuple(p + q for p, q in zip(x, group.act(ui, y))), group.mul(ui, vi))

    start = [(tuple(o.translation), group.index_of(o.finite)) for o in omegas]
    dist = {s: 0 for s in start}
    frontier = list(start)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                gi = (tuple(g.translation), group.index_of(g.finite))
                for b in (mul(a, gi), mul(gi, a)):
                    if max(map(abs, b[0]), default=0) > bound + 2:
                        continue
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        new.append(b)
        frontier = new
    return dist


@pytest.mark.parametrize("datum", [A1SC, A2, C2])
def test_length_formula_matches_bfs(datum):
    dist = _bfs_length_oracle(datum, 3)
    group = WeylGroup.build(datum)
    checked = 0
    for (x, wi), d in dist.items():
        if max(map(abs, x), default=0) <= 3:
            assert length(ExtAffineElt(x, group.element(wi)), datum) == d
            checked += 1
    assert checked > 10


# ---------------------------------------------------------------------------
# the root and inversion rows against the matrices

# every family of rank <= 3 in both isogenies, GL2-3 and one direct sum
ROW_DATA = {f"{family}{n} {iso}": build_classical(family, n, iso)
            for family, ranks in (("A", (1, 2, 3)), ("B", (2, 3)), ("C", (2, 3)), ("D", (3,)))
            for n in ranks for iso in ("sc", "ad")}
ROW_DATA.update({"GL2": build_classical("GL", 2), "GL3": GL3,
                 "A1 sc + B2 ad": direct_sum(A1SC, build_classical("B", 2, "ad"))})


def _negative_under_inverse(datum, m):
    """For each positive root a (in positive_root_indices order): 1 if the
    inverse of the matrix m sends a to a negative root, else 0."""
    positive = datum.positive_root_indices()
    m_inv = il.inverse_unimodular(m)
    return tuple(0 if datum.root_index(il.mat_vec(m_inv, datum.roots[i])) in positive else 1
                 for i in positive)


def _matrix_length(datum, m, x):
    """l(t_x w) for the matrix m of w, under LENGTH_POLICY, on matrices only."""
    positive = datum.positive_root_indices()
    m_inv = il.inverse_unimodular(m)
    total = 0
    for i in positive:
        k = datum.pairing(x, datum.coroots[i])
        if datum.root_index(il.mat_vec(m_inv, datum.roots[i])) in positive:
            total += abs(k)
        else:
            total += abs(k - 1)
    return total


@pytest.mark.parametrize("name", sorted(ROW_DATA))
def test_root_and_inversion_rows_match_the_matrices(name):
    datum = ROW_DATA[name]
    group = WeylGroup(datum)
    for i, m in enumerate(group.matrices):
        row = group.row(i)
        assert [datum.roots[k] for k in row] == [il.mat_vec(m, alpha) for alpha in datum.roots]
        assert group.inversions(i) == _negative_under_inverse(datum, m)
        # the inversion row of w has l(w) flags
        assert sum(group.inversions(i)) == len(group.words[i])


@pytest.mark.parametrize("name", sorted(ROW_DATA))
def test_length_by_rows_matches_the_matrix_formula(name):
    from hecke_functor.weyl import _length_indexed
    datum = ROW_DATA[name]
    group = WeylGroup.build(datum)
    box = range(-2, 3) if datum.rank <= 2 else range(-1, 2)
    for x in itertools.product(box, repeat=datum.rank):
        for i, m in enumerate(group.matrices):
            assert _length_indexed(group, x, i) == _matrix_length(datum, m, x)


def test_one_length_request_builds_rows_only_along_its_word(capsys):
    import json
    import hecke_functor.weyl as weyl_mod
    from hecke_functor.cli import main
    weyl_mod._build_group.cache_clear()
    word = [0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 0]
    assert main(["weyl", "length", "--in", "datum:a7sc", "--element",
                 json.dumps({"t": [1, -2, 0, 3, 0, 0, -1], "w_word": word})]) == 0
    length_out = json.loads(capsys.readouterr().out)["length"]
    group = WeylGroup.build(build_classical("A", 7, "sc"))
    wi = group.index_of_word(word)
    assert group.order == 40320 and len(group.datum.roots) == 56
    # the identity's row and one per letter of the reduced word, no more
    assert len(group._rows) <= len(group.words[wi]) + 1
    assert list(group._inversions) == [wi]
    assert length_out == _matrix_length(group.datum, group.matrices[wi],
                                        (1, -2, 0, 3, 0, 0, -1))
    weyl_mod._build_group.cache_clear()     # let the 40 320 matrices go


# ---------------------------------------------------------------------------
# stabilizers


def test_stabilizer_generic_point_trivial():
    pt = (Eig(Fraction(1), Fraction(0)), Eig(Fraction(0), Fraction(1, 7)),
          Eig(Fraction(2), Fraction(1, 3)))
    stab = stabilizer_of_point(GL3, pt)
    assert stab.order == 1


def test_stabilizer_full_group():
    pt = tuple(Eig() for _ in range(3))
    stab = stabilizer_of_point(GL3, pt)
    assert stab.order == 6


def test_stabilizer_partial():
    pt = (Eig(), Eig(), Eig(Fraction(1)))
    stab = stabilizer_of_point(GL3, pt)
    assert stab.order == 2


def test_projective_stabilizer_cyclic():
    # the regular multiplicative orbit point: stabilizer mod scalars is
    # cyclic of order n generated by the n-cycle
    for n in (2, 3, 4, 5):
        gl = build_classical("GL", n)
        pt = tuple(Eig.root_of_unity(k, n) for k in range(n))
        stab = stabilizer_of_point(gl, pt, projective=True)
        assert stab.order == n
        # contains the n-cycle permutation matrix
        perm = tuple(tuple(1 if i == (j + 1) % n else 0 for j in range(n))
                     for i in range(n))
        assert any(e.matrix == perm for e in stab.elements)
        # cyclic: some element generates
        group = WeylGroup.build(gl)
        idx = [group.index_of(e) for e in stab.elements]
        assert any(_cyclic_order(group, i) == n for i in idx)


def _cyclic_order(group, i):
    k, acc = 1, i
    while acc != 0:
        acc = group.mul(acc, i)
        k += 1
    return k


def test_projective_stabilizer_without_scalar_direction():
    with pytest.raises(RootDatumError):
        stabilizer_of_point(A2, (Eig(), Eig()), projective=True)


def test_stabilizer_closure_and_nonmembers_move():
    pt = (Eig(), Eig(angle=Fraction(1, 2)), Eig(Fraction(1)))
    stab = stabilizer_of_point(GL3, pt)
    group = WeylGroup.build(GL3)
    idx = {group.index_of(e) for e in stab.elements}
    for a, b in itertools.product(idx, repeat=2):
        assert group.mul(a, b) in idx
    for i in idx:
        assert group.inv(i) in idx
    for i in range(group.order):
        if i not in idx:
            assert _act_on_point(group, i, pt) != pt


# The Fraction path that the integer stabilizer replaced, kept as its
# reference: each Weyl element acts on the point through Eig arithmetic.

def _act_on_point(group, wi, point):
    # (w t)(x) = t(w^-1 x): additively, apply the transpose of w^-1
    m = il.transpose(group.matrices[group.inv(wi)])
    out = []
    for row in m:
        q = Fraction(0)
        a = Fraction(0)
        for c, e in zip(row, point):
            q += c * e.q_exp
            a += c * e.angle
        out.append(Eig(q, a))
    return tuple(out)


def _differ_by_scalar(a, b, direction):
    """Is a = b * lambda^direction for a single scalar lambda?"""
    pivot = next((k for k, d in enumerate(direction) if d != 0), None)
    if pivot is None:
        return a == b
    d0 = direction[pivot]
    diff = a[pivot] / b[pivot]
    # lambda^d0 = diff: |d0| candidate angles, one candidate q-exponent
    for shift in range(abs(d0)):
        cand = Eig(diff.q_exp / d0, (diff.angle + shift) / d0)
        if all(y * cand ** d == x for x, y, d in zip(a, b, direction)):
            return True
    return False


def _reference_members(datum, point, direction=None):
    group = WeylGroup.build(datum)
    out = []
    for i in range(group.order):
        moved = _act_on_point(group, i, point)
        if moved == point if direction is None else _differ_by_scalar(moved, point, direction):
            out.append(i)
    return out


def _random_point(rng, rank, pool):
    # coordinates drawn from a small pool, so that Weyl elements can fix them
    return tuple(rng.choice(pool) for _ in range(rank))


def _pool(rng):
    return [Eig(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))),
                Fraction(rng.randint(0, 11), rng.choice((1, 2, 3, 4, 6, 12))))
            for _ in range(3)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_integer_stabilizer_matches_the_fraction_path_on_gl(n):
    import random
    rng = random.Random(n)
    datum = build_classical("GL", n)
    group = WeylGroup.build(datum)
    (direction,) = il.kernel_basis(tuple(datum.coroots[i] for i in datum.simples))
    points = [tuple(Eig.root_of_unity(k, n) for k in range(n)),
              tuple(Eig(Fraction(k, 2), Fraction(k, 2 * n)) for k in range(n))]
    points += [_random_point(rng, n, _pool(rng)) for _ in range(12)]
    # unions of orbits of a root of unity of order m, shuffled: w(x) = lambda x
    # for a w that is no scalar, so the projective stabilizer is larger
    for m in (m for m in range(2, n + 1) if n % m == 0):
        for _ in range(3):
            bases = _pool(rng)[:n // m]
            point = [b * Eig.root_of_unity(k, m) for b in bases for k in range(m)]
            rng.shuffle(point)
            points.append(tuple(point))
    # a point and its twist by a scalar have one projective stabilizer
    points += [tuple(e * Eig(Fraction(d, 3), Fraction(d, 5)) for e, d in zip(p, direction))
               for p in points[2:6]]
    for point in points:
        for projective in (True, False):
            stab = stabilizer_of_point(datum, point, projective=projective)
            got = [group.index_of(e) for e in stab.elements]
            assert got == _reference_members(datum, point,
                                             direction if projective else None), point


@pytest.mark.parametrize("family,rank,iso", [
    (f, r, iso) for f in "ABC" for r in (1, 2, 3) for iso in ("sc", "ad")
    if r >= (1 if f == "A" else 2)])
def test_integer_stabilizer_matches_the_fraction_path_on_classical_data(family, rank, iso):
    import random
    rng = random.Random(f"{family}{rank}{iso}")
    datum = build_classical(family, rank, iso)
    group = WeylGroup.build(datum)
    points = [(Eig(),) * rank] + [_random_point(rng, rank, _pool(rng)) for _ in range(25)]
    for point in points:
        got = [group.index_of(e) for e in stabilizer_of_point(datum, point).elements]
        assert got == _reference_members(datum, point), point


# ---------------------------------------------------------------------------
# omega


def test_omega_a1_sc():
    oms = omega_subgroup(A1SC)
    assert len(oms) == 2
    nontrivial = next(o for o in oms if o.translation != (0,))
    assert nontrivial.translation == (1,)
    assert len(nontrivial.finite.word) == 1


def test_omega_a1_ad_trivial():
    oms = omega_subgroup(A1AD)
    assert len(oms) == 1
    assert oms[0].translation == (0,)


def test_omega_matches_brute_force():
    # enumerate all length-zero elements with small translations directly
    for datum in (A1SC, A1AD, A2, C2):
        group = WeylGroup.build(datum)
        brute = set()
        ranges = [range(-3, 4)] * datum.rank
        for x in itertools.product(*ranges):
            for wi in range(group.order):
                if length(ExtAffineElt(x, group.element(wi)), datum) == 0:
                    brute.add((x, wi))
        ours = {(o.translation, group.index_of(o.finite)) for o in omega_subgroup(datum)}
        assert ours == brute


def test_omega_counts():
    assert len(omega_subgroup(A2)) == 3
    assert len(omega_subgroup(build_classical("A", 2, "ad"))) == 1
    assert len(omega_subgroup(C2)) == 2
    assert len(omega_subgroup(torus_datum(0))) == 1


def test_length_invariant_under_omega():
    # l(e * r) = l(e) for every length-zero r
    for datum in (A1SC, A2, C2):
        group = WeylGroup.build(datum)
        oms = omega_subgroup(datum)
        for x in itertools.product(range(-2, 3), repeat=datum.rank):
            for wi in range(group.order):
                base = length(ExtAffineElt(x, group.element(wi)), datum)
                for o in oms:
                    y = tuple(a + b for a, b in
                              zip(x, group.act(wi, o.translation)))
                    vi = group.mul(wi, group.index_of(o.finite))
                    assert length(ExtAffineElt(y, group.element(vi)), datum) == base


def test_omega_normalizes_affine_simples():
    from hecke_functor.weyl import affine_simple_reflections
    for datum in (A1SC, A2, C2):
        group = WeylGroup.build(datum)
        gens = {(g.translation, group.index_of(g.finite))
                for g in affine_simple_reflections(datum)}

        def mul(a, b):
            return (tuple(p + q for p, q in zip(a[0], group.act(a[1], b[0]))),
                    group.mul(a[1], b[1]))

        def inv(a):
            wi = group.inv(a[1])
            return (tuple(-v for v in group.act(wi, a[0])), wi)

        for o in omega_subgroup(datum):
            oo = (o.translation, group.index_of(o.finite))
            conj = {mul(mul(oo, g), inv(oo)) for g in gens}
            assert conj == gens


def test_eig_json_round_trip_and_refusals():
    e = Eig(Fraction(-3, 2), Fraction(2, 5))
    assert Eig.from_json(e.to_json()) == e
    assert Eig.from_json({"q": 1, "angle": "1/3"}) == Eig(Fraction(1), Fraction(1, 3))
    for data in ([0, 0], {"q": "0"}, {"q": None, "angle": "0"},
                 {"q": "0", "angle": "1/0"}, {"q": "x", "angle": "0"}):
        with pytest.raises(ValueError):
            Eig.from_json(data)
