import itertools
from fractions import Fraction

import pytest

from hecke_functor import intlattice as il
from hecke_functor.rootdata import (
    RootDatumError, build_classical, torus_datum,
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
    monkeypatch.setattr(weyl_mod.WeylGroup, "_cache", {})
    assert len(enumerate_weyl(build_classical("B", 2, "ad"))) == 8
    with pytest.raises(RootDatumError):
        enumerate_weyl(build_classical("C", 3, "ad"))   # |W| = 48 > 10


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
    from hecke_functor.weyl import _act_on_point
    for i in range(group.order):
        if i not in idx:
            assert _act_on_point(group, i, pt) != pt


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
