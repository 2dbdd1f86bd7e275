import itertools

import pytest

from hecke_functor.numkernel import Cyclo, cyclo_root_of_unity
from hecke_functor.finrep import (
    FiniteGroup, FinRepError, RepOrChar, clifford_identity_check, hom_mult,
    induce, irreducibles, restrict, twist,
)


def test_cyclic_characters():
    for n in (1, 2, 3, 4, 5, 6, 8):
        g = FiniteGroup.cyclic(n)
        chars = irreducibles(g)
        assert len(chars) == n
        assert all(c.degree == 1 for c in chars)
        assert len({tuple(c.values) for c in chars}) == n


def test_klein_four_characters():
    g = FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
    chars = irreducibles(g)
    assert len(chars) == 4
    assert all(c.degree == 1 for c in chars)


def test_s3_character_degrees():
    # classical table: degrees 1, 1, 2
    g = FiniteGroup.symmetric(3)
    chars = irreducibles(g)
    assert sorted(c.degree for c in chars) == [1, 1, 2]
    # the degree-2 character takes value -1 on 3-cycles and 0 on transpositions
    chi2 = next(c for c in chars if c.degree == 2)
    for a in range(g.order):
        o = g.element_order(a)
        if o == 3:
            assert chi2.values[a] == Cyclo.rational(-1)
        elif o == 2:
            assert chi2.values[a].is_zero()


def test_s4_and_d4_degrees():
    assert sorted(c.degree for c in irreducibles(FiniteGroup.symmetric(4))) == \
        [1, 1, 2, 3, 3]
    assert sorted(c.degree for c in irreducibles(FiniteGroup.dihedral(4))) == \
        [1, 1, 1, 1, 2]


def test_quaternion_degrees():
    # Q8 as a subgroup of units: elements +-1, +-i, +-j, +-k
    els = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    mul_table = {}
    def base_mul(a, b):
        sign = 1
        for x in (a, b):
            pass
        table = {("1", x): x for x in "1ijk"}
        return None
    # simpler: construct from generator relations via permutation action
    # i -> (1 -1)(i -i)... build by explicit quaternion multiplication
    def q_mul(a, b):
        sa = -1 if a.startswith("-") else 1
        sb = -1 if b.startswith("-") else 1
        ua, ub = a.lstrip("-"), b.lstrip("-")
        rules = {("1", "1"): (1, "1")}
        for u in "ijk":
            rules[("1", u)] = (1, u)
            rules[(u, "1")] = (1, u)
            rules[(u, u)] = (-1, "1")
        rules[("i", "j")] = (1, "k")
        rules[("j", "k")] = (1, "i")
        rules[("k", "i")] = (1, "j")
        rules[("j", "i")] = (-1, "k")
        rules[("k", "j")] = (-1, "i")
        rules[("i", "k")] = (-1, "j")
        s, u = rules[(ua, ub)]
        total = sa * sb * s
        return u if total == 1 else "-" + u
    g = FiniteGroup.from_mul(els, q_mul)
    assert sorted(c.degree for c in irreducibles(g)) == [1, 1, 1, 1, 2]


def test_character_orthogonality():
    for g in [FiniteGroup.symmetric(3), FiniteGroup.dihedral(4),
              FiniteGroup.cyclic(6),
              FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))]:
        chars = irreducibles(g)
        for i, a in enumerate(chars):
            for j, b in enumerate(chars):
                assert hom_mult(a, b) == (1 if i == j else 0)
        for c in chars:
            assert c.is_class_function()


def test_alternating_group_has_cube_roots():
    # A4: degrees 1,1,1,3 with primitive cube roots of unity in the table
    import itertools as it
    perms = [p for p in it.permutations(range(4)) if _sign(p) == 1]
    def mul(p, q):
        return tuple(p[q[i]] for i in range(4))
    g = FiniteGroup.from_mul(perms, mul)
    chars = irreducibles(g)
    assert sorted(c.degree for c in chars) == [1, 1, 1, 3]
    vals = {v for c in chars for v in c.values if c.degree == 1}
    assert cyclo_root_of_unity(1, 3) in vals


def _sign(p):
    s = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                s = -s
    return s


# ---------------------------------------------------------------------------
# induction


def test_induce_identity_subgroup():
    g = FiniteGroup.cyclic(4)
    chars = irreducibles(g)
    # N = G: induction is the identity
    ind, decomp = induce(g, range(4), chars[1])
    assert tuple(ind.values) == tuple(chars[1].values)
    assert len(decomp) == 1 and decomp[0][1] == 1


def test_induce_trivial_from_identity_in_z2():
    g = FiniteGroup.cyclic(2)
    triv_sub = FiniteGroup.cyclic(1)
    rho = RepOrChar(triv_sub, (Cyclo.rational(1),))
    ind, decomp = induce(g, [g.identity], rho)
    # trivial + sign
    assert ind.degree == 2
    assert sorted(m for _, m in decomp) == [1, 1]
    assert len(decomp) == 2


def test_induce_z2_in_z4():
    # the nontrivial character of Z/2 inside Z/4 induces to the two order-4
    # characters, each once (direct character computation)
    g = FiniteGroup.cyclic(4)
    sub = frozenset({0, 2})
    sub_group, members = g.subgroup_as_group(sub)
    nontriv = RepOrChar(sub_group, (Cyclo.rational(1), Cyclo.rational(-1)))
    ind, decomp = induce(g, sub, nontriv)
    assert ind.degree == 2
    assert len(decomp) == 2
    for chi, m in decomp:
        assert m == 1
        # order-4 characters take value +-i on the generator
        assert chi.values[1] in (cyclo_root_of_unity(1, 4), cyclo_root_of_unity(3, 4))


def test_induce_rejects_bad_settings():
    s3 = FiniteGroup.symmetric(3)
    # a non-normal order-2 subgroup
    transposition = next(a for a in range(6) if s3.element_order(a) == 2)
    sub = frozenset({s3.identity, transposition})
    sub_group, _ = s3.subgroup_as_group(sub)
    rho = RepOrChar(sub_group, (Cyclo.rational(1), Cyclo.rational(1)))
    with pytest.raises(FinRepError):
        induce(s3, sub, rho)
    # normal subgroup with non-abelian quotient: N = 1 in S_3
    triv = FiniteGroup.cyclic(1)
    rho = RepOrChar(triv, (Cyclo.rational(1),))
    with pytest.raises(FinRepError):
        induce(s3, [s3.identity], rho)


FIXTURES = []


def _fixture_list():
    if FIXTURES:
        return FIXTURES
    z4 = FiniteGroup.cyclic(4)
    FIXTURES.append((z4, frozenset({0, 2})))
    z8 = FiniteGroup.cyclic(8)
    FIXTURES.append((z8, frozenset({0, 2, 4, 6})))
    z2z4 = FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))
    klein = frozenset(i for i, _ in enumerate(
        itertools.product(range(2), range(4))))
    # the subgroup Z/2 x 2Z/4
    elems = list(itertools.product(range(2), range(4)))
    klein = frozenset(i for i, (a, b) in enumerate(elems) if b % 2 == 0)
    FIXTURES.append((z2z4, klein))
    s3 = FiniteGroup.symmetric(3)
    a3 = frozenset(a for a in range(6) if s3.element_order(a) in (1, 3))
    FIXTURES.append((s3, a3))
    d4 = FiniteGroup.dihedral(4)
    # the Klein subgroup containing the center: rotations {0,2} and two flips
    elems4 = [(r, f) for f in (0, 1) for r in range(4)]
    klein_d4 = frozenset(i for i, (r, f) in enumerate(elems4)
                         if (f == 0 and r % 2 == 0) or (f == 1 and r % 2 == 0))
    FIXTURES.append((d4, klein_d4))
    # the cyclic rotation subgroup of D4
    rot = frozenset(i for i, (r, f) in enumerate(elems4) if f == 0)
    FIXTURES.append((d4, rot))
    s4 = FiniteGroup.symmetric(4)
    import itertools as it
    perms = list(it.permutations(range(4)))
    a4 = frozenset(i for i, p in enumerate(perms) if _sign(p) == 1)
    FIXTURES.append((s4, a4))
    return FIXTURES


def test_frobenius_reciprocity_exhaustive():
    for group, normal in _fixture_list():
        sub_group, members = group.subgroup_as_group(normal)
        g_chars = irreducibles(group)
        for rho in irreducibles(sub_group):
            ind, decomp = induce(group, normal, rho)
            for sigma in g_chars:
                lhs = hom_mult(ind, sigma)
                rhs = hom_mult(rho, restrict(sigma, normal, sub_group))
                assert lhs == rhs
            # degree conservation
            index = group.order // len(members)
            assert sum(m * c.degree for c, m in decomp) == index * rho.degree


def test_clifford_rederivation_all_fixtures():
    for group, normal in _fixture_list():
        sub_group, _ = group.subgroup_as_group(normal)
        for rho in irreducibles(sub_group):
            assert clifford_identity_check(group, normal, rho)


def test_clifford_stable_character_z2_in_z4():
    # G-stable rho with cyclic quotient of order 2: two extensions, each once
    g = FiniteGroup.cyclic(4)
    sub = frozenset({0, 2})
    sub_group, _ = g.subgroup_as_group(sub)
    triv = RepOrChar(sub_group, (Cyclo.rational(1), Cyclo.rational(1)))
    ind, decomp = induce(g, sub, triv)
    assert len(decomp) == 2
    assert all(m == 1 for _, m in decomp)
    assert clifford_identity_check(g, sub, triv)


def test_clifford_free_orbit_d4():
    # character of the Klein subgroup moved by conjugation: single induced
    # irreducible (the 2-dimensional one)
    d4 = FiniteGroup.dihedral(4)
    elems4 = [(r, f) for f in (0, 1) for r in range(4)]
    klein = frozenset(i for i, (r, f) in enumerate(elems4) if r % 2 == 0)
    sub_group, members = d4.subgroup_as_group(klein)
    # conjugation by the rotation swaps the two flips and fixes the center;
    # a character with rho(r^2) = -1 is genuinely moved
    r2 = members.index(next(i for i in sorted(klein)
                            if elems4[i] == (2, 0)))
    flip = members.index(next(i for i in sorted(klein)
                              if elems4[i] == (0, 1)))
    for rho in irreducibles(sub_group):
        if rho.values[r2] == Cyclo.rational(-1) and rho.values[flip] == Cyclo.rational(1):
            ind, decomp = induce(d4, klein, rho)
            assert len(decomp) == 1
            chi, m = decomp[0]
            assert m == 1 and chi.degree == 2
            assert clifford_identity_check(d4, klein, rho)
            break
    else:
        raise AssertionError("fixture character not found")


def test_twist():
    g = FiniteGroup.cyclic(5)
    chars = irreducibles(g)
    # order the characters by their value on the generator
    by_gen = {}
    for c in chars:
        a, n = c.values[1].as_root_of_unity()
        k = a * 5 // n % 5 if n in (1, 5) else None
        by_gen[k] = c
    for a in range(5):
        for b in range(5):
            tw = twist(by_gen[a], by_gen[b])
            assert tuple(tw.values) == tuple(by_gen[(a + b) % 5].values)
    # twist by the inverse undoes the twist
    some = by_gen[2]
    inv = by_gen[3]
    chi = twist(twist(chars[0], some), inv)
    assert tuple(chi.values) == tuple(chars[0].values)
    with pytest.raises(FinRepError):
        s3 = FiniteGroup.symmetric(3)
        deg2 = next(c for c in irreducibles(s3) if c.degree == 2)
        twist(deg2, deg2)


def test_induced_character_vanishes_off_subgroup_when_orbit_free():
    d4 = FiniteGroup.dihedral(4)
    elems4 = [(r, f) for f in (0, 1) for r in range(4)]
    klein = frozenset(i for i, (r, f) in enumerate(elems4) if r % 2 == 0)
    sub_group, members = d4.subgroup_as_group(klein)
    r2 = members.index(next(i for i in sorted(klein) if elems4[i] == (2, 0)))
    flip = members.index(next(i for i in sorted(klein) if elems4[i] == (0, 1)))
    rho = next(c for c in irreducibles(sub_group)
               if c.values[r2] == Cyclo.rational(-1)
               and c.values[flip] == Cyclo.rational(1))
    ind, _ = induce(d4, klein, rho)
    for g in range(d4.order):
        if g not in klein:
            assert ind.values[g].is_zero()


def test_group_json_round_trip():
    g = FiniteGroup.dihedral(3)
    g.mark_subgroup("rotations", [i for i in range(6)
                                  if g.element_order(i) in (1, 3)])
    data = g.to_json()
    g2 = FiniteGroup.from_json(data)
    assert g2.table == g.table
    assert g2.marked_subgroups == g.marked_subgroups


@pytest.mark.parametrize("data", [
    {"table": [[0, 1], [1, 1]]},                 # element 1 has no inverse
    {"table": 5}, {"table": [[0, "1"], [1, 0]]}, [[0]],
    {"table": [[0]], "subgroups": {"h": [1]}},
])
def test_malformed_group_json_is_refused(data):
    with pytest.raises(FinRepError):
        FiniteGroup.from_json(data)


def test_matrix_representation_character():
    # the 2-dimensional representation of S_3 on the zero-sum plane
    g = FiniteGroup.symmetric(3)
    import itertools as it
    perms = list(it.permutations(range(3)))
    gens = [i for i, p in enumerate(perms) if p in [(1, 0, 2), (0, 2, 1)]]
    def perm_matrix(p):
        # action on e1 - e2, e2 - e3 coordinates
        rows = []
        full = [[Cyclo.rational(1 if p[j] == i else 0) for j in range(3)]
                for i in range(3)]
        # base change to the zero-sum plane with basis f1 = e1-e2, f2 = e2-e3
        # work out the 2x2 matrix by acting on f1, f2
        def act(vec):
            out = [Cyclo.rational(0)] * 3
            for j, c in enumerate(vec):
                out[p.index(j)] = out[p.index(j)] + c
            return out
        f1 = [Cyclo.rational(1), Cyclo.rational(-1), Cyclo.rational(0)]
        f2 = [Cyclo.rational(0), Cyclo.rational(1), Cyclo.rational(-1)]
        images = [act(f1), act(f2)]
        # express each image in terms of f1, f2: (a, b) with image = a f1 + b f2
        out = []
        for img in images:
            a = img[0]
            b = Cyclo.rational(0) - img[2]
            out.append((a, b))
        return ((out[0][0], out[1][0]), (out[0][1], out[1][1]))
    mats = {gi: perm_matrix(perms[gi]) for gi in gens}
    chi = RepOrChar.from_matrices(g, mats, gens)
    assert chi.degree == 2
    assert hom_mult(chi, chi) == 1
