import itertools
from fractions import Fraction

import pytest

from hecke_functor.numkernel import Cyclo, cyclo_root_of_unity
from hecke_functor.finrep import (
    FiniteGroup, FinRepError, RepOrChar, character_product,
    clifford_identity_check, hom_mult, induce, irreducibles, restrict, twist,
)
from hecke_functor.lparam import GroupTag, ToyParameter, component_group, tau_character
from hecke_functor.weyl import Eig


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


def test_characters_are_memoised_per_group_instance():
    from hecke_functor import finrep
    d4 = FiniteGroup.dihedral(4)
    marked = FiniteGroup(d4.table, {"centre": sorted(d4.center())})
    plain_chars, marked_chars = irreducibles(d4), irreducibles(marked)
    # one table, two groups: each keeps characters that carry it
    assert all(c.group is d4 for c in plain_chars)
    assert all(c.group is marked for c in marked_chars)
    assert [c.values for c in plain_chars] == [c.values for c in marked_chars]
    assert [c.values for c in finrep._irreducibles.__wrapped__(d4)] == \
        [c.values for c in plain_chars]
    # a second call returns the same characters, in a list of its own
    again = irreducibles(d4)
    assert again == plain_chars and again is not plain_chars
    assert all(a is b for a, b in zip(again, plain_chars))


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
    d3 = FiniteGroup.dihedral(3)
    # a group takes its marked subgroups when it is built, and keeps them
    g = FiniteGroup(d3.table, {"rotations": [i for i in range(6)
                                             if d3.element_order(i) in (1, 3)]})
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


# ---------------------------------------------------------------------------
# the exponent path against the Cyclo sums it replaces


def _inner_by_cyclo(sigma, rho):
    """sum sigma(g) conj(rho(g)) / |G| over the values, as a Cyclo."""
    total = Cyclo.rational(0)
    for a in range(sigma.group.order):
        total = total + sigma.values[a] * rho.values[a].conj()
    return total * Cyclo.rational(Fraction(1, sigma.group.order))


def _values_only(chi):
    return RepOrChar(chi.group, chi.values)


def _check_against_cyclo(sigma, rho):
    assert sigma.exps is not None and rho.exps is not None
    want = _inner_by_cyclo(sigma, rho).rational_value()
    assert want.denominator == 1 and want >= 0
    assert hom_mult(sigma, rho) == want
    assert hom_mult(_values_only(sigma), _values_only(rho)) == want


_SMALL_ABELIAN = [pytest.param(FiniteGroup.cyclic(n), id=f"C{n}") for n in range(1, 13)] + [
    pytest.param(FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(a)), id=f"C2xC{a}")
    for a in (2, 4)]


@pytest.mark.parametrize("group", _SMALL_ABELIAN)
def test_counting_hom_mult_matches_the_cyclo_sum(group):
    chars = irreducibles(group)
    for chi in chars:
        n, exps = chi.exps
        assert n == group.exponent()
        assert chi.values == tuple(cyclo_root_of_unity(e, n) for e in exps)
    for sigma, rho in itertools.product(chars, repeat=2):
        _check_against_cyclo(sigma, rho)


def _tau_by_cyclo(tag, phi, g, res):
    """tau(i) = prod over SL factors of c^(sum g_f), c the commutator scalar
    phi_{w^-1(j)} / phi_j of the component's permutation w, in Cyclo
    products."""
    values = []
    for i in range(res.order):
        total = Cyclo.rational(1)
        for f, (kind, n) in enumerate(tag.factors):
            if kind != "SL":
                continue
            w, _ = res.pair_data(i)[f]
            eigs = phi.factors[f]
            w_inv = tuple(w.index(j) for j in range(n))
            ratios = {eigs[w_inv[j]] / eigs[j] for j in range(n)}
            assert len(ratios) == 1
            lam = ratios.pop()
            total = total * cyclo_root_of_unity(lam.angle.numerator,
                                                lam.angle.denominator) ** sum(g[f])
        values.append(total)
    return values


def _sl_principal(*sizes):
    """SL_n1 x SL_n2 x ... with principal cycles: S_phi = Z/n1 x Z/n2 x ..."""
    tag = GroupTag(tuple(("SL", n) for n in sizes))
    return tag, ToyParameter.make(tag, [[Eig.root_of_unity(k, n) for k in range(n)]
                                        for n in sizes])


@pytest.mark.parametrize("sizes", [(n,) for n in range(1, 13)] + [(2, 2), (2, 4)],
                         ids=str)
def test_products_with_tau_match_the_cyclo_products(sizes):
    tag, phi = _sl_principal(*sizes)
    res = component_group(tag, phi)
    group = res.group
    chars = irreducibles(group)
    cocharacters = [[[1] + [0] * (n - 1) for n in sizes],
                    [list(range(n - 1)) + [-2] for n in sizes]]
    for g in cocharacters:
        tau = tau_character(tag, phi, g, res)
        assert list(tau.values) == _tau_by_cyclo(tag, phi, g, res)
        for sigma in chars:
            product = character_product(group, [(sigma, None, 1), (tau, None, 1)])
            assert product.values == tuple(a * b for a, b in zip(sigma.values, tau.values))
            inverse = character_product(group, [(sigma, None, 1), (tau, None, -1)])
            assert inverse.values == tuple(a * b.inverse()
                                           for a, b in zip(sigma.values, tau.values))
            for rho in chars:
                _check_against_cyclo(product, rho)


def test_character_product_through_a_map():
    # a character of Z/6 pulled back along Z/3 -> Z/6, k -> 2k, twisted
    z3, z6 = FiniteGroup.cyclic(3), FiniteGroup.cyclic(6)
    embed = [0, 2, 4]
    for chi in irreducibles(z6):
        for tau in irreducibles(z3):
            got = character_product(z3, [(chi, embed, 1), (tau, None, -1)])
            assert got.values == tuple(chi.values[embed[i]] * tau.values[i].inverse()
                                       for i in range(3))
            slow = character_product(z3, [(_values_only(chi), embed, 1), (tau, None, -1)])
            assert slow.exps is None and slow.values == got.values


@pytest.mark.parametrize("exps", [(0, 1, 0, 0), (0, 2, 0, 0), (1, 1, 1, 0)])
def test_a_class_function_that_is_not_a_character_is_refused(exps):
    # on Z/4 against the trivial character: (3 + i) / 4, 1 / 2 and (1 + 3i) / 4
    group = FiniteGroup.cyclic(4)
    sigma = RepOrChar.from_exponents(group, 4, exps)
    trivial = irreducibles(group)[0]
    assert trivial.values == (Cyclo.rational(1),) * 4
    want = _inner_by_cyclo(sigma, trivial)
    assert not (want.is_rational() and want.rational_value().denominator == 1)
    with pytest.raises(FinRepError):
        hom_mult(sigma, trivial)
    with pytest.raises(FinRepError):
        hom_mult(_values_only(sigma), _values_only(trivial))
