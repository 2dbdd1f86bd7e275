import itertools
import random
from fractions import Fraction

import pytest

from hecke_functor import functor, lparam
from hecke_functor.finrep import hom_mult, irreducibles
from hecke_functor.numkernel import Cyclo, cyclo_root_of_unity
from hecke_functor.lparam import (
    GroupTag, LParamError, ToyParameter, component_group,
    parameter_from_json, parameter_to_json, relevant_enhancements,
    tau_character,
)
from hecke_functor.weyl import Eig


def sl_tag(n, zeta=0):
    return GroupTag.single("SL", n, zeta)


def principal(n, kind="SL"):
    tag = GroupTag.single(kind, n)
    return tag, ToyParameter.principal_cycle(tag)


def test_component_group_sl_principal():
    for n in range(2, 9):
        tag, phi = principal(n)
        res = component_group(tag, phi)
        assert res.order == n
        assert res.is_cyclic()
        # the quotient by the on-the-nose part is everything
        assert res.quotient_order() == n
        # the generator's permutation part is an n-cycle
        gens = [i for i in range(n) if res.group.element_order(i) == n]
        assert gens
        w, lam = res.pair_data(gens[0])[0]
        cyc_len, cur = 1, w[0]
        while cur != 0:
            cur = w[cur]
            cyc_len += 1
        assert cyc_len == n


def test_component_group_gl_trivial():
    for n in (2, 3, 4):
        tag = GroupTag.single("GL", n)
        phi = ToyParameter.make(tag, [[Eig.root_of_unity(k, n) for k in range(n)]])
        res = component_group(tag, phi)
        assert res.order == 1
    # with multiplicities, still trivial
    tag = GroupTag.single("GL", 3)
    phi = ToyParameter.make(tag, [[Eig(), Eig(), Eig(Fraction(1))]])
    assert component_group(tag, phi).order == 1


def test_component_group_pgl_trivial():
    tag = GroupTag.single("PGL", 2)
    phi = ToyParameter.make(tag, [[Eig(Fraction(1, 2)), Eig(Fraction(-1, 2))]])
    assert component_group(tag, phi).order == 1


def test_component_group_torus_trivial():
    tag = GroupTag.single("T", 3)
    phi = ToyParameter.make(tag, [[Eig(), Eig(Fraction(2)), Eig()]])
    assert component_group(tag, phi).order == 1


def test_component_group_generic_sl_trivial():
    tag = sl_tag(3)
    phi = ToyParameter.make(tag, [[Eig(Fraction(0)), Eig(Fraction(1)),
                                   Eig(Fraction(5, 2), Fraction(1, 7))]])
    assert component_group(tag, phi).order == 1


def test_multiplicity_guard():
    tag = sl_tag(3)
    with pytest.raises(LParamError):
        component_group(tag, ToyParameter.make(tag, [[Eig(), Eig(), Eig()]]))


def test_sl2_half_integer_example():
    # (1, -1) projectively normalized: stabilizer of order 2
    tag, phi = principal(2)
    res = component_group(tag, phi)
    assert res.order == 2


def test_product_tag():
    tag = GroupTag((("SL", 3), ("T", 1), ("GL", 2)))
    phi = ToyParameter.make(tag, [
        [Eig.root_of_unity(k, 3) for k in range(3)],
        [Eig()],
        [Eig(), Eig(Fraction(1))]])
    res = component_group(tag, phi)
    assert res.order == 3


def test_abelian_quotient_invariant():
    for n in range(2, 7):
        tag, phi = principal(n)
        res = component_group(tag, phi)
        assert res.group.is_abelian()
        assert res.group.quotient_is_abelian(
            res.group.marked_subgroups["S_phi_lift"])


# ---------------------------------------------------------------------------
# tau characters


def test_tau_values_on_principal_cycle():
    # pairing the cyclic generator's k-th power with diag(pi, 1, ..., 1)
    # gives zeta_n^{-k}
    for n in range(2, 9):
        tag, phi = principal(n)
        res = component_group(tag, phi)
        g = [[1] + [0] * (n - 1)]
        tau = tau_character(tag, phi, g, res)
        gen = next(i for i in range(n) if res.group.element_order(i) == n
                   and _is_standard_cycle(res.pair_data(i)[0][0]))
        power = gen
        cur = gen
        # walk the powers of the generator and compare values
        val = tau.values[gen]
        assert val == cyclo_root_of_unity(n - 1, n)   # zeta_n^{-1}
        elt = gen
        for k in range(1, n):
            assert tau.values[elt] == cyclo_root_of_unity((n - k) % n, n)
            elt = res.group.mul(elt, gen)


def _is_standard_cycle(w):
    # w sends i -> i+1 mod n: the cycle whose commutator cocycle takes the
    # value zeta_n^{-1} on Frobenius
    n = len(w)
    return all(w[i] == (i + 1) % n for i in range(n))


def test_tau_is_homomorphism_in_g():
    tag, phi = principal(4)
    res = component_group(tag, phi)
    g1 = [[1, 0, 0, 0]]
    g2 = [[0, 2, 1, 0]]
    g12 = [[1, 2, 1, 0]]
    t1 = tau_character(tag, phi, g1, res)
    t2 = tau_character(tag, phi, g2, res)
    t12 = tau_character(tag, phi, g12, res)
    for i in range(res.order):
        assert t1.values[i] * t2.values[i] == t12.values[i]


def test_tau_trivial_on_group_lattice():
    # vectors with coordinate sum 0 lift to the group's own torus; adding
    # multiples of (1, ..., 1) changes the sum by n
    tag, phi = principal(5)
    res = component_group(tag, phi)
    for g in ([[1, -1, 0, 0, 0]], [[2, 0, -2, 1, -1]], [[1, 1, 1, 1, 1]]):
        tau = tau_character(tag, phi, g, res)
        assert all(v == Cyclo.rational(1) for v in tau.values)


def test_tau_restriction_compatible_on_products():
    # tau of a product tag, restricted along an SL factor, matches the
    # factor's own tau character
    tag = GroupTag((("SL", 4), ("T", 1)))
    phi = ToyParameter.make(tag, [
        [Eig.root_of_unity(k, 4) for k in range(4)], [Eig()]])
    res = component_group(tag, phi)
    tau = tau_character(tag, phi, [[1, 0, 0, 0], []], res)

    tag1 = GroupTag.single("SL", 4)
    phi1 = ToyParameter.principal_cycle(tag1)
    res1 = component_group(tag1, phi1)
    tau1 = tau_character(tag1, phi1, [[1, 0, 0, 0]], res1)

    assert res.order == res1.order
    for i in range(res.order):
        pair = res.pair_data(i)[0]
        j = next(k for k in range(res1.order) if res1.pair_data(k)[0] == pair)
        assert tau.values[i] == tau1.values[j]


def test_tau_trivial_for_gl():
    tag = GroupTag.single("GL", 3)
    phi = ToyParameter.make(tag, [[Eig.root_of_unity(k, 3) for k in range(3)]])
    res = component_group(tag, phi)
    tau = tau_character(tag, phi, [[1, 0, 0]], res)
    assert all(v == Cyclo.rational(1) for v in tau.values)


def test_tau_character_is_linear_character():
    tag, phi = principal(6)
    res = component_group(tag, phi)
    tau = tau_character(tag, phi, [[1, 0, 0, 0, 0, 0]], res)
    assert tau.degree == 1
    assert hom_mult(tau, tau) == 1
    # multiplicative on the group
    g = res.group
    for a in range(g.order):
        for b in range(g.order):
            assert tau.values[g.mul(a, b)] == tau.values[a] * tau.values[b]


# ---------------------------------------------------------------------------
# relevance


def test_relevant_enhancements_counts():
    # split SL_n: every character of the cyclic component group is relevant
    for n in (2, 3, 5, 8):
        tag, phi = principal(n)
        assert len(relevant_enhancements(tag, phi)) == n
    # split GL_n: exactly one
    tag = GroupTag.single("GL", 4)
    phi = ToyParameter.make(tag, [[Eig.root_of_unity(k, 4) for k in range(4)]])
    assert len(relevant_enhancements(tag, phi)) == 1
    # torus: exactly one
    tag = GroupTag.single("T", 2)
    phi = ToyParameter.make(tag, [[Eig(), Eig()]])
    assert len(relevant_enhancements(tag, phi)) == 1


def test_irrelevant_for_inner_twist():
    # a nontrivial inner-twist label cannot match the trivial central
    # character of these multiplicity-free parameters
    tag = GroupTag.single("SL", 4, zeta=1)
    phi = ToyParameter.principal_cycle(GroupTag.single("SL", 4))
    assert relevant_enhancements(tag, phi) == []


# ---------------------------------------------------------------------------
# component representatives


def test_representatives_conjugate_correctly():
    # conjugating the eigenvalue list by a representative scales it by lambda
    tag, phi = principal(5)
    res = component_group(tag, phi)
    for i in range(res.order):
        w, lam = res.pair_data(i)[0]
        eigs = phi.factors[0]
        permuted = tuple(eigs[w.index(k)] for k in range(5))
        scaled = tuple(Eig(e.q_exp + lam.q_exp, e.angle + lam.angle) for e in eigs)
        assert permuted == scaled


# ---------------------------------------------------------------------------
# serialization


def test_parameter_json_round_trip():
    tag = GroupTag((("SL", 3), ("GL", 2), ("T", 1)), (0, 0, 0))
    phi = ToyParameter.make(tag, [
        [Eig.root_of_unity(k, 3) for k in range(3)],
        [Eig(Fraction(1, 2)), Eig(Fraction(-1, 2), Fraction(1, 3))],
        [Eig(Fraction(7))]])
    data = parameter_to_json(tag, phi)
    tag2, phi2 = parameter_from_json(data)
    assert tag2 == tag
    assert phi2 == phi


def test_sl_factor_components_are_memoised():
    cache = lparam._sl_factor_components
    lists = [ToyParameter.principal_cycle(sl_tag(n)).factors[0] for n in range(1, 9)]
    lists += [(Eig(0, Fraction(a, 12)), Eig(1, Fraction(b, 12)), Eig(0, Fraction(c, 12)))
              for a, b, c in itertools.permutations(range(0, 12, 4), 3)]
    lists += [(Eig(0, 0), Eig(0, Fraction(1, 3)), Eig(0, Fraction(2, 3)), Eig(Fraction(1, 2), 0))]
    for eigs in lists:
        eigs = tuple(eigs)
        result = cache(eigs)
        assert result == cache.__wrapped__(eigs)
        assert cache(eigs) is result
    info = cache.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    with pytest.raises(LParamError):
        cache((Eig(0, 0), Eig(0, 0)))


def _memo_parameters():
    for n in range(1, 7):
        for kind in ("SL", "GL", "PGL")[:3 if n % 2 else 2]:
            # the principal list has determinant one exactly for odd n
            yield principal(n, kind)
    # one tag, another list: a trivial group where the principal one is Z/4
    yield sl_tag(4), ToyParameter.make(sl_tag(4), [[Eig(Fraction(k)) for k in range(4)]])
    tag = GroupTag((("SL", 3), ("GL", 2), ("T", 1)), (0, 0, 0))
    yield tag, ToyParameter.make(tag, [
        [Eig.root_of_unity(k, 3) for k in range(3)],
        [Eig(Fraction(1, 2)), Eig(Fraction(-1, 2), Fraction(1, 3))], [Eig()]])
    tag = GroupTag((("SL", 2), ("SL", 4)), (1, 2))
    yield tag, ToyParameter.make(tag, [
        [Eig(), Eig(angle=Fraction(1, 2))],
        [Eig(angle=Fraction(2 * k + 1, 8)) for k in range(4)]])


def test_memoised_component_groups_match_uncached_builds():
    from hecke_functor import finrep
    for tag, phi in _memo_parameters():
        res = component_group(tag, phi)
        fresh = lparam._component_group.__wrapped__(tag.factors, phi)
        assert res.elements == fresh.elements
        assert res.group.table == fresh.group.table
        assert dict(res.group.marked_subgroups) == dict(fresh.group.marked_subgroups)
        assert [res.pair_data(i) for i in range(res.order)] == \
            [fresh.pair_data(i) for i in range(fresh.order)]
        # the labels zeta are not part of the key
        assert component_group(GroupTag(tag.factors), phi) is res
        chars = finrep.irreducibles(res.group)
        fresh_chars = finrep._irreducibles.__wrapped__(fresh.group)
        assert [c.values for c in chars] == [c.values for c in fresh_chars]
        assert all(c.group is res.group for c in chars)
        assert finrep.irreducibles(res.group) == chars
        assert [c.values for c in relevant_enhancements(tag, phi)] == \
            [c.values for c in relevant_enhancements(tag, phi, fresh)]
    for cache in (lparam._component_group, finrep._irreducibles):
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize


def test_component_group_marks_are_frozen():
    res = component_group(*principal(4))
    with pytest.raises(TypeError):
        res.group.marked_subgroups["Z_phi"] = frozenset()
    assert not hasattr(res.group, "mark_subgroup")
    assert res.group.marked_subgroups["Z_phi"] == {res.group.identity}


# ---------------------------------------------------------------------------
# the integer normalisation against the Fraction one it replaces


def _normalize_by_fractions(eigs):
    """Every shift by mean + j/n, as Eig lists in Fractions; the least wins."""
    n = len(eigs)
    mean_q = sum(e.q_exp for e in eigs) / n
    mean_a = sum(e.angle for e in eigs) / n
    candidates = [tuple(Eig(e.q_exp - mean_q, e.angle - mean_a - Fraction(j, n))
                        for e in eigs) for j in range(n)]
    return min(candidates, key=lambda c: tuple((e.q_exp, e.angle) for e in c))


def _catalog_lists():
    """Every list that pulling the catalog maps' parameters back, one map or
    a composable pair at a time, hands to the normalisation, n <= 7."""
    seen = []
    record = lparam._normalize_projective

    def recording(eigs):
        seen.append(tuple(eigs))
        return record(eigs)

    lparam._normalize_projective = recording
    try:
        for n in range(1, 8):
            sl, gl, pgl = (GroupTag.single(k, n) for k in ("SL", "GL", "PGL"))
            maps = [functor.hom_sl_to_gl(n), functor.hom_gl_to_pgl(n),
                    functor.hom_sl_to_pgl(n), functor.hom_dual_automorphism(gl),
                    functor.hom_torus_insertion(sl, 1), functor.hom_torus_insertion(gl, 1)]
            maps += [functor.hom_ad(t, [[1] + [0] * (n - 1)]) for t in (sl, gl, pgl)]
            maps += [functor.compose(f, q) for f in maps for q in maps
                     if f.target == q.source]
            for f in maps:
                for eigs in _shapes(n, f.target.factors[0][0]):
                    lists = [eigs] + [[Eig()]] * (len(f.target.factors) - 1)
                    functor.lmap_param(f, ToyParameter.make(f.target, lists))
    finally:
        lparam._normalize_projective = record
    return seen


def _shapes(n, kind):
    """Multiplicity-free lists of several shapes; PGL ones on determinant one."""
    qs = [Fraction(2 * i - n + 1, 2) for i in range(n)]
    out = [[Eig.root_of_unity(k, n) for k in range(n)],
           [Eig(q) for q in qs], [Eig(q / 2, Fraction(k % 2, 2)) for k, q in enumerate(qs)],
           [Eig.root_of_unity(k, 2 * n) for k in range(n)],
           [Eig(3 * q, Fraction(k, 3 * n)) for k, q in enumerate(qs)]]
    if kind == "PGL":
        shifts = [Eig(-sum(e.q_exp for e in eigs) / n, -sum(e.angle for e in eigs) / n)
                  for eigs in out]
        out = [[e * s for e in eigs] for eigs, s in zip(out, shifts)]
    return out


def test_integer_normalisation_matches_the_fraction_one():
    lists = list(dict.fromkeys(_catalog_lists()))
    assert {len(eigs) for eigs in lists} == set(range(1, 8))
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(1, 7)
        lists.append(tuple(Eig(Fraction(rng.randint(-9, 9), rng.randint(1, 8)),
                               Fraction(rng.randint(-20, 20), rng.randint(1, 12)))
                           for _ in range(n)))
    for eigs in lists:
        got = lparam._normalize_projective(eigs)
        assert got == _normalize_by_fractions(eigs)
        assert sum(e.q_exp for e in got) == 0 and sum(e.angle for e in got) % 1 == 0


# ---------------------------------------------------------------------------
# relevance decided once per tag


def _relevant_by_loop(tag, phi):
    """The per-character loop: the pullback to mu_n (trivial) against the
    label zeta_n^zeta of every matrix factor."""
    out = []
    for rho in irreducibles(component_group(tag, phi).group):
        if all(cyclo_root_of_unity(0, 1) == cyclo_root_of_unity(z % n, n)
               for (kind, n), z in zip(tag.factors, tag.zeta) if kind != "T"):
            out.append(rho)
    return out


def test_relevance_is_decided_once_per_tag():
    for n in range(1, 7):
        for kind in ("SL", "GL", "PGL"):
            eigs = _shapes(n, kind)[0 if kind != "PGL" else 3]
            for zeta in range(-n, 2 * n + 1):
                tag = GroupTag.single(kind, n, zeta)
                phi = ToyParameter.make(tag, [eigs])
                got = relevant_enhancements(tag, phi)
                assert [r.values for r in got] == \
                    [r.values for r in _relevant_by_loop(tag, phi)]
                assert len(got) == (component_group(tag, phi).order if zeta % n == 0 else 0)
    tag = GroupTag((("SL", 2), ("T", 1), ("GL", 3)), (0, 5, 3))
    phi = ToyParameter.make(tag, [[Eig(), Eig(angle=Fraction(1, 2))], [Eig()],
                                  [Eig(Fraction(k)) for k in range(3)]])
    assert [r.values for r in relevant_enhancements(tag, phi)] == \
        [r.values for r in _relevant_by_loop(tag, phi)] != []
