import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hecke_functor import finrep, functor, lparam, rootdata
from hecke_functor.acceptance import _chain_catalog
from hecke_functor.finrep import (
    FiniteGroup, RepOrChar, character_product, hom_mult, induce, irreducibles,
)
from hecke_functor.lparam import (
    GroupTag, ToyParameter, component_group, parameter_from_json, relevant_enhancements,
)
from hecke_functor.numkernel import Cyclo, cyclo_root_of_unity
from hecke_functor.rootdata import is_condition1
from hecke_functor.functor import (
    FunctorError, check_transitivity, compose, conjA_decompose, hom_ad,
    hom_dual_automorphism, hom_from_json, hom_gl_to_pgl, hom_identity, hom_sl_to_gl,
    hom_sl_to_pgl, hom_to_json, hom_torus_insertion, hom_torus_projection, lmap_param,
    packet_union_check, smap, tag_root_datum,
)
from hecke_functor.weyl import Eig


def principal_sl(n):
    tag = GroupTag.single("SL", n)
    return tag, ToyParameter.principal_cycle(tag)


def principal_gl(n):
    tag = GroupTag.single("GL", n)
    return tag, ToyParameter.make(
        tag, [[Eig.root_of_unity(k, n) for k in range(n)]])


def det_one_list(n):
    """A multiplicity-free determinant-one list (q-exponents summing to 0)."""
    qs = [Fraction(i) - Fraction(n - 1, 2) for i in range(n)]
    return [Eig(q) for q in qs]


def _standard_cycle_index(res):
    for i in range(res.order):
        (w, _), = res.pair_data(i)
        n = len(w)
        if n and all(w[i2] == (i2 + 1) % n for i2 in range(n)):
            return i
    raise AssertionError("no standard cycle component")


# ---------------------------------------------------------------------------
# lattice-level structure


def test_lattice_maps_admissible():
    for f in [hom_identity(GroupTag.single("GL", 3)),
              hom_sl_to_gl(4), hom_gl_to_pgl(3), hom_sl_to_pgl(3),
              hom_dual_automorphism(GroupTag.single("GL", 4)),
              hom_dual_automorphism(GroupTag.single("SL", 3)),
              hom_torus_insertion(GroupTag.single("SL", 2), 2)]:
        assert is_condition1(f.lattice_map).ok
        fact = f.factorization
        assert fact.recompose().char_map == f.lattice_map.char_map


def test_factorization_shapes():
    f = hom_sl_to_gl(4)
    fact = f.factorization
    assert fact.torus_rank == 1
    assert fact.kernel_invariants == (4,)
    q = hom_gl_to_pgl(3)
    assert q.factorization.torus_rank == 0
    ins = hom_torus_insertion(GroupTag.single("SL", 2), 1)
    assert ins.factorization.torus_rank == 1
    assert ins.factorization.kernel_invariants == ()


# ---------------------------------------------------------------------------
# parameter transport


def test_lmap_identity_and_insertion():
    tag, phi = principal_sl(3)
    assert lmap_param(hom_identity(tag), phi) == phi
    ins = hom_torus_insertion(tag, 1)
    big_phi = ToyParameter.make(ins.target, [list(phi.factors[0]), [Eig(Fraction(5))]])
    assert lmap_param(ins, big_phi) == phi


def test_lmap_gl_to_sl_projectivizes():
    f = hom_sl_to_gl(3)
    tag_gl, phi_gl = principal_gl(3)
    phi_sl = lmap_param(f, phi_gl)
    _, expected = principal_sl(3)
    assert phi_sl == expected


def test_lmap_pgl_to_gl_on_the_nose():
    f = hom_gl_to_pgl(3)
    tag = GroupTag.single("PGL", 3)
    eigs = det_one_list(3)
    phi = ToyParameter.make(tag, [eigs])
    pulled = lmap_param(f, phi)
    assert pulled.factors[0] == tuple(eigs)


def test_lmap_dual_automorphism():
    f = hom_dual_automorphism(GroupTag.single("GL", 3))
    tag, phi = principal_gl(3)
    pulled = lmap_param(f, phi)
    eigs = phi.factors[0]
    expected = tuple(Eig(-e.q_exp, -e.angle) for e in reversed(eigs))
    assert pulled.factors[0] == expected


# ---------------------------------------------------------------------------
# smap and decomposition


def test_smap_torus_insertion_is_identity():
    tag, phi = principal_sl(4)
    ins = hom_torus_insertion(tag, 1)
    big_phi = ToyParameter.make(ins.target, [list(phi.factors[0]), [Eig()]])
    data = smap(ins, big_phi)
    assert data.comp_cod.order == data.comp_dom.order == 4
    assert data.element_map == tuple(range(4))
    assert all(v == Cyclo.rational(1) for v in data.twist.values)


def test_smap_central_quotient_subgroup_inclusion():
    f = hom_sl_to_gl(5)
    tag_gl, phi_gl = principal_gl(5)
    data = smap(f, phi_gl)
    assert data.comp_cod.order == 1
    assert data.comp_dom.order == 5
    assert all(v == Cyclo.rational(1) for v in data.twist.values)
    assert data.index() == 5


def test_smap_ad_twist_value():
    # Ad(diag(pi, 1, ..., 1)): identity group map, twist zeta_n^{-1} on the
    # standard cycle
    for n in (2, 3, 5):
        tag, phi = principal_sl(n)
        f = hom_ad(tag, [[1] + [0] * (n - 1)])
        data = smap(f, phi)
        assert data.element_map == tuple(range(n))
        gen = _standard_cycle_index(data.comp_cod)
        assert data.twist.values[gen] == cyclo_root_of_unity(n - 1, n)


def test_conjA_identity():
    tag, phi = principal_sl(3)
    for rho in relevant_enhancements(tag, phi):
        out = conjA_decompose(hom_identity(tag), phi, rho)
        assert len(out) == 1
        phi_t, rho_t, m = out[0]
        assert phi_t == phi and m == 1
        assert tuple(rho_t.values) == tuple(rho.values)


def test_conjA_ad_shifts_enhancement():
    # Ad(t) sends (phi, tau) to (phi, zeta_n tau) with multiplicity one
    for n in (2, 3, 4, 6):
        tag, phi = principal_sl(n)
        f = hom_ad(tag, [[1] + [0] * (n - 1)])
        res = component_group(tag, phi)
        gen = _standard_cycle_index(res)
        zeta = cyclo_root_of_unity(1, n)
        for rho in relevant_enhancements(tag, phi, res):
            out = conjA_decompose(f, phi, rho)
            assert len(out) == 1
            _, rho_t, m = out[0]
            assert m == 1
            assert rho_t.values[gen] == zeta * rho.values[gen]
        # the opposite convention, (rho~ o iota) (x) twist^-1, gives zeta^{-1} tau
        rho = relevant_enhancements(tag, phi, res)[0]
        data = smap(f, phi)
        (rho_t,) = [r for r in irreducibles(data.comp_dom.group)
                    if hom_mult(rho, character_product(data.twist.group, [
                        (r, data.element_map, 1), (data.twist, None, -1)]))]
        assert rho_t.values[gen] == zeta.inverse() * rho.values[gen]


def test_conjA_sl_into_gl_full_packet():
    # pullback along the determinant-one inclusion splits into n pieces
    for n in (2, 3, 5, 8):
        f = hom_sl_to_gl(n)
        tag_gl, phi_gl = principal_gl(n)
        rho = relevant_enhancements(tag_gl, phi_gl)[0]
        out = conjA_decompose(f, phi_gl, rho)
        assert len(out) == n
        assert all(m == 1 for _, _, m in out)
        seen = {tuple(repr(v) for v in rho_t.values) for _, rho_t, _ in out}
        assert len(seen) == n
        assert packet_union_check(f, phi_gl)


def test_conjA_rejects_irrelevant():
    tag = GroupTag.single("SL", 4, zeta=0)
    phi = ToyParameter.principal_cycle(tag)
    res = component_group(tag, phi)
    chars = irreducibles(res.group)
    # fabricate a "wrong" group character by using a different group size
    other = FiniteGroup.cyclic(3)
    bad = irreducibles(other)[1]
    with pytest.raises((FunctorError, ValueError)):
        conjA_decompose(hom_identity(tag), phi, bad)


def test_multiplicity_conservation():
    # sum of m * deg over outputs = index * deg(rho); checked internally by
    # conjA_decompose, asserted explicitly here
    f = hom_sl_to_gl(6)
    tag_gl, phi_gl = principal_gl(6)
    rho = relevant_enhancements(tag_gl, phi_gl)[0]
    out = conjA_decompose(f, phi_gl, rho)
    data = smap(f, phi_gl)
    assert sum(m * r.degree for _, r, m in out) == data.index() * rho.degree


def test_frobenius_reciprocity_reformulation():
    # m(rho, rho~) computed through induction agrees with the hom pairing
    f = hom_sl_to_gl(4)
    tag_gl, phi_gl = principal_gl(4)
    data = smap(f, phi_gl)
    rho = relevant_enhancements(tag_gl, phi_gl)[0]
    out = conjA_decompose(f, phi_gl, rho)
    # the image subgroup is trivial; induce the (twisted) rho up to S~
    sub = frozenset({data.comp_dom.group.identity})
    sub_group, _ = data.comp_dom.group.subgroup_as_group(sub)
    rho_up = RepOrChar(sub_group, (Cyclo.rational(1),))
    _, decomp = induce(data.comp_dom.group, sub, rho_up)
    as_map = {tuple(repr(v) for v in c.values): m for c, m in decomp}
    for _, rho_t, m in out:
        assert as_map.get(tuple(repr(v) for v in rho_t.values)) == m


def test_gl_pgl_union():
    f = hom_gl_to_pgl(4)
    tag = GroupTag.single("PGL", 4)
    phi = ToyParameter.make(tag, [det_one_list(4)])
    assert packet_union_check(f, phi)
    rho = relevant_enhancements(tag, phi)[0]
    out = conjA_decompose(f, phi, rho)
    assert len(out) == 1 and out[0][2] == 1


# ---------------------------------------------------------------------------
# transitivity


def _sample_parameters(n, count=5):
    """Multiplicity-free parameters on the PGL/GL side, various shapes."""
    out = []
    # pure root-of-unity cycle
    out.append([Eig.root_of_unity(k, n) for k in range(n)])
    # q-exponent ladder with determinant one
    out.append(det_one_list(n))
    # mixed: q-ladder times roots of unity, det-one normalized
    mixed = [Eig(Fraction(i) - Fraction(n - 1, 2), Fraction(i % 2, 2) if n % 2 == 0 else 0)
             for i in range(n)]
    tot = sum(e.angle for e in mixed) % 1
    mixed[0] = Eig(mixed[0].q_exp, mixed[0].angle - tot)
    out.append(mixed)
    # a second root-of-unity pattern
    out.append([Eig.root_of_unity((2 * k) % (2 * n), 2 * n) for k in range(n)])
    # generic-ish rationals, det-one
    qs = [Fraction(k * k, 1) for k in range(n)]
    mean = sum(qs) / n
    out.append([Eig(q - mean) for q in qs])
    return out[:count]


def _fix_det_one(eigs):
    # spread the correction uniformly so multiplicity-freeness survives
    n = len(eigs)
    tot_q = sum(e.q_exp for e in eigs) / n
    tot_a = (sum(e.angle for e in eigs) % 1) / n
    return [Eig(e.q_exp - tot_q, e.angle - tot_a) for e in eigs]


def test_transitivity_sl_gl_pgl_chain():
    for n in (2, 3, 4, 6):
        f = hom_sl_to_gl(n)
        q = hom_gl_to_pgl(n)
        qf = compose(f, q)
        # the canonical composite is the single-step quotient
        assert [s.kind for s in qf.steps] == ["sl_pgl"]
        tag_pgl = GroupTag.single("PGL", n)
        for eigs in _sample_parameters(n):
            eigs = _fix_det_one(eigs)
            phi = ToyParameter.make(tag_pgl, [eigs])
            rhos = relevant_enhancements(tag_pgl, phi)
            assert check_transitivity(f, q, phi, rhos)


def test_transitivity_with_ad():
    for n in (2, 3, 5):
        tag_sl, phi_sl = principal_sl(n)
        t_vec = [[1] + [0] * (n - 1)]
        # chain: Ad(t) on SL_n, then the inclusion into GL_n
        f = hom_ad(tag_sl, t_vec)
        q = hom_sl_to_gl(n)
        tag_gl, phi_gl = principal_gl(n)
        rhos = relevant_enhancements(tag_gl, phi_gl)
        assert check_transitivity(f, q, phi_gl, rhos)
        # and the other order: inclusion first, then Ad on the GL side
        f2 = hom_sl_to_gl(n)
        q2 = hom_ad(tag_gl, t_vec)
        assert check_transitivity(f2, q2, phi_gl, rhos)


def test_transitivity_with_dual_automorphism():
    for n in (2, 3, 4):
        tag_gl = GroupTag.single("GL", n)
        f = hom_sl_to_gl(n)
        q = hom_dual_automorphism(tag_gl)
        for eigs in _sample_parameters(n, 3):
            phi = ToyParameter.make(tag_gl, [eigs])
            rhos = relevant_enhancements(tag_gl, phi)
            assert check_transitivity(f, q, phi, rhos)


def test_transitivity_torus_round_trip():
    tag, phi = principal_sl(3)
    ins = hom_torus_insertion(tag, 1)
    proj = hom_torus_projection(ins.target)
    # proj o ins: SL_3 -> SL_3 x T -> SL_3... careful with directions:
    # ins: SL_3 -> SL_3 x T and proj: SL_3 x T -> SL_3 compose to the identity
    comp = compose(ins, proj)
    data = smap(comp, phi)
    assert data.element_map == tuple(range(3))
    assert all(v == Cyclo.rational(1) for v in data.twist.values)
    assert lmap_param(comp, phi) == phi
    assert check_transitivity(ins, proj, phi,
                              relevant_enhancements(tag, phi))


def test_transitivity_identity_edges():
    tag, phi = principal_sl(4)
    ident = hom_identity(tag)
    f = hom_ad(tag, [[0, 1, 0, 0]])
    assert check_transitivity(f, ident, phi, relevant_enhancements(tag, phi))
    assert check_transitivity(ident, f, phi, relevant_enhancements(tag, phi))


def test_dual_automorphism_squares_to_identity():
    tag = GroupTag.single("GL", 3)
    d = hom_dual_automorphism(tag)
    dd = compose(d, d)
    assert [s.kind for s in dd.steps] == ["identity"]
    tag_gl, phi = principal_gl(3)
    assert lmap_param(dd, phi) == phi


def test_compose_rejects_mismatch():
    with pytest.raises(FunctorError):
        compose(hom_sl_to_gl(3), hom_gl_to_pgl(4))


# ---------------------------------------------------------------------------
# memoised root data


def test_tag_root_datum_ignores_the_labels():
    a = tag_root_datum(GroupTag.single("GL", 3, 0))
    b = tag_root_datum(GroupTag.single("GL", 3, 1))
    assert a is b
    assert tag_root_datum(GroupTag((("SL", 2), ("T", 1)), (1, 0))) is \
        tag_root_datum(GroupTag((("SL", 2), ("T", 1))))


def test_warm_transitivity_chain_builds_nothing():
    n = 3
    tag_sl, _ = principal_sl(n)
    tag_gl, phi_gl = principal_gl(n)
    rhos = relevant_enhancements(tag_gl, phi_gl)

    def chain():
        f = hom_ad(tag_sl, [[1, 0, 0]])
        q = compose(hom_sl_to_gl(n), hom_dual_automorphism(tag_gl))
        assert check_transitivity(f, q, phi_gl, rhos)

    caches = (rootdata._build_classical, functor._tag_root_datum,
              lparam._component_group, lparam._sl_factor_components,
              finrep._irreducibles, functor._lattice_map, functor._smap)
    chain()
    before = [c.cache_info() for c in caches]
    chain()
    after = [c.cache_info() for c in caches]
    for b, a in zip(before, after):
        assert a.misses == b.misses and a.currsize == b.currsize
    # component groups, tables, the composites' lattice maps, the S-maps; a
    # warm chain reaches no root-datum memo
    for k in (2, 4, 5, 6):
        assert after[k].hits > before[k].hits


def test_memos_are_bounded():
    for cache in (functor._tag_root_datum, functor._lattice_map, functor._smap):
        assert cache.cache_info().maxsize is not None
    # 300 distinct parameters and Ad maps, read from JSON, each pulled back
    gl3 = {"factors": [{"tag": "GLn", "n": 3}], "zeta": [0]}
    for k in range(1, 301):
        eigs = [{"q": str(k), "angle": "0"}, {"q": "0", "angle": "1/3"},
                {"q": str(-k), "angle": "2/3"}]
        tag, phi = parameter_from_json({**gl3, "factors": [{**gl3["factors"][0], "eigs": eigs}]})
        f = hom_from_json({"steps": [{"kind": "ad", "dom": [["GL", 3]], "dom_zeta": [0],
                                      "g": [[k, 0, 0]]}]})
        assert smap(f, phi).phi_dom == phi
    for cache in (functor._lattice_map, functor._smap, lparam._component_group):
        info = cache.cache_info()
        assert info.currsize <= info.maxsize


def test_smap_data_is_frozen_and_shared():
    tag, phi = principal_sl(3)
    f = hom_ad(tag, [[1, 0, 0]])
    data = smap(f, phi)
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.twist = data.twist
    assert not hasattr(data, "hom")
    # a new descriptor of the same chain shares the S-map
    assert smap(hom_ad(tag, [[1, 0, 0]]), phi) is data


def _decompositions():
    """Every relevant enhancement's decomposition along a few maps, as text."""
    out = []
    for n in (2, 3, 4):
        tag_sl, phi_sl = principal_sl(n)
        tag_gl, phi_gl = principal_gl(n)
        for f, phi in [(hom_ad(tag_sl, [[1] + [0] * (n - 1)]), phi_sl),
                       (hom_sl_to_gl(n), phi_gl),
                       (compose(hom_ad(tag_sl, [[2] + [0] * (n - 1)]), hom_sl_to_gl(n)), phi_gl),
                       (hom_dual_automorphism(tag_gl), phi_gl)]:
            for rho in relevant_enhancements(f.target, phi):
                out.append(sorted((repr(p.factors), repr(r.values), m)
                                  for p, r, m in conjA_decompose(f, phi, rho)))
    return out


def test_decompositions_agree_cold_and_warm():
    for cache in (functor._tag_root_datum, functor._lattice_map, functor._smap,
                  lparam._component_group, lparam._sl_factor_components,
                  finrep._irreducibles):
        cache.cache_clear()
    cold = _decompositions()
    assert _decompositions() == cold
    assert functor._smap.cache_info().hits > 0


# ---------------------------------------------------------------------------
# random chains, with the memos cold and then warm


# name -> (domain kind, codomain kind); "+T" adds a rank-one torus factor
_CATALOG = {
    "sl_gl": ("SL", "GL"), "gl_pgl": ("GL", "PGL"), "sl_pgl": ("SL", "PGL"),
    "ad_sl": ("SL", "SL"), "ad_gl": ("GL", "GL"), "ad_pgl": ("PGL", "PGL"),
    "dual_gl": ("GL", "GL"), "torus_sl": ("SL", "SL+T"), "torus_gl": ("GL", "GL+T"),
}
_CHAINS = [(f, q) for f in _CATALOG for q in _CATALOG if _CATALOG[f][1] == _CATALOG[q][0]]


def _hom(name, n, ad):
    sl, gl, pgl = (GroupTag.single(k, n) for k in ("SL", "GL", "PGL"))
    return {"sl_gl": lambda: hom_sl_to_gl(n), "gl_pgl": lambda: hom_gl_to_pgl(n),
            "sl_pgl": lambda: hom_sl_to_pgl(n), "ad_sl": lambda: hom_ad(sl, [ad]),
            "ad_gl": lambda: hom_ad(gl, [ad]), "ad_pgl": lambda: hom_ad(pgl, [ad]),
            "dual_gl": lambda: hom_dual_automorphism(gl),
            "torus_sl": lambda: hom_torus_insertion(sl, 1),
            "torus_gl": lambda: hom_torus_insertion(gl, 1)}[name]()


@st.composite
def _chains(draw):
    """A composable pair f: A -> B, q: B -> H and a multiplicity-free
    parameter of H."""
    n = draw(st.integers(2, 4))
    f_name, q_name = draw(st.sampled_from(_CHAINS))
    ad = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n).filter(any))
    # n / m orbits of the m-th roots of unity, so S_phi of an SL_n factor is
    # cyclic of order m: bases with angles below 1 / m keep the orbits apart
    m = draw(st.sampled_from([m for m in range(1, n + 1) if n % m == 0]))
    bases = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 2 * n // m - 1)),
                          min_size=n // m, max_size=n // m, unique=True))
    eigs = draw(st.permutations([Eig(Fraction(q, 2), Fraction(a, 2 * n) + Fraction(k, m))
                                 for q, a in bases for k in range(m)]))
    kind, _, torus = _CATALOG[q_name][1].partition("+")
    if kind == "PGL":
        # a common shift moves the list to determinant one on the nose
        shift = Eig(-sum(e.q_exp for e in eigs) / n, -sum(e.angle for e in eigs) / n)
        eigs = [e * shift for e in eigs]
    f, q = _hom(f_name, n, ad), _hom(q_name, n, ad)
    phi = ToyParameter.make(q.target, [eigs] + ([[Eig()]] if torus else []))
    return f, q, phi


def _pullback_round(f, q, phi):
    """check_transitivity, and each enhancement's decomposition through the
    composite with its multiplicity count."""
    qf = compose(f, q)
    rhos = relevant_enhancements(q.target, phi)
    verdict = check_transitivity(f, q, phi, rhos)
    index = (component_group(qf.source, lmap_param(qf, phi)).order
             // component_group(q.target, phi).order)
    out = []
    for rho in rhos:
        pieces = conjA_decompose(qf, phi, rho)
        # multiplicity conservation: sum m deg rho~ = [S~ : S] deg rho
        assert sum(m * r.degree for _, r, m in pieces) == index * rho.degree
        out.append(sorted((repr(p.factors), repr(r.values), m) for p, r, m in pieces))
    return verdict, out


@settings(max_examples=60, deadline=None)
@given(_chains())
def test_random_chains_are_transitive_and_conserve_multiplicities(chain):
    for cache in (functor._tag_root_datum, functor._lattice_map, functor._smap,
                  lparam._component_group, lparam._sl_factor_components,
                  finrep._irreducibles):
        cache.cache_clear()
    cold = _pullback_round(*chain)
    warm = _pullback_round(*chain)
    assert cold[0] is True
    assert warm == cold


def test_ad_blocks_must_match_their_factors():
    tag = GroupTag((("SL", 3), ("T", 2)), (0, 0))
    hom_ad(tag, [[1, 0, 0], [5]])          # a torus block is not read
    for g in ([[1, 2, 3, 4, 5], [0, 0]], [[1, 2], [0, 0]]):
        with pytest.raises(FunctorError, match="Ad block"):
            hom_ad(tag, g)


# ---------------------------------------------------------------------------
# JSON form of a homomorphism


def _json_maps():
    sl3, gl3 = GroupTag.single("SL", 3), GroupTag.single("GL", 3)
    maps = {f"catalog n={n} #{i}": f
            for n in (2, 3, 4) for i, f in enumerate(_chain_catalog(n))}
    maps["torus projection"] = hom_torus_projection(GroupTag((("GL", 2), ("T", 1)), (0, 0)))
    maps["flip, label 1"] = hom_dual_automorphism(GroupTag.single("GL", 3, 1))
    maps["Ad then inclusion"] = compose(hom_ad(sl3, [[1, 0, 0]]), hom_sl_to_gl(3))
    maps["inclusion then Ad then quotient"] = compose(
        compose(hom_sl_to_gl(3), hom_ad(gl3, [[0, 2, 0]])), hom_gl_to_pgl(3))
    return maps


@pytest.mark.parametrize("name", sorted(_json_maps()))
def test_hom_json_round_trip(name):
    f = _json_maps()[name]
    back = hom_from_json(json.loads(json.dumps(hom_to_json(f))))
    assert back.steps == f.steps
    assert (back.source, back.target) == (f.source, f.target)
