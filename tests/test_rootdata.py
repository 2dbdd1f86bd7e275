import itertools
import random

import pytest

from hecke_functor import intlattice as il
from hecke_functor import rootdata
from hecke_functor.rootdata import (
    BasedRootDatum, RDMorphism, RootDatumError, based_automorphisms,
    build_classical, direct_sum, dual, factorize_condition1, is_condition1,
    torus_datum,
)


ALL_FIXTURES = [
    build_classical("A", 1, "sc"),
    build_classical("A", 1, "ad"),
    build_classical("A", 2, "sc"),
    build_classical("A", 2, "ad"),
    build_classical("B", 2, "sc"),
    build_classical("C", 2, "sc"),
    build_classical("C", 2, "ad"),
    build_classical("C", 3, "sc"),
    build_classical("D", 4, "sc"),
    build_classical("GL", 1),
    build_classical("GL", 3),
    build_classical("GL", 4),
    torus_datum(2),
    torus_datum(0),
]


def test_every_fixture_validates():
    for datum in ALL_FIXTURES:
        datum.validate()


def test_a1_sc_shape():
    d = build_classical("A", 1, "sc")
    assert d.rank == 1
    assert set(d.roots) == {(2,), (-2,)}
    assert set(d.coroots) == {(1,), (-1,)}


def test_gl_shape():
    d = build_classical("GL", 3)
    assert d.rank == 3
    assert len(d.roots) == 6
    assert d.roots == d.coroots
    assert len(d.simples) == 2


def test_root_counts():
    assert len(build_classical("A", 2, "sc").roots) == 6
    assert len(build_classical("B", 2, "sc").roots) == 8
    assert len(build_classical("C", 3, "sc").roots) == 18
    assert len(build_classical("D", 4, "sc").roots) == 24


def test_a2_ad_coroot_index():
    # index of the coroot lattice inside the cocharacter lattice of the
    # adjoint form = det of the rank-2 type-A Cartan matrix = 3
    d = build_classical("A", 2, "ad")
    cols = il.transpose(tuple(d.coroots[i] for i in d.simples))
    _, diag, _ = il.snf(cols)
    index = diag[0][0] * diag[1][1]
    assert index == 3


def test_unsupported_builds():
    with pytest.raises(RootDatumError):
        build_classical("E", 8, "sc")
    with pytest.raises(RootDatumError):
        build_classical("A", 9, "sc")
    with pytest.raises(RootDatumError):
        build_classical("D", 2, "sc")
    with pytest.raises(RootDatumError):
        build_classical("A", 2, "weird")


def _classical_keys(max_rank=4):
    for family, min_rank in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for n in range(min_rank, max_rank + 1):
            for iso in ("sc", "ad"):
                yield family, n, iso
    for n in range(1, max_rank + 1):
        yield "GL", n, None


def test_memoised_build_matches_a_fresh_build():
    fresh_build = rootdata._build_classical.__wrapped__
    for family, n, iso in _classical_keys():
        datum = build_classical(family, n, iso)
        assert datum == fresh_build(family, n, iso)
        datum.validate()
        assert build_classical(family, n, iso) is datum


def test_gl_isogeny_is_not_part_of_the_key():
    gl = build_classical("GL", 3)
    assert build_classical("GL", 3, "sc") is gl
    assert build_classical("GL", 3, "ad") is gl


def test_invalid_builds_raise_every_time_and_are_not_cached():
    build_classical("A", 2, "sc")
    size = rootdata._build_classical.cache_info().currsize
    for _ in range(2):
        for args in (("E", 8, "sc"), ("A", 9, "sc"), ("D", 2, "sc"),
                     ("A", 2, "weird"), ("GL", 0, None), ("B", 3, None)):
            with pytest.raises(RootDatumError):
                build_classical(*args)
    assert rootdata._build_classical.cache_info().currsize == size


def test_dual_involution():
    for datum in ALL_FIXTURES:
        assert dual(dual(datum)) == datum
    assert dual(build_classical("A", 1, "sc")) == build_classical("A", 1, "ad")
    gl = build_classical("GL", 4)
    assert dual(gl) == gl
    # duality swaps the B and C families
    assert dual(build_classical("B", 3, "sc")) == build_classical("C", 3, "ad")


def test_json_round_trip():
    for datum in ALL_FIXTURES:
        assert BasedRootDatum.from_json(datum.to_json()) == datum


_A1 = build_classical("A", 1, "sc").to_json()


@pytest.mark.parametrize("data", [
    1, [], {"rank": "1", "roots": [], "coroots": [], "simples": []},
    {"rank": -1, "roots": [], "coroots": [], "simples": []},
    dict(_A1, roots=[[2, 0], [-2, 0]]), dict(_A1, coroots=5),
    dict(_A1, roots=[["2"], [-2]]), dict(_A1, simples=[2]),
    {"rank": 1, "roots": [], "coroots": []},
])
def test_malformed_datum_json_is_refused(data):
    with pytest.raises(RootDatumError):
        BasedRootDatum.from_json(data)


@pytest.mark.parametrize("data", [
    {"source": 1},
    {"source": _A1, "target": _A1},
    {"source": 1, "target": _A1, "char_map": [[1]]},
    {"source": _A1, "target": _A1, "char_map": [[1, 0]]},
    {"source": _A1, "target": _A1, "char_map": [1]},
    {"source": _A1, "target": _A1, "char_map": [[1], [1]]},
])
def test_malformed_morphism_json_is_refused(data):
    with pytest.raises(RootDatumError):
        RDMorphism.from_json(data)


def test_morphism_json_round_trip():
    mor = RDMorphism(build_classical("A", 1, "sc"), build_classical("GL", 2), ((1, -1),))
    assert RDMorphism.from_json(mor.to_json()) == mor


# ---------------------------------------------------------------------------
# automorphisms


def test_gl_automorphisms():
    for n in (2, 3, 4, 5):
        gl = build_classical("GL", n)
        autos = based_automorphisms(gl)
        assert len(autos) == 2
        nontrivial = next(a for a in autos if a.char_map != il.identity(n))
        # x -> reversal(-x)
        rev = tuple(tuple(-1 if i + j == n - 1 else 0 for j in range(n))
                    for i in range(n))
        assert nontrivial.char_map == rev


def test_a1_sc_single_automorphism():
    autos = based_automorphisms(build_classical("A", 1, "sc"))
    assert len(autos) == 1
    assert autos[0].char_map == il.identity(1)


def test_a2_automorphisms_match_brute_force():
    datum = build_classical("A", 2, "sc")
    autos = {a.char_map for a in based_automorphisms(datum)}
    assert len(autos) == 2
    # independent oracle: scan all integer 2x2 matrices with small entries
    root_set = set(datum.roots)
    simple_set = {datum.roots[i] for i in datum.simples}
    brute = set()
    for entries in itertools.product(range(-3, 4), repeat=4):
        g = (entries[:2], entries[2:])
        if abs(il.det(g)) != 1:
            continue
        if any(tuple(il.mat_vec(g, r)) not in root_set for r in datum.roots):
            continue
        if {tuple(il.mat_vec(g, s)) for s in simple_set} != simple_set:
            continue
        gt = il.transpose(g)
        ok = True
        for i, alpha in enumerate(datum.roots):
            j = datum.roots.index(tuple(il.mat_vec(g, alpha)))
            if tuple(il.mat_vec(gt, datum.coroots[j])) != datum.coroots[i]:
                ok = False
                break
        if ok:
            brute.add(g)
    assert brute == autos


def test_automorphisms_form_group():
    for datum in [build_classical("GL", 3), build_classical("A", 2, "sc"),
                  build_classical("C", 2, "sc"), build_classical("D", 4, "sc")]:
        autos = based_automorphisms(datum)
        mats = {a.char_map for a in autos}
        for a, b in itertools.product(autos, repeat=2):
            assert il.mat_mul(a.char_map, b.char_map) in mats
        for a in autos:
            assert tuple(map(tuple, il.inverse_unimodular(a.char_map))) in mats


def test_d4_automorphisms_triality_on_adjoint_lattice():
    # on the root lattice every diagram symmetry lifts: S_3 for D_4
    autos = based_automorphisms(build_classical("D", 4, "ad"))
    assert len(autos) == 6


def test_infinite_guard():
    with pytest.raises(RootDatumError):
        based_automorphisms(torus_datum(2))
    assert len(based_automorphisms(torus_datum(0))) == 1


# ---------------------------------------------------------------------------
# morphisms and condition 1


def sl_into_gl(n: int) -> RDMorphism:
    """Character restriction matrix for the determinant-one subgroup of GL_n."""
    sl = build_classical("A", n - 1, "sc")
    gl = build_classical("GL", n)
    # restriction of characters: e_i pulls back to omega_i - omega_{i-1}
    # (omega_0 = omega_n = 0), so row w of the matrix is e_w - e_{w+1}
    rows = []
    for w in range(n - 1):
        rows.append(tuple(1 if i == w else (-1 if i == w + 1 else 0)
                          for i in range(n)))
    return RDMorphism(sl, gl, tuple(rows))


def gl_to_pgl(n: int) -> RDMorphism:
    gl = build_classical("GL", n)
    pgl = build_classical("A", n - 1, "ad")
    # X(PGL_n) = root lattice, basis alpha_i = e_i - e_{i+1} inside Z^n
    cols = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        cols.append(tuple(v))
    char = il.transpose(tuple(cols))
    return RDMorphism(gl, pgl, char)


def test_sl_into_gl_is_condition1():
    for n in (2, 3, 4):
        f = sl_into_gl(n)
        verdict = is_condition1(f)
        assert verdict.ok, verdict.reasons


def test_gl_to_pgl_is_condition1():
    for n in (2, 3, 4):
        verdict = is_condition1(gl_to_pgl(n))
        assert verdict.ok, verdict.reasons


def test_determinant_map_fails():
    gl3 = build_classical("GL", 3)
    gl1 = build_classical("GL", 1)
    f = RDMorphism(gl3, gl1, il.transpose(((1, 1, 1),)))
    verdict = is_condition1(f)
    assert not verdict.ok
    assert any("not hit" in r for r in verdict.reasons)


def test_central_torus_inclusion_fails():
    gl1 = build_classical("GL", 1)
    gl2 = build_classical("GL", 2)
    f = RDMorphism(gl1, gl2, ((1, 1),))
    verdict = is_condition1(f)
    assert not verdict.ok
    assert any("non-root" in r or "not hit" in r for r in verdict.reasons)


def test_factorize_sl_into_gl():
    for n in (2, 3, 4):
        f = sl_into_gl(n)
        fact = factorize_condition1(f)
        assert fact.torus_rank == 1
        assert fact.kernel_invariants == (n,)
        assert fact.recompose().char_map == f.char_map
        for stage in (fact.f1, fact.f2, fact.f3):
            assert is_condition1(stage).ok
        # f3 is an isomorphism of lattices
        assert abs(il.det(fact.f3.char_map)) == 1


def test_factorize_gl_to_pgl():
    f = gl_to_pgl(3)
    fact = factorize_condition1(f)
    assert fact.torus_rank == 0
    assert fact.recompose().char_map == f.char_map
    assert abs(il.det(fact.f3.char_map)) == 1
    for stage in (fact.f1, fact.f2, fact.f3):
        assert is_condition1(stage).ok


def test_factorize_identity():
    gl = build_classical("GL", 3)
    f = RDMorphism.identity(gl)
    fact = factorize_condition1(f)
    assert fact.torus_rank == 0
    assert fact.kernel_invariants == ()
    assert fact.f3.char_map == il.identity(3)
    assert fact.recompose().char_map == f.char_map


def test_factorize_rejects_inadmissible():
    gl3 = build_classical("GL", 3)
    gl1 = build_classical("GL", 1)
    f = RDMorphism(gl3, gl1, il.transpose(((1, 1, 1),)))
    with pytest.raises(RootDatumError):
        factorize_condition1(f)


def _random_unimodular(rng, n):
    m = il.identity(n)
    m = [list(r) for r in m]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            for k in range(n):
                m[i][k] += q * m[j][k]
    return tuple(map(tuple, m))


def _transport(datum, g):
    """The same datum in a new basis of X, via the unimodular matrix g."""
    ginv_t = il.transpose(il.inverse_unimodular(g))
    roots = tuple(tuple(il.mat_vec(g, r)) for r in datum.roots)
    coroots = tuple(tuple(il.mat_vec(ginv_t, c)) for c in datum.coroots)
    return BasedRootDatum(datum.rank, roots, coroots, datum.simples)


def test_factorize_seeded_random_morphisms():
    # seeded family of admissible type-A morphisms, conjugated by random
    # changes of basis on both sides
    rng = random.Random(20240)
    base = [sl_into_gl(2), sl_into_gl(3), sl_into_gl(4),
            gl_to_pgl(2), gl_to_pgl(3),
            RDMorphism.identity(build_classical("GL", 3))]
    count = 0
    while count < 20:
        f = rng.choice(base)
        gs = _random_unimodular(rng, f.source.rank)
        gt = _random_unimodular(rng, f.target.rank)
        src = _transport(f.source, gs)
        tgt = _transport(f.target, gt)
        # char map in the new bases: X(tgt) -> X(src)
        char = il.mat_mul(gs, il.mat_mul(f.char_map, il.inverse_unimodular(gt)))
        fmixed = RDMorphism(src, tgt, char)
        assert is_condition1(fmixed).ok
        fact = factorize_condition1(fmixed)
        assert fact.recompose().char_map == fmixed.char_map
        for stage in (fact.f1, fact.f2, fact.f3):
            assert is_condition1(stage).ok
        count += 1


def test_direct_sum_and_torus():
    d = direct_sum(build_classical("A", 1, "sc"), torus_datum(2))
    assert d.rank == 3
    assert len(d.roots) == 2
    d.validate()
    f = RDMorphism(build_classical("A", 1, "sc"), d, ((1, 0, 0),))
    assert is_condition1(f).ok
    fact = factorize_condition1(f)
    assert fact.torus_rank == 2
    assert fact.recompose().char_map == f.char_map


def test_rank_zero_datum():
    z = torus_datum(0)
    z.validate()
    assert dual(z) == z
    f = RDMorphism.identity(z)
    fact = factorize_condition1(f)
    assert fact.torus_rank == 0
    assert fact.recompose().char_map == f.char_map
