"""Differential tests of five fast paths against the paths they replace:
condition 1 read off the simple roots (against the check over every root),
the SL component search on integer numerators (against the `Eig` search),
the vanishing rule of `hom_mult` (against the `Cyclo` of the sum), the CLI's
JSON writer (against `json.dumps`) and Light's associativity test (against
every triple)."""

import dataclasses
import itertools
import json
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from hecke_functor import finrep, lparam, rootdata
from hecke_functor.cli import _json_text
from hecke_functor.acceptance import _chain_catalog, _random_unimodular, _transport_datum
from hecke_functor.finrep import FiniteGroup, RepOrChar, hom_mult, irreducibles
from hecke_functor.functor import compose
from hecke_functor.intlattice import inverse_unimodular, mat_mul
from hecke_functor.numkernel import Cyclo
from hecke_functor.rootdata import (
    BasedRootDatum, RDMorphism, build_classical, direct_sum, is_condition1,
)
from hecke_functor.weyl import Eig


# ---------------------------------------------------------------------------
# condition 1


def _full_verdict(f):
    """is_condition1 on unmarked copies of the data, so every root is checked."""
    source, target = dataclasses.replace(f.source), dataclasses.replace(f.target)
    assert not source.__dict__.get("_valid") and not target.__dict__.get("_valid")
    return is_condition1(RDMorphism(source, target, f.char_map))


def _marked(f):
    f.source.ensure_valid()
    f.target.ensure_valid()
    return f


def _catalog_maps():
    maps = []
    for n in range(2, 7):
        homs = _chain_catalog(n)
        maps += [h.lattice_map for h in homs]
        maps += [compose(f, q).lattice_map for f, q in itertools.product(homs, repeat=2)
                 if f.target == q.source]
    return maps


def _transports(count=40, seed=5):
    """Criterion 7's unimodular changes of basis on both sides of catalog
    maps, the transported data validated (so marked)."""
    rng = random.Random(seed)
    base = [h.lattice_map for n in (2, 3, 4) for h in _chain_catalog(n)]
    out = []
    for _ in range(count):
        f = rng.choice(base)
        gs = _random_unimodular(rng, f.source.rank)
        gt = _random_unimodular(rng, f.target.rank)
        char = mat_mul(gs, mat_mul(f.char_map, inverse_unimodular(gt)))
        out.append(_marked(RDMorphism(_transport_datum(f.source, gs),
                                      _transport_datum(f.target, gt), char)))
    return out


def _automorphism_candidates(monkeypatch):
    """Every morphism `based_automorphisms` asks is_condition1 about."""
    seen = []

    def record(f):
        seen.append(f)
        return is_condition1(f)

    monkeypatch.setattr(rootdata, "is_condition1", record)
    for family, n in (("A", 2), ("B", 3), ("D", 4)):
        for iso in ("sc", "ad"):
            rootdata.based_automorphisms(build_classical(family, n, iso))
    monkeypatch.undo()
    return seen


def _count_apply_char(monkeypatch):
    calls = []
    apply_char = RDMorphism.apply_char

    def counted(self, x):
        calls.append(x)
        return apply_char(self, x)

    monkeypatch.setattr(RDMorphism, "apply_char", counted)
    return calls


def test_condition1_from_the_simples_agrees_with_every_root(monkeypatch):
    maps = _catalog_maps() + _transports() + _automorphism_candidates(monkeypatch)
    assert len(maps) > 150
    calls = _count_apply_char(monkeypatch)
    for f in maps:
        assert f.source.__dict__.get("_valid") and f.target.__dict__.get("_valid")
        del calls[:]
        fast = is_condition1(f)
        if fast:
            # read off the simple roots, never over every root
            assert len(calls) <= len(f.target.simples), f
        assert fast == _full_verdict(f), f


def _gl2_shear():
    # e1 - e2 goes to itself, but the transpose sends the coroot e1 - e2 to -2 e2
    gl2 = build_classical("GL", 2)
    return RDMorphism(gl2, gl2, ((1, 0), (1, 2)))


def _a2_reflection():
    # s_1 on the weights of SL_3: roots to roots and coroots back, simple
    # roots to a negative root
    a2 = build_classical("A", 2, "sc")
    s1 = tuple(tuple(a2.reflect(a2.simples[0], e)) for e in ((1, 0), (0, 1)))
    return RDMorphism(a2, a2, tuple(zip(*s1)))


@pytest.mark.parametrize("make, reasons", [
    (_gl2_shear, ("coroot matching fails for target root index 0",
                  "coroot matching fails for target root index 1")),
    (_a2_reflection, ("simples are not carried to simples",)),
    (lambda: RDMorphism(build_classical("A", 1, "ad"), build_classical("A", 1, "ad"),
                        ((2,),)),
     ("target root (-1,) maps to non-root (-2,)", "target root (1,) maps to non-root (2,)")),
    (lambda: RDMorphism(direct_sum(*[build_classical("A", 1, "sc")] * 2),
                        build_classical("A", 1, "sc"), ((1,), (0,))),
     ("some source roots are not hit (cokernel would carry roots)",)),
    (lambda: RDMorphism(build_classical("A", 1, "sc"),
                        direct_sum(*[build_classical("A", 1, "sc")] * 2), ((1, 1),)),
     ("source root (-2,) hit twice", "source root (2,) hit twice",
      "coroot matching fails for target root index 0",
      "coroot matching fails for target root index 2")),
])
def test_maps_that_fail_condition1_keep_their_reasons(make, reasons):
    f = _marked(make())
    verdict = is_condition1(f)
    assert verdict == _full_verdict(f)
    assert (verdict.ok, verdict.reasons) == (False, reasons)


def test_unvalidated_data_get_the_full_check():
    # the simple roots match, but the source was never validated: its second
    # pair of roots lies outside the span of its one simple root
    source = BasedRootDatum(2, ((2, 0), (-2, 0), (0, 2), (0, -2)),
                            ((1, 0), (-1, 0), (0, 1), (0, -1)), (0,))
    with pytest.raises(rootdata.RootDatumError, match="outside the span"):
        source.validate()
    verdict = is_condition1(RDMorphism(source, build_classical("A", 1, "sc"), ((1,), (0,))))
    assert verdict.reasons == ("some source roots are not hit (cokernel would carry roots)",)


def test_the_cochar_map_is_computed_once_and_not_compared():
    f = _chain_catalog(3)[2].lattice_map
    assert f.cochar_map is f.cochar_map
    g = RDMorphism(f.source, f.target, f.char_map)
    assert g == f and hash(g) == hash(f) and "cochar_map" not in g.__dict__
    assert g.to_json() == f.to_json()


# ---------------------------------------------------------------------------
# SL components


def _eig_search(eigs):
    """The pair search in `Eig` arithmetic, as it was before the integer one."""
    n = len(eigs)
    position = {e: i for i, e in enumerate(eigs)}
    pairs = []
    for target in range(n):
        lam = eigs[target] / eigs[0]
        scaled = [Eig(e.q_exp + lam.q_exp, e.angle + lam.angle) for e in eigs]
        if set(scaled) != set(eigs):
            continue
        w_inv = tuple(position[s] for s in scaled)
        pairs.append((tuple(w_inv.index(i) for i in range(n)), lam))
    return tuple(pairs)


@st.composite
def _sl_lists(draw):
    """A multiplicity-free list of length n <= 8: n / m orbits of the m-th
    roots of unity, so there are m pairs, with q-parts and angles of several
    denominators; or a list drawn freely."""
    n = draw(st.integers(1, 8))
    fractions = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 6))
    if draw(st.booleans()):
        m = draw(st.sampled_from([m for m in range(1, n + 1) if n % m == 0]))
        bases = draw(st.lists(st.tuples(fractions, fractions), min_size=n // m,
                              max_size=n // m))
        eigs = [Eig(q, a + Fraction(k, m)) for q, a in bases for k in range(m)]
    else:
        eigs = draw(st.lists(st.builds(Eig, fractions, fractions), min_size=n, max_size=n))
    assume(len(set(eigs)) == len(eigs))
    return tuple(draw(st.permutations(eigs)))


@settings(max_examples=300, deadline=None)
@given(_sl_lists())
def test_integer_pair_search_matches_the_eig_search(eigs):
    fc = lparam._sl_factor_components.__wrapped__(eigs)
    assert fc.pairs == _eig_search(eigs)


def test_a_factor_with_more_pairs_than_the_guard_is_refused():
    n = finrep.GROUP_SIZE_GUARD + 1
    eigs = tuple(Eig.root_of_unity(k, n) for k in range(n))
    with pytest.raises(finrep.FinRepError, match="desk guard"):
        lparam._sl_factor_components.__wrapped__(eigs)
    eigs = tuple(Eig.root_of_unity(k, n - 1) for k in range(n - 1))
    assert lparam._sl_factor_components.__wrapped__(eigs).size == n - 1


# ---------------------------------------------------------------------------
# vanishing sums


@st.composite
def _counts(draw):
    """Counts of exponents modulo N <= 60: free, or periodic with period N/p."""
    n = draw(st.integers(1, 60))
    period = n
    if draw(st.booleans()):
        period = n // draw(st.sampled_from([p for p in range(2, n + 1) if n % p == 0] or [1]))
    block = draw(st.lists(st.integers(0, 3), min_size=period, max_size=period))
    counts = Counter({k: block[k % period] for k in range(n) if block[k % period]})
    if draw(st.booleans()) and counts:
        counts[draw(st.sampled_from(sorted(counts)))] += 1     # break the period
    return n, counts


@settings(max_examples=400, deadline=None)
@given(_counts())
def test_the_vanishing_rule_only_fires_on_zero_sums(nc):
    n, counts = nc
    if finrep._vanishes(n, counts):
        assert Cyclo._make(n, counts).is_zero()


def test_the_vanishing_rule_covers_every_pair_of_linear_characters():
    for group in (FiniteGroup.cyclic(12), FiniteGroup.cyclic(15),
                  FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(6))):
        chars = irreducibles(group)
        assert all(chi.exps is not None for chi in chars)
        for sigma, rho in itertools.product(chars, repeat=2):
            (m, e), (k, f) = sigma.exps, rho.exps
            n = lcm(m, k)        # the modulus hom_mult counts in
            counts = Counter((x * (n // m) - y * (n // k)) % n for x, y in zip(e, f))
            if counts[0] != group.order:
                assert finrep._vanishes(n, counts)
            slow = hom_mult(RepOrChar(group, sigma.values), RepOrChar(group, rho.values))
            assert hom_mult(sigma, rho) == slow == (sigma == rho)


# ---------------------------------------------------------------------------
# the JSON writer


_STRINGS = st.text() | st.sampled_from(["", "\x00\x1f\x7f", "\n\t\r\"\\/", "é ☃ 𝔾",
                                        "\ud800", "\u2028"])
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | _STRINGS | st.floats()
    | st.integers(10 ** 99, 10 ** 100) | st.integers(-10 ** 100, -10 ** 99),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_STRINGS, inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=3),
    max_leaves=30)


@settings(max_examples=400, deadline=None)
@given(_JSON_TREES)
def test_the_json_writer_matches_json_dumps(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], [[]], {"b": [{}]}],
    (), ((),), [True, 1, False, 0, None], [-(10 ** 100), 10 ** 100, -0],
    [1.5, float("nan"), float("inf")], {"x": 0.1, "\x00": "\u00e9"}, {2: [1], 1: {}},
])
def test_the_json_writer_matches_json_dumps_on_edge_trees(value):
    assert _json_text(value) == json.dumps(value, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# Light's associativity test


def _associative(table) -> bool:
    """Every triple: (a b) c == a (b c)."""
    return all(table[ab] == tuple(table[a][x] for x in table[b])
               for a in range(len(table)) for b, ab in enumerate(table[a]))


def _light_accepts(table) -> bool:
    try:
        FiniteGroup(table)
    except finrep.FinRepError as exc:
        assert str(exc) == "table is not associative"
        return False
    return True


@st.composite
def _magmas(draw):
    """Tables with identity 0 and an inverse for every element."""
    n = draw(st.integers(1, 6))
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        table[0][i] = table[i][0] = i
    for i in range(1, n):
        for j in range(1, n):
            table[i][j] = draw(st.integers(0, n - 1))
        table[i][draw(st.integers(1, n - 1))] = 0
    return tuple(map(tuple, table))


@settings(max_examples=400, deadline=None)
@given(_magmas())
def test_light_matches_every_triple_on_small_magmas(table):
    assert _light_accepts(table) == _associative(table)


def _relabelled(table, perm):
    out = [[0] * len(table) for _ in table]
    for a, row in enumerate(table):
        for b, ab in enumerate(row):
            out[perm[a]][perm[b]] = perm[ab]
    return tuple(map(tuple, out))


@pytest.mark.parametrize("kind, order", [
    ("cyclic", n) for n in (1, 2, 5, 12, 16, 24, 25, 28, 35, 42, 49, 56, 63, 64)
] + [("dihedral", n) for n in (4, 6, 8, 14, 28, 42, 56, 64)])
def test_light_matches_every_triple_on_perturbed_groups(kind, order):
    rng = random.Random(order)
    group = FiniteGroup.cyclic(order) if kind == "cyclic" else FiniteGroup.dihedral(order // 2)
    perm = list(range(order))
    rng.shuffle(perm)
    table = _relabelled(group.table, perm)
    assert _light_accepts(table) and _associative(table)
    e = perm[group.identity]
    others = [x for x in range(order) if x != e]
    for _ in range(6 if order > 2 else 0):
        bad = [list(row) for row in table]
        a = rng.choice(others)
        b, c = rng.sample([x for x in others if bad[a][x] != e], 2)
        if rng.random() < 0.5:
            bad[a][b], bad[a][c] = bad[a][c], bad[a][b]     # a row that stays a permutation
        else:
            bad[a][b] = bad[a][c]                           # one changed entry
        bad = tuple(map(tuple, bad))
        assert _light_accepts(bad) == _associative(bad)
