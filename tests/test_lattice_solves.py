"""The lattice solves that share one Smith form per matrix, compared element
by element with the per-element paths they replace: each reference below
builds its integer system afresh and solves every right-hand side with a
Smith form of its own."""

import itertools

import pytest

from hecke_functor import intlattice as il
from hecke_functor.acceptance import _chain_catalog
from hecke_functor.rootdata import (
    BasedRootDatum, Factorization, RDMorphism, based_automorphisms, build_classical,
    direct_sum, factorize_condition1, is_condition1, torus_datum,
)
from hecke_functor.weyl import WeylGroup, _length_indexed, omega_subgroup

DATA = {f"{fam}{n}{iso}": build_classical(fam, n, iso)
        for fam, ranks in (("A", range(1, 6)), ("B", range(2, 5)),
                           ("C", range(2, 5)), ("D", (4, 5)))
        for n in ranks for iso in ("sc", "ad")}
DATA.update({f"GL{n}": build_classical("GL", n) for n in (2, 3, 4)})


def _omega_per_element(datum):
    """Length-zero elements with translation in the saturated root span."""
    group = WeylGroup.build(datum)
    r = datum.rank
    sat = il.saturation_basis([list(x) for x in datum.roots], r)
    sat_matrix = il.transpose(tuple(sat))
    out = []
    for wi in range(group.order):
        flags = group.inversions(wi)
        targets = tuple(flags[group.slot[i]] for i in datum.simples)
        rows = tuple(tuple(sum(sat_matrix[k][j] * datum.coroots[i][k] for k in range(r))
                           for j in range(len(sat)))
                     for i in datum.simples)
        y = il.solve_int(rows, targets)
        if y is None:
            continue
        x = il.mat_vec(sat_matrix, y)
        if _length_indexed(group, x, wi) == 0:
            out.append((x, group.words[wi]))
    return out


@pytest.mark.parametrize("name", sorted(DATA))
def test_omega_matches_per_element_solves(name):
    datum = DATA[name]
    got = [(o.translation, o.finite.word) for o in omega_subgroup(datum)]
    assert got == _omega_per_element(datum)


def _automorphisms_per_candidate(datum):
    """Based automorphisms, each candidate permutation of the simple roots
    solved for g and, separately, for the kernel of its system."""
    r = datum.rank
    simples = list(datum.simples)
    k = len(simples)
    out, seen = [], set()
    for perm in itertools.permutations(range(k)):
        if any(datum.cartan(simples[i], simples[j])
               != datum.cartan(simples[perm[i]], simples[perm[j]])
               for i in range(k) for j in range(k)):
            continue
        rows, rhs = [], []
        for idx, i in enumerate(simples):
            alpha, alpha_img = datum.roots[i], datum.roots[simples[perm[idx]]]
            for row_i in range(r):
                eq = [0] * (r * r)
                eq[row_i * r:(row_i + 1) * r] = alpha
                rows.append(tuple(eq))
                rhs.append(alpha_img[row_i])
        for idx, i in enumerate(simples):
            alpha_v, alpha_v_img = datum.coroots[i], datum.coroots[simples[perm[idx]]]
            for col_j in range(r):
                eq = [0] * (r * r)
                for row_i in range(r):
                    eq[row_i * r + col_j] = alpha_v_img[row_i]
                rows.append(tuple(eq))
                rhs.append(alpha_v[col_j])
        x0 = il.solve_int(tuple(rows), tuple(rhs))
        if x0 is None:
            continue
        free = il.kernel_basis(tuple(rows))
        assert len(free) <= 1

        def as_matrix(vec):
            return tuple(tuple(vec[i * r + j] for j in range(r)) for i in range(r))

        solutions = [as_matrix(x0)] if not free else []
        if free:
            d0 = il.det(as_matrix(x0))
            slope = il.det(as_matrix(tuple(p + q for p, q in zip(x0, free[0])))) - d0
            for target in (1, -1):
                if slope == 0 and d0 == target:
                    solutions.append(as_matrix(x0))
                elif slope and (target - d0) % slope == 0:
                    kk = (target - d0) // slope
                    solutions.append(as_matrix(tuple(p + kk * q for p, q in zip(x0, free[0]))))
        for g in solutions:
            if abs(il.det(g)) != 1 or g in seen \
                    or any(il.mat_vec(g, a) not in set(datum.roots) for a in datum.roots):
                continue
            if is_condition1(RDMorphism(datum, datum, g)):
                seen.add(g)
                out.append(g)
    return out


@pytest.mark.parametrize("name", sorted(DATA))
def test_automorphisms_match_per_candidate_solves(name):
    datum = DATA[name]
    got = [a.char_map for a in based_automorphisms(datum)]
    assert got == _automorphisms_per_candidate(datum)


def _factorize_per_rhs(f):
    """Torus insertion, central quotient and isomorphism, with the column
    lattice of b read off U^-1 inverted by Gauss-Jordan, its invariants from a
    second Smith form of b, and each column of b and each padded root solved
    against a Smith form of its own."""
    a = f.char_map
    s, t = f.source.rank, f.target.rank
    ker = il.kernel_basis(a)
    c = len(ker)
    root_span = il.saturation_basis([list(r) for r in f.target.roots], t)
    if root_span:
        q_map = il.snf(il.transpose(tuple(root_span)))[0][len(root_span):]
    else:
        q_map = il.identity(t)
    if c:
        qk = il.mat_mul(q_map, il.transpose(tuple(ker))) if q_map else il.zeros(0, c)
        p_map = il.mat_mul(il.snf(qk)[0][:c], q_map)
    else:
        p_map = il.zeros(0, t)
    b = tuple(tuple(r) for r in tuple(a) + tuple(p_map))
    u, d, _ = il.snf(b)
    cols = il.transpose(il.inverse_unimodular(u))
    basis = [tuple(d[i][i] * x for x in cols[i]) for i in range(min(s + c, t)) if d[i][i]]
    m_matrix = il.transpose(tuple(basis))
    f3_map = il.transpose(tuple(il.solve_int(m_matrix, col) for col in il.transpose(b)))
    mid_roots = [il.solve_int(m_matrix, tuple(alpha) + (0,) * c) for alpha in f.source.roots]
    mid_coroots = [il.mat_vec(il.transpose(m_matrix), tuple(v) + (0,) * c)
                   for v in f.source.coroots]
    mid = BasedRootDatum(t, tuple(mid_roots), tuple(mid_coroots), tuple(f.source.simples))
    prod = direct_sum(f.source, torus_datum(c))
    f1 = RDMorphism(f.source, prod, tuple(tuple(int(i == j) for j in range(s + c))
                                          for i in range(s)))
    _, dsnf, _ = il.snf(b)
    invariants = tuple(dsnf[i][i] for i in range(min(s + c, t)) if dsnf[i][i] not in (0, 1))
    return Factorization(f1, RDMorphism(prod, mid, m_matrix), RDMorphism(mid, f.target, f3_map),
                         c, invariants)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_factorization_matches_per_rhs_solves(n):
    for hom in _chain_catalog(n):
        f = hom.lattice_map
        assert factorize_condition1(f) == _factorize_per_rhs(f)
