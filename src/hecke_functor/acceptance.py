"""
The acceptance suite: one callable per criterion, each returning
(passed, detail-string).  `run_all` prints one line per criterion and is
what the CLI `selftest` subcommand executes; the pytest suite wraps the
same callables.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from . import intlattice as il
from .bernstein import oracle_pair_check
from .finrep import (
    FiniteGroup, clifford_identity_check, hom_mult, induce, irreducibles,
    restrict,
)
from .functor import (
    check_transitivity, conjA_decompose, hom_ad, hom_dual_automorphism,
    hom_gl_to_pgl, hom_sl_to_gl, hom_sl_to_pgl, hom_torus_insertion,
    sln_example, smap,
)
from .hecke import HeckeSpec, ad_xg, basis_product, is_central, mul_im, theta
from .lparam import GroupTag, ToyParameter, relevant_enhancements
from .numkernel import cyclo_root_of_unity
from .rootdata import (
    BasedRootDatum, RDMorphism, build_classical, factorize_condition1,
    is_condition1,
)
from .weyl import Eig, stabilizer_of_point

__all__ = ["CRITERIA", "run_all"]


# ---------------------------------------------------------------------------
# 1. the cyclic principal-series example for n = 2..8


def criterion_sln_example():
    start = time.monotonic()
    for n in range(2, 9):
        ex = sln_example(n)
        res, gen = ex.components, ex.generator

        # stabilizer of the list modulo scalars: order n, generated by the
        # n-cycle (the pair group is that stabilizer)
        if res.order != n or not res.is_cyclic():
            return False, f"n={n}: stabilizer order {res.order}"
        if res.group.element_order(gen) != n:
            return False, f"n={n}: the n-cycle does not generate"
        if n <= 5:
            # independent route through the enumerated Weyl group
            gl = build_classical("GL", n)
            pt = tuple(Eig.root_of_unity(k, n) for k in range(n))
            stab = stabilizer_of_point(gl, pt, projective=True)
            if stab.order != n:
                return False, f"n={n}: Weyl-group stabilizer disagrees"

        # quotient by the on-the-nose part is cyclic of order n
        if res.quotient_order() != n:
            return False, f"n={n}: quotient order {res.quotient_order()}"

        # tau values on the powers of the generator
        elt = gen
        for k in range(1, n):
            if ex.tau.values[elt] != cyclo_root_of_unity((n - k) % n, n):
                return False, f"n={n}: tau value at power {k} wrong"
            elt = res.group.mul(elt, gen)

        # Ad(t) sends (phi, tau*) to (phi, zeta_n tau*) with multiplicity 1
        zeta = cyclo_root_of_unity(1, n)
        for out, shift in zip(ex.ad_pullbacks, ex.ad_shifts):
            if len(out) != 1 or out[0][2] != 1:
                return False, f"n={n}: Ad-pullback not multiplicity one"
            if shift != zeta:
                return False, f"n={n}: Ad-pullback twists the wrong way"

        # pullback along the determinant-one inclusion: n pieces, all of
        # multiplicity one, exhausting the relevant enhancements
        out = ex.inclusion_pullback
        if len(out) != n or any(m != 1 for _, _, m in out):
            return False, f"n={n}: inclusion pullback has wrong shape"
        if not ex.packet_union:
            return False, f"n={n}: packet union fails"
    elapsed = time.monotonic() - start
    if elapsed >= 10.0:
        return False, f"took {elapsed:.1f}s (budget 10s)"
    return True, f"n=2..8 checked in {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. the multiplication kernel


def _kernel_fixtures():
    out = []
    for datum, name in [(build_classical("A", 1, "sc"), "A1"),
                        (build_classical("A", 2, "sc"), "A2"),
                        (build_classical("C", 2, "sc"), "C2")]:
        for lam in (1, 2):
            out.append((HeckeSpec(datum, labels=lam), f"{name},label={lam}"))
    return out


def _keys_up_to_length(spec, bound):
    group = spec.weyl
    r = spec.datum.rank
    by_len = {}
    for x in itertools.product(range(-bound - 1, bound + 2), repeat=r):
        for wi in range(group.order):
            l = spec.key_length((x, wi, spec.r_identity))
            if l <= bound:
                by_len.setdefault(l, []).append((tuple(x), wi))
    return by_len


def criterion_hecke_kernel(seed: int = 20240, pairs: int = 200):
    start = time.monotonic()
    for spec, name in _kernel_fixtures():
        # quadratic relations for every simple affine reflection
        e = spec.unit()
        for pos, key in enumerate(spec.all_gens):
            n_s = spec.basis(key[0], key[1])
            if mul_im(spec, n_s, n_s) != e + n_s.scale(spec.gen_deform[pos]):
                return False, f"{name}: quadratic relation fails at {pos}"

        # exhaustive associativity, total length <= 6, through the memoized
        # basis product
        by_len = _keys_up_to_length(spec, 6)
        basis = {k: spec.basis(*k) for keys in by_len.values() for k in keys}
        pair_products = {}
        lengths = sorted(by_len)
        for la, lb in itertools.product(lengths, repeat=2):
            if la + lb > 6:
                continue
            for ka in by_len[la]:
                for kb in by_len[lb]:
                    pair_products[(ka, kb)] = basis_product(spec, ka, kb)
        triples = 0
        for la, lb, lc in itertools.product(lengths, repeat=3):
            if la + lb + lc > 6:
                continue
            for kb in by_len[lb]:
                for kc in by_len[lc]:
                    bc = pair_products[(kb, kc)]
                    for ka in by_len[la]:
                        if (mul_im(spec, pair_products[(ka, kb)], basis[kc])
                                != mul_im(spec, basis[ka], bc)):
                            return False, f"{name}: associativity fails"
                        triples += 1

        # two presentations agree on seeded random pairs; the left factor's
        # translation ranges over a +-2 box, the right one over the dominant
        # part, and both sides are compared after clearing denominators with
        # one dominant translation
        rng = random.Random(seed)
        r = spec.datum.rank
        xs = sorted(itertools.product(range(-2, 3), repeat=r))
        ys = [y for y in itertools.product(range(0, 4), repeat=r)
              if spec.datum.is_dominant(y)]
        for _ in range(pairs):
            x, y = rng.choice(xs), rng.choice(ys)
            wi = rng.randrange(spec.weyl.order)
            vi = rng.randrange(spec.weyl.order)
            if not oracle_pair_check(spec, x, wi, y, vi):
                return False, f"{name}: presentations disagree at {(x, wi, y, vi)}"
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        return False, f"took {elapsed:.1f}s (budget 60s)"
    return True, f"6 fixtures, exhaustive triples and {pairs} pairs each, {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. the centre


def criterion_center():
    for spec, name in _kernel_fixtures():
        if name.endswith("label=2"):
            continue        # the label-1 fixtures are exhaustive enough per type
        r = spec.datum.rank
        group = spec.weyl
        for x in itertools.product(range(-2, 3), repeat=r):
            seen, sym = set(), spec.zero()
            for wi in range(group.order):
                wx = group.act(wi, x)
                if wx not in seen:
                    seen.add(wx)
                    sym = sym + theta(spec, wx)
            if not is_central(spec, sym):
                return False, f"{name}: symmetrized sum at {x} is not central"
        for j in range(len(spec.datum.simples)):
            if is_central(spec, spec.n_simple(j)):
                return False, f"{name}: N_s at {j} wrongly central"
    return True, "symmetrized sums up to bound 2 central; every N_s fails"


# ---------------------------------------------------------------------------
# 4. the conjugation automorphism


def criterion_ad():
    # the rank-one fixture with a genuinely fractional vector
    a1ad = build_classical("A", 1, "ad")
    spec = HeckeSpec(a1ad)
    ad = ad_xg(spec, (Fraction(1, 2),))
    e = spec.unit()
    n_s = spec.n_simple(0)
    img = ad(n_s)
    # quadratic relation is preserved
    if mul_im(spec, img, img) != e + img.scale(spec.gen_deform[0]):
        return False, "fractional fixture: image relation fails"
    # theta fixed pointwise
    for x in [(-2,), (-1,), (0,), (1,), (3,)]:
        if ad(theta(spec, x)) != theta(spec, x):
            return False, "fractional fixture: theta moved"
    # inverse composition is the identity
    back = ad.inverse()
    keys = [(x, wi) for x in [(-2,), (-1,), (0,), (1,), (2,)] for wi in (0, 1)]
    for x, wi in keys:
        b = spec.basis(x, wi)
        if back(ad(b)) != b:
            return False, "fractional fixture: Ad(x) Ad(-x) != id"
    # homomorphy on all pairs of the listed keys
    for (x1, w1), (x2, w2) in itertools.product(keys, repeat=2):
        a, b = spec.basis(x1, w1), spec.basis(x2, w2)
        if ad(mul_im(spec, a, b)) != mul_im(spec, ad(a), ad(b)):
            return False, "fractional fixture: not a homomorphism"

    # lattice vectors: conjugation by theta on all generators
    for datum in (build_classical("A", 1, "sc"), a1ad):
        spec2 = HeckeSpec(datum)
        for x_g in ((1,), (-2,)):
            ad2 = ad_xg(spec2, x_g)
            th = theta(spec2, x_g)
            th_inv = theta(spec2, tuple(-v for v in x_g))
            gens = [spec2.n_simple(0), spec2.n_affine(0),
                    theta(spec2, (1,)), theta(spec2, (-1,))]
            for g in gens:
                if ad2(g) != mul_im(spec2, mul_im(spec2, th, g), th_inv):
                    return False, "lattice vector: Ad differs from theta-conjugation"
            if ad2.inverse()(ad2(spec2.basis((1,), 1))) != spec2.basis((1,), 1):
                return False, "lattice vector: inverse fails"
    return True, "fractional and lattice fixtures verified exactly"


# ---------------------------------------------------------------------------
# 5. induction and the Clifford re-derivation


def _clifford_fixtures():
    out = []
    z4 = FiniteGroup.cyclic(4)
    out.append((z4, frozenset({0, 2}), "Z2<Z4"))
    z8 = FiniteGroup.cyclic(8)
    out.append((z8, frozenset({0, 2, 4, 6}), "Z4<Z8"))
    z6 = FiniteGroup.cyclic(6)
    out.append((z6, frozenset({0, 2, 4}), "Z3<Z6"))
    z2z4 = FiniteGroup.product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))
    elems = list(itertools.product(range(2), range(4)))
    sub = frozenset(i for i, (a, b) in enumerate(elems) if b % 2 == 0)
    out.append((z2z4, sub, "Z2xZ2<Z2xZ4"))
    s3 = FiniteGroup.symmetric(3)
    a3 = frozenset(a for a in range(6) if s3.element_order(a) in (1, 3))
    out.append((s3, a3, "A3<S3"))
    d4 = FiniteGroup.dihedral(4)
    elems4 = [(r, f) for f in (0, 1) for r in range(4)]
    klein = frozenset(i for i, (r, f) in enumerate(elems4) if r % 2 == 0)
    out.append((d4, klein, "Klein<D4"))
    rot = frozenset(i for i, (r, f) in enumerate(elems4) if f == 0)
    out.append((d4, rot, "Z4<D4"))
    s4 = FiniteGroup.symmetric(4)
    perms = list(itertools.permutations(range(4)))

    def sign(p):
        s = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if p[i] > p[j]:
                    s = -s
        return s

    a4 = frozenset(i for i, p in enumerate(perms) if sign(p) == 1)
    out.append((s4, a4, "A4<S4"))
    return out


def criterion_clifford():
    for group, normal, name in _clifford_fixtures():
        if group.order > 24:
            return False, f"{name}: fixture exceeds the order bound"
        sub_group, members = group.subgroup_as_group(normal)
        index = group.order // len(members)
        g_chars = irreducibles(group)
        for rho in irreducibles(sub_group):
            ind, decomp = induce(group, normal, rho)
            for sigma in g_chars:
                if hom_mult(ind, sigma) != \
                        hom_mult(rho, restrict(sigma, normal, sub_group)):
                    return False, f"{name}: Frobenius reciprocity fails"
            if sum(m * c.degree for c, m in decomp) != index * rho.degree:
                return False, f"{name}: degree conservation fails"
            if not clifford_identity_check(group, normal, rho):
                return False, f"{name}: stabilizer re-derivation disagrees"
    return True, f"{len(_clifford_fixtures())} fixtures, all characters"


# ---------------------------------------------------------------------------
# 6. transitivity of the pullback maps


def _chain_parameters(tag: GroupTag, count: int = 5):
    """Multiplicity-free parameters of several shapes on a single factor."""
    (kind, n), = tag.factors
    shapes = []
    shapes.append([Eig.root_of_unity(k, n) for k in range(n)])
    qs = [Fraction(i) - Fraction(n - 1, 2) for i in range(n)]
    shapes.append([Eig(q) for q in qs])
    shapes.append([Eig(q, Fraction(k % 2, 2)) for k, q in enumerate(qs)])
    shapes.append([Eig.root_of_unity(k, 2 * n) for k in range(n)])
    qq = [Fraction(k * k) for k in range(n)]
    mean = sum(qq) / n
    shapes.append([Eig(q - mean) for q in qq])
    out = []
    for eigs in shapes[:count]:
        if kind == "PGL":
            tot_q = sum(e.q_exp for e in eigs) / n
            tot_a = (sum(e.angle for e in eigs) % 1) / n
            eigs = [Eig(e.q_exp - tot_q, e.angle - tot_a) for e in eigs]
        out.append(ToyParameter.make(tag, [eigs]))
    return out


def _chain_catalog(n):
    tag_sl = GroupTag.single("SL", n)
    tag_gl = GroupTag.single("GL", n)
    tag_pgl = GroupTag.single("PGL", n)
    t_vec = [[1] + [0] * (n - 1)]
    maps = [hom_sl_to_gl(n), hom_gl_to_pgl(n), hom_sl_to_pgl(n),
            hom_ad(tag_sl, t_vec), hom_ad(tag_gl, t_vec), hom_ad(tag_pgl, t_vec),
            hom_dual_automorphism(tag_gl),
            hom_torus_insertion(tag_sl, 1), hom_torus_insertion(tag_gl, 1)]
    return maps


def criterion_transitivity():
    checked = 0
    for n in range(2, 7):
        maps = _chain_catalog(n)
        for f, q in itertools.product(maps, repeat=2):
            if f.target != q.source:
                continue
            base = q.target
            if any(kind == "T" for kind, _ in base.factors):
                # extend single-factor samples with a torus coordinate
                inner = GroupTag(base.factors[:-1], base.zeta[:-1])
                params = []
                for p in _chain_parameters(inner):
                    params.append(ToyParameter.make(
                        base, [list(p.factors[0]), [Eig()] * base.factors[-1][1]]))
            else:
                params = _chain_parameters(base)
            if len(params) < 5:
                return False, "fewer than five parameters generated"
            for phi in params:
                rhos = relevant_enhancements(base, phi)
                if not check_transitivity(f, q, phi, rhos):
                    return False, (f"n={n}: mismatch for "
                                   f"{[s.kind for s in f.steps]} then "
                                   f"{[s.kind for s in q.steps]}")
                checked += 1
    return True, f"{checked} composable chain/parameter combinations"


# ---------------------------------------------------------------------------
# 7. factorization of admissible lattice morphisms


def _random_unimodular(rng, n):
    m = [list(r) for r in il.identity(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randint(-2, 2)
            for k in range(n):
                m[i][k] += q * m[j][k]
    return tuple(map(tuple, m))


def _transport_datum(datum, g):
    ginv_t = il.transpose(il.inverse_unimodular(g))
    roots = tuple(tuple(il.mat_vec(g, r)) for r in datum.roots)
    coroots = tuple(tuple(il.mat_vec(ginv_t, c)) for c in datum.coroots)
    return BasedRootDatum(datum.rank, roots, coroots, datum.simples)


def criterion_factorization(seed: int = 77, count: int = 20):
    rng = random.Random(seed)
    base = [hom_sl_to_gl(2).lattice_map, hom_sl_to_gl(3).lattice_map,
            hom_sl_to_gl(4).lattice_map, hom_gl_to_pgl(2).lattice_map,
            hom_gl_to_pgl(3).lattice_map, hom_sl_to_pgl(3).lattice_map,
            hom_torus_insertion(GroupTag.single("SL", 3), 2).lattice_map,
            RDMorphism.identity(build_classical("GL", 3))]
    done = 0
    while done < count:
        f = rng.choice(base)
        gs = _random_unimodular(rng, f.source.rank)
        gt = _random_unimodular(rng, f.target.rank)
        src = _transport_datum(f.source, gs)
        tgt = _transport_datum(f.target, gt)
        char = il.mat_mul(gs, il.mat_mul(f.char_map, il.inverse_unimodular(gt))) \
            if f.source.rank and f.target.rank else f.char_map
        fmixed = RDMorphism(src, tgt, char)
        if not is_condition1(fmixed):
            return False, "seeded morphism lost admissibility"
        fact = factorize_condition1(fmixed)
        if fact.recompose().char_map != fmixed.char_map:
            return False, "recomposition is not bit-exact"
        for stage in (fact.f1, fact.f2, fact.f3):
            if not is_condition1(stage):
                return False, "a stage fails admissibility"
        done += 1
    return True, f"{count} seeded morphisms factorized and recomposed"


# ---------------------------------------------------------------------------
# 8. multiplicity conservation


def criterion_multiplicity_conservation():
    checked = 0
    for n in range(2, 7):
        # quotient-type maps on several parameters each
        for f, make_phi in [
            (hom_sl_to_gl(n), lambda n=n: ToyParameter.make(
                GroupTag.single("GL", n),
                [[Eig.root_of_unity(k, n) for k in range(n)]])),
            (hom_sl_to_pgl(n), lambda n=n: ToyParameter.make(
                GroupTag.single("PGL", n),
                [[Eig.root_of_unity(k, n) for k in range(n)]]
                if n % 2 == 1 else
                [_shifted_cycle(n)])),
        ]:
            phi = make_phi()
            data = smap(f, phi)
            for rho in relevant_enhancements(f.target, phi):
                out = conjA_decompose(f, phi, rho)
                total = sum(m * r.degree for _, r, m in out)
                if total != data.index() * rho.degree:
                    return False, f"n={n}: conservation fails"
                checked += 1
    return True, f"{checked} decompositions conserve multiplicity"


def _shifted_cycle(n):
    # a determinant-one multiplicity-free list for even n
    eigs = [Eig.root_of_unity(2 * k + 1, 2 * n) for k in range(n)]
    tot = sum(e.angle for e in eigs) % 1
    return [Eig(e.q_exp, e.angle - tot / n) for e in eigs]


CRITERIA = [
    ("1 cyclic principal-series example, n = 2..8", criterion_sln_example),
    ("2 multiplication kernel (associativity, quadratic, two presentations)",
     criterion_hecke_kernel),
    ("3 centre: symmetrized sums pass, generators fail", criterion_center),
    ("4 conjugation automorphism fixtures", criterion_ad),
    ("5 induction and Clifford re-derivation, |G| <= 24", criterion_clifford),
    ("6 pullback transitivity over composable chains", criterion_transitivity),
    ("7 factorization of seeded admissible morphisms", criterion_factorization),
    ("8 multiplicity conservation", criterion_multiplicity_conservation),
]


def run_all(verbose: bool = True, seed: int | None = None) -> int:
    failures = 0
    for name, func in CRITERIA:
        if seed is not None and func in (criterion_hecke_kernel,
                                         criterion_factorization):
            call = lambda f=func: f(seed=seed)
        else:
            call = func
        t0 = time.monotonic()
        try:
            ok, detail = call()
        except Exception as exc:            # a crash is a failure with a reason
            ok, detail = False, f"exception: {exc}"
        dt = time.monotonic() - t0
        status = "PASS" if ok else "FAIL"
        if verbose:
            print(f"[{status}] {name}: {detail} ({dt:.1f}s)")
        if not ok:
            failures += 1
    return 0 if failures == 0 else 1
