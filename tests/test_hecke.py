import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hecke_functor import intlattice as il
from hecke_functor.numkernel import Cyclo, LaurentPoly, cyclo_root_of_unity
from hecke_functor.rootdata import build_classical, direct_sum
from hecke_functor.bernstein import BernElement, bern_basis, bern_to_im, mul_bernstein
from hecke_functor.hecke import (
    GradedElement, GradedSpec, HeckeElement, HeckeError, HeckeSpec, _basis_mul_plain,
    _dominant_shift, ad_xg, alpha_g_twist, basis_product, blz_check, graded_mul,
    hom_from_big, intermediate_algebra, is_central, mul_im, theta,
)

A1 = build_classical("A", 1, "sc")
A1AD = build_classical("A", 1, "ad")
A2 = build_classical("A", 2, "sc")
C2 = build_classical("C", 2, "sc")


def spec_a1(lam=1):
    return HeckeSpec(A1, labels=lam)


def all_keys_up_to_length(spec, bound):
    """Every N-basis key (R-part trivial) of length <= bound."""
    out = []
    group = spec.weyl
    r = spec.datum.rank
    for x in itertools.product(range(-bound - 1, bound + 2), repeat=r):
        for wi in range(group.order):
            if spec.key_length((x, wi, spec.r_identity)) <= bound:
                out.append((tuple(x), wi))
    return out


def test_unit_and_quadratic():
    for datum in (A1, A2, C2):
        for lam in (1, 2):
            spec = HeckeSpec(datum, labels=lam)
            e = spec.unit()
            for j in range(len(datum.simples)):
                n_s = spec.n_simple(j)
                assert mul_im(spec, e, n_s) == n_s
                assert mul_im(spec, n_s, e) == n_s
                sq = mul_im(spec, n_s, n_s)
                assert sq == e + n_s.scale(spec.gen_deform[j])
            # affine nodes obey the same quadratic relation
            for c in range(len(spec.affine_gens)):
                n_0 = spec.n_affine(c)
                pos = len(spec.simple_gens) + c
                sq = mul_im(spec, n_0, n_0)
                assert sq == e + n_0.scale(spec.gen_deform[pos])


def test_braid_relation_a2():
    spec = HeckeSpec(A2)
    n1, n2 = spec.n_simple(0), spec.n_simple(1)
    lhs = mul_im(spec, mul_im(spec, n1, n2), n1)
    rhs = mul_im(spec, mul_im(spec, n2, n1), n2)
    assert lhs == rhs
    # lengths add: N_{s1} N_{s2} = N_{s1 s2}
    prod = mul_im(spec, n1, n2)
    assert len(prod.terms) == 1
    key = next(iter(prod.terms))
    assert spec.key_length(key) == 2


def test_associativity_exhaustive_small():
    # full check at low length; the acceptance suite pushes this to length 6
    spec = HeckeSpec(A1)
    keys = all_keys_up_to_length(spec, 2)
    elts = [spec.basis(x, wi) for x, wi in keys]
    for a, b, c in itertools.product(elts, repeat=3):
        la = spec.key_length(next(iter(a.terms)))
        lb = spec.key_length(next(iter(b.terms)))
        lc = spec.key_length(next(iter(c.terms)))
        if la + lb + lc > 4:
            continue
        assert mul_im(spec, mul_im(spec, a, b), c) == mul_im(spec, a, mul_im(spec, b, c))


def test_theta_basics():
    for datum in (A1, A2, C2):
        spec = HeckeSpec(datum)
        r = datum.rank
        zero = (0,) * r
        assert theta(spec, zero) == spec.unit()
        # dominant x: theta_x = N_{t_x}
        two_rho = [0] * r
        for i in spec.weyl.positive_indices:
            two_rho = [a + b for a, b in zip(two_rho, datum.roots[i])]
        assert theta(spec, tuple(two_rho)) == spec.basis(tuple(two_rho), 0)
        # group law and inverses
        for x in itertools.product(range(-2, 3), repeat=r):
            if sum(abs(v) for v in x) > 3:
                continue
            minus = tuple(-v for v in x)
            assert mul_im(spec, theta(spec, x), theta(spec, minus)) == spec.unit()
        xs = [(1,) + (0,) * (r - 1), (-1,) * r, (2,) + (0,) * (r - 1)]
        for x, y in itertools.product(xs, repeat=2):
            px, py = theta(spec, x), theta(spec, y)
            s = tuple(a + b for a, b in zip(x, y))
            assert mul_im(spec, px, py) == theta(spec, s)
            assert mul_im(spec, px, py) == mul_im(spec, py, px)


def test_theta_negative_root_a1():
    # theta_{-alpha} theta_alpha = 1, expanded through N_s^-1 = N_s - (z - z^-1)
    spec = spec_a1()
    alpha = (2,)
    prod = mul_im(spec, theta(spec, (-2,)), theta(spec, alpha))
    assert prod == spec.unit()


# ---------------------------------------------------------------------------
# cross relation


def test_blz_invariant_f_commutes():
    spec = HeckeSpec(A2)
    # f = theta_x + theta_{s x} is s-invariant, so the commutator is zero
    x = A2.roots[A2.simples[0]]
    sx = A2.reflect(A2.simples[0], x)
    one = LaurentPoly.constant(spec.zvars, 1)
    comm = blz_check(spec, {x: one, tuple(sx): one}, 0)
    assert comm.is_zero()
    assert blz_check(spec, {(0,) * 2: one}, 0).is_zero()


@pytest.mark.parametrize("lam,lam_star", [(1, 1), (2, 2), (1, 2)])
def test_blz_a1_with_labels(lam, lam_star):
    datum = A1AD if lam != lam_star else A1
    spec = HeckeSpec(datum, labels=lam, label_star=lam_star)
    one = LaurentPoly.constant(spec.zvars, 1)
    # f = theta_alpha; the check itself raises if the two presentations differ
    alpha = datum.roots[datum.simples[0]]
    comm = blz_check(spec, {alpha: one}, 0)
    assert not comm.is_zero()


def test_blz_random_f():
    rng = random.Random(7321)
    for datum in (A1, A2):
        spec = HeckeSpec(datum)
        r = datum.rank
        for _ in range(10):
            coords = {}
            for _ in range(rng.randint(1, 3)):
                x = tuple(rng.randint(-2, 2) for _ in range(r))
                coords[x] = LaurentPoly.constant(spec.zvars, rng.randint(-2, 2))
            for j in range(len(datum.simples)):
                blz_check(spec, coords, j)


def test_label_star_admissibility():
    with pytest.raises(HeckeError):
        HeckeSpec(A1, labels=1, label_star=2)  # coroot (1,) is not in 2X^
    HeckeSpec(A1AD, labels=1, label_star=2)    # coroot (2,) is


# ---------------------------------------------------------------------------
# center


def _symmetrized_theta(spec, x):
    group = spec.weyl
    seen = set()
    out = spec.zero()
    for wi in range(group.order):
        wx = group.act(wi, x)
        if wx not in seen:
            seen.add(wx)
            out = out + theta(spec, wx)
    return out


def test_center_symmetrized_sums():
    for datum in (A1, A2):
        spec = HeckeSpec(datum)
        for x in itertools.product(range(-1, 2), repeat=datum.rank):
            assert is_central(spec, _symmetrized_theta(spec, tuple(x)))


def test_center_scalars_and_failures():
    spec = HeckeSpec(A2)
    assert is_central(spec, spec.unit().scale(Fraction(3, 7)))
    for j in range(2):
        assert not is_central(spec, spec.n_simple(j))


# ---------------------------------------------------------------------------
# Ad(x_g)


def test_ad_trivial():
    spec = spec_a1()
    ad = ad_xg(spec, (0,))
    for x, wi in all_keys_up_to_length(spec, 2):
        b = spec.basis(x, wi)
        assert ad(b) == b


def test_ad_lattice_vector_is_theta_conjugation():
    for datum in (A1, A2):
        spec = HeckeSpec(datum)
        for x_g in (tuple([1] + [0] * (datum.rank - 1)), (1,) * datum.rank):
            ad = ad_xg(spec, x_g)
            th = theta(spec, x_g)
            th_inv = theta(spec, tuple(-v for v in x_g))
            gens = [spec.n_simple(j) for j in range(len(datum.simples))]
            gens += [theta(spec, tuple(row)) for row in il.identity(datum.rank)]
            gens += [spec.n_affine(c) for c in range(len(spec.affine_gens))]
            for g in gens:
                conj = mul_im(spec, mul_im(spec, th, g), th_inv)
                assert ad(g) == conj


def test_ad_fractional_a1():
    # adjoint-normalized rank one: X = Z alpha, x_g = alpha/2 is genuinely
    # fractional yet w(x_g) - x_g is always integral
    spec = HeckeSpec(A1AD)
    ad = ad_xg(spec, (Fraction(1, 2),))
    n_s = spec.n_simple(0)
    # s(x_g) - x_g = -alpha: N_s -> N_{s t_{-alpha}} = N_{t_alpha s}
    img = ad(n_s)
    assert img == spec.basis((1,), 1)
    # theta fixed pointwise
    for x in [(-2,), (-1,), (1,), (2,)]:
        assert ad(theta(spec, x)) == theta(spec, x)
    # relations go to relations
    lhs = ad(mul_im(spec, n_s, n_s))
    assert lhs == mul_im(spec, img, img)
    # Ad(x) Ad(-x) = id
    back = ad.inverse()
    for x, wi in all_keys_up_to_length(spec, 3):
        b = spec.basis(x, wi)
        assert back(ad(b)) == b


def test_ad_is_homomorphism_on_random_pairs():
    rng = random.Random(11)
    spec = HeckeSpec(A1AD)
    ad = ad_xg(spec, (Fraction(1, 2),))
    keys = all_keys_up_to_length(spec, 3)
    for _ in range(40):
        (x1, w1), (x2, w2) = rng.choice(keys), rng.choice(keys)
        a, b = spec.basis(x1, w1), spec.basis(x2, w2)
        assert ad(mul_im(spec, a, b)) == mul_im(spec, ad(a), ad(b))


def test_ad_condition_violation():
    spec = HeckeSpec(A1)     # X = Z omega, alpha = 2 omega
    with pytest.raises(HeckeError):
        ad_xg(spec, (Fraction(1, 2),))   # s(x) - x = -omega/... not integral


# ---------------------------------------------------------------------------
# R-group and twists


def _doubled_a1_with_flip():
    datum = direct_sum(A1, A1)
    flip = ((0, 1), (1, 0))
    return datum, [il.identity(2), flip]


def test_rgroup_spec_and_products():
    datum, rgroup = _doubled_a1_with_flip()
    spec = HeckeSpec(datum, rgroup=rgroup)
    n_r = spec.n_r(1)
    assert mul_im(spec, n_r, n_r) == spec.unit()
    # N_r N_s N_r = N_{flip(s)}
    n_s0, n_s1 = spec.n_simple(0), spec.n_simple(1)
    assert mul_im(spec, mul_im(spec, n_r, n_s0), n_r) == n_s1
    # with a nontrivial square-compatible cocycle the square changes
    i = cyclo_root_of_unity(1, 4)
    one = Cyclo.rational(1)
    cocycle = {(0, 0): one, (0, 1): one, (1, 0): one, (1, 1): i}
    spec2 = HeckeSpec(datum, rgroup=rgroup, cocycle=cocycle)
    n_r2 = spec2.n_r(1)
    sq = mul_im(spec2, n_r2, n_r2)
    assert sq == spec2.unit().scale(i)


def test_cocycle_identity_enforced():
    datum, rgroup = _doubled_a1_with_flip()
    one = Cyclo.rational(1)
    bad = {(0, 0): one, (0, 1): cyclo_root_of_unity(1, 3), (1, 0): one, (1, 1): one}
    with pytest.raises(HeckeError):
        HeckeSpec(datum, rgroup=rgroup, cocycle=bad)


def test_alpha_twist_trivial_and_composition():
    datum, rgroup = _doubled_a1_with_flip()
    spec = HeckeSpec(datum, rgroup=rgroup)
    one = Cyclo.rational(1)
    target, tw = alpha_g_twist(spec, [one, one])
    assert target.cocycle == spec.cocycle
    b = spec.basis((1, 0), 2, 1)
    assert tw(b).terms == b.terms


def test_alpha_twist_order_two():
    datum, rgroup = _doubled_a1_with_flip()
    spec = HeckeSpec(datum, rgroup=rgroup)
    minus = Cyclo.rational(-1)
    one = Cyclo.rational(1)
    t1, tw = alpha_g_twist(spec, [one, minus])
    # psi is a character here, so the cocycle is unchanged and twisting twice
    # returns to the identity map
    assert t1.cocycle == spec.cocycle
    t2, tw2 = alpha_g_twist(t1, [one, minus])
    for key in [((0, 0), 0, 1), ((1, 0), 1, 1), ((0, 0), 0, 0)]:
        b = spec.basis(*key)
        assert tw2(tw(b)).terms == b.terms
    # the twist is an algebra map
    a = spec.basis((0, 0), 1, 1)
    b = spec.basis((1, 0), 0, 1)
    assert tw(mul_im(spec, a, b)) == mul_im(t1, tw(a), tw(b))


def test_alpha_twist_cyclic_order_n():
    # iterating the order-4 twist four times returns both the cocycle and
    # every basis element (i^4 = 1)
    datum, rgroup = _doubled_a1_with_flip()
    spec = HeckeSpec(datum, rgroup=rgroup)
    i = cyclo_root_of_unity(1, 4)
    one = Cyclo.rational(1)
    cur_spec, elt = spec, spec.n_r(1)
    seen_cocycles = []
    for _ in range(4):
        cur_spec, tw = alpha_g_twist(cur_spec, [one, i])
        seen_cocycles.append(cur_spec.cocycle[(1, 1)])
        elt = tw(elt)
    assert cur_spec.cocycle == spec.cocycle
    assert elt.terms == spec.n_r(1).terms
    # intermediate steps genuinely twisted the cocycle
    assert seen_cocycles[0] != spec.cocycle[(1, 1)]


# ---------------------------------------------------------------------------
# commutative-presentation oracle


@pytest.mark.parametrize("datum", [A1, A2])
def test_bernstein_oracle_matches(datum):
    rng = random.Random(515)
    spec = HeckeSpec(datum)
    keys = all_keys_up_to_length(spec, 3)
    group = spec.weyl
    finite_keys = [(x, wi) for x, wi in keys]
    for _ in range(25):
        x, _w = rng.choice(finite_keys)
        y, _v = rng.choice(finite_keys)
        wi = rng.randrange(group.order)
        vi = rng.randrange(group.order)
        a_b = bern_basis(spec, x, wi)
        b_b = bern_basis(spec, y, vi)
        lhs = bern_to_im(spec, mul_bernstein(spec, a_b, b_b))
        rhs = mul_im(spec, bern_to_im(spec, a_b), bern_to_im(spec, b_b))
        assert lhs == rhs


@pytest.mark.parametrize("datum", [A1, A2, C2])
def test_bernstein_oracle_cleared_denominators(datum):
    # the faster comparison (both sides premultiplied by one dominant
    # translation) must agree with the straight comparison
    from hecke_functor.bernstein import oracle_pair_check

    rng = random.Random(808)
    spec = HeckeSpec(datum)
    r = datum.rank
    xs = sorted(itertools.product(range(-2, 3), repeat=r))
    ys = [y for y in itertools.product(range(0, 3), repeat=r)
          if datum.is_dominant(y)]
    for _ in range(20):
        x, y = rng.choice(xs), rng.choice(ys)
        wi = rng.randrange(spec.weyl.order)
        vi = rng.randrange(spec.weyl.order)
        assert oracle_pair_check(spec, x, wi, y, vi)
    with pytest.raises(HeckeError):
        nondominant = tuple(-1 if i == 0 else 0 for i in range(r))
        oracle_pair_check(spec, xs[0], 0, nondominant, 0)


# ---------------------------------------------------------------------------
# graded algebra


def test_graded_cross_relation_a1():
    gspec = GradedSpec(A1)
    alpha = A1.roots[A1.simples[0]]
    f = gspec.linear_form(alpha)
    t_s = gspec.t_simple(0)
    lhs = graded_mul(gspec, gspec.basis(f), t_s) - \
        graded_mul(gspec, t_s, gspec.basis(gspec.act_poly(
            gspec.weyl.matrices[gspec.weyl.right_mult[0][0]], f)))
    # (alpha - s(alpha))/alpha = 2
    expected = gspec.basis(gspec.deformation(0) * Cyclo.rational(2))
    assert lhs == expected


def test_graded_group_algebra_at_r_zero():
    gspec = GradedSpec(A2)
    f = gspec.coordinate(0)
    t_s = gspec.t_simple(0)
    prod = graded_mul(gspec, t_s, gspec.basis(f))
    spec_r0 = prod.specialize_r_zero()
    s_mat = gspec.weyl.matrices[gspec.weyl.right_mult[0][0]]
    expected = graded_mul(gspec, gspec.basis(gspec.act_poly(s_mat, f)), t_s)
    assert spec_r0 == expected.specialize_r_zero() == expected


def test_graded_invariant_central():
    gspec = GradedSpec(A1)
    alpha = A1.roots[A1.simples[0]]
    f = gspec.linear_form(alpha) * gspec.linear_form(alpha)  # alpha^2 is W-invariant
    fe = gspec.basis(f)
    for gen in [gspec.t_simple(0), gspec.basis(gspec.coordinate(0))]:
        assert graded_mul(gspec, fe, gen) == graded_mul(gspec, gen, fe)


def test_graded_associativity_random():
    rng = random.Random(99)
    gspec = GradedSpec(A2)

    def rand_elt():
        out = GradedElement(gspec, {})
        for _ in range(rng.randint(1, 2)):
            wi = rng.randrange(gspec.weyl.order)
            poly = gspec.poly_constant(rng.randint(-2, 2))
            for _ in range(rng.randint(0, 2)):
                poly = poly * gspec.coordinate(rng.randrange(2))
            out = out + gspec.basis(poly, wi)
        return out

    # normal forms are well-defined: associativity on 100 randomized triples
    for _ in range(100):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert graded_mul(gspec, graded_mul(gspec, a, b), c) == \
            graded_mul(gspec, a, graded_mul(gspec, b, c))


def test_graded_semidirect_with_flip():
    datum, rgroup = _doubled_a1_with_flip()
    gspec = GradedSpec(datum, rgroup=rgroup)
    t_r = gspec.basis(None, 0, 1)
    f = gspec.coordinate(0)
    # T_r f T_r^-1 = r(f)
    lhs = graded_mul(gspec, graded_mul(gspec, t_r, gspec.basis(f)), t_r)
    assert lhs == gspec.basis(gspec.coordinate(1))


def test_graded_user_supplied_cocycle():
    datum, rgroup = _doubled_a1_with_flip()
    i = cyclo_root_of_unity(1, 4)
    one = Cyclo.rational(1)
    cocycle = {(0, 0): one, (0, 1): one, (1, 0): one, (1, 1): i}
    gspec = GradedSpec(datum, rgroup=rgroup, cocycle=cocycle)
    t_r = gspec.basis(None, 0, 1)
    sq = graded_mul(gspec, t_r, t_r)
    assert sq == gspec.unit().scale(i)
    # still associative with the twist in place and at r = 0 the cross
    # relation degenerates to plain substitution
    f = gspec.basis(gspec.coordinate(1))
    lhs = graded_mul(gspec, graded_mul(gspec, t_r, t_r), f)
    rhs = graded_mul(gspec, t_r, graded_mul(gspec, t_r, f))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# intermediate algebras


def test_intermediate_trivial_extension():
    spec = HeckeSpec(A1)
    inter = intermediate_algebra(spec, [il.identity(1)])
    assert inter.rank_multiplier == 1
    hom = hom_from_big(inter)
    assert hom.verify_on_generators()


def test_intermediate_flip_extension():
    datum, rgroup = _doubled_a1_with_flip()
    # trivial R-group, but the parameters must already be flip-invariant
    spec = HeckeSpec(datum, params={0: "z", 1: "z"})
    inter = intermediate_algebra(spec, rgroup)
    assert inter.rank_multiplier == 2
    hom = hom_from_big(inter)
    assert hom.verify_on_generators()
    # quadratic relation is preserved in the constructed algebra
    big = inter.big
    for j in range(2):
        n_s = big.n_simple(j)
        sq = mul_im(big, n_s, n_s)
        assert sq == big.unit() + n_s.scale(big.gen_deform[j])
    # module splits into [big : small] = 2 coset pieces
    mixed = big.basis((1, 0), 1, 0) + big.basis((0, 0), 0, 1)
    split = inter.module_decomposition(mixed)
    sizes = sorted(len(v.terms) for v in split.values())
    assert sizes == [1, 1]


def test_intermediate_cocycle_compatibility():
    datum, rgroup = _doubled_a1_with_flip()
    spec = HeckeSpec(datum, params={0: "z", 1: "z"})
    i = cyclo_root_of_unity(1, 4)
    one = Cyclo.rational(1)
    kappa_big = {(0, 0): one, (0, 1): one, (1, 0): one, (1, 1): i}
    inter = intermediate_algebra(spec, rgroup, kappa_big)
    assert inter.rank_multiplier == 2
    bad = {(0, 0): i, (0, 1): one, (1, 0): one, (1, 1): i}
    with pytest.raises(HeckeError):
        intermediate_algebra(spec, rgroup, bad)


# ---------------------------------------------------------------------------
# the R-group tables and conjugation against the matrix computation


def _nontrivial_rgroup_specs():
    datum, flip = _doubled_a1_with_flip()
    i = cyclo_root_of_unity(1, 4)
    one = Cyclo.rational(1)
    clifford = {(0, 0): one, (0, 1): one, (1, 0): one, (1, 1): i}
    small = HeckeSpec(datum, params={0: "z", 1: "z"})
    cyclic = [((0, 1, 0), (0, 0, 1), (1, 0, 0)), ((0, 0, 1), (1, 0, 0), (0, 1, 0))]
    swaps = [((0, 1, 0), (1, 0, 0), (0, 0, 1)), ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
             ((1, 0, 0), (0, 0, 1), (0, 1, 0))]
    return {
        "flip": HeckeSpec(datum, rgroup=flip),
        "Clifford cocycle": HeckeSpec(datum, rgroup=flip, cocycle=clifford),
        "intermediate_algebra": intermediate_algebra(small, flip, clifford).big,
        "S3 on three A1": HeckeSpec(direct_sum(A1, A1, A1),
                                    rgroup=[il.identity(3)] + cyclic + swaps),
    }


RGROUP_SPECS = _nontrivial_rgroup_specs()


def _matrix_conj(spec, gi, a):
    g = spec.rgroup[gi]
    ginv = il.inverse_unimodular(g)
    m = il.mat_mul(il.mat_mul(g, spec.weyl.matrices[a[1]]), ginv)
    return (tuple(il.mat_vec(g, a[0])), spec.weyl.index_of(m))


def _matrix_mul_im(spec, a, b):
    """mul_im with every R-group operation done on the matrices."""
    out = {}
    for (x, wi, gi), p in a.terms.items():
        for (y, vi, hi), q in b.terms.items():
            conj = _matrix_conj(spec, gi, (y, vi))
            tail_r = spec.r_index[tuple(map(tuple, il.mat_mul(spec.rgroup[gi],
                                                             spec.rgroup[hi])))]
            coeff = p * q * spec.cocycle[(gi, hi)]
            for (z, ui, _), c in _basis_mul_plain(spec, (x, wi), conj).items():
                key = (z, ui, tail_r)
                out[key] = out[key] + c * coeff if key in out else c * coeff
    return HeckeElement(spec, out)


def _random_rgroup_element(rng, spec):
    z = LaurentPoly.monomial(spec.zvars, spec.zvars[0])
    terms = {}
    for _ in range(rng.randint(1, 3)):
        x = tuple(rng.randint(-1, 1) for _ in range(spec.datum.rank))
        key = (x, rng.randrange(spec.weyl.order), rng.randrange(len(spec.rgroup)))
        terms[key] = z ** rng.randint(-1, 1) * rng.choice([1, -2, Fraction(1, 2)])
    return HeckeElement(spec, terms)


@pytest.mark.parametrize("name", sorted(RGROUP_SPECS))
def test_rgroup_tables_match_matrices(name):
    spec = RGROUP_SPECS[name]
    n = len(spec.rgroup)
    for i, j in itertools.product(range(n), repeat=2):
        product = il.mat_mul(spec.rgroup[i], spec.rgroup[j])
        assert spec.rgroup[spec.r_mul(i, j)] == tuple(map(tuple, product))
    for i in range(n):
        inverse = il.inverse_unimodular(spec.rgroup[i])
        assert spec.rgroup[spec.r_inv(i)] == tuple(map(tuple, inverse))
    vectors = list(itertools.product(range(-1, 2), repeat=spec.datum.rank))
    for gi in range(n):
        for wi in range(spec.weyl.order):
            for x in vectors:
                assert spec.conj_by_r(gi, (x, wi)) == _matrix_conj(spec, gi, (x, wi))


@pytest.mark.parametrize("name", sorted(RGROUP_SPECS))
def test_rgroup_products_match_matrix_computation(name):
    spec = RGROUP_SPECS[name]
    rng = random.Random(11)
    gens = [spec.n_r(i) for i in range(len(spec.rgroup))]
    gens += [spec.n_simple(j) for j in range(len(spec.datum.simples))]
    for _ in range(25):
        a, b = _random_rgroup_element(rng, spec), _random_rgroup_element(rng, spec)
        assert mul_im(spec, a, b) == _matrix_mul_im(spec, a, b)
    for a, b in itertools.product(gens, repeat=2):
        assert mul_im(spec, a, b) == _matrix_mul_im(spec, a, b)


@pytest.mark.parametrize("name,x_g", [("Clifford cocycle", (1, 0)),
                                      ("S3 on three A1", (1, 0, 0))])
def test_rgroup_ad_map_matches_matrix_computation(name, x_g):
    spec = RGROUP_SPECS[name]
    ad = ad_xg(spec, x_g)
    rng = random.Random(12)
    for _ in range(8):
        a, b = _random_rgroup_element(rng, spec), _random_rgroup_element(rng, spec)
        assert ad(_matrix_mul_im(spec, a, b)) == _matrix_mul_im(spec, ad(a), ad(b))


def _graded_rgroup_specs():
    datum, flip = _doubled_a1_with_flip()
    one = Cyclo.rational(1)
    clifford = {(0, 0): one, (0, 1): one, (1, 0): one, (1, 1): cyclo_root_of_unity(1, 4)}
    s3 = RGROUP_SPECS["S3 on three A1"].rgroup
    return {"flip": GradedSpec(datum, rgroup=flip),
            "Clifford cocycle": GradedSpec(datum, rgroup=flip, cocycle=clifford),
            "S3 on three A1": GradedSpec(direct_sum(A1, A1, A1), rgroup=s3)}


GRADED_RGROUP_SPECS = _graded_rgroup_specs()


def _matrix_graded_mul(spec, a, b):
    """graded_mul with gamma v gamma^-1 and the R-group product formed on
    the matrices."""
    from hecke_functor.hecke import _move_poly_left
    out = {}
    for (wi, gi), p in a.terms.items():
        for (vi, hi), q in b.terms.items():
            g = spec.rgroup[gi]
            moved = _move_poly_left(spec, wi, spec.act_poly(g, q))
            v_conj = spec.weyl.index_of(il.mat_mul(il.mat_mul(g, spec.weyl.matrices[vi]),
                                                   il.inverse_unimodular(g)))
            tail_r = spec.r_index[tuple(map(tuple, il.mat_mul(g, spec.rgroup[hi])))]
            for u, c in moved.items():
                key = (spec.weyl.mul(u, v_conj), tail_r)
                term = p * c * spec.cocycle[(gi, hi)]
                out[key] = out[key] + term if key in out else term
    return GradedElement(spec, out)


def _random_graded_element(rng, spec):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        poly = spec.poly_constant(rng.choice([1, -2, Fraction(1, 2)]))
        for _ in range(rng.randint(0, 2)):
            poly = poly * spec.coordinate(rng.randrange(spec.datum.rank))
        terms[(rng.randrange(spec.weyl.order), rng.randrange(len(spec.rgroup)))] = poly
    return GradedElement(spec, terms)


@pytest.mark.parametrize("name", sorted(GRADED_RGROUP_SPECS))
def test_graded_rgroup_products_match_matrix_computation(name):
    spec = GRADED_RGROUP_SPECS[name]
    rng = random.Random(13)
    gens = [spec.basis(None, 0, i) for i in range(len(spec.rgroup))]
    gens += [spec.t_simple(j) for j in range(len(spec.datum.simples))]
    gens += [spec.basis(spec.coordinate(i)) for i in range(spec.datum.rank)]
    for a, b in itertools.product(gens, repeat=2):
        assert graded_mul(spec, a, b) == _matrix_graded_mul(spec, a, b)
    for _ in range(25):
        a, b = _random_graded_element(rng, spec), _random_graded_element(rng, spec)
        assert graded_mul(spec, a, b) == _matrix_graded_mul(spec, a, b)


# ---------------------------------------------------------------------------
# R-group data both spec classes refuse


def _permutation_matrices(n):
    return [tuple(tuple(int(p[i] == j) for j in range(n)) for i in range(n))
            for p in itertools.permutations(range(n))]


def _bad_rgroups():
    datum, (ident, flip) = _doubled_a1_with_flip()
    one, zeta3 = Cyclo.rational(1), cyclo_root_of_unity(1, 3)
    return {
        # not a permutation of the simple roots; with no params given,
        # HeckeSpec used to raise StopIteration here
        "sign change": (datum, [ident, ((-1, 0), (0, 1))], None),
        "not closed": (datum, [ident, ((2, 0), (0, 1))], None),
        "no identity": (datum, [], None),
        "repeated element": (datum, [ident, flip, flip], None),
        "above the size guard": (direct_sum(A1, A1, A1, A1), _permutation_matrices(4), None),
        # fixes the root of A1 x GL1 but not its coroot, so it does not
        # conjugate the Weyl group into itself
        "moves the coroots": (direct_sum(A1, build_classical("GL", 1)),
                              [ident, ((1, 1), (0, -1))], None),
        "cocycle identity": (datum, [ident, flip],
                             {(0, 0): one, (0, 1): zeta3, (1, 0): one, (1, 1): one}),
        "incomplete cocycle": (datum, [ident, flip], {(0, 0): one, (1, 1): one}),
        "cocycle not normalized": (datum, [ident, flip],
                                   dict.fromkeys(itertools.product(range(2), repeat=2), -1)),
    }


BAD_RGROUPS = _bad_rgroups()


@pytest.mark.parametrize("case", sorted(BAD_RGROUPS))
def test_bad_rgroup_is_refused_by_both_specs(case):
    datum, rgroup, cocycle = BAD_RGROUPS[case]
    for cls in (HeckeSpec, GradedSpec):
        with pytest.raises(HeckeError):
            cls(datum, rgroup=rgroup, cocycle=cocycle)


# ---------------------------------------------------------------------------
# generators and their parameters, from the datum


def _generator_data():
    for family, ranks in (("A", (1, 2, 3)), ("B", (2, 3)), ("C", (2, 3)), ("D", (3,))):
        for n in ranks:
            for iso in ("sc", "ad"):
                yield f"{family}{n}{iso}", build_classical(family, n, iso)
    for n in (1, 2, 3):
        yield f"GL{n}", build_classical("GL", n)
    yield "A1ad+C2sc", direct_sum(A1AD, C2)


def _support(datum, root_idx):
    coeffs = datum.simple_root_coeffs(datum.roots[root_idx])
    return {datum.simples[j] for j, c in enumerate(coeffs) if c}


@pytest.mark.parametrize("name,datum", list(_generator_data()))
def test_generators_and_parameters_from_the_datum(name, datum):
    n_roots = len(datum.roots)
    even = [all(c % 2 == 0 for c in coroot) for coroot in datum.coroots]
    label_sets = [dict.fromkeys(range(n_roots), (1, 1))]
    if any(even):
        label_sets.append({i: (1, 2) if even[i] else (1, 1) for i in range(n_roots)})
    components = datum.components()
    for labels in label_sets:
        spec = HeckeSpec(datum, labels=labels)
        group = spec.weyl

        def reflection(i):
            alpha, alpha_v = datum.roots[i], datum.coroots[i]
            return group.index[tuple(tuple(int(a == b) - alpha[a] * alpha_v[b]
                                           for b in range(datum.rank))
                                     for a in range(datum.rank))]

        zero = (0,) * datum.rank
        gens = [(zero, reflection(i)) for i in datum.simples]
        roots = list(datum.simples)
        for comp in components:
            # the affine node t_theta s_theta of length 1, theta dominant
            nodes = [i for i in range(n_roots)
                     if _support(datum, i) and _support(datum, i) <= set(comp)
                     and datum.is_dominant(datum.roots[i])
                     and spec.key_length((datum.roots[i], reflection(i), 0)) == 1]
            assert len(nodes) == 1
            gens.append((datum.roots[nodes[0]], reflection(nodes[0])))
            roots.append(nodes[0])
        assert spec.all_gens == gens
        assert spec.simple_gens == gens[:len(datum.simples)]
        for pos, root in enumerate(roots):
            comp = next(c for c, members in enumerate(components)
                        if _support(datum, root) <= set(members))
            lam, lam_star = labels[root]
            affine = pos >= len(datum.simples)
            z = LaurentPoly.monomial(spec.zvars, spec.params[comp],
                                     lam_star if affine and even[root] else lam)
            assert spec.gen_zpoly[pos] == z
            assert spec.gen_deform[pos] == z - z ** -1


# ---------------------------------------------------------------------------
# the shared linear structure of the three element types and the
# reduced factorization of basis keys

HECKE_A1 = HeckeSpec(A1)
HECKE_A2 = HeckeSpec(A2)
GRADED_A2 = GradedSpec(A2)


def _polys(vars):
    exps = st.tuples(*[st.integers(-2, 2)] * len(vars))
    return st.dictionaries(exps, st.integers(-3, 3), max_size=3).map(
        lambda terms: LaurentPoly(vars, terms))


def _elements(cls, spec, keys, vars):
    return st.dictionaries(keys, _polys(vars), max_size=4).map(
        lambda terms: cls(spec, terms))


def _element_kinds(spec):
    """(strategy for elements, strategy for scalars) of each element type."""
    vecs = st.tuples(*[st.integers(-2, 2)] * spec.datum.rank)
    ws = st.integers(0, spec.weyl.order - 1)
    return {
        "hecke": (_elements(HeckeElement, spec,
                            st.tuples(vecs, ws, st.just(spec.r_identity)), spec.zvars),
                  _polys(spec.zvars)),
        "bernstein": (_elements(BernElement, spec, st.tuples(vecs, ws), spec.zvars),
                      _polys(spec.zvars)),
        "graded": (_elements(GradedElement, GRADED_A2, st.tuples(ws, st.just(0)),
                             GRADED_A2.vars),
                   _polys(GRADED_A2.vars)),
    }


ELEMENT_KINDS = _element_kinds(HECKE_A2)


@pytest.mark.parametrize("kind", sorted(ELEMENT_KINDS))
def test_combination_arithmetic(kind):
    elements, scalars = ELEMENT_KINDS[kind]

    @settings(max_examples=40, deadline=None)
    @given(elements, elements, st.one_of(scalars, st.integers(-3, 3)))
    def check(a, b, c):
        assert (a + b) - b == a
        assert (a + (-a)).is_zero()
        assert (a + b).scale(c) == a.scale(c) + b.scale(c)
        assert a * c == a.scale(c)
        assert c * a == a * c
        assert 2 * a == a * 2 == a + a
        copy = type(a)(a.spec, dict(a.terms))
        assert copy == a and hash(copy) == hash(a)
        assert hash((a + b) - b) == hash(a)

    check()


def test_combination_refuses_mixed_sums():
    for a, b in [(HECKE_A2.unit(), bern_basis(HECKE_A2, (0, 0), 0)),
                 (HECKE_A1.unit(), HeckeSpec(A1).unit()),
                 (GRADED_A2.unit(), GradedSpec(A2).unit())]:
        with pytest.raises(HeckeError):
            a + b
        with pytest.raises(HeckeError):
            b - a


@pytest.mark.parametrize("name", ["A2", "C2", "doubled A1 with flip"])
def test_factorize_rebuilds_every_short_key(name):
    if name == "doubled A1 with flip":
        datum, rgroup = _doubled_a1_with_flip()
        spec = HeckeSpec(datum, rgroup=rgroup)
    else:
        spec = HeckeSpec({"A2": A2, "C2": C2}[name])
    ident = spec.r_identity
    for key in all_keys_up_to_length(spec, 4):
        word, omega = spec.factorize(key)
        assert len(word) == spec.key_length((key[0], key[1], ident))
        assert spec.key_length((omega[0], omega[1], ident)) == 0
        rebuilt = omega
        for gen_pos in reversed(word):
            rebuilt = spec.key_mul_plain(spec.all_gens[gen_pos], rebuilt)
        assert rebuilt == key


# ---------------------------------------------------------------------------
# the per-key table against the two-length test


def _descent_specs():
    from hecke_functor.acceptance import _kernel_fixtures
    specs = {name: spec for spec, name in _kernel_fixtures()}
    specs.update(RGROUP_SPECS)
    return specs


DESCENT_SPECS = _descent_specs()


@pytest.mark.parametrize("name", sorted(DESCENT_SPECS))
def test_descent_table_matches_the_two_length_test(name):
    from hecke_functor.acceptance import _keys_up_to_length
    spec = DESCENT_SPECS[name]
    ident = spec.r_identity
    by_len = _keys_up_to_length(spec, 6)
    assert sorted(by_len) == list(range(7))
    for length, keys in by_len.items():
        for a in keys:
            # the first generator s, in all_gens order, with l(s a) < l(a),
            # s a formed by the matrix product
            expected = (length, None, None)
            for gen_pos, gen in enumerate(spec.all_gens):
                sa = spec.key_mul_plain(gen, a)
                if spec.key_length((sa[0], sa[1], ident)) < length:
                    expected = (length, gen_pos, sa)
                    break
            assert spec.key_info(a) == expected
            if length:
                assert spec.key_length((sa[0], sa[1], ident)) == length - 1


@pytest.mark.parametrize("name", ["A2", "C2"])
def test_right_multiplication_by_a_generator_matches_the_matrix(name):
    spec = HeckeSpec({"A2": A2, "C2": C2}[name])
    for a in all_keys_up_to_length(spec, 3):
        for gen_pos, gen in enumerate(spec.all_gens):
            assert spec.key_mul_gen(a, gen_pos) == spec.key_mul_plain(a, gen)


def test_basis_product_is_the_product_of_basis_elements():
    spec = HeckeSpec(C2, labels=2)
    keys = all_keys_up_to_length(spec, 2)
    for a, b in itertools.product(keys, repeat=2):
        product = basis_product(spec, a, b)
        assert isinstance(product, HeckeElement)
        assert product == mul_im(spec, spec.basis(*a), spec.basis(*b))


# ---------------------------------------------------------------------------
# theta by peeling N_{t_D}^-1 against the inverse-element construction


def _n_inverse_by_mul_im(spec, key, inverses):
    """N_key^-1 as an element, one mul_im per inverse generator, memoised in
    inverses."""
    got = inverses.get(key)
    if got is None:
        word, omega = spec.factorize(key)
        got = spec.basis(*spec.key_inv_plain(omega))
        for gen_pos in reversed(word):
            n_g = spec.basis(*spec.all_gens[gen_pos])
            got = mul_im(spec, got, n_g - spec.unit().scale(spec.gen_deform[gen_pos]))
        inverses[key] = got
    return got


def _theta_by_inverse_elements(spec, x, inverses):
    """theta_x built one coordinate step at a time: theta_{+-e_i} is
    N_{t_{+-e_i + D}} times the element N_{t_D}^-1 for the least dominant
    shift D of +-e_i."""
    rank = spec.datum.rank
    out = spec.unit()
    for i, v in enumerate(x):
        e = tuple((1 if v > 0 else -1) if j == i else 0 for j in range(rank))
        shift = _dominant_shift(spec, [e])
        step = mul_im(spec, spec.basis(tuple(a + b for a, b in zip(e, shift)), 0),
                      _n_inverse_by_mul_im(spec, (shift, 0), inverses))
        for _ in range(abs(v)):
            out = mul_im(spec, out, step)
    return out


def _theta_oracle_specs():
    datum, flip = _doubled_a1_with_flip()
    b2ad = build_classical("B", 2, "ad")
    c2ad = build_classical("C", 2, "ad")
    a2ad = build_classical("A", 2, "ad")
    specs = {
        "A1 sc": HeckeSpec(A1), "A1 ad": HeckeSpec(A1AD),
        "A2 sc": HeckeSpec(A2), "A2 ad": HeckeSpec(a2ad),
        "A2 ad label 2": HeckeSpec(a2ad, labels=2), "B2 ad": HeckeSpec(b2ad),
        "C2 sc": HeckeSpec(C2), "C2 sc label 2": HeckeSpec(C2, labels=2),
        "C2 ad": HeckeSpec(c2ad), "C2 ad label 2": HeckeSpec(c2ad, labels=2),
        "GL2": HeckeSpec(build_classical("GL", 2)),
        "A1 + A1 with the flip": HeckeSpec(datum, rgroup=flip),
        "A1 + A1, two parameters": HeckeSpec(datum),
    }
    # the points compared: [-1, 1]^r on the direct sums, [-2, 2]^r elsewhere
    return {name: (spec, 1 if "+" in name else 2) for name, spec in specs.items()}


THETA_ORACLE_SPECS = _theta_oracle_specs()


@pytest.mark.parametrize("name", sorted(THETA_ORACLE_SPECS))
def test_theta_matches_the_inverse_element_construction(name):
    spec, bound = THETA_ORACLE_SPECS[name]
    if "two parameters" in name:
        assert spec.zvars == ("z1", "z2")
    inverses = {}
    for x in itertools.product(range(-bound, bound + 1), repeat=spec.datum.rank):
        assert theta(spec, x) == _theta_by_inverse_elements(spec, x, inverses), x


# classical data of rank <= 3 in both isogenies, B3 ad among them: there the
# inverse-element construction of theta ran for minutes
THETA_PROPERTY_DATA = sorted(
    [(family, n, isogeny) for family, n in [("A", 1), ("A", 2), ("A", 3), ("B", 2),
                                            ("B", 3), ("C", 2), ("C", 3)]
     for isogeny in ("sc", "ad")] + [("GL", 2, None), ("GL", 3, None)])


@functools.cache
def _property_spec(key):
    return HeckeSpec(build_classical(*key))


@st.composite
def _datum_and_points(draw, count):
    """A datum and count lattice points: coordinates in [-2, 2] in rank <= 2;
    in rank 3, where the products of two thetas grow fast, 0 or +-e_i."""
    key = draw(st.sampled_from(THETA_PROPERTY_DATA))
    rank = key[1]
    if rank <= 2:
        point = st.tuples(*[st.integers(-2, 2)] * rank)
    else:
        point = st.sampled_from([(0,) * rank] + [
            tuple(sign if j == i else 0 for j in range(rank))
            for i in range(rank) for sign in (1, -1)])
    return key, [draw(point) for _ in range(count)]


@settings(max_examples=40, deadline=None)
@given(_datum_and_points(2))
@example((("B", 3, "ad"), [(0, 1, 0), (-1, 0, 0)]))
@example((("C", 3, "ad"), [(0, 0, -1), (0, -1, 0)]))
def test_theta_is_additive(case):
    key, (x, y) = case
    spec = _property_spec(key)
    xy = tuple(a + b for a, b in zip(x, y))
    assert mul_im(spec, theta(spec, x), theta(spec, y)) == theta(spec, xy)


@settings(max_examples=40, deadline=None)
@given(_datum_and_points(1))
@example((("B", 3, "ad"), [(0, -1, 0)]))
def test_theta_of_minus_x_is_the_inverse(case):
    key, (x,) = case
    spec = _property_spec(key)
    minus = tuple(-v for v in x)
    assert mul_im(spec, theta(spec, x), theta(spec, minus)) == spec.unit()


@settings(max_examples=40, deadline=None)
@given(_datum_and_points(1))
@example((("B", 3, "ad"), [(0, -1, 1)]))
def test_theta_of_a_dominant_point_is_its_translation(case):
    key, (x,) = case
    spec = _property_spec(key)
    dominant = tuple(a + b for a, b in zip(x, _dominant_shift(spec, [x])))
    assert spec.datum.is_dominant(dominant)
    assert theta(spec, dominant) == spec.basis(dominant, 0)
