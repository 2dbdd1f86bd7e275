import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hecke_functor import numkernel
from hecke_functor.numkernel import (
    CONDUCTOR_GUARD, Cyclo, LaurentPoly, cyclo_root_of_unity, laurent_eval,
)


def test_root_of_unity_identity_cases():
    assert cyclo_root_of_unity(0, 5) == Cyclo.rational(1)
    assert cyclo_root_of_unity(5, 5) == Cyclo.rational(1)
    assert cyclo_root_of_unity(12, 4) == Cyclo.rational(1)


def test_i_squared_is_minus_one():
    # oracle: reduce x^2 modulo x^2 + 1 by hand -> -1
    i = cyclo_root_of_unity(1, 4)
    assert i * i == Cyclo.rational(-1)
    assert (i * i).is_rational()


def test_conductor_minimization():
    # zeta_6^2 = zeta_3, so the canonical conductor drops to 3
    z = cyclo_root_of_unity(2, 6)
    assert z.n == 3
    assert z == cyclo_root_of_unity(1, 3)
    # zeta_2 = -1 is rational
    assert cyclo_root_of_unity(1, 2) == Cyclo.rational(-1)
    # sums of all n-th roots of unity vanish
    for n in (2, 3, 4, 5, 6, 8, 12):
        total = Cyclo(0)
        for a in range(n):
            total = total + cyclo_root_of_unity(a, n)
        assert total.is_zero()


def test_minimal_conductor_is_stable():
    # canonical form never stores an even-to-odd reducible conductor
    z = cyclo_root_of_unity(1, 6)  # = -zeta_3^2, conductor 3 by convention n odd?
    # Q(zeta_6) = Q(zeta_3); the power basis of conductor 3 must be used
    assert z.n == 3


def _random_cyclo(rng):
    n = rng.choice([1, 1, 2, 3, 4, 5, 6, 8, 12])
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        coeffs[rng.randrange(n)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    total = Cyclo(0)
    for k, v in coeffs.items():
        total = total + cyclo_root_of_unity(k, n) * Cyclo.rational(v)
    return total


def test_field_axioms_random():
    rng = random.Random(20231)
    for _ in range(120):
        a, b, c = (_random_cyclo(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inverse() == Cyclo.rational(1)
            assert (a / a) == Cyclo.rational(1)


def test_inverse_of_golden_style_element():
    # an element with several terms in a degree-4 field
    z = cyclo_root_of_unity(1, 5)
    a = Cyclo.rational(1) + z + z * z
    assert a * a.inverse() == Cyclo.rational(1)


def test_conjugation():
    z = cyclo_root_of_unity(1, 7)
    assert z.conj() == cyclo_root_of_unity(6, 7)
    a = z + Cyclo.rational(Fraction(1, 2))
    assert (a * a.conj()).conj() == a * a.conj()


def test_as_root_of_unity():
    assert cyclo_root_of_unity(3, 8).as_root_of_unity() == (3, 8)
    assert Cyclo.rational(1).as_root_of_unity() == (0, 1)
    assert Cyclo.rational(-1).as_root_of_unity() == (1, 2)
    minus_i = -cyclo_root_of_unity(1, 4)
    a, n = minus_i.as_root_of_unity()
    assert cyclo_root_of_unity(a, n) == minus_i
    with pytest.raises(ValueError):
        Cyclo.rational(2).as_root_of_unity()


def test_cyclo_json_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        a = _random_cyclo(rng)
        assert Cyclo.from_json(a.to_json()) == a


def test_cyclo_json_conductor_guard():
    for n in (0, -1, CONDUCTOR_GUARD + 1):
        with pytest.raises(ValueError):
            Cyclo.from_json({"n": n, "coeffs": [[1, "1"]]})


def _phi(n):
    """Euler's totient."""
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _reference_rewrite(n, coeffs, m):
    """The element of Q(zeta_n) in the power basis of Q(zeta_m), or None, by
    solving the linear system: the columns are zeta_m^j = zeta_n^(j n/m)
    reduced modulo Phi_n, the right-hand side is the element."""
    phi_n, phi_m = _phi(n), _phi(m)
    mod = numkernel._cyclotomic_poly(n)
    cols = [numkernel._poly_rem({j * (n // m): Fraction(1)}, mod) for j in range(phi_m)]
    aug = [[col.get(i, Fraction(0)) for col in cols] + [coeffs.get(i, Fraction(0))]
           for i in range(phi_n)]
    pivots, r = [], 0
    for c in range(phi_m):
        pr = next((i for i in range(r, phi_n) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        aug[r] = [a / aug[r][c] for a in aug[r]]
        for i in range(phi_n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    if any(aug[i][phi_m] for i in range(r, phi_n)):
        return None
    return {c: aug[i][phi_m] for i, c in enumerate(pivots) if aug[i][phi_m]}


def test_subfield_rewrite_matches_the_linear_solve():
    # every conductor below 120 and each prime p | n, with an element of the
    # subfield Q(zeta_{n/p}) and a random element of Q(zeta_n)
    rng = random.Random(1)
    inside = outside = 0
    for n in range(2, 120):
        for p in numkernel._prime_divisors(n):
            m = n // p
            sub = {j * p: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                   for j in range(_phi(m))}
            generic = {i: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                       for i in range(_phi(n)) if rng.random() < 0.5}
            for raw in (sub, generic):
                coeffs = numkernel._poly_rem({k: v for k, v in raw.items() if v},
                                             numkernel._cyclotomic_poly(n))
                expect = _reference_rewrite(n, coeffs, m)
                assert numkernel._rewrite_in_subfield(n, coeffs, m) == expect, (n, m, coeffs)
                inside += expect is not None
                outside += expect is None
    assert inside > 200 and outside > 100


@pytest.mark.parametrize("n", [990, 998, 1000])
def test_decoding_near_the_conductor_guard_is_fast(n):
    # a generic element and one that lies in a proper subfield, cold: the
    # cyclotomic polynomials are computed inside the timed call
    generic = {"n": n, "coeffs": [[k, f"{k % 7 - 3}/{k % 5 + 1}"] for k in range(0, n, 3)]}
    in_subfield = {"n": n, "coeffs": [[2 * k, "1"] for k in range(0, n // 2, 5)]}
    for data in (generic, in_subfield):
        numkernel._cyclotomic_poly.cache_clear()
        start = time.perf_counter()
        value = Cyclo.from_json(data)
        assert time.perf_counter() - start < 1.0
        assert Cyclo.from_json(value.to_json()) == value


def test_roots_of_unity_are_memoised_on_the_reduced_exponent():
    cache = numkernel._root_of_unity
    for n in range(1, 40):
        for a in range(-n, 2 * n):
            z = cyclo_root_of_unity(a, n)
            assert z == cache.__wrapped__(a % n, n)
            assert cyclo_root_of_unity(a + 5 * n, n) is z
    info = cache.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize
    with pytest.raises(ValueError):
        cyclo_root_of_unity(1, 0)


# ---------------------------------------------------------------------------
# LaurentPoly


def _z():
    return LaurentPoly.monomial(("z",), "z")


def test_laurent_eval_cancellation():
    z = _z()
    p = z - z ** -1
    assert laurent_eval(p, {"z": Cyclo.rational(1)}).is_zero()


def test_laurent_eval_at_i():
    # oracle: zeta_4 - zeta_4^{-1} = i - (-i) = 2i
    z = _z()
    p = z - z ** -1
    i = cyclo_root_of_unity(1, 4)
    assert laurent_eval(p, {"z": i}) == Cyclo.rational(2) * i


def test_laurent_eval_constant():
    c = LaurentPoly.constant(("z",), Fraction(7, 3))
    assert laurent_eval(c, {"z": cyclo_root_of_unity(1, 3)}) == Cyclo.rational(Fraction(7, 3))


def test_laurent_eval_errors():
    z = _z()
    with pytest.raises(KeyError):
        laurent_eval(z, {})
    with pytest.raises(ZeroDivisionError):
        laurent_eval(z ** -1, {"z": Cyclo.rational(0)})


def _random_laurent(rng, vars=("z", "w")):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        e = tuple(rng.randint(-2, 2) for _ in vars)
        terms[e] = Cyclo.rational(Fraction(rng.randint(-3, 3)))
    return LaurentPoly(vars, terms)


def test_laurent_ring_axioms_random():
    rng = random.Random(99)
    for _ in range(100):
        a, b, c = (_random_laurent(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
    one = LaurentPoly.constant(("z", "w"), 1)
    a = _random_laurent(rng)
    assert a * one == a


def test_laurent_json_round_trip():
    rng = random.Random(5)
    for _ in range(10):
        a = _random_laurent(rng)
        assert LaurentPoly.from_json(a.to_json()) == a


# ---------------------------------------------------------------------------
# LaurentPoly against a naive dict-of-Cyclo reference

_CONDUCTORS = (3, 4, 8, 12)


def _cyclo_values():
    """Rationals, and sums of roots of unity of conductor 3, 4, 8 or 12 with
    small rational weights (some of which collapse to rationals)."""
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    roots = st.builds(lambda n, parts: sum(
        (cyclo_root_of_unity(k, n) * q for k, q in parts), Cyclo.rational(0)),
        st.sampled_from(_CONDUCTORS),
        st.lists(st.tuples(st.integers(0, 23), rationals), max_size=3))
    return st.one_of(rationals.map(Cyclo.rational), roots)


def _ref_terms(vars):
    exps = st.tuples(*[st.integers(-2, 2)] * len(vars))
    return st.dictionaries(exps, _cyclo_values(), max_size=4)


def _as_cyclo(c):
    return c if isinstance(c, Cyclo) else Cyclo.rational(c)


def _ref_clean(terms):
    return {e: c for e, c in terms.items() if not c.is_zero()}


def _ref_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out[e] + c if e in out else c
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return _ref_clean(out)


def _matches(poly, ref):
    """poly holds exactly the reference's terms, in stored form."""
    for c in poly.terms.values():
        assert type(c) in (int, Fraction) or (type(c) is Cyclo and c.n > 1)
        assert c != 0
    return {e: _as_cyclo(c) for e, c in poly.terms.items()} == _ref_clean(ref)


@pytest.mark.parametrize("vars", [("z",), ("z", "w")])
def test_laurent_matches_dict_of_cyclo_reference(vars):
    @settings(max_examples=60, deadline=None)
    @given(_ref_terms(vars), _ref_terms(vars), _cyclo_values())
    def check(ta, tb, c):
        a, b = LaurentPoly(vars, ta), LaurentPoly(vars, tb)
        assert _matches(a, ta) and _matches(b, tb)
        assert _matches(a + b, _ref_add(ta, tb))
        assert _matches(a - b, _ref_add(ta, {e: -v for e, v in tb.items()}))
        assert _matches(-a, {e: -v for e, v in ta.items()})
        assert _matches(a * b, _ref_mul(ta, tb))
        scaled = {e: v * c for e, v in ta.items()}
        assert _matches(a.scale(c), scaled)
        assert _matches(a * c, scaled) and _matches(c * a, scaled)
        rational = c.rational_value() if c.is_rational() else None
        if rational is not None:
            assert _matches(a * rational, scaled) and _matches(rational * a, scaled)
        # equality and hashing are structural: a polynomial built another way
        # from the same value is equal and hashes alike
        again = LaurentPoly(vars, _ref_add(ta, {}))
        assert again == a and hash(again) == hash(a)
        total = (a + b) - b
        assert total == a and hash(total) == hash(a)
        assert (a == b) == (_ref_clean(ta) == _ref_clean(tb))
        # the JSON form is the reference's, coefficient by coefficient
        form = a.to_json()
        assert form == {"vars": list(vars),
                        "terms": [[list(e), v.to_json()]
                                  for e, v in sorted(_ref_clean(ta).items())]}
        back = LaurentPoly.from_json(form)
        assert back == a and hash(back) == hash(a)

    check()


def test_laurent_repr_and_json_of_rationals():
    z = _z()
    p = (z - z ** -1) * Fraction(1, 2) + 3
    assert repr(p) == ("LaurentPoly((Cyclo(-1/2))*z^-1 + (Cyclo(3))*1 + "
                       "(Cyclo(1/2))*z^1)")
    assert LaurentPoly.constant(("z",), 1).to_json() == {
        "vars": ["z"], "terms": [[[0], {"n": 1, "coeffs": [[0, "1"]]}]]}
    assert (p * 2).terms[(1,)] == 1


def test_laurent_foreign_operand_is_not_implemented():
    z = _z()
    for op in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"):
        assert getattr(z, op)("x") is NotImplemented
    with pytest.raises(TypeError):
        z * "x"
    with pytest.raises(ValueError):
        z + LaurentPoly.monomial(("w",), "w")


@pytest.mark.parametrize("data", [
    5,
    {"vars": "z", "terms": []},
    {"vars": ["z", "z"], "terms": []},
    {"vars": ["z"], "terms": 5},
    {"vars": ["z"], "terms": [[0, {"n": 1, "coeffs": [[0, "1"]]}]]},
    {"vars": ["z"], "terms": [[[0, 1], {"n": 1, "coeffs": [[0, "1"]]}]]},
    {"vars": ["z"], "terms": [[["0"], {"n": 1, "coeffs": [[0, "1"]]}]]},
    {"vars": ["z"], "terms": [[[0], 1]]},
    {"vars": ["z"], "terms": [[[0], {"n": 0, "coeffs": []}]]},
    {"vars": ["z"], "terms": [[[0], {"n": 1, "coeffs": [[0, 1.5]]}]]},
    {"vars": ["z"], "terms": [[[0], {"n": 1, "coeffs": [[0, "x"]]}]]},
    {"vars": ["z"], "terms": [[[0], {"n": 1, "coeffs": [[0, "1/0"]]}]]},
])
def test_laurent_from_json_refuses_malformed(data):
    with pytest.raises(ValueError):
        LaurentPoly.from_json(data)
