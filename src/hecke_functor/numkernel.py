"""
Exact scalar arithmetic shared by every other module.

Two kinds of scalars live here:

* `Cyclo` -- elements of cyclotomic fields Q(zeta_n), stored in the power
  basis 1, zeta, ..., zeta^(phi(n)-1) modulo the n-th cyclotomic polynomial,
  with `fractions.Fraction` coefficients.  The stored conductor is always
  minimal: a value that happens to lie in a smaller cyclotomic field is
  rewritten there, so equality is plain structural equality.

* `LaurentPoly` -- Laurent polynomials in a fixed ordered tuple of named
  invertible parameters.  A rational coefficient is stored as a plain `int`
  (or a `Fraction` when it is not integral) and only an irrational one as a
  `Cyclo`; every operation puts its result in this form.  The Hecke-algebra
  structure constants lie in Z[z, z^-1], so the kernel's products and sums
  run on Python ints and never build a `Cyclo`.

No floating point is used anywhere.

>>> i = cyclo_root_of_unity(1, 4)
>>> i * i
Cyclo(-1)
>>> (i - i**-1) == Cyclo.rational(2) * i
True
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add
from typing import Iterable, Mapping

from . import decode as dc

__all__ = [
    "Cyclo",
    "LaurentPoly",
    "cyclo_root_of_unity",
    "laurent_eval",
]


# The largest conductor a JSON coefficient may carry.  Desk-scale objects stay
# far below it (group exponents <= 64, ranks <= 8).  Decoding costs grow
# faster than linearly in the conductor: a 330-term coefficient of conductor
# 990, 998 or 1000 takes 0.01-0.07 s to decode cold (Python 3.11, 2-vCPU VM).
CONDUCTOR_GUARD = 1000


# ---------------------------------------------------------------------------
# integer / polynomial helpers

@lru_cache(maxsize=None)
def _prime_divisors(n: int) -> tuple[int, ...]:
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        out.append(m)
    return tuple(out)


@lru_cache(maxsize=None)
def _cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficient tuple of the n-th cyclotomic polynomial, low degree first.

    >>> _cyclotomic_poly(1)
    (-1, 1)
    >>> _cyclotomic_poly(4)
    (1, 0, 1)
    >>> _cyclotomic_poly(6)
    (1, -1, 1)
    """
    # x^n - 1 divided by the cyclotomic polynomials of the proper divisors.
    poly = [0] * (n + 1)
    poly[0] = -1
    poly[n] = 1
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_poly_div(poly, list(_cyclotomic_poly(d)))
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


def _exact_poly_div(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (low degree first)."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for shift in range(len(num) - len(den), -1, -1):
        c = num[shift + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("non-exact polynomial division")
        q = c // den[-1]
        out[shift] = q
        if q:
            for i, d in enumerate(den):
                num[shift + i] -= q * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return out


def _poly_rem(coeffs: dict[int, Fraction], modulus: tuple[int, ...]) -> dict[int, Fraction]:
    """Remainder of a Fraction polynomial (sparse dict) modulo a monic integer polynomial."""
    deg_mod = len(modulus) - 1
    dense_deg = max(coeffs, default=0)
    if dense_deg < deg_mod:
        return {k: v for k, v in coeffs.items() if v}
    # integer numerators over one common denominator, and only the nonzero
    # terms of the modulus: most cyclotomic polynomials are sparse
    den = lcm(*(v.denominator for v in coeffs.values()))
    dense = [0] * (dense_deg + 1)
    for k, v in coeffs.items():
        dense[k] = v.numerator * (den // v.denominator)
    low = [(i - deg_mod, c) for i, c in enumerate(modulus[:deg_mod]) if c]
    for d in range(dense_deg, deg_mod - 1, -1):
        c = dense[d]
        if c:
            dense[d] = 0
            for i, m in low:
                dense[d + i] -= c * m
    return {k: Fraction(v, den) for k, v in enumerate(dense[:deg_mod]) if v}


# ---------------------------------------------------------------------------
# Cyclo

_FR0 = Fraction(0)
_FR1 = Fraction(1)


class Cyclo:
    """An element of a cyclotomic field, always in canonical (minimal conductor) form.

    Immutable; arithmetic returns new values.  Rationals are the conductor-1
    case and take a fast path throughout.
    """

    __slots__ = ("n", "coeffs", "_hash")

    def __init__(self, value: int | Fraction = 0):
        q = value if type(value) is Fraction else Fraction(value)
        object.__setattr__(self, "n", 1)
        object.__setattr__(self, "coeffs", {0: q} if q else {})
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Cyclo is immutable")

    # -- construction ------------------------------------------------------

    @staticmethod
    def rational(value: int | Fraction) -> "Cyclo":
        return Cyclo(value)

    @staticmethod
    def _raw(n: int, coeffs: dict[int, Fraction]) -> "Cyclo":
        """Build from reduced data without canonicalizing.  Internal."""
        self = object.__new__(Cyclo)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "_hash", None)
        return self

    @staticmethod
    def _make(n: int, coeffs: Mapping[int, Fraction]) -> "Cyclo":
        """Build from exponent data (exponents arbitrary ints), canonicalize."""
        if n < 1:
            raise ValueError("conductor must be positive")
        folded: dict[int, Fraction] = {}
        for k, v in coeffs.items():
            if v:
                k %= n
                folded[k] = folded.get(k, Fraction(0)) + v
        reduced = _poly_rem(folded, _cyclotomic_poly(n)) if n > 1 else {
            k: v for k, v in folded.items() if v}
        return Cyclo._raw(n, reduced)._canonicalized()

    def _canonicalized(self) -> "Cyclo":
        n, coeffs = self.n, self.coeffs
        if not coeffs:
            return Cyclo._raw(1, {})
        changed = True
        while changed and n > 1:
            changed = False
            for p in _prime_divisors(n):
                m = n // p
                sol = _rewrite_in_subfield(n, coeffs, m)
                if sol is not None:
                    n, coeffs = m, sol
                    changed = True
                    break
        return Cyclo._raw(n, coeffs)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        return self.n == 1

    def rational_value(self) -> Fraction:
        if self.n != 1:
            raise ValueError(f"not rational: {self!r}")
        return self.coeffs.get(0, _FR0)

    def as_root_of_unity(self) -> tuple[int, int]:
        """Return (a, n) with self == zeta_n^a, or raise ValueError.

        >>> cyclo_root_of_unity(5, 3).as_root_of_unity()
        (2, 3)
        >>> Cyclo.rational(-1).as_root_of_unity()
        (1, 2)
        """
        if self.n == 1:
            v = self.rational_value()
            if v == 1:
                return (0, 1)
            if v == -1:
                return (1, 2)
            raise ValueError(f"not a root of unity: {self!r}")
        # a root of unity in Q(zeta_n) is +- zeta_n^k
        for k in range(self.n):
            z = cyclo_root_of_unity(k, self.n)
            if self == z:
                return (k % self.n, self.n)
            if self == -z:
                a, m = k, self.n
                # -zeta_n^a = zeta_{2n}^{n + 2a} when n odd handled by _make
                num, den = 2 * a + m, 2 * m
                g = gcd(num % den, den) if num % den else den
                return ((num % den) // g, den // g)
        raise ValueError(f"not a root of unity: {self!r}")

    # -- arithmetic --------------------------------------------------------

    def _lift(self, m: int) -> dict[int, Fraction]:
        """Coefficients of self rewritten with conductor m (n | m), reduced."""
        if self.n == m:
            return self.coeffs
        step = m // self.n
        return _poly_rem({k * step: v for k, v in self.coeffs.items()},
                         _cyclotomic_poly(m)) if m > 1 else dict(self.coeffs)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1 and other.n == 1:
            q = self.coeffs.get(0, _FR0) + other.coeffs.get(0, _FR0)
            return Cyclo._raw(1, {0: q} if q else {})
        m = self.n * other.n // gcd(self.n, other.n)
        a, b = self._lift(m), other._lift(m)
        out = dict(a)
        for k, v in b.items():
            s = out.get(k, Fraction(0)) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Cyclo._raw(m, out)._canonicalized()

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Cyclo._raw(self.n, {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.n == 1 and other.n == 1:
            a = self.coeffs.get(0)
            b = other.coeffs.get(0)
            if a is None or b is None:
                return _CYCLO_ZERO
            return Cyclo._raw(1, {0: a * b})
        if self.n == 1:
            q = self.rational_value()
            if not q:
                return Cyclo(0)
            return Cyclo._raw(other.n, {k: q * v for k, v in other.coeffs.items()})
        if other.n == 1:
            return other.__mul__(self)
        m = self.n * other.n // gcd(self.n, other.n)
        a, b = self._lift(m), other._lift(m)
        prod: dict[int, Fraction] = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                k = ka + kb
                s = prod.get(k, Fraction(0)) + va * vb
                if s:
                    prod[k] = s
                else:
                    prod.pop(k, None)
        return Cyclo._raw(m, _poly_rem(prod, _cyclotomic_poly(m)))._canonicalized()

    def __rmul__(self, other):
        return self.__mul__(other)

    def inverse(self) -> "Cyclo":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.n == 1:
            return Cyclo(1 / self.rational_value())
        # extended Euclid: u * self + v * Phi_n = 1 in Q[x]
        mod = [Fraction(c) for c in _cyclotomic_poly(self.n)]
        deg = max(self.coeffs)
        a = [self.coeffs.get(i, Fraction(0)) for i in range(deg + 1)]
        u_a, u_b = [Fraction(1)], [Fraction(0)]
        b = mod
        while any(b):
            q, r = _frac_poly_divmod(a, b)
            a, b = b, r
            u_a, u_b = u_b, _frac_poly_sub(u_a, _frac_poly_mul(q, u_b))
        # a is now the gcd (a nonzero constant, since Phi_n is irreducible)
        if len([c for c in a if c]) == 0:
            raise ZeroDivisionError("inverse of zero")
        const = a[0]
        inv = {i: c / const for i, c in enumerate(u_a) if c}
        return Cyclo._make(self.n, inv)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k == 0:
            return Cyclo(1)
        base = self if k > 0 else self.inverse()
        out = Cyclo(1)
        for _ in range(abs(k)):
            out = out * base
        return out

    def conj(self) -> "Cyclo":
        """Complex conjugation (the Galois map zeta -> zeta^-1)."""
        if self.n == 1:
            return self
        return Cyclo._make(self.n, {-k % self.n: v for k, v in self.coeffs.items()})

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.n, tuple(sorted(self.coeffs.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        if self.n == 1:
            return f"Cyclo({self.rational_value()})"
        parts = []
        for k in sorted(self.coeffs):
            v = self.coeffs[k]
            term = f"z{self.n}^{k}" if k else "1"
            parts.append(f"{v}*{term}")
        return "Cyclo(" + " + ".join(parts) + ")"

    # -- json ----------------------------------------------------------------

    def to_json(self):
        return {"n": self.n,
                "coeffs": [[k, str(v)] for k, v in sorted(self.coeffs.items())]}

    @staticmethod
    def from_json(data) -> "Cyclo":
        """Decode the form `to_json` writes; ValueError on any other shape."""
        if not (dc.obj(data, "coeffs") and type(data.get("n")) is int
                and all(dc.pair(kv) and type(kv[0]) is int and type(kv[1]) in (int, str)
                        for kv in data["coeffs"])):
            raise ValueError('a coefficient is an object {"n": conductor, '
                             '"coeffs": [[power, "p/q"], ...]}')
        n = data["n"]
        if not 1 <= n <= CONDUCTOR_GUARD:
            raise ValueError(f"conductor {n} outside 1..{CONDUCTOR_GUARD}")
        try:
            return Cyclo._make(n, {k: Fraction(v) for k, v in data["coeffs"]})
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in the coefficient {data!r}") from None


_CYCLO_ZERO = Cyclo(0)


def _coerce(value) -> "Cyclo":
    if isinstance(value, Cyclo):
        return value
    if isinstance(value, (int, Fraction)):
        return Cyclo(value)
    return NotImplemented


def _rewrite_in_subfield(n: int, coeffs: dict[int, Fraction], m: int) -> dict[int, Fraction] | None:
    """Express an element of Q(zeta_n), reduced modulo Phi_n, in the power basis
    of Q(zeta_m), where p = n / m is prime; None if it does not lie there.

    With zeta_m = zeta_n^p no linear system is needed:

    * p | m: Phi_n(x) = Phi_m(x^p), so 1, zeta_n, ..., zeta_n^(p-1) is a basis
      of Q(zeta_n) over Q(zeta_m) and the element lies in Q(zeta_m) exactly
      when every exponent is divisible by p.
    * otherwise zeta_n^i = zeta_m^a zeta_p^b with a = i p^-1 mod m and
      b = i m^-1 mod p.  Gathering the terms by b writes the element as
      sum_b B_b zeta_p^b with B_b in Q(zeta_m); since 1, zeta_p, ...,
      zeta_p^(p-2) is a basis over Q(zeta_m) and the p-th roots of unity sum
      to zero, it lies in Q(zeta_m) exactly when B_1 = ... = B_(p-1), and then
      it is B_0 - B_1.

    >>> _rewrite_in_subfield(6, {1: Fraction(1)}, 3)   # zeta_6 = -zeta_3^2 = 1 + zeta_3
    {0: Fraction(1, 1), 1: Fraction(1, 1)}
    >>> _rewrite_in_subfield(9, {1: Fraction(1)}, 3) is None
    True
    """
    p = n // m
    if m % p == 0:
        if any(i % p for i in coeffs):
            return None
        return {i // p: v for i, v in coeffs.items()}
    p_inv, m_inv = pow(p, -1, m), pow(m, -1, p)
    # i -> (a, b) is a bijection, so each bucket gets each a at most once
    buckets: list[dict[int, Fraction]] = [{} for _ in range(p)]
    for i, v in coeffs.items():
        buckets[i * m_inv % p][i * p_inv % m] = v
    mod = _cyclotomic_poly(m)
    first = _poly_rem(buckets[1], mod)
    if any(_poly_rem(b, mod) != first for b in buckets[2:]):
        return None
    out = _poly_rem(buckets[0], mod)
    for a, v in first.items():
        s = out.get(a, _FR0) - v
        if s:
            out[a] = s
        else:
            del out[a]
    return out


def _frac_poly_divmod(a: list[Fraction], b: list[Fraction]):
    """Division with remainder for dense Fraction polynomials, low degree first."""
    a = list(a)
    while a and not a[-1]:
        a.pop()
    b = list(b)
    while b and not b[-1]:
        b.pop()
    if not b:
        raise ZeroDivisionError
    if len(a) < len(b):
        return [Fraction(0)], a
    q = [Fraction(0)] * (len(a) - len(b) + 1)
    for d in range(len(a) - len(b), -1, -1):
        c = a[d + len(b) - 1] / b[-1]
        q[d] = c
        if c:
            for i in range(len(b)):
                a[d + i] -= c * b[i]
    while a and not a[-1]:
        a.pop()
    return q, a


def _frac_poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1 if a and b else 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _frac_poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return out


def cyclo_root_of_unity(a: int, n: int) -> Cyclo:
    """The root of unity zeta_n^a, in canonical form.

    >>> cyclo_root_of_unity(0, 5)
    Cyclo(1)
    >>> cyclo_root_of_unity(7, 7)
    Cyclo(1)
    >>> cyclo_root_of_unity(1, 4) * cyclo_root_of_unity(1, 4)
    Cyclo(-1)
    """
    if n < 1:
        raise ValueError("order must be positive")
    return _root_of_unity(a % n, n)


@lru_cache(maxsize=1024)
def _root_of_unity(a: int, n: int) -> Cyclo:
    # Cyclo values are immutable, so one is shared by every caller; bounded,
    # since n can come from the angles of JSON eigenvalues
    return Cyclo._make(n, {a: _FR1})


# ---------------------------------------------------------------------------
# LaurentPoly

_SCALARS = (int, Fraction, Cyclo)


def _scalar(c):
    """c in the form a coefficient is stored in: an int or a Fraction for a
    rational value (an int when it is integral), a Cyclo only for conductor > 1.

    >>> _scalar(Cyclo.rational(Fraction(4, 2))), _scalar(Fraction(1, 3))
    (2, Fraction(1, 3))
    """
    t = type(c)
    if t is int:
        return c
    if t is Cyclo:
        if c.n != 1:
            return c
        c = c.coeffs.get(0, 0)
    elif isinstance(c, int):
        return int(c)
    elif not isinstance(c, Fraction):
        raise TypeError(f"not a scalar: {c!r}")
    return c.numerator if c.denominator == 1 else c


def _normalized(terms: dict) -> dict:
    """terms with every value in stored form and the zero values dropped."""
    out = {}
    for e, c in terms.items():
        c = _scalar(c)
        if c:
            out[e] = c
    return out


def _has_cyclo(terms: dict) -> bool:
    return Cyclo in map(type, terms.values())


class LaurentPoly:
    """Laurent polynomial in a fixed ordered tuple of variable names.

    Terms map exponent tuples (ints, one per variable, possibly negative) to
    nonzero coefficients: an int or a Fraction for a rational value, a Cyclo
    only for an irrational one.  So equal polynomials have equal terms and
    equal hashes.  Immutable.
    """

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars: Iterable[str],
                 terms: Mapping[tuple[int, ...], int | Fraction | Cyclo] | None = None):
        vs = tuple(vars)
        clean: dict[tuple[int, ...], int | Fraction | Cyclo] = {}
        for exps, c in (terms or {}).items():
            c = _scalar(c)
            if len(exps) != len(vs):
                raise ValueError("exponent tuple length mismatch")
            if c:
                e = tuple(int(x) for x in exps)
                prev = clean.get(e)
                if prev is not None:
                    c = _scalar(prev + c)
                if c:
                    clean[e] = c
                else:
                    del clean[e]
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def _raw(vars: tuple[str, ...], terms: dict) -> "LaurentPoly":
        """Wrap terms already in stored form without checking them.  Internal."""
        self = object.__new__(LaurentPoly)
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)
        return self

    def __setattr__(self, *a):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(vars: Iterable[str], c) -> "LaurentPoly":
        vs = tuple(vars)
        return LaurentPoly(vs, {(0,) * len(vs): c})

    @staticmethod
    def monomial(vars: Iterable[str], name: str, power: int = 1, coeff=1) -> "LaurentPoly":
        vs = tuple(vars)
        e = [0] * len(vs)
        e[vs.index(name)] = power
        return LaurentPoly(vs, {tuple(e): coeff})

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    # -- arithmetic ----------------------------------------------------------

    def _operand(self, other):
        """other as a LaurentPoly over self.vars, or None for a foreign type."""
        if type(other) is LaurentPoly:
            if other.vars != self.vars:
                raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
            return other
        if isinstance(other, _SCALARS):
            return LaurentPoly.constant(self.vars, other)
        return None

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is not None:
                c = s + c
                if type(c) is Cyclo:
                    c = _scalar(c)
                if not c:
                    del out[e]
                    continue
            out[e] = c
        return LaurentPoly._raw(self.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def scale(self, c) -> "LaurentPoly":
        """c times self, for a scalar c."""
        c = _scalar(c)
        if not c:
            return LaurentPoly._raw(self.vars, {})
        if c == 1:
            return self
        out = {e: v * c for e, v in self.terms.items()}
        if _has_cyclo(out):
            out = _normalized(out)
        return LaurentPoly._raw(self.vars, out)

    def __mul__(self, other):
        if type(other) is not LaurentPoly:
            if isinstance(other, _SCALARS):
                return self.scale(other)
            return NotImplemented
        if other.vars != self.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        # most specs have one parameter z; adding 1-tuples directly takes
        # half the time of tuple(map(add, ...))
        univariate = len(self.vars) == 1
        out: dict[tuple[int, ...], int | Fraction | Cyclo] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = (e1[0] + e2[0],) if univariate else tuple(map(add, e1, e2))
                c = c1 * c2
                s = out.get(e)
                if s is None:
                    out[e] = c
                else:
                    c = s + c
                    if c:
                        out[e] = c
                    else:
                        del out[e]
        # a product or sum with a Cyclo factor may be rational, even zero
        if _has_cyclo(out):
            out = _normalized(out)
        return LaurentPoly._raw(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.monomial_inverse() ** (-k)
        out = LaurentPoly.constant(self.vars, 1)
        for _ in range(k):
            out = out * self
        return out

    def monomial_inverse(self) -> "LaurentPoly":
        """Inverse, defined when self is a single term (a unit)."""
        if len(self.terms) != 1:
            raise ValueError("only monomials are invertible")
        (e, c), = self.terms.items()
        inv = c.inverse() if type(c) is Cyclo else _scalar(1 / Fraction(c))
        return LaurentPoly._raw(self.vars, {tuple(-x for x in e): inv})

    # -- comparison ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = LaurentPoly.constant(self.vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.vars, tuple(sorted(self.terms.items()))))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        if self.is_zero():
            return "LaurentPoly(0)"
        parts = []
        for e in sorted(self.terms):
            factors = [f"{v}^{p}" for v, p in zip(self.vars, e) if p]
            mono = "*".join(factors) or "1"
            c = self.terms[e]
            coeff = repr(c) if type(c) is Cyclo else f"Cyclo({c})"
            parts.append(f"({coeff})*{mono}")
        return "LaurentPoly(" + " + ".join(parts) + ")"

    # -- json --------------------------------------------------------------------

    def to_json(self):
        return {"vars": list(self.vars),
                "terms": [[list(e), c.to_json() if type(c) is Cyclo
                           else {"n": 1, "coeffs": [[0, str(c)]]}]
                          for e, c in sorted(self.terms.items())]}

    @staticmethod
    def from_json(data) -> "LaurentPoly":
        """Decode the form `to_json` writes; ValueError on any other shape."""
        if not (dc.obj(data, "vars", "terms")
                and all(isinstance(v, str) for v in data["vars"])
                and len(set(data["vars"])) == len(data["vars"])):
            raise ValueError('a polynomial is an object {"vars": [distinct names], '
                             '"terms": [[exponents, coefficient], ...]}')
        vs = tuple(data["vars"])
        if not all(dc.pair(term) and dc.int_list(term[0], len(vs)) for term in data["terms"]):
            raise ValueError(f"each polynomial term is a pair [exponents, coefficient] "
                             f"with {len(vs)} integer exponents")
        return LaurentPoly(vs, {tuple(e): Cyclo.from_json(c) for e, c in data["terms"]})


def laurent_eval(p: LaurentPoly, point: Mapping[str, Cyclo]) -> Cyclo:
    """Substitute exact values for every variable of p.

    >>> z = LaurentPoly.monomial(("z",), "z")
    >>> laurent_eval(z - z**-1, {"z": Cyclo.rational(1)})
    Cyclo(0)
    """
    for v in p.vars:
        if v not in point:
            raise KeyError(f"unassigned variable {v!r}")
    total = Cyclo(0)
    for e, c in p.terms.items():
        term = c
        for name, k in zip(p.vars, e):
            if k == 0:
                continue
            val = point[name]
            if k < 0 and val.is_zero():
                raise ZeroDivisionError(f"zero assigned to inverted variable {name!r}")
            term = term * val ** k
        total = total + term
    return total


if __name__ == "__main__":
    import doctest
    doctest.testmod()
