"""Independent truths the benchmark holds the program's outputs to.

Nothing here imports the library.  `SplitModel` rebuilds a simply connected
classical root system from its Cartan matrix, in the same coordinates the
library uses (the weight lattice in the fundamental-weight basis), so that
lengths and products in X x| W can be computed without the library.  The
`check_*` functions take plain data (ints, Fractions, tuples, dicts) and
return None when the output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial, prod


def cartan_matrix(family: str, n: int) -> list[list[int]]:
    """M[i][j] = <alpha_i, alpha_j^>; in type C the last simple root is long,
    in type B the last one is short."""
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        m[i][i + 1] = m[i + 1][i] = -1
    if family == "B":
        m[n - 2][n - 1] = -2
    elif family == "C":
        m[n - 1][n - 2] = -2
    elif family == "D":
        m[n - 2][n - 1] = m[n - 1][n - 2] = 0
        m[n - 3][n - 1] = m[n - 1][n - 3] = -1
    return m


def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


def _mat_vec(a, v):
    return tuple(sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a)))


class SplitModel:
    """Simply connected root datum of a classical type, rebuilt from scratch.

    Simple root j is row j of the Cartan matrix (weight coordinates) and
    simple coroot j is the j-th unit vector, so <x, alpha_j^> = x[j].
    """

    def __init__(self, family: str, n: int):
        self.rank = n
        cm = cartan_matrix(family, n)
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        self.simple_roots = [tuple(cm[j]) for j in range(n)]
        # s_j x = x - x[j] alpha_j, as a matrix acting on column vectors
        self.reflections = [
            tuple(tuple(ident[a][b] - (self.simple_roots[j][a] if b == j else 0)
                        for b in range(n)) for a in range(n))
            for j in range(n)]
        # roots with their coroots and their coordinates on the simple roots
        triples = {(self.simple_roots[j], ident[j], ident[j]) for j in range(n)}
        frontier = list(triples)
        while frontier:
            new = []
            for alpha, coroot, coeffs in frontier:
                for j in range(n):
                    k = alpha[j]
                    beta = tuple(a - k * b for a, b in zip(alpha, self.simple_roots[j]))
                    k2 = sum(a * b for a, b in zip(self.simple_roots[j], coroot))
                    beta_v = tuple(c - k2 * int(i == j) for i, c in enumerate(coroot))
                    beta_c = tuple(c - k * int(i == j) for i, c in enumerate(coeffs))
                    t = (beta, beta_v, beta_c)
                    if t not in triples:
                        triples.add(t)
                        new.append(t)
            frontier = new
        self.roots = sorted(r for r, _, _ in triples)
        self.positive = [(r, v) for r, v, c in sorted(triples) if min(c) >= 0]
        # the Weyl group: a reduced word and a matrix per element
        self.words = {ident: ()}
        frontier = [ident]
        while frontier:
            new = []
            for m in frontier:
                for j in range(n):
                    p = _mat_mul(m, self.reflections[j])
                    if p not in self.words:
                        self.words[p] = self.words[m] + (j,)
                        new.append(p)
            frontier = new
        self.identity = ident

    @property
    def weyl_order(self) -> int:
        return len(self.words)

    def matrix(self, word) -> tuple:
        m = self.identity
        for j in word:
            m = _mat_mul(m, self.reflections[j])
        return m

    def inverse(self, m) -> tuple:
        return self.matrix(tuple(reversed(self.words[m])))

    def length(self, x, m) -> int:
        """Length of t_x w: sum over positive roots alpha of |<x, alpha^>|,
        or of |<x, alpha^> - 1| when w^-1 alpha is negative."""
        winv = self.inverse(m)
        pos = {r for r, _ in self.positive}
        total = 0
        for alpha, coroot in self.positive:
            k = sum(a * b for a, b in zip(x, coroot))
            total += abs(k) if _mat_vec(winv, alpha) in pos else abs(k - 1)
        return total

    def orbit(self, x) -> list:
        """The W-orbit of a weight."""
        return sorted({_mat_vec(m, x) for m in self.words})

    def product(self, a, b):
        """(x, w)(y, v) = (x + w y, w v) in X x| W; elements as (x, matrix)."""
        (x, w), (y, v) = a, b
        wy = _mat_vec(w, y)
        return (tuple(p + q for p, q in zip(x, wy)), _mat_mul(w, v))

    def keys_up_to_length(self, bound: int):
        """Every (x, w) with length <= bound, by length; a translation part
        outside [-bound-1, bound+1]^rank already has length > bound."""
        out: dict[int, list] = {}
        box = range(-bound - 1, bound + 2)
        points = [()]
        for _ in range(self.rank):
            points = [p + (c,) for p in points for c in box]
        for m in sorted(self.words, key=lambda m: (len(self.words[m]), self.words[m])):
            for x in points:
                ell = self.length(x, m)
                if ell <= bound:
                    out.setdefault(ell, []).append((x, self.words[m]))
        return out


# ---------------------------------------------------------------------------
# closed forms


def weyl_order(family: str, n: int) -> int:
    if family == "GL":
        return factorial(n)
    return {"A": factorial(n + 1), "B": 2 ** n * factorial(n),
            "C": 2 ** n * factorial(n), "D": 2 ** (n - 1) * factorial(n)}[family]


def root_count(family: str, n: int) -> int:
    return {"GL": n * (n - 1), "A": n * (n + 1), "B": 2 * n * n,
            "C": 2 * n * n, "D": 2 * n * (n - 1)}[family]


def fundamental_group_order(family: str, n: int, isogeny: str) -> int:
    """|X / Z Phi|, the number of length-zero elements of X x| W."""
    if isogeny == "ad":
        return 1
    return {"A": n + 1, "B": 2, "C": 2, "D": 4}[family]


def diagram_automorphisms(family: str, n: int) -> int:
    """Automorphisms of a connected Dynkin diagram; GL_n (n >= 2) has the flip."""
    if family in ("A", "GL"):
        return 2 if n >= 2 else 1
    if family == "D":
        return 6 if n == 4 else 2
    return 1


def class_count(table) -> int:
    """Number of conjugacy classes, straight from a multiplication table."""
    n = len(table)
    ident = next(e for e in range(n) if all(table[e][g] == g for g in range(n)))
    inv = [next(h for h in range(n) if table[g][h] == ident) for g in range(n)]
    seen, classes = set(), 0
    for a in range(n):
        if a not in seen:
            classes += 1
            seen.update(table[table[g][a]][inv[g]] for g in range(n))
    return classes


def gl_stabilizer_order(point) -> int:
    """Stabilizer in S_n of a list: the product of m! over repeated entries."""
    return prod(factorial(m) for m in Counter(point).values())


# ---------------------------------------------------------------------------
# checks on Hecke products; an element is {(x, matrix): {exponent: Fraction}}


def plain_element(elt_json, model: SplitModel) -> dict:
    """A Hecke element's JSON form as {(x, matrix): {z-exponent: Fraction}}."""
    out = {}
    for key, poly in elt_json:
        if poly["vars"] != ["z"]:
            raise ValueError(f"unexpected parameters {poly['vars']}")
        terms = {}
        for (e,), c in poly["terms"]:
            if c["n"] != 1:
                raise ValueError("coefficient outside Q")
            terms[e] = Fraction(c["coeffs"][0][1]) if c["coeffs"] else Fraction(0)
        k = (tuple(key["t"]), model.matrix(key["w_word"]))
        if k in out:
            raise ValueError("basis key listed twice")
        out[k] = terms
    return out


def element_sum(a, b) -> dict:
    out = {k: dict(v) for k, v in a.items()}
    for k, poly in b.items():
        acc = out.setdefault(k, {})
        for e, c in poly.items():
            acc[e] = acc.get(e, 0) + c
    return {k: {e: c for e, c in p.items() if c}
            for k, p in out.items() if any(p.values())}


def at_one(elt) -> dict:
    """Specialize z = 1, dropping keys whose coefficients cancel."""
    out = {}
    for key, poly in elt.items():
        v = sum(poly.values(), Fraction(0))
        if v:
            out[key] = v
    return out


def check_group_limit(elt, expected_key):
    """At z = 1 the Hecke algebra is the group algebra of X x| W."""
    got = at_one(elt)
    if got != {expected_key: 1}:
        return f"z = 1 limit is {len(got)} terms, not the single term N_ab"
    return None


def check_lengths_add(elt, expected_key):
    """N_a N_b = N_ab exactly when l(ab) = l(a) + l(b)."""
    if elt != {expected_key: {0: Fraction(1)}}:
        return "lengths add but the product is not N_ab"
    return None


def check_quadratic(elt, unit_key, gen_key, label: int):
    """N_s N_s = 1 + (z^lam - z^-lam) N_s."""
    expected = {unit_key: {0: Fraction(1)},
                gen_key: {label: Fraction(1), -label: Fraction(-1)}}
    if elt != expected:
        return "quadratic relation fails"
    return None


def check_equal(lhs, rhs, what: str):
    return None if lhs == rhs else f"{what}: the two sides differ"


def check_flag(value, expected: bool, what: str):
    return None if value is expected else f"{what}: got {value!r}"


# ---------------------------------------------------------------------------
# checks on pullbacks; a root of unity is its angle a/n in [0, 1)


def check_conservation(pieces, index: int, degree: int):
    """sum m deg(rho~) = [S~ : S] deg(rho) over (degree, multiplicity) pieces."""
    total = sum(m * d for d, m in pieces)
    if total != index * degree:
        return f"multiplicities sum to {total}, not {index} * {degree}"
    return None


def check_sln_stabilizer(n, order, cyclic):
    """The SL_n example's stabilizer is cyclic of order n."""
    if order != n or not cyclic:
        return f"n={n}: stabilizer of order {order}, cyclic={cyclic}"
    return None


def check_ad_twist(n, pieces):
    """Ad(t) pulls each of the n relevant enhancements back to one piece of
    multiplicity one, twisted by zeta_n.  pieces lists, per enhancement,
    (multiplicities, angle of rho at the generator, angle of the output)."""
    if len(pieces) != n:
        return f"n={n}: {len(pieces)} relevant enhancements, not {n}"
    for mults, before, after in pieces:
        if mults != [1]:
            return f"n={n}: Ad-pullback multiplicities {mults}"
        if (after - before - Fraction(1, n)) % 1:
            return f"n={n}: Ad-pullback twists by {after - before}, not 1/{n}"
    return None


# ---------------------------------------------------------------------------
# checks on CLI replies


def check_characters(degrees, group_order: int, classes: int):
    if sum(d * d for d in degrees) != group_order:
        return "sum of squared degrees differs from |G|"
    if len(degrees) != classes:
        return f"{len(degrees)} irreducibles for {classes} classes"
    return None


def check_value(got, expected, what: str):
    return None if got == expected else f"{what}: got {got!r}, expected {expected!r}"


def check_failure_reply(code, stdout: str, stderr: str):
    """A refused request exits 1 or 2 with one line on stderr and no output."""
    if code not in (1, 2):
        return f"exit code {code!r}"
    if stdout:
        return "printed a result for a malformed request"
    if len(stderr.strip().splitlines()) != 1:
        return "error message is not one line"
    return None
