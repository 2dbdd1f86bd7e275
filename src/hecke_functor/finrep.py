"""
Character theory of small finite groups, exact over cyclotomic numbers.

Groups are explicit multiplication tables.  Irreducible characters are
computed with the class-sum eigenvector method: the table is solved modulo a
prime p = 1 (mod exponent), then every value is lifted exactly to a sum of
roots of unity from the multiplicities of the eigenvalues of rho(g).  Abelian
groups take a direct route through a generating set.

Induction and restriction are character-level, with the normal-subgroup
machinery (inertia groups, Clifford-style re-derivation of the decomposition)
for the abelian-quotient regime.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from . import decode as dc
from .numkernel import Cyclo, _prime_divisors, cyclo_root_of_unity

__all__ = [
    "FiniteGroup", "RepOrChar", "FinRepError",
    "irreducibles", "induce", "restrict", "hom_mult", "twist",
    "character_product", "clifford_identity_check",
]

GROUP_SIZE_GUARD = 64


class FinRepError(ValueError):
    pass


def _size_guard(order: int) -> None:
    """Refuse a group above the guard, before its table is built."""
    if order > GROUP_SIZE_GUARD:
        raise FinRepError("group larger than the desk guard")


class FiniteGroup:
    """A finite group as an explicit multiplication table.

    `table[i][j]` is the index of the product of elements i and j; marked
    subgroups are named frozen sets of element indices.  A group is frozen:
    its table and its marks are fixed in `__init__`, so whatever is computed
    from an instance (its irreducible characters) stays valid for it.
    """

    def __init__(self, table: Sequence[Sequence[int]],
                 marked_subgroups: Mapping[str, Iterable[int]] | None = None,
                 names: Sequence[str] | None = None):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        if self.order == 0:
            raise FinRepError("empty table")
        _size_guard(self.order)
        n = self.order
        for row in self.table:
            if len(row) != n or any(not 0 <= v < n for v in row):
                raise FinRepError("malformed multiplication table")
        self.identity = self._find_identity()
        try:
            self._inverse = tuple(row.index(self.identity) for row in self.table)
        except ValueError:
            raise FinRepError("an element has no inverse") from None
        self._check_group()
        self.names = tuple(names) if names else tuple(f"g{i}" for i in range(n))
        marks = {}
        for name, elems in (marked_subgroups or {}).items():
            elems = frozenset(elems)
            if any(self.table[a][b] not in elems for a in elems for b in elems):
                raise FinRepError(f"marked subset {name!r} is not closed")
            marks[name] = elems
        self.marked_subgroups: Mapping[str, frozenset[int]] = MappingProxyType(marks)
        self._exponent: int | None = None

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self.table[e][j] == j == self.table[j][e] for j in range(self.order)):
                return e
        raise FinRepError("no identity element")

    def _check_group(self):
        """Refuse a table that is not associative, by Light's test
        (Clifford and Preston, *The Algebraic Theory of Semigroups* I, 1.2).

        The elements t with (x t) y = x (t y) for all x, y form a submagma:
        for s, t among them, (x (s t)) y = ((x s) t) y = (x s)(t y)
        = x (s (t y)) = x ((s t) y).  The identity is one of them.  So
        checking (x g) y = x (g y) for every g of a set S and all x, y proves
        associativity once the closure of the identity under right
        multiplication by S is the whole table.  S is picked greedily: each
        element not yet reached joins it.  This costs n^2 |S| lookups instead
        of n^3, and |S| <= log2(n) for a group.
        """
        t = self.table
        gens, reached, frontier = [], {self.identity}, []
        for a in range(self.order):
            if a in reached:
                continue
            gens.append(a)
            frontier.extend(reached)
            while frontier:
                x = frontier.pop()
                for g in gens:
                    if (y := t[x][g]) not in reached:
                        reached.add(y)
                        frontier.append(y)
        for g in gens:
            tg = t[g]
            for row in t:
                if t[row[g]] != tuple(map(row.__getitem__, tg)):
                    raise FinRepError("table is not associative")

    # -- structure ---------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverse[a]

    def conj(self, g: int, a: int) -> int:
        return self.mul(self.mul(g, a), self.inv(g))

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            k += 1
        return k

    def exponent(self) -> int:
        if self._exponent is None:
            self._exponent = lcm(*[self.element_order(a) for a in range(self.order)])
        return self._exponent

    def power(self, a: int, k: int) -> int:
        out = self.identity
        x = a if k >= 0 else self.inv(a)
        for _ in range(abs(k)):
            out = self.mul(out, x)
        return out

    def is_abelian(self) -> bool:
        return all(self.table[a][b] == self.table[b][a]
                   for a in range(self.order) for b in range(self.order))

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        seen, classes = set(), []
        for a in range(self.order):
            if a in seen:
                continue
            cls = {self.conj(g, a) for g in range(self.order)}
            seen |= cls
            classes.append(tuple(sorted(cls)))
        return classes

    def center(self) -> frozenset[int]:
        return frozenset(a for a in range(self.order)
                         if all(self.mul(a, b) == self.mul(b, a)
                                for b in range(self.order)))

    def subgroup_closure(self, gens: Iterable[int]) -> frozenset[int]:
        out = {self.identity}
        frontier = list(out)
        gens = list(gens)
        while frontier:
            new = []
            for a in frontier:
                for g in gens:
                    b = self.mul(a, g)
                    if b not in out:
                        out.add(b)
                        new.append(b)
            frontier = new
        return frozenset(out)

    def is_normal(self, elems: frozenset[int]) -> bool:
        return all(self.conj(g, a) in elems for g in range(self.order) for a in elems)

    def quotient_is_abelian(self, elems: frozenset[int]) -> bool:
        return all(self.mul(self.mul(a, b), self.inv(self.mul(b, a))) in elems
                   for a in range(self.order) for b in range(self.order))

    def subgroup_as_group(self, elems: Iterable[int]) -> tuple["FiniteGroup", list[int]]:
        """The subgroup as its own FiniteGroup plus the index embedding;
        FinRepError if the set is not closed under the product."""
        members = sorted(elems)
        pos = {g: i for i, g in enumerate(members)}
        table = [[pos.get(self.mul(a, b)) for b in members] for a in members]
        if any(None in row for row in table):
            raise FinRepError("not a subgroup: the set is not closed under the product")
        return FiniteGroup(table), members

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_mul(elements: Sequence, mul) -> "FiniteGroup":
        index = {e: i for i, e in enumerate(elements)}
        table = [[index[mul(a, b)] for b in elements] for a in elements]
        return FiniteGroup(table, names=[str(e) for e in elements])

    @staticmethod
    def cyclic(n: int) -> "FiniteGroup":
        _size_guard(n)
        return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])

    @staticmethod
    def product(*groups: "FiniteGroup") -> "FiniteGroup":
        _size_guard(prod(g.order for g in groups))
        elements = list(itertools.product(*[range(g.order) for g in groups]))
        index = {e: i for i, e in enumerate(elements)}
        table = [[index[tuple(g.mul(a[k], b[k]) for k, g in enumerate(groups))]
                  for b in elements] for a in elements]
        return FiniteGroup(table)

    @staticmethod
    def symmetric(n: int) -> "FiniteGroup":
        _size_guard(factorial(n) if 0 <= n <= GROUP_SIZE_GUARD else n)    # n! >= n
        perms = list(itertools.permutations(range(n)))
        def mul(p, q):
            return tuple(p[q[i]] for i in range(n))
        return FiniteGroup.from_mul(perms, mul)

    @staticmethod
    def dihedral(n: int) -> "FiniteGroup":
        """Order 2n: (r, f) with f in {0,1}."""
        _size_guard(2 * n)
        elements = [(r, f) for f in (0, 1) for r in range(n)]
        def mul(a, b):
            r1, f1 = a
            r2, f2 = b
            if f1 == 0:
                return ((r1 + r2) % n, f2)
            return ((r1 - r2) % n, 1 - f2)
        return FiniteGroup.from_mul(elements, mul)

    def to_json(self):
        return {"order": self.order,
                "table": [list(r) for r in self.table],
                "subgroups": {k: sorted(v) for k, v in self.marked_subgroups.items()}}

    @staticmethod
    def from_json(data) -> "FiniteGroup":
        """Decode the form `to_json` writes; FinRepError on any other shape."""
        if not (dc.obj(data, "table") and dc.int_rows(data["table"])
                and dc.obj(subgroups := data.get("subgroups", {}))
                and all(dc.int_list(elems) and all(0 <= v < len(data["table"]) for v in elems)
                        for elems in subgroups.values())):
            raise FinRepError('a group is an object {"table": [[int, ...], ...], '
                              '"subgroups": {name: [element, ...]}}')
        return FiniteGroup(data["table"], subgroups)


@dataclass(frozen=True)
class RepOrChar:
    """A character as an exact class function (values per group element).

    A class function whose values are roots of unity can also carry them as
    integer exponents, `exps = (N, e)` with values[g] = zeta_N^e[g]: the
    characters of abelian groups, tau characters and what `character_product`
    makes of them do.  `hom_mult` and `character_product` then add exponents
    instead of multiplying `Cyclo`s; the values, equality and the JSON form
    are the same either way.
    """

    group: FiniteGroup = field(compare=False)
    values: tuple[Cyclo, ...]
    exps: tuple[int, tuple[int, ...]] | None = field(default=None, compare=False,
                                                     repr=False)

    @staticmethod
    def from_exponents(group: FiniteGroup, n: int, exps: Sequence[int]) -> "RepOrChar":
        """The class function g -> zeta_n^exps[g]."""
        exps = tuple(e % n for e in exps)
        return RepOrChar(group, tuple(cyclo_root_of_unity(e, n) for e in exps), (n, exps))

    def __post_init__(self):
        vals = tuple(v if isinstance(v, Cyclo) else Cyclo.rational(v)
                     for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.group.order:
            raise FinRepError("character must assign a value to every element")

    @property
    def degree(self) -> int:
        v = self.values[self.group.identity]
        q = v.rational_value()
        if q.denominator != 1:
            raise FinRepError("degree is not an integer")
        return int(q)

    def value(self, g: int) -> Cyclo:
        return self.values[g]

    def is_class_function(self) -> bool:
        g = self.group
        return all(self.values[g.conj(a, b)] == self.values[b]
                   for a in range(g.order) for b in range(g.order))

    def __add__(self, other: "RepOrChar") -> "RepOrChar":
        return RepOrChar(self.group, tuple(a + b for a, b in
                                           zip(self.values, other.values)))

    def __mul__(self, other: "RepOrChar") -> "RepOrChar":
        return RepOrChar(self.group, tuple(a * b for a, b in
                                           zip(self.values, other.values)))

    def to_json(self):
        return [v.to_json() for v in self.values]

    @staticmethod
    def from_json(group: FiniteGroup, data) -> "RepOrChar":
        """Decode one value per group element; ValueError on any other shape."""
        if not dc.is_list(data, group.order):
            raise FinRepError(f"a character is a list of {group.order} values")
        return RepOrChar(group, tuple(Cyclo.from_json(v) for v in data))


# ---------------------------------------------------------------------------
# inner products and basic operations


def hom_mult(sigma: RepOrChar, rho: RepOrChar) -> int:
    """dim Hom = <chi_sigma, chi_rho>, exact.

    When both carry exponents, the sum of sigma(g) conj(rho(g)) is counted
    on the differences of the exponents: one `Cyclo` of conductor N, none
    when every difference is zero or the sum vanishes by symmetry."""
    if sigma.group is not rho.group and sigma.group.table != rho.group.table:
        raise FinRepError("characters live on different groups")
    g = sigma.group
    if sigma.exps is not None and rho.exps is not None:
        (m, e), (k, f) = sigma.exps, rho.exps
        n = lcm(m, k)
        a, b = n // m, n // k
        counts = Counter((x * a - y * b) % n for x, y in zip(e, f))
        if counts[0] == g.order:
            return 1
        if _vanishes(n, counts):
            # for two linear characters that is every other case: their
            # differences form a homomorphism, spread evenly over its image
            return 0
        total = Cyclo._make(n, counts)
    else:
        total = Cyclo.rational(0)
        for a in range(g.order):
            total = total + sigma.values[a] * rho.values[a].conj()
    if not total.is_rational():
        raise FinRepError("inner product is not a nonnegative integer")
    q = total.rational_value() / g.order
    if q.denominator != 1 or q < 0:
        raise FinRepError("inner product is not a nonnegative integer")
    return int(q)


def _vanishes(n: int, counts: Mapping[int, int]) -> bool:
    """Does sum_k counts[k] zeta_n^k vanish by symmetry?  It does when the
    counts are invariant under the shift by n/p for a prime p | n, since the
    p-th roots of unity sum to 0."""
    return any(all(c == counts.get((k + n // p) % n, 0) for k, c in counts.items())
               for p in _prime_divisors(n))


def character_product(group: FiniteGroup,
                      factors: Sequence[tuple[RepOrChar, Sequence[int] | None, int]]
                      ) -> RepOrChar:
    """The class function g -> prod chi(m[g])^s of `group`, over the factors
    (chi, m, s): chi a class function of some group, m the map of group's
    elements into that group (None for the identity), s = 1 or -1.  Exponents
    are added when every factor carries them; no factor gives the trivial
    character."""
    size = group.order
    if all(chi.exps is not None for chi, _, _ in factors):
        n = lcm(*[chi.exps[0] for chi, _, _ in factors])
        total = [0] * size
        for chi, elt_map, s in factors:
            m, e = chi.exps
            scale = s * (n // m)
            if elt_map is not None:
                e = [e[j] for j in elt_map]
            for i in range(size):
                total[i] += scale * e[i]
        return RepOrChar.from_exponents(group, n, total)
    values = [Cyclo.rational(1)] * size
    for chi, elt_map, s in factors:
        for i in range(size):
            v = chi.values[i if elt_map is None else elt_map[i]]
            values[i] = values[i] * (v if s == 1 else v.inverse())
    return RepOrChar(group, tuple(values))


def twist(rho: RepOrChar, tau: RepOrChar) -> RepOrChar:
    """rho (x) tau for a linear character tau."""
    if tau.degree != 1:
        raise FinRepError("twist requires a linear character")
    return rho * tau


def restrict(rho: RepOrChar, subgroup: Iterable[int],
             sub_as_group: FiniteGroup | None = None) -> RepOrChar:
    members = sorted(subgroup)
    if sub_as_group is None:
        sub_as_group, _ = rho.group.subgroup_as_group(members)
    return RepOrChar(sub_as_group, tuple(rho.values[g] for g in members))


# ---------------------------------------------------------------------------
# irreducible characters


def irreducibles(group: FiniteGroup) -> list[RepOrChar]:
    """All irreducible characters; complete and pairwise distinct.

    Computed once per group instance: a group is frozen, and its characters
    carry it, so two groups with one table keep their own characters."""
    return list(_irreducibles(group))


@lru_cache(maxsize=256)
def _irreducibles(group: FiniteGroup) -> tuple[RepOrChar, ...]:
    # keyed on the instance (FiniteGroup compares by identity); bounded,
    # since groups read from JSON are unbounded in number
    if group.is_abelian():
        chars = _abelian_characters(group)
    else:
        chars = _dixon_characters(group)
    # sanity: sum of squares of degrees
    assert sum(c.degree ** 2 for c in chars) == group.order
    return tuple(chars)


def _abelian_characters(group: FiniteGroup) -> list[RepOrChar]:
    n = group.order
    # greedy generating set, largest orders first
    gens: list[int] = []
    generated = group.subgroup_closure([])
    for a in sorted(range(n), key=lambda a: -group.element_order(a)):
        if a not in generated:
            gens.append(a)
            generated = group.subgroup_closure(gens)
        if len(generated) == n:
            break
    orders = [group.element_order(g) for g in gens]
    # one representative exponent tuple per element, plus the kernel of the
    # evaluation map on exponent tuples
    rep: dict[int, tuple[int, ...]] = {}
    kernel: list[tuple[int, ...]] = []
    for exps in itertools.product(*[range(o) for o in orders]):
        g = group.identity
        for gen, e in zip(gens, exps):
            g = group.mul(g, group.power(gen, e))
        if g == group.identity:
            kernel.append(exps)
        if g not in rep:
            rep[g] = exps
    # the candidate character sends gen_i to zeta_N^(c_i N / o_i), N the
    # exponent; it is well-defined exactly when it kills every relation tuple
    exponent = group.exponent()
    steps = [exponent // o for o in orders]
    chars = []
    for cs in itertools.product(*[range(o) for o in orders]):
        weights = [c * s for c, s in zip(cs, steps)]
        if any(sum(w * x for w, x in zip(weights, exps)) % exponent for exps in kernel):
            continue
        chars.append(RepOrChar.from_exponents(
            group, exponent, [sum(w * x for w, x in zip(weights, rep[g])) for g in range(n)]))
    if len(chars) != n:
        raise FinRepError("internal: wrong number of abelian characters")
    return chars


def _dixon_characters(group: FiniteGroup) -> list[RepOrChar]:
    classes = group.conjugacy_classes()
    k = len(classes)
    class_of = {}
    for ci, cls in enumerate(classes):
        for g in cls:
            class_of[g] = ci
    inv_class = [class_of[group.inv(cls[0])] for cls in classes]
    e = group.exponent()
    p = _dixon_prime(e, group.order)

    # structure constants: class_i * class_j = sum_l a[i][j][l] class_l
    a = [[[0] * k for _ in range(k)] for _ in range(k)]
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            for x in ci:
                for y in cj:
                    a[i][j][class_of[group.mul(x, y)]] += 1
            # counts are |C_i||C_j| spread over products; normalize to the
            # coefficient on a fixed representative
    for i in range(k):
        for j in range(k):
            for l in range(k):
                assert a[i][j][l] % len(classes[l]) == 0
                a[i][j][l] //= len(classes[l])

    # split the common eigenspaces of the class matrices over F_p
    spaces = [_identity_rows(k)]
    for i in range(k):
        mat = [[a[i][j][l] % p for l in range(k)] for j in range(k)]
        # acting on row vectors w: (A_i w)_j = sum_l a[i][j][l] w_l
        new_spaces = []
        for basis in spaces:
            if len(basis) == 1:
                new_spaces.append(basis)
                continue
            new_spaces.extend(_split_eigenspaces(basis, mat, p))
        spaces = new_spaces
    if any(len(b) != 1 for b in spaces) or len(spaces) != k:
        raise FinRepError("internal: class matrices did not split")

    chars = []
    g_order = group.order % p
    for basis in spaces:
        w = basis[0]
        # normalize w at the identity class
        ident_ci = class_of[group.identity]
        w = [(v * pow(w[ident_ci], p - 2, p)) % p for v in w]
        # omega_i = eigenvalue on class i; degree from the orthogonality sum
        c_sum = 0
        for j in range(k):
            c_sum += w[j] * w[inv_class[j]] * pow(len(classes[j]), p - 2, p)
        c_sum %= p
        d_sq = (g_order * pow(c_sum, p - 2, p)) % p
        d = _sqrt_mod(d_sq, p, group.order)
        # character values mod p: chi(g_j) = d * omega_j / |C_j|
        chi_p = [(d * w[j] * pow(len(classes[j]), p - 2, p)) % p for j in range(k)]
        # exact lift through eigenvalue multiplicities
        z = _element_of_order(e, p)
        values_by_class = []
        for j, cls in enumerate(classes):
            g0 = cls[0]
            m = group.element_order(g0)
            zm = pow(z, e // m, p)
            val = Cyclo.rational(0)
            minv = pow(m, p - 2, p)
            for t in range(m):
                s_total = 0
                for s in range(m):
                    gj = class_of[group.power(g0, s)]
                    s_total += chi_p[gj] * pow(zm, (-s * t) % m, p)
                mult = (s_total * minv) % p
                if mult:
                    val = val + Cyclo.rational(mult) * cyclo_root_of_unity(t, m)
            values_by_class.append(val)
        values = [values_by_class[class_of[g]] for g in range(group.order)]
        chars.append(RepOrChar(group, tuple(values)))
    return chars


def _identity_rows(k: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def _dixon_prime(e: int, order: int) -> int:
    import math
    bound = 2 * math.isqrt(order) + 1
    p = e + 1
    while True:
        if p > bound and p % e == (1 % e) and _is_prime(p):
            return p
        p += 1


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _element_of_order(e: int, p: int) -> int:
    if e == 1:
        return 1
    for g in range(2, p):
        z = pow(g, (p - 1) // e, p)
        if z == 1:
            continue
        if all(pow(z, e // q, p) != 1 for q in _prime_factors(e)):
            return z
    raise FinRepError("no element of the required order")


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _sqrt_mod(a: int, p: int, order: int) -> int:
    import math
    bound = math.isqrt(order)
    for d in range(1, bound + 1):
        if (d * d) % p == a % p:
            return d
    raise FinRepError("internal: no admissible degree")


def _split_eigenspaces(basis: list[list[int]], mat: list[list[int]], p: int
                       ) -> list[list[list[int]]]:
    """Split span(basis) into eigenspaces of the row action w -> w M^T-ish."""
    k = len(mat)
    # images of basis vectors: (A w)_j = sum_l mat[j][l] w_l
    images = []
    for w in basis:
        images.append([sum(mat[j][l] * w[l] for l in range(k)) % p for j in range(k)])
    # solve in coordinates of the basis: restriction matrix R with
    # image_i = sum_t R[t][i] basis_t
    R = _coords_in_basis(images, basis, p)
    m = len(basis)
    out = []
    for lam in range(p):
        # kernel of (R - lam I)
        mm = [[(R[i][j] - (lam if i == j else 0)) % p for j in range(m)] for i in range(m)]
        null = _nullspace_mod(mm, p)
        if null:
            vecs = []
            for coeffs in null:
                v = [0] * k
                for c, w in zip(coeffs, basis):
                    for idx in range(k):
                        v[idx] = (v[idx] + c * w[idx]) % p
                vecs.append(v)
            out.append(vecs)
        if sum(len(b) for b in out) == m:
            break
    if sum(len(b) for b in out) != m:
        raise FinRepError("internal: eigenspace split failed")
    return out


def _coords_in_basis(vectors: list[list[int]], basis: list[list[int]], p: int
                     ) -> list[list[int]]:
    """Matrix R with vectors[i] = sum_t R[t][i] basis[t] (mod p)."""
    k = len(basis[0])
    m = len(basis)
    # solve basis^T x = vector for each vector
    R = [[0] * len(vectors) for _ in range(m)]
    for vi, vec in enumerate(vectors):
        aug = [[basis[t][row] for t in range(m)] + [vec[row]] for row in range(k)]
        sol = _solve_mod(aug, m, p)
        for t in range(m):
            R[t][vi] = sol[t]
    return R


def _solve_mod(aug: list[list[int]], nvars: int, p: int) -> list[int]:
    rows = len(aug)
    r = 0
    pivots = []
    for c in range(nvars):
        pr = next((i for i in range(r, rows) if aug[i][c] % p), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = pow(aug[r][c], p - 2, p)
        aug[r] = [(x * inv) % p for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c] % p:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    for i in range(r, rows):
        if aug[i][nvars] % p:
            raise FinRepError("internal: inconsistent modular system")
    sol = [0] * nvars
    for i, c in enumerate(pivots):
        sol[c] = aug[i][nvars] % p
    return sol


def _nullspace_mod(mat: list[list[int]], p: int) -> list[list[int]]:
    m = len(mat)
    a = [row[:] for row in mat]
    pivots = {}
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, m) if a[i][c] % p), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [(x * inv) % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] % p:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots[c] = r
        r += 1
    out = []
    for c in range(m):
        if c in pivots:
            continue
        v = [0] * m
        v[c] = 1
        for pc, pr in pivots.items():
            v[pc] = (-a[pr][c]) % p
        out.append(v)
    return out


# ---------------------------------------------------------------------------
# induction and Clifford theory


def _check_induction_setting(group: FiniteGroup, normal: frozenset[int]):
    if not group.is_normal(normal):
        raise FinRepError("subgroup is not normal")
    if not group.quotient_is_abelian(normal):
        raise FinRepError("quotient is not abelian: outside the supported regime")


def induce(group: FiniteGroup, normal: Iterable[int], rho: RepOrChar
           ) -> tuple[RepOrChar, list[tuple[RepOrChar, int]]]:
    """Induced character from a normal subgroup with abelian quotient,
    plus its decomposition into irreducibles with multiplicities."""
    normal = frozenset(normal)
    _check_induction_setting(group, normal)
    members = sorted(normal)
    pos = {g: i for i, g in enumerate(members)}
    if rho.group.order != len(members):
        raise FinRepError("character is not a character of the subgroup")
    values = []
    scale = Cyclo.rational(Fraction(1, len(members)))
    for g in range(group.order):
        total = Cyclo.rational(0)
        for x in range(group.order):
            c = group.mul(group.mul(x, g), group.inv(x))
            if c in normal:
                total = total + rho.values[pos[c]]
        values.append(total * scale)
    ind = RepOrChar(group, tuple(values))
    if ind.degree != (group.order // len(members)) * rho.degree:
        raise FinRepError("internal: induced degree mismatch")
    decomposition = []
    for chi in irreducibles(group):
        m = hom_mult(ind, chi)
        if m:
            decomposition.append((chi, m))
    return ind, decomposition


def clifford_identity_check(group: FiniteGroup, normal: Iterable[int],
                            rho: RepOrChar) -> bool:
    """Re-derive the induced decomposition through the inertia group of rho
    and compare multisets with the direct Frobenius decomposition."""
    normal = frozenset(normal)
    _check_induction_setting(group, normal)
    members = sorted(normal)
    pos = {g: i for i, g in enumerate(members)}
    sub_group, _ = group.subgroup_as_group(members)
    rho = RepOrChar(sub_group, rho.values)

    ind, direct = induce(group, normal, rho)

    # inertia group: elements whose conjugation fixes the character
    inertia = []
    for g in range(group.order):
        conj_vals = tuple(rho.values[pos[group.conj(group.inv(g), n)]] for n in members)
        if conj_vals == tuple(rho.values):
            inertia.append(g)
    inertia = frozenset(inertia)
    if not normal <= inertia:
        return False

    i_group, i_members = group.subgroup_as_group(inertia)
    i_pos = {g: i for i, g in enumerate(i_members)}
    n_in_i = frozenset(i_pos[g] for g in members)

    # stage 1: induce to the inertia group, keep constituents over rho
    rho_in_i = RepOrChar(i_group.subgroup_as_group(sorted(n_in_i))[0], rho.values)
    _, stage1 = induce(i_group, n_in_i, rho_in_i)

    # stage 2: each constituent induces irreducibly up to the whole group
    rebuilt: list[tuple[RepOrChar, int]] = []
    for tau, m in stage1:
        tau_ind_values = []
        scale = Cyclo.rational(Fraction(1, len(i_members)))
        for g in range(group.order):
            total = Cyclo.rational(0)
            for x in range(group.order):
                c = group.mul(group.mul(x, g), group.inv(x))
                if c in inertia:
                    total = total + tau.values[i_pos[c]]
            tau_ind_values.append(total * scale)
        tau_ind = RepOrChar(group, tuple(tau_ind_values))
        if hom_mult(tau_ind, tau_ind) != 1:
            return False        # Clifford correspondence must give irreducibles
        rebuilt.append((tau_ind, m))

    def as_multiset(decomp):
        return sorted((tuple(repr(v) for v in c.values), m) for c, m in decomp)

    if as_multiset(direct) != as_multiset(rebuilt):
        return False
    # degree bookkeeping
    index = group.order // len(members)
    if sum(m * c.degree for c, m in direct) != index * rho.degree:
        return False
    return True
