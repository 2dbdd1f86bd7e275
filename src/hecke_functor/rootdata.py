"""
Based root data and their morphisms.

A based root datum is the combinatorial skeleton (X, Phi, X^, Phi^, Delta) of
a connected reductive group: a character lattice X = Z^rank, finite sets of
roots in X and coroots in the dual lattice matched index by index, and a
choice of simple roots.  Morphisms are integer lattice maps; the admissibility
test `is_condition1` picks out the maps whose group-level analogue has central
kernel and commutative cokernel, and `factorize_condition1` splits such a map
into a torus insertion, a central quotient and an isomorphism, exactly on the
lattice level.

Everything is integer arithmetic on tuples; values are immutable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from . import decode as dc
from . import intlattice as il
from .intlattice import IntMatrix

__all__ = [
    "BasedRootDatum", "RDMorphism", "Factorization", "Condition1Verdict",
    "RootDatumError", "build_classical", "torus_datum", "direct_sum",
    "dual", "based_automorphisms", "is_condition1", "factorize_condition1",
]


class RootDatumError(ValueError):
    pass


MAX_CLASSICAL_RANK = 8


@dataclass(frozen=True)
class BasedRootDatum:
    """(X, Phi, X^, Phi^) with a basis Delta; X is always Z^rank."""

    rank: int
    roots: tuple[tuple[int, ...], ...]
    coroots: tuple[tuple[int, ...], ...]
    simples: tuple[int, ...]

    def __post_init__(self):
        roots = tuple(map(tuple, self.roots))
        coroots = tuple(map(tuple, self.coroots))
        simples = tuple(self.simples)
        # canonical ordering of the matched pairs, so that data agreeing as
        # sets of pairs compare equal (e.g. under duality swaps)
        if len(roots) == len(coroots):
            order = sorted(range(len(roots)), key=lambda i: (roots[i], coroots[i]))
            position = {old: new for new, old in enumerate(order)}
            roots = tuple(roots[i] for i in order)
            coroots = tuple(coroots[i] for i in order)
            simples = tuple(position[i] for i in simples)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "coroots", coroots)
        object.__setattr__(self, "simples", simples)

    # -- basic structure ----------------------------------------------------

    def pairing(self, x: tuple[int, ...], covec: tuple[int, ...]) -> int:
        return sum(a * b for a, b in zip(x, covec))

    def cartan(self, i: int, j: int) -> int:
        """<alpha_i, alpha_j^> for root indices i, j."""
        return self.pairing(self.roots[i], self.coroots[j])

    def reflect(self, j: int, x: tuple[int, ...]) -> tuple[int, ...]:
        """s_{alpha_j}(x) = x - <x, alpha_j^> alpha_j."""
        k = self.pairing(x, self.coroots[j])
        return tuple(a - k * b for a, b in zip(x, self.roots[j]))

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {alpha: i for i, alpha in enumerate(self.roots)}

    def root_index(self, vec: tuple[int, ...]) -> int | None:
        return self._index.get(tuple(vec))

    @cached_property
    def _coordinates(self) -> il.SmithForm:
        # one Smith form of the simple roots, as columns, per datum (the datum
        # is immutable); RootDatumError when the simple roots are dependent
        simple = tuple(self.roots[i] for i in self.simples)
        form = il.snf(il.transpose(simple) if simple else il.zeros(self.rank, 0))
        if form.rank < len(simple):
            raise RootDatumError("the simple roots are linearly dependent")
        return form

    def _simple_coords(self, vec: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
        """(num, den) with vec = sum_j num_j / den * alpha_{simples[j]} and
        den > 0, or None if vec is outside the span of the simple roots."""
        form = self._coordinates
        c = il.mat_vec(form[0], vec)
        if any(c[form.rank:]):
            return None
        den = lcm(*form.diagonal)
        return il.mat_vec(form[2], tuple(x * (den // d) for x, d in zip(c, form.diagonal))), den

    def simple_root_coeffs(self, vec: tuple[int, ...]) -> tuple[Fraction, ...] | None:
        """Coefficients of vec on the simple roots, if vec lies in their span."""
        coords = self._simple_coords(vec)
        if coords is None:
            return None
        num, den = coords
        return tuple(Fraction(x, den) for x in num)

    def positive_root_indices(self) -> tuple[int, ...]:
        out = []
        for i, alpha in enumerate(self.roots):
            coords = self._simple_coords(alpha)
            if coords is not None and all(x >= 0 for x in coords[0]):
                out.append(i)
        return tuple(out)

    def is_dominant(self, x: tuple[int, ...]) -> bool:
        return all(self.pairing(x, self.coroots[i]) >= 0 for i in self.simples)

    def components(self) -> list[list[int]]:
        """Partition of the simple indices into irreducible components."""
        simples = list(self.simples)
        adj = {i: set() for i in simples}
        for i, j in itertools.combinations(simples, 2):
            if self.cartan(i, j) != 0:
                adj[i].add(j)
                adj[j].add(i)
        seen, comps = set(), []
        for i in simples:
            if i in seen:
                continue
            comp, stack = [], [i]
            while stack:
                k = stack.pop()
                if k in seen:
                    continue
                seen.add(k)
                comp.append(k)
                stack.extend(adj[k])
            comps.append(sorted(comp))
        return comps

    # -- invariants -----------------------------------------------------------

    def validate(self) -> None:
        """Raise RootDatumError if any datum invariant fails."""
        roots, coroots = self.roots, self.coroots
        n = len(roots)
        if len(coroots) != n:
            raise RootDatumError("roots and coroots must be index-matched")
        index = self._index
        if len(index) != n:
            raise RootDatumError("duplicate roots")
        coroot_set = set(coroots)
        # cartan[i][j] = <alpha_i, alpha_j^>, computed once
        cartan = [[sum(a * b for a, b in zip(alpha, beta_v)) for beta_v in coroots]
                  for alpha in roots]
        for i in range(n):
            if cartan[i][i] != 2:
                raise RootDatumError(f"<alpha, alpha^> != 2 at index {i}")
        negatives = [tuple(-x for x in beta) for beta in roots]
        for i, (alpha, alpha_v) in enumerate(zip(roots, coroots)):
            for j, (beta, beta_v) in enumerate(zip(roots, coroots)):
                c = cartan[i][j]
                if abs(c) > 3 and alpha != beta and alpha != negatives[j]:
                    raise RootDatumError(f"Cartan integer {c} out of range at ({i},{j})")
                # s_j(alpha_i) and s_j(alpha_i^), matched index by index
                k = index.get(tuple(a - c * b for a, b in zip(alpha, beta)))
                if k is None:
                    raise RootDatumError(f"roots not stable under s_{j}")
                c_v = cartan[j][i]
                image_v = tuple(a - c_v * b for a, b in zip(alpha_v, beta_v))
                if coroots[k] != image_v:
                    if image_v not in coroot_set:
                        raise RootDatumError(f"coroots not stable under s_{j}")
                    raise RootDatumError("root/coroot matching not reflection-equivariant")
        for i, alpha in enumerate(roots):
            coords = self._simple_coords(alpha)
            if coords is None:
                raise RootDatumError(f"root {i} outside the span of the simples")
            num, den = coords
            if any(x % den for x in num):
                raise RootDatumError(f"root {i} is not an integer combination of simples")
            if not (all(x >= 0 for x in num) or all(x <= 0 for x in num)):
                raise RootDatumError(f"root {i} has mixed signs on the simples")

    def ensure_valid(self) -> None:
        """validate() once: a datum that passed is marked (`_mark_valid`), as
        are the classical data and the tags' sums, valid by construction; one
        that fails is never marked, so it raises on every call."""
        if not self.__dict__.get("_valid"):
            self.validate()
            _mark_valid(self)

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        return {"rank": self.rank,
                "roots": [list(r) for r in self.roots],
                "coroots": [list(c) for c in self.coroots],
                "simples": list(self.simples)}

    @staticmethod
    def from_json(data) -> "BasedRootDatum":
        """Decode the form `to_json` writes; RootDatumError on any other shape."""
        if not (dc.obj(data) and type(data.get("rank")) is int and data["rank"] >= 0):
            raise RootDatumError('a root datum is an object {"rank": r, "roots": [...], '
                                 '"coroots": [...], "simples": [...]}')
        rank = data["rank"]
        for key in ("roots", "coroots"):
            if not dc.int_rows(data.get(key), rank):
                raise RootDatumError(f"{key} must be a list of vectors of {rank} integers")
        roots, simples = data["roots"], data.get("simples")
        if not (dc.int_list(simples) and all(0 <= i < len(roots) for i in simples)):
            raise RootDatumError(f"simples must be a list of root indices below {len(roots)}")
        return _shared(BasedRootDatum(rank, tuple(map(tuple, roots)),
                                      tuple(map(tuple, data["coroots"])), tuple(simples)))


@lru_cache(maxsize=256)
def _shared(datum: BasedRootDatum) -> BasedRootDatum:
    """The first decoded instance equal to datum, so repeated inputs in one
    process share its tables and validation mark.  Bounded: input is unbounded."""
    return datum


def _mark_valid(datum: BasedRootDatum) -> BasedRootDatum:
    """Mark a datum valid, so that `ensure_valid` skips its validation.  The
    mark is not a field: equality and hashing ignore it."""
    object.__setattr__(datum, "_valid", True)
    return datum


# ---------------------------------------------------------------------------
# construction


def _cartan_matrix(family: str, n: int) -> list[list[int]]:
    """M[i][j] = <alpha_i, alpha_j^> for the classical families."""
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        m[i][i + 1] = m[i + 1][i] = -1
    if family == "B" and n >= 2:
        m[n - 2][n - 1] = -2      # long root paired with short coroot
    elif family == "C" and n >= 2:
        m[n - 1][n - 2] = -2      # long last root
    elif family == "D":
        if n < 3:
            raise RootDatumError("type D needs rank >= 3")
        m[n - 2][n - 1] = m[n - 1][n - 2] = 0
        m[n - 3][n - 1] = m[n - 1][n - 3] = -1
    return m


def _close_under_reflections(datum: BasedRootDatum) -> BasedRootDatum:
    """Orbit closure of the (root, coroot) pairs under the simple reflections,
    breadth-first: each pair found is reflected once by each simple root."""
    simple = [(datum.roots[i], datum.coroots[i]) for i in datum.simples]
    pairs = set(simple)
    frontier = list(pairs)
    while frontier:
        found = []
        for alpha, alpha_v in frontier:
            for beta, beta_v in simple:
                k = sum(a * b for a, b in zip(alpha, beta_v))
                k2 = sum(a * b for a, b in zip(beta, alpha_v))
                pair = (tuple(a - k * b for a, b in zip(alpha, beta)),
                        tuple(a - k2 * b for a, b in zip(alpha_v, beta_v)))
                if pair not in pairs:
                    pairs.add(pair)
                    found.append(pair)
        frontier = found
    ordered = sorted(pairs)
    roots = tuple(p[0] for p in ordered)
    coroots = tuple(p[1] for p in ordered)
    simples = tuple(roots.index(datum.roots[i]) for i in datum.simples)
    return BasedRootDatum(datum.rank, roots, coroots, simples)


def build_classical(family: str, n: int, isogeny: str | None = None) -> BasedRootDatum:
    """Standard based root datum for a classical family at desk scale (n <= 8).

    family in {"A", "B", "C", "D", "GL"}; isogeny in {"sc", "ad"} (ignored
    for GL).  Type A_n here means rank n (the group SL_{n+1} / PGL_{n+1});
    GL means GL_n with X = Z^n.

    >>> build_classical("A", 1, "sc")
    BasedRootDatum(rank=1, roots=((-2,), (2,)), coroots=((-1,), (1,)), simples=(1,))
    """
    return _build_classical(family, n, None if family == "GL" else isogeny)


@lru_cache(maxsize=None)
def _build_classical(family: str, n: int, isogeny: str | None) -> BasedRootDatum:
    # one frozen datum per valid key, built once per process (64 keys are
    # valid) and valid by construction, so never validated; errors
    # are not cached, so a bad key raises on every call.  The public name
    # stays a plain function.
    if family == "GL":
        if not 1 <= n <= MAX_CLASSICAL_RANK:
            raise RootDatumError(f"unsupported rank {n} for GL")
        if n == 1:
            return BasedRootDatum(1, (), (), ())
        roots = []
        for i in range(n):
            for j in range(n):
                if i != j:
                    v = [0] * n
                    v[i], v[j] = 1, -1
                    roots.append(tuple(v))
        roots = tuple(sorted(roots))
        simples = []
        for i in range(n - 1):
            v = [0] * n
            v[i], v[i + 1] = 1, -1
            simples.append(roots.index(tuple(v)))
        return _mark_valid(BasedRootDatum(n, roots, roots, tuple(simples)))

    if family not in ("A", "B", "C", "D"):
        raise RootDatumError(f"unsupported family {family!r}")
    min_rank = {"A": 1, "B": 2, "C": 2, "D": 3}[family]
    if not min_rank <= n <= MAX_CLASSICAL_RANK:
        raise RootDatumError(f"unsupported family/rank combination {family}_{n}")
    if isogeny not in ("sc", "ad"):
        raise RootDatumError(f"unsupported isogeny {isogeny!r}")
    m = _cartan_matrix(family, n)
    if isogeny == "sc":
        # X = weight lattice in the fundamental-weight basis
        simple_roots = [tuple(m[j][i] for i in range(n)) for j in range(n)]
        simple_coroots = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
    else:
        # X = root lattice in the simple-root basis
        simple_roots = [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]
        simple_coroots = [tuple(m[i][j] for i in range(n)) for j in range(n)]
    seed = BasedRootDatum(n, tuple(simple_roots), tuple(simple_coroots),
                          tuple(range(n)))
    return _mark_valid(_close_under_reflections(seed))


def torus_datum(r: int) -> BasedRootDatum:
    """Datum of a rank-r torus: no roots."""
    if r < 0:
        raise RootDatumError("rank must be nonnegative")
    return BasedRootDatum(r, (), (), ())


def direct_sum(*data: BasedRootDatum) -> BasedRootDatum:
    """Product of groups = direct sum of data, blocks in the given order."""
    rank = sum(d.rank for d in data)
    roots, coroots, simples = [], [], []
    offset = 0
    for d in data:
        for i, (a, av) in enumerate(zip(d.roots, d.coroots)):
            vec = (0,) * offset + a + (0,) * (rank - offset - d.rank)
            cov = (0,) * offset + av + (0,) * (rank - offset - d.rank)
            roots.append(vec)
            coroots.append(cov)
        base = len(roots) - len(d.roots)
        simples.extend(base + i for i in d.simples)
        offset += d.rank
    return BasedRootDatum(rank, tuple(roots), tuple(coroots), tuple(simples))


def dual(datum: BasedRootDatum) -> BasedRootDatum:
    """Swap (X, Phi) with (X^, Phi^); an involution on the nose.

    >>> dual(build_classical("A", 1, "sc")) == build_classical("A", 1, "ad")
    True
    """
    return BasedRootDatum(datum.rank, datum.coroots, datum.roots, datum.simples)


# ---------------------------------------------------------------------------
# morphisms


@dataclass(frozen=True)
class RDMorphism:
    """Lattice-level morphism from the group of `source` to the group of `target`.

    `char_map` sends target characters to source characters (contravariant);
    the cocharacter map is its transpose.
    """

    source: BasedRootDatum
    target: BasedRootDatum
    char_map: IntMatrix

    def __post_init__(self):
        char_map = tuple(map(tuple, self.char_map))
        object.__setattr__(self, "char_map", char_map)
        s, t = self.source.rank, self.target.rank
        if len(char_map) != s or any(len(row) != t for row in char_map):
            raise RootDatumError(f"char_map must be a {s} x {t} integer matrix")

    @property
    def cochar_map(self) -> IntMatrix:
        return il.transpose(self.char_map) if self.char_map else \
            il.zeros(self.target.rank, self.source.rank)

    def apply_char(self, x: tuple[int, ...]) -> tuple[int, ...]:
        if self.source.rank == 0:
            return ()
        return il.mat_vec(self.char_map, x)

    def apply_cochar(self, y: tuple[int, ...]) -> tuple[int, ...]:
        if self.target.rank == 0:
            return ()
        return il.mat_vec(self.cochar_map, y)

    def compose(self, then: "RDMorphism") -> "RDMorphism":
        """self : A -> B followed by then : B -> C, giving A -> C."""
        if then.source is not self.target and then.source != self.target:
            raise RootDatumError("morphisms not composable")
        if self.source.rank == 0 or then.target.rank == 0:
            char = il.zeros(self.source.rank, then.target.rank)
        else:
            char = il.mat_mul(self.char_map, then.char_map)
        return RDMorphism(self.source, then.target, char)

    @staticmethod
    def identity(datum: BasedRootDatum) -> "RDMorphism":
        return RDMorphism(datum, datum, il.identity(datum.rank))

    def to_json(self):
        return {"char_map": [list(r) for r in self.char_map],
                "cochar_map": [list(r) for r in self.cochar_map],
                "source": self.source.to_json(),
                "target": self.target.to_json()}

    @staticmethod
    def from_json(data) -> "RDMorphism":
        """Decode the form `to_json` writes; RootDatumError on any other shape."""
        if not (dc.obj(data) and all(k in data for k in ("source", "target", "char_map"))):
            raise RootDatumError('a morphism is an object {"source": datum, '
                                 '"target": datum, "char_map": [[...], ...]}')
        source = BasedRootDatum.from_json(data["source"])
        target = BasedRootDatum.from_json(data["target"])
        if not dc.int_rows(data["char_map"]):
            raise RootDatumError(f"char_map must be a {source.rank} x {target.rank} "
                                 "integer matrix")
        return RDMorphism(source, target, data["char_map"])


@dataclass(frozen=True)
class Condition1Verdict:
    ok: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self):
        return self.ok


def is_condition1(f: RDMorphism) -> Condition1Verdict:
    """Admissibility: does the morphism restrict to a matched bijection of roots?

    True iff char_map carries the target roots bijectively onto the source
    roots, the transpose carries the matched source coroots back onto the
    target coroots, and simples go to simples.  This is the lattice shadow of
    "central kernel and commutative cokernel".
    """
    reasons = []
    match = {}
    hit = set()
    for j, beta in enumerate(f.target.roots):
        img = f.apply_char(beta)
        i = f.source.root_index(img)
        if i is None:
            reasons.append(f"target root {beta} maps to non-root {img}")
            continue
        if i in hit:
            reasons.append(f"source root {f.source.roots[i]} hit twice")
            continue
        hit.add(i)
        match[j] = i
    if len(match) == len(f.target.roots) and len(hit) < len(f.source.roots):
        reasons.append("some source roots are not hit (cokernel would carry roots)")
    for j, i in match.items():
        if f.apply_cochar(f.source.coroots[i]) != f.target.coroots[j]:
            reasons.append(f"coroot matching fails for target root index {j}")
    if not reasons:
        simple_targets = {match[j] for j in f.target.simples}
        if simple_targets != set(f.source.simples):
            reasons.append("simples are not carried to simples")
    return Condition1Verdict(not reasons, tuple(reasons))


@dataclass(frozen=True)
class Factorization:
    """f = f3 o f2 o f1: torus insertion, central quotient, isomorphism."""

    f1: RDMorphism            # source -> source x torus
    f2: RDMorphism            # source x torus -> quotient datum
    f3: RDMorphism            # quotient datum -> target (an isomorphism)
    torus_rank: int
    kernel_invariants: tuple[int, ...]   # cyclic decomposition of the central kernel

    def recompose(self) -> RDMorphism:
        return self.f1.compose(self.f2).compose(self.f3)


def factorize_condition1(f: RDMorphism) -> Factorization:
    """Split an admissible morphism as torus insertion o central quotient o iso.

    The complementary torus is chosen deterministically through Smith normal
    form.  Recomposition reproduces `f.char_map` exactly and each stage passes
    `is_condition1`.
    """
    verdict = is_condition1(f)
    if not verdict:
        raise RootDatumError("not an admissible morphism: " + "; ".join(verdict.reasons))
    a = f.char_map
    s, t = f.source.rank, f.target.rank
    if t == 0:
        a = il.zeros(s, 0)
    # rank of the map and the complementary torus rank
    if t == 0:
        ker = []
    elif s == 0:
        ker = [tuple(row) for row in il.identity(t)]
    else:
        ker = il.kernel_basis(a)
    c = len(ker)

    # choose the projection P : Z^t -> Z^c vanishing on the target roots
    # and injective on ker(a): first quotient by the saturated root span,
    # then take coordinates along the image of the kernel.
    root_span = il.saturation_basis([list(r) for r in f.target.roots], t)
    rho = len(root_span)
    if rho:
        span_matrix = il.transpose(tuple(root_span))
        u, d, _ = il.snf(span_matrix)
        # rows rho..t-1 of u are coordinates on Z^t / sat(root span)
        q_map = u[rho:]
    else:
        q_map = il.identity(t)
    if c:
        k_matrix = il.transpose(tuple(ker))
        qk = il.mat_mul(q_map, k_matrix) if q_map else il.zeros(0, c)
        u2, d2, _ = il.snf(qk)
        pi = u2[:c]
        p_map = il.mat_mul(pi, q_map)
    else:
        p_map = il.zeros(0, t)

    b_rows = tuple(a) + tuple(p_map)           # (s + c) x t, injective, finite cokernel
    b = tuple(tuple(r) for r in b_rows)
    b_form = il.snf(b)

    # lattice of the quotient group: the column span of b inside Z^(s+c)
    basis = b_form.column_basis()
    m_matrix = il.transpose(tuple(basis)) if basis else il.zeros(s + c, 0)
    m_system = il.snf(m_matrix)

    # f3 char map: coordinates of the columns of b in the chosen basis
    f3_cols = []
    for col in il.transpose(b):
        x = m_system.solve(col)
        if x is None:
            raise RootDatumError("internal: image column outside its own span")
        f3_cols.append(x)
    f3_map = il.transpose(tuple(f3_cols)) if f3_cols else il.zeros(t, t)

    # intermediate data
    prod_datum = direct_sum(f.source, torus_datum(c))
    mid_roots, mid_coroots = [], []
    for alpha, alpha_v in zip(f.source.roots, f.source.coroots):
        padded = tuple(alpha) + (0,) * c
        x = m_system.solve(padded)
        if x is None:
            raise RootDatumError("internal: root not a character of the quotient")
        mid_roots.append(x)
        mid_coroots.append(il.mat_vec(il.transpose(m_matrix), tuple(alpha_v) + (0,) * c)
                           if t else ())
    # mid roots sit in the same order as the source roots, so the simple
    # indices carry over unchanged
    mid_datum = BasedRootDatum(t, tuple(mid_roots), tuple(mid_coroots),
                               tuple(f.source.simples))

    f1 = RDMorphism(f.source, prod_datum,
                    tuple(tuple(1 if i == j else 0 for j in range(s + c))
                          for i in range(s)))
    f2 = RDMorphism(prod_datum, mid_datum, m_matrix)
    f3 = RDMorphism(mid_datum, f.target, f3_map)

    # invariants of the finite central kernel: cokernel of b
    invariants = tuple(x for x in b_form.diagonal if x not in (0, 1))

    fact = Factorization(f1, f2, f3, c, invariants)
    if fact.recompose().char_map != f.char_map:
        raise RootDatumError("internal: factorization does not recompose")
    return fact


# ---------------------------------------------------------------------------
# automorphisms


def based_automorphisms(datum: BasedRootDatum) -> list[RDMorphism]:
    """All lattice automorphisms preserving roots, coroots, matching and Delta.

    Raises when the group could be infinite: that happens exactly when the
    lattice has a complement of rank >= 2 on top of the span of the roots.
    """
    r = datum.rank
    if r == 0:
        return [RDMorphism.identity(datum)]
    root_span = il.saturation_basis([list(x) for x in datum.roots], r)
    corank = r - len(root_span)
    if corank > 1:
        raise RootDatumError("possibly infinite automorphism group "
                             f"(root-span corank {corank} > 1)")

    simples = list(datum.simples)
    k = len(simples)
    root_set = set(datum.roots)

    candidates = []
    for perm in itertools.permutations(range(k)):
        if all(datum.cartan(simples[i], simples[j])
               == datum.cartan(simples[perm[i]], simples[perm[j]])
               for i in range(k) for j in range(k)):
            candidates.append(perm)

    out = []
    seen = set()
    for perm in candidates:
        # unknowns: g as an r x r integer matrix, flattened row-major
        rows, rhs = [], []
        for idx, i in enumerate(simples):
            alpha = datum.roots[i]
            alpha_img = datum.roots[simples[perm[idx]]]
            for row_i in range(r):
                eq = [0] * (r * r)
                for col_j in range(r):
                    eq[row_i * r + col_j] = alpha[col_j]
                rows.append(tuple(eq))
                rhs.append(alpha_img[row_i])
        for idx, i in enumerate(simples):
            alpha_v = datum.coroots[i]
            alpha_v_img = datum.coroots[simples[perm[idx]]]
            # condition g^T(alpha_v_img) = alpha_v, i.e. alpha_v_img . g = alpha_v
            for col_j in range(r):
                eq = [0] * (r * r)
                for row_i in range(r):
                    eq[row_i * r + col_j] = alpha_v_img[row_i]
                rows.append(tuple(eq))
                rhs.append(alpha_v[col_j])
        system = il.snf(tuple(rows))
        x0 = system.solve(tuple(rhs))
        if x0 is None:
            continue
        free = system.kernel()
        if len(free) > 1:
            raise RootDatumError("possibly infinite automorphism group")

        def as_matrix(vec):
            return tuple(tuple(vec[i * r + j] for j in range(r)) for i in range(r))

        solutions = []
        if not free:
            solutions.append(as_matrix(x0))
        else:
            h = free[0]
            # determinant is affine in the 1-dimensional free direction
            d0 = il.det(as_matrix(x0))
            d1 = il.det(as_matrix(tuple(p + q for p, q in zip(x0, h))))
            slope = d1 - d0
            for target in (1, -1):
                if slope == 0:
                    if d0 == target:
                        solutions.append(as_matrix(x0))
                elif (target - d0) % slope == 0:
                    kk = (target - d0) // slope
                    solutions.append(as_matrix(tuple(p + kk * q for p, q in zip(x0, h))))
        for g in solutions:
            if abs(il.det(g)) != 1:
                continue
            if any(tuple(il.mat_vec(g, a)) not in root_set for a in datum.roots):
                continue
            if g in seen:
                continue
            mor = RDMorphism(datum, datum, g)
            if is_condition1(mor):
                seen.add(g)
                out.append(mor)
    return out


if __name__ == "__main__":
    import doctest
    doctest.testmod()
