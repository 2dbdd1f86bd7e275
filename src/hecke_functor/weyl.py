"""
Weyl groups and extended affine Weyl groups of a based root datum.

The finite Weyl group is enumerated once per datum (desk scale, |W| <= 1e5)
with reduced words attached.  Elements of the extended affine group X x| W
are translation/finite pairs t_x * w; their length is

    l(t_x w) = sum_{a > 0, w^-1 a > 0} |<x, a^>|
             + sum_{a > 0, w^-1 a < 0} |<x, a^> - 1|,

the convention under which the simple affine reflection attached to a
component is t_theta s_theta for the dominant short root theta.  The
alternative convention (offset +1 on the second sum) is not used anywhere;
`LENGTH_POLICY` records the choice so cross-checks against other sources
know what to compare.

Lengths are read from tables of root indices, not from matrices.  Each
element w gets, on first use, its root row (row[i] = index of w(alpha_i))
and its inversion row (a 0/1 flag per positive root a: is w^-1 a < 0?),
both built along w's reduced word, so that a single request touches l(w) + 1
rows and never a |W| x |Phi| table.  The length is then the sum, over the
positive roots, of |<x, a^> - flag(a)|: the formula above under
`LENGTH_POLICY`, with the offset -1 exactly on the inversion row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from . import decode as dc
from . import intlattice as il
from .intlattice import IntMatrix
from .rootdata import BasedRootDatum, RootDatumError

__all__ = [
    "LENGTH_POLICY", "Eig", "WeylElt", "ExtAffineElt", "WeylGroup",
    "PointStabilizer", "reflect", "enumerate_weyl", "length",
    "stabilizer_of_point", "omega_subgroup", "affine_simple_reflections",
]

LENGTH_POLICY = "offset -1 on positive roots made negative by w^-1"

WEYL_SIZE_GUARD = 100_000


def reflect(datum: BasedRootDatum, root_index: int, x: tuple[int, ...]) -> tuple[int, ...]:
    """s_alpha(x) = x - <x, alpha^> alpha for the root at root_index."""
    if not 0 <= root_index < len(datum.roots):
        raise IndexError("invalid root index")
    return datum.reflect(root_index, tuple(x))


def _reflection_matrix(datum: BasedRootDatum, root_index: int) -> IntMatrix:
    r = datum.rank
    alpha = datum.roots[root_index]
    alpha_v = datum.coroots[root_index]
    return tuple(tuple((1 if i == j else 0) - alpha[i] * alpha_v[j]
                       for j in range(r)) for i in range(r))


@dataclass(frozen=True)
class WeylElt:
    """A finite Weyl group element: its matrix on X and a reduced word.

    The word lists positions into the datum's simple roots.
    """
    matrix: IntMatrix
    word: tuple[int, ...]

    def __len__(self):
        return len(self.word)


@dataclass(frozen=True)
class ExtAffineElt:
    """t_x * w in the extended affine group X x| W."""
    translation: tuple[int, ...]
    finite: WeylElt

    def to_json(self):
        return {"t": list(self.translation), "w_word": list(self.finite.word)}


class WeylGroup:
    """Enumerated finite Weyl group of a datum, with generator tables.

    >>> from hecke_functor.rootdata import build_classical
    >>> w = WeylGroup.build(build_classical("A", 2, "sc"))
    >>> w.order
    6
    """

    def __init__(self, datum: BasedRootDatum):
        self.datum = datum
        r = datum.rank
        self.simple_positions = list(range(len(datum.simples)))
        simples = [(datum.roots[i], datum.coroots[i]) for i in datum.simples]
        ident = il.identity(r)
        self.matrices: list[IntMatrix] = [ident]
        self.words: list[tuple[int, ...]] = [()]
        self.index: dict[IntMatrix, int] = {ident: 0}
        # right_mult[i][j] = index of element_i * s_j; the elements are walked
        # in the order they are found, so indices and words are breadth-first
        self.right_mult: list[list[int]] = []
        i = 0
        while i < len(self.matrices):
            m = self.matrices[i]
            row = []
            for j, (alpha, alpha_v) in enumerate(simples):
                # (w s_j) x = w x - <x, a_j^> w(a_j): rank-one update of m
                w_alpha = il.mat_vec(m, alpha)
                prod = tuple(tuple(m[a][b] - w_alpha[a] * alpha_v[b]
                                   for b in range(r)) for a in range(r))
                k = self.index.get(prod)
                if k is None:
                    k = self.index[prod] = len(self.matrices)
                    self.matrices.append(prod)
                    self.words.append(self.words[i] + (j,))
                    if len(self.matrices) > WEYL_SIZE_GUARD:
                        raise RootDatumError("Weyl group larger than the desk guard")
                row.append(k)
            self.right_mult.append(row)
            i += 1
        self.order = len(self.matrices)
        self.positive_indices = datum.positive_root_indices()
        self._inv: list[int] | None = None
        # rows of the elements met so far, each built along its reduced word
        self._rows: dict[int, tuple[int, ...]] = {0: tuple(range(len(datum.roots)))}
        self._inversions: dict[int, tuple[int, ...]] = {}

    # The root tables, built on first use (most users of a group never ask
    # for a length); the datum is valid, so every root lookup hits.

    @cached_property
    def slot(self) -> dict[int, int]:
        """slot[i] = position of the positive root i in positive_indices."""
        return {i: k for k, i in enumerate(self.positive_indices)}

    @cached_property
    def positive_coroots(self) -> list[tuple[int, ...]]:
        return [self.datum.coroots[i] for i in self.positive_indices]

    @cached_property
    def _negative(self) -> list[int]:
        """_negative[i] = index of -alpha_i."""
        return [self.datum.root_index(tuple(-v for v in alpha)) for alpha in self.datum.roots]

    @cached_property
    def _refl(self) -> list[list[int]]:
        """_refl[j][i] = index of s_j(alpha_i) for the j-th simple reflection."""
        datum = self.datum
        return [[datum.root_index(datum.reflect(i, alpha)) for alpha in datum.roots]
                for i in datum.simples]

    @classmethod
    def build(cls, datum: BasedRootDatum) -> "WeylGroup":
        """The group of a datum, validated (unless valid by construction) and
        enumerated once, then cached."""
        return _build_group(datum)

    # -- element access -------------------------------------------------------

    def element(self, i: int) -> WeylElt:
        return WeylElt(self.matrices[i], self.words[i])

    def elements(self) -> list[WeylElt]:
        return [self.element(i) for i in range(self.order)]

    def index_of(self, elt: WeylElt | IntMatrix) -> int:
        m = elt.matrix if isinstance(elt, WeylElt) else tuple(map(tuple, elt))
        return self.index[m]

    def index_of_word(self, word) -> int:
        """Index of s_{word[0]} ... s_{word[-1]}, the letters being positions
        of simple reflections (`decode.weyl_word` checks a word from outside)."""
        i = 0
        for s in word:
            i = self.right_mult[i][s]
        return i

    def mul(self, i: int, j: int) -> int:
        for s in self.words[j]:
            i = self.right_mult[i][s]
        return i

    def inv(self, i: int) -> int:
        if self._inv is None:
            inv = []
            for k in range(self.order):
                acc = 0
                for s in reversed(self.words[k]):
                    acc = self.right_mult[acc][s]
                inv.append(acc)
            self._inv = inv
        return self._inv[i]

    def act(self, i: int, x: tuple[int, ...]) -> tuple[int, ...]:
        return il.mat_vec(self.matrices[i], x)

    def row(self, i: int) -> tuple[int, ...]:
        """The root row of element i: row(i)[k] is the index of w_i(alpha_k).

        Built, with the rows of the prefixes of w_i's reduced word, from
        row(w s_j)[k] = row(w)[refl_j[k]]; each prefix of a stored word is
        the stored word of that prefix's element."""
        rows = self._rows
        got = rows.get(i)
        if got is None:
            got, at = rows[0], 0
            for s in self.words[i]:
                at = self.right_mult[at][s]
                prefix = rows.get(at)
                if prefix is None:
                    refl = self._refl[s]
                    prefix = rows[at] = tuple(got[k] for k in refl)
                got = prefix
        return got

    def inversions(self, i: int) -> tuple[int, ...]:
        """The inversion row of element i: one 0/1 flag per positive root a
        (in the order of positive_indices), 1 when w_i^-1 a < 0.

        Those a are the -w_i(b) for the positive b that w_i makes negative."""
        got = self._inversions.get(i)
        if got is None:
            row, slot, negative = self.row(i), self.slot, self._negative
            flags = [0] * len(self.positive_indices)
            for b in self.positive_indices:
                image = row[b]
                if image not in slot:
                    flags[slot[negative[image]]] = 1
            got = self._inversions[i] = tuple(flags)
        return got


@lru_cache(maxsize=256)
def _build_group(datum: BasedRootDatum) -> WeylGroup:
    # bounded, since data read from JSON are unbounded; a datum not valid by
    # construction is validated, so an invalid one is refused before
    # enumeration, whose reflections may generate an infinite group with
    # exponentially growing entries
    datum.ensure_valid()
    return WeylGroup(datum)


def enumerate_weyl(datum: BasedRootDatum) -> list[WeylElt]:
    """All Weyl group elements, each with a reduced word."""
    return WeylGroup.build(datum).elements()


# ---------------------------------------------------------------------------
# lengths in the extended affine group


def length(elt: ExtAffineElt, datum: BasedRootDatum) -> int:
    """Length of t_x w under LENGTH_POLICY."""
    x = elt.translation
    if len(x) != datum.rank or any(type(v) is not int for v in x):
        raise RootDatumError(f"translation must be {datum.rank} integers")
    group = WeylGroup.build(datum)
    try:
        wi = group.index_of(elt.finite)
    except KeyError:
        raise RootDatumError("finite part is not a Weyl element of this datum")
    return _length_indexed(group, tuple(elt.translation), wi)


def _length_indexed(group: WeylGroup, x: tuple[int, ...], wi: int) -> int:
    # sum over the positive roots a of |<x, a^> - 1| on the inversion row
    # (w^-1 a < 0) and |<x, a^>| off it
    total = 0
    for coroot, flag in zip(group.positive_coroots, group.inversions(wi)):
        total += abs(sum(p * q for p, q in zip(x, coroot)) - flag)
    return total


def affine_simple_reflections(datum: BasedRootDatum) -> list[ExtAffineElt]:
    """The finite simple reflections plus one affine node per component.

    The affine node of a component is t_theta s_theta for the dominant root
    theta of the component with l(t_theta s_theta) = 1 (the dominant short
    root); together with the simples these generate the affine Coxeter group
    whose cosets the length-zero elements represent.
    """
    group = WeylGroup.build(datum)
    zero = (0,) * datum.rank
    out = [ExtAffineElt(zero, group.element(group.right_mult[0][j]))
           for j in range(len(datum.simples))]
    for comp in datum.components():
        comp_set = set(comp)
        nodes = []
        for i, theta in enumerate(datum.roots):
            coeffs = datum.simple_root_coeffs(theta)
            support = {datum.simples[j] for j, c in enumerate(coeffs) if c}
            if not (support and support <= comp_set and datum.is_dominant(theta)):
                continue
            refl_idx = group.index[_reflection_matrix(datum, i)]
            if _length_indexed(group, theta, refl_idx) == 1:
                nodes.append(ExtAffineElt(theta, group.element(refl_idx)))
        if len(nodes) != 1:
            raise RootDatumError(
                f"expected one affine node for component {comp}, found {len(nodes)}")
        out.extend(nodes)
    return out


# ---------------------------------------------------------------------------
# dual-torus points


@dataclass(frozen=True)
class Eig:
    """One exact coordinate of a dual-torus point: q^q_exp times e^(2 pi i angle).

    The angle is stored reduced to [0, 1).
    """
    q_exp: Fraction = Fraction(0)
    angle: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "q_exp", Fraction(self.q_exp))
        object.__setattr__(self, "angle", Fraction(self.angle) % 1)

    def __mul__(self, other: "Eig") -> "Eig":
        return Eig(self.q_exp + other.q_exp, self.angle + other.angle)

    def __truediv__(self, other: "Eig") -> "Eig":
        return Eig(self.q_exp - other.q_exp, self.angle - other.angle)

    def __pow__(self, k: int) -> "Eig":
        return Eig(self.q_exp * k, self.angle * k)

    def is_one(self) -> bool:
        return self.q_exp == 0 and self.angle == 0

    def to_json(self):
        return {"q": str(self.q_exp), "angle": str(self.angle)}

    @staticmethod
    def from_json(data) -> "Eig":
        """Decode the form `to_json` writes; ValueError on any other shape."""
        if not (dc.obj(data) and all(type(data.get(k)) in (int, str) for k in ("q", "angle"))):
            raise ValueError('an eigenvalue is an object {"q": "p/q", "angle": "p/q"}')
        try:
            return Eig(Fraction(data["q"]), Fraction(data["angle"]))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in the eigenvalue {data!r}") from None

    @staticmethod
    def root_of_unity(a: int, n: int) -> "Eig":
        return Eig(Fraction(0), Fraction(a, n))


@dataclass(frozen=True)
class PointStabilizer:
    elements: tuple[WeylElt, ...]
    generators: tuple[WeylElt, ...]

    @property
    def order(self) -> int:
        return len(self.elements)


def stabilizer_of_point(datum: BasedRootDatum, point: tuple[Eig, ...], *,
                        projective: bool = False) -> PointStabilizer:
    """Setwise stabilizer of an exact dual-torus point in the Weyl group.

    With projective=True the point is taken modulo the (rank-one) sublattice
    of W-invariant directions, e.g. modulo scalars on a GL-type datum.
    """
    group = WeylGroup.build(datum)
    point = tuple(point)
    if len(point) != datum.rank:
        raise ValueError("point has wrong length")
    inv_dir = None
    if projective:
        inv_dirs = _invariant_directions(group)
        if len(inv_dirs) != 1:
            raise RootDatumError(
                f"projective stabilizer needs a rank-1 invariant sublattice, got rank {len(inv_dirs)}")
        inv_dir = inv_dirs[0]
    den, qs, angles = _integer_point(point)
    # (w t)(x) = t(w^-1 x): additively, the transpose of w^-1 acts on the
    # numerators
    members = [i for i in range(group.order)
               if _moves_within(group.matrices[group.inv(i)], den, qs, angles, inv_dir)]
    gens = _small_generating_set(group, members)
    return PointStabilizer(tuple(group.element(i) for i in members),
                           tuple(group.element(i) for i in gens))


def _invariant_directions(group: WeylGroup) -> list[tuple[int, ...]]:
    """Basis of the saturated sublattice of X fixed by all of W."""
    datum = group.datum
    rows = []
    for i in datum.simples:
        rows.append(datum.coroots[i])
    if not rows:
        return [tuple(r) for r in il.identity(datum.rank)]
    return il.kernel_basis(tuple(rows))


def _integer_point(point: tuple[Eig, ...]) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(den, qs, angles): point[k] = q^(qs[k] / den) e^(2 pi i angles[k] / den)."""
    den = lcm(*(f.denominator for e in point for f in (e.q_exp, e.angle)))
    return (den, tuple(e.q_exp.numerator * (den // e.q_exp.denominator) for e in point),
            tuple(e.angle.numerator * (den // e.angle.denominator) for e in point))


def _moves_within(m: IntMatrix, den: int, qs: tuple[int, ...], angles: tuple[int, ...],
                  direction: tuple[int, ...] | None) -> bool:
    """Does the transpose of m send the point (den, qs, angles) to itself, or
    with a direction to the point times lambda^direction for one scalar
    lambda?  Angles are compared modulo den, all in integers."""
    r = len(qs)
    dq = [sum(m[k][j] * qs[k] for k in range(r)) - qs[j] for j in range(r)]
    da = [sum(m[k][j] * angles[k] for k in range(r)) - angles[j] for j in range(r)]
    pivot = next((k for k, d in enumerate(direction) if d), None) if direction else None
    if pivot is None:
        return not any(dq) and all(a % den == 0 for a in da)
    d0 = direction[pivot]
    # lambda = q^(dq[pivot] / (d0 den)) e^(2 pi i (rest + s den) / (d0 den)):
    # one q-exponent and |d0| candidate angles
    if any(x * d0 != d * dq[pivot] for x, d in zip(dq, direction)):
        return False
    rest, modulus = da[pivot] % den, d0 * den
    return any(all((d * (rest + s * den) - d0 * a) % modulus == 0
                   for a, d in zip(da, direction))
               for s in range(abs(d0)))


def _small_generating_set(group: WeylGroup, members: list[int]) -> list[int]:
    member_set = set(members)
    gens: list[int] = []
    closure = {0}
    for i in sorted(members, key=lambda k: len(group.words[k])):
        if i in closure:
            continue
        gens.append(i)
        # regenerate the closure
        closure = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = group.mul(a, g)
                    if b not in closure:
                        closure.add(b)
                        nxt.append(b)
            frontier = nxt
        if closure == member_set:
            break
    return gens


# ---------------------------------------------------------------------------
# length-zero elements


def omega_subgroup(datum: BasedRootDatum) -> list[ExtAffineElt]:
    """All length-zero elements with translation inside the saturated root span.

    For a semisimple datum this is the whole stabilizer of the fundamental
    alcove, a finite group isomorphic to X / Z.Phi; reductive data also have
    a free part (shift-like elements whose translation leaves the root span),
    which is deliberately not enumerated here.
    """
    group = WeylGroup.build(datum)
    r = datum.rank
    if r == 0 or not datum.roots:
        return [ExtAffineElt((0,) * r, group.element(0))]
    sat = il.saturation_basis([list(x) for x in datum.roots], r)
    sat_matrix = il.transpose(tuple(sat))
    out = []
    simple_slots = [group.slot[i] for i in datum.simples]
    # <x, a_i^> = target_i with x = sat * y, one Smith form for every w
    system = il.snf(tuple(tuple(sum(sat_matrix[k][j] * cv[k] for k in range(r))
                                for j in range(len(sat)))
                          for cv in (datum.coroots[i] for i in datum.simples)))
    for wi in range(group.order):
        # <x, a_i^> = 1 exactly where w^-1 a_i < 0
        flags = group.inversions(wi)
        y = system.solve(tuple(flags[k] for k in simple_slots))
        if y is None:
            continue
        x = il.mat_vec(sat_matrix, y)
        if _length_indexed(group, x, wi) == 0:
            out.append(ExtAffineElt(x, group.element(wi)))
    return out


if __name__ == "__main__":
    import doctest
    doctest.testmod()
