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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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

    _cache: dict[BasedRootDatum, "WeylGroup"] = {}

    def __init__(self, datum: BasedRootDatum):
        self.datum = datum
        r = datum.rank
        self.simple_positions = list(range(len(datum.simples)))
        gens = [_reflection_matrix(datum, i) for i in datum.simples]
        ident = il.identity(r)
        self.matrices: list[IntMatrix] = [ident]
        self.words: list[tuple[int, ...]] = [()]
        self.index: dict[IntMatrix, int] = {ident: 0}
        # right_mult[i][j] = index of element_i * s_j
        self.right_mult: list[list[int]] = []
        frontier = [0]
        while frontier:
            new_frontier = []
            for i in frontier:
                m = self.matrices[i]
                for j, g in enumerate(gens):
                    # (w s_j) x = w x - <x, a_j^> w(a_j): rank-one update of m
                    alpha = datum.roots[datum.simples[j]]
                    alpha_v = datum.coroots[datum.simples[j]]
                    w_alpha = il.mat_vec(m, alpha)
                    prod = tuple(tuple(m[a][b] - w_alpha[a] * alpha_v[b]
                                       for b in range(r)) for a in range(r))
                    if prod not in self.index:
                        self.index[prod] = len(self.matrices)
                        self.matrices.append(prod)
                        self.words.append(self.words[i] + (j,))
                        new_frontier.append(self.index[prod])
                        if len(self.matrices) > WEYL_SIZE_GUARD:
                            raise RootDatumError("Weyl group larger than the desk guard")
            frontier = new_frontier
        self.order = len(self.matrices)
        for i, m in enumerate(self.matrices):
            row = []
            for j, g in enumerate(gens):
                alpha = datum.roots[datum.simples[j]]
                alpha_v = datum.coroots[datum.simples[j]]
                w_alpha = il.mat_vec(m, alpha)
                prod = tuple(tuple(m[a][b] - w_alpha[a] * alpha_v[b]
                                   for b in range(r)) for a in range(r))
                row.append(self.index[prod])
            self.right_mult.append(row)
        self.positive_indices = datum.positive_root_indices()
        self._pos_set = set(self.positive_indices)
        self._inv: list[int] | None = None

    def positive_set(self) -> set:
        return self._pos_set

    @classmethod
    def build(cls, datum: BasedRootDatum) -> "WeylGroup":
        if datum not in cls._cache:
            cls._cache[datum] = cls(datum)
        return cls._cache[datum]

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
        of simple reflections; raises ValueError on a letter out of range."""
        if not isinstance(word, (list, tuple)):
            raise ValueError("a Weyl word is a list of simple-reflection positions")
        i = 0
        for s in word:
            if type(s) is not int or not 0 <= s < len(self.simple_positions):
                raise ValueError(f"Weyl word letter {s!r} is not a simple-reflection "
                                 f"position below {len(self.simple_positions)}")
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
    datum = group.datum
    winv = group.inv(wi)
    total = 0
    for i in group.positive_indices:
        alpha = datum.roots[i]
        k = datum.pairing(x, datum.coroots[i])
        pre_image = group.act(winv, alpha)
        # sign of w^-1(alpha): positive iff it is again a positive root
        if datum.root_index(pre_image) in group.positive_set():
            total += abs(k)
        else:
            total += abs(k - 1)
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
            if not support or not support <= comp_set:
                continue
            if not datum.is_dominant(theta):
                continue
            refl = group.element(group.index[_reflection_matrix(datum, i)])
            cand = ExtAffineElt(theta, refl)
            if _length_indexed(group, theta, group.index_of(refl)) == 1:
                nodes.append((i, cand))
        if len(nodes) != 1:
            raise RootDatumError(
                f"expected one affine node for component {comp}, found {len(nodes)}")
        out.append(nodes[0][1])
    return out


def affine_node_roots(datum: BasedRootDatum) -> dict[int, int]:
    """Map component position -> root index of its affine node's root."""
    group = WeylGroup.build(datum)
    out = {}
    for c, comp in enumerate(datum.components()):
        comp_set = set(comp)
        for i, theta in enumerate(datum.roots):
            coeffs = datum.simple_root_coeffs(theta)
            support = {datum.simples[j] for j, cf in enumerate(coeffs) if cf}
            if support and support <= comp_set and datum.is_dominant(theta):
                refl_idx = group.index[_reflection_matrix(datum, i)]
                if _length_indexed(group, theta, refl_idx) == 1:
                    out[c] = i
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
        if not (isinstance(data, dict)
                and all(type(data.get(k)) in (int, str) for k in ("q", "angle"))):
            raise ValueError('an eigenvalue is an object {"q": "p/q", "angle": "p/q"}')
        try:
            return Eig(Fraction(data["q"]), Fraction(data["angle"]))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in the eigenvalue {data!r}") from None

    @staticmethod
    def root_of_unity(a: int, n: int) -> "Eig":
        return Eig(Fraction(0), Fraction(a, n))


def _act_on_point(group: WeylGroup, wi: int, point: tuple[Eig, ...]) -> tuple[Eig, ...]:
    # (w t)(x) = t(w^-1 x): additively, apply the transpose of w^-1
    m = il.transpose(group.matrices[group.inv(wi)])
    out = []
    for row in m:
        q = Fraction(0)
        a = Fraction(0)
        for c, e in zip(row, point):
            q += c * e.q_exp
            a += c * e.angle
        out.append(Eig(q, a))
    return tuple(out)


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
    members = []
    for i in range(group.order):
        moved = _act_on_point(group, i, point)
        if inv_dir is None:
            ok = moved == point
        else:
            ok = _differ_by_scalar(moved, point, inv_dir)
        if ok:
            members.append(i)
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


def _differ_by_scalar(a: tuple[Eig, ...], b: tuple[Eig, ...], direction: tuple[int, ...]) -> bool:
    """Is a = b * lambda^direction for a single scalar lambda?"""
    pivot = next((k for k, d in enumerate(direction) if d != 0), None)
    if pivot is None:
        return a == b
    d0 = direction[pivot]
    diff = a[pivot] / b[pivot]
    # lambda^d0 = diff: |d0| candidate angles, one candidate q-exponent
    for shift in range(abs(d0)):
        cand = Eig(diff.q_exp / d0, (diff.angle + shift) / d0)
        if all(y * cand ** d == x for x, y, d in zip(a, b, direction)):
            return True
    return False


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
    simple_coroots = [datum.coroots[i] for i in datum.simples]
    for wi in range(group.order):
        winv = group.inv(wi)
        targets = []
        for i in datum.simples:
            pre = group.act(winv, datum.roots[i])
            positive = datum.root_index(pre) in group.positive_set()
            targets.append(0 if positive else 1)
        # solve <x, a_i^> = target_i with x = sat * y
        rows = tuple(tuple(sum(sat_matrix[k][j] * cv[k] for k in range(r))
                           for j in range(len(sat)))
                     for cv in simple_coroots)
        y = il.solve_int(rows, tuple(targets))
        if y is None:
            continue
        x = il.mat_vec(sat_matrix, y)
        if _length_indexed(group, x, wi) == 0:
            out.append(ExtAffineElt(x, group.element(wi)))
    return out


if __name__ == "__main__":
    import doctest
    doctest.testmod()
