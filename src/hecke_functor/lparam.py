"""
Unramified toy parameters for products of type-A groups and tori.

A parameter stores one exact eigenvalue list per factor (the Frobenius
image in the dual torus); inertia and the SL_2 part are trivial throughout.
For an SL-type factor the list matters only up to a scalar and the stored
representative is normalized to q-exponent sum zero and angle sum zero
modulo one.

The component group of a parameter is computed factor by factor inside
SL_n(C).  For GL- and PGL-type factors the relevant fixed-list stabilizer is
a product of blocks intersected with the determinant-one hyperplane, which
is connected, so the contribution is trivial.  For an SL-type factor with a
multiplicity-free list the components correspond to the pairs (w, lambda)
with w(list) = lambda * (list) coordinatewise; the group law is the product
table of the permutation parts w.  The characters tau(g) are obtained by
pairing g with the commutator cocycle c_h(Fr) = h phi(Fr) h^-1 phi(Fr)^-1,
the root of unity lambda of the pair (w, lambda).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from . import decode as dc
from .finrep import FiniteGroup, RepOrChar, _size_guard, irreducibles
from .weyl import Eig, _integer_point

__all__ = [
    "GroupTag", "ToyParameter", "ComponentGroupResult", "LParamError",
    "component_group", "tau_character", "relevant_enhancements",
    "parameter_to_json", "parameter_from_json",
]


class LParamError(ValueError):
    pass


FACTOR_KINDS = ("GL", "SL", "PGL", "T")


@dataclass(frozen=True)
class GroupTag:
    """A finite product of GL_n / SL_n / PGL_n factors and split tori,
    with one central character exponent per factor (the inner-twist label:
    the character zeta -> zeta^k of mu_n; 0 on the split form and tori)."""

    factors: tuple[tuple[str, int], ...]
    zeta: tuple[int, ...] = ()

    def __post_init__(self):
        factors = tuple((str(k), int(n)) for k, n in self.factors)
        object.__setattr__(self, "factors", factors)
        for kind, n in factors:
            if kind not in FACTOR_KINDS:
                raise LParamError(f"unknown factor kind {kind!r}")
            if n < 1 and kind != "T":
                raise LParamError("factor size must be positive")
            if kind == "T" and n < 0:
                raise LParamError("torus rank must be nonnegative")
        zeta = tuple(self.zeta) if self.zeta else (0,) * len(factors)
        if len(zeta) != len(factors):
            raise LParamError("zeta must carry one exponent per factor")
        object.__setattr__(self, "zeta", tuple(int(z) for z in zeta))

    @staticmethod
    def single(kind: str, n: int, zeta: int = 0) -> "GroupTag":
        return GroupTag(((kind, n),), (zeta,))


@dataclass(frozen=True)
class ToyParameter:
    """Frobenius eigenvalue lists, one per factor; inertia and SL_2 trivial."""

    factors: tuple[tuple[Eig, ...], ...]

    unramified = True
    sl2_trivial = True

    def __post_init__(self):
        factors = tuple(tuple(e) for e in self.factors)
        object.__setattr__(self, "factors", factors)
        # a parameter keys the component-group and S-map memos; hashing its
        # Fraction eigenvalues on every lookup would cost more than the lookup
        object.__setattr__(self, "_hash", hash(factors))

    def __hash__(self):
        return self._hash

    @staticmethod
    def make(tag: GroupTag, lists: Sequence[Sequence[Eig]]) -> "ToyParameter":
        if len(lists) != len(tag.factors):
            raise LParamError("one eigenvalue list per factor required")
        out = []
        for (kind, n), eigs in zip(tag.factors, lists):
            eigs = tuple(eigs)
            if len(eigs) != n:
                raise LParamError(f"factor of size {n} needs {n} eigenvalues")
            if kind == "SL":
                eigs = _normalize_projective(eigs)
            if kind == "PGL":
                total_q = sum(e.q_exp for e in eigs)
                total_a = sum(e.angle for e in eigs) % 1
                if total_q != 0 or total_a != 0:
                    raise LParamError(
                        "a PGL-type list must have determinant one on the nose")
            out.append(eigs)
        return ToyParameter(tuple(out))

    @staticmethod
    def principal_cycle(tag: GroupTag) -> "ToyParameter":
        """The (1, zeta_n, ..., zeta_n^(n-1)) parameter for a single factor."""
        (kind, n), = tag.factors
        if kind == "SL":
            _size_guard(n)       # before the list: S_phi is cyclic of order n
        return ToyParameter.make(tag, [[Eig.root_of_unity(k, n) for k in range(n)]])


def _normalize_projective(eigs: tuple[Eig, ...]) -> tuple[Eig, ...]:
    """Distinguished representative of the list modulo scalars.

    The q-mean is subtracted outright; for the angles, every shift by
    mean + j/n makes the angle sum vanish modulo one, and the wraparound
    makes these genuinely different tuples, so the lexicographically least
    one is kept as the canonical representative.  The candidates are
    compared as integer numerators over one common denominator n * d (d the
    lcm of the angles' denominators); only the winner becomes `Eig`s.
    """
    n = len(eigs)
    mean_q = sum(e.q_exp for e in eigs) / n
    d = lcm(*[e.angle.denominator for e in eigs])
    # angle_i - (sum_k angle_k + j) / n over the denominator n * d
    nums = [e.angle.numerator * (d // e.angle.denominator) for e in eigs]
    den = n * d
    total = sum(nums)
    best = min(tuple((n * a - total - j * d) % den for a in nums) for j in range(n))
    return tuple(Eig(e.q_exp - mean_q, Fraction(a, den)) for e, a in zip(eigs, best))


def _is_multiplicity_free(eigs: tuple[Eig, ...]) -> bool:
    return len(set(eigs)) == len(eigs)


# ---------------------------------------------------------------------------
# component groups


@dataclass(frozen=True)
class FactorComponents:
    """Components of the lifted centralizer for one factor: pairs (w, lambda).

    w is a permutation tuple acting by (w . list)_i = list_{w^-1(i)}, lambda
    the matching scalar; trivial factors store just the identity pair.
    """
    kind: str
    n: int
    pairs: tuple[tuple[tuple[int, ...], Eig], ...]

    @property
    def size(self) -> int:
        return len(self.pairs)


class ComponentGroupResult:
    """The component group with its markings.

    * `group`: the finite group of components (a FiniteGroup);
    * marked subgroups: "Z_phi" (image of the center of the product of
      SL_n(C)'s) and "S_phi_lift" (components meeting the on-the-nose
      stabilizer, i.e. the image of the component group of a GL-lift);
    * `pair_data[i]` gives the per-factor (w, lambda) pairs of element i.

    A direct product of the factors' pair groups: element i is a tuple of
    one pair index per factor, multiplied factor by factor.
    """

    def __init__(self, factor_components: Sequence[FactorComponents]):
        self.factors = tuple(factor_components)
        sizes = [fc.size for fc in self.factors]
        elements = tuple(itertools.product(*[range(s) for s in sizes]))
        index = {e: i for i, e in enumerate(elements)}
        self.elements = elements
        # per factor: the product table of its pair indices, through the
        # permutation parts (they determine the pair)
        factor_tables, unit = [], []
        for fc in self.factors:
            position = {w: k for k, (w, _) in enumerate(fc.pairs)}
            factor_tables.append([[position[tuple(wa[i] for i in wb)]
                                   for wb, _ in fc.pairs] for wa, _ in fc.pairs])
            unit.append(position[tuple(range(len(fc.pairs[0][0])))])
        table = [[index[tuple(t[x][y] for t, x, y in zip(factor_tables, a, b))]
                  for b in elements] for a in elements]
        # center image: scalar matrices sit in the identity component
        lift = [i for i, e in enumerate(elements)
                if all(fc.pairs[fi][1].is_one() for fi, fc in zip(e, self.factors))]
        self.group = FiniteGroup(table, {"Z_phi": [index[tuple(unit)]],
                                         "S_phi_lift": lift})

    @property
    def order(self) -> int:
        return self.group.order

    def pair_data(self, element: int):
        return tuple(fc.pairs[fi] for fi, fc in
                     zip(self.elements[element], self.factors))

    def quotient_order(self) -> int:
        return self.group.order // len(self.group.marked_subgroups["S_phi_lift"])

    def is_cyclic(self) -> bool:
        return any(self.group.element_order(i) == self.group.order
                   for i in range(self.group.order))


@lru_cache(maxsize=256)
def _sl_factor_components(eigs: tuple[Eig, ...]) -> FactorComponents:
    # argument and result are frozen, so one result serves every caller;
    # bounded, since eigenvalue lists read from JSON are unbounded
    n = len(eigs)
    if not _is_multiplicity_free(eigs):
        raise LParamError("SL-type factors require a multiplicity-free list")
    # integer numerators over one denominator, angles in [0, den)
    den, qs, angles = _integer_point(eigs)
    position = {p: i for i, p in enumerate(zip(qs, angles))}
    pairs = []
    # candidate scalars: lambda must map the first eigenvalue somewhere; no
    # finite list is stable under a q-shift, so a match has dq = 0
    for target in range(n):
        dq, da = qs[target] - qs[0], angles[target] - angles[0]
        # (w . list)_i = list_{w^-1 i} = lam * list_i:
        # w^-1(i) = position of lam * eigs[i], up to the first miss
        w_inv = []
        for q, a in zip(qs, angles):
            k = position.get((q + dq, (a + da) % den))
            if k is None:
                break
            w_inv.append(k)
        else:
            w = tuple(sorted(range(n), key=w_inv.__getitem__))
            pairs.append((w, Eig.root_of_unity(da, den)))
            _size_guard(len(pairs))
    return FactorComponents("SL", n, tuple(pairs))


def _trivial_factor_components(kind: str, n: int) -> FactorComponents:
    ident = tuple(range(n)) if kind != "T" else ()
    return FactorComponents(kind, n if kind != "T" else 0,
                            ((ident, Eig()),))


def component_group(tag: GroupTag, phi: ToyParameter) -> ComponentGroupResult:
    """Component group of the lifted centralizer, with markings.

    GL/PGL factors contribute trivially (their on-the-nose stabilizer
    inside SL_n(C) is a connected block group); SL factors contribute the
    cyclic group of (w, lambda) pairs; tori contribute trivially.  Built
    once per (factors, phi): the result and its group are frozen, so every
    caller shares one, with one character table.
    """
    if len(phi.factors) != len(tag.factors):
        raise LParamError("parameter does not match the tag")
    return _component_group(tag.factors, phi)


@lru_cache(maxsize=256)
def _component_group(factors: tuple[tuple[str, int], ...],
                     phi: ToyParameter) -> ComponentGroupResult:
    # the labels zeta do not enter; bounded, since parameters read from
    # JSON are unbounded in number
    comps = []
    for (kind, n), eigs in zip(factors, phi.factors):
        if kind == "SL":
            comps.append(_sl_factor_components(tuple(eigs)))
        else:
            comps.append(_trivial_factor_components(kind, n))
    return ComponentGroupResult(comps)


# ---------------------------------------------------------------------------
# tau characters and relevance


def tau_character(tag: GroupTag, phi: ToyParameter,
                  g: Sequence[Sequence[int]],
                  result: ComponentGroupResult | None = None) -> RepOrChar:
    """The character <g, c_h> of the component group attached to g.

    g gives one integer cocharacter vector per factor (length n for matrix
    factors, ignored entries for tori): the class of g in the cocharacter
    lattice of the adjoint torus modulo the image of the group's own torus.
    Only the coordinate sum enters for SL factors; GL and PGL factors have
    surjective torus maps, so their contribution is trivial.

    For the component (w, lambda) of an SL factor the commutator
    c_h(Fr) = h phi(Fr) h^-1 phi(Fr)^-1 of a monomial h over w is the scalar
    lambda itself: phi(Fr)_{w^-1(i)} / phi(Fr)_i = lambda for every i.  Its
    order divides that of w, so the values are exponents modulo the group's
    exponent N.
    """
    if result is None:
        result = component_group(tag, phi)
    g = [tuple(int(x) for x in gf) for gf in g]
    if len(g) != len(tag.factors):
        raise LParamError("g needs one vector per factor")
    for (kind, n), gf in zip(tag.factors, g):
        if kind != "T" and len(gf) != n:
            raise LParamError("cocharacter vector has wrong length")
    exponent = result.group.exponent()
    sl = [(f, sum(g[f])) for f, (kind, _) in enumerate(tag.factors) if kind == "SL"]
    exps = []
    for i in range(result.order):
        pairs = result.pair_data(i)
        total = 0
        for f, s in sl:
            a = pairs[f][1].angle
            if exponent % a.denominator:
                raise LParamError("internal: commutator scalar outside mu_N")
            total += a.numerator * (exponent // a.denominator) * s
        exps.append(total)
    return RepOrChar.from_exponents(result.group, exponent, exps)


def relevant_enhancements(tag: GroupTag, phi: ToyParameter,
                          result: ComponentGroupResult | None = None
                          ) -> list[RepOrChar]:
    """Characters of the component group whose pullback to the center of the
    product of SL_n(C)'s equals the tag's inner-twist label.

    The center generator zeta_n I of a matrix factor is a scalar matrix,
    hence lies in the identity component: every character pulls back to the
    trivial character of mu_n.  So either every irreducible is relevant (each
    label zeta -> zeta^k is trivial, k = 0 mod n) or none is."""
    if result is None:
        result = component_group(tag, phi)
    if any(kind != "T" and z % n for (kind, n), z in zip(tag.factors, tag.zeta)):
        return []
    return irreducibles(result.group)


# ---------------------------------------------------------------------------
# serialization


_KIND_TO_JSON = {"GL": "GLn", "SL": "SLn", "PGL": "PGLn", "T": "Torus"}
_KIND_FROM_JSON = {v: k for k, v in _KIND_TO_JSON.items()}


def parameter_to_json(tag: GroupTag, phi: ToyParameter):
    factors = []
    for (kind, n), eigs in zip(tag.factors, phi.factors):
        factors.append({"tag": _KIND_TO_JSON[kind], "n": n,
                        "eigs": [e.to_json() for e in eigs]})
    return {"factors": factors, "zeta": list(tag.zeta)}


def parameter_from_json(data) -> tuple[GroupTag, ToyParameter]:
    """Decode the form `parameter_to_json` writes; LParamError on any other
    shape."""
    if not (dc.obj(data, "factors")
            and all(dc.obj(fac, "eigs") and fac.get("tag") in _KIND_FROM_JSON
                    and type(fac.get("n")) is int for fac in data["factors"])):
        raise LParamError('a parameter is an object {"factors": [{"tag": "GLn" | "SLn" | '
                          '"PGLn" | "Torus", "n": size, "eigs": [...]}, ...], "zeta": [...]}')
    zeta = data.get("zeta") or [0] * len(data["factors"])
    if not dc.int_list(zeta):
        raise LParamError("zeta must be a list of integers")
    kinds = [(_KIND_FROM_JSON[fac["tag"]], fac["n"]) for fac in data["factors"]]
    lists = [[Eig.from_json(e) for e in fac["eigs"]] for fac in data["factors"]]
    tag = GroupTag(tuple(kinds), tuple(zeta))
    return tag, ToyParameter.make(tag, lists)
