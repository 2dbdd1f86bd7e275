"""
The pullback engine for enhanced toy parameters.

A `GroupHomDesc` describes a homomorphism f between the groups named by two
tags as a chain of primitive steps (torus insertion, central quotient,
pinned diagram automorphism, inner twist Ad(g)).  It carries the lattice
morphism of the associated based root data, which must pass the
admissibility test, and the cached three-stage factorization.

For a parameter phi of the map's codomain group, `smap` produces the
injection of component groups together with the character twist coming from
Ad-parts, and `conjA_decompose` turns an enhancement of phi into the exact
multiset of enhancements on the domain side with multiplicities

    m(rho, rho~) = dim Hom(rho, (rho~ o iota) (x) twist).

The twist is pinned to the direction in which Ad(t) sends an enhancement
rho to rho (x) tau(t)^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from . import decode as dc
from . import intlattice as il
from .finrep import RepOrChar, character_product, hom_mult, irreducibles
from .lparam import (
    ComponentGroupResult, GroupTag, ToyParameter, component_group,
    relevant_enhancements, tau_character,
)
from .numkernel import Cyclo
from .rootdata import (
    BasedRootDatum, Factorization, RDMorphism, _mark_valid,
    build_classical, direct_sum, factorize_condition1, is_condition1, torus_datum,
)
from .weyl import Eig

__all__ = [
    "FunctorError", "GroupHomDesc", "SMapData",
    "hom_identity", "hom_sl_to_gl", "hom_gl_to_pgl", "hom_sl_to_pgl",
    "hom_ad", "hom_dual_automorphism", "hom_torus_insertion",
    "hom_torus_projection", "compose", "hom_to_json", "hom_from_json",
    "lmap_param", "smap", "conjA_decompose", "check_transitivity",
    "packet_union_check", "tag_root_datum",
]


class FunctorError(ValueError):
    pass


# ---------------------------------------------------------------------------
# root data of tags


def _factor_datum(kind: str, n: int) -> BasedRootDatum:
    if kind == "GL":
        return build_classical("GL", n)
    if kind == "SL":
        return build_classical("A", n - 1, "sc") if n >= 2 else torus_datum(0)
    if kind == "PGL":
        return build_classical("A", n - 1, "ad") if n >= 2 else torus_datum(0)
    if kind == "T":
        return torus_datum(n)
    raise FunctorError(f"unknown kind {kind!r}")


def tag_root_datum(tag: GroupTag) -> BasedRootDatum:
    return _tag_root_datum(tag.factors)


@lru_cache(maxsize=256)
def _tag_root_datum(factors: tuple[tuple[str, int], ...]) -> BasedRootDatum:
    # the datum depends on the factors only, not on the labels zeta; bounded,
    # since torus ranks read from JSON have no upper limit.  A sum of
    # classical data and tori is valid by construction
    return _mark_valid(
        direct_sum(*[_factor_datum(kind, n) for kind, n in factors]))


def _sl_gl_char_matrix(n: int):
    """X(GL_n) -> X(SL_n): e_w pulls back to omega_w - omega_{w-1}."""
    rows = []
    for w in range(n - 1):
        rows.append(tuple(1 if i == w else (-1 if i == w + 1 else 0)
                          for i in range(n)))
    return tuple(rows)


def _gl_pgl_char_matrix(n: int):
    """X(PGL_n) -> X(GL_n): the simple root alpha_i includes as e_i - e_{i+1}."""
    cols = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        cols.append(tuple(v))
    return il.transpose(tuple(cols))


def _sl_pgl_char_matrix(n: int):
    """X(PGL_n) -> X(SL_n): root lattice inside the weight lattice
    (columns are the simple roots in the fundamental-weight basis)."""
    if n == 2:
        return ((2,),)
    m = [[0] * (n - 1) for _ in range(n - 1)]
    for i in range(n - 1):
        m[i][i] = 2
        if i + 1 < n - 1:
            m[i][i + 1] = -1
            m[i + 1][i] = -1
    return tuple(tuple(r) for r in m)


def _reversal_matrix(n: int, negate: bool):
    s = -1 if negate else 1
    return tuple(tuple(s if i + j == n - 1 else 0 for j in range(n))
                 for i in range(n))


# ---------------------------------------------------------------------------
# primitive steps


@dataclass(frozen=True)
class _Step:
    """One primitive homomorphism between single-matrix-factor tags."""

    kind: str                      # identity/sl_gl/gl_pgl/sl_pgl/ad/dual/torus_ins
    dom: GroupTag
    cod: GroupTag
    ad_vector: tuple[tuple[int, ...], ...] = ()
    torus_rank: int = 0

    def char_matrix(self):
        """X(cod-datum) -> X(dom-datum)."""
        if self.kind in ("identity", "ad"):
            return il.identity(tag_root_datum(self.dom).rank)
        (k_dom, n), = self.dom.factors[:1]
        if self.kind == "sl_gl":
            return _sl_gl_char_matrix(n)
        if self.kind == "gl_pgl":
            return _gl_pgl_char_matrix(n)
        if self.kind == "sl_pgl":
            return _sl_pgl_char_matrix(n)
        if self.kind == "dual":
            if k_dom == "GL":
                return _reversal_matrix(n, True)
            # weight/root lattice bases: the diagram flip is the reversal
            return _reversal_matrix(max(n - 1, 0), False) if n > 1 else ()
        if self.kind == "torus_ins":
            r = tag_root_datum(self.dom).rank
            extra = tag_root_datum(self.cod).rank - r
            return tuple(tuple(1 if i == j else 0 for j in range(r + extra))
                         for i in range(r))
        if self.kind == "torus_proj":
            r = tag_root_datum(self.cod).rank
            extra = tag_root_datum(self.dom).rank - r
            return tuple(tuple(1 if i == j else 0 for j in range(r))
                         for i in range(r + extra))
        raise FunctorError(f"unknown step kind {self.kind!r}")

    # -- parameter transport (cod -> dom) ----------------------------------

    def pull_param(self, phi: ToyParameter) -> ToyParameter:
        if self.kind in ("identity", "ad"):
            return phi
        if self.kind == "torus_ins":
            return ToyParameter.make(self.dom, list(phi.factors[:-1]))
        if self.kind == "torus_proj":
            (_, r) = self.dom.factors[-1]
            basepoint = [Eig()] * r
            return ToyParameter.make(self.dom, list(phi.factors) + [basepoint])
        (kind_dom, n), = self.dom.factors
        (kind_cod, _), = self.cod.factors
        eigs = phi.factors[0]
        if self.kind == "sl_gl":
            return ToyParameter.make(self.dom, [list(eigs)])
        if self.kind == "gl_pgl":
            return ToyParameter.make(self.dom, [list(eigs)])
        if self.kind == "sl_pgl":
            return ToyParameter.make(self.dom, [list(eigs)])
        if self.kind == "dual":
            new = [Eig(-e.q_exp, -e.angle) for e in reversed(eigs)]
            return ToyParameter.make(self.dom, [new])
        raise FunctorError(f"unknown step kind {self.kind!r}")

    # -- component-group transport ------------------------------------------

    def map_components(self, phi_cod: ToyParameter, comp_cod: ComponentGroupResult,
                       phi_dom: ToyParameter, comp_dom: ComponentGroupResult
                       ) -> list[int]:
        """For each element of comp_cod, its image index in comp_dom."""
        if self.kind in ("identity", "ad"):
            return self._match_by_pairs(comp_cod, comp_dom)
        if self.kind == "torus_ins":
            out = []
            for i in range(comp_cod.order):
                pairs = comp_cod.pair_data(i)[:-1]
                out.append(_find_by_pairs(comp_dom, pairs))
            return out
        if self.kind == "torus_proj":
            out = []
            for i in range(comp_cod.order):
                pairs = comp_cod.pair_data(i) + (((), Eig()),)
                out.append(_find_by_pairs(comp_dom, pairs))
            return out
        if self.kind in ("sl_gl", "gl_pgl", "sl_pgl"):
            # trivial-source injections: everything lands on the identity
            # (the on-the-nose stabilizer meets only the lambda = 1 part)
            if comp_cod.order != 1:
                raise FunctorError("unexpected nontrivial source component group")
            return [comp_dom.group.identity]
        if self.kind == "dual":
            (k, n), = self.dom.factors
            out = []
            for i in range(comp_cod.order):
                (w, lam), = comp_cod.pair_data(i)
                w_new = tuple(n - 1 - w[n - 1 - j] for j in range(n))
                lam_new = Eig(-lam.q_exp, -lam.angle)
                out.append(_find_by_pairs(comp_dom, ((w_new, lam_new),)))
            return out
        raise FunctorError(f"unknown step kind {self.kind!r}")

    def _match_by_pairs(self, comp_cod, comp_dom) -> list[int]:
        return [_find_by_pairs(comp_dom, comp_cod.pair_data(i))
                for i in range(comp_cod.order)]

    # -- transport of Ad vectors (dom -> cod) ---------------------------------

    def push_ad_vector(self, g: tuple[tuple[int, ...], ...]):
        if self.kind in ("identity", "ad", "sl_gl", "gl_pgl", "sl_pgl"):
            return g
        if self.kind == "torus_ins":
            return tuple(g) + ((),)
        if self.kind == "torus_proj":
            return tuple(g[:-1])
        if self.kind == "dual":
            return (tuple(-x for x in reversed(g[0])),)
        raise FunctorError(f"unknown step kind {self.kind!r}")


def _find_by_pairs(comp: ComponentGroupResult, pairs) -> int:
    for i in range(comp.order):
        if comp.pair_data(i) == tuple(pairs):
            return i
    raise FunctorError("component not found in the target group")


# ---------------------------------------------------------------------------
# homomorphism descriptors


class GroupHomDesc:
    """A Condition-1 homomorphism between tag groups, as a step chain."""

    def __init__(self, steps: Sequence[_Step]):
        steps = tuple(steps)
        if not steps:
            raise FunctorError("empty chain")
        for a, b in zip(steps, steps[1:]):
            if a.cod != b.dom:
                raise FunctorError(
                    f"steps not composable: {a.cod} vs {b.dom} "
                    "(relevance labels must match exactly)")
        self.steps = steps
        self.source = steps[0].dom          # the map's domain group
        self.target = steps[-1].cod         # the map's codomain group
        self._facto: Factorization | None = None

    @property
    def lattice_map(self) -> RDMorphism:
        return _lattice_map(self.steps)

    @property
    def factorization(self) -> Factorization:
        if self._facto is None:
            self._facto = factorize_condition1(self.lattice_map)
        return self._facto

    def __repr__(self):
        return "GroupHomDesc(" + " -> ".join(
            [self.steps[0].dom.factors.__repr__()]
            + [s.kind for s in self.steps]) + ")"


@lru_cache(maxsize=256)
def _lattice_map(steps: tuple[_Step, ...]) -> RDMorphism:
    # one composite per step chain, however many descriptors name it (each
    # compose() makes a new one); bounded, since chains read from JSON are
    # unbounded in number.  A chain that is not admissible raises every time
    mor = None
    for step in steps:
        cur = RDMorphism(tag_root_datum(step.dom), tag_root_datum(step.cod),
                         step.char_matrix())
        mor = cur if mor is None else mor.compose(cur)
    verdict = is_condition1(mor)
    if not verdict:
        raise FunctorError("lattice map is not admissible: "
                           + "; ".join(verdict.reasons))
    return mor


def hom_identity(tag: GroupTag) -> GroupHomDesc:
    return GroupHomDesc([_Step("identity", tag, tag)])


def hom_sl_to_gl(n: int, zeta: int = 0) -> GroupHomDesc:
    if zeta % n:
        raise FunctorError("nontrivial labels need matching division algebras")
    return GroupHomDesc([_Step("sl_gl", GroupTag.single("SL", n, zeta),
                               GroupTag.single("GL", n, zeta))])


def hom_gl_to_pgl(n: int, zeta: int = 0) -> GroupHomDesc:
    return GroupHomDesc([_Step("gl_pgl", GroupTag.single("GL", n, zeta),
                               GroupTag.single("PGL", n, zeta))])


def hom_sl_to_pgl(n: int, zeta: int = 0) -> GroupHomDesc:
    return GroupHomDesc([_Step("sl_pgl", GroupTag.single("SL", n, zeta),
                               GroupTag.single("PGL", n, zeta))])


def hom_ad(tag: GroupTag, g: Sequence[Sequence[int]]) -> GroupHomDesc:
    g = tuple(tuple(int(x) for x in gf) for gf in g)
    if len(g) != len(tag.factors):
        raise FunctorError("Ad vector needs one block per factor")
    for (kind, n), block in zip(tag.factors, g):
        if kind != "T" and len(block) != n:
            raise FunctorError(f"the Ad block of a {kind}_{n} factor needs {n} entries")
    return GroupHomDesc([_Step("ad", tag, tag, ad_vector=g)])


def hom_dual_automorphism(tag: GroupTag) -> GroupHomDesc:
    (kind, n), = tag.factors
    if kind == "T":
        raise FunctorError("the flip automorphism lives on matrix factors")
    cod = GroupTag.single(kind, n, (-tag.zeta[0]) % n)
    return GroupHomDesc([_Step("dual", tag, cod)])


def hom_torus_insertion(tag: GroupTag, r: int) -> GroupHomDesc:
    cod = GroupTag(tag.factors + (("T", r),), tag.zeta + (0,))
    return GroupHomDesc([_Step("torus_ins", tag, cod, torus_rank=r)])


def hom_torus_projection(tag: GroupTag) -> GroupHomDesc:
    """Quotient of a product by its last (central torus) factor."""
    if not tag.factors or tag.factors[-1][0] != "T":
        raise FunctorError("projection needs a trailing torus factor")
    cod = GroupTag(tag.factors[:-1], tag.zeta[:-1])
    return GroupHomDesc([_Step("torus_proj", tag, cod,
                               torus_rank=tag.factors[-1][1])])


def compose(f: GroupHomDesc, q: GroupHomDesc) -> GroupHomDesc:
    """q o f for f: A -> B and q: B -> H, with the step chain canonicalized."""
    if f.target != q.source:
        raise FunctorError("relevance/center mismatch between the chained tags")
    return GroupHomDesc(_canonicalize(f.steps + q.steps, f.source, q.target))


def _canonicalize(steps: tuple[_Step, ...], dom: GroupTag, cod: GroupTag
                  ) -> tuple[_Step, ...]:
    steps = [s for s in steps if s.kind != "identity"]
    changed = True
    while changed:
        changed = False
        for i in range(len(steps) - 1):
            a, b = steps[i], steps[i + 1]
            if a.kind == "sl_gl" and b.kind == "gl_pgl":
                steps[i:i + 2] = [_Step("sl_pgl", a.dom, b.cod)]
                changed = True
                break
            if a.kind == "dual" and b.kind == "dual":
                steps[i:i + 2] = []
                changed = True
                break
            if a.kind == "ad" and b.kind == "ad":
                vec = tuple(tuple(x + y for x, y in zip(ga, gb))
                            for ga, gb in zip(a.ad_vector, b.ad_vector))
                steps[i:i + 2] = [_Step("ad", a.dom, b.cod, ad_vector=vec)]
                changed = True
                break
            if a.kind == "ad" and b.kind != "ad":
                # move the inner twist toward the codomain
                moved = b.push_ad_vector(a.ad_vector)
                steps[i:i + 2] = [_Step(b.kind, b.dom, b.cod,
                                        torus_rank=b.torus_rank),
                                  _Step("ad", b.cod, b.cod, ad_vector=moved)]
                changed = True
                break
    if not steps:
        if dom != cod:
            raise FunctorError("internal: empty chain between different tags")
        steps = [_Step("identity", dom, cod)]
    return tuple(steps)


# ---------------------------------------------------------------------------
# parameter and enhancement transport


def lmap_param(f: GroupHomDesc, phi: ToyParameter) -> ToyParameter:
    """Pull a codomain parameter back to the domain group."""
    for step in reversed(f.steps):
        phi = step.pull_param(phi)
    return phi


@dataclass(frozen=True)
class SMapData:
    """The component-group injection and the Ad-twist of one homomorphism."""

    phi_cod: ToyParameter
    phi_dom: ToyParameter
    comp_cod: ComponentGroupResult
    comp_dom: ComponentGroupResult
    element_map: tuple[int, ...]            # S(phi_cod) -> S(phi_dom)
    twist: RepOrChar                        # linear character of S(phi_cod)

    def __post_init__(self):
        # injectivity, normal image, abelian cokernel
        if len(set(self.element_map)) != len(self.element_map):
            raise FunctorError("component-group map is not injective")
        g = self.comp_dom.group
        image = set(self.element_map)
        if not g.is_normal(frozenset(image)):
            raise FunctorError("image is not normal")
        if not g.quotient_is_abelian(frozenset(image)):
            raise FunctorError("cokernel is not abelian")
        # twist is a linear character trivial on the central image
        if self.twist.degree != 1:
            raise FunctorError("twist must be linear")
        for z in self.comp_cod.group.marked_subgroups["Z_phi"]:
            if self.twist.values[z] != Cyclo.rational(1):
                raise FunctorError("twist must be trivial on the central image")

    def index(self) -> int:
        return self.comp_dom.order // self.comp_cod.order

    def pullback(self, rho_dom: RepOrChar) -> RepOrChar:
        """(rho~ o iota) (x) twist as a character of S(phi_cod)."""
        return _pull(rho_dom, self.element_map, self.twist)


def smap(f: GroupHomDesc, phi: ToyParameter) -> SMapData:
    """Injection S(phi) -> S(phi~) with its accumulated Ad-twist.

    Built once per (step chain, phi): the result is frozen, so every caller
    shares it."""
    f.lattice_map      # admissibility gate
    return _smap(f.steps, phi)


@lru_cache(maxsize=256)
def _smap(steps: tuple[_Step, ...], phi: ToyParameter) -> SMapData:
    # bounded, since maps and parameters read from JSON are unbounded in number
    cur_tag, cur_phi = steps[-1].cod, phi
    comp_cod = cur_comp = component_group(cur_tag, phi)
    elt_map = tuple(range(comp_cod.order))
    taus = []                # one tau character per Ad step, with its map
    for step in reversed(steps):
        if step.kind == "ad":
            tau = tau_character(cur_tag, cur_phi, step.ad_vector, cur_comp)
            taus.append((tau, elt_map, 1))
            continue
        phi_next = step.pull_param(cur_phi)
        comp_next = component_group(step.dom, phi_next)
        local = step.map_components(cur_phi, cur_comp, phi_next, comp_next)
        elt_map = tuple(local[e] for e in elt_map)
        cur_tag, cur_phi, cur_comp = step.dom, phi_next, comp_next
    return SMapData(phi, cur_phi, comp_cod, cur_comp, elt_map,
                    character_product(comp_cod.group, taus))


def conjA_decompose(f: GroupHomDesc, phi: ToyParameter, rho: RepOrChar
                    ) -> list[tuple[ToyParameter, RepOrChar, int]]:
    """Decompose the pullback of the enhanced parameter (phi, rho).

    Returns (phi~, rho~, m) with m > 0; every listed rho~ is relevant for
    the domain tag, and the multiplicities satisfy
    sum m deg(rho~) = [S~ : S] deg(rho)."""
    relevant = relevant_enhancements(f.target, phi)
    if not any(tuple(r.values) == tuple(rho.values) for r in relevant):
        raise FunctorError("enhancement is not relevant for the codomain tag")
    data = smap(f, phi)
    out = []
    for rho_t in irreducibles(data.comp_dom.group):
        m = hom_mult(rho, data.pullback(rho_t))
        if m:
            out.append((data.phi_dom, rho_t, m))
    # relevance of the outputs and the dimension count
    rel_dom = {tuple(r.values) for r in
               relevant_enhancements(f.source, data.phi_dom)}
    for _, rho_t, _ in out:
        if tuple(rho_t.values) not in rel_dom:
            raise FunctorError("internal: an irrelevant enhancement appeared")
    total = sum(m * rho_t.degree for _, rho_t, m in out)
    if total != data.index() * rho.degree:
        raise FunctorError("internal: multiplicity count is off")
    return out


def check_transitivity(f: GroupHomDesc, q: GroupHomDesc, phi: ToyParameter,
                       sample_enhancements: Sequence[RepOrChar] | None = None
                       ) -> bool:
    """Does the composite map equal the composition of the two maps at the
    character level?  f: A -> B, q: B -> H, phi a parameter of H."""
    qf = compose(f, q)
    direct = smap(qf, phi)
    sq = smap(q, phi)
    phi_mid = sq.phi_dom
    sf = smap(f, phi_mid)
    if direct.phi_dom != sf.phi_dom:
        return False
    # composed data
    composed_map = tuple(sf.element_map[e] for e in sq.element_map)
    composed_twist = character_product(sq.comp_cod.group, [
        (sq.twist, None, 1), (sf.twist, sq.element_map, 1)])
    # compare through characters of the domain-side group (conjugation
    # invariant): pull back every irreducible both ways
    for rho_t in irreducibles(direct.comp_dom.group):
        if direct.pullback(rho_t) != _pull(rho_t, composed_map, composed_twist):
            return False
    if sample_enhancements:
        for rho in sample_enhancements:
            lhs = conjA_decompose(qf, phi, rho)
            rhs = _decompose_via(composed_map, composed_twist, direct, rho)
            if _multiset(lhs) != _multiset(rhs):
                return False
    return True


def _pull(rho_t: RepOrChar, elt_map, twist: RepOrChar) -> RepOrChar:
    """(rho~ o elt_map) (x) twist as a character of the twist's group."""
    return character_product(twist.group, [(rho_t, elt_map, 1), (twist, None, 1)])


def _decompose_via(elt_map, twist: RepOrChar, data: SMapData, rho: RepOrChar):
    out = []
    for rho_t in irreducibles(data.comp_dom.group):
        m = hom_mult(rho, _pull(rho_t, elt_map, twist))
        if m:
            out.append((data.phi_dom, rho_t, m))
    return out


def _multiset(decomp):
    return sorted((phi.factors.__repr__(), tuple(repr(v) for v in r.values), m)
                  for phi, r, m in decomp)


def hom_to_json(f: GroupHomDesc):
    steps = []
    for s in f.steps:
        entry = {"kind": s.kind,
                 "dom": [list(x) for x in s.dom.factors],
                 "dom_zeta": list(s.dom.zeta)}
        if s.kind == "ad":
            entry["g"] = [list(v) for v in s.ad_vector]
        if s.kind in ("torus_ins", "torus_proj"):
            entry["torus_rank"] = s.torus_rank
        steps.append(entry)
    return {"steps": steps}


def _is_step(e) -> bool:
    """Is e a JSON step {"kind", "dom", "dom_zeta"?} with the fields its kind
    reads?"""
    if not (dc.obj(e, "dom") and isinstance(e.get("kind"), str)
            and dc.int_list(e.get("dom_zeta") or [])
            and all(dc.pair(f) and isinstance(f[0], str) and type(f[1]) is int
                    for f in e["dom"])):
        return False
    if e["kind"] in ("sl_gl", "gl_pgl", "sl_pgl"):
        return bool(e["dom"])
    if e["kind"] == "ad":
        return dc.int_rows(e.get("g"))
    if e["kind"] == "torus_ins":
        return type(e.get("torus_rank")) is int
    return True


def hom_from_json(data) -> GroupHomDesc:
    """Decode the form `hom_to_json` writes; FunctorError on any other shape."""
    if not (dc.obj(data, "steps") and all(map(_is_step, data["steps"]))):
        raise FunctorError('a homomorphism is an object {"steps": [{"kind": ..., '
                           '"dom": [[kind, n], ...], "dom_zeta": [...]}, ...]}')
    out = None
    for entry in data["steps"]:
        dom = GroupTag(tuple(map(tuple, entry["dom"])), tuple(entry.get("dom_zeta") or ()))
        kind = entry["kind"]
        if kind == "identity":
            step = hom_identity(dom)
        elif kind == "sl_gl":
            step = hom_sl_to_gl(dom.factors[0][1], dom.zeta[0])
        elif kind == "gl_pgl":
            step = hom_gl_to_pgl(dom.factors[0][1], dom.zeta[0])
        elif kind == "sl_pgl":
            step = hom_sl_to_pgl(dom.factors[0][1], dom.zeta[0])
        elif kind == "ad":
            step = hom_ad(dom, entry["g"])
        elif kind == "dual":
            step = hom_dual_automorphism(dom)
        elif kind == "torus_ins":
            step = hom_torus_insertion(dom, entry["torus_rank"])
        elif kind == "torus_proj":
            step = hom_torus_projection(dom)
        else:
            raise FunctorError(f"unknown step kind {kind!r}")
        out = step if out is None else compose(out, step)
    if out is None:
        raise FunctorError("empty homomorphism description")
    return out


def packet_union_check(f: GroupHomDesc, phi: ToyParameter) -> bool:
    """The union of the pullback packets over the relevant enhancements of
    phi is exactly the set of relevant enhancements of the pulled-back
    parameter."""
    outputs = set()
    for rho in relevant_enhancements(f.target, phi):
        for _, rho_t, _ in conjA_decompose(f, phi, rho):
            outputs.add(tuple(repr(v) for v in rho_t.values))
    phi_dom = lmap_param(f, phi)
    expected = {tuple(repr(v) for v in r.values)
                for r in relevant_enhancements(f.source, phi_dom)}
    return outputs == expected
