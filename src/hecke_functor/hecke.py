"""
Twisted affine Hecke algebras over a based root datum.

An algebra here is specified by a `HeckeSpec`: the datum, one pair of
nonnegative integer labels per Weyl orbit of roots, one invertible parameter
name per orbit of irreducible components, a finite group of diagram
automorphisms (the R-group) and a root-of-unity valued 2-cocycle on it.

Elements are finite sums  sum_u  f_u(z) N_u  indexed by the extended group
(X x| W) x| R; multiplication follows the length recursion

    N_u N_s = N_{us}                                if l(us) = l(u) + 1
    N_u N_s = N_{us} + (z(s) - z(s)^-1) N_u         if l(us) = l(u) - 1

for simple affine reflections s, N_u N_w = N_{uw} when lengths add, and
N_r N_r' = kappa(r, r') N_{rr'} on the R-group part.  The commutative
subalgebra is reached through `theta`; `blz_check` verifies the cross
relation between the two presentations.

Every element type -- `HeckeElement` here, `bernstein.BernElement` for the
Bernstein presentation and `GradedElement` for the graded algebra -- is a
`Combination`: a sparse dict from basis keys to nonzero Laurent-polynomial
coefficients, with one shared linear structure.  Each sum into such a dict
goes through `_add_into`, which drops a key whose coefficient cancels.

The parameter z(s) of an affine node is z^label(theta) for the node's root
theta, except that theta^ in 2 X^ switches it to z^label*(theta); this is
also the only situation in which label* may differ from label.

`intermediate_algebra` enlarges the R-group to Gamma_big; its `embed` maps
the smaller algebra into the enlarged one, and `module_decomposition` cuts
the enlarged one along the left cosets of Gamma.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from . import decode as dc
from . import intlattice as il
from .intlattice import IntMatrix
from .numkernel import Cyclo, LaurentPoly
from .rootdata import BasedRootDatum
from .weyl import WeylGroup, _length_indexed, affine_simple_reflections

__all__ = [
    "HeckeError", "HeckeSpec", "HeckeElement", "shared_spec", "key_from_json",
    "basis_product",
    "mul_im", "theta",
    "blz_check", "is_central", "ad_xg", "guard_ad_xg", "alpha_g_twist",
    "GradedSpec", "GradedElement", "graded_mul",
    "intermediate_algebra", "IntermediateAlgebra",
]

RGROUP_SIZE_GUARD = 8
# the longest basis key an element read from JSON may carry: a product
# recurses once per unit of its right factor's length (_basis_mul_plain), so
# a longer key would exhaust the interpreter's recursion limit
KEY_LENGTH_GUARD = 256


class HeckeError(ValueError):
    pass


# a basis index: (translation, finite Weyl index, R-group index)
Key = tuple[tuple[int, ...], int, int]


class _SpecBase:
    """What `HeckeSpec` and `GradedSpec` share, built once per spec: the
    datum with its Weyl group and components, and the R-group of diagram
    automorphisms with its tables, its action and its 2-cocycle."""

    def __init__(self, datum: BasedRootDatum, rgroup: list[IntMatrix] | None,
                 cocycle: Mapping[tuple[int, int], Cyclo] | None):
        self.datum = datum
        self.weyl = WeylGroup.build(datum)      # validates a datum from outside
        self.components = datum.components()
        # simple-root index -> position of its component
        self.component_of = {i: c for c, comp in enumerate(self.components) for i in comp}

        ident = il.identity(datum.rank)
        if rgroup is None:
            rgroup = [ident]
        self.rgroup = [tuple(map(tuple, g)) for g in rgroup]
        n = len(self.rgroup)
        if n > RGROUP_SIZE_GUARD:
            raise HeckeError("R-group larger than supported")
        self.r_index = {g: i for i, g in enumerate(self.rgroup)}
        if len(self.r_index) != n:
            raise HeckeError("R-group elements must be distinct")
        if ident not in self.r_index:
            raise HeckeError("R-group must contain the identity")
        self.r_identity = self.r_index[ident]
        # multiplication and inversion tables of the R-group (|R| <= 8)
        self._r_mul = [[self.r_index.get(tuple(map(tuple, il.mat_mul(g, h))))
                        for h in self.rgroup] for g in self.rgroup]
        if any(None in row for row in self._r_mul):
            raise HeckeError("R-group not closed under composition")
        if any(self.r_identity not in row for row in self._r_mul):
            raise HeckeError("R-group elements must be invertible")
        self._r_inv = [row.index(self.r_identity) for row in self._r_mul]

        # root_perm[g][i] = index of g(root i), comp_perm[g][c] = the component
        # g sends c to, _simple_perm[g][j] = the position of g(simple j)
        self.root_perm = [[datum.root_index(il.mat_vec(g, root)) for root in datum.roots]
                          for g in self.rgroup]
        self._simple_perm = []
        for g, perm in zip(self.rgroup, self.root_perm):
            if None in perm:
                raise HeckeError("R-group does not preserve the roots")
            if any(perm[i] not in datum.simples for i in datum.simples):
                raise HeckeError("R-group must preserve the simple roots")
            # g s_a g^-1 = s_g(a) needs the coroot of g(a) to be a^ o g^-1
            g_t = il.transpose(g)
            if any(il.mat_vec(g_t, datum.coroots[k]) != coroot
                   for k, coroot in zip(perm, datum.coroots)):
                raise HeckeError("R-group does not preserve the coroots")
            self._simple_perm.append([datum.simples.index(perm[i]) for i in datum.simples])
        self.comp_perm = [[self.component_of[perm[comp[0]]] for comp in self.components]
                          for perm in self.root_perm]

        if cocycle is None:
            cocycle = dict.fromkeys(itertools.product(range(n), repeat=2), 1)
        self.cocycle = {k: (v if isinstance(v, Cyclo) else Cyclo.rational(v))
                        for k, v in cocycle.items()}
        if set(self.cocycle) != set(itertools.product(range(n), repeat=2)):
            raise HeckeError("cocycle table needs one value per pair of R-group elements")
        for v in self.cocycle.values():
            v.as_root_of_unity()
        kappa, mul = self.cocycle, self._r_mul
        if any(kappa[(i, j)] * kappa[(mul[i][j], k)] != kappa[(j, k)] * kappa[(i, mul[j][k])]
               for i, j, k in itertools.product(range(n), repeat=3)):
            raise HeckeError("cocycle identity fails")
        # normalized so that N_e is the unit
        if self.cocycle[(self.r_identity, self.r_identity)] != Cyclo.rational(1):
            raise HeckeError("cocycle must be normalized: kappa(e, e) = 1")
        # kappa(i, j) as the products apply it: None where it is 1
        self._kappa = [[None if self.cocycle[(i, j)] == 1 else self.cocycle[(i, j)]
                        for j in range(n)] for i in range(n)]

    def _orbit_names(self, prefix: str) -> dict[int, str]:
        """One parameter name per R-orbit of components: `prefix` for a
        single orbit, else prefix1, prefix2, ... by least component.  A
        parameter must be constant on R-orbits, since gamma s gamma^-1 is
        the reflection of gamma's image of s's root."""
        least = [min(perm[c] for perm in self.comp_perm) for c in range(len(self.components))]
        number = {c: k + 1 for k, c in enumerate(sorted(set(least)))}
        if len(number) == 1:
            return {c: prefix for c in range(len(least))}
        return {c: f"{prefix}{number[m]}" for c, m in enumerate(least)}

    def r_mul(self, i: int, j: int) -> int:
        return self._r_mul[i][j]

    def r_inv(self, i: int) -> int:
        return self._r_inv[i]

    def conj_w(self, gi: int, wi: int) -> int:
        """The index of gamma w gamma^-1 for gamma = rgroup[gi]: gamma sends
        each simple reflection s_a of a reduced word to s_gamma(a)."""
        perm = self._simple_perm[gi]
        return self.weyl.index_of_word([perm[s] for s in self.weyl.words[wi]])


class HeckeSpec(_SpecBase):
    """Immutable description of one twisted affine Hecke algebra."""

    def __init__(self, datum: BasedRootDatum,
                 labels: Mapping[int, tuple[int, int]] | int = 1,
                 label_star: int | None = None,
                 params: Mapping[int, str] | None = None,
                 rgroup: list[IntMatrix] | None = None,
                 cocycle: Mapping[tuple[int, int], Cyclo] | None = None):
        super().__init__(datum, rgroup, cocycle)
        if isinstance(labels, int):
            lam_star = label_star if label_star is not None else labels
            labels = {i: (labels, lam_star) for i in range(len(datum.roots))}
        self.labels = {i: (int(a), int(b)) for i, (a, b) in labels.items()}
        self.params = dict(params) if params is not None else self._orbit_names("z")
        self.zvars = tuple(sorted(set(self.params.values())))
        # the unit polynomial, shared (LaurentPoly is immutable)
        self._one = LaurentPoly.constant(self.zvars, 1)
        self._one_terms = self._one.terms
        self._validate()
        self._prepare_generators()
        self._mul_memo: dict[tuple[tuple, tuple], dict[Key, LaurentPoly]] = {}
        self._theta_memo: dict[tuple[int, ...], "HeckeElement"] = {}
        # bernstein.py: T_w theta_y per (w, y)
        self._bern_move_memo: dict[tuple[int, tuple[int, ...]], dict] = {}
        # (x, w) -> (length, first left descent, s (x, w)); see key_info
        self._key_table: dict[tuple[tuple[int, ...], int],
                              tuple[int, int | None, tuple | None]] = {}

    # -- validation -----------------------------------------------------------

    def _validate(self):
        datum = self.datum
        n_roots = len(datum.roots)
        if set(self.labels) != set(range(n_roots)):
            raise HeckeError("labels must cover every root")
        # constancy on W-orbits and R-orbits
        for i in range(n_roots):
            if any(self.labels[datum.root_index(datum.reflect(j, datum.roots[i]))]
                   != self.labels[i] for j in datum.simples):
                raise HeckeError("labels not constant on Weyl orbits")
            if any(self.labels[perm[i]] != self.labels[i] for perm in self.root_perm):
                raise HeckeError("labels not constant on R-group orbits")
        for i, (lam, lam_star) in self.labels.items():
            if lam < 0 or lam_star < 0:
                raise HeckeError("labels must be nonnegative")
            if lam != lam_star and any(c % 2 for c in datum.coroots[i]):
                raise HeckeError(
                    "label* may differ from label only when the coroot is divisible by 2")
        if set(self.params) != set(range(len(self.components))):
            raise HeckeError("params must name every component")
        if any(self.params[perm[c]] != self.params[c]
               for perm in self.comp_perm for c in range(len(self.components))):
            raise HeckeError("parameter names must be constant on R-orbits of components")

    # -- generators ------------------------------------------------------------

    def _prepare_generators(self):
        datum = self.datum
        zero = (0,) * datum.rank
        self.simple_gens: list[tuple[tuple[int, ...], int]] = [
            (zero, self.weyl.right_mult[0][j]) for j in range(len(datum.simples))]
        nodes = affine_simple_reflections(datum)[len(datum.simples):]
        self.affine_gens: list[tuple[tuple[int, ...], int]] = [
            (node.translation, self.weyl.index_of(node.finite)) for node in nodes]
        self.all_gens = self.simple_gens + self.affine_gens
        # (root, component, is an affine node) per generator
        gen_roots = [(i, self.component_of[i], False) for i in datum.simples]
        gen_roots += [(datum.root_index(node.translation), c, True)
                      for c, node in enumerate(nodes)]
        # per generator, for the descent test and the products with it: the
        # index of its (positive) root b, b's coroot, b's slot in the
        # inversion rows, and whether it is an affine node
        self._gen_roots = [(i, datum.coroots[i], self.weyl.slot[i], affine)
                           for i, _, affine in gen_roots]
        # z(s) per generator: z^label*(theta) at an affine node whose coroot
        # lies in 2 X^, z^label otherwise
        self.gen_zpoly: list[LaurentPoly] = []
        self.gen_deform: list[LaurentPoly] = []
        for root_idx, comp, affine in gen_roots:
            lam, lam_star = self.labels[root_idx]
            even = all(c % 2 == 0 for c in datum.coroots[root_idx])
            z = LaurentPoly.monomial(self.zvars, self.params[comp],
                                     lam_star if affine and even else lam)
            self.gen_zpoly.append(z)
            self.gen_deform.append(z - z.monomial_inverse())

    # -- keys --------------------------------------------------------------------

    def key_length(self, key: Key) -> int:
        return self.key_info((key[0], key[1]))[0]

    def key_info(self, a: tuple[tuple[int, ...], int]
                 ) -> tuple[int, int | None, tuple[tuple[int, ...], int] | None]:
        """(l(a), the position in all_gens of the first generator s with
        l(s a) < l(a), and s a) for a in X x| W, built once per key; the last
        two are None when l(a) = 0."""
        got = self._key_table.get(a)
        if got is None:
            got = self._key_table[a] = self._describe(a)
        return got

    def _describe(self, a):
        # For a = t_x w and a generator s with root b, k = <x, b^> and the
        # flag f = 1 if w^-1 b < 0 else 0, the length terms of s a are those
        # of a permuted by s_b, except b's own: |k - f| becomes |k + 1 - f|
        # at a finite simple reflection and |k - 1 - f| at an affine node
        # t_b s_b (whose length 1 makes <b, c^> 0 or 1 for every other
        # positive root c).  So the length falls, by one, exactly when
        # k - f < 0, respectively k - f > 0.
        x, wi = a
        length = _length_indexed(self.weyl, x, wi)
        if length == 0:
            return (0, None, None)
        flags = self.weyl.inversions(wi)
        for gen_pos, (i, coroot, slot, affine) in enumerate(self._gen_roots):
            k = sum(p * q for p, q in zip(x, coroot))
            m = k - flags[slot]
            if m > 0 if affine else m < 0:
                # s_b x = x - k b, and an affine node adds its translation b
                sx = tuple(p - (k - affine) * q for p, q in zip(x, self.datum.roots[i]))
                return (length, gen_pos, (sx, self.weyl.mul(self.all_gens[gen_pos][1], wi)))
        raise HeckeError("no descent found for a positive-length element")

    def key_mul_plain(self, a: tuple[tuple[int, ...], int],
                      b: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
        """(x, w)(y, v) = (x + w y, w v) in X x| W."""
        (x, wi), (y, vi) = a, b
        wy = self.weyl.act(wi, y)
        return (tuple(p + q for p, q in zip(x, wy)), self.weyl.mul(wi, vi))

    def key_mul_gen(self, a: tuple[tuple[int, ...], int],
                    gen_pos: int) -> tuple[tuple[int, ...], int]:
        """a s for the generator s at gen_pos in all_gens, without a matrix:
        a finite simple reflection has translation 0, and an affine node's
        translation b is a root, so w(b) is read from w's root row."""
        x, wi = a
        if gen_pos < len(self.simple_gens):
            return (x, self.weyl.right_mult[wi][gen_pos])
        wy = self.datum.roots[self.weyl.row(wi)[self._gen_roots[gen_pos][0]]]
        return (tuple(p + q for p, q in zip(x, wy)),
                self.weyl.mul(wi, self.all_gens[gen_pos][1]))

    def key_inv_plain(self, a: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
        x, wi = a
        winv = self.weyl.inv(wi)
        return (tuple(-v for v in self.weyl.act(winv, x)), winv)

    def conj_by_r(self, gi: int, a: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
        """gamma (t_x w) gamma^-1 for the R-group element gamma."""
        if gi == self.r_identity:
            return a
        x, wi = a
        return (il.mat_vec(self.rgroup[gi], x), self.conj_w(gi, wi))

    def factorize(self, a: tuple[tuple[int, ...], int]
                  ) -> tuple[list[int], tuple[tuple[int, ...], int]]:
        """a = g_1 ... g_k omega with k = l(a) and l(omega) = 0, as the
        positions of g_1, ..., g_k in all_gens and omega."""
        word: list[int] = []
        while True:
            _, gen_pos, sa = self.key_info(a)
            if gen_pos is None:
                return word, a
            word.append(gen_pos)
            a = sa

    # -- element constructors ------------------------------------------------------

    def zero(self) -> "HeckeElement":
        return HeckeElement(self, {})

    def one_poly(self) -> LaurentPoly:
        return self._one

    def unit(self) -> "HeckeElement":
        return self.basis((0,) * self.datum.rank, 0, self.r_identity)

    def basis(self, x: tuple[int, ...] | None = None, w: int = 0,
              r: int | None = None) -> "HeckeElement":
        x = tuple(x) if x is not None else (0,) * self.datum.rank
        r = r if r is not None else self.r_identity
        return HeckeElement(self, {(x, w, r): self.one_poly()})

    def n_simple(self, j: int) -> "HeckeElement":
        """N_s for the j-th simple reflection (finite)."""
        x, wi = self.simple_gens[j]
        return self.basis(x, wi)

    def n_affine(self, c: int) -> "HeckeElement":
        x, wi = self.affine_gens[c]
        return self.basis(x, wi)

    def n_r(self, gi: int) -> "HeckeElement":
        return self.basis(None, 0, gi)

    # -- serialization ----------------------------------------------------------------

    def to_json(self):
        return {"datum": self.datum.to_json(),
                "labels": [[i, list(v)] for i, v in sorted(self.labels.items())],
                "params": [[c, v] for c, v in sorted(self.params.items())],
                "rgroup": [[list(row) for row in g] for g in self.rgroup],
                "cocycle": [[list(k), v.to_json()] for k, v in sorted(self.cocycle.items())]}

    @staticmethod
    def from_json(data) -> "HeckeSpec":
        """Decode the form `to_json` writes; HeckeError on any other shape."""
        fields = ("labels", "params", "rgroup", "cocycle")
        if not dc.obj(data, *fields):
            raise HeckeError(f"a spec is an object with a datum and the lists {', '.join(fields)}")
        datum = BasedRootDatum.from_json(data.get("datum"))
        r = datum.rank
        if not all(dc.pair(e) and type(e[0]) is int and dc.int_list(e[1], 2)
                   for e in data["labels"]):
            raise HeckeError("labels must be [root index, [label, label*]] pairs")
        if not all(dc.pair(e) and type(e[0]) is int and isinstance(e[1], str)
                   for e in data["params"]):
            raise HeckeError("params must be [component, name] pairs")
        if not all(dc.is_list(g, r) and dc.int_rows(g, r) for g in data["rgroup"]):
            raise HeckeError(f"rgroup must be a list of {r}x{r} integer matrices")
        if not all(dc.pair(e) and dc.int_list(e[0], 2) for e in data["cocycle"]):
            raise HeckeError("cocycle must be [[i, j], value] pairs")
        labels = {i: tuple(v) for i, v in data["labels"]}
        cocycle = {tuple(k): Cyclo.from_json(v) for k, v in data["cocycle"]}
        return shared_spec(datum, tuple(labels.items()), tuple(dict(data["params"]).items()),
                           tuple(tuple(map(tuple, g)) for g in data["rgroup"]),
                           tuple(cocycle.items()))


@lru_cache(maxsize=32)
def shared_spec(datum: BasedRootDatum, labels: tuple | None = None, params: tuple | None = None,
                rgroup: tuple | None = None, cocycle: tuple | None = None) -> HeckeSpec:
    """The spec of decoded input, built once per distinct value (mappings as
    their items, None for `HeckeSpec`'s defaults), so repeated inputs in one
    process share its tables and product memo.  Bounded: input is unbounded."""
    return HeckeSpec(datum, 1 if labels is None else dict(labels),
                     params=None if params is None else dict(params),
                     rgroup=None if rgroup is None else list(rgroup),
                     cocycle=None if cocycle is None else dict(cocycle))


_SCALARS = (int, Fraction, Cyclo, LaurentPoly)


def _add_into(out: dict, key, poly: LaurentPoly) -> None:
    """out[key] += poly, dropping the key when the sum cancels."""
    cur = out.get(key)
    if cur is not None:
        poly = cur + poly
    if poly.is_zero():
        out.pop(key, None)
    else:
        out[key] = poly


class Combination:
    """Finite sum  sum_k f_k B_k  of basis elements B_k over one spec, with
    nonzero Laurent-polynomial coefficients f_k stored as `terms`.

    The linear structure shared by `HeckeElement`, `bernstein.BernElement`
    and `GradedElement`; each subclass supplies its product as `_mul`.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec, terms: Mapping):
        self.spec = spec
        self.terms = {k: p for k, p in terms.items() if not p.is_zero()}

    @classmethod
    def _wrap(cls, spec, terms: dict):
        """An element on terms that hold no zero coefficient, kept as given
        (not copied)."""
        out = cls.__new__(cls)
        out.spec, out.terms = spec, terms
        return out

    def _new(self, terms: Mapping):
        return type(self)(self.spec, terms)

    def __add__(self, other):
        if type(other) is not type(self) or other.spec is not self.spec:
            raise HeckeError("elements of different types or over different specs")
        out = dict(self.terms)
        for k, p in other.terms.items():
            _add_into(out, k, p)
        return self._new(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._new({k: -p for k, p in self.terms.items()})

    def scale(self, c):
        """c times self, for a scalar or a Laurent polynomial c."""
        return self._new({k: p * c for k, p in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return self._mul(other)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, Combination):
            return NotImplemented
        return (type(self) is type(other) and self.spec is other.spec
                and self.terms == other.terms)

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items(), key=lambda kv: kv[0])))

    def is_zero(self) -> bool:
        return not self.terms


class HeckeElement(Combination):
    """Finite sum of basis terms with Laurent-polynomial coefficients."""

    __slots__ = ()

    def _mul(self, other):
        return mul_im(self.spec, self, other)

    def __repr__(self):
        if not self.terms:
            return "HeckeElement(0)"
        bits = []
        for (x, wi, gi), p in sorted(self.terms.items()):
            bits.append(f"({p!r})*N[t{list(x)} w{wi} r{gi}]")
        return " + ".join(bits)

    def to_json(self):
        out = []
        for (x, wi, gi), p in sorted(self.terms.items()):
            out.append([{"t": list(x), "w_word": list(self.spec.weyl.words[wi]),
                         "r": gi}, p.to_json()])
        return out

    @staticmethod
    def from_json(spec: HeckeSpec, data) -> "HeckeElement":
        if not isinstance(data, list):
            raise HeckeError("an element is a list of [key, polynomial] terms")
        terms = {}
        for term in data:
            if not (dc.pair(term) and isinstance(term[0], dict)):
                raise HeckeError("each term must be a [key, polynomial] pair")
            key_data, poly_data = term
            t, wi = key_from_json(spec.weyl, key_data)
            r = key_data.get("r", spec.r_identity)
            if type(r) is not int or not 0 <= r < len(spec.rgroup):
                raise HeckeError(f"r must be an R-group index below {len(spec.rgroup)}")
            if _length_indexed(spec.weyl, t, wi) > KEY_LENGTH_GUARD:
                raise HeckeError(f"a basis key longer than {KEY_LENGTH_GUARD}")
            poly = LaurentPoly.from_json(poly_data)
            if poly.vars != spec.zvars:
                raise HeckeError(f"a coefficient must be a polynomial in {list(spec.zvars)}, "
                                 f"not in {list(poly.vars)}")
            terms[(t, wi, r)] = poly
        return HeckeElement(spec, terms)


def key_from_json(weyl: WeylGroup, data) -> tuple[tuple[int, ...], int]:
    """(t, index of w) of the element t_x w given as {"t": [...], "w_word":
    [...]}; HeckeError on another shape, ValueError on a word that is not a
    list of simple-reflection positions."""
    if not isinstance(data, dict):
        raise HeckeError('an element is an object {"t": [...], "w_word": [...]}')
    t, rank = data.get("t"), weyl.datum.rank
    if not dc.int_list(t, rank):
        raise HeckeError(f"t must be a list of {rank} integers")
    return tuple(t), weyl.index_of_word(dc.weyl_word(data.get("w_word"),
                                                     len(weyl.simple_positions)))


# ---------------------------------------------------------------------------
# multiplication


def _basis_mul_plain(spec: HeckeSpec, a: tuple[tuple[int, ...], int],
                     b: tuple[tuple[int, ...], int]) -> dict[Key, LaurentPoly]:
    """N_a N_b for a, b in X x| W, as a dict of terms (R-part trivial)."""
    key = (a, b)
    memo = spec._mul_memo
    got = memo.get(key)
    if got is not None:
        return got
    ident = spec.r_identity
    _, gen_pos, b1 = spec.key_info(b)
    if gen_pos is None:
        prod = spec.key_mul_plain(a, b)
        result = {(prod[0], prod[1], ident): spec.one_poly()}
        memo[key] = result
        return result
    # peel a left descent: b = s b1 with l(b1) = l(b) - 1
    a_s = spec.key_mul_gen(a, gen_pos)
    # the entry shares the sub-product's (immutable) polynomials instead of
    # wrapping each afresh: a smaller memo and shorter collector pauses
    out = dict(_basis_mul_plain(spec, a_s, b1))
    if spec.key_info(a_s)[0] < spec.key_info(a)[0]:
        deform = spec.gen_deform[gen_pos]
        for k, p in _basis_mul_plain(spec, a, b1).items():
            _add_into(out, k, p * deform)
    memo[key] = out
    return out


def basis_product(spec: HeckeSpec, a: tuple[tuple[int, ...], int],
                  b: tuple[tuple[int, ...], int]) -> HeckeElement:
    """N_a N_b for keys a = (x, w) and b = (y, v) of X x| W (R-part trivial).

    The element shares its terms with the spec's product memo, so repeated
    products cost one lookup; like every element it is not to be mutated.
    """
    return HeckeElement._wrap(spec, _basis_mul_plain(spec, a, b))


def mul_im(spec: HeckeSpec, a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """Product in the length-based presentation."""
    if a.spec is not spec or b.spec is not spec:
        raise HeckeError("elements do not belong to the spec")
    one, ident = spec._one_terms, spec.r_identity
    out: dict[Key, LaurentPoly] = {}
    for (x, wi, gi), p in a.terms.items():
        for (y, vi, hi), q in b.terms.items():
            # N_{u gamma} N_{v delta} = kappa(gamma, delta) (N_u N_{gamma v gamma^-1})
            #                           N_{gamma delta}
            conj = (y, vi) if gi == ident else spec.conj_by_r(gi, (y, vi))
            tail_r = spec._r_mul[gi][hi]
            # a unit coefficient, as on every basis element, is not multiplied
            coeff = p if q.terms == one else q if p.terms == one else p * q
            kappa = spec._kappa[gi][hi]
            if kappa is not None:
                coeff = coeff.scale(kappa)
            unit = coeff.terms == one
            for k, c in _basis_mul_plain(spec, (x, wi), conj).items():
                if tail_r != ident:
                    k = (k[0], k[1], tail_r)
                _add_into(out, k, c if unit else c * coeff)
    return HeckeElement._wrap(spec, out)


# ---------------------------------------------------------------------------
# the commutative subalgebra


def _dominant_shift(spec: HeckeSpec, vectors) -> tuple[int, ...]:
    """D = n * 2rho for the least n >= 0 that makes every x + D dominant."""
    datum = spec.datum
    two_rho = [0] * datum.rank
    for i in spec.weyl.positive_indices:
        two_rho = [a + b for a, b in zip(two_rho, datum.roots[i])]
    need = 0
    for x in vectors:
        for i in datum.simples:
            v = datum.pairing(tuple(x), datum.coroots[i])
            if v < 0:
                need = max(need, (-v + 1) // 2)     # <2rho, alpha_i^> = 2
    return tuple(need * b for b in two_rho)


def theta(spec: HeckeSpec, x: tuple[int, ...]) -> HeckeElement:
    """The commuting family theta_x: theta_x theta_y = theta_{x+y},
    theta_x = N_{t_x} for dominant x.

    theta_x = N_{t_{x+D}} N_{t_D}^-1 for the dominant shift D (a multiple of
    2 rho, so x + D and D are dominant).  With t_D = g_1 ... g_k omega,
    N_{t_D}^-1 = N_omega^-1 N_{g_k}^-1 ... N_{g_1}^-1, and each
    N_g^-1 = N_g - (z(g) - z(g)^-1) is peeled off on the right, one term at a
    time: N_a N_g^-1 is N_{ag} when l(ag) < l(a) and N_{ag} - (z - z^-1) N_a
    otherwise.  No inverse element is built."""
    x = tuple(x)
    if len(x) != spec.datum.rank:
        raise HeckeError("translation has wrong rank")
    memo = spec._theta_memo
    got = memo.get(x)
    if got is not None:
        return got
    shift = _dominant_shift(spec, [x])
    word, omega = spec.factorize((shift, 0))
    start = spec.key_mul_plain((tuple(a + b for a, b in zip(x, shift)), 0),
                               spec.key_inv_plain(omega))
    terms: dict[tuple[tuple[int, ...], int], LaurentPoly] = {start: spec.one_poly()}
    for gen_pos in reversed(word):
        minus_deform = -spec.gen_deform[gen_pos]
        out: dict[tuple[tuple[int, ...], int], LaurentPoly] = {}
        for a, c in terms.items():
            a_g = spec.key_mul_gen(a, gen_pos)
            _add_into(out, a_g, c)
            if spec.key_info(a_g)[0] > spec.key_info(a)[0]:
                _add_into(out, a, c * minus_deform)
        terms = out
    ident = spec.r_identity
    result = HeckeElement._wrap(spec, {(a[0], a[1], ident): c for a, c in terms.items()})
    memo[x] = result
    return result


def theta_combination(spec: HeckeSpec, coords: Mapping[tuple[int, ...], LaurentPoly]
                      ) -> HeckeElement:
    """Element sum_x c_x theta_x from exponent-coordinate data."""
    out = spec.zero()
    for x, c in coords.items():
        if isinstance(c, (int, Fraction, Cyclo)):
            c = LaurentPoly.constant(spec.zvars, c)
        out = out + theta(spec, tuple(x)).scale(c)
    return out


def _g_alpha_series(spec: HeckeSpec, simple_pos: int, m: int
                    ) -> dict[int, LaurentPoly]:
    """Powers of t = theta_{-alpha} in (a + b t)(1 - t^m)/(1 - t^2), where
    a = z^lam - z^-lam and b = z^lam* - z^-lam* for the simple root alpha.

    This is the exact correction series of the cross relation; the quotient
    is a genuine Laurent polynomial precisely under the label admissibility
    rule (odd m needs lam = lam*)."""
    root_idx = spec.datum.simples[simple_pos]
    out: dict[int, LaurentPoly] = {}
    if m == 0:
        return out
    lam, lam_star = spec.labels[root_idx]
    var = spec.params[spec.component_of[root_idx]]
    za = LaurentPoly.monomial(spec.zvars, var, lam)
    zb = LaurentPoly.monomial(spec.zvars, var, lam_star)
    a = za - za.monomial_inverse()
    b = zb - zb.monomial_inverse()

    if m % 2 == 0:
        powers = range(0, m, 2) if m > 0 else range(m, 0, 2)
        sign = 1 if m > 0 else -1
        for p in powers:
            _add_into(out, p, a * sign)
            _add_into(out, p + 1, b * sign)
    else:
        if lam != lam_star:
            raise HeckeError("odd pairing with unequal labels: admissibility violated")
        if m > 0:
            for p in range(0, m):
                _add_into(out, p, a)
        else:
            for p in range(m, 0):
                _add_into(out, p, -a)
    return out


def _blz_correction(spec: HeckeSpec, x: tuple[int, ...], simple_pos: int
                    ) -> dict[tuple[int, ...], LaurentPoly]:
    """theta-coordinates of G_alpha (theta_x - theta_{s x}) for a finite simple s."""
    datum = spec.datum
    root_idx = datum.simples[simple_pos]
    alpha = datum.roots[root_idx]
    k = datum.pairing(x, datum.coroots[root_idx])
    series = _g_alpha_series(spec, simple_pos, k)
    out: dict[tuple[int, ...], LaurentPoly] = {}
    for p, poly in series.items():
        _add_into(out, tuple(xx - p * q for xx, q in zip(x, alpha)), poly)
    return out


def blz_check(spec: HeckeSpec, f_coords: Mapping[tuple[int, ...], LaurentPoly],
              simple_pos: int) -> HeckeElement:
    """Commutator f N_s - N_s s(f) for f given by theta-coordinates.

    Verifies the cross relation: the commutator must equal the exact
    correction series; raises HeckeError otherwise.
    """
    datum = spec.datum
    root_idx = datum.simples[simple_pos]
    f = theta_combination(spec, f_coords)
    sf_coords: dict[tuple[int, ...], LaurentPoly] = {}
    for x, c in f_coords.items():
        sx = datum.reflect(root_idx, tuple(x))
        if isinstance(c, (int, Fraction, Cyclo)):
            c = LaurentPoly.constant(spec.zvars, c)
        _add_into(sf_coords, sx, c)
    sf = theta_combination(spec, sf_coords)
    n_s = spec.n_simple(simple_pos)
    commutator = mul_im(spec, f, n_s) - mul_im(spec, n_s, sf)
    expected: dict[tuple[int, ...], LaurentPoly] = {}
    for x, c in f_coords.items():
        if isinstance(c, (int, Fraction, Cyclo)):
            c = LaurentPoly.constant(spec.zvars, c)
        for y, p in _blz_correction(spec, tuple(x), simple_pos).items():
            _add_into(expected, y, c * p)
    if commutator != theta_combination(spec, expected):
        raise HeckeError("cross relation fails: presentation mismatch")
    return commutator


def is_central(spec: HeckeSpec, a: HeckeElement) -> bool:
    """Does a commute with the whole algebra?  Checked on generators."""
    gens = [spec.n_simple(j) for j in range(len(spec.datum.simples))]
    gens += [theta(spec, tuple(row)) for row in il.identity(spec.datum.rank)]
    gens += [spec.n_r(i) for i in range(len(spec.rgroup)) if i != spec.r_identity]
    return all(mul_im(spec, a, g) == mul_im(spec, g, a) for g in gens)


# ---------------------------------------------------------------------------
# automorphisms


class AdMap:
    """The conjugation automorphism attached to a (possibly fractional)
    vector x_g with w(x_g) - x_g integral for all w in W x| R.

    It fixes the commutative part pointwise and sends, for a finite simple s
    with k = <x_g, alpha^>,

        N_s -> theta_{k alpha} N_s + G_alpha (1 - theta_{k alpha}),

    which is conjugation by theta_{x_g} computed inside the algebra of the
    enlarged lattice X + Z x_g; on the R-group, N_r -> theta_{x_g - r(x_g)} N_r.
    Images of other basis elements are products of generator images along a
    canonical reduced factorization; homomorphy is the content of the
    underlying theorem and is exercised by the test suite.
    """

    def __init__(self, spec: HeckeSpec, x_g: tuple[Fraction, ...]):
        self.spec = spec
        self.x_g = tuple(Fraction(v) for v in x_g)
        datum = spec.datum
        if len(self.x_g) != datum.rank:
            raise HeckeError("x_g has wrong rank")
        for wi in range(spec.weyl.order):
            for gi in range(len(spec.rgroup)):
                m = il.mat_mul(spec.weyl.matrices[wi], spec.rgroup[gi])
                diff = self._shift(m)
                if any(d.denominator != 1 for d in diff):
                    raise HeckeError(
                        "w(x_g) - x_g is not integral: conjugation is not defined")
        # generator images
        self._simple_img: list[HeckeElement] = []
        for j in range(len(datum.simples)):
            root_idx = datum.simples[j]
            alpha = datum.roots[root_idx]
            k = sum(Fraction(c) * v for c, v in zip(datum.coroots[root_idx], self.x_g))
            if k.denominator != 1:
                raise HeckeError("fractional pairing <x_g, alpha^>: not supported")
            k = int(k)
            shift = tuple(int(k * a) for a in alpha)
            img = mul_im(spec, theta(spec, shift), spec.n_simple(j))
            for p, poly in _g_alpha_series(spec, j, -k).items():
                img = img + theta(spec, tuple(-p * a for a in alpha)).scale(poly)
            self._simple_img.append(img)
        # each image must still satisfy the quadratic relation (sanity)
        for j, img in enumerate(self._simple_img):
            lhs = mul_im(spec, img, img)
            rhs = spec.unit() + img.scale(spec.gen_deform[j])
            if lhs != rhs:
                raise HeckeError("internal: conjugated generator breaks its relation")
        self._simple_inv = [img - spec.unit().scale(spec.gen_deform[j])
                            for j, img in enumerate(self._simple_img)]
        self._r_img: list[HeckeElement] = []
        for gi in range(len(spec.rgroup)):
            diff = self._shift(spec.rgroup[gi])
            shift = tuple(int(d) for d in diff)
            self._r_img.append(mul_im(spec, theta(spec, shift), spec.n_r(gi)))
        self._key_memo: dict[Key, HeckeElement] = {}

    def _shift(self, m: IntMatrix) -> tuple[Fraction, ...]:
        """x_g - m(x_g)."""
        r = self.spec.datum.rank
        moved = tuple(sum(Fraction(m[i][j]) * self.x_g[j] for j in range(r))
                      for i in range(r))
        return tuple(a - b for a, b in zip(self.x_g, moved))

    def _image_of_key(self, key: Key) -> HeckeElement:
        got = self._key_memo.get(key)
        if got is not None:
            return got
        spec = self.spec
        x, wi, gi = key
        # key = g_1 ... g_k omega gamma
        word, omega = spec.factorize((x, wi))
        img = self._image_of_omega(omega)
        if gi != spec.r_identity:
            img = mul_im(spec, img, self._r_img[gi])
        for gen_pos in reversed(word):
            img = mul_im(spec, self._image_of_generator(gen_pos), img)
        self._key_memo[key] = img
        return img

    def _image_of_generator(self, gen_pos: int) -> HeckeElement:
        spec = self.spec
        if gen_pos < len(spec.simple_gens):
            return self._simple_img[gen_pos]
        # affine node: N_{t_theta s_theta} = theta_theta N_{s_theta}^{-1}
        theta_vec, s_theta_wi = spec.affine_gens[gen_pos - len(spec.simple_gens)]
        word = spec.weyl.words[s_theta_wi]
        img = theta(spec, theta_vec)
        for letter in word:
            img = mul_im(spec, img, self._simple_inv[letter])
        return img

    def _image_of_omega(self, omega: tuple[tuple[int, ...], int]) -> HeckeElement:
        """Image of a length-zero N_{t_y v} = theta_y N_{v^-1}^{-1}."""
        spec = self.spec
        y, vi = omega
        img = theta(spec, y)
        for letter in spec.weyl.words[vi]:
            img = mul_im(spec, img, self._simple_inv[letter])
        return img

    def __call__(self, elt: HeckeElement) -> HeckeElement:
        if elt.spec is not self.spec:
            raise HeckeError("element not over this spec")
        out = self.spec.zero()
        for key, p in elt.terms.items():
            out = out + self._image_of_key(key).scale(p)
        return out

    def inverse(self) -> "AdMap":
        return AdMap(self.spec, tuple(-v for v in self.x_g))


def guard_ad_xg(spec: HeckeSpec, x_g: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """x_g, or HeckeError if `AdMap` would build from it a theta_{k alpha}
    (k = <x_g, alpha^>, alpha simple) with a key longer than KEY_LENGTH_GUARD.
    What AdMap refuses itself (a wrong rank, a fractional k) is left to it."""
    datum = spec.datum
    if len(x_g) == datum.rank:
        for i in datum.simples:
            k = sum(c * v for c, v in zip(datum.coroots[i], x_g))
            if k.denominator == 1 and _length_indexed(
                    spec.weyl, tuple(k.numerator * a for a in datum.roots[i]), 0) > KEY_LENGTH_GUARD:
                raise HeckeError(f"x_g needs a theta key longer than {KEY_LENGTH_GUARD}")
    return x_g


def ad_xg(spec: HeckeSpec, x_g) -> AdMap:
    """Conjugation automorphism attached to x_g; fixes every theta and z."""
    return AdMap(spec, tuple(Fraction(v) for v in x_g))


def alpha_g_twist(spec: HeckeSpec, psi: list[Cyclo]):
    """Diagonal rescaling N_r -> psi(r) N_r onto the twisted-cocycle spec.

    Returns (target_spec, map); the target cocycle is
    kappa'(r, r') = kappa(r, r') psi(r) psi(r') psi(r r')^-1.
    """
    if len(psi) != len(spec.rgroup):
        raise HeckeError("psi must assign a value to every R-group element")
    psi = [v if isinstance(v, Cyclo) else Cyclo.rational(v) for v in psi]
    for v in psi:
        v.as_root_of_unity()
    if psi[spec.r_identity] != Cyclo.rational(1):
        raise HeckeError("psi must be 1 on the identity")
    new_cocycle = {}
    for (i, j), v in spec.cocycle.items():
        new_cocycle[(i, j)] = v * psi[i] * psi[j] * psi[spec.r_mul(i, j)].inverse()
    target = HeckeSpec(spec.datum, labels=spec.labels, params=spec.params,
                       rgroup=spec.rgroup, cocycle=new_cocycle)

    def twist(elt: HeckeElement) -> HeckeElement:
        if elt.spec is not spec:
            raise HeckeError("element not over the source spec")
        return HeckeElement(target, {k: p * psi[k[2]] for k, p in elt.terms.items()})

    return target, twist


# ---------------------------------------------------------------------------
# graded version


class GradedSpec(_SpecBase):
    """Degenerate (graded) version: polynomial coordinates on t* crossed with
    the finite twisted group algebra, deformed by the r-parameters.

    Cross relation: f T_s - T_s s(f) = r_j (f - s(f)) / alpha, one parameter
    r_j per R-orbit of components; at r = 0 this is the plain twisted group
    algebra over the polynomial ring.
    """

    def __init__(self, datum: BasedRootDatum,
                 rgroup: list[IntMatrix] | None = None,
                 cocycle: Mapping[tuple[int, int], Cyclo] | None = None):
        super().__init__(datum, rgroup, cocycle)
        self.coord_vars = tuple(f"x{i}" for i in range(datum.rank))
        names = self._orbit_names("r")
        self.r_vars = tuple(names[c] for c in range(len(self.components)))
        self.vars = self.coord_vars + tuple(sorted(set(self.r_vars)))

    def poly_constant(self, c) -> LaurentPoly:
        return LaurentPoly.constant(self.vars, c)

    def coordinate(self, i: int) -> LaurentPoly:
        return LaurentPoly.monomial(self.vars, self.coord_vars[i])

    def linear_form(self, vec) -> LaurentPoly:
        out = LaurentPoly(self.vars)
        for i, c in enumerate(vec):
            if c:
                out = out + LaurentPoly.monomial(self.vars, self.coord_vars[i], 1, c)
        return out

    def deformation(self, component: int) -> LaurentPoly:
        return LaurentPoly.monomial(self.vars, self.r_vars[component], 1)

    def act_poly(self, matrix: IntMatrix, p: LaurentPoly) -> LaurentPoly:
        """Linear substitution x_i -> sum_j matrix[j][i] x_j."""
        out = LaurentPoly(self.vars)
        for exps, coeff in p.terms.items():
            term = LaurentPoly.constant(self.vars, coeff)
            for var_idx, e in enumerate(exps):
                if e == 0:
                    continue
                if var_idx < len(self.coord_vars):
                    if e < 0:
                        raise HeckeError("graded coordinates must be polynomial")
                    image = self.linear_form(tuple(matrix[j][var_idx]
                                                   for j in range(self.datum.rank)))
                    term = term * image ** e
                else:
                    name = self.vars[var_idx]
                    term = term * LaurentPoly.monomial(self.vars, name, e)
            out = out + term
        return out

    def divide_by_linear(self, p: LaurentPoly, vec) -> LaurentPoly:
        """Exact division of p by the linear form of vec."""
        pivot = next((i for i, c in enumerate(vec) if c), None)
        if pivot is None:
            raise HeckeError("division by the zero form")
        lead = Fraction(vec[pivot])
        rest = self.linear_form(tuple(0 if i == pivot else c for i, c in enumerate(vec)))
        out = LaurentPoly(self.vars)
        remainder = p
        while not remainder.is_zero():
            # pick a term with maximal pivot-degree
            exps, coeff = max(remainder.terms.items(), key=lambda kv: kv[0][pivot])
            d = exps[pivot]
            if d == 0:
                raise HeckeError("polynomial not divisible by the linear form")
            new_exps = list(exps)
            new_exps[pivot] -= 1
            mono = LaurentPoly(self.vars, {tuple(new_exps): coeff / lead})
            out = out + mono
            remainder = remainder - mono * (self.linear_form(vec))
        return out

    def basis(self, poly=None, w: int = 0, r: int | None = None) -> "GradedElement":
        r = r if r is not None else self.r_identity
        poly = poly if poly is not None else self.poly_constant(1)
        return GradedElement(self, {(w, r): poly})

    def unit(self) -> "GradedElement":
        return self.basis()

    def t_simple(self, j: int) -> "GradedElement":
        return self.basis(None, self.weyl.right_mult[0][j])


class GradedElement(Combination):
    """sum f T_w T_gamma with polynomial f on the left; keys (w, gamma)."""

    __slots__ = ()

    def _mul(self, other):
        return graded_mul(self.spec, self, other)

    def specialize_r_zero(self) -> "GradedElement":
        """Set every deformation parameter to zero."""
        spec = self.spec
        out = {}
        n_coord = len(spec.coord_vars)
        for k, p in self.terms.items():
            kept = {}
            for exps, coeff in p.terms.items():
                if any(exps[i] for i in range(n_coord, len(spec.vars))):
                    continue
                kept[exps] = coeff
            out[k] = LaurentPoly(spec.vars, kept)
        return GradedElement(spec, out)


def _move_poly_left(spec: GradedSpec, wi: int, q: LaurentPoly
                    ) -> dict[int, LaurentPoly]:
    """T_w q = sum_u c_u T_u with polynomial coefficients on the left."""
    word = spec.weyl.words[wi]
    if not word:
        return {0: q}
    # T_w = T_{w'} T_s with s the last letter
    s = word[-1]
    w1 = spec.weyl.right_mult[wi][s]
    root_idx = spec.datum.simples[s]
    s_mat_idx = spec.weyl.right_mult[0][s]
    sq = spec.act_poly(spec.weyl.matrices[s_mat_idx], q)
    corr = spec.divide_by_linear(q - sq, spec.datum.roots[root_idx])
    corr = corr * spec.deformation(spec.component_of[root_idx])
    out: dict[int, LaurentPoly] = {}
    for u, c in _move_poly_left(spec, w1, sq).items():
        _add_into(out, spec.weyl.right_mult[u][s], c)
    for u, c in _move_poly_left(spec, w1, corr).items():
        _add_into(out, u, c)
    return out


def graded_mul(spec: GradedSpec, a: GradedElement, b: GradedElement) -> GradedElement:
    """Product in the graded algebra, normal form with polynomials on the left."""
    out: dict[tuple[int, int], LaurentPoly] = {}
    for (wi, gi), p in a.terms.items():
        for (vi, hi), q in b.terms.items():
            moved = _move_poly_left(spec, wi, spec.act_poly(spec.rgroup[gi], q))
            # tails: T_u T_gamma T_v T_delta = T_{u gamma(v)} kappa T_{gamma delta}
            v_conj = spec.conj_w(gi, vi)
            tail_r = spec._r_mul[gi][hi]
            kappa = spec._kappa[gi][hi]
            coeff = p if kappa is None else p.scale(kappa)
            for u, c in moved.items():
                _add_into(out, (spec.weyl.mul(u, v_conj), tail_r), coeff * c)
    return GradedElement(spec, out)


# ---------------------------------------------------------------------------
# intermediate algebras for a larger R-group


class IntermediateAlgebra:
    """The same presented algebra with the R-group enlarged to Gamma_big.

    `embed` is the algebra embedding iota: H(small) -> H(big),
    (x, w, gamma) -> (x, w, iota(gamma)).  As a module H(big) is the direct
    sum of [Gamma_big : Gamma] pieces, one per left coset c Gamma of the
    R-part (`module_decomposition`).  Each piece is a right iota(H(small))-
    module: N_u N_{iota(gamma)} keeps the R-part in u's coset.  It is a left
    module only when Gamma is normal, since N_{iota(gamma)} N_u moves the
    R-part to gamma c Gamma, which is c Gamma for every gamma only then.
    """

    def __init__(self, small: HeckeSpec, big: HeckeSpec,
                 embedding: list[int], coset_reps: list[int]):
        self.small = small
        self.big = big
        # embedding[i] = the index in big.rgroup of small.rgroup[i]
        self.embedding = embedding
        self.coset_reps = coset_reps

    def embed(self, elt: HeckeElement) -> HeckeElement:
        """iota(elt) in the enlarged algebra."""
        return HeckeElement(self.big, {(x, wi, self.embedding[gi]): p
                                       for (x, wi, gi), p in elt.terms.items()})

    def module_decomposition(self, elt: HeckeElement) -> dict[int, HeckeElement]:
        """Split an element by the left Gamma-coset of its R-part."""
        out: dict[int, dict] = {rep: {} for rep in self.coset_reps}
        small_set = set(self.embedding)
        for key, p in elt.terms.items():
            gi = key[2]
            for rep in self.coset_reps:
                rep_inv = self.big.r_inv(rep)
                if self.big.r_mul(rep_inv, gi) in small_set:
                    out[rep][key] = p
                    break
        return {rep: HeckeElement(self.big, terms) for rep, terms in out.items()}


def intermediate_algebra(spec: HeckeSpec, gamma_big: list[IntMatrix],
                         kappa_big: Mapping[tuple[int, int], Cyclo] | None = None
                         ) -> IntermediateAlgebra:
    """Enlarge the R-group of spec to gamma_big (kappa_big restricting to
    the old cocycle), keeping datum, labels and parameters."""
    big_mats = [tuple(map(tuple, g)) for g in gamma_big]
    for g in spec.rgroup:
        if g not in big_mats:
            raise HeckeError("gamma_big must contain the old R-group")
    big = HeckeSpec(spec.datum, labels=spec.labels, params=spec.params,
                    rgroup=big_mats, cocycle=kappa_big)
    # cocycle compatibility on the embedded copy
    embed = [big.r_index[g] for g in spec.rgroup]
    if any(v != big.cocycle[(embed[i], embed[j])] for (i, j), v in spec.cocycle.items()):
        raise HeckeError("kappa_big does not restrict to the old cocycle")
    # left coset representatives of Gamma in Gamma_big
    reps, covered = [], set()
    for gi in range(len(big.rgroup)):
        if gi not in covered:
            reps.append(gi)
            covered.update(big.r_mul(gi, si) for si in embed)
    return IntermediateAlgebra(spec, big, embed, reps)
