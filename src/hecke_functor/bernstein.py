"""
Multiplication through the commutative presentation, independent of the
length recursion in `hecke.mul_im`.

Elements are stored as  sum  theta_x * f(z) * T_w  with w in the finite Weyl
group.  Products only use

* the finite Hecke algebra of W (quadratic relation with the finite length),
* the cross-relation correction series for moving T_s past theta_x,
* freeness of x -> theta_x.

Together with the basis conversion `bern_to_im` this gives a second route to
products of basis elements, used as the oracle for `mul_im`.  Only specs with
trivial R-group are supported here.
"""

from __future__ import annotations

from typing import Mapping

from .numkernel import LaurentPoly
from .hecke import (
    Combination, HeckeElement, HeckeError, HeckeSpec, _add_into, _blz_correction,
    _dominant_shift, mul_im, theta,
)

__all__ = ["BernElement", "bern_basis", "mul_bernstein", "bern_to_im"]


class BernElement(Combination):
    """sum theta_x f(z) T_w, keys (x, finite Weyl index)."""

    __slots__ = ()

    def __init__(self, spec: HeckeSpec, terms: Mapping[tuple[tuple[int, ...], int], LaurentPoly]):
        if len(spec.rgroup) != 1:
            raise HeckeError("commutative-presentation route needs a trivial R-group")
        super().__init__(spec, terms)

    def _mul(self, other):
        return mul_bernstein(self.spec, self, other)


def bern_basis(spec: HeckeSpec, x: tuple[int, ...], wi: int) -> BernElement:
    return BernElement(spec, {(tuple(x), wi): spec.one_poly()})


def _finite_append_s(spec: HeckeSpec, terms: dict, simple_pos: int) -> dict:
    """Right multiplication by T_s on (x, w)-terms, finite quadratic rule."""
    group = spec.weyl
    out: dict[tuple[tuple[int, ...], int], LaurentPoly] = {}
    deform = spec.gen_deform[simple_pos]
    for (x, ui), p in terms.items():
        us = group.right_mult[ui][simple_pos]
        _add_into(out, (x, us), p)
        if len(group.words[us]) < len(group.words[ui]):
            _add_into(out, (x, ui), p * deform)
    return out


def _move_through(spec: HeckeSpec, wi: int, y: tuple[int, ...]
                  ) -> dict[tuple[tuple[int, ...], int], LaurentPoly]:
    """T_w theta_y as a Bernstein-normal-form dict (memoized per spec)."""
    memo = spec._bern_move_memo
    got = memo.get((wi, y))
    if got is not None:
        return got
    result = _move_through_raw(spec, wi, y)
    memo[(wi, y)] = result
    return result


def _move_through_raw(spec: HeckeSpec, wi: int, y: tuple[int, ...]
                      ) -> dict[tuple[tuple[int, ...], int], LaurentPoly]:
    group = spec.weyl
    word = group.words[wi]
    if not word:
        return {(y, 0): spec.one_poly()}
    s = word[-1]
    w1 = group.right_mult[wi][s]
    root_idx = spec.datum.simples[s]
    sy = spec.datum.reflect(root_idx, y)
    # T_s theta_y = theta_{s y} T_s + correction (a theta-span element)
    out = _finite_append_s(spec, _move_through(spec, w1, sy), s)
    for z, c in _blz_correction(spec, y, s).items():
        for key, p in _move_through(spec, w1, z).items():
            _add_into(out, key, p * c)
    return out


def mul_bernstein(spec: HeckeSpec, a: BernElement, b: BernElement) -> BernElement:
    """Product computed entirely inside the commutative presentation."""
    out: dict[tuple[tuple[int, ...], int], LaurentPoly] = {}
    for (x, wi), p in a.terms.items():
        for (y, vi), q in b.terms.items():
            moved = _move_through(spec, wi, y)
            for (z, ui), c in moved.items():
                base = {(tuple(pp + qq for pp, qq in zip(x, z)), ui): p * q * c}
                for letter in spec.weyl.words[vi]:
                    base = _finite_append_s(spec, base, letter)
                for key, poly in base.items():
                    _add_into(out, key, poly)
    return BernElement(spec, out)


def bern_to_im(spec: HeckeSpec, e: BernElement) -> HeckeElement:
    """Evaluate sum theta_x f T_w inside the length-presentation algebra."""
    memo = spec._bern_basis_memo
    total = spec.zero()
    for (x, wi), p in e.terms.items():
        part = memo.get((x, wi))
        if part is None:
            part = mul_im(spec, theta(spec, x), spec.basis(None, wi))
            memo[(x, wi)] = part
        total = total + part.scale(p)
    return total


def oracle_pair_check(spec: HeckeSpec, x: tuple[int, ...], wi: int,
                      y: tuple[int, ...], vi: int) -> bool:
    """Compare the two multiplication routes on (theta_x T_w) (theta_y T_v).

    y must be dominant.  Both sides are multiplied on the left by a single
    dominant translation theta_D = N_{t_D} chosen so every translation in
    sight becomes dominant; this clears all inverses, so the comparison uses
    only basis products.  Multiplying by an invertible element preserves
    equality, so this is equivalent to comparing the images directly.
    """
    datum = spec.datum
    if not datum.is_dominant(y):
        raise HeckeError("the right translation must be dominant")
    prod = mul_bernstein(spec, bern_basis(spec, x, wi), bern_basis(spec, y, vi))
    # dominant shift covering x and every translation of the product
    shift = _dominant_shift(spec, [x] + [k[0] for k in prod.terms])
    # left side: theta_D im(prod) with every translation shifted to dominant
    lhs = spec.zero()
    for (z, ui), p in prod.terms.items():
        moved = tuple(a + b for a, b in zip(shift, z))
        term = mul_im(spec, spec.basis(moved, 0), spec.basis(None, ui))
        lhs = lhs + term.scale(p)
    # right side: (N_{t_{D+x}} N_w) (N_{t_y} N_v)
    dx = tuple(a + b for a, b in zip(shift, x))
    left_half = mul_im(spec, spec.basis(dx, 0), spec.basis(None, wi))
    right_half = mul_im(spec, spec.basis(tuple(y), 0), spec.basis(None, vi))
    rhs = mul_im(spec, left_half, right_half)
    return lhs == rhs
