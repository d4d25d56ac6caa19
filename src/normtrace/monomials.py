"""Weighted bivariate monomials and the footprint of the curve ideal.

A monomial X^i Y^j is the exponent pair (i, j).  Its weight on a curve with
parameters (q, r, u) is q^{r-1} * i + u * j; weights are injective on the
footprint because gcd(u, q^{r-1}) = 1.  The monomial order used everywhere
is weight-first with ties broken by the larger Y-exponent, which makes the
leading terms of the two curve-ideal generators coprime.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache

from .curves import CurveSpec

Monomial = tuple[int, int]  # (X exponent, Y exponent)


def weight(curve: CurveSpec, mono: Monomial) -> int:
    i, j = mono
    return curve.weight_x * i + curve.weight_y * j


def order_key(curve: CurveSpec, mono: Monomial):
    """Sort key realizing the weight-first, Y-dominant monomial order."""
    return (weight(curve, mono), mono[1])


def compare(curve: CurveSpec, m1: Monomial, m2: Monomial) -> int:
    """-1, 0 or 1 as m1 is below, equal to or above m2 in the monomial order."""
    k1, k2 = order_key(curve, m1), order_key(curve, m2)
    return (k1 > k2) - (k1 < k2)


def _ordered_box(curve: CurveSpec, height: int) -> tuple:
    """The monomials X^i Y^j, 0 <= i <= u(q-1), 0 <= j < height, sorted by
    the monomial order.  Each is sorted as (weight, j, i), built inline:
    weight and j fix i, so this is the order of order_key."""
    wx, wy = curve.weight_x, curve.weight_y
    keyed = sorted((wx * i + wy * j, j, i)
                   for i in range(curve.u * (curve.q - 1) + 1)
                   for j in range(height))
    return tuple((i, j) for _, j, i in keyed)


@lru_cache(maxsize=None)
def footprint(curve: CurveSpec) -> tuple:
    """The n standard monomials X^i Y^j, 0 <= i <= u(q-1), 0 <= j < q^{r-1}.

    Sorted by the monomial order, on (weight, j) keys built inline
    (_ordered_box).  These are exactly the monomials not divisible by a
    leading term of the curve ideal basis, and they evaluate to a basis of
    the functions on the point set.
    """
    return _ordered_box(curve, curve.q ** (curve.r - 1))


@lru_cache(maxsize=None)
def footprint_paper_variant(curve: CurveSpec) -> tuple:
    """Variant with j running up to q^{r-1} inclusive (n + u(q-1) + 1 monomials).

    Only used by the distance bound's alternate mode; the true footprint is
    :func:`footprint`.
    """
    return _ordered_box(curve, curve.q ** (curve.r - 1) + 1)


@lru_cache(maxsize=None)
def footprint_weights(curve: CurveSpec) -> tuple:
    """The weights of the footprint monomials, in footprint order: strictly
    increasing, since weights are injective on the footprint."""
    wx, wy = curve.weight_x, curve.weight_y
    return tuple(wx * i + wy * j for i, j in footprint(curve))


def monomials_up_to(curve: CurveSpec, s: int) -> list:
    """Footprint monomials of weight at most s, ascending by weight: a
    prefix of the footprint."""
    return list(footprint(curve)[:bisect_right(footprint_weights(curve), s)])
