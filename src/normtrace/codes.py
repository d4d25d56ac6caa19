"""Evaluation codes on extended Norm-Trace curves and their duals.

NT_u(s) is the affine variety code spanned by evaluating the footprint
monomials of weight at most s at all n points.  The dual of NT_u(s) is the
twisted code v * NT_u(s') with s' = n + 2g - 2 - s, where v_P = -1/u at the
points with x != 0 and v_P = -1 at the points with x = 0.  When u = 1 mod p
the twist is a constant and drops out, so the dual is NT_u(s') itself, as
for every binary curve.

check_duality verifies this relation at runtime without building either
code.  Both are spans of monomial evaluations, so they are orthogonal
exactly when every twisted power sum S(a, b) = sum_P v_P x^a y^b vanishes,
for (a, b) a sum of exponents of a weight-<=s and a weight-<=s' monomial.
Footprint monomials evaluate independently (build_code asserts this for
every code it builds), so each dimension is a count of monomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .curves import CurveSpec, enumerate_points
from .linalg import LinearCode, row_space_basis
from .monomials import monomials_up_to
from .reduction import SparsePolynomial


def _monomial_rows(curve: CurveSpec, monos):
    """Evaluations of the monomials at the points, from one table of x^i
    and one of y^j over the points per exponent that occurs."""
    fld = curve.field
    xs, ys = zip(*enumerate_points(curve))
    xpow = {i: [fld.pow(x, i) for x in xs] for i in {i for i, _ in monos}}
    ypow = {j: [fld.pow(y, j) for y in ys] for j in {j for _, j in monos}}
    return [list(map(fld.mul, xpow[i], ypow[j])) for i, j in monos]


def affine_variety_code(points, polys, fld) -> LinearCode:
    """Row space of the evaluation matrix of the given polynomials."""
    rows = [[f.evaluate(p) for p in points] for f in polys]
    return row_space_basis(rows, fld, n=len(points))


@dataclass(frozen=True)
class EntCode:
    """NT_u(s): the weight-s evaluation code on the curve."""

    curve: CurveSpec
    s: int
    monomials: tuple
    code: LinearCode

    @property
    def n(self) -> int:
        return self.code.n

    @property
    def k(self) -> int:
        return self.code.k


@lru_cache(maxsize=None)
def build_code(curve: CurveSpec, s: int) -> EntCode:
    """Evaluate all footprint monomials of weight <= s at the curve points."""
    monos = tuple(monomials_up_to(curve, s))
    rows = _monomial_rows(curve, monos)
    code = row_space_basis(rows, curve.field, n=curve.n)
    if code.k != len(monos):
        raise AssertionError(
            f"footprint evaluations are dependent: {code.k} != {len(monos)}")
    return EntCode(curve, s, monos, code)


def dual_weight(curve: CurveSpec, s: int) -> int:
    """Weight s' with NT_u(s)^perp = NT_u(s'): s' = n + 2g - 2 - s.

    This is the relation the worked duality checks confirm; it is an
    involution, and check_duality guards every use at runtime.
    """
    return curve.n + 2 * curve.genus - 2 - s


def dual_weight_printed_formula(curve: CurveSpec, s: int) -> int:
    """Alternate dual-weight formula q^{r-1}(u-1) + u(q^{r-1}-1) - 1 - s.

    Kept only for reporting: whenever it differs from dual_weight, the
    discrepancy is surfaced, never silently used.
    """
    w = curve.weight_x
    return w * (curve.u - 1) + curve.u * (w - 1) - 1 - s


@dataclass(frozen=True)
class DualityReport:
    curve: CurveSpec
    s: int
    s_dual: int
    dim_s: int
    dim_dual: int
    orthogonal: bool
    dims_sum_to_n: bool

    @property
    def ok(self) -> bool:
        return self.orthogonal and self.dims_sum_to_n


def _duality_twist(curve: CurveSpec, x: int) -> int:
    """v_P at the points with this x: -1 at x = 0 and -1/u elsewhere, which
    is -1 for every x when u = 1 mod p."""
    fld = curve.field
    return fld.neg(fld.inv(curve.u % curve.p) if x else 1)


def _field_sum(fld, values) -> int:
    total = 0
    for v in values:
        total = fld.add(total, v)
    return total


def check_duality(curve: CurveSpec, s: int) -> DualityReport:
    """Verify NT_u(s)^perp = v * NT_u(dual_weight(s)) from power sums.

    The points are grouped by x, which fixes v_P, and each group keeps one
    power sum of its y's per exponent b.  The codes are orthogonal when
    S(a, b) = sum_x v(x) x^a sum_y y^b is zero for every exponent sum (a, b)
    of a monomial in M(s) and one in M(s').  The dimensions are |M(s)| and
    |M(s')|: footprint monomials evaluate independently.
    """
    s_dual = dual_weight(curve, s)
    monos = monomials_up_to(curve, s)
    dual_monos = monomials_up_to(curve, s_dual)
    sums = {(i + a, j + b) for i, j in monos for a, b in dual_monos}
    fld = curve.field
    fibers = {}
    for x, y in enumerate_points(curve):
        fibers.setdefault(x, []).append(y)
    twist = {x: _duality_twist(curve, x) for x in fibers}
    # b -> [(x, v(x) * sum of y^b over the points with this x)]
    twisted = {b: [(x, fld.mul(twist[x],
                              _field_sum(fld, (fld.pow(y, b) for y in ys))))
                   for x, ys in fibers.items()]
               for b in {b for _, b in sums}}
    orthogonal = not any(
        _field_sum(fld, (fld.mul(fld.pow(x, a), w) for x, w in twisted[b]))
        for a, b in sums)
    return DualityReport(
        curve=curve, s=s, s_dual=s_dual,
        dim_s=len(monos), dim_dual=len(dual_monos),
        orthogonal=orthogonal,
        dims_sum_to_n=(len(monos) + len(dual_monos) == curve.n))
