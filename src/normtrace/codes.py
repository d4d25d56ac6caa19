"""Evaluation codes on extended Norm-Trace curves and their duals.

NT_u(s) is the affine variety code spanned by evaluating the footprint
monomials of weight at most s at all n points.  The dual of NT_u(s) is the
twisted code v * NT_u(s') with s' = n + 2g - 2 - s, where v_P = -1/u at the
points with x != 0 and v_P = -1 at the points with x = 0.  When u = 1 mod p
the twist is a constant and drops out, so the dual is NT_u(s') itself, as
for every binary curve.  check_duality verifies this relation explicitly
(orthogonality plus dimension count) at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .curves import CurveSpec, enumerate_points
from .linalg import LinearCode, matrix_product_is_zero, row_space_basis
from .monomials import monomials_up_to
from .reduction import SparsePolynomial


def _monomial_rows(curve: CurveSpec, monos):
    fld = curve.field
    points = enumerate_points(curve)
    # Precompute coordinate powers once; the matrices are small but this
    # keeps repeated build_code calls cheap.
    rows = []
    for (i, j) in monos:
        rows.append([fld.mul(fld.pow(x, i), fld.pow(y, j))
                     for (x, y) in points])
    return rows


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


def _duality_twist(curve: CurveSpec):
    """v with NT_u(s)^perp = v * NT_u(s'), one entry per point; None when v
    is constant, that is when u = 1 mod p."""
    if curve.u % curve.p == 1:
        return None
    fld = curve.field
    off_axis = fld.neg(fld.inv(curve.u % curve.p))
    return [off_axis if x else fld.neg(1) for x, _ in enumerate_points(curve)]


def check_duality(curve: CurveSpec, s: int) -> DualityReport:
    """Verify NT_u(s)^perp = v * NT_u(dual_weight(s)) by explicit computation."""
    s_dual = dual_weight(curve, s)
    c1 = build_code(curve, s)
    c2 = build_code(curve, s_dual)
    fld = curve.field
    dual_rows = c2.code.generators
    twist = _duality_twist(curve)
    if twist is not None:
        dual_rows = [[fld.mul(v, b) for v, b in zip(twist, row)]
                     for row in dual_rows]
    orthogonal = matrix_product_is_zero(c1.code.generators, dual_rows, fld)
    return DualityReport(
        curve=curve, s=s, s_dual=s_dual,
        dim_s=c1.k, dim_dual=c2.k,
        orthogonal=orthogonal,
        dims_sum_to_n=(c1.k + c2.k == curve.n))
