"""Normal forms modulo the curve ideal, and evaluation codes.

The curve ideal has a two-element Groebner basis with coprime leading terms;
reduction against it maps any polynomial onto the footprint basis, which has
exactly n monomials.  Evaluation codes come from the monomials of bounded
weight, and their duals are again evaluation codes.
"""

from normtrace import (build_code, check_duality, curve_ideal_basis,
                       dual_weight, footprint, make_curve, monomials_up_to,
                       normal_form, weight)
from normtrace.monomials import order_key
from normtrace.reduction import monomial_poly

curve = make_curve(2, 1, 4, 3)

# --- the ideal and its footprint --------------------------------------------

basis = curve_ideal_basis(curve)
lt = lambda g: max(g.support, key=lambda m: order_key(curve, m))
print("Groebner basis leading terms:", lt(basis.g1), "and", lt(basis.g2))

delta = footprint(curve)
print(f"footprint size = {len(delta)} = n = {curve.n}")

# reduction rewrites high powers onto the footprint, preserving evaluations
for i, j in [(4, 0), (0, 8), (8, 0)]:
    nf = normal_form(curve, monomial_poly(curve.field, (i, j)))
    print(f"  X^{i}Y^{j} reduces to support {nf.support}")

# --- evaluation codes --------------------------------------------------------

s = 36
built = build_code(curve, s)
print(f"\nNT_3({s}): [{built.n}, {built.k}] over F_16")
print(f"  monomials of weight <= 8: {monomials_up_to(curve, 8)}")
print(f"  weight of X^2Y^3: {weight(curve, (2, 3))}")

# the dual of NT_u(s) is NT_u(s') with s' = n + 2g - 2 - s
sprime = dual_weight(curve, s)
report = check_duality(curve, s)
print(f"  dual weight s' = {sprime}, duality verified: {report.ok}")
