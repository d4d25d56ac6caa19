import random

import pytest

from normtrace import codes
from normtrace.codes import (affine_variety_code, build_code, check_duality,
                             dual_weight, dual_weight_printed_formula)
from normtrace.curves import enumerate_points, make_curve
from normtrace.fields import make_field
from normtrace.monomials import monomials_up_to
from normtrace.reduction import SparsePolynomial, monomial_poly

NT3 = make_curve(2, 1, 4, 3)
NT5 = make_curve(2, 1, 4, 5)


def test_affine_variety_code_examples():
    F4 = make_field(2, 2)
    pts = [(a, 0) for a in F4.elements()]
    one = monomial_poly(F4, (0, 0))
    x = monomial_poly(F4, (1, 0))
    rep = affine_variety_code(pts, [one], F4)
    assert rep.k == 1 and rep.generators == ((1, 1, 1, 1),)
    zero = affine_variety_code(pts, [SparsePolynomial(F4, ())], F4)
    assert zero.k == 0
    rs = affine_variety_code(pts, [one, x], F4)
    assert (rs.n, rs.k) == (4, 2)


def test_build_code_dimensions():
    assert build_code(NT5, 60).k == 43
    assert build_code(NT5, 62).k == 44
    assert build_code(NT5, 65).k == 45
    assert build_code(NT3, 36).k == 28
    full = build_code(NT3, 45)
    assert (full.n, full.k) == (32, 32)


def test_dimension_counts_weights():
    for curve in (NT3, NT5):
        for s in range(0, curve.max_weight + 1, 7):
            assert build_code(curve, s).k == len(monomials_up_to(curve, s))


def test_dual_weight():
    assert dual_weight(NT3, 36) == 8
    assert dual_weight(NT5, 60) == 14
    assert dual_weight(NT5, 65) == 9
    for s in range(-3, 80):
        assert dual_weight(NT5, dual_weight(NT5, s)) == s
    # the printed closed form disagrees with the verified involution here
    assert dual_weight_printed_formula(NT3, 36) == 0


def test_check_duality_examples():
    rep = check_duality(NT3, 36)
    assert rep.ok and (rep.dim_s, rep.dim_dual) == (28, 4)
    rep = check_duality(NT3, 0)
    assert rep.ok and (rep.dim_s, rep.dim_dual) == (1, 31)
    rep = check_duality(NT5, 65)
    assert rep.ok and (rep.dim_s, rep.dim_dual) == (45, 3)


def matrix_duality(curve, s, s_dual, twisted=True):
    """Independent route: (orthogonal, k, k') from the generator matrices of
    NT_u(s) and NT_u(s'), twisting the second by -1 at x = 0 and -1/u
    elsewhere, with one dot product per pair of rows."""
    fld = curve.field
    code, dual = build_code(curve, s).code, build_code(curve, s_dual).code
    if twisted:
        off_axis = fld.neg(fld.inv(curve.u % curve.p))
        twist = [off_axis if x else fld.neg(1)
                 for x, _ in enumerate_points(curve)]
    else:
        twist = [1] * curve.n
    dual_rows = [[fld.mul(v, b) for v, b in zip(twist, row)]
                 for row in dual.generators]

    def dot(row, other):
        total = 0
        for a, b in zip(row, other):
            total = fld.add(total, fld.mul(a, b))
        return total

    orthogonal = all(dot(row, other) == 0
                     for row in code.generators for other in dual_rows)
    return orthogonal, code.k, dual.k


def assert_matches_matrix_route(curve):
    for s in range(curve.n + 2 * curve.genus - 1):
        rep = check_duality(curve, s)
        expect = matrix_duality(curve, s, dual_weight(curve, s))
        assert (rep.orthogonal, rep.dim_s, rep.dim_dual) == expect
        assert rep.ok


def test_check_duality_full_sweep():
    for curve in (NT3, NT5, make_curve(2, 2, 2, 5)):
        assert_matches_matrix_route(curve)


def test_check_duality_twisted_in_odd_characteristic():
    # u is not 1 mod p on these curves, so the dual NT_u(s') carries the
    # twist -1/u off the axis x = 0.
    for params in [(3, 1, 2, 2), (5, 1, 2, 2), (5, 1, 2, 3)]:
        assert_matches_matrix_route(make_curve(*params))


def test_check_duality_rejects_untwisted_sums(monkeypatch):
    curve = make_curve(3, 1, 2, 2)  # u = 2 is not 1 mod 3
    monkeypatch.setattr(codes, "_duality_twist", lambda curve, x: 1)
    for s in range(curve.n + 2 * curve.genus - 1):
        rep = check_duality(curve, s)
        assert not rep.orthogonal
        assert not matrix_duality(curve, s, rep.s_dual, twisted=False)[0]


@pytest.mark.parametrize("params", [(3, 1, 2, 2), (2, 1, 4, 3),
                                    (5, 1, 2, 3)], ids=str)
def test_check_duality_rejects_shifted_dual_weight(params, monkeypatch):
    curve = make_curve(*params)
    shifted = {s: dual_weight(curve, s) + 1
               for s in range(curve.n + 2 * curve.genus - 1)}
    monkeypatch.setattr(codes, "dual_weight", lambda curve, s: shifted[s])
    rejected = 0
    for s, s_dual in shifted.items():
        if monomials_up_to(curve, s_dual) == monomials_up_to(curve,
                                                             s_dual - 1):
            continue  # no monomial of weight s' + 1: the same code
        rep = check_duality(curve, s)
        assert not rep.orthogonal and not rep.ok
        assert not matrix_duality(curve, s, s_dual)[0]
        rejected += 1
    assert rejected > 0


def test_restricted_monomial_set_spans_same_code():
    # evaluating every monomial of weight <= s (not just footprint ones)
    # gives the same code
    fld = NT3.field
    pts = enumerate_points(NT3)
    for s in range(0, 46, 5):
        box = [(i, j) for i in range(12) for j in range(16)
               if 8 * i + 3 * j <= s]
        unrestricted = affine_variety_code(
            pts, [monomial_poly(fld, m) for m in box], fld)
        assert unrestricted == build_code(NT3, s).code


def test_trace_closure_lemma_on_small_sets():
    # trace code of C(V, L) equals C(V, sum of Frobenius powers of L)
    import itertools
    from normtrace.fields import embedding, make_field
    from normtrace.linalg import row_space_basis
    from normtrace.reduction import frobenius_power
    from normtrace.subfield import trace_code

    F16 = make_field(2, 4)
    F2 = make_field(2, 1)
    emb = embedding(F2, F16)
    rng = random.Random(53)
    for _ in range(10):
        pts = [(rng.randrange(16), rng.randrange(16)) for _ in range(6)]
        polys = [SparsePolynomial.from_dict(
            F16, {(rng.randrange(3), rng.randrange(3)): rng.randrange(1, 16)
                  for _ in range(2)}) for _ in range(2)]
        code = affine_variety_code(pts, polys, F16)
        lhs = trace_code(code, emb)
        closure = []
        for f in polys:
            g = f
            for _ in range(4):
                closure.append(g)
                g = frobenius_power(g, 2)
        rhs_big = affine_variety_code(pts, closure, F16)
        # trace of the closure code equals trace of the original
        assert trace_code(rhs_big, emb) == lhs
