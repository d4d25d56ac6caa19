import random

import pytest

from normtrace import codes
from normtrace.codes import (affine_variety_code, build_code, check_duality,
                             dual_weight, dual_weight_printed_formula,
                             footprint_is_basis)
from normtrace.curves import enumerate_points, make_curve
from normtrace.fields import make_field
from normtrace.linalg import row_space_basis
from normtrace.monomials import footprint, footprint_weights, monomials_up_to
from normtrace.reduction import SparsePolynomial, _x_exponent, monomial_poly

NT3 = make_curve(2, 1, 4, 3)
NT5 = make_curve(2, 1, 4, 5)


def test_affine_variety_code_examples():
    F4 = make_field(2, 2)
    pts = [(a, 0) for a in F4.elements()]
    one = monomial_poly(F4, (0, 0))
    x = monomial_poly(F4, (1, 0))
    rep = affine_variety_code(pts, [one], F4)
    assert rep.k == 1 and list(map(tuple, rep.generators)) == [(1, 1, 1, 1)]
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


# A curve over each of F_4, F_9, F_16, F_25, F_27 and F_64 (rows as bytes,
# one translate per fiber) and over F_512 (rows as tuples, one call per
# entry of a fiber).
EVALUATION_CURVES = [(2, 1, 2, 3), (3, 1, 2, 4), (2, 2, 2, 5), (5, 1, 2, 6),
                     (3, 1, 3, 13), (2, 1, 6, 3), (2, 3, 3, 1)]


def fiber_starts(points):
    """The distinct x's in point order, and the index of each one's first
    point."""
    xs = [x for x, _ in points]
    distinct = sorted(set(xs), key=xs.index)
    return distinct, [xs.index(x) for x in distinct]


def newton_rows(fld, points, monos):
    """Per entry: pi_i(x) y^j with pi_i(x) the product of x - x_c over the
    first i distinct x's x_c in point order."""
    distinct, _ = fiber_starts(points)
    rows = []
    for i, j in monos:
        row = []
        for x, y in points:
            value = fld.pow(y, j)
            for c in distinct[:i]:
                value = fld.mul(value, fld.sub(x, c))
            row.append(value)
        rows.append(row)
    return rows


@pytest.mark.parametrize("params", EVALUATION_CURVES, ids=str)
def test_fiberwise_rows_match_per_entry_evaluation(params):
    curve = make_curve(*params)
    fld = curve.field
    points = enumerate_points(curve)
    monos = footprint(curve)
    rows = codes._monomial_rows(curve, monos)
    assert all(isinstance(row, bytes if fld.order <= 256 else list)
               for row in rows)
    assert [list(row) for row in rows] == newton_rows(fld, points, monos)
    # Any subset, in any order.
    some = random.Random(str(params)).sample(monos, min(9, len(monos)))
    assert [list(row) for row in codes._monomial_rows(curve, some)] == \
        newton_rows(fld, points, some)
    # The Newton rows of M(s) span the code of the monomial evaluations
    # X^i Y^j themselves, at a few s with up to 24 monomials.
    weights = footprint_weights(curve)
    for k in (1, 2, 7, 24):
        s = weights[min(k, len(weights)) - 1]
        plain = [[fld.mul(fld.pow(x, i), fld.pow(y, j)) for x, y in points]
                 for i, j in monomials_up_to(curve, s)]
        assert build_code(curve, s).code == \
            row_space_basis(plain, fld, curve.n), s


def last_y_exponent(curve, c, s):
    """J(c): the largest j < q^{r-1} with c q^{r-1} + j u <= s, or -1."""
    return max((j for j in range(curve.weight_x)
                if c * curve.weight_x + j * curve.u <= s), default=-1)


@pytest.mark.parametrize("params", [(2, 1, 4, 3), (2, 1, 4, 5)] +
                         EVALUATION_CURVES[:-1], ids=str)
def test_pivots_are_the_first_points_of_each_fiber(params):
    """The pivots of NT_u(s) are, in each fiber c, its first J(c) + 1
    points: the block structure the Newton rows eliminate by."""
    curve = make_curve(*params)
    distinct, starts = fiber_starts(enumerate_points(curve))
    for s in sorted({*range(-1, curve.max_weight + 2, 3),
                     curve.max_weight + 1}):
        expect = tuple(start + j for c, start in enumerate(starts)
                       for j in range(last_y_exponent(curve, c, s) + 1))
        assert build_code(curve, s).code.pivots == expect, s


# NT3, NT5 and the evaluation curves up to F_64, and (17,1,2,1) over F_289
# for a field of order above 256.  No curve has n below its field's order,
# and the n x n elimination over F_289 (about 8 s) is half that over F_512.
BASIS_CURVES = [(2, 1, 4, 3), (2, 1, 4, 5), (2, 1, 2, 3), (3, 1, 2, 4),
                (2, 2, 2, 5), (5, 1, 2, 6), (3, 1, 3, 13), (2, 1, 6, 3),
                (17, 1, 2, 1)]


@pytest.mark.parametrize("params", BASIS_CURVES, ids=str)
def test_footprint_is_basis_agrees_with_elimination(params):
    curve = make_curve(*params)
    assert footprint_is_basis(curve) is (
        build_code(curve, curve.max_weight).k == curve.n)


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


@pytest.mark.parametrize("params", [(2, 1, 4, 3), (2, 2, 2, 5), (3, 1, 2, 2),
                                    (5, 1, 2, 3), (2, 1, 4, 15), (2, 1, 6, 3),
                                    (5, 1, 2, 6), (3, 1, 3, 13)], ids=str)
def test_power_sum_table_matches_point_sums(params):
    """Each bit of the table against sum_P v_P x^a y^b taken point by
    point, for every a up to u(q - 1) and b up to 2(q^{r-1} - 1), and the
    row of the reduced exponent for every a up to 2u(q - 1)."""
    curve = make_curve(*params)
    fld = curve.field
    period = curve.u * (curve.q - 1)
    top = 2 * (curve.q ** (curve.r - 1) - 1)
    table = codes._power_sum_table(curve)
    assert len(table) == period + 1
    assert all(row >> (top + 1) == 0 for row in table)
    points = enumerate_points(curve)
    for a in range(2 * period + 1):
        row = table[_x_exponent(curve, a)]
        for b in range(top + 1):
            total = 0
            for x, y in points:
                term = fld.mul(fld.pow(x, a), fld.pow(y, b))
                total = fld.add(total, fld.mul(codes._duality_twist(curve, x),
                                               term))
            assert bool(row >> b & 1) == bool(total), (a, b)


@pytest.mark.parametrize("params", [(2, 1, 4, 3), (2, 1, 4, 5), (3, 1, 2, 2),
                                    (5, 1, 2, 3)], ids=str)
def test_check_duality_matches_matrix_route_on_any_weight_pair(params,
                                                               monkeypatch):
    """Weights s and s2 that need not be dual: the check reads the table
    rows of exponent sums past u(q - 1) and of every height."""
    curve = make_curve(*params)
    rng = random.Random(str(params))
    pairs = [(rng.randrange(curve.max_weight + 1),
              rng.randrange(curve.max_weight + 1)) for _ in range(20)]
    for s, s2 in pairs:
        monkeypatch.setattr(codes, "dual_weight", lambda curve, s: s2)
        rep = check_duality(curve, s)
        assert rep.orthogonal == matrix_duality(curve, s, s2)[0], (s, s2)


def test_check_duality_rejects_untwisted_sums(monkeypatch):
    curve = make_curve(3, 1, 2, 2)  # u = 2 is not 1 mod 3
    # The power-sum table is built once per curve: rebuild it under the
    # patched twist, and drop that table afterwards.
    codes._power_sum_table.cache_clear()
    monkeypatch.setattr(codes, "_duality_twist", lambda curve, x: 1)
    try:
        for s in range(curve.n + 2 * curve.genus - 1):
            rep = check_duality(curve, s)
            assert not rep.orthogonal
            assert not matrix_duality(curve, s, rep.s_dual, twisted=False)[0]
    finally:
        codes._power_sum_table.cache_clear()


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
