import random

import pytest

from normtrace.curves import enumerate_points, make_curve
from normtrace.fields import FieldError, make_field
from normtrace.linalg import rank, row_packing, shift_fold
from normtrace.monomials import footprint, weight
from normtrace.reduction import (SparsePolynomial, curve_ideal_basis,
                                 frobenius_power, monomial_normal_form,
                                 monomial_poly, normal_form,
                                 normal_form_table, weight_residues)

NT3 = make_curve(2, 1, 4, 3)
NT5 = make_curve(2, 1, 4, 5)
F16 = NT3.field


def random_poly(rng, max_i=12, max_j=20, nterms=6):
    return SparsePolynomial.from_dict(
        F16, {(rng.randrange(max_i), rng.randrange(max_j)):
              rng.randrange(1, 16) for _ in range(nterms)})


def test_ideal_basis_generators():
    b3 = curve_ideal_basis(NT3)
    assert b3.g1.as_dict() == {(3, 0): 1, (0, 1): 1, (0, 2): 1,
                               (0, 4): 1, (0, 8): 1}
    assert b3.g2.as_dict() == {(4, 0): 1, (1, 0): 1}
    b5 = curve_ideal_basis(NT5)
    assert b5.g1.as_dict() == {(5, 0): 1, (0, 1): 1, (0, 2): 1,
                               (0, 4): 1, (0, 8): 1}
    assert b5.g2.as_dict() == {(6, 0): 1, (1, 0): 1}
    assert b3.leading_terms == ((0, 8), (4, 0))


def test_generators_vanish_on_all_points():
    for curve in (NT3, NT5):
        basis = curve_ideal_basis(curve)
        for point in enumerate_points(curve):
            assert basis.g1.evaluate(point) == 0
            assert basis.g2.evaluate(point) == 0


def test_worked_normal_forms():
    assert normal_form(NT3, monomial_poly(F16, (4, 0))).as_dict() == {(1, 0): 1}
    assert normal_form(NT3, monomial_poly(F16, (0, 8))).as_dict() == \
        {(3, 0): 1, (0, 4): 1, (0, 2): 1, (0, 1): 1}
    assert normal_form(NT3, monomial_poly(F16, (8, 0))).as_dict() == {(2, 0): 1}
    # on the u=5 curve the same reduction produces X^5, not X^3
    assert normal_form(NT5, monomial_poly(F16, (0, 8))).as_dict() == \
        {(5, 0): 1, (0, 4): 1, (0, 2): 1, (0, 1): 1}


def test_normal_form_idempotent_on_footprint_support():
    rng = random.Random(23)
    fp = set(footprint(NT3))
    for _ in range(50):
        f = SparsePolynomial.from_dict(
            F16, {m: rng.randrange(1, 16)
                  for m in rng.sample(sorted(fp), 4)})
        assert normal_form(NT3, f) == f


def test_normal_form_preserves_evaluations():
    rng = random.Random(29)
    pts = enumerate_points(NT3)
    fp = set(footprint(NT3))
    for _ in range(100):
        f = random_poly(rng)
        nf = normal_form(NT3, f)
        assert set(nf.support) <= fp
        assert normal_form(NT3, nf) == nf
        for point in pts:
            assert nf.evaluate(point) == f.evaluate(point)


def test_normal_form_equality_iff_vanishing_difference():
    rng = random.Random(31)
    pts = enumerate_points(NT3)
    for _ in range(30):
        f, g = random_poly(rng), random_poly(rng)
        same_nf = normal_form(NT3, f) == normal_form(NT3, g)
        same_eval = all(f.evaluate(p) == g.evaluate(p) for p in pts)
        assert same_nf == same_eval
        # f and f + g1 always reduce identically
        basis = curve_ideal_basis(NT3)
        assert normal_form(NT3, f + basis.g1) == normal_form(NT3, f)


def test_frobenius_power():
    c = 5
    f = SparsePolynomial.from_dict(F16, {(0, 0): c})
    assert frobenius_power(f, 2).as_dict() == {(0, 0): F16.mul(c, c)}
    xy = SparsePolynomial.from_dict(F16, {(1, 0): 1, (0, 1): 1})
    assert frobenius_power(xy, 2).as_dict() == {(2, 0): 1, (0, 2): 1}
    with pytest.raises(FieldError):
        frobenius_power(xy, 8)
    # pointwise identity (f(P))^t = f^(t)(P)
    rng = random.Random(37)
    pts = enumerate_points(NT3)
    for t in (2, 4):
        for _ in range(20):
            f = random_poly(rng)
            ft = frobenius_power(f, t)
            for point in pts[:8]:
                assert ft.evaluate(point) == F16.pow(f.evaluate(point), t)
    # X squared four times reduces back to X via X^4 -> X
    f = monomial_poly(F16, (1, 0))
    for _ in range(4):
        f = frobenius_power(f, 2)
    assert normal_form(NT3, f).as_dict() == {(1, 0): 1}


def test_weight_residues():
    basis = curve_ideal_basis(NT3)
    assert weight_residues(NT3, basis.g1) == {0}
    assert weight_residues(NT3, SparsePolynomial(F16, ())) == set()
    xy = SparsePolynomial.from_dict(F16, {(1, 0): 1, (0, 1): 1})
    assert weight_residues(NT3, xy) == {2, 0}


def test_weight_congruence_preserved_by_reduction():
    rng = random.Random(41)
    for curve in (NT3, NT5):
        modulus = (curve.q - 1) * curve.u
        for _ in range(100):
            residue = rng.randrange(modulus)
            terms = {}
            while len(terms) < 4:
                m = (rng.randrange(10), rng.randrange(16))
                if weight(curve, m) % modulus == residue:
                    terms[m] = rng.randrange(1, 16)
            f = SparsePolynomial.from_dict(curve.field, terms)
            assert weight_residues(curve, normal_form(curve, f)) <= {residue}


def test_footprint_evaluation_matrix_has_full_rank():
    for curve in (NT3, NT5):
        fld = curve.field
        pts = enumerate_points(curve)
        rows = [[fld.mul(fld.pow(x, i), fld.pow(y, j)) for (x, y) in pts]
                for (i, j) in footprint(curve)]
        assert rank(rows, fld) == curve.n


@pytest.mark.parametrize("params", [(2, 1, 4, 3), (2, 1, 4, 15), (3, 1, 2, 4),
                                    (2, 2, 2, 5), (5, 1, 2, 6), (2, 1, 6, 3),
                                    (3, 1, 3, 13), (17, 1, 2, 1)], ids=str)
def test_monomial_table_matches_rewriting(params):
    """Every NF(X^a Y^b) read from the packed table equals the rewriting
    route over F_{q^r}, so a wrong lane or coefficient shows.  Over F_17
    the 8-bit lanes hold sums of up to 2 * 16 before they are reduced."""
    curve = make_curve(*params)
    q, r, u = curve.q, curve.r, curve.u
    normal_form_table.cache_clear()
    ys = list(range(2 * q ** (r - 1) + 5)) + \
        [q**r - 1, q**r, q**r + 1, 5 * q**r]
    for a in range(2 * (u * (q - 1) + 1)):
        for b in ys:
            expect = normal_form(curve, monomial_poly(curve.field, (a, b)))
            assert monomial_normal_form(curve, a, b) == expect, (a, b)
    # One row per Y exponent 0 .. q^r - 2; Y^{q^r - 1} is derived.
    assert len(normal_form_table(curve).rows) == q**r - 1


@pytest.mark.parametrize("params", [(2, 1, 4, 3), (3, 1, 2, 4), (5, 1, 2, 6)],
                         ids=str)
def test_lane_mask_meets_exactly_the_support(params):
    """A row meets the lane mask of one monomial exactly when that monomial
    is in its normal form's support, whatever its coefficient."""
    curve = make_curve(*params)
    table = normal_form_table(curve)
    masks = {mono: table.lane_mask([mono]) for mono in footprint(curve)}
    for a in range(curve.u * (curve.q - 1) + 2):
        for b in range(curve.field.order):
            row = table.row(a, b)
            support = set(monomial_normal_form(curve, a, b).support)
            for mono, mask in masks.items():
                assert bool(row & mask) == (mono in support), \
                    (mono, a, b)


def dict_times_x_power(period, a, terms, p):
    """X^a * f with X^{period+1} = X, for f as {(i, j): c} over F_p."""
    out = {}
    for (i, j), c in terms.items():
        e = i + a
        key = (e if e <= period else (e - 1) % period + 1, j)
        out[key] = (out.get(key, 0) + c) % p
    return {key: c for key, c in out.items() if c}


@pytest.mark.parametrize("p", [2, 3, 17, 127])
def test_shift_fold_matches_dict_route(p):
    """shift_fold over BitRows and DigitLanes, up to p = 127, the largest
    characteristic with a packing, is X^a times a row laid out X-major
    (lane i m + j), with X^{P+1} = X."""
    rng = random.Random(p)
    for period, m in [(1, 1), (3, 2), (4, 3), (6, 1)]:
        width = (period + 1) * m
        packing = row_packing(make_field(p, 1), width)
        for _ in range(20):
            terms = {(rng.randrange(period + 1), rng.randrange(m)):
                     rng.randrange(1, p) for _ in range(rng.randrange(width))}
            entries = [0] * width
            for (i, j), c in terms.items():
                entries[i * m + j] = c
            for a in range(period + 1):
                got = packing.unpack(shift_fold(
                    packing, packing.pack(entries), a * m, period * m))
                want = [0] * width
                for (i, j), c in dict_times_x_power(period, a, terms,
                                                    p).items():
                    want[i * m + j] = c
                assert list(got) == want, (period, m, a)
