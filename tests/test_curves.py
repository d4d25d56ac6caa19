import dataclasses

import pytest

from normtrace.curves import CurveError, enumerate_points, fibers, make_curve
from normtrace.fields import make_field

NT3 = make_curve(2, 1, 4, 3)
NT5 = make_curve(2, 1, 4, 5)


def test_derived_quantities():
    assert (NT3.n, NT3.genus) == (32, 7)
    assert (NT5.n, NT5.genus) == (48, 14)
    nt15 = make_curve(2, 1, 4, 15)  # the Norm-Trace case u = (q^r-1)/(q-1)
    assert (nt15.n, nt15.genus) == (128, 49)
    assert len(enumerate_points(nt15)) == 128


def test_invalid_parameters():
    with pytest.raises(CurveError):
        make_curve(2, 1, 4, 7)  # 7 does not divide 15
    with pytest.raises(CurveError):
        make_curve(2, 1, 1, 1)  # r < 2
    for l, u in [(0, 1), (1, 0)]:
        with pytest.raises(CurveError, match="l and u must be positive"):
            make_curve(2, l, 4, u)


def test_point_counts_and_equation():
    for curve in (NT3, NT5):
        pts = enumerate_points(curve)
        assert len(pts) == curve.n
        assert len(set(pts)) == curve.n
        fld = curve.field
        for x, y in pts:
            assert fld.pow(x, curve.u) == fld.trace_in_field(y, curve.q)


def test_origin_is_a_point():
    assert (0, 0) in enumerate_points(NT3)
    assert (0, 0) in enumerate_points(NT5)


def test_x_satisfies_ideal_relation():
    # x^{u(q-1)+1} = x at every point
    for curve in (NT3, NT5):
        fld = curve.field
        exp = curve.u * (curve.q - 1) + 1
        for x, _ in enumerate_points(curve):
            assert fld.pow(x, exp) == x


def test_trace_one_fibers_on_nt3():
    # each y with Tr(y) = 1 pairs with exactly gcd(3, 15) = 3 values of x
    fld = NT3.field
    pts = enumerate_points(NT3)
    for y in fld.elements():
        if fld.trace_in_field(y, 2) == 1:
            assert sum(1 for (_, py) in pts if py == y) == 3


def test_point_order_is_stable():
    first = enumerate_points(NT3)
    again = tuple(sorted(enumerate_points(NT3)))
    assert first == again  # lexicographic by integer encodings
    # the fiber map holds the points, in point order, one key per x
    assert [(x, y) for x, ys in fibers(NT3).items() for y in ys] == \
        list(first)
    # recomputing from a fresh equal spec gives the identical tuple
    assert enumerate_points(make_curve(2, 1, 4, 3)) == first


def test_curve_field():
    assert NT3.field == make_field(2, 4)
    assert NT3.max_weight == 45
    assert NT5.max_weight == 75


def test_derived_values_leave_identity_unchanged():
    fresh = make_curve(2, 1, 4, 3)
    used = make_curve(2, 1, 4, 3)
    assert (used.q, used.n, used.genus, used.weight_x, used.max_weight) == \
        (2, 32, 7, 8, 45)
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == "CurveSpec(p=2, l=1, r=4, u=3)"
    assert [f.name for f in dataclasses.fields(used)] == ["p", "l", "r", "u"]
    assert used != make_curve(2, 1, 4, 5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        used.u = 5
