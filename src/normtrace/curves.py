"""Extended Norm-Trace curves and their affine rational points.

The curve with parameters (p, l, r, u) lives over F_{q^r} with q = p^l and
is cut out by x^u = Tr_{F_{q^r}/F_q}(y).  We only handle the restricted
family where u divides (q^r - 1)/(q - 1), which has exactly
n = q^{r-1} (u(q-1) + 1) affine rational points.

The points are read x by x from the classes of y by trace: (x, y) is a
point exactly when Tr(y) = x^u.  fibers groups them by x, and it is the one
fiber map of a curve: the Newton rows of build_code, footprint_is_basis and
the power-sum table of check_duality all read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from operator import itemgetter

from .fields import FieldError, FiniteField, make_field


class CurveError(ValueError):
    """Invalid curve parameters."""


@dataclass(frozen=True)
class CurveSpec:
    """Parameters and derived constants of one extended Norm-Trace curve.

    The derived constants are computed once per instance, on first access;
    equality, hashing and repr read only (p, l, r, u).
    """

    p: int
    l: int
    r: int
    u: int

    def __post_init__(self):
        if self.r < 2:
            raise CurveError(f"r must be >= 2, got {self.r}")
        if self.l < 1 or self.u < 1:
            raise CurveError("l and u must be positive")
        q = self.q
        if (q**self.r - 1) % (q - 1) != 0 or \
                ((q**self.r - 1) // (q - 1)) % self.u != 0:
            raise CurveError(
                f"u={self.u} does not divide (q^r-1)/(q-1)="
                f"{(q**self.r - 1) // (q - 1)}")
        # Forces construction errors (bad p, field too large) at curve time.
        make_field(self.p, self.l * self.r)

    @cached_property
    def q(self) -> int:
        return self.p**self.l

    @property
    def field(self) -> FiniteField:
        """The big field F_{q^r} the curve lives over."""
        return make_field(self.p, self.l * self.r)

    @cached_property
    def n(self) -> int:
        return self.q ** (self.r - 1) * (self.u * (self.q - 1) + 1)

    @cached_property
    def genus(self) -> int:
        return (self.q ** (self.r - 1) - 1) * (self.u - 1) // 2

    @cached_property
    def weight_x(self) -> int:
        return self.q ** (self.r - 1)

    @property
    def weight_y(self) -> int:
        return self.u

    @cached_property
    def max_weight(self) -> int:
        """Largest monomial weight occurring in the footprint, n + 2g - 1."""
        return self.n + 2 * self.genus - 1

    def __repr__(self):
        return f"CurveSpec(p={self.p}, l={self.l}, r={self.r}, u={self.u})"


def make_curve(p: int, l: int, r: int, u: int) -> CurveSpec:
    return CurveSpec(p, l, r, u)


@lru_cache(maxsize=None)
def enumerate_points(curve: CurveSpec) -> tuple:
    """All affine points (x, y) with x^u = Tr(y), in lexicographic order.

    Order is lexicographic by the integer encodings of (x, y); every code
    built on the curve inherits this coordinate order.  The y's are
    grouped by trace, ascending, and each x in turn takes the class of
    Tr(y) = x^u, so the points come out in order as they are read.
    """
    fld = curve.field
    classes: dict[int, list[int]] = {}
    for y in fld.elements():
        classes.setdefault(fld.trace_in_field(y, curve.q), []).append(y)
    points = tuple((x, y) for x in fld.elements()
                   for y in classes.get(fld.pow(x, curve.u), ()))
    if len(points) != curve.n:
        raise CurveError(
            f"enumerated {len(points)} points, expected n={curve.n}")
    return points


@lru_cache(maxsize=None)
def fibers(curve: CurveSpec) -> dict:
    """x -> the tuple of y with (x, y) a point, in point order.  The map
    is cached and shared by its callers, which must not change it."""
    return {x: tuple(y for _, y in group)
            for x, group in groupby(enumerate_points(curve), itemgetter(0))}
