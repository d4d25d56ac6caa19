"""Extended Norm-Trace curves and their affine rational points.

The curve with parameters (p, l, r, u) lives over F_{q^r} with q = p^l and
is cut out by x^u = Tr_{F_{q^r}/F_q}(y).  We only handle the restricted
family where u divides (q^r - 1)/(q - 1), which has exactly
n = q^{r-1} (u(q-1) + 1) affine rational points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fields import FieldError, FiniteField, make_field


class CurveError(ValueError):
    """Invalid curve parameters."""


@dataclass(frozen=True)
class CurveSpec:
    """Parameters and derived constants of one extended Norm-Trace curve."""

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

    @property
    def q(self) -> int:
        return self.p**self.l

    @property
    def field(self) -> FiniteField:
        """The big field F_{q^r} the curve lives over."""
        return make_field(self.p, self.l * self.r)

    @property
    def n(self) -> int:
        return self.q ** (self.r - 1) * (self.u * (self.q - 1) + 1)

    @property
    def genus(self) -> int:
        return (self.q ** (self.r - 1) - 1) * (self.u - 1) // 2

    @property
    def weight_x(self) -> int:
        return self.q ** (self.r - 1)

    @property
    def weight_y(self) -> int:
        return self.u

    @property
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
    built on the curve inherits this coordinate order.
    """
    fld = curve.field
    q, u = curve.q, curve.u
    # Group x by the value of x^u, then match against Tr(y) per y.
    roots: dict[int, list[int]] = {}
    for x in fld.elements():
        roots.setdefault(fld.pow(x, u), []).append(x)
    points = []
    for y in fld.elements():
        for x in roots.get(fld.trace_in_field(y, q), ()):
            points.append((x, y))
    points.sort()
    if len(points) != curve.n:
        raise CurveError(
            f"enumerated {len(points)} points, expected n={curve.n}")
    return tuple(points)
