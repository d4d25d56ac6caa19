"""Trace codes, subfield subcodes, Frobenius invariance and Delsarte duality.

Two fully independent routes to the dimension of NT_u(s)|F_t are provided:

* the Groebner route: n minus the rank of the normal forms of all Frobenius
  powers of the dual's monomials (Delsarte plus the trace-of-affine-variety
  identity), and
* a direct oracle: expand the k rows of the code's reduced echelon
  generator matrix over F_t coordinates and solve for their F_t-combinations
  landing inside F_t^n.  Every LinearCode holds its generators in that form,
  the identity on its pivot columns, so only F_t-combinations of its rows
  can land there, and one k x mn elimination over F_t suffices, substituted
  back only on the rows that give the subcode.  Each component of a row
  is one linalg.entrywise map, and the trivial extension t = q^r takes
  the same path.

The two must always agree; the test suite asserts this on every instance.

The Groebner route answers every s of a curve from one pass per (curve, t)
in weight order (trace_span): each new normal form is a row of the curve's
reduction.NormalFormTable, packed over the prime field F_p and shifted in
X, and it is reduced as it is against an echelon basis kept in the same
packing, since the normal forms of monomials have coefficients in F_p and
a rank does not change when the field is extended.  The pass is extended
only as far as the highest weight asked so far.  The Frobenius-invariance
test reads the same rows against a mask of the lanes of M(s).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

from .codes import build_code, dual_weight, footprint_is_basis
from .curves import CurveSpec
from .fields import FieldError, SubfieldEmbedding, embedding, \
    subfield_of_order
from .linalg import LinearCode, entrywise, row_space_basis, row_type, rref
from .monomials import footprint, footprint_weights, monomials_up_to
from .reduction import _x_exponent, _y_exponent, normal_form_table


def code_frobenius(code: LinearCode, t: int) -> LinearCode:
    """C^(t): coordinatewise t-th power, re-echelonized."""
    fld = code.field
    fld.subfield_degree(t)
    power = entrywise(fld, lambda v: fld.pow(v, t))
    return row_space_basis(map(power, code.generators), fld, code.n)


@dataclass(frozen=True)
class TraceSpanResult:
    """Normal forms of all Frobenius powers of M(s), and their rank."""

    curve: CurveSpec
    s: int
    t: int
    m: int
    rows: tuple  # the distinct normal forms, packed as their table packs
    dimension: int

    @property
    def reduced_generators(self) -> tuple:
        """The distinct normal forms, as polynomials over F_{q^r}."""
        table = normal_form_table(self.curve)
        return tuple(map(table.polynomial, self.rows))


class _TracePass:
    """The first-seen normal forms of the Frobenius powers of the footprint
    monomials, taken in footprint order, with the rank of every prefix.

    Monomial X^i Y^j brings its powers X^{i t^k} Y^{j t^k}, k < m, in turn.
    Each power is first brought to its canonical exponents (X as in
    _x_exponent, Y as in _y_exponent), which fix its normal form, and an
    exponent pair seen before is skipped.  The Frobenius maps on canonical
    exponents, a -> canonical(a t) and b -> canonical(b t), are two lists
    built with the pass, so each step is two lookups.  The normal form of
    a new pair (a, b) is row b of the curve's NormalFormTable, a packed
    row over F_p, times X^a: one shift and fold of its lanes.  It is
    reduced as it is against an echelon basis kept in the same packing:
    the normal forms of monomials have coefficients in F_p, and a rank
    does not change when the field is extended.  The pass goes only as
    far as the highest weight asked so far.

    Distinct canonical pairs give distinct normal forms, so no form is
    seen twice.  The pairs reached have a, a' <= P = u(q-1) and
    b, b' <= N - 1 with N = q^r - 1, each a row of the table: j t^k is
    below q^{r-1} or reduces into 1 .. N, and N divides j t^k only for
    j = 0, since t is prime to N.  Equal normal forms mean x^a y^b = x^a' y^b' at every point.
    The x with x^u = Tr(y) != 0 form a coset of the u-th roots of unity,
    so u divides a - a' = ue, and y^(b'-b) = Tr(y)^e on T = {Tr(y) != 0}.
    Then y^D, D = b' - b mod N, is constant on each hyperplane
    Tr(y) = c != 0, and so is y^g with g = gcd(D, N), which has the same
    level sets on the units.  If D != 0 then g <= N/2 < |T|, and for
    z != 0 with Tr(z) = 0, (Y + z)^g - Y^g has degree below g, vanishes
    on T and has constant term z^g != 0: impossible.  So b = b', then
    Tr(y)^e = 1 on T makes q - 1 divide e and P divide a - a', and the
    one case left, {a, a'} = {0, P}, differs at (0, z).
    """

    def __init__(self, curve: CurveSpec, t: int):
        self.curve, self.t = curve, t
        self.m = curve.field.subfield_degree(t)
        self.done = 0  # footprint monomials taken
        self.rows = []  # first-seen normal forms, packed
        self.origins = []  # weight of the monomial each form came from
        self.ranks = []  # rank of rows[:i + 1]
        self.exponents = set()
        self.table = normal_form_table(curve)
        self.basis = {}  # pivot column -> pivot_multiples of its row
        # The canonical exponents of t times a canonical X or Y exponent.
        self.x_next = [_x_exponent(curve, a * t)
                       for a in range(curve.u * (curve.q - 1) + 1)]
        self.y_next = [_y_exponent(curve, b * t)
                       for b in range(len(self.table.rows))]

    def extend_to(self, s: int) -> None:
        table, insert = self.table, self._insert
        x_next, y_next, y_rows = self.x_next, self.y_next, self.table.rows
        monos, weights = footprint(self.curve), footprint_weights(self.curve)
        seen, rows, ranks = self.exponents, self.rows, self.ranks
        origins = self.origins
        rank = ranks[-1] if ranks else 0
        stop = bisect_right(weights, s)
        for pos in range(self.done, stop):
            a, b = monos[pos]
            for _ in range(self.m):
                # Both reductions keep an exponent's residue, so the next
                # power's canonical pair is that of t times this pair.
                if (a, b) not in seen:
                    seen.add((a, b))
                    row = table.times_x(a, y_rows[b])
                    rows.append(row)
                    origins.append(weights[pos])
                    rank += insert(row)
                    ranks.append(rank)
                a, b = x_next[a], y_next[b]
        self.done = max(self.done, stop)

    def _insert(self, v) -> int:
        """1 if the row v is independent of the rows before it, and then it
        joins the basis; else 0."""
        packing, basis = self.table.packing, self.basis
        lead, sweep = packing.lead, packing.sweep
        while v:
            col = lead(v)
            minus = basis.get(col)
            if minus is None:
                basis[col] = packing.pivot_multiples(v, col)
                return 1
            v = sweep([v], minus, col)[0]
        return 0


@lru_cache(maxsize=None)
def _trace_pass(curve: CurveSpec, t: int) -> _TracePass:
    return _TracePass(curve, t)


def trace_span(curve: CurveSpec, s: int, t: int) -> TraceSpanResult:
    """Span data of Tr_{F_{q^r}/F_t}(NT_u(s)), via Groebner normal forms.

    The trace code is the evaluation code of all m^{t^i} reduced modulo the
    curve ideal; since footprint monomials evaluate to a basis of the
    functions on the points (codes.footprint_is_basis), its dimension is
    the rank of the reduced coefficient vectors.  Each m^{t^i} is a
    monomial, so its normal form is a row of the curve's NormalFormTable
    shifted in X.  The rows and ranks are read from one pass per curve
    and t (_TracePass): the packed forms whose monomial has weight at most
    s, and their rank; reduced_generators unpacks them when read.
    """
    footprint_is_basis(curve)
    span = _trace_pass(curve, t)
    span.extend_to(s)
    count = bisect_right(span.origins, s)
    return TraceSpanResult(curve, s, t, span.m, tuple(span.rows[:count]),
                           span.ranks[count - 1] if count else 0)


def trace_span_dim(curve: CurveSpec, s: int, t: int) -> int:
    return trace_span(curve, s, t).dimension


def subfield_subcode_dim(curve: CurveSpec, s: int, t: int) -> int:
    """dim NT_u(s)|F_t = n - dim Tr(NT_u(dual_weight(s))), by Delsarte."""
    return curve.n - trace_span_dim(curve, dual_weight(curve, s), t)


def subfield_subcode_oracle(code: LinearCode,
                            emb: SubfieldEmbedding) -> LinearCode:
    """C intersect F_t^n, computed directly by coordinate expansion.

    The generators G_i are the identity on their pivot columns, so the word
    sum x_i G_i is x on those columns: it lies in F_t^n only if x does, and
    C intersect F_t^n is the set of F_t-combinations of the G_i that land
    in F_t^n.  Over F_t the expansion on the decomposition basis (which
    starts at 1) is linear, and a word lies in F_t^n exactly when every
    component past the first vanishes in each coordinate.  So each G_i
    becomes one row over F_t: the components past the first of every
    coordinate, then the first component of every coordinate.  In the
    reduced echelon form of these k rows of width mn, the rows whose pivot
    lies among the first components are zero before it, and their first
    components are the reduced echelon basis of C intersect F_t^n: rref
    with start n(m - 1) gives just these, and substitutes back only them.
    When m = 1 there are no components past the first, which is the
    identity, and rref returns the generators as they are.
    """
    if emb.big != code.field:
        raise FieldError("embedding does not target the code's field")
    small, m, n = emb.small, emb.m, code.n
    width = n * (m - 1)
    first, *rest = (entrywise(code.field, comp.__getitem__)
                    for comp in emb.components)
    blank = bytearray if row_type(small) is bytes else \
        (lambda size: [0] * size)
    expanded = []
    for row in code.generators:
        out = blank(width + n)
        for c, component in enumerate(rest):
            out[c:width:m - 1] = component(row)
        out[width:] = first(row)
        expanded.append(out)
    return LinearCode(small, n, rref(expanded, small, start=width)[0])


def trace_code(code: LinearCode, emb: SubfieldEmbedding) -> LinearCode:
    """Coordinatewise trace image of C, as a code over the small field."""
    if emb.big != code.field:
        raise FieldError("embedding does not target the code's field")
    fld = code.field
    small = emb.small
    t = small.order
    # The generators scaled by each element of the basis of the big field
    # over the small one span C over F_t.
    rows = []
    for b in emb.basis:
        trace = entrywise(fld, lambda v: emb.project(
            fld.trace_in_field(fld.mul(b, v), t)))
        rows.extend(map(trace, code.generators))
    return row_space_basis(rows, small, code.n)


@dataclass(frozen=True)
class FrobeniusInvariance:
    invariant: bool
    witness: tuple | None  # offending monomial, if any


def is_frobenius_invariant(curve: CurveSpec, s: int,
                           t: int) -> FrobeniusInvariance:
    """Whether NT_u(s)^(t) = NT_u(s), i.e. M(s) is closed under reduction
    of t-th powers.

    When true, the subfield subcode over F_t has the same dimension (and
    minimum distance) as NT_u(s) itself.
    """
    curve.field.subfield_degree(t)
    table = normal_form_table(curve)
    inside = monomials_up_to(curve, s)
    outside = table.lane_mask(footprint(curve)[len(inside):])
    for i, j in sorted(inside):
        if table.row(i * t, j * t) & outside:
            return FrobeniusInvariance(False, (i, j))
    return FrobeniusInvariance(True, None)


def subfield_subcode_of_ent(curve: CurveSpec, s: int, t: int) -> LinearCode:
    """Explicit generator matrix of NT_u(s)|F_t via the direct oracle."""
    small = subfield_of_order(curve.field, t)
    emb = embedding(small, curve.field)
    return subfield_subcode_oracle(build_code(curve, s).code, emb)
