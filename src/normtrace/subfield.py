"""Trace codes, subfield subcodes, Frobenius invariance and Delsarte duality.

Two fully independent routes to the dimension of NT_u(s)|F_t are provided:

* the Groebner route: n minus the rank of the normal forms of all Frobenius
  powers of the dual's monomials (Delsarte plus the trace-of-affine-variety
  identity), and
* a direct oracle: expand a spanning set of the code over F_t coordinates
  and solve for the combinations landing inside F_t^n.

The two must always agree; the test suite asserts this on every instance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codes import build_code, dual_weight
from .curves import CurveSpec
from .fields import FieldError, SubfieldEmbedding, embedding, make_field, \
    subfield_of_order
from .linalg import LinearCode, rank, row_space_basis, rref
from .monomials import footprint, monomials_up_to
from .reduction import frobenius_power, monomial_poly, normal_form


def code_frobenius(code: LinearCode, t: int) -> LinearCode:
    """C^(t): coordinatewise t-th power, re-echelonized."""
    fld = code.field
    if not fld.is_subfield_order(t):
        raise FieldError(f"{t} is not a subfield order of F_{fld.order}")
    rows = [[fld.pow(v, t) for v in row] for row in code.generators]
    return row_space_basis(rows, fld, code.n)


@dataclass(frozen=True)
class TraceSpanResult:
    """Normal forms of all Frobenius powers of M(s), and their rank."""

    curve: CurveSpec
    s: int
    t: int
    m: int
    reduced_generators: tuple  # normal forms (SparsePolynomial), dedup'd
    dimension: int


def trace_span(curve: CurveSpec, s: int, t: int) -> TraceSpanResult:
    """Span data of Tr_{F_{q^r}/F_t}(NT_u(s)), via Groebner normal forms.

    The trace code is the evaluation code of all m^{t^i} reduced modulo the
    curve ideal; since footprint monomials evaluate independently, its
    dimension is the rank of the reduced coefficient vectors.
    """
    fld = curve.field
    m = fld.subfield_degree(t)
    monos = monomials_up_to(curve, s)
    seen = set()
    reduced = []
    for mono in monos:
        f = monomial_poly(fld, mono)
        for _ in range(m):
            nf = normal_form(curve, f)
            if nf.terms not in seen:
                seen.add(nf.terms)
                reduced.append(nf)
            f = frobenius_power(f, t)
    fp = footprint(curve)
    index = {mm: i for i, mm in enumerate(fp)}
    rows = []
    for nf in reduced:
        row = [0] * len(fp)
        for mono, c in nf.terms:
            row[index[mono]] = c
        rows.append(row)
    dim = rank(rows, fld) if rows else 0
    return TraceSpanResult(curve, s, t, m, tuple(reduced), dim)


def trace_span_dim(curve: CurveSpec, s: int, t: int) -> int:
    return trace_span(curve, s, t).dimension


def subfield_subcode_dim(curve: CurveSpec, s: int, t: int) -> int:
    """dim NT_u(s)|F_t = n - dim Tr(NT_u(dual_weight(s))), by Delsarte."""
    return curve.n - trace_span_dim(curve, dual_weight(curve, s), t)


def _spanning_rows_over_subfield(code: LinearCode, emb: SubfieldEmbedding):
    """Rows whose F_t-span is all of C: basis rows scaled by a big/small basis."""
    fld = code.field
    rows = []
    for b in emb.basis:
        for row in code.generators:
            rows.append(fld.scale_row(b, row))
    return rows


def subfield_subcode_oracle(code: LinearCode,
                            emb: SubfieldEmbedding) -> LinearCode:
    """C intersect F_t^n, computed directly by coordinate expansion.

    A word of C lies in F_t^n exactly when, in each coordinate's expansion
    over the decomposition basis (which starts at 1), every component past
    the first vanishes.  Each row of an F_t-spanning set of C is expanded
    into its components past the first, followed by its first components.
    In the reduced echelon form of these rows, the rows whose pivot lies
    among the first components are zero before it, and their first
    components are the reduced echelon basis of C intersect F_t^n.
    """
    if emb.big != code.field:
        raise FieldError("embedding does not target the code's field")
    small = emb.small
    m = emb.m
    if m == 1:
        # Trivial extension: the code already lives over the small field.
        return row_space_basis(code.generators, small, code.n)
    # The embedding's table shares one coordinate tuple per field element.
    table = emb.coordinates
    expanded = []
    for row in _spanning_rows_over_subfield(code, emb):
        comps = [table[v] for v in row]
        expanded.append([c for cs in comps for c in cs[1:]] +
                        [cs[0] for cs in comps])
    width = code.n * (m - 1)
    reduced, pivots = rref(expanded, small)
    return LinearCode(small, code.n, tuple(
        tuple(row[width:]) for row, col in zip(reduced, pivots)
        if col >= width))


def trace_code(code: LinearCode, emb: SubfieldEmbedding) -> LinearCode:
    """Coordinatewise trace image of C, as a code over the small field."""
    if emb.big != code.field:
        raise FieldError("embedding does not target the code's field")
    fld = code.field
    small = emb.small
    t = small.order
    rows = []
    for row in _spanning_rows_over_subfield(code, emb):
        rows.append([emb.project(fld.trace_in_field(v, t)) for v in row])
    if not rows:
        return LinearCode(small, code.n, ())
    return row_space_basis(rows, small, n=code.n)


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
    fld = curve.field
    if not fld.is_subfield_order(t):
        raise FieldError(f"{t} is not a subfield order of F_{fld.order}")
    allowed = set(monomials_up_to(curve, s))
    for mono in sorted(allowed):
        nf = normal_form(curve, frobenius_power(
            monomial_poly(fld, mono), t))
        if any(m not in allowed for m in nf.support):
            return FrobeniusInvariance(False, mono)
    return FrobeniusInvariance(True, None)


def subfield_subcode_of_ent(curve: CurveSpec, s: int, t: int) -> LinearCode:
    """Explicit generator matrix of NT_u(s)|F_t via the direct oracle."""
    small = subfield_of_order(curve.field, t)
    emb = embedding(small, curve.field)
    return subfield_subcode_oracle(build_code(curve, s).code, emb)
