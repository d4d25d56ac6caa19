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
  back only on the rows that give the subcode.  The trivial extension
  t = q^r takes the same path.

The two must always agree; the test suite asserts this on every instance.

There is one decomposition over F_t: the m component maps of a row
(_components), each one linalg.entrywise map through a table of the
embedding.  The oracle expands the generators with them, trace_code is
the span of the components of the generators, and the check path below
is the null space of the components of the checks.

subfield_subcode_of_ent, which gives the generators of NT_u(s)|F_t, takes
the oracle only for codes of low rate.  When m(n - k) <= 2k it reads the
subcode from the n - k parity checks of NT_u(s) instead: the columns of
the inverse of the footprint evaluation matrix at the monomials of weight
above s, which have a closed form (codes.footprint_inverse_rows).  The
null space over F_t of their m(n - k) F_t-components is the subcode: the
components span Tr(C^perp), as in trace_code, so this is Delsarte's
(Tr(C^perp))^perp on the closed-form checks.  linalg.null_space reads it
off one elimination of them, already in reduced echelon form
(subfield_subcode_from_checks): no elimination over F_{q^r}, no
build_code.  The rule is a constant set from measured crossovers.  Both
paths give the one canonical basis, and the check path reads no dual
weight, normal form or trace pass, so it stays independent of the
Groebner route.

The Groebner route answers every s of a curve from one pass per (curve, t)
in weight order (trace_span): each new normal form is a row of the curve's
reduction.NormalFormTable, packed over the prime field F_p and shifted in
X, and it is reduced as it is against an echelon basis kept in the same
packing, since the normal forms of monomials have coefficients in F_p and
a rank does not change when the field is extended.  The pass is extended
only as far as the highest weight asked so far.  It walks each Frobenius
orbit of exponent pairs once, around its cycle, and it does not reduce a
row whose weight class (X^i Y^j has class i + u j mod u(q-1), which both
rewrite rules keep) already has full rank.  The Frobenius-invariance test
reads the same rows against a mask of the lanes of M(s).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial

from .codes import build_code, dual_weight, footprint_inverse_rows, \
    footprint_is_basis
from .curves import CurveSpec
from .fields import FieldError, SubfieldEmbedding, embedding, \
    subfield_of_order
from .linalg import LinearCode, entrywise, null_space, row_space_basis, \
    row_type, rref
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
    exponent pair seen before is skipped: the powers of a monomial are a
    cycle of pairs (see Orbits below), so a monomial whose pair was seen
    is skipped whole, and the others walk their cycle once.  The Frobenius
    maps on canonical exponents, a -> canonical(a t) and
    b -> canonical(b t), are two lists built with the pass, so each step
    is two lookups.  The normal form of a new pair (a, b) is row b of the
    curve's NormalFormTable, a packed row over F_p, times X^a: one shift
    and fold of its lanes.  It is reduced as it is against an echelon
    basis kept in the same packing (packing.insert): the normal forms of
    monomials have coefficients in F_p, and a rank does not change when
    the field is extended.  A row whose weight class has full rank is
    not reduced (see Weight classes below).  The pass goes only as far as
    the highest weight asked so far.

    Distinct canonical pairs give distinct normal forms, so no form is
    seen twice.  The pairs reached have a, a' <= P = u(q-1) and
    b, b' <= N - 1 with N = q^r - 1, each a row of the table: j t^k is
    below q^{r-1} or reduces into 1 .. N, and N divides j t^k only for
    j = 0, since t is prime to N.  Equal normal forms mean
    x^a y^b = x^a' y^b' at every point.
    The x with x^u = Tr(y) != 0 form a coset of the u-th roots of unity,
    so u divides a - a' = ue, and y^(b'-b) = Tr(y)^e on T = {Tr(y) != 0}.
    Then y^D, D = b' - b mod N, is constant on each hyperplane
    Tr(y) = c != 0, and so is y^g with g = gcd(D, N), which has the same
    level sets on the units.  If D != 0 then g <= N/2 < |T|, and for
    z != 0 with Tr(z) = 0, (Y + z)^g - Y^g has degree below g, vanishes
    on T and has constant term z^g != 0: impossible.  So b = b', then
    Tr(y)^e = 1 on T makes q - 1 divide e and P divide a - a', and the
    one case left, {a, a'} = {0, P}, differs at (0, z).

    Orbits.  On X exponents the step a -> x_next[a] fixes 0 and is
    multiplication by t on the residues mod P of 1 .. P; on Y exponents,
    b -> y_next[b] fixes 0 and is multiplication by t on the residues
    mod N of 1 .. N - 1.  Since t is prime to N and P divides N, the step
    on pairs is a permutation, and t^m = q^r = 1 mod N makes the length
    of each cycle divide m.  So the m powers of a monomial go round its
    cycle a whole number of times: the pass walks it once, until it
    returns to its start, and a footprint monomial whose pair was seen
    lies on a cycle walked before and brings nothing.

    Weight classes.  X^i Y^j has class (i + u j) mod P.  Both rewrite
    rules keep it: every term of Y^{q^{r-1}} -> X^u - sum_{k<r-1} Y^{q^k}
    has class u, as u q^k = u mod u(q - 1), and X^{P+1} -> X keeps i
    mod P; y^{q^r} = y keeps it too, as P divides N.  So NF(X^a Y^b) lies
    in the lanes of class (a + u b) mod P, and reducing it against the
    basis rows at pivots of that class keeps it there: each class has
    its own echelon basis, of rank at most the number of footprint lanes
    of class c.  room[c] is that number less the basis rows of class c:
    once it is 0, the later rows of class c are dependent, and are
    counted without being reduced.
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
        self.basis = {}  # pivot column -> what packing.insert keeps
        u, period = curve.u, curve.u * (curve.q - 1)
        # The canonical exponents of t times a canonical X or Y exponent.
        self.x_next = [_x_exponent(curve, a * t) for a in range(period + 1)]
        self.y_next = [_y_exponent(curve, b * t)
                       for b in range(len(self.table.rows))]
        # The footprint lanes of each weight class not yet taken by a
        # basis row of that class.
        self.room = [0] * period
        for i, j in footprint(curve):
            self.room[(i + u * j) % period] += 1

    def extend_to(self, s: int) -> None:
        curve, table = self.curve, self.table
        insert = partial(table.packing.insert, self.basis)
        times_x, y_rows = table.times_x, table.rows
        x_next, y_next, room = self.x_next, self.y_next, self.room
        u, period = curve.u, curve.u * (curve.q - 1)
        monos, weights = footprint(curve), footprint_weights(curve)
        seen, rows, ranks = self.exponents, self.rows, self.ranks
        origins = self.origins
        rank = ranks[-1] if ranks else 0
        stop = bisect_right(weights, s)
        for pos in range(self.done, stop):
            start = monos[pos]
            if start in seen:  # its whole orbit was walked before
                continue
            weight, (a, b) = weights[pos], start
            while True:
                seen.add((a, b))
                row = times_x(a, y_rows[b])
                rows.append(row)
                origins.append(weight)
                c = (a + u * b) % period
                if room[c] and insert(row):
                    room[c] -= 1
                    rank += 1
                ranks.append(rank)
                # Both reductions keep an exponent's residue, so the next
                # power's canonical pair is that of t times this pair.
                a, b = x_next[a], y_next[b]
                if (a, b) == start:
                    break
        self.done = max(self.done, stop)


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


def _components(emb: SubfieldEmbedding) -> list:
    """The m maps that take a row over F_{q^r} to the row over F_t of its
    entries' coordinates c on the decomposition basis, c = 0 .. m - 1."""
    return [entrywise(emb.big, comp.__getitem__) for comp in emb.components]


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
    first, *rest = _components(emb)
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
    """Coordinatewise trace image of C, as a code over the small field:
    the span over F_t of the m components of the generators (_components).

    As b runs over F_{q^r}, the maps x -> Tr(bx) are all the F_t-linear
    functionals on F_{q^r}, as the trace form is nondegenerate, and the m
    component maps are a basis of them.  So a component of a codeword c
    is Tr(bc) for some b, a word of Tr(C).  And a word Tr(bc) of Tr(C),
    with c = sum_i a_i G_i, is sum_i f_i(G_i) for the functionals
    f_i(x) = Tr(b a_i x), each an F_t-combination of the components.
    """
    if emb.big != code.field:
        raise FieldError("embedding does not target the code's field")
    return row_space_basis([part(g) for part in _components(emb)
                            for g in code.generators], emb.small, code.n)


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


def subfield_subcode_from_checks(curve: CurveSpec, s: int,
                                 emb: SubfieldEmbedding) -> LinearCode:
    """NT_u(s)|F_t by Delsarte, (Tr(C^perp))^perp, on the n - k parity
    checks of NT_u(s) (codes.footprint_inverse_rows): the null space over
    F_t of their m(n - k) F_t-components, the rows whose span trace_code
    takes for Tr(C^perp).

    A word w of F_t^n satisfies a check h over F_{q^r} exactly when it
    satisfies each of its m components over F_t: sum_P h_P w_P has
    component c equal to sum_P h_{P,c} w_P, as w_P lies in F_t.  The
    component rows go to linalg.null_space, which eliminates them once
    and reads the canonical basis off that echelon form.
    """
    if emb.big != curve.field:
        raise FieldError("embedding does not target the curve's field")
    footprint_is_basis(curve)
    checks = footprint_inverse_rows(
        curve, footprint(curve)[len(monomials_up_to(curve, s)):])
    components = _components(emb)
    return null_space([part(h) for h in checks for part in components],
                      emb.small, curve.n)


# subfield_subcode_of_ent takes the checks when m(n - k) <= 2k: their one
# elimination of m(n - k) rows of width n then beats build_code and the
# oracle's k x mn one.  Measured from n = 27 to 1024, the two break even
# between ratios 1.5 and 3 over fields of order up to 256; over F_729 and
# F_1024, where build_code is dear, the checks stay faster past 3.
_CHECK_ROWS_PER_GENERATOR = 2


def subfield_subcode_of_ent(curve: CurveSpec, s: int, t: int) -> LinearCode:
    """Explicit generator matrix of NT_u(s)|F_t, in reduced echelon form:
    from the parity checks of NT_u(s) when there are few of them
    (subfield_subcode_from_checks), else by the oracle on build_code's
    generators.  Both give the one canonical basis of the subcode."""
    small = subfield_of_order(curve.field, t)
    emb = embedding(small, curve.field)
    k = len(monomials_up_to(curve, s))
    if emb.m * (curve.n - k) <= _CHECK_ROWS_PER_GENERATOR * k:
        return subfield_subcode_from_checks(curve, s, emb)
    return subfield_subcode_oracle(build_code(curve, s), emb)
