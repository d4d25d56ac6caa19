"""Sparse bivariate polynomials and normal forms modulo the curve ideal.

The vanishing ideal of the point set is generated by

    g1 = X^u - (Y + Y^q + ... + Y^{q^{r-1}})
    g2 = X^{u(q-1)+1} - X

Under the weight-first, Y-dominant monomial order the leading terms are
Y^{q^{r-1}} and X^{u(q-1)+1}.  They involve distinct variables, so by
Buchberger's first criterion {g1, g2} is a Groebner basis and reduction can
be done with two total rewrite rules:

    Y^{q^{r-1}}   ->  X^u - (Y + Y^q + ... + Y^{q^{r-2}})
    X^{u(q-1)+1}  ->  X

Each application strictly decreases the polynomial in the monomial order,
so the rewriting terminates with the unique footprint-supported normal form.

normal_form runs these rules on any polynomial.  The normal form of a single
monomial is read from a table instead (NormalFormTable, monomial_normal_form):

    NF(X^a Y^b)  = X-reduce(X^a * NF(Y^b))
    NF(Y^b)      = X-reduce(X^u * NF(Y^{b-q^{r-1}}))
                   - sum_{k<r-1} NF(Y^{b-q^{r-1}+q^k})      for b >= q^{r-1}

where X-reduce replaces X^i, i >= 1, by X^{((i-1) mod u(q-1)) + 1}.  Since
y^{q^r} = y at every point, NF(Y^b) for b >= 1 depends only on
((b-1) mod (q^r-1)) + 1, so the table holds the q^r - 1 rows NF(Y^b),
b = 0 .. q^r - 2, and NF(Y^{q^r-1}) is one step of the recursion past it.

The ideal's generators have coefficients in F_p, so every NF(Y^b) does too,
and a row is packed over F_p (linalg.row_packing) in the footprint box,
X-major: the coefficient of X^i Y^j, i <= P = u(q-1), j < m = q^{r-1}, sits
in lane i m + j.  Multiplying by X^a, 1 <= a <= P, is then a shift and a
fold (linalg.shift_fold): the row moves up a m lanes, the lanes whose X
exponent passed P move down P m lanes, since X^{P+1} = X, and are added
back.  The trace span and the Frobenius-invariance test read these rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .curves import CurveSpec
from .fields import FieldError, FiniteField, field_sum, make_field
from .linalg import row_packing, shift_fold
from .monomials import Monomial, order_key, weight


@dataclass(frozen=True)
class SparsePolynomial:
    """Finite map from monomials to nonzero coefficients, canonically ordered."""

    field: FiniteField
    terms: tuple  # tuple of ((i, j), coeff), no zero coefficients

    @staticmethod
    def from_dict(field: FiniteField, coeffs: dict) -> "SparsePolynomial":
        items = tuple(sorted((m, c) for m, c in coeffs.items() if c))
        return SparsePolynomial(field, items)

    def as_dict(self) -> dict:
        return dict(self.terms)

    @property
    def support(self) -> list:
        return [m for m, _ in self.terms]

    def evaluate(self, point) -> int:
        x, y = point
        fld = self.field
        return field_sum(fld, (fld.mul(c, fld.mul(fld.pow(x, i),
                                                 fld.pow(y, j)))
                               for (i, j), c in self.terms))

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        fld = self.field
        if fld != other.field:
            raise FieldError("polynomial field mismatch")
        out = dict(self.terms)
        for m, c in other.terms:
            s = fld.add(out.get(m, 0), c)
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return SparsePolynomial.from_dict(fld, out)


def monomial_poly(field: FiniteField, mono: Monomial,
                  coeff: int = 1) -> SparsePolynomial:
    return SparsePolynomial.from_dict(field, {mono: coeff})


@dataclass(frozen=True)
class CurveIdealBasis:
    """The two-element Groebner basis of the curve's vanishing ideal."""

    curve: CurveSpec
    g1: SparsePolynomial  # X^u - Tr(Y)
    g2: SparsePolynomial  # X^{u(q-1)+1} - X

    @property
    def leading_terms(self) -> tuple:
        q, u, r = self.curve.q, self.curve.u, self.curve.r
        return ((0, q ** (r - 1)), (u * (q - 1) + 1, 0))


@lru_cache(maxsize=None)
def curve_ideal_basis(curve: CurveSpec) -> CurveIdealBasis:
    fld = curve.field
    q, u, r = curve.q, curve.u, curve.r
    g1 = {(u, 0): 1}
    for i in range(r):
        g1[(0, q**i)] = fld.neg(1)
    g2 = {(u * (q - 1) + 1, 0): 1, (1, 0): fld.neg(1)}
    return CurveIdealBasis(curve,
                           SparsePolynomial.from_dict(fld, g1),
                           SparsePolynomial.from_dict(fld, g2))


def _reduce_monomial(curve: CurveSpec, mono: Monomial) -> dict:
    """One rewrite step on a single monomial, or None if already standard."""
    fld = curve.field
    q, u, r = curve.q, curve.u, curve.r
    jcap = q ** (r - 1)
    icap = u * (q - 1) + 1
    i, j = mono
    if i >= icap:
        # X^{u(q-1)+1} -> X
        return {(i - icap + 1, j): 1}
    if j >= jcap:
        # Y^{q^{r-1}} -> X^u - sum of lower trace terms
        out = {(i + u, j - jcap): 1}
        for k in range(r - 1):
            key = (i, j - jcap + q**k)
            out[key] = fld.add(out.get(key, 0), fld.neg(1))
        return {m: c for m, c in out.items() if c}
    return None


def normal_form(curve: CurveSpec, f: SparsePolynomial) -> SparsePolynomial:
    """Unique footprint-supported representative of f's evaluation class."""
    fld = curve.field
    work = dict(f.terms)
    done: dict = {}
    while work:
        # Pop the largest monomial first so each is touched few times.
        mono = max(work, key=lambda m: order_key(curve, m))
        coeff = work.pop(mono)
        repl = _reduce_monomial(curve, mono)
        if repl is None:
            s = fld.add(done.get(mono, 0), coeff)
            if s:
                done[mono] = s
            else:
                done.pop(mono, None)
            continue
        for m, c in repl.items():
            s = fld.add(work.get(m, 0), fld.mul(coeff, c))
            if s:
                work[m] = s
            else:
                work.pop(m, None)
    return SparsePolynomial.from_dict(fld, done)


def _x_exponent(curve: CurveSpec, a: int) -> int:
    """The exponent of X^a after X^{u(q-1)+1} -> X, applied until standard."""
    period = curve.u * (curve.q - 1)
    return a if a <= period else (a - 1) % period + 1


def _y_exponent(curve: CurveSpec, b: int) -> int:
    """The exponent whose entry in the table of NF(Y^b) gives NF(Y^b): b
    itself below q^{r-1}, else ((b - 1) mod (q^r - 1)) + 1, since
    y^{q^r} = y at every point."""
    q, r = curve.q, curve.r
    return b if b < q ** (r - 1) else (b - 1) % (q**r - 1) + 1


class NormalFormTable:
    """The rows NF(Y^b), b = 0 .. q^r - 2, of one curve, packed over F_p
    X-major as the module docstring says.  F_p's element c has the same
    code c in F_{q^r}, so a row unpacks to its polynomial as it is."""

    def __init__(self, curve: CurveSpec):
        self.curve = curve
        self.m = curve.weight_x
        self.down = curve.u * (curve.q - 1) * self.m
        self.packing = packing = row_packing(make_field(curve.p, 1), curve.n)
        self.rows = [1 << b * packing.bits for b in range(self.m)]  # Y^b
        for b in range(self.m, curve.q**curve.r - 1):
            self.rows.append(self._y_power(b))
        self.rows = tuple(self.rows)

    def _y_power(self, b: int):
        """NF(Y^b) for b >= m from the rows of smaller exponents:
        Y^b -> X^u Y^{b-m} - sum_{k<r-1} Y^{b-m+q^k}."""
        curve, packing, rows = self.curve, self.packing, self.rows
        low = b - self.m
        trace = 0
        for k in range(curve.r - 1):
            trace = packing.reduce(packing.add(trace, rows[low + curve.q**k]))
        return packing.reduce(packing.add(
            self.times_x(curve.u, rows[low]),
            packing.scale(packing.minus_one, trace)))

    def times_x(self, a: int, v):
        """X-reduced X^a * v for a canonical X exponent a <= P (as
        _x_exponent gives): v moved up a m lanes, and the lanes past X^P
        moved down P m lanes and added back, since X^{P+1} = X."""
        return shift_fold(self.packing, v, a * self.m, self.down) if a else v

    def row(self, a: int, b: int):
        """NF(X^a Y^b), packed.  Y^{q^r - 1} is one step of the recursion
        past the table; no Frobenius power of a footprint monomial
        reaches it."""
        b = _y_exponent(self.curve, b)
        return self.times_x(_x_exponent(self.curve, a),
                            self.rows[b] if b < len(self.rows) else
                            self._y_power(b))

    def polynomial(self, v) -> SparsePolynomial:
        """The packed row v as a polynomial over F_{q^r}."""
        return SparsePolynomial.from_dict(self.curve.field, {
            divmod(lane, self.m): c
            for lane, c in enumerate(self.packing.unpack(v)) if c})

    def lane_mask(self, monos) -> int:
        """The lanes of the given monomials: an int with every bit of those
        lanes set, so that a row v is nonzero in one of them exactly when
        v & mask is nonzero."""
        marks = [0] * self.curve.n
        for i, j in monos:
            marks[i * self.m + j] = 1
        return self.packing.pack(marks) * ((1 << self.packing.bits) - 1)


@lru_cache(maxsize=None)
def normal_form_table(curve: CurveSpec) -> NormalFormTable:
    return NormalFormTable(curve)


def monomial_normal_form(curve: CurveSpec, a: int, b: int) -> SparsePolynomial:
    """NF(X^a Y^b), read from the curve's table of NF(Y^b).

    Equal to normal_form(curve, monomial_poly(field, (a, b))): the result is
    X-reduced X^a * NF(Y^b), and NF(Y^b) depends on b only through
    ((b - 1) mod (q^r - 1)) + 1 for b >= 1.
    """
    table = normal_form_table(curve)
    return table.polynomial(table.row(a, b))


def frobenius_power(f: SparsePolynomial, t: int) -> SparsePolynomial:
    """f^(t): coefficients raised to the t-th power, exponents scaled by t.

    Valid when t is a subfield order of the coefficient field, where
    raising to the t-th power is additive; then f^(t)(P) = (f(P))^t.
    """
    fld = f.field
    fld.subfield_degree(t)
    return SparsePolynomial.from_dict(
        fld, {(i * t, j * t): fld.pow(c, t) for (i, j), c in f.terms})


def weight_residues(curve: CurveSpec, f: SparsePolynomial) -> set:
    """Residues mod (q-1)u of the weights of f's support monomials."""
    modulus = (curve.q - 1) * curve.u
    return {weight(curve, m) % modulus for m in f.support}
