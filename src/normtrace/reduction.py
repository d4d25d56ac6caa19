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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .curves import CurveSpec
from .fields import FieldError, FiniteField
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

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, point) -> int:
        x, y = point
        fld = self.field
        acc = 0
        for (i, j), c in self.terms:
            v = fld.mul(fld.pow(x, i), fld.pow(y, j))
            acc = fld.add(acc, fld.mul(c, v))
        return acc

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


def frobenius_power(f: SparsePolynomial, t: int) -> SparsePolynomial:
    """f^(t): coefficients raised to the t-th power, exponents scaled by t.

    Valid when t is a subfield order of the coefficient field, where
    raising to the t-th power is additive; then f^(t)(P) = (f(P))^t.
    """
    fld = f.field
    if not fld.is_subfield_order(t):
        raise FieldError(f"{t} is not a subfield order of F_{fld.order}")
    return SparsePolynomial.from_dict(
        fld, {(i * t, j * t): fld.pow(c, t) for (i, j), c in f.terms})


def weight_residues(curve: CurveSpec, f: SparsePolynomial) -> set:
    """Residues mod (q-1)u of the weights of f's support monomials."""
    modulus = (curve.q - 1) * curve.u
    return {weight(curve, m) % modulus for m in f.support}
