"""Exact linear algebra over finite fields.

Matrices are lists of rows; entries are integer-encoded field elements.
Codes are always stored with their generator matrix in reduced row-echelon
form, so two codes are equal as sets exactly when their stored matrices are
equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FiniteField, SubfieldEmbedding


def _pack(row) -> int:
    """An F_2 row as an int, column j at bit j."""
    return int("".join(map(str, reversed(row))) or "0", 2)


def _unpack(bits: int, ncols: int) -> list:
    return [int(b) for b in reversed(format(bits, f"0{ncols}b"))]


def rref(rows, fld: FiniteField):
    """Reduced row-echelon form. Returns (nonzero rows, pivot columns).

    Over F_2 each row is packed into an int and eliminated with XOR; over
    other fields each row operation goes through the field's row tables.
    """
    rows = list(rows)
    if not rows:
        return [], []
    ncols = len(rows[0])
    packed = fld.order == 2
    rows = [_pack(r) for r in rows] if packed else [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        bit = 1 << col
        piv = next((r for r in range(rank, len(rows))
                    if (rows[r] & bit if packed else rows[r][col])), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        if packed:
            for r in range(len(rows)):
                if r != rank and rows[r] & bit:
                    rows[r] ^= prow
        else:
            if prow[col] != 1:
                prow = fld.scale_row(fld.inv(prow[col]), prow)
                rows[rank] = prow
            tail = prow[col:]  # the pivot row is zero left of col
            for r, row in enumerate(rows):
                if r != rank and row[col]:
                    row[col:] = fld.sub_scaled_row(row[col:], row[col], tail)
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    if packed:
        return [_unpack(r, ncols) for r in rows[:rank]], pivots
    return rows[:rank], pivots


def rank(rows, fld: FiniteField) -> int:
    return len(rref(rows, fld)[0])


@dataclass(frozen=True)
class LinearCode:
    """A linear code given by its generator matrix in canonical RREF."""

    field: FiniteField
    n: int
    generators: tuple  # tuple of row tuples, reduced row-echelon form

    @property
    def k(self) -> int:
        return len(self.generators)

    def codeword(self, message) -> tuple:
        """Encode a message vector (length k) into a codeword."""
        fld = self.field
        out = [0] * self.n
        for coeff, row in zip(message, self.generators):
            if coeff:
                for i, v in enumerate(row):
                    if v:
                        out[i] = fld.add(out[i], fld.mul(coeff, v))
        return tuple(out)

    def contains(self, word) -> bool:
        return rank(list(self.generators) + [list(word)], self.field) == self.k


def row_space_basis(rows, fld: FiniteField, n: int | None = None) -> LinearCode:
    """Canonical code with the same row space as the given rows."""
    rows = [list(r) for r in rows]
    if n is None:
        if not rows:
            raise ValueError("cannot infer length from an empty row list")
        n = len(rows[0])
    if n <= 0:
        raise ValueError("code length must be positive")
    if any(len(r) != n for r in rows):
        raise ValueError("rows have mismatched lengths")
    basis, _ = rref(rows, fld)
    return LinearCode(fld, n, tuple(tuple(r) for r in basis))


def kernel(code: LinearCode) -> LinearCode:
    """The dual code: all vectors orthogonal to every generator."""
    fld = code.field
    n = code.n
    basis, pivots = rref(code.generators, fld)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    negated = [fld.scale_row(fld.neg(1), row) for row in basis]
    out = []
    for fc in free_cols:
        vec = [0] * n
        vec[fc] = 1
        for row, pc in zip(negated, pivots):
            vec[pc] = row[fc]
        out.append(vec)
    return row_space_basis(out, fld, n)


def expand_to_subfield(rows, emb: SubfieldEmbedding):
    """Replace each big-field entry by its coordinate expansion.

    An r x n matrix over F_{t^m} becomes an r x (n*m) matrix over F_t, entry
    (i, j) expanding into columns j*m .. j*m + m - 1.
    """
    table = emb.coordinates
    return [[c for v in row for c in table[v]] for row in rows]


def matrix_product_is_zero(a_rows, b_rows, fld: FiniteField) -> bool:
    """Whether A * B^T = 0, i.e. every row of A is orthogonal to each of B."""
    b_cols = list(zip(*b_rows))
    for ra in a_rows:
        acc = [0] * len(b_rows)  # minus row ra of A * B^T
        for x, col in zip(ra, b_cols):
            if x:
                acc = fld.sub_scaled_row(acc, x, col)
        if any(acc):
            return False
    return True
