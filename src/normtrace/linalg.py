"""Exact linear algebra over finite fields.

Matrices are lists of rows; entries are integer-encoded field elements.
Codes are always stored with their generator matrix in reduced row-echelon
form, so two codes are equal as sets exactly when their stored matrices are
equal.  A code's rows are `bytes` over fields of order at most 256 and
tuples otherwise (see row_type).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FiniteField


class LaneRows:
    """Rows of a fixed width over F_{2^e}, e <= 8 (see has_lanes), packed
    one entry per byte.

    A row is the int with entry j in byte lane j, so adding two rows is one
    XOR.  Multiplying every lane by the generator x is a shift inside each
    lane plus the modulus's low coefficients wherever a lane's top bit was
    set, and c * row is the XOR of the images x^k * row over the bits k of c.
    """

    def __init__(self, fld: FiniteField, width: int):
        self.fld = fld
        self.width = width
        self.e = fld.e
        self.ones = int.from_bytes(b"\x01" * width, "little")
        self.low = self.ones * ((1 << (fld.e - 1)) - 1)
        self.poly = fld.encode(fld.modulus[:-1])

    def pack(self, row) -> int:
        return int.from_bytes(bytes(row), "little")

    def unpack(self, v: int) -> list:
        return list(v.to_bytes(self.width, "little"))

    @staticmethod
    def lead(v: int) -> int:
        """The column of the first nonzero entry of a nonzero row."""
        return ((v & -v).bit_length() - 1) >> 3

    def multiples(self, v: int) -> "_Multiples":
        """The map c -> c * v, each product built on first use."""
        images = [v]
        for _ in range(self.e - 1):
            v = ((v & self.low) << 1) ^ \
                (((v >> (self.e - 1)) & self.ones) * self.poly)
            images.append(v)
        return _Multiples(images)

    def pivot_multiples(self, v: int, col: int) -> "_Multiples":
        """The map c -> c * v / v[col], for a row v nonzero at col."""
        times = self.multiples(v)
        lead = v >> (col << 3) & 255
        return times if lead == 1 else \
            self.multiples(times[self.fld.inv(lead)])


class _Multiples(dict):
    def __init__(self, images):
        super().__init__()
        self.images = images

    def __missing__(self, c):
        w = 0
        for k, image in enumerate(self.images):
            if c >> k & 1:
                w ^= image
        self[c] = w
        return w


def row_type(fld: FiniteField) -> type:
    """How finished rows over fld are stored: `bytes` when every entry fits
    a byte (order at most 256), else `tuple`.  A bytes row takes one byte
    per entry, a tuple eight plus the ints it points to."""
    return bytes if fld.order <= 256 else tuple


def has_lanes(fld: FiniteField) -> bool:
    """Whether rows over fld go through LaneRows: characteristic 2 and
    order at most 256."""
    return fld.p == 2 and fld.order <= 256


def _rref_lanes(rows, fld: FiniteField, ncols: int):
    """Forward elimination over the rows grouped by leading column, then
    back substitution; only rows with a nonzero entry are ever touched."""
    lanes = LaneRows(fld, ncols)
    by_lead = {}
    for row in rows:
        v = lanes.pack(row)
        if v:
            by_lead.setdefault(lanes.lead(v), []).append(v)
    echelon, pivots = [], []
    for col in range(ncols):
        if not by_lead:
            break
        group = by_lead.pop(col, None)
        if group is None:
            continue
        shift = col << 3
        times = lanes.pivot_multiples(group[0], col)
        for v in group[1:]:
            v ^= times[v >> shift & 255]
            if v:
                by_lead.setdefault(lanes.lead(v), []).append(v)
        echelon.append(times[1])
        pivots.append(col)
    # A reduced row is zero at every other pivot column, so subtracting it
    # from a row above leaves that row's other pivot entries unchanged: each
    # row's entries at the later pivot columns are read once, up front.
    later = [bytes(map(v.to_bytes(ncols, "little").__getitem__,
                       pivots[i + 1:])) for i, v in enumerate(echelon)]
    for j in range(len(echelon) - 1, 0, -1):
        times = lanes.multiples(echelon[j])
        for i in range(j):
            c = later[i][j - i - 1]
            if c:
                echelon[i] ^= times[c]
    return [lanes.unpack(v) for v in echelon], pivots


def rref(rows, fld: FiniteField):
    """Reduced row-echelon form. Returns (nonzero rows, pivot columns).

    In characteristic 2 up to order 256 the rows are packed into byte lanes
    (LaneRows); other fields go through the field's row operations.
    """
    rows = list(rows)
    if not rows:
        return [], []
    ncols = len(rows[0])
    if has_lanes(fld):
        return _rref_lanes(rows, fld, ncols)
    rows = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
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
    return rows[:rank], pivots


def rank(rows, fld: FiniteField) -> int:
    return len(rref(rows, fld)[0])


@dataclass(frozen=True)
class LinearCode:
    """A linear code given by its generator matrix in canonical RREF.

    The rows are stored as row_type(field) gives, whatever sequences they
    were given as.
    """

    field: FiniteField
    n: int
    generators: tuple  # rows in reduced row-echelon form

    def __post_init__(self):
        object.__setattr__(self, "generators",
                           tuple(map(row_type(self.field), self.generators)))

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
    return LinearCode(fld, n, rref(rows, fld)[0])


def kernel(code: LinearCode) -> LinearCode:
    """The dual code: all vectors orthogonal to every generator."""
    fld = code.field
    n = code.n
    basis, pivots = rref(code.generators, fld)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n) if c not in pivot_set]
    if fld.p != 2:  # -1 = 1 in characteristic 2
        basis = [fld.scale_row(fld.neg(1), row) for row in basis]
    out = []
    for fc in free_cols:
        vec = [0] * n
        vec[fc] = 1
        for row, pc in zip(basis, pivots):
            vec[pc] = row[fc]
        out.append(vec)
    return row_space_basis(out, fld, n)


def matrix_product_is_zero(a_rows, b_rows, fld: FiniteField) -> bool:
    """Whether A * B^T = 0, i.e. every row of A is orthogonal to each of B.

    Not used by the duality check, which works from power sums; the
    benchmark's tracer (perfbench/tracing.py) still wraps this name, so it
    leaves together with that target.
    """
    b_cols = list(zip(*b_rows))
    for ra in a_rows:
        acc = [0] * len(b_rows)  # minus row ra of A * B^T
        for x, col in zip(ra, b_cols):
            if x:
                acc = fld.sub_scaled_row(acc, x, col)
        if any(acc):
            return False
    return True
