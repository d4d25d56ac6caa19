"""Exact linear algebra over finite fields.

Matrices are lists of rows; entries are integer-encoded field elements.
Codes are always stored with their generator matrix in reduced row-echelon
form, so two codes are equal as sets exactly when their stored matrices are
equal.  A code's rows are `bytes` over fields of order at most 256 and
tuples otherwise (see row_type).

Rows over a field of order at most 256 and characteristic at most 127 are
eliminated as Python ints in byte lanes (see lanes_for): one lane per entry
in characteristic 2 (LaneRows), one lane per F_p digit of an entry in odd
characteristic (DigitLanes).  Rows over any other field go through the
field's per-entry mul and sub.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .fields import FiniteField


class LaneRows:
    """Rows of a fixed width over F_{2^e}, e <= 8, packed one entry per
    byte.

    A row is the int with entry j in byte lane j, so adding two rows is one
    XOR.  Multiplying every lane by the generator x is a shift inside each
    lane plus the modulus's low coefficients wherever a lane's top bit was
    set, and c * row is the XOR of the images x^k * row over the bits k of c.
    An entry's lane holds the element itself, so `key` is the identity.
    """

    minus_one = 1

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
    def key(c: int) -> int:
        return c

    @staticmethod
    def lead(v: int) -> int:
        """The column of the first nonzero entry of a nonzero row."""
        return ((v & -v).bit_length() - 1) >> 3

    @staticmethod
    def sweep(rows, minus, col) -> list:
        """Each row minus its entry at col times the pivot, for the map
        minus that pivot_multiples gives."""
        shift = col << 3
        return [v ^ minus[v >> shift & 255] for v in rows]

    def back_substitute(self, echelon: list, pivots: list) -> None:
        """Clear the entries above each pivot of a reduced echelon form, in
        place.

        A reduced row is zero at every other pivot column, so subtracting
        it from a row above leaves that row's other pivot entries
        unchanged: each row's entries at the later pivot columns are read
        once, up front.
        """
        later = [bytes(map(v.to_bytes(self.width, "little").__getitem__,
                           pivots[i + 1:])) for i, v in enumerate(echelon)]
        for j in range(len(echelon) - 1, 0, -1):
            times = self.multiples(echelon[j])
            for i in range(j):
                c = later[i][j - i - 1]
                if c:
                    echelon[i] ^= times[c]

    def multiples(self, v: int) -> "_Multiples":
        """The map key(c) -> c * v, each product built on first use."""
        images = [v]
        for _ in range(self.e - 1):
            v = ((v & self.low) << 1) ^ \
                (((v >> (self.e - 1)) & self.ones) * self.poly)
            images.append(v)
        return _Multiples(images)

    def pivot_multiples(self, v: int, col: int) -> "_Multiples":
        """The map key(c) -> -c * v / v[col], for a row v nonzero at col;
        here -c = c."""
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


@lru_cache(maxsize=None)
def _digit_tables(fld: FiniteField) -> tuple:
    """Tables for DigitLanes over fld = F_{p^e}: times[c] maps a byte b to
    c * b mod p (so times[1] reduces a lane), digits[i] maps an element to
    its digit i, places[i] maps a digit d to d * p^i, and scales maps the
    key of each nonzero c to the key of -1/c."""
    p, e, q = fld.p, fld.e, fld.order
    times = [bytes(c * b % p for b in range(256)) for c in range(p)]
    digits = [bytes(b // p ** i % p if b < q else 0 for b in range(256))
              for i in range(e)]
    places = [bytes(b * p ** i if b < p else 0 for b in range(256))
              for i in range(e)]
    keys = [int.from_bytes(bytes(fld.coeffs(c)), "little") for c in range(q)]
    scales = {keys[c]: keys[fld.neg(fld.inv(c))] for c in range(1, q)}
    return times, digits, places, keys, scales


class DigitLanes:
    """Rows of a fixed width over F_{p^e}, p odd, p <= 127 and p^e <= 256,
    packed one byte lane per F_p digit.

    Entry j with digits a_0 ... a_{e-1} (the element sum a_i p^i) sits in
    lanes j*e ... j*e + e - 1 of one int; its key is the int of those e
    lanes.  Rows are kept reduced, every lane below p.  Adding two reduced
    rows as integers leaves every lane at most 2(p - 1) <= 252, and one
    bytes.translate takes every lane mod p, so subtracting c * pivot is
    adding the reduced multiple -c * pivot and reducing once.  Multiplying
    every entry by the generator x moves each digit up one lane inside its
    entry and adds the top digit times the negated low coefficients of the
    modulus; c * row is the sum of the lanewise products c_k * (x^k * row)
    over the digits c_k of c.
    """

    def __init__(self, fld: FiniteField, width: int):
        p, e = fld.p, fld.e
        self.fld = fld
        self.width = width
        self.e = e
        self.nbytes = width * e
        self.bits = 8 * e  # per entry
        self.mask = (1 << self.bits) - 1
        self.minus_one = p - 1
        self.times, self.digits, self.places, self.keys, self.scales = \
            _digit_tables(fld)
        self.mod = self.times[1]
        # A reduced row takes this many additions of reduced rows before a
        # lane could pass 255.
        self.span = 255 // (p - 1) - 1
        if e > 1:
            self.low = int.from_bytes(
                (b"\xff" * (e - 1) + b"\x00") * width, "little")
            self.top = int.from_bytes(
                (b"\xff" + b"\x00" * (e - 1)) * width, "little")
            self.poly = int.from_bytes(
                bytes(-m % p for m in fld.modulus[:-1]), "little")

    def pack(self, row) -> int:
        row = bytes(row)
        if self.e == 1:
            return int.from_bytes(row, "little")
        out = bytearray(self.nbytes)
        for i, digit in enumerate(self.digits):
            out[i::self.e] = row.translate(digit)
        return int.from_bytes(out, "little")

    def unpack(self, v: int) -> list:
        """The entries of a reduced row."""
        lanes = v.to_bytes(self.nbytes, "little")
        if self.e == 1:
            return list(lanes)
        e = self.e
        total = int.from_bytes(lanes[::e], "little")
        for i in range(1, e):
            total += int.from_bytes(lanes[i::e].translate(self.places[i]),
                                    "little")
        return list(total.to_bytes(self.width, "little"))

    def reduce(self, v: int) -> int:
        """Every lane taken mod p."""
        return int.from_bytes(
            v.to_bytes(self.nbytes, "little").translate(self.mod), "little")

    def sweep(self, rows, minus, col) -> list:
        """Each row minus its entry at col times the pivot, for the map
        minus that pivot_multiples gives."""
        shift, mask, nbytes, mod = col * self.bits, self.mask, self.nbytes, \
            self.mod
        return [int.from_bytes((v + minus[c]).to_bytes(nbytes, "little")
                               .translate(mod), "little")
                if (c := v >> shift & mask) else v for v in rows]

    def back_substitute(self, echelon: list, pivots: list) -> None:
        """Clear the entries above each pivot of a reduced echelon form, in
        place, reading each row's later pivot entries once up front (see
        LaneRows.back_substitute)."""
        nbytes, mod, keys = self.nbytes, self.mod, self.keys
        later = [bytes(map(self.unpack(v).__getitem__, pivots[i + 1:]))
                 for i, v in enumerate(echelon)]
        for j in range(len(echelon) - 1, 0, -1):
            minus = self.pivot_multiples(echelon[j], pivots[j])
            for i in range(j):
                c = later[i][j - i - 1]
                if c:
                    echelon[i] = int.from_bytes(
                        (echelon[i] + minus[keys[c]]).to_bytes(
                            nbytes, "little").translate(mod), "little")

    def key(self, c: int) -> int:
        return self.keys[c]

    def lead(self, v: int) -> int:
        """The column of the first nonzero entry of a nonzero row."""
        return (((v & -v).bit_length() - 1) >> 3) // self.e

    def multiples(self, v: int) -> "_DigitMultiples":
        """The map key(c) -> c * v, each product built on first use.

        The images x^k * v are left unreduced: a lane of x^k * v is at most
        (p - 1) p^k < p^e <= 256, and a product reads each image through
        the table times[c_k], which reduces mod p.
        """
        images = [v]
        for _ in range(self.e - 1):
            v = ((v & self.low) << 8) + (v >> self.bits - 8 & self.top) * \
                self.poly
            images.append(v)
        return _DigitMultiples(self, [w.to_bytes(self.nbytes, "little")
                                      for w in images])

    def pivot_multiples(self, v: int, col: int) -> "_DigitMultiples":
        """The map key(c) -> -c * v / v[col], for a row v nonzero at col."""
        scale = self.scales[v >> col * self.bits & self.mask]
        if scale >> 8:
            return self.multiples(self.multiples(v)[scale])
        # A scalar in F_p multiplies every digit alike.
        u = v.to_bytes(self.nbytes, "little").translate(self.times[scale])
        if self.e == 1:
            return _DigitMultiples(self, [u])
        return self.multiples(int.from_bytes(u, "little"))


class _DigitMultiples(dict):
    def __init__(self, lanes: DigitLanes, images):
        super().__init__()
        self.lanes = lanes
        self.images = images  # as bytes

    def __missing__(self, key):
        times = self.lanes.times
        w = terms = 0
        c = key
        for image in self.images:
            if c & 255:
                w += int.from_bytes(image.translate(times[c & 255]), "little")
                terms += 1
            c >>= 8
        if terms > 1:
            w = self.lanes.reduce(w)
        self[key] = w
        return w


def lanes_for(fld: FiniteField, width: int):
    """The byte-lane packing of rows of the given width over fld: LaneRows
    in characteristic 2, DigitLanes in odd characteristic.  None when an
    entry does not fit, that is for order above 256, or for p from 131 to
    251, where a sum of two reduced lanes can pass 255."""
    if fld.order > 256 or fld.p > 127:
        return None
    return LaneRows(fld, width) if fld.p == 2 else DigitLanes(fld, width)


def row_type(fld: FiniteField) -> type:
    """How finished rows over fld are stored: `bytes` when every entry fits
    a byte (order at most 256), else `tuple`.  A bytes row takes one byte
    per entry, a tuple eight plus the ints it points to."""
    return bytes if fld.order <= 256 else tuple


def scale_rows(c: int, rows, fld: FiniteField, width: int) -> list:
    """The rows c * row, in byte lanes when fld has them."""
    lanes = lanes_for(fld, width)
    if lanes is None:
        return [fld.scale_row(c, row) for row in rows]
    key = lanes.key(c)
    return [lanes.unpack(lanes.multiples(lanes.pack(row))[key])
            for row in rows]


def _rref_lanes(rows, lanes):
    """Forward elimination over the rows grouped by leading column, then
    back substitution; only rows with a nonzero entry are ever touched."""
    by_lead = {}
    for row in rows:
        v = lanes.pack(row)
        if v:
            by_lead.setdefault(lanes.lead(v), []).append(v)
    echelon, pivots = [], []
    for col in range(lanes.width):
        if not by_lead:
            break
        group = by_lead.pop(col, None)
        if group is None:
            continue
        minus = lanes.pivot_multiples(group[0], col)
        for v in lanes.sweep(group[1:], minus, col):
            if v:
                by_lead.setdefault(lanes.lead(v), []).append(v)
        echelon.append(minus[lanes.minus_one])
        pivots.append(col)
    lanes.back_substitute(echelon, pivots)
    return [lanes.unpack(v) for v in echelon], pivots


def rref(rows, fld: FiniteField):
    """Reduced row-echelon form. Returns (nonzero rows, pivot columns).

    Over fields whose entries fit byte lanes (lanes_for) the rows are packed
    into ints; other fields go through the field's per-entry operations.
    """
    rows = list(rows)
    if not rows:
        return [], []
    ncols = len(rows[0])
    lanes = lanes_for(fld, ncols)
    if lanes is not None:
        return _rref_lanes(rows, lanes)
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
        basis = scale_rows(fld.neg(1), basis, fld, n)
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
