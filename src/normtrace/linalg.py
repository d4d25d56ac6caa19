"""Exact linear algebra over finite fields.

Matrices are lists of rows; entries are integer-encoded field elements.
A LinearCode holds its generator matrix in reduced row-echelon form, checked
when it is built, with its pivot columns: two codes are equal as sets
exactly when their stored matrices are equal, and contains and the parity
search read the pivots instead of eliminating again.  A code's rows are
`bytes` over fields of order at most 256 and tuples otherwise (see
row_type), and entrywise maps every entry of such a row through one
function: the generators' negatives, Frobenius powers, traces and subfield
components, and build_code's scalings, all take it.

Every elimination and every codeword sum packs each row into one int, the
one way row_packing picks from the field: one bit per entry over F_2
(BitRows), one lane per entry over F_4 ... F_{2^16}, 8 bits wide up to
F_256 and 16 bits above (LaneRows), and one byte lane per F_p digit over
odd fields with p <= 127 (DigitLanes).  The three share one set of
methods (pack, unpack, key, lead, multiples, pivot_multiples, pivot_row,
eliminate, back_substitute, insert, add, reduce, scale, monic, weights),
so rref, the distance searches and the trace pass each have one code
path.  A field of characteristic above 127 has no packing: two of its
reduced digits can pass 255 in one byte lane, and row_packing raises
FieldError for it.

There is one forward elimination, insert, which reduces one row against
an echelon basis and adds it there when it is independent; each packing
has its own loop for it.  rref inserts its rows one at a time, then
substitutes back, and rank only counts the rows insert takes.  Each
packing clears the entries above the pivots its own way: an in-place test
and XOR in characteristic 2, and one grouped sum per row over the odd
digit lanes.  A caller that keeps only the part of the row space that
vanishes before some column passes it as rref's `start`, and only those
rows are substituted back.  null_space, which kernel, the subfield
subcode's parity-check route and the parity search's witness use, reads
the null space off one rref of the rows with their columns reversed,
already in reduced echelon form.
"""

from __future__ import annotations

import dataclasses
import struct
from bisect import bisect_left
from collections import defaultdict
from functools import lru_cache, partial
from itertools import repeat
from operator import itemgetter

from .fields import FieldError, FiniteField


class _Packing:
    """What the packings share.  A row is one int, entry j in the `bits`
    bits from bit j * bits on.  `span` is how many additions a reduced
    word takes before it must be reduced again; None when adding never
    leaves a word unreduced, so that `reduce` is the identity.  `key` maps
    a scalar to its key in the maps that multiples gives.  `monic` scales a
    nonzero row so that its first nonzero entry is 1, so two nonzero rows
    are multiples of each other exactly when their monic rows are equal.

    Each packing has its own loop for the two row operations.
    insert(basis, v) reduces the row v against an echelon basis, kept as a
    dict from each pivot column to what the packing keeps of its row, 1 at
    the pivot (pivot_row reads the row back): the row itself in BitRows,
    its images x^k * row in LaneRows, the map pivot_multiples gives in
    DigitLanes.  It returns 1 if v is independent of the basis, and then v
    joins it at its leading column, else 0 and the basis as it was.
    eliminate(v, rows) gives each row minus the multiple of v that clears
    its entry at the first nonzero column of v.
    """

    span = None
    minus_one = 1

    def __init__(self, fld: FiniteField, width: int):
        self.fld = fld
        self.width = width

    @staticmethod
    def key(c: int) -> int:
        return c

    @staticmethod
    def reduce(v: int) -> int:
        return v

    def lead(self, v: int) -> int:
        """The column of the first nonzero entry of a nonzero row."""
        return ((v & -v).bit_length() - 1) // self.bits

    def scale(self, c: int, v: int) -> int:
        """The row c * v."""
        return self.multiples(v)[self.key(c)]

    def pivot_row(self, kept) -> int:
        """The row, 1 at its pivot, that insert keeps as `kept`: the map
        pivot_multiples gives, whose product by -1 it is."""
        return kept[self.minus_one]

    def back_substitute(self, echelon: list, pivots: list) -> None:
        """Clear the entries above each pivot of an echelon form whose
        pivot entries are 1, in place, giving the reduced echelon form.

        A finished row (cleared above by the rows below it) is zero at
        every other pivot column, so subtracting it from a row above leaves
        that row's other pivot entries unchanged: a row's entries at the
        later pivot columns are those it had before back substitution.
        Each packing clears the entries its own way.
        """
        raise NotImplementedError


class _OnFirstUse(dict):
    """The map x -> f(x), each value computed on first use."""

    def __init__(self, f):
        super().__init__()
        self.f = f

    def __missing__(self, x):
        self[x] = y = self.f(x)
        return y


class _OnEachUse(_OnFirstUse):
    """The map x -> f(x), each value computed on every use."""

    def __missing__(self, x):
        return self.f(x)


_BITS = bytes.maketrans(b"\0\1", b"01")
_UNBITS = bytes.maketrans(b"01", b"\0\1")


class BitRows(_Packing):
    """Rows of a fixed width over F_2, entry j in bit j of one int: adding
    two rows is one XOR and a weight is a bit count."""

    add = staticmethod(int.__xor__)
    bits = 1

    @staticmethod
    def pack(row) -> int:
        return int(bytes(row)[::-1].translate(_BITS) or b"0", 2)

    def unpack(self, v: int) -> list:
        return list(format(v, f"0{self.width}b")[::-1].encode()
                    .translate(_UNBITS))

    @staticmethod
    def multiples(v: int) -> tuple:
        """The map key(c) -> c * v."""
        return 0, v

    @staticmethod
    def monic(v: int) -> int:
        """A nonzero row scaled so that its first nonzero entry is 1: the
        row itself."""
        return v

    @staticmethod
    def pivot_multiples(v: int, col: int) -> tuple:
        """The map key(c) -> -c * v / v[col]; here v[col] = 1 = -1."""
        return 0, v

    @staticmethod
    def eliminate(v: int, rows) -> list:
        """Each row minus v where it has v's first nonzero entry: the
        pivot is the lowest set bit of v."""
        bit = v & -v
        return [u ^ v if u & bit else u for u in rows]

    @staticmethod
    def insert(basis: dict, v: int) -> int:
        """Reduce v against the basis (see _Packing), keeping each basis
        row itself: while the pivot at the lowest set bit of v is there, v
        is XORed with it."""
        while v:
            col = (v & -v).bit_length() - 1
            pivot = basis.get(col)
            if pivot is None:
                basis[col] = v
                return 1
            v ^= pivot
        return 0

    @staticmethod
    def pivot_row(kept: int) -> int:
        """The row insert keeps: kept itself."""
        return kept

    @staticmethod
    def back_substitute(echelon: list, pivots: list) -> None:
        """As _Packing.back_substitute, testing each pivot bit in place and
        XORing the pivot row in, with no unpacking."""
        for j in range(len(echelon) - 1, 0, -1):
            v, bit = echelon[j], 1 << pivots[j]
            for i in range(j):
                if echelon[i] & bit:
                    echelon[i] ^= v

    @staticmethod
    def weights(s: int, words):
        """The weight of s + t for each word t."""
        return map(int.bit_count, map(s.__xor__, words))


class LaneRows(_Packing):
    """Rows of a fixed width over F_{2^e}, 2 <= e <= 16, packed one entry
    per lane of `bits` bits: 8 for e <= 8, 16 for e >= 9.

    A row is the int with entry j in lane j, so adding two rows is one
    XOR.  Multiplying every lane by the generator x is a shift inside each
    lane plus the modulus's low coefficients wherever a lane's top bit was
    set, and c * row is the XOR of the images x^k * row over the bits k of c.
    An entry's lane holds the element itself, so `key` is the identity.
    """

    add = staticmethod(int.__xor__)

    def __init__(self, fld: FiniteField, width: int):
        super().__init__(fld, width)
        self.e = e = fld.e
        self.bits = bits = 8 if e <= 8 else 16
        self.mask = (1 << bits) - 1
        self.ones = ((1 << bits * width) - 1) // self.mask
        self.low = self.ones * ((1 << (e - 1)) - 1)
        self.poly = fld.encode(fld.modulus[:-1])
        self.lanes = struct.Struct(f"<{width}H")  # 16-bit lanes

    def pack(self, row) -> int:
        if self.bits == 8:
            return int.from_bytes(bytes(row), "little")
        return int.from_bytes(self.lanes.pack(*row), "little")

    def entries(self, v: int):
        """The entries of a row, as bytes for 8-bit lanes and a tuple for
        16-bit lanes."""
        if self.bits == 8:
            return v.to_bytes(self.width, "little")
        return self.lanes.unpack(v.to_bytes(2 * self.width, "little"))

    def unpack(self, v: int) -> list:
        return list(self.entries(v))

    def eliminate(self, v: int, rows) -> list:
        """Each row minus the multiple of v that clears its entry at v's
        first nonzero column: one XOR of a product of v per row."""
        col = self.lead(v)
        minus, shift, mask = self.pivot_multiples(v, col), col * self.bits, \
            self.mask
        return [u ^ minus[u >> shift & mask] for u in rows]

    def insert(self, basis: dict, v: int) -> int:
        """Reduce v against the basis (see _Packing), keeping for each basis
        row its images x^k * row, k < e, with the lead and v's entry there
        read inline: a step XORs in the images over the bits of that entry.

        A pivot keeps e rows, not the products of pivot_multiples, as every
        later row may still need it: with the products, rref of the
        512 x 1024 build_code matrix of (2,1,10,1) at s = 511 (over
        F_1024) peaked at 196 MB against 26 MB, and of the 363 x 1024 one
        of (2,2,3,21) at s = 512 (over F_64) at 28 MB against 5.6 MB, in
        0.73 s against 0.75 s and 43 ms against 29 ms (CPython 3.11.7,
        2 vCPUs).
        """
        bits, mask = self.bits, self.mask
        while v:
            col = ((v & -v).bit_length() - 1) // bits
            images = basis.get(col)
            if images is None:
                basis[col] = self._images(self.monic(v))
                return 1
            c = v >> col * bits & mask
            for image in images:
                if c & 1:
                    v ^= image
                c >>= 1
        return 0

    # The row insert keeps: the first of its images.
    pivot_row = staticmethod(itemgetter(0))

    def _images(self, v: int) -> list:
        """The rows x^k * v for k < e."""
        low, ones, poly, top = self.low, self.ones, self.poly, self.e - 1
        images = [v]
        for _ in range(top):
            v = ((v & low) << 1) ^ ((v >> top & ones) * poly)
            images.append(v)
        return images

    def back_substitute(self, echelon: list, pivots: list) -> None:
        """As _Packing.back_substitute, with one in-place XOR per entry
        cleared.  With the calls to add, reduce and key there, build_code
        on the five F_16 and F_64 instances of the subcode benchmark took
        19.8-22.0 ms in all against 17.6-19.5 ms, and the oracles of its
        F_16 -> F_4 and F_64 -> F_8 instances 7.5-8.3 ms against 6.9-7.7 ms
        (medians of 15 in three runs, CPython 3.11.7, 2 vCPUs)."""
        later = list(map(self.entries, echelon))
        for j in range(len(echelon) - 1, 0, -1):
            times, col = self.multiples(echelon[j]), pivots[j]
            for i in range(j):
                c = later[i][col]
                if c:
                    echelon[i] ^= times[c]

    def scale(self, c: int, v: int) -> int:
        """The row c * v: the XOR of the images x^k * v over the bits k of
        c, with no map of the other products."""
        w = v if c & 1 else 0
        if c > 1:
            low, ones, poly, top = self.low, self.ones, self.poly, self.e - 1
            while c := c >> 1:
                v = ((v & low) << 1) ^ ((v >> top & ones) * poly)
                if c & 1:
                    w ^= v
        return w

    def multiples(self, v: int, a: int = 1):
        """The map key(c) -> c * a * v.

        For e <= 8, the list of all 2^e products.  Built whole at every such
        order: over F_16 to F_256 this made rref of curve matrices 1.5-2.0
        times faster than products built on first use, and the parity
        search of short random codes, which uses few products of each
        pivot, within 5% of it or faster (CPython 3.11.7, 2 vCPUs).

        For e >= 9, each product is built on first use, as the XOR of the
        images x^k * v over the bits k of the field product c * a.  An
        image is built when a product first needs it and kept for the
        next, so a pivot asked for one product pays what scale does.  Whole
        tables of 2^e products took the parity search of a random [12, 3]
        code from 16 ms to 5.7 s over F_{2^16}; all e images with the first
        product took it 17 ms against 11 ms this way.  Two half tables
        (256 + 2^(e-8) products per pivot) took it 55 ms over F_512
        against 24 ms with all images, though build_code on the n = 1024
        curve (2,1,10,1) at s = 511 took 0.75 s with them against 0.87 s
        (CPython 3.11.7, 2 vCPUs).
        """
        if self.bits == 16:
            return _OnFirstUse(partial(self._product, [v], a))
        if a != 1:
            v = self.scale(a, v)
        times = [0]
        for image in self._images(v):
            times += [w ^ image for w in times]
        return times

    def _product(self, images: list, a: int, c: int) -> int:
        """c * a * v, for images holding x^k * v for k = 0 .. K - 1: the
        images that c * a needs past those are added to the list first."""
        c, w = self.fld.mul(c, a), 0
        while c >> len(images):  # x times the last image
            images.append(self.scale(2, images[-1]))
        for image in images:
            if c & 1:
                w ^= image
            c >>= 1
        return w

    def monic(self, v: int) -> int:
        """A nonzero row scaled so that its first nonzero entry is 1."""
        return self.scale(
            self.fld.inv(v >> self.lead(v) * self.bits & self.mask), v)

    def pivot_multiples(self, v: int, col: int):
        """The map key(c) -> -c * v / v[col], for a row v nonzero at col;
        here -c = c."""
        lead = v >> col * self.bits & self.mask
        return self.multiples(v, 1 if lead == 1 else self.fld.inv(lead))

    def weights(self, s: int, words):
        """The weight of s + t for each word t: n minus its zero lanes.  A
        16-bit lane is zero when the OR of its two bytes is."""
        n = self.width
        if self.bits == 8:
            return map(n.__sub__, map(bytes.count, map(
                int.to_bytes, map(s.__xor__, words), repeat(n),
                repeat("little")), repeat(0)))
        return (n - (w | w >> 8).to_bytes(2 * n, "little")[::2].count(0)
                for w in map(s.__xor__, words))


@lru_cache(maxsize=None)
def _digit_tables(fld: FiniteField) -> tuple:
    """Tables for DigitLanes over fld = F_{p^e}: times[c] maps a byte b to
    c * b mod p (so times[1] reduces a lane).  Over fields of order at most
    256, digits[i] maps an element to its digit i and places[i] maps a
    digit d to d * p^i.  The other maps are built on first use, so a large
    field pays only for the elements it meets: lanes maps an element to its
    e digits as bytes, keys maps an element to the int of those bytes and
    elements maps it back, scales maps the key of each nonzero c to the
    key of -1/c, and inverses to the key of 1/c."""
    p, e, q = fld.p, fld.e, fld.order
    times = [bytes(c * b % p for b in range(256)) for c in range(p)]
    digits = [bytes(b // p ** i % p if b < q else 0 for b in range(256))
              for i in range(e)] if q <= 256 else None
    places = [bytes(b * p ** i if b < p else 0 for b in range(256))
              for i in range(e)] if q <= 256 else None
    lanes = _OnFirstUse(lambda c: bytes(fld.coeffs(c)))
    keys = _OnFirstUse(lambda c: int.from_bytes(lanes[c], "little"))
    elements = _OnFirstUse(lambda key: fld.encode(key.to_bytes(e, "little")))
    scales = _OnFirstUse(lambda key: keys[fld.neg(fld.inv(elements[key]))])
    inverses = _OnFirstUse(lambda key: keys[fld.inv(elements[key])])
    return times, digits, places, lanes, elements, keys, scales, inverses


class DigitLanes(_Packing):
    """Rows of a fixed width over F_{p^e}, p odd and p <= 127, packed one
    byte lane per F_p digit.

    Entry j with digits a_0 ... a_{e-1} (the element sum a_i p^i) sits in
    lanes j*e ... j*e + e - 1 of one int; its key is the int of those e
    lanes.  Rows are kept reduced, every lane below p.  Adding two reduced
    rows as integers leaves every lane at most 2(p - 1) <= 252, and one
    bytes.translate takes every lane mod p, so subtracting c * pivot is
    adding the reduced multiple -c * pivot and reducing once.  Multiplying
    every entry by the generator x moves each digit up one lane inside its
    entry and adds the top digit times the negated low coefficients of the
    modulus; c * row is the sum of the lanewise products c_k * (x^k * row)
    over the digits c_k of c.  Every field of order up to 2^16 with
    p <= 127 has e(p - 1) <= 252, so such a sum of e reduced products, and
    the digit sums that weights reads, stay within a lane.

    Back substitution groups its additions by digit: all the rows a row
    needs d times are added as integers first, reduced once every
    span + 1 of them, and multiplied by d once (back_substitute).

    A word of a codeword sum is added as integers without reducing, each
    lane staying congruent to its digit mod p, and is reduced before an
    addition could take a lane past 255.
    """

    add = staticmethod(int.__add__)

    def __init__(self, fld: FiniteField, width: int):
        super().__init__(fld, width)
        p, e = fld.p, fld.e
        self.e = e
        self.nbytes = width * e
        self.bits = 8 * e  # per entry
        self.mask = (1 << self.bits) - 1
        self.minus_one = p - 1
        self.times, self.digits, self.places, self.lanes, self.elements, \
            self.keys, self.scales, self.inverses = _digit_tables(fld)
        self.key = self.keys.__getitem__
        self.mod = self.times[1]
        # A reduced row takes this many additions of reduced rows before a
        # lane could pass 255.
        self.span = 255 // (p - 1) - 1
        # Times the reduced lanes, lane j*e + e - 1 holds the sum of entry
        # j's digits, at most e(p - 1) < 256.
        self.digit_sum = int.from_bytes(b"\x01" * e, "little")
        if e > 1:
            self.low = int.from_bytes(
                (b"\xff" * (e - 1) + b"\x00") * width, "little")
            self.top = int.from_bytes(
                (b"\xff" + b"\x00" * (e - 1)) * width, "little")
            minus = [-m % p for m in fld.modulus[:-1]]
            self.poly = int.from_bytes(bytes(minus), "little")
            # Where a digit times a coefficient can pass 255 (_times_x).
            self.terms = [(8 * i, m) for i, m in enumerate(minus) if m] \
                if p * (p - 1) > 255 else None

    def pack(self, row) -> int:
        if self.e == 1:
            return int.from_bytes(bytes(row), "little")
        if self.digits is None:
            return int.from_bytes(b"".join(map(self.lanes.__getitem__, row)),
                                  "little")
        row = bytes(row)
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
        if self.digits is None:
            return [self.elements[int.from_bytes(lanes[i:i + e], "little")]
                    for i in range(0, self.nbytes, e)]
        total = int.from_bytes(lanes[::e], "little")
        for i in range(1, e):
            total += int.from_bytes(lanes[i::e].translate(self.places[i]),
                                    "little")
        return list(total.to_bytes(self.width, "little"))

    def reduce(self, v: int) -> int:
        """Every lane taken mod p."""
        return int.from_bytes(
            v.to_bytes(self.nbytes, "little").translate(self.mod), "little")

    def eliminate(self, v: int, rows) -> list:
        """Each row minus the multiple of v that clears its entry at v's
        first nonzero column: the reduced multiple added as integers and
        reduced with one translate, for the rows nonzero there."""
        col = self.lead(v)
        minus, shift, mask, nbytes, mod = self.pivot_multiples(v, col), \
            col * self.bits, self.mask, self.nbytes, self.mod
        return [int.from_bytes((u + minus[c]).to_bytes(nbytes, "little")
                               .translate(mod), "little")
                if (c := u >> shift & mask) else u for u in rows]

    def insert(self, basis: dict, v: int) -> int:
        """Reduce v against the basis (see _Packing), keeping the map
        pivot_multiples gives for each basis row, with the lead and the key
        of v's entry there read inline: a step adds the pivot's reduced
        multiple as integers and reduces with one translate."""
        bits, mask, nbytes, mod = self.bits, self.mask, self.nbytes, self.mod
        while v:
            col = ((v & -v).bit_length() - 1) // bits
            minus = basis.get(col)
            if minus is None:
                basis[col] = self.pivot_multiples(v, col)
                return 1
            v = int.from_bytes((v + minus[v >> col * bits & mask]).to_bytes(
                nbytes, "little").translate(mod), "little")
        return 0

    def _times_x(self, v: int, bound: int) -> tuple:
        """x * v and a bound on its lanes, for a row v whose lanes are at
        most bound and congruent to its digits mod p.

        A step takes lanes of at most B to lanes of at most pB: a digit
        moved up plus the top digit times a coefficient below p.  So v is
        reduced first only when pB could pass 255.  For p >= 17 a digit
        times a coefficient can pass 255 by itself: v is reduced, the top
        digits times each nonzero coefficient of the negated modulus are
        one translate through times each, and x * v is reduced.
        """
        p, shift = self.fld.p, self.bits - 8
        if self.terms is None:
            if bound * p > 255:
                v, bound = self.reduce(v), p - 1
            return ((v & self.low) << 8) + \
                (v >> shift & self.top) * self.poly, bound * p
        if bound >= p:
            v = self.reduce(v)
        high = (v >> shift & self.top).to_bytes(self.nbytes, "little")
        v = (v & self.low) << 8
        for lane, m in self.terms:
            v += int.from_bytes(high.translate(self.times[m]), "little") \
                << lane
        return self.reduce(v), p - 1

    def _images(self, v: int) -> list:
        """The rows x^k * v for k < e of a reduced row v, every lane at
        most 255 and congruent to its digit mod p (_times_x).  Over fields
        of order at most 256 none is reduced: (p - 1) p^k < p^e <= 256."""
        images, bound = [v], self.fld.p - 1
        for _ in range(self.e - 1):
            v, bound = self._times_x(v, bound)
            images.append(v)
        return images

    def _sum(self, terms: list) -> int:
        """A word congruent to the sum of the reduced rows in terms, every
        lane at most 255: span + 1 of them are added at a time and reduced,
        until one such sum is left."""
        size = self.span + 1
        while len(terms) > size:
            terms = [self.reduce(sum(terms[a:a + size]))
                     for a in range(0, len(terms), size)]
        return sum(terms)

    def back_substitute(self, echelon: list, pivots: list) -> None:
        """As _Packing.back_substitute, one row at a time from the bottom,
        with one grouped sum per row.

        Row i becomes R_i - sum_j c_ij P_j over the finished rows P_j below
        it, c_ij being its entry at P_j's pivot.  Each digit d_k of -c_ij
        contributes d_k times the reduced image x^k * P_j, so the images
        with the same digit d are added as integers (reduced once every
        span + 1 of them) and the sum is multiplied by d with one
        translate(times[d]): per row, one translate per digit value that
        occurs, in place of one product and one reduction per entry
        cleared.  The images of each pivot row are reduced once.
        """
        e, nbytes, times = self.e, self.nbytes, self.times
        negate = times[-1]
        at, images = [], []  # lane of each pivot digit below, its image
        for i in range(len(echelon) - 1, -1, -1):
            v = echelon[i]
            if at:
                minus = v.to_bytes(nbytes, "little").translate(negate)
                groups = defaultdict(list)
                for d, w in zip(map(minus.__getitem__, at), images):
                    if d:
                        groups[d].append(w)
                if groups:
                    v = echelon[i] = self.reduce(self._sum([v] + [
                        int.from_bytes(self._sum(group).to_bytes(
                            nbytes, "little").translate(times[d]), "little")
                        for d, group in groups.items()]))
            if i:
                lane = pivots[i] * e
                at.extend(range(lane, lane + e))
                images.append(v)
                images.extend(map(self.reduce, self._images(v)[1:]))

    def multiples(self, v: int, a: int = 0) -> _OnFirstUse:
        """The map key(c) -> c * v, or c * a * v for the key a of a nonzero
        scalar, each product built on use as the sum of translate(times[c_k])
        over the images x^k * a * v, one per nonzero digit c_k of c.  a * v
        (by _scaled) and its images are built with the first product: the
        parity search asks a pivot for no product more often than not.
        Every product by _scaled instead took build_code on (3,1,6,1) at
        s = 364 (over F_729) 2.4 s against 2.0 s, and on (3,2,3,1) 1.35 s
        against 1.1 s (CPython 3.11.7, 2 vCPUs).

        Over fields of order at most 256 the map keeps each product, at
        most q - 1 of them.  Above, it keeps only the images, as insert
        keeps the map of every pivot for all later rows: with each product
        kept, rref of the 365 x 729 build_code matrices of those two
        curves peaked at 125 and 68 MB against 21 MB, and took 2.0 and
        1.66 s against 1.98 and 1.24 s.  Over F_9 a dense 150 x 300 rref
        took 70 ms with the images only, against 45 ms."""
        images, times = [], self.times

        def product(c):
            if not images:
                images.extend([w.to_bytes(self.nbytes, "little") for w in
                               self._images(self._scaled(a, v) if a else v)])
            w = terms = 0
            for image in images:
                if d := c & 255:
                    w += int.from_bytes(image.translate(times[d]), "little")
                    terms += 1
                c >>= 8
            return self.reduce(w) if terms > 1 else w
        return (_OnEachUse if self.digits is None else _OnFirstUse)(product)

    def _scaled(self, c: int, v: int) -> int:
        """c * v for the key c of a nonzero scalar, by Horner's rule in x,
        c * v = (...(c_{e-1} v) x + c_{e-2} v) x + ... + c_0 v, with one
        translate per digit value of c: one translate for c in F_p.  For
        the one product that monic and a pivot's scaling want, of a row of
        9 entries, the images of v and a sum over them took 6.4 and 10.8 us
        over F_729 and F_{3^10}, this rule 4.2 and 7.5 us (CPython 3.11.7,
        2 vCPUs)."""
        p, lanes = self.fld.p, v.to_bytes(self.nbytes, "little")
        if c < 256:  # c in F_p multiplies every digit alike
            return int.from_bytes(lanes.translate(self.times[c]), "little")
        scaled = {}  # d -> d * v
        w = bound = 0
        for d in reversed(c.to_bytes(self.e, "little")):
            if bound:
                w, bound = self._times_x(w, bound)
            if d:
                if d not in scaled:
                    scaled[d] = int.from_bytes(
                        lanes.translate(self.times[d]), "little")
                w += scaled[d]
                bound += p - 1
        return self.reduce(w) if bound >= p else w

    def monic(self, v: int) -> int:
        """A nonzero row scaled so that its first nonzero entry is 1."""
        return self._scaled(
            self.inverses[v >> self.lead(v) * self.bits & self.mask], v)

    def pivot_multiples(self, v: int, col: int) -> _OnFirstUse:
        """The map key(c) -> -c * v / v[col], for a row v nonzero at col."""
        return self.multiples(v, self.scales[v >> col * self.bits & self.mask])

    def weights(self, s: int, words):
        """The weight of s + t for each word t: n minus the entries whose e
        reduced digits are all zero."""
        n = self.width
        if self.e == 1:
            return map(n.__sub__, map(bytes.count, map(bytes.translate, map(
                int.to_bytes, map(s.__add__, words), repeat(n),
                repeat("little")), repeat(self.mod)), repeat(0)))
        e, nbytes, mod = self.e, self.nbytes, self.mod
        return (n - (int.from_bytes((s + t).to_bytes(nbytes, "little")
                                    .translate(mod), "little") *
                     self.digit_sum).to_bytes(nbytes + e - 1, "little")
                [e - 1::e].count(0) for t in words)


def row_packing(fld: FiniteField, width: int) -> _Packing:
    """How rows of the given width over fld are packed for elimination and
    codeword sums: BitRows over F_2, LaneRows over F_4 ... F_{2^16}, and
    DigitLanes over odd fields with p <= 127.  Above that, a lane holding
    two reduced digits could pass 255, and there is no packing."""
    if fld.p > 127:
        raise FieldError(f"characteristic {fld.p} is above 127: its rows "
                         "have no packing")
    if fld.order == 2:
        return BitRows(fld, width)
    return LaneRows(fld, width) if fld.p == 2 else DigitLanes(fld, width)


def shift_fold(packing: _Packing, v: int, up: int, down: int) -> int:
    """The row v moved up `up` entries, with the entries pushed past the
    width moved back down `down` entries and added to what is there.

    For a row whose entry at lane i * m + j is the coefficient of X^i Y^j,
    i <= P, in a width of (P + 1) m lanes, up = a m and down = P m give X^a
    times it with X^{P+1} = X, for 0 <= a <= P.  Then up <= down, so every
    moved entry lands below the width, and each lane gets at most two
    reduced entries, which every packing adds without overflow.  In
    characteristic 2 (span None) adding is XOR and reduce the identity,
    so both are done inline.
    """
    cut = packing.width * packing.bits
    w = v << up * packing.bits
    high = w >> cut
    if packing.span is None:
        return w ^ high << cut ^ high << (cut - down * packing.bits)
    return packing.reduce(packing.add(w ^ (high << cut),
                                      high << (cut - down * packing.bits)))


def row_type(fld: FiniteField) -> type:
    """How finished rows over fld are stored: `bytes` when every entry fits
    a byte (order at most 256), else `tuple`.  A bytes row takes one byte
    per entry, a tuple eight plus the ints it points to."""
    return bytes if fld.order <= 256 else tuple


def entrywise(fld: FiniteField, f):
    """The map that takes a finished row over fld (row_type) to the row of
    the same type with each entry x replaced by f(x): one bytes.translate
    through the 256-byte table of f for bytes rows, one call of f per entry
    for tuples.  For bytes rows, every f(x) must fit a byte."""
    if row_type(fld) is tuple:
        return lambda row: tuple(map(f, row))
    table = bytes(map(f, fld.elements())).ljust(256, b"\0")
    return lambda row: row.translate(table)


def rref(rows, fld: FiniteField, start: int = 0):
    """Reduced row-echelon form. Returns (nonzero rows, pivot columns).

    The rows are packed as row_packing gives and inserted one at a time
    into an echelon basis (packing.insert), then substituted back.

    With start > 0 the result is the reduced echelon basis of the vectors
    of the row space that vanish before column start, restricted to the
    columns from start on, with its pivots counted from start: the rows of
    the full form whose pivot is at least start, without their first start
    entries.  Those rows are zero before start, and back substitution
    among them reads only their own pivots, so it runs on them alone,
    shifted down to the block.
    """
    rows = list(rows)
    if not rows:
        return [], []
    if not 0 <= start <= len(rows[0]):
        raise ValueError(f"start {start} is outside 0 .. {len(rows[0])}")
    packing = row_packing(fld, len(rows[0]))
    basis = {}
    for v in map(packing.pack, rows):
        packing.insert(basis, v)
    pivots = sorted(basis)
    cut, shift = bisect_left(pivots, start), start * packing.bits
    echelon = [packing.pivot_row(basis[col]) >> shift for col in pivots[cut:]]
    pivots = [col - start for col in pivots[cut:]]
    if start:
        packing = row_packing(fld, packing.width - start)
    packing.back_substitute(echelon, pivots)
    return [packing.unpack(v) for v in echelon], pivots


def rank(rows, fld: FiniteField) -> int:
    """The rank of the rows: the rows that packing.insert takes, with no
    back substitution."""
    rows = list(rows)
    if not rows:
        return 0
    packing = row_packing(fld, len(rows[0]))
    return sum(map(partial(packing.insert, {}), map(packing.pack, rows)))


@dataclasses.dataclass(frozen=True)
class LinearCode:
    """A linear code given by its generator matrix in canonical RREF.

    The rows are stored as row_type(field) gives, whatever sequences they
    were given as.  Construction raises ValueError unless every row has
    length n, the leading columns (`pivots`) strictly increase, and each row
    is 1 at its own leading column and 0 at every other row's.
    row_space_basis brings arbitrary rows to this form.
    """

    field: FiniteField
    n: int
    generators: tuple  # rows in reduced row-echelon form
    pivots: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(map(row_type(self.field), self.generators))
        object.__setattr__(self, "generators", rows)
        n, pivots = self.n, []
        for row in rows:
            if len(row) != n:
                raise ValueError(f"a generator has length {len(row)}, not {n}")
            col = n - len(row.lstrip(b"\0")) if isinstance(row, bytes) \
                else next((j for j, v in enumerate(row) if v), n)
            if col == n or row[col] != 1:
                raise ValueError("a generator does not lead with 1")
            if pivots and col <= pivots[-1]:
                raise ValueError("the leading columns do not increase")
            pivots.append(col)
        if len(pivots) > 1:
            pick = itemgetter(*pivots)
            if any(pick(row).count(0) != len(rows) - 1 for row in rows):
                raise ValueError("a generator is nonzero at the leading "
                                 "column of another")
        object.__setattr__(self, "pivots", tuple(pivots))

    @property
    def k(self) -> int:
        return len(self.generators)

    def codeword(self, message) -> tuple:
        """Encode a message vector (length k) into a codeword: the sum of
        the generators weighted by its entries, added as row_packing
        packs them."""
        packing = row_packing(self.field, self.n)
        total = 0
        for c, row in zip(message, self.generators):
            if c:
                total = packing.reduce(packing.add(
                    total, packing.scale(c, packing.pack(row))))
        return tuple(packing.unpack(total))

    def contains(self, word) -> bool:
        """Whether word is a codeword.  The generators are the identity on
        the pivots, so the only codeword that can equal word is the one
        whose message is word's entries at the pivots."""
        word = tuple(word)
        return len(word) == self.n and \
            self.codeword([word[j] for j in self.pivots]) == word


def row_space_basis(rows, fld: FiniteField, n: int) -> LinearCode:
    """The canonical code of length n spanned by the given rows, which
    may be `bytes` (rref packs them as they are) or any other sequences."""
    rows = [r if isinstance(r, bytes) else list(r) for r in rows]
    if n <= 0:
        raise ValueError("code length must be positive")
    if any(len(r) != n for r in rows):
        raise ValueError("rows have mismatched lengths")
    return LinearCode(fld, n, rref(rows, fld)[0])


def null_space(rows, fld: FiniteField, n: int) -> LinearCode:
    """The code of the vectors of length n orthogonal to every row.

    The rows are eliminated once with their columns reversed.  Read in the
    original order, that gives rows h_p whose last nonzero entry is a 1 at
    p, for p in a set R, and that are 0 at R's other members.  A vector x
    is orthogonal to them all exactly when x_p = -sum_f h_p[f] x_f for each
    p in R, the sum over the f outside R, so the null space is spanned by
    g_f = e_f - sum_p h_p[f] e_p for f outside R.  h_p[f] is nonzero only
    for f < p, so g_f leads with its 1 at f and is 0 at the other f's:
    these rows are the reduced echelon basis as they are.  They are read
    as the rows f of an n x n buffer whose column p is -h_p, written with
    one slice assignment per p, and whose diagonal is 1.  Read so, the
    [128, 107] binary subcode of (2,1,4,15) at s = 189 took 0.45 ms
    from the echelon form, against 0.92 ms for a transposition by zip
    (CPython 3.11.7, 2 vCPUs).
    """
    rows = [row[::-1] for row in rows]
    if any(len(row) != n for row in rows):
        raise ValueError(f"a row does not have length {n}")
    echelon, pivots = rref(rows, fld)
    kind, negate = row_type(fld), entrywise(fld, fld.neg)
    words = bytearray(n * n) if kind is bytes else [0] * (n * n)
    for p, row in zip(pivots, echelon):
        words[n - 1 - p::n] = negate(kind(row[::-1]))
    words[::n + 1] = [1] * n
    outside = sorted(set(range(n)).difference(n - 1 - p for p in pivots))
    return LinearCode(fld, n, [words[f * n:(f + 1) * n] for f in outside])


def kernel(code: LinearCode) -> LinearCode:
    """The dual code: all vectors orthogonal to every generator."""
    return null_space(code.generators, code.field, code.n)


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
                acc = [fld.sub(a, fld.mul(x, b)) for a, b in zip(acc, col)]
        if any(acc):
            return False
    return True
