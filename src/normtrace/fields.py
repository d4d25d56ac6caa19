"""Exact arithmetic in F_{p^e}, subfield embeddings, trace maps and Frobenius powers.

Elements of F_{p^e} are plain Python ints in [0, p^e) encoding the
polynomial-basis coefficient vector (a_0, ..., a_{e-1}) as sum(a_i * p^i).
All arithmetic goes through a FiniteField instance.  Orders are capped at
2^16 (MAX_FIELD_ORDER), which every norm-trace code of length up to 1024
stays far below, and every field has exp/log tables, built with it:
multiplication, inversion and powers are table reads.  The modulus is the
smallest irreducible one by the integer encoding of its lower
coefficients.  The exp table holds the powers of a generator g of the
units, x, the polynomial-basis element, when it generates them, else the
smallest one, stepped by the F_p-linear map "times g".  `powers` reads a
run of powers of one element off the exp table, and `power_list` one
power of every element.  Every field under the cap builds, whatever its
characteristic; linalg packs the rows of those with p <= 127 for
elimination, and raises FieldError for the others (linalg.row_packing).

A SubfieldEmbedding of F_t in F_{t^m} is one pair of tables, built with it:
the image of each element of F_t, and each coordinate of each element of
F_{t^m} over F_t.  embed, decompose, project and recompose read them, and
the subfield oracle maps whole rows through them with linalg.entrywise.
subfield_degree decides which orders t are subfield orders, raising
FieldError for the others.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import chain, product
from operator import mul, xor

MAX_FIELD_ORDER = 1 << 16


class FieldError(ValueError):
    """Invalid field construction or mismatched field operands."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


# -- polynomial helpers over F_p (coefficient lists, low degree first) --


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        c = a[-1] * inv_lead % p
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        _poly_trim(a)
    return a


def _poly_powmod(a, n, m, p):
    result = [1]
    a = _poly_mod(a, m, p)
    while n:
        if n & 1:
            result = _poly_mod(_poly_mul(result, a, p), m, p)
        a = _poly_mod(_poly_mul(a, a, p), m, p)
        n >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a = _poly_mod(a, b, p)
        a, b = b, a
    return a


def _has_root(poly, p):
    """Whether the polynomial (coefficients from the constant up) vanishes
    at some element of F_p."""
    if not poly[0]:
        return True
    for x in range(1, p):
        value = 0
        for c in reversed(poly):
            value = (value * x + c) % p
        if not value:
            return True
    return False


def _is_irreducible(poly, p):
    """Check irreducibility of a monic polynomial over F_p.

    Uses the standard criterion: x^{p^e} = x mod f, and for each prime
    divisor d of e, gcd(x^{p^{e/d}} - x, f) = 1.
    """
    e = len(poly) - 1
    if e < 1:
        return False

    def poly_sub(a, b):
        n = max(len(a), len(b))
        a = a + [0] * (n - len(a))
        b = b + [0] * (n - len(b))
        return _poly_trim([(x - y) % p for x, y in zip(a, b)])

    x = [0, 1]
    x_red = _poly_mod(x, poly, p)
    xpe = _poly_powmod(x, p**e, poly, p)
    if poly_sub(xpe, x_red):
        return False
    for d in _prime_factors(e):
        xpk = _poly_powmod(x, p ** (e // d), poly, p)
        g = _poly_gcd(list(poly), poly_sub(xpk, x_red), p)
        if len(g) > 1:
            return False
    return True


class FiniteField:
    """A concrete finite field F_{p^e} with integer-encoded elements.

    Immutable after construction; all operations are pure, so instances are
    safe to share across threads.  Use :func:`make_field` to get the
    canonical instance for given (p, e).
    """

    def __init__(self, p: int, e: int):
        if e < 1:
            raise FieldError(f"extension degree must be >= 1, got {e}")
        # Before the primality test, which takes about sqrt(p) steps, and
        # p**e, which takes about e digits: p^e >= 2^e for p >= 2.
        if p > MAX_FIELD_ORDER or (p > 1 and
                                   e >= MAX_FIELD_ORDER.bit_length()):
            raise FieldError(
                f"field order {p}^{e} exceeds cap {MAX_FIELD_ORDER}")
        if not _is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        order = p**e
        if order > MAX_FIELD_ORDER:
            raise FieldError(
                f"field order {order} exceeds cap {MAX_FIELD_ORDER}")
        self.p = p
        self.e = e
        self.order = order
        self.modulus = self._find_modulus(p, e)
        self._build_tables()

    @staticmethod
    def _find_modulus(p, e):
        # Smallest irreducible monic degree-e polynomial, ordered by the
        # integer encoding of its non-leading coefficients: x for e = 1.
        # Above degree 1, a candidate with a root in F_p has a linear
        # factor and is passed over before the irreducibility test, and
        # one of degree 2 or 3 without a root has no factor at all.
        if e == 1:
            return 0, 1
        for enc in range(p**e):
            coeffs = []
            v = enc
            for _ in range(e):
                coeffs.append(v % p)
                v //= p
            poly = coeffs + [1]
            if not _has_root(poly, p) and (e <= 3 or
                                           _is_irreducible(poly, p)):
                return tuple(poly)
        raise FieldError(f"no irreducible polynomial of degree {e} over F_{p}")

    # -- encoding --

    def coeffs(self, a: int):
        """Polynomial-basis coefficients (a_0, ..., a_{e-1}) of an element."""
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def encode(self, coeffs) -> int:
        v = 0
        for c in reversed(list(coeffs)):
            v = v * self.p + c % self.p
        return v

    def check(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise FieldError(f"{a} is not an element of {self}")
        return a

    # -- arithmetic --

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += (a % p + b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        out = 0
        mult = 1
        for _ in range(self.e):
            out += (-a % p) % p * mult
            a //= p
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_poly(self, a: int, b: int) -> int:
        prod = _poly_mul(self.coeffs(a), self.coeffs(b), self.p)
        return self.encode(_poly_mod(prod, list(self.modulus), self.p) +
                           [0] * self.e)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if a == 0:
            return 0 if n else 1
        return self._exp[self._log[a] * n % (self.order - 1)]

    def powers(self, a: int, count: int) -> list:
        """[a^0, a^1, ..., a^{count-1}], read from the exp table at the
        exponents i log(a)."""
        if a == 0:
            return [1] + [0] * (count - 1) if count else []
        exp, period, step = self._exp, self.order - 1, self._log[a]
        return [exp[i * step % period] for i in range(count)]

    def power_list(self, n: int) -> list:
        """[a^n for every element a], for n >= 0, read from the exp table
        at the exponents n log(a)."""
        exp, period = self._exp, self.order - 1
        return [int(not n)] + [exp[i * n % period] for i in self._log[1:]]

    def elements(self):
        return range(self.order)

    # -- discrete-log tables --

    def _build_tables(self):
        """exp[i] = g^i and log[g^i] = i for a generator g of the units:
        x, the polynomial-basis element, when it generates them, else the
        smallest generator, each candidate tested with _poly_powmod.  exp
        is stepped by the F_p-linear map "times g" (_powers).  The tables
        differ with g, but mul, inv and pow do not.
        """
        p, target, modulus = self.p, self.order - 1, list(self.modulus)
        factors = _prime_factors(target) if target > 1 else []
        candidates = range(1, self.order)
        for g in chain([p], candidates) if self.e > 1 else candidates:
            if all(_poly_powmod(self.coeffs(g), target // f, modulus, p)
                   != [1] for f in factors):
                break
        exp = self._powers(g)
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        self._exp = exp
        self._log = log

    def _powers(self, g):
        """[g^0, ..., g^(order-2)] for a generator g, stepped by the
        F_p-linear map "times g".  Its columns, the images x^k g of the
        basis, are stepped from g by "times x": every coefficient moves up
        one place, and the one that passes degree e - 1 comes back as minus
        itself times the modulus's lower coefficients.

        In characteristic 2 an element's encoding is its coefficient vector
        in bits, and times g is two table reads: the XOR sums of the images
        over the low half of the bits and over the high half.  Above it,
        the coefficients of a g are the dot products of a's coefficients
        with the rows of the map's matrix, taken mod p.
        """
        p, e, target = self.p, self.e, self.order - 1
        minus = [-c % p for c in self.modulus[:e]]
        images, coeffs = [], self.coeffs(g)
        for _ in range(e):
            images.append(coeffs)
            top = coeffs[-1]
            coeffs = [(c + top * m) % p
                      for c, m in zip([0] + coeffs[:-1], minus)]
        exp, acc = [], 1
        if p == 2:
            half = e // 2
            low, high = [0], [0]  # the XOR sums of the low and high images
            for v in map(self.encode, images[:half]):
                low += [w ^ v for w in low]
            for v in map(self.encode, images[half:]):
                high += [w ^ v for w in high]
            mask = (1 << half) - 1
            for _ in range(target):
                exp.append(acc)
                acc = low[acc & mask] ^ high[acc >> half]
            return exp
        rows = list(zip(*images))  # [i][k]: x^k g at x^i
        places = [p ** i for i in range(e)]
        coeffs = [1] + [0] * (e - 1)
        for _ in range(target):
            exp.append(sum(map(mul, coeffs, places)))
            coeffs = [sum(map(mul, coeffs, row)) % p for row in rows]
        return exp

    # -- structure --

    def frobenius(self, a: int, t: int) -> int:
        """The automorphism a -> a^t for a subfield order t."""
        self.subfield_degree(t)
        return self.pow(a, t)

    def subfield_degree(self, t: int) -> int:
        """The degree m with order = t^m, for a subfield order t."""
        m, tm = 0, 1
        while 1 < t and tm < self.order:
            tm *= t
            m += 1
        if tm != self.order:
            raise FieldError(f"{t} is not a subfield order of F_{self.order}")
        return m

    def trace_in_field(self, a: int, t: int) -> int:
        """Trace down to the t-element subfield, as an element of this field.

        Computes sum of a^{t^i} for 0 <= i < m where order = t^m.
        """
        return field_sum(self, (self.pow(a, t**i)
                                for i in range(self.subfield_degree(t))))

    def __repr__(self):
        return f"FiniteField(p={self.p}, e={self.e})"

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and (self.p, self.e) == (other.p, other.e))

    def __hash__(self):
        return hash((self.p, self.e))


def field_sum(fld: FiniteField, values) -> int:
    """The sum of the field elements in values."""
    if fld.p == 2:
        return reduce(xor, values, 0)
    total = 0
    for v in values:
        total = fld.add(total, v)
    return total


@lru_cache(maxsize=None)
def make_field(p: int, e: int) -> FiniteField:
    """Canonical F_{p^e} with the deterministic smallest-encoding modulus."""
    return FiniteField(p, e)


class SubfieldEmbedding:
    """The canonical embedding of F_t into F_{t^m}, as two tables.

    The image of the small field's polynomial-basis generator is the root of
    the small modulus in the big field with smallest integer encoding, and
    `images[a]` is the image of each small-field element a.  The
    decomposition basis of big over small is 1, g, ..., g^{m-1} for the big
    field's polynomial-basis generator g, which has degree m over F_t, and
    `components[c][x]` is coordinate c of each big-field element x.  Both
    tables are built with the embedding, and every map between the two
    fields reads them.  They hold t + m t^m entries, at most 2^20 below
    the 2^16 order cap.
    """

    def __init__(self, small: FiniteField, big: FiniteField):
        if small.p != big.p or big.e % small.e != 0 or big.e == 0:
            raise FieldError(f"{small} does not embed in {big}")
        self.small = small
        self.big = big
        self.m = big.e // small.e
        self.generator_image = self._find_root()
        powers = [big.pow(self.generator_image, k) for k in range(small.e)]
        self.images = tuple(
            field_sum(big, map(big.mul, small.coeffs(a), powers))
            for a in small.elements())
        g = min(big.p, big.order - 1)  # the polynomial-basis element "x"
        self.basis = tuple(big.pow(g, j) for j in range(self.m))
        terms = [[big.mul(img, b) for img in self.images] for b in self.basis]
        table = [None] * big.order
        for coords in product(small.elements(), repeat=self.m):
            x = field_sum(big, map(list.__getitem__, terms, coords))
            table[x] = coords
        # t^m tuples fill t^m slots: an empty slot means a collision.
        if None in table:
            raise FieldError(f"{self.basis} is not a basis of "
                             f"F_{big.order} over F_{small.order}")
        self.components = tuple(zip(*table))

    def _find_root(self):
        big = self.big
        for z in big.elements():
            if not field_sum(big, (big.mul(c, big.pow(z, k))
                                   for k, c in enumerate(self.small.modulus))):
                return z
        raise FieldError("no root of the small modulus found")  # unreachable

    def embed(self, a: int) -> int:
        return self.images[self.small.check(a)]

    # -- decomposition over the small field --

    def decompose(self, x: int):
        """Coordinates of x over the small field w.r.t. the chosen basis."""
        x = self.big.check(x)
        return [comp[x] for comp in self.components]

    def recompose(self, coords) -> int:
        big = self.big
        images = map(self.embed, coords)
        return field_sum(big, map(big.mul, images, self.basis))

    def project(self, x: int) -> int:
        """Pull an element of the embedded small field back to the small field."""
        x = self.big.check(x)
        if any(comp[x] for comp in self.components[1:]):
            raise FieldError(f"{x} is not in the embedded subfield")
        return self.components[0][x]

    def __repr__(self):
        return f"SubfieldEmbedding(F_{self.small.order} -> F_{self.big.order})"


@lru_cache(maxsize=None)
def embedding(small: FiniteField, big: FiniteField) -> SubfieldEmbedding:
    """Canonical cached embedding between two compatible fields."""
    return SubfieldEmbedding(small, big)


def subfield_of_order(field: FiniteField, t: int) -> FiniteField:
    """The canonical subfield of the given order, with validation."""
    return make_field(field.p, field.e // field.subfield_degree(t))


def trace_to(sub: FiniteField, field: FiniteField, x: int) -> int:
    """Trace of x down to the subfield, returned as a subfield element."""
    t = sub.order
    val = field.trace_in_field(x, t)
    return embedding(sub, field).project(val)
