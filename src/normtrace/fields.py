"""Exact arithmetic in F_{p^e}, subfield embeddings, trace maps and Frobenius powers.

Elements of F_{p^e} are plain Python ints in [0, p^e) encoding the
polynomial-basis coefficient vector (a_0, ..., a_{e-1}) as sum(a_i * p^i).
All arithmetic goes through a FiniteField instance; for orders up to 2^16
multiplication and inversion use precomputed exp/log tables, above that they
fall back to polynomial arithmetic modulo the field's irreducible modulus.
Row operations for the matrix kernels use full multiplication and
subtraction tables for orders up to 256, built on first use.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

MAX_FIELD_ORDER = 1 << 20
_TABLE_LIMIT = 1 << 16
ROW_TABLE_LIMIT = 256


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

    Immutable after construction apart from the row tables, which are built
    once on first use; all operations are pure, so instances are safe to
    share across threads.  Use :func:`make_field` to get the
    canonical instance for given (p, e).
    """

    def __init__(self, p: int, e: int, max_order: int = MAX_FIELD_ORDER):
        if not _is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if e < 1:
            raise FieldError(f"extension degree must be >= 1, got {e}")
        order = p**e
        if order > max_order:
            raise FieldError(f"field order {order} exceeds cap {max_order}")
        self.p = p
        self.e = e
        self.order = order
        self.modulus = self._find_modulus(p, e)
        self._exp = None
        self._log = None
        self._tables = None
        if order <= _TABLE_LIMIT:
            self._build_tables()

    @staticmethod
    def _find_modulus(p, e):
        # Smallest irreducible monic degree-e polynomial, ordered by the
        # integer encoding of its non-leading coefficients.
        for enc in range(p**e):
            coeffs = []
            v = enc
            for _ in range(e):
                coeffs.append(v % p)
                v //= p
            poly = coeffs + [1]
            if _is_irreducible(poly, p):
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
        if self._log is not None:
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return self._mul_poly(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self._log is not None:
            return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]
        return self.pow(a, self.order - 2)

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if a == 0:
            return 0 if n else 1
        if self._log is not None:
            return self._exp[self._log[a] * n % (self.order - 1)]
        result = 1
        while n:
            if n & 1:
                result = self._mul_poly(result, a)
            a = self._mul_poly(a, a)
            n >>= 1
        return result

    def elements(self):
        return range(self.order)

    # -- row arithmetic for the matrix kernels --

    def _row_tables(self):
        """(mul, sub) with mul[a][b] = a*b and sub[a][b] = a-b, or None above
        ROW_TABLE_LIMIT.  sub is None in characteristic 2, where a-b = a^b.
        """
        if self._tables is None and self.order <= ROW_TABLE_LIMIT:
            q = self.elements()
            mul = [[self.mul(a, b) for b in q] for a in q]
            sub = None if self.p == 2 else \
                [[self.sub(a, b) for b in q] for a in q]
            self._tables = (mul, sub)
        return self._tables

    def scale_row(self, c: int, row) -> list:
        """The row c * row."""
        tables = self._row_tables()
        if tables is None:
            return [self.mul(c, v) for v in row]
        mc = tables[0][c]
        return [mc[v] for v in row]

    def sub_scaled_row(self, row, c: int, other) -> list:
        """The row row - c * other."""
        tables = self._row_tables()
        if tables is None:
            return [self.sub(v, self.mul(c, w)) for v, w in zip(row, other)]
        mul, sub = tables
        mc = mul[c]
        if sub is None:
            return [v ^ mc[w] for v, w in zip(row, other)]
        return [sub[v][mc[w]] for v, w in zip(row, other)]

    # -- discrete-log tables --

    def _build_tables(self):
        target = self.order - 1
        factors = _prime_factors(target) if target > 1 else []
        for g in range(1, self.order):
            if all(self.pow(g, target // f) != 1 for f in factors):
                break
        exp = [0] * target
        log = [0] * self.order
        acc = 1
        for i in range(target):
            exp[i] = acc
            log[acc] = i
            acc = self._mul_poly(acc, g)
        self._exp = exp
        self._log = log

    # -- structure --

    def is_subfield_order(self, t: int) -> bool:
        """Whether F_t sits inside this field (t = p^d with d | e)."""
        if t < 2:
            return False
        d = 0
        while t % self.p == 0 and t > 1:
            t //= self.p
            d += 1
        return t == 1 and d >= 1 and self.e % d == 0

    def frobenius(self, a: int, t: int) -> int:
        """The automorphism a -> a^t for a subfield order t."""
        if not self.is_subfield_order(t):
            raise FieldError(f"{t} is not a subfield order of F_{self.order}")
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
        out = 0
        cur = a
        for _ in range(self.subfield_degree(t)):
            out = self.add(out, cur)
            cur = self.pow(cur, t)
        return out

    def __repr__(self):
        return f"FiniteField(p={self.p}, e={self.e})"

    def __eq__(self, other):
        return (isinstance(other, FiniteField)
                and (self.p, self.e) == (other.p, other.e))

    def __hash__(self):
        return hash((self.p, self.e))


@lru_cache(maxsize=None)
def make_field(p: int, e: int) -> FiniteField:
    """Canonical F_{p^e} with the deterministic smallest-encoding modulus."""
    return FiniteField(p, e)


class SubfieldEmbedding:
    """The canonical embedding of F_t into F_{t^m}.

    The image of the small field's polynomial-basis generator is the root of
    the small modulus in the big field with smallest integer encoding.  The
    decomposition basis of big over small is 1, g, ..., g^{m-1} for the big
    field's polynomial-basis generator g, which has degree m over F_t.
    """

    def __init__(self, small: FiniteField, big: FiniteField):
        if small.p != big.p or big.e % small.e != 0 or big.e == 0:
            raise FieldError(f"{small} does not embed in {big}")
        self.small = small
        self.big = big
        self.m = big.e // small.e
        self.generator_image = self._find_root()
        g = min(big.p, big.order - 1)  # the polynomial-basis element "x"
        self._basis = tuple(big.pow(g, j) for j in range(self.m))
        self._coordinates = None

    def _find_root(self):
        mod = self.small.modulus
        for z in range(self.big.order):
            acc = 0
            zp = 1
            for c in mod:
                if c:
                    acc = self.big.add(acc, self.big.mul(c, zp))
                zp = self.big.mul(zp, z)
            if acc == 0:
                return z
        raise FieldError("no root of the small modulus found")  # unreachable

    def embed(self, a: int) -> int:
        self.small.check(a)
        out = 0
        gp = 1
        for c in self.small.coeffs(a):
            if c:
                out = self.big.add(out, self.big.mul(c, gp))
            gp = self.big.mul(gp, self.generator_image)
        return out

    # -- decomposition over the small field --

    @property
    def basis(self):
        return list(self._basis)

    @property
    def coordinates(self):
        """Table from each big-field element to its coordinate tuple.

        Built once, on first use, by recomposing every tuple in F_t^m; the
        tuples are shared by every caller.
        """
        if self._coordinates is None:
            big = self.big
            images = [self.embed(c) for c in self.small.elements()]
            terms = [[big.mul(img, b) for img in images] for b in self._basis]
            table = [None] * big.order
            for coords in product(self.small.elements(), repeat=self.m):
                x = 0
                for term, c in zip(terms, coords):
                    x = big.add(x, term[c])
                table[x] = coords
            # t^m tuples fill t^m slots: an empty slot means a collision.
            if None in table:
                raise FieldError(f"{self._basis} is not a basis of "
                                 f"F_{big.order} over F_{self.small.order}")
            self._coordinates = table
        return self._coordinates

    def decompose(self, x: int):
        """Coordinates of x over the small field w.r.t. the chosen basis."""
        return list(self.coordinates[self.big.check(x)])

    def recompose(self, coords) -> int:
        out = 0
        for c, b in zip(coords, self._basis):
            out = self.big.add(out, self.big.mul(self.embed(c), b))
        return out

    def project(self, x: int) -> int:
        """Pull an element of the embedded small field back to the small field."""
        coords = self.coordinates[self.big.check(x)]
        if any(coords[1:]):
            raise FieldError(f"{x} is not in the embedded subfield")
        return coords[0]

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
