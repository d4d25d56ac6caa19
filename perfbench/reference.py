"""Finite-field arithmetic, curve points and code membership written apart
from normtrace, used only to check its outputs.

Elements are encoded the way normtrace documents its encoding: the integer
a_0 + a_1 p + ... + a_{e-1} p^{e-1} stands for a_0 + a_1 x + ... modulo the
monic irreducible polynomial of degree e whose non-leading coefficients,
read the same way, give the smallest integer.  F_t embeds in F_{t^m} by
sending x to the root of F_t's modulus with the smallest encoding.  Points of
x^u = Tr(y) are sorted by (x, y).  Nothing here imports normtrace.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb


def _digits(a: int, p: int, e: int) -> list:
    out = []
    for _ in range(e):
        out.append(a % p)
        a //= p
    return out


def _poly_rem(num: list, den: list, p: int) -> list:
    """Remainder of num by the monic polynomial den (lowest degree first)."""
    num = list(num)
    d = len(den) - 1
    for top in range(len(num) - 1, d - 1, -1):
        c = num[top]
        if c:
            for i in range(d + 1):
                num[top - d + i] = (num[top - d + i] - c * den[i]) % p
    return num[:d]


def _smallest_irreducible(p: int, e: int) -> list:
    for enc in range(p**e):
        poly = _digits(enc, p, e) + [1]
        if all(any(_poly_rem(poly, _digits(f, p, d) + [1], p))
               for d in range(1, e // 2 + 1) for f in range(p**d)):
            return poly
    raise ValueError(f"no irreducible polynomial of degree {e} over F_{p}")


class Field:
    """F_{p^e} by full addition, subtraction and multiplication tables."""

    def __init__(self, p: int, e: int):
        self.p, self.e, self.order = p, e, p**e
        self.modulus = _smallest_irreducible(p, e)
        digits = [_digits(a, p, e) for a in range(self.order)]
        encode = {tuple(d): a for a, d in enumerate(digits)}
        self.add = [[encode[tuple((x + y) % p for x, y in zip(da, db))]
                     for db in digits] for da in digits]
        self.sub = [[encode[tuple((x - y) % p for x, y in zip(da, db))]
                     for db in digits] for da in digits]
        self.mul = [[0] * self.order for _ in range(self.order)]
        for a, b in product(range(self.order), repeat=2):
            prod = [0] * (2 * e)
            for i, x in enumerate(digits[a]):
                for j, y in enumerate(digits[b]):
                    prod[i + j] = (prod[i + j] + x * y) % p
            self.mul[a][b] = encode[tuple(_poly_rem(prod, self.modulus, p))]
        self.inv = [0] + [self.mul[a].index(1) for a in range(1, self.order)]

    def pow(self, a: int, n: int) -> int:
        out = 1
        for _ in range(n):
            out = self.mul[out][a]
        return out

    def eval_poly(self, coeffs, z: int) -> int:
        out = 0
        for c in reversed(coeffs):
            out = self.add[self.mul[out][z]][c]
        return out


@lru_cache(maxsize=None)
def field(p: int, e: int) -> Field:
    return Field(p, e)


@lru_cache(maxsize=None)
def embedding(p: int, d: int, e: int) -> tuple:
    """Images in F_{p^e} of the elements of F_{p^d}, indexed by encoding."""
    small, big = field(p, d), field(p, e)
    root = next(z for z in range(big.order)
                if big.eval_poly(small.modulus, z) == 0)
    images = []
    for a in range(small.order):
        img, power = 0, 1
        for c in _digits(a, p, d):
            img = big.add[img][big.mul[c][power]]
            power = big.mul[power][root]
        images.append(img)
    return tuple(images)


class Curve:
    """x^u = Tr_{F_{q^r}/F_q}(y) over F_{q^r}, q = p^l."""

    def __init__(self, p: int, l: int, r: int, u: int):
        self.p, self.l, self.r, self.u = p, l, r, u
        self.q = p**l
        self.n = self.q ** (r - 1) * (u * (self.q - 1) + 1)
        self.genus = (self.q ** (r - 1) - 1) * (u - 1) // 2
        self.field = field(p, l * r)

    def points(self) -> list:
        f, q = self.field, self.q

        def trace(y):
            out, cur = 0, y
            for _ in range(self.r):
                out = f.add[out][cur]
                cur = f.pow(cur, q)
            return out

        pts = sorted((x, y) for x in range(f.order) for y in range(f.order)
                     if f.pow(x, self.u) == trace(y))
        if len(pts) != self.n:
            raise ValueError(f"{len(pts)} points, expected {self.n}")
        return pts

    def monomials(self, s: int) -> list:
        """(i, j), 0 <= i <= u(q-1), 0 <= j < q^{r-1}, weight at most s."""
        wx = self.q ** (self.r - 1)
        return [(i, j) for i in range(self.u * (self.q - 1) + 1)
                for j in range(wx) if wx * i + self.u * j <= s]

    def dimension(self, s: int) -> int:
        return len(self.monomials(s))

    def evaluation(self, mono, points) -> list:
        f = self.field
        return [f.mul[f.pow(x, mono[0])][f.pow(y, mono[1])]
                for x, y in points]


class RowSpace:
    """Echelon basis of the span of some vectors, grown one vector at a time."""

    def __init__(self, fld: Field, rows=()):
        self.field = fld
        self.basis = []  # (pivot column, row with 1 at the pivot)
        for row in rows:
            self.add(row)

    def reduce(self, vec) -> list:
        f = self.field
        vec = list(vec)
        for col, row in self.basis:
            c = vec[col]
            if c:
                mc = f.mul[c]
                vec = [f.sub[v][mc[w]] for v, w in zip(vec, row)]
        return vec

    def add(self, vec) -> None:
        vec = self.reduce(vec)
        col = next((i for i, v in enumerate(vec) if v), None)
        if col is not None:
            mi = self.field.mul[self.field.inv[vec[col]]]
            self.basis.append((col, [mi[v] for v in vec]))

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    @property
    def rank(self) -> int:
        return len(self.basis)


def supercode(curve: Curve, s: int) -> RowSpace:
    """NT_u(s): the span of the weight <= s monomials evaluated at the points."""
    points = curve.points()
    return RowSpace(curve.field,
                    (curve.evaluation(m, points) for m in curve.monomials(s)))


def combination_rank(idxs, n: int) -> int:
    """Number of w-subsets of range(n) lexicographically before idxs."""
    w = len(idxs)
    rank, prev = 0, -1
    for pos, c in enumerate(idxs):
        for v in range(prev + 1, c):
            rank += comb(n - 1 - v, w - 1 - pos)
        prev = c
    return rank
