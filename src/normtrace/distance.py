"""Minimum-distance machinery: the order bound and two exact algorithms.

The order bound is computed from weight-shifted footprint counting.  The two
exact algorithms, full codeword enumeration and smallest-dependent-set search
on parity-check columns, are mutually independent and serve as ground truth
at desk scale.  Both take explicit work budgets; exceeding a budget raises,
it never silently truncates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb

from .curves import CurveSpec
from .fields import FieldError
from .linalg import LinearCode, kernel, rref
from .monomials import footprint, footprint_paper_variant, weight

DEFAULT_BUDGET = 1 << 26


class BudgetExceeded(RuntimeError):
    """The configured work budget would be exceeded before completion."""


@dataclass(frozen=True)
class DistanceResult:
    lower_bound: int | None
    exact: int | None
    method: str | None
    witness: tuple | None  # a minimum-weight codeword, when exact


def geil_bound(curve: CurveSpec, s: int, variant: str = "footprint") -> int:
    """Order-bound lower bound on the minimum distance of NT_u(s).

    For each footprint monomial P of weight at most s, count the footprint
    monomials K whose weight exceeds P's by another footprint weight; the
    bound is the minimum of those counts.  `variant` selects the monomial
    box: "footprint" uses j < q^{r-1} (the true footprint), "paper" uses
    j <= q^{r-1}.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if variant == "footprint":
        delta = footprint(curve)
    elif variant == "paper":
        delta = footprint_paper_variant(curve)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    weights = sorted({weight(curve, m) for m in delta})
    wset = set(weights)
    best = None
    for pm in delta:
        wp = weight(curve, pm)
        if wp > s:
            continue
        count = sum(1 for km in delta if weight(curve, km) - wp in wset)
        if best is None or count < best:
            best = count
    if best is None:
        raise ValueError(f"no monomials of weight <= {s}")
    return best


def _partition_ranges(total: int, partitions: int):
    """Split [1, total] into contiguous ranges, one per partition."""
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    step = (total + partitions - 1) // partitions
    out = []
    start = 1
    while start <= total:
        out.append((start, min(start + step, total + 1)))
        start += step
    return out


def _enum_binary(code: LinearCode, partitions: int):
    """Gray-code enumeration of all nonzero binary codewords."""
    n, k = code.n, code.k
    rows = [sum(v << i for i, v in enumerate(r)) for r in code.generators]
    total = (1 << k) - 1
    best = None  # (weight, message_int, word_int)
    for start, stop in _partition_ranges(total, partitions):
        g = start ^ (start >> 1)
        word = 0
        gg = g
        i = 0
        while gg:
            if gg & 1:
                word ^= rows[i]
            gg >>= 1
            i += 1
        cand = (word.bit_count(), g, word)
        if best is None or cand < best:
            best = cand
        for c in range(start + 1, stop):
            word ^= rows[(c & -c).bit_length() - 1]
            w = word.bit_count()
            if w < best[0] or (w == best[0] and (c ^ (c >> 1)) < best[1]):
                best = (w, c ^ (c >> 1), word)
    w, _, word = best
    witness = tuple((word >> i) & 1 for i in range(n))
    return w, witness


def _enum_generic(code: LinearCode, partitions: int):
    fld = code.field
    q = fld.order
    k, n = code.k, code.n
    total = q**k - 1
    best = None  # (weight, message_index, word)
    for start, stop in _partition_ranges(total, partitions):
        for idx in range(start, stop):
            msg = []
            v = idx
            for _ in range(k):
                msg.append(v % q)
                v //= q
            word = code.codeword(msg)
            w = sum(1 for x in word if x)
            cand = (w, idx, word)
            if best is None or cand < best:
                best = cand
    return best[0], best[2]


def exact_min_distance_enum(code: LinearCode,
                            budget: int = DEFAULT_BUDGET,
                            partitions: int = 1) -> DistanceResult:
    """Exact minimum distance by enumerating all nonzero codewords.

    Deterministic regardless of partition count: ties between minimum-weight
    words are broken by the smallest message index.
    """
    if code.k == 0:
        raise ValueError("the zero code has no minimum distance")
    if code.field.order**code.k - 1 > budget:
        raise BudgetExceeded(
            f"{code.field.order}^{code.k} codewords exceed budget {budget}")
    if code.field.order == 2:
        d, witness = _enum_binary(code, partitions)
    else:
        d, witness = _enum_generic(code, partitions)
    return DistanceResult(lower_bound=None, exact=d,
                          method="enumeration", witness=tuple(witness))


def _columns(rows, n):
    return [tuple(r[c] for r in rows) for c in range(n)]


def _dependent(cols, fld) -> bool:
    reduced, _ = rref([list(c) for c in zip(*cols)], fld)
    return len(reduced) < len(cols)


def _dependence_witness(cols, idxs, n, fld):
    """A codeword supported on the dependent columns (nullspace vector)."""
    sub_rows = [list(r) for r in zip(*[cols[i] for i in idxs])]
    basis, _ = rref(sub_rows, fld)
    sub = LinearCode(fld, len(idxs), tuple(tuple(r) for r in basis))
    coeffs = kernel(sub).generators[0]
    word = [0] * n
    for i, c in zip(idxs, coeffs):
        word[i] = c
    return tuple(word)


def exact_min_distance_parity(code: LinearCode,
                              budget: int = DEFAULT_BUDGET,
                              partitions: int = 1) -> DistanceResult:
    """Exact minimum distance as the smallest dependent parity-column set.

    Work is metered as sum over levels w of C(n, w) * w (one rank test per
    column subset); the budget is checked before each level starts.
    """
    if code.k == 0:
        raise ValueError("the zero code has no minimum distance")
    fld = code.field
    n = code.n
    dual = kernel(code)
    hrows = [list(r) for r in dual.generators]
    if not hrows:
        # Full space: any single column is "dependent" (no constraints).
        word = tuple(1 if i == 0 else 0 for i in range(n))
        return DistanceResult(None, 1, "column-dependence", word)
    cols = _columns(hrows, n)
    binary = fld.order == 2
    if binary:
        icols = [sum(v << i for i, v in enumerate(c)) for c in cols]
    spent = 0
    for w in range(1, n + 1):
        level = comb(n, w) * w
        if spent + level > budget:
            raise BudgetExceeded(
                f"level w={w} needs {level} units, {budget - spent} left")
        spent += level
        found = None  # lexicographically first dependent index tuple
        for part in range(partitions):
            for idxs in islice(combinations(range(n), w), part, None,
                               partitions):
                if binary:
                    acc = 0
                    for i in idxs:
                        acc ^= icols[i]
                    dep = acc == 0
                else:
                    dep = _dependent([cols[i] for i in idxs], fld)
                if dep:
                    if found is None or idxs < found:
                        found = idxs
                    break
        if found is not None:
            witness = _dependence_witness(cols, found, n, fld)
            assert code.contains(witness)
            return DistanceResult(None, w, "column-dependence", witness)
    raise AssertionError("no dependent column set in a code with k > 0")


def is_even_weight(code: LinearCode) -> bool:
    """Whether every codeword of a binary code has even weight.

    Equivalent to the all-ones vector lying in the dual; checked both via
    orthogonality of the generators to all-ones and directly on row weights.
    """
    if code.field.order != 2:
        raise FieldError("even-weight check requires a binary code")
    by_orthogonality = all(sum(r) % 2 == 0 for r in code.generators)
    if by_orthogonality:
        assert all(sum(1 for v in r if v) % 2 == 0 for r in code.generators)
    return by_orthogonality
