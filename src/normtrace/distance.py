"""Minimum-distance machinery: the order bound and two exact algorithms.

The order bound is computed from weight-shifted footprint counting.  The two
exact algorithms, full codeword enumeration and smallest-dependent-set search
on parity-check columns, are mutually independent and serve as ground truth
at desk scale.  Both take explicit work budgets; exceeding a budget raises,
it never silently truncates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from .curves import CurveSpec
from .fields import FieldError
from .linalg import LaneRows, LinearCode, has_lanes, kernel, rref
from .monomials import footprint, footprint_paper_variant, weight

DEFAULT_BUDGET = 1 << 26


class BudgetExceeded(RuntimeError):
    """The configured work budget would be exceeded before completion.

    `needed` is the work the next step would take, `spent` the work done
    before it and `budget` the limit, all in the engine's units.  `level` is
    the subset size w the parity search was about to start, None for
    enumeration.
    """

    def __init__(self, message: str, *, needed: int, spent: int,
                 budget: int, level: int | None = None):
        super().__init__(message)
        self.needed = needed
        self.spent = spent
        self.budget = budget
        self.level = level


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
    bound is the minimum of those counts.  The count depends on P only
    through its weight, so it is taken once per weight from a multiset of
    monomial weights.  `variant` selects the monomial box: "footprint" uses
    j < q^{r-1} (the true footprint), "paper" uses j <= q^{r-1}.

    Only "footprint" is a lower bound.  "paper" is not sound: it gives 4 for
    NT_5(60) and NT_5(62) over F_16, whose distance is 3.  It is reported
    only to explain the published values in `paper_claim_delta`.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    if variant == "footprint":
        delta = footprint(curve)
    elif variant == "paper":
        delta = footprint_paper_variant(curve)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    counts = Counter(weight(curve, m) for m in delta)
    best = None
    for wp in counts:
        if wp > s:
            continue
        count = sum(c for wk, c in counts.items() if wk - wp in counts)
        if best is None or count < best:
            best = count
    if best is None:
        raise ValueError(f"no monomials of weight <= {s}")
    return best


def _enum_binary(code: LinearCode):
    """Gray-code enumeration of all nonzero binary codewords."""
    n, k = code.n, code.k
    rows = [sum(v << i for i, v in enumerate(r)) for r in code.generators]
    word = rows[0]  # the Gray code of 1
    best = (word.bit_count(), 1, word)  # (weight, message_int, word_int)
    for c in range(2, 1 << k):
        word ^= rows[(c & -c).bit_length() - 1]
        w = word.bit_count()
        if w < best[0] or (w == best[0] and (c ^ (c >> 1)) < best[1]):
            best = (w, c ^ (c >> 1), word)
    w, _, word = best
    witness = tuple((word >> i) & 1 for i in range(n))
    return w, witness


def _enum_generic(code: LinearCode):
    fld = code.field
    q = fld.order
    k = code.k
    best = None  # (weight, message_index, word)
    for idx in range(1, q**k):
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
                            budget: int = DEFAULT_BUDGET) -> DistanceResult:
    """Exact minimum distance by enumerating all nonzero codewords.

    Ties between minimum-weight words are broken by the smallest message
    index.
    """
    if code.k == 0:
        raise ValueError("the zero code has no minimum distance")
    needed = code.field.order**code.k - 1
    if needed > budget:
        raise BudgetExceeded(
            f"{code.field.order}^{code.k} codewords exceed budget {budget}",
            needed=needed, spent=0, budget=budget)
    if code.field.order == 2:
        d, witness = _enum_binary(code)
    else:
        d, witness = _enum_generic(code)
    return DistanceResult(lower_bound=None, exact=d,
                          method="enumeration", witness=tuple(witness))


def _columns(rows, n):
    return [tuple(r[c] for r in rows) for c in range(n)]


def _first_dependent_set(cols, w, fld):
    """The lexicographically first w-subset of dependent columns, or None.

    Depth-first over the subsets in lexicographic order.  A node holds every
    later column reduced against the echelon basis of its prefix, so the
    elimination of a prefix is done once and shared by every subset that
    extends it: choosing the next column costs one row operation per later
    column.  A leaf is dependent when its column reduces to zero.  The
    caller has found no dependent set smaller than w, so a prefix column
    that reduces to zero is an internal error.
    """
    if fld.order == 2:
        # Columns are ints; the pivot is the lowest set bit, reduction XOR.
        cols = [sum(v << i for i, v in enumerate(c)) for c in cols]

        def eliminate(v, rest):
            bit = v & -v
            return [u ^ v if u & bit else u for u in rest]

        def is_zero(u):
            return not u
    elif has_lanes(fld):
        # Columns in byte lanes; the pivot is the lowest nonzero lane.
        lanes = LaneRows(fld, len(cols[0]))
        cols = [lanes.pack(c) for c in cols]

        def eliminate(v, rest):
            col = lanes.lead(v)
            times, shift = lanes.pivot_multiples(v, col), col << 3
            return [u ^ times[u >> shift & 255] for u in rest]

        def is_zero(u):
            return not u
    else:
        cols = [list(c) for c in cols]

        def eliminate(v, rest):
            p = next(i for i, x in enumerate(v) if x)
            if v[p] != 1:
                v = fld.scale_row(fld.inv(v[p]), v)
            return [fld.sub_scaled_row(u, u[p], v) if u[p] else u
                    for u in rest]

        def is_zero(u):
            return not any(u)

    def search(start, reduced, depth):
        # reduced[i] is column start + i reduced against the prefix.
        if depth == w - 1:
            return next(((start + i,) for i, u in enumerate(reduced)
                         if is_zero(u)), None)
        for i in range(len(reduced) - (w - 1 - depth)):
            v = reduced[i]
            if is_zero(v):
                raise AssertionError(
                    f"a set of {depth + 1} columns is dependent at level {w}")
            found = search(start + i + 1, eliminate(v, reduced[i + 1:]),
                           depth + 1)
            if found is not None:
                return (start + i,) + found
        return None

    return search(0, cols, 0)


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
                              budget: int = DEFAULT_BUDGET) -> DistanceResult:
    """Exact minimum distance as the smallest dependent parity-column set.

    Level w searches the w-subsets of columns in lexicographic order and
    returns the first dependent one.  Work is metered as sum over levels w
    of C(n, w) * w (one rank test per column subset); the budget is checked
    before each level starts.
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
    spent = 0
    for w in range(1, n + 1):
        level = comb(n, w) * w
        if spent + level > budget:
            raise BudgetExceeded(
                f"level w={w} needs {level} units, {budget - spent} left",
                needed=level, spent=spent, budget=budget, level=w)
        spent += level
        found = _first_dependent_set(cols, w, fld)
        if found is not None:
            witness = _dependence_witness(cols, found, n, fld)
            assert code.contains(witness)
            return DistanceResult(None, w, "column-dependence", witness)
    raise AssertionError("no dependent column set in a code with k > 0")


def is_even_weight(code: LinearCode) -> bool:
    """Whether every codeword of a binary code has even weight.

    Equivalent to the all-ones vector lying in the dual, that is, to every
    generator having even weight.
    """
    if code.field.order != 2:
        raise FieldError("even-weight check requires a binary code")
    return all(sum(r) % 2 == 0 for r in code.generators)
