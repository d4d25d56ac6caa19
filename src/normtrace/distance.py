"""Minimum-distance machinery: the order bound and two exact algorithms.

The order bound is computed from weight-shifted footprint counting, one
table of counts per curve and monomial box: each count is a sum of bit
counts of shifted weight masks (_order_bound_counts), and geil_bound takes
the least count at weights up to s.  The two exact algorithms are mutually
independent:

* information-set enumeration (Brouwer-Zimmermann), which visits codewords
  by their weight on disjoint information sets and stops when a lower bound
  on the words not yet visited reaches the lightest word seen, and
* smallest-dependent-set search on parity-check columns, level by level.
  A level w >= 3 is first tested by meeting in the middle: with no fewer
  than w columns dependent, some w are exactly when a combination of
  ceil(w/2) columns equals one of floor(w/2), all coefficients nonzero,
  and a level with no such collision is proved clean without a search.
  The level that holds the first dependent set is searched depth first,
  where each prefix is eliminated once and the last column of a subset is
  found by a lookup of the reduced columns' classes under scaling, so a
  level of w-subsets of n columns costs O(n^(w-1)) row operations.

Both take explicit work budgets; exceeding a budget raises, it never
silently truncates, and the error carries the distance bracket reached.
The parity search's budget counts the subsets the depth-first search
visits, and a level proved clean is charged what the search would have
charged it (level_cost), so its results and errors are those of the search
on every level.  The full space needs no case of its own in the parity
search (see exact_min_distance_parity).  Both engines, and the collision
test, pack their words and columns as linalg.row_packing gives for the
field, so each has one code path whatever the field.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .curves import CurveSpec
from .fields import FieldError
from .linalg import LinearCode, kernel, parity_check_rows, row_packing, \
    row_space_basis, rref
from .monomials import footprint, footprint_paper_variant

DEFAULT_BUDGET = 1 << 26


class BudgetExceeded(RuntimeError):
    """The configured work budget ran out before the distance was found.

    `spent` is the work done and `budget` the limit, in the engine's units:
    codewords visited for enumeration, column subsets visited for the
    parity search.  The distance lies in [lower, upper]; `upper` is the
    weight of the lightest codeword seen, None when there is none.
    """

    def __init__(self, message: str, *, spent: int, budget: int,
                 lower: int, upper: int | None):
        super().__init__(message)
        self.spent = spent
        self.budget = budget
        self.lower = lower
        self.upper = upper


@dataclass(frozen=True)
class DistanceResult:
    exact: int | None
    method: str | None
    witness: tuple | None  # a minimum-weight codeword, when exact


@lru_cache(maxsize=None)
def _order_bound_counts(curve: CurveSpec, variant: str) -> tuple:
    """(w(P), count) for each weight of a monomial P in the box, with count
    the number of monomials K whose weight exceeds w(P) by another monomial
    weight.

    With D the int whose bit w is set when w is a monomial weight, and L_m
    the int of the weights that occur at least m times, the count is the
    sum over m of the bits in L_m & (D << w(P)): bit w(K) of D << w(P) is
    set when w(K) - w(P) is a monomial weight.  The L_m are stacked in one
    int, a block of 2 max(w) + 1 bits each, against as many copies of D,
    so that each count is one bit count: D << w(P) stays inside its block.
    """
    if variant == "footprint":
        delta = footprint(curve)
    elif variant == "paper":
        delta = footprint_paper_variant(curve)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    wx, wy = curve.weight_x, curve.weight_y
    counts = Counter(wx * i + wy * j for i, j in delta)
    weights = sum(1 << w for w in counts)
    block = 2 * max(counts) + 1
    stacked = spread = 0
    for m in range(max(counts.values())):
        stacked |= sum(1 << w for w, c in counts.items() if c > m) << m * block
        spread |= weights << m * block
    return tuple((wp, (stacked & spread << wp).bit_count()) for wp in counts)


def geil_bound(curve: CurveSpec, s: int, variant: str = "footprint") -> int:
    """Order-bound lower bound on the minimum distance of NT_u(s).

    For each footprint monomial P of weight at most s, count the footprint
    monomials K whose weight exceeds P's by another footprint weight; the
    bound is the minimum of those counts.  The count depends on P only
    through its weight, so the counts are taken once per curve and weight,
    as bit counts of shifted masks of the monomial weights
    (_order_bound_counts).
    `variant` selects the monomial box: "footprint" uses j < q^{r-1} (the
    true footprint), "paper" uses j <= q^{r-1}.

    Only "footprint" is a lower bound.  "paper" is not sound: it gives 4 for
    NT_5(60) and NT_5(62) over F_16, whose distance is 3.  It is reported
    only to explain the published values in `paper_claim_delta`.
    """
    if s < 0:
        raise ValueError("s must be nonnegative")
    return min(c for wp, c in _order_bound_counts(curve, variant) if wp <= s)


# -- information-set enumeration --


def _information_sets(code: LinearCode) -> list:
    """Generator matrices of the code in systematic form on disjoint
    information sets, taken greedily.

    The first is the code's own reduced echelon form, on its pivots.  Each
    later one is the reduced echelon form of the generators with the
    columns no earlier set took placed first, put back in the original
    column order.  The greedy pass stops at the first leftover block of
    rank below k; its columns take part in no set.
    """
    n, k = code.n, code.k
    forms = [[list(row) for row in code.generators]]
    pivots = set(code.pivots)
    unused = [c for c in range(n) if c not in pivots]
    while len(unused) >= k:
        taken = set(unused)
        order = unused + [c for c in range(n) if c not in taken]
        basis, pivots = rref([[row[c] for c in order]
                              for row in code.generators], code.field)
        if pivots[-1] >= len(unused):
            break
        position = sorted(range(n), key=order.__getitem__)
        forms.append([[row[i] for i in position] for row in basis])
        taken = {order[i] for i in pivots}
        unused = [c for c in unused if c not in taken]
    return forms


class _Enumeration:
    """One information-set enumeration: the systematic forms as packed
    words, the lightest word seen (the upper bound), the lower bound on
    every word not yet visited, and the codewords visited so far."""

    def __init__(self, code: LinearCode, budget: int):
        self.packing = packing = row_packing(code.field, code.n)
        self.forms = [[packing.pack(row) for row in form]
                      for form in _information_sets(code)]
        self.k = code.k
        self.step = code.field.order - 1  # nonzero multiples of a row
        # A nonzero word is nonzero on every information set.
        self.lower = len(self.forms)
        self.upper = code.n + 1  # no word seen
        self.lightest = None
        self.spent = 0
        self.budget = budget
        self.w = 0

    def run(self) -> None:
        """Raise the bounds round by round until they meet, or until the
        first form has been visited in every message weight.

        Each form visited in a round raises the lower bound by one.  Once a
        round over every form would visit at least as many words as all the
        rounds left in the first form, only the first form goes on, and its
        last round proves the lightest word seen.
        """
        count = [comb(self.k, w) * self.step ** (w - 1)
                 for w in range(self.k + 1)]
        forms = [[rows, None] for rows in self.forms]
        for self.w in range(1, self.k + 1):
            if len(forms) * count[self.w] >= sum(count[self.w:]):
                del forms[1:]
            for form in forms:
                if self.visit(form):
                    return
                self.lower += 1
                if self.upper <= self.lower or self.w == self.k:
                    return

    def visit(self, form: list) -> bool:
        """Visit every word of message weight w in one systematic form.

        `form` holds the rows and, from round 2 on, the nonzero multiples
        of row i at i * (q - 1) onward.  The first nonzero coefficient is
        1: the other multiples of a word have its weight.  Each step of the
        depth-first walk over the message supports adds one multiple of a
        row.  Returns True once the lightest word seen is no heavier than
        the lower bound.
        """
        packing, w, k, step = self.packing, self.w, self.k, self.step
        add, span = packing.add, packing.span
        rows, flat = form
        if flat is None and w > 1:
            keys = [packing.key(c) for c in range(1, step + 1)]
            form[1] = flat = []
            for v in rows:
                times = packing.multiples(v)
                flat += [times[c] for c in keys]

        def walk(s, start, depth, fresh):
            if fresh == span:
                s, fresh = packing.reduce(s), 0
            if depth == w - 1:
                return self._leaves(s, flat[start * step:] if depth
                                    else rows[start:])
            for i in range(start, k - (w - 1 - depth)):
                for t in flat[i * step:(i + 1) * step] if depth \
                        else rows[i:i + 1]:
                    if walk(add(s, t), i + 1, depth + 1, fresh + 1):
                        return True
            return False

        return walk(0, 0, 0, 0)

    def _leaves(self, s, tail: list) -> bool:
        """Visit the words s + t for t in tail, which is never empty."""
        if self.spent + len(tail) > self.budget:
            upper = self.upper if self.lightest is not None else None
            raise BudgetExceeded(
                f"enumeration stopped in round w={self.w} after "
                f"{self.spent} of {self.budget} codewords: d in "
                f"[{self.lower}, {'?' if upper is None else upper}]",
                spent=self.spent, budget=self.budget, lower=self.lower,
                upper=upper)
        self.spent += len(tail)
        packing = self.packing
        least = min(packing.weights(s, tail))
        if least < self.upper:
            i = list(packing.weights(s, tail)).index(least)
            self.upper, self.lightest = least, packing.add(s, tail[i])
        return self.upper <= self.lower


def exact_min_distance_enum(code: LinearCode,
                            budget: int = DEFAULT_BUDGET) -> DistanceResult:
    """Exact minimum distance by information-set enumeration.

    This is Zimmermann's algorithm (Brouwer-Zimmermann; see Grassl,
    "Searching for linear codes with large minimum distance", 2006).  The
    generators are put in systematic form on m disjoint information sets
    (see _information_sets).  A codeword's message in a form is its
    restriction to that form's set, so a word of message weight at least w
    in every form has weight at least m * w.  Round w = 1, 2, ... visits the
    words of message weight w in each form in turn; after form j of round
    w, every word not yet visited has weight at least (w + 1) j + w (m - j).
    The search stops when that bound reaches the lightest word seen, which
    is the witness, or when the first form has been visited in every
    message weight; once a round over all forms would cost as much as
    finishing the first form, only the first form goes on.  The order bound
    is not used, so the two stay independent.  The budget counts codewords
    visited; the witness is the first lightest word the walk meets.
    """
    if code.k == 0:
        raise ValueError("the zero code has no minimum distance")
    search = _Enumeration(code, budget)
    search.run()
    return DistanceResult(exact=search.upper, method="enumeration",
                          witness=tuple(search.packing.unpack(
                              search.packing.reduce(search.lightest))))


# -- parity-column search --


def _columns(rows, n):
    """The n columns of the rows, as tuples: empty when there are no rows."""
    return list(zip(*rows)) if rows else [()] * n


def _first_dependent_set(cols, w, fld, spent, budget):
    """The lexicographically first w-subset of dependent columns, or None,
    and the column subsets visited so far, earlier levels' `spent` included.

    Depth-first over the subsets in lexicographic order.  A node holds every
    later column reduced against the echelon basis of its prefix, so the
    elimination of a prefix is done once and shared by every subset that
    extends it: choosing the next column costs one row operation per later
    column.  The last column needs no elimination.  Below a node of depth
    w - 2 with reduced columns v_0, v_1, ..., the subset that adds v_i and
    then v_j (i < j) is dependent exactly when v_j is zero or a multiple of
    v_i.  So one pass keys each reduced column by its monic multiple (the
    packing's `monic`), and the first dependent leaf under v_i is the next
    zero column or the next column in v_i's class.  A level costs
    O(n^(w-1)) row operations.  The caller has found no dependent set
    smaller than w, so a prefix column that reduces to zero is an internal
    error.

    Every node, prefix or leaf, counts one against the budget, in the
    order a depth-first walk visits them; the walk stops at the first
    dependent leaf, so the leaves after it are not counted.  The search
    raises BudgetExceeded once the budget is used up.
    """
    packing = row_packing(fld, len(cols[0]))
    cols = [packing.pack(c) for c in cols]
    eliminate, monic = packing.eliminate, packing.monic

    def exceeded():
        return BudgetExceeded(
            f"parity search stopped at level w={w} after {spent} of "
            f"{budget} column subsets: d in [{w}, ?]",
            spent=spent, budget=budget, lower=w, upper=None)

    def last_pair(start, reduced):
        # The node at depth w - 2.  Its candidates i < size - 1 each cost
        # one, and the leaves under i cost one each up to the first
        # dependent one, or all size - i - 1 of them.
        nonlocal spent
        size = len(reduced)
        if size < 2:
            return None
        # The first candidate that is zero or has a dependent leaf: a zero
        # column is a dependent leaf under every candidate before it.
        first = size - 1
        if 0 in reduced:
            first = 0
        else:
            keys = list(map(monic, reduced))
            if len(set(keys)) < size:
                seen = {}
                first = min(seen[key] for j, key in enumerate(keys)
                            if seen.setdefault(key, j) != j)
        # The candidates before it cost size - i each.
        cost = first * size - first * (first - 1) // 2
        if cost > budget - spent:
            spent = budget
            raise exceeded()
        spent += cost
        if first == size - 1:
            return None
        if spent == budget:
            raise exceeded()
        spent += 1
        v = reduced[first]
        if not v:
            raise AssertionError(
                f"a set of {w - 1} columns is dependent at level {w}")
        key = monic(v)
        k = next(j for j in range(first + 1, size)
                 if not reduced[j] or monic(reduced[j]) == key)
        if k - first > budget - spent:
            spent = budget
            raise exceeded()
        spent += k - first
        return start + first, start + k

    def search(start, reduced, depth):
        # reduced[i] is column start + i reduced against the prefix.
        nonlocal spent
        if depth == w - 2:
            return last_pair(start, reduced)
        for i in range(len(reduced) - (w - 1 - depth)):
            if spent == budget:
                raise exceeded()
            spent += 1
            v = reduced[i]
            if not v:
                raise AssertionError(
                    f"a set of {depth + 1} columns is dependent at level {w}")
            found = search(start + i + 1, eliminate(v, reduced[i + 1:]),
                           depth + 1)
            if found is not None:
                return (start + i,) + found
        return None

    if w > 1:
        return search(0, cols, 0), spent
    # Level 1: the leaves are the columns themselves.
    room = budget - spent
    try:
        i = cols.index(0, 0, room)
    except ValueError:
        if len(cols) > room:
            spent = budget
            raise exceeded() from None
        return None, spent + len(cols)
    return (i,), spent + i + 1


def level_cost(n: int, w: int) -> int:
    """The column subsets _first_dependent_set visits on a level
    2 <= w <= n of n columns that holds no dependent set: at each depth
    d < w - 2 the (d + 1)-subsets of the first n - w + d + 1 columns, at
    depth w - 2 the (w - 1)-subsets of the first n - 1, and every
    w-subset as a leaf."""
    return sum(comb(n - w + d + 1, d + 1) for d in range(w - 2)) + \
        comb(n - 1, w - 1) + comb(n, w)


# The most words the collision test stores, whatever the budget: a set of
# 2^18 ints of 200 bits takes 21 MB.
MEET_STORED_MAX = 1 << 18


def _meets_in_middle(n: int, q: int, w: int) -> bool:
    """Whether level w >= 3 of n columns over F_q is tested by meeting in
    the middle (_has_dependent_set) once the budget left holds its whole
    level_cost: when the words the test stores, the combinations of
    floor(w/2) columns with nonzero coefficients, are at most
    MEET_STORED_MAX, and n times them at most level_cost(n, w)."""
    stored = comb(n, w // 2) * (q - 1) ** (w // 2)
    return stored <= MEET_STORED_MAX and n * stored <= level_cost(n, w)


def _column_multiples(rows, n, fld):
    """The q - 1 nonzero multiples of each of the n columns of the rows,
    the column itself first, packed as linalg.row_packing packs a row of
    their height, and that packing."""
    packing = row_packing(fld, len(rows))
    keys = [packing.key(c) for c in range(1, fld.order)]
    return [[times[c] for c in keys] for times in map(
        packing.multiples, map(packing.pack, _columns(rows, n)))], packing


def _has_dependent_set(mults, packing, w: int) -> bool:
    """Whether some w columns are dependent, for columns of which no fewer
    than w are, w >= 3: a meet in the middle between the combinations of
    h = ceil(w/2) columns and those of w - h, every coefficient nonzero.
    The columns come as _column_multiples gives them, and two words are
    added with the packing's add, then reduced where adding can leave a
    word unreduced (span not None), so that two words are equal exactly
    when their ints are.

    For odd w every combination of w - h columns is stored, and the
    combinations of h columns whose first coefficient is 1 are looked up
    in it.  For even w every combination of h columns goes into one set,
    and a repeat is watched for.  The first collision ends the test.

    Two combinations with different coefficient vectors that give one word
    differ by a nonzero combination of at most w columns that is zero, so
    those columns are dependent; as no fewer than w are, they are exactly
    w.  Conversely a zero combination of w columns c_1 < ... < c_w, with
    coefficients a_i, splits into its first h terms and the negated rest:
    scaled by 1/a_1, the first is a looked-up combination and the second a
    stored one for odd w, and both are inserted for even w, where they
    hold different columns.

    Each walk goes depth first over the columns in order, one batch of
    words per prefix of all but the last column: the prefix's sum plus
    each multiple of every later column.  The words of a batch are
    distinct, as two multiples of one nonzero column differ and no two
    columns are parallel (w >= 3), so for even w a repeat is always one
    with a batch before.
    """
    n, step = len(mults), len(mults[0])
    flat = [t for times in mults for t in times]
    h = (w + 1) // 2

    add = packing.add
    reduce = None if packing.span is None else packing.reduce

    def sums(s, terms):  # s + t for each t in terms, reduced
        added = map(add.__get__(s), terms)  # add bound to s, as s.__xor__
        return added if reduce is None else map(reduce, added)

    def batches(size, first_one):
        # The batches of the combinations of size columns, first_one asking
        # for a first coefficient of 1 when size >= 2.
        def walk(s, start, depth):
            if depth == size - 1:
                tail = flat[start * step:]
                yield sums(s, tail) if depth else tail
                return
            for i in range(start, n - size + 1 + depth):
                terms = mults[i][:1] if first_one and not depth else mults[i]
                for t in sums(s, terms) if depth else terms:
                    yield from walk(t, i + 1, depth + 1)
        return walk(0, 0, 0)

    if w % 2:
        stored = set()
        for words in batches(w - h, False):
            stored.update(words)
        return any(not stored.isdisjoint(words)
                   for words in batches(h, True))
    seen = set()
    for words in batches(h, False):
        words = list(words)
        if not seen.isdisjoint(words):
            return True
        seen.update(words)
    return False


def _dependence_witness(cols, idxs, n, fld):
    """A codeword supported on the dependent columns (nullspace vector)."""
    sub = row_space_basis(zip(*[cols[i] for i in idxs]), fld, len(idxs))
    coeffs = kernel(sub).generators[0]
    word = [0] * n
    for i, c in zip(idxs, coeffs):
        word[i] = c
    return tuple(word)


def exact_min_distance_parity(code: LinearCode,
                              budget: int = DEFAULT_BUDGET) -> DistanceResult:
    """Exact minimum distance as the smallest dependent parity-column set.

    The columns are those of linalg.parity_check_rows: which sets of them
    are dependent does not depend on the rows of the dual.  Level w finds
    the first dependent w-subset of columns in lexicographic order, w = 1,
    2, ...  The budget counts the column subsets the depth-first search
    (_first_dependent_set) visits over all levels, prefixes included.  Over
    the full space the dual is zero, every column is the empty (zero)
    vector, and level 1 finds column 0.

    Levels w >= 3 are first tested by meeting in the middle
    (_has_dependent_set).  When level w starts, levels 1 .. w - 1 have
    found nothing, so no fewer than w columns are dependent, and under
    that fact a collision between the combinations of ceil(w/2) columns
    and those of floor(w/2) is exactly a dependent w-set.  A level with no
    collision is clean, and needs no search: it adds level_cost(n, w), the
    count the search would charge for it, to what is spent.  A level with
    a collision is searched, and the search gives the lexicographically
    first dependent set and its count.  So the result, its witness, and
    every BudgetExceeded with its message, spent and lower bound are those
    of the search run on every level.

    The test runs only when the whole level fits in the budget left, as a
    clean level then finishes without raising, and only when the words it
    stores, comb(n, floor(w/2)) (q - 1)^floor(w/2), are at most
    MEET_STORED_MAX and, times n, at most level_cost(n, w)
    (_meets_in_middle).  Otherwise the level is searched, in O(n w) memory
    whatever the budget.
    """
    if code.k == 0:
        raise ValueError("the zero code has no minimum distance")
    fld = code.field
    n = code.n
    rows = parity_check_rows(code)
    cols = _columns(rows, n)
    multiples = None
    spent = 0
    for w in range(1, n + 1):
        if w >= 3 and spent + (cost := level_cost(n, w)) <= budget and \
                _meets_in_middle(n, fld.order, w):
            if multiples is None:
                multiples = _column_multiples(rows, n, fld)
            if not _has_dependent_set(*multiples, w):
                spent += cost
                continue
        found, spent = _first_dependent_set(cols, w, fld, spent, budget)
        if found is not None:
            witness = _dependence_witness(cols, found, n, fld)
            assert code.contains(witness)
            return DistanceResult(w, "column-dependence", witness)
    raise AssertionError("no dependent column set in a code with k > 0")


def is_even_weight(code: LinearCode) -> bool:
    """Whether every codeword of a binary code has even weight.

    Equivalent to the all-ones vector lying in the dual, that is, to every
    generator having even weight.
    """
    if code.field.order != 2:
        raise FieldError("even-weight check requires a binary code")
    return all(sum(r) % 2 == 0 for r in code.generators)
