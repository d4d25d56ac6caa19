import random
import tracemalloc
from collections import Counter
from functools import partial, reduce
from itertools import combinations, product
from math import comb

import pytest

from normtrace import distance
from normtrace.curves import make_curve
from normtrace.distance import (DEFAULT_BUDGET, BudgetExceeded,
                                DistanceResult, _column_multiples,
                                _dependence_witness, _first_dependent_set,
                                _has_dependent_set, _information_sets,
                                _meets_in_middle, _order_bound_counts,
                                _parity_columns, _walk,
                                exact_min_distance_enum,
                                exact_min_distance_parity, geil_bound,
                                is_even_weight, level_cost)
from normtrace.fields import FieldError, make_field
from normtrace.linalg import (DigitLanes, LinearCode, kernel, rank,
                              row_packing, row_space_basis, rref)
from normtrace.monomials import footprint, footprint_paper_variant, weight
from normtrace.subfield import subfield_subcode_of_ent

NT3 = make_curve(2, 1, 4, 3)
NT5 = make_curve(2, 1, 4, 5)
F2 = make_field(2, 1)
F4 = make_field(2, 2)
F16 = make_field(2, 4)


def scale_row(fld, c, row):
    """The row c * row, one field product per entry."""
    return [fld.mul(c, v) for v in row]


def random_code(rng, fld, n, k):
    rows = [[rng.randrange(fld.order) for _ in range(n)] for _ in range(k)]
    return row_space_basis(rows, fld, n)


def test_geil_bound_values():
    assert geil_bound(NT3, 36) == 3
    assert geil_bound(NT5, 60) == 3
    assert geil_bound(NT5, 62) == 3
    assert geil_bound(NT3, NT3.max_weight) == 1
    assert geil_bound(NT5, NT5.max_weight) == 1
    with pytest.raises(ValueError):
        geil_bound(NT3, -1)
    with pytest.raises(ValueError, match="unknown variant 'box'"):
        geil_bound(NT3, 36, "box")


def geil_bound_by_definition(curve, variant):
    """The order bound as a function of s, counted pair by pair: for each
    monomial P, the monomials K with w(K) - w(P) a monomial weight."""
    delta = footprint(curve) if variant == "footprint" \
        else footprint_paper_variant(curve)
    weights = {weight(curve, m) for m in delta}
    counts = [(weight(curve, pm),
               sum(1 for km in delta
                   if weight(curve, km) - weight(curve, pm) in weights))
              for pm in delta]
    return max(weights), \
        lambda s: min(count for wp, count in counts if wp <= s)


def test_geil_bound_matches_pairwise_definition():
    for params in [(2, 1, 4, 3), (2, 1, 4, 5), (2, 1, 4, 15), (2, 2, 2, 5),
                   (3, 1, 2, 4)]:
        curve = make_curve(*params)
        for variant in ("footprint", "paper"):
            top, bound = geil_bound_by_definition(curve, variant)
            for s in range(top + 2):
                assert geil_bound(curve, s, variant) == bound(s), \
                    (params, variant, s)


def order_bound_counts_by_pairs(curve, variant):
    """(w(P), count) per monomial weight, counted over every pair of
    weights in the multiset of monomial weights."""
    delta = footprint(curve) if variant == "footprint" \
        else footprint_paper_variant(curve)
    counts = Counter(weight(curve, m) for m in delta)
    return tuple((wp, sum(c for wk, c in counts.items() if wk - wp in counts))
                 for wp in counts)


@pytest.mark.parametrize("params", [(2, 1, 4, 3), (2, 1, 4, 5), (3, 1, 2, 4),
                                    (2, 2, 2, 5), (2, 1, 6, 3)], ids=str)
def test_popcount_order_bound_counts_match_pair_count(params):
    curve = make_curve(*params)
    for variant in ("footprint", "paper"):
        assert _order_bound_counts(curve, variant) == \
            order_bound_counts_by_pairs(curve, variant)


def information_sets_by_elimination(code):
    """The information-set forms with every form, the first included,
    taken by an elimination of the generators."""
    n, k = code.n, code.k
    forms = []
    unused = list(range(n))
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


@pytest.mark.parametrize("params,s,t", [((2, 1, 4, 3), 36, 2),
                                        ((3, 1, 2, 4), 16, 3),
                                        ((2, 1, 6, 3), 64, 2),
                                        ((3, 1, 3, 13), 121, 3)], ids=str)
def test_information_sets_start_from_the_code_form(params, s, t):
    """The [32,25,4], [27,8,11], [128,3] and [243,10] enumeration codes:
    the first form is the code's own, and every form is the one an
    elimination per form gives."""
    code = subfield_subcode_of_ent(make_curve(*params), s, t)
    forms = _information_sets(code)
    assert forms[0] == [list(row) for row in code.generators]
    assert forms == information_sets_by_elimination(code)


def test_geil_bound_variants_reportable():
    # the two monomial boxes can disagree; both remain available
    assert geil_bound(NT5, 60, "paper") == 4
    assert geil_bound(NT3, 36, "paper") == 3


def test_enum_repetition_code():
    rep = row_space_basis([[1] * 7], F2, 7)
    res = exact_min_distance_enum(rep)
    assert res.exact == 7 and res.witness == (1,) * 7


def test_parity_weight_one():
    c = row_space_basis([[1, 0, 0], [0, 1, 1]], F2, 3)
    res = exact_min_distance_parity(c)
    assert res.exact == 1
    assert sum(1 for v in res.witness if v) == 1


def test_even_weight_codes():
    sub = subfield_subcode_of_ent(NT3, 36, 2)
    assert is_even_weight(sub)
    rep3 = row_space_basis([[1, 1, 1]], F2, 3)
    assert not is_even_weight(rep3)
    even = row_space_basis(
        [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], F2, 4)
    assert is_even_weight(even)
    with pytest.raises(FieldError):
        is_even_weight(row_space_basis([[1, 1]], F4, 2))


def exhaustive_enum_binary(code):
    """Gray-code enumeration of all nonzero binary codewords: (d, witness),
    the witness of least message index."""
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
    return w, tuple((word >> i) & 1 for i in range(n))


def exhaustive_enum_generic(code):
    """Every nonzero codeword encoded from its message: (d, witness)."""
    q, k = code.field.order, code.k
    best = None  # (weight, message_index, word)
    for idx in range(1, q**k):
        msg = []
        v = idx
        for _ in range(k):
            msg.append(v % q)
            v //= q
        word = code.codeword(msg)
        cand = (sum(1 for x in word if x), idx, word)
        if best is None or cand < best:
            best = cand
    return best[0], best[2]


def exhaustive_distance(code):
    """The exhaustive reference that information-set enumeration replaced."""
    if code.field.order == 2:
        return exhaustive_enum_binary(code)[0]
    return exhaustive_enum_generic(code)[0]


def exhaustive_projective_distance(code):
    """The least weight of the words whose message has first nonzero
    coefficient 1; every nonzero codeword is a multiple of one of them."""
    q, k = code.field.order, code.k
    return min(sum(1 for x in code.codeword((0,) * i + (1,) + tail) if x)
               for i in range(k)
               for tail in product(range(q), repeat=k - 1 - i))


# Fields of order above 256: F_512 and F_1024 in 16-bit lanes, F_289 and
# F_729 in DigitLanes with more elements than a byte holds.
LARGE_FIELDS = [(2, 9), (2, 10), (17, 2), (3, 6)]


def distance_test_codes(rng, fld):
    """Random codes of length at most 14, and the shapes that exercise the
    information sets: k = 1, k = n, a zero column, repeated columns, and a
    leftover column block of rank below k."""
    q = fld.order
    kmax = max(k for k in range(1, 6) if q**k <= 4096)
    for _ in range(6):
        n = rng.randrange(2, 15)
        yield random_code(rng, fld, n, rng.randrange(1, min(n, kmax) + 1))
    yield random_code(rng, fld, 9, 1)
    yield row_space_basis([[rng.randrange(1, q) if i == j else 0
                            for j in range(4)] for i in range(4)], fld, 4)
    yield random_code(rng, fld, 3, 3)
    # Rank 3 on columns 0-2 and on columns 3-5.
    base = [[int(i == j) for j in range(3)] +
            [rng.randrange(1, q) if j == (i + 1) % 3 else 0
             for j in range(3)] +
            [rng.randrange(q)] for i in range(3)]
    yield row_space_basis([row[:3] + [0] + row[3:] for row in base], fld, 8)
    yield row_space_basis([row + row[:3] for row in base], fld, 10)
    # Columns 0-5 hold two information sets and columns 6-10 are multiples
    # of column 0: the leftover block has more than k columns but rank 1.
    c = rng.randrange(1, q)
    yield row_space_basis([row[:6] + [fld.mul(c, row[0])] * 5
                           for row in base], fld, 11)


def test_oracles_agree_on_random_codes():
    rng = random.Random(79)
    cases = [(c, exhaustive_distance)
             for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4)]
             for c in distance_test_codes(rng, make_field(p, e))]
    # Codes of length at most 6 and dimension at most 2 over the fields of
    # order above 256.
    for p, e in LARGE_FIELDS:
        for _ in range(6):
            n = rng.randrange(2, 7)
            cases.append((random_code(rng, make_field(p, e), n,
                                      rng.randrange(1, 3)),
                          exhaustive_projective_distance))
    for c, reference in cases:
        if c.k == 0:
            continue
        res = exact_min_distance_enum(c)
        d = reference(c)
        assert res.exact == d == exact_min_distance_parity(c).exact
        assert sum(1 for v in res.witness if v) == d
        assert c.contains(res.witness)


def test_enum_prime_lanes_reduce_before_overflow():
    # Over F_127 a byte lane holds two reduced entries, so a word of
    # message weight 3 is reduced on the way.  The Reed-Solomon code
    # [7,4,4] has one information set and needs round 3 to prove d = 4.
    fld = make_field(127, 1)
    code = row_space_basis([[pow(x, j, 127) for x in range(1, 8)]
                            for j in range(4)], fld, 7)
    res = exact_min_distance_enum(code)
    assert res.exact == exact_min_distance_parity(code).exact == 4
    assert sum(1 for v in res.witness if v) == 4
    assert code.contains(res.witness)


def test_prime_lanes_span_is_tight():
    # A reduced word (lanes < p) takes `span` additions of reduced
    # multiples before a lane could pass 255, and not one more.
    for p, e in ((3, 1), (5, 1), (67, 1), (127, 1), (3, 5), (13, 2)):
        span = DigitLanes(make_field(p, e), 4).span
        assert (p - 1) * (span + 1) <= 255 < (p - 1) * (span + 2)


def test_enum_leftover_block_takes_no_information_set():
    rng = random.Random(83)
    for fld in (F2, make_field(3, 1), F4):
        code = list(distance_test_codes(rng, fld))[-1]
        assert (code.n, code.k) == (11, 3)
        forms = _information_sets(code)
        assert len(forms) == 2
        for form in forms:
            # the code, in systematic form on three of the columns 0-5
            assert row_space_basis(form, fld, 11) == code
            cols = [tuple(row[j] for row in form) for j in range(6)]
            assert {(1, 0, 0), (0, 1, 0), (0, 0, 1)} <= set(cols)


def test_enum_ladder_distances():
    # d = 64 and 126 by information-set enumeration; the 3^10 words of the
    # second took about a minute to enumerate one by one.
    for params, s, t, expect in [((2, 1, 6, 3), 64, 2, (128, 3, 64)),
                                 ((3, 1, 3, 13), 121, 3, (243, 10, 126))]:
        code = subfield_subcode_of_ent(make_curve(*params), s, t)
        res = exact_min_distance_enum(code)
        assert (code.n, code.k, res.exact) == expect
        assert sum(1 for v in res.witness if v) == res.exact
        assert code.contains(res.witness)


def test_budget_errors():
    rng = random.Random(89)
    c = random_code(rng, F16, 10, 4)
    assert exact_min_distance_enum(c).exact == 5
    with pytest.raises(BudgetExceeded) as info:
        exact_min_distance_enum(c, budget=50)
    # Round 1 visits 4 words in each of 2 forms (lower bound 2 + 2 = 4);
    # round 2's first batch of 45 words does not fit in the 42 left.
    exc = info.value
    assert str(exc) == "enumeration stopped in round w=2 after 8 of 50 " \
        "codewords: d in [4, 6]"
    assert (exc.spent, exc.budget, exc.lower, exc.upper) == (8, 50, 4, 6)
    # The whole search visits 98 words: 8, then 45 + 30 + 15 in round 2.
    assert exact_min_distance_enum(c, budget=98).exact == 5
    with pytest.raises(BudgetExceeded) as info:
        exact_min_distance_enum(c, budget=97)
    assert (info.value.spent, info.value.lower, info.value.upper) == \
        (83, 4, 5)
    rep = row_space_basis([[1] * 20], F2, 20)
    with pytest.raises(BudgetExceeded) as info:
        exact_min_distance_parity(rep, budget=1000)
    # level 1 visits 20 subsets, level 2 19 prefixes and 190 pairs; level 3
    # runs out of the 771 left
    exc = info.value
    assert str(exc) == "parity search stopped at level w=3 after 1000 of " \
        "1000 column subsets: d in [3, ?]"
    assert (exc.spent, exc.budget, exc.lower, exc.upper) == \
        (1000, 1000, 3, None)
    # [6,1,6]: levels 1-5 visit 114 subsets, level 6 five prefixes and one
    # leaf; a budget that ends with a level lets the search reach the next.
    rep = row_space_basis([[1] * 6], F2, 6)
    assert exact_min_distance_parity(rep, budget=120).exact == 6
    for budget, lower in [(119, 6), (114, 6), (113, 5)]:
        with pytest.raises(BudgetExceeded) as info:
            exact_min_distance_parity(rep, budget=budget)
        assert (info.value.spent, info.value.lower) == (budget, lower)


def test_negative_budget_is_rejected():
    # The code has the weight-1 word (0, 1, 0, 0): at budget -1 the parity
    # search's level 1 would scan columns 0 .. n - 2 and find column 1.
    code = row_space_basis([[0, 1, 0, 0], [0, 0, 1, 1]], F2, 4)
    assert exact_min_distance_parity(code, budget=2).exact == 1
    ternary = random_code(random.Random(5), make_field(3, 1), 6, 3)
    for engine in (exact_min_distance_enum, exact_min_distance_parity):
        for c in (code, ternary):
            for budget in (-1, -3):
                with pytest.raises(ValueError,
                                   match=f"budget {budget} is negative"):
                    engine(c, budget=budget)


def test_budgets_raise_never_truncate():
    # At every budget an engine either finds d or raises with d inside the
    # bracket it reports.
    rng = random.Random(101)
    for fld in (F2, make_field(3, 1), F4):
        code = random_code(rng, fld, 9, 3)
        d = exhaustive_distance(code)
        for engine in (exact_min_distance_enum, exact_min_distance_parity):
            outcomes = set()
            for budget in range(0, 3000, 11):
                try:
                    outcomes.add(engine(code, budget=budget).exact)
                except BudgetExceeded as exc:
                    assert exc.spent <= exc.budget == budget
                    assert exc.lower <= d
                    assert exc.upper is None or d <= exc.upper
                    outcomes.add("raised")
            assert outcomes == {d, "raised"}, (fld, engine)


def first_dependent_set_bruteforce(code):
    """The lexicographically first smallest set of parity-check columns of
    rank below its size, testing every subset."""
    hrows = kernel(code).generators
    cols = [[r[c] for r in hrows] for c in range(code.n)]
    for w in range(1, code.n + 1):
        for idxs in combinations(range(code.n), w):
            if rank([cols[i] for i in idxs], code.field) < w:
                return idxs
    raise AssertionError("no dependent set")


def test_parity_first_dependent_set_matches_bruteforce():
    rng = random.Random(97)
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4)] + \
            LARGE_FIELDS:
        fld = make_field(p, e)
        codes = []
        for _ in range(4):
            if (p, e) in LARGE_FIELDS:  # length at most 6, k at most 2
                n = rng.randrange(3, 7)
                codes.append(random_code(rng, fld, n, rng.randrange(1, 3)))
            else:
                n = rng.randrange(4, 13)
                codes.append(random_code(rng, fld, n, rng.randrange(1, n)))
        # parity-check matrices with nonzero columns, except a zero
        # column 5 in one and column 7 a multiple of column 2 in the other
        n = 9
        hcols = [[rng.randrange(fld.order) for _ in range(4)]
                 for _ in range(n)]
        for col in hcols:
            if not any(col):
                col[0] = 1
        c = rng.randrange(1, fld.order)
        for j, col in [(5, [0] * 4), (7, scale_row(fld, c, hcols[2]))]:
            shaped = hcols[:j] + [col] + hcols[j + 1:]
            codes.append(kernel(row_space_basis(zip(*shaped), fld, n)))
        codes.append(row_space_basis(
            [[int(i == j) for j in range(n)] for i in range(n)], fld, n))
        for code in codes:
            if code.k == 0:
                continue
            expected = first_dependent_set_bruteforce(code)
            res = exact_min_distance_parity(code)
            support = tuple(i for i, v in enumerate(res.witness) if v)
            assert (res.exact, support) == (len(expected), expected)
            assert code.contains(res.witness)
        assert exact_min_distance_parity(codes[-3]).exact == 1
        assert exact_min_distance_parity(codes[-2]).exact == 2
        assert exact_min_distance_parity(codes[-1]).exact == 1


def first_dependent_set_by_elimination(cols, w, packing, spent, budget):
    """_first_dependent_set as it was before the last level became a class
    lookup: every leaf column is eliminated against the last prefix column,
    and a leaf is dependent when it reduces to zero."""
    eliminate = packing.eliminate

    def exceeded():
        return BudgetExceeded(
            f"parity search stopped at level w={w} after {spent} of "
            f"{budget} column subsets: d in [{w}, ?]",
            spent=spent, budget=budget, lower=w, upper=None)

    def search(start, reduced, depth):
        nonlocal spent
        if depth == w - 1:
            room = budget - spent
            try:
                i = reduced.index(0, 0, room)
            except ValueError:
                if len(reduced) > room:
                    spent = budget
                    raise exceeded() from None
                spent += len(reduced)
                return None
            spent += i + 1
            return (start + i,)
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

    return search(0, cols, 0), spent


def packed_columns(fld, cols):
    """The columns packed as row_packing packs a row of their height, and
    that packing."""
    cols = list(cols)
    packing = row_packing(fld, len(cols[0]))
    return [packing.pack(col) for col in cols], packing


def dependent_set_outcome(search, cols, w, packing, spent, budget):
    """What one level of a search returns or raises, as comparable data."""
    try:
        return "found", search(cols, w, packing, spent, budget)
    except BudgetExceeded as exc:
        return "budget", str(exc), exc.spent, exc.budget, exc.lower, exc.upper
    except AssertionError as exc:
        return "dependent prefix", str(exc)


def shaped_columns(rng, fld, n):
    """Random nonzero columns of height 4, and copies with a zero column or
    with two parallel columns, first or further on."""
    q = fld.order
    cols = [[rng.randrange(q) for _ in range(4)] for _ in range(n)]
    for col in cols:
        if not any(col):
            col[0] = 1
    yield cols
    for j in (0, 5):
        yield cols[:j] + [[0] * 4] + cols[j + 1:]
    for i, j in ((0, 1), (2, 7)):
        c = rng.randrange(1, q)
        yield cols[:j] + [scale_row(fld, c, cols[i])] + cols[j + 1:]


# F_2 in bits, F_4 and F_16 in byte lanes, F_3 and F_9 in digit lanes, and
# the fields of order above 256.
LOOKUP_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 4), *LARGE_FIELDS]


def test_last_level_lookup_matches_elimination_on_codes():
    # Level by level, as exact_min_distance_parity runs them.
    rng = random.Random(103)
    for p, e in LOOKUP_FIELDS:
        fld = make_field(p, e)
        for _ in range(5):
            n = rng.randrange(4, 7 if fld.order > 127 else 11)
            code = random_code(rng, fld, n, rng.randrange(1, n))
            hrows = kernel(code).generators
            if not hrows:
                continue
            cols, packing = packed_columns(fld, zip(*hrows))
            spent = 0
            for w in range(1, n + 1):
                found, after = _first_dependent_set(cols, w, packing, spent,
                                                    1 << 40)
                assert (found, after) == first_dependent_set_by_elimination(
                    cols, w, packing, spent, 1 << 40), (fld, w)
                # Every budget that stops inside this level, or just
                # lets it finish.
                for budget in range(spent, after + 2):
                    assert dependent_set_outcome(
                        _first_dependent_set, cols, w, packing, spent,
                        budget) == dependent_set_outcome(
                        first_dependent_set_by_elimination, cols, w, packing,
                        spent, budget), (fld, w, budget)
                spent = after
                if found is not None:
                    break


def test_last_level_lookup_matches_elimination_on_shaped_columns():
    # Zero and parallel columns make dependent leaves under every prefix,
    # and dependent prefixes once they come first.
    rng = random.Random(107)
    outcomes = set()
    for p, e in LOOKUP_FIELDS:
        fld = make_field(p, e)
        for cols in shaped_columns(rng, fld, 9):
            cols, packing = packed_columns(fld, cols)
            for w in range(1, 5):
                full = dependent_set_outcome(
                    first_dependent_set_by_elimination, cols, w, packing, 3,
                    1 << 40)
                assert dependent_set_outcome(
                    _first_dependent_set, cols, w, packing, 3, 1 << 40) == \
                    full
                # Up to one past the budget the level takes, or past the
                # dependent prefix.
                last = full[1][1] if full[0] == "found" else 30
                for budget in range(3, last + 2):
                    outcome = dependent_set_outcome(
                        _first_dependent_set, cols, w, packing, 3, budget)
                    assert outcome == dependent_set_outcome(
                        first_dependent_set_by_elimination, cols, w, packing,
                        3, budget), (fld, w, budget)
                    outcomes.add(outcome[0])
    assert outcomes == {"found", "budget", "dependent prefix"}


def test_systematic_parity_columns_match_canonical_dual():
    # The parity search reads the packed columns of the systematic rows
    # [-A^T | I]; the canonical dual's columns give every outcome alike,
    # level by level up to one past the first dependent set, and at every
    # budget from a level's start to one past its end.
    rng = random.Random(109)
    outcomes = set()
    for p, e in LOOKUP_FIELDS:
        fld = make_field(p, e)
        codes = []
        for _ in range(5):
            n = rng.randrange(4, 7 if fld.order > 127 else 11)
            codes.append(random_code(rng, fld, n, rng.randrange(1, n)))
        # A zero column and parallel columns, first or further on.
        for cols in list(shaped_columns(rng, fld, 9))[1:]:
            codes.append(kernel(row_space_basis(zip(*cols), fld, 9)))
        for code in codes:
            n = code.n
            if code.k == n:  # no parity checks
                continue
            cols, packing = _parity_columns(code)
            canonical = [packing.pack(col)
                         for col in zip(*kernel(code).generators)]
            spent, last = 0, n
            for w in range(1, last + 1):
                full = dependent_set_outcome(_first_dependent_set, cols, w,
                                             packing, spent, 1 << 40)
                # Past the first dependent set, a prefix is dependent.
                end = full[1][1] if full[0] == "found" else spent + 30
                for budget in [*range(spent, end + 2), 1 << 40]:
                    outcome = dependent_set_outcome(
                        _first_dependent_set, cols, w, packing, spent, budget)
                    assert outcome == dependent_set_outcome(
                        _first_dependent_set, canonical, w, packing, spent,
                        budget), (fld, w, budget)
                    outcomes.add(outcome[0])
                if w == last:
                    break
                if full[0] == "found":
                    found, spent = full[1]
                    if found is not None:
                        last = w + 1
    assert outcomes == {"found", "budget", "dependent prefix"}


def test_zero_code_rejected():
    zero = LinearCode(F2, 4, ())
    with pytest.raises(ValueError):
        exact_min_distance_enum(zero)
    with pytest.raises(ValueError):
        exact_min_distance_parity(zero)


def test_full_space_distance_one():
    full = row_space_basis([[1, 0], [0, 1]], F2, 2)
    assert exact_min_distance_parity(full).exact == 1
    # The dual of the full space is zero, so every parity-check column is
    # the empty vector: over every packing, level 1 finds column 0 with
    # witness e_0, and with no budget the search raises as for any code.
    for fld in (F2, F4, make_field(3, 2),
                *(make_field(p, e) for p, e in LARGE_FIELDS)):
        full = row_space_basis([[int(i == j) for j in range(5)]
                                for i in range(5)], fld, 5)
        assert exact_min_distance_parity(full) == DistanceResult(
            1, "column-dependence", (1, 0, 0, 0, 0))
        with pytest.raises(BudgetExceeded) as info:
            exact_min_distance_parity(full, budget=0)
        exc = info.value
        assert (exc.spent, exc.budget, exc.lower, exc.upper) == \
            (0, 0, 1, None)


def test_subcode_distances():
    res = exact_min_distance_parity(subfield_subcode_of_ent(NT5, 60, 4))
    assert res.exact == 4
    res = exact_min_distance_parity(subfield_subcode_of_ent(NT5, 62, 4))
    assert res.exact == 4


def test_parity_search_streams_subsets():
    # Level w=4 of this [64,39,4] code has C(64,4) = 635376 subsets; as a
    # list of tuples they take about 60 MB.
    code = subfield_subcode_of_ent(make_curve(2, 2, 2, 5), 60, 2)
    assert (code.n, code.k) == (64, 39)
    tracemalloc.start()
    try:
        res = exact_min_distance_parity(code)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.exact == 4
    assert peak < 4 * 2**20


def test_bound_sound_against_supercode_distances():
    from normtrace.codes import build_code
    for curve, s in [(NT3, 36), (NT5, 60), (NT5, 62), (NT5, 65)]:
        d = exact_min_distance_parity(build_code(curve, s)).exact
        assert geil_bound(curve, s) <= d


def min_distance_by_levels(code, budget):
    """exact_min_distance_parity as it was before clean levels were proved
    by meeting in the middle: _first_dependent_set on every level in
    turn."""
    cols, packing = _parity_columns(code)
    spent = 0
    for w in range(1, code.n + 1):
        found, spent = _first_dependent_set(cols, w, packing, spent, budget)
        if found is not None:
            return DistanceResult(w, "column-dependence",
                                  _dependence_witness(cols, found, packing))
    raise AssertionError("no dependent column set in a code with k > 0")


def parity_outcome(engine, code, budget):
    """What a parity engine returns or raises, as comparable data."""
    try:
        return "found", engine(code, budget)
    except BudgetExceeded as exc:
        return "budget", str(exc), exc.spent, exc.budget, exc.lower, exc.upper
    except AssertionError as exc:
        return "internal error", str(exc)


def level_ends(code, levels):
    """The subsets the level-by-level search has visited at the end of each
    of its first `levels` levels, up to the first dependent set."""
    cols, packing = _parity_columns(code)
    ends = [0]
    for w in range(1, min(levels, code.n) + 1):
        found, spent = _first_dependent_set(cols, w, packing, ends[-1],
                                            1 << 40)
        ends.append(spent)
        if found is not None:
            break
    return ends


def parity_mismatches(cases):
    """The (code, budget) pairs on which exact_min_distance_parity and the
    level-by-level search differ, for (code, levels, every) in cases, over
    the first `levels` levels up to the first dependent set.

    The budgets are one below, at and one past the end of each level, and
    of each level's threshold (its start plus level_cost) where the stored
    side is small enough for the collision test to run from there on;
    with `every`, also every budget from 0 to one past the end of the last
    level when that end is below 120, else every (end // 60)-th."""
    bad = []
    for code, levels, every in cases:
        n, q = code.n, code.field.order
        ends = level_ends(code, levels)
        marks = ends + [start + level_cost(n, w)
                        for w, start in enumerate(ends[2:], 3)
                        if _meets_in_middle(n, q, w)]
        budgets = {b for mark in marks for b in (mark - 1, mark, mark + 1)
                   if b >= 0}
        if every:
            budgets.update(range(0, ends[-1] + 2, max(1, ends[-1] // 60)))
        for budget in sorted(budgets):
            if parity_outcome(exact_min_distance_parity, code, budget) != \
                    parity_outcome(min_distance_by_levels, code, budget):
                bad.append((code, budget))
    return bad


# F_2 in bits, F_3 and F_9 in digit lanes, F_4, F_8 and F_16 in 8-bit lanes.
COLLISION_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (2, 4)]


def random_parity_cases(rng):
    # Over F_2 and F_3 from length 11 on, where the collision test runs.
    for p, e in COLLISION_FIELDS:
        fld = make_field(p, e)
        for _ in range(3):
            n = rng.randrange(11 if fld.order < 4 else 5, 18)
            code = random_code(rng, fld, n, rng.randrange(n // 3, n // 2 + 1))
            if code.k:  # levels past 6 would take most of the time
                yield code, 6, True


def mindist_codes():
    """The codes of the mindist benchmark workload, and the binary
    [32,17,6], whose levels 3-5 are all proved by meeting in the middle."""
    for params, s, t in [((2, 1, 4, 3), 36, 2), ((3, 1, 2, 4), 16, 3),
                         ((2, 2, 2, 5), 60, 2), ((2, 1, 4, 15), 189, 2),
                         ((2, 2, 2, 5), 60, 4), ((2, 2, 2, 5), 63, 4),
                         ((2, 1, 4, 3), 33, 2)]:
        yield subfield_subcode_of_ent(make_curve(*params), s, t)


def walked_sums(flat, step, count, size, first_one, packing):
    """The reduced words s + t of every visit _walk makes, as entry
    tuples, and the number of visits."""
    words, visits = Counter(), [0]

    def visit(s, tail):
        visits[0] += 1
        words.update(tuple(packing.unpack(packing.reduce(packing.add(s, t))))
                      for t in tail)
        return False

    assert _walk(flat, step, count, size, first_one, packing, visit) is False
    return words, visits[0]


def sums_by_definition(fld, rows, size, first_one):
    """Every sum of size of the rows with nonzero coefficients, the first
    1 when first_one, summed entry by entry."""
    scaled = [[scale_row(fld, c, row) for c in range(1, fld.order)]
              for row in rows]
    words = Counter()
    for idxs in combinations(range(len(rows)), size):
        first, *rest = (scaled[i] for i in idxs)
        for terms in product(first[:1] if first_one else first, *rest):
            words[tuple(reduce(partial(map, fld.add), terms))] += 1
    return words


def test_walk_visits_every_sum_once_on_every_packing():
    # F_2 (bits), F_4 and F_16 (8-bit lanes), F_512 (16-bit lanes), F_3 and
    # F_9 (digit lanes), F_127 (a prefix reduced after every addition) and
    # F_729 (digit lanes above order 256): the words visited are the sums
    # of size rows with nonzero coefficients, each once.
    rng = random.Random(131)
    for p, e in [(2, 1), (2, 2), (2, 4), (2, 9), (3, 1), (3, 2), (127, 1),
                 (3, 6)]:
        fld = make_field(p, e)
        step = fld.order - 1
        walked = 0
        for _ in range(3):
            n, count = rng.randrange(3, 8), rng.randrange(2, 6)
            rows = [[rng.randrange(fld.order) for _ in range(n)]
                    for _ in range(count)]
            packing = row_packing(fld, n)
            flat = [t for times in _column_multiples(
                map(packing.pack, rows), packing) for t in times]
            for size in range(1, count + 1):
                for first_one in (False, True):
                    total = comb(count, size) * step ** (size - first_one)
                    if total > 40000:
                        continue
                    words, visits = walked_sums(flat, step, count, size,
                                                first_one, packing)
                    assert words == sums_by_definition(
                        fld, rows, size, first_one), (fld, size, first_one)
                    assert sum(words.values()) == total
                    # One visit per prefix: size - 1 of the rows before
                    # the last, with their coefficients.
                    assert visits == (1 if size == 1 else comb(
                        count - 1, size - 1) * step ** (size - 1 - first_one))
                    walked += size > 2
        assert walked or fld.order > 256, fld


def test_walk_stops_at_the_first_true_visit():
    fld = make_field(3, 1)
    packing = row_packing(fld, 4)
    rows = [[1, 0, 2, 1], [0, 1, 1, 2], [2, 2, 0, 1], [1, 1, 1, 0]]
    flat = [t for times in _column_multiples(map(packing.pack, rows),
                                             packing) for t in times]
    _, visits = walked_sums(flat, 2, 4, 3, False, packing)
    for stop in range(1, visits + 1):
        seen = []

        def visit(s, tail):
            seen.append(s)
            return len(seen) == stop

        assert _walk(flat, 2, 4, 3, False, packing, visit) is True
        assert len(seen) == stop


def test_collision_test_matches_search_level_by_level():
    # Random parity-check columns over every packing of columns, and the
    # 16-bit entries of F_512: on every level w >= 3 up to the first
    # dependent set, the collision test finds a dependent w-set exactly
    # when the depth-first search does.
    rng = random.Random(113)
    tested, levels = Counter(), Counter()
    fields = COLLISION_FIELDS + [(2, 9), (5, 1), (7, 2)]
    for p, e in fields:
        fld = make_field(p, e)
        for _ in range(12):
            n, m = rng.randrange(6, 15), rng.randrange(3, 7)
            rows = [[rng.randrange(fld.order) for _ in range(n)]
                    for _ in range(m)]
            cols, packing = packed_columns(fld, zip(*rows))
            multiples = _column_multiples(cols, packing)
            spent = 0
            for w in range(1, n + 1):
                found, spent = _first_dependent_set(cols, w, packing, spent,
                                                    1 << 40)
                # With at most 5000 words stored.
                if w >= 3 and comb(n, w // 2) * \
                        (fld.order - 1) ** (w // 2) <= 5000:
                    assert _has_dependent_set(multiples, packing, w) == \
                        (found is not None), (fld, n, m, w)
                    tested[p, e] += 1
                    levels[w, found is not None] += 1
                if found is not None:
                    break
    assert all(tested[field] for field in fields)
    assert all(levels[w, True] for w in (3, 4, 5))
    assert all(levels[w, False] for w in (3, 4))


def test_parity_matches_level_by_level_search_at_every_budget(monkeypatch):
    # Random codes of length 5-17 over F_2, F_3, F_4, F_8, F_9 and F_16;
    # the collision test both proves levels clean and finds dependent sets.
    results = Counter()

    def has_dependent_set(*args):
        found = _has_dependent_set(*args)
        results[found] += 1
        return found

    monkeypatch.setattr(distance, "_has_dependent_set", has_dependent_set)
    assert parity_mismatches(random_parity_cases(random.Random(127))) == []
    assert results[True] and results[False]


def test_parity_matches_level_by_level_search_on_mindist_codes():
    # Every level of the d = 4 and d = 6 codes, and levels 1-5 of the
    # [27,8,11] code over F_3, whose whole search takes seconds.
    codes = list(mindist_codes())
    assert parity_mismatches([(code, 5 if code.field.p == 3 else 6, False)
                              for code in codes]) == []
    for code in codes:
        if code.field.p == 2:
            assert exact_min_distance_parity(code) == \
                min_distance_by_levels(code, DEFAULT_BUDGET)


def test_collision_test_forced_clean_is_caught(monkeypatch):
    # A collision test that calls every level clean skips the level that
    # holds the first dependent set; the comparison must see it.
    monkeypatch.setattr(distance, "_has_dependent_set", lambda *args: False)
    code = next(mindist_codes())  # [32,25,4]: level 4 takes the test
    assert parity_mismatches([(code, 4, False)])


def test_stored_words_are_capped_whatever_the_budget(monkeypatch):
    # A budget of 2^60 would let n * stored <= level_cost admit level 12 of
    # 64 binary columns, comb(64, 6) = 75 M stored words; the cap refuses
    # it.  With the cap at 100 words, the [32,17,6] code takes the test on
    # level 3 (32 words stored) only, and searches levels 4-6 (496 words),
    # with the result of the search on every level.
    assert 64 * comb(64, 6) <= level_cost(64, 12)
    assert not _meets_in_middle(64, 2, 12)
    tested = []

    def has_dependent_set(mults, packing, w):
        tested.append(w)
        return _has_dependent_set(mults, packing, w)

    monkeypatch.setattr(distance, "_has_dependent_set", has_dependent_set)
    monkeypatch.setattr(distance, "MEET_STORED_MAX", 100)
    code = list(mindist_codes())[-1]
    assert (code.n, code.k) == (32, 17)
    assert exact_min_distance_parity(code, 1 << 60) == \
        min_distance_by_levels(code, 1 << 60)
    assert tested == [3]


def test_level_cost_counts_clean_levels():
    # Vandermonde columns (1, a, ..., a^4) for distinct a in F_16: any five
    # are independent, so levels 2-5 are clean.
    fld = make_field(2, 4)
    for n in range(2, 15):
        cols, packing = packed_columns(
            fld, [[fld.pow(a, i) for i in range(5)] for a in range(n)])
        for w in range(2, min(n, 5) + 1):
            found, spent = _first_dependent_set(cols, w, packing, 0, 1 << 40)
            assert (found, spent) == (None, level_cost(n, w)), (n, w)
    assert (level_cost(64, 2), level_cost(64, 3)) == (2079, 43679)
