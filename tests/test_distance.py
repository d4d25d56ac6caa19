import random
import tracemalloc
from itertools import combinations

import pytest

from normtrace.curves import make_curve
from normtrace.distance import (BudgetExceeded, exact_min_distance_enum,
                                exact_min_distance_parity, geil_bound,
                                is_even_weight)
from normtrace.fields import FieldError, make_field
from normtrace.linalg import LinearCode, kernel, rank, row_space_basis
from normtrace.monomials import footprint, footprint_paper_variant, weight
from normtrace.subfield import subfield_subcode_of_ent

NT3 = make_curve(2, 1, 4, 3)
NT5 = make_curve(2, 1, 4, 5)
F2 = make_field(2, 1)
F4 = make_field(2, 2)
F16 = make_field(2, 4)


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


def test_oracles_agree_on_random_codes():
    rng = random.Random(79)
    for fld in (F2, F4, F16):
        for _ in range(6):
            n = rng.randrange(6, 13)
            k = rng.randrange(2, 5)
            c = random_code(rng, fld, n, k)
            if c.k == 0:
                continue
            d1 = exact_min_distance_enum(c).exact
            d2 = exact_min_distance_parity(c).exact
            assert d1 == d2
            # brute-force check of the witness
            res = exact_min_distance_enum(c)
            assert sum(1 for v in res.witness if v) == d1
            assert c.contains(res.witness)


def test_budget_errors():
    rng = random.Random(89)
    c = random_code(rng, F16, 10, 4)
    with pytest.raises(BudgetExceeded) as info:
        exact_min_distance_enum(c, budget=100)
    exc = info.value
    assert str(exc) == "16^4 codewords exceed budget 100"
    assert (exc.needed, exc.spent, exc.budget, exc.level) == \
        (16**4 - 1, 0, 100, None)
    rep = row_space_basis([[1] * 20], F2, 20)
    with pytest.raises(BudgetExceeded) as info:
        exact_min_distance_parity(rep, budget=1000)
    # levels 1 and 2 cost 20 + 190 * 2 units; level 3 needs 1140 * 3
    exc = info.value
    assert str(exc) == "level w=3 needs 3420 units, 600 left"
    assert (exc.needed, exc.spent, exc.budget, exc.level) == \
        (3420, 400, 1000, 3)


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
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4)]:
        fld = make_field(p, e)
        codes = []
        for _ in range(4):
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
        for j, col in [(5, [0] * 4), (7, fld.scale_row(c, hcols[2]))]:
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


def test_zero_code_rejected():
    zero = LinearCode(F2, 4, ())
    with pytest.raises(ValueError):
        exact_min_distance_enum(zero)
    with pytest.raises(ValueError):
        exact_min_distance_parity(zero)


def test_full_space_distance_one():
    full = row_space_basis([[1, 0], [0, 1]], F2, 2)
    assert exact_min_distance_parity(full).exact == 1


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
        d = exact_min_distance_parity(build_code(curve, s).code).exact
        assert geil_bound(curve, s) <= d
