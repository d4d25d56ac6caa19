import random

import pytest

from normtrace.fields import FieldError, make_field
from normtrace.linalg import (BitRows, DigitLanes, LaneRows,
                              LinearCode, entrywise, kernel,
                              matrix_product_is_zero, rank, row_packing,
                              row_space_basis, row_type, rref)

F2 = make_field(2, 1)
F4 = make_field(2, 2)
F16 = make_field(2, 4)


def scale_row(fld, c, row):
    """The row c * row, one field product per entry."""
    return [fld.mul(c, v) for v in row]


def random_code(rng, fld, n, k):
    rows = [[rng.randrange(fld.order) for _ in range(n)] for _ in range(k)]
    return row_space_basis(rows, fld, n)


def test_row_space_examples():
    c = row_space_basis([[1, 1], [0, 0]], F2, 2)
    assert c.k == 1 and list(map(tuple, c.generators)) == [(1, 1)]
    c = row_space_basis([[1, 3], [1, 3]], F4, 2)
    assert c.k == 1
    assert row_space_basis([], F2, 3) == LinearCode(F2, 3, ())
    with pytest.raises(ValueError):
        row_space_basis([], F2, 0)
    with pytest.raises(ValueError):
        row_space_basis([[1, 0], [1]], F2, 2)


@pytest.mark.parametrize("rows,fault", [
    ([[1, 0, 1, 0]], "length 4, not 3"),
    ([[1, 0, 1], [0, 1]], "length 2, not 3"),
    ([[0, 1, 0], [1, 0, 0]], "leading columns do not increase"),
    ([[1, 0, 0], [0, 0, 1], [0, 0, 1]], "leading columns do not increase"),
    ([[1, 0, 0], [0, 0, 0]], "does not lead with 1"),  # a zero row
    ([[2, 0, 0]], "does not lead with 1"),
    ([[1, 0, 0], [0, 3, 1]], "does not lead with 1"),
    ([[1, 2, 0], [0, 1, 0]], "nonzero at the leading column of another"),
    ([[1, 0, 4], [0, 1, 0], [0, 0, 1]],
     "nonzero at the leading column of another"),
], ids=str)
def test_linear_code_rejects_rows_not_in_echelon_form(rows, fault):
    for fld in (make_field(5, 1), make_field(2, 9)):  # bytes and tuples
        with pytest.raises(ValueError, match=fault):
            LinearCode(fld, 3, rows)


def test_echelon_form_is_canonical():
    rng = random.Random(43)
    for _ in range(30):
        c = random_code(rng, F16, 8, 3)
        # recombine rows: new basis, same span
        rows = [list(r) for r in c.generators]
        mixed = [rows[0],
                 [F16.add(a, b) for a, b in zip(rows[0], rows[-1])]] + rows[1:]
        rng.shuffle(mixed)
        assert row_space_basis(mixed, F16, 8) == c


def dot(fld, a, b):
    total = 0
    for x, y in zip(a, b):
        total = fld.add(total, fld.mul(x, y))
    return total


def test_kernel_dimensions_and_orthogonality():
    rng = random.Random(47)
    for fld in (F2, F4, F16, make_field(3, 1), make_field(5, 2),
                make_field(127, 1), make_field(2, 10), make_field(17, 2)):
        for _ in range(10):
            c = random_code(rng, fld, 10, 4)
            dual = kernel(c)
            assert c.k + dual.k == 10
            assert all(dot(fld, a, b) == 0
                       for a in c.generators for b in dual.generators)
            assert kernel(dual) == c


def test_kernel_extremes():
    full = row_space_basis([[1, 0], [0, 1]], F2, 2)
    assert kernel(full).k == 0
    zero = LinearCode(F2, 2, ())
    assert kernel(zero).k == 2


def test_codeword_and_contains():
    c = row_space_basis([[1, 0, 1], [0, 1, 1]], F2, 3)
    assert c.pivots == (0, 1)
    assert c.codeword([1, 1]) == (1, 1, 0)
    assert c.contains((1, 1, 0))
    assert not c.contains((1, 0, 0))
    assert not c.contains((1,))
    assert LinearCode(F2, 3, ()).contains((0, 0, 0))
    assert not LinearCode(F2, 3, ()).contains((0, 1, 0))


def reference_rref(rows, fld):
    """Per-entry Gauss-Jordan elimination through the field's scalar calls."""
    rows = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = fld.inv(rows[rank][col])
        rows[rank] = [fld.mul(inv, v) for v in rows[rank]]
        for r in range(len(rows)):
            c = rows[r][col]
            if r != rank and c:
                rows[r] = [fld.sub(v, fld.mul(c, w))
                           for v, w in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows[:rank], pivots


# The packing each test field gets: bits over F_2, 8-bit lanes over F_4
# ... F_256 and 16-bit lanes over F_512 ... F_{2^16}, byte lanes per digit
# over the odd fields with p <= 127, up to F_{3^10}, the largest order of
# characteristic 3 below the 2^16 cap.
PACKING = {(2, 1): BitRows, **{(2, e): LaneRows for e in (*range(2, 11), 16)},
           **{(p, e): DigitLanes for p, e in [
               (3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2),
               (11, 2), (5, 3), (3, 5), (127, 1), (3, 6), (17, 2),
               (3, 10), (17, 3)]}}

KERNEL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 2),
                 (3, 3), (3, 6), (2, 10), (2, 16), (17, 2), (3, 10), (17, 3)]


def kernel_matrices(rng, fld):
    def rand(nrows, ncols, density=1.0):
        return [[rng.randrange(fld.order) if rng.random() < density else 0
                 for _ in range(ncols)] for _ in range(nrows)]
    low_rank = rand(2, 7)
    yield []
    yield [[]]
    yield [[0] * 5 for _ in range(3)]
    yield [[1, 0, 2 % fld.order, 1]] * 3  # duplicate rows
    yield rand(12, 4)  # tall
    yield rand(3, 11)  # wide
    yield rand(6, 6, density=0.3)
    yield [low_rank[i % 2] for i in range(5)] + rand(1, 7)
    yield [scale_row(fld, rng.randrange(fld.order), low_rank[0])
           for _ in range(4)]


def test_rref_matches_per_entry_reference():
    rng = random.Random(59)
    for p, e in KERNEL_FIELDS:
        fld = make_field(p, e)
        assert type(row_packing(fld, 4)) is PACKING[p, e]
        for rows in kernel_matrices(rng, fld):
            expect = reference_rref(rows, fld)
            assert rref(rows, fld) == expect
            assert rref([tuple(r) for r in rows], fld) == expect


def test_insert_matches_rref_on_every_packing():
    """Rows inserted one at a time into an echelon basis, on every packing:
    BitRows and DigitLanes with their own insert (e = 1 and e > 1), LaneRows
    with the shared one.  The 1s returned add up to the rank, the basis's
    pivot columns are rref's, and a zero row returns 0 and leaves the
    basis as it was."""
    rng = random.Random(67)
    for p, e in KERNEL_FIELDS:
        fld = make_field(p, e)
        for rows in kernel_matrices(rng, fld):
            if not rows or not rows[0]:
                continue
            packing = row_packing(fld, len(rows[0]))
            basis = {}
            taken = sum(packing.insert(basis, packing.pack(row))
                        for row in rows)
            reduced, pivots = rref(rows, fld)
            assert taken == len(reduced), (p, e)
            assert sorted(basis) == pivots, (p, e)
            before = dict(basis)
            assert packing.insert(basis, 0) == 0
            assert basis.keys() == before.keys() and \
                all(basis[col] is before[col] for col in before)


def test_square_full_rank_entry_rows_match_reference():
    """A square full-rank matrix over F_289, F_512, F_729 and F_1024, the
    fields of the (17,1,2,1), (2,3,3,1), (3,1,6,1) and (2,1,10,1) curves,
    as their Newton rows give one: forward elimination leaves a triangle,
    and back substitution clears every entry above the diagonal, with unit
    rows below.  Also a triangle whose finished rows are dense."""
    for p, e in [(17, 2), (2, 9), (3, 6), (2, 10)]:
        fld = make_field(p, e)
        assert type(row_packing(fld, 30)) is PACKING[p, e]
        rng = random.Random(fld.order)
        rows = [[rng.randrange(fld.order) for _ in range(30)]
                for _ in range(30)]
        expect = reference_rref(rows, fld)
        assert expect[1] == list(range(30))
        assert rref(rows, fld) == expect
        upper = [[0] * i + [rng.randrange(1, fld.order)] +
                 [rng.randrange(fld.order) for _ in range(29 - i)]
                 for i in range(30)]
        assert rref(upper, fld) == reference_rref(upper, fld)
        rows, expect = triangle(fld, 20, rng.randrange(2, fld.order), 10)
        assert rref(rows, fld) == expect == reference_rref(rows, fld)


@pytest.mark.parametrize("p,e", [(131, 1), (251, 2)], ids=str)
def test_no_packing_above_characteristic_127(p, e):
    """Two reduced digits of F_131 or F_{251^2} can pass 255 in a byte
    lane: row_packing, and so rref, raise FieldError naming p.  The field
    itself still builds."""
    fld = make_field(p, e)
    assert fld.mul(2, fld.inv(2)) == 1
    with pytest.raises(FieldError, match=f"characteristic {p} "):
        row_packing(fld, 4)
    with pytest.raises(FieldError, match=f"characteristic {p} "):
        rref([[1, 2, 3]], fld)


# Every packing: F_2 in BitRows, F_4 ... F_{2^16} in LaneRows of both lane
# widths, and F_3 ... F_{3^10} in DigitLanes with one to ten digits per
# entry and p up to 127.
LANE_FIELDS = [make_field(p, e) for p, e in PACKING]


def some_elements(rng, fld):
    """Every element of a field of order at most 1024; else 0, 1, -1, the
    powers of x and 256 random elements."""
    if fld.order <= 1024:
        return list(fld.elements())
    return sorted({0, 1, fld.order - 1, *fld.powers(fld.p, fld.e),
                   *(rng.randrange(fld.order) for _ in range(256))})


@pytest.mark.parametrize("fld", LANE_FIELDS, ids=repr)
def test_lane_multiples_match_field_products(fld):
    rng = random.Random(fld.order)
    row = some_elements(rng, fld)
    packing = row_packing(fld, len(row))
    assert type(packing) is PACKING[fld.p, fld.e]
    v = packing.pack(row)
    assert packing.unpack(v) == row
    # Every product of the map, and each one alone.
    times = packing.multiples(v)
    for c in some_elements(rng, fld):
        assert packing.unpack(times[packing.key(c)]) == \
            packing.unpack(packing.scale(c, v)) == [fld.mul(c, v)
                                                    for v in row]
    # Sums and weights: row plus a random row, plus -row and plus zero.
    others = [[rng.randrange(fld.order) for _ in row],
              [fld.neg(v) for v in row], [0] * len(row)]
    words = [packing.pack(other) for other in others]
    sums = [[fld.add(a, b) for a, b in zip(row, other)] for other in others]
    assert [packing.unpack(packing.reduce(packing.add(v, t)))
            for t in words] == sums
    assert list(packing.weights(v, words)) == [
        len(row) - total.count(0) for total in sums]


@pytest.mark.parametrize("fld", LANE_FIELDS, ids=repr)
def test_monic_matches_per_entry_scaling(fld):
    rng = random.Random(fld.order + 1)
    for width in (1, 8, 129):
        packing = row_packing(fld, width)
        assert type(packing) is PACKING[fld.p, fld.e]
        rows = [[rng.randrange(fld.order) for _ in range(width)]
                for _ in range(4)]
        # Leads in the first column, and a lead in the last column.
        rows += [[rng.randrange(1, fld.order)] + row[1:] for row in rows]
        rows.append([0] * (width - 1) + [fld.order - 1])
        for row in rows:
            if not any(row):
                continue
            lead = next(x for x in row if x)
            key = packing.monic(packing.pack(row))
            assert packing.unpack(key) == [fld.mul(fld.inv(lead), x)
                                           for x in row]
            # Every nonzero multiple of the row has the same key.
            c = rng.randrange(1, fld.order)
            assert packing.monic(packing.pack(scale_row(fld, c, row))) == \
                key
            hash(key)


def lane_matrices(rng, fld, width):
    def rand(nrows, density=1.0):
        return [[rng.randrange(fld.order) if rng.random() < density else 0
                 for _ in range(width)] for _ in range(nrows)]
    base = rand(3)
    yield rand(1)
    yield rand(5)
    yield rand(12, density=0.3)
    # Leading entries other than 1, so each pivot row needs an inverse.
    yield [scale_row(fld, rng.randrange(2, fld.order) if fld.order > 2
                     else 1, row) for row in rand(6)]
    # Duplicate and scaled copies of three rows, and a zero row.
    yield [base[i % 3] for i in range(7)] + \
        [scale_row(fld, rng.randrange(1, fld.order), base[1]), [0] * width]
    # Zero columns before and between the pivots.
    yield [[0] * (width // 2) + row[width // 2:] for row in rand(4, 0.5)]


@pytest.mark.parametrize("fld", LANE_FIELDS, ids=repr)
def test_lane_rref_matches_per_entry_reference(fld):
    rng = random.Random(fld.e)
    for width in (1, 7, 8, 9, 129):
        for rows in lane_matrices(rng, fld, width):
            expect = reference_rref(rows, fld)
            assert rref(rows, fld) == expect
            assert rref([tuple(r) for r in rows], fld) == expect
            if fld.order <= 256:
                assert rref([bytes(r) for r in rows], fld) == expect


def triangle(fld, size, c, tail):
    """Rows R_i = P_i + c * sum_{j>i} P_j and their reduced echelon form P,
    where P_i is 1 at column i and -1 at the tail columns after the first
    size.  R_i is c at every later pivot column, so back substitution
    clears size - 1 - i entries of one value from row i (with one digit
    pattern), and adds as many images of the P_j, each -1 = p - 1 in its
    first digit lane at every tail column."""
    minus = fld.neg(1)
    echelon = [[0] * i + [1] + [0] * (size - 1 - i) + [minus] * tail
               for i in range(size)]
    rows, later = [], 0
    for i in range(size - 1, -1, -1):
        rows.insert(0, [0] * i + [1] + [c] * (size - 1 - i) +
                    [fld.mul(minus, fld.add(1, later))] * tail)
        later = fld.add(later, c)
    return rows, (echelon, list(range(size)))


@pytest.mark.parametrize("fld", LANE_FIELDS, ids=repr)
def test_back_substitution_of_equal_entries_matches_reference(fld):
    rng = random.Random(fld.order + 2)
    for c in {1, fld.order - 1, rng.randrange(1, fld.order)}:
        rows, expect = triangle(fld, 9, c, 5)
        assert rref(rows, fld) == expect == reference_rref(rows, fld)


@pytest.mark.parametrize("p,e,size,width", [
    (3, 1, 140, 150),  # one sum of 139 rows, past span + 1 = 127
    (127, 1, 24, 40),  # span = 1: every sum of three rows is split
    (5, 2, 40, 60),    # F_25 and F_27: the digits past the first take
    (3, 3, 40, 60),    # part in the sums
])
def test_grouped_back_substitution_matches_reference(p, e, size, width):
    fld = make_field(p, e)
    packing = row_packing(fld, width)
    assert type(packing) is DigitLanes
    rng = random.Random(p * e)
    c = rng.randrange(p, fld.order) if e > 1 else p - 1
    rows, expect = triangle(fld, size, c, width - size)
    if (p, e) == (3, 1):
        assert size - 1 > packing.span + 1
    assert rref(rows, fld) == expect == reference_rref(rows, fld)
    rows = [[rng.randrange(fld.order) for _ in range(width)]
            for _ in range(size)]
    assert rref(rows, fld) == reference_rref(rows, fld)


@pytest.mark.parametrize("fld", LANE_FIELDS, ids=repr)
def test_rref_from_start_matches_reference_block(fld):
    """rref(rows, fld, start): the reference form's rows with pivot at
    least start, without their first start entries, pivots counted from
    start."""
    rng = random.Random(fld.order + 3)
    for width in (1, 8, 129):
        for rows in lane_matrices(rng, fld, width):
            full, pivots = reference_rref(rows, fld)
            for start in sorted({0, 1, width // 2, width}):
                expect = ([row[start:] for row, col in zip(full, pivots)
                           if col >= start],
                          [col - start for col in pivots if col >= start])
                assert rref(rows, fld, start) == expect, start
                if fld.order <= 256:
                    assert rref([bytes(r) for r in rows], fld, start) == \
                        expect, start
    with pytest.raises(ValueError):
        rref([[1, 0]], fld, 3)


@pytest.mark.parametrize("fld", LANE_FIELDS, ids=repr)
def test_pivots_codeword_and_contains_match_elimination(fld):
    # Every packing: pivots as rref finds them, codewords as per-entry sums
    # and membership as the rank test, on codewords and random words.
    rng = random.Random(fld.order)
    q = fld.order
    for n, k in [(1, 1), (5, 2), (9, 5), (12, 12), (17, 6)]:
        rows = [[rng.randrange(q) if rng.random() < 0.7 else 0
                 for _ in range(n)] for _ in range(k)]
        code = row_space_basis(rows, fld, n)
        assert code.pivots == tuple(rref(rows, fld)[1])
        for _ in range(6):
            message = [rng.randrange(q) for _ in range(code.k)]
            word = [0] * n
            for c, row in zip(message, code.generators):
                word = [fld.add(x, fld.mul(c, v)) for x, v in zip(word, row)]
            assert code.codeword(message) == tuple(word)
            assert code.contains(word)
            other = [rng.randrange(q) for _ in range(n)]
            for w in (other, [fld.add(x, y) for x, y in zip(word, other)]):
                assert code.contains(w) == (
                    rank(list(code.generators) + [w], fld) == code.k)


def test_product_check_matches_per_entry_reference():
    rng = random.Random(61)
    for p, e in KERNEL_FIELDS:
        fld = make_field(p, e)
        for _ in range(5):
            code = random_code(rng, fld, 7, 3)
            dual = kernel(code)
            assert matrix_product_is_zero(code.generators, dual.generators,
                                          fld)
            row = code.generators[0]
            other = [rng.randrange(fld.order) for _ in range(7)]
            assert matrix_product_is_zero([row], [other], fld) == (
                dot(fld, row, other) == 0)


@pytest.mark.parametrize("p,e", [(2, 1), (2, 4), (3, 3), (131, 1), (17, 2),
                                 (2, 9)], ids=str)
def test_entrywise_matches_per_entry_map(p, e):
    """bytes rows over F_2, F_16, F_27 and F_131, tuple rows over F_289
    and F_512: the map keeps the row type and applies f to every entry."""
    fld = make_field(p, e)
    kind = row_type(fld)
    assert kind is (bytes if fld.order <= 256 else tuple)
    rng = random.Random(p * e)
    c = rng.randrange(2, fld.order) if fld.order > 2 else 1
    maps = [fld.neg, lambda x: fld.mul(c, x), lambda x: fld.pow(x, p),
            lambda x: x % p]
    for f in maps:
        for width in (0, 1, 40):
            row = kind(rng.randrange(fld.order) for _ in range(width))
            mapped = entrywise(fld, f)(row)
            assert type(mapped) is kind
            assert list(mapped) == [f(x) for x in row]
