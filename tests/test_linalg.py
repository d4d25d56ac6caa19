import random

import pytest

from normtrace.fields import embedding, make_field
from normtrace.linalg import (LinearCode, expand_to_subfield, kernel,
                              matrix_product_is_zero, row_space_basis, rref)

F2 = make_field(2, 1)
F4 = make_field(2, 2)
F16 = make_field(2, 4)


def random_code(rng, fld, n, k):
    rows = [[rng.randrange(fld.order) for _ in range(n)] for _ in range(k)]
    return row_space_basis(rows, fld, n)


def test_row_space_examples():
    c = row_space_basis([[1, 1], [0, 0]], F2)
    assert c.k == 1 and c.generators == ((1, 1),)
    c = row_space_basis([[1, 3], [1, 3]], F4, 2)
    assert c.k == 1
    with pytest.raises(ValueError):
        row_space_basis([], F2)


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


def test_kernel_dimensions_and_orthogonality():
    rng = random.Random(47)
    for fld in (F2, F4, F16):
        for _ in range(10):
            c = random_code(rng, fld, 10, 4)
            dual = kernel(c)
            assert c.k + dual.k == 10
            assert matrix_product_is_zero(c.generators, dual.generators, fld)
            assert kernel(dual) == c


def test_kernel_extremes():
    full = row_space_basis([[1, 0], [0, 1]], F2, 2)
    assert kernel(full).k == 0
    zero = LinearCode(F2, 2, ())
    assert kernel(zero).k == 2


def test_expand_to_subfield():
    emb = embedding(F2, F16)
    assert expand_to_subfield([[0, 0]], emb) == [[0] * 8]
    out = expand_to_subfield([[1]], emb)
    assert out == [[1, 0, 0, 0]]


def test_codeword_and_contains():
    c = row_space_basis([[1, 0, 1], [0, 1, 1]], F2, 3)
    assert c.codeword([1, 1]) == (1, 1, 0)
    assert c.contains((1, 1, 0))
    assert not c.contains((1, 0, 0))


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


# F_2 takes the packed XOR loop, the others up to order 256 the table loop,
# and F_729 the per-entry fallback.
KERNEL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (5, 2),
                 (3, 3), (3, 6)]


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
    yield [fld.scale_row(rng.randrange(fld.order), low_rank[0])
           for _ in range(4)]


def test_rref_matches_per_entry_reference():
    rng = random.Random(59)
    for p, e in KERNEL_FIELDS:
        fld = make_field(p, e)
        for rows in kernel_matrices(rng, fld):
            expect = reference_rref(rows, fld)
            assert rref(rows, fld) == expect
            assert rref([tuple(r) for r in rows], fld) == expect


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
            total = 0
            for a, b in zip(row, other):
                total = fld.add(total, fld.mul(a, b))
            assert matrix_product_is_zero([row], [other], fld) == (total == 0)
