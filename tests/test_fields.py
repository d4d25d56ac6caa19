import random

import pytest

from normtrace.curves import make_curve
from normtrace.fields import (FieldError, FiniteField, SubfieldEmbedding,
                              _is_irreducible, embedding, make_field,
                              subfield_of_order, trace_to)
from normtrace.linalg import LinearCode
from normtrace.reduction import SparsePolynomial, frobenius_power
from normtrace.subfield import code_frobenius, is_frobenius_invariant

F2 = make_field(2, 1)
F4 = make_field(2, 2)
F16 = make_field(2, 4)


def test_make_field_moduli():
    assert F2.modulus == (0, 1)  # x
    assert F4.modulus == (1, 1, 1)  # x^2 + x + 1
    assert F16.order == 16
    # field axiom a^16 = a
    assert all(F16.pow(a, 16) == a for a in F16.elements())


# The modulus of each field the tests, the curves and the packings use: the
# smallest irreducible one by the integer encoding of its lower
# coefficients, low degree first.  Every element's code depends on it.
MODULI = {
    (2, 1): (0, 1), (2, 2): (1, 1, 1), (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1), (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 0, 0, 0, 1), (2, 7): (1, 1, 0, 0, 0, 0, 0, 1),
    (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1), (3, 1): (0, 1), (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1), (3, 4): (2, 1, 0, 0, 1), (3, 5): (1, 2, 0, 0, 0, 1),
    (5, 1): (0, 1), (5, 2): (2, 0, 1), (5, 3): (1, 1, 0, 1), (7, 1): (0, 1),
    (7, 2): (1, 0, 1), (11, 1): (0, 1), (11, 2): (1, 0, 1), (13, 1): (0, 1),
    (13, 2): (2, 0, 1), (17, 1): (0, 1), (127, 1): (0, 1), (131, 1): (0, 1),
    (17, 2): (3, 0, 1), (2, 9): (1, 1, 0, 0, 0, 0, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
}


def test_moduli_are_pinned():
    assert {pe: make_field(*pe).modulus for pe in MODULI} == MODULI


def plain_modulus(p, e):
    """The first monic degree-e candidate, by the integer encoding of its
    lower coefficients, that passes the irreducibility test."""
    for enc in range(p ** e):
        poly = [enc // p ** i % p for i in range(e)] + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)


def test_modulus_search_passes_over_candidates_with_roots():
    """Passing over the candidates with a root in F_p before the
    irreducibility test picks the same modulus as the plain search, for
    every field of characteristic at most 251 and order at most 2^16."""
    fields = [(p, e) for p in range(2, 252) if all(p % d for d in range(2, p))
              for e in range(1, 17) if p ** e <= 2 ** 16]
    assert len(fields) == 147
    for p, e in fields:
        assert FiniteField._find_modulus(p, e) == plain_modulus(p, e), (p, e)


def poly_pow(fld, a, n):
    """a^n by square-and-multiply over the polynomial product."""
    result = 1
    while n:
        if n & 1:
            result = fld._mul_poly(result, a)
        a = fld._mul_poly(a, a)
        n >>= 1
    return result


def check_against_polynomials(fld, pairs, elements):
    top = fld.order - 1
    for a, b in pairs:
        assert fld.mul(a, b) == fld._mul_poly(a, b), (a, b)
    for a in elements:
        exponents = [0, 1, 2, 3, top - 1, top, top + 1, 5 * top + 7]
        assert [fld.pow(a, n) for n in exponents] == \
            [poly_pow(fld, a, n) for n in exponents], a
        assert fld.powers(a, 6) == [poly_pow(fld, a, n) for n in range(6)]
        if a:
            assert fld.inv(a) == poly_pow(fld, a, fld.order - 2), a
            assert fld.pow(a, -3) == poly_pow(fld, fld.inv(a), 3), a


@pytest.mark.parametrize("p,e", [pe for pe in MODULI if pe[0] ** pe[1] <= 256],
                         ids=str)
def test_field_tables_match_polynomial_reference(p, e):
    """mul, inv, pow and powers against the polynomial product modulo the
    modulus, on every pair of elements: the exp/log tables are stepped by
    "times g" for g = x when x generates the units, and for a searched
    generator otherwise."""
    fld = make_field(p, e)
    elements = fld.elements()
    check_against_polynomials(
        fld, ((a, b) for a in elements for b in elements), elements)


# Every accepted field has exp/log tables, up to the cap: F_32768, where x
# generates the units, and F_63001 and F_65536, where the generator is
# searched for, as over F_2187, F_625 and F_343.
@pytest.mark.parametrize("p,e", [(17, 2), (2, 9), (3, 6), (2, 15), (251, 2),
                                 (2, 16), (3, 7), (5, 4), (7, 3)], ids=str)
def test_large_field_tables_match_polynomial_reference(p, e):
    fld = make_field(p, e)
    assert sorted(fld._exp) == list(range(1, fld.order))
    rng = random.Random(p * e)
    pairs = [(rng.randrange(fld.order), rng.randrange(fld.order))
             for _ in range(3000)]
    elements = [0, 1, p, fld.order - 1] + \
        [rng.randrange(fld.order) for _ in range(200)]
    check_against_polynomials(fld, pairs, elements)


def test_tables_of_primitive_x_take_no_polynomial_products(monkeypatch):
    """Where x generates the units (F_16, F_64, F_27, F_729 with their
    moduli), the exp table is stepped by "times x" alone."""
    def refuse(self, a, b):
        raise AssertionError("polynomial product while building tables")
    monkeypatch.setattr(FiniteField, "_mul_poly", refuse)
    for p, e in [(2, 4), (2, 6), (3, 3), (3, 6)]:
        fld = FiniteField(p, e)
        assert fld._exp[1] == p and len(set(fld._exp)) == fld.order - 1


def test_power_list_is_pow_of_every_element():
    # The y tables of the Newton rows and of the footprint inverse, over
    # fields of characteristic 2 and odd, prime and not, up to F_512: every
    # exponent from 0 past the order, with 0^0 = 1.
    for p, e in [(2, 1), (2, 4), (2, 9), (3, 1), (3, 3), (5, 2), (17, 2)]:
        fld = make_field(p, e)
        for n in [*range(fld.order + 2), 3 * fld.order - 2]:
            assert fld.power_list(n) == [fld.pow(a, n)
                                         for a in fld.elements()], (p, e, n)


def test_make_field_rejects_bad_parameters():
    with pytest.raises(FieldError):
        make_field(4, 1)
    with pytest.raises(FieldError):
        make_field(2, 0)
    with pytest.raises(FieldError):
        make_field(2, 25)  # 2^25 over the order cap
    for p, e in [(2, 17), (3, 11), (257, 2)]:
        with pytest.raises(FieldError, match="exceeds cap 65536"):
            make_field(p, e)


def test_multiplicative_group_order():
    rng = random.Random(7)
    for fld in (F4, F16, make_field(3, 2), make_field(5, 2)):
        a = rng.randrange(1, fld.order)
        assert fld.pow(a, fld.order - 1) == 1


def test_field_axioms_sampled():
    rng = random.Random(11)
    for fld in (F16, make_field(3, 3)):
        for _ in range(1000):
            a, b, c = (rng.randrange(fld.order) for _ in range(3))
            assert fld.mul(fld.mul(a, b), c) == fld.mul(a, fld.mul(b, c))
            assert fld.mul(a, fld.add(b, c)) == \
                fld.add(fld.mul(a, b), fld.mul(a, c))
            if a:
                assert fld.mul(a, fld.inv(a)) == 1
            assert fld.add(a, fld.neg(a)) == 0


def test_embed_zero_one_and_generator_order():
    emb = embedding(F4, F16)
    assert emb.embed(0) == 0
    assert emb.embed(1) == 1
    g = emb.embed(2)  # generator of F4
    # multiplicative order divides 3 and exceeds 1
    assert F16.mul(g, F16.mul(g, g)) == 1 and g != 1


def test_embed_is_homomorphism():
    rng = random.Random(3)
    for small, big in [(F2, F16), (F4, F16), (make_field(3, 1), make_field(3, 2))]:
        emb = embedding(small, big)
        for _ in range(200):
            a, b = rng.randrange(small.order), rng.randrange(small.order)
            assert emb.embed(small.add(a, b)) == \
                big.add(emb.embed(a), emb.embed(b))
            assert emb.embed(small.mul(a, b)) == \
                big.mul(emb.embed(a), emb.embed(b))


def test_embedded_elements_fixed_by_frobenius():
    emb = embedding(F4, F16)
    for a in F4.elements():
        img = emb.embed(a)
        assert F16.frobenius(img, 4) == img


def test_trace_examples():
    assert trace_to(F2, F16, 0) == 0
    assert trace_to(F2, F16, 1) == 0  # four summands of 1 in char 2
    w = 2  # generator of F4 with w^2 = w + 1
    assert F4.mul(w, w) == F4.add(w, 1)
    assert trace_to(F2, F4, w) == 1


def test_trace_is_surjective_and_linear():
    for sub in (F2, F4):
        image = {trace_to(sub, F16, x) for x in F16.elements()}
        assert image == set(sub.elements())
    rng = random.Random(5)
    for _ in range(100):
        a, b = rng.randrange(16), rng.randrange(16)
        assert trace_to(F2, F16, F16.add(a, b)) == \
            F2.add(trace_to(F2, F16, a), trace_to(F2, F16, b))


def test_trace_galois_invariance():
    for sub in (F2, F4):
        t = sub.order
        for x in F16.elements():
            assert trace_to(sub, F16, F16.pow(x, t)) == trace_to(sub, F16, x)


def test_frobenius_properties():
    rng = random.Random(13)
    for _ in range(100):
        a, b = rng.randrange(16), rng.randrange(16)
        assert F16.frobenius(F16.add(a, b), 2) == \
            F16.add(F16.frobenius(a, 2), F16.frobenius(b, 2))
    # full Galois orbit closes: 4 applications of squaring
    for x in F16.elements():
        y = x
        for _ in range(4):
            y = F16.frobenius(y, 2)
        assert y == x
    # fixes exactly the t-element subfield
    fixed = {x for x in F16.elements() if F16.frobenius(x, 4) == x}
    assert len(fixed) == 4
    with pytest.raises(FieldError):
        F16.frobenius(1, 8)  # 8 is not a subfield order of F16


def test_decompose_round_trip_and_linearity():
    rng = random.Random(17)
    for small, big in [(F2, F16), (F4, F16), (make_field(3, 1), make_field(3, 4))]:
        emb = embedding(small, big)
        assert emb.decompose(0) == [0] * emb.m
        for a in small.elements():
            coords = emb.decompose(emb.embed(a))
            assert coords == [a] + [0] * (emb.m - 1)
        for _ in range(100):
            x = rng.randrange(big.order)
            assert emb.recompose(emb.decompose(x)) == x


def test_decomposition_table_inverts_recompose():
    for (p, small_e, big_e) in [(2, 1, 4), (2, 2, 4), (2, 1, 6), (2, 3, 6),
                                (5, 1, 2), (3, 1, 3), (2, 3, 9)]:
        small, big = make_field(p, small_e), make_field(p, big_e)
        emb = embedding(small, big)
        # images[a]: the polynomial-basis coefficients of a evaluated at the
        # image of the small field's generator, one mul and add at a time.
        for a in small.elements():
            image, power = 0, 1
            for c in small.coeffs(a):
                image = big.add(image, big.mul(c, power))
                power = big.mul(power, emb.generator_image)
            assert emb.images[a] == emb.embed(a) == image
        assert len(emb.components) == emb.m
        assert all(len(comp) == big.order for comp in emb.components)
        for x in big.elements():
            coords = emb.decompose(x)
            assert coords == [comp[x] for comp in emb.components]
            assert all(0 <= c < small.order for c in coords)
            assert emb.recompose(coords) == x
            total = 0
            for c, b in zip(coords, emb.basis):
                total = big.add(total, big.mul(emb.images[c], b))
            assert total == x
        for bad in (-1, small.order):
            with pytest.raises(FieldError):
                emb.embed(bad)
            with pytest.raises(FieldError):
                emb.recompose([bad] + [0] * (emb.m - 1))
            with pytest.raises(FieldError):
                emb.recompose([0] * (emb.m - 1) + [bad])
        for bad in (-1, big.order):
            with pytest.raises(FieldError):
                emb.decompose(bad)
            with pytest.raises(FieldError):
                emb.project(bad)
    # subfield_degree decides which orders are subfield orders, for every
    # map that takes one.
    code = LinearCode(F16, 2, ([1, 3],))
    message = "^8 is not a subfield order of F_16$"
    for call in (lambda: code_frobenius(code, 8),
                 lambda: F16.frobenius(1, 8),
                 lambda: is_frobenius_invariant(make_curve(2, 1, 4, 3), 8, 8),
                 lambda: frobenius_power(SparsePolynomial.from_dict(
                     F16, {(1, 0): 1}), 8)):
        with pytest.raises(FieldError, match=message):
            call()


def test_embedding_rejects_fields_and_elements_outside():
    for small in (make_field(2, 3), make_field(3, 1)):
        with pytest.raises(FieldError, match="does not embed in"):
            SubfieldEmbedding(small, F16)
    emb = embedding(F4, F16)
    inside = set(emb.images)
    for x in F16.elements():
        if x in inside:
            assert emb.embed(emb.project(x)) == x
        else:
            with pytest.raises(FieldError, match="not in the embedded"):
                emb.project(x)


def test_subfield_of_order_validation():
    assert subfield_of_order(F16, 4) == F4
    with pytest.raises(FieldError):
        subfield_of_order(F16, 8)
