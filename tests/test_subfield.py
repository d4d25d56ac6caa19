import random
from bisect import bisect_right

import pytest

from normtrace import subfield
from normtrace.codes import build_code, dual_weight
from normtrace.curves import make_curve
from normtrace.fields import FieldError, embedding, make_field, \
    subfield_of_order
from normtrace.linalg import LinearCode, kernel, rank, row_space_basis, rref
from normtrace.monomials import footprint, monomials_up_to
from normtrace.reduction import (frobenius_power, monomial_poly,
                                 normal_form, normal_form_table)
from normtrace.subfield import (FrobeniusInvariance, _trace_pass, _TracePass,
                                code_frobenius, is_frobenius_invariant,
                                subfield_subcode_dim,
                                subfield_subcode_from_checks,
                                subfield_subcode_of_ent,
                                subfield_subcode_oracle, trace_code,
                                trace_span, trace_span_dim)

NT3 = make_curve(2, 1, 4, 3)
NT5 = make_curve(2, 1, 4, 5)
F2 = make_field(2, 1)
F4 = make_field(2, 2)
F16 = make_field(2, 4)


def oracle(curve, s, t):
    """NT_u(s)|F_t by the oracle on build_code's generators."""
    emb = embedding(subfield_of_order(curve.field, t), curve.field)
    return subfield_subcode_oracle(build_code(curve, s), emb)


def random_code(rng, fld, n, k):
    rows = [[rng.randrange(fld.order) for _ in range(n)] for _ in range(k)]
    return row_space_basis(rows, fld, n)


def test_code_frobenius():
    rng = random.Random(59)
    c2 = random_code(rng, F2, 6, 2)
    assert code_frobenius(c2, 2) == c2  # Frobenius fixes F_2
    zero = LinearCode(F16, 4, ())
    assert code_frobenius(zero, 4) == zero
    for _ in range(10):
        c = random_code(rng, F16, 8, 3)
        d = c
        for _ in range(4):
            d = code_frobenius(d, 2)
        assert d == c


def test_trace_span_dims():
    assert trace_span_dim(NT3, 8, 2) == 7
    # the published value here is 8; the X^5 generator makes it 9
    assert trace_span_dim(NT5, 10, 2) == 9
    assert trace_span_dim(NT5, 9, 2) == 9
    for curve, t in [(NT3, 2), (NT5, 2), (NT5, 4)]:
        assert trace_span_dim(curve, 0, t) == 1


def test_subfield_subcode_dims():
    assert subfield_subcode_dim(NT3, 36, 2) == 25
    assert subfield_subcode_dim(NT3, 45, 2) == 32  # full space
    # adjudicated values for the u=5 curve (published: 40, 43, 44)
    assert subfield_subcode_dim(NT5, 65, 2) == 39
    assert subfield_subcode_dim(NT5, 60, 4) == 39
    assert subfield_subcode_dim(NT5, 62, 4) == 41


def test_oracle_matches_delsarte_route():
    for curve, s, t in [(NT3, 36, 2), (NT3, 8, 2), (NT5, 60, 4),
                        (NT5, 62, 4), (NT5, 65, 2)]:
        dim = subfield_subcode_dim(curve, s, t)
        assert subfield_subcode_of_ent(curve, s, t).k == dim
        assert oracle(curve, s, t).k == dim


# The instance ladder: (curve, s, t, dim NT_u(s)|F_t), from [128, 3] over
# F_2 to [1024, 29] over F_4.
LADDER = [((2, 1, 6, 3), 64, 2, 3), ((3, 1, 3, 13), 121, 3, 10),
          ((2, 1, 5, 31), 400, 2, 31), ((2, 2, 3, 21), 512, 2, 7),
          ((2, 2, 3, 21), 512, 4, 29)]


@pytest.mark.parametrize("params,s,t,dim", LADDER, ids=str)
def test_ladder_dimensions_match_oracle(params, s, t, dim):
    curve = make_curve(*params)
    assert subfield_subcode_dim(curve, s, t) == dim
    assert subfield_subcode_of_ent(curve, s, t).k == dim
    assert oracle(curve, s, t).k == dim


@pytest.mark.parametrize("params", [(2, 1, 4, 3), (2, 1, 4, 5), (3, 1, 2, 4),
                                    (2, 2, 2, 5), (3, 1, 2, 2), (5, 1, 2, 3)],
                         ids=str)
def test_check_path_matches_oracle_at_every_weight(params):
    """From s = -1 (no generators) to past the largest weight (no checks),
    over every subfield, trivial extension included."""
    curve = make_curve(*params)
    fld = curve.field
    for d in (d for d in range(1, fld.e + 1) if fld.e % d == 0):
        emb = embedding(make_field(curve.p, d), fld)
        for s in range(-1, curve.max_weight + 2):
            assert subfield_subcode_from_checks(curve, s, emb) == \
                subfield_subcode_oracle(build_code(curve, s), emb), (s, d)


# The subcode and mindist benchmark instances, and whether each takes the
# check path: m(n - k) <= 2k.
BENCHMARK_PATHS = [
    ((2, 1, 4, 15), 100, 2, False), ((2, 1, 4, 15), 150, 4, True),
    ((2, 1, 6, 3), 64, 2, False), ((2, 1, 6, 3), 120, 8, True),
    ((2, 2, 2, 5), 50, 2, True), ((5, 1, 2, 6), 60, 5, False),
    ((5, 1, 2, 6), 100, 5, True), ((3, 1, 3, 13), 100, 3, False),
    ((2, 1, 4, 3), 36, 2, True), ((3, 1, 2, 4), 16, 3, True),
    ((2, 2, 2, 5), 60, 2, True), ((2, 1, 4, 15), 189, 2, True),
    ((2, 2, 2, 5), 60, 4, True), ((2, 2, 2, 5), 63, 4, True),
]


@pytest.mark.parametrize("params,s,t,checks", BENCHMARK_PATHS, ids=str)
def test_benchmark_instances_take_their_path(params, s, t, checks,
                                             monkeypatch):
    taken = []
    for name in ("subfield_subcode_from_checks", "subfield_subcode_oracle"):
        route = getattr(subfield, name)
        monkeypatch.setattr(subfield, name, lambda *args, route=route,
                            name=name: taken.append(name) or route(*args))
    curve = make_curve(*params)
    code = subfield_subcode_of_ent(curve, s, t)
    assert taken == ["subfield_subcode_from_checks" if checks
                     else "subfield_subcode_oracle"]
    assert code == oracle(curve, s, t)


def test_oracle_words_lie_in_code_and_subfield():
    emb = embedding(F2, F16)
    code = build_code(NT3, 36)
    sub = subfield_subcode_oracle(code, emb)
    for row in sub.generators:
        assert code.contains([emb.embed(v) for v in row])


def test_oracle_simple_cases():
    emb = embedding(F2, F16)
    rep = row_space_basis([[1] * 6], F16, 6)
    sub = subfield_subcode_oracle(rep, emb)
    assert list(map(tuple, sub.generators)) == [(1,) * 6]
    one = row_space_basis([[1]], F16, 1)
    assert subfield_subcode_oracle(one, emb).k == 1


def test_oracle_on_random_codes():
    rng = random.Random(61)
    for small in (F2, F4):
        emb = embedding(small, F16)
        for _ in range(10):
            c = random_code(rng, F16, 8, 3)
            sub = subfield_subcode_oracle(c, emb)
            # Delsarte route: n - dim Tr(C^perp)
            assert sub.k == 8 - trace_code(kernel(c), emb).k


def test_trace_code_basics():
    rng = random.Random(67)
    c2 = random_code(rng, F2, 6, 2)
    assert trace_code(c2, embedding(F2, F2)) == c2
    zero = LinearCode(F16, 4, ())
    assert trace_code(zero, embedding(F2, F16)).k == 0
    tc = trace_code(build_code(NT3, 8), embedding(F2, F16))
    assert tc.contains((1,) * 32)  # the all-ones codeword
    assert tc.k == 7


def trace_code_by_entries(code, emb):
    """Tr(C) by its definition: the traces of the generators scaled by
    each element of the basis of the big field over the small one, with
    one product, trace and projection per entry."""
    fld, t = code.field, emb.small.order
    rows = [[emb.project(fld.trace_in_field(fld.mul(b, v), t)) for v in g]
            for b in emb.basis for g in code.generators]
    return row_space_basis(rows, emb.small, code.n)


def test_trace_code_matches_the_traces_of_scaled_generators():
    # The span of the components of the generators is the span of their
    # scaled traces, over 15 field pairs: odd characteristic, orders
    # above 256, and m from 1 to 10.
    rng = random.Random(79)
    pairs = [((2, 1), (2, 2)), ((2, 1), (2, 3)), ((2, 2), (2, 4)),
             ((2, 1), (2, 4)), ((2, 3), (2, 6)), ((2, 3), (2, 9)),
             ((2, 1), (2, 10)), ((3, 1), (3, 2)), ((3, 1), (3, 3)),
             ((3, 3), (3, 6)), ((3, 2), (3, 6)), ((5, 1), (5, 2)),
             ((7, 1), (7, 2)), ((17, 1), (17, 2)), ((2, 4), (2, 4))]
    for (p, e), (p2, e2) in pairs:
        small, big = make_field(p, e), make_field(p2, e2)
        emb = embedding(small, big)
        for _ in range(6):
            n = rng.randrange(1, 12)
            code = random_code(rng, big, n, rng.randrange(n + 1))
            assert trace_code(code, emb) == trace_code_by_entries(code, emb)


def test_delsarte_theorem():
    rng = random.Random(71)
    for small in (F2, F4):
        emb = embedding(small, F16)
        for _ in range(10):
            c = random_code(rng, F16, 10, 3)
            assert kernel(subfield_subcode_oracle(c, emb)) == \
                trace_code(kernel(c), emb)


@pytest.mark.parametrize("params, s, t", [
    ((2, 1, 6, 3), 64, 2), ((3, 1, 3, 13), 121, 3), ((2, 1, 5, 31), 400, 2),
    ((2, 2, 3, 21), 512, 2), ((2, 2, 3, 21), 512, 4),
    ((2, 1, 10, 1), 511, 2)])
def test_ladder_subcodes_match_the_delsarte_generator_route(params, s, t):
    # The generators of NT_u(s)|F_t equal those of (Tr(NT_u(s')))^perp,
    # s' the dual weight, by Delsarte: on these curves u = 1 mod p, so the
    # dual of NT_u(s) is NT_u(s') itself, with no twist.
    curve = make_curve(*params)
    assert curve.u % curve.p == 1
    emb = embedding(subfield_of_order(curve.field, t), curve.field)
    dual = build_code(curve, dual_weight(curve, s))
    assert subfield_subcode_of_ent(curve, s, t) == kernel(trace_code(dual,
                                                                     emb))


def test_trace_span_matches_trace_code_dim():
    emb2 = embedding(F2, F16)
    emb4 = embedding(F4, F16)
    for curve, s, t, emb in [(NT3, 8, 2, emb2), (NT3, 20, 2, emb2),
                             (NT5, 14, 4, emb4), (NT5, 10, 2, emb2)]:
        assert trace_span_dim(curve, s, t) == \
            trace_code(build_code(curve, s), emb).k


def test_intersection_code_dimension():
    # dim over F_{q^r} of the intersection of all Frobenius images equals
    # dim over F_t of the subfield subcode
    rng = random.Random(73)
    for small, t, m in [(F2, 2, 4), (F4, 4, 2)]:
        emb = embedding(small, F16)
        for _ in range(8):
            c = random_code(rng, F16, 8, 3)
            images = [c]
            for _ in range(m - 1):
                images.append(code_frobenius(images[-1], t))
            duals = []
            for img in images:
                duals.extend(kernel(img).generators)
            inter = kernel(row_space_basis(duals, F16, 8))
            assert inter.k == subfield_subcode_oracle(c, emb).k


def test_frobenius_invariance():
    inv = is_frobenius_invariant(NT3, 8, 2)
    assert not inv.invariant
    # Y^2 squares to Y^4, weight 12 > 8; any offender is a valid witness
    assert inv.witness == (0, 2)
    # adjudicated: the u=5 codes are not invariant under x -> x^4
    # (normal form of Y^28 contains X^5 Y^5, weight 65)
    assert not is_frobenius_invariant(NT5, 60, 4).invariant
    assert not is_frobenius_invariant(NT5, 62, 4).invariant
    full = is_frobenius_invariant(NT3, 45, 2)
    assert full.invariant and full.witness is None


def test_invariance_implies_equal_dimension():
    full = build_code(NT3, 45)
    assert is_frobenius_invariant(NT3, 45, 2).invariant
    assert subfield_subcode_dim(NT3, 45, 2) == full.k


def rewriting_trace_span(curve, s, t):
    """(reduced generators, rank) of the trace span, with every Frobenius
    power of every monomial taken through normal_form's rewriting."""
    m = curve.field.subfield_degree(t)
    seen, reduced = set(), []
    for mono in monomials_up_to(curve, s):
        f = monomial_poly(curve.field, mono)
        for _ in range(m):
            nf = normal_form(curve, f)
            if nf.terms not in seen:
                seen.add(nf.terms)
                reduced.append(nf)
            f = frobenius_power(f, t)
    index = {mono: i for i, mono in enumerate(footprint(curve))}
    rows = []
    for nf in reduced:
        row = [0] * curve.n
        for mono, c in nf.terms:
            row[index[mono]] = c
        rows.append(row)
    return tuple(reduced), rank(rows, curve.field) if rows else 0


def rewriting_invariance(curve, s, t):
    allowed = set(monomials_up_to(curve, s))
    for mono in sorted(allowed):
        nf = normal_form(curve, frobenius_power(
            monomial_poly(curve.field, mono), t))
        if any(m not in allowed for m in nf.support):
            return FrobeniusInvariance(False, mono)
    return FrobeniusInvariance(True, None)


# (curve, subfield orders, stride through the weights 0 .. max_weight + 1)
SPAN_CASES = [((2, 1, 4, 3), (2, 4), 1), ((2, 1, 4, 5), (2, 4), 3),
              ((2, 2, 2, 5), (2, 4), 3), ((3, 1, 2, 4), (3,), 2),
              ((2, 1, 6, 3), (2, 8), 29)]


@pytest.mark.parametrize("params,ts,stride", SPAN_CASES, ids=str)
def test_trace_span_matches_rewriting_route(params, ts, stride):
    """The per-curve pass, asked every weight in ascending, descending and
    shuffled order from a cleared cache, answers each s the same in all
    three, and as the rewriting route does at s = -1 and at the stride."""
    curve = make_curve(*params)
    weights = list(range(-1, curve.max_weight + 2))
    shuffled = weights[:]
    random.Random(str(params)).shuffle(shuffled)
    for t in ts:
        answers = []
        for order in (weights, weights[::-1], shuffled):
            _trace_pass.cache_clear()
            answer = {}
            for s in order:
                span = trace_span(curve, s, t)
                assert (span.s, span.t) == (s, t)
                answer[s] = (span.reduced_generators, span.dimension)
            answers.append(answer)
        assert answers[0] == answers[1] == answers[2]
        for s in (-1, *range(0, curve.max_weight + 2, stride)):
            assert answers[0][s] == rewriting_trace_span(curve, s, t), (t, s)
    _trace_pass.cache_clear()


@pytest.mark.parametrize("params,ts", [
    ((2, 2, 2, 5), (2, 4)), ((5, 1, 2, 6), (5,)), ((3, 1, 3, 13), (3,)),
    ((2, 1, 4, 15), (2, 4))], ids=str)
def test_canonical_exponents_give_distinct_normal_forms(params, ts):
    """The lemma of _TracePass: X^a Y^b, a <= u(q-1), b < q^r - 1, have
    pairwise distinct normal forms, so a whole-curve pass meets no form
    twice.  At b = q^r - 1, which no Frobenius power reaches, it fails.
    Distinct forms are distinct packed rows of the normal-form table."""
    curve = make_curve(*params)
    top = curve.field.order - 1
    pairs = [(a, b) for a in range(curve.u * (curve.q - 1) + 1)
             for b in range(top)]
    table = normal_form_table(curve)
    rows = {table.row(a, b) for a, b in pairs}
    assert len(rows) == len(pairs)
    assert table.row(1, 0) == table.row(1, top)
    for t in ts:
        span = _TracePass(curve, t)
        span.extend_to(curve.max_weight)
        assert len(set(span.rows)) == len(span.rows)


# Curves for the weight-class tests: u(q-1) runs from 1 on the (2,1,10,1)
# curve over F_1024, where every monomial is in one class, to 24.
CLASS_CURVES = [(2, 1, 4, 3), (3, 1, 2, 4), (2, 2, 2, 5), (5, 1, 2, 6),
                (2, 1, 6, 3), (17, 1, 2, 1), (2, 1, 10, 1)]


def weight_class(curve, i, j):
    return (i + curve.u * j) % (curve.u * (curve.q - 1))


def subfield_orders(curve):
    e = curve.field.e
    return [curve.p ** d for d in range(1, e + 1) if e % d == 0]


@pytest.mark.parametrize("params", CLASS_CURVES, ids=str)
def test_normal_forms_stay_in_their_weight_class(params):
    """NF(X^a Y^b), a <= P = u(q-1), b < q^r - 1, lies in the lanes of the
    footprint monomials X^i Y^j with i + u j = a + u b mod P: both rewrite
    rules keep that class."""
    curve = make_curve(*params)
    table = normal_form_table(curve)
    period = curve.u * (curve.q - 1)
    outside = [~table.lane_mask([m for m in footprint(curve)
                                 if weight_class(curve, *m) == c])
               for c in range(period)]
    for a in range(period + 1):
        for b in range(curve.field.order - 1):
            assert not table.row(a, b) & outside[weight_class(curve, a, b)], \
                (a, b)


@pytest.mark.parametrize("params", CLASS_CURVES, ids=str)
def test_pass_ranks_match_rank_of_every_prefix(params):
    """A whole-curve pass for each subfield order t, against rref over F_p
    of the matrix whose columns are its unpacked rows: column i is a pivot
    exactly when row i is independent of the rows before it, so the rank
    of rows[:i + 1] is the number of pivots up to i.  All the rows have
    rank n, and every weight class is left with no room."""
    curve = make_curve(*params)
    packing = normal_form_table(curve).packing
    prime = make_field(curve.p, 1)
    for t in subfield_orders(curve):
        span = _TracePass(curve, t)
        span.extend_to(curve.max_weight)
        rows = list(map(packing.unpack, span.rows))
        pivots = rref(list(zip(*rows)), prime)[1]
        assert span.ranks == [bisect_right(pivots, i)
                              for i in range(len(rows))], t
        assert span.ranks[-1] == rank(rows, prime) == curve.n
        assert not any(span.room)


@pytest.mark.parametrize("params", CLASS_CURVES, ids=str)
def test_pass_with_one_class_short_gives_another_rank(params):
    """A pass told that one weight class has one lane fewer than it has
    stops that class one row short, and its ranks differ from the true
    ones: the pruning counts a class full only when it is."""
    curve = make_curve(*params)
    true = _TracePass(curve, curve.p)
    true.extend_to(curve.max_weight)
    for c in range(len(true.room)):
        short = _TracePass(curve, curve.p)
        short.room[c] -= 1
        short.extend_to(curve.max_weight)
        assert short.ranks != true.ranks, c


@pytest.mark.parametrize("params", [(2, 1, 4, 3), (2, 1, 4, 5), (2, 2, 2, 5)],
                         ids=str)
def test_frobenius_invariance_matches_rewriting_route(params):
    curve = make_curve(*params)
    for s in range(curve.max_weight + 2):
        for t in (2, 4):
            assert is_frobenius_invariant(curve, s, t) == \
                rewriting_invariance(curve, s, t)


@pytest.mark.parametrize("params,t", [((3, 1, 2, 4), 3), ((5, 1, 2, 6), 5)],
                         ids=str)
def test_frobenius_invariance_matches_rewriting_route_odd_characteristic(
        params, t):
    """Over F_3 and F_5 a normal form's lane holds 1 .. p - 1, so the lane
    mask of M(s) must cover every bit of a lane."""
    curve = make_curve(*params)
    for s in range(curve.max_weight + 2):
        assert is_frobenius_invariant(curve, s, t) == \
            rewriting_invariance(curve, s, t), s


def spanning_set_subcode(code, emb):
    """C intersect F_t^n by expanding all m*k rows b*G_i (b over the
    decomposition basis, G_i over the generators), each entry multiplied and
    decomposed one at a time, then one elimination over F_t: the rows whose
    pivot lies among the first components give the subcode."""
    fld, small, n = code.field, emb.small, code.n
    rows = []
    for b in emb.basis:
        for g in code.generators:
            coords = [emb.decompose(fld.mul(b, v)) for v in g]
            rows.append([c for cs in coords for c in cs[1:]] +
                        [cs[0] for cs in coords])
    width = n * (emb.m - 1)
    reduced, pivots = rref(rows, small)
    return LinearCode(small, n, [row[width:] for row, col
                                 in zip(reduced, pivots) if col >= width])


def code_with_subcode(rng, emb, n, k, j):
    """A random k-dimensional code over the big field (k <= n) spanned by j
    random words over the small field and k - j random words over the big
    field, so that its subfield subcode usually has dimension j."""
    small, big = emb.small, emb.big
    while True:
        rows = [[emb.embed(rng.randrange(small.order)) for _ in range(n)]
                for _ in range(j)]
        rows += [[rng.randrange(big.order) for _ in range(n)]
                 for _ in range(k - j)]
        code = row_space_basis(rows, big, n) if rows else \
            LinearCode(big, n, ())
        if code.k == k:
            return code


ORACLE_FIELDS = [((2, 1), (2, 4)), ((2, 2), (2, 4)), ((3, 1), (3, 2)),
                 ((3, 1), (3, 3)), ((5, 1), (5, 2)), ((2, 3), (2, 6)),
                 ((2, 1), (2, 8)), ((2, 3), (2, 9)),
                 # m = 1
                 ((2, 4), (2, 4)), ((3, 2), (3, 2)), ((2, 9), (2, 9))]


@pytest.mark.parametrize("small,big", ORACLE_FIELDS, ids=str)
def test_oracle_matches_spanning_set_route(small, big):
    emb = embedding(make_field(*small), make_field(*big))
    rng = random.Random(str((small, big)))
    cases = [(n, k, rng.randint(0, k)) for n in (1, 5, 9, 17)
             for k in range(0, n + 1, max(1, n // 4))]
    for n, k, j in cases:
        code = code_with_subcode(rng, emb, n, k, j)
        sub = subfield_subcode_oracle(code, emb)
        assert sub.generators == spanning_set_subcode(code, emb).generators
        assert sub.k >= j
    # a zero column stays zero in the subcode
    code = code_with_subcode(rng, emb, 8, 5, 3)
    zeroed = row_space_basis([row[:3] + bytes(1) + row[4:]
                              if isinstance(row, bytes) else
                              row[:3] + (0,) + row[4:]
                              for row in code.generators], emb.big, 8)
    sub = subfield_subcode_oracle(zeroed, emb)
    assert sub.generators == spanning_set_subcode(zeroed, emb).generators
    assert all(row[3] == 0 for row in sub.generators)


@pytest.mark.parametrize("small,big", ORACLE_FIELDS, ids=str)
def test_oracle_edge_cases(small, big):
    emb = embedding(make_field(*small), make_field(*big))
    fld, sub_fld = emb.big, emb.small
    # k = 0
    assert subfield_subcode_oracle(LinearCode(fld, 6, ()), emb) == \
        LinearCode(sub_fld, 6, ())
    # k = n: the whole of F_t^n, identity generators
    full = subfield_subcode_oracle(row_space_basis(
        [[int(i == j) for j in range(6)] for i in range(6)], fld, 6), emb)
    assert full == row_space_basis(
        [[int(i == j) for j in range(6)] for i in range(6)], sub_fld, 6)
    # a code whose subcode is {0}: x * (1, a) with a outside F_t
    if emb.m > 1:
        a = next(v for v in fld.elements() if any(emb.decompose(v)[1:]))
        assert subfield_subcode_oracle(
            row_space_basis([[1, a, 0]], fld, 3), emb).k == 0


@pytest.mark.parametrize("small,big", ORACLE_FIELDS, ids=str)
def test_oracle_on_non_echelon_generators(small, big):
    """Rows that are not a reduced echelon form make no LinearCode; the
    oracle of their row space agrees with the spanning-set route."""
    emb = embedding(make_field(*small), make_field(*big))
    fld = emb.big
    rng = random.Random(89)
    g = next(v for v in fld.elements() if v > 1 and
             (emb.m == 1 or any(emb.decompose(v)[1:])))
    word = [emb.embed(rng.randrange(1, emb.small.order)) for _ in range(7)]
    word[0] = 1  # so that g times it leads with g, not 1
    echelon = code_with_subcode(rng, emb, 7, 4, 2).generators
    e0, e1 = code_with_subcode(rng, emb, 7, 2, 2).generators  # over F_t
    cases = [
        # g times a word over F_t: its F_t-combinations miss the word
        [[fld.mul(g, v) for v in word]],
        # 1 at each leading column, g at the other row's: the F_t-combinations
        # miss e0
        [[fld.add(v, fld.mul(g, w)) for v, w in zip(e0, e1)], e1],
        # rows of a code in reverse order, and with a row added to another
        list(reversed(echelon)),
        [echelon[0], [fld.add(v, w) for v, w in zip(echelon[0],
                                                    echelon[1])],
         *echelon[2:]],
        # a zero row, and two rows with the same leading column
        [bytes(7) if isinstance(echelon[0], bytes) else (0,) * 7,
         *echelon],
        [[fld.mul(g, v) for v in echelon[0]], *echelon],
        # random rows
        [[rng.randrange(fld.order) for _ in range(7)] for _ in range(3)],
    ]
    for rows in cases:
        with pytest.raises(ValueError):
            LinearCode(fld, 7, rows)
        code = row_space_basis(rows, fld, 7)
        assert subfield_subcode_oracle(code, emb) == \
            spanning_set_subcode(code, emb)
    assert subfield_subcode_oracle(
        row_space_basis(cases[0], fld, 7), emb).k == 1
    assert subfield_subcode_oracle(
        row_space_basis(cases[1], fld, 7), emb).k == 2


def test_oracle_and_trace_code_reject_embedding_into_another_field():
    code = build_code(NT3, 8)  # over F_16
    emb = embedding(make_field(2, 1), make_field(2, 2))
    for route in (subfield_subcode_oracle, trace_code):
        with pytest.raises(FieldError, match="does not target"):
            route(code, emb)
    with pytest.raises(FieldError, match="does not target"):
        subfield_subcode_from_checks(NT3, 8, emb)
