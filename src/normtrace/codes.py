"""Evaluation codes on extended Norm-Trace curves and their duals.

NT_u(s) is the affine variety code spanned by evaluating the footprint
monomials of weight at most s at all n points.  The dual of NT_u(s) is the
twisted code v * NT_u(s') with s' = n + 2g - 2 - s, where v_P = -1/u at the
points with x != 0 and v_P = -1 at the points with x = 0.  When u = 1 mod p
the twist is a constant and drops out, so the dual is NT_u(s') itself, as
for every binary curve.

check_duality verifies this relation at runtime without building either
code.  Both are spans of monomial evaluations, so they are orthogonal
exactly when every twisted power sum S(a, b) = sum_P v_P x^a y^b vanishes,
for (a, b) a sum of exponents of a weight-<=s and a weight-<=s' monomial.
Which S(a, b) vanish is one table per curve, built on first use over the
reduced X exponents a <= u(q-1) (x^{u(q-1)+1} = x at every point) and every
Y exponent sum; a check reads the staircase of exponent sums of M(s) and
M(s') in it.  The table has a closed form: the x with x^u = c != 0 are a
coset of the u-th roots of unity, so the sum of x^a over them vanishes
unless u divides a, and only the q rows a = ku are built, from one sum of
y^b per trace value and the twist read once per value (_power_sum_table).

Footprint monomials evaluate to a basis of the functions on the points,
so each dimension is a count of monomials.  footprint_is_basis proves this
once per curve without an elimination: with the points grouped by x into
fibers (curves.fibers), the n x n evaluation matrix of the footprint is a
Kronecker product of Vandermonde matrices times a block diagonal of
Vandermonde matrices.  build_code still checks the rank of every code
whose generators it builds.

Both Vandermonde factors of that matrix M have inverses in closed form,
so M^-1 needs no elimination (footprint_inverse_rows): the x's are 0 and
the u(q-1)-th roots of unity, and each fiber's y's are the roots of
Tr(Y) - c, whose derivative is 1.  The column of M^-1 at a footprint monomial of weight
above s is orthogonal to every monomial of M(s), so these n - k columns
are parity checks spanning the dual of NT_u(s); subfield reads the
subfield subcodes of high-rate codes from them.

build_code returns the LinearCode NT_u(s).  It evaluates Newton rows fiber
by fiber: the points, in order, are grouped by x into the fibers of
curves.fibers, with distinct x's x_0, x_1, ..., and X^i Y^j gives the row of
pi_i(x) y^j, pi_i(x) = prod_{c<i} (x - x_c), which is pi_i(x) times each
fiber's y^j, one scaling per fiber, each a linalg.entrywise map.  Row
(i, j) vanishes on fibers 0 .. i-1, so the rows come to rref
block-triangular, and forward elimination only meets rows that lead in the
same fiber.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate, chain

from .curves import CurveSpec, fibers
from .fields import field_sum
from .linalg import LinearCode, entrywise, row_space_basis, row_type
from .monomials import footprint, monomials_up_to
from .reduction import _x_exponent


def _fiber_rows(curve: CurveSpec, monos, x_part: dict, y_part) -> list:
    """For each (i, j) in monos, the row whose entry at the point (x, y) is
    x_part[i][c] * y_part(j)(y), c the index of x's fiber (curves.fibers).

    The row of y_part(j) over all the points is one entrywise map, and each
    fiber's slice of it is scaled by its x_part entry, also one entrywise
    map.  A row is `bytes` over fields of order at most 256, a list above.
    """
    fld = curve.field
    kind = row_type(fld)
    groups = fibers(curve)
    ys = kind(chain.from_iterable(groups.values()))
    bounds = list(accumulate(map(len, groups.values()), initial=0))
    scalings = {c: entrywise(fld, partial(fld.mul, c))
                for c in {c for i, _ in monos for c in x_part[i]}}
    yfibers = {}
    for j in {j for _, j in monos}:
        row = entrywise(fld, y_part(j))(ys)
        yfibers[j] = [row[a:b] for a, b in zip(bounds, bounds[1:])]
    join = b"".join if kind is bytes else \
        (lambda parts: list(chain.from_iterable(parts)))
    return [join(scalings[c](part) for c, part in zip(x_part[i], yfibers[j]))
            for i, j in monos]


def _monomial_rows(curve: CurveSpec, monos) -> list:
    """The Newton rows of the monomials: for X^i Y^j, the evaluations of
    pi_i(x) y^j at the points, where pi_i(x) = prod_{c<i} (x - x_c) over
    the first i distinct x's x_0, x_1, ... in point order.

    The points are grouped by x into fibers, so pi_i vanishes on fibers
    0 .. i-1, and the row of X^i Y^j is, fiber by fiber, pi_i(x) times that
    fiber's slice of the row of y^j (_fiber_rows).
    """
    fld = curve.field
    xs = list(fibers(curve))
    wanted = {i for i, _ in monos}
    newton, pi = {}, [1] * len(xs)  # i -> pi_i at each fiber's x
    for i in range(max(wanted, default=-1) + 1):
        if i in wanted:
            newton[i] = pi
        if i < len(xs):  # pi_{i+1} = pi_i (x - x_i); past that, zero
            pi = [fld.mul(v, fld.sub(x, xs[i])) for v, x in zip(pi, xs)]
    return _fiber_rows(curve, monos, newton,
                       lambda j: fld.power_list(j).__getitem__)


def footprint_inverse_rows(curve: CurveSpec, monos) -> list:
    """For each footprint monomial X^i Y^j in monos, column (i, j) of M^-1,
    M the evaluation matrix of the footprint (footprint_is_basis): the word
    h over the points with sum_P x^a y^b h_P = [(a, b) = (i, j)] for every
    footprint monomial X^a Y^b.  For X^i Y^j of weight above s, h is a
    parity check of NT_u(s), and those n - k words span its dual.

    M = (A (x) I_m) diag(V_x), so M^-1 = diag(V_x^-1) (A^-1 (x) I_m), and
    entry (x, y) of column (i, j) is A^-1[x][i] V_x^-1[y][j], one scaling
    per fiber of one row in y (_fiber_rows).  Both inverses have a closed
    form.  With P = u(q-1), the x's are 0 and the P-th roots of unity mu_P,
    and P is a unit of F_p (u divides (q^r-1)/(q-1), prime to p, and
    q - 1 = -1 mod p).

    A^-1[x][i] = x^-i / P for x != 0 and 1 <= i <= P, 0 at i = 0; row
    x = 0 is [i = 0] - [i = P].  Indeed sum_x x^a A^-1[x][i] is 0^a = [a = 0]
    for i = 0; for i >= 1 it is (1/P) sum_{mu_P} x^(a-i) - [i = P] 0^a, and
    the sum over mu_P is P when P divides a - i, for a - i in -P .. P - 1:
    at a = i, and at a = 0, i = P, where the row of x = 0 cancels it.

    The y's of the fiber of x are the trace class Y_c, c = x^u, and
    f(Y) = prod_{y in Y_c} (Y - y) = Tr(Y) - c = sum_{k<r} Y^(q^k) - c has
    derivative 1.  So the Lagrange polynomial of y, which is 1 at y and 0
    at the other y's of Y_c, is f(Y) / ((Y - y) f'(y)) =
    sum_{k<r} (Y^(q^k) - y^(q^k)) / (Y - y), and its coefficients are row y
    of V_x^-1: V_x^-1[y][j] = sum_{k<r, q^k>j} y^(q^k-1-j), the same in
    every fiber, and read from the y alone.
    """
    fld = curve.field
    q, r = curve.q, curve.r
    period = curve.u * (q - 1)
    scale = fld.inv(period % curve.p)

    def a_inverse(x, i):
        if not x:
            return {0: 1, period: fld.neg(1)}.get(i, 0)
        return fld.mul(scale, fld.pow(x, -i)) if i else 0

    x_part = {i: [a_inverse(x, i) for x in fibers(curve)]
              for i in {i for i, _ in monos}}

    def y_part(j):
        powers = [fld.power_list(q ** k - 1 - j) for k in range(r)
                  if q ** k > j]
        if len(powers) > 1:
            powers = [[field_sum(fld, terms) for terms in zip(*powers)]]
        return powers[0].__getitem__

    return _fiber_rows(curve, monos, x_part, y_part)


@lru_cache(maxsize=None)
def footprint_is_basis(curve: CurveSpec) -> bool:
    """True: the footprint monomials evaluate to a basis of the functions on
    the points.  Raises AssertionError, as build_code does for dependent
    evaluations, when a hypothesis of the proof below fails.

    Let m = q^{r-1}.  Order the footprint as the box of X^i Y^j,
    0 <= i <= u(q-1), 0 <= j < m, and the points by x into fibers.  The
    n x n matrix M with entry x^i y^j in row (i, j) and column (x, y) has
    the m x m block x^i V_x in block row i and fiber x, where
    V_x[j][y] = y^j.  So M = (A (x) I_m) diag(V_x) with A[i][x] = x^i, and
    det M = det(A)^m prod_x det(V_x).  These are Vandermonde determinants:
    nonzero when there are u(q-1) + 1 distinct x's, A being square, and each
    fiber holds m distinct y's.  The check reads each point and monomial
    once, with no field arithmetic.
    """
    m = curve.weight_x
    height = curve.u * (curve.q - 1) + 1
    groups = fibers(curve)
    faults = []
    if len(groups) != height:
        faults.append(f"{len(groups)} fibers, expected {height}")
    faults.extend(f"fiber x={x} holds {len(set(ys))} distinct of {len(ys)} "
                  f"y's, expected {m}"
                  for x, ys in groups.items()
                  if not len(set(ys)) == len(ys) == m)
    monos = footprint(curve)
    box = {(i, j) for i in range(height) for j in range(m)}
    if len(monos) != len(box) or set(monos) != box:
        faults.append(f"footprint is not the box i <= {height - 1}, "
                      f"j <= {m - 1}")
    if faults:
        raise AssertionError("footprint evaluations are not proved "
                             "independent: " + "; ".join(faults))
    return True


def affine_variety_code(points, polys, fld) -> LinearCode:
    """Row space of the evaluation matrix of the given polynomials."""
    rows = [[f.evaluate(p) for p in points] for f in polys]
    return row_space_basis(rows, fld, n=len(points))


@lru_cache(maxsize=None)
def build_code(curve: CurveSpec, s: int) -> LinearCode:
    """NT_u(s) as a LinearCode: the span of the evaluations of the footprint
    monomials of weight <= s at the curve points, in canonical reduced
    echelon form.

    The rows eliminated are the Newton rows pi_i(x) y^j (_monomial_rows),
    which span the same code: X^i Y^j has weight i q^{r-1} + j u, so for
    each j the monomials of M(s) are X^0 Y^j ... X^I(j) Y^j, and pi_0 ...
    pi_I(j), monic of degrees 0 ... I(j), span the same polynomials in x as
    1, x, ..., x^I(j).  The reduced echelon form of a row space does not
    depend on the rows that span it, so the generators are those of the
    monomial evaluations themselves.
    """
    monos = tuple(monomials_up_to(curve, s))
    rows = _monomial_rows(curve, monos)
    code = row_space_basis(rows, curve.field, n=curve.n)
    if code.k != len(monos):
        raise AssertionError(
            f"footprint evaluations are dependent: {code.k} != {len(monos)}")
    return code


def dual_weight(curve: CurveSpec, s: int) -> int:
    """Weight s' with NT_u(s)^perp = NT_u(s'): s' = n + 2g - 2 - s.

    This is the relation the worked duality checks confirm; it is an
    involution, and check_duality guards every use at runtime.
    """
    return curve.n + 2 * curve.genus - 2 - s


def dual_weight_printed_formula(curve: CurveSpec, s: int) -> int:
    """Alternate dual-weight formula q^{r-1}(u-1) + u(q^{r-1}-1) - 1 - s.

    Kept only for reporting: whenever it differs from dual_weight, the
    discrepancy is surfaced, never silently used.
    """
    w = curve.weight_x
    return w * (curve.u - 1) + curve.u * (w - 1) - 1 - s


@dataclass(frozen=True)
class DualityReport:
    curve: CurveSpec
    s: int
    s_dual: int
    dim_s: int
    dim_dual: int
    orthogonal: bool
    dims_sum_to_n: bool

    @property
    def ok(self) -> bool:
        return self.orthogonal and self.dims_sum_to_n


def _duality_twist(curve: CurveSpec, x: int) -> int:
    """v_P at the points with this x: -1 at x = 0 and -1/u elsewhere, which
    is -1 for every x when u = 1 mod p."""
    fld = curve.field
    return fld.neg(fld.inv(curve.u % curve.p) if x else 1)


@lru_cache(maxsize=None)
def _power_sum_table(curve: CurveSpec) -> tuple:
    """For each X exponent a = 0 .. u(q-1), the int whose bit b is set when
    the twisted power sum S(a, b) = sum_P v_P x^a y^b is nonzero, for
    b = 0 .. 2(q^{r-1} - 1), the largest sum of two footprint Y exponents.

    The points with x^u = c, for c in F_q, form a class: the x's with
    x^u = c times the y's with Tr(y) = c.  The class c = 0 is x = 0 alone,
    and for c != 0 the x's are a coset x_0 mu_u of the u-th roots of
    unity (u divides q^r - 1, so mu_u has u elements, and u != 0 in F_p).
    The twist v is constant on a class, v_c, and is read at one x of it.
    So S(a, b) = sum_c v_c (sum_{x^u=c} x^a) Y_c(b), Y_c(b) the sum of y^b
    over Tr(y) = c.  The x-sum is 0^a = [a = 0] for c = 0; for c != 0 it is
    x_0^a sum_{z in mu_u} z^a, which is 0 unless u divides a, and
    u x_0^{ku} = u c^k for a = ku.  So a row is zero unless a = ku, and as
    a <= u(q-1), k runs over 0 .. q-1:

        S(ku, b) = [k = 0] v_0 Y_0(b) + sum_{c != 0} v_c u c^k Y_c(b).

    The Y_c(b) are column sums of the powers of the y's of each class,
    read from the field's exp table.
    """
    fld = curve.field
    q, u = curve.q, curve.u
    top = 2 * (q ** (curve.r - 1) - 1)
    classes = {}  # c -> (v_c, Y_c(0 .. top))
    for x, ys in fibers(curve).items():
        c = fld.pow(x, u)
        if c not in classes:
            classes[c] = (_duality_twist(curve, x), [
                field_sum(fld, column) for column in
                zip(*(fld.powers(y, top + 1) for y in ys))])
    v0, y0 = classes.pop(0)
    scale = u % curve.p  # u as an element of F_p, which has the same code
    rows = [0] * (u * (q - 1) + 1)
    for k in range(q):
        terms = [(fld.mul(v, fld.mul(scale, fld.pow(c, k))), ysum)
                 for c, (v, ysum) in classes.items()]
        if k == 0:
            terms.append((v0, y0))
        rows[k * u] = sum(
            1 << b for b in range(top + 1)
            if field_sum(fld, (fld.mul(coeff, ysum[b])
                               for coeff, ysum in terms)))
    return tuple(rows)


def _column_tops(monos) -> dict:
    """i -> the largest j of a monomial X^i Y^j in monos."""
    tops = {}
    for i, j in monos:
        if tops.get(i, -1) < j:
            tops[i] = j
    return tops


def check_duality(curve: CurveSpec, s: int) -> DualityReport:
    """Verify NT_u(s)^perp = v * NT_u(dual_weight(s)) from power sums.

    The codes are orthogonal when S(a, b) = sum_P v_P x^a y^b is zero for
    every exponent sum (a, b) of a monomial in M(s) and one in M(s').  At
    every point x^{u(q-1)+1} = x, so S(a, b) depends on a only through its
    reduced exponent (_x_exponent), and one table per curve holds which
    sums vanish (_power_sum_table).  M(s) and M(s') hold, with X^i Y^j,
    every X^i Y^j' for j' < j, so the exponent sums with a given a are the
    (a, b) for b up to the largest j + j' over the pairs with i + i' = a: a
    staircase, read from the table with one mask per a.  The dimensions
    are |M(s)| and |M(s')|: footprint monomials evaluate independently
    (footprint_is_basis).
    """
    footprint_is_basis(curve)
    s_dual = dual_weight(curve, s)
    monos = monomials_up_to(curve, s)
    dual_monos = monomials_up_to(curve, s_dual)
    dual_tops = _column_tops(dual_monos).items()
    stairs = {}
    for i, j in _column_tops(monos).items():
        for i2, j2 in dual_tops:
            if stairs.get(i + i2, -1) < j + j2:
                stairs[i + i2] = j + j2
    nonzero = _power_sum_table(curve) if stairs else ()
    orthogonal = not any(nonzero[_x_exponent(curve, a)] & ((2 << b) - 1)
                         for a, b in stairs.items())
    return DualityReport(
        curve=curve, s=s, s_dual=s_dual,
        dim_s=len(monos), dim_dual=len(dual_monos),
        orthogonal=orthogonal,
        dims_sum_to_n=(len(monos) + len(dual_monos) == curve.n))
