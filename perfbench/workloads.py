"""The three workloads: their instances, the timed operation and its checks.

An operation does what one `normtrace` subcommand does, through the same
library calls.  Calls go through the `normtrace` package attributes at call
time, so the traced run sees them.  Checks run outside the timed region and
rest on `reference` (arithmetic written apart from normtrace) or on
properties the method must have; none compares with stored output.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import normtrace as nt
from normtrace.distance import BudgetExceeded

import reference as ref


class Workload:
    """One round is `operations()`, run in an order the seed picks."""

    name = ""

    def operations(self) -> list:
        raise NotImplementedError

    def begin_round(self, workdir: Path) -> None:
        """Reset per-round state before the first operation of a round."""

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> list:
        """Problems with one operation's output; empty when it is right."""
        raise NotImplementedError

    def check_round(self, outputs: list) -> dict:
        """Problems that only show across a round: {operation index: [...]}."""
        return {}


# -- sweep ---------------------------------------------------------------------

SWEEP_CURVE = (2, 1, 4, 15)  # u=15 over F_16: n=128, genus 49
SWEEP_T = 2
SWEEP_STRIDE = 3


class Sweep(Workload):
    """`normtrace sweep` on a weight s and its dual weight s', one cache per
    round.  Pairing s with s' gives every operation one Groebner-heavy and
    one Groebner-light report, so operation times vary smoothly with s."""

    name = "sweep"

    def __init__(self):
        self.curve = ref.Curve(*SWEEP_CURVE)
        self.cache_path = None

    def operations(self) -> list:
        top = self.curve.n + 2 * self.curve.genus - 2  # s + s' for dual pairs
        return [(s, top - s) for s in range(0, top // 2, SWEEP_STRIDE)]

    def begin_round(self, workdir: Path) -> None:
        self.cache_path = workdir / "sweep-cache.jsonl"
        self.cache_path.unlink(missing_ok=True)

    def run(self, op):
        return nt.sweep(*SWEEP_CURVE, list(op), SWEEP_T,
                        cache_path=self.cache_path, exact=False)

    def check(self, op, out) -> list:
        c = self.curve
        problems = []
        if [rep.s for rep in out] != list(op):
            return [f"reports for s={[rep.s for rep in out]}, asked {op}"]
        records = {}
        for line in self.cache_path.read_text().splitlines():
            rec = json.loads(line)
            records[(rec["p"], rec["l"], rec["r"], rec["u"], rec["s"],
                     rec["t"])] = rec
        for rep in out:
            s, k = rep.s, rep.dim_supercode
            if (rep.n, rep.genus) != (c.n, c.genus):
                problems.append(f"s={s}: n, g = {rep.n}, {rep.genus}")
            if k != c.dimension(s):
                problems.append(f"s={s}: k={k}, counted {c.dimension(s)}")
            if c.dimension(s) + c.dimension(rep.dual_weight_used) != c.n:
                problems.append(f"s={s}: k(s) + k(s'={rep.dual_weight_used})"
                                f" != n")
            if rep.dim_subfield > k:
                problems.append(f"s={s}: dim_subfield {rep.dim_subfield} > k")
            if s < c.n and not c.n - s <= rep.geil_bound <= c.n - k + 1:
                problems.append(f"s={s}: bound {rep.geil_bound} outside "
                                f"[n - s, n - k + 1]")
            if records.get(rep.key()) != asdict(rep):
                problems.append(f"s={s}: cache record differs from report")
        return problems

    def check_round(self, outputs: list) -> dict:
        reports = sorted((rep.s, rep.dim_subfield, i)
                         for i, out in enumerate(outputs) if out
                         for rep in out)
        bad = {}
        for (s0, d0, _), (s1, d1, i) in zip(reports, reports[1:]):
            if d1 < d0:
                bad.setdefault(i, []).append(
                    f"dim_subfield falls from {d0} at s={s0} to {d1} at s={s1}")
        return bad


# -- subcode -------------------------------------------------------------------

# (p, l, r, u), s, t: codes of length 64-243, more than half of the time in
# odd characteristic.
SUBCODE_INSTANCES = [
    ((2, 1, 4, 15), 100, 2),
    ((2, 1, 4, 15), 150, 4),
    ((2, 1, 6, 3), 64, 2),
    ((2, 1, 6, 3), 120, 8),
    ((2, 2, 2, 5), 50, 2),
    ((5, 1, 2, 6), 60, 5),
    ((5, 1, 2, 6), 100, 5),
    ((3, 1, 3, 13), 100, 3),
]


def _subfield_degree(curve: ref.Curve, t: int) -> int:
    d = 0
    while curve.p**d < t:
        d += 1
    if curve.p**d != t or (curve.l * curve.r) % d:
        raise ValueError(f"F_{t} is not a subfield of F_{curve.field.order}")
    return d


def _embedded(curve: ref.Curve, t: int, rows) -> list:
    """Rows over F_t, as vectors over the curve's field; None if an entry is
    not an element of F_t."""
    images = ref.embedding(curve.p, _subfield_degree(curve, t),
                           curve.l * curve.r)
    if any(not 0 <= v < t for row in rows for v in row):
        return None
    return [[images[v] for v in row] for row in rows]


def _subcode_problems(curve: ref.Curve, s: int, t: int, code,
                      supercode: ref.RowSpace) -> list:
    """The subfield subcode's generators are independent words of F_t^n
    that lie in NT_u(s)."""
    if (code.n, code.field.order) != (curve.n, t):
        return [f"code of length {code.n} over F_{code.field.order}"]
    rows = _embedded(curve, t, code.generators)
    if rows is None:
        return ["a generator has an entry outside F_t"]
    if ref.RowSpace(curve.field, rows).rank != code.k:
        return ["generators are dependent"]
    if not all(supercode.contains(row) for row in rows):
        return ["a generator is not in the supercode"]
    return []


class Subcode(Workload):
    """`normtrace subfield`: Groebner/Delsarte dimension, the oracle subcode
    and the Frobenius-invariance test."""

    name = "subcode"

    def operations(self) -> list:
        return list(SUBCODE_INSTANCES)

    def run(self, op):
        params, s, t = op
        c = nt.make_curve(*params)
        dim = nt.subfield_subcode_dim(c, s, t)
        code = nt.subfield_subcode_of_ent(c, s, t)
        inv = nt.is_frobenius_invariant(c, s, t)
        return dim, code, inv

    def check(self, op, out) -> list:
        params, s, t = op
        dim, code, inv = out
        curve = ref.Curve(*params)
        supercode = ref.supercode(curve, s)
        problems = []
        if dim != code.k:
            problems.append(f"Delsarte dimension {dim} != oracle k {code.k}")
        problems += _subcode_problems(curve, s, t, code, supercode)
        if inv.invariant != (dim == supercode.rank):
            problems.append(f"invariant={inv.invariant} with dim {dim}, "
                            f"k={supercode.rank}")
        if not inv.invariant:
            i, j = inv.witness
            power = curve.evaluation((i * t, j * t), curve.points())
            if (i, j) not in curve.monomials(s) or supercode.contains(power):
                problems.append(f"witness {inv.witness} does not leave the "
                                f"code under the {t}-th power")
        return problems


# -- mindist -------------------------------------------------------------------

# (p, l, r, u), s, t, engine: one instance per path through the exact
# distance engines.  The F_3 instance is [27,8,11], not [27,10,9]: the
# latter's 3^10 codewords took 3-5 s from run to run on the same code, and
# as the middle operation it set op_s.p50.
MINDIST_INSTANCES = [
    ((2, 1, 4, 3), 36, 2, "enum"),       # [32,25,4], binary Gray code
    ((3, 1, 2, 4), 16, 3, "enum"),       # [27,8,11] over F_3
    ((2, 2, 2, 5), 60, 2, "parity"),     # [64,39,4], binary XOR test
    ((2, 1, 4, 15), 189, 2, "parity"),   # [128,107,4], binary XOR test
    ((2, 2, 2, 5), 60, 4, "parity"),     # [64,47,4], one RREF per subset
    ((2, 2, 2, 5), 63, 4, "parity"),     # [64,53,4], one RREF per subset
]

ENGINES = {"enum": "exact_min_distance_enum",
           "parity": "exact_min_distance_parity"}


class Mindist(Workload):
    """`normtrace mindist`: the oracle subcode, then its exact distance with
    the default budget."""

    name = "mindist"

    def operations(self) -> list:
        return list(MINDIST_INSTANCES)

    def run(self, op):
        params, s, t, engine = op
        c = nt.make_curve(*params)
        code = nt.subfield_subcode_of_ent(c, s, t)
        return code, getattr(nt, ENGINES[engine])(code)

    def check(self, op, out) -> list:
        params, s, t, engine = op
        code, res = out
        curve = ref.Curve(*params)
        supercode = ref.supercode(curve, s)
        problems = _subcode_problems(curve, s, t, code, supercode)
        if problems:
            return problems
        d, word = res.exact, res.witness
        emb = _embedded(curve, t, [word])
        if len(word) != code.n or emb is None:
            return [f"witness is not a word of F_{t}^{code.n}"]
        weight = sum(1 for v in word if v)
        if weight == 0 or weight != d:
            problems.append(f"witness of weight {weight} for d={d}")
        if not supercode.contains(emb[0]):
            problems.append("witness is not in the code")
        if d > code.n - code.k + 1:
            problems.append(f"d={d} breaks the Singleton bound")
        bound = nt.geil_bound(nt.make_curve(*params), s)
        if d < bound:
            problems.append(f"d={d} below the order bound {bound}")
        elif d > bound:
            other = "parity" if engine == "enum" else "enum"
            try:
                d_other = getattr(nt, ENGINES[other])(code).exact
            except BudgetExceeded as exc:
                d_other = f"nothing ({exc})"
            if d_other != d:
                problems.append(f"{engine} gives d={d}, {other} {d_other}")
        return problems


WORKLOADS = {w.name: w for w in (Sweep, Subcode, Mindist)}
