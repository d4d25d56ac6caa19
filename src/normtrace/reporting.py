"""Report records, the parameter sweep with its JSON-lines cache, and
matrix import/export.

A CodeReport collects everything computed for one (curve, s, t) instance.
Whenever a computed value differs from one of the hardcoded expected values
taken from published tables, the difference is recorded in the free-text
paper_claim_delta field; computed values are never patched to match.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .codes import check_duality, dual_weight, dual_weight_printed_formula
from .curves import CurveSpec, make_curve
from .distance import DEFAULT_BUDGET, BudgetExceeded, exact_min_distance_parity, \
    geil_bound, is_even_weight
from .fields import FieldError, make_field
from .linalg import LinearCode, row_space_basis
from .subfield import subfield_subcode_of_ent, trace_span_dim

# Published [n, k, d] claims (and one trace dimension) for the worked
# instances, keyed by (p, l, r, u, s, t).  Used only to populate
# paper_claim_delta; never fed back into any computation.
PUBLISHED_CLAIMS = {
    (2, 1, 4, 3, 36, 2): {"n": 32, "k": 25, "d": 4, "trace_dim_of_dual": 7},
    (2, 1, 4, 5, 65, 2): {"n": 48, "k": 40, "d": 4, "trace_dim_of_dual": 8},
    (2, 1, 4, 5, 60, 4): {"n": 48, "k": 43, "d": 3},
    (2, 1, 4, 5, 62, 4): {"n": 48, "k": 44, "d": 3},
}


@dataclass(frozen=True)
class CodeReport:
    p: int
    l: int
    r: int
    u: int
    n: int
    genus: int
    s: int
    t: int
    dim_supercode: int
    dual_weight_used: int
    trace_dim_of_dual: int
    dim_subfield: int
    geil_bound: int
    exact_distance: int | None
    distance_method: str | None
    even_weight: bool | None
    paper_claim_delta: str | None

    def key(self):
        return (self.p, self.l, self.r, self.u, self.s, self.t)

    def to_json(self) -> str:
        # The fields are plain JSON values, so vars(self) is what asdict
        # would copy.
        return json.dumps(vars(self), sort_keys=True)


REPORT_FIELDS = [f.name for f in fields(CodeReport)]


def check_routes_agree(dim_oracle: int, dim_delsarte: int) -> None:
    """Raise AssertionError when the oracle and Delsarte dimensions of a
    subfield subcode differ."""
    if dim_oracle != dim_delsarte:
        raise AssertionError(f"oracle dimension {dim_oracle} != "
                             f"Delsarte dimension {dim_delsarte}")


def run_report(p: int, l: int, r: int, u: int, s: int, t: int,
               exact: bool | None = None,
               budget: int = DEFAULT_BUDGET) -> CodeReport:
    """Full pipeline for one instance.

    exact=None attempts the exact distance and leaves it null on budget
    exhaustion; exact=True propagates the budget error; exact=False skips
    the distance computation entirely.
    """
    curve = make_curve(p, l, r, u)
    s_dual = dual_weight(curve, s)
    duality = check_duality(curve, s)
    if not duality.ok:
        raise AssertionError(f"duality check failed for s={s}: {duality}")
    trace_dim = trace_span_dim(curve, s_dual, t)
    dim_sub = curve.n - trace_dim
    bound = geil_bound(curve, s)
    notes = []
    printed = dual_weight_printed_formula(curve, s)
    if printed != s_dual:
        notes.append(f"printed dual-weight formula gives {printed}, "
                     f"verified involution gives {s_dual}")
    paper_bound = geil_bound(curve, s, "paper")
    if paper_bound != bound:
        notes.append("order bound over the paper monomial box "
                     f"gives {paper_bound} instead of {bound}")

    exact_distance = None
    method = None
    even = None
    if exact is not False:
        subcode = subfield_subcode_of_ent(curve, s, t)
        check_routes_agree(subcode.k, dim_sub)
        if t == 2:
            even = is_even_weight(subcode)
        if subcode.k > 0:
            try:
                res = exact_min_distance_parity(subcode, budget=budget)
                exact_distance = res.exact
                method = res.method
            except BudgetExceeded:
                if exact:
                    raise

    claim = PUBLISHED_CLAIMS.get((p, l, r, u, s, t))
    if claim:
        deltas = []
        if claim.get("k") is not None and claim["k"] != dim_sub:
            deltas.append(f"published k={claim['k']}, computed {dim_sub}")
        if claim.get("d") is not None and exact_distance is not None \
                and claim["d"] != exact_distance:
            deltas.append(f"published d={claim['d']}, "
                          f"computed {exact_distance}")
        if claim.get("trace_dim_of_dual") is not None \
                and claim["trace_dim_of_dual"] != trace_dim:
            deltas.append(f"published trace dim {claim['trace_dim_of_dual']}, "
                          f"computed {trace_dim}")
        notes.extend(deltas)

    return CodeReport(
        p=p, l=l, r=r, u=u, n=curve.n, genus=curve.genus, s=s, t=t,
        dim_supercode=duality.dim_s,
        dual_weight_used=s_dual,
        trace_dim_of_dual=trace_dim,
        dim_subfield=dim_sub,
        geil_bound=bound,
        exact_distance=exact_distance,
        distance_method=method,
        even_weight=even,
        paper_claim_delta="; ".join(notes) if notes else None,
    )


class CacheError(Exception):
    """Corrupt sweep cache or matrix file: duplicate keys or malformed
    records."""


def _parse_cache(path) -> dict:
    """key -> record of the JSON-lines cache, a dict of the CodeReport
    fields of each line, with any other field dropped.  A line that is not
    such a record, or repeats a key, raises CacheError naming the line."""
    out = {}
    path = Path(path)
    if not path.exists():
        return out
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            rec = {f: data[f] for f in REPORT_FIELDS}
        except (ValueError, KeyError, TypeError) as exc:
            raise CacheError(f"malformed cache record at line {lineno}: "
                             f"{exc}") from None
        key = (rec["p"], rec["l"], rec["r"], rec["u"], rec["s"], rec["t"])
        if key in out:
            raise CacheError(f"duplicate cache key {key} at line {lineno}")
        out[key] = rec
    return out


def read_cache(path) -> dict:
    """Load the JSON-lines cache as key -> CodeReport, rejecting malformed
    records and duplicate keys as sweep does."""
    return {key: CodeReport(**rec) for key, rec in _parse_cache(path).items()}


def sweep(p: int, l: int, r: int, u: int, s_values, t: int,
          cache_path=None, force: bool = False,
          exact: bool | None = False,
          budget: int = DEFAULT_BUDGET) -> list:
    """One report per s, appending new records to the JSON-lines cache.

    The cache is parsed once into plain records (_parse_cache), every line
    checked, and a CodeReport is made only for the records served.  A
    cached record is served unless force=True, or unless it has no exact
    distance and the request asks for one (exact is not False).  Records
    recomputed for a cached key replace the cache file wholesale to keep
    keys unique, through a temp file in the same directory and os.replace,
    so a failed rewrite leaves the old cache as it was.  When a report
    raises, the records finished before it are written the same way and
    the error propagates.
    """
    cached = _parse_cache(cache_path) if cache_path else {}
    results = []
    fresh = []
    rewrite = force
    try:
        for s in s_values:
            key = (p, l, r, u, s, t)
            rec = cached.get(key)
            if rec is not None and not force and (
                    exact is False or rec["exact_distance"] is not None):
                results.append(CodeReport(**rec))
                continue
            rewrite = rewrite or rec is not None
            rep = run_report(p, l, r, u, s, t, exact=exact, budget=budget)
            results.append(rep)
            fresh.append(rep)
            cached[key] = vars(rep)
    finally:
        if cache_path and fresh:
            path = Path(cache_path)
            if rewrite:
                tmp = path.with_name(f".{path.name}.{os.getpid()}."
                                     f"{os.urandom(4).hex()}.tmp")
                fh = tmp.open("x")
                try:
                    with fh:
                        fh.writelines(CodeReport(**rec).to_json() + "\n"
                                      for rec in cached.values())
                        fh.flush()
                        os.fsync(fh.fileno())
                    os.replace(tmp, path)
                except BaseException:
                    tmp.unlink(missing_ok=True)
                    raise
            else:
                with path.open("a") as fh:
                    for rep in fresh:
                        fh.write(rep.to_json() + "\n")
    return results


def export_matrix(code: LinearCode, path) -> None:
    """Write `p e rows cols` then the row-major integer-encoded entries."""
    fld = code.field
    lines = [f"{fld.p} {fld.e} {code.k} {code.n}"]
    for row in code.generators:
        lines.append(" ".join(str(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def import_matrix(path) -> LinearCode:
    """Inverse of export_matrix; re-canonicalizes and validates entries.

    A file that is not such a matrix, or one over a field whose rows have
    no packing (characteristic above 127), raises CacheError naming the
    file and the fault.
    """
    tokens = Path(path).read_text().split()
    try:
        p, e, rows, cols, *vals = map(int, tokens)
    except ValueError as exc:
        raise CacheError(f"{path}: expected a `p e rows cols` header and "
                         f"integer entries ({exc})") from None
    if rows < 0 or cols < 1:
        raise CacheError(f"{path}: header gives a {rows} x {cols} matrix")
    try:
        fld = make_field(p, e)
        if len(vals) != rows * cols:
            raise CacheError(f"{path}: expected {rows * cols} entries, "
                             f"got {len(vals)}")
        for v in vals:
            fld.check(v)
        code = row_space_basis([vals[i * cols:(i + 1) * cols]
                                for i in range(rows)], fld, cols)
    except FieldError as exc:
        raise CacheError(f"{path}: {exc}") from None
    if code.k != rows:
        raise CacheError(f"{path}: imported rows are not independent")
    return code
