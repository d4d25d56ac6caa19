"""Command-line interface.

Subcommands: curve, points, code, dual, trace-dim, subfield, bound, mindist,
sweep, export.  Exit codes: 0 success, 2 invalid parameters, 3 budget
exceeded, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .codes import build_code, check_duality, dual_weight, \
    dual_weight_printed_formula
from .curves import CurveError, enumerate_points, make_curve
from .distance import DEFAULT_BUDGET, BudgetExceeded, \
    exact_min_distance_enum, exact_min_distance_parity, geil_bound
from .fields import FieldError
from .reporting import export_matrix, run_report, sweep
from .subfield import is_frobenius_invariant, subfield_subcode_dim, \
    subfield_subcode_of_ent, trace_span_dim

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_BUDGET = 3
EXIT_IO = 4


def _add_shared(parser, need_s=False, need_t=False):
    parser.add_argument("--p", type=int, required=True)
    parser.add_argument("--l", type=int, required=True)
    parser.add_argument("--r", type=int, required=True)
    parser.add_argument("--u", type=int, required=True)
    parser.add_argument("--s", type=int, required=need_s, default=None)
    parser.add_argument("--t", type=int, required=need_t, default=None)
    parser.add_argument("--json", action="store_true", dest="as_json")
    parser.add_argument("--exact", action="store_true")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    parser.add_argument(
        "--delta-variant", choices=["paper", "footprint"],
        default="footprint",
        help="monomial box of the order bound; only 'footprint' is a lower "
             "bound, 'paper' is not sound and is reported only to explain "
             "published values in paper_claim_delta")


def _emit(args, data: dict):
    if args.as_json:
        print(json.dumps(data, sort_keys=True))
    else:
        for k, v in data.items():
            print(f"{k}: {v}")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="normtrace",
        description="Extended Norm-Trace codes, subfield subcodes and bounds")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="curve parameters and derived constants")
    _add_shared(p)

    p = sub.add_parser("points", help="affine rational points, one per line")
    _add_shared(p)

    p = sub.add_parser("code", help="full report for one (curve, s, t)")
    _add_shared(p, need_s=True, need_t=True)

    p = sub.add_parser("dual", help="dual weight and explicit duality check")
    _add_shared(p, need_s=True)

    p = sub.add_parser("trace-dim", help="dimension of the trace code")
    _add_shared(p, need_s=True, need_t=True)

    p = sub.add_parser("subfield", help="subfield subcode dimensions")
    _add_shared(p, need_s=True, need_t=True)

    p = sub.add_parser("bound", help="order bound on the minimum distance")
    _add_shared(p, need_s=True)

    p = sub.add_parser("mindist", help="exact distance of the subfield subcode")
    _add_shared(p, need_s=True, need_t=True)
    p.add_argument("--method", choices=["parity", "enum"], default="parity")

    p = sub.add_parser("sweep", help="reports over a range of s, cached")
    _add_shared(p, need_t=True)
    p.add_argument("--s-range", required=True,
                   help="inclusive range A:B of weights")
    p.add_argument("--cache", default=None, help="JSON-lines cache path")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("export", help="write a generator matrix to a file")
    _add_shared(p, need_s=True)
    p.add_argument("--out", required=True)
    return ap


def _run(args) -> int:
    cmd = args.command
    if cmd == "curve":
        c = make_curve(args.p, args.l, args.r, args.u)
        _emit(args, {"p": c.p, "l": c.l, "r": c.r, "u": c.u, "q": c.q,
                     "n": c.n, "genus": c.genus,
                     "weight_x": c.weight_x, "weight_y": c.weight_y,
                     "max_weight": c.max_weight})
    elif cmd == "points":
        c = make_curve(args.p, args.l, args.r, args.u)
        for x, y in enumerate_points(c):
            print(f"{x} {y}")
    elif cmd == "code":
        rep = run_report(args.p, args.l, args.r, args.u, args.s, args.t,
                         exact=True if args.exact else None,
                         budget=args.budget,
                         delta_variant=args.delta_variant)
        if args.as_json:
            print(rep.to_json())
        else:
            for k, v in json.loads(rep.to_json()).items():
                print(f"{k}: {v}")
    elif cmd == "dual":
        c = make_curve(args.p, args.l, args.r, args.u)
        repd = check_duality(c, args.s)
        data = {"s": args.s, "dual_weight": dual_weight(c, args.s),
                "printed_formula": dual_weight_printed_formula(c, args.s),
                "dim_s": repd.dim_s, "dim_dual": repd.dim_dual,
                "orthogonal": repd.orthogonal, "ok": repd.ok}
        _emit(args, data)
    elif cmd == "trace-dim":
        c = make_curve(args.p, args.l, args.r, args.u)
        _emit(args, {"s": args.s, "t": args.t,
                     "trace_dim": trace_span_dim(c, args.s, args.t)})
    elif cmd == "subfield":
        c = make_curve(args.p, args.l, args.r, args.u)
        dim = subfield_subcode_dim(c, args.s, args.t)
        oracle = subfield_subcode_of_ent(c, args.s, args.t).k
        inv = is_frobenius_invariant(c, args.s, args.t)
        _emit(args, {"s": args.s, "t": args.t, "dim_delsarte": dim,
                     "dim_oracle": oracle,
                     "frobenius_invariant": inv.invariant,
                     "witness": inv.witness})
    elif cmd == "bound":
        c = make_curve(args.p, args.l, args.r, args.u)
        data = {"s": args.s,
                "bound": geil_bound(c, args.s, args.delta_variant)}
        other = "paper" if args.delta_variant == "footprint" else "footprint"
        other_val = geil_bound(c, args.s, other)
        if other_val != data["bound"]:
            data[f"bound_{other}_variant"] = other_val
        _emit(args, data)
    elif cmd == "mindist":
        c = make_curve(args.p, args.l, args.r, args.u)
        code = subfield_subcode_of_ent(c, args.s, args.t)
        fn = exact_min_distance_parity if args.method == "parity" \
            else exact_min_distance_enum
        res = fn(code, budget=args.budget)
        _emit(args, {"n": code.n, "k": code.k, "d": res.exact,
                     "method": res.method,
                     "witness": "".join(str(v) for v in res.witness)
                     if code.field.order <= 10 else list(res.witness)})
    elif cmd == "sweep":
        lo, hi = (int(v) for v in args.s_range.split(":"))
        reports = sweep(args.p, args.l, args.r, args.u,
                        range(lo, hi + 1), args.t,
                        cache_path=args.cache, force=args.force,
                        exact=True if args.exact else False,
                        budget=args.budget,
                        delta_variant=args.delta_variant)
        for rep in reports:
            print(rep.to_json())
    elif cmd == "export":
        c = make_curve(args.p, args.l, args.r, args.u)
        if args.t is not None:
            code = subfield_subcode_of_ent(c, args.s, args.t)
        else:
            code = build_code(c, args.s).code
        export_matrix(code, args.out)
        print(f"wrote {code.k} x {code.n} matrix to {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (CurveError, FieldError, ValueError) as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
