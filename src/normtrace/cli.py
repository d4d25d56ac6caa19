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
from .reporting import CacheError, export_matrix, run_report, sweep
from .subfield import is_frobenius_invariant, subfield_subcode_dim, \
    subfield_subcode_of_ent, trace_span_dim

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_BUDGET = 3
EXIT_IO = 4


# Options beyond the curve parameters; each subcommand takes those it reads.
_OPTIONS = {
    "s": ("--s", {"type": int, "required": True}),
    "t": ("--t", {"type": int, "required": True}),
    "json": ("--json", {"action": "store_true", "dest": "as_json"}),
    "exact": ("--exact", {"action": "store_true"}),
    "budget": ("--budget", {"type": int, "default": DEFAULT_BUDGET}),
}


def _add_command(sub, name, summary, *options):
    parser = sub.add_parser(name, help=summary, allow_abbrev=False)
    for flag in ("--p", "--l", "--r", "--u"):
        parser.add_argument(flag, type=int, required=True)
    for option in options:
        flag, kwargs = _OPTIONS[option]
        parser.add_argument(flag, **kwargs)
    return parser


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

    _add_command(sub, "curve", "curve parameters and derived constants",
                 "json")
    _add_command(sub, "points", "affine rational points, one per line")
    _add_command(sub, "code", "full report for one (curve, s, t)",
                 "s", "t", "json", "exact", "budget")
    _add_command(sub, "dual", "dual weight and duality check",
                 "s", "json")
    _add_command(sub, "trace-dim", "dimension of the trace code",
                 "s", "t", "json")
    _add_command(sub, "subfield", "subfield subcode dimensions",
                 "s", "t", "json")
    _add_command(sub, "bound", "order bound on the minimum distance",
                 "s", "json")
    p = _add_command(sub, "mindist", "exact distance of the subfield subcode",
                     "s", "t", "json", "budget")
    p.add_argument("--method", choices=["parity", "enum"], default="parity")
    p = _add_command(sub, "sweep", "reports over a range of s, cached",
                     "t", "exact", "budget")
    p.add_argument("--s-range", required=True,
                   help="inclusive range A:B of weights")
    p.add_argument("--cache", default=None, help="JSON-lines cache path")
    p.add_argument("--force", action="store_true")
    p = _add_command(sub, "export", "write a generator matrix to a file", "s")
    p.add_argument("--t", type=int, default=None)
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
                         budget=args.budget)
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
        data = {"s": args.s, "bound": geil_bound(c, args.s)}
        paper = geil_bound(c, args.s, "paper")
        if paper != data["bound"]:
            data["bound_paper_variant"] = paper
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
                        budget=args.budget)
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
    except (CacheError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
