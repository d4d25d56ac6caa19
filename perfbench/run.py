"""normtrace benchmark.

    python3 perfbench/run.py --workload {sweep,subcode,mindist} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; it measures the normtrace under `src/`.
The seed orders the operations of a round.  A run repeats whole rounds
while the next one is expected to end within S seconds (at least one
round).  Every lru_cache in normtrace is emptied before each operation and
the sweep cache before each round, so no operation sees a warm hit left by
another.  Each operation's output is checked outside the timed region.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run makes one untraced round and the
same round traced, and reports the per-layer metrics and the tracing
overhead.  Each operation's time, and the problems with any output, go to
standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7

sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _import_program():
    """Import normtrace from this checkout's src/, never from elsewhere."""
    import normtrace
    if Path(normtrace.__file__).resolve().parent != ROOT / "src" / "normtrace":
        raise ImportError(f"normtrace found at {normtrace.__file__}, "
                          f"not under {ROOT / 'src'}")
    return normtrace


@dataclass
class OpResult:
    op: object
    seconds: float
    output: object = None  # None when the operation raised
    problems: list = field(default_factory=list)

    @property
    def raised(self) -> bool:
        return self.output is None


def cached_functions(normtrace) -> list:
    """Every lru_cache in normtrace, found before any tracer wraps them."""
    found = {}
    for key, mod in sorted(sys.modules.items()):
        if key == "normtrace" or key.startswith("normtrace."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def run_round(workload, ops, caches, workdir, tracer=None) -> list:
    workload.begin_round(workdir)
    results = []
    for i, op in enumerate(ops):
        # Start each operation as one CLI invocation would, whatever ran
        # before it: empty caches and a collected heap.
        for fn in caches:
            fn.cache_clear()
        gc.collect()
        if tracer:
            tracer.op = i
            tracer.active = True
        t0 = perf_counter()
        try:
            out = workload.run(op)
        except Exception:
            out = None
            err = traceback.format_exc()
        seconds = perf_counter() - t0
        if tracer:
            tracer.active = False
        res = OpResult(op, seconds, out)
        if out is None:
            res.problems.append(err)
        else:
            res.problems.extend(workload.check(op, out))
        results.append(res)
    outputs = [r.output for r in results]
    for i, problems in workload.check_round(outputs).items():
        results[i].problems.extend(problems)
    return results


def measure_setup(workload_name: str, seed: int) -> float:
    """Median time from starting a fresh interpreter until it has imported
    normtrace and generated the workload's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", workload_name, "--seed", str(seed),
                 "--setup-probe"],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
    return statistics.median(times)


def summary(results: list) -> dict:
    for r in results:
        print(f"{r.seconds:9.4f} s  {r.op}", file=sys.stderr)
    failed = [r for r in results if r.problems]
    for r in failed:
        print(f"FAILED {r.op}: " + "; ".join(r.problems), file=sys.stderr)
    return {"correct": not any(r.problems and not r.raised for r in results),
            "attempted": len(results), "failed": len(failed)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["sweep", "subcode", "mindist"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    normtrace = _import_program()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]()
    rng = random.Random(args.seed)
    ops = workload.operations()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    setup_s = measure_setup(args.workload, args.seed)
    caches = cached_functions(normtrace)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        if args.trace:
            from tracing import Tracer
            rng.shuffle(ops)
            plain = run_round(workload, ops, caches, workdir)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_round(workload, ops, caches, workdir, tracer)
            finally:
                tracer.uninstall()
            results = plain + traced
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_s"] = {
                "value": sum(r.seconds for r in traced)
                - sum(r.seconds for r in plain), "unit": "s"}
            metrics["trace.missing_names"] = {
                "value": len(tracer.missing), "unit": "count"}
            for name in tracer.missing:
                print(f"trace: {name} is missing", file=sys.stderr)
            tracer.write(OUT / f"trace-{args.workload}.jsonl.gz",
                         {"workload": args.workload, "seed": args.seed,
                          "operations": [repr(op) for op in ops]})
        else:
            results = []
            elapsed = 0.0
            while True:
                rng.shuffle(ops)
                t0 = perf_counter()
                results += run_round(workload, ops, caches, workdir)
                last = perf_counter() - t0
                elapsed += last
                if elapsed + last > args.seconds:
                    break
            ok = [r.seconds for r in results if not r.problems]
            metrics = {
                "op_s.p50": {"value": statistics.median(
                    ok or [r.seconds for r in results]), "unit": "s"},
                "ops_per_s": {"value": len(ok) / sum(
                    r.seconds for r in results), "unit": "1/s"},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
                "setup_s": {"value": setup_s, "unit": "s"},
            }
    print(json.dumps(dict(summary(results), metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
