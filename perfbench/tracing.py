"""Spans around the calls into each normtrace layer, recorded from outside.

`Tracer.install()` replaces each target function by a wrapper at every name
a normtrace module binds it to (other modules import it under its own name),
and methods on their class.  A wrapper records a span (name, start, end,
parent span, operation) in memory; `write()` saves the spans when the run
ends.  A layer's self time is its spans' time minus what their child spans
cover.  A target that a refactor has removed is reported as missing.
Field arithmetic is not wrapped: it runs per matrix entry, so it counts
toward the caller's self time.
"""

from __future__ import annotations

import gzip
import json
import os
import sys
import threading
from collections import Counter, defaultdict
from functools import wraps
from math import comb
from time import perf_counter

import reference as ref

# span name -> (module, attribute).  "Class.method" wraps a method.
TARGETS = {
    "fields.make_field": ("normtrace.fields", "make_field"),
    "fields.decompose": ("normtrace.fields", "SubfieldEmbedding.decompose"),
    "curves.points": ("normtrace.curves", "enumerate_points"),
    "reduction.normal_form": ("normtrace.reduction", "normal_form"),
    "codes.build_code": ("normtrace.codes", "build_code"),
    "codes.check_duality": ("normtrace.codes", "check_duality"),
    "linalg.rref": ("normtrace.linalg", "rref"),
    "linalg.product_check": ("normtrace.linalg", "matrix_product_is_zero"),
    "subfield.trace_span": ("normtrace.subfield", "trace_span"),
    "subfield.oracle": ("normtrace.subfield", "subfield_subcode_oracle"),
    "subfield.invariance": ("normtrace.subfield", "is_frobenius_invariant"),
    "distance.bound": ("normtrace.distance", "geil_bound"),
    "distance.parity": ("normtrace.distance", "exact_min_distance_parity"),
    "distance.enum": ("normtrace.distance", "exact_min_distance_enum"),
    "reporting.run_report": ("normtrace.reporting", "run_report"),
    "reporting.sweep": ("normtrace.reporting", "sweep"),
}

# per-layer metric -> (unit, how it is read from the spans and counts)
LAYER_METRICS = {
    "linalg.rref_s": ("s", "self", "linalg.rref"),
    "linalg.rref_calls": ("count", "calls", "linalg.rref"),
    "linalg.rref_cells": ("count", "count", "rref_cells"),
    "linalg.product_check_s": ("s", "total", "linalg.product_check"),
    "fields.decompose_s": ("s", "total", "fields.decompose"),
    "fields.decompose_calls": ("count", "calls", "fields.decompose"),
    "fields.make_field_s": ("s", "total", "fields.make_field"),
    "curves.points_s": ("s", "total", "curves.points"),
    "codes.build_code_s": ("s", "total", "codes.build_code"),
    "codes.build_code_misses": ("count", "count", "build_code_misses"),
    "codes.check_duality_s": ("s", "total", "codes.check_duality"),
    "reduction.normal_form_s": ("s", "total", "reduction.normal_form"),
    "reduction.normal_form_calls": ("count", "calls", "reduction.normal_form"),
    "subfield.trace_span_s": ("s", "total", "subfield.trace_span"),
    "subfield.oracle_s": ("s", "self", "subfield.oracle"),
    "subfield.invariance_s": ("s", "total", "subfield.invariance"),
    "distance.bound_s": ("s", "total", "distance.bound"),
    "distance.parity_s": ("s", "total", "distance.parity"),
    "distance.subsets_tested": ("count", "count", "subsets_tested"),
    "distance.enum_s": ("s", "total", "distance.enum"),
    "distance.codewords_enumerated": ("count", "count", "codewords"),
    "distance.parity_peak_mb": ("MB", "count", "parity_peak_mb"),
    "reporting.run_report_s": ("s", "self", "reporting.run_report"),
    "reporting.cache_s": ("s", "self", "reporting.sweep"),
    "reporting.cache_bytes": ("bytes", "count", "cache_bytes"),
}

_PAGE = os.sysconf("SC_PAGE_SIZE")
_SAMPLE_S = 0.002


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


class _RssPeak:
    """Highest resident size seen by a sampling thread, above a baseline.

    Sampling stands in for tracemalloc, which made the n=128 parity call
    more than ten times slower and doubled its memory.
    """

    def __init__(self):
        self.base = _rss_bytes()
        self.peak = self.base
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        while not self._stop.wait(_SAMPLE_S):
            self.peak = max(self.peak, _rss_bytes())

    def stop_mb(self) -> float:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, _rss_bytes())
        return (self.peak - self.base) / 2**20


# Counts taken at call boundaries: before(counts, fn, args, kwargs) -> state,
# after(counts, state, args, kwargs, result).
def _rref_before(counts, fn, args, kwargs):
    rows = args[0]
    counts["rref_cells"] += len(rows) * len(rows[0]) if len(rows) else 0


def _build_code_before(counts, fn, args, kwargs):
    return fn, fn.cache_info().misses


def _build_code_after(counts, state, args, kwargs, result):
    fn, misses = state
    counts["build_code_misses"] += fn.cache_info().misses - misses


def _sweep_before(counts, fn, args, kwargs):
    path = kwargs.get("cache_path")
    if path and os.path.exists(path):
        counts["cache_bytes"] += os.path.getsize(path)


def _parity_before(counts, fn, args, kwargs):
    return _RssPeak()


def _parity_after(counts, sampler, args, kwargs, result):
    counts["parity_peak_mb"] = max(counts["parity_peak_mb"],
                                   sampler.stop_mb())
    if result is None:
        return
    n, d = args[0].n, result.exact
    support = tuple(i for i, v in enumerate(result.witness) if v)
    counts["subsets_tested"] += sum(comb(n, w) for w in range(1, d)) \
        + ref.combination_rank(support, n) + 1


def _enum_after(counts, state, args, kwargs, result):
    if result is not None:
        code = args[0]
        counts["codewords"] += code.field.order ** code.k - 1


HOOKS = {
    "linalg.rref": (_rref_before, None),
    "codes.build_code": (_build_code_before, _build_code_after),
    "reporting.sweep": (_sweep_before, None),
    "distance.parity": (_parity_before, _parity_after),
    "distance.enum": (None, _enum_after),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, operation]
        self.counts = Counter()
        self.missing = []
        self.active = False
        self.op = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        before, after = HOOKS.get(name, (None, None))
        tracer = self

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = before(tracer.counts, fn, args, kwargs) if before \
                else None
            span = [name, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            result = None
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
                if after:
                    after(tracer.counts, state, args, kwargs, result)
        return wrapper

    def install(self):
        """Wrap every target that exists; remember the ones that do not."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "normtrace" or key.startswith("normtrace.")]
        for name, (modname, attr) in TARGETS.items():
            owner = sys.modules.get(modname)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, meth, None)
            if not callable(original):
                self.missing.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            owners = [owner] if cls_name else \
                [m for m in modules if vars(m).get(meth) is original]
            for o in owners:
                self._patches.append((o, meth, original))
                setattr(o, meth, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def layer_metrics(self) -> dict:
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        children = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - children[i]
            calls[name] += 1
        read = {"total": total, "self": own, "calls": calls,
                "count": self.counts}
        return {metric: {"value": read[how][key], "unit": unit}
                for metric, (unit, how, key) in LAYER_METRICS.items()}

    def write(self, path, header: dict):
        """Spans as gzip'd JSON lines, after one header line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(dict(header, missing=self.missing)) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
