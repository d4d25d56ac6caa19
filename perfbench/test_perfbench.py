"""Fast checks of the benchmark itself: one cheap instance per workload runs
clean, a corrupted output is counted as failed, and the tracer reports a
missing name instead of crashing.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from dataclasses import replace
from itertools import combinations
from math import comb

import pytest

import run  # puts src/ and perfbench/ on sys.path
import normtrace
import reference
import tracing
from workloads import WORKLOADS

CHEAPEST = {  # an operation of each workload that takes about a second
    "sweep": (111, 113),
    "subcode": ((2, 2, 2, 5), 50, 2),
    "mindist": ((2, 2, 2, 5), 60, 2, "parity"),
}


def _run_one(tmp_path, name, corrupt=None, tracer=None):
    workload = WORKLOADS[name]()
    op = CHEAPEST[name]
    assert op in workload.operations()
    if corrupt:
        honest = workload.run
        workload.run = lambda o: corrupt(honest(o))
    results = run.run_round(workload, [op],
                            run.cached_functions(normtrace), tmp_path, tracer)
    return run.summary(results)


@pytest.mark.parametrize("name", sorted(CHEAPEST))
def test_cheapest_operation_passes(tmp_path, name):
    assert _run_one(tmp_path, name) == \
        {"correct": True, "attempted": 1, "failed": 0}


def _wrong_k(reports):
    return [replace(reports[0], dim_supercode=reports[0].dim_supercode + 1),
            reports[1]]


def _wrong_delsarte(out):
    dim, code, inv = out
    return dim + 1, code, inv


def _heavier_witness(out):
    code, res = out
    word = list(res.witness)
    word[word.index(0)] = 1
    return code, replace(res, witness=tuple(word))


def _raises(out):
    raise RuntimeError("lost")


@pytest.mark.parametrize("name, corrupt", [
    ("sweep", _wrong_k),
    ("subcode", _wrong_delsarte),
    ("mindist", _heavier_witness),
])
def test_corrupted_output_is_failed(tmp_path, name, corrupt):
    assert _run_one(tmp_path, name, corrupt) == \
        {"correct": False, "attempted": 1, "failed": 1}


def test_raising_operation_is_failed_but_not_incorrect(tmp_path):
    assert _run_one(tmp_path, "subcode", _raises) == \
        {"correct": True, "attempted": 1, "failed": 1}


def test_sweep_cache_record_is_compared(tmp_path):
    workload = WORKLOADS["sweep"]()
    workload.begin_round(tmp_path)
    op = CHEAPEST["sweep"]
    reports = workload.run(op)
    assert workload.check(op, reports) == []
    lines = workload.cache_path.read_text().splitlines()
    workload.cache_path.write_text(
        "\n".join([lines[0].replace('"t": 2', '"t": 3')] + lines[1:]) + "\n")
    assert any("cache record" in p for p in workload.check(op, reports))


def test_traced_round_counts_layers(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _run_one(tmp_path, "mindist", tracer=tracer)["failed"] == 0
    finally:
        tracer.uninstall()
    assert hasattr(normtrace.codes.build_code, "cache_info")  # unwrapped
    metrics = {k: v["value"] for k, v in tracer.layer_metrics().items()}
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["linalg.rref_calls"] > 0
    assert metrics["fields.decompose_calls"] > 0
    assert metrics["codes.build_code_misses"] == 1
    # [64,39,4]: every set of 1 to 3 columns, then 4-sets up to the witness.
    below = sum(comb(64, w) for w in range(1, 4))
    assert below < metrics["distance.subsets_tested"] <= below + comb(64, 4)
    assert metrics["distance.bound_s"] == 0  # the checks are not traced
    assert metrics["reporting.run_report_s"] == 0


def test_missing_target_is_reported(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "codes.gone",
                        ("normtrace.codes", "no_such_function"))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["normtrace.codes.no_such_function"]
    assert tracer.layer_metrics()["linalg.rref_calls"]["value"] == 0


def test_combination_rank_is_lexicographic():
    for n, w in [(7, 3), (6, 1), (5, 5)]:
        for i, c in enumerate(combinations(range(n), w)):
            assert reference.combination_rank(c, n) == i
