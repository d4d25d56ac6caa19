"""Minimum distances: order bound, two exact algorithms, and full reports.

The order bound gives a fast lower bound from footprint counting.  Two
independent exact algorithms (information-set enumeration and parity-column
dependence search) confirm each other at desk scale.  `run_report` bundles
the whole pipeline, and `sweep` caches reports across a range of weights.
"""

import tempfile
from pathlib import Path

from normtrace import (exact_min_distance_enum, exact_min_distance_parity,
                       geil_bound, is_even_weight, make_curve, run_report,
                       subfield_subcode_of_ent, sweep)

NT3 = make_curve(2, 1, 4, 3)
NT5 = make_curve(2, 1, 4, 5)

# --- the flagship binary code -------------------------------------------------

sub = subfield_subcode_of_ent(NT3, 36, 2)
print(f"order bound for NT_3(36): d >= {geil_bound(NT3, 36)}")
by_parity = exact_min_distance_parity(sub)
print(f"exact distance (parity route): {by_parity.exact}")
# Messages of weight 1, 2, 3 on one information set: 2625 of the 2^25 - 1
# codewords, after which no unvisited word can weigh less than 4.
by_enum = exact_min_distance_enum(sub)
print(f"exact distance (enumeration):  {by_enum.exact}")
print(f"even-weight code: {is_even_weight(sub)}")
print(f"  -> [{sub.n}, {sub.k}, {by_enum.exact}] binary code")

# --- one-call reports ----------------------------------------------------------

rep = run_report(2, 1, 4, 3, 36, 2)
print("\nfull report:", rep.to_json())

# quaternary examples: the report records where computed values differ from
# previously published ones
rep = run_report(2, 1, 4, 5, 60, 4, exact=False)
print("\nNT_5(60)|F_4 dim:", rep.dim_subfield)
print("claim delta:", rep.paper_claim_delta)

# --- cached sweeps --------------------------------------------------------------

with tempfile.TemporaryDirectory() as tmp:
    cache = Path(tmp) / "sweep.jsonl"
    reports = sweep(2, 1, 4, 3, range(0, 10), 2, cache_path=cache)
    dims = [r.dim_subfield for r in reports]
    print(f"\nsubcode dims for s = 0..9: {dims}")
    again = sweep(2, 1, 4, 3, range(0, 10), 2, cache_path=cache)
    print(f"rerun served from cache: {again == reports}")
