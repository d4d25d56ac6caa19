import dataclasses
import json

import pytest

from normtrace import codes, curves
from normtrace.cli import main
from normtrace.curves import enumerate_points, make_curve
from normtrace.codes import build_code, check_duality
from normtrace.monomials import footprint
from normtrace.distance import BudgetExceeded
from normtrace.reporting import (CacheError, CodeReport, export_matrix,
                                 import_matrix, read_cache, run_report, sweep)
from normtrace.subfield import subfield_subcode_dim, subfield_subcode_of_ent

NT3 = make_curve(2, 1, 4, 3)


def test_run_report_binary_example():
    rep = run_report(2, 1, 4, 3, 36, 2)
    assert (rep.n, rep.dim_subfield, rep.exact_distance) == (32, 25, 4)
    assert rep.dim_subfield == rep.n - rep.trace_dim_of_dual
    assert rep.even_weight is True
    assert rep.geil_bound == 3


def test_run_report_full_space():
    rep = run_report(2, 1, 4, 3, 45, 2)
    assert (rep.n, rep.dim_subfield, rep.exact_distance) == (32, 32, 1)


def test_run_report_budget_exhausted():
    # The parity search on [32,25,4] stops after 10 of the 32 columns.
    rep = run_report(2, 1, 4, 3, 36, 2, budget=10)
    assert (rep.dim_subfield, rep.even_weight) == (25, True)
    assert (rep.exact_distance, rep.distance_method) == (None, None)
    with pytest.raises(BudgetExceeded) as info:
        run_report(2, 1, 4, 3, 36, 2, exact=True, budget=10)
    assert (info.value.spent, info.value.budget, info.value.lower) == \
        (10, 10, 1)


@pytest.fixture
def mutated(monkeypatch):
    """monkeypatch, with the per-curve tables of curves and codes emptied
    before the test and again before its patches are undone."""
    tables = (curves.fibers, codes.footprint_is_basis, codes.build_code,
              codes._power_sum_table)
    for table in tables:
        table.cache_clear()
    yield monkeypatch
    for table in tables:
        table.cache_clear()


def _short_fiber(points):
    """The last point moved into the fiber x = 0, which then holds m + 1
    y's and leaves its own fiber with m - 1."""
    (x0, _), (_, y) = points[0], points[-1]
    return tuple(sorted(points[:-1] + ((x0, y),)))


def _repeated_point(points):
    """The last point replaced by the one before it, in the same fiber."""
    return points[:-1] + points[-2:-1]


def _missing_fiber(points):
    """The points without the last fiber."""
    return tuple(point for point in points if point[0] != points[-1][0])


@pytest.mark.parametrize(
    "mutation", [_short_fiber, _repeated_point, _missing_fiber, None],
    ids=["short fiber", "repeated point", "missing fiber",
         "monomial off the box"])
def test_report_rejects_unproved_basis_at_every_s(mutated, mutation):
    if mutation:
        points = mutation(enumerate_points(NT3))
        mutated.setattr(curves, "enumerate_points", lambda curve: points)
    if mutation in (_short_fiber, _repeated_point):
        # The evaluations are dependent, but not those of weight <= 0.
        with pytest.raises(AssertionError, match="dependent"):
            build_code(NT3, NT3.max_weight)
        assert build_code(NT3, 0).k == 1
    elif mutation is None:
        monos = footprint(NT3)[:-1] + ((0, NT3.weight_x),)
        mutated.setattr(codes, "footprint", lambda curve: monos)
    curve_args = ["--p", "2", "--l", "1", "--r", "4", "--u", "3"]
    for s in range(-1, NT3.max_weight + 2):
        for call in (lambda: run_report(2, 1, 4, 3, s, 2, exact=False),
                     lambda: check_duality(NT3, s),
                     lambda: subfield_subcode_dim(NT3, s, 2),
                     lambda: main(["dual", *curve_args, "--s", str(s)]),
                     lambda: main(["trace-dim", *curve_args, "--s", str(s),
                                   "--t", "2"])):
            with pytest.raises(AssertionError, match="not proved independent"):
                call()


@pytest.mark.parametrize("params,t", [((3, 1, 2, 4), 3), ((2, 2, 2, 5), 4)],
                         ids=str)
def test_sweep_dimensions_match_elimination(params, t):
    curve = make_curve(*params)
    weights = range(curve.max_weight + 1)
    reports = sweep(*params, weights, t, exact=False)
    assert reports == [
        dataclasses.replace(rep, dim_supercode=build_code(curve, s).k)
        for s, rep in zip(weights, reports)]
    assert [rep.s for rep in reports] == list(weights)


def test_report_json_round_trip():
    rep = run_report(2, 1, 4, 3, 36, 2)
    assert CodeReport(**json.loads(rep.to_json())) == rep
    data = json.loads(rep.to_json())
    assert data["even_weight"] is True


def test_report_records_published_deltas():
    rep = run_report(2, 1, 4, 5, 60, 4, exact=False)
    assert rep.dim_subfield == 39
    assert "published k=43" in rep.paper_claim_delta


def test_sweep_cache(tmp_path):
    cache = tmp_path / "cache.jsonl"
    reports = sweep(2, 1, 4, 3, range(0, 5), 2, cache_path=cache)
    assert len(reports) == 5
    first_bytes = cache.read_bytes()
    # rerun: all cache hits, file untouched
    again = sweep(2, 1, 4, 3, range(0, 5), 2, cache_path=cache)
    assert again == reports
    assert cache.read_bytes() == first_bytes
    # extend the range: only new keys appended
    more = sweep(2, 1, 4, 3, range(0, 7), 2, cache_path=cache)
    assert len(more) == 7 and more[:5] == reports
    assert len(read_cache(cache)) == 7


def test_sweep_cache_serves_no_weaker_result(tmp_path):
    cache = tmp_path / "cache.jsonl"
    [rep] = sweep(2, 1, 4, 3, [36], 2, cache_path=cache, exact=False)
    assert rep.exact_distance is None
    # It serves a request that skips the distance.
    before = cache.read_bytes()
    assert sweep(2, 1, 4, 3, [36], 2, cache_path=cache,
                 exact=False) == [rep]
    assert cache.read_bytes() == before
    # A request for the distance recomputes the record and rewrites it.
    [rep] = sweep(2, 1, 4, 3, [36], 2, cache_path=cache, exact=True)
    assert rep.exact_distance == 4
    assert cache.read_text() == rep.to_json() + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]
    # The exact record serves both kinds of request.
    before = cache.read_bytes()
    for exact in (False, None, True):
        assert sweep(2, 1, 4, 3, [36], 2, cache_path=cache,
                     exact=exact) == [rep]
    assert cache.read_bytes() == before


def test_sweep_force_rewrites_cache(tmp_path):
    cache = tmp_path / "cache.jsonl"
    reports = sweep(2, 1, 4, 3, range(0, 3), 2, cache_path=cache)
    again = sweep(2, 1, 4, 3, range(1, 4), 2, cache_path=cache, force=True)
    assert again[:2] == reports[1:]
    assert cache.read_text() == "".join(
        rep.to_json() + "\n" for rep in reports + again[2:])
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]


@pytest.mark.parametrize("failing", ["record", "replace"])
def test_sweep_force_failure_keeps_old_cache(tmp_path, monkeypatch, failing):
    cache = tmp_path / "cache.jsonl"
    sweep(2, 1, 4, 3, range(0, 3), 2, cache_path=cache)
    before = cache.read_bytes()
    if failing == "record":
        # fail on the second record, after the first is written
        calls = []
        to_json = CodeReport.to_json

        def flaky(rep):
            calls.append(rep)
            if len(calls) == 2:
                raise RuntimeError("disk gone")
            return to_json(rep)
        monkeypatch.setattr(CodeReport, "to_json", flaky)
    else:
        def refuse(src, dst):
            raise OSError("replace refused")
        monkeypatch.setattr("normtrace.reporting.os.replace", refuse)
    with pytest.raises((RuntimeError, OSError)):
        sweep(2, 1, 4, 3, range(0, 3), 2, cache_path=cache, force=True)
    if failing == "record":
        assert len(calls) == 2
    assert cache.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]


@pytest.mark.parametrize("cached", [False, True])
def test_sweep_keeps_reports_finished_before_an_error(tmp_path, monkeypatch,
                                                     cached):
    # A report that raises on the last s leaves the earlier ones cached: by
    # appending, or by the atomic rewrite when a recomputed key asks for it.
    cache = tmp_path / "cache.jsonl"
    if cached:
        sweep(2, 1, 4, 3, [37], 2, cache_path=cache, exact=False)
    before = read_cache(cache)
    expect = [run_report(2, 1, 4, 3, s, 2, exact=True) for s in (35, 36)]
    finished = run_report

    def run(p, l, r, u, s, t, **kwargs):
        if s == 37:
            raise BudgetExceeded("out of budget", spent=1, budget=1,
                                 lower=1, upper=None)
        return finished(p, l, r, u, s, t, **kwargs)
    monkeypatch.setattr("normtrace.reporting.run_report", run)
    with pytest.raises(BudgetExceeded):
        sweep(2, 1, 4, 3, [35, 36, 37], 2, cache_path=cache, exact=True)
    after = read_cache(cache)
    assert [after[rep.key()] for rep in expect] == expect
    assert after == {**before, **{rep.key(): rep for rep in expect}}
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]


def test_sweep_empty_range(tmp_path):
    assert sweep(2, 1, 4, 3, range(5, 5), 2,
                 cache_path=tmp_path / "c.jsonl") == []


def test_cache_skips_blank_lines(tmp_path):
    cache = tmp_path / "cache.jsonl"
    reports = sweep(2, 1, 4, 3, range(0, 2), 2, cache_path=cache)
    first, second = cache.read_text().splitlines()
    cache.write_text(f"\n{first}\n\n  \t\n{second}\n\n")
    spaced = cache.read_bytes()
    assert read_cache(cache) == {rep.key(): rep for rep in reports}
    assert sweep(2, 1, 4, 3, range(0, 2), 2, cache_path=cache) == reports
    assert cache.read_bytes() == spaced


def test_cache_rejects_duplicates(tmp_path):
    cache = tmp_path / "cache.jsonl"
    rep = run_report(2, 1, 4, 3, 0, 2, exact=False)
    cache.write_text(rep.to_json() + "\n" + rep.to_json() + "\n")
    with pytest.raises(CacheError):
        read_cache(cache)


def test_cache_truncated_line_names_the_line(tmp_path):
    cache = tmp_path / "cache.jsonl"
    rep = run_report(2, 1, 4, 3, 0, 2, exact=False)
    cache.write_text(rep.to_json() + "\n" + '{"p": 2, "l": 1\n')
    with pytest.raises(CacheError, match="line 2"):
        read_cache(cache)


def _without_geil_bound(line):
    data = json.loads(line)
    del data["geil_bound"]
    return json.dumps(data)


@pytest.mark.parametrize("corrupt", [lambda line: "[1, 2]",
                                     _without_geil_bound, lambda line: "7"],
                         ids=["list", "missing field", "number"])
def test_cache_rejects_lines_that_are_not_records(tmp_path, corrupt):
    """Valid JSON that is not a record fails on its line number, through
    read_cache and through sweep, also when sweep does not ask for the key
    of that line."""
    cache = tmp_path / "cache.jsonl"
    lines = [run_report(2, 1, 4, 3, s, 2, exact=False).to_json()
             for s in range(3)]
    lines[1] = corrupt(lines[1])
    cache.write_text("\n".join(lines) + "\n")
    before = cache.read_bytes()
    with pytest.raises(CacheError, match="malformed cache record at line 2"):
        read_cache(cache)
    for s_values in ([0], [5], [1]):
        with pytest.raises(CacheError, match="line 2"):
            sweep(2, 1, 4, 3, s_values, 2, cache_path=cache, exact=False)
    assert cache.read_bytes() == before


def test_cache_rewrite_drops_unknown_fields(tmp_path):
    cache = tmp_path / "cache.jsonl"
    reports = [run_report(2, 1, 4, 3, s, 2, exact=False) for s in range(2)]
    lines = [json.loads(rep.to_json()) for rep in reports]
    lines[0]["note"] = "added by hand"
    cache.write_text("".join(json.dumps(line) + "\n" for line in lines))
    # Served records are CodeReports, without the unknown field.
    assert sweep(2, 1, 4, 3, [0], 2, cache_path=cache,
                 exact=False) == reports[:1]
    assert read_cache(cache) == {rep.key(): rep for rep in reports}
    # A forced report rewrites every record from its CodeReport fields.
    again = sweep(2, 1, 4, 3, [1], 2, cache_path=cache, exact=False,
                  force=True)
    assert again == reports[1:]
    assert cache.read_text() == "".join(rep.to_json() + "\n"
                                        for rep in reports)


def test_report_json_matches_asdict():
    for exact in (False, None):
        rep = run_report(2, 1, 4, 3, 36, 2, exact=exact)
        assert rep.to_json() == json.dumps(dataclasses.asdict(rep),
                                           sort_keys=True)


@pytest.mark.parametrize("text, fault", [
    ("2 1\n", "header"),
    ("2 1 x 4\n", "header"),
    ("2 1 1 3\n0 1 2\n", "2 is not an element"),
    ("4 1 1 2\n", "characteristic 4 is not prime"),
    ("2 0 1 2\n", "extension degree must be >= 1"),
    ("2 1 -1 2\n", "a -1 x 2 matrix"),
    ("1000000000000000003 1 1 1\n0\n", "exceeds cap"),
    ("3 1000000000 1 1\n0\n", "exceeds cap"),
    ("2 17 1 1\n0\n", "field order 2^17 exceeds cap 65536"),
    # F_131 builds, but its rows have no packing to eliminate them in.
    ("131 1 1 2\n1 5\n", "characteristic 131 is above 127"),
    ("2 1 2 3\n1 0 1\n0 1\n", "expected 6 entries, got 5"),
    ("2 1 2 3\n1 0 1\n1 0 1\n", "imported rows are not independent"),
], ids=["short", "non-numeric", "entry-out-of-range", "non-prime",
        "degree-zero", "negative-rows", "huge-characteristic", "huge-degree",
        "order-above-cap", "characteristic-above-127", "entry-count",
        "dependent-rows"])
def test_import_matrix_malformed_header(tmp_path, text, fault):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(CacheError) as info:
        import_matrix(path)
    assert str(info.value).startswith(f"{path}: ")
    assert fault in str(info.value)


def test_export_import_round_trip(tmp_path):
    sub = subfield_subcode_of_ent(NT3, 36, 2)
    path = tmp_path / "m.txt"
    export_matrix(sub, path)
    header = path.read_text().splitlines()[0]
    assert header == "2 1 25 32"
    assert import_matrix(path) == sub
    # F16 supercode round trip
    code = build_code(NT3, 8)
    export_matrix(code, tmp_path / "big.txt")
    assert import_matrix(tmp_path / "big.txt") == code


def test_export_zero_code(tmp_path):
    from normtrace.fields import make_field
    from normtrace.linalg import LinearCode
    zero = LinearCode(make_field(2, 1), 4, ())
    path = tmp_path / "z.txt"
    export_matrix(zero, path)
    assert path.read_text().splitlines()[0] == "2 1 0 4"
    assert import_matrix(path) == zero


def test_cli_points(capsys):
    assert main(["points", "--p", "2", "--l", "1", "--r", "4", "--u", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 32
    assert lines[0] == "0 0"
    assert all(len(line.split()) == 2 for line in lines)


def test_cli_code_json(capsys):
    rc = main(["code", "--p", "2", "--l", "1", "--r", "4", "--u", "3",
               "--s", "36", "--t", "2", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim_subfield"] == 25 and data["exact_distance"] == 4


def test_cli_code_odd_characteristic(capsys):
    args = ["code", "--p", "3", "--l", "1", "--r", "2", "--u", "2",
            "--s", "8", "--t", "3"]
    assert main(args) == 0
    text = capsys.readouterr().out
    assert main(args + ["--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim_subfield"] == 4
    assert text.splitlines() == [f"{k}: {v}" for k, v in sorted(data.items())]


def test_cli_subfield_routes(capsys):
    rc = main(["subfield", "--p", "3", "--l", "1", "--r", "3", "--u", "13",
               "--s", "100", "--t", "3", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim_delsarte"] == data["dim_oracle"] == 4


def test_cli_subfield_rejects_disagreeing_routes(monkeypatch, capsys):
    monkeypatch.setattr("normtrace.cli.subfield_subcode_dim",
                        lambda curve, s, t: 26)
    with pytest.raises(AssertionError,
                       match="oracle dimension 25 != Delsarte dimension 26"):
        main(["subfield", "--p", "2", "--l", "1", "--r", "4", "--u", "3",
              "--s", "36", "--t", "2"])
    assert capsys.readouterr().out == ""


def test_cli_invalid_parameters(capsys):
    rc = main(["curve", "--p", "2", "--l", "1", "--r", "4", "--u", "7"])
    assert rc == 2
    # F_{2^17} is past the field-order cap 2^16.
    capsys.readouterr()
    rc = main(["curve", "--p", "2", "--l", "1", "--r", "17", "--u", "1"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "field order 2^17 exceeds cap 65536" in err


def test_cli_characteristic_above_127(capsys):
    """The curve over F_{131^2} builds and `curve` reports it, but its rows
    have no packing: `subfield` exits 2, naming the characteristic."""
    args = ["--p", "131", "--l", "1", "--r", "2", "--u", "1"]
    assert main(["curve", *args, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 131 ** 2
    assert main(["subfield", *args, "--s", "100", "--t", "131"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "invalid parameters: characteristic 131 is above 127" in err


@pytest.mark.parametrize("s", [60, 62])
def test_cli_bound(s, capsys):
    """The order bound on NT_5(s) over F_16, and the paper-box variant that
    overstates it (the exact distance is 3)."""
    rc = main(["bound", "--p", "2", "--l", "1", "--r", "4", "--u", "5",
               "--s", str(s), "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == {
        "bound": 3, "bound_paper_variant": 4, "s": s}


def test_cli_dual(capsys):
    rc = main(["dual", "--p", "3", "--l", "1", "--r", "3", "--u", "13",
               "--s", "100", "--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["dual_weight"], data["dim_s"], data["dim_dual"],
            data["printed_formula"]) == (237, 53, 190, 111)
    assert data["ok"] is True


def test_cli_budget_exit(capsys):
    rc = main(["mindist", "--p", "2", "--l", "1", "--r", "4", "--u", "3",
               "--s", "0", "--t", "2", "--method", "parity",
               "--budget", "10"])
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == "n: 32\nk: 1\nd: None\nlower: 1\nupper: None\n"
    assert err.startswith("budget exceeded: parity search stopped at level "
                          "w=1 after 10 of 10 column subsets")
    # [32,25,4]: round 1 and 69 words of round 2 fit in 100
    rc = main(["mindist", "--p", "2", "--l", "1", "--r", "4", "--u", "3",
               "--s", "36", "--t", "2", "--method", "enum",
               "--budget", "100", "--json"])
    assert rc == 3
    out, err = capsys.readouterr()
    assert json.loads(out) == {"n": 32, "k": 25, "d": None,
                               "lower": 2, "upper": 4}
    assert "d in [2, 4]" in err


@pytest.mark.parametrize("method,name", [("enum", "enumeration"),
                                         ("parity", "column-dependence")])
def test_cli_mindist_json(method, name, capsys):
    rc = main(["mindist", "--p", "2", "--l", "1", "--r", "4", "--u", "3",
               "--s", "36", "--t", "2", "--json", "--method", method])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["n"], data["k"], data["d"], data["method"]) == \
        (32, 25, 4, name)
    witness = data["witness"]
    assert len(witness) == 32 and set(witness) <= {"0", "1"}
    assert witness.count("1") == 4
    assert subfield_subcode_of_ent(NT3, 36, 2).contains(
        [int(v) for v in witness])


def test_cli_export_subfield_subcode(tmp_path, capsys):
    path = tmp_path / "sub.txt"
    rc = main(["export", "--p", "2", "--l", "1", "--r", "4", "--u", "3",
               "--s", "36", "--t", "2", "--out", str(path)])
    assert rc == 0
    assert capsys.readouterr().out == f"wrote 25 x 32 matrix to {path}\n"
    assert import_matrix(path) == subfield_subcode_of_ent(NT3, 36, 2)


def test_cli_io_exit(capsys):
    rc = main(["export", "--p", "2", "--l", "1", "--r", "4", "--u", "3",
               "--s", "8", "--out", "/nonexistent-dir/x.txt"])
    assert rc == 4


@pytest.mark.parametrize("corrupt", ["truncated", "duplicate"])
def test_cli_corrupt_cache_exit(tmp_path, capsys, corrupt):
    cache = tmp_path / "sweep.jsonl"
    line = run_report(2, 1, 4, 3, 0, 2, exact=False).to_json()
    second = line if corrupt == "duplicate" else line[:15]
    cache.write_text(line + "\n" + second + "\n")
    rc = main(["sweep", "--p", "2", "--l", "1", "--r", "4", "--u", "3",
               "--t", "2", "--s-range", "0:1", "--cache", str(cache)])
    assert rc == 4
    assert "line 2" in capsys.readouterr().err


def test_cli_sweep_cache_missing_field_exit(tmp_path, capsys):
    cache = tmp_path / "sweep.jsonl"
    lines = [run_report(2, 1, 4, 3, s, 2, exact=False).to_json()
             for s in range(3)]
    lines[2] = _without_geil_bound(lines[2])
    cache.write_text("\n".join(lines) + "\n")
    rc = main(["sweep", "--p", "2", "--l", "1", "--r", "4", "--u", "3",
               "--t", "2", "--s-range", "0:1", "--cache", str(cache)])
    assert rc == 4
    out, err = capsys.readouterr()
    assert out == "" and "line 3" in err and "geil_bound" in err


@pytest.mark.parametrize("argv", [
    ["points", "--exact"], ["points", "--budget", "5"], ["points", "--s", "3"],
    ["points", "--t", "9"], ["points", "--json"],
    ["curve", "--s", "3"], ["dual", "--s", "3", "--t", "2"],
    ["bound", "--s", "3", "--delta-variant", "paper"],
    ["subfield", "--s", "3", "--t", "2", "--exact"],
    ["mindist", "--s", "3", "--t", "2", "--exact"],
    ["sweep", "--t", "2", "--s-range", "0:1", "--s", "3"],
    ["export", "--s", "3", "--out", "x.txt", "--budget", "5"],
], ids=lambda argv: " ".join(argv))
def test_cli_rejects_unread_options(argv, capsys):
    curve = ["--p", "2", "--l", "1", "--r", "4", "--u", "3"]
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + curve + argv[1:])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("s_range", ["5", "a:b", "3:", "45:0"])
def test_cli_sweep_rejects_malformed_range(s_range, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--p", "2", "--l", "1", "--r", "4", "--u", "3",
              "--t", "2", "--s-range", s_range])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--s-range" in err and "A:B" in err


def test_cli_sweep_cache(tmp_path, capsys):
    cache = str(tmp_path / "sweep.jsonl")
    rc = main(["sweep", "--p", "2", "--l", "1", "--r", "4", "--u", "3",
               "--t", "2", "--s-range", "0:3", "--cache", cache])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4
