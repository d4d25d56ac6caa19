import json

import pytest

from normtrace.cli import main
from normtrace.curves import make_curve
from normtrace.codes import build_code
from normtrace.reporting import (CacheError, CodeReport, export_matrix,
                                 import_matrix, read_cache, run_report, sweep)
from normtrace.subfield import subfield_subcode_of_ent

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


def test_report_json_round_trip():
    rep = run_report(2, 1, 4, 3, 36, 2)
    assert CodeReport.from_json(rep.to_json()) == rep
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


def test_sweep_empty_range(tmp_path):
    assert sweep(2, 1, 4, 3, range(5, 5), 2,
                 cache_path=tmp_path / "c.jsonl") == []


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


@pytest.mark.parametrize("text", ["2 1\n", "2 1 x 4\n"],
                         ids=["short", "non-numeric"])
def test_import_matrix_malformed_header(tmp_path, text):
    path = tmp_path / "m.txt"
    path.write_text(text)
    with pytest.raises(CacheError, match="header"):
        import_matrix(path)


def test_export_import_round_trip(tmp_path):
    sub = subfield_subcode_of_ent(NT3, 36, 2)
    path = tmp_path / "m.txt"
    export_matrix(sub, path)
    header = path.read_text().splitlines()[0]
    assert header == "2 1 25 32"
    assert import_matrix(path) == sub
    # F16 supercode round trip
    code = build_code(NT3, 8).code
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
    rc = main(["code", "--p", "3", "--l", "1", "--r", "2", "--u", "2",
               "--s", "8", "--t", "3"])
    assert rc == 0
    assert "dim_subfield: 4" in capsys.readouterr().out


def test_cli_invalid_parameters(capsys):
    rc = main(["curve", "--p", "2", "--l", "1", "--r", "4", "--u", "7"])
    assert rc == 2


def test_cli_budget_exit(capsys):
    rc = main(["mindist", "--p", "2", "--l", "1", "--r", "4", "--u", "3",
               "--s", "0", "--t", "2", "--method", "parity",
               "--budget", "10"])
    assert rc == 3


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


def test_cli_sweep_cache(tmp_path, capsys):
    cache = str(tmp_path / "sweep.jsonl")
    rc = main(["sweep", "--p", "2", "--l", "1", "--r", "4", "--u", "3",
               "--t", "2", "--s-range", "0:3", "--cache", cache])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 4
