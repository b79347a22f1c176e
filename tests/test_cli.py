import concurrent.futures
import gc
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fockforms import cli, enumeration, forms, theta, workers
import oracles

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).parent.parent / "src"


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_single_cell(capsys):
    code, out, _ = run_main(capsys, "verify", "--identity", "closedness",
                            "--p", "2", "--q", "1", "--ell", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and doc["cells"] == 1
    row = doc["reports"][0]
    assert row["identity"] == "closedness"
    assert "seconds" not in row


def test_verify_accepts_long_names(capsys):
    code, out, _ = run_main(capsys, "verify", "--identity",
                            "kprime_invariance", "--p", "1", "--q", "2",
                            "--ell", "1")
    assert code == 0
    assert json.loads(out)["reports"][0]["identity"] == "kprime"


def test_verify_unknown_identity(capsys):
    code, _, err = run_main(capsys, "verify", "--identity", "bogus",
                            "--p", "1", "--q", "1")
    assert code == 2
    assert "unknown identity" in json.loads(err)["error"]


def test_verify_missing_params(capsys):
    code, _, err = run_main(capsys, "verify", "--identity", "closedness")
    assert code == 2
    assert "error" in json.loads(err)


def test_verify_bounds(capsys):
    code, _, err = run_main(capsys, "verify", "--identity", "closedness",
                            "--p", "9", "--q", "1")
    assert code == 2


def test_verify_rejects_zero_columns(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("a refused cell must start no work")
    monkeypatch.setattr(forms, "run_identity", fail)
    code, _, err = run_main(capsys, "verify", "--identity", "closedness",
                            "--p", "1", "--q", "1", "--n", "0", "--ell", "1")
    assert code == 2
    assert "--n must be in 1..3" in json.loads(err)["error"]


@pytest.mark.parametrize("flags", [["--p", "9", "--ell", "3"], ["--p", "2"], ["--q", "1"],
                                   ["--n", "1"], ["--ell", "0"]])
def test_verify_grid_rejects_cell_flags(monkeypatch, capsys, flags):
    """The default grid fixes its own cells: a cell flag without --identity
    is malformed input, refused before any work."""
    def fail(*args, **kwargs):
        raise AssertionError("a refused run must start no work")
    monkeypatch.setattr(forms, "run_identity", fail)
    code, out, err = run_main(capsys, "verify", *flags)
    assert code == 2 and out == ""
    message = json.loads(err)["error"]
    assert flags[0] in message and "--identity" in message


@pytest.mark.parametrize("argv", [
    ["verify"],
    ["dims", "--lambda", "2", "--n", "1"],
    ["theta", "--lattice", str(FIXTURES / "z4.json")],
    ["intertwine-check"],
])
def test_out_dir_that_cannot_be_made(monkeypatch, capsys, tmp_path, argv):
    """An --out path under a regular file exits 2 with a JSON error, before
    any subcommand runs."""
    def fail(*args, **kwargs):
        raise AssertionError("a refused run must start no work")
    for name in ("cmd_verify", "cmd_dims", "cmd_theta", "cmd_intertwine"):
        monkeypatch.setattr(cli, name, fail)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out_dir in (blocker, blocker / "reports"):
        code, out, err = run_main(capsys, *argv, "--out", str(out_dir))
        assert code == 2 and out == ""
        assert "--out" in json.loads(err)["error"]


@pytest.mark.parametrize("argv,blocked", [
    (["verify", "--identity", "psi_base", "--p", "1", "--q", "1"], "verify.json"),
    (["verify", "--identity", "psi_base", "--p", "1", "--q", "1"], "psi_base_p1q1n1l0.json"),
    (["dims", "--lambda", "2", "--n", "1"], "dims.json"),
    (["theta", "--lattice", str(FIXTURES / "z1.json")], "theta.json"),
    (["intertwine-check"], "intertwine-check.json"),
], ids=["verify", "verify-cell", "dims", "theta", "intertwine-check"])
def test_out_file_that_cannot_be_written(capsys, tmp_path, argv, blocked):
    """An --out file that cannot be written, here because a directory holds
    its name, exits 2 with a JSON error; the files are written before
    stdout, so stdout stays empty."""
    (tmp_path / blocked).mkdir()
    code, out, err = run_main(capsys, *argv, "--out", str(tmp_path))
    assert code == 2 and out == ""
    assert "cannot write --out file" in json.loads(err)["error"]


@pytest.mark.parametrize("identity,p,n",
                         [(name, 2, 2) for name in sorted(forms.N_ONE_IDENTITIES)]
                         + [(name, 1, 2) for name in forms.IDENTITIES]
                         + [("equivariance", 2, 3)])
def test_verify_rejects_undefined_columns(monkeypatch, capsys, identity, p, n):
    """An --n the identity does not define is malformed input: the n = 1
    identities refuse n = 2, and every identity refuses n > p, before any
    work starts."""
    def fail(*args, **kwargs):
        raise AssertionError("a refused cell must start no work")
    monkeypatch.setattr(forms, "run_identity", fail)
    code, _, err = run_main(capsys, "verify", "--identity", identity, "--p", str(p),
                            "--q", "1", "--n", str(n), "--ell", "1")
    assert code == 2
    assert "--n" in json.loads(err)["error"]


def test_grid_deterministic_across_jobs(capsys):
    code1, out1, _ = run_main(capsys, "verify")
    code2, out2, _ = run_main(capsys, "verify", "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["cells"] >= 60 and doc["failures"] == 0


def test_fail_fast_stops_after_first_failure(monkeypatch):
    calls = []

    class Stub:
        def __init__(self, ok):
            self.passed = ok

    def fake(cell):
        calls.append(cell)
        return Stub(len(calls) < 2)

    monkeypatch.setattr(cli, "_run_cell", fake)
    reports = cli.run_cells([1, 2, 3, 4], jobs=1, fail_fast=True)
    assert len(reports) == 2 and len(calls) == 2


def test_worker_count_clamp(monkeypatch):
    monkeypatch.setattr(workers.os, "cpu_count", lambda: 2)
    assert workers.worker_count(8, 100) == 2
    assert workers.worker_count(8, 1) == 1
    assert workers.worker_count(1, 100) == 1
    assert workers.worker_count(4, 0) == 1
    monkeypatch.setattr(workers.os, "cpu_count", lambda: None)
    assert workers.worker_count(8, 100) == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_ordered_map_keeps_input_order(monkeypatch, jobs):
    monkeypatch.setattr(workers.os, "cpu_count", lambda: 2)
    items = list(range(-6, 7))
    assert list(workers.ordered_map(abs, items, jobs)) == [abs(v) for v in items]


def test_ordered_map_close_stops_work(monkeypatch):
    calls = []

    def fn(item):
        calls.append(item)
        return item

    results = workers.ordered_map(fn, [1, 2, 3], 1)
    assert next(results) == 1
    results.close()
    assert calls == [1]
    monkeypatch.setattr(workers.os, "cpu_count", lambda: 2)
    results = workers.ordered_map(abs, list(range(-40, 0)), 2)
    assert next(results) == 40
    results.close()  # cancels the tasks not yet started and joins the pool


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was created")


def test_single_cell_runs_without_pool(monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    code, out, _ = run_main(capsys, "verify", "--identity", "closedness",
                            "--p", "1", "--q", "1", "--jobs", "4")
    assert code == 0 and json.loads(out)["cells"] == 1


def test_single_beta_runs_without_pool(monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    code, out, _ = run_main(capsys, "theta", "--lattice",
                            str(FIXTURES / "z1.json"), "--jobs", "4")
    assert code == 0 and len(json.loads(out)["rows"]) == 1


def test_verify_out_dir(tmp_path, capsys):
    code, out, _ = run_main(capsys, "verify", "--identity", "psi_base",
                            "--p", "1", "--q", "1", "--out", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "verify.json").read_text())
    assert summary == json.loads(out)
    cell = json.loads((tmp_path / "psi_base_p1q1n1l0.json").read_text())
    assert cell["passed"]


def test_dims_example(capsys):
    code, out, _ = run_main(capsys, "dims", "--lambda", "2,1", "--n", "3")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["rank"] == 8 and row["ssyt"] == 8 and row["match"]


def test_dims_cross_table(capsys):
    code, out, _ = run_main(capsys, "dims")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    assert len(doc["rows"]) == 33
    got = {(tuple(r["lambda"]), r["n"]): r["rank"] for r in doc["rows"]}
    assert got[((1, 1), 2)] == 1
    assert got[((2,), 3)] == 6
    assert got[((1, 1, 1), 2)] == 0


def test_dims_flag_pairing(capsys):
    code, _, err = run_main(capsys, "dims", "--lambda", "2,1")
    assert code == 2


def test_dims_bad_partition(capsys):
    code, _, err = run_main(capsys, "dims", "--lambda", "1,2", "--n", "2")
    assert code == 2
    code, _, err = run_main(capsys, "dims", "--lambda", "x", "--n", "2")
    assert code == 2


def test_theta_z4_table(capsys):
    code, out, _ = run_main(capsys, "theta", "--lattice",
                            str(FIXTURES / "z4.json"), "--genus", "1",
                            "--bound", "3")
    assert code == 0
    doc = json.loads(out)
    assert [r["count"] for r in doc["rows"]] == [1, 24, 24, 96]
    assert [r["beta"] for r in doc["rows"]] == [[[0]], [[1]], [[2]], [[3]]]


def test_theta_payload_serialization(capsys):
    code, out, _ = run_main(capsys, "theta", "--lattice",
                            str(FIXTURES / "z1.json"), "--lambda", "2",
                            "--bound", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == [2]
    for row in doc["rows"]:
        assert row["payload"] == {"1,1": []}


def test_theta_jobs_deterministic(capsys):
    args = ["theta", "--lattice", str(FIXTURES / "z2.json"),
            "--genus", "2", "--bound", "1", "--lambda", "1,1"]
    code1, out1, _ = run_main(capsys, *args)
    code2, out2, _ = run_main(capsys, *args, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_theta_count_jobs_deterministic(capsys):
    """A count table fans its diagonals out over the workers; stdout does not
    depend on how many there are."""
    args = ["theta", "--lattice", str(FIXTURES / "z4.json"), "--genus", "3",
            "--bound", "1"]
    code1, out1, _ = run_main(capsys, *args)
    code2, out2, _ = run_main(capsys, *args, "--jobs", "2")
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(json.loads(out1)["rows"]) == len(theta.series_betas(3, 1))


def test_theta_rejects_bad_genus(capsys):
    code, _, err = run_main(capsys, "theta", "--lattice",
                            str(FIXTURES / "z4.json"), "--lambda", "1,1",
                            "--genus", "1")
    assert code == 2


def test_theta_rejects_coset_genus_mismatch(capsys):
    # z2_coset carries one shift vector, so only genus 1 is meaningful
    code, out, err = run_main(capsys, "theta", "--lattice",
                              str(FIXTURES / "z2_coset.json"), "--genus", "2")
    assert code == 2 and out == ""
    assert "shift vectors" in json.loads(err)["error"]


def test_theta_single_row_degree_six(capsys):
    # 4 ** 6 words: once refused by a matrix fallback with a traceback
    code, out, _ = run_main(capsys, "theta", "--lattice", str(FIXTURES / "z4.json"),
                            "--lambda", "6", "--bound", "1")
    assert code == 0
    assert [r["count"] for r in json.loads(out)["rows"]] == [1, 24]


@pytest.mark.parametrize("lattice,args", [
    ("z4.json", ("--lambda", "9", "--bound", "1")),
    ("z4.json", ("--genus", "2", "--lambda", "9,9")),
    ("z1.json", ("--lambda", "10", "--bound", "1")),
    ("e8.json", ("--lambda", "6")),
    ("e8.json", ("--genus", "2", "--lambda", "3,3")),
])
def test_theta_payload_cap(monkeypatch, capsys, lattice, args):
    """Over-cap shapes exit 2 before any enumeration starts."""
    def no_series(*args, **kwargs):
        raise AssertionError("enumeration started")
    monkeypatch.setattr(theta, "series_table", no_series)
    code, out, err = run_main(capsys, "theta", "--lattice", str(FIXTURES / lattice),
                              *args)
    assert code == 2 and out == ""
    assert "payload needs" in json.loads(err)["error"]


@pytest.mark.parametrize("lattice,args,reason", [
    ("z1.json", ("--genus", "17"), "--genus must be"),
    ("z1.json", ("--genus", "1000000000"), "--genus must be"),
    ("z4.json", ("--genus", "4", "--bound", "1"), "beta matrices"),
    ("z4.json", ("--genus", "3", "--bound", "3"), "beta matrices"),
    ("z1.json", ("--bound", "100000000"), "beta matrices"),
    ("e8.json", ("--bound", "12"), "lattice vectors"),
    ("e8.json", ("--bound", "11"), "lattice vectors"),  # 1,113,841 > 2^20
])
def test_theta_work_cap(monkeypatch, capsys, lattice, args, reason):
    """Too many betas or lattice vectors exit 2 before any enumeration starts."""
    def no_series(*args, **kwargs):
        raise AssertionError("enumeration started")
    monkeypatch.setattr(theta, "series_table", no_series)
    code, out, err = run_main(capsys, "theta", "--lattice", str(FIXTURES / lattice),
                              *args)
    assert code == 2 and out == ""
    assert reason in json.loads(err)["error"]


@pytest.mark.parametrize("lattice,args", [
    ("e8.json", ("--lambda", "4", "--bound", "5")),
    ("e8.json", ("--lambda", "4", "--bound", "3")),
    ("e8.json", ("--genus", "2", "--bound", "1")),
    ("e8.json", ("--bound", "7")),  # 199,921; theta bound about 2^19.6
    ("z4.json", ("--genus", "3", "--bound", "1")),
    ("z4.json", ("--genus", "2", "--bound", "2")),
    ("z4.json", ("--genus", "2", "--lambda", "2,2", "--bound", "1")),
    ("z4.json", ("--bound", "3")),
    ("z1.json", ("--genus", "16")),
    ("z1.json", ("--bound", "65535")),
    ("e8.json", ("--genus", "2", "--bound", "2")),  # 2^24.8 tuples
    ("e8.json", ("--genus", "3", "--bound", "1")),  # 2^26.3 tuples
])
def test_theta_work_cap_accepts(monkeypatch, capsys, lattice, args):
    monkeypatch.setattr(theta, "series_table", lambda *args, **kwargs: [])
    code, out, _ = run_main(capsys, "theta", "--lattice", str(FIXTURES / lattice),
                            *args)
    assert code == 0
    assert json.loads(out)["rows"] == []


@pytest.mark.parametrize("genus,tuples", [(2, "2^34.0"), (3, "2^51.0")])
def test_theta_tuple_cap(monkeypatch, capsys, tmp_path, genus, tuples):
    """P points bound the genus-n tuples by P^n: Z^16 at bound 2 passes the
    beta and point caps, yet exits 2 before any enumeration."""
    def no_series(*args, **kwargs):
        raise AssertionError("enumeration started")
    monkeypatch.setattr(theta, "series_table", no_series)
    doc = tmp_path / "z16.json"
    doc.write_text(json.dumps({"gram": [[int(i == j) for j in range(16)]
                                        for i in range(16)]}))
    code, out, err = run_main(capsys, "theta", "--lattice", str(doc),
                              "--genus", str(genus), "--bound", "2")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert "representation tuples" in error and tuples in error


@pytest.mark.parametrize("scale,rank,bound,accepted", [
    (1, 64, 2, False),  # 10,507,649 vectors
    (2, 40, 3, True),   # 82,241 vectors
])
def test_theta_point_cap_generated(monkeypatch, capsys, tmp_path, scale, rank,
                                   bound, accepted):
    """The theta bound refuses shells past 2^20 vectors on high-rank lattices."""
    monkeypatch.setattr(theta, "series_table", lambda *args, **kwargs: [])
    doc = tmp_path / "lattice.json"
    doc.write_text(json.dumps({"gram": [[scale * (i == j) for j in range(rank)]
                                        for i in range(rank)]}))
    code, out, err = run_main(capsys, "theta", "--lattice", str(doc),
                              "--bound", str(bound))
    if accepted:
        assert code == 0 and json.loads(out)["rows"] == []
    else:
        assert code == 2 and out == ""
        assert "lattice vectors" in json.loads(err)["error"]


def test_theta_rank_cap(monkeypatch, capsys, tmp_path):
    """A gram above the rank cap exits 2 before any arithmetic on it."""
    def fail(*args, **kwargs):
        raise AssertionError("arithmetic started")
    for module, name in ((enumeration, "symmetric_pivots"),
                         (theta, "symmetric_pivots"), (theta, "_parse_entry")):
        monkeypatch.setattr(module, name, fail)
    m = theta.MAX_RANK + 1
    doc = tmp_path / "identity.json"
    doc.write_text(json.dumps({"gram": [[int(i == j) for j in range(m)]
                                        for i in range(m)]}))
    code, out, err = run_main(capsys, "theta", "--lattice", str(doc))
    assert code == 2 and out == ""
    assert "the cap is 128" in json.loads(err)["error"]


def test_theta_gram_entry_past_int64(capsys, tmp_path):
    """A gram entry beyond int64 moves the exact arithmetic to Python ints."""
    doc = tmp_path / "lattice.json"
    doc.write_text(json.dumps({"gram": [[10 ** 602, 1], [1, 2]]}))
    code, out, _ = run_main(capsys, "theta", "--lattice", str(doc), "--bound", "3")
    assert code == 0
    assert [r["count"] for r in json.loads(out)["rows"]] == [1, 2, 0, 0]


def test_theta_pivot_below_float_range(capsys, tmp_path):
    """det 1, but the doubled gram's pivots are about 2*10^400 and 2*10^-400:
    neither is a finite nonzero float, and the zero shell still holds 0."""
    doc = tmp_path / "lattice.json"
    doc.write_text(json.dumps({"gram": [[10 ** 400 + 1, 10 ** 200], [10 ** 200, 1]]}))
    code, out, _ = run_main(capsys, "theta", "--lattice", str(doc), "--bound", "0")
    assert code == 0
    assert [r["count"] for r in json.loads(out)["rows"]] == [1]


@pytest.mark.parametrize("genus,jobs", [("1", "1"), ("2", "1"), ("1", "2")])
def test_theta_shell_box_past_int64(capsys, tmp_path, genus, jobs):
    """Z^2 in the basis (1, 0), (2^62, 1): its LDL diagonal (1, 1) passes the
    work bound, but the shell box reads diag(G2^-1), whose radius passes
    int64, so the run exits 2 with empty stdout.  In the basis (1, 0),
    (2^40, 1) the counts are still those of Z^2."""
    for power in (62, 40):
        doc = tmp_path / f"z2_{power}.json"
        doc.write_text(json.dumps({"gram": [[1, 2 ** power],
                                            [2 ** power, 2 ** (2 * power) + 1]]}))
        code, out, err = run_main(capsys, "theta", "--lattice", str(doc), "--bound", "1",
                                  "--genus", genus, "--jobs", jobs)
        if power == 62:
            assert code == 2 and out == ""
            assert "exceed int64" in json.loads(err)["error"]
        else:
            assert code == 0
            assert [r["count"] for r in json.loads(out)["rows"]][:2] == [1, 4]


def test_work_bound_matches_scalar_oracle():
    """The work bound's one array pass over the grid of t gives the minimum
    of the scalar log theta bound over the same grid."""
    e8 = json.loads((FIXTURES / "e8.json").read_text())["gram"]
    z4 = json.loads((FIXTURES / "z4.json").read_text())["gram"]
    cases = [(e8, range(1, 13)), (z4, range(1, 4))] + [
        ([[scale * (i == j) for j in range(rank)] for i in range(rank)], range(1, 4))
        for scale, rank in ((1, 16), (1, 64), (2, 40), (1, 128))]
    for gram, bounds in cases:
        lat = theta.Lattice(gram)
        diag = [float(d / 2) for d in enumeration._ldl(lat.gram2_rows, 1)[1]]
        for bound in bounds:
            t0 = lat.rank / (4 * bound)
            expected = 1e-6 + min(2 * t * bound + sum(oracles._log_theta(t * d) for d in diag)
                                  for t in (t0 * 2 ** (s / 8) for s in range(-80, 81)))
            assert math.isclose(cli._log_points(diag, bound), expected, rel_tol=1e-13)


def test_theta_payload_past_int64(capsys, tmp_path):
    """Z^2 in the Fibonacci basis (F12, F11), (F13, F12): its degree-8 moments
    pass int64 and are summed exactly."""
    fib = [0, 1]
    while len(fib) < 14:
        fib.append(fib[-1] + fib[-2])
    basis = [[fib[12], fib[11]], [fib[13], fib[12]]]
    gram = [[2 * sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    assert gram == [[57314, 92736], [92736, 150050]]
    doc = tmp_path / "lattice.json"
    doc.write_text(json.dumps({"gram": gram}))
    code, out, _ = run_main(capsys, "theta", "--lattice", str(doc),
                            "--lambda", "8", "--bound", "1")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["count"] for r in rows] == [1, 4]
    assert len(rows[1]["payload"]["1,1,1,1,1,1,1,1"]) == 256


def test_theta_missing_file(capsys):
    code, _, err = run_main(capsys, "theta", "--lattice", "no_such.json")
    assert code == 2
    assert "cannot load lattice" in json.loads(err)["error"]


def test_theta_malformed_lattice(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"gram": [[1, 2], [2, 1]]}')
    code, _, err = run_main(capsys, "theta", "--lattice", str(bad))
    assert code == 2


@pytest.mark.parametrize("doc", [
    '{"gram": 5}',
    '[[2]]',
    '{"gram": [[2, 0], [0, 2]], "coset": 3}',
    '{"gram": [[2, 0, 0], [0, 2], [0, 0, 2]]}',
    '{"gram": [["1/0"]]}',
    '{"gram": [[true]]}',
])
def test_theta_rejects_malformed_document(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    code, out, err = run_main(capsys, "theta", "--lattice", str(bad))
    assert code == 2 and out == ""
    assert "cannot load lattice" in json.loads(err)["error"]


def test_theta_lattice_nested_past_decoder_depth(tmp_path, capsys):
    """A document nested deeper than the JSON decoder's recursion limit
    exits 2 like any other malformed lattice."""
    deep = tmp_path / "deep.json"
    deep.write_text('{"gram": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run_main(capsys, "theta", "--lattice", str(deep))
    assert code == 2 and out == ""
    assert "cannot load lattice" in json.loads(err)["error"]


NOT_A_LIST = [None, True, 3, 2.5, "gram", {"a": [2]}]
# (where, what) pairs, one defect each
DEFECTS = (
    [("document", v) for v in NOT_A_LIST + [[], [[2]]]]
    + [("gram", v) for v in NOT_A_LIST + [[], [2], [[2], 2]]]
    + [("row", v) for v in NOT_A_LIST]
    + [("entry", v) for v in [None, True, False, float("nan"), float("inf"), "",
                              "x", "1/0", "1/2/3", "1.5", "--1", [], [2], {"a": 2}]]
    + [("diagonal", v) for v in [0, -4, "1/2", "7/3", 2.5]]
    + [("row_length", -1), ("row_length", 1), ("asymmetric", 1)]
    + [("coset", v) for v in [True, 3, "h", [[0]], {"modulus": 2}]]
    + [("shifts", v) for v in NOT_A_LIST]
    + [("shift_entry", v) for v in [True, 0.5, "1", None]]
    + [("shift_length", -1), ("shift_length", 1), ("shift_count", 2)]
    + [("modulus", v) for v in [0, -3, True, 1.5, "2", None, [2]]]
    + [("field", v) for v in ["R", "C", "", 5, None]]
)


@st.composite
def malformed_lattices(draw):
    """A positive definite lattice document, optionally with a coset, and
    then one defect."""
    where, what = draw(st.sampled_from(DEFECTS))
    m = draw(st.integers(2 if where == "asymmetric" else 1, 3))
    gram = [[4] * m for _ in range(m)]  # diagonally dominant once filled in
    for i in range(m):
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(-1, 1))
    doc = {"gram": gram}
    if draw(st.booleans()):
        doc["coset"] = {"h": [[0] * m], "modulus": 2}
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    if where == "document":
        doc = what
    elif where in ("gram", "coset", "field"):
        doc[where] = what
    elif where == "row":
        gram[i] = what
    elif where == "entry":
        gram[i][j] = what
    elif where == "diagonal":
        gram[i][i] = what
    elif where == "row_length":
        gram[i] = gram[i][:-1] if what < 0 else gram[i] + [0]
    elif where == "asymmetric":
        gram[0][1] += what
    elif where == "modulus":
        doc["coset"] = {"h": [[0] * m], "modulus": what}
    elif where == "shifts":
        doc["coset"] = {"h": what, "modulus": 2}
    elif where == "shift_entry":
        doc["coset"] = {"h": [[0] * (m - 1) + [what]], "modulus": 2}
    elif where == "shift_length":
        doc["coset"] = {"h": [[0] * (m + what)], "modulus": 2}
    else:
        doc["coset"] = {"h": [[0] * m] * what, "modulus": 2}
    return json.dumps(doc)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=malformed_lattices())
def test_theta_malformed_lattice_property(tmp_path, capsys, doc):
    """Every malformed lattice document exits 2 with a JSON error."""
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    code, out, err = run_main(capsys, "theta", "--lattice", str(bad))
    assert code == 2 and out == ""
    assert json.loads(err)["error"]


def test_intertwine_check(capsys):
    code, out, _ = run_main(capsys, "intertwine-check")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    assert [(r["p"], r["q"], r["n"]) for r in doc["rows"]] == \
        [(1, 1, 1), (2, 1, 1), (2, 1, 2)]
    assert all(r["residual_terms"] == 0 for r in doc["rows"])


def test_jobs_validation(capsys):
    code, _, err = run_main(capsys, "verify", "--identity", "psi_base",
                            "--p", "1", "--q", "1", "--jobs", "0")
    assert code == 2


# runs the code of argv[1] in a fresh interpreter and prints the loaded module
# names to stderr (stdout carries the command's own output)
LOAD_PROBE = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
"""


def test_subcommands_load_only_their_layers():
    """Each subcommand imports the layers it runs and no others: start-up is
    a large share of a short command, and numpy or the form layers alone
    cost more than a bare interpreter."""
    z4 = str(FIXTURES / "z4.json")
    cases = [
        ("import fockforms.cli",
         {"fockforms.cli"},
         {"numpy", "fockforms.forms", "fockforms.multilinear", "fockforms.weil",
          "fockforms.schur", "fockforms.linalg", "concurrent.futures",
          "multiprocessing"}),
        # a count-only table needs no payload layer
        ("import fockforms.cli; fockforms.cli.main(['theta', '--lattice', "
         f"{z4!r}, '--genus', '2', '--bound', '1', '--jobs', '1'])",
         {"numpy", "fockforms.theta", "fockforms.enumeration"},
         {"fockforms.forms", "fockforms.multilinear", "fockforms.weil",
          "fockforms.schur", "fockforms.linalg", "fockforms.scalars",
          "concurrent.futures", "multiprocessing"}),
        # a payload table needs schur, but neither the ring nor the matrices
        ("import fockforms.cli; fockforms.cli.main(['theta', '--lattice', "
         f"{z4!r}, '--lambda', '2', '--bound', '1', '--jobs', '1'])",
         {"numpy", "fockforms.theta", "fockforms.enumeration", "fockforms.schur"},
         {"fockforms.forms", "fockforms.multilinear", "fockforms.weil",
          "fockforms.scalars", "fockforms.linalg", "concurrent.futures",
          "multiprocessing"}),
        ("import fockforms.cli; fockforms.cli.main(['verify', '--identity', "
         "'closedness', '--p', '1', '--q', '1'])",
         {"fockforms.forms", "fockforms.weil"},
         {"numpy", "fockforms.linalg", "concurrent.futures", "multiprocessing",
          "dataclasses", "inspect"}),
        # the o(n) check needs no matrix inverse
        ("import fockforms.cli; fockforms.cli.main(['verify', '--identity', "
         "'sigma_gl', '--p', '2', '--q', '1', '--n', '2', '--ell', '2'])",
         {"fockforms.forms", "fockforms.weil"},
         {"numpy", "fockforms.linalg"}),
        ("import fockforms.cli; fockforms.cli.main(['dims'])",
         {"fockforms.schur", "fockforms.linalg"},
         {"numpy", "fockforms.forms", "fockforms.scalars", "multiprocessing"}),
        ("import fockforms; assert 'fockforms.multilinear' not in sys.modules; "
         "from fockforms import Scalar, QQ, MixedForm, SpaceParams",
         {"fockforms.scalars", "fockforms.multilinear"},
         {"numpy", "dataclasses", "inspect"}),
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for code, loaded, absent in cases:
        proc = subprocess.run([sys.executable, "-c", LOAD_PROBE, code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (code, proc.stderr[-2000:])
        modules = set(json.loads(proc.stderr.splitlines()[-1]))
        assert loaded <= modules, (code, loaded - modules)
        assert not absent & modules, (code, absent & modules)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fockforms.cli", "dims",
         "--lambda", "1", "--n", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"][0]["rank"] == 2


def test_module_entry_point_exit_codes(tmp_path):
    """`python -m fockforms.cli` exits 2 with nothing on stdout on a malformed
    lattice or argument, the lattice with a JSON error on stderr."""
    def module(*argv):
        return subprocess.run([sys.executable, "-m", "fockforms.cli", *argv],
                              capture_output=True, text=True, timeout=120)

    bad = tmp_path / "bad.json"
    bad.write_text('{"gram": [[1, 2], [2, 1]]}')
    proc = module("theta", "--lattice", str(bad))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "cannot load lattice" in json.loads(proc.stderr)["error"]
    proc = module("verify", "--p", "x")
    assert proc.returncode == 2 and proc.stdout == ""


# (command, sha256 of its stdout): every recorded run of `python -m
# fockforms.cli`, each in a fresh process; a lattice is a tests/fixtures file
RECORDED_STDOUT = [
    # each subcommand with no options
    ("verify", "a833be960eafeaca62978a3c6b90eacc9607d756a767695d73d11f5f287bf7be"),
    ("dims", "d25892ecb1d6b7770e2360aaf5267109e95651aa3f13db81f6b012d9702a0199"),
    ("intertwine-check", "473500f96addba01adea97444a260f85f6b2eb6279b88a21d20913510e91f465"),
    # the default grid through the process pool, which its reports cross pickled
    ("verify --jobs 2", "a833be960eafeaca62978a3c6b90eacc9607d756a767695d73d11f5f287bf7be"),
    # a single-row cell whose row orbits hold repeated letters
    ("verify --identity holomorphicity --p 2 --q 1 --ell 5", "cbb527e8104de2a959a8ba85206492c2b48b2e35c19930305c31021de8ea3208"),
    # the forms' Young step at a degree with 720 row permutations
    ("verify --identity holomorphicity --p 2 --q 1 --ell 6", "4d22ec6b18a3ad2618b07a9535c59940d1db310421814dddf832caba18b6480e"),
    # the forms' harmonic projector, schur.harmonic_apply_vec, at m = 4 in both signatures
    ("verify --identity holomorphicity --p 2 --q 2 --ell 4", "9449f3b570db782734d7d73d31bc0218eb7e4b0c02611e8a3e974c544a37a901"),
    ("verify --identity holomorphicity --p 3 --q 1 --ell 4", "b2a138a985f14ceb58bbed2fe9d399cdad94ddf432d9d99abe7336eb39bc3c2b"),
    # the largest same-coefficient d_operator sums: op_sum adds each image term once
    ("verify --identity recursion --p 3 --q 3 --ell 4", "b22662771f9de4253a3bddbf5cebf73196986280f828c27a6e10cbb55bb5ef24"),
    # the shared-form memo's d images: d of the lowering primitive, the graded pieces of d psi
    ("verify --identity lowering --p 3 --q 3 --ell 4", "f93cec0b4cfc9c22a597889802256506ca9d9c4e70c1763c6ef54ddbbe1ee8a1"),
    ("verify --identity lemma4b --p 3 --q 3 --ell 4", "ee61a29ef820f9afd8261321d1ec803337078f4a3b561c17f564fc7c21987343"),
    # the metric correction's "plus" and "minus" modes above the default grid's ell <= 3
    ("verify --identity lem3a --p 3 --q 3 --ell 4", "31a5f191615a9c1e1c832e3d9b02abb2a8ad2f78e67b8da40590e8630597093a"),
    ("verify --identity prop3a --p 3 --q 3 --ell 4", "dd68985400fde5604e12449b4d952478636fdaaee16f34cd96cc308c5895738a"),
    ("verify --identity lemma4a --p 3 --q 3 --ell 4", "c323de1e26169a7e4e23c497737e9797ec582208a726784976ad6d7887e572e8"),
    # the packed MixedForm term keys at the largest p and q, and one degree up
    ("verify --identity recursion --p 4 --q 4 --ell 3", "9d852d326ee8624ca2c4e51c46604ded575bb116c67b4881a4641047cca7c3c6"),
    ("verify --identity recursion --p 4 --q 4 --ell 4", "ddd6623a5ca0076092f3041f74092c8c851d152b4b2b38fb48710f7180c419ee"),
    # an n = 3 frontier cell: phi_nq0 as a product of linear forms, the folded omega_kprime
    ("verify --identity kprime --p 3 --q 4 --n 3 --ell 1", "12ea4bd7957de01e8b9594774b732fe2fbd5988b382e15c2ab37e2700b8e623a"),
    # the o(3) check of sigma: the commutator with omega(X) against the moved letters
    ("verify --identity sigma_gl --p 3 --q 4 --n 3 --ell 2", "26af7d3c0075fde667fd81039015ac523516a105542ed35a2dc3efb31eaa6b67"),
    ("verify --identity sigma_gl --p 4 --q 4 --n 3 --ell 2", "c65c7fdee09a4a7eebb8a445d0c0d4af0744957767949e0410badf3b70fafc56"),
    # tensor_permute's one caller above the default grid's (2, 1, 2) and ell <= 2
    ("verify --identity equivariance --p 3 --q 3 --n 3 --ell 3", "7f6ad45a05c7d83c41e634cf79470cf5ac53453f37070e16764028182e18ebbc"),
    # theta payload tables at genus 1 to 3, on a coset lattice too
    ("theta --lattice e8.json --lambda 4 --bound 3", "756c101fed6859ec560ccedb3e87e37040c3678c246e2382c0a19d9de63d52cb"),
    ("theta --lattice e8.json --lambda 4 --bound 5", "e73da4f6ca6853bea0b2c9ab8ce1dc75b695ee0036388c570af460d6e1273763"),
    ("theta --lattice e8.json --lambda 2 --bound 2", "a06ebeeefa4fc9ea160b720cf9094e070ac8feb22805a3e8b2cce22df6287360"),
    ("theta --lattice z4.json --genus 2 --lambda 2,2 --bound 1", "915860b7b4b4cce2cb69126dcbbbcd61732b83f2e830a740e95196ae00908763"),
    ("theta --lattice z4.json --genus 2 --lambda 2,1 --bound 1", "507ca5e9b329f7d734f0140ceb0c03562cebbd39e32cefcea196229d783210b5"),
    ("theta --lattice z4.json --genus 2 --lambda 3,1 --bound 1", "e07af3398f562f31dd4ef1c0b697da7442cc403cf42164bdfceb70bb57dc641c"),
    ("theta --lattice z4.json --genus 3 --lambda 2,1,1 --bound 1", "4c0b4f5e4c51608a762778386cc90e6571a6ab595a2d30533357d9625d5ad73d"),
    ("theta --lattice z4.json --lambda 3 --bound 3", "4018a24f3fd8cfbf31c1abc69213284a54ed4ed8af8d8c997ae701416134511b"),
    ("theta --lattice z2.json --genus 2 --lambda 1,1 --bound 2", "d3b9a19a58b45fb5d945d7c4acf9001973c05c133a4fcf89b78f12df66072dbd"),
    ("theta --lattice z2.json --lambda 4 --bound 4", "7e57d3f426be77153588f16ddc4aa8648bbaa1604fcedbfb45a07a9935dc240b"),
    ("theta --lattice z2.json --lambda 5 --bound 3", "8838e326523016dd60d5d573e344a628dcc58b339d513e02a5807f9a2e6ef261"),
    ("theta --lattice z2.json --lambda 6 --bound 3", "6cd0c870c47c61e7c35452864ff8ded2611c0d5da100b79b66c4c029e1fc2e47"),
    ("theta --lattice z2.json --lambda 8 --bound 2", "9d88aaa0c22fff4113293c1ebc283f526d32435da0263fee62161373dde4443e"),
    ("theta --lattice z2_coset.json --lambda 2 --bound 4", "22ae7198d1518017a6428346f4115a627950a914aef638fc89f0347a8ac0edbe"),
    # the count frontier: E8's 2160^2 pairs and 240^3 triples, binned one diagonal at a time
    ("theta --lattice e8.json --genus 2 --bound 2", "c7472cfdd82ba202eb335432f9aa2c7e9010e535b22ef00b187a38522e5fab7a"),
    ("theta --lattice e8.json --genus 3 --bound 1", "b380173f2d0d4a35b58468d976e97d6c108533ce8532ceba957f3867d15d855a"),
    # the same table with its diagonals fanned out over a process pool
    ("theta --lattice e8.json --genus 3 --bound 1 --jobs 2", "b380173f2d0d4a35b58468d976e97d6c108533ce8532ceba957f3867d15d855a"),
    # the payload frontier on E8 + E8: integer arrays from the search's blocks to the Young step
    ("theta --lattice e8e8.json --lambda 4 --bound 2", "88be14f3a2a600e58e6a3c51c2a3f00bf0e7c5ed484b2dede262c7d6ce942960"),
    ("theta --lattice e8e8.json --genus 2 --lambda 2,2 --bound 1", "f3f57443081811e500a3ca0e3ec0d5f02c281087688a152ebaaf1fd1361ffc49"),
    # the one payload case whose search blocks carry a path prefix, all six fillings in one pass
    ("theta --lattice rank4.json --genus 3 --lambda 2,2 --bound 1", "7e1c9c15210834bd104e7c687182652629d9f9544bd7c631bbf7ca1874562fba"),
]


@pytest.mark.parametrize("command,digest", RECORDED_STDOUT,
                         ids=[command for command, _ in RECORDED_STDOUT])
def test_recorded_stdout(command, digest):
    """Each recorded command exits 0 and prints its recorded stdout, run as
    users run it: `python -m fockforms.cli` in a fresh process, through
    cli.run, on the package this test imported."""
    argv = [str(FIXTURES / arg) if arg.endswith(".json") else arg
            for arg in command.split()]
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "fockforms.cli", *argv], env=env,
                          capture_output=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_workflow_digests_are_recorded():
    """Every sha256 the CI workflow checks is a digest of the recorded table,
    so the two cannot drift apart."""
    workflow = (SRC.parent / ".github" / "workflows" / "tests.yml").read_text()
    digests = set(re.findall(r"\b[0-9a-f]{64}\b", workflow))
    assert digests and digests <= {digest for _, digest in RECORDED_STDOUT}


def test_module_and_script_enter_through_run():
    """The module's __main__ block and the console script both call cli.run:
    after the module runs as __main__ the collector is off and the heap
    frozen, and pyproject.toml points the script at run."""
    code = ("import gc, runpy, sys\n"
            "sys.argv = ['fockforms', 'dims', '--lambda', '1', '--n', '2']\n"
            "try:\n"
            "    runpy.run_module('fockforms.cli', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.stderr.split() == ["0", "False", "True"], proc.stderr
    pyproject = (SRC.parent / "pyproject.toml").read_text()
    assert 'fockforms = "fockforms.cli:run"' in pyproject.splitlines()


def test_run_switches_gc_off_and_freezes_at_exit(monkeypatch):
    """cli.run calls main with the cyclic gc off, returns its exit code
    unchanged and leaves the heap frozen, also when main exits by raising."""
    seen = []

    def fake_main(code):
        seen.append(gc.isenabled())
        if isinstance(code, BaseException):
            raise code
        return code

    try:
        for code in (0, 1, 2):
            monkeypatch.setattr(cli, "main", lambda: fake_main(code))
            assert cli.run() == code
            assert not gc.isenabled() and gc.get_freeze_count() > 0
            gc.unfreeze()
        monkeypatch.setattr(cli, "main", lambda: fake_main(SystemExit(2)))
        with pytest.raises(SystemExit):
            cli.run()
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
        gc.enable()
    assert seen == [False] * 4


def test_run_defaults_openblas_to_one_thread(monkeypatch):
    """cli.run sets OPENBLAS_NUM_THREADS to 1 before main when it is unset,
    and keeps a value the caller set."""
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(dict(os.environ)))
    try:
        for environ in ({}, {"OPENBLAS_NUM_THREADS": "3"}):
            monkeypatch.setattr(os, "environ", environ)
            cli.run()
    finally:
        gc.unfreeze()
        gc.enable()
    assert seen == [{"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "3"}]


def test_main_keeps_the_collector(capsys):
    """In-process callers of main keep the cyclic gc and an unfrozen heap."""
    assert gc.isenabled() and gc.get_freeze_count() == 0
    for argv in (("dims", "--lambda", "1", "--n", "2"),
                 ("verify", "--identity", "bogus", "--p", "1", "--q", "1")):
        run_main(capsys, *argv)
        assert gc.isenabled() and gc.get_freeze_count() == 0, argv


@pytest.mark.parametrize("code,argv", [
    (0, ("verify", "--identity", "closedness", "--p", "2", "--q", "1", "--ell", "2")),
    (0, ("theta", "--lattice", str(FIXTURES / "z4.json"), "--genus", "2", "--bound", "1")),
    (0, ("theta", "--lattice", str(FIXTURES / "z4.json"), "--genus", "2", "--lambda", "2,2",
         "--bound", "1")),
    (0, ("dims",)),
    (0, ("intertwine-check",)),
    (2, ("theta", "--lattice", str(FIXTURES / "z4.json"), "--genus", "0")),
], ids=["verify-cell", "theta-count", "theta-payload", "dims", "intertwine-check", "exit-2"])
def test_runs_leave_only_parser_and_encoder_garbage(capsys, code, argv):
    """With caches warm and gc off, a run leaves for the cyclic gc exactly what
    its argparse parser leaves, plus, when it prints a report, what one
    json.dumps with indent leaves (the pure-Python encoder's closures): a
    fixed amount per process, which is why cli.run may switch the gc off."""
    assert run_main(capsys, *argv)[0] == code
    gc.collect()
    gc.disable()
    try:
        run_main(capsys, *argv)
        garbage = gc.collect()
        cli.build_parser().parse_args(list(argv))
        expected = gc.collect()
        if code != 2:
            json.dumps({"passed": True}, indent=1)
            expected += gc.collect()
    finally:
        gc.enable()
    assert garbage == expected > 0
