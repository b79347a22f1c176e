"""Self-tests of the benchmark harness.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import (E7_G2_COUNTS, E8_COUNTS, ORACLES, WORKLOADS,  # noqa: E402
                       check_output, e7_gram, lattice_for_seed)

ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
SMALL_COMMANDS = [
    ["verify", "--identity", "recursion", "--p", "2", "--q", "1", "--ell", "2"],
    ["theta", "--lattice", "tests/fixtures/z2.json", "--lambda", "2", "--bound", "3"],
]


def cli_stdout(args):
    return subprocess.run([sys.executable, "-m", "fockforms.cli"] + args, cwd=ROOT, env=ENV,
                          capture_output=True, check=True, timeout=120).stdout


def bench(workload, trace, cwd=ROOT, seconds="1"):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                           "--seed", "0", "--seconds", seconds, "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def verify_stdout():
    return cli_stdout(["verify"])


def test_untouched_output_passes_the_gate(verify_stdout):
    assert check_output("verify_grid", verify_stdout) == []


def test_tampered_output_fails_the_gate(verify_stdout):
    doc = json.loads(verify_stdout)
    doc["reports"][5]["passed"] = False
    tampered = (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()
    problems = check_output("verify_grid", tampered)
    assert any("sha256" in p for p in problems)
    assert any("did not pass" in p for p in problems)
    assert check_output("verify_grid", verify_stdout.replace(b'"cases": 1', b'"cases": 2', 1))
    assert check_output("verify_grid", verify_stdout[:-2])


def _theta_doc(counts, payload):
    return {"rows": [{"beta": [[k]], "count": c, "payload": dict(payload)}
                     for k, c in enumerate(counts)]}


def test_theta_oracles_catch_wrong_counts_and_payloads():
    e8 = ORACLES["theta_e8_l4"]
    assert e8(_theta_doc(E8_COUNTS, {"1,1,1,1": []})) == []
    assert e8(_theta_doc(E8_COUNTS[:-1] + [30241], {"1,1,1,1": []}))
    assert e8(_theta_doc(E8_COUNTS, {"1,1,1,1": [[[1, 1, 1, 1], [1, 7]]]}))
    g2 = ORACLES["theta_e7_g2"]
    assert g2(_theta_doc(E7_G2_COUNTS, {})) == []
    assert g2(_theta_doc(list(reversed(E7_G2_COUNTS)), {}))


def test_seeded_lattice_is_deterministic_and_keeps_the_determinant():
    gram = e7_gram()
    assert lattice_for_seed(gram, 0) == {"gram": gram}
    assert lattice_for_seed(gram, 7) == lattice_for_seed(gram, 7)
    assert lattice_for_seed(gram, 7) != lattice_for_seed(gram, 8)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from fockforms.enumeration import exact_ldl
    from fockforms.linalg import RatMat

    def det(gram):
        prod = 1
        for d in exact_ldl(RatMat.from_rows(gram))[1]:
            prod *= d
        return prod

    assert det(lattice_for_seed(gram, 7)["gram"]) == det(gram) == 2


@pytest.mark.parametrize("args", SMALL_COMMANDS)
def test_tracing_leaves_stdout_unchanged(args, tmp_path):
    plain = cli_stdout(args)
    traced = subprocess.run(
        [sys.executable, os.path.join(HERE, "tracer.py"), "--spans", str(tmp_path / "s.jsonl"),
         "--summary", str(tmp_path / "s.json"), "--run-id", "t", "--"] + args,
        cwd=ROOT, env=ENV, capture_output=True, check=True, timeout=120).stdout
    assert traced == plain
    with open(tmp_path / "s.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["calls"]["cli.main"] == 1
    spans = [json.loads(line) for line in open(tmp_path / "s.jsonl", encoding="utf-8")]
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] is None
    assert all(s["parent"] is not None for s in spans[1:])


def test_layer_map_covers_every_per_layer_metric_once():
    names = [m["name"] for m in declared()["per_layer"]]
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        groups = json.load(fh)["groups"]
    mapped = [name for g in groups for name in g["metrics"]]
    assert sorted(mapped) == sorted(names)
    workloads = set(WORKLOADS)
    e2e = {m["name"] for m in declared()["end_to_end"]}
    for g in groups:
        assert all(m["workload"] in workloads and m["metric"] in e2e for m in g["moves"])
        assert set(g["unchanged_on"]) <= workloads


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_are_exactly_the_declared_ones(trace, section):
    out = bench("verify_grid", trace)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in declared()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_declared_workloads_are_the_implemented_ones():
    assert [w["name"] for w in declared()["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = bench("verify_grid", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
