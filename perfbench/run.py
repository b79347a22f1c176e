"""fockforms benchmark: real CLI commands in fresh processes, gated outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload theta_e7_g2 --seed 0 --seconds 32 --trace 0

Each workload (see workloads.py and BENCHMARK.json) is one ``fockforms``
command, started as ``python3 -m fockforms.cli`` with ``src`` on the path, so
every sample pays for cold caches as a user does.

--trace 0 measures the end-to-end metrics:
  wall_rel      median over rounds of the command's wall time at --jobs 1
                (stdout captured) divided by the round's gauge: the mean wall
                time of reference.py, a fixed pure-Python program, run right
                before and right after the round
  peak_rss_mb   median ru_maxrss of the command's process
  setup_s       median over probes of the time for a fresh interpreter to
                import fockforms.cli and load the workload's input
                (Lattice.load or default_grid()), divided by the round's gauge
                and multiplied by REFERENCE_S: set-up seconds on a host where
                reference.py takes REFERENCE_S
A run is one reference run, then rounds of one command run, SETUP_PROBES
set-up probes and one reference run while the next round is expected to end
within --seconds.  The commands take two to seven seconds, so a run holds
four to ten rounds.  Raw seconds are printed for every sample.

Why ratios: on a shared two-core host the same command runs 25-50% slower
whenever neighbours are busy, in phases that outlast a run.  Over ten seeds
per workload the median raw wall time of a run spread by 13-20% (IQR /
median) and the median set-up time by 10-22%.  The medians of the ratios to
the gauge spread by 3-9% (wall_rel) and 5-12% (setup_s) in two sets of ten
seeds, and the two sets' medians agreed within 4% and 9%.  The reference does
not depend on the code under test.

--trace 1 alternates untraced runs with runs of tracer.py, which wraps every
layer from outside and calls fockforms.cli.main in-process, both at --jobs 1.
It reports the per-layer metrics (medians over the traced runs), prints the
per-layer table and writes spans to .perfbench_out/trace/.

Every run is gated: exit code 0, the workload's oracles and the recorded
stdout digest, so a traced run must print exactly what an untraced run
prints.  The last stdout line is the JSON result; failed_frac is its
failed / attempted.  Any failed check makes the command exit 1.  Without the fockforms sources next to it the
command exits 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import tracer
from workloads import WORKLOADS, check_output, lattice_for_seed

OUT_DIR = ".perfbench_out"
SETUP_PROBES = 3      # set-up probes per round
REFERENCE_S = 0.9     # about reference.py's median wall time on a 2-core Xeon
RUN_LIMIT_S = 170     # a whole invocation must end well within 180 s
REFERENCE_STDOUT = b'4267 1999000 309491 352948\n'

SETUP_CODE = """
import sys, time
t0 = float(sys.argv[1])
import fockforms.cli
if len(sys.argv) > 2:
    from fockforms.theta import Lattice
    Lattice.load(sys.argv[2])
else:
    from fockforms.forms import default_grid
    default_grid()
print(time.clock_gettime(time.CLOCK_MONOTONIC) - t0)
"""


class Child:
    """Outcome of one child process: wall time, exit code, peak RSS, stdout."""

    def __init__(self, wall, code, rss_mb, stdout, stderr):
        self.wall, self.code, self.rss_mb = wall, code, rss_mb
        self.stdout, self.stderr = stdout, stderr
        self.ok = True


def run_child(argv, env, scratch, deadline):
    """Run argv to completion in its own process group; kill it at the deadline."""
    out_path = os.path.join(scratch, "stdout")
    err_path = os.path.join(scratch, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                start_new_session=True)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)  # pool workers the command may have left behind
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0, stdout, stderr)


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def backend_record(root):
    """Versions and switches that decide which code paths run."""
    code = ("import json, numpy, fockforms.scalars as s, fockforms.enumeration as e\n"
            "try:\n import numba; has_numba = True\nexcept ImportError:\n has_numba = False\n"
            "print(json.dumps({'numpy': numpy.__version__, 'rational': s.QQ.__module__ + '.'"
            " + s.QQ.__name__, 'numba_importable': has_numba,"
            " 'numba_enabled': bool(e.numba_enabled())}))")
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    record = json.loads(out.stdout)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    record.update({
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
    })
    return record


class Bench:
    def __init__(self, root, name, seed, seconds, scratch):
        self.root, self.name, self.seed, self.seconds = root, name, seed, seconds
        self.workload = WORKLOADS[name]
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.lattice = self._prepare_input()

    def _prepare_input(self):
        """Path of the lattice file the command reads; None for verify."""
        fixture, gram = self.workload.fixture, self.workload.gram
        if fixture is not None:
            if self.seed == 0:
                return fixture
            with open(os.path.join(self.root, fixture), encoding="utf-8") as fh:
                gram = json.load(fh)["gram"]
        if gram is None:
            return None
        doc = lattice_for_seed(gram, self.seed)
        path = os.path.join(self.scratch, "lattice.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    def _record(self, label, child, problems):
        self.attempted += 1
        if child.code != 0:
            problems = [f"exit code {child.code}: {child.stderr[-300:]!r}"] + problems
        child.ok = not problems
        if problems:
            self._fail(f"{label}: " + "; ".join(problems))

    def _fail(self, message):
        self.failed += 1
        self.failures.append(message)

    def cli(self):
        argv = [sys.executable, "-m", "fockforms.cli"] + self.workload.argv(self.lattice)
        child = run_child(argv, self.env, self.scratch, self.deadline)
        self._record("cli", child, check_output(self.name, child.stdout))
        return child

    def traced(self, k, spans_path):
        summary_path = os.path.join(self.scratch, "summary.json")
        argv = ([sys.executable, os.path.join(os.path.dirname(__file__), "tracer.py"),
                 "--spans", spans_path, "--summary", summary_path,
                 "--run-id", f"{self.name}-seed{self.seed}-{k}", "--"]
                + self.workload.argv(self.lattice))
        child = run_child(argv, self.env, self.scratch, self.deadline)
        self._record("traced", child, check_output(self.name, child.stdout))
        if not child.ok:
            return child, tracer.EMPTY_SUMMARY
        with open(summary_path, encoding="utf-8") as fh:
            return child, json.load(fh)

    def setup_probe(self):
        argv = [sys.executable, "-c", SETUP_CODE, repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
        if self.lattice is not None:
            argv.append(self.lattice)
        child = run_child(argv, self.env, self.scratch, self.deadline)
        self._record("setup", child, [])
        return float(child.stdout) if child.code == 0 else None

    def rounds(self, body):
        """Call body(k) while the next round is expected to end in time."""
        end = time.monotonic() + self.seconds
        k = 0
        while True:
            t0 = time.monotonic()
            body(k)
            k += 1
            if time.monotonic() + (time.monotonic() - t0) > end or self.failures:
                return k

    def reference(self):
        argv = [sys.executable, os.path.join(os.path.dirname(__file__), "reference.py")]
        child = run_child(argv, self.env, self.scratch, self.deadline)
        self._record("reference", child,
                     [] if child.stdout == REFERENCE_STDOUT else ["unexpected output"])
        return child

    def end_to_end(self):
        refs = [self.reference()]
        runs, probes = [], []

        def one_round(k):
            runs.append(self.cli())
            probes.extend((k, self.setup_probe()) for _ in range(SETUP_PROBES))
            refs.append(self.reference())

        self.rounds(one_round)
        # a round's gauge is the mean of the two reference runs around it
        gauge = [(a.wall + b.wall) / 2 for a, b in zip(refs, refs[1:])]
        setup = [p for _, p in probes if p is not None]
        metrics = {
            "wall_rel": _median([c.wall / g for c, g in zip(runs, gauge)]),
            "peak_rss_mb": _median([c.rss_mb for c in runs]),
            "setup_s": REFERENCE_S * _median([p / gauge[k] for k, p in probes
                                              if p is not None]),
        }
        detail = {"wall_s": [c.wall for c in runs], "reference_s": [c.wall for c in refs],
                  "setup_s": setup, "peak_rss_mb": [c.rss_mb for c in runs]}
        return metrics, detail

    def per_layer(self):
        trace_dir = os.path.join(self.root, OUT_DIR, "trace")
        os.makedirs(trace_dir, exist_ok=True)
        spans_path = os.path.join(trace_dir, f"{self.name}-seed{self.seed}.spans.jsonl")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        plain, traced = [], []

        def one_round(k):
            for kind in (("plain", "traced") if k % 2 == 0 else ("traced", "plain")):
                if kind == "plain":
                    plain.append(self.cli())
                else:
                    traced.append(self.traced(k, spans_path))

        n = self.rounds(one_round)
        per_run = [tracer.layer_metrics(summary) for _, summary in traced]
        metrics = {key: statistics.median_low([m[key] for m in per_run]) for key in per_run[0]}
        metrics["cli.stdout_bytes"] = len(plain[0].stdout)
        metrics["trace_overhead"] = (_median([c.wall for c, _ in traced])
                                     / _median([c.wall for c in plain]))
        with open(os.path.join(trace_dir, f"{self.name}-seed{self.seed}.layers.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"metrics": metrics, "summaries": [s for _, s in traced]}, fh, indent=1)
        print_layer_table(traced[-1][1])
        print(f"spans: {spans_path}")
        return metrics, {"rounds": n, "traced_wall_s": [c.wall for c, _ in traced],
                         "untraced_wall_s": [c.wall for c in plain]}


def _median(values):
    return statistics.median(values) if values else 0.0


def print_layer_table(summary):
    """Per-layer self time and calls of one traced run, busiest layer first."""
    calls, self_s = summary["calls"], summary["self_s"]
    total = sum(self_s.values()) or 1.0
    rows = []
    for layer in tracer.LAYERS:
        names = [k for k in self_s if k.startswith(layer + ".")]
        busy = sum(self_s[k] for k in names)
        top = max(names, key=lambda k: self_s[k], default="-")
        rows.append((busy, layer, sum(calls[k] for k in names), top))
    print(f"{'layer':<12}{'self_s':>10}{'share':>8}{'calls':>10}  busiest span")
    for busy, layer, n, top in sorted(rows, reverse=True):
        print(f"{layer:<12}{busy:>10.4f}{busy / total:>8.1%}{n:>10}  {top}")


def load_declared(root):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description="fockforms CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so run_child kills and reaps the running command
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fockforms", "cli.py")):
        print("perfbench: run from a fockforms checkout (src/fockforms missing)",
              file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = load_declared(root)
    backend = backend_record(root)
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, OUT_DIR))
    try:
        bench = Bench(root, args.workload, args.seed, args.seconds, scratch)
        if args.trace:
            values, detail = bench.per_layer()
            units = per_layer_units
        else:
            values, detail = bench.end_to_end()
            units = end_to_end_units
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = bench.failed
    for problem in bench.failures:
        print(f"FAILED {problem}")
    print(f"backend {json.dumps(backend, sort_keys=True)}")
    print(f"samples {json.dumps(detail)}")
    for name, values_s in detail.items():
        if name.endswith("_s") and values_s:
            done = sorted(v for v in values_s if v is not None)
            print(f"{name}: median {statistics.median(done):.4f} s, min {done[0]:.4f}, "
                  f"max {done[-1]:.4f}, n = {len(done)}")
    for name in units:
        print(f"{name:<44}{values[name]:>16.6g} {units[name]}")
    print(f"{'failed_frac':<44}{failed / bench.attempted:>16.6g} ({failed}/{bench.attempted})")
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    result_dir = os.path.join(root, OUT_DIR, "results")
    os.makedirs(result_dir, exist_ok=True)
    with open(os.path.join(result_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(dict(result, backend=backend, samples=detail), fh, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
