"""Per-layer tracing of one fockforms CLI run, installed from outside the program.

Usage (run.py starts this as a fresh child process):

    python3 perfbench/tracer.py --spans OUT.jsonl --summary OUT.json \\
        --run-id ID -- theta --lattice tests/fixtures/e8.json --bound 1

The layers are the package modules.  Every public function of a layer module
is replaced by a wrapper that records a span (name, start, end, parent, run
id).  The wrapper is installed under every module attribute that refers to
the function, so a caller that did ``from fockforms.enumeration import
shell_vectors`` reaches it as well.  The handful of methods that carry the
arithmetic (``Scalar.__mul__``, ``LinearOperator.__call__``, ...) are wrapped
on their classes.  Then ``fockforms.cli.main(argv)`` runs in this process, so
caches start cold exactly as in an untraced run, and stdout is untouched.

Spans stay in memory and are written as JSONL when the run ends; the summary
holds calls, self time (span time minus wrapped children) and the counters
from which ``layer_metrics`` derives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "forms", "weil", "multilinear", "scalars", "linalg", "schur",
          "enumeration", "theta")

# span name -> (module, class, method)
METHODS = {
    "scalars.mul": ("scalars", "Scalar", "__mul__"),
    "scalars.add": ("scalars", "Scalar", "__add__"),
    "multilinear.op_apply": ("multilinear", "LinearOperator", "__call__"),
    "multilinear.mul": ("multilinear", "MixedForm", "__mul__"),
    "multilinear.add": ("multilinear", "MixedForm", "__add__"),
    "multilinear.scale": ("multilinear", "MixedForm", "scale"),
    "linalg.matmul": ("linalg", "RatMat", "__matmul__"),
    "theta.shell": ("theta", "Lattice", "shell"),
}

# Per-word and per-permutation helpers, called once per tensor entry (hundreds
# of thousands of times on theta_e8_l4).  A wrapper costs more than their own
# body, so their time stays in the caller's self time.
UNWRAPPED = frozenset({
    "schur.perm_act_word", "schur.word_index", "schur.perm_sign",
    "schur.insert_pair_word", "schur.remove_pair_word",
})

# Spans kept for the JSONL file; calls beyond this are still counted and timed.
MAX_SPANS = 200_000

# Which lru_caches make up forms.phi_cache.
PHI_CACHES = ("phi_nq0", "phi_0ell", "phi")


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.t0 = time.perf_counter()
        self.spans = []          # (id, name, start, end, parent id)
        self.stack = []          # open frames: [span id, time in wrapped children]
        self.next_id = 0
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.seen = set()        # harmonic_complement arguments already built

    def wrap(self, name, fn, hook=None):
        """fn with a span around each call; hook(tracer, result, args) counts."""
        clock = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [self.next_id, 0.0]
            self.next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, result, args)
                return result
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[1] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame[1]
                if frame[0] < MAX_SPANS:
                    self.spans.append((frame[0], name, start, end,
                                       parent[0] if parent else None))
        return traced

    def write_spans(self, path):
        with open(path, "a", encoding="utf-8") as fh:
            for sid, name, start, end, parent in sorted(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": sid, "name": name,
                    "start": round(start - self.t0, 7),
                    "end": round(end - self.t0, 7), "parent": parent,
                }) + "\n")


# -- counters read at the layer boundaries -----------------------------------

def _nnz(scalar):
    return sum(1 for quad in scalar.terms.values() for c in quad if c)


def _scalar_mul(tr, result, args):
    a, b = args
    if type(b) is type(a):  # Scalar x Scalar; the rest delegates to scale()
        tr.counts["scalars.mul.pairs"] += len(a.terms) * len(b.terms)
        tr.counts["scalars.mul.useful"] += _nnz(a) * _nnz(b)


def _run_identity(tr, report, args):
    tr.counts["forms.cases"] += report.cases
    tr.counts[f"forms.identity.{report.identity}.s"] += report.seconds


def _harmonic_complement(tr, result, args):
    b1, ell = args
    key = (tuple(tuple(sorted(row.items())) for row in b1.rows), ell)
    if key in tr.seen:
        tr.counts["schur.harmonic_complement.repeats"] += 1
    tr.seen.add(key)


def _size_of(counter):
    """Counts the size of the result: form terms, array rows or dict keys."""
    def hook(tr, result, args):
        tr.counts[counter] += len(getattr(result, "terms", result))
    return hook


def _harmonic_project_vec(tr, result, args):
    tr.counts["schur.harmonic_project_vec.nnz_in"] += len(args[0])
    tr.counts["schur.harmonic_project_vec.nnz_out"] += len(result)


HOOKS = {
    "scalars.mul": _scalar_mul,
    "multilinear.op_apply": _size_of("multilinear.op_apply.terms_out"),
    "forms.run_identity": _run_identity,
    "enumeration.shell_vectors": _size_of("enumeration.shell_vectors.vectors"),
    "theta.enumerate_representations": _size_of("theta.enumerate_representations.reps"),
    "theta.series_betas": _size_of("theta.series_betas.betas"),
    "theta.moment_tensor": _size_of("theta.moment_tensor.nnz"),
    "schur.young_apply_vec": _size_of("schur.young_apply_vec.nnz_out"),
    "schur.harmonic_project_vec": _harmonic_project_vec,
    "schur.harmonic_complement": _harmonic_complement,
}


def install(tracer):
    """Wrap the layers in place; returns the phi lru_caches for cache_info()."""
    modules = {name: importlib.import_module(f"fockforms.{name}") for name in LAYERS}
    targets = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            if name not in UNWRAPPED:
                targets[name] = obj
    if set(targets) & set(METHODS):
        raise RuntimeError("a function name collides with a traced method name")
    caches = [vars(modules["forms"])[name] for name in PHI_CACHES]
    for name, obj in targets.items():
        wrapped = tracer.wrap(name, obj, HOOKS.get(name))
        for mod in modules.values():
            for attr, val in list(vars(mod).items()):
                if val is obj:
                    setattr(mod, attr, wrapped)
    for name, (layer, cls_name, meth) in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        setattr(cls, meth, tracer.wrap(name, vars(cls)[meth], HOOKS.get(name)))
    return modules["cli"], caches


# What run.py uses in place of the summary of a traced run that failed.
EMPTY_SUMMARY = {"calls": {}, "self_s": {}, "counts": {},
                 "phi_cache": {"hits": 0, "misses": 0}}


def summarize(tracer, caches, wall_s, exit_code):
    hits = sum(c.cache_info().hits for c in caches)
    misses = sum(c.cache_info().misses for c in caches)
    return {
        "run": tracer.run_id,
        "exit_code": exit_code,
        "wall_s": wall_s,
        "calls": dict(tracer.calls),
        "self_s": dict(tracer.self_s),
        "counts": dict(tracer.counts),
        "phi_cache": {"hits": hits, "misses": misses},
        "spans_recorded": min(tracer.next_id, MAX_SPANS),
        "spans_total": tracer.next_id,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary):
    """The per-layer metric values (name -> number) of one traced run."""
    calls = Counter(summary["calls"])
    self_s = defaultdict(float, summary["self_s"])
    counts = Counter(summary["counts"])
    out = {}
    for name in ("scalars.mul", "scalars.add", "multilinear.op_apply",
                 "multilinear.mul", "multilinear.add", "multilinear.scale",
                 "weil.omega", "forms.run_identity", "enumeration.shell_vectors",
                 "enumeration.exact_ldl", "theta.enumerate_representations",
                 "theta.moment_tensor", "schur.young_apply_vec",
                 "schur.harmonic_project_vec", "schur.harmonic_complement",
                 "linalg.rank", "linalg.inverse", "linalg.matmul"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out["theta.series_betas.self_s"] = self_s["theta.series_betas"]
    out["cli.emit.self_s"] = self_s["cli.emit"]
    for counter in ("multilinear.op_apply.terms_out", "forms.cases",
                    "enumeration.shell_vectors.vectors",
                    "theta.enumerate_representations.reps",
                    "theta.series_betas.betas", "theta.moment_tensor.nnz",
                    "schur.young_apply_vec.nnz_out",
                    "schur.harmonic_project_vec.nnz_in",
                    "schur.harmonic_project_vec.nnz_out"):
        out[counter] = counts[counter]
    out["scalars.mul.useful_frac"] = _ratio(counts["scalars.mul.useful"],
                                            16 * counts["scalars.mul.pairs"])
    cache = summary["phi_cache"]
    out["forms.phi_cache.hit_frac"] = _ratio(cache["hits"],
                                             cache["hits"] + cache["misses"])
    out["theta.shell.hit_frac"] = (1.0 - _ratio(calls["enumeration.shell_vectors"],
                                                calls["theta.shell"])
                                   if calls["theta.shell"] else 0.0)
    out["schur.harmonic_complement.repeat_frac"] = _ratio(
        counts["schur.harmonic_complement.repeats"], calls["schur.harmonic_complement"])
    for identity in IDENTITY_NAMES:
        out[f"forms.identity.{identity}.s"] = counts[f"forms.identity.{identity}.s"]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                     if k.startswith(layer + "."))
    return out


# forms.IDENTITIES, spelled out so the metric names do not depend on an import.
IDENTITY_NAMES = ("closedness", "kprime", "recursion", "lem3a", "prop3a",
                  "lowering", "psi_base", "psi_consistency", "lemma4a",
                  "lemma4b", "equivariance", "sigma_gl", "holomorphicity")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSONL file to append spans to")
    parser.add_argument("--summary", required=True, help="JSON file for the counters")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.run_id)
    cli, caches = install(tracer)
    start = time.perf_counter()
    code = cli.main(cli_args)
    wall_s = time.perf_counter() - start
    sys.stdout.flush()
    tracer.write_spans(args.spans)
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump(summarize(tracer, caches, wall_s, code), fh)
    return code


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.exit(main())
