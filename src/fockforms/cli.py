"""Command-line front end: verification grids, dimension tables, theta series.

All output is JSON on stdout.  Exit status: 0 when every check passes, 1 when
some identity or cross-check fails, 2 on malformed input.  Reports carry no
timing so runs are byte-identical across repetition and job counts.

Each subcommand imports only the layers it runs, inside the function that
runs them: `theta` loads numpy and the lattice layers but not the form
layers (`forms`, `weil`, `multilinear`), a count-only `theta` (no
`--lambda`) loads no payload layer, and a payload `theta` loads `schur` but
neither `linalg` nor `scalars`; `dims` loads no coefficient ring (`scalars`);
`verify` loads no `linalg`, since no identity inverts a matrix; `verify`,
`dims` and `intertwine-check` load no numpy; and the process pool is
imported only when more than one worker will start, since start-up is a
large share of a short command.

`run()`, the entry point of `python -m fockforms.cli` and of the `fockforms`
script, switches the cyclic gc off (a run makes only a fixed few cycles, in
argparse and json) and freezes the heap at exit, so the interpreter's final
collections skip it; in-process callers call `main()`, which keeps the gc.
It also sets OPENBLAS_NUM_THREADS to 1 unless the caller set it, before
numpy is imported: no BLAS call of a run is large enough to share, and an
idle OpenBLAS worker thread spins against the main thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys

from fockforms.workers import ordered_map

LIMITS = {"p": 4, "q": 4, "n": 3, "ell": 6}
# theta payloads: the moment kernel and the Brauer product hold dense integer
# arrays of rank ** |lambda| entries, and the Young projector walks their
# nonzero words and up to |lambda|! column permutations
PAYLOAD_DEGREE = 8
PAYLOAD_WORDS = 2 ** 16
# theta work: THETA_GENUS bounds the size of each beta matrix, series_betas
# tests (bound+1)^n (4 bound+1)^(n(n-1)/2) candidate betas at genus n, and the
# shells up to the bound hold at most the theta bound of check_theta_work
THETA_GENUS = 16
THETA_BETAS = 2 ** 16
THETA_POINTS = 2 ** 20
# every representation is an n-tuple of shell points, so P^n bounds the
# tuples the search may visit at genus n when P bounds the points
THETA_TUPLES = 2 ** 27

IDENTITY_ALIASES = {
    "kprime_invariance": "kprime",
    "sigma_gl_invariance": "sigma_gl",
    "holomorphicity_check": "holomorphicity",
}


class InputError(Exception):
    pass


def parse_partition(text):
    if text is None or text == "":
        return ()
    try:
        parts = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"cannot parse partition {text!r}")
    if any(v < 1 for v in parts) or list(parts) != sorted(parts, reverse=True):
        raise InputError("partition parts must be positive and weakly decreasing")
    return parts


def canonical_identity(name):
    from fockforms.forms import IDENTITIES

    name = IDENTITY_ALIASES.get(name, name)
    if name not in IDENTITIES:
        known = sorted(set(IDENTITIES) | set(IDENTITY_ALIASES))
        raise InputError(f"unknown identity {name!r}; known: {', '.join(known)}")
    return name


def _run_cell(cell):
    from fockforms.forms import run_identity

    identity, p, q, n, ell = cell
    return run_identity(identity, p, q, n, ell)


def run_cells(cells, jobs, fail_fast):
    reports = []
    results = ordered_map(_run_cell, cells, jobs)
    for rep in results:
        reports.append(rep)
        if fail_fast and not rep.passed:
            results.close()
            break
    return reports


def cmd_verify(args):
    from fockforms.forms import cell_error, default_grid

    if args.identity:
        identity = canonical_identity(args.identity)
        if args.p is None or args.q is None:
            raise InputError("--identity needs --p and --q")
        p, q, ell = args.p, args.q, args.ell or 0
        n = 1 if args.n is None else args.n
        for key, val in (("p", p), ("q", q), ("n", n)):
            if not 1 <= val <= LIMITS[key]:
                raise InputError(f"--{key} must be in 1..{LIMITS[key]}")
        if not 0 <= ell <= LIMITS["ell"]:
            raise InputError(f"--ell must be in 0..{LIMITS['ell']}")
        error = cell_error(identity, p, n)
        if error:
            raise InputError(error)
        cells = [(identity, p, q, n, ell)]
    else:
        given = [f"--{key}" for key in ("p", "q", "n", "ell")
                 if getattr(args, key) is not None]
        if given:
            raise InputError(f"the default grid takes no {', '.join(given)}; "
                             "name one cell with --identity")
        cells = default_grid()
    reports = run_cells(cells, args.jobs, args.fail_fast)
    rows = [r.to_json() for r in reports]
    doc = {
        "cells": len(rows),
        "failures": sum(not r["passed"] for r in rows),
        "passed": all(r["passed"] for r in rows),
        "reports": rows,
    }
    emit(doc, args.out, "verify",
         [("{identity}_p{p}q{q}n{n}l{ell}".format(**row), row) for row in rows])
    return 0 if doc["passed"] else 1


def dims_row(lam, n):
    from fockforms.linalg import rank
    from fockforms.schur import ssyt_enumerate, young_projector

    mat_rank = rank(young_projector(lam, n)) if sum(lam) else 1
    ssyt = len(ssyt_enumerate(lam, n))
    return {
        "lambda": list(lam),
        "n": n,
        "rank": mat_rank,
        "ssyt": ssyt,
        "match": mat_rank == ssyt,
    }


def cmd_dims(args):
    from fockforms.schur import partitions_of

    if (args.lam is None) != (args.n is None):
        raise InputError("dims takes --lambda and --n together, or neither")
    if args.lam is not None:
        lam = parse_partition(args.lam)
        if sum(lam) > 4 or args.n < 1 or args.n > 3:
            raise InputError("dims table covers |lambda| <= 4, n in 1..3")
        rows = [dims_row(lam, args.n)]
    else:
        shapes = sorted((lam for ell in range(1, 5) for lam in partitions_of(ell)),
                        key=lambda t: (sum(t), len(t), t))
        rows = [dims_row(lam, n) for lam in shapes for n in (1, 2, 3)]
    doc = {"rows": rows, "passed": all(r["match"] for r in rows)}
    emit(doc, args.out, "dims")
    return 0 if doc["passed"] else 1


def cmd_theta(args):
    from fockforms.theta import Lattice, series_table

    try:
        lat = Lattice.load(args.lattice)
    except (OSError, ValueError, KeyError, RecursionError) as exc:
        raise InputError(f"cannot load lattice: {exc}")
    lam = parse_partition(args.lam)
    if args.genus < 1 or args.bound < 0:
        raise InputError("--genus must be >= 1 and --bound >= 0")
    if lat.coset_h is not None and len(lat.coset_h) != args.genus:
        raise InputError(f"the lattice coset has {len(lat.coset_h)} shift "
                         f"vectors but --genus is {args.genus}")
    if lam and len(lam) > args.genus:
        raise InputError("partition has more rows than the genus")
    if lam and (sum(lam) > PAYLOAD_DEGREE or lat.rank ** sum(lam) > PAYLOAD_WORDS):
        raise InputError(f"payload needs |lambda| <= {PAYLOAD_DEGREE} and "
                         f"rank ** |lambda| <= {PAYLOAD_WORDS}")
    check_theta_work(lat, args.genus, args.bound)
    try:
        rows = series_table(lat, lam=lam, n=args.genus, bound=args.bound,
                            jobs=args.jobs)
    except OverflowError as exc:  # the basis as given is too skewed for the shells
        raise InputError(f"cannot enumerate the lattice in this basis: {exc}")
    doc = {
        "genus": args.genus,
        "lambda": list(lam),
        "bound": args.bound,
        "rows": [r.to_json() for r in rows],
    }
    emit(doc, args.out, "theta")
    return 0


def check_theta_work(lat, n, bound):
    """Refuse a genus and bound whose beta list, shells or representation
    tuples would be too large.

    For every t > 0, #{x : (x, x) <= 2 bound} <= e^{2 t bound} prod_i
    theta(t d_i), with d_i the exact LDL diagonal of the gram and
    theta(a) = sum_k e^{-a k^2}: weigh each x by e^{t (2 bound - (x, x))} and
    sum out one coordinate at a time, since a shifted theta sum is largest
    unshifted.  The float bound is rounded up: it decides a refusal and never
    an output.
    """
    if n > THETA_GENUS:
        raise InputError(f"--genus must be <= {THETA_GENUS}")
    betas = (bound + 1) ** n * (4 * bound + 1) ** (n * (n - 1) // 2)
    if betas > THETA_BETAS:
        raise InputError(f"--genus {n} --bound {bound} allows up to {betas} "
                         f"beta matrices; the cap is 2^16")
    if bound == 0:
        return
    from fockforms.enumeration import _ldl

    # the doubled gram's LDL is the one the shells share, and D(2G) = 2 D(G).
    # clamping d_i into [2^-900, 2^900] changes no refusal: lowering a d_i
    # only raises the bound, and theta(a) >= sqrt(pi / a) puts the bound
    # above 2^450 whenever some d_i <= 2^-900
    diag = [float(min(max(d / 2, 2.0 ** -900), 2.0 ** 900))
            for d in _ldl(lat.gram2_rows, 1)[1]]
    log_points = _log_points(diag, bound)
    if log_points > math.log(THETA_POINTS):
        raise InputError(f"the shells up to --bound {bound} may hold "
                         f"2^{log_points / math.log(2):.1f} lattice vectors; "
                         f"the cap is 2^20")
    if n * log_points > math.log(THETA_TUPLES):
        raise InputError(f"--genus {n} --bound {bound} may visit "
                         f"2^{n * log_points / math.log(2):.1f} representation "
                         f"tuples; the cap is 2^27")


def _log_points(diag, bound):
    """The least log of check_theta_work's bound over 161 values of t, which
    bracket len(diag) / (4 bound), the minimiser for small t d_i, by 2^10,
    plus 1e-6 for rounding.  For log theta(a), below pi Jacobi's theta(a) =
    sqrt(pi / a) theta(pi^2 / a) moves a to b >= pi, where the terms |k| >= 3
    sum to at most 2 e^{-9b} / (1 - e^{-7b}), as k^2 >= 9 + 7 (k - 3)."""
    import numpy as np

    t = len(diag) / (4 * bound) * 2.0 ** (np.arange(-80, 81) / 8)
    a = np.multiply.outer(t, diag)
    small = a < np.pi
    b = np.where(small, np.pi ** 2 / a, a)
    tail = np.exp(-9 * b) / -np.expm1(-7 * b)
    log_theta = (np.where(small, 0.5 * np.log(np.pi / a), 0.0)
                 + np.log1p(2 * (np.exp(-b) + np.exp(-4 * b) + tail)))
    return 1e-6 + float(np.min(2 * t * bound + log_theta.sum(axis=1)))


def cmd_intertwine(args):
    from fockforms.multilinear import MixedForm, SpaceParams
    from fockforms.forms import phi_nq0
    from fockforms.weil import polarized_top_operator

    rows = []
    for (p, q, n) in ((1, 1, 1), (2, 1, 1), (2, 1, 2)):
        params = SpaceParams(p, q, n)
        built = polarized_top_operator(params)(MixedForm.vacuum(params))
        target = phi_nq0(params)
        residual = built - target
        rows.append({
            "p": p, "q": q, "n": n,
            "passed": residual.is_zero(),
            "residual_terms": len(residual.terms),
        })
    doc = {"rows": rows, "passed": all(r["passed"] for r in rows)}
    emit(doc, args.out, "intertwine-check")
    return 0 if doc["passed"] else 1


def _json_text(doc):
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def emit(doc, out_dir, name, files=()):
    """Print doc.  With --out, first write it to <name>.json there, and each
    (file name, document) of files to its own file, so a file that cannot
    be written exits 2 with an empty stdout."""
    text = _json_text(doc)
    if out_dir:
        for file_name, file_text in [(name, text)] + [(n, _json_text(d)) for n, d in files]:
            try:
                with open(os.path.join(out_dir, f"{file_name}.json"), "w",
                          encoding="utf-8") as fh:
                    fh.write(file_text)
            except OSError as exc:
                raise InputError(f"cannot write --out file: {exc}")
    sys.stdout.write(text)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fockforms",
        description="exact verification grids, dimension tables, theta series",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    ver = sub.add_parser("verify", help="run identity checks")
    ver.add_argument("--identity", help="single identity name")
    ver.add_argument("--p", type=int)
    ver.add_argument("--q", type=int)
    ver.add_argument("--n", type=int)
    ver.add_argument("--ell", type=int)
    ver.add_argument("--jobs", type=int, default=1)
    ver.add_argument("--fail-fast", action="store_true")
    ver.add_argument("--out", help="directory for per-cell report files")
    ver.set_defaults(fn=cmd_verify)

    dims = sub.add_parser("dims", help="projector rank vs filling counts")
    dims.add_argument("--lambda", dest="lam", help='partition, e.g. "2,1"')
    dims.add_argument("--n", type=int, help="alphabet size")
    dims.add_argument("--out")
    dims.set_defaults(fn=cmd_dims)

    theta = sub.add_parser("theta", help="Fourier coefficient tables")
    theta.add_argument("--lattice", required=True, help="lattice JSON file")
    theta.add_argument("--genus", type=int, default=1)
    theta.add_argument("--lambda", dest="lam", default="",
                       help='payload partition, e.g. "2,1"')
    theta.add_argument("--bound", type=int, default=0)
    theta.add_argument("--jobs", type=int, default=1)
    theta.add_argument("--out")
    theta.set_defaults(fn=cmd_theta)

    inter = sub.add_parser("intertwine-check",
                           help="operator-word consistency for the top form")
    inter.add_argument("--out")
    inter.set_defaults(fn=cmd_intertwine)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        print(json.dumps({"error": "--jobs must be >= 1"}), file=sys.stderr)
        return 2
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(json.dumps({"error": f"cannot make --out directory: {exc}"}),
                  file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    except InputError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


def run():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
