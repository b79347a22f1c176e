"""End-to-end acceptance checks, one test per criterion.

Every check is exact (residuals must cancel to zero, set comparisons are
equalities); each test prints a single pass line with its runtime and
asserts the stated budget.
"""

import contextlib
import itertools
import pathlib
import random
import time

import pytest

from fockforms.forms import (
    DEFAULT_CONVENTIONS,
    default_grid,
    phi_nq0,
    run_identity,
)
from fockforms.enumeration import exact_ldl, shell_vectors
from fockforms.linalg import RatMat, rank
from fockforms.multilinear import MixedForm, SpaceParams
from fockforms.scalars import QQ
from fockforms.schur import (
    all_words,
    hook_content_count,
    partitions_of,
    ssyt_enumerate,
    young_projector,
)
from fockforms.theta import BetaMatrix, Lattice, assemble_coefficient, series_table
from fockforms.weil import polarized_top_operator
from oracles import contraction_matrix, harmonic_complement, shell_vectors_box

GRID = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@contextlib.contextmanager
def budget(label, seconds):
    t0 = time.perf_counter()
    yield
    dt = time.perf_counter() - t0
    print(f"{label}: PASS in {dt:.2f}s (budget {seconds}s)")
    assert dt < seconds, f"{label} exceeded {seconds}s ({dt:.2f}s)"


def check(identity, p, q, n, ell, conv=DEFAULT_CONVENTIONS, cases=None):
    rep = run_identity(identity, p, q, n, ell, conv)
    assert rep.passed, (identity, p, q, n, ell, rep.failed_label, rep.sample)
    if cases is not None:
        assert rep.cases == cases, (identity, p, q, n, ell, rep.cases)
    return rep


def test_criterion_1_closedness():
    with budget("criterion 1 (closedness grid)", 10):
        for (p, q), ell in itertools.product(GRID, range(4)):
            check("closedness", p, q, 1, ell)
        for ell in range(3):
            check("closedness", 2, 1, 2, ell)


def test_criterion_2_unitary_invariance():
    with budget("criterion 2 (unitary invariance grid)", 10):
        for (p, q), ell in itertools.product(GRID, range(4)):
            check("kprime", p, q, 1, ell)
        for ell in range(3):
            check("kprime", 2, 1, 2, ell)


def test_criterion_3_recursion_and_splits():
    with budget("criterion 3 (recursion and intermediate splits)", 20):
        for (p, q), ell in itertools.product(GRID, range(4)):
            check("recursion", p, q, 1, ell, cases=ell if ell else None)
        for (p, q), ell in itertools.product(GRID, (1, 2, 3)):
            check("lem3a", p, q, 1, ell)
            check("prop3a", p, q, 1, ell)


def test_criterion_4_lowering_and_holomorphicity():
    with budget("criterion 4 (lowering and holomorphicity)", 20):
        for (p, q), ell in itertools.product(GRID, range(4)):
            check("lowering", p, q, 1, ell)
        for (p, q) in GRID:
            check("psi_base", p, q, 1, 0)
        for (p, q) in ((2, 1), (2, 2)):
            check("holomorphicity", p, q, 1, 2, cases=2)


def test_criterion_5_mutation_sensitivity():
    mutants = {
        "d_second_rat": DEFAULT_CONVENTIONS._replace(d_second_rat=QQ(1, 2)),
        "lambda_offset": DEFAULT_CONVENTIONS._replace(lambda_offset=0),
        "sigma_negative_sign": DEFAULT_CONVENTIONS._replace(sigma_negative_sign=1),
        "metric_sign": DEFAULT_CONVENTIONS._replace(metric_sign=1),
        "kprime_weight": DEFAULT_CONVENTIONS._replace(kprime_weight=QQ(2)),
    }
    probes = [
        ("closedness", 2, 1, 1, 2), ("kprime", 2, 1, 1, 2),
        ("recursion", 2, 1, 1, 2), ("recursion", 2, 2, 1, 2),
        ("lem3a", 2, 1, 1, 2), ("prop3a", 2, 1, 1, 2),
        ("lowering", 2, 1, 1, 2), ("psi_base", 2, 1, 1, 0),
        ("holomorphicity", 2, 1, 1, 2),
    ]
    with budget("criterion 5 (mutation sensitivity)", 30):
        for name, conv in mutants.items():
            broken = [cell for cell in probes
                      if not run_identity(*cell, conv=conv).passed]
            assert broken, f"mutant {name} slipped through every probe"


def _signature(m, p):
    return RatMat.diagonal([QQ(1)] * p + [QQ(-1)] * (m - p))


def _kron_diag(b1, ell):
    m = b1.nrows
    return RatMat.diagonal([
        QQ(int(1))
        * _prod(b1.entry(letter - 1, letter - 1) for letter in word)
        for word in all_words(m, ell)
    ])


def _prod(vals):
    out = QQ(1)
    for v in vals:
        out *= v
    return out


def test_criterion_6_representation_theory():
    with budget("criterion 6 (projector ranks and harmonic complement)", 30):
        for n in (1, 2, 3):
            for ell in range(1, 5):
                for lam in partitions_of(ell):
                    counted = len(ssyt_enumerate(lam, n))
                    assert counted == hook_content_count(lam, n)
                    assert rank(young_projector(lam, n)) == counted
        for (p, q) in ((1, 1), (2, 1), (2, 2)):
            b1 = _signature(p + q, p)
            for ell in (2, 3, 4):
                h = harmonic_complement(b1, ell)
                assert h @ h == h
                bh = _kron_diag(b1, ell) @ h
                assert bh.transpose() == bh
                for i in range(1, ell + 1):
                    for j in range(i + 1, ell + 1):
                        assert (contraction_matrix(b1, ell, i, j) @ h).is_zero()
                if ell <= 3:
                    for lam in partitions_of(ell):
                        u = young_projector(lam, p + q)
                        assert h @ u == u @ h


def _random_pd_gram(rng, m):
    while True:
        a = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
        g = [[sum(a[k][i] * a[k][j] for k in range(m)) for j in range(m)]
             for i in range(m)]
        if all(g[i][i] > 0 for i in range(m)) \
                and max(abs(v) for row in g for v in row) <= 4:
            mat = RatMat.from_rows([[QQ(v) for v in row] for row in g])
            try:
                exact_ldl(mat)
            except ValueError:
                continue
            return mat


def test_criterion_7_enumeration_oracle():
    rng = random.Random(20260818)
    with budget("criterion 7 (enumerator vs box oracle)", 30):
        for _ in range(20):
            mat = _random_pd_gram(rng, rng.randint(1, 4))
            for target in range(7):
                fast = shell_vectors(mat, target)
                box = shell_vectors_box(mat, target)
                assert fast.shape == box.shape and (fast == box).all()


def test_criterion_8_theta_sanity():
    with budget("criterion 8 (theta counts and harmonic payloads)", 60):
        z4 = Lattice.load(FIXTURES / "z4.json")
        rows = series_table(z4, lam=(), n=1, bound=3)
        assert [r.count for r in rows] == [1, 24, 24, 96]
        for r in rows:
            want = 2 * r.beta.entry(0, 0)
            radius = 3
            brute = sum(
                1 for x in itertools.product(range(-radius, radius + 1), repeat=4)
                if sum(v * v for v in x) == want)
            assert r.count == brute
        e8 = Lattice.load(FIXTURES / "e8.json")
        assert assemble_coefficient(e8, BetaMatrix.diagonal([1])).count == 240
        for lam in ((2,), (4,)):
            for b in range(6):
                c = assemble_coefficient(e8, BetaMatrix.diagonal([b]), lam=lam)
                assert all(v == {} for v in c.payload.values()), (lam, b)


def test_criterion_9_intertwiner_consistency():
    with budget("criterion 9 (operator-word intertwiner)", 5):
        for (p, q, n) in ((1, 1, 1), (2, 1, 1), (2, 1, 2)):
            params = SpaceParams(p, q, n)
            built = polarized_top_operator(params)(MixedForm.vacuum(params))
            assert (built - phi_nq0(params)).is_zero(), (p, q, n)


def test_default_grid_covers_criteria():
    cells = default_grid()
    names = {c[0] for c in cells}
    assert {"closedness", "kprime", "recursion", "lem3a", "prop3a",
            "lowering", "psi_base", "holomorphicity"} <= names
    assert all(run_identity(*c).passed for c in random.Random(3).sample(cells, 8))
