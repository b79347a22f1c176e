import itertools
import math
import random
import time

import numpy as np
import pytest

from fockforms import enumeration
from fockforms.enumeration import _box_radii, adjugate, exact_ldl, shell_vectors
from fockforms.linalg import RatMat, inverse
from fockforms.scalars import QQ
from fockforms.theta import Lattice
from oracles import inverse_radii, shell_vectors_box


def random_pd_gram(rng, m):
    # A^T A with small entries; resample until every entry is at most 4
    while True:
        a = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
        g = [[sum(a[k][i] * a[k][j] for k in range(m)) for j in range(m)]
             for i in range(m)]
        if all(g[i][i] > 0 for i in range(m)) \
                and max(abs(v) for row in g for v in row) <= 4:
            try:
                exact_ldl(RatMat.from_rows([[QQ(v) for v in row] for row in g]))
            except ValueError:
                continue
            return g


def test_ldl_reconstructs():
    rng = random.Random(7)
    for _ in range(10):
        g = random_pd_gram(rng, rng.randint(1, 4))
        m = len(g)
        mat = RatMat.from_rows([[QQ(v) for v in row] for row in g])
        lower, diag = exact_ldl(mat)
        for i in range(m):
            assert diag[i] > 0
            for j in range(m):
                v = sum(lower[i][s] * diag[s] * lower[j][s] for s in range(m))
                assert v == mat.entry(i, j)


def test_ldl_reconstructs_non_integral():
    # (g + diag g) / 2 keeps the diagonal of g and halves the rest
    rng = random.Random(11)
    grams = [[[QQ(1), QQ(1, 2)], [QQ(1, 2), QQ(1)]],
             [[QQ(1, 2), QQ(1, 3)], [QQ(1, 3), QQ(1)]]]
    for _ in range(10):
        g = random_pd_gram(rng, rng.randint(2, 4))
        grams.append([[QQ(v) if i == j else QQ(v, 2) for j, v in enumerate(row)]
                      for i, row in enumerate(g)])
    for g in grams:
        m = len(g)
        lower, diag = exact_ldl(RatMat.from_rows(g))
        for i in range(m):
            assert diag[i] > 0 and lower[i][i] == 1
            for j in range(m):
                assert sum(lower[i][s] * diag[s] * lower[j][s]
                           for s in range(m)) == g[i][j]
                assert j <= i or lower[i][j] == 0
    assert any(v.denominator != 1 for g in grams[2:] for row in g for v in row)


@pytest.mark.parametrize("rows", [
    [[1, 2], [2, 1]],
    [[0, 0], [0, 1]],
    [[-1]],
    [[2, 2], [2, 2]],
])
def test_ldl_rejects_non_definite(rows):
    mat = RatMat.from_rows([[QQ(v) for v in row] for row in rows])
    with pytest.raises(ValueError):
        exact_ldl(mat)


@pytest.mark.parametrize("seed", range(20))
def test_fp_matches_box(seed):
    rng = random.Random(1000 + seed)
    g = random_pd_gram(rng, rng.randint(1, 4))
    mat = RatMat.from_rows([[QQ(v) for v in row] for row in g])
    for target in range(7):
        fast = shell_vectors(mat, target)
        box = shell_vectors_box(mat, target)
        assert fast.shape == box.shape
        assert (fast == box).all()


def test_rows_sorted_and_closed_under_negation():
    mat = RatMat.from_rows([[QQ(v) for v in row]
                            for row in [[2, -1], [-1, 2]]])
    rows = shell_vectors(mat, 6)
    as_tuples = [tuple(r) for r in rows]
    assert as_tuples == sorted(as_tuples)
    assert set(as_tuples) == {tuple(-v for v in r) for r in as_tuples}


def test_skewed_form_regression():
    # near-degenerate direction: the solution (5, -3) sits far outside the
    # smallest-pivot ball but inside the dual-diagonal box
    mat = RatMat.from_rows([[QQ(2), QQ(3)], [QQ(3), QQ(5)]])
    hits = {tuple(r) for r in shell_vectors(mat, 5)}
    assert (5, -3) in hits and (-5, 3) in hits
    box = {tuple(r) for r in shell_vectors_box(mat, 5)}
    assert hits == box


def test_e8_shell_sizes():
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 4
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]:
        g[a][b] = g[b][a] = -2
    mat = RatMat.from_rows([[QQ(v) for v in row] for row in g])
    sizes = [shell_vectors(mat, 4 * k).shape[0] for k in range(1, 6)]
    assert sizes == [240, 2160, 6720, 17520, 30240]


def test_negative_target_empty():
    mat = RatMat.from_rows([[QQ(2)]])
    assert shell_vectors(mat, -4).shape == (0, 1)
    assert shell_vectors_box(mat, -4).shape == (0, 1)


def test_zero_target_origin_only():
    mat = RatMat.from_rows([[QQ(v) for v in row] for row in [[2, 1], [1, 2]]])
    rows = shell_vectors(mat, 0)
    assert rows.shape == (1, 2) and (rows == 0).all()


def test_fractional_gram_rejected():
    mat = RatMat.from_rows([[QQ(1), QQ(1, 2)], [QQ(1, 2), QQ(1)]])
    with pytest.raises(ValueError):
        shell_vectors(mat, 2)


def test_int64_overflow_regression():
    # the acceptance arithmetic exceeds int64 here; +-2^16 are the solutions
    mat = RatMat.from_rows([[QQ(2 ** 31)]])
    assert shell_vectors(mat, 2 ** 63).tolist() == [[-65536], [65536]]


def test_last_level_is_solved_not_scanned():
    # about 2^32 candidates at the last level: a scan would hang
    mat = RatMat.from_rows([[QQ(3)]])
    assert shell_vectors(mat, 3 * 2 ** 62).tolist() == [[-2 ** 31], [2 ** 31]]


def test_python_int_fallback_matches_box():
    # entries near 2^40 push the exact check past int64; the box is tiny
    g = [[2 ** 40 + 1, 2 ** 39], [2 ** 39, 2 ** 40]]
    mat = RatMat.from_rows([[QQ(v) for v in row] for row in g])
    x = (3, -5)
    target = sum(g[i][j] * x[i] * x[j] for i in range(2) for j in range(2))
    fast = shell_vectors(mat, target)
    assert x in {tuple(r) for r in fast}
    assert fast.tolist() == shell_vectors_box(mat, target).tolist()


def test_box_radius_covers_cauchy_schwarz():
    # brute check of the dual-diagonal bound on a random form
    rng = random.Random(5)
    g = random_pd_gram(rng, 3)
    mat = RatMat.from_rows([[QQ(v) for v in row] for row in g])
    target = 6
    sols = set()
    for x in itertools.product(range(-12, 13), repeat=3):
        q = sum(g[i][j] * x[i] * x[j] for i in range(3) for j in range(3))
        if q == target:
            sols.add(x)
    assert sols == {tuple(r) for r in shell_vectors(mat, target)}


def dense_gram(rng, m):
    # A^T A + m I: dense, positive definite, entries of all sizes up to ~3m
    a = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
    return [[sum(a[k][i] * a[k][j] for k in range(m)) + m * (i == j)
             for j in range(m)] for i in range(m)]


@pytest.mark.parametrize("seed", range(10))
def test_adjugate_matches_rational_inverse(seed):
    rng = random.Random(2000 + seed)
    g = dense_gram(rng, rng.randint(1, 7)) if seed % 2 else random_pd_gram(rng, rng.randint(1, 4))
    m = len(g)
    mat = RatMat.from_rows([[QQ(2 * v) for v in row] for row in g])
    adj, det = adjugate([[2 * v for v in row] for row in g])
    dual = inverse(mat)
    assert all(QQ(adj[i][j], det) == dual.entry(i, j)
               for i in range(m) for j in range(m))
    for target in (0, 1, 6, 2 * 10 ** 9 + 7):
        assert _box_radii((adj, det), target) == inverse_radii(mat, target)


def test_adjugate_rejects_zero_leading_minor():
    with pytest.raises(ValueError):
        adjugate([[0, 1], [1, 0]])


def _count_adjugates(monkeypatch):
    """The row counts of the adjugates computed from here on."""
    calls = []
    real = enumeration.adjugate

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    enumeration.gram_dual.cache_clear()
    monkeypatch.setattr(enumeration, "adjugate", counted)
    return calls


def test_zero_shell_computes_no_adjugate(monkeypatch):
    calls = _count_adjugates(monkeypatch)
    lat = Lattice(dense_gram(random.Random(65), 12))
    assert lat.shell(0).tolist() == [[0] * 12]
    assert calls == []
    lat.shell(2)
    assert calls == [12]


def test_dense_rank_64_shells_are_fast(monkeypatch):
    """The box radii come from one integer adjugate per gram.  Budget: 3 s
    for two shells of a dense rank-64 gram (the rational Gauss-Jordan inverse
    took over 4 s per shell on a 2-core Xeon)."""
    calls = _count_adjugates(monkeypatch)
    lat = Lattice(dense_gram(random.Random(64), 64))
    start = time.perf_counter()
    shells = [lat.shell(2), lat.shell(4)]
    elapsed = time.perf_counter() - start
    assert calls == [64]
    # every diagonal entry is at least 64, so no vector has norm 4 or 8
    assert [s.shape for s in shells] == [(0, 64), (0, 64)]
    assert elapsed < 3.0, f"{elapsed:.2f} s"


def test_shells_share_one_ldl(monkeypatch):
    """The doubled gram's LDL is computed once per gram, not once per shell
    nor again to validate the lattice, and the shared result cannot be
    changed by a caller."""
    calls = []
    real = enumeration.symmetric_pivots

    def counted(rows):
        calls.append(rows)
        return real(rows)

    enumeration._ldl.cache_clear()
    monkeypatch.setattr(enumeration, "symmetric_pivots", counted)
    # the root lattice A4
    lat = Lattice([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
    shells = [lat.shell(2), lat.shell(4)]
    assert sum(tuple(map(tuple, rows)) == lat.gram2_rows for rows in calls) == 1
    assert len(calls) == 1  # the lattice's validation is that same elimination
    assert [s.tolist() for s in shells] == [
        shell_vectors_box(RatMat.from_rows(lat.gram2_rows), 2 * k).tolist() for k in (2, 4)]
    assert len(shells[0]) == 20
    lower, diag = exact_ldl(RatMat.from_rows(lat.gram2_rows))
    assert isinstance(lower, tuple) and all(isinstance(row, tuple) for row in lower)
    assert isinstance(diag, tuple)


def test_later_shells_reuse_the_prepared_gram(monkeypatch):
    """A lattice's shells are keyed by its integer rows: after the first
    shell, a shell reads no rational entry and converts no pivot to float."""
    calls = []
    real = enumeration.integral_rows

    def counted(gram2):
        calls.append(gram2)
        return real(gram2)

    lat = Lattice(dense_gram(random.Random(66), 10))
    enumeration._float_ldl.cache_clear()
    monkeypatch.setattr(enumeration, "integral_rows", counted)
    lat.shell(2)
    lat.shell(4)
    assert calls == []
    assert enumeration._float_ldl.cache_info().misses == 1


def test_large_leading_pivot_keeps_pruning(monkeypatch):
    """The level-0 margin stays out of the float tolerance, so a huge first
    diagonal entry does not widen the search at the other levels: the rows
    handed to the exact first-level solve do not grow with it."""
    sent = []
    real = enumeration._solve_first

    def spy(fixed, q, G, target):
        sent.append(len(fixed))
        return real(fixed, q, G, target)

    monkeypatch.setattr(enumeration, "_solve_first", spy)
    shells, rows = [], []
    for b in (10 ** 3, 10 ** 18):
        sent.clear()
        g = [[2 * b if i == j == 0 else 2 * (i == j) for j in range(9)]
             for i in range(9)]
        shells.append(shell_vectors(RatMat.from_rows([[QQ(v) for v in row] for row in g]), 16))
        rows.append(sum(sent))
    assert rows[0] == rows[1]
    assert len(shells[0]) == 9328 and (shells[0] == shells[1]).all()
    # and against the box scan on a smaller rank
    g = [[2 * 10 ** 18 if i == j == 0 else 2 * (i == j) for j in range(5)]
         for i in range(5)]
    mat = RatMat.from_rows([[QQ(v) for v in row] for row in g])
    assert shell_vectors(mat, 8).tolist() == shell_vectors_box(mat, 8).tolist()
