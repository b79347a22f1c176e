"""Young symmetrizers, semistandard counting, harmonic projection."""

import functools
import itertools
import os
import pathlib
import random
import subprocess
import sys

import pytest

from fockforms.linalg import RatMat, inverse, rank
from fockforms.schur import (
    _signed_column_group,
    _sort_with_sign,
    all_words,
    harmonic_apply_vec,
    hook_content_count,
    omega_eigenvalues,
    partitions_of,
    ssyt_enumerate,
    word_index,
    young_apply_vec,
    young_projector,
)
from fockforms.scalars import QQ, Scalar
from oracles import contraction_matrix, harmonic_complement, harmonic_project_vec, insertion_matrix


@pytest.mark.parametrize("call", [
    "schur.assert_traceless({(1, 1): 1}, [[1]], 2)",
    "schur.hook_product = lambda lam: 7; schur.hook_content_count((2,), 2)",
], ids=["traceless", "hook-content"])
def test_exit_checks_raise_under_python_O(call):
    """The exit checks raise ArithmeticError, not assert, so python -O, which
    strips asserts, still stops on a trace left by the Brauer product or on a
    hook product that does not divide."""
    src = pathlib.Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", f"from fockforms import schur; {call}"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and "ArithmeticError" in proc.stderr, proc.stderr


def test_partitions():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(1) == [(1,)]


def _omega_eigenvalues_box_scan(lam, n):
    """Oracle: every mu in the box of lam, kept when weakly decreasing with
    |lam| - |mu| even and at least 2."""
    content = lambda shape: sum(j - i for i, part in enumerate(shape) for j in range(part))
    values = set()
    for mu in itertools.product(*(range(part + 1) for part in lam)):
        removed = sum(lam) - sum(mu)
        if removed < 2 or removed % 2 or any(a < b for a, b in zip(mu, mu[1:])):
            continue
        c = content(lam) - content(mu) + removed // 2 * (n - 1)
        if c > 0:
            values.add(c)
    return sorted(values)


def test_omega_eigenvalues_match_box_scan():
    for ell in range(9):
        for lam in partitions_of(ell):
            for n in range(1, 17):
                assert omega_eigenvalues(lam, n) == _omega_eigenvalues_box_scan(lam, n), (lam, n)


def test_omega_eigenvalues_values():
    # (2): c = n; (1, 1): c = n - 2, absent while not positive; (3): the copy
    # g (x) [1] has c = 3 - 0 + (n - 1) = n + 2
    assert omega_eigenvalues((2,), 4) == [4]
    assert omega_eigenvalues((1, 1), 2) == []
    assert omega_eigenvalues((1, 1), 5) == [3]
    assert omega_eigenvalues((3,), 8) == [10]
    assert omega_eigenvalues((1,), 8) == omega_eigenvalues((), 8) == []


def _inversion_sign(seq):
    inversions = sum(a > b for a, b in itertools.combinations(seq, 2))
    return -1 if inversions % 2 else 1


def test_sort_with_sign_is_inversion_parity():
    for ell in range(7):
        for perm in itertools.permutations(range(1, ell + 1)):
            assert _sort_with_sign(perm) == (_inversion_sign(perm), tuple(range(1, ell + 1)))


def test_sort_with_sign_rejects_repeats():
    for ell in range(2, 5):
        for seq in itertools.product(range(3), repeat=ell):
            if len(set(seq)) < ell:
                assert _sort_with_sign(seq) is None, seq


@pytest.mark.parametrize("ell", range(7))
def test_signed_column_group_matches_brute_force(ell):
    """Oracle: the permutations of 1..ell that keep the column of every slot of
    the row-major tableau, each signed by its inversion count."""
    for lam in partitions_of(ell):
        column = [j for part in lam for j in range(part)]
        expected = sorted(
            (_inversion_sign(perm), perm)
            for perm in itertools.permutations(range(1, ell + 1))
            if all(column[dst - 1] == column[src] for src, dst in enumerate(perm)))
        assert sorted(_signed_column_group(lam)) == expected, lam


@pytest.mark.parametrize("lam,n", [
    ((1,), 3), ((2,), 2), ((1, 1), 3), ((2, 1), 3),
    ((3,), 2), ((2, 2), 3), ((2, 1, 1), 4), ((4,), 3),
])
def test_hook_content_matches_enumeration(lam, n):
    """Two independent counts of the same dimension."""
    assert hook_content_count(lam, n) == len(ssyt_enumerate(lam, n))


@pytest.mark.parametrize("lam,n", [((1, 1), 1), ((2, 1, 1), 2), ((3, 1), 1)])
def test_too_many_rows_gives_zero(lam, n):
    assert hook_content_count(lam, n) == 0
    assert ssyt_enumerate(lam, n) == []


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_projector_rank_is_ssyt_count(ell, n):
    for lam in partitions_of(ell):
        proj = young_projector(lam, n)
        assert rank(proj) == hook_content_count(lam, n), (lam, n)


def test_projector_idempotent():
    # with a letter per row the image of a dense random tensor is nonzero, so
    # a wrong normalisation kappa shows as u(u(v)) != u(v)
    rng = random.Random(7)
    for ell in range(1, 6):
        for lam in partitions_of(ell):
            u = young_projector(lam, 2)
            assert u @ u == u, lam
            vec = {w: QQ(rng.randint(-3, 3)) for w in all_words(max(2, len(lam)), ell)}
            once = young_apply_vec(lam, vec)
            assert once and young_apply_vec(lam, once) == once, lam


def test_cancelled_scalar_word_is_dropped():
    """A word whose Scalar value cancels leaves the dict: (1, 1) has no
    antisymmetric part, so the column shape maps it to the empty tensor."""
    assert not Scalar.zero() and Scalar.one()
    assert young_apply_vec((1, 1), {(1, 1): Scalar.one()}) == {}


def test_symmetric_antisymmetric_special_cases():
    # shape (ell) symmetrizes, shape (1,..,1) antisymmetrizes
    sym = young_projector((2,), 2)
    words = all_words(2, 2)
    i01 = words.index((1, 2))
    i10 = words.index((2, 1))
    assert sym.entry(i01, i01) == QQ(1, 2)
    assert sym.entry(i10, i01) == QQ(1, 2)
    alt = young_projector((1, 1), 2)
    assert alt.entry(i01, i01) == QQ(1, 2)
    assert alt.entry(i10, i01) == QQ(-1, 2)


def _signature(m, p):
    return RatMat.diagonal([QQ(1)] * p + [QQ(-1)] * (m - p))


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2)])
@pytest.mark.parametrize("ell", [2, 3, 4])
def test_harmonic_complement_properties(p, q, ell):
    b1 = _signature(p + q, p)
    h = harmonic_complement(b1, ell)
    m = p + q
    dim = m ** ell
    assert h @ h == h
    # self-adjoint for the product form: (B H)^T = B H
    bl = _kron_diag(b1, ell)
    bh = bl @ h
    assert bh.transpose() == bh
    # every pair contraction kills the image
    for i in range(1, ell + 1):
        for j in range(i + 1, ell + 2):
            if j > ell:
                continue
            c = contraction_matrix(b1, ell, i, j)
            assert (c @ h).is_zero(), (i, j)


def _kron_diag(b1, ell):
    m = b1.nrows
    entries = []
    for word in all_words(m, ell):
        v = QQ(1)
        for letter in word:
            v *= b1.entry(letter - 1, letter - 1)
        entries.append(v)
    return RatMat.diagonal(entries)


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2)])
def test_harmonic_commutes_with_young(p, q):
    b1 = _signature(p + q, p)
    for ell in (2, 3):
        h = harmonic_complement(b1, ell)
        for lam in partitions_of(ell):
            u = young_projector(lam, p + q)
            assert h @ u == u @ h, (lam, ell)


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1)])
def test_schur_harmonic_projector_idempotent(p, q):
    b1 = _signature(p + q, p)
    for lam in [(2,), (3,), (2, 1)]:
        pr = harmonic_complement(b1, sum(lam)) @ young_projector(lam, p + q)
        assert pr @ pr == pr, lam


def test_insertion_adjoint_contraction():
    """C(i,j) and E(i,j) are adjoint for the product pairings."""
    b1 = _signature(2, 1)
    ell = 3
    c = contraction_matrix(b1, ell, 1, 2)
    e = insertion_matrix(inverse_diag(b1), ell, 1, 2)
    bl = _kron_diag(b1, ell)
    bs = _kron_diag(b1, ell - 2)
    assert (c.transpose() @ bs) == (bl @ e)


def inverse_diag(b1):
    return RatMat.diagonal([QQ(1) / b1.entry(i, i) for i in range(b1.nrows)])


ORACLE_FORMS = {
    "sig21": _signature(3, 2),
    "nondiag": RatMat.from_rows([[2, 1], [1, 4]]),
    "halfint": RatMat.from_rows([[0, QQ(1, 2)], [QQ(1, 2), 1]]),
}
ORACLE_CASES = [(name, lam) for name in ORACLE_FORMS for ell in range(1, 5)
                for lam in partitions_of(ell)]
ORACLE_CASES += [("nondiag", lam) for ell in (5, 6) for lam in partitions_of(ell)]


@functools.lru_cache(maxsize=None)
def _oracle_complement(name, ell):
    return harmonic_complement(ORACLE_FORMS[name], ell)


@pytest.mark.parametrize("name,lam", ORACLE_CASES,
                         ids=[f"{name}-{','.join(map(str, lam))}"
                              for name, lam in ORACLE_CASES])
def test_harmonic_project_vec_matches_oracle(name, lam):
    """Young then harmonic projection equals the dense oracle composition,
    both as the oracle's dict product and as schur.harmonic_apply_vec."""
    b1 = ORACLE_FORMS[name]
    m, ell = b1.nrows, sum(lam)
    rng = random.Random(f"{name}{lam}")
    words = all_words(m, ell)
    vec = {w: QQ(rng.randint(-4, 4), rng.randint(1, 3)) for w in words}
    oracle = _oracle_complement(name, ell) @ young_projector(lam, m)
    slow = oracle.apply({word_index(w, m): v for w, v in vec.items()})
    want = {words[i]: v for i, v in slow.items()}
    assert harmonic_project_vec(young_apply_vec(lam, vec), b1, lam) == want
    assert harmonic_apply_vec(lam, vec, *_rows_and_dual(b1)) == want


def _rows_and_dual(b1):
    dual = inverse(b1)
    return ([[b1.entry(i, j) for j in range(b1.ncols)] for i in range(b1.nrows)],
            [[dual.entry(i, j) for j in range(dual.ncols)] for i in range(dual.nrows)])


def test_harmonic_apply_vec_is_scalar_linear():
    """On Scalar values, the image of s vec is s times the image of vec, for
    s = i sqrt2 / pi."""
    b1, lam = ORACLE_FORMS["sig21"], (2, 1)
    rows, dual = _rows_and_dual(b1)
    rng = random.Random(5)
    vec = {w: QQ(rng.randint(-4, 4), rng.randint(1, 3)) for w in all_words(b1.nrows, 3)}
    s = Scalar.unit(d=1, pi_exp=-1)
    plain = harmonic_apply_vec(lam, vec, rows, dual)
    assert plain
    got = harmonic_apply_vec(lam, {w: s.scale(v) for w, v in vec.items()}, rows, dual)
    assert got == {w: s.scale(v) for w, v in plain.items()}
