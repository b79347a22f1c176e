"""Exact rational matrix routines."""

import random

import pytest

from fockforms.linalg import RatMat, inverse, rank
from fockforms.scalars import QQ
from oracles import nullspace, solve


def random_matrix(rng, n, m, density=0.7):
    rows = []
    for _ in range(n):
        rows.append([rng.randint(-6, 6) if rng.random() < density else 0
                     for _ in range(m)])
    return RatMat.from_rows(rows)


def test_identity_and_matmul():
    rng = random.Random(1)
    a = random_matrix(rng, 4, 4)
    eye = RatMat.identity(4)
    assert a @ eye == a
    assert eye @ a == a


def test_matmul_associative():
    rng = random.Random(2)
    a = random_matrix(rng, 3, 4)
    b = random_matrix(rng, 4, 2)
    c = random_matrix(rng, 2, 5)
    assert (a @ b) @ c == a @ (b @ c)


def test_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n)
        try:
            ainv = inverse(a)
        except ValueError:
            assert rank(a) < n
            continue
        assert a @ ainv == RatMat.identity(n)
        assert ainv @ a == RatMat.identity(n)


def test_singular_raises():
    a = RatMat.from_rows([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        inverse(a)


def test_rank_of_outer_product():
    # u v^T always has rank one when u, v are nonzero
    u = RatMat.from_rows([[2], [3], [-1]])
    v = RatMat.from_rows([[1, 4, 0, 2]])
    assert rank(u @ v) == 1


def test_solve_consistent():
    a = RatMat.from_rows([[2, 1], [1, 3]])
    rhs = RatMat.from_rows([[5], [10]])
    x = solve(a, rhs)
    assert a @ x == rhs


def test_nullspace_annihilates():
    rng = random.Random(4)
    a = random_matrix(rng, 3, 5)
    basis = nullspace(a)
    assert basis.ncols == 5 - rank(a)
    assert (a @ basis).is_zero()


def test_transpose_involution():
    rng = random.Random(5)
    a = random_matrix(rng, 3, 4)
    assert a.transpose().transpose() == a


def test_fractional_entries():
    a = RatMat.from_rows([[QQ(1, 2), QQ(1, 3)], [QQ(1, 5), QQ(1, 7)]])
    ainv = inverse(a)
    assert a @ ainv == RatMat.identity(2)
