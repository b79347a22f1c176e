"""Fock-model action of the metaplectic Lie algebra generators.

Every operator here touches only the polynomial slot of a MixedForm.  The
central character is pinned to 2*pi*i throughout; that choice is baked into
the numerical coefficients below and into the Schroedinger-to-Fock dictionary
at the bottom.

Each generator acts as one fixed quadratic operator, built by its own
function: o_kk and o_p on the orthogonal side (index pairs), omega_kprime,
sp_k, sp_pplus and sp_pminus on the symplectic side (column pairs), and
lowering, the antiholomorphic tangent direction at n = 1.  The identity
suite reads omega_kprime and lowering on every case, so those two are built
once per argument tuple.
"""

from __future__ import annotations

import functools

from fockforms.multilinear import compose, identity_op, op_sum, wedge_left, z_del, z_mul
from fockforms.rational import QQ
from fockforms.scalars import Scalar


def _check_columns(params, j, k, name):
    if not (1 <= j <= params.n and 1 <= k <= params.n):
        raise ValueError(f"{name} wants column indices")


def o_kk(params, a, b):
    """The compact so(p) generator on the positive indices a, b."""
    if not (1 <= a <= params.p and 1 <= b <= params.p):
        raise ValueError("o_kk wants two positive indices")
    cols = range(1, params.n + 1)
    return op_sum([(Scalar.from_rational(-1), z_mul(a, j) @ z_del(b, j)) for j in cols]
                  + [(Scalar.one(), z_mul(b, j) @ z_del(a, j)) for j in cols])


def o_p(params, a, mu):
    """The noncompact generator on the positive index a and the negative mu."""
    if not (1 <= a <= params.p < mu <= params.m):
        raise ValueError("o_p wants a positive then a negative index")
    cols = range(1, params.n + 1)
    return op_sum([(Scalar.from_rational(-4, pi_exp=1), z_del(a, j) @ z_del(mu, j)) for j in cols]
                  + [(Scalar.from_rational(QQ(1, 4), pi_exp=-1), z_mul(a, j) @ z_mul(mu, j))
                     for j in cols])


@functools.lru_cache(maxsize=None)
def omega_kprime(params, j, k):
    """(1/2i) w'_j o w''_k: the endomorphism eps_j -> eps_k plus (p-q)/2 on the
    diagonal, realized on the Fock slot."""
    _check_columns(params, j, k, "omega_kprime")
    pieces = [(1, z_mul(a, k) @ z_del(a, j)) for a in params.positive()]
    pieces += [(-1, z_mul(mu, j) @ z_del(mu, k)) for mu in params.negative()]
    if j == k:
        pieces.append((QQ(params.p - params.q, 2), identity_op()))
    return op_sum(pieces)


def sp_k(params, j, k):
    """w'_j o w''_k, which is 2i omega_kprime."""
    return op_sum([(Scalar.unit(b=2), omega_kprime(params, j, k))])


def sp_pplus(params, j, k):
    """w''_j o w''_k."""
    _check_columns(params, j, k, "sp_pplus")
    return op_sum([(Scalar.unit(b=QQ(-1, 2), pi_exp=-1), z_mul(a, j) @ z_mul(a, k))
                   for a in params.positive()]
                  + [(Scalar.unit(b=8, pi_exp=1), z_del(mu, j) @ z_del(mu, k))
                     for mu in params.negative()])


def sp_pminus(params, j, k):
    """w'_j o w'_k."""
    _check_columns(params, j, k, "sp_pminus")
    return op_sum([(Scalar.unit(b=-8, pi_exp=1), z_del(a, j) @ z_del(a, k))
                   for a in params.positive()]
                  + [(Scalar.unit(b=QQ(1, 2), pi_exp=-1), z_mul(mu, j) @ z_mul(mu, k))
                     for mu in params.negative()])


@functools.lru_cache(maxsize=None)
def lowering(params):
    """(i/4) w'_1 o w'_1, the antiholomorphic tangent direction."""
    if params.n != 1:
        raise ValueError("lowering operator needs n = 1")
    return op_sum([(Scalar.from_rational(2, pi_exp=1), z_del(a, 1) @ z_del(a, 1))
                   for a in params.positive()]
                  + [(Scalar.from_rational(QQ(-1, 8), pi_exp=-1), z_mul(mu, 1) @ z_mul(mu, 1))
                     for mu in params.negative()])


def gl_bracket(j, k, l, m):
    """[E_{jk}, E_{lm}] for E_{jk}: eps_j -> eps_k, as a list of (coeff, (a,b))."""
    out = []
    if j == m:
        out.append((1, (l, k)))
    if k == l:
        out.append((-1, (j, m)))
    return out


# Schroedinger dictionary: each (x +- (1/2pi) d/dx) factor moved through the
# model identification; factors compose with @, the right one applying first.

def x_minus_d(params, index, column):
    """-i/(2 pi) z on a positive index, i/(2 pi) z on a negative one."""
    sign = -1 if index <= params.p else 1
    return op_sum([(Scalar.unit(b=QQ(sign, 2), pi_exp=-1), z_mul(index, column))])


def x_plus_d(params, index, column):
    """2i d/dz on a positive index, -2i d/dz on a negative one."""
    sign = 1 if index <= params.p else -1
    return op_sum([(Scalar.unit(b=2 * sign), z_del(index, column))])


def polarized_top_operator(params):
    """Product of polarized coordinate factors sum_a (x - (1/2pi)d) A(w_{a,mu})
    over all columns and negative indices, normalized by 2^{-nq/2}.

    Applied to the vacuum this must reproduce the degree-zero Schwartz form;
    the check exercises the whole Schroedinger dictionary at once.
    """
    factors = []
    for i in range(1, params.n + 1):
        for mu in params.negative():
            pieces = [(Scalar.one(), wedge_left(a, mu) @ x_minus_d(params, a, i))
                      for a in params.positive()]
            factors.append(op_sum(pieces))
    norm = Scalar.two_pow_half(params.n * params.q).monomial_inverse()
    return op_sum([(norm, compose(factors))])
