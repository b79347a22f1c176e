"""Fock-model action of the metaplectic Lie algebra generators.

Every operator here touches only the polynomial slot of a MixedForm.  The
central character is pinned to 2*pi*i throughout; that choice is baked into
the numerical coefficients below and into the Schroedinger-to-Fock dictionary
at the bottom.

Generator tags:
  O_KK(a, b)       compact so(p) part, positive indices
  O_KK_NEG(mu, nu) compact so(q) part, negative indices
  O_P(a, mu)       noncompact part, one index of each kind
  SP_K(j, k)       w'_j o w''_k, the unitary-group side, column indices
  SP_PPLUS(j, k)   w''_j o w''_k
  SP_PMINUS(j, k)  w'_j o w'_k
  LOWERING         the antiholomorphic tangent direction, n = 1 only
"""

from __future__ import annotations

from dataclasses import dataclass

from fockforms.multilinear import compose, identity_op, op_sum, wedge_left, z_del, z_mul
from fockforms.scalars import QQ, Scalar


@dataclass(frozen=True)
class LieGenerator:
    tag: str
    i1: int = 0
    i2: int = 0


def O_KK(a, b):
    return LieGenerator("O_KK", a, b)


def O_KK_NEG(mu, nu):
    return LieGenerator("O_KK_NEG", mu, nu)


def O_P(a, mu):
    return LieGenerator("O_P", a, mu)


def SP_K(j, k):
    return LieGenerator("SP_K", j, k)


def SP_PPLUS(j, k):
    return LieGenerator("SP_PPLUS", j, k)


def SP_PMINUS(j, k):
    return LieGenerator("SP_PMINUS", j, k)


LOWERING = LieGenerator("LOWERING")


def omega(gen, params):
    """The cited generator as an operator on the Fock slot."""
    p, q, n = params.p, params.q, params.n
    tag = gen.tag
    if tag == "O_KK":
        a, b = gen.i1, gen.i2
        if not (1 <= a <= p and 1 <= b <= p):
            raise ValueError("O_KK wants two positive indices")
        return op_sum(
            [(Scalar.from_rational(-1), z_mul(a, j) @ z_del(b, j)) for j in range(1, n + 1)]
            + [(Scalar.one(), z_mul(b, j) @ z_del(a, j)) for j in range(1, n + 1)]
        )
    if tag == "O_KK_NEG":
        mu, nu = gen.i1, gen.i2
        if not (p < mu <= p + q and p < nu <= p + q):
            raise ValueError("O_KK_NEG wants two negative indices")
        return op_sum(
            [(Scalar.one(), z_mul(mu, j) @ z_del(nu, j)) for j in range(1, n + 1)]
            + [(Scalar.from_rational(-1), z_mul(nu, j) @ z_del(mu, j)) for j in range(1, n + 1)]
        )
    if tag == "O_P":
        a, mu = gen.i1, gen.i2
        if not (1 <= a <= p and p < mu <= p + q):
            raise ValueError("O_P wants a positive then a negative index")
        return op_sum(
            [(Scalar.from_rational(-4, pi_exp=1), z_del(a, j) @ z_del(mu, j)) for j in range(1, n + 1)]
            + [(Scalar.from_rational(QQ(1, 4), pi_exp=-1), z_mul(a, j) @ z_mul(mu, j)) for j in range(1, n + 1)]
        )
    if tag == "SP_K":
        j, k = gen.i1, gen.i2
        if not (1 <= j <= n and 1 <= k <= n):
            raise ValueError("SP_K wants column indices")
        two_i = Scalar.unit(b=2)
        pieces = [(two_i, z_mul(a, k) @ z_del(a, j)) for a in range(1, p + 1)]
        pieces += [(Scalar.unit(b=-2), z_mul(mu, j) @ z_del(mu, k)) for mu in range(p + 1, p + q + 1)]
        if j == k:
            pieces.append((Scalar.unit(b=p - q), identity_op()))
        return op_sum(pieces)
    if tag == "SP_PPLUS":
        j, k = gen.i1, gen.i2
        return op_sum(
            [(Scalar.unit(b=QQ(-1, 2), pi_exp=-1), z_mul(a, j) @ z_mul(a, k)) for a in range(1, p + 1)]
            + [(Scalar.unit(b=8, pi_exp=1), z_del(mu, j) @ z_del(mu, k)) for mu in range(p + 1, p + q + 1)]
        )
    if tag == "SP_PMINUS":
        j, k = gen.i1, gen.i2
        return op_sum(
            [(Scalar.unit(b=-8, pi_exp=1), z_del(a, j) @ z_del(a, k)) for a in range(1, p + 1)]
            + [(Scalar.unit(b=QQ(1, 2), pi_exp=-1), z_mul(mu, j) @ z_mul(mu, k)) for mu in range(p + 1, p + q + 1)]
        )
    if tag == "LOWERING":
        if n != 1:
            raise ValueError("lowering operator needs n = 1")
        # (i/4) w'_1 o w'_1
        return op_sum(
            [(Scalar.from_rational(2, pi_exp=1), z_del(a, 1) @ z_del(a, 1)) for a in range(1, p + 1)]
            + [(Scalar.from_rational(QQ(-1, 8), pi_exp=-1), z_mul(mu, 1) @ z_mul(mu, 1)) for mu in range(p + 1, p + q + 1)]
        )
    raise ValueError(f"unknown generator tag {tag}")


def omega_kprime(params, j, k):
    """(1/2i) w'_j o w''_k: the endomorphism eps_j -> eps_k plus (p-q)/2 on the
    diagonal, realized on the Fock slot."""
    half_over_i = Scalar.unit(b=QQ(-1, 2))  # 1/(2i)
    return op_sum([(half_over_i, omega(SP_K(j, k), params))])


def gl_bracket(j, k, l, m):
    """[E_{jk}, E_{lm}] for E_{jk}: eps_j -> eps_k, as a list of (coeff, (a,b))."""
    out = []
    if j == m:
        out.append((1, (l, k)))
    if k == l:
        out.append((-1, (j, m)))
    return out


# ---------------------------------------------------------------------------
# Schroedinger dictionary
# ---------------------------------------------------------------------------

X_MINUS_D = "x_minus_d"
X_PLUS_D = "x_plus_d"


def intertwine_atom(kind, index, column, params):
    """One (x +- (1/2pi) d/dx) factor moved through the model identification."""
    positive = index <= params.p
    if kind == X_MINUS_D:
        base = z_mul(index, column)
        # -i/(2 pi) z on a positive index, i/(2 pi) z on a negative one
        coeff = Scalar.unit(b=QQ(-1 if positive else 1, 2), pi_exp=-1)
    elif kind == X_PLUS_D:
        base = z_del(index, column)
        # 2i d/dz on a positive index, -2i d/dz on a negative one
        coeff = Scalar.unit(b=2 if positive else -2)
    else:
        raise ValueError(f"unknown atom kind {kind}")
    return op_sum([(coeff, base)])


def intertwine(word, params):
    """Translate a product of Schroedinger atoms; the last atom applies first.

    word: sequence of (kind, index, column).
    """
    return compose(intertwine_atom(kind, index, column, params)
                   for kind, index, column in word)


def polarized_top_operator(params):
    """Product of polarized coordinate factors sum_a (x - (1/2pi)d) A(w_{a,mu})
    over all columns and negative indices, normalized by 2^{-nq/2}.

    Applied to the vacuum this must reproduce the degree-zero Schwartz form;
    the check exercises the whole Schroedinger dictionary at once.
    """
    factors = []
    for i in range(1, params.n + 1):
        for mu in params.negative():
            pieces = [(Scalar.one(),
                       wedge_left(a, mu) @ intertwine_atom(X_MINUS_D, a, i, params))
                      for a in params.positive()]
            factors.append(op_sum(pieces))
    norm = Scalar.two_pow_half(params.n * params.q).monomial_inverse()
    return op_sum([(norm, compose(factors))])
