"""Schwartz forms in the Fock model and the exact identity verifiers.

The basic family phi(params, word) maps an input word over column indices
1..n to a MixedForm; phi_nq0 is the scalar-valued base form, phi_0ell the
tensor factor, and their graded product gives the general member.  Every
theorem-level statement about these forms is exposed here as a residual
function returning a MixedForm that must be exactly zero.

All printed constants that the residuals are sensitive to live in the
Conventions record so tests can corrupt one at a time and watch the zero
residuals break.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import time
from collections import namedtuple

from fockforms.multilinear import (
    LinearOperator,
    MixedForm,
    SpaceParams,
    a_of_f,
    compose,
    identity_op,
    insert_letter,
    insert_metric,
    interior,
    op_sum,
    rho_x,
    tensor_permute,
    wedge_left,
    z_del,
    z_mul,
)
from fockforms.rational import QQ, _accum
from fockforms.scalars import MINUS_I_4PI, Scalar
from fockforms.schur import (_sort_with_sign, all_words, harmonic_apply_vec, perm_act_word,
                             young_apply_vec)
from fockforms.weil import lowering, omega_kprime


class Conventions(namedtuple("Conventions", "d_second_rat lambda_offset sigma_negative_sign "
                             "metric_sign kprime_weight", defaults=(QQ(1, 4), -1, -1, -1, QQ(1)))):
    """The printed constants the identity suite is sensitive to:
    d_second_rat          rational part of the 1/(4 pi) in d''
    lambda_offset         denominator p + q + ell + offset
    sigma_negative_sign   sign of the negative block in A_j(sigma)
    metric_sign           sign of the metric correction in the recursion
    kprime_weight         multiplier of the diagonal weight in K'"""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # the operator builders and _shared are keyed on Conventions equality,
        # and 0.25 == QQ(1, 4): a float field would be served the exact one's
        # operators or fail, depending on what the process built first
        for name, value in zip(self._fields, self):
            if not isinstance(value, numbers.Rational):
                raise TypeError(f"Conventions.{name} must be an int or a rational")
        return self

    # namedtuple's own _make, and so _replace, would skip the checks
    _make = classmethod(lambda cls, values: cls(*values))


DEFAULT_CONVENTIONS = Conventions()

# the kept forms of _shared hold at most this many terms in all
SHARED_TERMS = 2 ** 13
_SHARED = {}          # (fn, args) -> MixedForm, least recently used first
_shared_held = 0      # terms held by the forms in _SHARED


def _shared(fn):
    """Michie's memo function for the forms the identity suite shares.

    The key is fn and its full argument tuple, defaults filled in, so a
    keyword call and a positional call share an entry.  The least recently
    used forms are evicted once the kept forms hold more than SHARED_TERMS
    terms; a form larger than that is returned but not kept.  Kept forms are
    shared, so no caller may change their terms.
    """
    names = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    defaults = dict(zip(reversed(names), reversed(fn.__defaults__ or ())))

    @functools.wraps(fn)
    def memo(*args, **kwargs):
        global _shared_held
        key = (fn, args + tuple(kwargs[name] if name in kwargs else defaults[name]
                                for name in names[len(args):]))
        form = _SHARED.pop(key, None)
        if form is None:
            form = fn(*args, **kwargs)
            size = len(form.terms)
            if size > SHARED_TERMS:
                return form
            _shared_held += size
            while _shared_held > SHARED_TERMS:
                _shared_held -= len(_SHARED.pop(next(iter(_SHARED))).terms)
        _SHARED[key] = form
        return form
    return memo


# ---------------------------------------------------------------------------
# the forms
# ---------------------------------------------------------------------------

def _linear_form(params, col, mu=None):
    """sum_a z_{a,col} (x) w_{a,mu} over the positive indices a, or without
    mu, sum_a z_{a,col} (x) e_a."""
    terms = {}
    for a in params.positive():
        wedge, word = ([(a, mu)], ()) if mu else ((), (a,))
        terms.update(MixedForm.monomial(params, z=[(a, col, 1)], w=wedge, t=word).terms)
    return MixedForm(params, terms)


@functools.lru_cache(maxsize=None)
def phi_nq0(params):
    """Scalar-valued base form: the product over columns i and negative
    indices mu of sum_a z_{a,i} (x) w_{a,mu}, times 2^{nq/2} (-i/4pi)^{nq}."""
    if params.n > params.p:
        raise ValueError("phi_nq0 needs n <= p")
    n, q = params.n, params.q
    form = MixedForm(params, {(0, 0, ()): Scalar.two_pow_half(n * q) * MINUS_I_4PI ** (n * q)})
    for i in range(1, n + 1):
        for mu in params.negative():
            form = form * _linear_form(params, i, mu)
    return form


@functools.lru_cache(maxsize=None)
def phi_0ell(params, word):
    """Tensor factor: the product over the letters col of word of
    sum_a z_{a,col} (x) e_a, times (-i/4pi)^ell."""
    for col in word:
        if not 1 <= col <= params.n:
            raise ValueError(f"input column {col} outside 1..{params.n}")
    form = MixedForm(params, {(0, 0, ()): MINUS_I_4PI ** len(word)})
    for col in word:
        form = form * _linear_form(params, col)
    return form


@functools.lru_cache(maxsize=None)
def phi(params, word):
    """phi(params, word) = phi_nq0 * phi_0ell(word); word is over columns."""
    return phi_nq0(params) * phi_0ell(params, tuple(word))


def phi_ell(params, ell):
    """The n = 1 family member of tensor degree ell; zero for ell < 0."""
    if ell < 0:
        return MixedForm(params)
    if params.n != 1:
        raise ValueError("phi_ell is the n = 1 reduction")
    return phi(params, (1,) * ell)


def phi_linear(params, combo):
    """phi extended linearly over a dict word -> rational."""
    terms = {}
    for word, r in combo.items():
        for key, c in phi(params, tuple(word)).terms.items():
            _accum(terms, key, c.scale(r))
    return MixedForm(params, terms)


def output_projector(lam, m):
    """pi_[lam] pi_lam on the output tensor slot, for V = Q^m with the
    signature form.

    schur.harmonic_apply_vec runs once on the words of each (fock, wedge)
    part of the form, with diag(eps) as both the form and its dual.
    """
    def apply(form):
        eps = [[form.params.eps(a) if a == b else 0 for b in range(1, m + 1)]
               for a in range(1, m + 1)]
        parts = {}
        for (fock, wedge, word), c in form.terms.items():
            parts.setdefault((fock, wedge), {})[word] = c
        terms = {}
        for (fock, wedge), vec in parts.items():
            for word, c in harmonic_apply_vec(lam, vec, eps, eps).items():
                terms[fock, wedge, word] = c
        return MixedForm(form.params, terms)
    return LinearOperator(apply)


def phi_nq_bracket_lambda(params, lam):
    """Harmonic Schur member, as a function of the input word: project the
    word by the shape, the output tensor slot by the harmonic Schur projector.

    Shapes with more rows than n give the zero family (no semistandard
    content); n <= p is still required.
    """
    lam = tuple(lam)
    ell = sum(lam)
    if params.n > params.p:
        raise ValueError("needs n <= p")
    project = output_projector(lam, params.m)

    def fn(word):
        if len(word) != ell:
            raise ValueError("word length must match the shape size")
        shaped = young_apply_vec(lam, {tuple(word): QQ(1)})
        return project(phi_linear(params, shaped))

    return fn


# ---------------------------------------------------------------------------
# differential operators
# ---------------------------------------------------------------------------
#
# d_operator, a_sigma, h_prime and h_op are built once per argument tuple
# (params, ints, the variant string and the frozen Conventions are hashable),
# as are weil's lowering and omega_kprime: an operator holds no state, so
# every identity case can share it.

@functools.lru_cache(maxsize=None)
def d_operator(params, variant="full", conv=DEFAULT_CONVENTIONS):
    """The total differential or one of its three graded pieces."""
    p, q, n = params.p, params.q, params.n
    prime = []
    second = []
    vpart = []
    for a in params.positive():
        for mu in params.negative():
            wedge = wedge_left(a, mu)
            for j in range(1, n + 1):
                prime.append((Scalar.from_rational(-4, pi_exp=1),
                              wedge @ z_del(a, j) @ z_del(mu, j)))
                second.append((Scalar.from_rational(conv.d_second_rat, pi_exp=-1),
                               wedge @ z_mul(a, j) @ z_mul(mu, j)))
            vpart.append((Scalar.one(), wedge @ rho_x(a, mu)))
    if variant == "dF_prime":
        return op_sum(prime)
    if variant == "dF_doubleprime":
        return op_sum(second)
    if variant == "dV":
        return op_sum(vpart)
    if variant == "full":
        return op_sum(prime + second + vpart)
    raise ValueError(f"unknown d variant {variant}")


@functools.lru_cache(maxsize=None)
def a_sigma(params, j, col=1, conv=DEFAULT_CONVENTIONS):
    """Fock image of the coordinate insertion at tensor slot j, input column col."""
    pieces = []
    i_pos = Scalar.i()
    i_neg = Scalar.unit(b=conv.sigma_negative_sign)
    for a in params.positive():
        ins = insert_letter(j, a)
        pieces.append((i_pos, ins @ z_del(a, col)))
        pieces.append((i_pos * Scalar.from_rational(QQ(-1, 4), pi_exp=-1), ins @ z_mul(a, col)))
    for mu in params.negative():
        ins = insert_letter(j, mu)
        pieces.append((i_neg, ins @ z_del(mu, col)))
        pieces.append((i_neg * Scalar.from_rational(QQ(-1, 4), pi_exp=-1), ins @ z_mul(mu, col)))
    return op_sum(pieces)


@functools.lru_cache(maxsize=None)
def h_prime(params, j):
    return op_sum((1, insert_letter(j, mu) @ interior(a, mu) @ z_del(a, 1))
                  for a in params.positive() for mu in params.negative())


@functools.lru_cache(maxsize=None)
def h_op(params):
    return op_sum((1, interior(a, mu) @ z_mul(mu, 1) @ z_del(a, 1))
                  for a in params.positive() for mu in params.negative())


@_shared
def lambda_form(params, ell, j, conv=DEFAULT_CONVENTIONS):
    """Primitive attached to slot j; the denominator uses the operand's degree."""
    denom = params.p + params.q + ell + conv.lambda_offset
    coeff = Scalar.unit(b=QQ(-1, denom))
    return h_prime(params, j)(phi_ell(params, ell)).scale(coeff)


@_shared
def psi_product(params, ell):
    """The (q-1)-form primitive, built from the degree-zero member."""
    coeff = QQ(-1, 2 * (params.p + params.q - 1))
    return (h_op(params)(phi_ell(params, 0)) * phi_0ell(params, (1,) * ell)).scale(coeff)


def lowering_primitive(params, ell, conv=DEFAULT_CONVENTIONS):
    """psi_product plus half the slot primitives: the exact primitive of the
    lowering identity."""
    primitive = psi_product(params, ell)
    for j in range(1, ell + 1):
        primitive = primitive + lambda_form(params, ell - 1, j, conv).scale(QQ(1, 2))
    return primitive


def psi_direct(params, ell):
    """Same primitive via the full member; agreement is a verified identity."""
    coeff = QQ(-1, 2 * (params.p + params.q + ell - 1))
    return h_op(params)(phi_ell(params, ell)).scale(coeff)


def euler_form(params):
    """Invariant exterior form of degree q; zero when q is odd."""
    q = params.q
    out = MixedForm(params)
    if q % 2:
        return out
    k = q // 2

    def omega_cap(mu, nu):
        acc = MixedForm(params)
        for a in params.positive():
            acc = acc + MixedForm.monomial(params, w=[(a, mu), (a, nu)])
        return acc

    for sigma in itertools.permutations(range(1, q + 1)):
        sgn = _sort_with_sign(sigma)[0]
        piece = MixedForm.vacuum(params)
        for r in range(k):
            piece = piece * omega_cap(params.p + sigma[2 * r], params.p + sigma[2 * r + 1])
        out = out + (piece if sgn > 0 else -piece)
    coeff = Scalar.from_rational(QQ(-1, 4), pi_exp=-1) ** k
    return out.scale(coeff * Scalar.from_rational(QQ(1, math.factorial(k))))


# ---------------------------------------------------------------------------
# recursion building blocks (n = 1)
# ---------------------------------------------------------------------------

@_shared
def piece_A(params, ell, j):
    """(i/4pi) sum_mu z_mu (x) A_j(e_mu), applied to the degree ell-1 member."""
    coeff = Scalar.unit(b=QQ(1, 4), pi_exp=-1)
    return op_sum((coeff, insert_letter(j, mu) @ z_mul(mu, 1))
                  for mu in params.negative())(phi_ell(params, ell - 1))


@_shared
def piece_B(params, ell, j):
    """i sum_a (d/dz_a phi_{q,0}) . (A_j(e_a) phi_{0,ell-1})."""
    base0 = phi_ell(params, 0)
    basetail = phi_0ell(params, (1,) * (ell - 1))
    out = MixedForm(params)
    for a in params.positive():
        out = out + z_del(a, 1)(base0) * insert_letter(j, a)(basetail)
    return out.scale(Scalar.i())


def piece_C(params, ell, j, mode):
    """(1/4pi) sum_{i != j} of the metric at slots i, j, on the degree ell-2 member."""
    coeff = Scalar.from_rational(QQ(1, 4), pi_exp=-1)
    return op_sum((coeff, insert_metric(i, j, mode))
                  for i in range(1, ell + 1) if i != j)(phi_ell(params, ell - 2))


# ---------------------------------------------------------------------------
# shared images: the operator images more than one identity subtracts
# ---------------------------------------------------------------------------

@_shared
def _sigma_image(params, ell, j, conv=DEFAULT_CONVENTIONS):
    """a_sigma(j) phi_{ell-1}: recursion and lem3a."""
    return a_sigma(params, j, 1, conv)(phi_ell(params, ell - 1))


@_shared
def _d_lambda(params, ell, j, conv=DEFAULT_CONVENTIONS):
    """d lambda_j at degree ell - 1: recursion, prop3a and lowering."""
    return d_operator(params, "full", conv)(lambda_form(params, ell - 1, j, conv))


@_shared
def _d_psi(params, ell, variant, conv=DEFAULT_CONVENTIONS):
    """One graded piece of d psi_product: psi_base, lowering and lemma4b."""
    return d_operator(params, variant, conv)(psi_product(params, ell))


@_shared
def _lowered(params, ell):
    """omega(L) phi_ell: lowering, lemma4a and psi_base."""
    return lowering(params)(phi_ell(params, ell))


def _d_full_psi(params, ell, conv):
    """d psi_product as the sum of its three graded pieces."""
    return (_d_psi(params, ell, "dF_prime", conv)
            + _d_psi(params, ell, "dF_doubleprime", conv)
            + _d_psi(params, ell, "dV", conv))


# ---------------------------------------------------------------------------
# identity residuals: each returns a MixedForm that the theory says is zero
# ---------------------------------------------------------------------------

def residual_closedness(params, word, variant, conv=DEFAULT_CONVENTIONS):
    return d_operator(params, variant, conv)(phi(params, tuple(word)))


def residual_kprime_weight(params, ell, conv=DEFAULT_CONVENTIONS):
    weight = QQ(conv.kprime_weight) * (params.q + ell)
    return op_sum([(1, z_mul(a, 1) @ z_del(a, 1)) for a in params.positive()]
                  + [(-weight, identity_op())])(phi_ell(params, ell))


def residual_kprime_weight_reversed(params, ell, conv=DEFAULT_CONVENTIONS):
    weight = QQ(conv.kprime_weight) * (params.p + params.q + ell)
    return op_sum([(1, z_del(a, 1) @ z_mul(a, 1)) for a in params.positive()]
                  + [(-weight, identity_op())])(phi_ell(params, ell))


def _input_derivation(word, j, k):
    """E_{jk} on a word over columns: replace one letter j by k, summed."""
    out = {}
    for s, letter in enumerate(word):
        if letter == j:
            nw = word[:s] + (k,) + word[s + 1:]
            out[nw] = out.get(nw, 0) + 1
    return out


def residual_fock_kprime(params, word, j, k, conv=DEFAULT_CONVENTIONS):
    """omega(k'_{jk}) phi(w) - phi(E_{jk} w) - delta_{jk} (m/2) phi(w)."""
    word = tuple(word)
    lhs = omega_kprime(params, j, k)(phi(params, word))
    rhs = phi_linear(params, _input_derivation(word, j, k))
    if j == k:
        rhs = rhs + phi(params, word).scale(QQ(conv.kprime_weight) * QQ(params.m, 2))
    return lhs - rhs


def residual_lem3a(params, ell, j, conv=DEFAULT_CONVENTIONS):
    lhs = _sigma_image(params, ell, j, conv)
    rhs = (phi_ell(params, ell)
           + piece_A(params, ell, j)
           + piece_B(params, ell, j)
           + piece_C(params, ell, j, "plus"))
    return lhs - rhs


def residual_prop3a(params, ell, j, conv=DEFAULT_CONVENTIONS):
    lhs = _d_lambda(params, ell, j, conv)
    rhs = -(piece_A(params, ell, j)
            + piece_B(params, ell, j)
            + piece_C(params, ell, j, "minus"))
    return lhs - rhs


def residual_recursion(params, ell, j, conv=DEFAULT_CONVENTIONS):
    """Recursion: the metric correction enters with the sign that makes the
    lemma/proposition pair consistent (see Conventions.metric_sign)."""
    correction = piece_C(params, ell, j, "full").scale(QQ(conv.metric_sign))
    rhs = _sigma_image(params, ell, j, conv) + _d_lambda(params, ell, j, conv) + correction
    return phi_ell(params, ell) - rhs


def residual_psi_consistency(params, ell):
    return psi_product(params, ell) - psi_direct(params, ell)


def residual_psi_base(params, conv=DEFAULT_CONVENTIONS):
    return _lowered(params, 0) - _d_full_psi(params, 0, conv)


def residual_lemma4a(params, ell, conv=DEFAULT_CONVENTIONS):
    lhs = _lowered(params, ell)
    rhs = _lowered(params, 0) * phi_0ell(params, (1,) * ell)
    for j in range(1, ell + 1):
        rhs = rhs - piece_B(params, ell, j)
    rhs = rhs - a_of_f(ell, "plus")(phi_ell(params, ell - 2)).scale(
        Scalar.from_rational(QQ(1, 4), pi_exp=-1))
    return lhs - rhs


def residual_lemma4b_i(params, ell, conv=DEFAULT_CONVENTIONS):
    def d_fock(degree):
        return (_d_psi(params, degree, "dF_prime", conv)
                + _d_psi(params, degree, "dF_doubleprime", conv))
    lhs = d_fock(ell)
    rhs = d_fock(0) * phi_0ell(params, (1,) * ell)
    for j in range(1, ell + 1):
        rhs = rhs - piece_B(params, ell, j).scale(QQ(1, 2))
    return lhs - rhs


def residual_lemma4b_ii(params, ell, conv=DEFAULT_CONVENTIONS):
    lhs = _d_psi(params, ell, "dV", conv)
    rhs = MixedForm(params)
    for j in range(1, ell + 1):
        rhs = rhs + piece_A(params, ell, j).scale(QQ(1, 2))
    return lhs - rhs


def residual_lowering(params, ell, conv=DEFAULT_CONVENTIONS):
    """d of the exact primitive, by linearity: d psi + (1/2) sum_j d lambda_j."""
    lhs = _lowered(params, ell)
    rhs = _d_full_psi(params, ell, conv)
    for j in range(1, ell + 1):
        rhs = rhs + _d_lambda(params, ell, j, conv).scale(QQ(1, 2))
    rhs = rhs - a_of_f(ell, "full")(phi_ell(params, ell - 2)).scale(
        Scalar.from_rational(QQ(1, 4), pi_exp=-1))
    return lhs - rhs


def residual_equivariance(params, word, perm):
    """phi(s . w) - (1 (x) 1 (x) s) phi(w) on the output slots."""
    word = tuple(word)
    lhs = phi(params, perm_act_word(perm, word))
    rhs = tensor_permute(perm)(phi(params, word))
    return lhs - rhs


def sigma_word_plain(params, cols, conv=DEFAULT_CONVENTIONS):
    """sigma_ell(eps_{i_1} (x) ... (x) eps_{i_ell}) as a Fock-side operator."""
    return compose(a_sigma(params, 1, col, conv) for col in cols)


def residual_sigma_gl(params, cols, x, test_form, conv=DEFAULT_CONVENTIONS):
    """[omega(X), sigma(cols)] - sigma(X . cols) on test_form.

    omega(X) is sum_jk x[j-1][k-1] omega_kprime(j, k), E_jk sending eps_j to
    eps_k, and X . cols turns each letter j of cols into k with weight
    x[j-1][k-1].  Each A(sigma) at column j moves under an antisymmetric X as
    the column itself, so the residual is zero: sigma is o(n)-equivariant.  A
    symmetric part of X leaves a residual, since omega moves the
    multiplications and the derivatives of A(sigma) contragrediently.
    """
    cols = tuple(cols)
    columns = range(1, params.n + 1)
    omega = op_sum((x[j - 1][k - 1], omega_kprime(params, j, k))
                   for j in columns for k in columns)
    moved = op_sum((x[j - 1][k - 1] * c, sigma_word_plain(params, word, conv))
                   for j in columns for k in columns
                   for word, c in _input_derivation(cols, j, k).items())
    sigma = sigma_word_plain(params, cols, conv)
    return omega(sigma(test_form)) - sigma(omega(test_form)) - moved(test_form)


def holomorphicity_residuals(params, ell, conv=DEFAULT_CONVENTIONS):
    """Returns (main, killed): main is the projected lowering identity with its
    exact primitive, killed is the projection of the metric correction."""
    if params.n != 1:
        raise ValueError("holomorphicity check is the n = 1 statement")
    project = output_projector((ell,), params.m)
    phi_br = project(phi_ell(params, ell))
    primitive = project(lowering_primitive(params, ell, conv))
    correction = a_of_f(ell, "full")(phi_ell(params, ell - 2)).scale(
        Scalar.from_rational(QQ(-1, 4), pi_exp=-1))
    killed = project(correction)
    main = lowering(params)(phi_br) - d_operator(params, "full", conv)(primitive) - killed
    return main, killed


# ---------------------------------------------------------------------------
# reporting layer
# ---------------------------------------------------------------------------

class VerificationReport(namedtuple("VerificationReport", "identity p q n ell passed cases "
                                    "failed_label sample seconds", defaults=("", (), 0.0))):
    __slots__ = ()  # seconds is not in to_json, so reports are byte-identical across runs

    def to_json(self):
        out = {
            "identity": self.identity,
            "p": self.p, "q": self.q, "n": self.n, "ell": self.ell,
            "passed": self.passed,
            "cases": self.cases,
        }
        if not self.passed:
            out["failed_case"] = self.failed_label
            out["residual_sample"] = list(self.sample)
        return out


def _residual_cases(identity, params, ell, conv):
    """Yield (label, residual) pairs for one grid cell."""
    p, q, n = params.p, params.q, params.n
    if identity == "closedness":
        for word in all_words(n, ell):
            for variant in ("dF_prime", "dF_doubleprime", "dV"):
                yield f"{variant} word={word}", residual_closedness(params, word, variant, conv)
    elif identity == "kprime":
        if n == 1:
            yield "weight", residual_kprime_weight(params, ell, conv)
            yield "weight_reversed", residual_kprime_weight_reversed(params, ell, conv)
        for word in all_words(n, ell):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    yield (f"fock j={j} k={k} word={word}",
                           residual_fock_kprime(params, word, j, k, conv))
    elif identity == "recursion":
        for j in range(1, ell + 1):
            yield f"j={j}", residual_recursion(params, ell, j, conv)
    elif identity == "lem3a":
        for j in range(1, ell + 1):
            yield f"j={j}", residual_lem3a(params, ell, j, conv)
    elif identity == "prop3a":
        for j in range(1, ell + 1):
            yield f"j={j}", residual_prop3a(params, ell, j, conv)
    elif identity == "lowering":
        yield "lowering", residual_lowering(params, ell, conv)
    elif identity == "psi_base":
        yield "psi_base", residual_psi_base(params, conv)
    elif identity == "psi_consistency":
        yield "psi_consistency", residual_psi_consistency(params, ell)
    elif identity == "lemma4a":
        yield "lemma4a", residual_lemma4a(params, ell, conv)
    elif identity == "lemma4b":
        yield "i", residual_lemma4b_i(params, ell, conv)
        yield "ii", residual_lemma4b_ii(params, ell, conv)
    elif identity == "equivariance":
        for word in all_words(n, ell):
            for s in range(1, ell):
                perm = list(range(1, ell + 1))
                perm[s - 1], perm[s] = perm[s], perm[s - 1]
                yield f"swap({s},{s+1}) word={word}", residual_equivariance(params, word, tuple(perm))
    elif identity == "sigma_gl":
        import random
        rng = random.Random(1000 * p + 100 * q + 10 * n + ell)
        x = [[0] * n for _ in range(n)]
        for j in range(n):
            for k in range(j + 1, n):
                x[j][k] = rng.choice((-3, -2, -1, 1, 2, 3))
                x[k][j] = -x[j][k]
        vacuum = MixedForm.vacuum(params)
        for word in all_words(n, min(ell, 2)):
            yield f"word={word}", residual_sigma_gl(params, word, x, vacuum, conv)
    elif identity == "holomorphicity":
        main, killed = holomorphicity_residuals(params, ell, conv)
        yield "projected lowering", main
        yield "projected correction", killed
    else:
        raise ValueError(f"unknown identity {identity}")


IDENTITIES = ("closedness", "kprime", "recursion", "lem3a", "prop3a", "lowering",
              "psi_base", "psi_consistency", "lemma4a", "lemma4b", "equivariance",
              "sigma_gl", "holomorphicity")

# identities stated for one input column only
N_ONE_IDENTITIES = frozenset({"recursion", "lem3a", "prop3a", "lowering", "psi_base",
                              "psi_consistency", "lemma4a", "lemma4b", "holomorphicity"})


def cell_error(identity, p, n):
    """Why the identity is not defined at (p, n), or None when it is.

    Every form starts from phi_nq0, which needs n <= p; the N_ONE_IDENTITIES
    need n = 1 as well.
    """
    if n > p:
        return f"{identity} needs --n <= --p"
    if n != 1 and identity in N_ONE_IDENTITIES:
        return f"{identity} is stated for --n 1 only"
    return None


def run_identity(identity, p, q, n, ell, conv=DEFAULT_CONVENTIONS):
    """One grid cell -> one VerificationReport aggregating its sub-cases."""
    params = SpaceParams(p, q, n)
    start = time.perf_counter()
    cases = 0
    failed_label = ""
    sample = ()
    for label, residual in _residual_cases(identity, params, ell, conv):
        cases += 1
        if not residual.is_zero():
            failed_label = label
            sample = tuple(str(term) for term in residual.to_json()[:5])
            break
    elapsed = time.perf_counter() - start
    return VerificationReport(identity, p, q, n, ell, failed_label == "",
                              cases, failed_label, sample, elapsed)


def default_grid():
    """The standard verification grid: every cell must pass."""
    cells = []
    base = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]
    for p, q in base:
        for ell in range(4):
            for ident in ("closedness", "kprime", "recursion", "lowering"):
                cells.append((ident, p, q, 1, ell))
        cells.append(("psi_base", p, q, 1, 0))
    for ell in range(3):
        cells.append(("closedness", 2, 1, 2, ell))
        cells.append(("kprime", 2, 1, 2, ell))
        cells.append(("equivariance", 2, 1, 2, ell))
    for p, q in base:
        for ell in (1, 2, 3):
            cells.append(("lem3a", p, q, 1, ell))
            cells.append(("prop3a", p, q, 1, ell))
        for ell in range(4):
            cells.append(("psi_consistency", p, q, 1, ell))
            cells.append(("lemma4a", p, q, 1, ell))
            cells.append(("lemma4b", p, q, 1, ell))
    for p, q in ((2, 1), (2, 2)):
        cells.append(("holomorphicity", p, q, 1, 2))
    cells.append(("sigma_gl", 2, 1, 2, 2))
    cells.append(("sigma_gl", 3, 1, 2, 2))
    return cells
