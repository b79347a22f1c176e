"""Sparse multilinear algebra on Fock polynomials x exterior algebra x tensor words.

A MixedForm is a finite sum of monomials

    z-monomial  (x)  wedge of generators w_{alpha,mu}  (x)  tensor word in V

with Scalar coefficients.  Keys are packed canonically, (fock int, wedge
bitmask, word tuple), so equality and zero tests are exact dictionary
comparisons; sorted_terms, to_json and repr decode them to tuples.

Index conventions (all 1-based): Fock variables carry (index, column) with
index in 1..m and column in 1..n; exterior generators are pairs (alpha, mu)
with alpha in 1..p and mu in p+1..p+q, ordered lexicographically; tensor
letters live in 1..m.  epsilon(k) = +1 for k <= p and -1 for k > p.
"""

from __future__ import annotations

import functools
import numbers
import operator
from collections import namedtuple

from fockforms.rational import QQ, _accum
from fockforms.scalars import ONE, ZERO, Scalar
from fockforms.schur import insert_pair_word, perm_act_word


# ---------------------------------------------------------------------------
# packed term keys
# ---------------------------------------------------------------------------
#
# The Fock part of a key is one int with a _W-bit exponent field per variable:
# z_{idx,col} owns the field at offset ((idx - 1) * _N + (col - 1)) * _W, so a
# product of monomials is the sum of their ints (Monagan & Pearce, CASC 2007).
# The wedge part is a bitmask: w_{a,mu} is bit (a - 1) * _M + (mu - 1) (Dorst,
# Fontijne & Mann, Geometric Algebra for Computer Science, ch. 19).  Both
# orders are the lexicographic order of the index pairs, so a key decodes, low
# bits first, to sorted tuples, and a sign is the parity of the generators
# below a bit.  SpaceParams keeps idx, a, mu <= _M and col <= _N.
#
# Field width.  At LIMITS (p = q = 4, n = 3, ell = 6) no exponent exceeds
# q + ell + 1 = 11: phi(word) puts at most q on a variable (its wedge blocks)
# plus ell (its letters), only negative-index variables are raised from 0, by
# at most 2 (h, d'' and the lowering operator), and each identity raises a
# positive one at most once (d'', a_sigma or k') past phi's exponent.  So
# _W = 8 leaves more than 20 times that, and the checks below refuse a field
# that would still overflow instead of letting it carry into its neighbour.
_W = 8
_M, _N = 8, 4                   # the largest m and n the layout holds
_FIELD = (1 << _W) - 1          # the largest exponent
_CARRIES = sum(1 << (k * _W) for k in range(1, _M * _N + 1))  # carries out of each field


def _offset(idx, col):
    if not (1 <= idx <= _M and 1 <= col <= _N):
        raise ValueError(f"Fock variable ({idx},{col}) outside the packed layout")
    return ((idx - 1) * _N + (col - 1)) * _W


def _gen_bit(a, mu):
    if not (1 <= a <= _M and 1 <= mu <= _M):
        raise ValueError(f"wedge generator ({a},{mu}) outside the packed layout")
    return 1 << ((a - 1) * _M + (mu - 1))


def _fock_times(f1, f2):
    """The product of two packed Fock monomials; refuses a carry."""
    f = f1 + f2
    if (f ^ f1 ^ f2) & _CARRIES:
        raise ValueError(f"a Fock exponent exceeds {_FIELD}")
    return f


def _merge_parity(w1, w2):
    """Parity of the sort of the disjoint wedges w1 then w2: the pairs of a
    generator of w1 above one of w2."""
    n = 0
    while w2:
        low = w2 & -w2
        n += (w1 & -low).bit_count()
        w2 ^= low
    return n & 1


def _unpack(key):
    """The tuple key ((((idx, col), e), ...), ((a, mu), ...), word) of a packed key."""
    fock, wedge, word = key
    z = []
    for k in range(_M * _N):
        if (e := (fock >> (k * _W)) & _FIELD):
            idx, col = divmod(k, _N)
            z.append(((idx + 1, col + 1), e))
    w = []
    while wedge:
        a, mu = divmod((wedge & -wedge).bit_length() - 1, _M)
        w.append((a + 1, mu + 1))
        wedge &= wedge - 1
    return tuple(z), tuple(w), word


class SpaceParams(namedtuple("SpaceParams", "p q n", defaults=(1,))):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.p < 1 or self.q < 1 or self.n < 1:
            raise ValueError("p, q, n must all be >= 1")
        if self.p + self.q > _M or self.n > _N:
            raise ValueError(f"packed term keys hold p + q <= {_M} and n <= {_N}")
        return self

    # namedtuple's own _make, and so _replace, would skip the checks
    _make = classmethod(lambda cls, values: cls(*values))

    @property
    def m(self):
        return self.p + self.q

    def eps(self, k):
        return 1 if k <= self.p else -1

    def positive(self):
        return range(1, self.p + 1)

    def negative(self):
        return range(self.p + 1, self.p + self.q + 1)

    def letters(self):
        return range(1, self.m + 1)


# ---------------------------------------------------------------------------
# MixedForm
# ---------------------------------------------------------------------------

class MixedForm:
    """Finite Scalar-linear combination of (fock, wedge, word) monomials."""

    __slots__ = ("params", "terms")

    def __init__(self, params: SpaceParams, terms=None):
        self.params = params
        self.terms = terms if terms is not None else {}

    @staticmethod
    def vacuum(params):
        return MixedForm(params, {(0, 0, ()): Scalar.one()})

    @staticmethod
    def monomial(params, z=(), w=(), t=(), coeff=None):
        """Build a one-term form; z is a list of (index, column, exponent).

        Every index, column, exponent, generator entry and letter is an int
        (bools refused) in its range; anything else raises ValueError.
        """
        m = params.m
        fock = 0
        for idx, col, e in z:
            if not (type(idx) is int and type(col) is int
                    and 1 <= idx <= m and 1 <= col <= params.n):
                raise ValueError(f"fock variable ({idx!r},{col!r}) outside space")
            if not (type(e) is int and 0 <= e <= _FIELD):
                raise ValueError(f"exponent {e!r} of ({idx},{col}) outside 0..{_FIELD}")
            fock = _fock_times(fock, e << _offset(idx, col))
        sign = 1
        wedge = 0
        for a, mu in w:
            if not (type(a) is int and type(mu) is int
                    and 1 <= a <= params.p and params.p < mu <= m):
                raise ValueError(f"wedge generator ({a!r},{mu!r}) outside space")
            bit = _gen_bit(a, mu)
            if wedge & bit:
                return MixedForm(params)
            if _merge_parity(wedge, bit):
                sign = -sign
            wedge |= bit
        for letter in t:
            if not (type(letter) is int and 1 <= letter <= m):
                raise ValueError(f"tensor letter {letter!r} outside space")
        c = coeff if coeff is not None else Scalar.one()
        if sign < 0:
            c = -c
        if c.is_zero():
            return MixedForm(params)
        return MixedForm(params, {(fock, wedge, tuple(t)): c})

    def __add__(self, other):
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _accum(terms, key, c)
        return MixedForm(self.params, terms)

    def __sub__(self, other):
        # exact: no zero coefficient is ever stored, so equal forms have equal dicts
        if self.terms == other.terms:
            return MixedForm(self.params)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            _accum(terms, key, -c)
        return MixedForm(self.params, terms)

    def __neg__(self):
        return MixedForm(self.params, {k: -c for k, c in self.terms.items()})

    def scale(self, s):
        if not isinstance(s, Scalar):
            if not isinstance(s, numbers.Rational):
                raise TypeError(f"a scale factor must be a Scalar or a rational, not {s!r}")
            s = Scalar.from_rational(QQ(s))
        if s.is_zero():
            return MixedForm(self.params)
        # the keys stay distinct, and no product is zero in an integral domain
        return MixedForm(self.params, {k: c * s for k, c in self.terms.items()})

    def __mul__(self, other):
        """Graded product: Fock parts multiply, wedges merge, words concatenate."""
        terms = {}
        for (f1, w1, t1), c1 in self.terms.items():
            for (f2, w2, t2), c2 in other.terms.items():
                if w1 & w2:
                    continue
                c = c1 * c2
                if w1 and w2 and _merge_parity(w1, w2):
                    c = -c
                _accum(terms, (_fock_times(f1, f2), w1 | w2, t1 + t2), c)
        return MixedForm(self.params, terms)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, MixedForm):
            return NotImplemented
        return self.terms == other.terms

    def sorted_terms(self):
        """(key, coeff) pairs in key order, each key decoded to tuples."""
        return sorted(((_unpack(k), c) for k, c in self.terms.items()),
                      key=lambda kv: kv[0])

    # -- serialization ---------------------------------------------------

    def to_json(self):
        out = []
        for (fock, wedge, word), c in self.sorted_terms():
            out.append({
                "z": [[idx, col, e] for (idx, col), e in fock],
                "w": [[a, mu] for a, mu in wedge],
                "t": list(word),
                "c": c.to_json(),
            })
        return out

    @staticmethod
    def from_json(params, data):
        """The inverse of to_json; items with the same key add up.

        Each item is an object with exactly the keys z, w, t and c: z a list
        of [index, column, exponent], w a list of [alpha, mu], t a list of
        letters, all ints, and c a Scalar row list; anything else raises
        ValueError.
        """
        terms = {}
        for item in data:
            if not isinstance(item, dict) or item.keys() != {"z", "w", "t", "c"}:
                raise ValueError(f"a form item is an object with the keys z, w, t, c: {item!r}")
            z, w, t = item["z"], item["w"], item["t"]
            if not (isinstance(z, list) and all(isinstance(v, list) and len(v) == 3 for v in z)
                    and isinstance(w, list) and all(isinstance(g, list) and len(g) == 2 for g in w)
                    and isinstance(t, list)):
                raise ValueError(f"a form item has z, w and t lists of triples, pairs "
                                 f"and letters: {item!r}")
            piece = MixedForm.monomial(params, z=z, w=w, t=t, coeff=Scalar.from_json(item["c"]))
            for key, c in piece.terms.items():
                _accum(terms, key, c)
        return MixedForm(params, terms)

    def __repr__(self):
        if not self.terms:
            return "MixedForm(0)"
        bits = []
        for (fock, wedge, word), c in self.sorted_terms()[:8]:
            z = "*".join(
                f"z[{i},{j}]" + (f"^{e}" if e > 1 else "") for (i, j), e in fock
            ) or "1"
            w = "^".join(f"w[{a},{mu}]" for a, mu in wedge) or "1"
            t = "(x)".join(f"e{k}" for k in word) or "1"
            bits.append(f"({c!r}) {z} | {w} | {t}")
        more = "" if len(self.terms) <= 8 else f" ... +{len(self.terms) - 8} terms"
        return " + ".join(bits) + more


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

class LinearOperator:
    """Composable wrapper around a MixedForm endomorphism."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, form):
        return self.fn(form)

    def __matmul__(self, other):
        # (A @ B)(x) = A(B(x))
        return LinearOperator(lambda form: self.fn(other.fn(form)))


def identity_op():
    return LinearOperator(lambda form: form)


def compose(ops):
    """The ordered product ops[0] @ ops[1] @ ...; the identity when ops is empty."""
    ops = list(ops)
    return functools.reduce(operator.matmul, ops) if ops else identity_op()


def op_sum(pieces):
    """The operator sum_k c_k op_k over (c_k, op_k) pairs.

    A coefficient is a Scalar or a rational.  Zero coefficients are dropped.
    Each image term is accumulated once, times its coefficient; a coefficient
    of one skips the product.
    """
    kept = []
    for coeff, op in pieces:
        if not isinstance(coeff, Scalar):
            if not isinstance(coeff, numbers.Rational):
                raise TypeError(f"a coefficient must be a Scalar or a rational, not {coeff!r}")
            coeff = QQ(coeff)
        if coeff == 0 or coeff == ZERO:
            continue
        kept.append((ONE if coeff == 1 or coeff == ONE else coeff, op))

    def apply(form):
        terms = {}
        get = terms.get
        for coeff, op in kept:
            for key, c in op(form).terms.items():
                if coeff is not ONE:
                    c = c * coeff
                s = get(key)
                if s is None:
                    terms[key] = c
                elif s := s + c:
                    terms[key] = s
                else:
                    del terms[key]
        return MixedForm(form.params, terms)
    return LinearOperator(apply)


# Each builder returns one loop over the operand's terms.  z_mul, z_del,
# wedge_left, interior, insert_letter, insert_metric and tensor_permute never
# send two inputs to one image (an input of insert_metric is a key and a
# letter of the metric), and each image coefficient is +-c or c times an
# exponent >= 1, never zero: they write each image straight into the new dict,
# with no accumulate step and no zero test.  The others accumulate through
# _accum.

def z_mul(idx, col=1):
    """Multiplication by z_{idx,col}."""
    off = _offset(idx, col)
    up = 1 << off
    def apply(form):
        terms = {}
        for (fock, wedge, word), c in form.terms.items():
            if (fock >> off) & _FIELD == _FIELD:
                raise ValueError(f"a Fock exponent exceeds {_FIELD}")
            terms[fock + up, wedge, word] = c
        return MixedForm(form.params, terms)
    return LinearOperator(apply)


def z_del(idx, col=1):
    """The derivation d/dz_{idx,col}."""
    off = _offset(idx, col)
    down = 1 << off
    def apply(form):
        return MixedForm(form.params, {(fock - down, wedge, word): c.scale(e)
                                       for (fock, wedge, word), c in form.terms.items()
                                       if (e := (fock >> off) & _FIELD)})
    return LinearOperator(apply)


def wedge_left(alpha, mu):
    """Exterior left multiplication by the generator w_{alpha,mu}."""
    bit = _gen_bit(alpha, mu)
    below = bit - 1
    def apply(form):
        return MixedForm(form.params, {
            (fock, wedge | bit, word): -c if (wedge & below).bit_count() & 1 else c
            for (fock, wedge, word), c in form.terms.items() if not wedge & bit})
    return LinearOperator(apply)


def interior(alpha, mu):
    """Graded contraction dual to wedge_left; an anti-derivation of degree -1."""
    bit = _gen_bit(alpha, mu)
    below = bit - 1
    def apply(form):
        return MixedForm(form.params, {
            (fock, wedge ^ bit, word): -c if (wedge & below).bit_count() & 1 else c
            for (fock, wedge, word), c in form.terms.items() if wedge & bit})
    return LinearOperator(apply)


def _wedge_replace(moves):
    """The derivation moving each generator bit old of the wedge to new, over
    (old, new) pairs; the sign counts the generators passed on the way."""
    def apply(form):
        terms = {}
        for (fock, wedge, word), c in form.terms.items():
            for old, new in moves:
                if wedge & old:
                    rest = wedge ^ old
                    if not rest & new:
                        passed = (rest & ((old - 1) ^ (new - 1))).bit_count()
                        _accum(terms, (fock, rest | new, word), -c if passed & 1 else c)
        return MixedForm(form.params, terms)
    return LinearOperator(apply)


def deriv_pos(alpha, beta):
    """D_{alpha,beta}: sends w_{beta,mu} to w_{alpha,mu} in each slot."""
    return _wedge_replace([(_gen_bit(beta, mu), _gen_bit(alpha, mu)) for mu in range(1, _M + 1)])


def deriv_neg(mu, nu):
    """D_{mu,nu}: sends w_{alpha,nu} to w_{alpha,mu} in each slot."""
    return _wedge_replace([(_gen_bit(a, nu), _gen_bit(a, mu)) for a in range(1, _M + 1)])


def rho_x(alpha, mu):
    """Derivation on tensor words swapping e_alpha <-> e_mu letterwise."""
    swap = {alpha: (mu,), mu: (alpha,)}
    def apply(form):
        terms = {}
        for (fock, wedge, word), c in form.terms.items():
            for s, letter in enumerate(word):
                if letter in swap:
                    _accum(terms, (fock, wedge, word[:s] + swap[letter] + word[s + 1:]), c)
        return MixedForm(form.params, terms)
    return LinearOperator(apply)


def insert_letter(j, letter):
    """Insert the letter at slot j >= 1 of each word, of length at least j - 1."""
    if j < 1:
        raise ValueError(f"slot {j} is below 1")
    def apply(form):
        terms = {}
        for (fock, wedge, word), c in form.terms.items():
            if len(word) < j - 1:
                raise ValueError(f"slot {j} out of range for word of length {len(word)}")
            terms[fock, wedge, word[:j - 1] + (letter,) + word[j - 1:]] = c
        return MixedForm(form.params, terms)
    return LinearOperator(apply)


def insert_metric(i, j, mode="full"):
    """Insert a metric tensor so its two letters land at result positions i, j.

    mode 'plus' inserts sum_alpha e_alpha (x) e_alpha, 'minus' inserts
    sum_mu e_mu (x) e_mu, and 'full' their difference; any other mode is
    refused.  The operand word must have length (result length) - 2.
    """
    if mode not in ("full", "plus", "minus"):
        raise ValueError(f"metric mode {mode!r} is not 'full', 'plus' or 'minus'")
    if i == j:
        raise ValueError("metric insertion needs two distinct positions")
    lo, hi = (i, j) if i < j else (j, i)
    if lo < 1:
        raise ValueError(f"position {lo} is below 1")
    def apply(form):
        # (letter, negated) over the letters of the mode's metric tensor
        letters = [(a, False) for a in form.params.positive() if mode != "minus"] \
            + [(mu, mode == "full") for mu in form.params.negative() if mode != "plus"]
        terms = {}
        for (fock, wedge, word), c in form.terms.items():
            if len(word) < hi - 2:
                raise ValueError(f"positions ({i},{j}) out of range")
            for letter, negated in letters:
                nw = insert_pair_word(word, lo, hi, letter, letter)
                terms[fock, wedge, nw] = -c if negated else c
        return MixedForm(form.params, terms)
    return LinearOperator(apply)


def a_of_f(ell, mode="full"):
    """Total metric insertion into words of result length ell: the sum of
    insert_metric over the unordered pairs of result positions."""
    return op_sum((1, insert_metric(i, j, mode))
                  for i in range(1, ell + 1) for j in range(i + 1, ell + 1))


def tensor_permute(perm):
    """Act by a permutation on tensor words: the letter in slot s moves to perm(s).

    perm is a tuple with perm[s-1] = image of s, on words of length len(perm).
    """
    ell = len(perm)
    if sorted(perm) != list(range(1, ell + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{ell}")
    def apply(form):
        terms = {}
        for (fock, wedge, word), c in form.terms.items():
            if len(word) != ell:
                raise ValueError("permutation length does not match word")
            terms[fock, wedge, perm_act_word(perm, word)] = c
        return MixedForm(form.params, terms)
    return LinearOperator(apply)

