"""Brute-force constructions that serve only as test oracles.

Each builds by exhaustion what a production routine computes directly:
dense word-space matrices of the product form, of slot contractions and
insertions, and of the harmonic projection (against schur's Young projector,
schur.harmonic_apply_vec and the dict harmonic projector below);
harmonic_project_vec, the Brauer product on dict tensors, written here apart
from schur.harmonic_apply_vec (against forms.output_projector and theta's
integer-array payloads); the moment tensor as a Python-int sum of outer
products (against theta's moment kernel); the exhaustive box scan of the
shell enumeration (against enumeration.shell_vectors, with box radii from
the rational inverse rather than the adjugate); the beta list of a theta
table as a filter over the full product of entry ranges (against
theta.series_betas, which grows PSD blocks row by row); the log theta bound
one value at a time (against the array pass of cli's work bound); the
representation search with one boolean mask per shell (against theta's
windowed search: its binned tables, single-beta counts and listings); solve
and nullspace for exact rational matrices (against linalg's elimination);
the Schwartz forms phi_nq0 and phi_0ell summed over every index tuple
(against the products of linear forms in fockforms.forms); and the Fock-model
operators as per-term rewriters, one generator per term and every image added
through get/add/drop (against the one-pass builders of fockforms.multilinear).
"""

import itertools
import math

import numpy as np

from fockforms.enumeration import exact_dtype, integral_rows
from fockforms.linalg import RatMat, _eliminate, inverse
from fockforms.multilinear import _FIELD, _M, MixedForm, _fock_times, _gen_bit, _offset
from fockforms.scalars import MINUS_I_4PI, QQ, Scalar
from fockforms.schur import (_accum, all_words, assert_traceless, contract_vec,
                             insert_pair_word, omega_eigenvalues, pair_positions,
                             perm_act_word, remove_pair_word, word_index)
from fockforms.theta import BetaMatrix


# ---------------------------------------------------------------------------
# dense word-space matrices
# ---------------------------------------------------------------------------

def kron_form(b1, ell):
    """ell-fold product form: entries multiply slotwise."""
    alphabet = b1.nrows
    size = alphabet ** ell
    out = RatMat.zero(size, size)
    for w in all_words(alphabet, ell):
        for w2 in all_words(alphabet, ell):
            v = QQ(1)
            for a, b in zip(w, w2):
                v *= b1.entry(a - 1, b - 1)
                if v == 0:
                    break
            if v != 0:
                out.rows[word_index(w, alphabet)][word_index(w2, alphabet)] = v
    return out


def contraction_matrix(b1, ell, i, j):
    """Pair slots i < j with the form and delete them."""
    alphabet = b1.nrows
    out = RatMat.zero(alphabet ** (ell - 2), alphabet ** ell)
    for w in all_words(alphabet, ell):
        v = b1.entry(w[i - 1] - 1, w[j - 1] - 1)
        if v != 0:
            out.rows[word_index(remove_pair_word(w, i, j), alphabet)][word_index(w, alphabet)] = v
    return out


def insertion_matrix(dual, ell, i, j):
    """Insert the dual form tensor so its letters land at result slots i < j."""
    alphabet = dual.nrows
    out = RatMat.zero(alphabet ** ell, alphabet ** (ell - 2))
    for w in all_words(alphabet, ell - 2):
        col = word_index(w, alphabet)
        for a in range(1, alphabet + 1):
            for b in range(1, alphabet + 1):
                v = dual.entry(a - 1, b - 1)
                if v != 0:
                    out.rows[word_index(insert_pair_word(w, i, j, a, b), alphabet)][col] = v
    return out


def harmonic_complement(b1, ell):
    """Form-orthogonal projection onto tensors with every pair contraction zero.

    Requires the restriction of the product form to the insertion span to be
    nondegenerate; the inversion below fails loudly otherwise.
    """
    alphabet = b1.nrows
    size = alphabet ** ell
    if ell < 2:
        return RatMat.identity(size)
    b_ell = kron_form(b1, ell)
    dual = inverse(b1)
    cols = []
    for i, j in pair_positions(ell):
        ins = insertion_matrix(dual, ell, i, j)
        for k in range(ins.ncols):
            col = {}
            for row_idx, row in enumerate(ins.rows):
                v = row.get(k)
                if v:
                    col[row_idx] = v
            cols.append(col)
    # keep an independent subset of the insertion columns
    basis = []
    echelon = []
    for col in cols:
        vec = dict(col)
        for piv, prow in echelon:
            f = vec.get(piv)
            if f:
                for jj, v in prow.items():
                    s = vec.get(jj, QQ(0)) - f * v
                    if s == 0:
                        vec.pop(jj, None)
                    else:
                        vec[jj] = s
        if vec:
            piv = min(vec)
            inv = 1 / vec[piv]
            echelon.append((piv, {jj: v * inv for jj, v in vec.items()}))
            basis.append(col)
    if not basis:
        return RatMat.identity(size)
    span = RatMat.zero(size, len(basis))
    for k, col in enumerate(basis):
        for row_idx, v in col.items():
            span.rows[row_idx][k] = v
    gram = span.transpose() @ b_ell @ span
    proj = span @ inverse(gram) @ span.transpose() @ b_ell
    return RatMat.identity(size) - proj


# ---------------------------------------------------------------------------
# harmonic projection and moments on dict tensors
# ---------------------------------------------------------------------------

def _omega(vec, b1_rows, g_entries, ell):
    """sum over slot pairs i < j of E_ij C_ij; g_entries lists (a, b, g_ab)."""
    out = {}
    for i, j in pair_positions(ell):
        for rest, u in contract_vec(vec, b1_rows, i, j).items():
            for a, b, g in g_entries:
                _accum(out, insert_pair_word(rest, i, j, a, b), g * u)
    return out


def harmonic_project_vec(vec, b1, lam):
    """pi_[lam] on a lam-isotypic dict tensor: prod over c of (1 - Omega / c)."""
    ell = sum(lam)
    n = b1.nrows
    b1_rows = [[b1.entry(i, j) for j in range(n)] for i in range(n)]
    g = inverse(b1)
    g_entries = [(a + 1, b + 1, v) for a, row in enumerate(g.rows) for b, v in row.items()]
    out = dict(vec)
    for c in omega_eigenvalues(lam, n):
        for w, v in _omega(out, b1_rows, g_entries, ell).items():
            _accum(out, w, -v / c)
    assert_traceless(out, b1_rows, ell)
    return out


def moment_oracle(reps, slot_values, m):
    """The sum over tuples of the outer product of the selected columns,
    word by word in Python ints, as the dict of its nonzero entries
    (word -> QQ, words over 1..m).  slot_values names, for each tensor slot,
    the column of the tuple it reads (1-based)."""
    out = {}
    for rep in reps:
        for w in itertools.product(range(1, m + 1), repeat=len(slot_values)):
            v = math.prod(rep[col - 1][letter - 1] for col, letter in zip(slot_values, w))
            out[w] = out.get(w, 0) + v
    return {w: QQ(v) for w, v in out.items() if v}


# ---------------------------------------------------------------------------
# theta tables
# ---------------------------------------------------------------------------

def series_betas_filter(n, bound):
    """Every PSD half-integral beta with diagonal <= bound, in trace-then-lex
    order: each diagonal with every off-diagonal entry in its Cauchy-Schwarz
    range, kept when the whole matrix is PSD."""
    out = []
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for diag in itertools.product(range(bound + 1), repeat=n):
        ranges = [range(-math.isqrt(4 * diag[i] * diag[j]),
                        math.isqrt(4 * diag[i] * diag[j]) + 1) for i, j in pairs]
        for offs in itertools.product(*ranges):
            doubled = [[2 * diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
            for (i, j), v in zip(pairs, offs):
                doubled[i][j] = doubled[j][i] = v
            cand = BetaMatrix(doubled)
            if cand.is_psd():
                out.append(cand)
    out.sort(key=BetaMatrix.sort_key)
    return out


def _log_theta(a):
    """An upper bound on log sum_k e^{-a k^2}, a > 0.

    Below pi, Jacobi's theta(a) = sqrt(pi / a) theta(pi^2 / a) moves the
    argument to b >= pi, where the terms |k| >= 3 sum to at most
    2 e^{-9b} / (1 - e^{-7b}), as k^2 >= 9 + 7 (k - 3) for k >= 3.
    """
    scale = 0.0
    if a < math.pi:
        scale, a = 0.5 * math.log(math.pi / a), math.pi ** 2 / a
    tail = math.exp(-9 * a) / -math.expm1(-7 * a)
    return scale + math.log1p(2 * (math.exp(-a) + math.exp(-4 * a) + tail))


def masked_representations(lat, beta):
    """Every tuple (x_1..x_n) with (x_i, x_j) = 2 beta_{ij}, lexicographically
    ordered: a depth-first search over the sorted shells in which choosing
    x_t narrows each later shell k by the boolean mask shell_k G2 x_t =
    4 beta_tk, in int64 when the largest product fits and in Python ints
    otherwise."""
    n = beta.n
    if lat.coset_h is not None and len(lat.coset_h) != n:
        raise ValueError("coset shift count must match the genus")
    if any(beta.doubled[i][i] < 0 for i in range(n)):
        return []
    if n == 0:
        return [()]
    g2 = lat.gram2_rows
    shells = [lat.shell(beta.doubled[i][i], column=i) for i in range(n)]
    want = [[2 * v for v in row] for row in beta.doubled]
    biggest = max(int(np.abs(s).max(initial=0)) for s in shells)
    exact = exact_dtype(max(biggest * biggest * sum(abs(v) for row in g2 for v in row),
                            max(abs(v) for row in want for v in row)), g2)
    g2 = np.array(g2, dtype=exact)
    vecs = [s.astype(exact, copy=False) for s in shells]
    rows = [list(zip(*s.T.tolist())) for s in shells]
    out = []

    def extend(chosen, masks):
        # masks[j]: rows of shell k + j that pair correctly with all chosen
        k = len(chosen)
        hits = np.flatnonzero(masks[0]).tolist()
        if k == n - 1:
            out.extend(chosen + (rows[k][j],) for j in hits)
            return
        for j in hits:
            v = g2 @ vecs[k][j]
            later = [mask & (vecs[t] @ v == want[k][t])
                     for t, mask in enumerate(masks[1:], k + 1)]
            if all(mask.any() for mask in later):
                extend(chosen + (rows[k][j],), later)

    extend((), [np.ones(len(s), dtype=bool) for s in shells])
    return out


# ---------------------------------------------------------------------------
# shell enumeration
# ---------------------------------------------------------------------------

def inverse_radii(gram2, target):
    """floor(sqrt(target (gram2^{-1})_{ii})) through the rational inverse."""
    dual = inverse(gram2)
    out = []
    for i in range(gram2.nrows):
        r = QQ(target) * dual.entry(i, i)
        num, den = int(r.numerator), int(r.denominator)
        out.append(math.isqrt(num * den) // den)
    return out


def shell_vectors_box(gram2, target):
    """Brute-force oracle: exact dual-diagonal box, exhaustive scan."""
    m = gram2.nrows
    if target < 0:
        return np.zeros((0, m), dtype=np.int64)
    g2_int = integral_rows(gram2)
    hits = []
    for x in itertools.product(*[range(-r, r + 1)
                                 for r in inverse_radii(gram2, target)]):
        acc = 0
        for a in range(m):
            row = 0
            for b in range(m):
                row += g2_int[a][b] * x[b]
            acc += row * x[a]
        if acc == target:
            hits.append(x)
    out = np.array(sorted(hits), dtype=np.int64) if hits \
        else np.zeros((0, m), dtype=np.int64)
    return out


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def solve(mat, rhs):
    """Solve mat @ X = rhs for square nonsingular mat; rhs a RatMat."""
    return inverse(mat) @ rhs


def nullspace(mat):
    """Basis of the right kernel, one RatMat column per free variable."""
    rows = [dict(r) for r in mat.rows]
    pivots = _eliminate(rows, mat.ncols)
    pivot_set = set(pivots)
    free = [j for j in range(mat.ncols) if j not in pivot_set]
    basis = RatMat.zero(mat.ncols, len(free))
    for k, j in enumerate(free):
        basis.rows[j][k] = QQ(1)
        for r, pc in enumerate(pivots):
            v = rows[r].get(j)
            if v:
                basis.rows[pc][k] = -v
    return basis


# ---------------------------------------------------------------------------
# Schwartz forms
# ---------------------------------------------------------------------------

def phi_nq0(params):
    """The scalar-valued base form summed over all p^{nq} index tuples; a
    tuple that repeats a wedge generator gives zero."""
    p, q, n = params.p, params.q, params.n
    coeff = Scalar.two_pow_half(n * q) * MINUS_I_4PI ** (n * q)
    terms = {}
    for alphas in itertools.product(itertools.product(params.positive(), repeat=q), repeat=n):
        z = {}
        w = []
        for i in range(1, n + 1):
            for r in range(1, q + 1):
                a = alphas[i - 1][r - 1]
                z[(a, i)] = z.get((a, i), 0) + 1
                w.append((a, p + r))
        piece = MixedForm.monomial(params,
                                   z=[(idx, col, e) for (idx, col), e in z.items()],
                                   w=w, t=(), coeff=coeff)
        for key, c in piece.terms.items():
            _accum(terms, key, c)
    return MixedForm(params, terms)


def phi_0ell(params, word):
    """The tensor factor summed over all p^ell tuples of positive letters."""
    ell = len(word)
    coeff = MINUS_I_4PI ** ell
    terms = {}
    for beta in itertools.product(params.positive(), repeat=ell):
        z = {}
        for b, col in zip(beta, word):
            z[(b, col)] = z.get((b, col), 0) + 1
        piece = MixedForm.monomial(params,
                                   z=[(idx, col, e) for (idx, col), e in z.items()],
                                   w=(), t=beta, coeff=coeff)
        for key, c in piece.terms.items():
            _accum(terms, key, c)
    return MixedForm(params, terms)


# ---------------------------------------------------------------------------
# Fock-model operators, one term at a time
# ---------------------------------------------------------------------------
#
# Each *_terms(...) returns a rewriter (params, key, coeff) -> iterable of
# (key, coeff) that never yields a zero coefficient; lift turns it into the
# operator form -> MixedForm that adds every image through get/add/drop.

def lift(term_fn):
    def apply(form):
        params = form.params
        terms = {}
        get = terms.get
        for key, c in form.terms.items():
            for nkey, nc in term_fn(params, key, c):
                s = get(nkey)
                if s is None:
                    terms[nkey] = nc
                elif s := s + nc:
                    terms[nkey] = s
                else:
                    del terms[nkey]
        return MixedForm(params, terms)
    return apply


def z_mul_terms(idx, col=1):
    up = 1 << _offset(idx, col)
    def term(params, key, c):
        fock, wedge, word = key
        yield (_fock_times(fock, up), wedge, word), c
    return term


def z_del_terms(idx, col=1):
    off = _offset(idx, col)
    down = 1 << off
    def term(params, key, c):
        fock, wedge, word = key
        e = (fock >> off) & _FIELD
        if e:
            yield (fock - down, wedge, word), c.scale(e)
    return term


def wedge_left_terms(alpha, mu):
    bit = _gen_bit(alpha, mu)
    below = bit - 1
    def term(params, key, c):
        fock, wedge, word = key
        if not wedge & bit:
            yield (fock, wedge | bit, word), (-c if (wedge & below).bit_count() & 1 else c)
    return term


def interior_terms(alpha, mu):
    bit = _gen_bit(alpha, mu)
    below = bit - 1
    def term(params, key, c):
        fock, wedge, word = key
        if wedge & bit:
            yield (fock, wedge ^ bit, word), (-c if (wedge & below).bit_count() & 1 else c)
    return term


def _wedge_replace(key, c, moves):
    fock, wedge, word = key
    for old, new in moves:
        if wedge & old:
            rest = wedge ^ old
            if not rest & new:
                passed = (rest & ((old - 1) ^ (new - 1))).bit_count()
                yield (fock, rest | new, word), (-c if passed & 1 else c)


def deriv_pos_terms(alpha, beta):
    moves = [(_gen_bit(beta, mu), _gen_bit(alpha, mu)) for mu in range(1, _M + 1)]
    def term(params, key, c):
        yield from _wedge_replace(key, c, moves)
    return term


def deriv_neg_terms(mu, nu):
    moves = [(_gen_bit(a, nu), _gen_bit(a, mu)) for a in range(1, _M + 1)]
    def term(params, key, c):
        yield from _wedge_replace(key, c, moves)
    return term


def rho_x_terms(alpha, mu):
    def term(params, key, c):
        fock, wedge, word = key
        for s, letter in enumerate(word):
            if letter == alpha:
                yield (fock, wedge, word[:s] + (mu,) + word[s + 1:]), c
            elif letter == mu:
                yield (fock, wedge, word[:s] + (alpha,) + word[s + 1:]), c
    return term


def insert_letter_terms(j, letter):
    def term(params, key, c):
        fock, wedge, word = key
        if len(word) < j - 1:
            raise ValueError(f"slot {j} out of range for word of length {len(word)}")
        yield (fock, wedge, word[:j - 1] + (letter,) + word[j - 1:]), c
    return term


def _metric_letters(params, mode):
    if mode != "minus":
        for alpha in params.positive():
            yield alpha, 1
    if mode != "plus":
        sign = -1 if mode == "full" else 1
        for mu in params.negative():
            yield mu, sign


def insert_metric_terms(i, j, mode="full"):
    lo, hi = (i, j) if i < j else (j, i)
    def term(params, key, c):
        fock, wedge, word = key
        if len(word) < hi - 2:
            raise ValueError(f"positions ({i},{j}) out of range")
        for letter, sign in _metric_letters(params, mode):
            nw = insert_pair_word(word, lo, hi, letter, letter)
            yield (fock, wedge, nw), (c if sign > 0 else -c)
    return term


def tensor_permute_terms(perm):
    ell = len(perm)
    def term(params, key, c):
        fock, wedge, word = key
        if len(word) != ell:
            raise ValueError("permutation length does not match word")
        yield (fock, wedge, perm_act_word(perm, word)), c
    return term
