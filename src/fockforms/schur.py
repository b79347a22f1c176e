"""Young symmetrizers, semistandard counting, and the Brauer eigenvalues of
harmonic projection.

Words of length ell over the alphabet 1..N index the tensor space; a tensor
is a dict word -> value, the value a QQ or a Scalar (or an int, for the Young
step of theta's payloads).

* young_apply_vec(lam, vec) is the one Young projector pi_lam: the row
  average of the row-major base tableau, then the signed column average,
  rescaled by kappa = prod hooks / (prod lam_i! prod lam'_j!) to an exact
  idempotent.  The averages and kappa together scale the plain sums by
  1 / prod hooks.  The row sum is taken one row orbit at a time, in time
  linear in its output.  It serves both layers: theta applies it to the
  payloads' integer numerators and harmonic_apply_vec to the forms' output
  words.
* omega_eigenvalues(lam, n) lists the factors of the harmonic projector
  pi_[lam], which takes a lam-isotypic tensor to its traceless part for a
  symmetric bilinear form b1.  Let C_ij contract slots i < j with b1 and
  E_ij insert g = b1^-1 there, and Omega = sum E_ij C_ij.  Omega is
  self-adjoint for the product form and its kernel is the traceless
  tensors.  On the copy of g^k (x) [mu] inside the lam-isotypic tensors, for
  mu contained in lam with |lam| - |mu| = 2k, it acts by

      c = cont(lam) - cont(mu) + k (n - 1),

  where cont sums column - row over the boxes and n = dim V.  These are
  eigenvalues of Jucys-Murphy elements of the Brauer algebra (Nazarov,
  J. Algebra 182, 1996); for lam = (ell) they give the classical expansion of
  the harmonic part as sum_j c_j |x|^2j Delta^j (Axler, Bourdon & Ramey,
  Harmonic Function Theory, ch. 5).  Every copy that occurs has c > 0 (for
  a definite form Omega is positive semidefinite, and c does not depend on the
  form), so prod (1 - Omega / c) over the distinct positive c is pi_[lam],
  the form-orthogonal projection onto the traceless tensors.  theta applies
  this product to integer moment arrays.
* harmonic_apply_vec(lam, vec, b1_rows, dual_rows) is pi_[lam] pi_lam on a
  dict tensor: young_apply_vec, then the product above, with Omega built
  from contract_vec and insert_pair_word.  forms.output_projector applies it
  to the words of each (fock, wedge) part of a MixedForm.
* assert_traceless(vec, b1_rows, ell) is the exit check of harmonic
  projection on a dict tensor: every slot-pair contraction is zero.

young_projector is the matrix of young_apply_vec on the basis words.
"""

from __future__ import annotations

import bisect
import itertools
import math

from fockforms.rational import QQ, _accum


# ---------------------------------------------------------------------------
# partitions and tableaux
# ---------------------------------------------------------------------------

def partitions_of(ell):
    """Weakly decreasing positive tuples summing to ell, lex-descending."""
    return list(_partitions(ell, ell))


def _partitions(rest, cap):
    """partitions_of(rest) with every part at most cap, as a generator."""
    if rest == 0:
        yield ()
        return
    for first in range(min(rest, cap), 0, -1):
        for tail in _partitions(rest - first, first):
            yield (first,) + tail


def conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))


def _content(lam):
    """Sum of column - row over the boxes of lam."""
    return sum(j - i for i, part in enumerate(lam) for j in range(part))


def hook_product(lam):
    conj = conjugate(lam)
    out = 1
    for i, part in enumerate(lam):
        for j in range(part):
            out *= (part - j) + (conj[j] - i) - 1
    return out


def hook_content_count(lam, n):
    """Number of semistandard fillings with entries <= n, by hooks and contents."""
    num = 1
    for i, part in enumerate(lam):
        for j in range(part):
            num *= n + j - i
    if num == 0:
        return 0
    count, rem = divmod(num, hook_product(lam))
    if rem:
        raise ArithmeticError(f"the hook product of {lam} does not divide {num}")
    return count


def ssyt_enumerate(lam, n):
    """All semistandard tableaux of shape lam, entries in 1..n, by direct search.

    Rows weakly increase left to right, columns strictly increase downward.
    """
    return list(_fillings(lam, n, [[0] * part for part in lam], 0, 0))


def _fillings(lam, n, tableau, i, j):
    """The semistandard completions of tableau from box (i, j) on, in
    row-major order; each box is bounded below by its left and upper
    neighbours, which are filled before it."""
    if i == len(lam):
        yield tuple(map(tuple, tableau))
        return
    ni, nj = (i, j + 1) if j + 1 < lam[i] else (i + 1, 0)
    lo = max(tableau[i][j - 1] if j else 1, tableau[i - 1][j] + 1 if i else 1)
    for v in range(lo, n + 1):
        tableau[i][j] = v
        yield from _fillings(lam, n, tableau, ni, nj)


# ---------------------------------------------------------------------------
# permutations on positions and words
# ---------------------------------------------------------------------------

def _sort_with_sign(gens):
    """Sort a generator tuple, tracking the sign of the permutation; None on repeat."""
    sign = 1
    out = []
    for gen in gens:
        if not out or out[-1] < gen:
            out.append(gen)
            continue
        pos = bisect.bisect_left(out, gen)
        if out[pos] == gen:
            return None
        if (len(out) - pos) % 2:
            sign = -sign
        out.insert(pos, gen)
    return sign, tuple(out)


def perm_act_word(perm, word):
    # the letter in slot s lands in slot perm(s)
    out = [0] * len(word)
    for s, letter in enumerate(word):
        out[perm[s] - 1] = letter
    return tuple(out)


def _signed_column_group(lam):
    """(sign, perm) for each permutation of 1..|lam| that keeps every column
    of the row-major tableau of shape lam setwise; the sign is the product of
    the columns' signs."""
    starts = list(itertools.accumulate(lam, initial=1))
    cols = [[starts[i] + j for i in range(height)]
            for j, height in enumerate(conjugate(lam))]
    per_col = [[(_sort_with_sign(img)[0], img) for img in itertools.permutations(col)]
               for col in cols]
    for choice in itertools.product(*per_col):
        sign = 1
        perm = list(range(1, sum(lam) + 1))
        for col, (col_sign, img) in zip(cols, choice):
            sign *= col_sign
            for src, dst in zip(col, img):
                perm[src - 1] = dst
        yield sign, tuple(perm)


# ---------------------------------------------------------------------------
# word bases
# ---------------------------------------------------------------------------

def all_words(alphabet, ell):
    return list(itertools.product(range(1, alphabet + 1), repeat=ell))


def word_index(word, alphabet):
    idx = 0
    for letter in word:
        idx = idx * alphabet + (letter - 1)
    return idx


# ---------------------------------------------------------------------------
# the Young projector
# ---------------------------------------------------------------------------

def _arrangements(letters):
    """The distinct orderings of a sorted tuple of letters, each once."""
    if not letters:
        yield ()
        return
    for k, a in enumerate(letters):
        if k and letters[k - 1] == a:
            continue
        for tail in _arrangements(letters[:k] + letters[k + 1:]):
            yield (a,) + tail


def young_apply_vec(lam, vec):
    """pi_lam on a dict word -> int, QQ or Scalar: the row sum, then the
    signed column sum, divided by prod hooks = kappa |R| |C|.

    The row sum goes one row orbit at a time: as r runs over R, r w runs over
    the orbit of w, |Stab(w)| times each.  So every orbit, keyed by its
    row-sorted word, collects v |Stab(w)| from each of its input words, and
    that total lands on each distinct word of the orbit.
    """
    bounds = list(itertools.accumulate(lam, initial=0))
    blocks = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    orbits = {}
    for w, v in vec.items():
        key = tuple(tuple(sorted(w[b])) for b in blocks)
        stab = 1
        for row in key:
            for _, run in itertools.groupby(row):
                stab *= math.factorial(len(list(run)))
        _accum(orbits, key, v * stab)
    mid = {}
    for key, v in orbits.items():
        for rows in itertools.product(*(list(_arrangements(row)) for row in key)):
            mid[sum(rows, ())] = v
    out = {}
    scale = QQ(1, hook_product(lam))
    for sgn, perm in _signed_column_group(lam):
        for w, v in mid.items():
            _accum(out, perm_act_word(perm, w), v if sgn > 0 else -v)
    return {w: v * scale for w, v in out.items()}


def young_projector(lam, alphabet):
    """The matrix of young_apply_vec on the basis words."""
    from fockforms.linalg import RatMat

    ell = sum(lam)
    mat = RatMat.zero(alphabet ** ell, alphabet ** ell)
    for word in all_words(alphabet, ell):
        col = word_index(word, alphabet)
        for target, v in young_apply_vec(lam, {word: QQ(1)}).items():
            mat.rows[word_index(target, alphabet)][col] = v
    return mat


# ---------------------------------------------------------------------------
# slot pairs and the harmonic projector's eigenvalues
# ---------------------------------------------------------------------------

def pair_positions(ell):
    return [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]


def insert_pair_word(word, i, j, a, b):
    # a lands at result slot i, b at result slot j, i < j
    return word[:i - 1] + (a,) + word[i - 1:j - 2] + (b,) + word[j - 2:]


def remove_pair_word(word, i, j):
    return word[:i - 1] + word[i:j - 1] + word[j:]


def contract_vec(vec, b1_rows, i, j):
    """Pair slots i < j of a dict tensor with the form given as nested lists."""
    out = {}
    for w, v in vec.items():
        f = b1_rows[w[i - 1] - 1][w[j - 1] - 1]
        if f == 0:
            continue
        _accum(out, remove_pair_word(w, i, j), v * f)
    return out


def omega_eigenvalues(lam, n):
    """The distinct positive eigenvalues of Omega on lam-isotypic tensors."""
    ell = sum(lam)
    cont = _content(lam)
    values = set()
    for k in range(1, ell // 2 + 1):
        for mu in partitions_of(ell - 2 * k):
            if len(mu) <= len(lam) and all(a <= b for a, b in zip(mu, lam)):
                c = cont - _content(mu) + k * (n - 1)
                if c > 0:
                    values.add(c)
    return sorted(values)


def harmonic_apply_vec(lam, vec, b1_rows, dual_rows):
    """pi_[lam] pi_lam on a dict word -> QQ or Scalar, for the symmetric form
    b1_rows and its inverse dual_rows (nested lists): young_apply_vec, then
    vec <- vec - Omega vec / c for each c of omega_eigenvalues, with
    Omega = sum_{i<j} E_ij(dual) C_ij(b1), then the trace check.  Omega
    commutes with the slot permutations, so either order gives the same
    values; the Young step goes first because its image is smaller."""
    ell = sum(lam)
    dual = [(a, b, g) for a, row in enumerate(dual_rows, 1)
            for b, g in enumerate(row, 1) if g]
    vec = young_apply_vec(lam, vec)
    for c in omega_eigenvalues(lam, len(b1_rows)):
        omega = {}
        for i, j in pair_positions(ell):
            for rest, u in contract_vec(vec, b1_rows, i, j).items():
                for a, b, g in dual:
                    _accum(omega, insert_pair_word(rest, i, j, a, b), u * g)
        step = QQ(-1, c)
        for w, v in omega.items():
            _accum(vec, w, v * step)
    assert_traceless(vec, b1_rows, ell)
    return vec


def assert_traceless(vec, b1_rows, ell):
    """The exit check of harmonic projection: every slot-pair contraction of
    vec with the form b1_rows (nested lists) is zero."""
    for i, j in pair_positions(ell):
        if contract_vec(vec, b1_rows, i, j):
            raise ArithmeticError(f"trace survived harmonic projection at slots ({i},{j})")
