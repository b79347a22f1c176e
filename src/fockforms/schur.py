"""Young symmetrizers, semistandard counting, and harmonic projection.

Words of length ell over the alphabet 1..N index the tensor space; the
projector pi_lam for a partition lam is built from the row/column groups of
the row-major base tableau, rescaled to an exact idempotent.  The harmonic
complement removes the span of all metric insertions with respect to a
symmetric bilinear form, and pi_[lam] composes the two.
"""

from __future__ import annotations

import itertools

from fockforms.linalg import RatMat, inverse
from fockforms.scalars import QQ


# ---------------------------------------------------------------------------
# partitions and tableaux
# ---------------------------------------------------------------------------

def partitions_of(ell):
    """Weakly decreasing positive tuples summing to ell, lex-descending."""
    def rec(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in rec(rest - first, first):
                yield (first,) + tail
    return list(rec(ell, ell))


def conjugate(lam):
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > j) for j in range(lam[0]))


def hook_content_count(lam, n):
    """Number of semistandard fillings with entries <= n, by hooks and contents."""
    conj = conjugate(lam)
    num = 1
    den = 1
    for i, part in enumerate(lam):
        for j in range(part):
            num *= n + j - i
            den *= (part - j) + (conj[j] - i) - 1
    if num == 0:
        return 0
    count, rem = divmod(num, den)
    assert rem == 0
    return count


def ssyt_enumerate(lam, n):
    """All semistandard tableaux of shape lam, entries in 1..n, by direct search.

    Rows weakly increase left to right, columns strictly increase downward.
    """
    rows = len(lam)
    tableau = [[0] * part for part in lam]
    out = []

    def fill(i, j):
        if i == rows:
            out.append(tuple(tuple(r) for r in tableau))
            return
        ni, nj = (i, j + 1) if j + 1 < lam[i] else (i + 1, 0)
        lo = 1
        if j > 0:
            lo = max(lo, tableau[i][j - 1])
        if i > 0:
            lo = max(lo, tableau[i - 1][j] + 1)
        for v in range(lo, n + 1):
            tableau[i][j] = v
            fill(ni, nj)
        tableau[i][j] = 0

    if rows == 0:
        return [()]
    fill(0, 0)
    return out


def base_tableau(lam):
    """Row-major filling: row i holds consecutive labels."""
    rows = []
    nxt = 1
    for part in lam:
        rows.append(list(range(nxt, nxt + part)))
        nxt += part
    return rows


# ---------------------------------------------------------------------------
# permutations on positions and words
# ---------------------------------------------------------------------------

def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for s in range(len(perm)):
        if seen[s]:
            continue
        length = 0
        t = s
        while not seen[t]:
            seen[t] = True
            t = perm[t] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def perm_act_word(perm, word):
    # the letter in slot s lands in slot perm(s)
    out = [0] * len(word)
    for s, letter in enumerate(word):
        out[perm[s] - 1] = letter
    return tuple(out)


def _group_from_blocks(blocks, ell):
    """All permutations of 1..ell preserving each block setwise."""
    per_block = []
    for block in blocks:
        per_block.append([dict(zip(block, img)) for img in itertools.permutations(block)])
    group = []
    for choice in itertools.product(*per_block):
        perm = list(range(1, ell + 1))
        for mapping in choice:
            for src, dst in mapping.items():
                perm[src - 1] = dst
        group.append(tuple(perm))
    return group


def row_group(lam):
    ell = sum(lam)
    return _group_from_blocks(base_tableau(lam), ell)


def column_group(lam):
    ell = sum(lam)
    rows = base_tableau(lam)
    conj = conjugate(lam)
    cols = [[rows[i][j] for i in range(conj[j])] for j in range(len(conj))]
    return _group_from_blocks(cols, ell)


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


def perm_matrix(perm, alphabet):
    ell = len(perm)
    size = alphabet ** ell
    mat = RatMat.zero(size, size)
    for word in all_words(alphabet, ell):
        mat.rows[word_index(perm_act_word(perm, word), alphabet)][word_index(word, alphabet)] = QQ(1)
    return mat


def symmetrizer_pair(lam, alphabet):
    """(row average r, signed column average c) as word-space matrices."""
    ell = sum(lam)
    size = alphabet ** ell
    rg = row_group(lam)
    cg = column_group(lam)
    r = RatMat.zero(size, size)
    for perm in rg:
        r = r + perm_matrix(perm, alphabet)
    r = r.scale(QQ(1, len(rg)))
    c = RatMat.zero(size, size)
    for perm in cg:
        mat = perm_matrix(perm, alphabet)
        c = c + (mat if perm_sign(perm) > 0 else mat.scale(QQ(-1)))
    c = c.scale(QQ(1, len(cg)))
    return r, c


_KAPPA_CACHE = {}


def _kappa(lam):
    """Proportionality constant of the squared symmetrizer, alphabet-free."""
    if lam in _KAPPA_CACHE:
        return _KAPPA_CACHE[lam]
    alphabet = max(len(lam), 1)
    r, c = symmetrizer_pair(lam, alphabet)
    u = c @ r
    uu = u @ u
    kappa = None
    for i, row in enumerate(u.rows):
        for j, v in row.items():
            kappa = uu.entry(i, j) / v
            break
        if kappa is not None:
            break
    if kappa is None or kappa == 0:
        raise ValueError(f"degenerate symmetrizer for shape {lam}")
    if uu != u.scale(kappa):
        raise ValueError(f"symmetrizer square not proportional for shape {lam}")
    _KAPPA_CACHE[lam] = kappa
    return kappa


def young_projector(lam, alphabet):
    """The exact idempotent projecting words onto the lam-isotypic image."""
    r, c = symmetrizer_pair(lam, alphabet)
    u = c @ r
    kappa = _kappa(lam)
    pi = u.scale(1 / kappa)
    return pi


# ---------------------------------------------------------------------------
# metric insertions and the harmonic complement
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


def pair_positions(ell):
    return [(i, j) for i in range(1, ell + 1) for j in range(i + 1, ell + 1)]


def insert_pair_word(word, i, j, a, b):
    # a lands at result slot i, b at result slot j, i < j
    return word[:i - 1] + (a,) + word[i - 1:j - 2] + (b,) + word[j - 2:]


def remove_pair_word(word, i, j):
    return word[:i - 1] + word[i:j - 1] + word[j:]


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


def schur_harmonic_projector(lam, b1):
    """Harmonic complement composed with the shape projector."""
    ell = sum(lam)
    return harmonic_complement(b1, ell) @ young_projector(lam, b1.nrows)


def matrix_to_word_map(mat, alphabet, ell):
    """Column-indexed dict form used to push a word matrix through a tensor slot."""
    words = all_words(alphabet, ell)
    by_index = {word_index(w, alphabet): w for w in words}
    out = {}
    for w in words:
        col = word_index(w, alphabet)
        entry = {}
        for row_idx, row in enumerate(mat.rows):
            v = row.get(col)
            if v:
                entry[by_index[row_idx]] = v
        out[w] = entry
    return out


# ---------------------------------------------------------------------------
# vector-level machinery for large alphabets
# ---------------------------------------------------------------------------

def young_apply_vec(lam, vec):
    """Apply the shape projector to a dict word -> QQ without forming matrices."""
    kappa = _kappa(lam)
    rg = row_group(lam)
    cg = column_group(lam)
    mid = {}
    for perm in rg:
        for w, v in vec.items():
            nw = perm_act_word(perm, w)
            s = mid.get(nw, QQ(0)) + v
            if s == 0:
                mid.pop(nw, None)
            else:
                mid[nw] = s
    out = {}
    scale = 1 / (kappa * len(rg) * len(cg))
    for perm in cg:
        sgn = perm_sign(perm)
        for w, v in mid.items():
            nw = perm_act_word(perm, w)
            s = out.get(nw, QQ(0)) + (v if sgn > 0 else -v)
            if s == 0:
                out.pop(nw, None)
            else:
                out[nw] = s
    return {w: v * scale for w, v in out.items() if v * scale != 0}


def contract_vec(vec, b1_rows, i, j):
    """Pair slots i < j of a dict tensor with the form given as nested lists."""
    out = {}
    for w, v in vec.items():
        f = b1_rows[w[i - 1] - 1][w[j - 1] - 1]
        if f == 0:
            continue
        nw = remove_pair_word(w, i, j)
        s = out.get(nw, QQ(0)) + v * f
        if s == 0:
            out.pop(nw, None)
        else:
            out[nw] = s
    return out


def _sym_insert(g_rows, u, ell, alphabet):
    """Symmetrized placement of the dual form against a lower tensor.

    For ell = 2 u is the scalar 1 slot count taken as u[()]; for ell = 3 u is a
    1-tensor, for ell = 4 a symmetric 2-tensor.  Returns sum over slot pairs of
    g at the pair times u at the rest.
    """
    out = {}
    for i, j in pair_positions(ell):
        for w_rest, uv in u.items():
            for a in range(1, alphabet + 1):
                for b in range(1, alphabet + 1):
                    g = g_rows[a - 1][b - 1]
                    if g == 0:
                        continue
                    w = insert_pair_word(w_rest, i, j, a, b)
                    s = out.get(w, QQ(0)) + g * uv
                    if s == 0:
                        out.pop(w, None)
                    else:
                        out[w] = s
    return out


def harmonic_project_symmetric(vec, b1_rows, g_rows, ell, alphabet):
    """Closed-form harmonic part of a symmetric tensor, degrees up to 4.

    Solves h = w - (symmetrized g insertions) with all pair contractions of h
    zero; the inserted cotensors come out of one or two trace equations.
    """
    if ell <= 1:
        return dict(vec)
    n = alphabet
    if ell == 2:
        tr = QQ(0)
        for w, v in vec.items():
            tr += b1_rows[w[0] - 1][w[1] - 1] * v
        c = tr / n
        out = dict(vec)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                g = g_rows[a - 1][b - 1]
                if g == 0:
                    continue
                w = (a, b)
                s = out.get(w, QQ(0)) - c * g
                if s == 0:
                    out.pop(w, None)
                else:
                    out[w] = s
        return out
    if ell == 3:
        s1 = contract_vec(vec, b1_rows, 1, 2)
        u = {w: v / (n + 2) for w, v in s1.items()}
        ins = _sym_insert(g_rows, u, 3, n)
        return _vec_sub(vec, ins)
    if ell == 4:
        s = contract_vec(vec, b1_rows, 1, 2)
        tr_s = QQ(0)
        for w, v in s.items():
            tr_s += b1_rows[w[0] - 1][w[1] - 1] * v
        tr_u = tr_s / (2 * n + 4)
        u = dict(s)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                g = g_rows[a - 1][b - 1]
                if g == 0:
                    continue
                w = (a, b)
                val = u.get(w, QQ(0)) - g * tr_u
                if val == 0:
                    u.pop(w, None)
                else:
                    u[w] = val
        u = {w: v / (n + 4) for w, v in u.items()}
        ins = _sym_insert(g_rows, u, 4, n)
        return _vec_sub(vec, ins)
    raise NotImplementedError("closed-form harmonic projection stops at degree 4")


def _vec_sub(a, b):
    out = dict(a)
    for w, v in b.items():
        s = out.get(w, QQ(0)) - v
        if s == 0:
            out.pop(w, None)
        else:
            out[w] = s
    return out


def harmonic_project_vec(vec, b1, lam):
    """pi_[lam] on a dict tensor: shape projection, then trace removal.

    Symmetric single-row shapes take the closed-form path; other shapes fall
    back to the matrix construction, which is only viable for moderate
    alphabet ** ell.
    """
    ell = sum(lam)
    alphabet = b1.nrows
    closed_form = len(lam) == 1 and ell <= 4
    if not closed_form and alphabet ** ell > 1500:
        raise ValueError("tensor space too large for the matrix path")
    shaped = young_apply_vec(lam, vec) if len(lam) > 1 or ell > 1 else dict(vec)
    if ell < 2:
        return shaped
    b1_rows = [[b1.entry(i, j) for j in range(alphabet)] for i in range(alphabet)]
    if closed_form:
        g = inverse(b1)
        g_rows = [[g.entry(i, j) for j in range(alphabet)] for i in range(alphabet)]
        out = harmonic_project_symmetric(shaped, b1_rows, g_rows, ell, alphabet)
    else:
        h = harmonic_complement(b1, ell)
        out = {}
        by_index = {}
        for w, v in shaped.items():
            by_index[word_index(w, alphabet)] = (w, v)
        col = {idx: v for idx, (w, v) in by_index.items()}
        res = h.apply(col)
        words = all_words(alphabet, ell)
        for idx, v in res.items():
            out[words[idx]] = v
    for i, j in pair_positions(ell):
        leftover = contract_vec(out, b1_rows, i, j)
        assert not leftover, f"trace survived harmonic projection at slots ({i},{j})"
    return out
