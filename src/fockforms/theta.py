"""Genus-n representation numbers and Schur-valued payloads for definite
integral lattices.

Conventions: the gram G pairs coordinate vectors by (x, y) = x^T G y; a
coefficient matrix beta records half norms, (x_i, x_j) = 2 beta_{ij}, so
diagonal entries are integers and off-diagonal entries half-integers.  All
arithmetic on betas and payloads is exact.
"""

from __future__ import annotations

import functools
import itertools
import json
import math

import numpy as np

from fockforms.enumeration import _ldl, exact_dtype, gram_dual, shell_vectors, symmetric_pivots
from fockforms.rational import QQ
from fockforms.workers import ordered_map

# largest rank a lattice document may have; it is refused before any
# arithmetic, since validating and enumerating cost time cubic in the rank
MAX_RANK = 128


class Lattice:
    """Positive definite integral lattice, optionally with a coset shift."""

    def __init__(self, gram, coset_h=None, modulus=None):
        if not len(gram):
            raise ValueError("gram must be non-empty")
        self.gram2_rows = BetaMatrix.from_entries(gram).doubled
        self.rank = m = len(gram)
        _ldl(self.gram2_rows, 1)  # positive definite or ValueError; shared by the shells
        if (coset_h is None) != (modulus is None):
            raise ValueError("coset needs both shift vectors and modulus")
        if coset_h is not None:
            modulus = int(modulus)
            if modulus < 1:
                raise ValueError("modulus must be a positive integer")
            shifts = tuple(tuple(int(v) % modulus for v in h) for h in coset_h)
            if any(len(h) != m for h in shifts):
                raise ValueError("coset shift length must match the rank")
            self.coset_h = shifts
            self.modulus = modulus
        else:
            self.coset_h = None
            self.modulus = None
        self._shell_cache = {}

    @staticmethod
    def from_json(data):
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ValueError("a lattice document must be a JSON object")
        if data.get("field", "Q") not in ("Q", "QQ"):
            raise ValueError("only rational lattices are supported")
        rows = data.get("gram")
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("gram must be a list of rows")
        if len(rows) > MAX_RANK:
            raise ValueError(f"gram has rank {len(rows)}; the cap is {MAX_RANK}")
        coset = data.get("coset")
        if coset is None:
            return Lattice(rows)
        shifts = coset.get("h") if isinstance(coset, dict) else None
        if (not isinstance(shifts, list)
                or not all(isinstance(h, list) and all(type(v) is int for v in h)
                           for h in shifts)
                or type(coset.get("modulus")) is not int):
            raise ValueError("coset must be an object with a list of shift "
                             "vectors h and an integer modulus")
        return Lattice(rows, coset_h=shifts, modulus=coset["modulus"])

    @staticmethod
    def load(path):
        with open(path, "r", encoding="utf-8") as fh:
            return Lattice.from_json(json.load(fh))

    def shell(self, norm2, column=0):
        """Integer vectors with (x, x) = norm2 in the column's coset.

        norm2 is the doubled beta diagonal entry; result rows are sorted.
        """
        key = (norm2, column if self.coset_h is not None else 0)
        cached = self._shell_cache.get(key)
        if cached is not None:
            return cached
        raw = shell_vectors(self.gram2_rows, 2 * norm2)
        if self.coset_h is not None:
            h = self.coset_h[column]
            b = self.modulus
            keep = np.all(raw % b == np.array(h, dtype=np.int64), axis=1)
            raw = raw[keep]
        raw.setflags(write=False)
        self._shell_cache[key] = raw
        return raw


def _parse_entry(v):
    # accepts ints, "a/b" strings, and floats (half-integers are exact in binary)
    if isinstance(v, bool):
        raise ValueError(f"entry {v!r} is not a number")
    try:
        if isinstance(v, str):
            num, _, den = v.partition("/")
            return QQ(int(num), int(den or 1))
        return QQ(v)
    except (TypeError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"entry {v!r} is not a finite number") from exc


class BetaMatrix:
    """Symmetric half-integral coefficient index; stored as doubled integers."""

    def __init__(self, doubled):
        rows = [list(map(int, r)) for r in doubled]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        for i in range(n):
            if rows[i][i] % 2:
                raise ValueError("matrix diagonal must be integral")
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("matrix must be symmetric")
        self.doubled = tuple(tuple(r) for r in rows)
        self.n = n

    @staticmethod
    def from_entries(entries):
        doubled = []
        for row in entries:
            vals = [QQ(2) * _parse_entry(v) for v in row]
            if any(v.denominator != 1 for v in vals):
                raise ValueError("entries must be half-integral")
            doubled.append([int(v) for v in vals])
        return BetaMatrix(doubled)

    @staticmethod
    def diagonal(values):
        n = len(values)
        return BetaMatrix([[2 * values[i] if i == j else 0 for j in range(n)]
                           for i in range(n)])

    def entry(self, i, j):
        return QQ(self.doubled[i][j], 2)

    def trace(self):
        return sum(self.doubled[i][i] for i in range(self.n)) // 2

    def is_psd(self):
        return symmetric_pivots(self.doubled) is not None

    def rank(self):
        found = symmetric_pivots(self.doubled)
        if found is None:
            raise ValueError("beta is not positive semidefinite")
        return sum(1 for p in found[0] if p)

    def sort_key(self):
        return (self.trace(),) + tuple(itertools.chain.from_iterable(self.doubled))

    def to_json(self):
        return [[_emit_rational(self.entry(i, j)) for j in range(self.n)]
                for i in range(self.n)]

    def __eq__(self, other):
        return isinstance(other, BetaMatrix) and self.doubled == other.doubled

    def __hash__(self):
        return hash(self.doubled)

    def __repr__(self):
        return f"BetaMatrix({self.doubled})"


def _emit_rational(r):
    if r.denominator == 1:
        return int(r)
    return float(r)  # half-integers are exact in binary


# ---------------------------------------------------------------------------
# representation enumeration
# ---------------------------------------------------------------------------

def _beta_windows(beta):
    """beta's half diagonal, and the windows of width one at its entries."""
    return ([row[i] // 2 for i, row in enumerate(beta.doubled)],
            [(beta.doubled[i][j], 1) for i, j in itertools.combinations(range(beta.n), 2)])


def count_representations(lat, diag, windows=None):
    """The nonzero representation numbers of every beta with diagonal diag and
    each 2 beta_ij, i < j, in its window (low, width), as a dict BetaMatrix ->
    count.  With no windows, those of Cauchy-Schwarz: 2 beta_ij = (x_i, x_j)
    lies in [-t, t], t = isqrt(4 d_i d_j).  _search runs in the windows and
    np.bincount counts its indices.  ValueError when the table would pass
    BIN_TABLE betas; the windows of _beta_windows(beta) hold beta alone."""
    n = len(diag)
    pairs = list(itertools.combinations(range(n), 2))
    if windows is None:
        windows = [(-t, 2 * t + 1)
                   for t in (math.isqrt(max(4 * diag[i] * diag[j], 0)) for i, j in pairs)]
    shape = [width for _, width in windows]
    total = math.prod(shape)
    if total > BIN_TABLE:
        raise ValueError(f"the diagonal {tuple(diag)} has {total} betas; "
                         f"the table cap is {BIN_TABLE}")
    counts = np.zeros(total, dtype=np.int64)
    for index, *_ in _search(lat, diag, windows):
        counts += np.bincount(index.ravel(), minlength=total)[:total]
    found = {}
    for flat in np.flatnonzero(counts).tolist():
        doubled = [[2 * diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), (low, _), v in zip(pairs, windows, np.unravel_index(flat, shape)):
            doubled[i][j] = doubled[j][i] = low + int(v)
        found[BetaMatrix(doubled)] = int(counts[flat])
    return found


# entries of one index block the search yields, and of the largest table of
# betas and last-pair block kept whole; they bound the search's memory
BIN_ENTRIES = 2 ** 16
BIN_TABLE = 2 ** 20


def _search(lat, diag, windows):
    """Tuples (x_1..x_n), x_i in column i's shell of norm 2 diag[i], with each
    (x_i, x_j), i < j, in its window (low, width).  A tuple's entries form a
    mixed-radix index below total = prod(widths), or at least total if one
    leaves its window or a pairing x^T G2 y = 2 (x, y) is odd.  Depth first
    over the first n - 2 vectors, each adding its shares to the later shells'
    rows (_descend); yields blocks (index, path, a, b), the indices of the
    rows a and columns b of the last two shells still inside every window, at
    most BIN_ENTRIES at a time, in lexicographic order.  The last pair's block
    is formed once if n > 2 and it has at most BIN_TABLE entries, else per
    block.  Exact: int64 when the largest pairing fits, else Python ints.
    The shells are _shells's, so n < 2 pads in front with zero vectors."""
    shells = _shells(lat, diag)
    if not all(len(s) for s in shells):
        return
    n, windows = len(shells), list(windows) or [(0, 1)]
    total = stride = math.prod(width for _, width in windows)
    spans = {}  # per pair: a table of index shares by doubled offset 2 (entry - low),
    for pair, (low, width) in zip(itertools.combinations(range(n), 2), windows):
        stride //= width  # total at odd offsets and past the window; -1 reads its end
        lut = np.full(2 * width + 2, total, dtype=np.int64)
        lut[:2 * width:2] = np.arange(width) * stride
        spans[pair] = lut, 2 * low, 2 * width
    g2, biggest = lat.gram2_rows, max(int(np.abs(s).max()) for s in shells)
    exact = exact_dtype(biggest * biggest * sum(abs(v) for row in g2 for v in row)
                        + max(2 * abs(low) + 2 * width for low, width in windows), g2)
    g2 = np.array(g2, dtype=exact)
    vecs = [s.astype(exact, copy=False) for s in shells]
    dual = [v @ g2 for v in vecs[:-1]]  # the rows G2 x, as G2 is symmetric
    whole = (_shares(dual[-1] @ vecs[-1].T, spans[n - 2, n - 1])  # read by several blocks
             if n > 2 and len(vecs[-2]) * len(vecs[-1]) <= BIN_TABLE else None)
    yield from _descend(vecs, dual, spans, total, whole, (), 0,
                        [np.zeros(len(s), dtype=np.int64) for s in shells])


def _shells(lat, diag):
    """Column i's shell of norm 2 diag[i] for each i (empty when diag[i] < 0),
    padded in front with the zero vector to at least two shells."""
    if lat.coset_h is not None and len(lat.coset_h) != len(diag):
        raise ValueError("coset shift count must match the genus")
    return [np.zeros((1, lat.rank), dtype=np.int64)] * (2 - len(diag)) + [
        lat.shell(2 * d, column=i) for i, d in enumerate(diag)]


def _shares(pairings, span):
    """Each tuple's index share from its pairings (a fresh product, which is
    overwritten) by the pair's span (lut, 2 low, 2 width) of _search."""
    lut, low2, top = span
    pairings -= low2
    np.minimum(np.maximum(pairings, -1, out=pairings), top, out=pairings)
    return lut.take(pairings.astype(np.int64, copy=False))


def _descend(vecs, dual, spans, total, whole, path, base, parts):
    """_search's blocks below the chosen rows path, whose shares sum to base;
    parts[t] holds the index shares of shell k + t's rows against path, and a
    row below total is still inside every window."""
    n, k = len(vecs), len(path)
    if k < n - 2:
        for j in np.flatnonzero(parts[0] < total).tolist():
            later = [part + _shares(vecs[t] @ dual[k][j], spans[k, t])
                     for t, part in enumerate(parts[1:], k + 1)]
            yield from _descend(vecs, dual, spans, total, whole, path + (j,),
                                base + int(parts[0][j]), later)
        return
    a, b = (np.flatnonzero(part < total) for part in parts)
    pa, pb = parts[0][a], parts[1][b]
    near = (whole if whole is None or len(a) * len(b) == whole.size  # on rows a, cols b
            else whole.take(a, 0).take(b, 1))
    cols = max(1, min(len(b), BIN_ENTRIES))
    step = max(1, BIN_ENTRIES // cols)
    for r0 in range(0, len(a), step):
        for c0 in range(0, len(b), cols):
            ra, cb = a[r0:r0 + step], b[c0:c0 + cols]
            block = (near[r0:r0 + step, c0:c0 + cols] if near is not None
                     else _shares(dual[-1][ra] @ vecs[-1][cb].T, spans[n - 2, n - 1]))
            yield (block + (base + pa[r0:r0 + step])[:, None] + pb[c0:c0 + cols],
                   path, ra, cb)


# ---------------------------------------------------------------------------
# payload assembly
# ---------------------------------------------------------------------------

class GenusCoefficient:
    def __init__(self, beta, count, payload=None):
        self.beta, self.count = beta, count
        self.payload = {} if payload is None else payload

    @property
    def rank_t(self):
        return self.beta.rank()

    def to_json(self):
        payload = {key: [[list(word), [int(c.numerator), int(c.denominator)]]
                         for word, c in sorted(terms.items())]
                   for key, terms in sorted(self.payload.items())}
        return {
            "beta": self.beta.to_json(),
            "rank": self.rank_t,
            "count": self.count,
            "payload": payload,
        }


def filling_key(filling):
    return "|".join(",".join(str(v) for v in row) for row in filling)


def _column_major_values(lam, filling):
    return [filling[r][c] for c in range(lam[0]) for r in range(len(lam)) if lam[r] > c]


def _nonzero_terms(arr):
    """The nonzero entries of an integer array as a dict word -> Python int,
    with letters counted from 1."""
    idx = np.nonzero(arr)
    return dict(zip(map(tuple, (np.transpose(idx) + 1).tolist()), arr[idx].tolist()))


# entries of one operand of the moment matmul, and of the sorted-monomial
# sums one pass of _moments holds; they bound the payload's memory
MOMENT_ENTRIES, MOMENT_TOTAL = 2 ** 14, 2 ** 20


def _moments(lat, beta, slot_lists):
    """beta's tuple count, and per slot list (the column each slot reads,
    from 1) the (m,)*ell sum over beta's tuples of the outer product of those
    columns.  One pass of _search sums, per degrees (the slots reading each
    shell), the product over the shells of F^k(x), x's monomials on sorted
    k-tuples: a block with hits H = [index == 0] on rows a, columns b of the
    last two shells adds F(path rows) (x) F_a^T H F_b, each factor formed
    once per degree.  Exact: int64 if prod |shell| max|x| ** ell fits, else
    Python ints."""
    (diag, windows), m = _beta_windows(beta), lat.rank
    shells, count = _shells(lat, diag), 0
    biggest = max(int(np.abs(s).max(initial=0)) for s in shells)
    exact = exact_dtype(math.prod(map(len, shells)) * biggest ** len(slot_lists[0]))
    vecs = [s.astype(exact, copy=False) for s in shells]
    columns = range(beta.n + 1 - len(shells), beta.n + 1)  # the one shell t reads
    degrees = [tuple(map(slots.count, columns)) for slots in slot_lists]
    sums = {d: np.zeros(math.prod(math.comb(m + k - 1, k) for k in d), dtype=exact)
            for d in degrees}
    for index, path, a, b in _search(lat, diag, windows):
        hits = (index == 0).astype(exact)
        if hits.any():  # else the block adds nothing
            count += int(np.count_nonzero(hits))
            rows = {(t, d[t]): _monomials(vecs[t][j:j + 1], d[t])[0]
                    for d in sums for t, j in enumerate(path) if d[t]}
            xa, xb = vecs[-2][a], vecs[-1][b]
            pairs = {p: _last_pair(hits, xa, xb, *p) for p in {d[-2:] for d in sums}}
            for d, total in sums.items():
                total += functools.reduce(np.multiply.outer, [
                    *(rows[t, k] for t, k in enumerate(d[:-2]) if k), pairs[d[-2:]]]).ravel()
    # the layout is cached per pattern of groups, whatever columns they read
    return count, (sums[d][_symmetric_layout(m, tuple(
        tuple(s for s, c in enumerate(slots) if c == col) for col in sorted(set(slots))))]
        .reshape((m,) * len(slots)) for d, slots in zip(degrees, slot_lists))


def _last_pair(hits, xa, xb, ka, kb):
    """F^ka(xa)^T hits F^kb(xb), by MOMENT_ENTRIES-entry matmuls of each
    row's (kb - 1)-tuples and its weights times its letters."""
    weights, block = hits.T @ _monomials(xa, ka), 0
    cols = xb if kb else np.ones((len(xb), 1), dtype=xb.dtype)  # the empty tuple
    parent, letter = _chain(cols.shape[1], max(kb, 1))[-1]
    step = max(1, MOMENT_ENTRIES // max(parent[-1] + 1, weights.shape[1] * cols.shape[1]))
    for r0 in range(0, len(cols), step):
        part = cols[r0:r0 + step]
        right = (weights[r0:r0 + step, :, None] * part[:, None, :]).reshape(len(part), -1)
        block += _monomials(part, max(kb - 1, 0)).T @ right
    return block.reshape(len(block), -1, cols.shape[1])[parent, :, letter].T


def _monomials(x, k):
    """Each row's products on the sorted k-tuples: prefix times letter."""
    block = np.ones((len(x), 1), dtype=x.dtype)
    for parent, letter in _chain(x.shape[1], k):
        block = block[:, parent] * x[:, letter]
    return block


@functools.lru_cache(maxsize=16)
def _chain(m, k):
    """For d = 1..k, each sorted d-tuple of letters below m (in lexicographic
    order) as its parent, the rank of its (d - 1)-prefix, and its last letter."""
    last, chain = np.zeros(1, dtype=np.int64), []  # a leading 0
    for _ in range(k):  # each sorted tuple times every letter from its last on
        parent, last = np.nonzero(np.arange(m) >= last[:, None])
        chain.append((parent, last))
    return chain


@functools.lru_cache(maxsize=16)
def _symmetric_layout(m, groups):
    """The flat position of every word of (m,)*ell, in C order, in the
    product of the slot groups' sorted-tuple blocks: the rank of each group's
    sorted letters among all sorted tuples, in mixed radix."""
    ell = sum(map(len, groups))
    words, flat = np.indices((m,) * ell).reshape(ell, -1), 0
    for slots in groups:
        radix = m ** np.arange(len(slots) - 1, -1, -1)
        tuples, rank = np.unique(radix @ np.sort(words[list(slots)], axis=0), return_inverse=True)
        flat = flat * len(tuples) + rank
    return flat


def _harmonic_payload(lat, lam, moments):
    """pi_[lam] pi_lam of a moment array, as a dict word -> QQ.

    With G = G2 / 2 and g = G^{-1} = 2 adj(G2) / det(G2), Omega = sum_{i<j}
    E_ij(g) C_ij(G) is Omega~ / det(G2), where Omega~ = sum_{i<j} E_ij(adj G2)
    C_ij(G2) is an integer operator.  So the Brauer product over c of
    (1 - Omega / c) (see schur) maps N / D to (c det N - Omega~ N) / (c det D)
    factor by factor, on integer arrays.  Omega commutes with the slot
    permutations, so the Young projector runs once, on the integer
    numerators of the last factor, and each output word is divided by D
    once; the trace check of harmonic projection is its exit check.
    """
    from fockforms.schur import assert_traceless, omega_eigenvalues, young_apply_vec

    if not moments.any():
        return {}
    adj, det = gram_dual(lat.gram2_rows)
    g2 = lat.gram2_rows
    ell = sum(lam)
    # |Omega~ N| <= step max |N| entrywise
    step = (math.comb(ell, 2) * max(abs(v) for row in adj for v in row)
            * sum(abs(v) for row in g2 for v in row))
    num, den, bound = moments, 1, int(np.abs(moments).max())
    for c in omega_eigenvalues(lam, lat.rank):
        bound *= c * det + step
        exact = exact_dtype(bound, [*adj, *g2])
        num = num.astype(exact, copy=False)
        num = c * det * num - _omega_tilde(num, np.array(g2, dtype=exact),
                                           np.array(adj, dtype=exact))
        den *= c * det
    payload = {w: v / den for w, v in young_apply_vec(lam, _nonzero_terms(num)).items()}
    assert_traceless(payload, g2, ell)
    return payload


def _omega_tilde(t, g2, adj):
    """sum over slot pairs i < j of E_ij(adj) C_ij(g2) on a dense tensor:
    contract axes i, j with g2, then insert adj there."""
    out = np.zeros_like(t)
    for i, j in itertools.combinations(range(t.ndim), 2):
        traced = np.tensordot(t, g2, axes=([i, j], [0, 1]))
        out += np.moveaxis(np.multiply.outer(traced, adj), (-2, -1), (i, j))
    return out


def assemble_coefficient(lat, beta, lam=()):
    """Count plus the harmonic Schur payload for each semistandard filling,
    the fillings sharing _moments passes within MOMENT_TOTAL entries; with no
    shape the tuples are counted in beta's windows."""
    lam = tuple(lam)
    if not lam:
        found = count_representations(lat, *_beta_windows(beta))
        return GenusCoefficient(beta, found.get(beta, 0))
    if len(lam) > beta.n:
        raise ValueError("shape has more rows than the genus")
    from fockforms.schur import ssyt_enumerate

    fillings = ssyt_enumerate(lam, beta.n)
    slot_lists = [_column_major_values(lam, filling) for filling in fillings]
    # passes end where the fillings' running entry count crosses a multiple of MOMENT_TOTAL
    ends = np.cumsum([math.prod(math.comb(lat.rank + slots.count(c) - 1, slots.count(c))
                                for c in set(slots)) for slots in slot_lists]) // MOMENT_TOTAL
    coeff = GenusCoefficient(beta, 0)
    for _, run in itertools.groupby(zip(ends.tolist(), fillings, slot_lists), lambda j: j[0]):
        _, part, slots = zip(*run)
        coeff.count, moments = _moments(lat, beta, slots)
        for filling, moment in zip(part, moments):
            coeff.payload[filling_key(filling)] = _harmonic_payload(lat, lam, moment)
        del moments  # this pass's sums, before the next pass makes its own
    return coeff


def series_betas(n, bound):
    """All PSD half-integral beta with diagonal <= bound, trace-then-lex order.

    The doubled matrix grows one row at a time.  Row k takes a diagonal entry
    2 d_k with d_k <= bound, and against each earlier row i an entry in
    [-t, t], t = isqrt(4 d_i d_k), the range Cauchy-Schwarz leaves on the
    block of rows i and k.  A leading block that is not PSD is dropped at
    once, since every principal block of a PSD matrix is PSD.
    """
    blocks = [()]
    for _ in range(n):
        grown = []
        for block in blocks:
            for d in range(0, 2 * bound + 1, 2):
                ranges = [range(-t, t + 1)
                          for t in (math.isqrt(row[i] * d) for i, row in enumerate(block))]
                for offs in itertools.product(*ranges):
                    rows = tuple(row + (v,) for row, v in zip(block, offs)) + (offs + (d,),)
                    if symmetric_pivots(rows) is not None:
                        grown.append(rows)
        blocks = grown
    return sorted(map(BetaMatrix, blocks), key=BetaMatrix.sort_key)


def series_table(lat, lam=(), n=1, bound=0, jobs=1):
    """Ordered GenusCoefficient list over all PSD beta up to the bound.

    Counts alone are binned one diagonal at a time (count_representations);
    a payload reads every tuple, so it is assembled one beta at a time.
    """
    betas = series_betas(n, bound)
    if lam:
        return list(ordered_map(functools.partial(assemble_coefficient, lat, lam=lam),
                                betas, jobs))
    diags = dict.fromkeys(tuple(_beta_windows(beta)[0]) for beta in betas)
    counts = {}
    for found in ordered_map(functools.partial(count_representations, lat),
                             list(diags), jobs):
        counts.update(found)
    return [GenusCoefficient(beta, counts.get(beta, 0)) for beta in betas]
