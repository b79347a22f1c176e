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

def enumerate_representations(lat, beta):
    """All ordered tuples (x_1..x_n) with (x_i, x_j) = 2 beta_{ij}, n = beta.n,
    as an int64 array (reps, n, m) in lexicographic order: each block of
    _search at beta's windows gives the row numbers of its index-0 entries,
    and each shell gathers its column once.  Negative diagonal targets give
    no rows."""
    n, picks = beta.n, []
    for index, path, a, b in _search(lat, *_beta_windows(beta)):
        hit_a, hit_b = np.nonzero(index == 0)
        pick = np.empty((len(hit_a), len(path) + 2), dtype=np.int64)
        pick[:, :-2] = path
        pick[:, -2], pick[:, -1] = a[hit_a], b[hit_b]
        picks.append(pick)
    rows = np.concatenate(picks) if picks else np.zeros((0, max(n, 2)), dtype=np.int64)
    out = np.empty((len(rows), n, lat.rank), dtype=np.int64)
    for i in range(n):  # a padding shell's column comes first and is dropped
        out[:, i] = lat.shell(beta.doubled[i][i], column=i)[rows[:, i - n]]
    return out


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
    n < 2 pads in front with zero vectors."""
    n = len(diag)
    if lat.coset_h is not None and len(lat.coset_h) != n:
        raise ValueError("coset shift count must match the genus")
    if any(d < 0 for d in diag):
        return
    shells = [np.zeros((1, lat.rank), dtype=np.int64)] * (2 - n) + [
        lat.shell(2 * d, column=i) for i, d in enumerate(diag)]
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


# entries of one chunk's product block in the moment kernel; bounds its memory
MOMENT_ENTRIES = 2 ** 14


def _moments(coords, slot_values, m):
    """The dense moment array of shape (m,)*ell: the sum over the rows of
    coords (reps, n, m) of the outer product of the columns named by
    slot_values (1-based).

    Slots that read one column are symmetric, so each group of them is
    formed only on its sorted index tuples, degree by degree: a sorted
    d-tuple is its (d - 1)-prefix times one letter, one gather and one
    product.  The groups' blocks are summed over the representations a chunk
    at a time by one matmul, which also takes a lone group's last degree;
    one gather expands the sums to every word.  Exact: int64 when the
    largest possible sum fits, Python ints otherwise.
    """
    groups = {}
    for slot, column in enumerate(slot_values):
        groups.setdefault(column, []).append(slot)
    chains, gather = _symmetric_layout(m, tuple(map(tuple, groups.values())))
    biggest = max(int(coords.max(initial=1)), -int(coords.min(initial=0)))
    exact = exact_dtype(len(coords) * biggest ** len(slot_values))
    lone = len(chains) == 1  # its operands: the sorted (k - 1)-tuples and the column
    steps = [chain[:len(chain) - lone] for chain in chains]
    widths = [len(step[-1][0]) if step else 1 for step in steps] + [m] * lone
    rows = max(1, MOMENT_ENTRIES // max(math.prod(widths[:-1]), widths[-1]))
    total = np.zeros((math.prod(widths[:-1]), widths[-1]), dtype=exact)
    for start in range(0, len(coords), rows):
        part = coords[start:start + rows].astype(exact)
        left, blocks = np.ones((len(part), 1), dtype=exact), []
        for column, step in zip(groups, steps):
            x, block = part[:, column - 1], left
            for parent, letter in step:
                block = block[:, parent] * x[:, letter]
            blocks.append(block)
        *blocks, last = blocks + [x] * lone
        for block in blocks:
            left = (left[:, :, None] * block[:, None, :]).reshape(len(part), -1)
        total += left.T @ last
    if lone:
        total = total[chains[0][-1]]  # at the (parent, letter) of each sorted k-tuple
    return total.ravel()[gather].reshape((m,) * len(slot_values))


@functools.lru_cache(maxsize=16)
def _symmetric_layout(m, groups):
    """For slot groups (tuples of slots), each group's chain: for d = 1..k,
    the parent (the rank of the (d - 1)-prefix) and the last letter of each
    sorted d-tuple, in lexicographic order; and for every word of (m,)*ell in
    C order the flat position of its entry in the product of the groups'
    blocks: each group's sorted letters are ranked among its k-tuples, and
    the ranks combined in mixed radix."""
    ell = sum(map(len, groups))
    words = np.indices((m,) * ell).reshape(ell, -1)
    chains, flat = [], np.zeros(m ** ell, dtype=np.int64)
    for slots in groups:
        combo, chain = np.zeros((1, 1), dtype=np.int64), []  # after a leading 0
        for _ in slots:  # each sorted tuple times every letter from its last on
            parent, letter = np.nonzero(np.arange(m) >= combo[:, -1:])
            combo = np.column_stack([combo[parent], letter])
            chain.append((parent, letter))
        radix = m ** np.arange(len(slots), -1, -1)
        rank = np.zeros(m ** len(slots), dtype=np.int64)
        rank[combo @ radix] = np.arange(len(combo))
        flat = flat * len(combo) + rank[radix[1:] @ np.sort(words[list(slots)], axis=0)]
        chains.append(chain)
    return chains, flat


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
    """Count plus the harmonic Schur payload for each semistandard filling;
    with no shape the tuples are counted in beta's windows, not listed."""
    lam = tuple(lam)
    if not lam:
        found = count_representations(lat, *_beta_windows(beta))
        return GenusCoefficient(beta, found.get(beta, 0))
    if len(lam) > beta.n:
        raise ValueError("shape has more rows than the genus")
    from fockforms.schur import ssyt_enumerate

    reps = enumerate_representations(lat, beta)
    coeff = GenusCoefficient(beta, len(reps))
    for filling in ssyt_enumerate(lam, beta.n):
        moments = _moments(reps, _column_major_values(lam, filling), lat.rank)
        coeff.payload[filling_key(filling)] = _harmonic_payload(lat, lam, moments)
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
