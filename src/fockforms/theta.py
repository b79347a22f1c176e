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
from dataclasses import dataclass, field

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
    """All ordered tuples (x_1..x_n) with (x_i, x_j) = 2 beta_{ij}, n = beta.n.

    Returns a list of n-tuples of coordinate tuples, lexicographically
    ordered.  Negative diagonal targets give the empty list.  The search is
    depth first over the sorted shells; choosing x_t computes v = gram2 x_t
    once and narrows every later shell k by the mask shell_k v = 4 beta_tk,
    in int64 when the largest possible product fits and in Python ints
    otherwise.  A table of counts alone is binned by count_representations;
    this search lists the tuples a payload reads, and is the counts' oracle.
    """
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
    # row tuples built from the columns, without a temporary list per row
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


# entries of one block of the last two shells' pairings in the representation
# count, and of the largest table of one diagonal it keeps; bound its memory
BIN_ENTRIES = 2 ** 16
BIN_TABLE = 2 ** 20


def count_representations(lat, diag):
    """The representation numbers of every beta with diagonal diag, as a dict
    BetaMatrix -> count holding the nonzero counts.

    All these betas read the same shells S_i of the norms 2 diag[i].  By
    Cauchy-Schwarz an entry 2 beta_ij = (x_i, x_j) of a tuple lies in [-t, t],
    t = isqrt(4 d_i d_j), so the entries of a tuple combine into one index of
    mixed radix 2 t + 1 per pair (the ranges of series_betas), and
    np.bincount counts the indices.  The first n - 2 vectors are chosen in a
    Python loop; the pairings of the last two shells, S_{n-2} G2 S_{n-1}^T,
    are formed in blocks of at most BIN_ENTRIES entries.  A pairing x^T G2 y
    is 2 (x, y), so an odd one, which only a half-integral gram has, matches
    no beta: its tuple is sent to a bin past the table.  Exact: int64 when the
    largest pairing fits, Python ints otherwise.  ValueError when the table
    of betas would pass BIN_TABLE entries; enumerate_representations counts
    one beta of such a diagonal.
    """
    n = len(diag)
    if lat.coset_h is not None and len(lat.coset_h) != n:
        raise ValueError("coset shift count must match the genus")
    if any(d < 0 for d in diag):
        return {}
    pairs = list(itertools.combinations(range(n), 2))
    tops = {(i, j): math.isqrt(4 * diag[i] * diag[j]) for i, j in pairs}
    shape = [2 * tops[pair] + 1 for pair in pairs]
    total = math.prod(shape)
    if total > BIN_TABLE:
        raise ValueError(f"the diagonal {tuple(diag)} has {total} betas; "
                         f"the table cap is {BIN_TABLE}")
    strides = {pair: math.prod(shape[k + 1:]) for k, pair in enumerate(pairs)}
    shells = [lat.shell(2 * d, column=i) for i, d in enumerate(diag)]
    if not all(len(s) for s in shells):
        return {}
    if n < 2:
        return {BetaMatrix.diagonal(diag): len(shells[0]) if n else 1}
    g2 = lat.gram2_rows
    halves = any(v % 2 for row in g2 for v in row)
    biggest = max(int(np.abs(s).max()) for s in shells)
    exact = exact_dtype(biggest * biggest * sum(abs(v) for row in g2 for v in row), g2)
    g2 = np.array(g2, dtype=exact)
    vecs = [s.astype(exact, copy=False) for s in shells]
    dual = [v @ g2 for v in vecs[:-1]]  # the rows G2 x, as G2 is symmetric

    def bins(pairings, pair):
        # each tuple's share of the index, or total for an odd pairing
        out = ((pairings >> 1) + tops[pair]) * strides[pair]
        if halves:
            out[(pairings & 1).astype(bool)] = total
        return out.astype(np.int64)

    # parts[j]: the index shares of views[k + j] against the chosen vectors,
    # clamped to total; every index below total is a beta of the table
    def descend(k, base, parts, views, block):
        if k == n - 2:
            index = block + (base + parts[0])[:, None] + parts[1]
            counts[:] += np.bincount(index.ravel(), minlength=total)[:total]
            return
        for r in np.flatnonzero(parts[0] < total).tolist():
            later = [np.minimum(part + bins(views[t] @ dual[k][r], (k, t)), total)
                     for t, part in enumerate(parts[1:], k + 1)]
            descend(k + 1, base + int(parts[0][r]), later, views, block)

    counts = np.zeros(total, dtype=np.int64)
    a, b = vecs[-2:]
    cols = min(len(b), BIN_ENTRIES)
    rows = max(1, BIN_ENTRIES // cols)
    for r0 in range(0, len(a), rows):
        for c0 in range(0, len(b), cols):
            views = vecs[:-2] + [a[r0:r0 + rows], b[c0:c0 + cols]]
            block = bins(dual[-1][r0:r0 + rows] @ views[-1].T, (n - 2, n - 1))
            descend(0, 0, [np.zeros(len(v), dtype=np.int64) for v in views],
                    views, block)
    found = {}
    for flat in np.flatnonzero(counts).tolist():
        doubled = [[2 * diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        for (i, j), v in zip(pairs, np.unravel_index(flat, shape)):
            doubled[i][j] = doubled[j][i] = int(v) - tops[(i, j)]
        found[BetaMatrix(doubled)] = int(counts[flat])
    return found


# ---------------------------------------------------------------------------
# payload assembly
# ---------------------------------------------------------------------------

@dataclass
class GenusCoefficient:
    beta: BetaMatrix
    count: int
    payload: dict = field(default_factory=dict)

    @property
    def rank_t(self):
        return self.beta.rank()

    def to_json(self):
        payload = {}
        for key in sorted(self.payload):
            terms = self.payload[key]
            payload[key] = [[list(word), [int(c.numerator), int(c.denominator)]]
                            for word, c in sorted(terms.items())]
        return {
            "beta": self.beta.to_json(),
            "rank": self.rank_t,
            "count": self.count,
            "payload": payload,
        }


def filling_key(filling):
    return "|".join(",".join(str(v) for v in row) for row in filling)


def _column_major_values(lam, filling):
    vals = []
    for c in range(lam[0]):
        for r in range(len(lam)):
            if lam[r] > c:
                vals.append(filling[r][c])
    return vals


def _nonzero_terms(arr, den):
    """The nonzero entries of an integer array divided by den, as a dict
    word -> QQ with letters counted from 1."""
    return {tuple(int(i) + 1 for i in idx): QQ(int(arr[idx]), den)
            for idx in zip(*np.nonzero(arr))}


# entries of one chunk's product block in the moment kernel; bounds its memory
MOMENT_ENTRIES = 2 ** 14


def _moments(coords, slot_values, m):
    """The dense moment array of shape (m,)*ell: the sum over the rows of
    coords (reps, n, m) of the outer product of the columns named by
    slot_values (1-based).

    Slots that read one column are symmetric, so each group of them is
    formed only on sorted index tuples (330 instead of 4,096 at m = 8,
    ell = 4), summed over the representations a chunk at a time and
    expanded to every word by one gather.  Exact: int64 when the largest
    possible sum fits, Python ints otherwise.
    """
    groups = {}
    for slot, column in enumerate(slot_values):
        groups.setdefault(column, []).append(slot)
    combos, gather = _symmetric_layout(m, tuple(map(tuple, groups.values())))
    biggest = int(np.abs(coords).max(initial=0))
    exact = exact_dtype(len(coords) * max(biggest, 1) ** len(slot_values))
    widths = [len(combo) for combo in combos]
    rows = max(1, MOMENT_ENTRIES // math.prod(widths))
    total = np.zeros((math.prod(widths[:-1]), widths[-1]), dtype=exact)
    for start in range(0, len(coords), rows):
        part = coords[start:start + rows].astype(exact)
        blocks = [part[:, column - 1][:, combo].prod(axis=2)
                  for column, combo in zip(groups, combos)]
        left = np.ones((len(part), 1), dtype=exact)
        for block in blocks[:-1]:
            left = (left[:, :, None] * block[:, None, :]).reshape(len(part), -1)
        total += left.T @ blocks[-1]
    return total.ravel()[gather].reshape((m,) * len(slot_values))


@functools.lru_cache(maxsize=16)
def _symmetric_layout(m, groups):
    """For slot groups (tuples of slots), the sorted index tuples of each
    group, and for every word of (m,)*ell in C order the flat position of its
    entry in the product of the groups' blocks: each group's sorted letters
    are ranked among its tuples, and the ranks combined in mixed radix."""
    ell = sum(map(len, groups))
    words = np.indices((m,) * ell).reshape(ell, -1)
    combos, flat = [], np.zeros(m ** ell, dtype=np.int64)
    for slots in groups:
        k = len(slots)
        combo = np.array(list(itertools.combinations_with_replacement(range(m), k)),
                         dtype=np.int64)
        radix = m ** np.arange(k - 1, -1, -1)
        rank = np.zeros(m ** k, dtype=np.int64)
        rank[combo @ radix] = np.arange(len(combo))
        flat = flat * len(combo) + rank[radix @ np.sort(words[list(slots)], axis=0)]
        combos.append(combo)
    return combos, flat


def _harmonic_payload(lat, lam, moments):
    """pi_[lam] pi_lam of a moment array, as a dict word -> QQ.

    With G = G2 / 2 and g = G^{-1} = 2 adj(G2) / det(G2), Omega = sum_{i<j}
    E_ij(g) C_ij(G) is Omega~ / det(G2), where Omega~ = sum_{i<j} E_ij(adj G2)
    C_ij(G2) is an integer operator.  So the Brauer product over c of
    (1 - Omega / c) (see schur) maps N / D to (c det N - Omega~ N) / (c det D)
    factor by factor, on integer arrays.  Omega commutes with the slot
    permutations, so the Young projector runs once, on the quotient; the
    trace check of harmonic projection is its exit check.
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
    terms = _nonzero_terms(num, den)
    payload = young_apply_vec(lam, terms) if terms else {}
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
    """Count plus the harmonic Schur payload for each semistandard filling."""
    lam = tuple(lam)
    if lam and len(lam) > beta.n:
        raise ValueError("shape has more rows than the genus")
    reps = enumerate_representations(lat, beta)
    coeff = GenusCoefficient(beta=beta, count=len(reps))
    if not lam:
        return coeff
    from fockforms.schur import ssyt_enumerate

    coords = np.array(reps, dtype=np.int64).reshape(len(reps), beta.n, lat.rank)
    for filling in ssyt_enumerate(lam, beta.n):
        moments = _moments(coords, _column_major_values(lam, filling), lat.rank)
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
    diags = dict.fromkeys(tuple(row[i] // 2 for i, row in enumerate(beta.doubled))
                          for beta in betas)
    counts = {}
    for found in ordered_map(functools.partial(count_representations, lat),
                             list(diags), jobs):
        counts.update(found)
    return [GenusCoefficient(beta=beta, count=counts.get(beta, 0)) for beta in betas]
