"""Integer shell enumeration for positive definite forms.

shell_vectors is the Fincke-Pohst search (Fincke & Pohst, Math. Comp. 44,
1985), run level by level over numpy arrays.  With the doubled gram written
exactly as G = L D L^T, the form is sum_i D_i (x_i + c_i)^2, where c_i
depends only on the later coordinates.  Fixing x_{m-1}, ..., x_1 in turn
leaves each coordinate an interval, and a partial vector whose remaining
budget goes negative is pruned at once (the per-level pruning of Schnorr &
Euchner, Math. Programming 66, 1994).  The frontier is a block of fixed
trailing coordinates plus float budgets.  It is expanded depth first, at
most CHUNK rows at a time, so memory stays bounded whatever the shell size.

Floats only decide where to look.  Every interval is widened by a margin
that covers its rounding error and clipped to the exact dual-diagonal box
|x_i|^2 <= target (G^{-1})_{ii}, which holds every solution by
Cauchy-Schwarz; G^{-1} = adj G / det G comes from the integer adjugate,
computed once per gram (gram_dual) and only for nonzero targets.  The first
coordinate is never scanned.  Given the others, x^T G x = target is the
integer quadratic a x_0^2 + 2 b x_0 + q = target,
and x_0 is accepted exactly when (a x_0 + b)^2 equals the discriminant
b^2 - a (q - target).  This exact arithmetic runs in int64 when a bound
taken from the box and the gram's entries proves that it cannot overflow, and
in Python ints otherwise.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from fockforms.rational import QQ

# partial vectors generated per step; bounds the kernel's working memory
CHUNK = 1024

# exact products below this magnitude are done in int64
INT64_SAFE = 2 ** 62


def exact_dtype(bound, rows=()):
    """int64 when |bound| and every entry of rows lie below INT64_SAFE, else
    object (Python ints).  bound: a proven bound on the exact intermediate
    values; rows: the integer matrix they are computed from."""
    fits = abs(bound) < INT64_SAFE and all(abs(v) < INT64_SAFE for row in rows for v in row)
    return np.int64 if fits else object


def numba_enabled():
    """Always False: the shell kernel is plain numpy.  Kept for backend records."""
    return False


def symmetric_pivots(rows):
    """Fraction-free symmetric elimination (Bareiss, Math. Comp. 22, 1968) of
    a square integer matrix: None unless it is positive semidefinite, else
    (pivots, columns), columns[k] the entries below pivot k.  A zero pivot
    with a zero remaining row is skipped (pivot 0) and the divisor kept, which
    leaves the Bareiss state of the matrix without that index, so later
    divisions stay exact.  The rank is the number of nonzero pivots."""
    a = [list(row[:i + 1]) for i, row in enumerate(rows)]  # lower triangle
    pivots, columns, prev = [], [], 1
    for k, row in enumerate(a):
        p, col = row[k], [r[k] for r in a[k + 1:]]
        if p < 0 or (p == 0 and any(col)):
            return None
        pivots.append(p)
        columns.append(col)
        if p:
            for r, c in zip(a[k + 1:], col):
                r[k + 1:] = [(p * v - c * w) // prev for v, w in zip(r[k + 1:], col)]
            prev = p
    return pivots, columns


def adjugate(rows):
    """(adj A, det A) of a square integer matrix A whose leading principal
    minors are nonzero, as every positive definite one has: fraction-free
    Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968) of [A | I] in
    Python ints.  Each step divides exactly by the previous pivot; column k
    of A is dropped once it is eliminated, the last pivot is det A and the
    rows end as adj A = det A . A^{-1}.  ValueError on a zero leading minor."""
    n = len(rows)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        pivot = a[k]
        p = pivot[0]
        if not p:
            raise ValueError("a leading principal minor is zero")
        a = [row[1:] if i == k else
             [(p * v - row[0] * w) // prev for v, w in zip(row[1:], pivot[1:])]
             for i, row in enumerate(a)]
        prev = p
    return a, prev


@functools.lru_cache(maxsize=16)
def gram_dual(rows):
    """adjugate(rows) of an integer gram given as a tuple of row tuples,
    computed once per gram: the shells of a lattice and its harmonic
    payloads share it."""
    return adjugate(rows)


def exact_ldl(gram):
    """G = L D L^T over the rationals; ValueError unless positive definite.

    gram: RatMat.  Returns (L rows, D diagonal) as tuples of QQ.
    """
    m = gram.nrows
    den = math.lcm(*(int(v.denominator) for row in gram.rows for v in row.values()))
    return _ldl(tuple(tuple(int(row.get(j, 0) * den) for j in range(m))
                      for row in gram.rows), den)


@functools.lru_cache(maxsize=16)
def _ldl(rows, den):
    """exact_ldl of the gram rows / den, rows a tuple of integer row tuples,
    computed once per gram: every shell of a lattice needs it.  The result is
    shared between callers, so it is made of tuples."""
    found = symmetric_pivots(rows)
    if found is None or not all(found[0]):
        raise ValueError("form is not positive definite")
    pivots, columns = found
    m = len(rows)
    lower = tuple(tuple(QQ(columns[k][i - k - 1], pivots[k]) if k < i else QQ(int(k == i))
                        for k in range(m)) for i in range(m))
    diag = tuple(QQ(p, prev * den) for p, prev in zip(pivots, [1] + pivots))
    return lower, diag


def shell_vectors(gram2, target):
    """All integer vectors with x^T gram2 x == target, rows sorted lex.

    gram2: the doubled gram, integral, as a tuple of integer row tuples (as
    Lattice.gram2_rows) or a RatMat; target: nonnegative integer.
    OverflowError if a coordinate of the box does not fit in int64.
    """
    g2 = gram2 if isinstance(gram2, tuple) else tuple(map(tuple, integral_rows(gram2)))
    m = len(g2)
    if target < 0:
        return np.zeros((0, m), dtype=np.int64)
    _ldl(g2, 1)  # positive definite or ValueError
    if target == 0:
        return np.zeros((1, m), dtype=np.int64)
    radii = _box_radii(gram_dual(g2), target)
    if max(radii) >= INT64_SAFE:
        raise OverflowError("shell coordinates exceed int64")
    # |partial forms| <= box_norm and |b| <= row_norms[0] on the whole box
    row_norms = [sum(abs(v) * r for v, r in zip(row, radii)) for row in g2]
    box_norm = sum(r * w for r, w in zip(radii, row_norms))
    exact = exact_dtype(row_norms[0] ** 2 + g2[0][0] * (box_norm + target), g2)
    G = np.array(g2, dtype=exact)
    D, U = _float_ldl(g2)

    # Rounding margins: c_i errs by far less than 1e-12 of sum_j |U_ij| R_j,
    # and the budget by far less than tol.  Level 0 is solved exactly, so its
    # margin stays out of tol.
    top = float(target)
    delta = [1e-9 + 1e-12 * (float(np.abs(U[i, i + 1:]) @ radii[i + 1:])
                             + math.sqrt((top + 1.0) / D[i])) for i in range(m)]
    tol = 1e-6 + 1e-12 * top + sum(2.0 * math.sqrt(D[i] * (top + 1.0)) * delta[i]
                                   for i in range(1, m))
    form = (G, D, U, radii, delta, tol, target)
    out = np.concatenate(list(_descend(m - 1, np.zeros((1, 0), dtype=np.int64),
                                       np.zeros(1, dtype=exact), np.array([top]), form)))
    return out[np.lexsort(out.T[::-1])]


def _descend(i, fixed, q, budget, form):
    """The solution blocks of shell_vectors below level i, depth first, at
    most CHUNK partial vectors a step.  fixed: coordinates i+1..m-1 of each
    frontier row; q: their exact partial form; budget: target minus their
    float LDL terms; form: the exact G, the float D and U, the box radii, the
    margins delta and tol, and the target."""
    G, D, U, radii, delta, tol, target = form
    if i == 0:
        yield _solve_first(fixed, q, G, target)
        return
    c = fixed @ U[i, i + 1:]
    r = np.sqrt(np.maximum(budget + tol, 0.0) / D[i])
    lo = np.maximum(np.ceil(-c - r - delta[i]), -radii[i]).astype(np.int64)
    hi = np.minimum(np.floor(-c + r + delta[i]), radii[i]).astype(np.int64)
    counts = np.maximum(hi - lo + 1, 0)
    ends = np.cumsum(counts)
    g = fixed @ G[i, i + 1:]
    total = int(ends[-1]) if len(ends) else 0
    for start in range(0, total, CHUNK):
        k = np.arange(start, min(start + CHUNK, total))
        p = np.searchsorted(ends, k, side="right")
        xi = lo[p] + (k - ends[p] + counts[p])
        step = xi + c[p]
        rest = budget[p] - D[i] * step * step
        keep = rest >= -tol
        p, xi = p[keep], xi[keep]
        xe = xi.astype(G.dtype)
        yield from _descend(i - 1, np.column_stack((xi, fixed[p])),
                            q[p] + (G[i, i] * xe + 2 * g[p]) * xe, rest[keep], form)


@functools.lru_cache(maxsize=16)
def _float_ldl(rows):
    """(D, U) of G = U^T diag(D) U in floats, from the exact LDL of an
    integral doubled gram given as a tuple of row tuples, computed once per
    gram: every shell of a lattice needs it.  The arrays are shared between
    callers, so they are read-only."""
    lower, diag = _ldl(rows, 1)
    m = len(rows)
    # lowering a pivot only widens the float search, so a pivot beyond the
    # float range is clamped to 2^900; one that rounds to 0 would make every
    # margin nan (1/D_i <= (gram2^{-1})_{ii}, so the box check that
    # shell_vectors makes first already rules it out for target >= 1)
    D = np.array([float(min(d, 2 ** 900)) for d in diag])
    if not D.all():
        raise OverflowError("a pivot of the form is below the float range")
    U = np.array([[float(lower[j][i]) for j in range(m)] for i in range(m)])
    D.setflags(write=False)
    U.setflags(write=False)
    return D, U


def _solve_first(fixed, q, G, target):
    """Rows (x_0, fixed) with x_0 an integer root of the first-coordinate
    quadratic G_00 x_0^2 + 2 b x_0 + q = target, b = G[0, 1:] . fixed."""
    a = G[0, 0]
    b = fixed @ G[0, 1:]
    disc = b * b - a * (q - target)
    real = disc >= 0
    fixed, b, disc = fixed[real], b[real], disc[real]
    s = _isqrt(disc)
    square = s * s == disc
    rows = []
    for num, ok in ((-b - s, square), (-b + s, square & (s > 0))):
        hit = ok & (num % a == 0)
        x0 = (num[hit] // a).astype(np.int64)
        rows.append(np.column_stack((x0, fixed[hit])))
    return np.concatenate(rows)


def _isqrt(d):
    """Elementwise floor(sqrt(d)) of a nonnegative exact array."""
    if d.dtype == object:
        return np.array([math.isqrt(v) for v in d], dtype=object)
    s = np.sqrt(d.astype(np.float64)).astype(np.int64)
    s -= s * s > d
    s += (s + 1) * (s + 1) <= d
    return s


def integral_rows(gram2):
    """The doubled gram as nested Python ints; ValueError unless integral."""
    rows = [[gram2.entry(i, j) for j in range(gram2.ncols)]
            for i in range(gram2.nrows)]
    if any(v.denominator != 1 for row in rows for v in row):
        raise ValueError("doubled gram must be integral")
    return [[int(v) for v in row] for row in rows]


def _box_radii(dual, target):
    """Exact R_i = floor(sqrt(target (gram2^{-1})_{ii})) from dual = (adj, det)
    of gram2, as floor(sqrt(target adj_ii det)) // det.

    Cauchy-Schwarz in the gram2 inner product gives |x_i| <= R_i for every
    solution, so the box never clips one.
    """
    adj, det = dual
    return [math.isqrt(target * row[i] * det) // det for i, row in enumerate(adj)]
