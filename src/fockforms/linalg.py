"""Exact rational matrices, sparse rows over QQ.

A RatMat stores one dict per row mapping column index -> nonzero QQ entry.
Everything here is plain Gaussian elimination; sizes stay in the hundreds,
so exact arithmetic in QQ (fractions.Fraction, or gmpy2's mpq where it is
installed) is fast enough.
"""

from __future__ import annotations

from fockforms.rational import QQ, _accum


class RatMat:
    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else [dict() for _ in range(nrows)]

    @staticmethod
    def zero(nrows, ncols):
        return RatMat(nrows, ncols)

    @staticmethod
    def identity(n):
        return RatMat(n, n, [{i: QQ(1)} for i in range(n)])

    @staticmethod
    def from_rows(entries, ncols=None):
        """entries: list of lists of rationals, or list of dicts."""
        rows = []
        width = ncols
        for row in entries:
            if isinstance(row, dict):
                d = {j: QQ(v) for j, v in row.items() if QQ(v) != 0}
            else:
                d = {j: QQ(v) for j, v in enumerate(row) if QQ(v) != 0}
                if width is None:
                    width = len(row)
            rows.append(d)
        if width is None:
            width = 1 + max((j for d in rows for j in d), default=-1)
        return RatMat(len(rows), width, rows)

    @staticmethod
    def diagonal(values):
        vals = [QQ(v) for v in values]
        n = len(vals)
        return RatMat(n, n, [({i: vals[i]} if vals[i] != 0 else {}) for i in range(n)])

    def copy(self):
        return RatMat(self.nrows, self.ncols, [dict(r) for r in self.rows])

    def entry(self, i, j):
        return self.rows[i].get(j, QQ(0))

    def __eq__(self, other):
        if not isinstance(other, RatMat):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.rows == other.rows

    def is_zero(self):
        return all(not r for r in self.rows)

    def __add__(self, other):
        out = self.copy()
        for tr, r in zip(out.rows, other.rows):
            for j, v in r.items():
                _accum(tr, j, v)
        return out

    def __sub__(self, other):
        return self + other.scale(QQ(-1))

    def scale(self, c):
        c = QQ(c)
        if c == 0:
            return RatMat.zero(self.nrows, self.ncols)
        return RatMat(self.nrows, self.ncols,
                      [{j: v * c for j, v in r.items()} for r in self.rows])

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = RatMat.zero(self.nrows, other.ncols)
        orows = other.rows
        for acc, r in zip(out.rows, self.rows):
            for k, a in r.items():
                for j, b in orows[k].items():
                    _accum(acc, j, a * b)
        return out

    def transpose(self):
        out = RatMat.zero(self.ncols, self.nrows)
        for i, r in enumerate(self.rows):
            for j, v in r.items():
                out.rows[j][i] = v
        return out

    def apply(self, vec):
        """Multiply by a column vector given as dict j -> QQ."""
        out = {}
        for i, r in enumerate(self.rows):
            s = QQ(0)
            for j, v in r.items():
                w = vec.get(j)
                if w is not None:
                    s += v * w
            if s != 0:
                out[i] = s
        return out

    def __repr__(self):
        return f"RatMat({self.nrows}x{self.ncols}, nnz={sum(len(r) for r in self.rows)})"


def _eliminate(rows, ncols):
    """Row-reduce in place, pivoting in columns 0..ncols-1; entries in later
    columns take the same row operations.  Returns the pivot column list."""
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i].get(col):
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = {j: v * inv for j, v in rows[rank].items()}
        for i in range(len(rows)):
            if i == rank:
                continue
            f = rows[i].get(col)
            if not f:
                continue
            dst = rows[i]
            for j, v in rows[rank].items():
                _accum(dst, j, -f * v)
        pivots.append(col)
        rank += 1
    return pivots


def rank(mat):
    rows = [dict(r) for r in mat.rows]
    return len(_eliminate(rows, mat.ncols))


def inverse(mat):
    """Reduce [A | I] in the columns of A; A^-1 is left in the other half."""
    if mat.nrows != mat.ncols:
        raise ValueError("only square matrices invert")
    n = mat.nrows
    rows = [{**r, n + i: QQ(1)} for i, r in enumerate(mat.rows)]
    if len(_eliminate(rows, n)) != n:
        raise ValueError("matrix is singular")
    return RatMat(n, n, [{j - n: v for j, v in r.items() if j >= n} for r in rows])
