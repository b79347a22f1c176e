"""The coefficient ring Q(i, sqrt2)[pi, 1/pi].

A Scalar is a finite Laurent polynomial in a formal symbol pi whose
coefficients are elements of Q(i, sqrt2).  Each coefficient is stored
sparsely, as a tuple of entries (unit, num, den) meaning num/den * e_unit
over the basis e_0, e_1, e_2, e_3 = 1, i, sqrt2, i sqrt2.  The layout is
canonical:

  * units are strictly increasing within a tuple;
  * num != 0 and den > 0 are Python ints with gcd(num, den) = 1;
  * a zero component has no entry, and a zero coefficient no pi-exponent.

So equal values have equal terms and equal hashes.  The ring is an integral
domain (Laurent polynomials over a field), so exact zero tests are honest: a
residual is zero iff it has no terms.

The one product kernel, _quad_mul, reads each pairwise product of basis
elements from a 4x4 unit table, e_p * e_q = f * e_c:

    i * i = -1,  i * sqrt2 = i sqrt2,  i * i sqrt2 = -sqrt2,
    sqrt2 * sqrt2 = 2,  sqrt2 * i sqrt2 = 2i,  i sqrt2 * i sqrt2 = -2,

once per pair of entries, so a zero component is never multiplied.  Every
fraction is kept reduced by math.gcd on machine integers (Knuth, TAOCP
vol. 2, 4.5.1).  QQ values appear only at the boundaries: the constructors,
rational_of, JSON and repr.

The ring operations are memo functions (Michie, Nature 218, 1968) over
hash-consed values (Filliatre & Conchon, ML Workshop 2006).  Scalar(terms)
returns the one object the id table holds for that value, made with a new
value id the first time the value is seen, so every Scalar has an id and
equal values made while the table lives are one object; ids come from a
counter that never repeats.  __mul__, __add__ and scale look their result up
in a table keyed by the operand ids (scale by id, num and den) and run the
kernel only on a miss, and negation is scaling by -1.  Sharing is safe
because a Scalar is never changed in place.  When a table reaches
MEMO_ENTRIES entries every table is cleared.  Ids already handed out stay
valid: none is reused, so a stale id can never hit another value's entry.
"""

from __future__ import annotations

import itertools
from math import gcd

from fockforms.rational import QQ


# _UNIT[p][q] = (c, f): e_p * e_q = f * e_c over the basis 1, i, sqrt2, i sqrt2
_UNIT = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, 1), (0, 2), (1, 2)),
    ((3, 1), (2, -1), (1, 2), (0, -2)),
)


def _entry(unit, num, den):
    """The reduced entry num/den * e_unit; den > 0 and num != 0."""
    g = gcd(num, den)
    return (unit, num // g, den // g) if g != 1 else (unit, num, den)


def _entries(values):
    """The entries of a dense quadruple of ints or rationals."""
    return tuple((c, int(v.numerator), int(v.denominator))
                 for c, v in enumerate(values) if v)


def _dense(entries):
    """The quadruple (a, b, c, d) of QQ that a tuple of entries stands for."""
    quad = [QQ(0)] * 4
    for c, n, d in entries:
        quad[c] = QQ(n, d)
    return tuple(quad)


def _quad_mul(x, y):
    """x * y over Q(i, sqrt2), one unit-table product per pair of entries."""
    out = {}
    for p, n1, d1 in x:
        row = _UNIT[p]
        for q, n2, d2 in y:
            c, f = row[q]
            n, d = f * n1 * n2, d1 * d2
            if c in out:
                n0, d0 = out[c]
                n, d = (n0 + n, d) if d0 == d else (n0 * d + n * d0, d0 * d)
            out[c] = n, d
    return tuple(_entry(c, n, d) for c, (n, d) in sorted(out.items()) if n)


def _quad_add(x, y):
    """x + y, merging entries by unit; only a summed entry is reduced."""
    out = {e[0]: e for e in x}
    for e in y:
        old = out.get(e[0])
        if old is None:
            out[e[0]] = e
            continue
        c, n0, d0 = old
        _, n, d = e
        n, d = (n0 + n, d) if d0 == d else (n0 * d + n * d0, d0 * d)
        if n:
            out[c] = _entry(c, n, d)
        else:
            del out[c]
    return tuple(sorted(out.values()))


def _quad_scale(x, num, den):
    """x * num/den for integers num != 0 and den > 0."""
    return tuple(_entry(c, n * num, d * den) for c, n, d in x)


# -- the kernels on terms dicts, run on a memo miss --------------------------

def _mul(x, y):
    out = {}
    for k1, q1 in x.items():
        for k2, q2 in y.items():
            k = k1 + k2
            prod = _quad_mul(q1, q2)  # nonzero: Q(i, sqrt2) is a field
            if k in out:
                prod = _quad_add(out[k], prod)
                if not prod:
                    del out[k]
                    continue
            out[k] = prod
    return out


def _add(x, y):
    out = dict(x)
    for k, q in y.items():
        if k in out:
            s = _quad_add(out[k], q)
            if s:
                out[k] = s
            else:
                del out[k]
        else:
            out[k] = q
    return out


def _scale(x, num, den):
    """x * num/den for integers num and den > 0."""
    if not num:
        return {}
    return {k: _quad_scale(q, num, den) for k, q in x.items()}


# -- the memo tables -----------------------------------------------------------

# a table holding this many entries clears every table
MEMO_ENTRIES = 2 ** 13

_new_id = itertools.count(1).__next__  # value ids
_IDS = {}     # frozenset of terms items -> the Scalar holding that value
_MUL = {}     # (id, id) -> product
_ADD = {}     # (id, id) -> sum
_SCALE = {}   # (id, num, den) -> scaled value


def _forget():
    """Clear every table; the ids already handed out are never reused."""
    for table in (_IDS, _MUL, _ADD, _SCALE):
        table.clear()


def _keep(table, key, value):
    if len(table) >= MEMO_ENTRIES:
        _forget()
    table[key] = value
    return value


class Scalar:
    """Element of Q(i, sqrt2)[pi, 1/pi], keyed by pi-exponent."""

    __slots__ = ("terms", "_id")

    def __new__(cls, terms=None):
        # terms: dict pi_exponent -> tuple of reduced (unit, num, den) entries
        terms = terms if terms is not None else {}
        key = frozenset(terms.items())
        held = _IDS.get(key)
        if held is None:
            held = object.__new__(cls)
            held.terms, held._id = terms, _new_id()
            _keep(_IDS, key, held)
        return held

    def __reduce__(self):
        # an id is only meaningful in the process that handed it out
        return Scalar, (self.terms,)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(r, pi_exp=0):
        if not r:
            return Scalar()
        return Scalar({pi_exp: ((0, int(r.numerator), int(r.denominator)),)})

    @staticmethod
    def unit(a=0, b=0, c=0, d=0, pi_exp=0):
        entries = _entries((a, b, c, d))
        return Scalar({pi_exp: entries} if entries else {})

    @staticmethod
    def zero():
        return Scalar()

    @staticmethod
    def one():
        return Scalar.from_rational(1)

    @staticmethod
    def i():
        return Scalar.unit(b=1)

    @staticmethod
    def sqrt2():
        return Scalar.unit(c=1)

    @staticmethod
    def pi_power(k):
        return Scalar.from_rational(1, pi_exp=k)

    @staticmethod
    def two_pow_half(q):
        """2**(q/2) for integer q >= 0: 2**(q//2) times sqrt2 when q is odd."""
        if q < 0:
            raise ValueError("negative half-power of 2")
        base = 2 ** (q // 2)
        if q % 2 == 0:
            return Scalar.unit(a=base)
        return Scalar.unit(c=base)

    # -- ring operations: memo lookups, the kernels only on a miss ------------

    def __add__(self, other):
        key = (self._id, other._id)
        s = _ADD.get(key)
        if s is None:
            s = _keep(_ADD, key, Scalar(_add(self.terms, other.terms)))
        return s

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return self.scale(other)
        key = (self._id, other._id)
        s = _MUL.get(key)
        if s is None:
            s = _keep(_MUL, key, Scalar(_mul(self.terms, other.terms)))
        return s

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, r):
        """self * r for an int or rational r."""
        num, den = int(r.numerator), int(r.denominator)
        if num == den:  # Scalars are never changed in place, so self serves
            return self
        key = (self._id, num, den)
        s = _SCALE.get(key)
        if s is None:
            s = _keep(_SCALE, key, Scalar(_scale(self.terms, num, den)))
        return s

    def __pow__(self, n):
        if n < 0:
            inv = self.monomial_inverse()
            return inv ** (-n)
        acc = Scalar.one()
        for _ in range(n):
            acc = acc * self
        return acc

    def monomial_inverse(self):
        """Inverse, defined only for single-term scalars."""
        if len(self.terms) != 1:
            raise ValueError("only monomial scalars are invertible here")
        (k, quad), = self.terms.items()
        # conjugate over i, then over sqrt2: the norm is rational
        c1 = tuple((c, -n if c in (1, 3) else n, d) for c, n, d in quad)
        m1 = _quad_mul(quad, c1)  # lies in Q(sqrt2): units 0 and 2 only
        c2 = tuple((c, -n if c == 2 else n, d) for c, n, d in m1)
        (_, nn, nd), = _quad_mul(m1, c2)  # the rational norm nn/nd
        numer = _quad_mul(c1, c2)
        return Scalar({-k: _quad_scale(numer, nd if nn > 0 else -nd, abs(nn))})

    # -- predicates -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- serialization --------------------------------------------------

    def to_json(self):
        out = []
        for k in sorted(self.terms):
            row = [k]
            for x in _dense(self.terms[k]):
                row.append(int(x.numerator))
                row.append(int(x.denominator))
            out.append(row)
        return out

    @staticmethod
    def from_json(data):
        """The inverse of to_json; rows that share a pi-exponent add up.

        The data is a list of rows, each [k, a_num, a_den, b_num, b_den,
        c_num, c_den, d_num, d_den] of ints (bools refused) with nonzero
        denominators; anything else raises ValueError.
        """
        if not isinstance(data, list):
            raise ValueError(f"a Scalar is a list of rows: {data!r}")
        terms = {}
        for row in data:
            if not isinstance(row, (list, tuple)) or len(row) != 9:
                raise ValueError(f"a Scalar row has 9 entries: {row!r}")
            if not all(type(v) is int for v in row):
                raise ValueError(f"a Scalar row holds integers only: {row!r}")
            if not all(row[2::2]):
                raise ValueError(f"a Scalar row has a zero denominator: {row!r}")
            entries = _entries(QQ(row[1 + 2 * j], row[2 + 2 * j]) for j in range(4))
            if entries:
                terms = _add(terms, {row[0]: entries})
        return Scalar(terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            a, b, c, d = _dense(self.terms[k])
            atoms = []
            if a:
                atoms.append(str(a))
            if b:
                atoms.append(f"{b}*i")
            if c:
                atoms.append(f"{c}*r2")
            if d:
                atoms.append(f"{d}*i*r2")
            body = " + ".join(atoms)
            if k == 0:
                parts.append(f"({body})")
            else:
                parts.append(f"({body})*pi^{k}")
        return " + ".join(parts)


ZERO = Scalar.zero()
ONE = Scalar.one()
MINUS_I_4PI = Scalar.unit(b=QQ(-1, 4), pi_exp=-1)  # -i/(4 pi)


def rational_of(s: Scalar):
    """Extract a pure rational value; raises if s is not rational."""
    if s.is_zero():
        return QQ(0)
    if len(s.terms) != 1 or 0 not in s.terms:
        raise ValueError(f"not rational: {s!r}")
    a, b, c, d = _dense(s.terms[0])
    if b or c or d:
        raise ValueError(f"not rational: {s!r}")
    return a
