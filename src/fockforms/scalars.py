"""The coefficient ring Q(i, sqrt2)[pi, 1/pi].

A Scalar is a finite Laurent polynomial in a formal symbol pi whose
coefficients are elements of Q(i, sqrt2), stored as quadruples
(a, b, c, d) meaning a + b*i + c*sqrt2 + d*i*sqrt2.  The ring is an
integral domain (Laurent polynomials over a field), so exact zero tests
are honest: a residual is zero iff every stored quadruple is zero.

Every ring operation touches only the nonzero components of a quadruple.
The one product kernel, _quad_mul, walks the nonzero components of both
factors and reads each pairwise product of basis elements from a 4x4 unit
table, e_p * e_q = f * e_c:

    i * i = -1,  i * sqrt2 = i sqrt2,  i * i sqrt2 = -sqrt2,
    sqrt2 * sqrt2 = 2,  sqrt2 * i sqrt2 = 2i,  i sqrt2 * i sqrt2 = -2,

so a zero component is never multiplied, and a product lands in an output
component by assignment unless that component already holds a value.  Sums,
negations and rational scales likewise leave zero components untouched.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as QQ  # same arithmetic, much faster
except ImportError:  # pragma: no cover
    QQ = Fraction

_Q0 = QQ(0)


# _UNIT[p][q] = (c, f): e_p * e_q = f * e_c over the basis 1, i, sqrt2, i sqrt2
_UNIT = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, 1), (0, 2), (1, 2)),
    ((3, 1), (2, -1), (1, 2), (0, -2)),
)


def _quad_mul(x, y):
    """x * y over Q(i, sqrt2), one product per pair of nonzero components."""
    out = [_Q0, _Q0, _Q0, _Q0]
    ys = [(q, v) for q, v in enumerate(y) if v]
    for p, u in enumerate(x):
        if not u:
            continue
        row = _UNIT[p]
        for q, v in ys:
            c, f = row[q]
            t = u * v
            if f != 1:
                t = -t if f == -1 else t * f
            out[c] = out[c] + t if out[c] else t
    return tuple(out)


def _quad_add(x, y):
    """x + y, adding only where both components are nonzero."""
    a0, a1, a2, a3 = x
    b0, b1, b2, b3 = y
    return (
        a0 + b0 if a0 and b0 else a0 or b0,
        a1 + b1 if a1 and b1 else a1 or b1,
        a2 + b2 if a2 and b2 else a2 or b2,
        a3 + b3 if a3 and b3 else a3 or b3,
    )


class Scalar:
    """Element of Q(i, sqrt2)[pi, 1/pi], keyed by pi-exponent."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: dict pi_exponent -> (a, b, c, d), zero quadruples dropped
        self.terms = terms if terms is not None else {}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(r, pi_exp=0):
        r = QQ(r)
        if r == 0:
            return Scalar()
        return Scalar({pi_exp: (r, _Q0, _Q0, _Q0)})

    @staticmethod
    def unit(a=0, b=0, c=0, d=0, pi_exp=0):
        quad = (QQ(a), QQ(b), QQ(c), QQ(d))
        if not any(quad):
            return Scalar()
        return Scalar({pi_exp: quad})

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
        base = QQ(2) ** (q // 2)
        if q % 2 == 0:
            return Scalar.unit(a=base)
        return Scalar.unit(c=base)

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        for k, q in other.terms.items():
            if k in out:
                s = _quad_add(out[k], q)
                if any(s):
                    out[k] = s
                else:
                    del out[k]
            else:
                out[k] = q
        return Scalar(out)

    def __neg__(self):
        return Scalar({k: tuple(-t if t else t for t in q) for k, q in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return self.scale(other)
        out = {}
        for k1, q1 in self.terms.items():
            for k2, q2 in other.terms.items():
                k = k1 + k2
                prod = _quad_mul(q1, q2)
                out[k] = _quad_add(out[k], prod) if k in out else prod
        return Scalar({k: q for k, q in out.items() if any(q)})

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, r):
        r = QQ(r)
        if r == 0:
            return Scalar()
        return Scalar({k: tuple(t * r if t else t for t in q) for k, q in self.terms.items()})

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
        a, b, c, d = quad
        # conjugate over i, then over sqrt2: the norm is rational
        c1 = (a, -b if b else b, c, -d if d else d)
        m1 = _quad_mul(quad, c1)  # lies in Q(sqrt2): (x, 0, y, 0)
        x, _, y, _ = m1
        c2 = (x, _Q0, -y if y else y, _Q0)
        n = _quad_mul(m1, c2)[0]  # rational: (n, 0, 0, 0)
        if n == 0:
            raise ZeroDivisionError("scalar is zero")
        numer = _quad_mul(c1, c2)
        return Scalar({-k: tuple(t / n if t else t for t in numer)})

    # -- predicates -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted((k, tuple(q)) for k, q in self.terms.items())))

    # -- serialization --------------------------------------------------

    def to_json(self):
        out = []
        for k in sorted(self.terms):
            a, b, c, d = self.terms[k]
            row = [k]
            for x in (a, b, c, d):
                row.append(int(x.numerator))
                row.append(int(x.denominator))
            out.append(row)
        return out

    @staticmethod
    def from_json(data):
        terms = {}
        for row in data:
            k = row[0]
            quad = tuple(QQ(row[1 + 2 * j], row[2 + 2 * j]) for j in range(4))
            if any(quad):
                terms[int(k)] = quad
        return Scalar(terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            a, b, c, d = self.terms[k]
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
I = Scalar.i()
MINUS_I_4PI = Scalar.unit(b=QQ(-1, 4), pi_exp=-1)  # -i/(4 pi)


def rational_of(s: Scalar):
    """Extract a pure rational value; raises if s is not rational."""
    if s.is_zero():
        return QQ(0)
    if len(s.terms) != 1 or 0 not in s.terms:
        raise ValueError(f"not rational: {s!r}")
    a, b, c, d = s.terms[0]
    if b or c or d:
        raise ValueError(f"not rational: {s!r}")
    return a
