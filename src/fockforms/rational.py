"""The exact rational type QQ: gmpy2's mpq when it is installed, else
fractions.Fraction.

It lives apart from the coefficient ring in scalars, so a layer that only
needs rationals, as `theta` and `enumeration` do, does not load the ring.
"""

try:
    from gmpy2 import mpq as QQ  # same arithmetic, much faster
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ
