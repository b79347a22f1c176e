"""The exact rational type QQ: gmpy2's mpq when it is installed, else
fractions.Fraction, and _accum, the sparse accumulate step.

They live apart from the coefficient ring in scalars, so a layer that only
needs rationals, as `theta`, `enumeration` and `schur` do, does not load the
ring.
"""

try:
    from gmpy2 import mpq as QQ  # same arithmetic, much faster
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ


def _accum(vec, key, value):
    """vec[key] += value in place, dropping the key when the sum is zero.

    The sparse accumulate step of the exact layers: linalg's RatMat sums,
    products and elimination, schur's tensors, MixedForm's +, -, * and
    from_json, the operators rho_x, deriv_pos and deriv_neg, and
    forms.phi_linear add through it.  The one-to-one operator builders write
    their images directly, and op_sum inlines its own accumulate.  value is an
    int, a QQ or a Scalar; a zero value added to an absent key leaves no
    entry.
    """
    s = vec.get(key)
    s = value if s is None else s + value
    if s:
        vec[key] = s
    else:
        vec.pop(key, None)
