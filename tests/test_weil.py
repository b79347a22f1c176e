"""Fock-model generator action: brackets, degrees, the lowering direction."""

import itertools
import random

import pytest

from fockforms.multilinear import MixedForm, SpaceParams
from fockforms.scalars import QQ, Scalar
from fockforms.weil import (
    LOWERING,
    O_KK,
    O_P,
    SP_K,
    SP_PMINUS,
    SP_PPLUS,
    X_MINUS_D,
    X_PLUS_D,
    gl_bracket,
    intertwine,
    omega,
    omega_kprime,
    polarized_top_operator,
)

P221 = SpaceParams(2, 2, 1)
P212 = SpaceParams(2, 1, 2)


def spanning_forms(params, maxdeg):
    """All fock monomials up to total degree maxdeg, empty wedge and word."""
    vars_ = [(idx, col) for idx in params.letters() for col in range(1, params.n + 1)]
    out = [MixedForm.vacuum(params)]
    for deg in range(1, maxdeg + 1):
        for combo in itertools.combinations_with_replacement(vars_, deg):
            z = {}
            for v in combo:
                z[v] = z.get(v, 0) + 1
            out.append(MixedForm.monomial(
                params, z=[(i, c, e) for (i, c), e in z.items()]))
    return out


def commutator(opa, opb, form):
    return opa(opb(form)) - opb(opa(form))


def test_compact_block_kills_vacuum():
    assert omega(O_KK(1, 2), P221)(MixedForm.vacuum(P221)).is_zero()
    assert omega(SP_K(1, 2), P212)(MixedForm.vacuum(P212)).is_zero()


def test_degree_structure():
    f = MixedForm.monomial(P221, z=[(1, 1, 2)])
    kk = omega(O_KK(1, 2), P221)(f)
    for (zkey, _, _), _c in kk.sorted_terms():
        assert sum(e for _, e in zkey) == 2
    pp = omega(O_P(1, 3), P221)(f)
    degs = {sum(e for _, e in zkey) for (zkey, _, _), _c in pp.sorted_terms()}
    assert degs <= {0, 4}, degs


def test_unitary_bracket_closure():
    """[omega(k'_{jk}), omega(k'_{lm})] matches the endomorphism bracket."""
    params = P212
    forms = spanning_forms(params, 2)
    for j, k, l, m in itertools.product((1, 2), repeat=4):
        opa = omega_kprime(params, j, k)
        opb = omega_kprime(params, l, m)
        for f in forms:
            lhs = commutator(opa, opb, f)
            rhs = MixedForm(params)
            for coeff, (a, b) in gl_bracket(j, k, l, m):
                rhs = rhs + omega_kprime(params, a, b)(f).scale(QQ(coeff))
            assert lhs == rhs, (j, k, l, m)


def test_rotation_bracket_closure():
    """so relations on the positive compact block."""
    params = SpaceParams(3, 1, 1)
    forms = spanning_forms(params, 2)
    idx = (1, 2, 3)
    def x(a, b):
        return omega(O_KK(a, b), params)
    for a, b, c, d in itertools.product(idx, repeat=4):
        if a == b or c == d:
            continue
        for f in forms[:6]:
            lhs = commutator(x(a, b), x(c, d), f)
            rhs = MixedForm(params)
            if b == c:
                rhs = rhs - x(a, d)(f)
            if b == d:
                rhs = rhs + x(a, c)(f)
            if a == c:
                rhs = rhs + x(b, d)(f)
            if a == d:
                rhs = rhs - x(b, c)(f)
            assert lhs == rhs, (a, b, c, d)


def test_mixed_bracket_lands_in_noncompact():
    """[K-part, P-part] stays in the P-part with so coefficients."""
    params = P221
    forms = spanning_forms(params, 2)
    x = lambda g: omega(g, params)
    for f in forms:
        lhs = commutator(x(O_KK(1, 2)), x(O_P(2, 3)), f)
        rhs = -x(O_P(1, 3))(f)
        assert lhs == rhs


def test_lowering_is_quarter_i_pminus():
    params = SpaceParams(2, 1, 1)
    quarter_i = Scalar.unit(b=QQ(1, 4))
    for f in spanning_forms(params, 3):
        lhs = omega(LOWERING, params)(f)
        rhs = omega(SP_PMINUS(1, 1), params)(f).scale(quarter_i)
        assert lhs == rhs


def test_pplus_pminus_commute_into_k():
    """[w''^2-type, w'^2-type] closes onto the unitary block."""
    params = SpaceParams(1, 1, 1)
    a = omega(SP_PPLUS(1, 1), params)
    b = omega(SP_PMINUS(1, 1), params)
    k = omega(SP_K(1, 1), params)
    for f in spanning_forms(params, 3):
        lhs = commutator(a, b, f)
        # [p+, p-] = -8i times the k action on one column
        rhs = k(f).scale(Scalar.unit(b=QQ(-8)))
        assert lhs == rhs


def test_intertwine_round_trip():
    """x - d and x + d compose to commutator [a, a*] = multiple of identity."""
    params = SpaceParams(1, 1, 1)
    f = MixedForm.monomial(params, z=[(1, 1, 1)])
    plus_minus = intertwine([(X_PLUS_D, 1, 1), (X_MINUS_D, 1, 1)], params)
    minus_plus = intertwine([(X_MINUS_D, 1, 1), (X_PLUS_D, 1, 1)], params)
    diff = plus_minus(f) - minus_plus(f)
    # [x + d/2pi, x - d/2pi] = 1/pi on the nose
    assert diff == f.scale(Scalar.from_rational(QQ(1), pi_exp=-1))


@pytest.mark.parametrize("p,q,n", [(1, 1, 1), (2, 1, 1), (2, 1, 2), (2, 2, 1)])
def test_polarized_package_builds_top_form(p, q, n):
    from fockforms.forms import phi_nq0
    params = SpaceParams(p, q, n)
    got = polarized_top_operator(params)(MixedForm.vacuum(params))
    assert got == phi_nq0(params)


def test_index_validation():
    with pytest.raises(ValueError):
        omega(O_KK(1, 5), P221)
    with pytest.raises(ValueError):
        omega(LOWERING, P212)  # n = 1 only
