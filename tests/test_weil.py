"""Fock-model generator action: brackets, degrees, the lowering direction."""

import itertools
import random

import pytest

from fockforms.multilinear import MixedForm, SpaceParams
from fockforms.scalars import QQ, Scalar
from fockforms.weil import (
    gl_bracket,
    lowering,
    o_kk,
    o_p,
    omega_kprime,
    polarized_top_operator,
    sp_k,
    sp_pminus,
    sp_pplus,
    x_minus_d,
    x_plus_d,
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
    assert o_kk(P221, 1, 2)(MixedForm.vacuum(P221)).is_zero()
    assert sp_k(P212, 1, 2)(MixedForm.vacuum(P212)).is_zero()


def test_degree_structure():
    f = MixedForm.monomial(P221, z=[(1, 1, 2)])
    kk = o_kk(P221, 1, 2)(f)
    for (zkey, _, _), _c in kk.sorted_terms():
        assert sum(e for _, e in zkey) == 2
    pp = o_p(P221, 1, 3)(f)
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
        return o_kk(params, a, b)
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
    for f in forms:
        lhs = commutator(o_kk(params, 1, 2), o_p(params, 2, 3), f)
        rhs = -o_p(params, 1, 3)(f)
        assert lhs == rhs


def test_lowering_is_quarter_i_pminus():
    params = SpaceParams(2, 1, 1)
    quarter_i = Scalar.unit(b=QQ(1, 4))
    for f in spanning_forms(params, 3):
        lhs = lowering(params)(f)
        rhs = sp_pminus(params, 1, 1)(f).scale(quarter_i)
        assert lhs == rhs


def test_pplus_pminus_commute_into_k():
    """[w''^2-type, w'^2-type] closes onto the unitary block."""
    params = SpaceParams(1, 1, 1)
    a = sp_pplus(params, 1, 1)
    b = sp_pminus(params, 1, 1)
    k = sp_k(params, 1, 1)
    for f in spanning_forms(params, 3):
        lhs = commutator(a, b, f)
        # [p+, p-] = -8i times the k action on one column
        rhs = k(f).scale(Scalar.unit(b=QQ(-8)))
        assert lhs == rhs


def test_intertwine_round_trip():
    """x - d and x + d compose to commutator [a, a*] = multiple of identity."""
    params = SpaceParams(1, 1, 1)
    f = MixedForm.monomial(params, z=[(1, 1, 1)])
    plus_minus = x_plus_d(params, 1, 1) @ x_minus_d(params, 1, 1)
    minus_plus = x_minus_d(params, 1, 1) @ x_plus_d(params, 1, 1)
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
        o_kk(P221, 1, 5)
    with pytest.raises(ValueError):
        lowering(P212)  # n = 1 only
    with pytest.raises(ValueError):
        o_p(P221, 3, 4)  # the positive index comes first
    with pytest.raises(ValueError):
        o_p(P221, 1, 5)
    for builder in (omega_kprime, sp_k, sp_pplus, sp_pminus):
        with pytest.raises(ValueError):
            builder(P212, 1, 3)  # column indices
        with pytest.raises(ValueError):
            builder(P212, 0, 1)
