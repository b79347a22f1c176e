"""Schwartz form constructions and the exact identity battery.

The residual functions in fockforms.forms are the verification surface; this
file pins the low-parameter values to frozen literals and runs every named
identity over the small grid.
"""

import itertools
import pickle
import random

import pytest

from fockforms import forms as F
from fockforms.forms import Conventions, DEFAULT_CONVENTIONS
from fockforms.linalg import RatMat
from fockforms.multilinear import (
    MixedForm,
    SpaceParams,
    deriv_neg,
    deriv_pos,
    insert_letter,
    interior,
    op_sum,
    rho_x,
    wedge_left,
    z_del,
    z_mul,
)
from fockforms.rational import QQ, _accum
from fockforms.scalars import MINUS_I_4PI, Scalar
from fockforms.schur import all_words, assert_traceless, partitions_of, young_apply_vec
from fockforms.weil import lowering, o_p
import oracles
from oracles import harmonic_project_vec

GRID = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]


def params_n1(p, q):
    return SpaceParams(p, q, 1)


# ---------------------------------------------------------------------------
# frozen low-parameter values
# ---------------------------------------------------------------------------

def test_phi_base_at_signature_1_1():
    pr = params_n1(1, 1)
    expect = MixedForm.monomial(
        pr, z=[(1, 1, 1)], w=[(1, 2)],
        coeff=Scalar.sqrt2() * MINUS_I_4PI)
    assert F.phi_ell(pr, 0) == expect


def test_phi_base_at_signature_2_1():
    pr = params_n1(2, 1)
    c = Scalar.sqrt2() * MINUS_I_4PI
    expect = MixedForm.monomial(pr, z=[(1, 1, 1)], w=[(1, 3)], coeff=c) \
        + MixedForm.monomial(pr, z=[(2, 1, 1)], w=[(2, 3)], coeff=c)
    assert F.phi_ell(pr, 0) == expect


def test_phi_tensor_factor_positive_indices_only():
    pr = params_n1(1, 1)
    got = F.phi_0ell(pr, (1,))
    expect = MixedForm.monomial(pr, z=[(1, 1, 1)], t=(1,), coeff=MINUS_I_4PI)
    assert got == expect
    # no negative-index letters anywhere in the family
    for term_key in F.phi_ell(params_n1(2, 2), 2).terms:
        assert all(letter <= 2 for letter in term_key[2])


@pytest.mark.parametrize("p,q,n", [(1, 1, 1), (2, 1, 2), (3, 3, 2), (3, 3, 3), (4, 4, 1), (4, 4, 2)])
def test_phi_products_match_tuple_sums(p, q, n):
    """The products of linear forms equal the sums over every index tuple,
    on words with repeated and with mixed columns."""
    pr = SpaceParams(p, q, n)
    assert F.phi_nq0(pr).terms == oracles.phi_nq0(pr).terms
    words = [(), (1,), (n,), (1, 1), (n, n, n), (1, n), (n, 1, n), tuple(range(n, 0, -1))]
    for word in words:
        assert F.phi_0ell(pr, word).terms == oracles.phi_0ell(pr, word).terms, word


def test_leading_constant():
    """Top coefficient of the pure z_1^{q+ell} term is 2^{q/2} (-i/4pi)^{q+ell}."""
    for (p, q) in GRID:
        for ell in (0, 1, 2):
            pr = params_n1(p, q)
            f = F.phi_ell(pr, ell)
            zkey = tuple(sorted([((1, 1), q + ell)]))
            wkey = tuple(sorted((1, p + r) for r in range(1, q + 1)))
            got = dict(f.sorted_terms()).get((zkey, wkey, (1,) * ell))
            expect = Scalar.two_pow_half(q) * MINUS_I_4PI ** (q + ell)
            assert got == expect, (p, q, ell)


def test_phi_rejects_bad_input():
    with pytest.raises(ValueError):
        F.phi_nq0(SpaceParams(1, 1, 2))  # n > p
    with pytest.raises(ValueError):
        F.phi_0ell(params_n1(1, 1), (2,))  # column out of range


def test_two_column_factorization():
    """At n = 2 a split word factors into single-column pieces."""
    pr = SpaceParams(2, 1, 2)
    for l1, l2 in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        word = (1,) * l1 + (2,) * l2
        got = F.phi(pr, word)
        col1 = _column_piece(pr, 1, l1)
        col2 = _column_piece(pr, 2, l2)
        assert got == col1 * col2, word


def _column_piece(params, col, ell):
    """Single-column factor of the top form times its tensor tail."""
    p, q = params.p, params.q
    c = Scalar.two_pow_half(q) * MINUS_I_4PI ** q
    out = MixedForm(params)
    for alpha in itertools.product(params.positive(), repeat=q):
        z = {}
        for r, a in enumerate(alpha, start=1):
            z[(a, col)] = z.get((a, col), 0) + 1
        out = out + MixedForm.monomial(
            params, z=[(i, cc, e) for (i, cc), e in z.items()],
            w=[(a, p + r) for r, a in enumerate(alpha, start=1)], coeff=c)
    return out * F.phi_0ell(params, (col,) * ell)


def test_euler_form_values():
    pr = SpaceParams(1, 2, 1)
    expect = MixedForm.monomial(pr, w=[(1, 2), (1, 3)],
                                coeff=Scalar.from_rational(QQ(-1, 2), pi_exp=-1))
    assert F.euler_form(pr) == expect
    assert F.euler_form(SpaceParams(2, 1, 1)).is_zero()
    assert F.euler_form(SpaceParams(3, 1, 1)).is_zero()


def test_dv_spot_value():
    pr = params_n1(1, 1)
    x = MixedForm.monomial(pr, t=(2,))
    assert F.d_operator(pr, "dV")(x) == MixedForm.monomial(pr, w=[(1, 2)], t=(1,))


# ---------------------------------------------------------------------------
# operator dual routes
# ---------------------------------------------------------------------------

def test_fock_differential_dual_route():
    """d' + d'' agrees with the generator sum over noncompact directions."""
    rng = random.Random(29)
    for (p, q) in [(1, 1), (2, 1), (2, 2)]:
        pr = params_n1(p, q)
        direct = lambda f: (F.d_operator(pr, "dF_prime")(f)
                            + F.d_operator(pr, "dF_doubleprime")(f))
        via_weil = lambda f: _sum_forms(
            pr,
            [wedge_left(a, mu)(o_p(pr, a, mu)(f))
             for a in pr.positive() for mu in pr.negative()])
        for ell in (0, 1, 2):
            f = F.phi_ell(pr, ell)
            assert direct(f) == via_weil(f), (p, q, ell)
        g = _random_full_form(pr, rng)
        assert direct(g) == via_weil(g), (p, q, "random")


def _sum_forms(params, forms):
    out = MixedForm(params)
    for f in forms:
        out = out + f
    return out


def _random_full_form(params, rng, nterms=5, ell=2):
    gens = [(a, mu) for a in params.positive() for mu in params.negative()]
    out = MixedForm(params)
    for _ in range(nterms):
        z = []
        for idx in params.letters():
            e = rng.randint(0, 2)
            if e:
                z.append((idx, 1, e))
        w = rng.sample(gens, rng.randint(0, min(2, len(gens))))
        t = tuple(rng.choice(params.letters()) for _ in range(ell))
        out = out + MixedForm.monomial(
            params, z=z, w=w, t=t,
            coeff=Scalar.from_rational(QQ(rng.randint(-4, 4), rng.randint(1, 3))))
    return out


def _anticommutator(opa, opb, form):
    return opa(opb(form)) + opb(opa(form))


def test_second_order_transfer_identity():
    """4 pi {d'', h'_j} written out in raised and lowered wedge derivations."""
    rng = random.Random(31)
    for (p, q) in [(1, 1), (2, 1), (2, 2)]:
        pr = params_n1(p, q)
        d2 = F.d_operator(pr, "dF_doubleprime")
        for j in (1, 2):
            hj = F.h_prime(pr, j)
            for trial in range(3):
                f = _random_full_form(pr, rng, ell=2)
                lhs = _anticommutator(d2, hj, f).scale(
                    Scalar.from_rational(QQ(4), pi_exp=1))
                rhs = MixedForm(pr)
                for a in pr.positive():
                    for mu in pr.negative():
                        rhs = rhs + (insert_letter(j, mu) @ z_mul(mu, 1)
                                     @ z_del(a, 1) @ z_mul(a, 1))(f)
                for mu in pr.negative():
                    for nu in pr.negative():
                        rhs = rhs - (insert_letter(j, nu) @ deriv_neg(mu, nu)
                                     @ z_mul(mu, 1))(f)
                assert lhs == rhs, (p, q, j, trial)


def test_vector_transfer_identity():
    """{dV, h'_j} in terms of the word derivation and the positive block."""
    rng = random.Random(37)
    for (p, q) in [(1, 1), (2, 1), (2, 2)]:
        pr = params_n1(p, q)
        dv = F.d_operator(pr, "dV")
        for j in (1, 2):
            hj = F.h_prime(pr, j)
            for trial in range(3):
                f = _random_full_form(pr, rng, ell=2)
                lhs = _anticommutator(dv, hj, f)
                rhs = MixedForm(pr)
                for a in pr.positive():
                    for mu in pr.negative():
                        rhs = rhs + (insert_letter(j, mu) @ rho_x(a, mu)
                                     @ z_del(a, 1))(f)
                for a in pr.positive():
                    for b in pr.positive():
                        rhs = rhs + (insert_letter(j, a) @ deriv_pos(a, b)
                                     @ z_del(b, 1))(f)
                assert lhs == rhs, (p, q, j, trial)


def test_first_order_transfer_vanishes_on_family():
    for (p, q) in [(1, 1), (2, 2)]:
        pr = params_n1(p, q)
        d1 = F.d_operator(pr, "dF_prime")
        for ell in (1, 2):
            for j in range(1, ell + 1):
                hj = F.h_prime(pr, j)
                assert _anticommutator(d1, hj, F.phi_ell(pr, ell)).is_zero()


def test_transfer_scalars_on_family():
    """The two anticommutators act on the family by the expected pieces."""
    for (p, q) in [(1, 1), (2, 1), (2, 2)]:
        pr = params_n1(p, q)
        d2 = F.d_operator(pr, "dF_doubleprime")
        dv = F.d_operator(pr, "dV")
        for ell in (1, 2, 3):
            base = F.phi_ell(pr, ell - 1)
            scale = Scalar.unit(b=QQ(-(p + q + ell - 2)))
            for j in range(1, ell + 1):
                hj = F.h_prime(pr, j)
                got2 = _anticommutator(d2, hj, base)
                assert got2 == F.piece_A(pr, ell, j).scale(scale), (p, q, ell, j, "A")
                gotv = _anticommutator(dv, hj, base)
                expect = (F.piece_B(pr, ell, j)
                          + F.piece_C(pr, ell, j, "minus")).scale(scale)
                assert gotv == expect, (p, q, ell, j, "BC")


# ---------------------------------------------------------------------------
# the named identities over the grid
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,q", GRID)
def test_closedness_grid(p, q):
    pr = params_n1(p, q)
    for ell in range(4):
        for variant in ("dF_prime", "dF_doubleprime", "dV"):
            assert F.residual_closedness(pr, (1,) * ell, variant).is_zero()


@pytest.mark.parametrize("p,q", GRID)
def test_kprime_grid(p, q):
    pr = params_n1(p, q)
    for ell in range(4):
        assert F.residual_kprime_weight(pr, ell).is_zero()
        assert F.residual_kprime_weight_reversed(pr, ell).is_zero()
        assert F.residual_fock_kprime(pr, (1,) * ell, 1, 1).is_zero()


@pytest.mark.parametrize("p,q", GRID)
def test_recursion_grid(p, q):
    pr = params_n1(p, q)
    for ell in (1, 2, 3):
        for j in range(1, ell + 1):
            assert F.residual_lem3a(pr, ell, j).is_zero()
            assert F.residual_prop3a(pr, ell, j).is_zero()
            assert F.residual_recursion(pr, ell, j).is_zero()


@pytest.mark.parametrize("p,q", GRID)
def test_lowering_grid(p, q):
    pr = params_n1(p, q)
    assert F.residual_psi_base(pr).is_zero()
    for ell in range(4):
        assert F.residual_psi_consistency(pr, ell).is_zero()
        assert F.residual_lemma4a(pr, ell).is_zero()
        assert F.residual_lemma4b_i(pr, ell).is_zero()
        assert F.residual_lemma4b_ii(pr, ell).is_zero()
        assert F.residual_lowering(pr, ell).is_zero()


def test_closedness_two_columns():
    pr = SpaceParams(2, 1, 2)
    for ell in range(3):
        for word in itertools.product((1, 2), repeat=ell):
            for variant in ("dF_prime", "dF_doubleprime", "dV"):
                assert F.residual_closedness(pr, word, variant).is_zero()


def test_fock_kprime_two_columns():
    pr = SpaceParams(2, 1, 2)
    for ell in range(3):
        for word in itertools.product((1, 2), repeat=ell):
            for j in (1, 2):
                for k in (1, 2):
                    assert F.residual_fock_kprime(pr, word, j, k).is_zero()


def test_equivariance_two_columns():
    pr = SpaceParams(2, 1, 2)
    for word in itertools.product((1, 2), repeat=3):
        for perm in itertools.permutations((1, 2, 3)):
            assert F.residual_equivariance(pr, word, perm).is_zero()


SIGMA_GL_CELLS = [(2, 1, 2), (3, 1, 2), (3, 1, 3)]


def _column_matrix(n, rng, sign):
    """An n x n integer matrix with x[k][j] = sign * x[j][k] and entries drawn
    from +-1, +-2, +-3: antisymmetric for sign -1, symmetric for sign 1."""
    x = [[0] * n for _ in range(n)]
    for j in range(n):
        for k in range(j + (sign < 0), n):
            x[j][k] = rng.choice((-3, -2, -1, 1, 2, 3))
            x[k][j] = sign * x[j][k]
    return x


def test_sigma_gl_invariance():
    """sigma is o(n)-equivariant: an antisymmetric X gives zero on every word,
    on the vacuum and on phi_nq0.  It is not gl_n-equivariant: a symmetric X
    leaves a residual on every word, and E_12 on some word of each cell."""
    rng = random.Random(41)
    for p, q, n in SIGMA_GL_CELLS:
        pr = SpaceParams(p, q, n)
        vacuum = MixedForm.vacuum(pr)
        words = list(itertools.product(range(1, n + 1), repeat=2))
        anti = _column_matrix(n, rng, -1)
        for test_form in (vacuum, F.phi_nq0(pr)):
            for word in words:
                assert F.residual_sigma_gl(pr, word, anti, test_form).is_zero()
        sym = _column_matrix(n, rng, 1)
        for word in words:
            assert not F.residual_sigma_gl(pr, word, sym, vacuum).is_zero(), (p, q, n, word)
        e12 = [[int((j, k) == (0, 1)) for k in range(n)] for j in range(n)]
        assert not all(F.residual_sigma_gl(pr, word, e12, vacuum).is_zero() for word in words)


def _a_sigma_copy(mul_col=None):
    """forms.a_sigma written out again; with mul_col, its multiplications read
    that column whatever the column asked for."""
    def build(params, j, col=1, conv=DEFAULT_CONVENTIONS):
        pieces = []
        for idx in params.letters():
            unit = Scalar.i() if idx <= params.p else Scalar.unit(b=conv.sigma_negative_sign)
            ins = insert_letter(j, idx)
            pieces.append((unit, ins @ z_del(idx, col)))
            pieces.append((unit * Scalar.from_rational(QQ(-1, 4), pi_exp=-1),
                           ins @ z_mul(idx, mul_col or col)))
        return op_sum(pieces)
    return build


def test_sigma_gl_cell_catches_column_one_multiplications(monkeypatch):
    """With A(sigma)'s multiplications reading column 1, every word of the
    (2,1,2) and (3,1,3) cells fails; the faithful copy passes them all."""
    for mutant, fails in ((_a_sigma_copy(), False), (_a_sigma_copy(mul_col=1), True)):
        monkeypatch.setattr(F, "a_sigma", mutant)
        for p, q, n in ((2, 1, 2), (3, 1, 3)):
            cases = list(F._residual_cases("sigma_gl", SpaceParams(p, q, n), 2,
                                           DEFAULT_CONVENTIONS))
            assert len(cases) == n * n
            for label, residual in cases:
                assert residual.is_zero() != fails, (mutant, p, q, n, label)
    monkeypatch.undo()
    assert F.run_identity("sigma_gl", 3, 1, 3, 2).passed


def test_holomorphicity():
    for (p, q) in [(2, 1), (2, 2)]:
        pr = params_n1(p, q)
        for ell in (0, 1, 2, 3):
            main, killed = F.holomorphicity_residuals(pr, ell)
            assert killed.is_zero(), (p, q, ell)
            assert main.is_zero(), (p, q, ell)


# ---------------------------------------------------------------------------
# harmonic Schur members
# ---------------------------------------------------------------------------

def test_bracket_single_box_is_degree_one():
    pr = params_n1(2, 1)
    fam = F.phi_nq_bracket_lambda(pr, (1,))
    assert fam((1,)) == F.phi_ell(pr, 1)


def test_bracket_column_shape_dies_on_one_column():
    pr = params_n1(2, 1)
    fam = F.phi_nq_bracket_lambda(pr, (1, 1))
    assert fam((1, 1)).is_zero()


def _assert_traceless_parts(form):
    """schur.assert_traceless on the words of each (fock, wedge) part, for the
    signature form diag(eps)."""
    pr = form.params
    eps = [[pr.eps(a) if a == b else 0 for b in pr.letters()] for a in pr.letters()]
    parts = {}
    for (fock, wedge, word), c in form.terms.items():
        parts.setdefault((fock, wedge), {})[word] = c
    for vec in parts.values():
        assert_traceless(vec, eps, len(next(iter(vec))))


def test_bracket_row_shape_is_traceless():
    for (p, q) in [(2, 1), (2, 2)]:
        pr = params_n1(p, q)
        fam = F.phi_nq_bracket_lambda(pr, (2,))
        v = fam((1, 1))
        assert not v.is_zero()
        _assert_traceless_parts(v)


def _word_oracle(lam, pr):
    """The per-word composition: harmonic_project_vec of the Young projection
    of each basis word, for the signature form diag(eps)."""
    eps = RatMat.diagonal([pr.eps(k) for k in pr.letters()])
    return {w: harmonic_project_vec(young_apply_vec(lam, {w: QQ(1)}), eps, lam)
            for w in all_words(pr.m, sum(lam))}


@pytest.mark.parametrize("p,q", [(2, 1), (2, 2), (3, 1)])
def test_output_projector_matches_word_oracle(p, q):
    """output_projector equals the dict Young-then-harmonic projection word by
    word, on the symmetric phi_ell and the non-symmetric lowering primitive,
    for every shape of degree <= 4, and it is idempotent."""
    pr = params_n1(p, q)
    for ell in range(1, 5):
        for lam in partitions_of(ell):
            project = F.output_projector(lam, pr.m)
            oracle = _word_oracle(lam, pr)
            for form in (F.phi_ell(pr, ell), F.lowering_primitive(pr, ell)):
                want = MixedForm(pr)
                for (fock, wedge, word), c in form.terms.items():
                    for target, r in oracle[word].items():
                        _accum(want.terms, (fock, wedge, target), c.scale(r))
                got = project(form)
                assert got == want, (p, q, lam)
                assert project(got) == got, (p, q, lam)


def test_output_projector_permutes_no_slots(monkeypatch):
    """The Young step of output_projector is young_apply_vec on each
    (fock, wedge) part: with tensor_permute refusing every call, the
    projections of the symmetric phi_ell and of phi on the mixed word
    (1, 2, 1), whose (2, 1) part is nonzero, are unchanged."""
    pr = params_n1(2, 1)
    forms = (F.phi_ell(pr, 3), F.phi(SpaceParams(2, 1, 2), (1, 2, 1)))
    shapes = [(3,), (2, 1)]
    want = {lam: [F.output_projector(lam, pr.m)(f) for f in forms] for lam in shapes}
    assert not want[(2, 1)][1].is_zero()

    def refuse(perm):
        raise AssertionError("output_projector permuted tensor slots")
    monkeypatch.setattr(F, "tensor_permute", refuse)
    for lam in shapes:
        project = F.output_projector(lam, pr.m)
        assert [project(f) for f in forms] == want[lam], lam


def test_bracket_hook_shape_is_traceless():
    pr = SpaceParams(3, 1, 3)
    fam = F.phi_nq_bracket_lambda(pr, (2, 1, 1))
    v = fam((1, 1, 2, 3))
    assert not v.is_zero()
    _assert_traceless_parts(v)


# ---------------------------------------------------------------------------
# convention sensitivity
# ---------------------------------------------------------------------------

def _mutants():
    base = DEFAULT_CONVENTIONS
    return {
        "d_second_rat": base._replace(d_second_rat=QQ(1, 2)),
        "lambda_offset": base._replace(lambda_offset=0),
        "sigma_negative_sign": base._replace(sigma_negative_sign=1),
        "metric_sign": base._replace(metric_sign=1),
        "kprime_weight": base._replace(kprime_weight=QQ(2)),
    }


def _survives(conv):
    pr = params_n1(2, 1)
    pr2 = SpaceParams(2, 1, 2)
    checks = [
        F.residual_closedness(pr, (1, 1), "dF_doubleprime", conv),
        F.residual_kprime_weight(pr, 2, conv),
        F.residual_kprime_weight_reversed(pr, 2, conv),
        F.residual_fock_kprime(pr2, (1, 2), 1, 1, conv),
        F.residual_lem3a(pr, 2, 1, conv),
        F.residual_prop3a(pr, 2, 1, conv),
        F.residual_recursion(pr, 2, 1, conv),
        F.residual_lowering(pr, 2, conv),
    ]
    return all(r.is_zero() for r in checks)


def test_default_conventions_pass():
    assert _survives(DEFAULT_CONVENTIONS)


@pytest.mark.parametrize("name", sorted(_mutants()))
def test_each_mutation_breaks_an_identity(name):
    assert not _survives(_mutants()[name]), name


# ---------------------------------------------------------------------------
# the shared-form memo
# ---------------------------------------------------------------------------

def _grid_rows():
    return [F.run_identity(*cell).to_json() for cell in F.default_grid()]


def test_report_json_carries_no_timing():
    report = F.run_identity("closedness", 2, 1, 1, 2)
    assert "seconds" not in report.to_json()
    assert isinstance(report.seconds, float)


def test_grid_twice_gives_identical_reports():
    """The second pass reads the memo tables, the cached builders and the
    kept forms the first pass left; its reports must not differ."""
    first = _grid_rows()
    assert all(row["passed"] for row in first)
    assert _grid_rows() == first


def test_grid_pass_mutates_no_kept_form():
    _grid_rows()
    kept = [(form, form.to_json()) for form in F._SHARED.values()]
    assert kept
    _grid_rows()
    for form, before in kept:
        assert form.to_json() == before


def test_shared_budget_bounds_held_terms(monkeypatch):
    expected = _grid_rows()
    monkeypatch.setattr(F, "SHARED_TERMS", 64)
    monkeypatch.setattr(F, "_SHARED", {})
    monkeypatch.setattr(F, "_shared_held", 0)
    rows = []
    for cell in F.default_grid():
        report = F.run_identity(*cell)
        assert report.passed, cell
        rows.append(report.to_json())
        assert F._shared_held == sum(len(f.terms) for f in F._SHARED.values()) <= 64
    assert rows == expected


def test_shared_keys_fill_in_defaults():
    pr = params_n1(2, 1)
    form = F.lambda_form(pr, 1, 1)
    assert F.lambda_form(pr, 1, 1, DEFAULT_CONVENTIONS) is form
    assert F.lambda_form(pr, 1, j=1, conv=DEFAULT_CONVENTIONS) is form
    other = F.lambda_form(pr, 1, 1, Conventions(lambda_offset=0))
    assert other is not form and other != form


def test_operator_builders_are_built_once():
    """Equal arguments give the same operator object; another Conventions
    gives another one, so the mutation test still reaches its constants."""
    from fockforms import weil
    pr, again = params_n1(2, 1), params_n1(2, 1)
    builds = [
        lambda p, conv: F.d_operator(p, "full", conv),
        lambda p, conv: F.d_operator(p, "dF_doubleprime", conv),
        lambda p, conv: F.a_sigma(p, 2, 1, conv),
        lambda p, conv: F.h_prime(p, 1),
        lambda p, conv: F.h_op(p),
        lambda p, conv: weil.lowering(p),
        lambda p, conv: weil.omega_kprime(SpaceParams(p.p, p.q, 2), 1, 2),
    ]
    for build in builds:
        assert build(pr, DEFAULT_CONVENTIONS) is build(again, Conventions())
    base = DEFAULT_CONVENTIONS
    for conv in _mutants().values():
        assert F.d_operator(pr, "full", conv) is not F.d_operator(pr, "full", base)
        assert F.a_sigma(pr, 2, 1, conv) is not F.a_sigma(pr, 2, 1, base)
    assert F.d_operator(pr, "dV") is not F.d_operator(pr, "full")
    vac = MixedForm.vacuum(pr)
    bad = Conventions(d_second_rat=QQ(1, 2))
    assert F.d_operator(pr, "full", bad)(vac) == F.d_operator(pr, "full")(vac).scale(2)


@pytest.mark.parametrize("field,value", [("d_second_rat", 0.25), ("kprime_weight", 1.0),
                                         ("metric_sign", -1.0), ("lambda_offset", "-1")])
def test_conventions_refuse_inexact_fields(field, value):
    """0.25 == QQ(1, 4) with one hash, so a float field would share the exact
    field's cached operators; it is refused instead."""
    with pytest.raises(TypeError):
        Conventions(**{field: value})


def test_records_keep_their_checks_through_every_constructor():
    """namedtuple's own _make, and so _replace, skip __new__; the records
    route both through it, so no constructor admits a field the checks refuse."""
    for build in (lambda: Conventions(kprime_weight=0.25),
                  lambda: DEFAULT_CONVENTIONS._replace(metric_sign=0.5),
                  lambda: Conventions._make([0.25, -1, -1, -1, 1])):
        with pytest.raises(TypeError):
            build()
    for build in (lambda: SpaceParams(0, 1), lambda: SpaceParams(2, 1)._replace(p=9),
                  lambda: SpaceParams._make((5, 4, 1))):
        with pytest.raises(ValueError):
            build()
    records = [DEFAULT_CONVENTIONS, SpaceParams(p=2, q=1, n=1),
               F.run_identity("closedness", 2, 1, 1, 1)]
    for record in records:
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], record[0])
        again = pickle.loads(pickle.dumps(record))
        assert type(again) is type(record) and again == record
    pr = params_n1(2, 1)
    assert F.d_operator(pr, "full", Conventions()) is F.d_operator(
        pr, "full", DEFAULT_CONVENTIONS._replace())


def _lowering_by_primitive(params, ell, conv):
    """The lowering residual with d applied to the assembled primitive."""
    from fockforms.multilinear import a_of_f
    lhs = lowering(params)(F.phi_ell(params, ell))
    rhs = F.d_operator(params, "full", conv)(F.lowering_primitive(params, ell, conv))
    rhs = rhs - a_of_f(ell, "full")(F.phi_ell(params, ell - 2)).scale(
        Scalar.from_rational(QQ(1, 4), pi_exp=-1))
    return lhs - rhs


@pytest.mark.parametrize("p,q,ell", [(1, 1, 2), (2, 1, 3), (2, 2, 2), (3, 1, 1), (1, 2, 0)])
def test_residual_lowering_matches_primitive_assembly(p, q, ell):
    pr = params_n1(p, q)
    for conv in [DEFAULT_CONVENTIONS] + list(_mutants().values()):
        assert F.residual_lowering(pr, ell, conv) == _lowering_by_primitive(pr, ell, conv)


# ---------------------------------------------------------------------------
# reporting layer
# ---------------------------------------------------------------------------

def test_run_identity_reports():
    rep = F.run_identity("closedness", 2, 1, 1, 2)
    assert rep.passed and rep.cases == 3
    data = rep.to_json()
    assert data["identity"] == "closedness"
    assert "residual_sample" not in data


def test_run_identity_failure_sample():
    bad = DEFAULT_CONVENTIONS._replace(metric_sign=1)
    rep = F.run_identity("recursion", 2, 1, 1, 2, conv=bad)
    assert not rep.passed
    data = rep.to_json()
    assert data["failed_case"]
    assert 0 < len(data["residual_sample"]) <= 5


def test_default_grid_covers_required_identities():
    idents = {cell[0] for cell in F.default_grid()}
    assert {"closedness", "kprime", "recursion", "lowering", "psi_base",
            "holomorphicity", "equivariance", "sigma_gl"} <= idents
