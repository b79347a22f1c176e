"""The three-slot term algebra and its atomic operators."""

import random
from decimal import Decimal

import pytest

import oracles
from fockforms.cli import LIMITS
from fockforms.multilinear import (
    MixedForm,
    SpaceParams,
    a_of_f,
    compose,
    deriv_neg,
    deriv_pos,
    insert_letter,
    insert_metric,
    interior,
    op_sum,
    rho_x,
    tensor_permute,
    wedge_left,
    z_del,
    z_mul,
)
from fockforms.forms import phi_ell, piece_C
from fockforms.multilinear import _FIELD, _gen_bit, _offset, _unpack
from fockforms.rational import QQ, _accum
from fockforms.scalars import ONE, Scalar
from fockforms.schur import _sort_with_sign

P21 = SpaceParams(2, 1, 1)
P22 = SpaceParams(2, 2, 1)


def random_form(params, rng, nterms=6, maxdeg=2, ell=2):
    """Seeded random form with all three slots populated."""
    out = MixedForm(params)
    gens = [(a, mu) for a in params.positive() for mu in params.negative()]
    for _ in range(nterms):
        z = []
        for idx in params.letters():
            for col in range(1, params.n + 1):
                e = rng.randint(0, maxdeg)
                if e:
                    z.append((idx, col, e))
        w = rng.sample(gens, rng.randint(0, min(2, len(gens))))
        t = tuple(rng.choice(params.letters()) for _ in range(ell))
        out = out + MixedForm.monomial(
            params, z=z, w=w, t=t,
            coeff=Scalar.from_rational(QQ(rng.randint(-5, 5), rng.randint(1, 4))))
    return out


def test_wedge_ordering_and_sign():
    f = MixedForm.monomial(P22, w=[(1, 4), (1, 3)])
    g = MixedForm.monomial(P22, w=[(1, 3), (1, 4)])
    assert f == -g
    assert MixedForm.monomial(P22, w=[(1, 3), (1, 3)]).is_zero()


def test_mul_is_graded():
    a = MixedForm.monomial(P22, w=[(1, 3)])
    b = MixedForm.monomial(P22, w=[(1, 4)])
    assert a * b == -(b * a)
    assert (a * a).is_zero()


def test_interior_example():
    # contracting the slot-0 generator keeps sign, slot-1 flips it
    f = MixedForm.monomial(P22, w=[(1, 3), (1, 4)])
    out = interior(1, 3)(f)
    assert out == MixedForm.monomial(P22, w=[(1, 4)])
    out2 = interior(1, 4)(f)
    assert out2 == -MixedForm.monomial(P22, w=[(1, 3)])


def test_interior_is_antiderivation():
    rng = random.Random(3)
    f = random_form(P22, rng, nterms=4, ell=0)
    g = random_form(P22, rng, nterms=4, ell=0)
    iota = interior(1, 3)
    lhs = iota(f * g)
    # no uniform sign on mixed-degree sums, so split f by wedge parity
    even = MixedForm(P22)
    odd = MixedForm(P22)
    for (fock, wedge, word), c in f.sorted_terms():
        piece = MixedForm.monomial(P22, z=[(i, j, e) for (i, j), e in fock],
                                   w=wedge, t=word, coeff=c)
        if len(wedge) % 2:
            odd = odd + piece
        else:
            even = even + piece
    rhs = iota(even) * g + even * iota(g) + iota(odd) * g - odd * iota(g)
    assert lhs == rhs


def test_clifford_anticommutators():
    """A(w) A*(w') + A*(w') A(w) acts as the pairing delta."""
    rng = random.Random(5)
    f = random_form(P22, rng, nterms=5, ell=0)
    for (a, mu) in [(1, 3), (1, 4)]:
        for (b, nu) in [(1, 3), (1, 4)]:
            lhs = (wedge_left(a, mu) @ interior(b, nu))(f) \
                + (interior(b, nu) @ wedge_left(a, mu))(f)
            expect = f if (a, mu) == (b, nu) else MixedForm(P22)
            assert lhs == expect


def test_fock_leibniz():
    f = MixedForm.monomial(P21, z=[(1, 1, 2)])
    assert z_del(1, 1)(f) == MixedForm.monomial(P21, z=[(1, 1, 1)], coeff=Scalar.from_rational(2))
    assert z_del(2, 1)(f).is_zero()
    assert (z_del(1, 1) @ z_mul(1, 1))(MixedForm.vacuum(P21)) == MixedForm.vacuum(P21)


def test_rho_x_swaps_letters():
    f = MixedForm.monomial(P21, t=(3, 1))
    out = rho_x(1, 3)(f)
    # letter 3 -> letter 1 in slot one, letter 1 -> letter 3 in slot two
    assert out == MixedForm.monomial(P21, t=(1, 1)) + MixedForm.monomial(P21, t=(3, 3))


def test_insert_metric_example():
    out = insert_metric(1, 2, "full")(MixedForm.vacuum(P21))
    expect = MixedForm.monomial(P21, t=(1, 1)) \
        + MixedForm.monomial(P21, t=(2, 2)) \
        - MixedForm.monomial(P21, t=(3, 3))
    assert out == expect


def test_piece_C_sums_to_twice_a_of_f():
    """Summed over j, piece_C meets each unordered pair of result slots twice,
    so it is 2 (1/4pi) a_of_f on the degree ell-2 member, in every mode."""
    twice = Scalar.from_rational(QQ(1, 2), pi_exp=-1)
    for params in (P21, P22):
        for ell in (2, 3, 4):
            for mode in ("full", "plus", "minus"):
                total = MixedForm(params)
                for j in range(1, ell + 1):
                    total = total + piece_C(params, ell, j, mode)
                want = a_of_f(ell, mode)(phi_ell(params, ell - 2)).scale(twice)
                assert total == want and not total.is_zero(), (params, ell, mode)


def test_insert_metric_is_literal_composition():
    # the sum over the metric letters of A_hi(e) A_lo(e): insert at slot lo of
    # the operand, then at slot hi > lo of the result
    rng = random.Random(19)
    for params in (P21, P22, SpaceParams(3, 1, 1)):
        letters = {
            "plus": [(a, 1) for a in params.positive()],
            "minus": [(mu, 1) for mu in params.negative()],
            "full": [(a, 1) for a in params.positive()]
                    + [(mu, -1) for mu in params.negative()],
        }
        for length in (0, 1, 2):
            f = random_form(params, rng, nterms=4, ell=length)
            for mode, pairs in letters.items():
                for hi in range(2, length + 3):
                    for lo in range(1, hi):
                        literal = op_sum((sign, insert_letter(hi, l) @ insert_letter(lo, l))
                                         for l, sign in pairs)(f)
                        assert insert_metric(lo, hi, mode)(f) == literal, \
                            (params, length, mode, lo, hi)
                        assert insert_metric(hi, lo, mode)(f) == literal


def test_misspelt_metric_mode_is_refused_when_built():
    for bad in (lambda: insert_metric(1, 2, "ful"), lambda: a_of_f(2, "ful"),
                lambda: piece_C(P21, 2, 1, "ful")):
        with pytest.raises(ValueError, match="metric mode 'ful'"):
            bad()


def test_insert_letter_slots():
    f = MixedForm.monomial(P21, t=(2,))
    assert insert_letter(1, 1)(f) == MixedForm.monomial(P21, t=(1, 2))
    assert insert_letter(2, 1)(f) == MixedForm.monomial(P21, t=(2, 1))
    with pytest.raises(ValueError):
        insert_letter(3, 1)(f)


def test_tensor_permute_composition():
    rng = random.Random(13)
    f = random_form(P21, rng, nterms=5, ell=3)
    s = (2, 3, 1)
    t = (1, 3, 2)
    st = tuple(t[si - 1] for si in s)
    assert tensor_permute(t)(tensor_permute(s)(f)) == tensor_permute(st)(f)


def test_json_round_trip():
    rng = random.Random(17)
    f = random_form(P22, rng, nterms=6, ell=2)
    assert MixedForm.from_json(P22, f.to_json()) == f


def test_json_rejects_bad_indices():
    with pytest.raises(ValueError):
        MixedForm.from_json(P21, [{"z": [[9, 1, 1]], "w": [], "t": [],
                              "c": [[0, 1, 1, 0, 1, 0, 1, 0, 1]]}])


ONE_ROW = ONE.to_json()


@pytest.mark.parametrize("item", [
    {"z": [], "w": [], "t": [1.0], "c": ONE_ROW},
    {"z": [], "w": [], "t": [True], "c": ONE_ROW},
    {"z": [], "w": [], "t": ["1"], "c": ONE_ROW},
    {"z": [[1, 1, True]], "w": [], "t": [], "c": ONE_ROW},
    {"z": [[True, 1, 1]], "w": [], "t": [], "c": ONE_ROW},
    {"z": [[1, 1.0, 1]], "w": [], "t": [], "c": ONE_ROW},
    {"z": [], "w": [[1, 3.0]], "t": [], "c": ONE_ROW},
    {"z": [], "w": [[True, 3]], "t": [], "c": ONE_ROW},
    {"z": [], "w": [], "c": ONE_ROW},
    {"z": [], "w": [], "t": [], "c": ONE_ROW, "x": 0},
    {"z": [[1, 1]], "w": [], "t": [], "c": ONE_ROW},
    {"z": [1], "w": [], "t": [], "c": ONE_ROW},
    {"z": [], "w": [[1, 3, 1]], "t": [], "c": ONE_ROW},
    {"z": [], "w": [], "t": "1", "c": ONE_ROW},
    [[], [], [], ONE_ROW],
    None,
], ids=["float-letter", "bool-letter", "str-letter", "bool-exponent", "bool-index",
        "float-column", "float-generator", "bool-generator", "no-t", "extra-key",
        "short-z", "int-z", "long-w", "str-t", "list-item", "null-item"])
def test_json_refuses_malformed_items(item):
    """An item that is not an object with the keys z, w, t and c, or whose
    indices, exponents, generators or letters are not ints, is refused: the
    shape by from_json, the entry types by MixedForm.monomial."""
    with pytest.raises(ValueError):
        MixedForm.from_json(P21, [item])


def test_packed_keys_round_trip_in_tuple_order():
    """A packed key decodes to strictly increasing tuples, the monomial built
    from them has that very key, and its wedge sign is the sort's sign: the
    fields and bits run in the lexicographic order of their index pairs."""
    rng = random.Random(41)
    for params in (P21, P22, SpaceParams(3, 2, 2)):
        for _ in range(4):
            f = random_form(params, rng, nterms=8, maxdeg=3)
            for key, c in f.terms.items():
                fock, wedge, word = _unpack(key)
                variables = [v for v, _ in fock]
                assert variables == sorted(set(variables)) and all(e for _, e in fock)
                assert list(wedge) == sorted(set(wedge))
                z = [(i, j, e) for (i, j), e in fock]
                assert MixedForm.monomial(params, z=z, w=wedge, t=word, coeff=c).terms == {key: c}
                shuffled = rng.sample(wedge, len(wedge))
                sign = _sort_with_sign(shuffled)[0]
                assert MixedForm.monomial(params, z=z, w=shuffled, t=word).terms \
                    == {key: Scalar.from_rational(sign)}
    corner = SpaceParams(LIMITS["p"], LIMITS["q"], LIMITS["n"])
    variables = [(i, j) for i in corner.letters() for j in range(1, corner.n + 1)]
    assert sorted(variables, key=lambda v: _offset(*v)) == variables
    gens = [(a, mu) for a in corner.positive() for mu in corner.negative()]
    assert sorted(gens, key=lambda g: _gen_bit(*g)) == gens


def test_packed_keys_at_the_limits_corner():
    """At the largest space the CLI admits, every variable at the largest
    exponent a cell reaches (q + ell + 1) and every generator share one key
    without overlap, and the operators read and write the top field and bit."""
    params = SpaceParams(LIMITS["p"], LIMITS["q"], LIMITS["n"])
    top = LIMITS["q"] + LIMITS["ell"] + 1
    z = [(i, j, top) for i in params.letters() for j in range(1, params.n + 1)]
    gens = [(a, mu) for a in params.positive() for mu in params.negative()]
    word = (params.m,) * LIMITS["ell"]
    f = MixedForm.monomial(params, z=z, w=gens, t=word)
    (key, _), = f.terms.items()
    assert _unpack(key) == (tuple(((i, j), e) for i, j, e in z), tuple(gens), word)
    assert MixedForm.from_json(params, f.to_json()) == f
    m, n = params.m, params.n
    lowered = [(i, j, top - 1 if (i, j) == (m, n) else top) for i, j, _ in z]
    assert z_del(m, n)(f) == MixedForm.monomial(params, z=lowered, w=gens, t=word).scale(top)
    assert z_del(m, n)(z_mul(m, n)(f)) == f.scale(top + 1)
    a, mu = gens[-1]
    assert interior(a, mu)(f) == -MixedForm.monomial(params, z=z, w=gens[:-1], t=word)
    assert wedge_left(a, mu)(interior(a, mu)(f)) == f
    g = MixedForm.monomial(params, z=z)
    assert g * g == MixedForm.monomial(params, z=[(i, j, 2 * e) for i, j, e in z])


def test_exponent_fields_refuse_to_carry():
    """An exponent that is not an int in 0.._FIELD is refused on the way in,
    and a product or a multiplication that would carry into the next field
    raises."""
    full = MixedForm.monomial(P21, z=[(1, 1, _FIELD), (2, 1, 1)])
    with pytest.raises(ValueError):
        z_mul(1, 1)(full)
    half = MixedForm.monomial(P21, z=[(1, 1, 128)])
    with pytest.raises(ValueError):
        half * half
    assert half * MixedForm.monomial(P21, z=[(1, 1, _FIELD - 128)]) \
        == MixedForm.monomial(P21, z=[(1, 1, _FIELD)])
    # the top field of the layout carries out of the key, not into a neighbour
    widest = SpaceParams(4, 4, 4)
    with pytest.raises(ValueError):
        z_mul(8, 4)(MixedForm.monomial(widest, z=[(8, 4, _FIELD)]))
    for e in (-1, _FIELD + 1, 1.5):
        with pytest.raises(ValueError):
            MixedForm.monomial(P21, z=[(1, 1, e)])
        with pytest.raises(ValueError):
            MixedForm.from_json(P21, [{"z": [[1, 1, e]], "w": [], "t": [],
                                       "c": ONE.to_json()}])
    for bad in (lambda: SpaceParams(5, 4), lambda: SpaceParams(4, 4, 5),
                lambda: z_mul(9, 1), lambda: z_del(1, 5), lambda: interior(1, 9)):
        with pytest.raises(ValueError):
            bad()


def test_scale_and_linearity():
    f = MixedForm.monomial(P21, z=[(1, 1, 1)])
    assert f.scale(QQ(0)).is_zero()
    assert f + f == f.scale(QQ(2))
    assert (f - f).is_zero()


def naive_sum(pieces, form):
    """The oracle: scale each image and add it to a fresh copy of the total."""
    out = MixedForm(form.params)
    for coeff, op in pieces:
        out = out + op(form).scale(coeff)
    return out


def test_op_sum_matches_naive_loop():
    rng = random.Random(23)
    ops = [z_mul(1), z_del(2), wedge_left(1, 3) @ z_del(1), rho_x(1, 3),
           insert_letter(2, 3), interior(2, 3) @ z_mul(3)]
    half_i = Scalar.unit(b=QQ(1, 2), pi_exp=-1)
    coeffs = [ONE, Scalar.one(), half_i, half_i, QQ(0), Scalar.zero(), QQ(3, 5),
              QQ(3, 5), -1, Scalar.from_rational(QQ(-2, 7), pi_exp=2),
              Scalar.unit(a=1, c=QQ(1, 3)), 1]
    for trial in range(6):
        f = random_form(P21, rng, nterms=5)
        pieces = [(rng.choice(coeffs), rng.choice(ops)) for _ in range(rng.randint(1, 9))]
        assert op_sum(pieces)(f) == naive_sum(pieces, f), trial
    f = random_form(P21, rng)
    assert op_sum([])(f).is_zero()
    assert op_sum([(0, z_mul(1)), (Scalar.zero(), z_del(1))])(f).is_zero()
    assert op_sum([(QQ(2), z_mul(1)), (2, z_mul(1))])(f) == z_mul(1)(f).scale(QQ(4))
    # pieces of different coefficient types that cancel leave no term
    assert op_sum([(QQ(2), z_mul(1)), (-2, z_mul(1))])(f).is_zero()


def test_op_sum_leaves_operand_unchanged():
    rng = random.Random(29)
    f = random_form(P21, rng)
    before = dict(f.terms)
    op_sum([(1, compose([])), (ONE, z_mul(1)), (QQ(1, 2), compose([]))])(f)
    assert f.terms == before


def test_compose():
    rng = random.Random(31)
    f = random_form(P21, rng)
    a, b, c = z_mul(1), wedge_left(2, 3), z_del(1)
    assert compose([])(f) == f
    assert compose([a])(f) == a(f)
    assert compose([a, b])(f) == (a @ b)(f) == a(b(f))
    assert compose(iter([a, b, c]))(f) == a(b(c(f)))


def test_sub_of_equal_forms_is_zero_and_matches_accumulate():
    rng = random.Random(37)

    def accumulate(f, g):
        terms = dict(f.terms)
        for key, c in g.terms.items():
            _accum(terms, key, -c)
        return MixedForm(f.params, terms)

    f = random_form(P22, rng)
    assert (f - f).is_zero()
    assert (f - MixedForm(P22, dict(f.terms))).is_zero()
    assert (MixedForm(P22) - MixedForm(P22)).is_zero()
    # same keys, one coefficient changed: the dicts differ in a value only
    key = next(iter(f.terms))
    g = MixedForm(P22, dict(f.terms))
    g.terms[key] = g.terms[key] + Scalar.one()
    assert (f - g) == accumulate(f, g) == MixedForm(P22, {key: -Scalar.one()})
    for trial in range(6):
        f = random_form(P22, rng, nterms=5)
        # unequal forms of f's size: every value changed, or every key moved
        for other in (f.scale(QQ(2)), z_mul(3)(f), random_form(P22, rng, nterms=5)):
            assert (f - other) == accumulate(f, other), trial
        assert len(z_mul(3)(f).terms) == len(f.terms)


# each builder with its per-term oracle, whether its images never meet (it
# sends distinct inputs to distinct keys), and the arguments it is checked at
# on words of length 2
BUILDERS = [
    (z_mul, oracles.z_mul_terms, True, [(1, 1), (3, 2), (4, 1)]),
    (z_del, oracles.z_del_terms, True, [(1, 1), (2, 2), (4, 1)]),
    (wedge_left, oracles.wedge_left_terms, True, [(1, 3), (2, 4)]),
    (interior, oracles.interior_terms, True, [(1, 3), (2, 3)]),
    (insert_letter, oracles.insert_letter_terms, True, [(1, 2), (2, 4), (3, 1)]),
    (tensor_permute, oracles.tensor_permute_terms, True, [((1, 2),), ((2, 1),)]),
    (rho_x, oracles.rho_x_terms, False, [(1, 3), (2, 4)]),
    (deriv_pos, oracles.deriv_pos_terms, False, [(1, 2), (2, 1), (1, 1)]),
    (deriv_neg, oracles.deriv_neg_terms, False, [(3, 4), (4, 3)]),
    (insert_metric, oracles.insert_metric_terms, True,
     [(1, 2), (3, 1), (2, 4, "plus"), (1, 4, "minus")]),
]


def test_builders_match_per_term_oracles():
    """Every builder gives the form its per-term rewriter gives through
    get/add/drop, and the images of a one-to-one builder never meet: it keeps
    as many terms as its rewriter yields, so it may write them directly."""
    rng = random.Random(43)
    for params in (SpaceParams(2, 2, 2), SpaceParams(3, 2, 1)):
        for trial in range(4):
            f = random_form(params, rng, nterms=10, maxdeg=3)
            for builder, term_fn, one_to_one, arglist in BUILDERS:
                for args in arglist:
                    image = builder(*args)(f)
                    assert image.terms == oracles.lift(term_fn(*args))(f).terms, \
                        (params, trial, builder.__name__, args)
                    if one_to_one:
                        yielded = sum(1 for key, c in f.terms.items()
                                      for _ in term_fn(*args)(params, key, c))
                        assert len(image.terms) == yielded, (builder.__name__, args)


def cancelling_pair(oracle, pool):
    """The first key two monomials of the pool share in their images, and the
    difference of the two, weighted so that the key cancels."""
    seen = {}
    for m in pool:
        for key, c in oracle(m).terms.items():
            if key in seen:
                m1, c1 = seen[key]
                return key, m1.scale(c) - m.scale(c1)
            seen[key] = (m, c)
    raise AssertionError("no two images meet")


def test_one_to_many_builders_cancel_like_their_oracles():
    """Two monomials whose images share a key, weighted so that key cancels:
    rho_x and the wedge derivations drop it, as the oracle does."""
    params = P22
    gens = [(a, mu) for a in params.positive() for mu in params.negative()]
    wedges = [()] + [(g,) for g in gens] + [(g, h) for g in gens for h in gens if g < h]
    words = [(a, b) for a in params.letters() for b in params.letters()]
    pool = [MixedForm.monomial(params, z=[(1, 1, 1)], w=w, t=t) for w in wedges for t in words]
    rng = random.Random(47)
    # insert_metric's images never meet, nor D_{alpha,alpha}'s: they cannot cancel
    for builder, term_fn, arglist in [(rho_x, oracles.rho_x_terms, [(1, 3), (2, 4)]),
                                      (deriv_pos, oracles.deriv_pos_terms, [(1, 2), (2, 1)]),
                                      (deriv_neg, oracles.deriv_neg_terms, [(3, 4), (4, 3)])]:
        for args in arglist:
            op, oracle = builder(*args), oracles.lift(term_fn(*args))
            key, f = cancelling_pair(oracle, pool)
            yielded = sum(1 for k, c in f.terms.items() for _ in term_fn(*args)(params, k, c))
            assert key not in op(f).terms and len(op(f).terms) < yielded
            assert op(f).terms == oracle(f).terms
            g = f + random_form(params, rng, nterms=4)
            assert op(g).terms == oracle(g).terms, (builder.__name__, args)


def test_builders_refuse_bad_slots_and_permutations():
    """A slot below 1 or a tuple that is not a permutation of 1..len is
    refused when the operator is built; the length checks stay at apply."""
    for bad in (lambda: insert_letter(0, 1), lambda: insert_letter(-1, 2),
                lambda: insert_metric(0, 2), lambda: insert_metric(3, 0),
                lambda: tensor_permute((1, 1)), lambda: tensor_permute((3, 1)),
                lambda: tensor_permute((0, 1)), lambda: tensor_permute((2,)),
                lambda: tensor_permute((1, 2, 2))):
        with pytest.raises(ValueError):
            bad()
    f = MixedForm.monomial(P21, t=(2, 3))
    assert tensor_permute(())(MixedForm.vacuum(P21)) == MixedForm.vacuum(P21)
    for bad in (lambda: insert_metric(1, 5)(f), lambda: tensor_permute((2, 1, 3))(f),
                lambda: insert_letter(4, 1)(f)):
        with pytest.raises(ValueError):
            bad()
    full = MixedForm.monomial(P21, z=[(2, 1, _FIELD)])
    with pytest.raises(ValueError, match=f"a Fock exponent exceeds {_FIELD}"):
        z_mul(2, 1)(full)
    assert z_mul(1, 1)(full) == MixedForm.monomial(P21, z=[(1, 1, 1), (2, 1, _FIELD)])


def test_scale_and_op_sum_refuse_non_rationals():
    """A float is read as its binary fraction, so it is refused as a scale
    factor or a coefficient; ints, QQ and Scalars are still taken."""
    f = MixedForm.monomial(P21, z=[(1, 1, 1)], t=(2,))
    for bad in (0.1, 1.0, 0.5 + 0j, Decimal("0.1")):
        with pytest.raises(TypeError):
            f.scale(bad)
        with pytest.raises(TypeError):
            op_sum([(bad, z_mul(1))])
    assert f.scale(2) == f.scale(QQ(2)) == f.scale(Scalar.from_rational(2)) == f + f
    assert op_sum([(QQ(1, 2), z_mul(1)), (1, z_mul(1))])(f) == z_mul(1)(f).scale(QQ(3, 2))
