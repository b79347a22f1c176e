"""Ring axioms, serialization and the sparse kernels of the exact scalars."""

import math
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockforms import scalars as S
from fockforms.rational import QQ, _accum
from fockforms.scalars import MINUS_I_4PI, Scalar, _quad_mul, rational_of

rationals = st.builds(
    lambda n, d: QQ(n, d),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=20),
)


@st.composite
def scalars(draw):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    s = Scalar.zero()
    for _ in range(n_terms):
        k = draw(st.integers(min_value=-3, max_value=3))
        s = s + Scalar.unit(
            a=draw(rationals), b=draw(rationals),
            c=draw(rationals), d=draw(rationals), pi_exp=k)
    return s


@given(scalars(), scalars(), scalars())
@settings(max_examples=200, deadline=None)
def test_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + Scalar.zero() == x
    assert x * Scalar.one() == x
    assert (x - x).is_zero()


@given(scalars())
@settings(max_examples=200, deadline=None)
def test_json_round_trip(x):
    assert Scalar.from_json(x.to_json()) == x


@given(scalars())
@settings(max_examples=100, deadline=None)
def test_negation(x):
    assert (x + (-x)).is_zero()
    assert -(-x) == x


# -- a dense view of the entry layout ----------------------------------------

def entries_of(quad):
    """The (unit, num, den) entries of a dense quadruple of rationals."""
    return tuple((c, int(v.numerator), int(v.denominator))
                 for c, v in enumerate(map(QQ, quad)) if v)


def quad_of(entries):
    """The dense quadruple of QQ that a tuple of entries stands for."""
    quad = [QQ(0)] * 4
    for c, n, d in entries:
        quad[c] = QQ(n, d)
    return tuple(quad)


def from_dense(terms):
    """A Scalar from a dict pi-exponent -> dense quadruple."""
    return Scalar({k: entries_of(q) for k, q in terms.items() if any(q)})


def dense(s):
    """The dict pi-exponent -> dense quadruple of a Scalar."""
    return {k: quad_of(q) for k, q in s.terms.items()}


# -- the dense oracle --------------------------------------------------------

def dense_quad_mul(x, y):
    """All 16 component products over the basis 1, i, r = sqrt2, ir."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
        a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
        a1 * c2 + c1 * a2 - (b1 * d2 + d1 * b2),
        a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
    )


def _dense_sum(terms, k, quad):
    old = terms.get(k, (0, 0, 0, 0))
    terms[k] = tuple(u + v for u, v in zip(old, quad))


def _nonzero(terms):
    return {k: q for k, q in terms.items() if any(q)}


def oracle_mul(x, y):
    out = {}
    for k1, q1 in x.items():
        for k2, q2 in y.items():
            _dense_sum(out, k1 + k2, dense_quad_mul(q1, q2))
    return _nonzero(out)


def oracle_add(x, y):
    out = dict(x)
    for k, q in y.items():
        _dense_sum(out, k, q)
    return _nonzero(out)


def oracle_scale(x, r):
    return _nonzero({k: tuple(t * r for t in q) for k, q in x.items()})


def oracle_inverse(x):
    (k, (a, b, c, d)), = x.items()
    c1 = (a, -b, c, -d)
    x1, _, y1, _ = dense_quad_mul((a, b, c, d), c1)
    c2 = (x1, 0, -y1, 0)
    n = dense_quad_mul((x1, 0, y1, 0), c2)[0]
    return {-k: tuple(t / n for t in dense_quad_mul(c1, c2))}


nonzero_rationals = rationals.filter(bool)


@st.composite
def sparse_scalars(draw):
    """Quadruples with 0-4 nonzero components over a few pi-exponents."""
    terms = {}
    for k in draw(st.sets(st.integers(min_value=-3, max_value=3), max_size=3)):
        support = draw(st.sets(st.integers(min_value=0, max_value=3), min_size=1))
        quad = [QQ(0)] * 4
        for c in support:
            quad[c] = draw(nonzero_rationals)
        terms[k] = tuple(quad)
    return from_dense(terms)


def _assert_layout(s):
    for entries in s.terms.values():
        assert type(entries) is tuple and entries
        units = [e[0] for e in entries]
        assert units == sorted(set(units)) and set(units) <= {0, 1, 2, 3}
        for _, num, den in entries:
            assert type(num) is int and type(den) is int
            assert num != 0 and den > 0 and math.gcd(num, den) == 1
        # one truthy item per nonzero component: a tracer counts them so
        assert sum(1 for e in entries if e) == sum(1 for v in quad_of(entries) if v)


@given(sparse_scalars(), sparse_scalars(), nonzero_rationals)
@settings(max_examples=300, deadline=None)
def test_sparse_kernels_match_dense_oracle(x, y, r):
    assert dense(x * y) == oracle_mul(dense(x), dense(y))
    assert dense(x + y) == oracle_add(dense(x), dense(y))
    assert dense(x - y) == oracle_add(dense(x), oracle_scale(dense(y), -1))
    assert dense(-x) == oracle_scale(dense(x), -1)
    assert dense(x.scale(r)) == oracle_scale(dense(x), r)
    assert dense(x * r) == oracle_scale(dense(x), r)
    for k, q in dense(x).items():
        mono = from_dense({k: q})
        assert dense(mono.monomial_inverse()) == oracle_inverse({k: q})
        assert dense(mono ** -2) == oracle_mul(oracle_inverse({k: q}),
                                               oracle_inverse({k: q}))


def test_unit_pairs_match_dense_oracle():
    one = QQ(1)
    units = [tuple(one if c == p else QQ(0) for c in range(4)) for p in range(4)]
    for x in units:
        for y in units:
            assert quad_of(_quad_mul(entries_of(x), entries_of(y))) == dense_quad_mul(x, y)
            assert dense(from_dense({0: x}) * from_dense({1: y})) == {1: dense_quad_mul(x, y)}


@given(sparse_scalars(), sparse_scalars(), nonzero_rationals)
@settings(max_examples=100, deadline=None)
def test_terms_layout(x, y, r):
    """Entries stay reduced, with den > 0, num != 0 and strictly increasing
    units, and a zero coefficient leaves no pi-exponent."""
    for s in (x * y, x + y, x - y, -x, x.scale(r), x * x - x * x):
        _assert_layout(s)


@given(sparse_scalars(), sparse_scalars())
@settings(max_examples=100, deadline=None)
def test_equal_values_have_equal_terms(x, y):
    """The layout is canonical, so equality and hashing are dict comparisons:
    values reached by different routes have identical terms."""
    pairs = [(x.scale(QQ(6, 4)), x.scale(QQ(2, 3)).scale(QQ(9, 4))),
             (x + y - y, x), (x * y + x * y, (x + x) * y)]
    for k, q in y.terms.items():
        m = Scalar({k: q})
        pairs.append(((x * m) * m.monomial_inverse(), x))
    for a, b in pairs:
        assert a.terms == b.terms and a == b and hash(a) == hash(b)


# -- the memo tables -----------------------------------------------------------

TABLES = ("_IDS", "_MUL", "_ADD", "_SCALE")


def _copy(x):
    """x rebuilt from a copy of its terms: the object the id table holds for
    that value, a new one if the table was cleared since x was made."""
    return Scalar(dict(x.terms))


@pytest.mark.parametrize("bound", [S.MEMO_ENTRIES, 3], ids=["default", "tiny"])
@given(st.lists(sparse_scalars(), min_size=1, max_size=5), nonzero_rationals)
@settings(max_examples=100, deadline=None)
def test_memo_matches_bare_kernels(bound, values, r):
    """The memoised *, +, -, negation and scale give the kernels' values.
    With a tiny bound the tables are cleared mid-test, and still no id is
    handed out twice and no id ever stands for two values.  Each example
    starts from empty tables: one whose lookups all hit inserts nothing, so
    clears nothing, and would leave tables filled at the real bound."""
    issued = []
    fresh = S._new_id

    def recording():
        issued.append(fresh())
        return issued[-1]

    value_of = {}  # id -> terms
    floor = fresh()  # above every id handed out before this example
    with mock.patch.object(S, "MEMO_ENTRIES", bound), \
            mock.patch.object(S, "_new_id", recording):
        S._forget()
        for x in values:
            for y in values + [_copy(x)]:
                cases = [(x * y, S._mul(x.terms, y.terms)),
                         (x + y, S._add(x.terms, y.terms)),
                         (x - y, S._add(x.terms, S._scale(y.terms, -1, 1))),
                         (-x, S._scale(x.terms, -1, 1)),
                         (_copy(x) * y, S._mul(x.terms, y.terms))]
                # 1/2 and 1/3 share a numerator: the key must hold den too
                cases += [(x.scale(t), S._scale(x.terms, int(t.numerator), int(t.denominator)))
                          for t in (r, QQ(1, 2), QQ(1, 3))]
                for got, want in cases:
                    assert got.terms == want
                    _assert_layout(got)
                for s in [x, y] + [got for got, _ in cases]:
                    assert s._id and value_of.setdefault(s._id, s.terms) == s.terms
                assert all(len(getattr(S, t)) <= bound for t in TABLES)
    # the counter only climbs, so no id is handed out twice
    assert issued == sorted(set(issued)) and all(i > floor for i in issued)


def test_equal_values_share_one_id_and_one_result():
    """Hash-consing: equal values reached by different routes get one id,
    and the memo hands back one result object for them."""
    S._forget()
    x = Scalar.unit(a=QQ(3, 4), b=QQ(-1, 2), pi_exp=-1)
    y = Scalar.unit(c=QQ(5), pi_exp=2)
    same = x.scale(QQ(2)).scale(QQ(1, 2))
    assert same is x and _copy(x) is x and x._id
    assert _copy(x) * y is x * y
    assert x + _copy(y) is _copy(x) + y
    assert -_copy(x) is -x
    assert (x * y) * y.monomial_inverse() is _copy(x) * _copy(y) * y.monomial_inverse()


def test_forget_keeps_handed_out_ids():
    """After the tables are cleared an equal value gets a new id, while the
    old id still stands for its value: results stay right on both ids."""
    x = Scalar.unit(b=QQ(7, 3), pi_exp=1)
    y = Scalar.unit(d=QQ(-2))
    prod = x * y
    old = x._id
    S._forget()
    z = _copy(x)
    assert (z * y).terms == prod.terms and z._id != old
    assert (x * y).terms == prod.terms and x._id == old


def test_ids_do_not_travel_in_a_pickle():
    """A value id only means something in the process that handed it out:
    a pickle carries the terms alone, and unpickling in the same process
    returns the object the id table holds for that value."""
    x = Scalar.unit(a=QQ(1, 3), c=QQ(2), pi_exp=-2)
    assert x._id and x.__reduce__() == (Scalar, (x.terms,))
    assert pickle.loads(pickle.dumps(x)) is x


# -- JSON rows ---------------------------------------------------------------

ROW = [0, 1, 1, 0, 1, 0, 1, 0, 1]


def test_from_json_adds_rows_with_one_pi_exponent():
    two = [0, 2, 1, 0, 1, 0, 1, 0, 1]
    assert Scalar.from_json([ROW, two]) == Scalar.from_rational(3)
    minus = [0, -1, 1, 0, 1, 0, 1, 0, 1]
    assert Scalar.from_json([ROW, minus]).terms == {}
    half_i = [2, 0, 1, 1, 2, 0, 1, 0, 1]
    assert Scalar.from_json([half_i, ROW, half_i]) == (
        Scalar.one() + Scalar.unit(b=QQ(1), pi_exp=2))


@pytest.mark.parametrize("rows", [
    [[0.5] + ROW[1:]],                   # a fractional pi-exponent, once truncated to 0
    [[1.0] + ROW[1:]],                   # a float, even an integral one
    [[True] + ROW[1:]],                  # a bool is no integer here
    [ROW[:3] + [False] + ROW[4:]],
    [ROW[:1] + ["1"] + ROW[2:]],
    [ROW[:2] + [0] + ROW[3:]],           # a zero denominator
    [ROW[:8] + [0]],
    [ROW[:5]],                           # a short row
    [ROW + [1]],
    [3],
    5,                                   # data that is not a list of rows
    None,
    "",
    {},
    (ROW,),
], ids=["half-exponent", "float-exponent", "bool-exponent", "bool-entry",
        "str-entry", "zero-den", "zero-last-den", "short", "long", "not-a-row",
        "int-data", "null-data", "str-data", "dict-data", "tuple-data"])
def test_from_json_refuses_malformed_rows(rows):
    with pytest.raises(ValueError):
        Scalar.from_json(rows)


def test_traced_methods_live_on_the_class():
    """A tracer wraps these through vars(Scalar), so they may not be inherited."""
    assert "__mul__" in vars(Scalar) and "__add__" in vars(Scalar)


def test_basis_multiplication():
    i = Scalar.i()
    r2 = Scalar.sqrt2()
    assert i * i == -Scalar.one()
    assert r2 * r2 == Scalar.from_rational(2)
    assert i * r2 == Scalar.unit(d=QQ(1))
    assert (i * r2) * (i * r2) == Scalar.from_rational(-2)


def test_pi_powers():
    pi = Scalar.pi_power(1)
    assert pi * Scalar.pi_power(-1) == Scalar.one()
    assert pi * pi == Scalar.pi_power(2)


def test_two_pow_half():
    assert Scalar.two_pow_half(0) == Scalar.one()
    assert Scalar.two_pow_half(2) == Scalar.from_rational(2)
    assert Scalar.two_pow_half(1) == Scalar.sqrt2()
    assert Scalar.two_pow_half(3) == Scalar.sqrt2() * Scalar.from_rational(2)
    with pytest.raises(ValueError):
        Scalar.two_pow_half(-1)


def test_monomial_inverse():
    s = Scalar.unit(c=QQ(4), pi_exp=2)  # 4*sqrt2*pi^2
    t = s.monomial_inverse()
    assert s * t == Scalar.one()
    u = Scalar.one() + Scalar.i()  # single pi power, field inverse
    assert u * u.monomial_inverse() == Scalar.one()
    mixed = Scalar.one() + Scalar.pi_power(1)
    with pytest.raises(ValueError):
        mixed.monomial_inverse()


def test_power_negative_exponent():
    s = MINUS_I_4PI
    assert s ** 2 * s ** (-2) == Scalar.one()
    assert s ** (-1) == s.monomial_inverse()


def test_minus_i_over_4pi():
    # (-i/4pi)^2 = -1/16 pi^-2
    sq = MINUS_I_4PI * MINUS_I_4PI
    assert sq == Scalar.from_rational(QQ(-1, 16), pi_exp=-2)


def test_rational_of():
    assert rational_of(Scalar.from_rational(QQ(3, 7))) == QQ(3, 7)
    with pytest.raises(ValueError):
        rational_of(Scalar.i())


def test_json_term_order():
    s = Scalar.unit(a=QQ(1), pi_exp=2) + Scalar.unit(a=QQ(1), pi_exp=-1)
    exps = [term[0] for term in s.to_json()]
    assert exps == sorted(exps)


def test_accepts_fraction_input():
    assert Scalar.from_rational(Fraction(1, 3)) == Scalar.unit(a=QQ(1, 3))


@pytest.mark.parametrize("value", [3, QQ(3, 7), Scalar.unit(b=QQ(3, 7), pi_exp=-1)],
                         ids=["int", "QQ", "Scalar"])
def test_accum_adds_in_place_and_drops_cancelled_keys(value):
    """The one sparse accumulate step: a sum lands under its key, a sum
    that cancels removes the key, and a zero on an absent key leaves none."""
    zero = value * 0
    vec = {"other": value}
    _accum(vec, "k", value)
    assert vec == {"other": value, "k": value}
    _accum(vec, "k", value)
    assert vec == {"other": value, "k": value + value}
    _accum(vec, "k", -(value + value))
    assert vec == {"other": value}
    _accum(vec, "k", zero)
    assert vec == {"other": value}
    _accum(vec, "other", zero)
    assert vec == {"other": value}
