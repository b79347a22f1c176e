import gc
import itertools
import json
import math
import pathlib
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockforms import enumeration, theta
from fockforms.cli import THETA_BETAS
from fockforms.enumeration import symmetric_pivots
from fockforms.linalg import RatMat, rank
from fockforms.scalars import QQ
from fockforms.schur import partitions_of, ssyt_enumerate, young_apply_vec
from fockforms.theta import (
    BetaMatrix,
    GenusCoefficient,
    Lattice,
    _column_major_values,
    assemble_coefficient,
    count_representations,
    enumerate_representations,
    filling_key,
    series_betas,
    series_table,
)
from oracles import (harmonic_project_vec, masked_representations, moment_oracle,
                     series_betas_filter)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def z4():
    return Lattice.load(FIXTURES / "z4.json")


@pytest.fixture(scope="module")
def e8():
    return Lattice.load(FIXTURES / "e8.json")


@pytest.fixture(scope="module")
def z2():
    return Lattice.load(FIXTURES / "z2.json")


@pytest.fixture(scope="module")
def q7():
    # 2a^2 + ab + 3b^2 lattice sibling: x^2 + xy + 2y^2, one class per genus
    return Lattice([[2, 1], [1, 4]])


@pytest.fixture(scope="module")
def q23():
    # 2a^2 + ab + 3b^2, a class not equivalent to its mirror
    return Lattice([[4, 1], [1, 6]])


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_lattice_rejects_asymmetric():
    with pytest.raises(ValueError):
        Lattice([[1, 1], [0, 1]])


def test_lattice_rejects_indefinite():
    with pytest.raises(ValueError):
        Lattice([[1, 2], [2, 1]])


def test_lattice_rejects_fractional_diagonal():
    with pytest.raises(ValueError):
        Lattice([["1/2", 0], [0, 1]])


def test_lattice_accepts_half_integral_offdiagonal():
    lat = Lattice([[1, "1/2"], ["1/2", 1]])
    assert RatMat.from_rows(lat.gram2_rows).entry(0, 1) == QQ(1)


@pytest.mark.parametrize("gram", [
    [],
    [[1, 0], [0]],
    [[2, 1], [1, 2], [0, 0]],
    [[True]],
    [[1, 0], [0, False]],
    [[1, 1], [0, 1]],
    [["1/2", 0], [0, 1]],
    [[1, "1/4"], ["1/4", 1]],
    [[1, 2], [2, 1]],
    [[1, "x"], ["x", 1]],
])
def test_lattice_errors_do_not_say_beta(gram):
    """Lattice validates through BetaMatrix.from_entries; its messages name
    no beta, since they reach `theta --lattice` users."""
    with pytest.raises(ValueError) as info:
        Lattice(gram)
    assert "beta" not in str(info.value)


def test_lattice_rejects_other_fields():
    with pytest.raises(ValueError):
        Lattice.from_json({"field": "Q(sqrt5)", "gram": [[1]]})


def test_coset_validation():
    with pytest.raises(ValueError):
        Lattice([[1]], coset_h=[[1]])
    with pytest.raises(ValueError):
        Lattice([[1]], coset_h=[[1, 0]], modulus=2)
    lat = Lattice([[1]], coset_h=[[-1]], modulus=2)
    assert lat.coset_h == ((1,),)


def test_beta_rejects_odd_diagonal():
    with pytest.raises(ValueError):
        BetaMatrix([[1]])
    with pytest.raises(ValueError):
        BetaMatrix.from_entries([["1/2"]])


def test_beta_rejects_quarters():
    with pytest.raises(ValueError):
        BetaMatrix.from_entries([[1, "1/4"], ["1/4", 1]])


def test_beta_psd_examples():
    assert BetaMatrix.from_entries([[1, 1], [1, 1]]).is_psd()
    assert not BetaMatrix.from_entries([[1, 2], [2, 1]]).is_psd()
    assert BetaMatrix.diagonal([0, 3]).is_psd()
    assert not BetaMatrix.from_entries([[0, "1/2"], ["1/2", 1]]).is_psd()


def test_beta_rank():
    assert BetaMatrix.diagonal([0]).rank() == 0
    assert BetaMatrix.diagonal([1, 2]).rank() == 2
    assert BetaMatrix.from_entries([[1, 1], [1, 1]]).rank() == 1


def det_int(rows):
    """Oracle: determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * det_int(minor)
    return total


def psd_by_minors(mat):
    """Oracle: a symmetric matrix is PSD iff all 2^n - 1 principal minors are
    nonnegative."""
    n = len(mat)
    return all(det_int([[mat[a][b] for b in sub] for a in sub]) >= 0
               for size in range(1, n + 1)
               for sub in itertools.combinations(range(n), size))


@st.composite
def doubled_betas(draw):
    """Doubled symmetric integer matrices with even diagonal, n <= 5: Gram
    matrices 2 A^T A of k x n matrices A (definite for most k >= n,
    semidefinite otherwise), some indices zeroed so zero rows fall in the
    middle, or arbitrary (mostly indefinite) ones."""
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["gram", "zeroed", "any"]))
    if kind == "any":
        mat = [[0] * n for _ in range(n)]
        for i in range(n):
            mat[i][i] = 2 * draw(st.integers(-3, 3))
            for j in range(i + 1, n):
                mat[i][j] = mat[j][i] = draw(st.integers(-4, 4))
        return mat
    k = draw(st.integers(0, n + 1))
    a = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(k)]
    mat = [[2 * sum(row[i] * row[j] for row in a) for j in range(n)]
           for i in range(n)]
    if kind == "zeroed":
        for z in draw(st.sets(st.integers(0, n - 1), max_size=n)):
            for i in range(n):
                mat[z][i] = mat[i][z] = 0
    return mat


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mat=doubled_betas())
def test_elimination_matches_minor_oracle(mat):
    beta = BetaMatrix(mat)
    psd = psd_by_minors(mat)
    assert beta.is_psd() == psd
    if not psd:
        with pytest.raises(ValueError):
            beta.rank()
        return
    assert beta.rank() == rank(RatMat.from_rows([[QQ(v) for v in row]
                                                  for row in mat]))
    # each nonzero pivot is the leading minor of the indices kept so far
    pivots, columns = symmetric_pivots(mat)
    kept = []
    for k, p in enumerate(pivots):
        if p:
            kept.append(k)
            assert p == det_int([[mat[a][b] for b in kept] for a in kept])
        else:
            assert not any(columns[k])


def test_dense_beta_elimination_is_fast():
    # diagonal 2, off-diagonal 1/2: all 4095 principal minors took seconds
    # already at n = 9
    beta = BetaMatrix([[4 if i == j else 1 for j in range(12)] for i in range(12)])
    start = time.perf_counter()
    assert beta.is_psd() and beta.rank() == 12
    assert time.perf_counter() - start < 0.1


# ---------------------------------------------------------------------------
# representation counts
# ---------------------------------------------------------------------------

def brute_tuples(gram, beta, radius):
    """Independent oracle: scan an integer box for tuples with the given
    norms and pairings."""
    m = len(gram)
    n = beta.n

    def pair(x, y):
        return sum(gram[i][j] * x[i] * y[j] for i in range(m) for j in range(m))

    singles = [x for x in itertools.product(range(-radius, radius + 1), repeat=m)]
    shells = []
    for i in range(n):
        want = 2 * beta.entry(i, i)
        shells.append([x for x in singles if pair(x, x) == want])
    out = []
    for combo in itertools.product(*shells):
        ok = all(pair(combo[i], combo[j]) == 2 * beta.entry(i, j)
                 for i in range(n) for j in range(i + 1, n))
        if ok:
            out.append(combo)
    return sorted(out)


def pair_loop_representations(lat, beta):
    """Oracle: depth-first scan of the sorted shells, testing every pairing
    with a Python-int loop.  Same order as enumerate_representations."""
    n = beta.n
    gram2 = RatMat.from_rows(lat.gram2_rows)
    g2 = [[int(gram2.entry(i, j)) for j in range(lat.rank)]
          for i in range(lat.rank)]
    shells = [[tuple(r) for r in lat.shell(beta.doubled[i][i], column=i).tolist()]
              for i in range(n)]
    out = []

    def pair2(x, y):
        acc = 0
        for a in range(lat.rank):
            row = 0
            for b in range(lat.rank):
                row += g2[a][b] * y[b]
            acc += row * x[a]
        return acc

    def extend(chosen):
        k = len(chosen)
        if k == n:
            out.append(tuple(chosen))
            return
        for cand in shells[k]:
            if all(pair2(chosen[t], cand) == 2 * beta.doubled[t][k]
                   for t in range(k)):
                extend(chosen + [cand])

    extend([])
    return out


def listed(lat, beta):
    """The listing read as a list of tuples of coordinate tuples."""
    return [tuple(map(tuple, rep)) for rep in enumerate_representations(lat, beta).tolist()]


def gram_beta(gram, vectors):
    """The index matrix of a tuple: doubled entries are the pairings."""
    return BetaMatrix([[sum(gram[i][j] * x[i] * y[j]
                            for i in range(len(gram)) for j in range(len(gram)))
                        for y in vectors] for x in vectors])


@pytest.mark.parametrize("seed", range(8))
def test_search_matches_pair_loop(seed):
    rng = random.Random(3000 + seed)
    m = rng.randint(2, 4)
    while True:
        a = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
        gram = [[sum(a[k][i] * a[k][j] for k in range(m)) for j in range(m)]
                for i in range(m)]
        if max(abs(v) for row in gram for v in row) > 4:
            continue
        try:
            lat = Lattice(gram)
        except ValueError:
            continue
        break
    found = 0
    for n, bound in ((2, 2), (3, 1)):
        betas = rng.sample(series_betas(n, bound), 6)
        # plus a beta that is surely represented, by short random vectors
        box = [x for x in itertools.product(range(-1, 2), repeat=m)
               if sum(gram[i][j] * x[i] * x[j]
                      for i in range(m) for j in range(m)) % 2 == 0]
        betas.append(gram_beta(gram, rng.choices(box, k=n)))
        for beta in betas:
            reps = listed(lat, beta)
            assert reps == pair_loop_representations(lat, beta)
            found += len(reps)
    assert found > 0


def test_search_python_int_fallback():
    # norms near 2^64: the pairing products overflow int64
    gram = [[2 ** 40 + 2, 2 ** 39], [2 ** 39, 2 ** 40]]
    lat = Lattice(gram)
    x, y = (3001, -4999), (-2000, 1717)
    for vectors in ((x, y), (x, x), (y, x)):
        beta = gram_beta(gram, vectors)
        reps = listed(lat, beta)
        assert tuple(vectors) in reps
        assert reps == pair_loop_representations(lat, beta)


def test_z4_series_counts_two_paths(z4):
    rows = series_table(z4, lam=(), n=1, bound=3)
    assert [r.count for r in rows] == [1, 24, 24, 96]
    gram = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    for r in rows:
        brute = brute_tuples(gram, r.beta, 4)
        assert r.count == len(brute)
        assert sorted(listed(z4, r.beta)) == brute


def test_e8_root_count(e8):
    c = assemble_coefficient(e8, BetaMatrix.diagonal([1]))
    assert c.count == 240


def test_nonzero_shells_have_even_count(q23):
    for b in range(1, 7):
        c = assemble_coefficient(q23, BetaMatrix.diagonal([b]))
        assert c.count % 2 == 0


def test_genus_two_orthogonal_pairs(z2):
    beta = BetaMatrix.diagonal([1, 1])
    reps = listed(z2, beta)
    assert len(reps) == 8
    gram = [[1, 0], [0, 1]]
    assert sorted(reps) == brute_tuples(gram, beta, 2)


def test_degenerate_beta_diagonal_pairs(z2):
    # x = y forced when the pairing saturates Cauchy-Schwarz
    beta = BetaMatrix.from_entries([[1, 1], [1, 1]])
    reps = listed(z2, beta)
    assert len(reps) == 4
    assert all(x == y for x, y in reps)
    assert beta.rank() == 1


def test_zero_beta(z4):
    c = assemble_coefficient(z4, BetaMatrix.diagonal([0]))
    assert c.count == 1 and c.rank_t == 0


def test_negative_beta_empty(z4):
    assert enumerate_representations(z4, BetaMatrix([[-2]])).tolist() == []


def test_unimodular_change_of_basis_preserves_counts(q23):
    # tuples transform by X -> X U, beta by U^T beta U
    mats = [[[0, 1], [1, 0]], [[1, 1], [0, 1]], [[1, 0], [-1, 1]]]
    beta = BetaMatrix.from_entries([[2, "1/2"], ["1/2", 3]])
    base = len(enumerate_representations(q23, beta))
    b = [[beta.entry(i, j) for j in range(2)] for i in range(2)]
    for u in mats:
        moved = [[sum(u[a][i] * b[a][c] * u[c][j]
                      for a in range(2) for c in range(2))
                  for j in range(2)] for i in range(2)]
        moved_beta = BetaMatrix.from_entries(moved)
        assert len(enumerate_representations(q23, moved_beta)) == base


def test_coset_counts_match_brute_force():
    lat = Lattice.load(FIXTURES / "z2_coset.json")
    assert lat.coset_h == ((1, 1),) and lat.modulus == 2
    for b in range(4):
        reps = enumerate_representations(lat, BetaMatrix.diagonal([b]))
        brute = [x for x in itertools.product(range(-4, 5), repeat=2)
                 if x[0] ** 2 + x[1] ** 2 == 2 * b
                 and x[0] % 2 == 1 and x[1] % 2 == 1]
        assert len(reps) == len(brute)
    with pytest.raises(ValueError):
        enumerate_representations(lat, BetaMatrix.diagonal([1, 1]))


# ---------------------------------------------------------------------------
# binned counts
# ---------------------------------------------------------------------------

def e7_cartan():
    """Cartan matrix of E7: the chain 1-3-4-5-6-7 with node 2 on node 4."""
    gram = [[2 if i == j else 0 for j in range(7)] for i in range(7)]
    for a, b in ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)):
        gram[a][b] = gram[b][a] = -1
    return gram


def z4_coset(shifts):
    return Lattice(json.loads((FIXTURES / "z4.json").read_text())["gram"],
                   coset_h=shifts, modulus=2)


COUNT_LATTICES = {
    "z4": lambda: Lattice.load(FIXTURES / "z4.json"),
    "z2_coset": lambda: Lattice.load(FIXTURES / "z2_coset.json"),
    "z4_coset2": lambda: z4_coset([[1, 1, 0, 0], [1, 1, 1, 1]]),
    "z4_coset3": lambda: z4_coset([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 0]]),
    "q23": lambda: Lattice([[4, 1], [1, 6]]),
    # half-integral: the pairing of (1, 0) and (0, 1) is 1/2, which no beta has
    "half": lambda: Lattice([[2, "1/2"], ["1/2", 2]]),
    "e7": lambda: Lattice(e7_cartan()),
    # an entry past int64: the pairings are formed in Python ints
    "big": lambda: Lattice([[10 ** 602, 1], [1, 2]]),
}


@pytest.mark.parametrize("name,genus,bound", [
    ("z4", 1, 3), ("z4", 2, 2), ("z4", 3, 1),
    ("z2_coset", 1, 4), ("z4_coset2", 2, 2), ("z4_coset3", 3, 1),
    ("q23", 1, 6), ("q23", 2, 2), ("q23", 3, 2),
    ("half", 1, 3), ("half", 2, 2), ("half", 3, 1),
    ("e7", 1, 2), ("e7", 2, 1), ("e7", 3, 1),
    ("big", 1, 4), ("big", 2, 4), ("big", 3, 1),
])
def test_binned_counts_match_enumeration(name, genus, bound):
    """Every count of the binned table is the number of tuples the search
    lists, and the number the masked oracle lists, for every beta of the
    table; the single-beta count of assemble_coefficient agrees."""
    lat = COUNT_LATTICES[name]()
    rows = series_table(lat, n=genus, bound=bound)
    assert [r.beta for r in rows] == series_betas(genus, bound)
    assert [r.count for r in rows] == [len(enumerate_representations(lat, r.beta))
                                       for r in rows]
    oracle = [len(masked_representations(lat, r.beta)) for r in rows]
    assert [r.count for r in rows] == oracle
    single = [assemble_coefficient(lat, r.beta).count for r in rows]
    assert single == oracle and all(type(c) is int for c in single)
    assert any(r.count for r in rows if r.beta.trace())


def test_binned_counts_drop_odd_pairings():
    """On the half-integral gram the norm-2 shell is (+-1, 0), (0, +-1); a
    pair of them pairs to 1/2 unless the two are parallel."""
    lat = COUNT_LATTICES["half"]()
    assert len(lat.shell(2)) == 4
    found = count_representations(lat, (1, 1))
    assert sum(found.values()) == 8
    assert found == {BetaMatrix([[2, v], [v, 2]]): 4 for v in (-2, 2)}


def test_binned_counts_in_blocks(monkeypatch):
    """Blocks smaller than a shell, in rows and in columns, give the same
    counts as one block."""
    cases = [(COUNT_LATTICES["z4"](), (1, 1, 1), (1, 7, 30)),
             (COUNT_LATTICES["e7"](), (1, 1), (300,))]
    for lat, diag, sizes in cases:
        whole = count_representations(lat, diag)
        assert len(lat.shell(2)) < theta.BIN_ENTRIES
        for entries in sizes:
            monkeypatch.setattr(theta, "BIN_ENTRIES", entries)
            assert count_representations(lat, diag) == whole
        monkeypatch.undo()


def test_enumerators_leave_no_garbage(z4, e8):
    """The search, the shell descent, the tableau and partition generators
    recurse at module level: with caches warm, no call leaves a reference
    cycle for the cyclic gc to free."""
    calls = [
        lambda: series_table(z4, n=2, bound=1),
        lambda: assemble_coefficient(z4, BetaMatrix.diagonal([1, 1]), (2, 2)),
        lambda: count_representations(e8, (1, 1, 1)),
        lambda: enumerate_representations(e8, BetaMatrix.diagonal([1, 1])),
        lambda: Lattice.load(FIXTURES / "z4.json").shell(2),
        lambda: ssyt_enumerate((2, 1), 3),
        lambda: partitions_of(5),
    ]
    for call in calls:
        call()
    gc.collect()
    gc.disable()
    try:
        for number, call in enumerate(calls):
            call()
            assert gc.collect() == 0, number
    finally:
        gc.enable()


def test_search_forms_blocks_at_the_leaves(monkeypatch):
    """A last-pair block over BIN_TABLE entries is formed at each leaf, on the
    rows and columns still left: the tables, the single-beta counts and the
    listings equal those read from the block formed once."""
    for lat, genus in ((COUNT_LATTICES["z4"](), 3), (COUNT_LATTICES["e7"](), 2)):
        betas = series_betas(genus, 1)
        tuples = [listed(lat, b) for b in betas]
        counts = [r.count for r in series_table(lat, n=genus, bound=1)]
        assert len(lat.shell(2)) ** 2 > 125
        for entries in (7, theta.BIN_ENTRIES):
            monkeypatch.setattr(theta, "BIN_TABLE", 125)
            monkeypatch.setattr(theta, "BIN_ENTRIES", entries)
            assert [listed(lat, b) for b in betas] == tuples
            assert [r.count for r in series_table(lat, n=genus, bound=1)] == counts
            assert [assemble_coefficient(lat, b).count for b in betas] == list(map(len, tuples))
            monkeypatch.undo()


def test_binned_counts_python_int_branch(monkeypatch):
    """A gram entry past int64 moves the pairings to Python ints, and every
    count still equals the number of tuples the search lists."""
    dtypes = []

    def spy(*args):
        dtypes.append(enumeration.exact_dtype(*args))
        return dtypes[-1]

    monkeypatch.setattr(theta, "exact_dtype", spy)
    lat = COUNT_LATTICES["big"]()
    found = count_representations(lat, (1, 4, 1))
    assert dtypes == [object]
    assert sum(found.values()) == 8
    assert found == {b: len(enumerate_representations(lat, b)) for b in found}


def test_binned_counts_refuse_a_huge_table():
    """Norms near 2^41 leave 2^42 entries per pair: the table is refused, and
    the search still counts one beta of that diagonal."""
    gram = [[2 ** 40 + 2, 2 ** 39], [2 ** 39, 2 ** 40]]
    lat = Lattice(gram)
    beta = gram_beta(gram, ((3001, -4999), (-2000, 1717)))
    with pytest.raises(ValueError, match="table cap"):
        count_representations(lat, (beta.doubled[0][0] // 2, beta.doubled[1][1] // 2))
    assert len(enumerate_representations(lat, beta)) >= 1


def test_binned_counts_edge_cases():
    z2 = Lattice([[1, 0], [0, 1]])
    assert count_representations(z2, ()) == {BetaMatrix([]): 1}
    assert count_representations(z2, (-1, 1)) == {}
    assert count_representations(z2, (0, 1)) == {BetaMatrix.diagonal([0, 1]): 4}
    coset = COUNT_LATTICES["z2_coset"]()
    assert count_representations(coset, (0,)) == {}
    with pytest.raises(ValueError):
        count_representations(coset, (1, 1))


# ---------------------------------------------------------------------------
# payloads
# ---------------------------------------------------------------------------

def test_e8_quadratic_payload_vanishes(e8):
    for b in range(6):
        c = assemble_coefficient(e8, BetaMatrix.diagonal([b]), lam=(2,))
        assert list(c.payload) == ["1,1"]
        assert c.payload["1,1"] == {}


def test_e8_quartic_payload_vanishes(e8):
    for b in range(6):
        c = assemble_coefficient(e8, BetaMatrix.diagonal([b]), lam=(4,))
        assert c.payload["1,1,1,1"] == {}


def test_level_seven_quadratic_payload(q7):
    # the quadratic payloads of x^2 + xy + 2y^2 live in a one-dimensional
    # space; successive shells reproduce the 1, -3, 0, 5 pattern
    ref = assemble_coefficient(q7, BetaMatrix.diagonal([1]), lam=(2,))
    base = ref.payload["1,1"]
    assert base == {(1, 1): QQ(6, 7), (1, 2): QQ(2, 7),
                    (2, 1): QQ(2, 7), (2, 2): QQ(-4, 7)}
    for b, mult in [(2, -3), (3, 0), (4, 5)]:
        c = assemble_coefficient(q7, BetaMatrix.diagonal([b]), lam=(2,))
        got = c.payload["1,1"]
        want = {w: mult * v for w, v in base.items() if mult * v != 0}
        assert got == want


def test_alternating_payload(q23):
    beta = BetaMatrix.from_entries([[2, "1/2"], ["1/2", 3]])
    c = assemble_coefficient(q23, beta, lam=(1, 1))
    assert c.count == 2
    assert c.payload["1|2"] == {(1, 2): QQ(1), (2, 1): QQ(-1)}


def test_swap_symmetric_beta_kills_alternating_payload(z2):
    c = assemble_coefficient(z2, BetaMatrix.diagonal([1, 1]), lam=(1, 1))
    assert c.count == 8
    assert c.payload["1|2"] == {}


def test_odd_degree_payload_vanishes(q23):
    # x -> -x preserves every shell and flips odd tensors
    for b in (1, 2, 3):
        c = assemble_coefficient(q23, BetaMatrix.diagonal([b]), lam=(1,))
        assert all(v == {} for v in c.payload.values())


def test_rank_zero_harmonic_line():
    z1 = Lattice.load(FIXTURES / "z1.json")
    for b in (1, 2, 4):
        c = assemble_coefficient(z1, BetaMatrix.diagonal([b]), lam=(2,))
        assert c.payload["1,1"] == {}


def test_empty_shape_payload(z4):
    c = assemble_coefficient(z4, BetaMatrix.diagonal([1]), lam=())
    assert c.payload == {}


def test_too_many_rows_raises(z4):
    with pytest.raises(ValueError):
        assemble_coefficient(z4, BetaMatrix.diagonal([1]), lam=(1, 1))


def test_payload_filling_count(z4):
    beta = BetaMatrix.diagonal([1, 1])
    c = assemble_coefficient(z4, beta, lam=(1, 1))
    assert list(c.payload) == ["1|2"]
    c2 = assemble_coefficient(z4, beta, lam=(2,))
    assert sorted(c2.payload) == ["1,1", "1,2", "2,2"]


def dict_path_payload(lat, beta, lam):
    """The dict composition that the integer-array path must equal: for each
    filling, harmonic_project_vec(young_apply_vec(lam, moment_oracle(...)),
    gram, lam), all three independent of theta's moment kernel and Brauer
    product."""
    reps = enumerate_representations(lat, beta).tolist()
    gram = RatMat.from_rows(lat.gram2_rows).scale(QQ(1, 2))
    out = {}
    for filling in ssyt_enumerate(lam, beta.n):
        raw = moment_oracle(reps, _column_major_values(lam, filling), lat.rank)
        shaped = young_apply_vec(lam, raw) if raw else {}
        out[filling_key(filling)] = (harmonic_project_vec(shaped, gram, lam)
                                     if shaped else {})
    return out


def fibonacci_z2():
    """Z^2 in the basis (F12, F11), (F13, F12): short vectors have
    coordinates in the hundreds, so moments and the Brauer product leave int64."""
    return Lattice([[57314, 92736], [92736, 150050]])


def array_path_cases():
    """(lattice, beta) pairs with beta represented, up to four per lattice and
    genus.  Rank 3 and 4 reach the two-row and three-row harmonic shapes,
    which vanish when lam'_1 + lam'_2 exceeds the rank."""
    half = Lattice([[1, "1/2"], ["1/2", 2]])
    q23 = Lattice([[4, 1], [1, 6]])
    rank3 = Lattice([[2, 1, 0], [1, 2, 1], [0, 1, 4]])
    rank4 = Lattice([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 4, 1], [0, 0, 1, 6]])
    coset1 = Lattice.load(FIXTURES / "z2_coset.json")
    coset2 = Lattice([[1, 0], [0, 1]], coset_h=[[1, 0], [1, 1]], modulus=2)
    rng = random.Random(8)
    cases = []
    for n, bound, lattices in ((1, 3, (half, q23, rank3, coset1, fibonacci_z2())),
                               (2, 3, (half, q23, rank3, rank4, coset2, fibonacci_z2())),
                               (3, 1, (rank3, rank4))):
        betas = [b for b in series_betas(n, bound) if b.trace()]
        for lat in lattices:
            hit = [b for b in betas if len(enumerate_representations(lat, b))]
            k = 4 if lat.rank < 4 else 2
            cases.extend((lat, b) for b in rng.sample(hit, min(k, len(hit))))
    return cases


def test_array_path_matches_dict_path():
    """assemble_coefficient (symmetric moments, the Brauer product on integer
    arrays, one Young projection) equals the dict composition on every shape
    of degree <= 4 at genus <= 3, on integral, half-integral, coset and
    past-int64 lattices."""
    nonzero = set()
    for lat, beta in array_path_cases():
        for ell in range(1, 5):
            for lam in partitions_of(ell):
                if len(lam) > beta.n:
                    continue
                got = assemble_coefficient(lat, beta, lam=lam).payload
                assert got == dict_path_payload(lat, beta, lam), (lat.gram2_rows, beta, lam)
                if any(got.values()):
                    nonzero.add(lam)
    # odd degrees vanish (x -> -x); every even shape is met with a nonzero payload
    assert nonzero >= {(2,), (1, 1), (4,), (3, 1), (2, 2)}


def test_array_path_leaves_int64(monkeypatch):
    """The Fibonacci basis forces Python ints in the moment kernel at degree 8
    and in the Brauer product at degree 4; both still equal the dict path."""
    chosen = []
    real = theta.exact_dtype

    def spy(bound, rows=()):
        chosen.append(real(bound, rows))
        return chosen[-1]

    monkeypatch.setattr(theta, "exact_dtype", spy)
    lat = fibonacci_z2()
    for lam, beta in (((4,), BetaMatrix.diagonal([1])),
                      ((8,), BetaMatrix.diagonal([1])),
                      ((4,), BetaMatrix.diagonal([1, 1]))):
        chosen.clear()
        got = assemble_coefficient(lat, beta, lam=lam).payload
        assert object in chosen, lam
        assert got == dict_path_payload(lat, beta, lam)
        assert any(got.values())


# ---------------------------------------------------------------------------
# symmetry
# ---------------------------------------------------------------------------

def dense_moment(lat, beta, ell):
    reps = enumerate_representations(lat, beta).tolist()
    if not reps:
        return np.zeros((lat.rank,) * ell, dtype=np.int64)
    arr = np.array([r[0] for r in reps], dtype=np.int64)
    letters = "abcdefgh"
    spec = ",".join(f"z{letters[s]}" for s in range(ell)) \
        + "->" + "".join(letters[:ell])
    return np.einsum(spec, *([arr] * ell))


def transform_slots(tensor, s):
    ell = tensor.ndim
    letters = "abcdefgh"
    uppers = "ijklmnop"
    spec = ",".join(f"{letters[t]}{uppers[t]}" for t in range(ell))
    spec += "," + "".join(uppers[:ell]) + "->" + "".join(letters[:ell])
    return np.einsum(spec, *([s] * ell + [tensor]))


def signed_permutation_matrices():
    out = []
    for perm in itertools.permutations(range(4)):
        for signs in [(1, 1, 1, 1), (-1, 1, 1, 1), (1, -1, 1, -1)]:
            s = np.zeros((4, 4), dtype=np.int64)
            for i, j in enumerate(perm):
                s[j, i] = signs[i]
            out.append(s)
    return out[:24]


def test_moment_invariance_under_signed_permutations(z4):
    beta = BetaMatrix.diagonal([3])
    m2 = dense_moment(z4, beta, 2)
    m4 = dense_moment(z4, beta, 4)
    assert m2.any() and m4.any()
    for s in signed_permutation_matrices():
        assert (transform_slots(m2, s) == m2).all()
        assert (transform_slots(m4, s) == m4).all()


def e8_reflections():
    g = np.zeros((8, 8), dtype=np.int64)
    for i in range(8):
        g[i, i] = 2
    for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]:
        g[a, b] = g[b, a] = -1
    mats = [-np.eye(8, dtype=np.int64)]
    for i in range(8):
        s = np.eye(8, dtype=np.int64)
        s[i, :] -= g[i, :]
        mats.append(s)
    return g, mats


def test_e8_reflections_preserve_gram_and_moments(e8):
    g, mats = e8_reflections()
    for s in mats:
        assert (s.T @ g @ s == g).all()
    beta = BetaMatrix.diagonal([2])
    m2 = dense_moment(e8, beta, 2)
    assert m2.any()
    for s in mats:
        assert (transform_slots(m2, s) == m2).all()


def exact_slot_transform(payload, s):
    m = len(s)
    out = {}
    for w, v in payload.items():
        for u in itertools.product(range(1, m + 1), repeat=len(w)):
            c = v
            for a, b in zip(u, w):
                c = c * s[a - 1][b - 1]
            if c:
                out[u] = out.get(u, QQ(0)) + c
    return {w: v for w, v in out.items() if v != 0}


def test_projected_payload_equivariance(q7, q23):
    # q7 has a mirror symmetry; its quadratic payload must be fixed by it
    mirror = [[1, 1], [0, -1]]
    c = assemble_coefficient(q7, BetaMatrix.diagonal([2]), lam=(2,))
    payload = c.payload["1,1"]
    assert payload
    assert exact_slot_transform(payload, mirror) == payload
    # -1 fixes every even payload
    c2 = assemble_coefficient(q23, BetaMatrix.from_entries(
        [[2, "1/2"], ["1/2", 3]]), lam=(1, 1))
    neg = [[-1, 0], [0, -1]]
    assert exact_slot_transform(c2.payload["1|2"], neg) == c2.payload["1|2"]


# ---------------------------------------------------------------------------
# series assembly and serialization
# ---------------------------------------------------------------------------

def test_series_betas_bound_one():
    betas = series_betas(2, 1)
    assert len(betas) == 8
    keys = [b.sort_key() for b in betas]
    assert keys == sorted(keys)
    assert betas[0].doubled == ((0, 0), (0, 0))
    for b in betas:
        assert b.is_psd()


@pytest.mark.parametrize("n,bound", [
    (n, bound) for n in range(1, 5) for bound in range(3)
    if (bound + 1) ** n * (4 * bound + 1) ** (n * (n - 1) // 2) <= THETA_BETAS])
def test_series_betas_match_filter_oracle(n, bound):
    assert series_betas(n, bound) == series_betas_filter(n, bound)


def test_series_betas_off_diagonal_window():
    betas = series_betas(2, 2)
    seen = {b.doubled for b in betas}
    assert ((2, 2), (2, 4)) in seen
    assert all(abs(b.doubled[0][1]) <= math.isqrt(b.doubled[0][0] * b.doubled[1][1])
               for b in betas)


def kronecker(a, n):
    """Kronecker symbol (a / n) for n >= 1."""
    sign = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def squarefree(n):
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


def fundamental(d):
    if d % 4 == 1:
        return squarefree(abs(d))
    return d % 16 in (8, 12) and squarefree(abs(d) // 4)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(n):
    sign = 1
    for p in range(2, n + 1):
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
    return sign


def sigma(k, n):
    return sum(d ** k for d in divisors(n))


def cohen_h3(N):
    """Cohen's H(3, N), N > 0 with -N a discriminant: write -N = D f^2 with D
    fundamental; H = L(-2, chi_D) sum_{d | f} mu(d) chi_D(d) d^2 sigma_5(f / d),
    L(-2, chi_D) = -B_{3, chi_D} / 3 and B_{3, chi} = |D|^2 sum_{a <= |D|}
    chi(a) B_3(a / |D|), B_3(x) = x^3 - 3x^2/2 + x/2."""
    f = max(f for f in range(1, math.isqrt(N) + 1)
            if N % (f * f) == 0 and fundamental(-N // (f * f)))
    D = -N // (f * f)
    bern = sum(kronecker(D, a) * (x ** 3 - QQ(3, 2) * x ** 2 + x / 2)
               for a in range(1, -D + 1) for x in [QQ(a, -D)]) * D * D
    return -bern / 3 * sum(mobius(d) * kronecker(D, d) * d ** 2 * sigma(5, f // d)
                           for d in divisors(f))


def siegel_eisenstein_4(n, r, m):
    """Coefficient of [[n, r/2], [r/2, m]] in the genus-2 Siegel Eisenstein
    series of weight 4, which is the genus-2 theta series of E8."""
    disc = 4 * n * m - r * r
    if (n, r, m) == (0, 0, 0):
        return 1
    g = math.gcd(n, r, m)
    if disc == 0:
        return 240 * sigma(3, g)
    return -60480 * sum(d ** 3 * cohen_h3(disc // (d * d)) for d in divisors(g))


def test_kronecker_examples():
    assert [kronecker(-3, a) for a in range(1, 7)] == [1, -1, 0, 1, -1, 0]
    assert [kronecker(-4, a) for a in range(1, 5)] == [1, 0, -1, 0]
    assert [kronecker(-8, a) for a in (1, 3, 5, 7)] == [1, 1, -1, -1]
    assert cohen_h3(3) == QQ(-2, 9)


def test_e8_genus_two_is_siegel_eisenstein(e8):
    """Siegel-Weil: E8 is alone in its genus, so its genus-2 counts are the
    Eisenstein coefficients; each row's rank follows 4nm - r^2."""
    rows = series_table(e8, n=2, bound=2)
    assert len(rows) == 29
    for row in rows:
        n, r, m = (row.beta.doubled[0][0] // 2, row.beta.doubled[0][1],
                   row.beta.doubled[1][1] // 2)
        assert row.count == siegel_eisenstein_4(n, r, m)
        disc = 4 * n * m - r * r
        assert row.rank_t == (2 if disc > 0 else 1 if (n, r, m) != (0, 0, 0) else 0)


def integer_basis(rows):
    """A basis of the lattice the integer rows generate: Euclid's algorithm
    down each column by integer row operations, zero rows dropped."""
    rows = [list(r) for r in rows]
    basis = []
    for col in range(len(rows[0])):
        live = [r for r in rows if r[col]]
        rest = [r for r in rows if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot = live[0]
            kept = [pivot]
            for r in live[1:]:
                r = [a - r[col] // pivot[col] * b for a, b in zip(r, pivot)]
                (kept if r[col] else rest).append(r)
            live = kept
        basis += live
        rows = [r for r in rest if any(r)]
    return basis


def e8_e8_gram():
    """E8 + E8: the E8 fixture's gram doubled along the block diagonal."""
    e8 = json.loads((FIXTURES / "e8.json").read_text())["gram"]
    return [row + [0] * 8 for row in e8] + [[0] * 8 + row for row in e8]


def d16_plus_gram():
    """D16+: the D16 roots e_i - e_i+1 and e_15 + e_16 with the glue vector
    (1/2, ..., 1/2), in doubled coordinates, reduced to a basis."""
    gens = []
    for i in range(15):
        gens.append([2 if k == i else -2 if k == i + 1 else 0 for k in range(16)])
    gens.append([2 if k >= 14 else 0 for k in range(16)])
    gens.append([1] * 16)
    basis = integer_basis(gens)
    assert len(basis) == 16
    return [[sum(a * b for a, b in zip(x, y)) // 4 for y in basis] for x in basis]


def test_rank_sixteen_genus_two_counts(e8):
    """E8 + E8 and D16+ share their genus-2 theta series (both are the weight-8
    Siegel Eisenstein series), and theta of E8 + E8 is theta of E8 squared:
    each count is the sum of r_E8(beta1) r_E8(beta2) over beta1 + beta2 = beta."""
    e8e8 = series_table(Lattice(e8_e8_gram()), n=2, bound=1)
    d16 = series_table(Lattice(d16_plus_gram()), n=2, bound=1)
    assert [r.beta.doubled for r in d16] == [r.beta.doubled for r in e8e8]
    assert [r.count for r in d16] == [r.count for r in e8e8]
    r_e8 = {r.beta.doubled: r.count for r in series_table(e8, n=2, bound=1)}
    for row in e8e8:
        want = 0
        for b1, c1 in r_e8.items():
            b2 = tuple(tuple(x - y for x, y in zip(r, s)) for r, s in zip(row.beta.doubled, b1))
            want += c1 * r_e8.get(b2, 0)
        assert row.count == want, row.beta.doubled
    assert [r.count for r in e8e8][:2] == [1, 480]


def test_rank_sixteen_genus_four_schottky_counts():
    """At genus 4 the theta series of E8 + E8 and D16+ differ by a multiple of
    Igusa's Schottky form (Amer. J. Math. 103, 1981).  At beta = D4 / 2 (the
    doubled beta is the D4 Cartan matrix) a tuple is a simple-root basis of a
    D4 root sublattice, and Aut(D4), of order 1152, permutes those bases
    simply transitively: E8 holds 3150 D4 root sublattices, E8 + E8 twice
    that, and D16+ one per 4 of its 16 coordinates."""
    beta = BetaMatrix([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]])
    assert assemble_coefficient(Lattice(e8_e8_gram()), beta).count == 2 * 3150 * 1152
    assert assemble_coefficient(Lattice(d16_plus_gram()), beta).count == math.comb(16, 4) * 1152


def signed_permutation_orbit(offs):
    """The off-diagonal entries (b01, b02, b12) of a genus-3 beta under every
    permutation and sign change of the three vectors."""
    entry = {(0, 1): offs[0], (0, 2): offs[1], (1, 2): offs[2]}
    out = set()
    for perm in itertools.permutations(range(3)):
        for sign in itertools.product((1, -1), repeat=3):
            out.add(tuple(sign[i] * sign[j] * entry[tuple(sorted((perm[i], perm[j])))]
                          for i, j in ((0, 1), (0, 2), (1, 2))))
    return out


# the genus-3 counts of E8 + E8 and D16+ on the diagonal (1, 1, 1), one per
# orbit of signed permutations, keyed by the orbit's largest (b01, b02, b12)
RANK_SIXTEEN_GENUS_THREE = {
    (0, 0, 0): 47174400, (1, 0, 0): 8386560, (1, 1, -1): 26880, (1, 1, 0): 725760,
    (1, 1, 1): 725760, (2, 0, 0): 175680, (2, 1, 1): 26880, (2, 2, 2): 480,
}


def test_rank_sixteen_genus_three_counts(e8):
    """E8 + E8 and D16+ share their genus-3 theta series too (both are the
    weight-8 Siegel Eisenstein series of degree 3): on the diagonal (1, 1, 1)
    every count agrees, and each is the convolution of two E8 counts."""
    diag = (1, 1, 1)
    e8e8 = count_representations(Lattice(e8_e8_gram()), diag)
    d16 = count_representations(Lattice(d16_plus_gram()), diag)
    assert d16 == e8e8
    assert len(e8e8) == 49 and sum(e8e8.values()) == 480 ** 3
    for beta, count in e8e8.items():
        offs = (beta.doubled[0][1], beta.doubled[0][2], beta.doubled[1][2])
        assert RANK_SIXTEEN_GENUS_THREE[max(signed_permutation_orbit(offs))] == count
    assert sum(len(signed_permutation_orbit(offs)) for offs in RANK_SIXTEEN_GENUS_THREE) == 49
    r_e8 = {}
    for part in itertools.product((0, 1), repeat=3):
        r_e8.update(count_representations(e8, part))
    for beta, count in e8e8.items():
        want = 0
        for b1, c1 in r_e8.items():
            b2 = [[x - y for x, y in zip(r, s)] for r, s in zip(beta.doubled, b1.doubled)]
            if all(b2[i][i] >= 0 for i in range(3)):
                want += c1 * r_e8.get(BetaMatrix(b2), 0)
        assert count == want, beta


@pytest.mark.parametrize("lam", [(1, 1), (2, 2)])
def test_e8_genus_two_payloads_vanish(e8, lam):
    """A genus-2 payload of shape (k, k) transforms by det^k, so it is a cusp
    form of scalar weight 4 + k; weights 5 and 6 have none (Igusa, 1962), so
    every payload of E8 is zero."""
    rows = series_table(e8, lam=lam, n=2, bound=1)
    assert len(rows) == 8 and rows[1].count == 240
    for row in rows:
        assert row.payload and all(terms == {} for terms in row.payload.values())


def test_e8_e8_degree_four_payloads_are_delta():
    """With lambda = (4) the theta series of E8 + E8 is a cusp form of weight
    8 + 4 = 12, so a multiple of Delta = q - 24 q^2 + ...: the payload at
    beta = 2 is tau(2) = -24 times the payload at beta = 1, word by word."""
    lat = Lattice(e8_e8_gram())
    one, two = (assemble_coefficient(lat, BetaMatrix.diagonal([b]), lam=(4,)).payload["1,1,1,1"]
                for b in (1, 2))
    assert len(one) == 32768
    assert two == {w: -24 * v for w, v in one.items()}


def test_e8_e8_genus_two_payloads_are_chi10():
    """With lambda = (2, 2) the genus-2 payload transforms by det^2, so the
    theta series of E8 + E8 is a cusp form of scalar weight 8 + 2 = 10, a
    multiple of Igusa's chi10: its coefficients at [[1, r/2], [r/2, 1]] run
    1 : -2 : 1 for r = 1, 0, -1 (Eichler & Zagier, The Theory of Jacobi
    Forms, 1985, section 6), and a cusp form vanishes at a rank-1 beta."""
    lat = Lattice(e8_e8_gram())
    plus, zero, minus, flat = (
        assemble_coefficient(lat, BetaMatrix.from_entries(b), lam=(2, 2)).payload["1,1|2,2"]
        for b in ([[1, "1/2"], ["1/2", 1]], [[1, 0], [0, 1]], [[1, "-1/2"], ["-1/2", 1]],
                  [[1, 1], [1, 1]]))
    assert len(zero) == 20512 and zero[(1, 1, 2, 2)] == 768
    assert plus == minus == {w: v / -2 for w, v in zero.items()}
    assert flat == {}


def pochhammer(a, k):
    out = QQ(1)
    for t in range(k):
        out *= a + t
    return out


def zonal_sum(shell, gram, beta, y, ell):
    """P_beta(y) = sum over x in the shell of sum_j (-1)^j (alpha)_{ell-j}
    / (j! (ell-2j)!) 2^{ell-2j} (x, y)^{ell-2j} (2 beta (y, y))^j, with
    alpha = m/2 - 1: each term is the Gegenbauer polynomial
    |x|^ell |y|^ell C^alpha_ell((x, y) / |x||y|) (Stein & Weiss, Fourier
    Analysis on Euclidean Spaces, ch. IV)."""
    m = len(gram)
    alpha = QQ(m, 2) - 1
    gy = [sum(gram[i][k] * y[k] for k in range(m)) for i in range(m)]
    yy = sum(a * b for a, b in zip(y, gy))
    total = QQ(0)
    for x in shell:
        xy = sum(a * b for a, b in zip(x, gy))
        for j in range(ell // 2 + 1):
            total += ((-1) ** j * pochhammer(alpha, ell - j)
                      / (math.factorial(j) * math.factorial(ell - 2 * j))
                      * 2 ** (ell - 2 * j) * xy ** (ell - 2 * j) * (2 * beta * yy) ** j)
    return total


D4 = [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]


@pytest.mark.parametrize("gram,ell,constant", [
    ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], 4, QQ(8, 35)),
    ([[2, 1, 0], [1, 2, 1], [0, 1, 4]], 4, QQ(8, 35)),
    (D4, 6, QQ(1, 64)),
])
def test_single_row_payload_is_zonal(gram, ell, constant):
    """Zonal-harmonic oracle, without the Brauer projector: for rank m >= 3
    the lambda=(ell) payload paired with (Gy)^ell is the harmonic part of
    sum_x (x, y)^ell, which is P_beta(y) times ell! / (2^ell (alpha)_ell)."""
    lat = Lattice(gram)
    m = len(gram)
    assert constant == QQ(math.factorial(ell)) / (2 ** ell * pochhammer(QQ(m, 2) - 1, ell))
    key = ",".join(["1"] * ell)
    nonzero = 0
    for b in range(1, 5):
        beta = BetaMatrix.diagonal([b])
        payload = assemble_coefficient(lat, beta, lam=(ell,)).payload[key]
        shell = [rep[0] for rep in enumerate_representations(lat, beta).tolist()]
        for y in ((1, 0, 0, 0), (1, 2, -1, 1), (3, -1, 2, -2)):
            y = y[:m]
            gy = [sum(gram[i][k] * y[k] for k in range(m)) for i in range(m)]
            paired = sum((v * math.prod(gy[i - 1] for i in w) for w, v in payload.items()),
                         QQ(0))
            zonal = zonal_sum(shell, gram, b, y, ell)
            assert paired == constant * zonal, (b, y)
            nonzero += zonal != 0
    assert nonzero >= 6


def test_series_table_matches_single_assembly(z2):
    rows = series_table(z2, lam=(2,), n=1, bound=2)
    for r in rows:
        solo = assemble_coefficient(z2, r.beta, lam=(2,))
        assert solo.count == r.count and solo.payload == r.payload


def test_coefficient_json_shape(q7):
    c = assemble_coefficient(q7, BetaMatrix.diagonal([1]), lam=(2,))
    data = c.to_json()
    assert data["beta"] == [[1]]
    assert data["count"] == 2 and data["rank"] == 1
    terms = data["payload"]["1,1"]
    assert terms == sorted(terms)
    assert [[1, 1], [6, 7]] in terms
    json.dumps(data)


def test_half_integral_beta_serialization():
    beta = BetaMatrix.from_entries([[1, "1/2"], ["1/2", 2]])
    assert beta.to_json() == [[1, 0.5], [0.5, 2]]
    assert beta.trace() == 3


def test_filling_key_format():
    assert filling_key(((1, 2), (2,))) == "1,2|2"


@pytest.mark.parametrize("slots", [[1, 1, 1], [1, 2, 2, 1], [3, 1, 2, 1]])
def test_moments_across_chunks(monkeypatch, slots):
    """Chunks of a few rows, the last one partial (23 representations, at
    most 40 entries per operand block), give the oracle's moments on one,
    two and three slot groups, from int64 and from Python-int coordinates,
    and past int64."""
    rng = random.Random(22)
    coords = np.array([[[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
                       for _ in range(23)], dtype=np.int64)
    monkeypatch.setattr(theta, "MOMENT_ENTRIES", 40)
    for arr in (coords, coords.astype(object), coords << 40):
        moments = theta._moments(arr, slots, 3)
        assert theta._nonzero_terms(moments) == moment_oracle(arr.tolist(), slots, 3)
        assert moments.any()


def test_moment_overflow_guard():
    # sums of products of four coordinates near 2^16 pass 2^62, so the
    # moments leave int64 and must equal the Python-int outer-product sum
    big = 1 << 16
    reps = [((big, big),)] * 4 + [((big, -big),), ((3, big + 1),)]
    want = {}
    for (x,) in reps:
        for w in itertools.product((1, 2), repeat=4):
            want[w] = want.get(w, 0) + math.prod(x[i - 1] for i in w)
    want = {w: QQ(v) for w, v in want.items() if v}
    moments = theta._moments(np.array(reps, dtype=np.int64), [1, 1, 1, 1], 2)
    assert theta._nonzero_terms(moments) == moment_oracle(reps, [1, 1, 1, 1], 2) == want
