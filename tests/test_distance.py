"""Energy and Hamming distances.

The energy core is integer arithmetic, so most checks here demand exact
equality, not tolerances.  The independent oracle used below expands the
full quadruple sum over shared lexical entities and intermediate
documents; it shares no code path with the library's matrix products.
At sizes where BLAS blocks and splits the float products, the oracle is
the same products in int64, which numpy computes without BLAS.  The
pair distances are checked against the condensed upper-triangle path they
used to take before the n x n square became their only layout.
"""

import csv
import io
import math
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial.distance import squareform

from defclust import (
    Document,
    EnergyMatrix,
    PairwiseDistances,
    build_dendrogram,
    build_matrix,
    energy_distance_vector,
    energy_matrix,
    hamming_distance_vector,
    pair_distance,
)
from defclust.distance import (
    _BLOCK_ROWS,
    _TILE_COLS,
    DISTANCE_MODES,
    EXACT_INT_LIMIT,
    _code_dtype,
    _coded_distances,
    _exact_float,
    _integer_levels,
    _upper_tiles,
    distances_to_csv,
    energy_matrix_to_csv,
)
from defclust.errors import DataError

from conftest import coded_square


def quadruple_sum_energy(rows):
    """2 * e_ij as exact ints: sum over k, a, b of x_ia x_ka x_kb x_jb."""
    n, p = len(rows), len(rows[0])
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            total = 0
            for k in range(n):
                for a in range(p):
                    for b in range(p):
                        total += rows[i][a] * rows[k][a] * rows[k][b] * rows[j][b]
            out[i][j] = total
    return out


def random_binary(rng, n, p):
    arr = rng.integers(0, 2, size=(n, p))
    # guarantee no all-zero row
    for j in range(n):
        if not arr[j].any():
            arr[j, rng.integers(0, p)] = 1
    return arr


def float_types_taken(call, *args):
    """``call(*args)``, and the float type of each product it ran."""
    taken = []

    def record(bound):
        taken.append(_exact_float(bound))
        return taken[-1]

    with mock.patch("defclust.distance._exact_float", record):
        return call(*args), taken


def energy_float_type(cells):
    """float32 exactly while n * t_max^2 < 2^24, t_max the largest row sum."""
    n = cells.shape[0]
    t_max = int(np.asarray(cells, dtype=np.int64).sum(axis=1).max())
    return np.float32 if n * t_max**2 < 2**24 else np.float64


def int64_energy(cells):
    ints = np.asarray(cells, dtype=np.int64)
    gram = ints @ ints.T
    return gram @ gram


def condensed_reference(arr, distance):
    """Pair distances along the condensed path, as (values, square).

    Gathers the upper triangle with ``triu_indices``, normalizes it with one
    ``flat / peak`` and one ``1.0 - x``, and scatters it back into a
    symmetric square the way ``PairwiseDistances.as_square`` once did.  The
    products run in int64, which numpy computes without BLAS.
    """
    ints = np.asarray(arr, dtype=np.int64)
    n, p = ints.shape
    iu = np.triu_indices(n, k=1)
    gram = ints @ ints.T
    if distance == "hamming":
        ones = np.diag(gram)
        values = (ones[:, None] + ones[None, :] - 2 * gram)[iu] / p
    else:
        flat = (gram @ gram)[iu]
        peak = int(flat.max())
        normalized = np.zeros(flat.shape, dtype=np.float64) if peak == 0 else flat / peak
        values = 1.0 - normalized if distance == "inverted" else normalized
    square = np.zeros((n, n), dtype=np.float64)
    square[iu] = values
    square += square.T
    return values, square


# ---------------------------------------------------------------- energy

def test_energy_identical_pair_worked_example():
    # two copies of (1,1,0): G = [[2,2],[2,2]], e_12 = (4+4)/2 = 4; the
    # square holds their one distinct row, with weight 2
    e = energy_matrix(np.array([[1, 1, 0], [1, 1, 0]]))
    assert e.gram_sq.tolist() == [[8]] and e.rows.tolist() == [0, 0]
    assert (2 * e.values).tolist() == [[8, 8], [8, 8]]
    assert e.values[0, 1] == 4.0


def test_energy_three_doc_worked_example():
    rows = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    e = energy_matrix(rows)
    assert e.values[0, 1] == 2.0
    assert e.values[0, 2] == 0.0
    assert e.values[1, 2] == 0.0


def test_energy_disjoint_unlinked_docs_is_zero():
    e = energy_matrix(np.array([[1, 0, 0], [0, 1, 0]]))
    assert e.values[0, 1] == 0.0


def test_energy_couples_through_intermediaries():
    # docs 0 and 2 share nothing directly, but doc 1 overlaps both
    rows = np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    e = energy_matrix(rows)
    # G_02 = 0 yet G_01 * G_12 = 1, so the interaction is positive
    assert e.values[0, 2] > 0.0


def test_energy_matches_quadruple_sum_oracle():
    rng = np.random.default_rng(20260818)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 7))
        arr = random_binary(rng, n, p)
        expected = quadruple_sum_energy(arr.tolist())
        got = 2 * energy_matrix(arr).values
        assert got.tolist() == expected


def test_energy_symmetric_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(20):
        arr = random_binary(rng, int(rng.integers(2, 12)), int(rng.integers(1, 15)))
        energy, taken = float_types_taken(energy_matrix, arr)
        q = energy.gram_sq
        assert np.array_equal(q, q.T)
        assert int(q.min()) >= 0
        assert q.dtype == taken[0]
        assert energy.peak == int(q.max())


FACTOR_ORDER, GRAM_ORDER = "U (U^T W U) U^T", "H (W H)"


def energy_with_order(cells):
    """``energy_matrix(cells)``, the float type it took and the order its
    held factors tell: in the first order U as uint8 cells and the u x p
    product B = U (U^T W U), in the second the u x u square."""
    energy, taken = float_types_taken(energy_matrix, cells)
    held, u = energy._product, len(energy._product)
    assert held.dtype == taken[0]
    if energy._cells is None:
        assert held.shape == (u, u)
        return energy, taken, GRAM_ORDER
    assert energy._cells.dtype == np.uint8 and energy._cells.shape == held.shape
    return energy, taken, FACTOR_ORDER


def first_energies(energy, n):
    """2 e_ij of the first n documents, as int64."""
    rows = np.arange(n) if energy.rows is None else energy.rows[:n]
    return np.asarray(energy.gram_sq)[np.ix_(rows, rows)].astype(np.int64)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 300),
    p=st.integers(1, 300),
    density=st.sampled_from([0.005, 0.02, 0.1, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
# arr in float64 in both orders (256 * 256^2 = 2^24; 400 * 250^2 with
# 2 p^2 < n^2); every padded form in float64 too
@example(n=256, p=256, density=1.0, seed=0)
@example(n=400, p=250, density=1.0, seed=4)
# arr in float32 in both orders (255 * 256^2 < 2^24; 300 * 120^2)
@example(n=255, p=256, density=1.0, seed=5)
@example(n=300, p=120, density=1.0, seed=2)
@example(n=300, p=300, density=1.0, seed=0)
@example(n=300, p=300, density=0.02, seed=1)
@example(n=120, p=300, density=1.0, seed=3)
# arr's rows all distinct (rows of None), in float32 and in float64
# (300 * t_max^2 >= 2^24 at density 0.9)
@example(n=300, p=300, density=0.5, seed=0)
@example(n=300, p=300, density=0.9, seed=0)
# every padded form in float32
@example(n=20, p=10, density=0.3, seed=6)
@example(n=120, p=40, density=0.1, seed=7)
@example(n=2, p=1, density=1.0, seed=8)
def test_blas_products_equal_int64_oracle(n, p, density, seed):
    arr = (np.random.default_rng(seed).random((n, p)) < density).astype(np.uint8)
    expected = int64_energy(arr)
    energy, taken, _ = energy_with_order(arr)
    assert taken == [energy_float_type(arr)] and energy.gram_sq.dtype == taken[0]
    assert np.array_equal(first_energies(energy, n), expected)
    # Zero columns, and rows over columns of their own, leave the energies
    # of arr's rows as they are; writing every row r times multiplies them
    # by r.  Below arr, m > n rows hold the distinct binary numbers 1..m
    # over k new columns, so the u >= m distinct rows of ``apart`` are more
    # than half its rows, and m^2 > 2 (p + k)^2 gives it the U (U^T W U)
    # U^T order (2 p^2 < u^2).  As many zero columns as rows move it to
    # the H then H (W H) order.  Written twice it shares every row in the
    # first order; widened to u columns and written three times, in the
    # second, where a rule of 2 p^2 < u n would take the first.
    m = max(n + 1, 2 * p + 40)
    k = m.bit_length()
    numbers = ((np.arange(1, m + 1)[:, None] >> np.arange(k)) & 1).astype(np.uint8)
    apart = np.block([[arr, np.zeros((n, k), np.uint8)], [np.zeros((m, p), np.uint8), numbers]])
    u = len(np.unique(apart, axis=0))
    cases = [
        (apart, False, FACTOR_ORDER, 1),
        (np.hstack([apart, np.zeros((n + m, n + m), np.uint8)]), False, GRAM_ORDER, 1),
        (np.vstack([apart] * 2), True, FACTOR_ORDER, 2),
        (np.vstack([np.hstack([apart, np.zeros((n + m, u - p - k), np.uint8)])] * 3), True, GRAM_ORDER, 3),
    ]
    for cells, shared, order, times in cases:
        energy, taken, taken_order = energy_with_order(cells)
        assert ((energy.rows is not None), taken_order) == (shared, order)
        assert taken == [energy_float_type(cells)] and energy.gram_sq.dtype == taken[0]
        assert np.array_equal(first_energies(energy, n), times * expected)

    ints = arr.astype(np.int64)
    gram = ints @ ints.T
    ones = np.diag(gram)
    differing = ones[:, None] + ones[None, :] - 2 * gram
    expected = differing[np.triu_indices(n, k=1)] / p
    dist, taken = float_types_taken(hamming_distance_vector, arr)
    assert taken == [np.float32]
    assert np.array_equal(dist.values, expected)


def test_float_type_switches_at_two_to_the_24():
    # n * t_max^2 of 1,864,135 documents of 3 terms is 2^24 - 1, and of
    # 4 documents of 2048 terms is 2^24
    assert _exact_float(1_864_135 * 3**2) is np.float32
    assert _exact_float(4 * 2048**2) is np.float64
    # four documents of 2047 and of 2048 terms fall on either side
    for t_max, float_type in ((2047, np.float32), (2048, np.float64)):
        arr = np.ones((4, t_max), dtype=np.uint8)
        energy, taken = float_types_taken(energy_matrix, arr)
        assert taken == [float_type]
        assert np.array_equal(2 * energy.values, int64_energy(arr))


def test_float64_above_two_to_the_24_where_float32_rounds():
    # row 0 holds all 4097 terms and row 1 the first 4096, so the energy
    # of row 0 with itself is 4097^2 + 4096^2 = 33,562,625: odd and above
    # 2^24, where float32 holds only even integers
    arr = np.ones((2, 4097), dtype=np.uint8)
    arr[1, -1] = 0
    single = arr.astype(np.float32)
    gram = single @ single.T
    assert int((gram @ gram)[0, 0]) != 4097**2 + 4096**2
    energy, taken = float_types_taken(energy_matrix, arr)
    assert taken == [np.float64]
    assert energy.gram_sq[0, 0] == 4097**2 + 4096**2
    assert np.array_equal(energy.gram_sq, int64_energy(arr))


def topics_documents(n):
    """The acceptance-gate corpus: 20 topics of 25 words and 30 shared ones."""
    rng = random.Random(2030)
    topics = [[f"w{t:02d}{k:02d}" for k in range(25)] for t in range(20)]
    shared = [f"g{k:02d}" for k in range(30)]
    return [
        Document(
            id=f"doc{j:04d}",
            text=" ".join(rng.sample(topics[j % 20], rng.randint(5, 9)) + rng.sample(shared, 3)),
        )
        for j in range(n)
    ]


@pytest.mark.parametrize("n", [1000, 2000])
def test_topics_corpus_energy_in_float32_equals_the_float64_product(n):
    matrix = build_matrix(topics_documents(n))
    energy, taken = float_types_taken(energy_matrix, matrix)
    assert taken == [np.float32]
    x = matrix.data.astype(np.float64)
    assert 2 * matrix.p**2 < n**2
    assert np.array_equal(energy.gram_sq, ((x @ (x.T @ x)) @ x.T).astype(np.int64))


def test_energy_distances_peak_near_one_float32_square():
    # In the X (X^T X) X^T order (2 p^2 < n^2) the energies stay factors:
    # X as uint8 cells and B = X (X^T X) in float32 (5 n p bytes), the
    # codes (1 or 2 bytes a pair) and one band's temporaries are nearly
    # all the memory, 3.2 n^2 here, where the float32 square (4 n^2 bytes)
    # took 6.3 n^2 and an int64 copy of it 12 n^2.
    # In the G G order (2 p^2 >= n^2) G and G G coexist for a moment
    # (8.0 n^2 here), and the float32 copy of X, 4 n p bytes, is freed
    # before.
    gg_cells = (np.random.default_rng(3).random((1000, 900)) < 0.01).astype(np.uint8)
    for cells, squares in ((build_matrix(topics_documents(2000)).data, 7), (gg_cells, 9)):
        n = cells.shape[0]
        tracemalloc.start()
        try:
            energy_distance_vector(energy_matrix(cells))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < squares * n * n


def test_float_square_gives_what_its_int64_cast_gives():
    energy = energy_matrix(build_matrix(topics_documents(300)))
    cast = EnergyMatrix(energy.gram_sq.astype(np.int64), ids=energy.ids)
    assert energy.gram_sq.dtype == np.float32
    assert energy.peak == cast.peak
    assert energy.values.dtype == cast.values.dtype == np.float64
    assert energy.values.tobytes() == cast.values.tobytes()
    assert energy_matrix_to_csv(energy) == energy_matrix_to_csv(cast)
    for mode in ("inverted", "raw"):
        got, expected = energy_distance_vector(energy, mode), energy_distance_vector(cast, mode)
        assert np.array_equal(got.codes, expected.codes)
        assert got.levels.tobytes() == expected.levels.tobytes()


def test_distances_take_the_peak_of_the_energy_matrix():
    reads = []

    class CountedMax(np.ndarray):
        def max(self, *args, **kwargs):
            reads.append(self.shape)
            return super().max(*args, **kwargs)

    q = energy_matrix(random_binary(np.random.default_rng(7), 20, 9)).gram_sq
    energy = EnergyMatrix(q.view(CountedMax))
    assert reads == [(20, 20)] and energy.peak == int(q.max())
    energy_distance_vector(energy)
    assert reads == [(20, 20)]


def test_fractional_or_infinite_energies_raise_value_error():
    # the casts of the integer codes would truncate 2.9 to 2; the small
    # square is ranked through a table, the scaled one by sorting
    fractional = np.array([[4.0, 2.9, 2.0], [2.9, 4.0, 2.0], [2.0, 2.0, 4.0]])
    for q in (fractional, fractional * 10 + 0.5):
        for mode in DISTANCE_MODES:
            with pytest.raises(ValueError, match="whole numbers"):
                energy_distance_vector(EnergyMatrix(q), mode)
    for q in ([[1.0, np.inf], [np.inf, 1.0]], [[np.inf, 0.0], [0.0, 1.0]]):
        with pytest.raises(ValueError, match="limit"):
            EnergyMatrix(np.array(q))
    # the Hamming square holds exact integers as floats too
    arr = random_binary(np.random.default_rng(11), 40, 13)
    values, _ = condensed_reference(arr, "hamming")
    assert np.array_equal(hamming_distance_vector(arr).values, values)


def test_energy_limit_is_two_to_the_53():
    EnergyMatrix(gram_sq=np.full((2, 2), EXACT_INT_LIMIT - 1))
    with pytest.raises(DataError, match=f"2\\^53 = {EXACT_INT_LIMIT}"):
        EnergyMatrix(gram_sq=np.full((2, 2), EXACT_INT_LIMIT))


def test_energy_matrix_raises_at_the_limit(monkeypatch):
    # reaching 2^53 needs n * t_max^2 >= 2^53, far past memory, so the
    # limit is lowered to reach EnergyMatrix's check on the float product
    monkeypatch.setattr("defclust.distance.EXACT_INT_LIMIT", 8)
    with pytest.raises(DataError, match="n=2 documents"):
        energy_matrix(np.array([[1, 1, 0], [1, 1, 0]]))


def test_energy_rejects_empty_and_non_binary():
    with pytest.raises(ValueError):
        energy_matrix(np.zeros((0, 3), dtype=int))
    with pytest.raises(ValueError, match="0 or 1"):
        energy_matrix(np.array([[0, 2]]))
    with pytest.raises(ValueError, match="two-dimensional"):
        energy_matrix(np.array([1, 0, 1]))


def test_energy_matrix_type_validation():
    with pytest.raises(ValueError, match="square"):
        EnergyMatrix(gram_sq=np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError, match="symmetric"):
        EnergyMatrix(gram_sq=np.array([[0, 1], [2, 0]]))
    with pytest.raises(ValueError, match="non-negative"):
        EnergyMatrix(gram_sq=np.array([[0, -1], [-1, 0]]))
    with pytest.raises(ValueError, match="ids"):
        EnergyMatrix(gram_sq=np.zeros((2, 2), dtype=np.int64), ids=("a",))
    # no kind of square is cast, truncated or accepted with a warning
    wrong_kinds = [
        np.array([[0, 1 + 2j], [1 + 2j, 0]]),
        np.array([[0, 1], [1, 0]], dtype=object),
        np.array([["0", "1"], ["1", "0"]]),
        np.array([[0, 1], [1, 0]], dtype="m8[s]"),
        [[0, 1], [1, 0]],
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for square in wrong_kinds:
            with pytest.raises(ValueError, match="bool, integer or float array"):
                EnergyMatrix(gram_sq=square)


# ---------------------------------------------------------------- distances

def test_inverted_distance_worked_example():
    # energies [e_12=2, e_13=0, e_23=0] -> normalized [1,0,0] -> inverted [0,1,1]
    rows = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    d = energy_distance_vector(energy_matrix(rows))
    assert d.values.tolist() == [0.0, 1.0, 1.0]


def test_identical_pair_distance_zero():
    d = energy_distance_vector(energy_matrix(np.array([[1, 1, 0], [1, 1, 0]])))
    assert d.values.tolist() == [0.0]


def test_inverted_mode_is_one_minus_raw():
    rng = np.random.default_rng(9)
    arr = random_binary(rng, 8, 10)
    e = energy_matrix(arr)
    inv = energy_distance_vector(e, mode="inverted")
    raw = energy_distance_vector(e, mode="raw")
    assert np.array_equal(inv.values, 1.0 - raw.values)
    assert raw.values.max() == 1.0  # the argmax pair


def test_degenerate_all_zero_energies():
    # disjoint vocabularies, no intermediaries
    arr = np.eye(3, dtype=int)
    e = energy_matrix(arr)
    assert energy_distance_vector(e, mode="inverted").values.tolist() == [1.0] * 3
    assert energy_distance_vector(e, mode="raw").values.tolist() == [0.0] * 3


def test_distances_in_unit_interval_with_zero_at_argmax():
    rng = np.random.default_rng(13)
    for _ in range(20):
        arr = random_binary(rng, int(rng.integers(2, 10)), int(rng.integers(2, 12)))
        e = energy_matrix(arr)
        d = energy_distance_vector(e)
        assert float(d.values.min()) >= 0.0
        assert float(d.values.max()) <= 1.0
        iu = np.triu_indices(e.n, k=1)
        if e.values[iu].max() > 0:
            assert float(d.values.min()) == 0.0


def test_row_permutation_equivariance():
    rng = np.random.default_rng(17)
    arr = random_binary(rng, 9, 11)
    base = energy_distance_vector(energy_matrix(arr))
    perm = rng.permutation(9)
    permuted = energy_distance_vector(energy_matrix(arr[perm]))
    assert np.array_equal(
        permuted.levels[permuted.codes], base.levels[base.codes][np.ix_(perm, perm)]
    )


@st.composite
def binary_matrices(draw):
    """0/1 matrices, n from 2 to 40, many with duplicate rows or disjoint vocabularies."""
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["random", "duplicate rows", "disjoint"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "disjoint":
        # each column belongs to at most one document, so no pair shares a
        # term, every off-diagonal energy is 0 and so is the peak
        p = draw(st.integers(1, 2 * n))
        owner = rng.integers(-1, n, size=p)
        arr = np.zeros((n, p), dtype=np.int64)
        used = owner >= 0
        arr[owner[used], np.flatnonzero(used)] = 1
        return arr
    p = draw(st.integers(1, 30))
    density = draw(st.sampled_from([0.05, 0.3, 0.7, 1.0]))
    arr = (rng.random((n, p)) < density).astype(np.int64)
    if kind == "duplicate rows":
        arr = arr[rng.integers(0, max(1, n // 3), size=n)]
    return arr


def merge_tuples(dist):
    return [(m.left, m.right, m.distance, m.new_id) for m in build_dendrogram(dist).merges]


@settings(max_examples=150, deadline=None)
@given(binary_matrices())
@example(np.eye(3, dtype=np.int64))
@example(np.ones((4, 2), dtype=np.int64))
def test_square_equals_condensed_reference(arr):
    energy = energy_matrix(arr)
    for distance in ("inverted", "raw", "hamming"):
        if distance == "hamming":
            dist = hamming_distance_vector(arr)
        else:
            dist = energy_distance_vector(energy, mode=distance)
        values, square = condensed_reference(arr, distance)
        assert dist.values.dtype == np.float64
        assert np.array_equal(dist.values, values)
        assert dist.levels[dist.codes].dtype == np.float64
        assert np.array_equal(dist.levels[dist.codes], square)
        assert merge_tuples(dist) == merge_tuples(coded_square(square))


def shared_rows_matrix():
    """40 topics documents, each written 5 times over under new ids."""
    rng = random.Random(2032)
    topics = [[f"w{t:02d}{k:02d}" for k in range(25)] for t in range(8)]
    shared = [f"g{k:02d}" for k in range(30)]
    texts = [
        " ".join(rng.sample(topics[j % 8], rng.randint(5, 9)) + rng.sample(shared, 3))
        for j in range(40)
    ]
    return build_matrix(
        [Document(id=f"doc{j:02d}~{k}", text=text) for k in range(5) for j, text in enumerate(texts)]
    )


@pytest.mark.parametrize("distance", ["inverted", "raw", "hamming"])
@pytest.mark.parametrize("corpus", ["bundled", "shared rows"])
def test_codes_are_the_dense_ranks_of_their_distances(corpus, distance, synthetic_matrix):
    # every level is used once and in order: the oracle's ranks of the
    # floats give back the codes and the levels byte for byte
    matrix = synthetic_matrix if corpus == "bundled" else shared_rows_matrix()
    if distance == "hamming":
        dist = hamming_distance_vector(matrix)
    else:
        dist = energy_distance_vector(energy_matrix(matrix), mode=distance)
    oracle = coded_square(dist.levels[dist.codes])
    assert oracle.codes.dtype == dist.codes.dtype
    assert oracle.codes.tobytes() == dist.codes.tobytes()
    assert oracle.levels.tobytes() == dist.levels.tobytes()


@pytest.mark.parametrize("mode", ["inverted", "raw"])
def test_table_and_sorted_triangle_give_the_same_codes(mode):
    # q / peak is one correctly rounded ratio, so scaling every energy by
    # the same integer keeps every distance.  The small energies of the u
    # distinct rows stay below u^2 and are ranked through a table over
    # 0..max; the scaled ones are not, and go through the sorted upper
    # triangle.
    arr = (np.random.default_rng(41).random((60, 40)) < 0.06).astype(np.uint8)
    energy = energy_matrix(arr)
    q = energy.gram_sq
    u = len(q)
    scaled = q * (u * u)
    assert int(q.max()) < u * u <= int(scaled.max())
    table = energy_distance_vector(EnergyMatrix(q, rows=energy.rows), mode)
    triangle = energy_distance_vector(EnergyMatrix(scaled, rows=energy.rows), mode)
    assert table.codes.dtype == triangle.codes.dtype == _code_dtype(table.levels.size)
    assert np.array_equal(table.codes, triangle.codes)
    assert np.array_equal(table.levels, triangle.levels)
    values, square = condensed_reference(arr, mode)
    assert np.array_equal(table.values, values)
    assert np.array_equal(table.levels, np.unique(np.append(square, 0.0)))


# ---------------------------------------------------------------- shared rows

def n_by_n_distances(arr, distance, scale=1):
    """Integer square, codes and levels of every pair of the n documents,
    the way they were built before documents shared rows: the n x n
    square in int64, its upper triangle ranked through ``np.unique``."""
    ints = np.asarray(arr, dtype=np.int64)
    n, p = ints.shape
    gram = ints @ ints.T
    if distance == "hamming":
        ones = np.diag(gram)
        q, divisor = ones[:, None] + ones[None, :] - 2 * gram, p
    else:
        q, divisor = gram @ gram * scale, None
    distinct = np.unique(q[np.triu_indices(n, k=1)])
    levels, ranks = _integer_levels(
        distinct, int(distinct[-1]) if divisor is None else divisor, distance == "inverted"
    )
    index = np.searchsorted(distinct, q)
    np.fill_diagonal(index, 0)
    codes = ranks[index]
    np.fill_diagonal(codes, 0)
    return q, codes, levels


@st.composite
def pooled_rows(draw):
    """n rows drawn from a pool of at most 6, so most of them repeat."""
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, 16))
    density = draw(st.sampled_from([0.1, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = (rng.random((draw(st.integers(1, 6)), p)) < density).astype(np.uint8)
    return pool[rng.integers(0, len(pool), size=n)]


# rows 0 to 3 share (1,1,1,0), whose energy with itself, 37, is the
# largest pair energy: the normalizer comes from a diagonal entry of the
# square of the 3 distinct rows, whose largest off-diagonal entry is 14
SHARED_PEAK = np.array([[1, 1, 1, 0]] * 4 + [[1, 0, 0, 1], [0, 0, 0, 1]])


@settings(max_examples=150, deadline=None)
@given(pooled_rows())
@example(np.ones((2, 3), dtype=np.uint8))
@example(np.tile(np.array([1, 0, 1, 1], dtype=np.uint8), (5, 1)))
@example(np.zeros((4, 3), dtype=np.uint8))
@example(SHARED_PEAK)
def test_shared_rows_give_what_the_n_by_n_square_gives(arr):
    # The table path ranks energies below u^2; scaled by u^2 (every
    # distance kept, as q / peak is one correctly rounded ratio) a nonzero
    # square goes through the sorted upper triangle.
    energy = energy_matrix(arr)
    u = len(np.unique(arr, axis=0))
    # documents share rows when at least half of them repeat one
    assert energy.n == len(arr) and (energy.rows is None) == (2 * u > len(arr))
    u = len(energy.gram_sq)
    for distance in ("inverted", "raw", "hamming"):
        for scale in (1, u * u):
            if distance == "hamming":
                if scale > 1:
                    continue
                dist = hamming_distance_vector(arr)
            else:
                scaled = EnergyMatrix(energy.gram_sq * scale, rows=energy.rows)
                dist = energy_distance_vector(scaled, distance)
            q, codes, levels = n_by_n_distances(arr, distance, scale)
            if distance == "raw":
                assert np.array_equal(2 * scaled.values, q)
                assert scaled.peak == int(q.max())
            assert np.array_equal(dist.codes, codes)
            assert dist.levels.tobytes() == levels.tobytes()
            oracle = PairwiseDistances(codes.astype(dist.codes.dtype), levels)
            assert merge_tuples(dist) == merge_tuples(oracle)


def test_shared_row_energy_with_itself_normalizes():
    energy = energy_matrix(SHARED_PEAK)
    assert energy.rows.tolist() == [0, 0, 0, 0, 1, 2]
    assert energy.peak == energy.gram_sq[0, 0] == 37
    assert int(energy.gram_sq[np.triu_indices(3, k=1)].max()) == 14
    raw = energy_distance_vector(energy, "raw")
    assert pair_distance(raw, 0, 1) == 1.0 and pair_distance(raw, 0, 4) == 14 / 37


def test_energy_matrix_rows_validation():
    q = np.array([[8, 2], [2, 3]])
    energy = EnergyMatrix(q, ids=("a", "b", "c"), rows=np.array([1, 0, 1], dtype=np.uint64))
    assert energy.n == 3 and energy.rows.dtype == np.intp
    assert (2 * energy.values).tolist() == [[3, 2, 3], [2, 8, 2], [3, 2, 3]]
    cases = [
        (np.array([[0, 1], [1, 0]]), "one-dimensional integer"),
        (np.array([0.0, 1.0]), "one-dimensional integer"),
        (np.array([0, 2]), "index rows"),
        (np.array([-1, 1]), "index rows"),
        (np.array([0, 0, 0]), "every row"),
    ]
    for rows, message in cases:
        with pytest.raises(ValueError, match=message):
            EnergyMatrix(q, rows=rows)
    with pytest.raises(ValueError, match="number of documents"):
        EnergyMatrix(q, ids=("a", "b"), rows=np.array([1, 0, 1]))


def test_energy_matrix_is_read_only():
    # 20 documents over 4 terms take the factor order; the 2 x 2 is a square
    cells = np.array([[i >> k & 1 for k in range(4)] for i in range(16)] * 2, dtype=np.uint8)[:20]
    for energy in (energy_matrix(cells), EnergyMatrix(np.eye(2, dtype=np.int64), ids=("a", "b"))):
        for name in ("ids", "rows", "peak", "gram_sq", "_product", "other"):
            with pytest.raises(AttributeError):
                setattr(energy, name, None)
    assert energy_matrix(cells)._cells is not None
    assert repr(energy) == "EnergyMatrix(n=2, peak=1, ids=('a', 'b'))"


@pytest.mark.parametrize("cells", [
    np.eye(20, dtype=np.uint8),
    np.vstack([np.eye(20, dtype=np.uint8)] * 3),
    (np.random.default_rng(44).random((60, 20)) < 0.3).astype(np.uint8),
    np.random.default_rng(45).random((30, 40)) < 0.2,
    np.tile((np.random.default_rng(46).random((12, 9)) < 0.4).astype(np.float64), (4, 1)),
], ids=["identity", "shared identity", "factor order", "bool", "shared floats"])
def test_fortran_ordered_cells_give_what_c_ordered_ones_give(cells):
    # The rows are hashed as their packed bytes, which must be C-ordered
    # whatever the order of the cells
    fortran = np.asfortranarray(cells)
    assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
    expected, got = energy_matrix(cells), energy_matrix(fortran)
    assert got.peak == expected.peak
    assert (got.rows is None) == (expected.rows is None)
    if got.rows is not None:
        assert np.array_equal(got.rows, expected.rows)
    assert np.array_equal(got.gram_sq, expected.gram_sq)
    pairs = [(hamming_distance_vector(fortran), hamming_distance_vector(cells))]
    for mode in DISTANCE_MODES:
        pairs.append((energy_distance_vector(got, mode), energy_distance_vector(expected, mode)))
    for dist, oracle in pairs:
        assert dist.codes.dtype == oracle.codes.dtype
        assert dist.codes.tobytes() == oracle.codes.tobytes()
        assert dist.levels.tobytes() == oracle.levels.tobytes()


def traced_peak(call, *args):
    """``call(*args)`` and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def energy_distances(cells):
    return energy_distance_vector(energy_matrix(cells))


@pytest.mark.parametrize("n", [600, 1000])
def test_one_shared_row_peaks_no_higher_than_none(n):
    # One repeated row (u = n - 1) must not cost memory over the same
    # documents with that row told apart; n = 600 takes the G G order,
    # n = 1000 the X (X^T X) X^T one.
    shared = build_matrix(topics_documents(n)).data.copy()
    shared[1] = shared[0]
    apart = shared.copy()
    apart[1, np.flatnonzero(apart[1] == 0)[0]] = 1
    assert len(np.unique(shared, axis=0)) == n - 1 and len(np.unique(apart, axis=0)) == n
    for call in (energy_distances, hamming_distance_vector):
        # the first call of a process pays one-time allocations, which
        # would land on the shared side alone
        call(shared)
        call(apart)
        _, shared_peak = traced_peak(call, shared)
        _, apart_peak = traced_peak(call, apart)
        assert shared_peak <= apart_peak, call.__name__


@pytest.mark.parametrize("p", [20, 200])
def test_many_shared_rows_peak_near_the_codes(p):
    # 600 documents over 60 distinct rows: the n x n codes (1 or 2 bytes
    # a pair), a few u x u squares, a few hundred bytes per document (the
    # temporaries of one band of rows, and of the checks on the codes) and
    # a few words per distance level, where the float32 n x n square alone
    # would take 4 n^2 bytes and a second code square as many as the
    # codes.  p = 20 takes the U (U^T W U) U^T order, p = 200 the H then
    # H (W H) one.
    rng = np.random.default_rng(p)
    pool = (rng.random((60, p)) < 0.1).astype(np.uint8)
    pool[:, :6] = (np.arange(60)[:, None] >> np.arange(6)) & 1
    cells = pool[rng.integers(0, 60, size=600)]
    n, u = 600, len(np.unique(cells, axis=0))
    assert u == 60
    for call in (energy_distances, hamming_distance_vector):
        dist, peak = traced_peak(call, cells)
        bound = dist.codes.nbytes + 6 * u * u + 256 * n + 64 * dist.levels.size
        assert peak < bound, (call.__name__, peak / bound)


def test_shared_rows_in_the_gram_order_build_no_u_by_n_block():
    # 600 documents over 60 distinct rows with p = 200 take H then H (W H)
    # (2 p^2 >= u^2, and 2 p^2 >= u n too) in float32.  M = H[:, rows], the
    # u x n block of G, takes 4 u n bytes, more than the whole product
    # allocates.
    rng = np.random.default_rng(200)
    pool = (rng.random((60, 200)) < 0.1).astype(np.uint8)
    pool[:, :6] = (np.arange(60)[:, None] >> np.arange(6)) & 1
    cells = pool[rng.integers(0, 60, size=600)]
    n, u = 600, len(np.unique(cells, axis=0))
    assert u == 60
    energy_with_order(cells)
    (energy, taken, order), peak = traced_peak(energy_with_order, cells)
    assert (taken, order, energy.gram_sq.shape) == ([np.float32], GRAM_ORDER, (u, u))
    assert peak < 4 * u * n, peak / (4 * u * n)


@pytest.mark.parametrize("u", [400, 800])
def test_sorted_triangle_peaks_below_eight_squares(u):
    # Topics energies scaled by u^2 keep their levels and reach u^2, so
    # the distinct ones are found by sorting the integers of the upper
    # tiles.  The peak holds the uint32 square of integers (4 u^2 bytes)
    # and those integers copied out beside it (about 2 u^2) and sorted;
    # 7.2 u^2 is read here.  Kept in int64 with no square beside them,
    # the tiles read twice, they took 5.4 u^2; a bool mask of the
    # triangle, and a float64 copy of its entries, took 9 u^2.
    energy = energy_matrix(build_matrix(topics_documents(u)))
    scaled = EnergyMatrix(energy.gram_sq.astype(np.float64) * (u * u))
    assert energy.rows is None and scaled.peak >= u * u
    energy_distance_vector(scaled)
    dist, peak = traced_peak(energy_distance_vector, scaled)
    assert dist.codes.tobytes() == energy_distance_vector(energy).codes.tobytes()
    assert peak < 8 * u * u, peak / (u * u)


def test_unsigned_squares_mark_unshared_rows_like_int64():
    # Rows 0-6 are shared by three documents each and row 7 by one: the
    # pair rule marks row 7's diagonal as no pair, one past the peak,
    # which is stamped on the square of integers in the narrowest type
    # that holds it, so a square of the peak's own unsigned type cannot
    # wrap it.  Scaled by u^2 = 64 the energies take the sorted triangle
    # in place of the table.
    pool = np.hstack([np.eye(8, dtype=np.uint8), (np.arange(8) < 4)[:, None].astype(np.uint8)])
    energy = energy_matrix(np.vstack([pool[:7]] * 3 + [pool[7:]]))
    assert np.bincount(energy.rows).tolist() == [3] * 7 + [1]
    q = energy.gram_sq.astype(np.int64)
    for scale, dtypes in ((1, (np.uint8, np.uint16, np.uint64)), (64, (np.uint16, np.uint64))):
        assert (q.max() * scale < 64) == (scale == 1)
        for mode in DISTANCE_MODES:
            expected = energy_distance_vector(EnergyMatrix(q * scale, rows=energy.rows), mode)
            for dtype in dtypes:
                square = EnergyMatrix((q * scale).astype(dtype), rows=energy.rows)
                got = energy_distance_vector(square, mode)
                assert got.codes.tobytes() == expected.codes.tobytes(), (scale, dtype)
                assert got.levels.tobytes() == expected.levels.tobytes(), (scale, dtype)


@pytest.mark.parametrize("shared", [False, True])
@pytest.mark.parametrize("u", [12, 20, 260])
def test_raw_squares_at_the_edges_of_their_dtype(u, shared):
    # The walk writes the integers in the narrowest unsigned type that
    # holds top + 1, the value of no pair: of each pair of tops below,
    # one short of and at 2^8 - 1, 2^16 - 1 and 2^32 - 1, the second
    # takes the next type up, and 2^53 - 1, the largest energy, a uint64
    # square.  Tops below u^2 take the table: none at u = 12, the first
    # two at u = 20 and all but the last three at u = 260.
    rng = np.random.default_rng(u + shared)
    rows = None
    if shared:
        rows = rng.permutation(np.concatenate([np.arange(u), rng.integers(0, u, size=u)]))
    tops = (2**8 - 2, 2**8 - 1, 2**16 - 2, 2**16 - 1, 2**32 - 2, 2**32 - 1, 2**53 - 1)
    raw_types = [np.min_scalar_type(top + 1) for top in tops]
    assert raw_types == [np.uint8, np.uint16, np.uint16, np.uint32, np.uint32, np.uint64, np.uint64]
    for top in tops:
        half = np.triu(rng.integers(0, top, size=(u, u), endpoint=True))
        half[0, 1] = top
        q = half + np.triu(half, 1).T
        energy = EnergyMatrix(q, rows=rows)
        assert energy.peak == top
        pairs = q if rows is None else q[np.ix_(rows, rows)]
        peak = int(pairs[~np.eye(len(pairs), dtype=bool)].max())
        for mode in DISTANCE_MODES:
            square = pairs / peak
            if mode == "inverted":
                square = 1.0 - square
            np.fill_diagonal(square, 0.0)
            oracle = coded_square(square)
            dist = energy_distance_vector(energy, mode)
            assert dist.codes.dtype == oracle.codes.dtype, (top, mode)
            assert dist.codes.tobytes() == oracle.codes.tobytes(), (top, mode)
            assert dist.levels.tobytes() == oracle.levels.tobytes(), (top, mode)


# ---------------------------------------------------------------- factor tiles

def square_path_levels(distinct, divisor, inverted):
    """``_integer_levels`` as it was before it wrote into one buffer."""
    x = distinct / divisor if divisor else distinct.astype(np.float64)
    values = np.concatenate(([0.0], 1.0 - x[::-1] if inverted else x))
    rises = values[1:] != values[:-1]
    codes = np.cumsum(rises)
    return values[np.concatenate(([True], rises))], codes[::-1] if inverted else codes


def square_path_distances(q, top, divisor, inverted, rows):
    """Codes and levels of the pairs of documents over the whole u x u
    square q, the way they were built before the distances read tiles of
    the product's factors: the levels from the ``_upper_tiles`` of q, the
    codes from whole bands of its rows, then taken to n x n."""
    u = q.shape[0]
    pairs = np.broadcast_to(-1, u)
    if rows is not None:
        pairs = np.where(np.bincount(rows) > 1, q.diagonal().astype(np.intp), -1)
    table = top < u * u
    seen, kept = np.zeros(top + 2 if table else 0, dtype=bool), []
    for band, cols in _upper_tiles(u):
        block = q[band, cols].astype(np.intp)
        if cols.start == band.start:
            np.fill_diagonal(block, pairs[band])
        if table:
            seen[block] = True
        else:
            kept.append(block.ravel())
    if table:
        distinct = np.flatnonzero(seen[:-1])
    else:
        kept = np.sort(np.concatenate(kept))
        kept = kept[np.searchsorted(kept, 0) :]
        distinct = kept[np.concatenate(([True], kept[1:] != kept[:-1]))]
    divisor = int(distinct[-1]) if divisor is None else divisor
    levels, ranks = square_path_levels(distinct, divisor, inverted)
    codes = np.empty((u, u), dtype=_code_dtype(levels.size))
    if table:
        lookup = np.zeros(top + 1, dtype=codes.dtype)
        lookup[distinct] = ranks
    else:
        lookup = ranks.astype(codes.dtype)
    for band in range(0, u, _BLOCK_ROWS):
        block = q[band : band + _BLOCK_ROWS]
        index = block.astype(np.intp) if table else np.searchsorted(distinct, block)
        np.take(lookup, index, out=codes[band : band + _BLOCK_ROWS], mode="clip")
    if rows is not None:
        codes = codes[np.ix_(rows, rows)]
    np.fill_diagonal(codes, 0)
    return codes, levels


def factor_order_cells(u, extra, dense, spread, density, seed):
    """Documents over u distinct rows in the factor order (2 p^2 < u^2),
    with ``extra`` more documents that repeat rows; the rows are shared
    when 2u <= u + extra.  Each row holds its own number in binary, and
    may hold each of ``spread`` of the columns left below the order's
    width at ``density``; with ``dense``, 129 more columns that every row
    holds take n * t_max^2 to 2^24 from n = 1024 on, and float32 rounds."""
    rng = np.random.default_rng(seed)
    k = u.bit_length()
    numbers = (np.arange(1, u + 1)[:, None] >> np.arange(k)) & 1
    # the largest p with 2 p^2 < u^2
    width = math.isqrt((u * u - 1) // 2)
    ones = 129 if dense and width >= 129 + k else 0
    drawn = rng.random((u, int(spread * (width - ones - k)))) < density
    pool = np.hstack([np.ones((u, ones)), drawn, numbers]).astype(np.uint8)
    picks = np.concatenate([np.arange(u), rng.integers(0, u, size=extra)])
    return pool[rng.permutation(picks)]


def exact_products(cells, rows):
    """The square over the distinct rows of ``cells``, each row once in the
    order of ``rows``: its energies U (U^T W U) U^T and its counts of
    differing positions t_a + t_b - 2 U U^T, as int64.  The products run
    in float64, exact below 2^53, and in no blocking of the library's."""
    rows = np.arange(len(cells)) if rows is None else rows
    _, firsts = np.unique(rows, return_index=True)
    distinct = cells[firsts].astype(np.float64)
    weights = np.bincount(rows).astype(np.float64)[:, None]
    gram = distinct @ distinct.T
    energies = distinct @ (distinct.T @ (weights * distinct)) @ distinct.T
    ones = np.diag(gram)
    counts = ones[:, None] + ones[None, :] - 2 * gram
    return energies.astype(np.int64), counts.astype(np.int64)


@settings(max_examples=40, deadline=None)
@given(
    u=st.integers(6, 300),
    shared=st.booleans(),
    dense=st.booleans(),
    spread=st.sampled_from([0.0, 0.3, 1.0]),
    density=st.sampled_from([0.02, 0.2, 0.6]),
    seed=st.integers(0, 2**32 - 1),
)
# the first band ends one row short of, at and one row past u
@example(u=_BLOCK_ROWS - 1, shared=False, dense=False, spread=1.0, density=0.2, seed=0)
@example(u=_BLOCK_ROWS, shared=True, dense=False, spread=0.3, density=0.6, seed=1)
@example(u=_BLOCK_ROWS + 1, shared=False, dense=False, spread=1.0, density=0.02, seed=2)
# one column tile, and a second of one column; float32 rounds at the
# dense rows' 2^24 and over, so these take float64
@example(u=1023, shared=False, dense=False, spread=0.3, density=0.02, seed=3)
@example(u=1024, shared=False, dense=True, spread=0.1, density=0.2, seed=4)
@example(u=1025, shared=False, dense=True, spread=0.3, density=0.02, seed=5)
@example(u=1025, shared=True, dense=True, spread=0.0, density=0.02, seed=6)
def test_factor_tiles_give_what_the_square_path_gives(u, shared, dense, spread, density, seed):
    n = 2 * u + seed % 3 if shared else u
    cells = factor_order_cells(u, n - u, dense, spread, density, seed)
    energy, taken, order = energy_with_order(cells)
    assert order == FACTOR_ORDER and (energy.rows is not None) == shared
    assert taken == [energy_float_type(cells)]
    if dense and n * 129**2 >= 2**24:
        assert taken == [np.float64]
    energies, counts = exact_products(cells, energy.rows)
    assert energy.peak == int(energies.max())
    p = cells.shape[1]
    for distance in ("inverted", "raw", "hamming"):
        if distance == "hamming":
            dist = hamming_distance_vector(cells)
            codes, levels = square_path_distances(counts, p, p, False, energy.rows)
        else:
            dist = energy_distance_vector(energy, distance)
            inverted = distance == "inverted"
            codes, levels = square_path_distances(energies, energy.peak, None, inverted, energy.rows)
        assert dist.codes.dtype == codes.dtype, distance
        assert dist.codes.tobytes() == codes.tobytes(), distance
        assert dist.levels.tobytes() == levels.tobytes(), distance
        # the codes the library writes unchecked pass every check
        assert np.array_equal(dist.codes, dist.codes.T) and not dist.codes.diagonal().any()
        PairwiseDistances(dist.codes, dist.levels)


@pytest.mark.parametrize("cells", [
    # the energies of every pair are 0: the zero row meets nothing, and the
    # rows that hold a term meet no other one (the shared zero row's own
    # pair is 0 too)
    np.array([[1, 0], [0, 1], [0, 0]]),
    np.array([[0, 0], [1, 0], [0, 0], [0, 1], [0, 0], [0, 0]]),
])
def test_factor_tiles_of_all_zero_energies(cells):
    energy = energy_matrix(cells)
    assert energy._cells is not None and energy.peak == 1
    energies, _ = exact_products(cells, energy.rows)
    for mode in DISTANCE_MODES:
        dist = energy_distance_vector(energy, mode)
        inverted = mode == "inverted"
        codes, levels = square_path_distances(energies, energy.peak, None, inverted, energy.rows)
        assert dist.codes.tobytes() == codes.tobytes() and dist.levels.tobytes() == levels.tobytes()
        assert dist.levels.tolist() == ([0.0, 1.0] if mode == "inverted" else [0.0])


def tiles_read(call, *args):
    """``call(*args)``, the side of the square its distances read, and the
    ``(rows, cols)`` of each tile they read, in order."""
    read, sides = [], []

    def counting(source, u, *rest):
        def counted(rows):
            tile = source(rows)

            def counted_tile(cols):
                read.append((rows, cols))
                return tile(cols)

            return counted_tile

        sides.append(u)
        return _coded_distances(counted, u, *rest)

    with mock.patch("defclust.distance._coded_distances", counting):
        result = call(*args)
    return result, sides[0], read


def test_every_source_reads_each_tile_once():
    # 1100 rows take two column tiles in the first bands.  Energies from
    # the factors, from a held square and Hamming counts stay below u^2
    # and take the table; energies scaled by u^2, and those of dense rows
    # from the factors, are sorted.  Either fork reads each tile once.
    cells = factor_order_cells(1100, 0, False, 0.3, 0.2, 11)
    energy = energy_matrix(cells)
    q = energy.gram_sq.astype(np.int64)
    u = len(q)
    assert energy._cells is not None and energy.rows is None and energy.peak < u * u
    dense = factor_order_cells(1100, 0, True, 0.3, 0.2, 11)
    wide = energy_matrix(dense)
    assert wide._cells is not None and wide.rows is None and wide.peak >= u * u
    cases = [
        (energy_distance_vector, energy),
        (energy_distance_vector, EnergyMatrix(q)),
        (hamming_distance_vector, cells),
        (energy_distance_vector, EnergyMatrix(q * (u * u))),
        (energy_distance_vector, wide),
    ]
    tiles = list(_upper_tiles(u))
    assert len(tiles) > -(-u // _BLOCK_ROWS)
    expected = energy_distance_vector(energy).codes
    wide_codes, _ = square_path_distances(exact_products(dense, None)[0], wide.peak, None, True, None)
    for call, arg in cases:
        dist, side, read = tiles_read(call, arg)
        assert side == u and read == tiles, (call.__name__, len(read))
        if call is energy_distance_vector:
            assert np.array_equal(dist.codes, wide_codes if arg is wide else expected)


@pytest.mark.parametrize("shared", [False, True])
def test_wide_integers_of_few_levels_take_one_byte_codes(shared):
    # Integers up to 3000 stay below u^2 and take the table, and their
    # square of integers two bytes a pair; their 11 values give one-byte
    # codes, which the relabel writes into a new square.
    rng = np.random.default_rng(43 + shared)
    u = 60
    half = np.triu(300 * rng.integers(0, 11, size=(u, u)))
    q = half + np.triu(half, 1).T
    rows = None
    if shared:
        rows = rng.permutation(np.concatenate([np.arange(u), rng.integers(0, u, size=2 * u)]))
    energy = EnergyMatrix(q, rows=rows)
    assert energy.peak < u * u and _code_dtype(energy.peak + 1) == np.uint16
    pairs = q if rows is None else q[np.ix_(rows, rows)]
    peak = int(pairs[~np.eye(len(pairs), dtype=bool)].max())
    for mode in DISTANCE_MODES:
        square = pairs / peak
        if mode == "inverted":
            square = 1.0 - square
        np.fill_diagonal(square, 0.0)
        oracle = coded_square(square)
        dist = energy_distance_vector(energy, mode)
        assert dist.codes.dtype == oracle.codes.dtype == np.uint8
        assert dist.codes.tobytes() == oracle.codes.tobytes()
        assert dist.levels.tobytes() == oracle.levels.tobytes()


def test_factor_held_peak_is_the_largest_int64_energy(monkeypatch):
    # the square is never built for ``peak``: its largest entry lies on the
    # diagonal, sum_k B_ak U_ak, and the limit is checked against it
    cases = [
        factor_order_cells(200, 0, False, 1.0, 0.2, 7),
        factor_order_cells(100, 150, False, 1.0, 0.6, 8),
        factor_order_cells(1024, 0, True, 0.0, 0.2, 9),
    ]
    for cells in cases:
        energy, taken, order = energy_with_order(cells)
        assert order == FACTOR_ORDER
        energies, _ = exact_products(cells, energy.rows)
        assert energy.peak == int(energies.max()) == int(energies.diagonal().max())
        assert energy.peak == int(energy.gram_sq.max())
        monkeypatch.setattr("defclust.distance.EXACT_INT_LIMIT", energy.peak)
        with pytest.raises(DataError, match=f"second-order energy {energy.peak}"):
            energy_matrix(cells)
        monkeypatch.setattr("defclust.distance.EXACT_INT_LIMIT", energy.peak + 1)
        assert energy_matrix(cells).peak == energy.peak
        monkeypatch.undo()


def test_sorted_triangle_levels_peak_below_sixteen_squares():
    # Random symmetric integers below 2 u^2 give nearly every pair its own
    # level (282,987 at u = 800): the distinct integers, the levels and
    # the uint32 codes of each are the most of the peak, beside the u x u
    # codes.  The levels took 15 u^2 of the 20.6 u^2 peak when they were
    # built through float64 and int64 temporaries; 15.6 u^2 is read here.
    u = 800
    rng = np.random.default_rng(u)
    half = np.triu(rng.integers(0, 2 * u * u, size=(u, u)))
    energy = EnergyMatrix((half + np.triu(half, 1).T).astype(np.float64))
    del half
    energy_distance_vector(energy)
    dist, peak = traced_peak(energy_distance_vector, energy)
    assert dist.codes.dtype == np.uint32 and dist.levels.size > 250_000
    assert peak < 16 * u * u, peak / (u * u)


def test_integers_that_round_to_one_float_share_a_code():
    # Near 2^53, 1.0 - q / peak gives one float for two integers; the
    # pipeline never reaches such a peak, so the level builder is called
    # on its own.
    peak = EXACT_INT_LIMIT - 1
    q = 4503599627370295
    assert 1.0 - q / peak == 1.0 - (q + 1) / peak
    distinct = np.array([q, q + 1, peak], dtype=np.int64)
    levels, codes = _integer_levels(distinct, peak, inverted=True)
    assert levels.tolist() == [0.0, 1.0 - q / peak]
    assert codes.tolist() == [1, 1, 0]
    levels, codes = _integer_levels(distinct, peak, inverted=False)
    assert levels.tolist() == [0.0, q / peak, (q + 1) / peak, 1.0]
    assert codes.tolist() == [1, 2, 3]


def test_pair_reads_and_the_pair_dump_build_no_float_square():
    # The float64 square levels[codes] takes 8 n^2 bytes.  Pair reads need
    # none of it, and the dump's text (about 13 n^2 characters here) is
    # joined from one chunk per row of pairs, so it peaks near twice its
    # size: the square would add over 0.6 times the text.
    n = 400
    d = energy_distance_vector(energy_matrix(random_binary(np.random.default_rng(5), n, 40)))
    iu = np.triu_indices(n, k=1)
    pairs = list(zip(iu[0].tolist(), iu[1].tolist(), d.values.tolist()))
    tracemalloc.start()
    try:
        assert all(pair_distance(d, i, j) == value for i, j, value in pairs)
        _, read_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        text = distances_to_csv(d)
        _, dump_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert read_peak < n * n, read_peak / (n * n)
    assert dump_peak < 2.3 * len(text), dump_peak / len(text)
    rows = list(csv.reader(io.StringIO(text)))
    assert [(int(i), int(j), float(value)) for i, j, value in rows[1:]] == pairs


def test_coded_distances_validation():
    codes = np.array([[0, 1], [1, 0]], dtype=np.uint16)
    levels = np.array([0.0, 0.5])
    cases = [
        (codes.astype(np.int16), levels, "uint8, uint16 or uint32"),
        (codes, levels.astype(np.float32), "float64"),
        (codes, np.array([0.1, 0.5]), "rise strictly from 0.0"),
        (codes, np.array([0.0, 0.5, 0.5]), "rise strictly"),
        (codes, np.array([0.0, 1.5]), "within"),
        (codes, np.array([0.0, np.nan]), "within"),
        (codes, np.linspace(0.0, 1.0, 2**16), "sentinel"),
        (codes.astype(np.uint8), np.linspace(0.0, 1.0, 2**8), "sentinel"),
        (codes * 2, levels, "index a level"),
        (np.ones((2, 2), dtype=np.uint16), levels, "itself"),
        (np.array([[0, 1], [0, 0]], dtype=np.uint16), levels, "symmetric"),
        (codes[:1], levels, "square"),
    ]
    for bad_codes, bad_levels, message in cases:
        with pytest.raises(ValueError, match=message):
            PairwiseDistances(bad_codes, bad_levels)
    for dtype in (np.uint8, np.uint32):
        assert PairwiseDistances(codes.astype(dtype), levels).values.tolist() == [0.5]


def separate_energy_checks(q):
    """The checks of an energy square as separate whole-square passes, in
    their order before they shared one sweep: the symmetry, sign and limit
    of ``EnergyMatrix``, then the whole numbers that the distances read;
    the peak."""
    if not np.array_equal(q, q.T):
        raise ValueError("energy matrix must be symmetric")
    if q.min() < 0:
        raise ValueError("energy magnitudes must be non-negative")
    peak = q.max()
    if peak >= EXACT_INT_LIMIT:
        raise DataError(
            f"second-order energy {peak} for n={q.shape[0]} documents "
            f"reaches the exact-integer limit 2^53 = {EXACT_INT_LIMIT}"
        )
    if q.dtype.kind == "f" and not (np.trunc(q) == q).all():
        raise ValueError("pair distances need whole numbers, got a fraction")
    return int(peak)


def separate_code_checks(codes, levels):
    """The checks of a code square as separate whole-square passes, in
    their order before they shared one sweep."""
    if int(codes.max()) >= levels.size:
        raise ValueError("every code must index a level")
    if codes.diagonal().any():
        raise ValueError("the distance of an item to itself must be 0")
    if not np.array_equal(codes, codes.T):
        raise ValueError("pair distances must be symmetric")


def outcome(call, *args):
    """What ``call(*args)`` returns, or the type and message it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def planted_cell(rng, n, off_diagonal):
    """A cell (i, j) with row i in a random band of ``_BLOCK_ROWS`` rows."""
    start = _BLOCK_ROWS * int(rng.integers(-(-n // _BLOCK_ROWS)))
    i = int(rng.integers(start, min(start + _BLOCK_ROWS, n)))
    j = (i + 1 + int(rng.integers(n - 1))) % n if off_diagonal else int(rng.integers(n))
    return i, j


FLOAT_FAULTS = {"fraction": 0.5, "nan": np.nan, "inf": np.inf, "-inf": -np.inf}


# n up to 80 makes three bands of 32 rows, the last one partial
@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 80),
    dtype=st.sampled_from([np.int64, np.float32, np.float64]),
    fault=st.sampled_from([None, "asymmetry", "negative", "limit", *FLOAT_FAULTS]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=80, dtype=np.float32, fault="fraction", seed=0)
@example(n=80, dtype=np.float64, fault="nan", seed=1)
@example(n=65, dtype=np.int64, fault="limit", seed=2)
@example(n=33, dtype=np.float32, fault=None, seed=3)
def test_one_energy_sweep_raises_what_the_separate_checks_raise(n, dtype, fault, seed):
    if fault == "asymmetry" and n == 1:
        fault = "negative"
    if fault in FLOAT_FAULTS and dtype is np.int64:
        dtype = np.float64
    rng = np.random.default_rng(seed)
    q = rng.integers(0, 1000, size=(n, n))
    q = (q + q.T).astype(dtype)
    i, j = planted_cell(rng, n, off_diagonal=fault == "asymmetry")
    if fault == "asymmetry":
        q[i, j] += 1
    elif fault == "negative":
        q[i, j] = q[j, i] = -1
    elif fault == "limit":
        q[i, j] = q[j, i] = EXACT_INT_LIMIT
    elif fault is not None:
        q[i, j] = q[j, i] = q[i, j] + FLOAT_FAULTS[fault]
    expected = outcome(separate_energy_checks, q)
    assert outcome(lambda square: EnergyMatrix(square).peak, q) == expected
    assert isinstance(expected, int) == (fault is None)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 80),
    n_levels=st.integers(2, 300),
    dtype=st.sampled_from([np.uint8, np.uint16, np.uint32]),
    fault=st.sampled_from([None, "asymmetry", "past the levels", "diagonal"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=80, n_levels=5, dtype=np.uint16, fault="asymmetry", seed=0)
@example(n=80, n_levels=5, dtype=np.uint32, fault="past the levels", seed=1)
@example(n=70, n_levels=2, dtype=np.uint16, fault="diagonal", seed=2)
@example(n=80, n_levels=253, dtype=np.uint8, fault="past the levels", seed=3)
def test_one_code_sweep_raises_what_the_separate_checks_raise(n, n_levels, dtype, fault, seed):
    if fault != "diagonal" and n == 1:
        fault = "diagonal"
    if dtype is np.uint8:
        # a code past the levels, up to n_levels + 2, must fit in one byte
        n_levels = min(n_levels, 253)
    rng = np.random.default_rng(seed)
    levels = np.linspace(0.0, 1.0, n_levels)
    codes = np.triu(rng.integers(0, n_levels, size=(n, n)), k=1).astype(dtype)
    codes += codes.T
    i, j = planted_cell(rng, n, off_diagonal=fault != "diagonal")
    if fault == "asymmetry":
        codes[i, j] = (codes[i, j] + 1) % n_levels
    elif fault == "past the levels":
        codes[i, j] = codes[j, i] = n_levels + rng.integers(3)
    elif fault == "diagonal":
        codes[i, i] = rng.integers(1, n_levels)

    def checks(codes, levels):
        PairwiseDistances(codes, levels)

    expected = outcome(separate_code_checks, codes, levels)
    assert outcome(checks, codes, levels) == expected
    assert (expected is None) == (fault is None)


def test_energy_checks_hold_one_band_of_temporaries_at_a_time():
    # a whole-square temporary, such as np.trunc(q) == q, takes 5 n^2
    # bytes; past _TILE_COLS columns a band is read one tile at a time,
    # so the bound stops growing with n
    for n in (1000, 2100):
        half = np.random.default_rng(0).integers(0, 2**20, size=(n, n))
        q = (half + half.T).astype(np.float32)
        del half
        energy, peak = traced_peak(EnergyMatrix, q)
        assert energy.peak == int(q.max())
        tile = _BLOCK_ROWS * min(n, _TILE_COLS)
        assert peak < 8 * tile, (n, peak / tile)


@pytest.mark.parametrize("n", [1, 31, 32, 33, 1024, 1025, 2100])
def test_upper_tiles_cover_the_upper_triangle_once(n):
    covered = np.zeros((n, n), dtype=np.int8)
    for rows, cols in _upper_tiles(n):
        assert 0 < rows.stop - rows.start <= _BLOCK_ROWS
        assert 0 < cols.stop - cols.start <= _TILE_COLS
        covered[rows, cols] += 1
    assert covered.max() == 1
    assert np.array_equal(np.triu(covered), np.triu(np.ones((n, n), dtype=np.int8)))
    # below the diagonal, only the diagonal blocks of the bands are read
    below_i, below_j = np.nonzero(np.tril(covered, k=-1))
    assert (below_i // _BLOCK_ROWS == below_j // _BLOCK_ROWS).all()


# a cell of the first band of rows whose column lies in the second tile
SECOND_TILE_CELL = (5, _TILE_COLS + 40)


@pytest.mark.parametrize("fault", ["above", "below", "value"])
def test_checks_read_the_second_column_tile(fault):
    n = 1100
    rng = np.random.default_rng(37)
    half = np.triu(rng.integers(0, 200, size=(n, n)), k=1)
    q = (half + half.T).astype(np.float32)
    codes = (half + half.T).astype(np.uint8)
    levels = np.linspace(0.0, 1.0, 200)
    del half
    i, j = SECOND_TILE_CELL if fault != "below" else SECOND_TILE_CELL[::-1]
    if fault == "value":
        q[i, j] = q[j, i] = -1
        codes[i, j] = codes[j, i] = levels.size
        energy_message, code_message = "non-negative", "index a level"
    else:
        q[i, j] += 1
        codes[i, j] += 1
        energy_message, code_message = "symmetric", "symmetric"
    with pytest.raises(ValueError, match=energy_message):
        EnergyMatrix(q)
    with pytest.raises(ValueError, match=code_message):
        PairwiseDistances(codes, levels)


def test_distance_mode_and_size_validation():
    e = energy_matrix(np.array([[1, 0], [1, 1]]))
    with pytest.raises(ValueError, match="mode"):
        energy_distance_vector(e, mode="cosine")
    single = energy_matrix(np.array([[1, 0]]))
    with pytest.raises(ValueError, match="two documents"):
        energy_distance_vector(single)


# ---------------------------------------------------------------- hamming

def test_hamming_worked_examples():
    d = hamming_distance_vector(np.array([[1, 0, 1, 0], [1, 1, 0, 0]]))
    assert d.values.tolist() == [0.5]
    d = hamming_distance_vector(np.array([[1, 0, 1], [1, 0, 1]]))
    assert d.values.tolist() == [0.0]
    d = hamming_distance_vector(np.array([[1, 0, 1], [0, 1, 0]]))
    assert d.values.tolist() == [1.0]


def test_hamming_zero_column_padding_halves_values():
    rng = np.random.default_rng(23)
    arr = random_binary(rng, 7, 9)
    base = hamming_distance_vector(arr)
    padded = hamming_distance_vector(np.hstack([arr, np.zeros_like(arr)]))
    # numerators unchanged, denominator doubled: exact halving
    assert np.array_equal(padded.values, base.values / 2.0)


def test_hamming_metric_axioms_small():
    rng = np.random.default_rng(29)
    arr = random_binary(rng, 6, 8)
    dist = hamming_distance_vector(arr)
    d = dist.levels[dist.codes]
    n = arr.shape[0]
    for i in range(n):
        assert d[i, i] == 0.0
        for j in range(n):
            assert d[i, j] == d[j, i]
            if i != j and (arr[i] != arr[j]).any():
                assert d[i, j] > 0.0
            for k in range(n):
                assert d[i, j] <= d[i, k] + d[k, j] + 1e-12


def test_hamming_peak_stays_near_one_square():
    # The counts are read a tile at a time, so the codes (1 byte a pair
    # here), the float copy of X and one band's temporaries are nearly all
    # the memory a call needs: 1.1 n^2 with few columns, where building the
    # distances through n x n float64 temporaries would take about four
    # float64 squares.  With p near n the float copy of X (3.6 n^2 bytes)
    # is most of the 5.1 n^2 read here; the u x u float32 product beside
    # the codes took 7.6 n^2, and 10.1 n^2 with the copy kept alive.
    cases = [
        (random_binary(np.random.default_rng(31), 600, 6), 2 * 8),
        (np.random.default_rng(3).random((1000, 900)) < 0.01, 8.5),
    ]
    for arr, bound in cases:
        n = len(arr)
        tracemalloc.start()
        try:
            hamming_distance_vector(arr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * n * n, (n, peak / (n * n))


def hamming_to_p(matrix):
    """``hamming_distance_vector(matrix)`` with the counts bounded by the
    vector length p alone, their divisor."""
    def bounded_by_p(source, u, top, divisor, *rest):
        return _coded_distances(source, u, divisor, divisor, *rest)

    with mock.patch("defclust.distance._coded_distances", bounded_by_p):
        return hamming_distance_vector(matrix)


@pytest.mark.parametrize("longest", ["short", "long"])
@pytest.mark.parametrize("shared", [False, True])
def test_hamming_counts_stop_at_twice_the_longest_row(longest, shared):
    # A count t_a + t_b - 2 H_ab is at most t_a + t_b <= 2 t_max: rows of
    # a few terms over 400 columns stop far below p, dense rows over 12
    # columns at p.  Either bound gives the codes of p alone.
    rng = np.random.default_rng(47)
    p, density = (400, 0.01) if longest == "short" else (12, 0.8)
    cells = rng.random((300, p)) < density
    if shared:
        cells = np.vstack([cells[:100]] * 3)
    t_max = int(cells.sum(axis=1).max())
    assert (2 * t_max < p) == (longest == "short")
    dist, expected = hamming_distance_vector(cells), hamming_to_p(cells)
    _, codes, levels = n_by_n_distances(cells, "hamming")
    assert dist.codes.dtype == expected.codes.dtype
    assert dist.codes.tobytes() == expected.codes.tobytes()
    assert np.array_equal(dist.codes, codes)
    assert dist.levels.tobytes() == expected.levels.tobytes() == levels.tobytes()


def test_hamming_square_of_counts_takes_one_byte_below_255():
    # The topics counts reach 2 t_max = 24 over p = 530 columns: their
    # square of integers takes one byte a pair, like their codes (3.6 n^2
    # read here), where a bound of p took two and a new square for the
    # codes (5.6 n^2).
    matrix = build_matrix(topics_documents(1000))
    n = matrix.n
    assert 2 * int(matrix.data.sum(axis=1).max()) < 255 <= matrix.p
    hamming_distance_vector(matrix)
    dist, peak = traced_peak(hamming_distance_vector, matrix)
    assert dist.codes.dtype == np.uint8
    assert dist.codes.tobytes() == hamming_to_p(matrix).codes.tobytes()
    assert peak < 4.2 * n * n, peak / (n * n)


def test_hamming_needs_pairs_and_columns():
    with pytest.raises(ValueError, match="dimension"):
        hamming_distance_vector(np.zeros((3, 0), dtype=int))
    with pytest.raises(ValueError, match="two documents"):
        hamming_distance_vector(np.array([[1, 0]]))


# ---------------------------------------------------------------- plumbing

def test_pair_distance_layout():
    d = coded_square(squareform([0.1, 0.2, 0.3]))
    assert pair_distance(d, 0, 1) == 0.1
    assert pair_distance(d, 0, 2) == 0.2
    assert pair_distance(d, 1, 2) == 0.3
    assert pair_distance(d, 2, 1) == pair_distance(d, 1, 2)


def test_pair_distance_agrees_with_square_form():
    rng = np.random.default_rng(31)
    n = 9
    values = rng.uniform(0, 1, n * (n - 1) // 2)
    d = coded_square(squareform(values))
    assert np.array_equal(d.values, values)
    square = d.levels[d.codes]
    assert np.array_equal(square, square.T)
    assert (np.diag(square) == 0).all()
    for i in range(n):
        for j in range(n):
            if i != j:
                assert pair_distance(d, i, j) == square[i, j]


def test_pair_distance_rejects_bad_indices():
    d = coded_square(squareform([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        pair_distance(d, 1, 1)
    with pytest.raises(IndexError):
        pair_distance(d, 0, 3)


def test_pairwise_distances_validation():
    cases = [
        (np.zeros((2, 3)), None, "square"),
        (np.zeros(3), None, "square"),
        ([[0.0, 0.2], [0.3, 0.0]], None, "symmetric"),
        ([[0.1, 0.2], [0.2, 0.0]], None, "itself"),
        ([[0.0, np.nan], [np.nan, 0.0]], None, "0, 1"),
        ([[np.nan, 0.2], [0.2, 0.0]], None, "0, 1"),
        ([[0.0, 1.5], [1.5, 0.0]], None, "0, 1"),
        ([[0.0, -0.5], [-0.5, 0.0]], None, "0, 1"),
        (np.zeros((2, 2)), ("a",), "ids"),
    ]
    for square, ids, message in cases:
        with pytest.raises(ValueError, match=message):
            coded_square(square, ids=ids)
    codes = np.array([[0, 1], [1, 0]], dtype=np.uint16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # complex codes are not cast to their real parts, nor objects or
        # strings to integers
        for square in (
            np.array([[0, 1 + 1j], [1 + 1j, 0]]),
            np.array([[0, 1], [1, 0]], dtype=object),
            np.array([["0", "1"], ["1", "0"]]),
        ):
            with pytest.raises(ValueError, match="uint8, uint16 or uint32"):
                PairwiseDistances(square, np.array([0.0, 0.5]))
        for levels in ([0.0, 0.5], (0.0, 0.5)):
            with pytest.raises(ValueError, match="one-dimensional float64 array"):
                PairwiseDistances(codes, levels)


def test_integer_and_list_squares_are_stored_as_float64():
    rows = [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
    for square in (rows, np.array(rows)):
        d = coded_square(square)
        assert d.levels[d.codes].dtype == np.float64
        assert d.values.tolist() == [1.0, 1.0, 0.0]
        assert merge_tuples(d) == [(1, 2, 0.0, 3), (0, 3, 1.0, 4)]


def test_csv_dumps_round_trip():
    arr = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    e = energy_matrix(arr)
    d = energy_distance_vector(e)

    text = energy_matrix_to_csv(EnergyMatrix(e.gram_sq, ids=("a", "b", "c")))
    assert text.startswith(",a,b,c\na,") and "\r" not in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["", "a", "b", "c"]
    assert float(rows[1][2]) == e.values[0, 1]

    text = distances_to_csv(PairwiseDistances(d.codes, d.levels, ids=("a", "b", "c")))
    assert text.startswith("id_i,id_j,distance\na,b,") and "\r" not in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["id_i", "id_j", "distance"]
    assert [r[:2] for r in rows[1:]] == [["a", "b"], ["a", "c"], ["b", "c"]]
    assert [float(r[2]) for r in rows[1:]] == d.values.tolist()
