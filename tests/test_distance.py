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
import random
import tracemalloc
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
    DISTANCE_MODES,
    EXACT_INT_LIMIT,
    _exact_float,
    _integer_levels,
    distances_to_csv,
    energy_matrix_to_csv,
)
from defclust.errors import DataError


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


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 300),
    p=st.integers(1, 300),
    density=st.sampled_from([0.005, 0.02, 0.1, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
# float64 in both orders (256 * 256^2 = 2^24; 400 * 250^2 with 2 p^2 < n^2)
@example(n=256, p=256, density=1.0, seed=0)
@example(n=400, p=250, density=1.0, seed=4)
# float32 in both orders (255 * 256^2 < 2^24; 300 * 120^2)
@example(n=255, p=256, density=1.0, seed=5)
@example(n=300, p=120, density=1.0, seed=2)
@example(n=300, p=300, density=1.0, seed=0)
@example(n=300, p=300, density=0.02, seed=1)
@example(n=120, p=300, density=1.0, seed=3)
# G G over rows that are all distinct (rows of None), in float32 and in
# float64 (300 * t_max^2 >= 2^24 at density 0.9)
@example(n=300, p=300, density=0.5, seed=0)
@example(n=300, p=300, density=0.9, seed=0)
def test_blas_products_equal_int64_oracle(n, p, density, seed):
    arr = (np.random.default_rng(seed).random((n, p)) < density).astype(np.uint8)
    expected = int64_energy(arr)
    # Zero rows and zero columns leave the energies of the other rows as
    # they are, and so do rows over columns of their own.  With u distinct
    # rows and 2 p^2 < u n the product is U (U^T W U) U^T, else H = U U^T
    # and then M M^T with M = H[:, rows] (X (X^T X) X^T and G G when
    # u = n), so the padded matrices take one order each: below arr, 2p
    # zero rows share one row and 2p + 20 rows are the distinct binary
    # numbers 1..2p+20 over 10 new columns.  The padding raises
    # n * t_max^2, so it may also move the product to float64.
    m = 2 * p + 20
    numbers = ((np.arange(1, m + 1)[:, None] >> np.arange(10)) & 1).astype(np.uint8)
    more_rows = np.block(
        [
            [arr, np.zeros((n, 10), dtype=np.uint8)],
            [np.zeros((2 * p, p + 10), dtype=np.uint8)],
            [np.zeros((m, p), dtype=np.uint8), numbers],
        ]
    )
    more_cols = np.hstack([arr, np.zeros((n, n), dtype=np.uint8)])
    for cells, first_order in ((more_rows, True), (more_cols, False)):
        u = len(np.unique(cells, axis=0))
        assert (2 * cells.shape[1] ** 2 < u * len(cells)) == first_order
    for cells in (arr, more_rows, more_cols):
        energy, taken = float_types_taken(energy_matrix, cells)
        assert taken == [energy_float_type(cells)]
        assert energy.gram_sq.dtype == taken[0]
        assert np.array_equal(2 * energy.values[:n, :n], expected)

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
    # The float32 product (4 n^2 bytes) and the 2-byte codes are nearly all
    # the memory; an int64 copy of the product takes the peak to 12 n^2.
    # In the G G order (2 p^2 >= n^2) G and G G coexist for a moment, and
    # the float32 copy of X, 4 n p bytes, is freed before.
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
        assert merge_tuples(dist) == merge_tuples(PairwiseDistances.from_square(square))


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
    assert table.codes.dtype == triangle.codes.dtype == np.uint16
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
    # 600 documents over 60 distinct rows: the 2-byte n x n codes, a few
    # u x u squares, a few hundred bytes per document (the temporaries of
    # one band of rows, and of the checks on the codes) and a few words
    # per distance level, where the float32 n x n square alone would take
    # 4 n^2 bytes and a second code square 2 n^2.  p = 20 takes the
    # U (U^T W U) U^T order, p = 200 the H then M M^T one.
    rng = np.random.default_rng(p)
    pool = (rng.random((60, p)) < 0.1).astype(np.uint8)
    pool[:, :6] = (np.arange(60)[:, None] >> np.arange(6)) & 1
    cells = pool[rng.integers(0, 60, size=600)]
    n, u = 600, len(np.unique(cells, axis=0))
    assert u == 60
    for call in (energy_distances, hamming_distance_vector):
        dist, peak = traced_peak(call, cells)
        bound = 2 * n * n + 6 * u * u + 256 * n + 64 * dist.levels.size
        assert peak < bound, (call.__name__, peak / bound)


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
        (codes.astype(np.int16), levels, "uint16 or uint32"),
        (codes, levels.astype(np.float32), "float64"),
        (codes, np.array([0.1, 0.5]), "rise strictly from 0.0"),
        (codes, np.array([0.0, 0.5, 0.5]), "rise strictly"),
        (codes, np.array([0.0, 1.5]), "within"),
        (codes, np.array([0.0, np.nan]), "within"),
        (codes, np.linspace(0.0, 1.0, 2**16), "sentinel"),
        (codes * 2, levels, "index a level"),
        (np.ones((2, 2), dtype=np.uint16), levels, "itself"),
        (np.array([[0, 1], [0, 0]], dtype=np.uint16), levels, "symmetric"),
        (codes[:1], levels, "square"),
    ]
    for bad_codes, bad_levels, message in cases:
        with pytest.raises(ValueError, match=message):
            PairwiseDistances(bad_codes, bad_levels)
    assert PairwiseDistances(codes.astype(np.uint32), levels).values.tolist() == [0.5]


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
    dtype=st.sampled_from([np.uint16, np.uint32]),
    fault=st.sampled_from([None, "asymmetry", "past the levels", "diagonal"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=80, n_levels=5, dtype=np.uint16, fault="asymmetry", seed=0)
@example(n=80, n_levels=5, dtype=np.uint32, fault="past the levels", seed=1)
@example(n=70, n_levels=2, dtype=np.uint16, fault="diagonal", seed=2)
def test_one_code_sweep_raises_what_the_separate_checks_raise(n, n_levels, dtype, fault, seed):
    if fault != "diagonal" and n == 1:
        fault = "diagonal"
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
    # a whole-square temporary, such as np.trunc(q) == q, takes 5 n^2 bytes
    n = 1000
    half = np.random.default_rng(0).integers(0, 2**20, size=(n, n))
    q = (half + half.T).astype(np.float32)
    del half
    energy, peak = traced_peak(EnergyMatrix, q)
    assert energy.peak == int(q.max())
    assert peak < 8 * _BLOCK_ROWS * n, peak / (_BLOCK_ROWS * n)


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
    # with few columns the n x n float32 product and the 2-byte codes are
    # nearly all the memory a call needs; building the distances through
    # n x n float64 temporaries would take about four float64 squares.
    # With p near n the float copy of X (3.6 n^2 bytes here) must be freed
    # once the product exists: kept alive, the peak reads about 10.1 n^2.
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


def test_hamming_needs_pairs_and_columns():
    with pytest.raises(ValueError, match="dimension"):
        hamming_distance_vector(np.zeros((3, 0), dtype=int))
    with pytest.raises(ValueError, match="two documents"):
        hamming_distance_vector(np.array([[1, 0]]))


# ---------------------------------------------------------------- plumbing

def test_pair_distance_layout():
    d = PairwiseDistances.from_square(squareform([0.1, 0.2, 0.3]))
    assert pair_distance(d, 0, 1) == 0.1
    assert pair_distance(d, 0, 2) == 0.2
    assert pair_distance(d, 1, 2) == 0.3
    assert pair_distance(d, 2, 1) == pair_distance(d, 1, 2)


def test_pair_distance_agrees_with_square_form():
    rng = np.random.default_rng(31)
    n = 9
    values = rng.uniform(0, 1, n * (n - 1) // 2)
    d = PairwiseDistances.from_square(squareform(values))
    assert np.array_equal(d.values, values)
    square = d.levels[d.codes]
    assert np.array_equal(square, square.T)
    assert (np.diag(square) == 0).all()
    for i in range(n):
        for j in range(n):
            if i != j:
                assert pair_distance(d, i, j) == square[i, j]


def test_pair_distance_rejects_bad_indices():
    d = PairwiseDistances.from_square(squareform([0.1, 0.2, 0.3]))
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
            PairwiseDistances.from_square(square, ids=ids)


def test_integer_and_list_squares_are_stored_as_float64():
    rows = [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
    for square in (rows, np.array(rows)):
        d = PairwiseDistances.from_square(square)
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

    text = distances_to_csv(PairwiseDistances.from_square(d.levels[d.codes], ids=("a", "b", "c")))
    assert text.startswith("id_i,id_j,distance\na,b,") and "\r" not in text
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["id_i", "id_j", "distance"]
    assert [r[:2] for r in rows[1:]] == [["a", "b"], ["a", "c"], ["b", "c"]]
    assert [float(r[2]) for r in rows[1:]] == d.values.tolist()
