"""Complete-linkage clustering against two reference implementations.

``naive_stop_early`` re-derives everything from the raw pair distances:
group distances are recomputed as maxima over original pairs each round
(no distance-update shortcut), and the loop stops outright at the first
minimal distance above the threshold.  The library instead builds the
dendrogram once and cuts it, so agreement here is the point of the test.

``argmin_dendrogram`` is the plain O(n^3) loop, one row-major argmin over
the whole active square per merge.  It is fast enough for squares of a
few hundred items and is the reference for the library's cached
nearest-neighbour loop, whose merge list must be identical, ties included.

``float_dendrogram`` is that cached nearest-neighbour loop on the float64
square, retired slots set to inf.  The library runs it on rank codes,
which must give the same merges and heights in ``uint8``, ``uint16`` and
``uint32``.
"""

import csv
import io
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.cluster.hierarchy import linkage

from defclust import (
    Clustering,
    Dendrogram,
    Document,
    Merge,
    PairwiseDistances,
    build_dendrogram,
    build_matrix,
    clustering_from_json_dict,
    clustering_to_json,
    cut_at_threshold,
    energy_distance_vector,
    energy_matrix,
)
from defclust import hac
from defclust.distance import _TILE_COLS, _code_dtype
from defclust.hac import check_alpha, dendrogram_to_csv

from conftest import coded_square


def naive_stop_early(square, alpha, min_size):
    """Agglomerate from scratch; stop at the first minimal linkage > alpha.

    Returns the groups, the ungrouped items and the merges made, each as
    ``(left, right, distance, new_id)`` under the Dendrogram's numbering.
    """
    n = len(square)
    clusters = [[i] for i in range(n)]
    ids = list(range(n))
    merges = []
    while len(clusters) > 1:
        best = None
        pick = None
        for ia in range(len(clusters)):
            for ib in range(ia + 1, len(clusters)):
                link = max(
                    square[i][j] for i in clusters[ia] for j in clusters[ib]
                )
                lo, hi = sorted((min(clusters[ia]), min(clusters[ib])))
                key = (link, lo, hi)
                if best is None or key < best:
                    best = key
                    pick = (ia, ib)
        if best[0] > alpha:
            break
        ia, ib = pick
        if min(clusters[ia]) > min(clusters[ib]):
            ia, ib = ib, ia
        new_id = n + len(merges)
        merges.append((ids[ia], ids[ib], best[0], new_id))
        merged = clusters[ia] + clusters[ib]
        keep = [k for k in range(len(clusters)) if k not in (ia, ib)]
        clusters = [clusters[k] for k in keep] + [merged]
        ids = [ids[k] for k in keep] + [new_id]
    groups = sorted(tuple(sorted(c)) for c in clusters if len(c) >= min_size)
    ungrouped = tuple(sorted(i for c in clusters if len(c) < min_size for i in c))
    return tuple(groups), ungrouped, merges


def argmin_dendrogram(square):
    """Merges as ``(left, right, distance, new_id)``, one full argmin each.

    Each merge takes the first minimum of the active square in row-major
    order, then max-updates the kept row and column and retires the other
    slot to inf.
    """
    d = np.array(square, dtype=np.float64)
    n = len(d)
    np.fill_diagonal(d, np.inf)
    cluster_id = list(range(n))
    merges = []
    for new_id in range(n, 2 * n - 1):
        a, b = divmod(int(d.argmin()), n)
        merges.append((cluster_id[a], cluster_id[b], float(d[a, b]), new_id))
        merged_row = np.maximum(d[a], d[b])
        d[a, :] = merged_row
        d[:, a] = merged_row
        d[b, :] = np.inf
        d[:, b] = np.inf
        cluster_id[a] = new_id
    return merges


def float_dendrogram(square):
    """Merges of the cached nearest-neighbour loop on the float64 square."""
    d = np.array(square, dtype=np.float64)
    n = len(d)
    np.fill_diagonal(d, np.inf)
    rows = np.arange(n)
    first = d.argmin(axis=1)
    nnd = d[rows, first]
    nnd[n - 1] = np.inf
    nn = np.maximum(first, rows).tolist()
    cluster_id = list(range(n))
    merges = []
    for new_id in range(n, 2 * n - 1):
        a = int(nnd.argmin())
        while d.item(a, nn[a]) != nnd.item(a):
            right = d[a, a + 1 :]
            j = int(right.argmin())
            nn[a] = a + 1 + j
            nnd[a] = right[j]
            a = int(nnd.argmin())
        b = nn[a]
        merged_row = d[a]
        np.maximum(merged_row, d[b], out=merged_row)
        d[:, a] = merged_row
        d[b, :] = np.inf
        d[:, b] = np.inf
        merges.append((cluster_id[a], cluster_id[b], nnd.item(a), new_id))
        nnd[b] = np.inf
        cluster_id[a] = new_id
    return merges


def widened(dist, dtype):
    """The same distances with their codes widened to ``dtype``."""
    return PairwiseDistances(dist.codes.astype(dtype), dist.levels, ids=dist.ids)


def merge_tuples(tree):
    return [(m.left, m.right, m.distance, m.new_id) for m in tree.merges]


def symmetric(n, upper):
    """Square with the given ``{(i, j): distance}`` above the diagonal, else 1."""
    square = np.ones((n, n))
    np.fill_diagonal(square, 0.0)
    for (i, j), value in upper.items():
        square[i, j] = square[j, i] = value
    return square


def random_square(rng, n, discrete=False):
    if discrete:
        # multiples of 0.1 force plenty of exact ties
        tri = rng.integers(0, 11, size=n * (n - 1) // 2) / 10.0
    else:
        tri = rng.uniform(0, 1, size=n * (n - 1) // 2)
    square = np.zeros((n, n))
    square[np.triu_indices(n, k=1)] = tri
    square += square.T
    return square


# ---------------------------------------------------------------- dendrogram

def test_two_pairs_merge_before_crossing():
    square = [
        [0.0, 0.1, 0.6, 0.7],
        [0.1, 0.0, 0.8, 0.9],
        [0.6, 0.8, 0.0, 0.2],
        [0.7, 0.9, 0.2, 0.0],
    ]
    tree = build_dendrogram(coded_square(square))
    assert [(m.left, m.right, m.distance) for m in tree.merges] == [
        (0, 1, 0.1),
        (2, 3, 0.2),
        (4, 5, 0.9),
    ]
    assert [m.new_id for m in tree.merges] == [4, 5, 6]


def test_n2_is_a_single_forced_merge():
    tree = build_dendrogram(coded_square([[0, 0.3], [0.3, 0]]))
    assert tree.merges == (Merge(left=0, right=1, distance=0.3, new_id=2),)


def test_all_equal_distances_follow_tie_break():
    square = np.full((4, 4), 0.5)
    np.fill_diagonal(square, 0.0)
    tree = build_dendrogram(coded_square(square))
    # lowest representatives first: (0,1), then ({0,1},2), then (...,3)
    assert [(m.left, m.right) for m in tree.merges] == [(0, 1), (4, 2), (5, 3)]
    assert all(m.distance == 0.5 for m in tree.merges)


def test_merge_distances_non_decreasing():
    rng = np.random.default_rng(41)
    for trial in range(30):
        square = random_square(rng, int(rng.integers(2, 12)), discrete=trial % 2 == 0)
        tree = build_dendrogram(coded_square(square))
        dists = [m.distance for m in tree.merges]
        assert dists == sorted(dists)


def test_determinism_with_heavy_ties():
    rng = np.random.default_rng(43)
    for _ in range(10):
        square = random_square(rng, 9, discrete=True)
        d = coded_square(square)
        assert build_dendrogram(d) == build_dendrogram(d)


@st.composite
def tie_heavy_squares(draw):
    """Symmetric squares of k/q distances: few levels, so many exact ties."""
    n = draw(st.integers(2, 25))
    q = draw(st.integers(1, 4))
    tri = draw(
        st.lists(st.integers(0, q), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
    )
    square = np.zeros((n, n))
    square[np.triu_indices(n, k=1)] = np.array(tri) / q
    return square + square.T


@settings(max_examples=150, deadline=None)
@given(tie_heavy_squares())
def test_merge_list_matches_naive_reference_under_ties(square):
    tree = build_dendrogram(coded_square(square))
    _, _, merges = naive_stop_early(square.tolist(), np.inf, 1)
    assert merge_tuples(tree) == merges
    assert argmin_dendrogram(square) == merges


@st.composite
def larger_tie_heavy_squares(draw):
    """k/q squares up to n=60, often with items copied from a few prototypes.

    Copies sit at distance 0 from each other and at equal distances from
    everything else, as duplicate documents do, so merged rows often tie
    the neighbours they had before the merge.
    """
    n = draw(st.integers(2, 60))
    q = draw(st.integers(1, 4))
    prototypes = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = np.zeros((prototypes, prototypes))
    base[np.triu_indices(prototypes, k=1)] = (
        rng.integers(0, q + 1, size=prototypes * (prototypes - 1) // 2) / q
    )
    base += base.T
    of = rng.integers(0, prototypes, size=n) if prototypes < n else np.arange(n)
    return base[np.ix_(of, of)]


@settings(max_examples=200, deadline=None)
@given(larger_tie_heavy_squares())
def test_merge_list_matches_argmin_oracle_under_ties(square):
    tree = build_dendrogram(coded_square(square))
    assert merge_tuples(tree) == argmin_dendrogram(square)


@settings(max_examples=200, deadline=None)
@given(larger_tie_heavy_squares())
def test_coded_loop_matches_float_loop_under_ties(square):
    dist = coded_square(square)
    assert dist.codes.dtype == _code_dtype(dist.levels.size)
    merges = float_dendrogram(square)
    assert merge_tuples(build_dendrogram(dist)) == merges
    assert merge_tuples(build_dendrogram(widened(dist, np.uint16))) == merges
    assert merge_tuples(build_dendrogram(widened(dist, np.uint32))) == merges


def test_coded_loop_matches_float_loop_with_uint32_codes():
    # more than 2^16 - 1 distinct distances leave no uint16 sentinel
    rng = np.random.default_rng(29)
    square = random_square(rng, 400)
    dist = coded_square(square)
    assert dist.codes.dtype == np.uint32
    assert dist.levels.size == 400 * 399 // 2 + 1
    assert merge_tuples(build_dendrogram(dist)) == float_dendrogram(square)


@pytest.mark.parametrize("n_levels, dtype", [(255, np.uint8), (256, np.uint16)])
def test_one_byte_codes_up_to_255_levels(n_levels, dtype):
    # 255 levels take codes 0..254 and leave 255 as the retired sentinel;
    # one more level needs a second byte
    assert _code_dtype(n_levels) is dtype
    assert _code_dtype(2**16 - 1) is np.uint16 and _code_dtype(2**16) is np.uint32
    rng = np.random.default_rng(n_levels)
    n = 40
    tri = np.arange(1, n * (n - 1) // 2 + 1) % (n_levels - 1) + 1
    square = np.zeros((n, n))
    square[np.triu_indices(n, k=1)] = rng.permutation(tri) / (n_levels - 1)
    square += square.T
    dist = coded_square(square)
    assert dist.levels.size == n_levels and dist.codes.dtype == dtype
    assert int(dist.codes.max()) == n_levels - 1 < np.iinfo(dtype).max
    before = dist.codes.tobytes()
    merges = merge_tuples(build_dendrogram(dist))
    assert merges == float_dendrogram(square) == argmin_dendrogram(square)
    # the last merge of complete linkage is at the largest pair distance
    assert merges[-1][2] == dist.levels[n_levels - 1] == 1.0
    assert dist.codes.tobytes() == before


ALL_EQUAL = np.full((9, 9), 0.5) - 0.5 * np.eye(9)
ZERO_ONE = symmetric(
    12, {(i, j): float((i * 7 + j * 3) % 4 == 0) for i in range(12) for j in range(i + 1, 12)}
)
# Row 0 caches column 2 at 0.3; merging 2 and 3 gives d[0, 2] = max(0.3,
# 0.3), the same value, so the cache stays exact.  Row 1 caches column 3,
# which the merge retires, so row 1 must be rescanned.
TIED_OLD_NEIGHBOUR = symmetric(
    6,
    {(0, 1): 0.7, (0, 2): 0.3, (0, 3): 0.3, (0, 4): 0.3, (1, 2): 0.6, (1, 3): 0.4,
     (2, 3): 0.1, (2, 4): 0.5, (3, 4): 0.5, (4, 5): 0.2},
)
# Row 0 caches column 1 at 0.2; merging 1 and 2 raises d[0, 1] to 0.9
# without retiring column 1, and the rescan must find column 3 at 0.25.
RAISED_NEIGHBOUR = symmetric(
    5,
    {(0, 1): 0.2, (0, 2): 0.9, (0, 3): 0.25, (0, 4): 0.7, (1, 2): 0.1,
     (1, 3): 0.6, (1, 4): 0.6, (2, 3): 0.6, (2, 4): 0.6, (3, 4): 0.5},
)


@pytest.mark.parametrize(
    "square, expected",
    [
        (ALL_EQUAL, [(0, 1, 0.5, 9)] + [(k + 7, k, 0.5, k + 8) for k in range(2, 9)]),
        (ZERO_ONE, None),
        (TIED_OLD_NEIGHBOUR, [(2, 3, 0.1, 6), (4, 5, 0.2, 7), (0, 6, 0.3, 8),
                              (8, 1, 0.7, 9), (9, 7, 1.0, 10)]),
        (RAISED_NEIGHBOUR, [(1, 2, 0.1, 5), (0, 3, 0.25, 6), (5, 4, 0.6, 7),
                            (6, 7, 0.9, 8)]),
        (symmetric(2, {(0, 1): 0.0}), [(0, 1, 0.0, 2)]),
        (symmetric(3, {(0, 2): 0.4, (1, 2): 0.4}), [(0, 2, 0.4, 3), (3, 1, 1.0, 4)]),
    ],
    ids=["all-equal", "zero-one", "tied-old-neighbour", "raised-neighbour", "n2", "n3"],
)
def test_named_squares_match_argmin_oracle(square, expected):
    merges = merge_tuples(build_dendrogram(coded_square(square)))
    assert merges == argmin_dendrogram(square)
    if expected is not None:
        assert merges == expected


def test_topics_corpus_merge_list_matches_argmin_oracle():
    rng = random.Random(2030)
    topics = [[f"w{t:02d}{k:02d}" for k in range(25)] for t in range(20)]
    shared = [f"g{k:02d}" for k in range(30)]
    docs = [
        Document(
            id=f"doc{j:04d}",
            text=" ".join(rng.sample(topics[j % 20], rng.randint(5, 9)) + rng.sample(shared, 3)),
        )
        for j in range(400)
    ]
    dist = energy_distance_vector(energy_matrix(build_matrix(docs)))
    assert merge_tuples(build_dendrogram(dist)) == argmin_dendrogram(dist.levels[dist.codes])


def test_topics_corpus_merge_list_matches_float_loop_at_n1000():
    rng = random.Random(2031)
    topics = [[f"w{t:02d}{k:02d}" for k in range(25)] for t in range(40)]
    shared = [f"g{k:02d}" for k in range(30)]
    docs = [
        Document(
            id=f"doc{j:04d}",
            text=" ".join(rng.sample(topics[j % 40], rng.randint(5, 9)) + rng.sample(shared, 3)),
        )
        for j in range(1000)
    ]
    dist = energy_distance_vector(energy_matrix(build_matrix(docs)))
    assert merge_tuples(build_dendrogram(dist)) == float_dendrogram(dist.levels[dist.codes])


def test_build_dendrogram_leaves_the_input_square_untouched():
    dist = coded_square(random_square(np.random.default_rng(71), 30, discrete=True))
    before = dist.codes.tobytes()
    build_dendrogram(dist)
    assert dist.codes.tobytes() == before
    assert not dist.levels[dist.codes].diagonal().any()


@st.composite
def coded_tie_heavy_squares(draw):
    """Coded k/q squares in uint8, uint16 or uint32, of up to 40 rows or
    of 129 to 300: the restore of the codes walks one to ten bands of 32
    rows, each from a diagonal tile that overlaps its own transpose.
    Squares wider than one tile have their own test below."""
    n = draw(st.one_of(st.integers(2, 40), st.integers(129, 300)))
    q = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    square = np.zeros((n, n))
    square[np.triu_indices(n, k=1)] = rng.integers(0, q + 1, size=n * (n - 1) // 2) / q
    dist = coded_square(square + square.T)
    return widened(dist, draw(st.sampled_from([np.uint8, np.uint16, np.uint32])))


@settings(max_examples=60, deadline=None)
@given(coded_tie_heavy_squares())
def test_build_dendrogram_restores_the_codes_it_works_in(dist):
    before = dist.codes.tobytes()
    merges = merge_tuples(build_dendrogram(dist))
    assert dist.codes.tobytes() == before
    assert merges == float_dendrogram(dist.levels[dist.codes])


@pytest.mark.parametrize("fail_at", [None, 0, 600])
def test_build_dendrogram_restores_codes_wider_than_a_tile(monkeypatch, fail_at):
    # past _TILE_COLS columns the restore reads each band in two tiles
    square = random_square(np.random.default_rng(89), _TILE_COLS + 76, discrete=True)
    dist = coded_square(square)
    assert dist.codes.dtype == np.uint8
    before = dist.codes.tobytes()
    if fail_at is None:
        assert merge_tuples(build_dendrogram(dist)) == float_dendrogram(square)
    else:
        raise_at_merge(monkeypatch, fail_at)
        with pytest.raises(RuntimeError, match="merge failed"):
            build_dendrogram(dist)
    assert dist.codes.tobytes() == before


def raise_at_merge(monkeypatch, fail_at):
    """Make ``build_dendrogram`` raise when it makes merge ``fail_at``."""
    made = []

    def failing_merge(**fields):
        if len(made) == fail_at:
            raise RuntimeError("merge failed")
        made.append(fields)
        return Merge(**fields)

    monkeypatch.setattr(hac, "Merge", failing_merge)


@pytest.mark.parametrize("fail_at", [0, 7, 198])
def test_build_dendrogram_restores_the_codes_when_a_merge_raises(monkeypatch, fail_at):
    dist = coded_square(random_square(np.random.default_rng(73), 200, discrete=True))
    before = dist.codes.tobytes()
    raise_at_merge(monkeypatch, fail_at)
    with pytest.raises(RuntimeError, match="merge failed"):
        build_dendrogram(dist)
    assert dist.codes.tobytes() == before


def test_build_dendrogram_makes_no_copy_of_the_codes():
    # a working copy of the codes would trace n^2 bytes in uint8 and 2 n^2
    # in uint16, either way over the bound; the loop keeps a few words per
    # item and per merge
    n = 1000
    dist = coded_square(random_square(np.random.default_rng(79), n, discrete=True))
    assert dist.codes.dtype == _code_dtype(dist.levels.size) == np.uint8
    for dtype in (np.uint8, np.uint16):
        dist = widened(dist, dtype)
        assert dist.codes.nbytes == n * n * np.dtype(dtype).itemsize
        tracemalloc.start()
        try:
            build_dendrogram(dist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n // 2, (dtype, peak)


@pytest.mark.parametrize("layout", ["read-only", "fortran"])
def test_codes_the_loop_cannot_write_in_are_copied(layout):
    dist = coded_square(random_square(np.random.default_rng(83), 40, discrete=True))
    if layout == "fortran":
        codes = np.asfortranarray(dist.codes)
    else:
        codes = dist.codes.copy()
        codes.flags.writeable = False
    held = PairwiseDistances(codes, dist.levels)
    assert held.codes.flags.c_contiguous and held.codes.flags.writeable
    assert merge_tuples(build_dendrogram(held)) == merge_tuples(build_dendrogram(dist))
    assert np.array_equal(codes, dist.codes)


def test_merge_heights_match_scipy_without_ties():
    rng = np.random.default_rng(67)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        d = coded_square(random_square(rng, n))
        assert len(set(d.values.tolist())) == d.values.size
        heights = [m.distance for m in build_dendrogram(d).merges]
        assert heights == linkage(d.values, "complete")[:, 2].tolist()


def test_dendrogram_needs_two_items():
    with pytest.raises(ValueError, match="two items"):
        build_dendrogram(coded_square(np.zeros((1, 1))))


def test_dendrogram_validates_merge_count_and_order():
    with pytest.raises(ValueError, match="merges"):
        Dendrogram(n=3, merges=(Merge(0, 1, 0.1, 3),))
    with pytest.raises(ValueError, match="non-decreasing"):
        Dendrogram(
            n=3,
            merges=(Merge(0, 1, 0.5, 3), Merge(3, 2, 0.4, 4)),
        )


# ---------------------------------------------------------------- cutting

def test_cut_worked_example():
    square = [
        [0.0, 0.1, 0.6, 0.7],
        [0.1, 0.0, 0.8, 0.9],
        [0.6, 0.8, 0.0, 0.2],
        [0.7, 0.9, 0.2, 0.0],
    ]
    tree = build_dendrogram(coded_square(square))
    cut = cut_at_threshold(tree, 0.5)
    assert cut.groups == ((0, 1), (2, 3))
    assert cut.ungrouped == ()


def test_cut_at_one_is_the_absolute_group():
    rng = np.random.default_rng(47)
    square = random_square(rng, 8)
    tree = build_dendrogram(coded_square(square))
    cut = cut_at_threshold(tree, 1.0)
    assert cut.groups == (tuple(range(8)),)


def test_cut_at_zero_groups_nothing_when_distances_positive():
    square = [[0.0, 0.3, 0.4], [0.3, 0.0, 0.5], [0.4, 0.5, 0.0]]
    tree = build_dendrogram(coded_square(square))
    cut = cut_at_threshold(tree, 0.0)
    assert cut.groups == ()
    assert cut.ungrouped == (0, 1, 2)


def test_cut_threshold_is_inclusive():
    tree = build_dendrogram(coded_square([[0, 0.3], [0.3, 0]]))
    assert cut_at_threshold(tree, 0.3).groups == ((0, 1),)


def test_cut_min_size_filter():
    square = [
        [0.0, 0.1, 0.9, 0.9, 0.9],
        [0.1, 0.0, 0.9, 0.9, 0.9],
        [0.9, 0.9, 0.0, 0.2, 0.3],
        [0.9, 0.9, 0.2, 0.0, 0.3],
        [0.9, 0.9, 0.3, 0.3, 0.0],
    ]
    tree = build_dendrogram(coded_square(square))
    cut = cut_at_threshold(tree, 0.5, min_size=3)
    assert cut.groups == ((2, 3, 4),)
    assert cut.ungrouped == (0, 1)


def test_cut_validates_inputs():
    tree = build_dendrogram(coded_square([[0, 0.3], [0.3, 0]]))
    with pytest.raises(ValueError, match="alpha"):
        cut_at_threshold(tree, 1.5)
    with pytest.raises(ValueError, match="min_size"):
        cut_at_threshold(tree, 0.5, min_size=0)


def test_cut_matches_naive_stop_early():
    rng = np.random.default_rng(53)
    alphas = [k / 20 for k in range(21)]
    for trial in range(12):
        n = int(rng.integers(2, 8))
        square = random_square(rng, n, discrete=trial % 2 == 0)
        tree = build_dendrogram(coded_square(square))
        for alpha in alphas:
            for min_size in (1, 2):
                cut = cut_at_threshold(tree, alpha, min_size=min_size)
                groups, ungrouped, _ = naive_stop_early(
                    square.tolist(), alpha, min_size
                )
                assert cut.groups == groups, (trial, alpha, min_size)
                assert cut.ungrouped == ungrouped, (trial, alpha, min_size)


def test_nesting_across_thresholds():
    rng = np.random.default_rng(59)
    for _ in range(8):
        square = random_square(rng, 10)
        tree = build_dendrogram(coded_square(square))
        previous = None
        for alpha in [k / 10 for k in range(11)]:
            cut = cut_at_threshold(tree, alpha, min_size=1)
            clusters = [set(g) for g in cut.groups]
            if previous is not None:
                for small in previous:
                    assert any(small <= big for big in clusters)
            previous = clusters


def test_grouped_items_grow_with_alpha():
    rng = np.random.default_rng(61)
    for _ in range(8):
        square = random_square(rng, 10, discrete=True)
        tree = build_dendrogram(coded_square(square))
        seen = set()
        for alpha in [k / 10 for k in range(11)]:
            cut = cut_at_threshold(tree, alpha)
            grouped = {i for g in cut.groups for i in g}
            assert seen <= grouped
            seen = grouped


# ---------------------------------------------------------------- serialization

def test_clustering_json_round_trip():
    cut = Clustering(
        alpha=0.4,
        groups=((0, 2), (1, 3, 4)),
        ungrouped=(5,),
        ids=("a", "b", "c", "d", "e", "f"),
    )
    text = clustering_to_json(cut)
    record = json.loads(text)
    assert record == {
        "alpha": 0.4,
        "groups": [["a", "c"], ["b", "d", "e"]],
        "ungrouped": ["f"],
    }
    back = clustering_from_json_dict(record)
    assert back.labeled_groups() == cut.labeled_groups()
    assert back.labeled_ungrouped() == cut.labeled_ungrouped()
    assert back.alpha == cut.alpha


def test_clustering_from_json_requires_fields():
    with pytest.raises(ValueError, match="ungrouped"):
        clustering_from_json_dict({"alpha": 0.5, "groups": []})
    # a record that is not an object names that, not a Python internal
    for record in ([1, 2], "alpha groups ungrouped", 5, None):
        with pytest.raises(ValueError, match="^clustering JSON must be an object$"):
            clustering_from_json_dict(record)


def test_clustering_from_json_takes_labels_of_one_kind():
    back = clustering_from_json_dict({"alpha": 0.5, "groups": [[3, 1]], "ungrouped": [2]})
    assert back.ids == (1, 2, 3) and back.labeled_groups() == [[1, 3]]
    # a list is not hashable, and str and int do not sort together
    for labels in ([["x"], "y"], [1, "a"], [1, True], [True, False], [1.0, 2.0]):
        with pytest.raises(ValueError, match="^labels must be all strings or all integers$"):
            clustering_from_json_dict({"alpha": 0.5, "groups": [labels], "ungrouped": []})


def test_dendrogram_csv_lists_merges():
    tree = build_dendrogram(
        coded_square([[0.0, 0.25, 0.5], [0.25, 0.0, 0.75], [0.5, 0.75, 0.0]])
    )
    text = dendrogram_to_csv(tree)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["left_id", "right_id", "distance", "new_id"]
    assert len(rows) == 1 + len(tree.merges)
    assert [float(r[2]) for r in rows[1:]] == [m.distance for m in tree.merges]


def test_clustering_labels_fall_back_to_indices():
    cut = Clustering(alpha=0.1, groups=((0, 1),), ungrouped=(2,))
    assert cut.labeled_groups() == [[0, 1]]
    assert cut.labeled_ungrouped() == [2]
    assert cut.grouped_count() == 2


@pytest.mark.parametrize(
    "alpha, message",
    [
        (True, "real number"),
        ("0.5", "real number"),
        (None, "real number"),
        (float("nan"), r"\[0, 1\]"),
        (1.0000001, r"\[0, 1\]"),
        (-0.01, r"\[0, 1\]"),
    ],
)
def test_check_alpha_rejects(alpha, message):
    with pytest.raises(ValueError, match=message):
        check_alpha(alpha)


@pytest.mark.parametrize("alpha", [0, 1, np.float64(0.25), Fraction(1, 3)])
def test_check_alpha_accepts_real_numbers_in_range(alpha):
    value = check_alpha(alpha)
    assert type(value) is float
    assert value == float(alpha)
