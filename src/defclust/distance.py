"""Textual-energy and Hamming pairwise distances over binary vectors.

The interaction energy between two documents follows the Hopfield-network
reading of the binary vector model: with G = X X^T the document Gram
matrix (G_ik = number of lexical entities shared by documents i and k),
the energy magnitude is

    e_ij = 1/2 * (G G)_ij = 1/2 * sum_k G_ik G_kj

i.e. a matrix product, not an elementwise square.  Documents therefore
interact both directly (shared vocabulary) and through every third
document that shares vocabulary with both.

The product runs in floating point, so numpy hands it to BLAS, and the
result is kept in that float type as ``gram_sq``: every entry is an
exact integer, so no integer copy is made.  With p terms, the order is
the one of fewer multiply-adds: X (X^T X) X^T takes 2 n p^2 + n^2 p and
(X X^T)(X X^T) takes n^2 p + n^3, so the first is taken when
2 p^2 < n^2.  This is exact integer arithmetic: every cell is 0 or 1, so
every product term is a non-negative integer, and any partial sum, in
any blocking, thread split or FMA order, is a sum of a subset of an
entry's terms and so at most that entry.  The intermediate entries are
bounded by the result too: (X^T X)_kl <= n, and
(X X^T X)_ik = sum_m G_im X_mk is at most sum_m G_im^2, the diagonal
entry gram_sq[i, i].  With t_max the largest number of distinct terms in
one document, G_im <= t_max, so every entry, intermediate and partial sum
is at most n * t_max^2.  A float type holds every integer below its
limit exactly, 2^24 for float32 and 2^53 for float64, so the product runs
in float32 when n * t_max^2 < 2^24 and in float64 otherwise, and either
way every entry equals the int64 product.  float32 halves the product's
memory and about halves its time; it covers, for instance, 4,000
documents of up to 64 terms each, and then the float32 square (4 n^2
bytes) and the 2-byte rank codes below are nearly all the memory from
the product to the distances.  In float64 the bound is only reached at
n * t_max^2 >= 2^53 (``EXACT_INT_LIMIT``): for instance 10,000
documents of about 950,000 terms each, far beyond any n x n matrix that
fits in memory.  ``EnergyMatrix`` checks the computed maximum: rounding
is monotone, so a maximum below 2^53 also proves that no entry reached
it, and at or above the limit ``DataError`` is raised.  The Hamming
count takes the same rule with the bound 2p (``hamming_distance_vector``).
The 1/2 factor and the max-normalization move to floating point only at
the distance step (halving and a single division of integers below 2^53
are exact/correctly rounded, so results are deterministic).

High shared vocabulary means HIGH energy, so the normalized energy is a
similarity.  The default ``inverted`` mode returns 1 - normalized energy,
which is what a distance-threshold clustering needs; ``raw`` keeps the
normalized value itself for literal replication.  The energy distance is
not assumed to be a metric (no triangle inequality); complete-linkage
clustering does not need one.

Pair distances are stored as rank codes.  Complete linkage only compares
distances and takes their maxima, so any strictly increasing relabelling
of them gives the same merges.  ``levels`` lists the distinct float64
distances in increasing order, and ``codes`` holds, for every pair, the
index of its distance in ``levels``: 2 bytes a pair instead of 8.  Both
distance kinds come from integers q (energies, or counts of differing
positions) through one float division, so the levels are the floats
that the distinct integers give, and two integers whose floats round to
the same value share a code.  The distinct integers come from a table
over 0..max(q) when it has at most n^2 entries, and from sorting the
upper triangle otherwise.  The float square is built only when asked
for.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import BinaryDocTermMatrix, check_binary_cells
from .errors import DataError

DISTANCE_MODES = ("inverted", "raw")

EXACT_INT_LIMIT = 2**53
"""Energies must stay below this: float64 holds every smaller integer exactly."""

_BLOCK_ROWS = 32
"""Rows of an n x n square handled at a time: a band and its transpose
stay in cache, and no whole-square temporary is made."""


def _is_symmetric(square: np.ndarray) -> bool:
    """``square == square.T``, compared one band of rows at a time.

    Each band meets the matching band of columns, which stays in cache,
    where a whole transposed read would miss it on every element.
    """
    n = square.shape[0]
    return all(
        np.array_equal(square[i : i + _BLOCK_ROWS, i:], square[i:, i : i + _BLOCK_ROWS].T)
        for i in range(0, n, _BLOCK_ROWS)
    )


def _as_binary_array(matrix) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """0/1 cells of a BinaryDocTermMatrix or a raw array-like, uncast.

    A BinaryDocTermMatrix checked its cells when it was built, so only raw
    array-likes are checked here.
    """
    if isinstance(matrix, BinaryDocTermMatrix):
        return matrix.data, tuple(matrix.doc_ids)
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError("expected a two-dimensional document-term matrix")
    check_binary_cells(arr)
    return arr, None


def _exact_float(bound: int) -> type[np.floating]:
    """Float type of a product whose integers all stay within ``bound``:
    float32 while the bound is below 2^24, where float32 holds every
    integer exactly, else float64."""
    return np.float32 if bound < 2**24 else np.float64


@dataclass(frozen=True)
class EnergyMatrix:
    """Pairwise interaction-energy magnitudes |e_ij|.

    ``gram_sq`` holds the integer matrix (X X^T)(X X^T), so e_ij =
    gram_sq[i, j] / 2.  Its entries are exact non-negative integers,
    held as int64 or as floats (``energy_matrix`` keeps the float type
    of its product).  It must be symmetric, and every entry must stay
    below ``EXACT_INT_LIMIT``; ``peak`` is the largest entry.  Whole
    numbers are checked where the distances read the square.
    """

    gram_sq: np.ndarray
    ids: tuple[str, ...] | None = None
    peak: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q = self.gram_sq
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("energy matrix must be square")
        if not _is_symmetric(q):
            raise ValueError("energy matrix must be symmetric")
        if q.size and q.min() < 0:
            raise ValueError("energy magnitudes must be non-negative")
        peak = q.max() if q.size else 0
        if peak >= EXACT_INT_LIMIT:
            raise DataError(
                f"second-order energy {peak} for n={q.shape[0]} documents "
                f"reaches the exact-integer limit 2^53 = {EXACT_INT_LIMIT}"
            )
        if self.ids is not None and len(self.ids) != q.shape[0]:
            raise ValueError("ids length must match the matrix size")
        object.__setattr__(self, "peak", int(peak))

    @property
    def n(self) -> int:
        return self.gram_sq.shape[0]

    @property
    def values(self) -> np.ndarray:
        """Energy magnitudes e_ij as float64 (exact halves of integers)."""
        return np.divide(self.gram_sq, 2.0, dtype=np.float64)


def _code_dtype(n_levels: int):
    """uint16 while the codes and one sentinel above them fit, else uint32."""
    return np.uint16 if n_levels < 2**16 else np.uint32


@dataclass(frozen=True)
class PairwiseDistances:
    """Symmetric n x n distances in [0, 1] with a zero diagonal, as rank codes.

    ``levels`` holds the distinct float64 distances in increasing order,
    starting with the 0.0 of the diagonal.  ``codes`` is the n x n square
    of their indices, so the distance of (i, j) is
    ``levels[codes[i, j]]``.  It is ``uint16`` while the levels and one
    sentinel value above them fit in 2 bytes, else ``uint32``; the
    largest value of the dtype is never a code, which leaves it free for
    ``build_dendrogram`` to mark retired slots.  ``square`` (the float
    square) and ``values`` (the condensed SciPy view: the upper triangle
    flattened row-major, (0,1), (0,2), ..., (0,n-1), (1,2), ...,
    (n-2,n-1)) are built from the codes on each access.
    ``from_square`` builds the codes of any float square.
    """

    codes: np.ndarray
    levels: np.ndarray
    ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        codes, levels = self.codes, self.levels
        if codes.ndim != 2 or codes.shape[0] != codes.shape[1]:
            raise ValueError(f"pair distances must form a square, got shape {codes.shape}")
        if codes.dtype not in (np.uint16, np.uint32):
            raise ValueError(f"codes must be uint16 or uint32, got {codes.dtype}")
        if levels.dtype != np.float64 or levels.ndim != 1 or levels.size == 0:
            raise ValueError("levels must be a non-empty one-dimensional float64 array")
        if levels.size > np.iinfo(codes.dtype).max:
            raise ValueError(f"{levels.size} levels leave no sentinel in {codes.dtype}")
        # NaN fails every comparison
        if not (levels[0] == 0.0 and levels[-1] <= 1.0 and (levels[1:] > levels[:-1]).all()):
            raise ValueError("levels must rise strictly from 0.0 and stay within [0, 1]")
        if codes.size and int(codes.max()) >= levels.size:
            raise ValueError("every code must index a level")
        if codes.diagonal().any():
            raise ValueError("the distance of an item to itself must be 0")
        # the row-major tie rule of build_dendrogram relies on symmetry
        if not _is_symmetric(codes):
            raise ValueError("pair distances must be symmetric")
        if self.ids is not None and len(self.ids) != self.n:
            raise ValueError("ids length must match n")

    @classmethod
    def from_square(cls, square, ids: tuple[str, ...] | None = None) -> "PairwiseDistances":
        """Codes of a symmetric array-like in [0, 1] with a zero diagonal."""
        sq = np.asarray(square, dtype=np.float64)
        if sq.ndim != 2 or sq.shape[0] != sq.shape[1]:
            raise ValueError(f"pair distances must form a square, got shape {sq.shape}")
        # min/max propagate NaN, which fails both comparisons
        if sq.size and not (float(sq.min()) >= 0.0 and float(sq.max()) <= 1.0):
            raise ValueError("pair distances must lie in [0, 1]")
        if sq.diagonal().any():
            raise ValueError("the distance of an item to itself must be 0")
        if not _is_symmetric(sq):
            raise ValueError("pair distances must be symmetric")
        levels, _ = _levels_of(np.sort(sq, axis=None))
        codes = np.searchsorted(levels, sq).astype(_code_dtype(levels.size))
        return cls(codes, levels, ids=ids)

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def square(self) -> np.ndarray:
        """The float64 square ``levels[codes]``, built on each access."""
        return self.levels[self.codes]

    @property
    def values(self) -> np.ndarray:
        """Condensed copy: one value per unordered pair, in pair order."""
        return self.levels[self.codes[np.triu_indices(self.n, k=1)]]


def _levels_of(ascending: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Levels of ascending distances in [0, 1], and the code of each.

    Equal floats share a code, and 0.0 is always the first level.  The
    neighbour mask stands in for ``np.unique``, whose first call imports
    ``numpy.ma``.
    """
    values = np.concatenate(([0.0], ascending))
    rises = values[1:] != values[:-1]
    return values[np.concatenate(([True], rises))], np.cumsum(rises)


def _integer_levels(
    distinct: np.ndarray, divisor: int, inverted: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Levels of the distances of ascending distinct integers q, and the
    code of each q.

    q gives q / divisor, or 1.0 - q / divisor when ``inverted``; a zero
    divisor gives q itself, which is then 0.  Division and subtraction
    round monotonically, so the floats ascend with q (descend when
    inverted), and integers that round to one float share its code.
    """
    x = distinct / divisor if divisor else distinct.astype(np.float64)
    if not inverted:
        return _levels_of(x)
    levels, codes = _levels_of(1.0 - x[::-1])
    return levels, codes[::-1]


def _whole_copy(a: np.ndarray, dtype) -> np.ndarray:
    """A copy of ``a`` in the integer ``dtype``, which would truncate a
    fraction; a fraction is a ``ValueError`` instead."""
    if a.dtype.kind == "f" and not (np.trunc(a) == a).all():
        raise ValueError("pair distances need whole numbers, got a fraction")
    return a.astype(dtype)


def _coded_distances(
    q: np.ndarray, top: int, divisor: int | None, inverted: bool, ids: tuple[str, ...] | None
) -> PairwiseDistances:
    """Distances of an n x n square of exact non-negative integers q.

    ``top`` is the largest entry of q.  The distance of (i, j) is
    q[i, j] / divisor (``_integer_levels``); a ``divisor`` of None
    stands for the largest off-diagonal q.  The diagonal of q is ignored.
    ``q`` may hold the integers as floats; it is read in blocks of
    ``_BLOCK_ROWS`` rows, and never cast whole.  q is symmetric, so the
    upper triangle, read first, is checked for fractions (a
    ``ValueError``), and the casts of the full rows after it are exact.
    """
    n = q.shape[0]
    blocks = [slice(i, min(i + _BLOCK_ROWS, n)) for i in range(0, n, _BLOCK_ROWS)]
    table = top < n * n
    if table:
        # Each block is read from its diagonal on, which covers the upper
        # triangle; seen[top + 1] absorbs the diagonal.
        seen = np.zeros(top + 2, dtype=bool)
        for rows in blocks:
            block = _whole_copy(q[rows, rows.start :], np.intp)
            block.ravel()[:: n - rows.start + 1] = top + 1
            seen[block] = True
        distinct = np.flatnonzero(seen[:-1])
    else:
        upper = _whole_copy(q[np.triu(np.ones((n, n), dtype=bool), k=1)], np.int64)
        upper.sort()
        distinct = upper[np.concatenate(([True], upper[1:] != upper[:-1]))]
        del upper
    levels, ranks = _integer_levels(
        distinct, int(distinct[-1]) if divisor is None else divisor, inverted
    )
    codes = np.empty((n, n), dtype=_code_dtype(levels.size))
    if table:
        lookup = np.zeros(top + 1, dtype=codes.dtype)
        lookup[distinct] = ranks
    else:
        lookup = ranks.astype(codes.dtype)
    for rows in blocks:
        block = q[rows]
        index = block.astype(np.intp, copy=False) if table else np.searchsorted(distinct, block)
        # a diagonal entry may index past the last rank; it is clipped
        # here and set to the code of 0.0 below
        np.take(lookup, index, out=codes[rows], mode="clip")
    np.fill_diagonal(codes, 0)
    return PairwiseDistances(codes, levels, ids=ids)


def pair_distance(dist: PairwiseDistances, i: int, j: int) -> float:
    """Value stored for the unordered pair (i, j); symmetric in i and j."""
    n = dist.n
    if not (0 <= i < n) or not (0 <= j < n):
        raise IndexError(f"item index out of range for n={n}: ({i}, {j})")
    if i == j:
        raise ValueError("no distance is stored for an item paired with itself")
    return float(dist.levels[dist.codes[i, j]])


def energy_matrix(matrix) -> EnergyMatrix:
    """Interaction energies of all document pairs of a binary matrix."""
    cells, ids = _as_binary_array(matrix)
    n, p = cells.shape
    if n == 0:
        raise ValueError("cannot compute energies of an empty collection")
    # every entry, intermediate and partial sum is at most n * t_max^2
    bound = n * int(np.count_nonzero(cells, axis=1).max()) ** 2
    arr = cells.astype(_exact_float(bound), copy=False)
    if 2 * p * p < n * n:
        gram = (arr @ (arr.T @ arr)) @ arr.T
    else:
        gram = arr @ arr.T
        # X is n x p with p near n in this order: freed before G G is built
        del arr
        gram = gram @ gram
    return EnergyMatrix(gram_sq=gram, ids=ids)


def energy_distance_vector(energy: EnergyMatrix, mode: str = "inverted") -> PairwiseDistances:
    """Max-normalized off-diagonal energies as coded n x n distances.

    The normalization maximum is taken over off-diagonal entries only.
    ``inverted`` (default) returns 1 - normalized energy so that similar
    documents are close; ``raw`` returns the normalized energy itself.
    Degenerate all-zero energies give all-1 distances in inverted mode
    and all-0 in raw mode.
    """
    if mode not in DISTANCE_MODES:
        raise ValueError(f"mode must be one of {DISTANCE_MODES}, got {mode!r}")
    if energy.n < 2:
        raise ValueError("need at least two documents to form pairs")
    return _coded_distances(energy.gram_sq, energy.peak, None, mode == "inverted", energy.ids)


def hamming_distance_vector(matrix) -> PairwiseDistances:
    """Normalized Hamming baseline: differing positions / vector length."""
    cells, ids = _as_binary_array(matrix)
    n, p = cells.shape
    if p < 1:
        raise ValueError("vectors must have at least one dimension")
    if n < 2:
        raise ValueError("need at least two documents to form pairs")
    # G_ij <= p, and the in-place -2 G_ij + t_i + t_j below stays within
    # [-2p, 2p]
    arr = cells.astype(_exact_float(2 * p), copy=False)
    gram = arr @ arr.T
    # only the n x n product is needed from here on
    del arr
    # a copy: the diagonal is a view of the buffer overwritten below
    ones = gram.diagonal().copy()
    # in place on the one n x n buffer, which ends up holding the exact
    # integer count of differing positions of every pair
    gram *= -2
    gram += ones[:, None]
    gram += ones[None, :]
    return _coded_distances(gram, int(gram.max()), p, False, ids)


def _labels(ids: tuple[str, ...] | None, n: int) -> list[str]:
    return list(ids) if ids is not None else [str(i) for i in range(n)]


def energy_matrix_to_csv(energy: EnergyMatrix, path: str | Path) -> None:
    """Debug dump: full energy matrix with document ids as row/col headers."""
    labels = _labels(energy.ids, energy.n)
    values = energy.values
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([""] + labels)
        for i, label in enumerate(labels):
            writer.writerow([label] + [repr(float(v)) for v in values[i]])


def distances_to_csv(dist: PairwiseDistances, path: str | Path) -> None:
    """Debug dump: one ``id_i,id_j,distance`` triple per pair, in pair order."""
    labels = _labels(dist.ids, dist.n)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id_i", "id_j", "distance"])
        for i, row in enumerate(dist.codes):
            for j, value in enumerate(dist.levels[row[i + 1 :]].tolist(), i + 1):
                writer.writerow([labels[i], labels[j], repr(value)])
