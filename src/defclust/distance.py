"""Textual-energy and Hamming pairwise distances over binary vectors.

The interaction energy between two documents follows the Hopfield-network
reading of the binary vector model: with G = X X^T the document Gram
matrix (G_ik = number of lexical entities shared by documents i and k),
the energy magnitude is

    e_ij = 1/2 * (G G)_ij = 1/2 * sum_k G_ik G_kj

i.e. a matrix product, not an elementwise square.  Documents therefore
interact both directly (shared vocabulary) and through every third
document that shares vocabulary with both.

Both products run in float64, so numpy hands them to BLAS, and the result
is cast to an int64 ``gram_sq``.  This is exact integer arithmetic: every
cell is 0 or 1, so every product term is a non-negative integer, and any
partial sum, in any blocking, thread split or FMA order, is a sum of a
subset of an entry's terms and so at most that entry.  While every entry
is below 2^53 (``EXACT_INT_LIMIT``) every intermediate is an exactly
representable integer and the result equals the int64 product bit for
bit.  Rounding is monotone, so a computed maximum below 2^53 also proves
that no entry reached it; at or above the limit ``DataError`` is raised.
Reaching it takes n * t_max^2 >= 2^53, with t_max the largest number of
distinct terms in one document: for instance 10,000 documents of about
950,000 terms each, far beyond any n x n matrix that fits in memory.  The
1/2 factor and the max-normalization move to floating point only at the
distance step (halving and a single division of integers below 2^53 are
exact/correctly rounded, so results are deterministic).

High shared vocabulary means HIGH energy, so the normalized energy is a
similarity.  The default ``inverted`` mode returns 1 - normalized energy,
which is what a distance-threshold clustering needs; ``raw`` keeps the
normalized value itself for literal replication.  The energy distance is
not assumed to be a metric (no triangle inequality); complete-linkage
clustering does not need one.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import BinaryDocTermMatrix
from .errors import DataError

DISTANCE_MODES = ("inverted", "raw")

EXACT_INT_LIMIT = 2**53
"""Energies must stay below this: float64 holds every smaller integer exactly."""


def _check_energy_limit(peak, n: int) -> None:
    if peak >= EXACT_INT_LIMIT:
        raise DataError(
            f"second-order energy {int(peak)} for n={n} documents reaches the "
            f"exact-integer limit 2^53 = {EXACT_INT_LIMIT}"
        )


def _as_binary_array(matrix) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """0/1 cells of a BinaryDocTermMatrix or a raw array-like, as float64.

    A BinaryDocTermMatrix checked its cells when it was built, so only raw
    array-likes are checked here.
    """
    if isinstance(matrix, BinaryDocTermMatrix):
        return matrix.data.astype(np.float64), tuple(matrix.doc_ids)
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError("expected a two-dimensional document-term matrix")
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError("matrix cells must be exactly 0 or 1")
    return arr.astype(np.float64), None


@dataclass(frozen=True)
class EnergyMatrix:
    """Pairwise interaction-energy magnitudes |e_ij|.

    ``gram_sq`` holds the integer matrix (X X^T)(X X^T), so e_ij =
    gram_sq[i, j] / 2.  Symmetric and non-negative by construction, and
    every entry is below ``EXACT_INT_LIMIT``.
    """

    gram_sq: np.ndarray
    ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        q = self.gram_sq
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("energy matrix must be square")
        if not np.array_equal(q, q.T):
            raise ValueError("energy matrix must be symmetric")
        if q.size and int(q.min()) < 0:
            raise ValueError("energy magnitudes must be non-negative")
        if q.size:
            _check_energy_limit(int(q.max()), q.shape[0])
        if self.ids is not None and len(self.ids) != q.shape[0]:
            raise ValueError("ids length must match the matrix size")

    @property
    def n(self) -> int:
        return self.gram_sq.shape[0]

    @property
    def values(self) -> np.ndarray:
        """Energy magnitudes e_ij as floats (exact halves of integers)."""
        return self.gram_sq / 2.0


@dataclass(frozen=True)
class PairwiseDistances:
    """One distance in [0, 1] per unordered item pair.

    Values are flattened row-major over the upper triangle: (0,1), (0,2),
    ..., (0,n-1), (1,2), ..., (n-2,n-1).
    """

    n: int
    values: np.ndarray
    ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        expected = self.n * (self.n - 1) // 2
        if self.values.shape != (expected,):
            raise ValueError(
                f"expected {expected} pair values for n={self.n}, "
                f"got shape {self.values.shape}"
            )
        # min/max propagate NaN and NaN fails every comparison, so the
        # positive test rejects NaN as well.
        if self.values.size and not (
            float(self.values.min()) >= 0.0 and float(self.values.max()) <= 1.0
        ):
            raise ValueError("pair distances must lie in [0, 1]")
        if self.ids is not None and len(self.ids) != self.n:
            raise ValueError("ids length must match n")

    def as_square(self) -> np.ndarray:
        """Symmetric n x n distance matrix with a zero diagonal."""
        square = np.zeros((self.n, self.n), dtype=np.float64)
        iu = np.triu_indices(self.n, k=1)
        square[iu] = self.values
        square += square.T
        return square


def pair_distance(dist: PairwiseDistances, i: int, j: int) -> float:
    """Value stored for the unordered pair (i, j); symmetric in i and j."""
    n = dist.n
    if not (0 <= i < n) or not (0 <= j < n):
        raise IndexError(f"item index out of range for n={n}: ({i}, {j})")
    if i == j:
        raise ValueError("no distance is stored for an item paired with itself")
    if i > j:
        i, j = j, i
    k = n * i - i * (i + 1) // 2 + (j - i - 1)
    return float(dist.values[k])


def energy_matrix(matrix) -> EnergyMatrix:
    """Interaction energies of all document pairs of a binary matrix."""
    arr, ids = _as_binary_array(matrix)
    if arr.shape[0] == 0:
        raise ValueError("cannot compute energies of an empty collection")
    gram = arr @ arr.T
    gram = gram @ gram
    # checked before the cast, so no value can wrap
    _check_energy_limit(gram.max(), arr.shape[0])
    return EnergyMatrix(gram_sq=gram.astype(np.int64), ids=ids)


def energy_distance_vector(
    energy: EnergyMatrix, mode: str = "inverted"
) -> PairwiseDistances:
    """Flattened, max-normalized off-diagonal energies as pair distances.

    The normalization maximum is taken over off-diagonal entries only.
    ``inverted`` (default) returns 1 - normalized energy so that similar
    documents are close; ``raw`` returns the normalized energy itself.
    Degenerate all-zero energies give all-1 distances in inverted mode
    and all-0 in raw mode.
    """
    if mode not in DISTANCE_MODES:
        raise ValueError(f"mode must be one of {DISTANCE_MODES}, got {mode!r}")
    n = energy.n
    if n < 2:
        raise ValueError("need at least two documents to form pairs")
    iu = np.triu_indices(n, k=1)
    flat = energy.gram_sq[iu]
    peak = int(flat.max())
    if peak == 0:
        normalized = np.zeros(flat.shape, dtype=np.float64)
    else:
        normalized = flat / peak
    values = 1.0 - normalized if mode == "inverted" else normalized
    return PairwiseDistances(n=n, values=values, ids=energy.ids)


def hamming_distance_vector(matrix) -> PairwiseDistances:
    """Normalized Hamming baseline: differing positions / vector length."""
    arr, ids = _as_binary_array(matrix)
    n, p = arr.shape
    if p < 1:
        raise ValueError("vectors must have at least one dimension")
    if n < 2:
        raise ValueError("need at least two documents to form pairs")
    gram = arr @ arr.T
    ones = np.diag(gram)
    differing = ones[:, None] + ones[None, :] - 2 * gram
    iu = np.triu_indices(n, k=1)
    return PairwiseDistances(n=n, values=differing[iu] / p, ids=ids)


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
        k = 0
        for i in range(dist.n):
            for j in range(i + 1, dist.n):
                writer.writerow([labels[i], labels[j], repr(float(dist.values[k]))])
                k += 1
