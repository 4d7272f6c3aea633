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
    """Symmetric n x n distances in [0, 1] with a zero diagonal, as float64.

    ``square`` is the only stored pair layout.  ``values`` is the condensed
    (SciPy) view: the upper triangle flattened row-major, (0,1), (0,2), ...,
    (0,n-1), (1,2), ..., (n-2,n-1).
    """

    square: np.ndarray
    ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        sq = np.asarray(self.square, dtype=np.float64)
        object.__setattr__(self, "square", sq)
        if sq.ndim != 2 or sq.shape[0] != sq.shape[1]:
            raise ValueError(f"pair distances must form a square, got shape {sq.shape}")
        # min/max propagate NaN, which fails both comparisons
        if sq.size and not (float(sq.min()) >= 0.0 and float(sq.max()) <= 1.0):
            raise ValueError("pair distances must lie in [0, 1]")
        if sq.diagonal().any():
            raise ValueError("the distance of an item to itself must be 0")
        # the row-major tie rule of build_dendrogram relies on symmetry
        if not np.array_equal(sq, sq.T):
            raise ValueError("pair distances must be symmetric")
        if self.ids is not None and len(self.ids) != self.n:
            raise ValueError("ids length must match n")

    @property
    def n(self) -> int:
        return self.square.shape[0]

    @property
    def values(self) -> np.ndarray:
        """Condensed copy: one value per unordered pair, in pair order."""
        return self.square[np.triu_indices(self.n, k=1)]


def pair_distance(dist: PairwiseDistances, i: int, j: int) -> float:
    """Value stored for the unordered pair (i, j); symmetric in i and j."""
    n = dist.n
    if not (0 <= i < n) or not (0 <= j < n):
        raise IndexError(f"item index out of range for n={n}: ({i}, {j})")
    if i == j:
        raise ValueError("no distance is stored for an item paired with itself")
    return float(dist.square[i, j])


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


def energy_distance_vector(energy: EnergyMatrix, mode: str = "inverted") -> PairwiseDistances:
    """Max-normalized off-diagonal energies as an n x n distance square.

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
    d = energy.gram_sq.astype(np.float64)
    np.fill_diagonal(d, 0.0)
    # entries are non-negative, so this is the off-diagonal maximum
    peak = d.max()
    if peak:
        d /= peak
    if mode == "inverted":
        np.subtract(1.0, d, out=d)
        np.fill_diagonal(d, 0.0)
    return PairwiseDistances(d, ids=energy.ids)


def hamming_distance_vector(matrix) -> PairwiseDistances:
    """Normalized Hamming baseline: differing positions / vector length."""
    arr, ids = _as_binary_array(matrix)
    n, p = arr.shape
    if p < 1:
        raise ValueError("vectors must have at least one dimension")
    if n < 2:
        raise ValueError("need at least two documents to form pairs")
    gram = arr @ arr.T
    # a copy: the diagonal is a view of the buffer overwritten below
    ones = gram.diagonal().copy()
    # in place on the one n x n buffer; every step holds integers of
    # magnitude at most 2p, so the square is exactly symmetric with a zero
    # diagonal
    gram *= -2
    gram += ones[:, None]
    gram += ones[None, :]
    gram /= p
    return PairwiseDistances(gram, ids=ids)


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
        for i, row in enumerate(dist.square):
            for j in range(i + 1, dist.n):
                writer.writerow([labels[i], labels[j], repr(float(row[j]))])
