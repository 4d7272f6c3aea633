"""Textual-energy and Hamming pairwise distances over binary vectors.

The interaction energy between two documents follows the Hopfield-network
reading of the binary vector model: with G = X X^T the document Gram
matrix (G_ik = number of lexical entities shared by documents i and k),
the energy magnitude is

    e_ij = 1/2 * (G G)_ij = 1/2 * sum_k G_ik G_kj

i.e. a matrix product, not an elementwise square.  Documents therefore
interact both directly (shared vocabulary) and through every third
document that shares vocabulary with both.

Identical documents have identical rows of X, and so identical rows of
G and of G G.  ``energy_matrix`` therefore finds the u distinct rows of
X once, as the u x p matrix U with the class size w_c of each row (the
number of documents that share it, W = diag(w)), and computes only the
u x u square of the distinct rows.  Document i reads its energies from
row ``rows[i]`` of that square.  With H = U U^T, the square is

    (G G)_ab = sum_k G_ak G_kb = M M^T = U (U^T W U) U^T,

where M = H[:, rows] is the u x n block of G that pairs each distinct
row with every document.  M M^T adds the very terms of the original
n-term sum, and a term w_c U_ck U_cl of U^T W U adds the w_c equal ones
that a class holds, so every entry, intermediate value and partial sum
below is still a sum of non-negative terms of the original sum, and the
bounds below, in n, hold unchanged.  The rows are shared only when
2u <= n (see ``_distinct_rows``); otherwise every document keeps its
own row, u is taken to be n, the weights are left out, and the products
are those of X itself.

The product runs in floating point, so numpy hands it to BLAS, and the
result is kept in that float type as ``gram_sq``: every entry is an
exact integer, so no integer copy is made.  With p terms, the order is
the one of fewer multiply-adds: U (U^T W U) U^T takes 2 u p^2 + u^2 p,
and H then M M^T take u^2 p + u^2 n, so the first is taken when
2 p^2 < u n.  With u = n these are X (X^T X) X^T and (X X^T)(X X^T),
and the rule is 2 p^2 < n^2.  This is exact integer arithmetic: every
cell is 0 or 1, so every product term is a non-negative integer, and
any partial sum, in any blocking, thread split or FMA order, is a sum of
a subset of an entry's terms and so at most that entry.  The
intermediate entries are bounded by the result too: (U^T W U)_kl <= n, M_ak <= t_max, and
(U U^T W U)_ak = sum_c H_ac w_c U_ck is at most sum_c w_c H_ac^2, the
diagonal entry gram_sq[a, a].  With t_max the largest number of distinct
terms in one document, H_ac <= t_max, so every entry, intermediate and
partial sum is at most n * t_max^2, whatever u is.  A float type holds
every integer below its limit exactly, 2^24 for float32 and 2^53 for
float64, so the product runs in float32 when n * t_max^2 < 2^24 and in
float64 otherwise, and either way every entry equals the int64 product.
float32 halves the product's memory and about halves its time; it
covers, for instance, 4,000 documents of up to 64 terms each, and then
the float32 square (4 u^2 bytes) and the 2-byte n x n rank codes below
are nearly all the memory from the product to the distances.  In
float64 the bound is only reached at n * t_max^2 >= 2^53
(``EXACT_INT_LIMIT``): for instance 10,000 documents of about 950,000
terms each, far beyond any n x n matrix that fits in memory.
``EnergyMatrix`` checks the computed maximum: rounding is monotone, so a
maximum below 2^53 also proves that no entry reached it, and at or above
the limit ``DataError`` is raised.  It takes that maximum in the sweep
that checks symmetry, sign and whole numbers, so the distances cast the
entries unchecked.  The Hamming count takes the same rule with the bound
2p (``hamming_distance_vector``), over the same distinct rows.  The 1/2
factor and the max-normalization move to floating point only at the
distance step (halving and a single division of integers below 2^53 are
exact/correctly rounded, so results are deterministic).

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
the same value share a code.  The pairs of the n documents are the
pairs (a, b) of distinct rows with a != b, and (a, a) for every row that
two or more documents share; their distinct integers come from a table
over 0..max(q) when it has at most u^2 entries, and from sorting those
entries of the u x u square otherwise.  The n x n codes are then written
from the u x u square a block of rows at a time, so no n x n float
square is built, and no code square beside the n x n one.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .corpus import BinaryDocTermMatrix, check_binary_cells
from .errors import DataError

DISTANCE_MODES = ("inverted", "raw")

EXACT_INT_LIMIT = 2**53
"""Energies must stay below this: float64 holds every smaller integer exactly."""

_BLOCK_ROWS = 32
"""Rows of an n x n square handled at a time: a band and its transpose
stay in cache, and no whole-square temporary is made."""


def _blocks(n: int) -> list[slice]:
    """Consecutive slices of ``_BLOCK_ROWS`` rows covering 0..n."""
    return [slice(i, min(i + _BLOCK_ROWS, n)) for i in range(0, n, _BLOCK_ROWS)]


def _symmetric_bands(square: np.ndarray, message: str):
    """Bands of rows of the upper triangle of ``square``, diagonal on, each
    first compared with its band of columns, which stays in cache where a
    whole transposed read would miss it on every element; a mismatch is a
    ``ValueError(message)``.  They hold every value of a symmetric square."""
    for band in _blocks(square.shape[0]):
        upper = square[band, band.start :]
        if not np.array_equal(upper, square[band.start :, band].T):
            raise ValueError(message)
        yield upper


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


def _distinct_rows(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The u distinct rows of ``cells`` in order of first occurrence, and
    the index among them of each of its n rows; ``cells`` itself and None
    unless 2u <= n.

    Each row is hashed once, as its cells packed 8 to a byte (any nonzero
    cell packs as 1); the keys are freed on return.  Sharing rows adds
    the rows map (8n bytes) and, in each band of the codes, a gather over
    u columns beside the n-wide one; a float32 square over u = n - 1 rows
    saves only 8n - 4 bytes.  With 2u <= n every array built from the u
    rows, each square and each band's temporaries, is at most its
    counterpart over the n rows, so the energies and distances never take
    more memory than without sharing.
    """
    n = cells.shape[0]
    packed = np.packbits(cells if cells.dtype.kind in "biu" else cells != 0, axis=1)
    keys = packed.view(f"V{packed.shape[1]}").ravel().tolist() if packed.shape[1] else [b""] * n
    # read backwards, the last row written for a key is its first
    first = dict(zip(reversed(keys), range(n - 1, -1, -1)))
    if 2 * len(first) > n:
        return cells, None
    firsts = np.sort(np.fromiter(first.values(), dtype=np.intp, count=len(first)))
    first_of = np.fromiter(map(first.__getitem__, keys), dtype=np.intp, count=n)
    # each document's first occurrence, ranked among the first occurrences
    return cells[firsts], np.searchsorted(firsts, first_of)


@dataclass(frozen=True)
class EnergyMatrix:
    """Pairwise interaction-energy magnitudes |e_ij|.

    ``gram_sq`` holds the integer matrix (U U^T) W (U U^T) of the u
    distinct document rows (see the module docstring), and document i
    has its row ``rows[i]``, so e_ij = gram_sq[rows[i], rows[j]] / 2.
    ``rows`` of None stands for one row per document.  Its entries are
    exact non-negative integers, held as int64 or as floats
    (``energy_matrix`` keeps the float type of its product).  It must be
    symmetric, every entry must stay below ``EXACT_INT_LIMIT``, and
    ``rows`` must use every row; ``peak`` is the largest entry, the
    largest of the n x n energies too.  Symmetry, sign, whole numbers
    and ``peak`` come from one sweep of ``_symmetric_bands``.
    """

    gram_sq: np.ndarray
    ids: tuple[str, ...] | None = None
    rows: np.ndarray | None = None
    peak: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        q = self.gram_sq
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("energy matrix must be square")
        if self.rows is not None:
            rows = np.asarray(self.rows)
            if rows.ndim != 1 or rows.dtype.kind not in "iu":
                raise ValueError("rows must be a one-dimensional integer array")
            if rows.size and not (0 <= rows.min() and rows.max() < q.shape[0]):
                raise ValueError("rows must index rows of the energy matrix")
            rows = rows.astype(np.intp, copy=False)
            # an unused row would add its entries to the distance levels
            if not np.bincount(rows, minlength=q.shape[0]).all():
                raise ValueError("rows must use every row of the energy matrix")
            object.__setattr__(self, "rows", rows)
        peak = 0
        for upper in _symmetric_bands(q, "energy matrix must be symmetric"):
            if upper.min() < 0:
                raise ValueError("energy magnitudes must be non-negative")
            # the distances cast the square to integers, which would truncate
            if q.dtype.kind == "f" and not (np.trunc(upper) == upper).all():
                raise ValueError("pair distances need whole numbers, got a fraction")
            peak = max(peak, upper.max())
        if peak >= EXACT_INT_LIMIT:
            raise DataError(
                f"second-order energy {peak} for n={self.n} documents "
                f"reaches the exact-integer limit 2^53 = {EXACT_INT_LIMIT}"
            )
        if self.ids is not None and len(self.ids) != self.n:
            raise ValueError("ids length must match the number of documents")
        object.__setattr__(self, "peak", int(peak))

    @property
    def n(self) -> int:
        """The number of documents."""
        return self.gram_sq.shape[0] if self.rows is None else self.rows.size

    @property
    def values(self) -> np.ndarray:
        """n x n energy magnitudes e_ij as float64 (exact halves of integers)."""
        q = self.gram_sq if self.rows is None else self.gram_sq[np.ix_(self.rows, self.rows)]
        return np.divide(q, 2.0, dtype=np.float64)


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
    ``build_dendrogram`` to mark retired slots.  That loop works in the
    codes in place, so they are kept C-contiguous and writable: read-only
    or Fortran-ordered codes are copied.  ``values`` (the condensed SciPy
    view: the upper triangle flattened row-major, (0,1), (0,2), ...,
    (0,n-1), (1,2), ..., (n-2,n-1)) is built from the codes on each
    access.  ``from_square`` builds the codes of any float square.
    """

    codes: np.ndarray
    levels: np.ndarray
    ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        codes = np.require(self.codes, requirements="CW")
        object.__setattr__(self, "codes", codes)
        levels = self.levels
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
        if codes.diagonal().any():
            raise ValueError("the distance of an item to itself must be 0")
        # the row-major tie rule of build_dendrogram relies on symmetry
        for upper in _symmetric_bands(codes, "pair distances must be symmetric"):
            if int(upper.max()) >= levels.size:
                raise ValueError("every code must index a level")
        if self.ids is not None and len(self.ids) != self.n:
            raise ValueError("ids length must match n")

    @classmethod
    def from_square(cls, square, ids: tuple[str, ...] | None = None) -> "PairwiseDistances":
        """Codes of a symmetric array-like in [0, 1] with a zero diagonal.

        Only the range is checked here: distinct floats get distinct codes,
        whose shape, diagonal and symmetry ``__post_init__`` checks."""
        sq = np.asarray(square, dtype=np.float64)
        # min/max propagate NaN, which fails both comparisons
        if sq.size and not (float(sq.min()) >= 0.0 and float(sq.max()) <= 1.0):
            raise ValueError("pair distances must lie in [0, 1]")
        levels, _ = _levels_of(np.sort(sq, axis=None))
        codes = np.searchsorted(levels, sq).astype(_code_dtype(levels.size))
        return cls(codes, levels, ids=ids)

    @property
    def n(self) -> int:
        return self.codes.shape[0]

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


def _coded_distances(
    q: np.ndarray,
    top: int,
    divisor: int | None,
    inverted: bool,
    ids: tuple[str, ...] | None,
    rows: np.ndarray | None,
) -> PairwiseDistances:
    """Distances of n documents from a u x u square of exact non-negative
    integers q over their distinct rows.

    Document i has row ``rows[i]`` of q; ``rows`` of None stands for
    row i, and then u = n.  ``top`` is the largest entry of q.  The
    distance of documents (i, j) is q[rows[i], rows[j]] / divisor
    (``_integer_levels``); a ``divisor`` of None stands for the largest
    q of a pair.  The pairs read q at (a, b) with a != b, and at (a, a)
    for every row a that two or more documents share; the other
    diagonal entries are ignored.  ``q`` is an ``EnergyMatrix`` square,
    which checked its integers, or the Hamming count, exact as built, so
    every cast of an entry is exact.  It may hold the integers as floats;
    it is read in blocks of ``_BLOCK_ROWS`` rows, and never cast whole.
    """
    u = q.shape[0]
    n = u if rows is None else rows.size
    shared = None if rows is None else np.bincount(rows) > 1
    table = top < u * u
    if table:
        # Each block is read from its diagonal on, which covers the upper
        # triangle; seen[top + 1] absorbs the diagonal, and the diagonal
        # entries of shared rows are marked after.
        seen = np.zeros(top + 2, dtype=bool)
        for band in _blocks(u):
            block = q[band, band.start :].astype(np.intp)
            block.ravel()[:: u - band.start + 1] = top + 1
            seen[block] = True
        if shared is not None:
            seen[q.diagonal()[shared].astype(np.intp)] = True
        distinct = np.flatnonzero(seen[:-1])
    else:
        pairs = np.triu(np.ones((u, u), dtype=bool), k=1)
        if shared is not None:
            np.fill_diagonal(pairs, shared)
        upper = q[pairs].astype(np.int64, copy=False)
        del pairs
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
    for band in _blocks(n):
        block = q[band] if rows is None else q[rows[band]]
        index = block.astype(np.intp, copy=False) if table else np.searchsorted(distinct, block)
        # a diagonal entry may index past the last rank; it is clipped
        # here and set to the code of 0.0 below (clipping also spares
        # ``take`` a buffer for ``out``)
        if rows is None:
            np.take(lookup, index, out=codes[band], mode="clip")
        else:
            coded = lookup.take(index, mode="clip")
            coded.take(rows, axis=1, out=codes[band], mode="clip")
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
    distinct, rows = _distinct_rows(cells)
    u = distinct.shape[0]
    arr = distinct.astype(_exact_float(bound), copy=False)
    del distinct
    if 2 * p * p < u * n:
        # W U, each distinct row times the number of documents that share it
        weights = None if rows is None else np.bincount(rows).astype(arr.dtype)[:, None]
        gram = (arr @ (arr.T @ (arr if weights is None else arr * weights))) @ arr.T
    else:
        gram = arr @ arr.T
        # U is u x p with p near u or above in this order: freed before
        # the second product is built
        del arr
        if rows is not None:
            # H[:, rows], the u x n block of G, frees H as it takes its place
            gram = gram[:, rows]
        # M M^T, or H H^T = H H when no row is shared; numpy hands A A^T to BLAS syrk
        gram = gram @ gram.T
    return EnergyMatrix(gram_sq=gram, ids=ids, rows=rows)


def energy_distance_vector(energy: EnergyMatrix, mode: str = "inverted") -> PairwiseDistances:
    """Max-normalized off-diagonal energies as coded n x n distances.

    The normalization maximum is taken over the energies of document
    pairs only, which leave out each document's energy with itself.
    ``inverted`` (default) returns 1 - normalized energy so that similar
    documents are close; ``raw`` returns the normalized energy itself.
    Degenerate all-zero energies give all-1 distances in inverted mode
    and all-0 in raw mode.
    """
    if mode not in DISTANCE_MODES:
        raise ValueError(f"mode must be one of {DISTANCE_MODES}, got {mode!r}")
    if energy.n < 2:
        raise ValueError("need at least two documents to form pairs")
    return _coded_distances(
        energy.gram_sq, energy.peak, None, mode == "inverted", energy.ids, energy.rows
    )


def hamming_distance_vector(matrix) -> PairwiseDistances:
    """Normalized Hamming baseline: differing positions / vector length."""
    cells, ids = _as_binary_array(matrix)
    n, p = cells.shape
    if p < 1:
        raise ValueError("vectors must have at least one dimension")
    if n < 2:
        raise ValueError("need at least two documents to form pairs")
    distinct, rows = _distinct_rows(cells)
    # G_ab <= p, and the in-place -2 G_ab + t_a + t_b below stays within
    # [-2p, 2p]
    arr = distinct.astype(_exact_float(2 * p), copy=False)
    del distinct
    gram = arr @ arr.T
    # only the u x u product is needed from here on
    del arr
    # a copy: the diagonal is a view of the buffer overwritten below
    ones = gram.diagonal().copy()
    # in place on the one u x u buffer, which ends up holding the exact
    # integer count of differing positions of every pair of distinct rows
    gram *= -2
    gram += ones[:, None]
    gram += ones[None, :]
    return _coded_distances(gram, int(gram.max()), p, False, ids, rows)


def _labels(ids: tuple[str, ...] | None, n: int) -> list[str]:
    return list(ids) if ids is not None else [str(i) for i in range(n)]


def _csv_text(rows) -> str:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def energy_matrix_to_csv(energy: EnergyMatrix) -> str:
    """Debug dump: full energy matrix with document ids as row/col headers."""
    labels = _labels(energy.ids, energy.n)
    rows = ([label, *map(repr, row.tolist())] for label, row in zip(labels, energy.values))
    return _csv_text(chain([["", *labels]], rows))


def distances_to_csv(dist: PairwiseDistances) -> str:
    """Debug dump: one ``id_i,id_j,distance`` triple per pair, in pair order,
    joined from one chunk per row of pairs (it peaks near twice its text)."""
    labels = _labels(dist.ids, dist.n)
    chunks = [_csv_text([["id_i", "id_j", "distance"]])]
    for i, row in enumerate(dist.codes):
        values = map(repr, dist.levels[row[i + 1 :]].tolist())
        chunks.append(_csv_text(zip(repeat(labels[i]), labels[i + 1 :], values)))
    return "".join(chunks)
