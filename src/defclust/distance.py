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
energies of the distinct rows, a u x u square.  Document i reads its
energies from row ``rows[i]`` of that square.  With H = U U^T, the
square is

    E_ab = (G G)_ab = sum_k G_ak G_kb = sum_c H_ac w_c H_cb,

that is H W H = U (U^T W U) U^T.  A term H_ac (w_c H_cb) of H (W H)
adds as one the w_c equal terms of the original n-term sum whose
document k lies in class c, and a term w_c U_ck U_cl of U^T W U adds
the w_c equal ones that a class holds, so every entry, intermediate
value and partial sum below is still a sum of non-negative terms of
the original sum, and the bounds below, in n, hold unchanged.  The
rows are shared only when 2u <= n (see ``_distinct_rows``); otherwise
every document keeps its own row, u is taken to be n, the weights are
left out, and the products are those of X itself.

The products run in floating point, so numpy hands them to BLAS, and
they are kept in that float type: every entry is an exact integer, so
no integer copy is made.  With p terms, the order is the one of fewer
multiply-adds: U (U^T W U) U^T takes 2 u p^2 + u^2 p, and H then
H (W H) takes u^2 p + u^3, so the first, the factor order, is taken
when 2 p^2 < u^2.  With u = n these are X (X^T X) X^T and
(X X^T)(X X^T), and then G G runs as G G^T, which numpy hands to BLAS
syrk.  In the factor order ``energy_matrix`` stops at the factors: U,
kept as its uint8 cells, and the u x p matrix B = U (U^T W U).  U^T W U
and B are built over blocks of rows of U, so that no float copy of the
whole of U is made.  The square U B^T is never built whole: the
distances read it one tile at a time (``_upper_tiles``), the product of
a block of rows of B with a band of U, cast once to floats.  In the
Gram order ``energy_matrix`` keeps the square H (W H).

This is exact integer arithmetic: every cell is 0 or 1, so every
product term is a non-negative integer, and any partial sum, in any
blocking, thread split or FMA order, is a sum of a subset of an entry's
terms and so at most that entry.  The intermediate entries are bounded
by the result too: (U^T W U)_kl <= n, (W H)_cb = w_c H_cb <= n * t_max,
and B_ak = sum_c H_ac w_c U_ck is at most sum_c w_c H_ac^2 = E_aa, the
energy of row a with itself, since the integer H_ac is 0, where both
terms vanish, or at least 1, where H_ac U_ck <= H_ac <= H_ac^2.  The
square is a Gram matrix, E = (H W^1/2)(H W^1/2)^T, so E_ab <=
sqrt(E_aa E_bb): the largest energy, the ``peak``, lies on the
diagonal, and every entry, intermediate and partial sum is at most
that peak.  With t_max the largest number of distinct terms in one
document, H_ac <= t_max, so all of them are at most n * t_max^2,
whatever u is.  A float type holds every integer below its limit
exactly, 2^24 for float32 and 2^53 for float64, so the product runs in
float32 when n * t_max^2 < 2^24 and in float64 otherwise, and either
way every entry equals the int64 product.  float32 halves the
product's memory and about halves its time; it covers, for instance,
4,000 documents of up to 64 terms each.  Then from the product to the
distances nearly all the memory is the rank codes below and, in the
factor order, U and B (5 u p bytes) or, in the Gram order, the float32
square (4 u^2 bytes).  In float64 the bound is only reached at
n * t_max^2 >= 2^53 (``EXACT_INT_LIMIT``): for instance 10,000
documents of about 950,000 terms each, far beyond any n x n matrix that
fits in memory.  ``energy_matrix`` checks the computed peak, the
largest diagonal entry, with E_aa = sum_k B_ak U_ak taken as B is built
in the factor order: every operand is non-negative and rounding is
monotone, so a computed value is exact while its exact value stays
below 2^53 and at least 2^53 once the exact value reaches it, and a
peak below 2^53 proves that no entry reached the limit; at or above it
``DataError`` is raised.  A hand-built ``EnergyMatrix`` may hold any
square, so it takes the maximum in the sweep that checks symmetry, sign
and whole numbers; either way the distances cast the entries
unchecked.  The Hamming count takes the same rule with the bound 2p
(``hamming_distance_vector``), over the same distinct rows.  The 1/2
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
index of its distance in ``levels``: 1 byte a pair up to 255 levels,
else 2, or 4 past 65,535, instead of 8.  Both distance kinds come from
integers q (energies, or counts of differing positions) through one
float division, so two integers whose floats round to one value share a
code.  One walk over the ``_upper_tiles`` of the u x u square q reads
each tile once, so it takes the multiply-adds of half a square, and
writes its integers above the diagonal of a zeroed u x u square of the
narrowest unsigned type that holds one past the bound of q.  The tiles
come from the factors, from a square, or, for the Hamming count
t_a + t_b - 2 H_ab (t_a the terms of row a), from the product of U with
itself.  The pairs of the n documents are (a, b) for rows a != b, and
(a, a) for each row a that two or more documents share: the diagonal
keeps q[a, a] for such a row and, for the others, takes a value no pair
holds, one past the bound.  The distinct integers are marked in a table
over 0..bound when that bound is below u^2, else sorted once.  One
relabel takes the square to codes a block of rows at a time, in place
when they take as many bytes: an integer reads its code from the table
at its own index, or finds it by binary search among the sorted ones.
One mirror pass then copies the codes above the diagonal below it.  The
u x u codes are then taken to n x n in one pass when documents share
rows, so no n x n float square is built.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .corpus import BinaryDocTermMatrix, check_binary_cells
from .errors import DataError

DISTANCE_MODES = ("inverted", "raw")

EXACT_INT_LIMIT = 2**53
"""Energies must stay below this: float64 holds every smaller integer exactly."""

_BLOCK_ROWS = 64
"""Rows of a square handled at a time, so that no whole-square temporary
is made: of the bands of ``_upper_tiles``, of the blocks of integers
relabelled to codes, and of B as it is built.  At n = 1000 the product
tiles of 64-row bands take a quarter less time than those of 32, and a
sweep of a few hundred documents peaks a quarter higher with 128-row
bands than with 64."""


def _blocks(n: int, rows: int = _BLOCK_ROWS) -> list[slice]:
    """Consecutive slices of ``rows`` rows covering 0..n."""
    return [slice(i, min(i + rows, n)) for i in range(0, n, rows)]


_TILE_COLS = 1024
"""Columns of a tile of ``_upper_tiles``: a tile and its transpose stay
in cache, where a whole band of 4,000 columns read against its
transpose takes twice to three times as long."""


def _upper_bands(n: int):
    """(rows, [cols, ...]) slices that cover the upper triangle of an n x n
    square once, diagonal included: each band of ``_BLOCK_ROWS`` rows from
    its diagonal on, in tiles of at most ``_TILE_COLS`` columns.  The
    first tile of a band also holds the lower half of its diagonal block.
    Every read of a square's upper triangle walks these tiles."""
    for rows in _blocks(n):
        yield rows, [slice(col, min(col + _TILE_COLS, n)) for col in range(rows.start, n, _TILE_COLS)]


def _upper_tiles(n: int):
    """The (rows, cols) tiles of ``_upper_bands``, one at a time."""
    for rows, tiles in _upper_bands(n):
        for cols in tiles:
            yield rows, cols


def _symmetric_tiles(square: np.ndarray, message: str):
    """The ``_upper_tiles`` of ``square``, each first compared with its
    transpose below the diagonal; a mismatch is a ``ValueError(message)``.
    They hold every value of a symmetric square."""
    for rows, cols in _upper_tiles(square.shape[0]):
        upper = square[rows, cols]
        if not np.array_equal(upper, square[cols, rows].T):
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
    the rows map (8n bytes) and the u x u codes beside the n x n ones,
    while u = n - 1 rows save only one row of each product.  With
    2u <= n every array built from the u rows, each square and each
    band's temporaries, is at most its counterpart over the n rows, so
    the energies and distances never take more memory than without
    sharing.
    """
    n = cells.shape[0]
    # C-ordered, as the row view needs, whatever the order of ``cells``
    packed = np.ascontiguousarray(
        np.packbits(cells if cells.dtype.kind in "biu" else cells != 0, axis=1)
    )
    keys = packed.view(f"V{packed.shape[1]}").ravel().tolist() if packed.shape[1] else [b""] * n
    # read backwards, the last row written for a key is its first
    first = dict(zip(reversed(keys), range(n - 1, -1, -1)))
    if 2 * len(first) > n:
        return cells, None
    firsts = np.sort(np.fromiter(first.values(), dtype=np.intp, count=len(first)))
    first_of = np.fromiter(map(first.__getitem__, keys), dtype=np.intp, count=n)
    # each document's first occurrence, ranked among the first occurrences
    return cells[firsts], np.searchsorted(firsts, first_of)


def _fill(obj, **fields):
    """``obj`` with ``fields`` set, though its class is read-only; on
    ``object.__new__(cls)`` it makes an instance with none of the checks
    of ``cls``, for what the library writes from checked inputs."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _checked_peak(peak, n: int) -> int:
    """``peak`` as an int, or ``DataError`` at or above ``EXACT_INT_LIMIT``."""
    if peak >= EXACT_INT_LIMIT:
        raise DataError(
            f"second-order energy {peak} for n={n} documents "
            f"reaches the exact-integer limit 2^53 = {EXACT_INT_LIMIT}"
        )
    return int(peak)


class EnergyMatrix:
    """Pairwise interaction-energy magnitudes |e_ij|.

    ``gram_sq`` is the integer matrix (U U^T) W (U U^T) of the u
    distinct document rows (see the module docstring), and document i
    has its row ``rows[i]``, so e_ij = gram_sq[rows[i], rows[j]] / 2.
    ``rows`` of None stands for one row per document.  ``peak`` is the
    largest entry, the largest of the n x n energies too.

    ``EnergyMatrix(gram_sq, ids, rows)`` holds a square of exact
    non-negative integers, as int64 or as floats.  It must be symmetric,
    every entry must stay below ``EXACT_INT_LIMIT``, and ``rows`` must
    use every row; symmetry, sign, whole numbers and ``peak`` come from
    one sweep of ``_symmetric_tiles``.  ``energy_matrix`` builds it from
    checked cells with none of these sweeps.  In the factor order it
    holds only the factors: U as uint8 cells (the matrix's own array
    when that is uint8 and no row is shared) and B = U (U^T W U) in the
    float type of the product.  ``gram_sq`` is then U B^T, built in that
    float type on each access, and so are ``values``.  In the Gram order
    it holds the square.  Its attributes are read-only.
    """

    # ``_cells`` is U, or None when ``_product`` is the square itself
    __slots__ = ("ids", "rows", "peak", "_cells", "_product")

    def __init__(self, gram_sq, ids=None, rows=None) -> None:
        q = gram_sq
        if not isinstance(q, np.ndarray) or q.dtype.kind not in "biuf":
            raise ValueError("energy matrix must be a bool, integer or float array")
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("energy matrix must be square")
        if rows is not None:
            rows = np.asarray(rows)
            if rows.ndim != 1 or rows.dtype.kind not in "iu":
                raise ValueError("rows must be a one-dimensional integer array")
            if rows.size and not (0 <= rows.min() and rows.max() < q.shape[0]):
                raise ValueError("rows must index rows of the energy matrix")
            rows = rows.astype(np.intp, copy=False)
            # an unused row would add its entries to the distance levels
            if not np.bincount(rows, minlength=q.shape[0]).all():
                raise ValueError("rows must use every row of the energy matrix")
        peak = 0
        for upper in _symmetric_tiles(q, "energy matrix must be symmetric"):
            if upper.min() < 0:
                raise ValueError("energy magnitudes must be non-negative")
            # the distances cast the square to integers, which would truncate
            if q.dtype.kind == "f" and not (np.trunc(upper) == upper).all():
                raise ValueError("pair distances need whole numbers, got a fraction")
            peak = max(peak, upper.max())
        n = q.shape[0] if rows is None else rows.size
        peak = _checked_peak(peak, n)
        if ids is not None and len(ids) != n:
            raise ValueError("ids length must match the number of documents")
        _fill(self, ids=ids, rows=rows, peak=peak, _cells=None, _product=q)

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a read-only EnergyMatrix")

    def __repr__(self) -> str:
        return f"EnergyMatrix(n={self.n}, peak={self.peak}, ids={self.ids!r})"

    @property
    def n(self) -> int:
        """The number of documents."""
        return self._product.shape[0] if self.rows is None else self.rows.size

    @property
    def gram_sq(self) -> np.ndarray:
        """The u x u square, in the float type of the product when
        ``energy_matrix`` built it; from the factors it is a new array."""
        if self._cells is None:
            return self._product
        return self._cells.astype(self._product.dtype) @ self._product.T

    @property
    def values(self) -> np.ndarray:
        """n x n energy magnitudes e_ij as float64 (exact halves of integers)."""
        q = self.gram_sq
        if self.rows is not None:
            q = q[np.ix_(self.rows, self.rows)]
        return np.divide(q, 2.0, dtype=np.float64)


def _code_dtype(n_levels: int):
    """The smallest of uint8, uint16 and uint32 that holds the codes
    0..n_levels-1 and one sentinel above them."""
    if n_levels < 2**8:
        return np.uint8
    return np.uint16 if n_levels < 2**16 else np.uint32


@dataclass(frozen=True)
class PairwiseDistances:
    """Symmetric n x n distances in [0, 1] with a zero diagonal, as rank codes.

    ``levels`` holds the distinct float64 distances in increasing order,
    starting with the 0.0 of the diagonal.  ``codes`` is the n x n square
    of their indices, so the distance of (i, j) is
    ``levels[codes[i, j]]``.  It is ``uint8`` while the levels and one
    sentinel value above them fit in 1 byte, ``uint16`` while they fit
    in 2, else ``uint32`` (``_code_dtype``); the largest value of the
    dtype is never a code, which leaves it free for ``build_dendrogram``
    to mark retired slots.  That loop works in the codes in place, so
    they are kept C-contiguous and writable: read-only or Fortran-ordered
    codes are copied.  ``values`` (the condensed SciPy view: the upper
    triangle flattened row-major, (0,1), (0,2), ..., (0,n-1), (1,2), ...,
    (n-2,n-1)) is built from the codes on each access.
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
        if codes.dtype not in (np.uint8, np.uint16, np.uint32):
            raise ValueError(f"codes must be uint8, uint16 or uint32, got {codes.dtype}")
        if not (
            isinstance(levels, np.ndarray)
            and levels.dtype == np.float64 and levels.ndim == 1 and levels.size
        ):
            raise ValueError("levels must be a non-empty one-dimensional float64 array")
        if levels.size > np.iinfo(codes.dtype).max:
            raise ValueError(f"{levels.size} levels leave no sentinel in {codes.dtype}")
        # NaN fails every comparison
        if not (levels[0] == 0.0 and levels[-1] <= 1.0 and (levels[1:] > levels[:-1]).all()):
            raise ValueError("levels must rise strictly from 0.0 and stay within [0, 1]")
        if codes.diagonal().any():
            raise ValueError("the distance of an item to itself must be 0")
        # the row-major tie rule of build_dendrogram relies on symmetry
        for upper in _symmetric_tiles(codes, "pair distances must be symmetric"):
            if int(upper.max()) >= levels.size:
                raise ValueError("every code must index a level")
        if self.ids is not None and len(self.ids) != self.n:
            raise ValueError("ids length must match n")

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    @property
    def values(self) -> np.ndarray:
        """Condensed copy: one value per unordered pair, in pair order."""
        return self.levels[self.codes[np.triu_indices(self.n, k=1)]]


def _integer_levels(
    distinct: np.ndarray, divisor: int, inverted: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Levels of the distances of ascending distinct integers q, and the
    code of each q.

    q gives q / divisor, or 1.0 - q / divisor when ``inverted``; a zero
    divisor gives q itself, which is then 0.  Division and subtraction
    round monotonically, so the floats ascend with q (descend when
    inverted), and integers that round to one float share its code.
    0.0 is always the first level.  The floats are written in place into
    one float64 buffer after that 0.0, and one bool buffer marks each
    float that differs from the one before it: the levels are the marked
    floats, and the codes the running count of marks, in the codes' own
    dtype.  The marks stand in for ``np.unique``, whose first call
    imports ``numpy.ma``.
    """
    values = np.empty(distinct.size + 1)
    values[0] = 0.0
    floats = values[1:]
    # ascending floats: the q in descending order when inverted
    np.divide(distinct[::-1] if inverted else distinct, divisor or 1, out=floats)
    if inverted:
        np.subtract(1.0, floats, out=floats)
    marks = np.empty(values.size, dtype=bool)
    marks[0] = True
    np.not_equal(floats, values[:-1], out=marks[1:])
    codes = np.cumsum(marks[1:], dtype=_code_dtype(int(np.count_nonzero(marks))))
    return values[marks], codes[::-1] if inverted else codes


def _product_band(cells: np.ndarray, product: np.ndarray, rows: slice):
    """``tile(cols)``, the block ``product[cols] @ cells[rows].T`` in the
    float type of ``product``: the band of ``cells`` is cast once, for all
    the tiles of its band.  With the long block of ``product`` on the left
    the tile comes C-ordered, and BLAS takes it a tenth to a third faster
    than its transpose at n = 1000-4000."""
    left = cells[rows].astype(product.dtype, copy=False)
    return lambda cols: product[cols] @ left.T


def _coded_distances(
    source,
    u: int,
    top: int,
    divisor: int | None,
    inverted: bool,
    ids: tuple[str, ...] | None,
    rows: np.ndarray | None,
) -> PairwiseDistances:
    """Distances of n documents from a symmetric u x u square q of exact
    non-negative integers over their distinct rows: document i has row
    ``rows[i]`` (row i, and u = n, when ``rows`` is None), and the
    distance of the pair (i, j) is q[rows[i], rows[j]] / divisor
    (``_integer_levels``).  ``top`` bounds q; a ``divisor`` of None
    stands for the largest q of a pair.  For each band of rows of
    ``_upper_bands``, ``source(rows)`` gives ``tile``, and for each of
    the band's tiles cols ``tile(cols)`` gives its mirror q[cols, rows]
    in any numeric dtype: from an ``EnergyMatrix``, which checked or
    bounded its integers, or the Hamming count, exact as built, so every
    cast of an entry is exact.

    One walk reads every tile once and writes its integers above the
    diagonal of a zeroed u x u square of the narrowest unsigned type that
    holds top + 1, the value of no pair.  The two forks differ only in
    how they find the distinct integers and how an integer finds its
    code.  With ``top`` below u^2 the integers of the upper tiles are
    marked in a table over 0..top, and an integer reads its code from the
    table at its own index.  Otherwise they are copied out in the raw
    type and sorted once, and an integer finds its code by
    ``searchsorted`` among the distinct ones.  One relabel then takes
    whole blocks of rows of the square to codes, in place when they take
    as many bytes, and one mirror pass copies each upper tile's codes
    below the diagonal.  The codes are written unchecked, symmetric and
    with a zero diagonal, every code indexing a level.
    """
    raw = np.zeros((u, u), dtype=np.min_scalar_type(top + 1))
    for band, tiles in _upper_bands(u):
        tile = source(band)
        for cols in tiles:
            raw[band, cols] = tile(cols).T
    # the last band's source holds its rows of the factors
    del tile
    # the pair rule: q[a, a] for a row that two documents share, else
    # top + 1, which no pair holds
    shared = np.zeros(u, dtype=bool) if rows is None else np.bincount(rows) > 1
    np.fill_diagonal(raw, np.where(shared, raw.diagonal(), top + 1))
    upper = [raw[band, cols] for band, cols in _upper_tiles(u)]
    table = top < u * u
    if table:
        seen = np.zeros(top + 2, dtype=bool)
        for block in upper:
            seen[block] = True
        distinct = np.flatnonzero(seen[:-1])
    else:
        # no pair, top + 1, sorts last, once on the diagonal of each row
        # that no two documents share
        kept = np.concatenate(upper, axis=None)
        kept.sort()
        kept = kept[: kept.size - (u - int(np.count_nonzero(shared)))]
        distinct = kept[np.concatenate(([True], kept[1:] != kept[:-1]))]
        del kept
    del upper
    divisor = int(distinct[-1]) if divisor is None else divisor
    levels, ranks = _integer_levels(distinct, divisor, inverted)
    if table:
        lookup = np.zeros(top + 1, dtype=ranks.dtype)
        lookup[distinct] = ranks
        # the relabel, where the distances peak, then holds nothing that
        # grows with the levels: they are taken again from ``seen``
        del distinct, levels
    else:
        # ``take`` copies a lookup that is not contiguous, as inverted
        # ranks are, at each call
        lookup = np.ascontiguousarray(ranks)
    del ranks
    codes = raw if lookup.dtype == raw.dtype else np.empty((u, u), dtype=lookup.dtype)
    for band in _blocks(u):
        for col in range(0, u, _TILE_COLS):
            cols = slice(col, col + _TILE_COLS)
            index = raw[band, cols] if table else np.searchsorted(distinct, raw[band, cols])
            # no pair, and the zeros below the diagonal, take codes that
            # are overwritten (clipping also spares ``take`` a buffer)
            np.take(lookup, index, out=codes[band, cols], mode="clip")
            del index
    del raw, lookup
    for band, cols in _upper_tiles(u):
        # the diagonal block of a band's first tile is already symmetric
        rest = slice(max(cols.start, band.stop), cols.stop)
        codes[rest, band] = codes[band, rest].T
    if table:
        levels = _integer_levels(np.flatnonzero(seen[:-1]), divisor, inverted)[0]
    if rows is not None:
        # each document takes its row's codes, a block of documents at a time
        square, codes = codes, np.empty((rows.size, rows.size), dtype=codes.dtype)
        for band in _blocks(rows.size):
            square.take(rows[band], axis=0).take(rows, axis=1, out=codes[band], mode="clip")
    np.fill_diagonal(codes, 0)
    return _fill(object.__new__(PairwiseDistances), codes=codes, levels=levels, ids=ids)


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
    distinct, rows = _distinct_rows(cells)
    u = distinct.shape[0]
    # every entry, intermediate and partial sum is at most n * t_max^2;
    # counted over the distinct rows, the count's bool temporary is u x p
    bound = n * int(np.count_nonzero(distinct, axis=1).max()) ** 2
    dtype = _exact_float(bound)
    # W, the number of documents that share each distinct row, as a column
    weights = None if rows is None else np.bincount(rows).astype(dtype)[:, None]
    if 2 * p * p < u * u:
        cells = distinct.astype(np.uint8, copy=False)
        del distinct
        # U^T W U summed over blocks of p rows: a block's float copy is no
        # larger than the p x p sum, and blocks that large keep BLAS near
        # the speed of one product
        inner = np.zeros((p, p), dtype=dtype)
        for band in _blocks(u, max(p, _BLOCK_ROWS)):
            left = cells[band].astype(dtype)
            inner += left.T @ (left if weights is None else left * weights[band])
        # B = U (U^T W U) a band at a time, and with it the diagonal
        # U B^T, where the largest energy lies
        product = np.empty((u, p), dtype=dtype)
        diagonal = np.empty(u, dtype=dtype)
        for band in _blocks(u):
            left = cells[band].astype(dtype)
            np.matmul(left, inner, out=product[band])
            diagonal[band] = np.einsum("ij,ij->i", product[band], left)
    else:
        arr = distinct.astype(dtype, copy=False)
        del distinct
        gram = arr @ arr.T
        # U is u x p with p near u or above in this order: freed before
        # the second product is built
        del arr
        # H H^T = H H when no row is shared, which numpy hands to BLAS syrk
        cells, product = None, gram @ (gram.T if weights is None else gram * weights)
        diagonal = product.diagonal()
    peak = _checked_peak(diagonal.max(), n)
    return _fill(
        object.__new__(EnergyMatrix), ids=ids, rows=rows, peak=peak, _cells=cells, _product=product
    )


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
    q, cells = energy._product, energy._cells
    if cells is None:
        source = lambda rows: lambda cols: q[cols, rows]
    else:
        source = lambda rows: _product_band(cells, q, rows)
    return _coded_distances(
        source, q.shape[0], energy.peak, None, mode == "inverted", energy.ids, energy.rows
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
    # H_ab <= p, and the in-place -2 H_ab + t_a + t_b below stays within
    # [-2p, 2p] and ends at most p and at most t_a + t_b, the top of the
    # codes
    arr = distinct.astype(_exact_float(2 * p), copy=False)
    del distinct
    ones = np.count_nonzero(arr, axis=1)
    top = min(p, 2 * int(ones.max()))
    ones = ones.astype(arr.dtype)

    def source(rows: slice):
        gram = _product_band(arr, arr, rows)

        def tile(cols: slice) -> np.ndarray:
            # the exact count of differing positions of each pair of the tile
            count = gram(cols)
            count *= -2
            count += ones[cols, None]
            count += ones[rows]
            return count

        return tile

    return _coded_distances(source, arr.shape[0], top, p, False, ids, rows)


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
