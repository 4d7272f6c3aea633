"""Complete-linkage agglomerative clustering with a threshold stop.

The distance between two groups is the largest distance between a member
of one and a member of the other, which favors small, cohesive, sharply
delimited groups.  Agglomeration merges the closest pair of groups until
one group remains; a partition is then obtained by keeping exactly the
merges at distance <= alpha.  Because complete linkage is monotone
(merge distances never decrease), building the full dendrogram once and
cutting it per threshold is behavior-identical to stopping the
agglomeration loop at the first merge above alpha, and far cheaper when
sweeping 100 thresholds.

Tie-breaking: when several group pairs share the minimal distance, each
group is represented by its smallest member index and the pair with the
lexicographically least (smaller representative, larger representative)
is merged.  This makes dendrograms identical across runs and platforms.
The loop keeps each group in the square-matrix slot of its smallest
member (a merge keeps the lower slot), so this rule is simply the first
minimum of the active square in row-major order: that minimum has the
least row, which is the smaller representative, and within the row the
least column, which is the larger one.  On a symmetric square that first
minimum never lies left of the diagonal, so it is also the first minimum
of the first row whose minimum to the right of the diagonal is least.

The loop runs on the rank codes of the distances (see
``defclust.distance``), not on the floats: complete linkage only
compares distances and takes maxima, so a strictly increasing
relabelling gives the same merges, and the heights are read back from
the levels.  A retired slot takes the sentinel, the largest value of the
codes' dtype, which lies above every code.

The loop finds that pair without scanning the square.  Each row i keeps
a cached neighbour ``nn[i]`` and distance ``nnd[i]``, taken as the first
minimum of the row over the columns j > i.  Complete linkage only raises
distances (a merged row is the maximum of its two parents, and a retired
slot takes the sentinel), so ``nnd[i]`` stays a lower bound on the row's
true minimum to the right, and the cache is exact while
``d[i, nn[i]] == nnd[i]``: no column before ``nn[i]`` could have dropped
to that value.  Each merge takes ``a``, the first row of least ``nnd``;
if its cache is stale, row a alone is rescanned and the pick is made
again.  Once the picked row is exact, no earlier row can reach its
minimum (their bounds are strictly larger) and no later row can go
below it (their bounds are not smaller), so the pair is exactly the
first row-major minimum above.  Stale rows are rescanned only when they
come up, one to three times per merge on the bundled and generated
corpora, which makes the loop O(n^2) in typical use; a worst case that
rescans every row at every merge is still O(n^3).

The loop works in place on the codes and needs no working copy of them.
The distance of the groups in slots i < j sits at ``d[i, j]``: the loop
writes only the strict upper triangle and the diagonal, and reads the
lower triangle only while the codes are still symmetric, at the start.
When it returns or raises, it copies the lower triangle back over the
upper one and resets the diagonal to 0, so the codes end byte for byte
as they began; in between, another thread must not read them.

Threshold comparison is inclusive (<= alpha) and exact: no epsilon is
applied, since distances arrive as deterministic values from the
distance module and an epsilon would silently move zone boundaries.
"""

from __future__ import annotations

import csv
import io
import json
import numbers
from dataclasses import dataclass

import numpy as np

from .distance import PairwiseDistances


@dataclass(frozen=True)
class Merge:
    left: int
    right: int
    distance: float
    new_id: int


@dataclass(frozen=True)
class Dendrogram:
    """Full merge tree over n items.

    Leaves carry ids 0..n-1; the k-th merge creates cluster id n+k.  The
    ``left`` side of a merge is the cluster containing the smaller item
    index.  ``ids`` optionally maps item indices to external labels
    (document ids).
    """

    n: int
    merges: tuple[Merge, ...]
    ids: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.merges) != self.n - 1:
            raise ValueError(
                f"a dendrogram over {self.n} items needs {self.n - 1} merges, "
                f"got {len(self.merges)}"
            )
        for earlier, later in zip(self.merges, self.merges[1:]):
            if later.distance < earlier.distance:
                raise ValueError("merge distances must be non-decreasing")
        if self.ids is not None and len(self.ids) != self.n:
            raise ValueError("ids length must match n")


@dataclass(frozen=True)
class Clustering:
    """Threshold-cut partition: groups of items plus the rest."""

    alpha: float
    groups: tuple[tuple[int, ...], ...]
    ungrouped: tuple[int, ...]
    ids: tuple[str, ...] | None = None

    def label(self, item: int):
        return self.ids[item] if self.ids is not None else item

    def labeled_groups(self) -> list[list]:
        return [[self.label(i) for i in group] for group in self.groups]

    def labeled_ungrouped(self) -> list:
        return [self.label(i) for i in self.ungrouped]

    def grouped_count(self) -> int:
        return sum(len(group) for group in self.groups)

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "groups": self.labeled_groups(),
            "ungrouped": self.labeled_ungrouped(),
        }


def check_alpha(alpha) -> float:
    """``alpha`` as a float, once it is a real number in [0, 1].

    A bool, a string or any other non-real value, NaN, and values outside
    [0, 1] raise ``ValueError``.
    """
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real):
        raise ValueError(f"alpha must be a real number, got {alpha!r}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return float(alpha)


def build_dendrogram(dist: PairwiseDistances) -> Dendrogram:
    """Agglomerate all items under complete linkage.

    Runs in place on ``dist.codes`` with maximum-update (Lance-Williams
    for complete linkage): after merging clusters a and b, the distance
    of the union to any other cluster is max(d(a, .), d(b, .)).  The next
    pair comes from the cached nearest neighbours described in the module
    docstring, and its height is ``dist.levels`` at its code.  The loop
    writes only the strict upper triangle and the diagonal of the codes,
    and on return or on an exception restores them from the lower
    triangle, so ``dist`` ends as it began; it is not safe against another
    thread reading ``dist.codes`` meanwhile.
    """
    n = dist.n
    if n < 2:
        raise ValueError("need at least two items to cluster")
    d = dist.codes
    retired = np.iinfo(d.dtype).max
    heights = dist.levels.tolist()
    cluster_id = list(range(n))
    merges = []
    try:
        np.fill_diagonal(d, retired)
        rows = np.arange(n)
        first = d.argmin(axis=1)
        # The minimum over the whole row bounds the one to the right from
        # below.  Where it lies left of the diagonal, nn[i] = i points at the
        # retired diagonal, so the row reads as stale until it is rescanned.
        nnd = d[rows, first]
        nnd[n - 1] = retired
        nn = np.maximum(first, rows).tolist()
        for new_id in range(n, 2 * n - 1):
            a = int(nnd.argmin())
            while d.item(a, nn[a]) != nnd.item(a):
                right = d[a, a + 1 :]
                j = int(right.argmin())
                nn[a] = a + 1 + j
                nnd[a] = right[j]
                a = int(nnd.argmin())
            b = nn[a]
            # a keeps the merged cluster, b goes inactive; the distance of
            # slots i < j sits at d[i, j], so a's entries against k < a, a <
            # k < b and k > b each take the maximum with b's
            above = d[:a, a]
            np.maximum(above, d[:a, b], out=above)
            between = d[a, a + 1 : b]
            np.maximum(between, d[a + 1 : b, b], out=between)
            after = d[a, b + 1 :]
            np.maximum(after, d[b, b + 1 :], out=after)
            # Only the rows above b scan column b again.  Through later
            # merges, row b flows only into itself and into the retired
            # column b, and no scan reads it.
            d[:b, b] = retired
            merges.append(
                Merge(
                    left=cluster_id[a],
                    right=cluster_id[b],
                    distance=heights[nnd.item(a)],
                    new_id=new_id,
                )
            )
            nnd[b] = retired
            cluster_id[a] = new_id
    finally:
        _restore_upper(d)
    # Dendrogram.__post_init__ re-checks that distances are non-decreasing,
    # which complete linkage guarantees.
    return Dendrogram(n=n, merges=tuple(merges), ids=dist.ids)


_RESTORE_ROWS, _RESTORE_COLS = 128, 1024
"""Tile that ``_restore_upper`` copies at a time: wide enough to keep the
calls few, short enough that its transposed read stays in cache (whole
bands of rows read 4 times slower at n=4000)."""


def _restore_upper(d: np.ndarray) -> None:
    """Copy the lower triangle of the square ``d`` over the upper one and
    set the diagonal to 0, tile by tile: the tiles right of each band's
    diagonal block are the transposes of the tiles below it."""
    n = d.shape[0]
    upper = np.tri(_RESTORE_ROWS, k=-1, dtype=bool).T
    for start in range(0, n, _RESTORE_ROWS):
        band = slice(start, start + _RESTORE_ROWS)
        block = d[band, band]
        size = len(block)
        np.copyto(block, block.T, where=upper[:size, :size])
        for col in range(start + size, n, _RESTORE_COLS):
            cols = slice(col, col + _RESTORE_COLS)
            d[band, cols] = d[cols, band].T
    np.fill_diagonal(d, 0)


def cut_at_threshold(
    tree: Dendrogram, alpha: float, min_size: int = 2
) -> Clustering:
    """Partition obtained by keeping merges at distance <= alpha.

    Merges are replayed in order and replay stops at the first merge
    exceeding alpha.  Resulting clusters with at least ``min_size``
    members are reported as groups; all other items are ungrouped.  At
    alpha = 1.0 every item falls into one absolute group, since all
    distances are at most 1 by construction.
    """
    alpha = check_alpha(alpha)
    if min_size < 1:
        raise ValueError(f"min_size must be positive, got {min_size}")
    members: dict[int, list[int]] = {i: [i] for i in range(tree.n)}
    for merge in tree.merges:
        if merge.distance > alpha:
            break
        merged = members.pop(merge.left) + members.pop(merge.right)
        members[merge.new_id] = merged
    groups = []
    ungrouped: list[int] = []
    for cluster in members.values():
        if len(cluster) >= min_size:
            groups.append(tuple(sorted(cluster)))
        else:
            ungrouped.extend(cluster)
    groups.sort(key=lambda g: g[0])
    return Clustering(
        alpha=alpha,
        groups=tuple(groups),
        ungrouped=tuple(sorted(ungrouped)),
        ids=tree.ids,
    )


def clustering_from_json_dict(record: dict) -> Clustering:
    """Rebuild a Clustering from its JSON form (labels become items).

    ``alpha`` must pass :func:`check_alpha`, ``groups`` must be a list of
    non-empty lists and ``ungrouped`` a list, at least one label must occur
    and no label may occur twice; anything else raises ``ValueError``.
    """
    for field in ("alpha", "groups", "ungrouped"):
        if field not in record:
            raise ValueError(f"clustering JSON is missing field {field!r}")
    alpha = check_alpha(record["alpha"])
    if not isinstance(record["groups"], list) or not all(
        isinstance(group, list) and group for group in record["groups"]
    ):
        raise ValueError("groups must be a list of non-empty lists")
    if not isinstance(record["ungrouped"], list):
        raise ValueError("ungrouped must be a list")
    seen = set()
    grouped = [label for group in record["groups"] for label in group]
    for label in grouped + record["ungrouped"]:
        if label in seen:
            raise ValueError(f"label {label!r} occurs more than once")
        seen.add(label)
    if not seen:
        raise ValueError("groups and ungrouped list no document")
    labels = sorted(seen)
    position = {label: i for i, label in enumerate(labels)}
    groups = tuple(
        tuple(sorted(position[label] for label in group))
        for group in record["groups"]
    )
    return Clustering(
        alpha=alpha,
        groups=tuple(sorted(groups, key=lambda g: g[0])),
        ungrouped=tuple(sorted(position[label] for label in record["ungrouped"])),
        ids=tuple(labels),
    )


def dendrogram_to_csv(tree: Dendrogram) -> str:
    """Merge-list CSV: one ``left_id,right_id,distance,new_id`` row per merge.

    Distances are written with repr so they round-trip exactly.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["left_id", "right_id", "distance", "new_id"])
    for merge in tree.merges:
        writer.writerow([merge.left, merge.right, repr(merge.distance), merge.new_id])
    return buffer.getvalue()


def clustering_to_json(clustering: Clustering) -> str:
    return json.dumps(clustering.to_json_dict(), ensure_ascii=False, indent=2)
