"""Adapted recall and precision, threshold sweep, and zone reporting.

Recall is the proportion of documents integrated into a reported group
out of the whole collection; precision is the proportion of grouped
documents that are not intruders.  Both take the value 0 when no group
of at least two documents exists, and they are reported separately (no
F-measure): precision rests on sense judgments while recall is purely
mechanical, so combining them would blur the results.

Intruder identification mechanizes the human reading it replaces: within
each group the majority gold-sense label is the group's sense, and every
member carrying a different label is an intruder.  A group therefore has
``size - top`` intruders, where ``top`` is its largest sense count: any
label that wins, under any tie rule, is carried by ``top`` members.  The
tie rule only decides which members a report marks, and the sweep scores
every threshold from per-cluster sense counts alone.  A gold sense must
equal itself to be counted, so NaN is rejected on load.

The alpha axis divides into behavior zones.  The published bounds
overlap at 0.85 and leave (0.70, 0.75) unassigned, so classification
here uses the repaired half-open partition

    zone1:  alpha <= 0.70        zone2: 0.70 < alpha <= 0.85
    zone3:  0.85 < alpha < 1.00  absolute: alpha = 1.00

which every zone-annotated output of this package follows.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .corpus import jsonl_records, parse_jsonl_corpus, sense_label_fault
from .errors import DataError, read_utf8
from .hac import Clustering, Dendrogram, check_alpha, cut_at_threshold

ZONES = ("zone1", "zone2", "zone3", "absolute")

ZONE_NOTE = (
    "zones: zone1 a<=0.70, zone2 0.70<a<=0.85, zone3 0.85<a<1.00, "
    "absolute a=1.00 (half-open repair of overlapping published bounds)"
)

SWEEP_CSV_HEADER = ("alpha", "num_groups", "precision", "recall", "zone")


@dataclass(frozen=True)
class GoldAnnotation:
    """Gold sense label (acception id) for every document under evaluation."""

    sense_of: Mapping

    @classmethod
    def from_documents(cls, docs) -> "GoldAnnotation":
        missing = [doc.id for doc in docs if doc.gold_sense is None]
        if missing:
            raise DataError(
                f"documents without gold_sense: {', '.join(map(repr, missing[:5]))}"
                + (" ..." if len(missing) > 5 else "")
            )
        return cls(sense_of={doc.id: doc.gold_sense for doc in docs})

    @classmethod
    def load(cls, path: str | Path) -> "GoldAnnotation":
        """Gold file: JSONL of {"id", "sense"}, or a corpus with gold_sense.

        The first record decides: a ``gold_sense`` key marks a corpus.  Anything
        else, unparsable lines included, goes to the gold-line parser, which
        reports errors with their line numbers.  The file is read once.
        """
        lines = read_utf8(path).splitlines()
        try:
            _, first = next(jsonl_records(lines, str(path)), (0, {}))
        except DataError:
            first = {}
        if "gold_sense" in first:
            return cls.from_documents(parse_jsonl_corpus(lines, origin=str(path)))
        return cls.from_lines(lines, origin=str(path))

    @classmethod
    def from_lines(cls, lines: Iterable[str], origin: str = "<jsonl>") -> "GoldAnnotation":
        """Parse gold JSONL lines (string ids); errors name ``origin:lineno``."""
        sense_of: dict[str, str] = {}
        for lineno, record in jsonl_records(lines, origin):
            if "id" not in record or "sense" not in record:
                raise DataError(f"{origin}:{lineno}: expected an object with id and sense")
            if not isinstance(record["id"], str):
                raise DataError(f"{origin}:{lineno}: id must be a string")
            fault = sense_label_fault(record["sense"])
            if fault:
                raise DataError(f"{origin}:{lineno}: sense {fault}")
            if record["id"] in sense_of:
                raise DataError(f"{origin}:{lineno}: duplicate id {record['id']!r}")
            sense_of[record["id"]] = record["sense"]
        return cls(sense_of=sense_of)


def _sense_and_intruders(group: Sequence, gold: GoldAnnotation) -> tuple[object, set]:
    """Most frequent gold sense in a group, and the members whose label
    differs from it; ties on the majority count go to the label of the
    lowest document id among the tied labels' carriers."""
    labels = []
    for member in group:
        try:
            labels.append(gold.sense_of[member])
        except KeyError:
            raise DataError(f"no gold sense for grouped document {member!r}") from None
    counts = Counter(labels)
    top = max(counts.values())
    sense = min(
        (member, label) for member, label in zip(group, labels) if counts[label] == top
    )[1]
    return sense, {member for member, label in zip(group, labels) if label != sense}


def identify_intruders(clustering: Clustering, gold: GoldAnnotation) -> set:
    """Members whose label conflicts with their group's majority sense
    (``_sense_and_intruders``, which also decides the marks of the report)."""
    groups = clustering.labeled_groups()
    return {member for group in groups for member in _sense_and_intruders(group, gold)[1]}


def classify_zone(alpha: float) -> str:
    """Behavior zone of a threshold value (see module docstring)."""
    alpha = check_alpha(alpha)
    if alpha <= 0.70:
        return "zone1"
    if alpha <= 0.85:
        return "zone2"
    if alpha < 1.00:
        return "zone3"
    return "absolute"


MAX_GRID_POINTS = 10**6
"""Most thresholds a ``SweepGrid`` holds; a finer grid is a ``ValueError``."""


def _to_fraction(value) -> Fraction:
    # str(float) round-trips the shortest repr, so Fraction("0.01") and
    # friends come out exact instead of inheriting binary noise.
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class SweepGrid:
    """Threshold grid start..end in exact steps (kept as Fractions).

    Alpha values are generated as start + k*step in rational arithmetic,
    never by repeated floating addition, so grid points land exactly on
    hundredths and zone boundaries stay put.
    """

    start: Fraction
    end: Fraction
    step: Fraction

    def __init__(self, start="0.01", end="1.00", step="0.01"):
        object.__setattr__(self, "start", _to_fraction(start))
        object.__setattr__(self, "end", _to_fraction(end))
        object.__setattr__(self, "step", _to_fraction(step))
        if not 0 < self.start <= self.end <= 1:
            raise ValueError(
                f"grid must satisfy 0 < start <= end <= 1, got "
                f"{float(self.start)}..{float(self.end)}"
            )
        if self.step <= 0:
            raise ValueError(f"grid step must be positive, got {float(self.step)}")
        count = self._count()
        if count > MAX_GRID_POINTS:
            raise ValueError(f"grid has {count} points, more than {MAX_GRID_POINTS}")

    @classmethod
    def parse(cls, text: str) -> "SweepGrid":
        """Parse the ``START:END:STEP`` flag syntax."""
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must look like START:END:STEP, got {text!r}")
        try:
            return cls(*parts)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid grid {text!r}: {exc}") from None

    def _count(self) -> int:
        return (self.end - self.start) // self.step + 1

    def float_alphas(self) -> list[float]:
        """``float(alpha)`` of every grid point, without Fraction arithmetic.

        With start = a/b and step = c/d, point k is the integer ratio
        (a*d + k*c*b) / (b*d), and int / int rounds correctly.
        """
        a, b = self.start.numerator, self.start.denominator
        c, d = self.step.numerator, self.step.denominator
        return [(a * d + k * c * b) / (b * d) for k in range(self._count())]


DEFAULT_GRID = SweepGrid()


@dataclass(frozen=True)
class EvalRow:
    alpha: float
    num_groups: int
    recall: float
    precision: float
    zone: str


def _row(alpha: float, groups: int, grouped: int, majority: int, total: int) -> EvalRow:
    """The row of ``grouped`` of ``total`` documents, ``majority`` in their group's sense."""
    if total < 1:
        raise ValueError("total document count must be at least 1")
    return EvalRow(
        alpha=alpha,
        num_groups=groups,
        recall=grouped / total,
        precision=majority / grouped if grouped else 0.0,
        zone=classify_zone(alpha),
    )


def score_clustering(clustering: Clustering, total: int, gold: GoldAnnotation) -> EvalRow:
    """Group count, recall over ``total`` documents, precision and zone.

    A group of ``size`` members holds ``size - top`` intruders (see the
    module docstring), so its size less its intruders is its top count.
    """
    grouped = majority = 0
    for group in clustering.labeled_groups():
        grouped += len(group)
        majority += len(group) - len(_sense_and_intruders(group, gold)[1])
    return _row(clustering.alpha, len(clustering.groups), grouped, majority, total)


def run_sweep(
    tree: Dendrogram,
    total: int,
    gold: GoldAnnotation,
    grid: SweepGrid = DEFAULT_GRID,
    min_size: int = 2,
) -> list[EvalRow]:
    """One EvalRow per grid point (the default grid yields 100 rows).

    Each row is what ``score_clustering`` gives for ``cut_at_threshold``
    at its alpha, but no cut is built: the merges are replayed once along
    the rising grid.  Every live cluster keeps its size, its count per
    gold sense (the smaller counter is merged into the larger) and its top
    count.  Running totals over the clusters of at least ``min_size``
    members give the group count, the grouped size and the sum of top
    counts, so precision is ``sum(top) / grouped``, exact under any tie
    rule (see the module docstring).  At the first grid point where a
    group holds a document without a gold sense, ``score_clustering`` of
    that one cut raises the ``DataError`` naming the document.
    Recall is checked to be non-decreasing along the sweep, which
    threshold-cut monotonicity guarantees.
    """
    if min_size < 1:
        raise ValueError(f"min_size must be positive, got {min_size}")
    labels = tree.ids if tree.ids is not None else range(tree.n)
    # cluster id -> (size, top count, members without a gold sense,
    # members per gold sense)
    clusters = {
        item: (1, 1, 0, {gold.sense_of[label]: 1}) if label in gold.sense_of else (1, 0, 1, {})
        for item, label in enumerate(labels)
    }
    # Clusters that left (-1) or joined (+1) the partition since the
    # totals were last brought up to date; the leaves join first.
    changed = [(1, cluster) for cluster in clusters.values()]
    groups = grouped = majority = unlabelled_groups = 0
    merges = tree.merges
    replayed = 0
    rows: list[EvalRow] = []
    for alpha in grid.float_alphas():
        while replayed < len(merges) and merges[replayed].distance <= alpha:
            merge = merges[replayed]
            replayed += 1
            left = clusters.pop(merge.left)
            right = clusters.pop(merge.right)
            if len(left[3]) < len(right[3]):
                left, right = right, left
            size, top, unlabelled, counts = left
            for sense, count in right[3].items():
                count += counts.get(sense, 0)
                counts[sense] = count
                if count > top:
                    top = count
            merged = (size + right[0], top, unlabelled + right[2], counts)
            clusters[merge.new_id] = merged
            changed += ((-1, left), (-1, right), (1, merged))
        for sign, (size, top, unlabelled, _) in changed:
            if size >= min_size:
                groups += sign
                grouped += sign * size
                majority += sign * top
                unlabelled_groups += sign * (unlabelled > 0)
        changed.clear()
        row = _row(alpha, groups, grouped, majority, total)
        if unlabelled_groups:
            # Scoring this cut raises the DataError naming the document.
            score_clustering(cut_at_threshold(tree, alpha, min_size=min_size), total, gold)
        if rows and row.recall < rows[-1].recall:
            raise AssertionError(f"recall decreased along the sweep at alpha={row.alpha}")
        rows.append(row)
    return rows


def _alpha_text(alpha: float) -> str:
    # Two decimals when they read back as the same float, else the exact repr,
    # so a grid finer than hundredths keeps distinct alpha labels.
    text = f"{alpha:.2f}"
    return text if float(text) == alpha else repr(alpha)


def sweep_to_csv(rows: Sequence[EvalRow]) -> str:
    """Sweep CSV text with header ``alpha,num_groups,precision,recall,zone``.

    Alpha prints with two decimals when that is exact and as its repr
    otherwise; metrics print with six decimals.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for row in rows:
        writer.writerow(
            [
                _alpha_text(row.alpha),
                row.num_groups,
                f"{row.precision:.6f}",
                f"{row.recall:.6f}",
                row.zone,
            ]
        )
    return buffer.getvalue()


def format_cluster_report(
    clustering: Clustering,
    texts: Mapping | None = None,
    gold: GoldAnnotation | None = None,
) -> str:
    """Human-readable groups: member texts in id order, sense, intruders."""
    lines = []
    grouped = clustering.grouped_count()
    total = grouped + len(clustering.ungrouped)
    lines.append(
        f"clustering at alpha={clustering.alpha:g} "
        f"({classify_zone(clustering.alpha)}): "
        f"{len(clustering.groups)} group(s), {grouped}/{total} documents grouped"
    )
    lines.append(ZONE_NOTE)
    for k, group in enumerate(clustering.labeled_groups(), 1):
        members = sorted(group, key=str)
        header = f"group {k} ({len(members)} members"
        intruders: set = set()
        if gold is not None:
            sense, intruders = _sense_and_intruders(group, gold)
            header += f", sense={sense}"
        lines.append(header + ")")
        for member in members:
            flag = "!" if member in intruders else " "
            text = f"  {flag} {member}"
            if texts is not None and member in texts:
                text += f"  {texts[member]}"
            lines.append(text)
    ungrouped = sorted(clustering.labeled_ungrouped(), key=str)
    if ungrouped:
        lines.append("ungrouped: " + ", ".join(str(u) for u in ungrouped))
    return "\n".join(lines) + "\n"
