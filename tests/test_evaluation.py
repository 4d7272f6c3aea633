"""Adapted recall/precision, intruders, zones, sweep grid and reports."""

import csv
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from defclust import (
    Clustering,
    DataError,
    Dendrogram,
    Document,
    EvalRow,
    GoldAnnotation,
    Merge,
    SweepGrid,
    classify_zone,
    cut_at_threshold,
    format_cluster_report,
    identify_intruders,
    run_sweep,
    score_clustering,
    sweep_to_csv,
)
from defclust import evaluation
from defclust.evaluation import DEFAULT_GRID, MAX_GRID_POINTS, SWEEP_CSV_HEADER, ZONE_NOTE


def clustering_of(groups, ungrouped, alpha=0.5, ids=None):
    return Clustering(
        alpha=alpha,
        groups=tuple(tuple(g) for g in groups),
        ungrouped=tuple(ungrouped),
        ids=ids,
    )


def one_sense(total):
    """Gold that gives documents 0 .. total-1 the same sense."""
    return GoldAnnotation({item: "s" for item in range(total)})


def test_package_exports_resolve_and_include_the_scorer():
    import defclust

    missing = [name for name in defclust.__all__ if not hasattr(defclust, name)]
    assert missing == []
    assert "score_clustering" in defclust.__all__
    assert defclust.score_clustering is score_clustering


# ---------------------------------------------------------------- recall

def test_recall_arithmetic_example():
    # 10 documents, groups of 3 and 2 -> 5/10
    c = clustering_of([(0, 1, 2), (3, 4)], (5, 6, 7, 8, 9))
    assert score_clustering(c, 10, one_sense(10)).recall == 0.5


def test_recall_zero_without_groups():
    c = clustering_of([], (0, 1, 2))
    assert score_clustering(c, 3, one_sense(3)).recall == 0.0


def test_recall_one_at_absolute_group():
    c = clustering_of([tuple(range(7))], ())
    assert score_clustering(c, 7, one_sense(7)).recall == 1.0


def test_recall_rejects_zero_total():
    with pytest.raises(ValueError, match="total document count"):
        score_clustering(clustering_of([], ()), 0, one_sense(0))


def test_recall_plus_ungrouped_ratio_is_one_exactly():
    import random

    rng = random.Random(67)
    for _ in range(200):
        total = rng.randint(1, 400)
        grouped = rng.randint(0, total)
        # group sizes are irrelevant to the identity; one lump suffices
        groups = [tuple(range(grouped))] if grouped >= 2 else []
        extra = () if grouped >= 2 else tuple(range(grouped))
        ungrouped = tuple(range(grouped, total)) + extra
        c = clustering_of(groups, ungrouped)
        row = score_clustering(c, total, one_sense(total))
        assert row.recall + len(c.ungrouped) / total == 1.0


# ---------------------------------------------------------------- intruders

def test_majority_sense_flags_minority_members():
    c = clustering_of([(0, 1, 2)], (), ids=("d1", "d2", "d3"))
    gold = GoldAnnotation({"d1": "s1", "d2": "s1", "d3": "s2"})
    assert identify_intruders(c, gold) == {"d3"}


def test_tie_goes_to_lowest_id_label():
    c = clustering_of([(0, 1)], (), ids=("d1", "d2"))
    gold = GoldAnnotation({"d1": "s1", "d2": "s2"})
    # two-way tie: group sense follows d1, so d2 intrudes
    assert identify_intruders(c, gold) == {"d2"}


def test_tie_break_considers_carriers_not_label_order():
    # the tied label "z9" is carried by the lowest id, so it wins even
    # though "a1" sorts first as a string
    c = clustering_of([(0, 1, 2, 3)], (), ids=("d1", "d2", "d3", "d4"))
    gold = GoldAnnotation({"d1": "z9", "d2": "a1", "d3": "z9", "d4": "a1"})
    assert identify_intruders(c, gold) == {"d2", "d4"}


def test_sense_pure_clustering_has_no_intruders():
    c = clustering_of([(0, 1), (2, 3, 4)], (5,), ids=tuple("abcdef"))
    gold = GoldAnnotation(
        {"a": "s1", "b": "s1", "c": "s2", "d": "s2", "e": "s2", "f": "s9"}
    )
    assert identify_intruders(c, gold) == set()
    assert score_clustering(c, 6, gold).precision == 1.0


def test_missing_gold_label_names_the_document():
    c = clustering_of([(0, 1)], (), ids=("d1", "d2"))
    gold = GoldAnnotation({"d1": "s1"})
    with pytest.raises(DataError, match="'d2'"):
        identify_intruders(c, gold)
    with pytest.raises(DataError, match="'d2'"):
        score_clustering(c, 2, gold)


def test_intruders_ignore_ungrouped_documents():
    c = clustering_of([(0, 1)], (2,), ids=("d1", "d2", "d3"))
    gold = GoldAnnotation({"d1": "s1", "d2": "s1"})  # no label for d3 needed
    assert identify_intruders(c, gold) == set()


# ---------------------------------------------------------------- precision

def test_precision_arithmetic_example():
    # 5 grouped, 1 intruder -> 4/5
    c = clustering_of([(0, 1, 2), (3, 4)], (), ids=tuple("abcde"))
    gold = GoldAnnotation({"a": "s1", "b": "s2", "c": "s1", "d": "s3", "e": "s3"})
    assert identify_intruders(c, gold) == {"b"}
    assert score_clustering(c, 5, gold).precision == 0.8


def test_precision_zero_without_groups():
    c = clustering_of([], (0, 1))
    assert score_clustering(c, 2, one_sense(2)).precision == 0.0


def test_precision_one_with_zero_intruders():
    c = clustering_of([(0, 1, 2)], ())
    assert score_clustering(c, 3, one_sense(3)).precision == 1.0


# ---------------------------------------------------------------- zones

@pytest.mark.parametrize(
    "alpha,zone",
    [
        (0.0, "zone1"),
        (0.5, "zone1"),
        (0.70, "zone1"),
        (0.71, "zone2"),
        (0.80, "zone2"),
        (0.85, "zone2"),
        (0.86, "zone3"),
        (0.90, "zone3"),
        (0.99, "zone3"),
        (1.00, "absolute"),
    ],
)
def test_zone_boundaries(alpha, zone):
    assert classify_zone(alpha) == zone


def test_zone_rejects_out_of_range():
    with pytest.raises(ValueError):
        classify_zone(-0.01)
    with pytest.raises(ValueError):
        classify_zone(1.01)


def test_zones_partition_the_default_grid():
    from collections import Counter

    counts = Counter(classify_zone(a) for a in DEFAULT_GRID.float_alphas())
    assert counts == {"zone1": 70, "zone2": 15, "zone3": 14, "absolute": 1}


# ---------------------------------------------------------------- grid

def exact_alphas(grid):
    """The grid points start + k*step in Fraction arithmetic."""
    return [grid.start + k * grid.step for k in range((grid.end - grid.start) // grid.step + 1)]


def test_default_grid_is_one_hundred_exact_hundredths():
    alphas = exact_alphas(DEFAULT_GRID)
    assert len(alphas) == 100
    assert alphas == [Fraction(k, 100) for k in range(1, 101)]


def test_grid_from_floats_does_not_drift():
    # 0.1 + 0.1 + 0.1 != 0.3 in binary floats; the grid must not care
    grid = SweepGrid(0.1, 0.3, 0.1)
    assert exact_alphas(grid) == [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10)]


@settings(max_examples=200, deadline=None)
@given(
    start=st.fractions(min_value=Fraction(1, 10**6), max_value=1, max_denominator=10**6),
    span=st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    step=st.fractions(min_value=Fraction(1, 1000), max_value=1, max_denominator=10**6),
)
def test_float_alphas_are_the_rounded_grid_points(start, span, step):
    grid = SweepGrid(start, min(start + span, Fraction(1)), step)
    assert grid.float_alphas() == [float(a) for a in exact_alphas(grid)]


def test_float_alphas_of_the_default_and_float_grids():
    for grid in (DEFAULT_GRID, SweepGrid(0.1, 0.3, 0.1), SweepGrid("0.001", "1", "0.001")):
        assert grid.float_alphas() == [float(a) for a in exact_alphas(grid)]


def test_degenerate_grid_yields_single_row():
    assert exact_alphas(SweepGrid("0.5", "0.5", "0.01")) == [Fraction(1, 2)]


def test_grid_parse_round_trip():
    grid = SweepGrid.parse("0.05:0.95:0.05")
    assert len(grid.float_alphas()) == 19


@pytest.mark.parametrize(
    "text",
    ["0.1:0.9", "a:b:c", "0.5:0.4:0.1", "0:1:0.1", "0.1:1.5:0.1", "0.1:0.9:0"],
)
def test_grid_parse_rejects_bad_strings(text):
    with pytest.raises(ValueError):
        SweepGrid.parse(text)


def test_grid_size_is_capped_from_the_count_alone():
    # only the point count is computed: 5 * 10^14 floats would not fit in memory
    assert MAX_GRID_POINTS == 10**6
    with pytest.raises(ValueError, match="grid has 500000000000001 points, more than 1000000"):
        SweepGrid.parse("0.5:1:1e-15")
    step = Fraction(1, MAX_GRID_POINTS)
    SweepGrid(step, 1, step)  # exactly MAX_GRID_POINTS points
    step = Fraction(1, MAX_GRID_POINTS + 1)
    with pytest.raises(ValueError, match="grid has 1000001 points"):
        SweepGrid(step, 1, step)


# ---------------------------------------------------------------- gold files

def test_gold_load_and_duplicate_detection(tmp_path):
    path = tmp_path / "gold.jsonl"
    path.write_text(
        '{"id":"d1","sense":"s1"}\n\n{"id":"d2","sense":"s2"}\n', encoding="utf-8"
    )
    gold = GoldAnnotation.load(path)
    assert gold.sense_of == {"d1": "s1", "d2": "s2"}

    path.write_text(
        '{"id":"d1","sense":"s1"}\n{"id":"d1","sense":"s2"}\n', encoding="utf-8"
    )
    with pytest.raises(DataError, match=":2.*duplicate"):
        GoldAnnotation.load(path)


def test_gold_load_reports_malformed_lines(tmp_path):
    path = tmp_path / "gold.jsonl"
    path.write_text('{"id":"d1"}\n', encoding="utf-8")
    with pytest.raises(DataError, match=":1"):
        GoldAnnotation.load(path)
    path.write_text("{nope\n", encoding="utf-8")
    with pytest.raises(DataError, match="invalid JSON"):
        GoldAnnotation.load(path)


def test_gold_load_reads_a_corpus_with_gold_sense(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id":"d1","text":"a b","gold_sense":"s1"}\n{"id":"d2","text":"c","gold_sense":"s2"}\n',
        encoding="utf-8",
    )
    assert GoldAnnotation.load(path).sense_of == {"d1": "s1", "d2": "s2"}


def test_gold_from_documents_requires_labels():
    docs = [
        Document(id="d1", text="x", gold_sense="s1"),
        Document(id="d2", text="y"),
    ]
    with pytest.raises(DataError, match="'d2'"):
        GoldAnnotation.from_documents(docs)
    gold = GoldAnnotation.from_documents(docs[:1])
    assert gold.sense_of == {"d1": "s1"}


# ---------------------------------------------------------------- sweep

def test_sweep_over_bundled_corpus(synthetic_sweep):
    rows = synthetic_sweep
    assert len(rows) == 100
    assert [r.alpha for r in rows] == [k / 100 for k in range(1, 101)]
    last = rows[-1]
    assert last.zone == "absolute"
    assert last.num_groups == 1
    assert last.recall == 1.0
    for row in rows:
        assert 0.0 <= row.recall <= 1.0
        assert 0.0 <= row.precision <= 1.0
    recalls = [r.recall for r in rows]
    assert recalls == sorted(recalls)


def test_score_clustering_matches_the_sweep_row(
    synthetic_tree, synthetic_docs, synthetic_senses, synthetic_sweep
):
    row = synthetic_sweep[79]
    clustering = cut_at_threshold(synthetic_tree, row.alpha)
    assert score_clustering(clustering, len(synthetic_docs), synthetic_senses) == row


def test_sweep_precision_trends_down_in_rank_terms(synthetic_sweep):
    rows = synthetic_sweep
    rho, _ = stats.spearmanr([r.alpha for r in rows], [r.precision for r in rows])
    assert rho <= 0


def test_sweep_no_groups_rows_score_zero(synthetic_sweep):
    for row in synthetic_sweep:
        if row.num_groups == 0:
            assert row.recall == 0.0 and row.precision == 0.0


def test_sweep_respects_custom_grid(synthetic_tree, synthetic_docs, synthetic_senses):
    rows = run_sweep(
        synthetic_tree,
        len(synthetic_docs),
        synthetic_senses,
        grid=SweepGrid("0.5", "0.5", "0.01"),
    )
    assert len(rows) == 1
    assert rows[0].alpha == 0.5


# ---------------------------------------------------------------- sweep oracle

def cut_and_score_sweep(tree, total, gold, grid=DEFAULT_GRID, min_size=2):
    """The sweep as one cut and one score per grid point, the definition
    that run_sweep's single replay of the merges must reproduce."""
    rows = []
    for exact_alpha in exact_alphas(grid):
        clustering = cut_at_threshold(tree, float(exact_alpha), min_size=min_size)
        row = score_clustering(clustering, total, gold)
        # score_clustering counts sum(top); the tie rule's intruder set
        # must leave the same precision (gold is complete here, or
        # score_clustering would have raised)
        grouped = clustering.grouped_count()
        kept = grouped - len(identify_intruders(clustering, gold))
        assert row.precision == (kept / grouped if grouped else 0.0)
        if rows and row.recall < rows[-1].recall:
            raise AssertionError(f"recall decreased along the sweep at alpha={row.alpha}")
        rows.append(row)
    return rows


def sweep_outcome(sweep, *args):
    """The rows (compared float for float), or the DataError's type and text."""
    try:
        return sweep(*args)
    except DataError as exc:
        return type(exc), str(exc)


@st.composite
def sweep_cases(draw):
    """Random merge trees whose heights sit on grid points, with few senses.

    Heights come from a handful of the grid's own alphas (plus 0, 1 and one
    value off the grid), so many merges share a height and many sit exactly
    on a threshold; two or three senses make tied majorities common.
    """
    unit = draw(st.sampled_from([100, 1000]))
    start = draw(st.integers(1, unit))
    end = draw(st.integers(start, unit))
    step = draw(st.integers(1, max(1, (end - start) // 3 + 1)))
    grid = SweepGrid(Fraction(start, unit), Fraction(end, unit), Fraction(step, unit))
    alphas = [float(a) for a in exact_alphas(grid)]
    levels = draw(st.lists(st.sampled_from(alphas + [0.0, 1.0, 0.4321]), min_size=1, max_size=4))
    n = draw(st.integers(2, 24))
    heights = sorted(draw(st.lists(st.sampled_from(levels), min_size=n - 1, max_size=n - 1)))
    live = [(i, i) for i in range(n)]  # (cluster id, smallest member)
    merges = []
    for k, height in enumerate(heights):
        i = draw(st.integers(0, len(live) - 1))
        first = live.pop(i)
        second = live.pop(draw(st.integers(0, len(live) - 1)))
        left, right = sorted((first, second), key=lambda c: c[1])
        merges.append(Merge(left=left[0], right=right[0], distance=height, new_id=n + k))
        live.append((n + k, left[1]))
    ids = None
    if draw(st.booleans()):
        ids = tuple(draw(st.permutations([f"doc{i:02d}" for i in range(n)])))
    tree = Dendrogram(n=n, merges=tuple(merges), ids=ids)
    senses = draw(st.lists(st.sampled_from(["s1", "s2", "s3"][: draw(st.integers(1, 3))]),
                           min_size=n, max_size=n))
    unlabelled = draw(st.frozensets(st.integers(0, n - 1), max_size=3))
    labels = ids if ids is not None else range(n)
    gold = GoldAnnotation(
        {label: sense for item, (label, sense) in enumerate(zip(labels, senses))
         if item not in unlabelled}
    )
    return tree, gold, grid, draw(st.integers(1, 4))


@settings(max_examples=400, deadline=None)
@given(sweep_cases())
def test_run_sweep_matches_cut_and_score_oracle(case):
    tree, gold, grid, min_size = case
    args = (tree, tree.n, gold, grid, min_size)
    assert sweep_outcome(run_sweep, *args) == sweep_outcome(cut_and_score_sweep, *args)


@pytest.mark.parametrize("min_size", [1, 2, 3, 4])
def test_run_sweep_matches_cut_and_score_oracle_on_bundled_corpus(
    min_size, synthetic_tree, synthetic_docs, synthetic_senses
):
    args = (synthetic_tree, len(synthetic_docs), synthetic_senses, DEFAULT_GRID, min_size)
    assert run_sweep(*args) == cut_and_score_sweep(*args)


def test_run_sweep_keeps_its_argument_errors(synthetic_tree, synthetic_senses):
    with pytest.raises(ValueError, match="min_size must be positive"):
        run_sweep(synthetic_tree, 120, synthetic_senses, min_size=0)
    with pytest.raises(ValueError, match="total document count"):
        run_sweep(synthetic_tree, 0, synthetic_senses)


# ---------------------------------------------------------------- output

def test_sweep_csv_shape_and_formatting():
    rows = [
        EvalRow(alpha=0.01, num_groups=0, recall=0.0, precision=0.0, zone="zone1"),
        EvalRow(alpha=1.0, num_groups=1, recall=1.0, precision=1 / 3, zone="absolute"),
    ]
    text = sweep_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(SWEEP_CSV_HEADER)
    assert lines[1] == "0.01,0,0.000000,0.000000,zone1"
    assert lines[2] == "1.00,1,0.333333,1.000000,absolute"


def test_sweep_csv_parses_back():
    rows = [EvalRow(alpha=0.5, num_groups=2, recall=0.25, precision=1.0, zone="zone1")]
    parsed = list(csv.reader(io.StringIO(sweep_to_csv(rows))))
    assert parsed == [list(SWEEP_CSV_HEADER), ["0.50", "2", "1.000000", "0.250000", "zone1"]]


def test_sweep_csv_keeps_fine_grid_alphas_apart():
    grid = SweepGrid("0.001", "0.01", "0.001")
    rows = [
        EvalRow(alpha=float(a), num_groups=0, recall=0.0, precision=0.0, zone="zone1")
        for a in exact_alphas(grid)
    ]
    alphas = [line.split(",")[0] for line in sweep_to_csv(rows).splitlines()[1:]]
    assert alphas == [f"0.00{k}" for k in range(1, 10)] + ["0.01"]
    assert [float(a) for a in alphas] == [row.alpha for row in rows]


def test_report_shows_senses_intruders_and_note():
    c = clustering_of([(0, 1, 2)], (3,), alpha=0.4, ids=("d1", "d2", "d3", "d4"))
    gold = GoldAnnotation({"d1": "s1", "d2": "s1", "d3": "s2", "d4": "s1"})
    texts = {"d1": "uno", "d2": "dos", "d3": "tres"}
    report = format_cluster_report(c, texts=texts, gold=gold)
    assert ZONE_NOTE in report
    assert "group 1 (3 members, sense=s1)" in report
    assert "! d3  tres" in report
    assert "ungrouped: d4" in report
    assert "3/4 documents grouped" in report


def test_report_counts_each_groups_senses_once(monkeypatch):
    calls = []
    sense_counts = evaluation._sense_counts

    def counting(group, gold):
        calls.append(tuple(group))
        return sense_counts(group, gold)

    monkeypatch.setattr(evaluation, "_sense_counts", counting)
    c = clustering_of([(0, 1, 2), (3, 4)], (5,), alpha=0.4)
    gold = GoldAnnotation({i: "s1" if i < 2 or i == 4 else "s2" for i in range(6)})
    report = format_cluster_report(c, gold=gold)
    assert sorted(calls) == [(0, 1, 2), (3, 4)]
    assert "group 1 (3 members, sense=s1)" in report
    assert "group 2 (2 members, sense=s2)" in report
    marked = [line.split()[1] for line in report.splitlines() if line.startswith("  !")]
    assert marked == ["2", "4"]


def test_report_without_gold_or_texts():
    c = clustering_of([(0, 1)], (), alpha=0.9)
    report = format_cluster_report(c)
    assert "group 1 (2 members)" in report
    assert "zone3" in report
