"""Acceptance gate: one test per shipping criterion.

Each test name is the pass/fail line; run with ``pytest -v`` to see the
checklist.  Oracles here are deliberately primitive re-implementations
(pure-Python integer loops, from-scratch agglomeration) that share no
code with the library.
"""

import random
import time
import tracemalloc

import numpy as np
from scipy import stats

from defclust import (
    Clustering,
    Document,
    GoldAnnotation,
    PatternTemplate,
    build_dendrogram,
    build_matrix,
    compile_search_patterns,
    cut_at_threshold,
    energy_distance_vector,
    energy_matrix,
    hamming_distance_vector,
    identify_intruders,
    scan_text,
    score_clustering,
)
from defclust.evaluation import DEFAULT_GRID

from conftest import coded_square

NEGATIVE_SENTENCE_PATTERN = "la aguja es el"


# ---------------------------------------------------------------- helpers

def oracle_gram_sq(rows):
    """2*e as exact ints via explicit loops: G then sum_k G_ik G_kj."""
    n = len(rows)
    p = len(rows[0]) if rows else 0
    gram = [
        [sum(rows[i][a] * rows[k][a] for a in range(p)) for k in range(n)]
        for i in range(n)
    ]
    return [
        [sum(gram[i][k] * gram[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def oracle_agglomerate(square):
    """Naive loop: recompute every group distance from raw pairs each round.

    Returns the merge distances in order plus a partition snapshot after
    every merge (index 0 = all singletons).
    """
    n = len(square)
    clusters = [[i] for i in range(n)]
    snapshots = [[tuple(c) for c in clusters]]
    distances = []
    while len(clusters) > 1:
        best = None
        pick = None
        for ia in range(len(clusters)):
            for ib in range(ia + 1, len(clusters)):
                link = max(square[i][j] for i in clusters[ia] for j in clusters[ib])
                lo, hi = sorted((min(clusters[ia]), min(clusters[ib])))
                key = (link, lo, hi)
                if best is None or key < best:
                    best = key
                    pick = (ia, ib)
        ia, ib = pick
        merged = sorted(clusters[ia] + clusters[ib])
        clusters = [c for k, c in enumerate(clusters) if k not in (ia, ib)]
        clusters.append(merged)
        distances.append(best[0])
        snapshots.append([tuple(c) for c in clusters])
    return distances, snapshots


def oracle_stop_early(distances, snapshots, alpha, min_size):
    """Partition of the loop that stops at the first merge above alpha."""
    k = 0
    while k < len(distances) and distances[k] <= alpha:
        k += 1
    clusters = snapshots[k]
    groups = tuple(sorted(c for c in clusters if len(c) >= min_size))
    ungrouped = tuple(sorted(i for c in clusters if len(c) < min_size for i in c))
    return groups, ungrouped


def random_binary_rows(rng, n, p):
    rows = [[rng.randint(0, 1) for _ in range(p)] for _ in range(n)]
    for row in rows:
        if not any(row):
            row[rng.randrange(p)] = 1
    return rows


def clustering_of(groups, ungrouped, ids=None, alpha=0.5):
    return Clustering(
        alpha=alpha,
        groups=tuple(tuple(g) for g in groups),
        ungrouped=tuple(ungrouped),
        ids=ids,
    )


# ---------------------------------------------------------------- criteria

def test_criterion_1_energy_matches_integer_oracle_exactly():
    """>= 200 random matrices, n<=20 p<=30, zero tolerance, under 10 s."""
    rng = random.Random(2026)
    started = time.perf_counter()
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 20)
        p = rng.randint(1, 30)
        rows = random_binary_rows(rng, n, p)
        expected = oracle_gram_sq(rows)
        # 2 e_ij of every pair of the n documents, duplicates included
        got = 2 * energy_matrix(np.array(rows)).values
        assert got.tolist() == expected
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 200
    assert elapsed < 10.0, f"energy oracle sweep took {elapsed:.1f}s"
    print(f"criterion 1 PASS: {checked} matrices exact in {elapsed:.2f}s")


def test_criterion_2_cut_matches_naive_stop_early_everywhere():
    """>= 100 instances x all 100 grid alphas against the from-scratch loop."""
    rng = random.Random(2027)
    alphas = DEFAULT_GRID.float_alphas()
    started = time.perf_counter()
    instances = 0
    for trial in range(100):
        n = rng.randint(2, 10)
        pairs = n * (n - 1) // 2
        if trial % 2 == 0:
            # coarse values force exact distance ties
            tri = [rng.randint(0, 10) / 10 for _ in range(pairs)]
        else:
            tri = [rng.random() for _ in range(pairs)]
        square = [[0.0] * n for _ in range(n)]
        k = 0
        for i in range(n):
            for j in range(i + 1, n):
                square[i][j] = square[j][i] = tri[k]
                k += 1
        dist = coded_square(square)
        tree = build_dendrogram(dist)

        distances, snapshots = oracle_agglomerate(square)
        # the naive loop's merge distances never decrease, which is what
        # makes the build-once-cut-everywhere architecture legitimate
        assert distances == sorted(distances)
        assert [m.distance for m in tree.merges] == distances

        for alpha in alphas:
            for min_size in (1, 2):
                cut = cut_at_threshold(tree, alpha, min_size=min_size)
                groups, ungrouped = oracle_stop_early(
                    distances, snapshots, alpha, min_size
                )
                assert cut.groups == groups, (trial, alpha, min_size)
                assert cut.ungrouped == ungrouped, (trial, alpha, min_size)
        instances += 1
    elapsed = time.perf_counter() - started
    assert instances >= 100
    assert elapsed < 30.0, f"clustering oracle sweep took {elapsed:.1f}s"
    print(f"criterion 2 PASS: {instances} instances x {len(alphas)} alphas in {elapsed:.2f}s")


def test_criterion_3_metric_boundary_clauses_and_arithmetic():
    """recall/precision edge values plus the 5/10 and 4/5 examples, exact."""
    one_sense = GoldAnnotation({item: "s" for item in range(12)})
    none = score_clustering(clustering_of([], (0, 1, 2)), 3, one_sense)
    assert none.recall == 0 / 3 == 0.0
    assert none.precision == 0.0

    absolute = clustering_of([tuple(range(12))], (), alpha=1.0)
    assert score_clustering(absolute, 12, one_sense).recall == 12 / 12 == 1.0

    pure = clustering_of([(0, 1), (2, 3)], (), ids=("a", "b", "c", "d"))
    gold = GoldAnnotation({"a": "s1", "b": "s1", "c": "s2", "d": "s2"})
    assert identify_intruders(pure, gold) == set()
    assert score_clustering(pure, 4, gold).precision == 1.0

    half = clustering_of([(0, 1, 2), (3, 4)], (5, 6, 7, 8, 9))
    assert score_clustering(half, 10, one_sense).recall == 5 / 10 == 0.5

    five_grouped = clustering_of([(0, 1, 2), (3, 4)], (), ids=tuple("abcde"))
    gold = GoldAnnotation({"a": "s1", "b": "s1", "c": "s2", "d": "s3", "e": "s3"})
    assert identify_intruders(five_grouped, gold) == {"c"}
    assert score_clustering(five_grouped, 5, gold).precision == 4 / 5 == 0.8
    print("criterion 3 PASS: boundary clauses and arithmetic examples exact")


def test_criterion_4_default_sweep_protocol(synthetic_sweep):
    rows = synthetic_sweep
    assert len(rows) == 100
    assert [round(r.alpha * 100) for r in rows] == list(range(1, 101))
    final = rows[-1]
    assert final.alpha == 1.0
    assert final.num_groups == 1
    assert final.recall == 1.0
    recalls = [r.recall for r in rows]
    assert recalls == sorted(recalls)
    for row in rows:
        assert 0.0 <= row.recall <= 1.0
        assert 0.0 <= row.precision <= 1.0
    print("criterion 4 PASS: 100 rows, absolute group at 1.00, recall monotone")


def test_criterion_5_zone_trends_on_bundled_corpus(synthetic_sweep):
    rows = synthetic_sweep
    by_alpha = {round(r.alpha * 100): r for r in rows}
    p95 = by_alpha[95].precision
    r95 = by_alpha[95].recall
    zone1 = [r for r in rows if r.zone == "zone1"]
    assert zone1, "zone 1 is empty"

    worst_zone1_precision = min(r.precision for r in zone1)
    assert worst_zone1_precision > p95, (
        f"zone-1 precision {worst_zone1_precision:.4f} "
        f"does not exceed precision {p95:.4f} at alpha=0.95"
    )
    best_zone1_recall = max(r.recall for r in zone1)
    assert r95 > best_zone1_recall, (
        f"recall {r95:.4f} at alpha=0.95 does not exceed "
        f"zone-1 recall {best_zone1_recall:.4f}"
    )

    alphas = [r.alpha for r in rows]
    rho_recall, _ = stats.spearmanr(alphas, [r.recall for r in rows])
    rho_precision, _ = stats.spearmanr(alphas, [r.precision for r in rows])
    assert rho_recall > 0
    assert rho_precision < 0
    print(
        "criterion 5 PASS: "
        f"zone1 p >= {worst_zone1_precision:.4f} > p(0.95) = {p95:.4f}; "
        f"r(0.95) = {r95:.4f} > zone1 r <= {best_zone1_recall:.4f}; "
        f"rho_r = {rho_recall:+.4f}, rho_p = {rho_precision:+.4f}"
    )


def test_criterion_6_hamming_baseline_and_metric_axioms():
    # worked values
    assert hamming_distance_vector(
        np.array([[1, 0, 1, 0], [1, 1, 0, 0]])
    ).values.tolist() == [0.5]
    assert hamming_distance_vector(
        np.array([[1, 0, 1], [1, 0, 1]])
    ).values.tolist() == [0.0]
    assert hamming_distance_vector(
        np.array([[1, 0, 1], [0, 1, 0]])
    ).values.tolist() == [1.0]

    # metric axioms, brute force on integer numerators: no float tolerance
    rng = random.Random(2028)
    for _ in range(30):
        n = rng.randint(2, 8)
        p = rng.randint(1, 10)
        rows = random_binary_rows(rng, n, p)
        diff = [
            [sum(rows[i][a] != rows[j][a] for a in range(p)) for j in range(n)]
            for i in range(n)
        ]
        dist = hamming_distance_vector(np.array(rows))
        values = dist.levels[dist.codes]
        for i in range(n):
            assert diff[i][i] == 0
            for j in range(n):
                assert diff[i][j] == diff[j][i]
                assert values[i][j] == diff[i][j] / p
                if rows[i] == rows[j]:
                    assert diff[i][j] == 0
                elif i != j:
                    assert diff[i][j] > 0
                for k in range(n):
                    assert diff[i][j] <= diff[i][k] + diff[k][j]
    print("criterion 6 PASS: worked values and metric axioms hold exactly")


def test_criterion_7_planted_pattern_extraction():
    """25 planted hits, the non-definition among them, exact spans."""
    templates = [
        PatternTemplate("la <T> es el"),
        PatternTemplate("la <T> es un"),
        PatternTemplate("define una <T>"),
        PatternTemplate("las <T>s son"),
    ]
    terms = ["aguja", "barra", "célula"]
    patterns = compile_search_patterns(templates, terms)
    canonical = [p.text for p in patterns]

    rng = random.Random(2029)
    filler_words = ["montaña", "viento", "camino", "sombra", "puente", "nube"]

    pieces = []
    cursor = 0
    expected = []  # (start, end, planted text)

    def emit(chunk):
        nonlocal cursor
        pieces.append(chunk)
        cursor += len(chunk)

    def plant(text):
        expected.append((cursor, cursor + len(text), text))
        emit(text)

    # the famous false positive: a pattern hit that defines nothing
    emit("el miedo a ")
    plant(NEGATIVE_SENTENCE_PATTERN)
    emit(" más frecuente. ")
    # one uppercase and one stretched-whitespace instance
    plant("LA BARRA ES UN")
    emit(" perfil de acero. ")
    plant("define  una\tcélula")
    emit(" como unidad. ")
    while len(expected) < 25:
        filler = " ".join(rng.choice(filler_words) for _ in range(rng.randint(2, 6)))
        emit(filler + ". ")
        plant(rng.choice(canonical))
        emit(" algo concreto. ")
    text = "".join(pieces)

    candidates = scan_text(text, "planted", patterns)
    assert len(candidates) == 25
    assert [c.span for c in candidates] == [(s, e) for s, e, _ in sorted(expected)]
    assert all(c.verified is False for c in candidates)
    negative = [c for c in candidates if c.span[0] == len("el miedo a ")]
    assert len(negative) == 1
    assert negative[0].term == "aguja"
    assert negative[0].tail == "más frecuente"
    print("criterion 7 PASS: exactly 25 candidates with exact spans, all unverified")


def test_criterion_8_thousand_documents_scale():
    """Full pipeline on 1000 documents: < 60 s, memory ~ pairwise structures."""
    rng = random.Random(2030)
    topics = [
        [f"w{t:02d}{k:02d}" for k in range(25)] for t in range(20)
    ]
    shared = [f"g{k:02d}" for k in range(30)]
    docs = []
    for j in range(1000):
        pool = topics[j % 20]
        words = rng.sample(pool, rng.randint(5, 9)) + rng.sample(shared, 3)
        docs.append(Document(id=f"doc{j:04d}", text=" ".join(words)))

    started = time.perf_counter()
    tracemalloc.start()
    matrix = build_matrix(docs)
    tree = build_dendrogram(energy_distance_vector(energy_matrix(matrix)))
    cut = cut_at_threshold(tree, 0.9)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    elapsed = time.perf_counter() - started

    n = len(docs)
    grouped = {i for g in cut.groups for i in g}
    assert grouped | set(cut.ungrouped) == set(range(n))
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
    # n x n float64 is the dominant lawful structure; a few live at once
    # (gram, its square, the cut matrix), so allow a constant factor.
    # Measured peak is ~3.6x of 8n^2; 8x leaves headroom without letting
    # an O(n^2 p) or O(n^3) regression slip through.
    budget = 8 * 8 * n * n
    assert peak < budget, f"peak memory {peak / 1e6:.0f}MB exceeds {budget / 1e6:.0f}MB"
    print(
        f"criterion 8 PASS: n={n} in {elapsed:.1f}s, "
        f"peak {peak / 1e6:.0f}MB < {budget / 1e6:.0f}MB"
    )
