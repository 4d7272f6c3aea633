"""Shared fixtures: the bundled synthetic corpus piped end to end.

Several test files score the same 120-document collection, so the matrix,
distances, dendrogram and default sweep are built once per session.
``coded_square`` builds hand-made distances for the tests.
"""

import numpy as np
import pytest

from defclust import (
    GoldAnnotation,
    PairwiseDistances,
    build_matrix,
    build_dendrogram,
    energy_distance_vector,
    energy_matrix,
    run_sweep,
    synthetic_definitions,
    synthetic_gold,
    synthetic_tokenizer,
)
from defclust.distance import _code_dtype


def coded_square(square, ids=None) -> PairwiseDistances:
    """Rank codes of a square of distances, the oracle of the library's.

    The levels are the distinct entries with 0.0 first (``np.unique``),
    and each entry's code is the index of its level (``searchsorted``) in
    the smallest dtype that leaves a sentinel.  ``PairwiseDistances``
    checks the rest: shape, range, zero diagonal and symmetry.
    """
    square = np.asarray(square, dtype=np.float64)
    levels = np.unique(np.concatenate(([0.0], square.ravel())))
    codes = np.searchsorted(levels, square).astype(_code_dtype(levels.size))
    return PairwiseDistances(codes, levels, ids=ids)


@pytest.fixture(scope="session")
def synthetic_docs():
    return synthetic_definitions()


@pytest.fixture(scope="session")
def synthetic_senses() -> GoldAnnotation:
    return synthetic_gold()


@pytest.fixture(scope="session")
def synthetic_matrix(synthetic_docs):
    return build_matrix(synthetic_docs, synthetic_tokenizer())


@pytest.fixture(scope="session")
def synthetic_distances(synthetic_matrix):
    return energy_distance_vector(energy_matrix(synthetic_matrix))


@pytest.fixture(scope="session")
def synthetic_tree(synthetic_distances):
    return build_dendrogram(synthetic_distances)


@pytest.fixture(scope="session")
def synthetic_sweep(synthetic_tree, synthetic_docs, synthetic_senses):
    return run_sweep(synthetic_tree, len(synthetic_docs), synthetic_senses)
