"""Cluster short texts by meaning with a textual-energy distance.

The pipeline: tokenize definitions into a binary document-term matrix,
score document pairs by Hopfield-style textual energy (or a Hamming
baseline), agglomerate with complete linkage, cut the dendrogram at a
similarity threshold, and evaluate the groups against gold sense labels
with adapted recall/precision over a threshold sweep.  A pattern stage
extracts candidate definitional contexts from raw text for clustering.
"""

from .corpus import (
    CORPUS_FORMATS,
    DEF_TYPES,
    BinaryDocTermMatrix,
    Document,
    Tokenizer,
    build_matrix,
    load_corpus,
    load_phrases,
    load_stopwords,
    parse_jsonl_corpus,
)
from .datasets import (
    spanish_stopwords,
    synthetic_definitions,
    synthetic_gold,
    synthetic_tokenizer,
)
from .distance import (
    DISTANCE_MODES,
    EnergyMatrix,
    PairwiseDistances,
    energy_distance_vector,
    energy_matrix,
    hamming_distance_vector,
    pair_distance,
)
from .errors import DataError
from .evaluation import (
    DEFAULT_GRID,
    ZONES,
    EvalRow,
    GoldAnnotation,
    SweepGrid,
    classify_zone,
    format_cluster_report,
    identify_intruders,
    run_sweep,
    score_clustering,
    sweep_to_csv,
)
from .hac import (
    Clustering,
    Dendrogram,
    Merge,
    build_dendrogram,
    clustering_from_json_dict,
    clustering_to_json,
    cut_at_threshold,
)
from .patterns import (
    PLACEHOLDER,
    CandidateContext,
    PatternTemplate,
    SearchPattern,
    candidates_to_corpus,
    candidates_to_jsonl,
    compile_search_patterns,
    default_templates,
    load_pattern_file,
    scan_text,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryDocTermMatrix",
    "CandidateContext",
    "Clustering",
    "CORPUS_FORMATS",
    "DataError",
    "DEF_TYPES",
    "DEFAULT_GRID",
    "Dendrogram",
    "DISTANCE_MODES",
    "Document",
    "EnergyMatrix",
    "EvalRow",
    "GoldAnnotation",
    "Merge",
    "PairwiseDistances",
    "PatternTemplate",
    "PLACEHOLDER",
    "SearchPattern",
    "SweepGrid",
    "Tokenizer",
    "ZONES",
    "build_dendrogram",
    "build_matrix",
    "candidates_to_corpus",
    "candidates_to_jsonl",
    "classify_zone",
    "clustering_from_json_dict",
    "clustering_to_json",
    "compile_search_patterns",
    "cut_at_threshold",
    "default_templates",
    "energy_distance_vector",
    "energy_matrix",
    "format_cluster_report",
    "hamming_distance_vector",
    "identify_intruders",
    "load_corpus",
    "load_pattern_file",
    "load_phrases",
    "load_stopwords",
    "pair_distance",
    "parse_jsonl_corpus",
    "run_sweep",
    "scan_text",
    "score_clustering",
    "spanish_stopwords",
    "sweep_to_csv",
    "synthetic_definitions",
    "synthetic_gold",
    "synthetic_tokenizer",
]
