"""Pinned output bytes of the bundled corpus in every distance setting.

Other tests compare outputs with each other or with oracles; these digests
pin the bytes themselves, raw energy and Hamming included, so a change to
how distances are stored or walked cannot move them unnoticed.  A change
meant to alter output bytes re-records the digests and says why.
"""

import hashlib
from importlib import resources

import pytest

from defclust.cli import main

DISTANCE_FLAGS = {
    "energy": ["--distance", "energy"],
    "energy-raw": ["--distance", "energy", "--distance-mode", "raw"],
    "hamming": ["--distance", "hamming"],
}

# (sweep CSV, cluster --alpha 0.5 JSON) sha256 per distance setting
PINNED = {
    "energy": (
        "82b93c05955e916b97646c18d8ee850af4b9d67322ca174397096321984f2624",
        "c4020635a5b17b200171d197a789c56894595d0df8f43925e1fa95a92fd0fee8",
    ),
    "energy-raw": (
        "585049022e194f9433f0f3d8375eb2fde3c8ef3188a280cb1e66af3fbb1b0634",
        "cfe5a60688608df49bf5b8711f9838407bbf48682da51227f1ac269eda247b4b",
    ),
    "hamming": (
        "711873c97383796a6a78f6953b71b95966aa2ce81a68d890a110608cfe72cb78",
        "e55aeff1c29e7ff61824f638f0d78f6dc222dcf06a876a4c91ac4ecf59e1fd1a",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("setting", sorted(DISTANCE_FLAGS))
def test_bundled_corpus_output_bytes_are_pinned(setting, tmp_path, capsys):
    data = resources.files("defclust.data")
    corpus = str(data / "synthetic_definitions.jsonl")
    stopwords = ["--stopwords", str(data / "spanish_stopwords.txt")]
    flags = DISTANCE_FLAGS[setting]
    sweep_csv = tmp_path / "sweep.csv"
    cluster_json = tmp_path / "cluster.json"
    assert main(["sweep", corpus, *stopwords, *flags, "-o", str(sweep_csv)]) == 0
    assert main(
        ["cluster", corpus, "--alpha", "0.5", *stopwords, *flags, "-o", str(cluster_json)]
    ) == 0
    assert (_sha256(sweep_csv), _sha256(cluster_json)) == PINNED[setting]


EVAL_LINE = (
    '{"alpha": 0.8, "num_groups": 15, "precision": 1.0, '
    '"recall": 0.7833333333333333, "zone": "zone2"}\n'
)
REPORT_SHA256 = "6b836a1435c392e149d09b6cdf2ffa13ca2b955277f5e73eeadf6988db58b17d"


def test_eval_and_report_bytes_are_pinned(tmp_path):
    data = resources.files("defclust.data")
    corpus = str(data / "synthetic_definitions.jsonl")
    stopwords = ["--stopwords", str(data / "spanish_stopwords.txt")]
    groups = tmp_path / "groups.json"
    evaluation = tmp_path / "eval.json"
    report = tmp_path / "report.txt"
    assert main(["cluster", corpus, "--alpha", "0.8", *stopwords, "-o", str(groups)]) == 0
    assert main(["eval", str(groups), corpus, "-o", str(evaluation)]) == 0
    assert main(["report", str(groups), corpus, "--gold", corpus, "-o", str(report)]) == 0
    assert evaluation.read_text(encoding="utf-8") == EVAL_LINE
    assert _sha256(report) == REPORT_SHA256
