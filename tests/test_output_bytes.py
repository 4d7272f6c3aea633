"""Pinned output bytes of the bundled corpus in every distance setting.

Other tests compare outputs with each other or with oracles; these digests
pin the bytes themselves, raw energy and Hamming included, so a change to
how distances are stored or walked cannot move them unnoticed.  A change
meant to alter output bytes re-records the digests and says why.  The
bundled records written three times over pin the case where many
documents share one row of the document-term matrix, and the first 20
``ventana`` records without stopwords the case whose distinct energies
are found by sorting, not through a table.
"""

import hashlib
import json
from importlib import resources

import pytest

from defclust.cli import main
from defclust.corpus import build_matrix, load_corpus
from defclust.distance import energy_matrix

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


# the same for the bundled records written three times, with new ids
PINNED_TRIPLED = {
    "energy": (
        "18237efcd9ac955eadd5d89ba64ad5000162cfc6fb7d152dabcdf7d404f67aaa",
        "26481831300707ac5007f8dda4e2e5998d6ceda78ebb6def1d9386eacf948b78",
    ),
    "energy-raw": (
        "8705274b90cc01e068b497fb22e354882975fa0081f640faa439e9637276ca3d",
        "3c365bc68d30bb3f66ec33e910b1049abe5572903e7a6224fe4181fbd3a94ea9",
    ),
    "hamming": (
        "5868852b3cb8abf358004591377b7f569e3bbaa0dd6d5fba5a2a24e1f7dbf869",
        "2b2289c3dcff884873e1279f29132a6ee26c1acacc7d483331eb10baf96f7c1f",
    ),
}


# the same for the first 20 bundled ventana records without stopwords,
# whose energies reach u^2 and so take the sorted upper triangle
PINNED_VENTANA = {
    "energy": (
        "5082ace8b2e1267df272ef39aa3b62e47430d3df29eaad3f2e1dae319de533b0",
        "1fe09ea8545b813c94b9c25d15d7e45804b38fee8f53123edbb328957ad3e187",
    ),
    "energy-raw": (
        "20d59cad251462255cd1558e947acd84551f9e3dfeeabc0e829dddfd17fb6399",
        "6b3b7ba80fe9b712870cddce81cd264cf9626625e613aabbda983a7a34845961",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _tripled_corpus(path) -> str:
    """The bundled records, each followed by two copies under new ids."""
    lines = resources.files("defclust.data").joinpath("synthetic_definitions.jsonl")
    with path.open("w", encoding="utf-8") as out:
        for line in lines.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            for copy in range(3):
                out.write(json.dumps({**record, "id": f"{record['id']}~{copy}"}) + "\n")
    return str(path)


def _output_digests(corpus, flags, tmp_path, stopwords=True) -> tuple[str, str]:
    """sha256 of the ``sweep`` CSV and the ``cluster --alpha 0.5`` JSON,
    with the bundled stopwords unless ``stopwords`` is false."""
    data = resources.files("defclust.data")
    stopwords = ["--stopwords", str(data / "spanish_stopwords.txt")] if stopwords else []
    sweep_csv = tmp_path / "sweep.csv"
    cluster_json = tmp_path / "cluster.json"
    assert main(["sweep", corpus, *stopwords, *flags, "-o", str(sweep_csv)]) == 0
    assert main(
        ["cluster", corpus, "--alpha", "0.5", *stopwords, *flags, "-o", str(cluster_json)]
    ) == 0
    return _sha256(sweep_csv), _sha256(cluster_json)


@pytest.mark.parametrize("setting", sorted(DISTANCE_FLAGS))
def test_bundled_corpus_output_bytes_are_pinned(setting, tmp_path, capsys):
    corpus = str(resources.files("defclust.data") / "synthetic_definitions.jsonl")
    assert _output_digests(corpus, DISTANCE_FLAGS[setting], tmp_path) == PINNED[setting]


@pytest.mark.parametrize("setting", sorted(DISTANCE_FLAGS))
def test_tripled_corpus_output_bytes_are_pinned(setting, tmp_path):
    corpus = _tripled_corpus(tmp_path / "tripled.jsonl")
    assert _output_digests(corpus, DISTANCE_FLAGS[setting], tmp_path) == PINNED_TRIPLED[setting]


@pytest.mark.parametrize("setting", sorted(PINNED_VENTANA))
def test_sorted_triangle_output_bytes_are_pinned(setting, tmp_path):
    lines = resources.files("defclust.data").joinpath("synthetic_definitions.jsonl")
    ventana = [
        line for line in lines.read_text(encoding="utf-8").splitlines()
        if json.loads(line)["term"] == "ventana"
    ][:20]
    corpus = tmp_path / "ventana.jsonl"
    corpus.write_text("".join(line + "\n" for line in ventana), encoding="utf-8")
    energy = energy_matrix(build_matrix(load_corpus(corpus)))
    u = len(energy.gram_sq)
    # 20 distinct rows whose peak reaches u^2: no table over 0..peak is made
    assert energy.rows is None and u == 20 and energy.peak >= u * u
    digests = _output_digests(str(corpus), DISTANCE_FLAGS[setting], tmp_path, stopwords=False)
    assert digests == PINNED_VENTANA[setting]


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
