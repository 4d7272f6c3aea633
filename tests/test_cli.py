"""End-to-end runs of every subcommand through cli.main()."""

import json
import os
import random
import stat
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import pytest

from defclust.cli import main

CORPUS_LINES = [
    {"id": "a1", "text": "rueda metal brillante acero", "gold_sense": "s:metal", "term": "rueda"},
    {"id": "a2", "text": "rueda metal acero pulido", "gold_sense": "s:metal", "term": "rueda"},
    {"id": "b1", "text": "flor aroma dulce pétalo", "gold_sense": "s:flor", "term": "flor"},
    {"id": "b2", "text": "flor aroma pétalo suave", "gold_sense": "s:flor", "term": "flor"},
    {"id": "c1", "text": "número primo impar raro", "gold_sense": "s:mate", "term": "número"},
    {"id": "c2", "text": "número primo par divisible", "gold_sense": "s:mate", "term": "número"},
]


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in CORPUS_LINES),
        encoding="utf-8",
    )
    return path


@pytest.fixture
def clustering_file(tmp_path):
    path = tmp_path / "clustering.json"
    record = {
        "alpha": 0.8,
        "groups": [["a1", "a2", "b1"], ["c1", "c2"]],
        "ungrouped": ["b2"],
    }
    path.write_text(json.dumps(record), encoding="utf-8")
    return path


@pytest.fixture
def gold_file(tmp_path):
    path = tmp_path / "gold.jsonl"
    senses = {
        "a1": "s:metal", "a2": "s:metal", "b1": "s:flor",
        "b2": "s:flor", "c1": "s:mate", "c2": "s:mate",
    }
    path.write_text(
        "".join(
            json.dumps({"id": k, "sense": v}) + "\n" for k, v in senses.items()
        ),
        encoding="utf-8",
    )
    return path


def bundled(name):
    return resources.files("defclust.data").joinpath(name)


# ---------------------------------------------------------------- cluster

def test_cluster_absolute_group_to_stdout(corpus_file, capsys):
    assert main(["cluster", str(corpus_file), "--alpha", "1.0"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {"alpha", "groups", "ungrouped"}
    assert record["alpha"] == 1.0
    assert len(record["groups"]) == 1
    assert sorted(record["groups"][0]) == ["a1", "a2", "b1", "b2", "c1", "c2"]
    assert record["ungrouped"] == []


def test_cluster_writes_file_without_leftovers(corpus_file, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert main(["cluster", str(corpus_file), "--alpha", "0.5", "-o", str(out)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert set(record) == {"alpha", "groups", "ungrouped"}
    assert capsys.readouterr().out == ""
    # atomic write leaves no temp droppings behind
    leftovers = [p.name for p in tmp_path.iterdir() if p.name.startswith(".")]
    assert leftovers == []


def test_output_file_modes_follow_the_umask_or_the_old_file(corpus_file, tmp_path, capsys):
    fresh = tmp_path / "fresh.json"
    kept = tmp_path / "kept.json"
    kept.write_text("old\n", encoding="utf-8")
    kept.chmod(0o640)
    old_umask = os.umask(0o022)
    try:
        for out in (fresh, kept):
            assert main(["cluster", str(corpus_file), "--alpha", "0.5", "-o", str(out)]) == 0
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o644
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    assert json.loads(kept.read_text(encoding="utf-8"))["alpha"] == 0.5


def test_cluster_min_size_moves_small_groups_out(corpus_file, capsys):
    assert main(
        ["cluster", str(corpus_file), "--alpha", "0.0", "--min-size", "3"]
    ) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["groups"] == []
    assert len(record["ungrouped"]) == 6


def test_cluster_requires_alpha(corpus_file, capsys):
    assert main(["cluster", str(corpus_file)]) == 1
    assert "usage error" in capsys.readouterr().err


def test_cluster_rejects_alpha_out_of_range(corpus_file, capsys):
    assert main(["cluster", str(corpus_file), "--alpha", "1.5"]) == 1


def test_cluster_missing_file_is_a_data_error(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    assert main(["cluster", str(missing), "--alpha", "0.5"]) == 2
    assert "error" in capsys.readouterr().err


def test_cluster_malformed_corpus_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id":"x"}\n', encoding="utf-8")
    assert main(["cluster", str(bad), "--alpha", "0.5"]) == 2


@pytest.mark.parametrize("command", ["cluster", "sweep"])
def test_one_document_corpus_is_a_data_error(command, tmp_path, capsys):
    single = tmp_path / "single.jsonl"
    single.write_text(
        '{"id":"a","text":"barra de metal","gold_sense":"x"}\n', encoding="utf-8"
    )
    argv = [command, str(single)] + (["--alpha", "0.5"] if command == "cluster" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(single) in err
    assert "got 1" in err


def test_cluster_plain_lines_format(tmp_path, capsys):
    plain = tmp_path / "plain.txt"
    plain.write_text("rueda metal acero\nrueda metal hierro\nflor aroma\n", encoding="utf-8")
    assert main(
        ["cluster", str(plain), "--format", "plain_lines", "--alpha", "1.0"]
    ) == 0
    record = json.loads(capsys.readouterr().out)
    assert sorted(record["groups"][0]) == ["1", "2", "3"]


def test_cluster_accepts_raw_distance_mode(corpus_file, capsys):
    assert main(
        ["cluster", str(corpus_file), "--alpha", "0.5", "--distance-mode", "raw"]
    ) == 0
    json.loads(capsys.readouterr().out)


def test_cluster_tokenizer_flags(corpus_file, tmp_path, capsys):
    stopwords = tmp_path / "sw.txt"
    stopwords.write_text("raro\npulido\nsuave\n", encoding="utf-8")
    assert main(
        [
            "cluster", str(corpus_file),
            "--alpha", "1.0",
            "--stopwords", str(stopwords),
            "--drop-term",
        ]
    ) == 0
    record = json.loads(capsys.readouterr().out)
    assert len(record["groups"]) == 1


# ---------------------------------------------------------------- sweep

def test_sweep_emits_hundred_rows(corpus_file, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", str(corpus_file), "-o", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "alpha,num_groups,precision,recall,zone"
    assert len(lines) == 101
    assert lines[1].startswith("0.01,")
    assert lines[-1].startswith("1.00,")
    assert lines[-1].endswith(",absolute")
    # the zone repair is stated on stderr with every sweep
    assert "zone" in capsys.readouterr().err


def test_sweep_rejects_alpha_flag(corpus_file, capsys):
    assert main(["sweep", str(corpus_file), "--alpha", "0.5"]) == 1


def test_sweep_gold_defaults_to_corpus_labels(tmp_path, capsys):
    corpus = bundled("synthetic_definitions.jsonl")
    gold = bundled("synthetic_gold.jsonl")
    with_gold = tmp_path / "a.csv"
    without_gold = tmp_path / "b.csv"
    assert main(["sweep", str(corpus), str(gold), "-o", str(with_gold)]) == 0
    assert main(["sweep", str(corpus), "-o", str(without_gold)]) == 0
    assert with_gold.read_bytes() == without_gold.read_bytes()


def test_sweep_names_the_first_grouped_document_without_gold(tmp_path, capsys):
    # celula-biologia-10 comes first in the gold file, but
    # punto-costura-07 joins a group at a lower alpha
    dropped = {"celula-biologia-10", "punto-costura-07"}
    lines = bundled("synthetic_gold.jsonl").read_text(encoding="utf-8").splitlines()
    gold = tmp_path / "gold.jsonl"
    gold.write_text(
        "".join(line + "\n" for line in lines if json.loads(line)["id"] not in dropped),
        encoding="utf-8",
    )
    out = tmp_path / "sweep.csv"
    corpus = bundled("synthetic_definitions.jsonl")
    stopwords = bundled("spanish_stopwords.txt")
    argv = ["sweep", str(corpus), str(gold), "--stopwords", str(stopwords), "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: no gold sense for grouped document 'punto-costura-07'\n"
    )
    assert not out.exists()


def test_sweep_hamming_shares_the_csv_schema(corpus_file, tmp_path, capsys):
    energy = tmp_path / "energy.csv"
    hamming = tmp_path / "hamming.csv"
    assert main(["sweep", str(corpus_file), "-o", str(energy)]) == 0
    assert main(
        ["sweep", str(corpus_file), "--distance", "hamming", "-o", str(hamming)]
    ) == 0
    e_lines = energy.read_text(encoding="utf-8").splitlines()
    h_lines = hamming.read_text(encoding="utf-8").splitlines()
    assert e_lines[0] == h_lines[0]
    assert len(e_lines) == len(h_lines) == 101
    assert [l.split(",")[0] for l in e_lines] == [l.split(",")[0] for l in h_lines]


def test_sweep_custom_grid(corpus_file, tmp_path, capsys):
    out = tmp_path / "small.csv"
    assert main(
        ["sweep", str(corpus_file), "--grid", "0.2:0.6:0.2", "-o", str(out)]
    ) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["0.20", "0.40", "0.60"]


def test_sweep_rejects_bad_grid(corpus_file, capsys):
    assert main(["sweep", str(corpus_file), "--grid", "0.5:0.1:0.1"]) == 1


def test_sweep_rejects_a_grid_too_fine_to_hold(corpus_file, tmp_path, capsys):
    out = tmp_path / "fine.csv"
    assert main(["sweep", str(corpus_file), "--grid", "0.5:1:1e-15", "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ")
    assert captured.err.count("\n") == 1
    assert "500000000000001 points" in captured.err
    assert not out.exists()


def test_reruns_are_byte_identical(corpus_file, tmp_path, capsys):
    first = tmp_path / "one.csv"
    second = tmp_path / "two.csv"
    for out in (first, second):
        assert main(["sweep", str(corpus_file), "-o", str(out)]) == 0
    assert first.read_bytes() == second.read_bytes()

    j1 = tmp_path / "one.json"
    j2 = tmp_path / "two.json"
    for out in (j1, j2):
        assert main(["cluster", str(corpus_file), "--alpha", "0.7", "-o", str(out)]) == 0
    assert j1.read_bytes() == j2.read_bytes()


# ---------------------------------------------------------------- eval

def test_eval_reports_known_metrics(clustering_file, gold_file, capsys):
    assert main(["eval", str(clustering_file), str(gold_file)]) == 0
    result = json.loads(capsys.readouterr().out)
    # group (a1,a2,b1): b1 intrudes; group (c1,c2): pure
    assert result == {
        "alpha": 0.8,
        "num_groups": 2,
        "precision": 0.8,
        "recall": 5 / 6,
        "zone": "zone2",
    }


def test_eval_accepts_corpus_as_gold(clustering_file, corpus_file, capsys):
    assert main(["eval", str(clustering_file), str(corpus_file)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["precision"] == 0.8


def test_eval_gold_file_whose_ids_mention_gold_sense(tmp_path, capsys):
    clustering = tmp_path / "clustering.json"
    clustering.write_text(
        json.dumps({"alpha": 0.5, "groups": [["gold_sense-demo", "x"]], "ungrouped": []}),
        encoding="utf-8",
    )
    gold = tmp_path / "gold.jsonl"
    gold.write_text(
        '{"id": "gold_sense-demo", "sense": "a"}\n{"id": "x", "sense": "b"}\n',
        encoding="utf-8",
    )
    assert main(["eval", str(clustering), str(gold)]) == 0
    assert json.loads(capsys.readouterr().out)["precision"] == 0.5


def test_eval_names_the_grouped_document_without_gold(
    clustering_file, gold_file, tmp_path, capsys
):
    gold = tmp_path / "partial-gold.jsonl"
    lines = gold_file.read_text(encoding="utf-8").splitlines(keepends=True)
    gold.write_text("".join(line for line in lines if '"a2"' not in line), encoding="utf-8")
    out = tmp_path / "eval.json"
    assert main(["eval", str(clustering_file), str(gold), "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: no gold sense for grouped document 'a2'\n"
    assert not out.exists()


def test_eval_rejects_non_clustering_json(tmp_path, gold_file, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alpha": 0.5}', encoding="utf-8")
    assert main(["eval", str(bad), str(gold_file)]) == 2
    bad.write_text("not json", encoding="utf-8")
    assert main(["eval", str(bad), str(gold_file)]) == 2


@pytest.mark.parametrize(
    "record",
    [
        {"alpha": 0.8, "groups": [[]], "ungrouped": ["a1"]},
        {"alpha": 5, "groups": [["a1", "a2"]], "ungrouped": ["b1"]},
        {"alpha": 0.8, "groups": [["a1", "a2"], ["a2", "b1"]], "ungrouped": []},
        {"alpha": 0.8, "groups": [["a1", "a2"]], "ungrouped": ["a2", "b1"]},
        {"alpha": 0.8, "groups": "ab", "ungrouped": []},
        {"alpha": True, "groups": [["a1", "a2"]], "ungrouped": ["b1"]},
        {"alpha": "0.5", "groups": [["a1", "a2"]], "ungrouped": ["b1"]},
        {"alpha": 0.5, "groups": [], "ungrouped": []},
    ],
    ids=["empty-group", "alpha-5", "label-in-two-groups", "label-grouped-and-ungrouped",
         "groups-string", "alpha-true", "alpha-string", "no-documents"],
)
@pytest.mark.parametrize("command", ["eval", "report"])
def test_malformed_clustering_is_a_located_data_error(
    command, record, tmp_path, gold_file, capsys
):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    if command == "eval":
        argv = ["eval", str(path), str(gold_file)]
    else:
        argv = ["report", str(path), "--gold", str(gold_file)]
    assert main(argv) == 2
    assert f"error: {path}: not a clustering file" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "eval"])
def test_gold_file_is_read_once(
    command, corpus_file, clustering_file, gold_file, monkeypatch, capsys
):
    reads = []
    read_bytes = Path.read_bytes

    def counting_read_bytes(path):
        reads.append(path)
        return read_bytes(path)

    # every user file is read through errors.read_utf8, i.e. Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", counting_read_bytes)
    first = corpus_file if command == "sweep" else clustering_file
    assert main([command, str(first), str(gold_file)]) == 0
    assert reads.count(gold_file) == 1


@pytest.mark.parametrize("line", ["not json", "[1, 2]"], ids=["invalid-json", "array"])
def test_corpus_and_gold_files_report_bad_lines_alike(
    line, corpus_file, clustering_file, tmp_path, capsys
):
    corpus = tmp_path / "bad-corpus.jsonl"
    corpus.write_text(corpus_file.read_text(encoding="utf-8") + line + "\n", encoding="utf-8")
    gold = tmp_path / "bad-gold.jsonl"
    gold.write_text('{"id": "a1", "sense": "s"}\n\n' + line + "\n", encoding="utf-8")
    assert main(["cluster", str(corpus), "--alpha", "0.5"]) == 2
    corpus_err = capsys.readouterr().err
    assert main(["eval", str(clustering_file), str(gold)]) == 2
    gold_err = capsys.readouterr().err
    assert corpus_err.startswith(f"error: {corpus}:{len(CORPUS_LINES) + 1}: ")
    assert gold_err.startswith(f"error: {gold}:3: ")
    assert corpus_err.split(": ", 2)[2] == gold_err.split(": ", 2)[2]


CORPUS_LINE_2 = {"id": "z", "text": "rueda de metal", "gold_sense": "s:metal"}
NON_STRING_FIELDS = {
    "corpus-gold-sense-array": ("corpus", {"gold_sense": ["s"]}, lambda bad, f: ["sweep", bad]),
    "corpus-gold-sense-object": ("corpus", {"gold_sense": {"s": 1}}, lambda bad, f: ["sweep", bad]),
    "corpus-term-number": (
        "corpus", {"term": 7}, lambda bad, f: ["cluster", bad, "--alpha", "0.5", "--drop-term"]
    ),
    "gold-sense-array": ("gold", {"sense": ["s"]}, lambda bad, f: ["sweep", f["corpus"], bad]),
    "gold-sense-object": ("gold", {"sense": {"s": 1}}, lambda bad, f: ["eval", f["groups"], bad]),
    "gold-id-array": ("gold", {"id": ["a2"]}, lambda bad, f: ["eval", f["groups"], bad]),
    "corpus-gold-sense-nan": ("corpus", {"gold_sense": float("nan")}, lambda bad, f: ["sweep", bad]),
    "gold-sense-nan": ("gold", {"sense": float("nan")}, lambda bad, f: ["sweep", f["corpus"], bad]),
}


@pytest.mark.parametrize("case", NON_STRING_FIELDS)
def test_non_string_fields_are_located_data_errors(
    case, corpus_file, clustering_file, tmp_path, capsys
):
    role, field, argv = NON_STRING_FIELDS[case]
    if role == "corpus":
        records = [CORPUS_LINES[0], {**CORPUS_LINE_2, **field}, *CORPUS_LINES[1:]]
    else:
        records = [{"id": rec["id"], "sense": rec["gold_sense"]} for rec in CORPUS_LINES]
        records[1] = {**records[1], **field}
    bad = tmp_path / f"{role}.jsonl"
    bad.write_text("".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")
    files = {"corpus": str(corpus_file), "groups": str(clustering_file)}
    assert main(argv(str(bad), files)) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}:2: ")


# ---------------------------------------------------------------- report

def test_report_with_texts_and_intruders(clustering_file, corpus_file, capsys):
    assert main(
        ["report", str(clustering_file), str(corpus_file), "--gold", str(corpus_file)]
    ) == 0
    out = capsys.readouterr().out
    assert "zone2" in out
    assert "sense=s:metal" in out
    assert "! b1" in out
    assert "flor aroma dulce pétalo" in out
    assert "ungrouped: b2" in out


def test_report_bare(clustering_file, capsys):
    assert main(["report", str(clustering_file)]) == 0
    out = capsys.readouterr().out
    assert "group 1 (3 members)" in out
    assert "ungrouped: b2" in out


# ---------------------------------------------------------------- extract

def test_extract_candidates_jsonl(tmp_path, capsys):
    sample = tmp_path / "sample.txt"
    sample.write_text(
        "Hoy la aguja es un instrumento fino. "
        "el miedo a la aguja es el más frecuente. "
        "Aquí no hay nada.\n",
        encoding="utf-8",
    )
    assert main(["extract", str(sample), "--terms", "aguja"]) == 0
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == 2
    tails = {r["tail"] for r in records}
    assert tails == {"instrumento fino", "más frecuente"}
    for r in records:
        assert set(r) == {"source_id", "span", "term", "pattern", "def_type", "tail"}
        assert r["term"] == "aguja"


def test_extract_emit_corpus(tmp_path, capsys):
    sample = tmp_path / "s.txt"
    sample.write_text(
        "la barra es un perfil largo. la barra es la pieza del bar.\n",
        encoding="utf-8",
    )
    assert main(["extract", str(sample), "--terms", "barra", "--emit", "corpus"]) == 0
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert [r["id"] for r in records] == [f"{sample}#1", f"{sample}#2"]
    assert records[0]["text"] == "perfil largo"
    assert all(r["def_type"] == "analytic" for r in records)


def test_extract_terms_file_and_custom_patterns(tmp_path, capsys):
    sample = tmp_path / "s.txt"
    sample.write_text("se sabe que contiene hierro puro.\n", encoding="utf-8")
    terms = tmp_path / "terms.txt"
    terms.write_text("hierro\n\n", encoding="utf-8")
    patterns = tmp_path / "p.tsv"
    patterns.write_text("contiene <T>\textensional\n", encoding="utf-8")
    assert main(
        [
            "extract", str(sample),
            "--terms-file", str(terms),
            "--patterns", str(patterns),
        ]
    ) == 0
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert len(records) == 1
    assert records[0]["def_type"] == "extensional"
    assert records[0]["tail"] == "puro"


def test_extract_requires_terms(tmp_path, capsys):
    sample = tmp_path / "s.txt"
    sample.write_text("algo\n", encoding="utf-8")
    assert main(["extract", str(sample)]) == 1
    assert "no terms" in capsys.readouterr().err


def test_extract_multiple_inputs(tmp_path, capsys):
    one = tmp_path / "uno.txt"
    two = tmp_path / "dos.txt"
    one.write_text("la aguja es un util.\n", encoding="utf-8")
    two.write_text("la aguja es un objeto.\n", encoding="utf-8")
    assert main(["extract", str(one), str(two), "--terms", "aguja"]) == 0
    records = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert {r["source_id"] for r in records} == {str(one), str(two)}


# ---------------------------------------------------------------- encodings

# Each case: the Latin-1 file's role, its text, and the argv around it.
LATIN1_CASES = {
    "extract-text": ("la aguja es un café\n", lambda bad, f: ["extract", bad, "--terms", "aguja"]),
    "terms-file": ("aguja\ncañón\n", lambda bad, f: ["extract", f["text"], "--terms-file", bad]),
    "pattern-file": (
        "la <T> es un\tanalytic\nla <T> está\tanalytic\n",
        lambda bad, f: ["extract", f["text"], "--terms", "aguja", "--patterns", bad],
    ),
    "cluster-corpus": (
        '{"id": "a", "text": "rueda"}\n{"id": "b", "text": "pétalo"}\n',
        lambda bad, f: ["cluster", bad, "--alpha", "0.5"],
    ),
    "sweep-gold": (
        '{"id": "a1", "sense": "s:métal"}\n',
        lambda bad, f: ["sweep", f["corpus"], bad],
    ),
    "eval-clustering": (
        '{"alpha": 0.8, "groups": [["a1", "a2"]], "ungrouped": ["ñu"]}',
        lambda bad, f: ["eval", bad, f["gold"]],
    ),
}


@pytest.mark.parametrize("role", LATIN1_CASES)
def test_non_utf8_input_is_a_located_data_error(
    role, corpus_file, gold_file, tmp_path, capsys
):
    content, argv = LATIN1_CASES[role]
    text = tmp_path / "text.txt"
    text.write_text("la aguja es un objeto.\n", encoding="utf-8")
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(content.encode("latin-1"))
    offset = next(i for i, ch in enumerate(content) if ord(ch) > 127)
    files = {"text": str(text), "corpus": str(corpus_file), "gold": str(gold_file)}
    assert main(argv(str(bad), files)) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert f"at offset {offset}" in err


# ---------------------------------------------------------------- plumbing

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["cluster", "--help"]) == 0
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_unknown_flag_is_usage_error(corpus_file, capsys):
    assert main(["cluster", str(corpus_file), "--alpha", "0.5", "--wat"]) == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "defclust.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "COMMAND" in proc.stdout


def test_cluster_and_sweep_leave_numpy_ma_unimported(tmp_path):
    # numpy.ma comes in with the first np.unique call and adds over 1 MB
    # to a traced run's peak; no stage of these commands needs it.
    script = (
        "import sys\n"
        "from defclust.cli import main\n"
        "corpus, stop, out = sys.argv[1:]\n"
        "for distance in ('energy', 'hamming'):\n"
        "    common = [corpus, '--stopwords', stop, '--distance', distance]\n"
        "    assert main(['cluster', *common, '--alpha', '0.8', '-o', out + '.json']) == 0\n"
        "    assert main(['sweep', *common, '-o', out + '.csv']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    corpus = bundled("synthetic_definitions.jsonl")
    stopwords = bundled("spanish_stopwords.txt")
    proc = subprocess.run(
        [sys.executable, "-c", script, str(corpus), str(stopwords), str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("distance", ["energy", "hamming"])
def test_cluster_and_sweep_peak_below_one_more_float64_square(distance, tmp_path, capsys):
    # 1000 documents over 20 topics of 25 words and 30 shared ones.  The
    # run peaks near 9.2 n^2 bytes with energies (the float32 square and
    # the 2-byte codes) and 7.5 n^2 with Hamming; the float64 square
    # levels[codes] (8 n^2) next to the codes would take either above 13 n^2.
    n = 1000
    rng = random.Random(2030)
    topics = [[f"w{t:02d}{k:02d}" for k in range(25)] for t in range(20)]
    shared = [f"g{k:02d}" for k in range(30)]
    corpus = tmp_path / "topics.jsonl"
    corpus.write_text(
        "".join(
            json.dumps({
                "id": f"doc{j:04d}",
                "text": " ".join(rng.sample(topics[j % 20], rng.randint(5, 9)) + rng.sample(shared, 3)),
                "gold_sense": f"topic{j % 20}",
            }) + "\n"
            for j in range(n)
        ),
        encoding="utf-8",
    )
    common = [str(corpus), "--distance", distance, "-o", str(tmp_path / "out")]
    for argv in (["cluster", *common, "--alpha", "0.8"], ["sweep", *common]):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 11 * n * n, (argv[0], peak / (n * n))
