"""Command-line front end for the clustering pipeline.

Subcommands:

    extract   scan raw text files for definitional-pattern hits
    cluster   group a corpus at one similarity threshold
    sweep     score clusterings over a whole threshold grid (CSV)
    eval      score an existing clustering against gold senses
    report    print a clustering with member texts and intruder marks

Exit status: 0 on success, 1 on usage errors, 2 on data errors (bad
input files, malformed records).  Output files are written atomically
(temp file, then rename) and default to stdout; a new file gets the mode
the umask allows, an overwritten one keeps its mode.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from .corpus import (
    CORPUS_FORMATS,
    Tokenizer,
    build_matrix,
    corpus_to_jsonl,
    load_corpus,
    load_phrases,
    load_stopwords,
)
from .distance import (
    DISTANCE_MODES,
    energy_distance_vector,
    energy_matrix,
    hamming_distance_vector,
)
from .errors import DataError, read_utf8
from .evaluation import (
    DEFAULT_GRID,
    SWEEP_CSV_HEADER,
    ZONE_NOTE,
    GoldAnnotation,
    SweepGrid,
    format_cluster_report,
    run_sweep,
    score_clustering,
    sweep_to_csv,
)
from .hac import (
    build_dendrogram,
    check_alpha,
    clustering_from_json_dict,
    clustering_to_json,
    cut_at_threshold,
)
from .patterns import (
    candidates_to_corpus,
    candidates_to_jsonl,
    compile_search_patterns,
    default_templates,
    load_pattern_file,
    scan_text,
)


class UsageError(Exception):
    """Bad flags or flag combinations; maps to exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _alpha_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    try:
        return check_alpha(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _grid_value(text: str) -> SweepGrid:
    try:
        return SweepGrid.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _add_corpus_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=CORPUS_FORMATS, default="jsonl")
    sub.add_argument("--stopwords", metavar="PATH", help="stopword file, one per line")
    sub.add_argument("--phrases", metavar="PATH", help="multi-word entity file, one per line")
    sub.add_argument(
        "--drop-term",
        action="store_true",
        help="remove each document's own defined term from its tokens",
    )


def _add_distance_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--distance", choices=("energy", "hamming"), default="energy")
    sub.add_argument(
        "--distance-mode",
        choices=DISTANCE_MODES,
        default="inverted",
        help="energy only: inverted = 1 - normalized energy (default), raw = normalized energy",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="defclust", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    extract = commands.add_parser(
        "extract", help="scan text files for definitional-pattern candidates"
    )
    extract.add_argument("inputs", nargs="+", metavar="TEXTFILE")
    extract.add_argument("--terms", metavar="T1,T2,...", help="comma-separated term list")
    extract.add_argument("--terms-file", metavar="PATH", help="term file, one per line")
    extract.add_argument(
        "--patterns", metavar="PATH", help="template file (surface<TAB>def_type); default: bundled"
    )
    extract.add_argument(
        "--emit",
        choices=("candidates", "corpus"),
        default="candidates",
        help="candidates = raw match records, corpus = documents ready for clustering",
    )
    extract.add_argument("-o", "--output", metavar="PATH", help="default: stdout")
    extract.set_defaults(func=_cmd_extract)

    cluster = commands.add_parser("cluster", help="group a corpus at one threshold")
    cluster.add_argument("corpus", metavar="CORPUS")
    cluster.add_argument("--alpha", type=_alpha_value, required=True, metavar="F")
    cluster.add_argument("--min-size", type=_positive_int, default=2, metavar="N")
    _add_distance_flags(cluster)
    _add_corpus_flags(cluster)
    cluster.add_argument("-o", "--output", metavar="PATH", help="default: stdout")
    cluster.set_defaults(func=_cmd_cluster)

    sweep = commands.add_parser(
        "sweep", help="evaluate every threshold on a grid, writing one CSV row per alpha"
    )
    sweep.add_argument("corpus", metavar="CORPUS")
    sweep.add_argument(
        "gold",
        nargs="?",
        metavar="GOLD",
        help="gold sense file; default: gold_sense fields of the corpus",
    )
    # no --alpha here: a sweep covers the whole grid
    sweep.add_argument("--grid", type=_grid_value, default=DEFAULT_GRID, metavar="S:E:STEP")
    sweep.add_argument("--min-size", type=_positive_int, default=2, metavar="N")
    _add_distance_flags(sweep)
    _add_corpus_flags(sweep)
    sweep.add_argument("-o", "--output", metavar="PATH", help="default: stdout")
    sweep.set_defaults(func=_cmd_sweep)

    evaluate = commands.add_parser(
        "eval", help="precision/recall of a stored clustering against gold senses"
    )
    evaluate.add_argument("clustering", metavar="CLUSTERING_JSON")
    evaluate.add_argument("gold", metavar="GOLD")
    evaluate.add_argument("-o", "--output", metavar="PATH", help="default: stdout")
    evaluate.set_defaults(func=_cmd_eval)

    report = commands.add_parser("report", help="human-readable view of a stored clustering")
    report.add_argument("clustering", metavar="CLUSTERING_JSON")
    report.add_argument(
        "corpus", nargs="?", metavar="CORPUS", help="supplies member texts when given"
    )
    report.add_argument("--gold", metavar="PATH", help="gold senses; enables intruder marks")
    report.add_argument("--format", choices=CORPUS_FORMATS, default="jsonl")
    report.add_argument("-o", "--output", metavar="PATH", help="default: stdout")
    report.set_defaults(func=_cmd_report)

    return parser


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target = Path(path)
    try:
        mode = os.stat(target).st_mode & 0o7777
    except FileNotFoundError:
        # mkstemp creates 0600; a new file gets what open() would give it
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(
        dir=str(target.parent) if str(target.parent) else ".",
        prefix=f".{target.name}.",
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _tokenizer_from(args) -> Tokenizer:
    stopwords = load_stopwords(args.stopwords) if args.stopwords else frozenset()
    phrases = load_phrases(args.phrases) if args.phrases else ()
    return Tokenizer(stopwords=stopwords, phrases=phrases, drop_term=args.drop_term)


def _dendrogram(args, docs):
    """Complete-linkage tree of ``docs`` under the tokenizer and distance flags."""
    # no name holds the tokenizer, the matrix or the energy, so each is
    # freed once the next stage has read it
    if args.distance == "hamming":
        dist = hamming_distance_vector(build_matrix(docs, _tokenizer_from(args)))
    else:
        dist = energy_distance_vector(
            energy_matrix(build_matrix(docs, _tokenizer_from(args))),
            mode=args.distance_mode,
        )
    return build_dendrogram(dist)


def _load_clustering(path: str):
    try:
        record = json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc.msg})") from None
    try:
        return clustering_from_json_dict(record)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: not a clustering file ({exc})") from None


def _load_pairable_corpus(args):
    """Corpus of a cluster or sweep run; distances need at least one pair."""
    docs = load_corpus(args.corpus, format=args.format)
    if len(docs) < 2:
        raise DataError(
            f"{args.corpus}: need at least two documents to cluster, got {len(docs)}"
        )
    return docs


def _cmd_extract(args) -> int:
    terms: list[str] = []
    if args.terms:
        terms.extend(t.strip() for t in args.terms.split(",") if t.strip())
    if args.terms_file:
        for line in read_utf8(args.terms_file).splitlines():
            if line.strip():
                terms.append(line.strip())
    if not terms:
        raise UsageError("extract: no terms given (use --terms and/or --terms-file)")
    templates = load_pattern_file(args.patterns) if args.patterns else default_templates()
    patterns = compile_search_patterns(templates, terms)
    candidates = []
    for name in args.inputs:
        text = read_utf8(name)
        if not text:
            raise DataError(f"{name}: empty file")
        candidates.extend(scan_text(text, source_id=name, patterns=patterns))
    if args.emit == "corpus":
        out = corpus_to_jsonl(candidates_to_corpus(candidates))
    else:
        out = candidates_to_jsonl(candidates)
    _write_output(args.output, out)
    return 0


def _cmd_cluster(args) -> int:
    tree = _dendrogram(args, _load_pairable_corpus(args))
    clustering = cut_at_threshold(tree, args.alpha, min_size=args.min_size)
    _write_output(args.output, clustering_to_json(clustering) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    docs = _load_pairable_corpus(args)
    gold = GoldAnnotation.load(args.gold) if args.gold else GoldAnnotation.from_documents(docs)
    tree = _dendrogram(args, docs)
    rows = run_sweep(tree, total=len(docs), gold=gold, grid=args.grid, min_size=args.min_size)
    _write_output(args.output, sweep_to_csv(rows))
    print(ZONE_NOTE, file=sys.stderr)
    return 0


def _cmd_eval(args) -> int:
    clustering = _load_clustering(args.clustering)
    gold = GoldAnnotation.load(args.gold)
    total = clustering.grouped_count() + len(clustering.ungrouped)
    row = score_clustering(clustering, total, gold)
    result = {name: getattr(row, name) for name in SWEEP_CSV_HEADER}
    _write_output(args.output, json.dumps(result, ensure_ascii=False) + "\n")
    return 0


def _cmd_report(args) -> int:
    clustering = _load_clustering(args.clustering)
    texts = None
    if args.corpus:
        docs = load_corpus(args.corpus, format=args.format)
        texts = {doc.id: doc.text for doc in docs}
    gold = GoldAnnotation.load(args.gold) if args.gold else None
    _write_output(args.output, format_cluster_report(clustering, texts=texts, gold=gold))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
