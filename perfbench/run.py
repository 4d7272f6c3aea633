#!/usr/bin/env python3
"""Benchmark for defclust: seeded workloads through the real CLI entry point.

Run from the repository root:

    python3 perfbench/run.py --workload topics-1k-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Every op calls ``defclust.cli.main(argv)`` in this process, the code path
of the ``defclust`` console script, in a closed loop: the next op starts
when the previous one returns.  The program is imported from ``src/`` of
the checkout this file sits in; nothing is installed or built.  BLAS and
OpenMP thread pools are capped at the number of usable cores.

Workloads (inputs are generated from ``--seed``; sizes do not depend on it):

* ``topics-1k-sweep``: one ``sweep`` over the acceptance-gate generator at
  n=1000 with gold senses, default 100-point grid.  The O(n^3) energy
  and dendrogram stages dominate.
* ``per-term-sweep``: one ``sweep`` per small per-term corpus (2-6 senses,
  60-250 paraphrases, plus the bundled 120-document corpus), with the
  bundled stopwords.  Fixed per-call costs and the 100 cut+score passes
  dominate.
* ``extract-dups-cluster``: ``extract --emit corpus`` over raw text with
  planted definitional formulas, then ``cluster --alpha 0.5`` on the
  result.  Tails repeat, so ties decide most merges; the only workload
  that runs ``patterns``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints per-layer metrics.  Every op's
output bytes are checked (see ``output_gate.py``); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run details, and the spans of a traced run,
are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Thread pools read these once, when numpy loads, so they are set before
# the imports below pull numpy in.
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

import workload_inputs  # noqa: E402
from layer_trace import COUNT_METRICS, LAYER_METRICS, ROOT_SPAN, Tracer, summarize_passes  # noqa: E402
from output_gate import (  # noqa: E402
    Gate,
    check_extract_cluster,
    check_sweep_csv,
    digest,
    input_digest,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DATA = "src/defclust/data"
STOPWORDS = f"{DATA}/spanish_stopwords.txt"
BUNDLED_CORPUS = f"{DATA}/synthetic_definitions.jsonl"
PATTERNS_FILE = f"{DATA}/default_patterns.tsv"
REFERENCES = BENCH_DIR / "references.json"

WORKLOADS = ("topics-1k-sweep", "per-term-sweep", "extract-dups-cluster")
CLUSTER_ALPHA = "0.5"

END_TO_END = {
    "wall_s_p50": "s",
    "docs_per_s": "1/s",
    "peak_alloc_mb": "MB",
    "setup_s": "s",
}

# (senses, documents) of each generated per-term corpus.  Fixed, so that
# every seed gives the same amount of work.
PER_TERM_SHAPES = (
    (2, 60), (3, 75), (2, 90), (4, 100), (3, 110), (5, 130),
    (4, 150), (6, 170), (5, 190), (6, 210), (4, 230), (6, 250),
)


@dataclass(frozen=True)
class Scale:
    topics_docs: int
    per_term_shapes: tuple[tuple[int, int], ...]
    extract: dict
    setup_runs: int


FULL = Scale(
    topics_docs=1000,
    per_term_shapes=PER_TERM_SHAPES,
    extract=dict(terms=40, files=8, definitions=850, filler_bytes=440_000),
    setup_runs=11,
)
SMOKE = Scale(
    topics_docs=60,
    per_term_shapes=((2, 24), (3, 30)),
    extract=dict(terms=4, files=2, definitions=24, filler_bytes=6_000),
    setup_runs=2,
)


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: CLI calls in order, and what to check."""

    argvs: list[list[str]]
    outputs: list[Path]
    docs: int
    invariant: Callable[[list[bytes]], str | None]  # error message or None
    key: str  # input digest


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def load_program() -> dict:
    """Import defclust from this checkout's src/ and return its modules."""
    if not (SRC / "defclust" / "cli.py").is_file():
        raise BenchError(f"no defclust sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import defclust.cli
    import defclust.evaluation
    import defclust.hac
    import defclust.patterns

    if not Path(defclust.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"defclust was imported from {defclust.__file__}, not {SRC}")
    return {
        "cli": defclust.cli,
        "evaluation": defclust.evaluation,
        "hac": defclust.hac,
        "patterns": defclust.patterns,
    }


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path.relative_to(ROOT))


def _op(argvs, reads, outputs, docs, invariant) -> Op:
    return Op(
        argvs=argvs,
        outputs=[ROOT / p for p in outputs],
        docs=docs,
        invariant=invariant,
        key=input_digest(argvs, [ROOT / p for p in reads]),
    )


def build_ops(workload: str, seed: int, scale: Scale, work: Path, modules: dict) -> list[Op]:
    """Write the workload's inputs under ``work`` and return one pass of ops."""
    rng = random.Random(seed)
    if workload == "topics-1k-sweep":
        corpus = _write(work / "topics.jsonl", workload_inputs.topics_corpus(rng, scale.topics_docs))
        out = _write(work / "topics.csv", "")
        argv = ["sweep", corpus, "-o", out]
        return [_op([argv], [corpus], [out], scale.topics_docs, lambda o: check_sweep_csv(o[0]))]

    if workload == "per-term-sweep":
        corpora = [(BUNDLED_CORPUS, 120)]
        for k, (senses, n) in enumerate(scale.per_term_shapes):
            text = workload_inputs.per_term_corpus(rng, senses, n)
            corpora.append((_write(work / f"term{k:02d}.jsonl", text), n))
        ops = []
        for k, (corpus, n) in enumerate(corpora):
            out = _write(work / f"term{k:02d}.csv", "")
            argv = ["sweep", corpus, "--stopwords", STOPWORDS, "-o", out]
            ops.append(
                _op([argv], [corpus, STOPWORDS], [out], n, lambda o: check_sweep_csv(o[0]))
            )
        return ops

    if workload == "extract-dups-cluster":
        templates = [(t.surface, t.def_type) for t in modules["patterns"].default_templates()]
        inputs = workload_inputs.extract_inputs(rng, templates, **scale.extract)
        texts = [_write(work / f"text{i:02d}.txt", t) for i, t in enumerate(inputs.texts)]
        terms = _write(work / "terms.txt", "".join(t + "\n" for t in inputs.terms))
        corpus = _write(work / "extracted.jsonl", "")
        clustering = _write(work / "clustering.json", "")
        ordinal: dict[int, int] = {}
        expected = []
        for index, term, def_type, tail in inputs.expected:
            ordinal[index] = ordinal.get(index, 0) + 1
            expected.append(
                {"id": f"{texts[index]}#{ordinal[index]}", "text": tail, "term": term, "def_type": def_type}
            )
        argvs = [
            ["extract", *texts, "--terms-file", terms, "--emit", "corpus", "-o", corpus],
            ["cluster", corpus, "--alpha", CLUSTER_ALPHA, "--stopwords", STOPWORDS, "-o", clustering],
        ]
        return [
            _op(
                argvs,
                [*texts, terms, PATTERNS_FILE, STOPWORDS],
                [corpus, clustering],
                len(expected),
                lambda o: check_extract_cluster(o[0], o[1], expected, float(CLUSTER_ALPHA)),
            )
        ]

    raise BenchError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


class Runner:
    """Runs ops of one workload, checks each, and counts failures."""

    def __init__(self, modules: dict, gate: Gate):
        self.cli = modules["cli"]
        self.gate = gate
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, op: Op, tracer: Tracer | None = None) -> float:
        for path in op.outputs:
            path.unlink(missing_ok=True)
        stderr = io.StringIO()
        code = 0
        error = None
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                with tracer.span("op") if tracer else contextlib.nullcontext():
                    for argv in op.argvs:
                        with tracer.span(ROOT_SPAN) if tracer else contextlib.nullcontext():
                            code = self.cli.main(argv)
                        if code != 0:
                            break
        except Exception:  # an op that raises is a failed op; the run goes on
            error = f"raised:\n{traceback.format_exc()}"
        seconds = time.perf_counter() - start
        if error is None and code != 0:
            error = f"exit code {code}: {stderr.getvalue().strip()[-500:]}"
        if error is None:
            outputs = [path.read_bytes() for path in op.outputs]
            error = self.gate.check_outputs(op.key, outputs, op.invariant)
        if error is None and tracer is not None:
            error = self.gate.check_merges(op.key, tracer.merge_hashes)
        if tracer is not None:
            tracer.merge_hashes = []
        if error:
            self.failures.append(f"{' '.join(op.argvs[-1][:2])}: {error}")
        return seconds

    def run_pass(self, ops: list[Op], tracer: Tracer | None = None) -> list[float]:
        return [self.run_op(op, tracer) for op in ops]


def measure_setup(runs: int) -> float:
    """Median time of ``import defclust.cli`` in a fresh interpreter.

    The interpreter imports numpy first, untimed: numpy's own import is a
    fixed third-party cost that no change to defclust moves, and loading
    its BLAS library swings by a factor of two with the host's load.
    One extra, untimed interpreter runs first so that bytecode caches
    exist, as they do for every CLI run after the first.
    """
    code = (
        "import numpy, time; t = time.perf_counter(); import defclust.cli; "
        "d = time.perf_counter() - t; import defclust; print(d, defclust.__file__)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(runs + 1):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        seconds, where = done.stdout.split()
        if not Path(where).resolve().is_relative_to(SRC):
            raise BenchError(f"fresh interpreter imported defclust from {where}")
        times.append(float(seconds))
    return statistics.median(times[1:])


def environment() -> dict:
    import numpy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no mode argument
        pass
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": NPROC,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def _tail_percentile(times: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p90 with at least ten samples beyond it."""
    for pct in (99, 90):
        if len(times) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(times, n=100)[pct - 1]
    return None


@contextlib.contextmanager
def work_dir(workload: str):
    """A fresh directory for one run's inputs and outputs, removed afterwards."""
    work = BENCH_DIR / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def pass_key(ops: list[Op]) -> str:
    return digest(*(op.key.encode() for op in ops))


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, scale: Scale, references: dict
) -> dict:
    modules = load_program()
    with work_dir(workload) as work:
        return _measure(workload, seed, seconds, trace, scale, modules, work, references)


def _measure(workload, seed, seconds, trace, scale, modules, work, references) -> dict:
    ops = build_ops(workload, seed, scale, work, modules)
    runner = Runner(modules, Gate(references.get("ops", {})))
    metrics: dict[str, float] = {}
    errors: list[str] = []
    details: dict = {"env": environment(), "workload": workload, "seed": seed}

    if not trace:
        metrics["setup_s"] = measure_setup(scale.setup_runs)
        # Untimed first pass under tracemalloc: it also warms caches.
        peak = 0
        tracemalloc.start()
        try:
            for op in ops:
                tracemalloc.reset_peak()
                runner.run_op(op)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        times: list[float] = []
        docs = 0
        deadline = time.perf_counter() + seconds
        while True:
            times.extend(runner.run_pass(ops))
            docs += sum(op.docs for op in ops)
            if time.perf_counter() >= deadline:
                break
        metrics["wall_s_p50"] = statistics.median(times)
        metrics["docs_per_s"] = docs / sum(times)
        metrics["peak_alloc_mb"] = peak / 1e6
        details["op_seconds"] = times
        tail = _tail_percentile(times)
        if tail:
            details[f"wall_s_p{tail[0]}"] = tail[1]
    else:
        tracer = Tracer()
        runner.run_pass(ops)  # untimed warm-up
        untraced: list[float] = []
        traced: list[float] = []
        passes = []
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            untraced.append(sum(runner.run_pass(ops)))
            first_span = len(tracer.spans)
            with tracer.installed(modules):
                traced.append(sum(runner.run_pass(ops, tracer)))
            passes.append(tracer.take_pass(first_span))
        metrics, errors = summarize_passes(passes)
        metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        key = pass_key(ops)
        recorded = references.get("passes", {}).get(key)
        if recorded is not None:
            errors += [
                f"count {name} is {metrics[name]}, recorded {recorded[name]}"
                for name in COUNT_METRICS
                if metrics[name] != recorded[name]
            ]
        details.update(pass_key=key, untraced_pass_s=untraced, traced_pass_s=traced)
        details["spans"] = tracer.spans_as_records()

    details["failures"] = runner.failures
    details["errors"] = errors
    return {
        "metrics": metrics,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "errors": errors,
        "failures": runner.failures,
        "details": details,
    }


def report(result: dict, trace: bool, out_file: Path | None) -> dict:
    """Print the human-readable report and return the final JSON record."""
    units = LAYER_METRICS if trace else END_TO_END
    env = result["details"]["env"]
    print(
        f"env: python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']}, "
        f"nproc {env['nproc']}, threads {env['threads']}"
    )
    for message in result["failures"] + result["errors"]:
        print(f"FAIL {message}")
    for name, unit in units.items():
        print(f"{name:38s} {result['metrics'][name]:>16.6g} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'error_rate':38s} {failed / attempted:>16.6g} failed/attempted ({failed}/{attempted} ops)")
    if not trace:
        times = result["details"]["op_seconds"]
        print(f"timed ops: {len(times)}, wall_s_p50 is their median")
        for key in ("wall_s_p99", "wall_s_p90"):
            if key in result["details"]:
                print(f"{key:38s} {result['details'][key]:>16.6g} s")
    if out_file is not None:
        out_file.parent.mkdir(parents=True, exist_ok=True)
        out_file.write_text(json.dumps(result["details"], indent=1) + "\n")
        print(f"details: {out_file.relative_to(ROOT)}")
    return {
        "correct": failed == 0 and not result["errors"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


def smoke() -> int:
    """Tiny run of every workload in both modes; checks every metric of
    BENCHMARK.json is printed with its unit and every op is correct."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the benchmark's")
    for workload in WORKLOADS:
        for trace in (False, True):
            print(f"== smoke {workload} trace={int(trace)}")
            record = report(run_workload(workload, 1, 0.0, trace, SMOKE, {}), trace, None)
            printed = {name: m["unit"] for name, m in record["metrics"].items()}
            if printed != wanted[trace]:
                problems.append(f"{workload} trace={int(trace)}: metrics {printed} != {wanted[trace]}")
            if not record["correct"]:
                problems.append(f"{workload} trace={int(trace)}: outputs not correct")
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload, both modes")
    args = parser.parse_args(argv)
    os.chdir(ROOT)  # document ids in outputs hold input paths relative to the root
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        trace = bool(args.trace)
        references = json.loads(REFERENCES.read_text(encoding="utf-8"))
        result = run_workload(args.workload, args.seed, args.seconds, trace, FULL, references)
        out_file = BENCH_DIR / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        record = report(result, trace, out_file)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
