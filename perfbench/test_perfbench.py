"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import shutil
import subprocess
import sys
from pathlib import Path

from output_gate import Gate, check_sweep_csv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

GOOD_CSV = "alpha,num_groups,precision,recall,zone\n" + "".join(
    f"{k / 100:.2f},{1 if k == 100 else 0},{0:.6f},{k / 100:.6f},z\n" for k in range(1, 101)
)


def test_smoke_prints_every_metric_with_its_unit():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert done.stdout.rstrip().endswith("smoke ok")


def test_fails_without_a_result_where_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "out", "__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "per-term-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_sweep_invariants_catch_a_decreasing_recall():
    assert check_sweep_csv(GOOD_CSV.encode()) is None
    broken = GOOD_CSV.replace("0.50,0,0.000000,0.500000", "0.50,0,0.000000,0.400000")
    assert "recall decreases" in check_sweep_csv(broken.encode())


def test_gate_compares_with_the_reference_and_with_the_first_op():
    gate = Gate({"in": {"output": "0" * 32}})
    assert "differs from the recorded" in gate.check_outputs("in", [b"x"], lambda o: None)
    assert "differs from the recorded" in gate.check_outputs("in", [b"x"], lambda o: None)
    gate = Gate({})
    assert gate.check_outputs("in", [b"x"], lambda o: None) is None
    assert "differs from the first op" in gate.check_outputs("in", [b"y"], lambda o: None)
