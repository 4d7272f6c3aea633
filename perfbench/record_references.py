#!/usr/bin/env python3
"""Record the output gate's reference hashes and counts into references.json.

    python3 perfbench/record_references.py

Runs one traced pass of every workload at full size for each recorded
seed, and stores per input digest the output and merge-list hashes, and
per pass the count metrics.  Re-record only from a commit whose outputs
are known good: a benchmark run compares against these bytes.
"""

from __future__ import annotations

import json
import os
import sys

import run
from layer_trace import COUNT_METRICS, Tracer
from output_gate import Gate

SEEDS = (*range(21), 2030)  # 2030 is the acceptance test's own corpus


def main() -> int:
    os.chdir(run.ROOT)
    modules = run.load_program()
    references: dict = {"ops": {}, "passes": {}}
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            with run.work_dir(workload) as work:
                ops = run.build_ops(workload, seed, run.FULL, work, modules)
                gate = Gate({})
                runner = run.Runner(modules, gate)
                tracer = Tracer()
                with tracer.installed(modules):
                    runner.run_pass(ops, tracer)
            if runner.failures:
                print(f"{workload} seed {seed}: {runner.failures}", file=sys.stderr)
                return 1
            for op in ops:
                references["ops"][op.key] = {
                    kind: gate.seen[(kind, op.key)][0] for kind in ("output", "merges")
                }
            counts = tracer.take_pass(0)
            references["passes"][run.pass_key(ops)] = {name: counts[name] for name in COUNT_METRICS}
            print(f"{workload} seed {seed}: {len(ops)} ops recorded", flush=True)
    run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
