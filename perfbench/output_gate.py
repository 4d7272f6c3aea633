"""Output gate: every op's output bytes are hashed and checked.

An op's input digest covers its CLI arguments and the bytes of every
file it reads.  ``references.json`` maps input digests to the output
and merge-list hashes recorded from the unmodified program, so any seed
whose inputs were recorded is checked byte for byte.  The first op on
each input is also checked against invariants, which is the only check
for inputs without a reference.  Every later op on the same input must
give the same bytes as the first, and inherits its verdict.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

SWEEP_HEADER = ["alpha", "num_groups", "precision", "recall", "zone"]


def digest(*parts: bytes) -> str:
    """sha256 over length-prefixed parts, truncated to 128 bits of hex."""
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()[:32]


def input_digest(argvs: list[list[str]], files: list[Path]) -> str:
    return digest(
        json.dumps(argvs).encode(), *(path.read_bytes() for path in files)
    )


def check_sweep_csv(data: bytes) -> str | None:
    """Sweep CSV invariants: the grid, non-decreasing recall, one group at 1.00."""
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
    if not rows or rows[0] != SWEEP_HEADER:
        return f"sweep CSV header is {rows[:1]!r}"
    body = rows[1:]
    if len(body) != 100:
        return f"sweep CSV has {len(body)} rows, expected 100"
    alphas = [f"{k / 100:.2f}" for k in range(1, 101)]
    if [row[0] for row in body] != alphas:
        return "sweep CSV alphas are not 0.01..1.00"
    recalls = [float(row[3]) for row in body]
    if any(b < a for a, b in zip(recalls, recalls[1:])):
        return "recall decreases along the sweep"
    if body[-1][1] != "1" or body[-1][3] != "1.000000":
        return f"alpha=1.00 row is {body[-1]!r}, expected one group with recall 1"
    return None


def check_extract_cluster(
    corpus: bytes, clustering: bytes, expected_docs: list[dict], alpha: float
) -> str | None:
    """The extracted corpus equals the planted definitions; the clustering
    is a partition of its documents at the requested alpha."""
    docs = [json.loads(line) for line in corpus.decode("utf-8").splitlines()]
    if docs != expected_docs:
        return f"extracted {len(docs)} documents, expected the {len(expected_docs)} planted"
    record = json.loads(clustering)
    if record["alpha"] != alpha:
        return f"clustering alpha is {record['alpha']}, expected {alpha}"
    members = [m for group in record["groups"] for m in group] + record["ungrouped"]
    if sorted(members) != sorted(doc["id"] for doc in docs):
        return "clustering does not cover every document exactly once"
    if any(len(group) < 2 for group in record["groups"]):
        return "clustering has a group below the default min size"
    return None


class Gate:
    """Checks op outputs against references, invariants and earlier ops."""

    def __init__(self, references: dict[str, dict]):
        self.references = references
        # (kind, input digest) -> (hash of the first op's output, its verdict)
        self.seen: dict[tuple[str, str], tuple[str, str | None]] = {}

    def _compare(self, kind: str, key: str, value: str, first_check) -> str | None:
        earlier = self.seen.get((kind, key))
        if earlier is not None:
            first, verdict = earlier
            return verdict if value == first else f"{kind} differs from the first op on this input"
        reference = self.references.get(key, {}).get(kind)
        if reference is not None and reference != value:
            verdict = f"{kind} hash {value} differs from the recorded {reference}"
        else:
            verdict = first_check()
        self.seen[(kind, key)] = (value, verdict)
        return verdict

    def check_outputs(self, key: str, outputs: list[bytes], invariant) -> str | None:
        return self._compare("output", key, digest(*outputs), lambda: invariant(outputs))

    def check_merges(self, key: str, merge_hashes: list[str]) -> str | None:
        def merge_count() -> str | None:
            return None if len(merge_hashes) == 1 else f"{len(merge_hashes)} dendrograms in one op"

        return self._compare("merges", key, ",".join(merge_hashes), merge_count)
