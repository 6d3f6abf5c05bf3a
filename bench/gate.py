"""Correctness gate: outputs are hashed and checked against recorded digests.

A pipeline pass is cut into blocks of ``BLOCK`` records.  Each record's
trace is hashed as canonical JSON (``PipelineTrace.to_json()`` without its
wall-clock ``timings``, keys sorted), each block's digest hashes its
records' digests, and the pass's ``evaluate`` report (without
``mean_stage_times``) gets one more digest.  A training run is cut into
epochs: each epoch's digest hashes the per-step ``(ce, h_term, kl_term,
total)`` values, and the last one also covers the run's ``checkpoint_id``.

A block that does not match its recorded digest counts every operation in
it as failed; the gate never turns a wrong answer into a slow one.  The
recorded digests live in ``digests.json`` next to this file, one set per
workload and corpus seed; ``record_digests.py`` rewrites it.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

BLOCK = 16
DIGESTS_PATH = Path(__file__).with_name("digests.json")


def digest(obj) -> str:
    """Short stable hash of a JSON-able object (floats hash by their repr)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def trace_digest(trace) -> str:
    doc = trace.to_json()
    doc.pop("timings", None)
    return digest(doc)


def report_digest(report: dict) -> str:
    return digest({k: v for k, v in report.items() if k != "mean_stage_times"})


def epoch_digests(train_report) -> list[str]:
    """One digest per epoch of a ``TrainReport``; the last also covers the checkpoint."""
    per_epoch: list[list] = [[] for _ in range(train_report.epochs)]
    for s in train_report.steps:
        per_epoch[s.epoch].append([s.ce, s.h_term, s.kl_term, s.total])
    out = [digest(rows) for rows in per_epoch]
    out[-1] = digest([out[-1], train_report.checkpoint_id])
    return out


def load_expected(workload: str, corpus_seed: int, path=DIGESTS_PATH) -> list[str]:
    """Recorded digests for one workload and corpus seed ([] when none are recorded)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return []
    return list(doc.get(workload, {}).get(str(corpus_seed), []))


class Gate:
    """Checks observed digests, position by position, and counts the operations.

    ``expected`` lists the digests of one pass in order; position ``i`` of a
    later pass is checked against the same entry.  ``observed`` keeps the
    first pass's digests, which is what ``record_digests.py`` stores.
    """

    def __init__(self, expected: list[str]):
        self.expected = list(expected)
        self.observed: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[dict] = []

    def check(self, position: int, observed: str, n_ops: int) -> bool:
        """Record ``n_ops`` operations whose outputs hash to ``observed``."""
        if position == len(self.observed):
            self.observed.append(observed)
        self.attempted += n_ops
        want = self.expected[position] if position < len(self.expected) else None
        if observed == want:
            return True
        self.failed += n_ops
        self.mismatches.append({"position": position, "observed": observed,
                                "expected": want, "ops": n_ops})
        return False

    def fail(self, n_ops: int, reason: str) -> None:
        """Count operations that produced nothing to hash (they raised)."""
        self.attempted += n_ops
        self.failed += n_ops
        self.mismatches.append({"reason": reason, "ops": n_ops})

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.attempted > 0
