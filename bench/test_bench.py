"""Self-tests of the benchmark's own machinery: span arithmetic, the digest gate,
failure counting and the wrapper rebinding.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import itertools
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gate import Gate, digest, epoch_digests, trace_digest  # noqa: E402
from tracer import Patches, StepClock, Tracer, ancestor_named, roots, self_times  # noqa: E402


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # op [0, 10] -> forward [1, 6] -> hook [2, 4]; op -> forward [7, 9]
    tr = Tracer(clock=fake_clock([0, 1, 2, 4, 6, 7, 9, 10]))
    tr.record = "rec0"
    op = tr.open("pipeline.pipeline_run")
    fwd = tr.open("model.forward", size=5)
    hook = tr.open("fusion.dssp_update")
    tr.close(hook)
    tr.close(fwd)
    fwd2 = tr.open("model.forward", size=3)
    tr.close(fwd2)
    tr.close(op)

    assert [s.duration for s in tr.spans] == [10, 5, 2, 2]
    assert self_times(tr.spans) == [10 - 5 - 2, 5 - 2, 2, 2]
    assert sum(self_times(tr.spans)) == tr.spans[op].duration
    assert roots(tr.spans) == [op, op, op, op]
    assert ancestor_named(tr.spans, hook, "model.forward") == fwd
    assert ancestor_named(tr.spans, hook, "pipeline.pipeline_run") == op
    assert ancestor_named(tr.spans, fwd2, "model.forward") is None
    assert {s.record for s in tr.spans} == {"rec0"}
    assert tr.spans[fwd].module == "model"


def test_spans_must_close_in_order():
    tr = Tracer(clock=fake_clock(itertools.count()))
    outer = tr.open("a.outer")
    tr.open("a.inner")
    with pytest.raises(RuntimeError):
        tr.close(outer)


def test_wrapper_records_span_even_when_the_call_raises():
    tr = Tracer(clock=fake_clock(itertools.count()))

    def boom(x):
        raise ValueError(x)

    with pytest.raises(ValueError):
        tr.wrap("m.boom", boom)(1)
    assert len(tr.spans) == 1 and tr.spans[0].duration == 1


def test_step_clock_bounds_steps_by_tape_constructions():
    class Tape:
        pass

    calls = []
    # each construction reads the clock before and after the probe
    clock = StepClock(Tape, between=lambda: calls.append(1),
                      clock=fake_clock([1.0, 1.5, 3.0, 3.5, 6.0, 6.5]))
    for _ in range(3):
        assert isinstance(clock.stamped(), Tape)
    assert len(calls) == 3
    assert clock.step_durations(0.0, 10.0) == [1.5, 2.5, 3.5]
    assert clock.step_durations(2.0, 7.0) == [2.5, 0.5]
    assert clock.between_seconds(0.0, 10.0) == 1.5


# ---------------------------------------------------------------------------
# rebinding the program's functions
# ---------------------------------------------------------------------------

def test_install_wraps_every_alias_and_restore_undoes_it():
    from dualstream import cli, model, pipeline, training

    original = model.forward
    tr = Tracer()
    patches = Patches()
    tr.install(patches, model, "forward")
    try:
        for module in (model, pipeline, training, cli):
            assert module.forward is not original
            assert module.forward.__wrapped__ is original
    finally:
        patches.restore()
    for module in (model, pipeline, training, cli):
        assert module.forward is original


# ---------------------------------------------------------------------------
# digest gate
# ---------------------------------------------------------------------------

def make_trace(eq_last=0.25, answer=11):
    from dualstream.detector import DetectionVerdict
    from dualstream.filtering import FilterProfile
    from dualstream.pipeline import PipelineTrace

    verdict = DetectionVerdict(True, 1.5, 1.0, "tail_sum(2)", 3, (0.1, 0.2, 0.7, 0.8))
    eq = np.array([0.5, 0.25, eq_last])
    profile = FilterProfile(1, 3, np.array([0.1, -0.2, 0.3]), eq / eq.sum(), 0.4, -1.5)
    return PipelineTrace("rec0001", verdict, profile, [answer], {"detect": 0.01})


def test_digest_ignores_wall_clock_timings():
    a, b = make_trace(), make_trace()
    b.timings = {"detect": 123.0, "decode": 4.0}
    assert trace_digest(a) == trace_digest(b)


def test_gate_fails_a_perturbed_trace():
    good = make_trace()
    expected = [digest([trace_digest(good)])]
    ulp = make_trace(eq_last=np.nextafter(0.25, 1.0))
    wrong_answer = make_trace(answer=12)
    for bad in (ulp, wrong_answer):
        gate = Gate(expected)
        assert not gate.check(0, digest([trace_digest(bad)]), 16)
        assert (gate.attempted, gate.failed, gate.ok) == (16, 16, False)
    gate = Gate(expected)
    assert gate.check(0, digest([trace_digest(make_trace())]), 16)
    assert (gate.attempted, gate.failed, gate.ok) == (16, 0, True)


def test_failure_counting_is_per_block():
    gate = Gate(["a", "b", "c"])
    gate.check(0, "a", 16)
    gate.check(1, "x", 16)      # one mismatched block fails its 16 operations
    gate.check(2, "c", 1)
    gate.check(0, "a", 16)      # a second pass is checked against the same digests
    gate.check(1, "b", 16)
    gate.fail(5, "raised")      # operations with nothing to hash
    gate.check(3, "d", 2)       # nothing recorded at this position
    assert gate.attempted == 16 + 16 + 1 + 16 + 16 + 5 + 2
    assert gate.failed == 16 + 5 + 2
    assert gate.observed == ["a", "x", "c", "d"]
    assert not gate.ok
    assert not Gate([]).ok      # no operations is not a pass


def test_epoch_digests_localise_a_changed_step():
    def report(total_of_step_3=1.0, ckpt="abc"):
        steps = [SimpleNamespace(epoch=i // 2, ce=0.5, h_term=0.2, kl_term=0.1,
                                 total=total_of_step_3 if i == 3 else 1.0)
                 for i in range(6)]
        return SimpleNamespace(epochs=3, steps=steps, checkpoint_id=ckpt)

    base = epoch_digests(report())
    assert len(base) == 3
    changed = epoch_digests(report(total_of_step_3=1.0000000000000002))
    assert [a == b for a, b in zip(base, changed)] == [True, False, True]
    other_ckpt = epoch_digests(report(ckpt="abd"))
    assert [a == b for a, b in zip(base, other_ckpt)] == [True, True, False]
