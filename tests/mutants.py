"""Small mutants of the paper's decision rules and of earlier fixes, each with the
tests that must kill it.

Run it from the repository root::

    python tests/mutants.py

Each row of ``MUTANTS`` replaces one exact text of one file, which must occur
there exactly once.  The runner first runs every named test on an unmutated copy
of the files ``git ls-files`` lists (untracked files that git does not ignore
included), and stops if one fails there.  Then it applies each row to a fresh
temporary copy and runs the row's tests with ``-x -q -p no:cacheprovider``.  A
row is killed when a test fails or cannot be collected, and survives when every
test passes or every test skips.  A row marked ``equivalent`` says why no test
can tell it apart; it still runs, and being killed fails it.  The runner prints
each row's verdict and wall time, and exits non-zero on a text not found exactly
once, on a survivor not marked equivalent, or on an equivalent row that is
killed.  It is not a tier-1 test module (pytest does not collect it): on a
shared 2-core host the table takes about 2 minutes, and one row against the
whole suite would take about one.

The rows that name ``tests/test_cli_digests.py`` are killed only on the numpy
version ``tests/cli_digests.json`` was recorded on; on another, that test skips
and the row survives.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    equivalent: str | None = None   # why no test can kill it


FILTERING = "src/dualstream/filtering.py"
PIPELINE = "src/dualstream/pipeline.py"
DIGESTS = "tests/test_cli_digests.py"
GATE_EDGE = "tests/test_filtering.py::test_the_gate_fires_only_past_a_drop_of_0_1_bits"

MUTANTS = [
    # the paper's decision rules
    Mutant("detect flags a statistic equal to delta", "src/dualstream/detector.py",
           "bool(statistic > delta)", "bool(statistic >= delta)",
           ("tests/test_detector.py::test_a_statistic_equal_to_delta_does_not_flag",)),
    Mutant("the gate fires at a drop of exactly 0.1 bits", FILTERING,
           "return delta_entropy < ENTROPY_DROP_THRESHOLD",
           "return delta_entropy <= ENTROPY_DROP_THRESHOLD",
           ("tests/test_filtering.py::test_entropy_gate_boundary_is_inactive", GATE_EDGE)),
    Mutant("the gate's threshold moves to a drop of 0.2 bits", FILTERING,
           "ENTROPY_DROP_THRESHOLD = -0.1", "ENTROPY_DROP_THRESHOLD = -0.2",
           (GATE_EDGE, "tests/test_filtering.py::test_entropy_gate_active_lower_bound")),
    Mutant("filter_knowledge passes through on a zero epsilon, not on the gate", FILTERING,
           "    if not gate_fires(delta_entropy):\n", "    if epsilon == 0.0:\n",
           (GATE_EDGE,)),
    Mutant("FilterProfile reads the gate inverted", FILTERING,
           "if not gate_fires(self.delta_entropy) and", "if gate_fires(self.delta_entropy) and",
           (GATE_EDGE,)),
    Mutant("the gate decides a non-finite entropy change", FILTERING,
           "    if not math.isfinite(delta_entropy):\n", "    if False:\n",
           ("tests/test_filtering.py"
            "::test_a_non_finite_entropy_change_is_refused_wherever_the_gate_is_read",)),
    Mutant("shared_rows sorts without keeping ties in index order", "src/dualstream/fusion.py",
           'np.argsort(-mass, kind="stable")', "np.argsort(-mass)",
           ("tests/test_fusion.py::test_exact_ties_go_to_the_lowest_index_on_a_long_stream",)),
    Mutant("the fused block may enter past the top layer", "src/dualstream/model.py",
           "return 1 <= layer < n_layers", "return 1 <= layer <= n_layers",
           ("tests/test_model.py::test_fused_input_refuses_a_layer_the_block_cannot_enter",)),
    Mutant("the tail sum covers a third of the layers", "src/dualstream/detector.py",
           "math.ceil(layer_count / 4)", "math.ceil(layer_count / 3)",
           ("tests/test_detector.py::test_default_tail_k_is_quarter_rounded_up",)),
    Mutant("the insertion layer takes the last of tied layers", "src/dualstream/detector.py",
           "insertion_layer=int(np.argmax(d)),",
           "insertion_layer=int(d.size - 1 - np.argmax(d[::-1])),",
           ("tests/test_detector.py::test_insertion_layer_argmax_with_lowest_tie",)),
    Mutant("row parts of at least 7 rows", "src/dualstream/model.py",
           "PART_ROWS = 8", "PART_ROWS = 7",
           (DIGESTS, "tests/test_pipeline.py"),
           equivalent="row parts are bit-exact, so where a batch is cut changes no output"),
    # fixes checked by hand in earlier changes
    Mutant("the EQ softmax's first input shifted by 1e-12", FILTERING,
           "return row_softmax(da, -lam)",
           "return row_softmax(da + np.eye(1, da.size)[0] * 1e-12, -lam)",
           (DIGESTS,)),
    Mutant("_run_window returns its first two traces swapped", PIPELINE,
           "    return traces\n\n\ndef pipeline_run",
           "    return traces[1::-1] + traces[2:]\n\n\ndef pipeline_run",
           (DIGESTS,)),
    Mutant("fused_input reads the norm of the layer below", "src/dualstream/model.py",
           'w[f"l{layer}.ln1.gain"],\n                      w[f"l{layer}.ln1.bias"]',
           'w[f"l{layer - 1}.ln1.gain"],\n                      w[f"l{layer - 1}.ln1.bias"]',
           ("tests/test_random_hosts.py"
            "::test_a_hook_receives_the_fused_input_of_the_stream_entering_its_layer",)),
    Mutant("_run_window takes a flagged verdict's layer unconditionally", PIPELINE,
           "if v.hallucination and can_enter(model.config.n_layers, v.insertion_layer)",
           "if v.hallucination",
           ("tests/test_pipeline.py"
            "::test_a_flagged_verdict_takes_the_fused_block_only_at_a_layer_it_can_enter",)),
    Mutant("load_tensors lets two tensors share bytes", "src/dualstream/tensorstore.py",
           "        if start < end:\n", "        if False:\n",
           ("tests/test_tensorstore.py"
            "::test_a_well_typed_header_loads_as_an_independent_oracle_says",)),
    Mutant("load_tensors reads an unknown dtype as f64", "src/dualstream/tensorstore.py",
           "np_dtype = _DTYPES.get(dtype)", 'np_dtype = _DTYPES.get(dtype, _DTYPES["f64"])',
           ("tests/test_tensorstore.py"
            "::test_a_well_typed_header_loads_as_an_independent_oracle_says",)),
    Mutant("JSON inputs read NaN and Infinity", "src/dualstream/errors.py",
           ", parse_constant=_not_a_number)", ")",
           ("tests/test_cli.py"
            "::test_malformed_inputs_exit_2_with_one_contract_line[traces_statistic_nan]",)),
    Mutant("JSON inputs read 1e400 as infinity", "src/dualstream/errors.py",
           "parse_float=_finite_float, ", "",
           ("tests/test_cli.py"
            "::test_malformed_inputs_exit_2_with_one_contract_line[traces_statistic_1e400]",)),
    # a one-word rewording; the row's texts are single words so that they pin nothing
    Mutant("a refusal reworded", "src/dualstream/detector.py", "supply", "ship",
           ("tests/test_refusal_pins.py",)),
]


def _copy_tree(dest: Path) -> None:
    """The files ``git ls-files`` lists, untracked ones git does not ignore included."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True).stdout.decode()
    for rel in filter(None, listed.split("\0")):
        src = ROOT / rel
        if src.is_file():
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)


def _run_on_copy(tests, row: Mutant | None = None) -> tuple[subprocess.CompletedProcess, float]:
    """pytest of ``tests`` on a fresh temporary copy of the repository with ``row``
    applied, and its wall time in seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if row is not None:
            path = tree / row.file
            path.write_text(path.read_text(encoding="utf-8").replace(row.old, row.new),
                            encoding="utf-8")
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [str(tree / "src"),
                                                           os.environ.get("PYTHONPATH")]))}
        t0 = time.perf_counter()
        result = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                 "no:cacheprovider", *tests],
                                cwd=tree, env=env, capture_output=True, text=True)
        return result, time.perf_counter() - t0


def _misplaced(rows) -> list[str]:
    """One line per row whose old text does not occur exactly once in its file."""
    bad = []
    for row in rows:
        count = (ROOT / row.file).read_text(encoding="utf-8").count(row.old)
        if count != 1:
            bad.append(f"{row.name}: {row.old!r} occurs {count} times in {row.file}")
    return bad


def _verdict(result: subprocess.CompletedProcess) -> str:
    if result.returncode in (1, 2):   # a test failed, or a module could not be collected
        return "killed"
    if result.returncode == 0:
        summary = result.stdout.strip().splitlines()[-1]
        return "survived" if " passed" in summary else "survived (every test skipped)"
    raise RuntimeError(f"pytest exited {result.returncode}:\n{result.stdout}{result.stderr}")


def run(rows) -> int:
    bad = _misplaced(rows)
    if bad:
        print("\n".join(bad))
        return 1
    tests = list(dict.fromkeys(test for row in rows for test in row.tests))
    result, seconds = _run_on_copy(tests)
    if result.returncode:
        print(f"the named tests fail without a mutant:\n{result.stdout}{result.stderr}")
        return 1
    print(f"unmutated: {len(tests)} test selections pass ({seconds:.1f} s)")
    failed = 0
    for row in rows:
        result, seconds = _run_on_copy(row.tests, row)
        verdict = _verdict(result)
        wrong = (verdict == "killed") == (row.equivalent is not None)
        failed += wrong
        note = f" (equivalent: {row.equivalent})" if row.equivalent else ""
        print(f"{'FAIL' if wrong else 'ok'}  {verdict:<8} {seconds:6.1f} s  {row.name}{note}")
    print(f"{len(rows)} rows, {failed} failing")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run(MUTANTS))
