"""Outside-in tracing for the benchmark: spans around calls into the program.

Nothing here edits the program.  ``Tracer.install`` wraps a public function
and rebinds *every* attribute of every loaded ``dualstream`` module that
refers to it, so a call is seen whichever import alias made it (``forward``
is bound separately in ``model``, ``pipeline``, ``training`` and ``cli``).
Spans are kept in memory and written out once, when the run ends.

Each span has a name (``<module>.<function>``), start and end times, the
index of the span that was open when it started (its parent) and the id of
the record being processed.  A span's self time is its duration minus the
durations of its direct children; children of one parent never overlap
because the program is single-threaded.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass

PACKAGE = "dualstream"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    record: str = ""
    size: int = 0            # tokens, for calls that take a token sequence

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


def package_modules(package: str = PACKAGE):
    """Every loaded module of ``package``, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))]


class Patches:
    """Attribute rebinding across a package's modules, undone by ``restore``."""

    def __init__(self, package: str = PACKAGE):
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def rebind(self, original, replacement) -> int:
        """Point every module attribute that is ``original`` at ``replacement``."""
        n = 0
        for module in package_modules(self.package):
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, replacement)
                    n += 1
        return n

    def set_attr(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


class StepClock:
    """Time stamps of every ``GradTape`` construction: one per training step.

    The training loop builds one tape per SGD step, so consecutive stamps
    bound the steps.  Installing it rebinds the tape class to a subclass
    whose constructor records the time, first running ``between`` (the
    speed probe) if given.  Each stamp is the pair (before, after) of that
    call, and step durations leave its time out.
    """

    def __init__(self, tape_class, between=None, clock=time.perf_counter):
        self.stamps: list[tuple[float, float]] = []
        stamps = self.stamps

        class StampedTape(tape_class):
            def __init__(self, *args, **kwargs):
                before = clock()
                if between is not None:
                    between()
                stamps.append((before, clock()))
                super().__init__(*args, **kwargs)

        self.tape_class = tape_class
        self.stamped = StampedTape

    def install(self, patches: Patches) -> None:
        if patches.rebind(self.tape_class, self.stamped) == 0:
            raise RuntimeError(f"{self.tape_class.__name__} is bound nowhere")

    def inside(self, start: float, end: float) -> list[tuple[float, float]]:
        return [st for st in self.stamps if start <= st[0] <= end]

    def step_durations(self, start: float, end: float) -> list[float]:
        """Durations of the steps stamped inside [start, end]; the last ends at ``end``."""
        inside = self.inside(start, end)
        nexts = [before for before, _ in inside[1:]] + [end]
        return [b - after for (_, after), b in zip(inside, nexts)]

    def between_seconds(self, start: float, end: float) -> float:
        """Time spent in ``between`` inside [start, end]."""
        return sum(after - before for before, after in self.inside(start, end))


class Tracer:
    """In-memory span recorder fed by function wrappers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.record = ""
        self._stack: list[int] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str, size: int = 0) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent,
                               record=self.record, size=size))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def wrap(self, name: str, fn, size_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, size_of(args, kwargs) if size_of else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def install(self, patches: Patches, module, attr: str, size_of=None) -> None:
        """Wrap ``module.attr`` wherever the package binds it."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        if patches.rebind(original, self.wrap(name, original, size_of)) == 0:
            raise RuntimeError(f"{name} is bound nowhere")

    def count_calls(self, patches: Patches, owner, attr: str, counter: str) -> None:
        """Count calls of a method (no span: it runs too often to time)."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        patches.set_attr(owner, attr, counted)

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def roots(spans: list[Span]) -> list[int]:
    """Index of the outermost ancestor of each span (parents precede children)."""
    out: list[int] = []
    for i, s in enumerate(spans):
        out.append(i if s.parent is None else out[s.parent])
    return out


def ancestor_named(spans: list[Span], index: int, name: str) -> int | None:
    """Nearest strict ancestor of span ``index`` called ``name``, if any."""
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return parent
        parent = spans[parent].parent
    return None
