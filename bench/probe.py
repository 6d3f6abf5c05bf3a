"""Host-speed probe: a fixed computation timed between operations.

On a shared host the same work can take half again or twice as long from
one minute to the next, because the core is shared with other tenants.
That swing is far wider than any regression worth catching.  So every timed
interval in the benchmark is paired with probe samples taken right next to
it, and reported scaled to a machine on which the probe takes exactly
``REFERENCE_MS``:

    reported = measured * REFERENCE_MS / median(nearby probe samples)

"Nearby" is the probe sample taken just before an operation and the
``RADIUS`` samples on either side of it, so a change of host speed within a
run is followed within a fraction of a second.

The probe does the same kind of work as the program (small float64 matrix
products, row softmax and normalisation, Python object churn), so a host
slowdown stretches both alike.  It never calls the program, so a change to
the program cannot move it.  Raw wall-clock figures are kept in the
result file next to the scaled ones.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_MS = 1.0
ROUNDS = 10
RADIUS = 1


class _Box:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class SpeedProbe:
    def __init__(self, clock=time.perf_counter):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((20, 64))
        self._w = rng.standard_normal((64, 64)) / 8.0
        self.clock = clock
        self.samples: list[float] = []

    def _work(self):
        x = self._x
        for _ in range(ROUNDS):
            h = _Box(x @ self._w).value
            h = h - h.max(axis=1, keepdims=True)
            e = np.exp(h)
            p = e / e.sum(axis=1, keepdims=True)
            xc = p - p.mean(axis=1, keepdims=True)
            x = xc / np.sqrt((xc * xc).mean(axis=1, keepdims=True) + 1e-5)
            _ = [_Box(i) for i in range(20)]
        return x

    def sample(self) -> float:
        """Run the probe once; return (and keep) its duration in seconds."""
        t0 = self.clock()
        self._work()
        dt = self.clock() - t0
        self.samples.append(dt)
        return dt

    def mark(self) -> int:
        """Position in ``samples``; pass it to ``scale`` to use the samples taken since."""
        return len(self.samples)

    def scale(self, since: int = 0) -> float:
        """Factor that converts a duration measured since ``mark()`` to reference speed."""
        return REFERENCE_MS * 1e-3 / statistics.median(self.samples[since:])

    def local_scales(self, since: int = 0) -> list[float]:
        """One factor per sample taken since ``mark()``, from the samples around it."""
        window = self.samples[since:]
        return [REFERENCE_MS * 1e-3 / statistics.median(window[max(0, i - RADIUS):i + RADIUS + 1])
                for i in range(len(window))]
