"""Host-speed calibration for the timed loop.

The benchmark runs on a few cores of a shared host whose speed moves by
up to 2x within a minute, for whole seconds at a time: every layer of a
sweep slows together, so the slowdown is the host's, not the program's.
A fixed piece of pure-Python work (a *slice*: ``Fraction`` sums and dict
updates, the interpreter work the pipeline spends its time on) samples
the host's speed through the run, and each operation's wall time is
scaled to the reference speed at which one slice takes
``REFERENCE_SLICE_S``::

    scaled = (wall - slices run inside it) * REFERENCE_SLICE_S / mean time of its slices

Slices must run *during* the operations: a 25 s ``repro select`` sees
the host change speed several times, and blocks timed around it do not
follow those changes.  So a sampler thread runs one slice every
``PERIOD_S`` while the loop runs.  The interpreter lock keeps the two
threads from running at once; the switch interval is raised while
sampling so that neither interrupts the other for the length of a slice,
and each operation's time leaves out the slices that ran inside it.

The slice code belongs to the benchmark, not to the program, so a change
to the program moves the operations' time and leaves the scale alone.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import sys
import threading
import time
from fractions import Fraction

#: Mean time of one slice on the 2-CPU reference host (Python 3.11.7) in
#: its fast state; it only fixes the scale of the reported seconds.
REFERENCE_SLICE_S = 0.0025
#: Slices in a calibration block run between set-ups.
BLOCK_SLICES = 32
#: The sampler waits this long between slices (slices take about 5% of
#: the run, as the lock hand-over adds to the wait).
PERIOD_S = 0.05
#: An operation is scaled by the slices that ran inside it, or by this
#: many slices nearest to it in time if fewer ran inside it.
NEAREST_SLICES = 20
#: Switch interval while sampling: longer than a slice on a slow host.
SWITCH_INTERVAL_S = 0.05


def one_slice() -> tuple:
    """Fixed work whose time tracks the host's speed for Python code."""
    acc = Fraction(0)
    counts: dict = {}
    for i in range(1, 1100):
        acc += Fraction(i % 47 + 1, i % 53 + 1)
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    return acc, len(counts)


def timed_slice() -> tuple[float, float]:
    """Start and end of one slice, with the collector paused so the
    program's heap size cannot leak into the scale."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        one_slice()
        return start, time.perf_counter()
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Slices timed over one stretch of a run: sampled during the timed
    loop, or in blocks between set-ups.  The host's speed flickers from
    one tenth of a second to the next and drifts over seconds, so a time
    is scaled by the mean of many slices: those around one operation
    (``scale_around``) or all of the stretch (``scale``)."""

    def __init__(self):
        self.slices: list[tuple[float, float]] = []

    def block(self, count: int = BLOCK_SLICES) -> None:
        self.slices.extend(timed_slice() for _ in range(count))

    @contextlib.contextmanager
    def sampling(self):
        """Run the sampler thread for the body; it is stopped and joined
        on every way out."""
        stop = threading.Event()

        def sample() -> None:
            while not stop.wait(PERIOD_S):
                self.slices.append(timed_slice())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(SWITCH_INTERVAL_S)
        thread = threading.Thread(target=sample, name="hostspeed", daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()
            sys.setswitchinterval(interval)

    def inside(self, start: float, end: float) -> float:
        """Seconds of slices that ran between *start* and *end*."""
        total = 0.0
        for begin, finish in reversed(self.slices):
            if finish <= start:
                break
            total += max(0.0, min(finish, end) - max(begin, start))
        return total

    def mean_slice(self) -> float:
        return statistics.fmean(end - start for start, end in self.slices)

    def scale(self) -> float:
        """Scale for the whole stretch."""
        return REFERENCE_SLICE_S / self.mean_slice()

    def scale_around(self, start: float, end: float) -> float:
        """Scale for an operation that ran from *start* to *end*."""
        inside = [b - a for a, b in self.slices if start <= a and b <= end]
        if len(inside) < NEAREST_SLICES:
            middle = (start + end) / 2
            nearest = sorted(self.slices, key=lambda s: abs((s[0] + s[1]) / 2 - middle))
            inside = [b - a for a, b in nearest[:NEAREST_SLICES]]
        return REFERENCE_SLICE_S / statistics.fmean(inside)
