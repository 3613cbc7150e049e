"""Machine-speed reference for timings on a shared, noisy host.

On the 2-core container where the benchmark was built, the same op ran up
to 1.8x slower from one minute to the next, with the interpreter busy the
whole time (process time tracked wall time), so the swings came from the
host, not from waiting.  Five runs of a workload then spread by 17-34%, more
than any useful regression bound.

A short fixed loop of Fraction and dict work, the interpreter operations
storalloc's exact arithmetic spends its time in, is the reference.  While
a ``SpeedProbe`` runs, a SIGALRM handler times that loop every PERIOD_S of
wall time, in the main thread between bytecodes.  A stretch of a run is
then reported at reference speed: its wall time, less the probe's own
time, times CAL_REF_S over the mean reference time sampled during it.
Slow and fast host states moved op times and reference times by the same
factor to within 10%, so the correction holds across states.

The loop runs only benchmark and standard-library code, but it shares the
interpreter and the caches with the library.  A library change that grows
its cache footprint could slow the loop too and so hide part of its own
cost.  A patched library that copies 16 MB every 5 ms of selection did not
slow the loop (README.md, "Reference speed"), but that is one kind of
change on one host; each run prints its factor as ``ref_per_raw``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

# Median reference time on the machine the benchmark was introduced on, so
# reference-speed figures read as seconds there.
CAL_REF_S = 0.0004
PERIOD_S = 0.04
OUTLIER_RATIO = 3.0


def _reference_work() -> Fraction:
    acc = Fraction(0)
    table = {}
    for i in range(1, 150):
        acc += Fraction(i % 7 + 1, i % 11 + 3)
        if acc > 3:
            acc -= 3
        table[i & 255] = acc.numerator & 255
    return acc


def scale(raw_s: float, ref_s: float) -> float:
    """``raw_s`` measured while the reference loop took ``ref_s``, at reference speed."""
    return raw_s * CAL_REF_S / ref_s


def reference_s(samples: int = 25) -> float:
    """Median of back-to-back timings of the reference loop, for stretches
    the probe cannot sample well (interpreter set-up; see run.setup_once)."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        _reference_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class SpeedProbe:
    """Samples the reference loop on a wall-clock timer; see the module docstring.

    ``mark()`` returns a position; ``since(mark)`` gives the mean reference
    time sampled after it and the time the probe itself spent after it.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.busy_s = 0.0

    def _sample(self, signum, frame):
        # A collection triggered inside the loop would bill the interrupted
        # code's garbage to the reference, so collect only after it.
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            t1 = time.perf_counter()
            _reference_work()
            self.samples.append(time.perf_counter() - t1)
        finally:
            if collecting:
                gc.enable()
        self.busy_s += time.perf_counter() - t0

    @contextmanager
    def running(self):
        self._sample(None, None)
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.busy_s

    def since(self, mark: tuple[int, float]) -> tuple[float, float]:
        """(mean reference time, probe time) since ``mark``.  With no sample
        since the mark, the last sample before it stands in.

        A sample over OUTLIER_RATIO times the median was preempted by the
        host scheduler (a 4 ms tick in a 0.4 ms loop) and is left out; slow
        host states stay within 2x and are kept."""
        count, busy = mark
        recent = self.samples[count:] or self.samples[max(count - 1, 0) : count]
        cutoff = OUTLIER_RATIO * statistics.median(recent)
        return statistics.fmean(x for x in recent if x <= cutoff), self.busy_s - busy
