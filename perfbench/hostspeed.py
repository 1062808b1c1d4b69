"""Host-speed calibration of every reported duration.

The host this benchmark was written on is a shared two-vCPU virtual
machine whose speed swings by up to 1.7x for tens of seconds at a time
(a fixed pure-Python loop, timed every 0.1 s for 150 s).  Medians cannot
remove a slow spell that covers a whole run.  So a short fixed loop runs
between timed intervals, and each interval is rescaled by how slow that
loop currently is relative to ``NOMINAL_S``: the loop's time correlated
at 0.75-0.8 with per-iteration engine latency over a minute of steady
iterations, and rescaling shrank the spread of 10-second medians of
those latencies from up to 30 % to 3 % or less.  The loop shares no code
with the engine, so a change to the engine moves only the interval.

Reported values are therefore host seconds rescaled to a host on which
the loop takes ``NOMINAL_S``; the run record keeps the observed factors.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Optional, Tuple

#: seconds the calibration loop takes on a quiet host (5th percentile
#: of 400 runs on the two-vCPU Xeon VM the benchmark was built on)
NOMINAL_S = 0.0022
#: samples in the rolling median that estimates the current host speed
WINDOW = 9


def _loop() -> int:
    total = 0
    table = {}
    for i in range(20_000):
        total += i * i % 7
        table[i & 1023] = total
    return total


def loop_seconds(reps: int = 7) -> float:
    """Median time of ``reps`` runs of the calibration loop."""
    times = []
    for _rep in range(reps):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class HostSpeed:
    """Samples the calibration loop and rescales measured durations."""

    def __init__(self, recorder=None) -> None:
        self.samples: List[float] = []
        #: seconds spent inside the loop so far
        self.spent = 0.0
        self._recorder = recorder

    def sample(self) -> None:
        if self._recorder is not None:
            with self._recorder.span("bench.calibrate"):
                self._time_loop()
        else:
            self._time_loop()

    def _time_loop(self) -> None:
        start = time.perf_counter()
        _loop()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def factor(self, since: Optional[int] = None) -> float:
        """How much slower than nominal the host runs: the median loop
        time over the samples taken since index ``since`` (at least the
        last ``WINDOW``), over ``NOMINAL_S``."""
        if not self.samples:
            self.sample()
        lo = len(self.samples) - WINDOW
        if since is not None:
            lo = min(lo, since)
        return statistics.median(self.samples[max(0, lo):]) / NOMINAL_S

    def scale(self, seconds: float) -> float:
        """A duration measured just now, rescaled to nominal host speed."""
        return seconds / self.factor()

    def mark(self) -> Tuple[float, float, int]:
        return time.perf_counter(), self.spent, len(self.samples)

    def since(self, mark: Tuple[float, float, int]) -> float:
        """Nominal-speed seconds since ``mark``, less the time spent in
        the calibration loop meanwhile."""
        start, spent, index = mark
        elapsed = time.perf_counter() - start - (self.spent - spent)
        return elapsed / self.factor(since=index)
