"""Reference-speed clock: raw times scaled by the machine's measured speed.

On a shared 2-vCPU Intel Xeon virtual machine (CPython 3.11) the same
pure-Python loop runs at speeds that differ by up to 2x from one second to
the next (host contention that the guest cannot see or control). Raw wall
times then spread by 15-35% between runs of identical code, more than any
useful regression bound.

`SpeedClock` times a fixed chunk of pure-Python work (`calibrate`) every
PERIOD_S seconds, from a SIGALRM handler in the main thread, so no thread is
started. `reference(t)` maps a raw `time.perf_counter()` reading to reference
seconds: between two calibrations the clock advances at the mean speed,
CHUNK_REFERENCE_S / chunk time, of the nearest chunks, and it stands still
while a calibration runs, so calibration time is never charged to the
program. A time in reference seconds is what the interval would have taken
had the chunk run at CHUNK_REFERENCE_S throughout. On identical repeated work
this cut the spread (coefficient of variation) from 8-20% to 1-4%.
`cpu_rate` does the same for process CPU time.
"""
from __future__ import annotations

import bisect
import gc
import signal
import time

PERIOD_S = 0.05
# The chunk's time on the reference machine (an Intel Xeon vCPU, CPython
# 3.11, uncontended); a constant, so reference seconds compare across runs.
CHUNK_REFERENCE_S = 0.0015


def calibrate() -> float:
    """Run the fixed chunk once and return its raw duration in seconds.

    Like the package's inner loops: tuple arithmetic modulo small orders with
    dict and set churn, frozenset unions as in the atom search, and big-integer
    arithmetic. The collector is paused so that the program's heap size does
    not leak into the chunk's time.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    orders = (4, 6, 7)
    table: dict = {}
    seen = set()
    x = (1, 2, 3)
    for i in range(700):
        y = tuple((a + b) % n for a, b, n in zip(x, (i % 4, i % 6, i % 7), orders))
        table[y] = table.get(y, 0) + 1
        seen.add(y)
        x = y
    for _ in range(3):
        ps: frozenset = frozenset()
        for i in range(60):
            g = (i % 5, (i * 3) % 5)
            shifted = {((a + g[0]) % 5, (b + g[1]) % 5) for a, b in ps}
            ps = frozenset(ps | shifted | {g})
            if len(ps) > 20:
                ps = frozenset()
        big = 1
        for i in range(200):
            big = (big * 1234567 + 89) % (10 ** 40)
    elapsed = time.perf_counter() - t0
    if was_enabled:
        gc.enable()
    return elapsed


class SpeedClock:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, end) of each chunk
        self.cpu: list[float] = []  # process CPU seconds of each chunk
        self._starts: list[float] = []
        self._origin: list[float] = []  # reference time at each chunk's start
        self._rate: list[float] = []   # reference seconds per raw second after it

    def _tick(self, *_):
        t0, c0 = time.perf_counter(), time.process_time()
        calibrate()
        self.cpu.append(time.process_time() - c0)
        self.samples.append((t0, time.perf_counter()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()
        self._build()

    def _build(self) -> None:
        # The machine's speed between chunks i and i+1 is the mean speed of
        # chunks i-1 .. i+2 (speeds, not durations, so that the mean is the
        # throughput); speed changes last seconds, a single chunk is noisy.
        speed = [CHUNK_REFERENCE_S / (end - start) for start, end in self.samples]
        self._starts = [start for start, _ in self.samples]
        self._origin, self._rate = [0.0], []
        for i, (start, end) in enumerate(self.samples):
            window = speed[max(0, i - 1):i + 3]
            rate = sum(window) / len(window)
            self._rate.append(rate)
            if i + 1 < len(self.samples):
                gap = self.samples[i + 1][0] - end
                self._origin.append(self._origin[-1] + rate * gap)

    def _index(self, t: float) -> int:
        return max(0, bisect.bisect_right(self._starts, t) - 1)

    def reference(self, t: float) -> float:
        """Reference seconds since the first calibration, at raw time t."""
        i = self._index(t)
        return self._origin[i] + self._rate[i] * max(0.0, t - self.samples[i][1])

    def interval(self, t0: float, t1: float) -> float:
        """Reference seconds between raw times t0 and t1."""
        return self.reference(t1) - self.reference(t0)

    def rate(self, t: float) -> float:
        """Reference seconds per raw second at raw time t."""
        return self._rate[self._index(t)]

    def cpu_rate(self, t0: float, t1: float) -> float:
        """Reference seconds per CPU second between raw times t0 and t1: the
        mean speed of the chunks from one before t0 to two after t1, from
        their process CPU time, so that time the process spent descheduled
        (which chunks run right after a timer signal rarely see) drops out."""
        window = self.cpu[max(0, self._index(t0) - 1):self._index(t1) + 3]
        return sum(CHUNK_REFERENCE_S / c for c in window) / len(window)

    def calibration_within(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw seconds, CPU seconds) spent calibrating between raw times t0 and t1."""
        lo = bisect.bisect_left(self._starts, t0)
        hi = bisect.bisect_left(self._starts, t1)
        return (sum(end - start for start, end in self.samples[lo:hi]),
                sum(self.cpu[lo:hi]))
