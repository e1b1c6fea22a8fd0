"""Host-speed probe: a fixed reference slice timed all through a run.

The benchmark shares a few cores of a host with other tenants, and the
speed those cores give a single Python thread drifts by a third or more
within a minute (a fixed Figure 6 trial, repeated, took from 0.15 s to
0.28 s).  No amount of work per run averages that away, because the
drift is slower than a run.

:class:`SpeedProbe` measures the drift as it happens.  A ``SIGALRM``
interval timer interrupts the benchmark's single thread every
``INTERVAL_S`` seconds and runs one reference slice: fixed, pure Python
heap and dict work plus small NumPy array operations, the same mix of
interpreter dispatch and short array calls the simulator spends its
time in.  The slice lives here, not in ``repro``, so no change to the
program moves it.  Its time divided by ``NOMINAL_SLICE_S`` (its median
on the reference host) is the host's *slowdown* at that moment.

A time measured over ``[t0, t1]`` is reported at reference speed: the
time the slices took inside the interval is taken out, and the rest is
divided by the mean slowdown of the slices near the interval.  The
slices only read their own data and draw no random numbers, so trial
results do not change (the output check verifies every trial).
"""

from __future__ import annotations

import heapq
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter
from typing import List, Optional

import numpy as np

#: Seconds between reference slices.
INTERVAL_S = 0.2

#: Median seconds of one slice on the reference host (2-core x86_64
#: Xeon, Python 3.11.7, NumPy 2.4.6); only the scale of reported times
#: depends on it.
NOMINAL_SLICE_S = 0.0047

#: Slices up to this many seconds either side of an interval also
#: describe its speed (short trials hold no slice of their own).
WINDOW_S = 0.5

_HEAP_KEYS = 3000
_ARRAY_OPS = 400
_TABLE = 97


class SpeedProbe:
    """Reference slices on an interval timer; see the module docstring.

    Use as a context manager around the timed phase.  ``starts`` and
    ``ends`` hold each slice's perf-counter interval, ``durations`` its
    length; ``failed`` is set if a slice ever returned another checksum.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20041)
        self._matrix = rng.random((32, 32))
        self._row = rng.random(32)
        self._keys = [float((i * 7919) % 1009) / 7.0 for i in range(_HEAP_KEYS)]
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.durations: List[float] = []
        self.failed = False
        self._checksum = self._slice()
        self._previous = None

    def _slice(self) -> float:
        """One reference slice; returns its checksum (always the same)."""
        heap: List[float] = []
        for key in self._keys:
            heapq.heappush(heap, key)
        table = dict.fromkeys(range(_TABLE), 0.0)
        total = 0.0
        i = 0
        while heap:
            key = heapq.heappop(heap)
            slot = i % _TABLE
            table[slot] = table[slot] * 0.5 + key
            total += key
            i += 1
        matrix, row = self._matrix, self._row
        for i in range(_ARRAY_OPS):
            column = i % 32
            total += float(np.minimum(matrix[column], row)[column])
            total += int((matrix[:, column] > row).sum())
        return total + table[_TABLE - 1]

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        checksum = self._slice()
        end = perf_counter()
        if checksum != self._checksum:
            self.failed = True
        self.starts.append(start)
        self.ends.append(end)
        self.durations.append(end - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def probe_time(self, t0: float, t1: float) -> float:
        """Seconds the slices took inside ``[t0, t1]``."""
        lo = bisect_right(self.ends, t0)
        hi = bisect_left(self.starts, t1)
        return sum(
            min(end, t1) - max(start, t0)
            for start, end in zip(self.starts[lo:hi], self.ends[lo:hi])
        )

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean slice time near ``[t0, t1]`` over ``NOMINAL_SLICE_S``."""
        lo = bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect_right(self.starts, t1 + WINDOW_S)
        near = self.durations[lo:hi]
        if not near:
            near = self.durations
        return sum(near) / len(near) / NOMINAL_SLICE_S

    def reference_seconds(self, t0: float, t1: float) -> float:
        """``[t0, t1]`` without its slices, at reference-host speed."""
        return (t1 - t0 - self.probe_time(t0, t1)) / self.slowdown(t0, t1)

    def mean_slowdown(self) -> Optional[float]:
        if not self.durations:
            return None
        return sum(self.durations) / len(self.durations) / NOMINAL_SLICE_S
