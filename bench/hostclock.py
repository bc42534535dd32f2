"""Timing at a nominal host speed.

The benchmark host is a virtual machine whose CPU speed drifts by up to
1.5x over a few seconds, driven by load outside it, so wall times of
identical work differ between runs by more than a regression bound.  A
fixed reference kernel in the style of modcap's autodiff (slotted node
objects, closures, numpy ops on 16x32 arrays) slows down with the host.
Over three 60 s runs of repeated beam-decode passes, the pass-to-pass
variation of decode time was 6.5-8.2% on the wall clock and 2.6-5.3%
in nominal seconds; a kernel of bare matrix products tracked the host
no better than the wall clock did.

HostClock therefore probes the kernel between units of work, at most
every PROBE_EVERY seconds, and converts wall intervals to nominal
seconds: wall seconds x NOMINAL_PROBE_S / (the median probe time within
WINDOW_S of the interval).  Work is timed as the intervals between
probes, so probe time is never counted as work.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

PROBE_EVERY = 0.25
WINDOW_S = 1.0
NOMINAL_PROBE_S = 0.003       # about the median probe time on a 2-core virtual machine


class _Node:
    __slots__ = ("data", "parents", "backward")

    def __init__(self, data, parents=(), backward=None):
        self.data = data
        self.parents = parents
        self.backward = backward


def _kernel() -> float:
    nodes = [_Node(np.ones((16, 32), dtype=np.float32))]
    for _ in range(250):
        z = np.concatenate([nodes[-1].data, nodes[-1].data], axis=1)[:, :32]
        nodes.append(_Node(np.tanh(z * 0.5) + np.exp(-np.abs(z)), (nodes[-1],),
                           lambda g: g * 0.5))
        if len(nodes) > 30:
            nodes = nodes[-5:]
    grad = np.ones((16, 32), dtype=np.float32)
    for node in reversed(nodes):
        if node.backward is not None:
            grad = node.backward(grad)
    return float(grad.sum())


class HostClock:
    """Collects the wall intervals of work between probes.

    ``take`` returns the intervals since the previous ``take`` or
    ``start``; ``tick`` lets the clock probe in the middle of a unit of
    work, splitting its interval there.
    """

    def __init__(self):
        self.mids: list[float] = []       # probe midpoints, increasing
        self.durations: list[float] = []
        self._last_probe = -float("inf")
        self._mark = perf_counter()
        self._closed: list = []

    def probe(self) -> None:
        start = perf_counter()
        _kernel()
        end = perf_counter()
        self.mids.append((start + end) / 2)
        self.durations.append(end - start)
        self._last_probe = end

    def start(self) -> None:
        """Drop what was not taken and open an interval now."""
        self._closed = []
        self._mark = perf_counter()

    def tick(self) -> None:
        """Probe here if one is due."""
        now = perf_counter()
        if now - self._last_probe >= PROBE_EVERY:
            self._closed.append((self._mark, now))
            self.probe()
            self._mark = perf_counter()

    def take(self) -> list:
        """Close the open interval and return every interval since the
        last take; probe if one is due."""
        now = perf_counter()
        taken = self._closed + [(self._mark, now)]
        self._closed = []
        if now - self._last_probe >= PROBE_EVERY:
            self.probe()
        self._mark = perf_counter()
        return taken

    def speed(self, start: float, end: float) -> float:
        """Median probe time within WINDOW_S of [start, end].  There is
        always one: every take probes unless one ran in the last
        PROBE_EVERY seconds."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        return statistics.median(self.durations[lo:hi])

    def seconds(self, intervals) -> float:
        """Nominal seconds of a list of wall intervals."""
        return sum((end - start) * NOMINAL_PROBE_S / self.speed(start, end)
                   for start, end in intervals)
