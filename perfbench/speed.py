"""Machine-speed sampling, so that timings survive a shared, drifting CPU.

On a shared machine the interpreter's speed changes by tens of percent from
one fraction of a second to the next, as other tenants load the same cores.
While a run measures, ``SpeedClock`` times a small fixed kernel of
graph-style interpreter work from a SIGALRM handler every ``INTERVAL_S``.
``timed`` measures a call with the handler's own time taken out, and
``scale(start, end)`` is the mean of ``NOMINAL_NS / kernel time`` over the
samples taken in that interval (at least ``MIN_SAMPLES`` around it):
multiplying a time measured in the interval by it gives the time on a
machine where the kernel takes ``NOMINAL_NS``, which is about what an idle
2-vCPU Xeon VM under CPython 3.11 takes.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.02
MIN_SAMPLES = 5
NOMINAL_NS = 250_000

_N = 64
_BITS = [sum(1 << ((v * 37 + k * 11) % _N) for k in range(1, 9)) & ~(1 << v) for v in range(_N)]
_SETS = [frozenset(w for w in range(_N) if _BITS[v] >> w & 1) for v in range(_N)]


def kernel() -> int:
    """Mask BFS and set-based DFS from three sources of a fixed 64-vertex
    circulant graph."""
    total = 0
    for src in (0, 21, 42):
        seen = frontier = 1 << src
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nxt |= _BITS[low.bit_length() - 1]
            frontier = nxt & ~seen
            seen |= frontier
        total += seen.bit_count()
        stack, depth = [src], {src: 0}
        while stack:
            u = stack.pop()
            for w in sorted(_SETS[u]):
                if w not in depth:
                    depth[w] = depth[u] + 1
                    stack.append(w)
        total += max(depth.values())
    return total


class SpeedClock:
    """Use as a context manager around everything a run times."""

    def __init__(self):
        self.at: list[int] = []
        self.cost: list[int] = []
        self.stolen_ns = 0
        self._old = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        kernel()
        end = time.perf_counter_ns()
        self.at.append(start)
        self.cost.append(end - start)
        self.stolen_ns += end - start

    def __enter__(self) -> "SpeedClock":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def timed(self, fn, *args):
        """``(result, error, start_ns, end_ns, busy_ns)``; an exception from
        ``fn`` is returned, not raised, and ``busy_ns`` leaves out the
        sampler's own time."""
        stolen = self.stolen_ns
        start = time.perf_counter_ns()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # the caller counts it as a failed op
            result, error = None, exc
        end = time.perf_counter_ns()
        return result, error, start, end, end - start - (self.stolen_ns - stolen)

    def scale(self, start_ns: int, end_ns: int) -> float:
        lo = bisect.bisect_left(self.at, start_ns)
        hi = bisect.bisect_right(self.at, end_ns)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            if lo > 0:
                lo -= 1
            if hi < len(self.at) and hi - lo < MIN_SAMPLES:
                hi += 1
        if lo == hi:
            raise RuntimeError("the speed clock took no samples")
        return statistics.fmean(NOMINAL_NS / c for c in self.cost[lo:hi])
