"""Host-speed sampling: a fixed reference kernel timed on an interval timer.

The shared hosts the benchmark runs on change speed by a third or more
over minutes, for reasons no process inside can see (the same
pure-Python loop takes anywhere from 1x to 2x its best time). Operation
times alone then drift with the host rather than with the program. A
``HostSampler`` times a small, fixed pure-Python kernel every
``interval`` seconds of wall time from a ``SIGALRM`` handler, so host
speed is sampled all through the operations it runs beside. The
end-to-end time metrics divide operation time by the mean kernel time of
the same run, which cancels the host's drift and leaves the program's.

The kernel runs with the cyclic garbage collector off, as ``timeit``
does: a collection that happens to fall inside it would scan the whole
heap of the program it interrupted and take ten times the kernel's own
time. The mean, not the median, of the samples is used: kernel times
are bimodal, as the host flips between a fast and a slow state, and a
median jumps between the two modes where the mean follows the share of
time spent in each.

The kernel lives here, not in ``repro``, so that no change to the
program under test changes it. It mixes the work the program does:
object attribute and method traffic, dict lookups, a heap, seeded random
draws, and Fenwick-tree list indexing.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import time
from typing import Any, List, Optional

#: The kernel's time on the host the benchmark was sized on (2-vCPU
#: 2.1 GHz, CPython 3.11) in its fast state. ``setup_s`` must be in
#: seconds, so set-up time is reported in seconds of a host on which the
#: kernel takes this long.
KERNEL_NOMINAL_S = 2.0e-3

#: Seconds of wall time between two kernel samples (the kernel takes
#: about 2 ms, so sampling costs the operations about 2%).
INTERVAL_S = 0.1


class _Line:
    __slots__ = ("key", "uses")

    def __init__(self, key: int) -> None:
        self.key = key
        self.uses = 0

    def touch(self, weight: int) -> int:
        self.uses += weight
        return self.uses


def reference_kernel() -> int:
    """A fixed amount of interpreter work; the result only defeats
    dead-code elimination."""
    n = 1024
    rng = random.Random(20_150_901)
    tree = [0] * (n + 1)
    last: dict = {}
    lines: dict = {}
    heap: List[Any] = []
    acc = 0
    for t in range(n):
        key = rng.randrange(n // 2) if rng.random() < 0.7 else rng.getrandbits(30)
        line = lines.get(key)
        if line is None:
            line = lines[key] = _Line(key)
        acc += line.touch(t & 7)
        heapq.heappush(heap, (t + (key & 63), t))
        if len(heap) > 32:
            acc += heapq.heappop(heap)[1]
        t0 = last.get(key)
        if t0 is not None:
            i = t0 + 1
            while i <= n:
                tree[i] -= 1
                i += i & -i
            i, s = t, 0
            while i > 0:
                s += tree[i]
                i -= i & -i
            acc += s
        last[key] = t
        i = t + 1
        while i <= n:
            tree[i] += 1
            i += i & -i
    return acc


def kernel_seconds() -> float:
    """Mean time of ten back-to-back kernel runs, collector off."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(10):
            reference_kernel()
        return (time.perf_counter() - start) / 10
    finally:
        if collecting:
            gc.enable()


class HostSampler:
    """Times ``reference_kernel`` every ``interval`` seconds while active.

    ``kernel_s`` and ``samples`` sum the kernel's times and count them;
    ``handler_s`` is all time spent in the handler, which callers take
    off the operation time it interrupted.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.kernel_s = 0.0
        self.samples = 0
        self.handler_s = 0.0
        self._previous: Optional[Any] = None

    def sample(self) -> None:
        """Time the kernel once (the timer's handler does this)."""
        entered = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_kernel()
            self.kernel_s += time.perf_counter() - start
            self.samples += 1
        finally:
            if collecting:
                gc.enable()
            self.handler_s += time.perf_counter() - entered

    def _on_alarm(self, signum: int, frame: Any) -> None:
        self.sample()

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
