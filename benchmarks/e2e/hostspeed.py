"""How fast the host is running, sampled next to the work.

The shared host this benchmark runs on slows the same work by up to ~2x,
for seconds to minutes at a time and on both vCPUs at once.  While a run
measures, a thread times a fixed reference :func:`kernel` every
:data:`INTERVAL_S`, and each op is scaled by how fast the kernel ran
around it: every time then reads as on a host that runs the kernel in
:data:`REF_CPU_NS`.  The kernel is timed in thread CPU time, so a wait
for the GIL does not count as a slow host.
"""

from __future__ import annotations

import gc
import threading
import time

import numpy as np

#: Time the kernel this often.  Sampling on a timer, not at op
#: boundaries, puts samples inside long ops too: it halved the per-op
#: spread of scaled figure points.
INTERVAL_S = 0.05
#: An op's speed is the median over the kernel samples within this
#: distance of it.
HALF_WINDOW_NS = 100_000_000
#: The kernel's CPU time on the host the baseline was taken on, in a
#: quiet phase.
REF_CPU_NS = 2_500_000

#: Keys the kernel's dict and list walk over: fixed, so every sample
#: does the same work.
_KEYS = [(i * 2_654_435_761) % (1 << 20) for i in range(4096)]


class _Node:
    __slots__ = ("key", "odd", "next")

    def __init__(self, key: int, odd: int, next_node):
        self.key = key
        self.odd = odd
        self.next = next_node


def kernel() -> int:
    """Interpreter work of the kinds the workloads do: integer arithmetic,
    then small-object allocation, dict updates and a pointer walk."""
    total = 0
    for i in range(20_000):
        total += i * i
    counts: dict = {}
    head = None
    for key in _KEYS:
        head = _Node(key, key & 7, head)
        counts[key] = counts.get(key, 0) + 1
    while head is not None:
        total += head.key if head.odd else len(counts)
        head = head.next
    return total


class HostSpeed:
    """Kernel samples taken by a background thread, and the scale they
    give.  :meth:`start` it before the work and :meth:`stop` it after."""

    def __init__(self):
        self._at_ns: list = []
        self._cpu_ns: list = []
        #: Wall time spent in the kernel so far.  The kernel holds the GIL
        #: while it runs, so work timings subtract what elapsed in it.
        self.wall_ns = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        """Take one sample now, then one every INTERVAL_S until :meth:`stop`."""
        self.sample()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="host-speed", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.sample()

    def sample(self) -> None:
        """Time the kernel once."""
        start = time.perf_counter_ns()
        # With the collector off, the kernel's objects come and go without
        # moving the work's next collection: sampled at times that differ
        # from run to run, they otherwise shifted collections between ops.
        collecting = gc.isenabled()
        gc.disable()
        try:
            cpu = time.thread_time_ns()
            kernel()
            cpu = time.thread_time_ns() - cpu
        finally:
            if collecting:
                gc.enable()
        end = time.perf_counter_ns()
        # _cpu_ns first: a reader that sees a sample time sees its value.
        self._cpu_ns.append(cpu)
        self._at_ns.append(start)
        self.wall_ns += end - start

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Scale for work done in ``[start_ns, end_ns]``: REF_CPU_NS over
        the median kernel time near it (below 1 on a slow host)."""
        if not self._at_ns:
            raise RuntimeError("no host-speed samples were taken")
        lo, hi = np.searchsorted(self._at_ns, [start_ns - HALF_WINDOW_NS,
                                               end_ns + HALF_WINDOW_NS])
        if lo == hi:  # nothing near: take the nearest sample
            lo = min(lo, len(self._at_ns) - 1)
            hi = lo + 1
        return REF_CPU_NS / float(np.median(self._cpu_ns[lo:hi]))

    def samples(self) -> int:
        return len(self._cpu_ns)
