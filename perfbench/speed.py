"""Timing scaled to a reference host speed.

The measuring host's speed drifts by up to a factor of two, in phases
that last from seconds to many minutes (see README.md), so a plain
wall-clock time says as much about the host as about the program.  A
``Probe`` therefore samples the host's speed while the program runs:
every ``INTERVAL`` seconds a timer signal interrupts the program, and
the handler times one run of ``kernel``, a fixed piece of pure-Python
work (integer and dictionary operations and a small bitmask clique
search) that lives here and never changes with the program.  The
program is not running while the kernel is, so the kernel's time is
subtracted from the elapsed time.

``Probe.scaled`` is the program's time on a host that runs the kernel
in ``NOMINAL_KERNEL_S``: the elapsed time times the mean host speed
over the samples, where a sample's speed is ``NOMINAL_KERNEL_S`` over
its kernel time.  A change that makes the program slower makes
``scaled`` larger in proportion; a host that runs slower for a while
makes ``elapsed`` and the kernel's times larger together and leaves
``scaled`` about where it was.
"""

from __future__ import annotations

import random
import signal
from statistics import fmean
from time import perf_counter

INTERVAL = 0.1
# the kernel's median time over 2000 back-to-back runs on 2 cores of an
# x86-64 virtual machine ("Intel Xeon Processor", 2.1 GHz) under Python
# 3.11.7; scaled times are seconds on that host at that speed
NOMINAL_KERNEL_S = 0.0028


def _fixed_graph(nv: int = 40, p: float = 0.5, seed: int = 7) -> list[int]:
    rng = random.Random(seed)
    adj = [0] * nv
    for i in range(nv):
        for j in range(i + 1, nv):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


_ADJ = _fixed_graph()


def kernel() -> int:
    """A fixed amount of pure-Python work, about 2.8 ms on that host."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(2000):
        x = (i * 2654435761) & 0xFFFF
        acc ^= x >> 3
        table[x & 1023] = acc
        if bin(x).count("1") > 8:
            acc += 1

    found = 0

    def extend(cand: int, excl: int) -> None:
        nonlocal found
        if not cand and not excl:
            found += 1
            return
        pivot = (cand | excl).bit_length() - 1
        todo = cand & ~_ADJ[pivot]
        while todo:
            v = todo.bit_length() - 1
            bit = 1 << v
            extend(cand & _ADJ[v], excl & _ADJ[v])
            cand &= ~bit
            excl |= bit
            todo &= ~bit

    extend((1 << len(_ADJ)) - 1, 0)
    return acc + found


class Probe:
    """Time a block of code and sample the host's speed while it runs.

    Samples are also taken on entry and on exit, so a block shorter than
    ``INTERVAL`` still has two.  Only the main thread can use it, and
    only one at a time, since it owns ``SIGALRM``.
    """

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self._in_kernel = 0.0

    def _sample(self, *_ignored) -> None:
        t0 = perf_counter()
        kernel()
        self.kernel_s.append(perf_counter() - t0)
        self._in_kernel += perf_counter() - t0

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        self._start = perf_counter()
        self._in_kernel = 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.elapsed = perf_counter() - self._start - self._in_kernel
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def speed(self) -> float:
        """The host's mean speed during the block; 1 is the nominal speed."""
        return fmean(NOMINAL_KERNEL_S / t for t in self.kernel_s)

    @property
    def scaled(self) -> float:
        return self.elapsed * self.speed
