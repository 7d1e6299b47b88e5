"""The machine's speed, sampled while a workload runs.

A shared host runs the same Python code up to 1.8 times slower in one
minute than in the next, in CPU time as well as in wall time, so a raw
time says as much about the neighbours as about ormaps.  ``Pacer`` takes
that out.  While it runs, a timer signal interrupts the workload every
``PROBE_INTERVAL_S`` or so (jittered, so that it cannot lock onto a period
of the host) and the handler times one chunk of a fixed reference kernel.  The
chunk times say how fast the machine was; their mean over the run is
compared with ``REF_CHUNK_S``, the chunk time of the machine the benchmark
was written on in a fast spell, and a time measured in the same span is
scaled by that ratio.  The handler's own time is kept in ``spent`` so that
the caller can take it out of what it measured.

The kernel is plain interpreted Python that needs nothing from ormaps, so
no change to ormaps changes it, and it touches only preallocated objects,
with the garbage collector off, so that the heap of the workload does not
change its cost either.
"""

from __future__ import annotations

import gc
import random
import signal
import time

REF_CHUNK_S = 0.009  # one chunk, on a 2-CPU x86_64 VM with Python 3.11, fast spell
KERNEL_STEPS = 16_000
PROBE_INTERVAL_S = 0.1  # one chunk per interval keeps the probes near a tenth of a run

_TABLE = [(i * 2_654_435_761) % 1_021 for i in range(1_024)]
_SLOTS = {key: key for key in range(1_021)}


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, step: int) -> int:
        self.value = (self.value * 31 + step) & 0xFFFF
        return self.value


_CELL = _Cell()


def kernel(steps: int = KERNEL_STEPS) -> int:
    """A fixed mix of indexing, dict lookups, calls and integer arithmetic."""
    table, slots, cell = _TABLE, _SLOTS, _CELL
    acc = 0
    for i in range(steps):
        key = table[i & 1_023]
        acc = (acc + slots[key] * 7 + cell.bump(i)) % 1_000_003
        if acc & 1:
            slots[key] = (slots[key] + 1) % 1_021
    return acc


def chunk_time() -> float:
    """Seconds one kernel chunk takes, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(chunks: list[float]) -> float:
    """``REF_CHUNK_S`` over the mean of ``chunks``: the factor for raw times."""
    return REF_CHUNK_S * len(chunks) / sum(chunks)


def speed_sample(chunks: int) -> list[float]:
    """``chunks`` chunk times back to back, after one chunk to warm up."""
    chunk_time()
    return [chunk_time() for _ in range(chunks)]


class Pacer:
    """Times a kernel chunk on a jittered timer signal while it is running."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.chunks: list[float] = []
        self.spent = 0.0  # seconds spent inside the handler
        self._previous = None

    def _arm(self) -> None:
        delay = PROBE_INTERVAL_S * self.rng.uniform(0.6, 1.4)
        signal.setitimer(signal.ITIMER_REAL, delay)

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        self.chunks.append(chunk_time())
        self._arm()
        self.spent += time.perf_counter() - start

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._arm()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
