"""Host time scaled by a reference workload run between the timed pieces.

The benchmark runs on shared machines whose speed drifts by tens of
percent within minutes, so raw wall time from one run does not repeat
in the next.  :class:`Stopwatch` times a sequence of pieces of work and
runs a fixed CPython reference chunk (a small generator-driven event
loop, like the simulator's core) before the first and after each.  The
scaled time is the pieces' wall time divided by the chunks' mean wall
time, times :data:`REF_CHUNK_S`: the wall time the pieces would have
taken on a machine where one chunk takes ``REF_CHUNK_S``.  Slowdowns
that hit the pieces and the chunks alike cancel; work the pieces do, or
stop doing, does not.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from time import perf_counter

#: Nominal wall time of one reference chunk: about its uncontended time
#: on the machine the benchmark was tuned on (a 2-vCPU VM at 2.1 GHz,
#: CPython 3.11).  It only sets the scale of the reported figures.
REF_CHUNK_S = 320e-6
#: Event-loop steps in one reference chunk.
CHUNK_STEPS = 600


def _ticker(k: int, counts: dict):
    t = 0
    while True:
        counts[k] = counts.get(k, 0) + 1
        t = yield t + (k * 7919 + t) % 97 + 1


class Stopwatch:
    """Times pieces of work, each followed by a reference chunk."""

    def __init__(self):
        counts: dict[int, int] = {}
        self._gens = [_ticker(k, counts) for k in range(64)]
        for gen in self._gens:
            next(gen)
        # Heap entries are plain ints (time << 6 | ticker), so a chunk
        # allocates nothing the garbage collector tracks and does not
        # shift when the program's own collections run.
        self._heap = list(range(64))
        heapify(self._heap)
        #: Wall seconds of each timed piece.
        self.pieces: list[float] = []
        #: Wall seconds of each reference chunk; chunk ``k + 1`` follows piece ``k``.
        self.chunks: list[float] = [self._chunk()]

    def _chunk(self) -> float:
        heap, gens = self._heap, self._gens
        t0 = perf_counter()
        for _ in range(CHUNK_STEPS):
            key = heappop(heap)
            heappush(heap, gens[key & 63].send(key >> 6) << 6 | key & 63)
        return perf_counter() - t0

    def time(self, fn, *args):
        """Call ``fn(*args)`` as one timed piece; return its result."""
        t0 = perf_counter()
        out = fn(*args)
        self.pieces.append(perf_counter() - t0)
        self.chunks.append(self._chunk())
        return out

    def scaled(self) -> float:
        """Total wall time of the pieces at the nominal reference speed."""
        return sum(self.pieces) * REF_CHUNK_S * len(self.chunks) / sum(self.chunks)
