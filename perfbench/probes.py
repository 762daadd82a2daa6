"""Per-layer probes, installed from outside the program under test.

``Probes`` wraps public methods of each layer's classes with call
counters (and, for CRUSH and erasure coding, inclusive host timers);
``layer_self_seconds`` groups a cProfile run's self time by ``repro``
subpackage.  Nothing in ``src/`` is edited: the wrappers replace class
attributes for the life of a ``with probes.installed():`` block.
"""

from __future__ import annotations

import functools
import os
import pstats
from contextlib import contextmanager
from time import perf_counter

from repro.api import IoUring
from repro.blk import BlockLayer
from repro.crush import PlacementEngine
from repro.driver import UifdDriver
from repro.ec import ReedSolomon
from repro.fpga import Accelerator, QdmaEngine
from repro.net import Link
from repro.osd import ObjectStore, RadosClient
from repro.sim import Environment

#: Counter name -> the (class, method) calls it counts.
COUNTED = {
    "sim.processes": [(Environment, "process")],
    "api.submits": [(IoUring, "submit")],
    "blk.bios": [(BlockLayer, "submit_bio")],
    "blk.requests": [(UifdDriver, "queue_rq")],
    "fpga.qdma_transfers": [(QdmaEngine, "h2c_transfer"), (QdmaEngine, "c2h_transfer")],
    "fpga.accel_calls": [(Accelerator, "process")],
    "net.messages": [(Link, "transmit")],
    "osd.client_ops": [
        (RadosClient, name)
        for name in ("read_replicated", "write_replicated", "read_ec", "write_ec")
    ],
    "osd.store_writes": [(ObjectStore, "write")],
    "crush.lookups": [(RadosClient, "compute_placement")],
    "crush.placements": [(PlacementEngine, "pg_to_osds")],
    "ec.encodes": [(ReedSolomon, name) for name in ("encode", "encode_batch", "decode_batch")],
}

#: Layer -> counters whose calls are also timed.  Time is inclusive of
#: callees and counted once per outermost call, so nested timed calls
#: of one layer are not charged twice.
TIMED = {"crush": ("crush.lookups", "crush.placements"), "ec": ("ec.encodes",)}

#: Layers that self time is grouped into: the ``repro`` subpackages on
#: the datapath, ``ext`` for builtins, numpy and the standard library,
#: and ``other`` for the rest of ``repro`` (top-level modules, ``deliba``,
#: ``workloads``; the benchmark makes its own bios, so ``workloads``
#: code does not run in the window).
LAYERS = (
    "sim", "api", "blk", "driver", "fpga", "host", "net", "osd", "crush", "ec", "obs",
    "ext", "other",
)


class Probes:
    """Call counters and layer timers over the classes in :data:`COUNTED`."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTED, 0)
        self.seconds = dict.fromkeys(TIMED, 0.0)
        #: Timed calls of each layer currently on the stack.
        self._depth = dict.fromkeys(TIMED, 0)

    def snapshot(self) -> dict[str, float]:
        """Every counter and timer (timers as ``<layer>.host_s``)."""
        out: dict[str, float] = dict(self.counts)
        out.update({f"{layer}.host_s": s for layer, s in self.seconds.items()})
        return out

    @contextmanager
    def installed(self):
        """Wrap every probed method; restore the originals on exit."""
        timed_layer = {key: layer for layer, keys in TIMED.items() for key in keys}
        saved = []
        try:
            for key, targets in COUNTED.items():
                for cls, name in targets:
                    original = cls.__dict__[name]
                    saved.append((cls, name, original))
                    layer = timed_layer.get(key)
                    if layer:
                        wrapper = self._timed(key, layer, original)
                    else:
                        wrapper = self._counted(key, original)
                    setattr(cls, name, wrapper)
            yield self
        finally:
            for cls, name, original in reversed(saved):
                setattr(cls, name, original)

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, key: str, layer: str, fn):
        counts, seconds, depth = self.counts, self.seconds, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if depth[layer]:
                return fn(*args, **kwargs)
            depth[layer] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[layer] += perf_counter() - t0
                depth[layer] -= 1

        return wrapper


def layer_of(filename: str) -> str:
    """The :data:`LAYERS` entry a profiled code object's file belongs to."""
    _head, sep, tail = filename.rpartition(f"{os.sep}repro{os.sep}")
    if not sep:
        return "ext"
    sub = tail.split(os.sep, 1)[0]
    return sub if sub in LAYERS else "other"


def layer_self_seconds(stats: pstats.Stats) -> dict[str, float]:
    """cProfile self time (``tottime``) summed per layer."""
    out = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _func), (_cc, _nc, tottime, _ct, _callers) in stats.stats.items():
        out[layer_of(filename)] += tottime
    return out
