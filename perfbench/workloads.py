"""The benchmark's workloads: stack set-up, seeded inputs and the read-back oracle.

Every workload is one closed-loop simulated fio job on the ``delibak``
hardware framework: ``IODEPTH`` I/Os outstanding across DeLiBA-K's three
io_uring instances.  The program under test only ever receives the bios
and prefill offsets generated here from ``--seed``; its own cluster seed
stays fixed, so a seed changes the I/O pattern and nothing else.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Generator

from repro.blk import SECTOR, Bio, IoOp
from repro.deliba import FrameworkInstance, PoolSpec, build_framework, framework_by_name
from repro.units import kib, mib

FRAMEWORK = "delibak"
IODEPTH = 4
BS = kib(4)
WORKING_SET = mib(64)
#: Fill byte ``FrameworkInstance.prefill`` writes to every prefilled block.
PREFILL_BYTE = 0xA5

#: Seed used while the benchmark was written and tuned.
DEFAULT_SEED = 1
#: Seed kept out of tuning; a gain claimed on the default seed must hold here too.
HELD_OUT_SEED = 7919


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    pool: PoolSpec
    #: Fraction of bios that are reads (the rest are writes).
    read_fraction: float
    #: I/Os in one measured window.
    nrequests: int
    #: RADOS object size (None = the framework default, 4 MiB on replicated pools).
    object_size: int | None = None
    #: Extra ``build_framework`` switches that belong to the workload itself.
    switches: dict = field(default_factory=dict)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="rep-4k-randrw",
            pool=PoolSpec(kind="replicated", size=2),
            read_fraction=0.5,
            nrequests=3000,
        ),
        Workload(
            name="ec-4k-randwrite",
            pool=PoolSpec(kind="erasure", k=4, m=2),
            read_fraction=0.0,
            nrequests=1000,
            object_size=BS,
        ),
        Workload(
            name="rep-4k-randread-obs",
            pool=PoolSpec(kind="replicated", size=2),
            read_fraction=1.0,
            nrequests=3000,
            switches={"obs": True, "metrics": True, "health": True},
        ),
    )
}


def write_payload(seed: int, index: int) -> bytes:
    """The distinct ``BS``-byte payload of write number ``index``."""
    tag = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=16).digest()
    return tag * (BS // len(tag))


@dataclass
class Inputs:
    """Everything the program receives for one run of a workload."""

    bios: list[Bio]
    #: Byte offsets written with the prefill fill before the window opens.
    prefill_offsets: list[int]

    @property
    def bytes_written(self) -> int:
        """Bytes the client writes, prefill included."""
        window = sum(b.size for b in self.bios if b.op == IoOp.WRITE)
        return window + BS * len(self.prefill_offsets)


def make_inputs(workload: Workload, seed: int, nrequests: int | None = None) -> Inputs:
    """The seeded bio stream of one window, plus the blocks its reads need prefilled."""
    rng = random.Random(f"{workload.name}:{seed}")
    blocks = WORKING_SET // BS
    bios = []
    for i in range(nrequests or workload.nrequests):
        sector = rng.randrange(blocks) * BS // SECTOR
        if rng.random() < workload.read_fraction:
            bios.append(Bio(IoOp.READ, sector=sector, size=BS))
        else:
            bios.append(Bio(IoOp.WRITE, sector=sector, size=BS, data=write_payload(seed, i)))
    prefill = sorted({b.offset for b in bios if b.op == IoOp.READ})
    return Inputs(bios, prefill)


def build(workload: Workload, trace: bool | None = None) -> FrameworkInstance:
    """A fresh stack for ``workload``, with its tracing as ``trace`` says.

    ``None`` builds the stack as the workload specifies.  ``True`` adds
    the flat stage tracer; a workload's causal tracer (``obs``) already
    implies it and is kept.  ``False`` builds the stack with no tracer
    at all, causal tracer included.
    """
    kwargs = dict(workload.switches)
    if trace is not None:
        kwargs["trace"] = trace
        kwargs["obs"] = trace and kwargs.get("obs", False)
    return build_framework(
        framework_by_name(FRAMEWORK),
        pool_spec=workload.pool,
        object_size=workload.object_size,
        **kwargs,
    )


def run_process(fw: FrameworkInstance, gen: Generator, name: str):
    """Run ``gen`` as a process until the event queue drains; return its value."""
    proc = fw.env.process(gen, name=name)
    fw.env.run()
    if not proc.ok:
        raise proc.value
    return proc.value


def expected_contents(inputs: Inputs) -> dict[int, set[bytes]]:
    """Block offset -> the contents a read-back may legally return.

    A written block may hold any of its writes: the engine shards bios
    round-robin over io_uring instances that advance independently, so
    two writes to one block may complete in either order.  A block that
    was only prefilled must still hold the fill.
    """
    expected: dict[int, set[bytes]] = {}
    for bio in inputs.bios:
        if bio.op == IoOp.WRITE:
            expected.setdefault(bio.offset, set()).add(bio.data)
    fill = bytes([PREFILL_BYTE]) * BS
    for offset in inputs.prefill_offsets:
        expected.setdefault(offset, {fill})
    return expected


def read_back(fw: FrameworkInstance, inputs: Inputs) -> list[int]:
    """Read every touched block through ``RBDImage.read``; return the offsets that mismatch."""
    expected = expected_contents(inputs)

    def reader() -> Generator:
        bad = []
        for offset in sorted(expected):
            data = yield from fw.image.read(offset, BS)
            if data not in expected[offset]:
                bad.append(offset)
        return bad

    return run_process(fw, reader(), "perfbench.readback")
