"""RTL (and legacy HLS) accelerator models for the six offloaded kernels.

Table I of the paper gives, per kernel: software execution time in the
Ceph kernel client, cycle counts of the Verilog implementation, Vivado
latency estimates, measured standalone execution on the physical U280,
and source sizes.  Those numbers are encoded here as
:data:`KERNEL_SPECS` and drive both the cost model (framework offload
latency) and the Table I reproduction bench.

DeLiBA-K's RTL redesign improved on DeLiBA-2's HLS accelerators by
~38.6% in cycles and ~45.7% in latency (Section IV-B); the HLS variants
are derived from the RTL specs with those published factors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Generator

from ..errors import FpgaError
from ..sim import Environment, FifoServer
from ..units import cycles_to_ns, us
from .device import ACCEL_CLOCK_HZ
from .resources import ResourceVector


@dataclass(frozen=True)
class AcceleratorSpec:
    """One hardware kernel's published characteristics (Table I + III)."""

    name: str
    #: Profiled software execution time in the Ceph kernel client.
    sw_exec_ns: int
    #: Software contribution to client runtime (Table I column 3).
    sw_runtime_share: float
    #: RTL pipeline cycles (min, max) at the accelerator clock.
    cycles: tuple[int, int]
    #: Vivado-reported latency (min, max) in ns.
    vivado_latency_ns: tuple[int, int]
    #: Measured standalone execution on the physical FPGA (column 6).
    hw_exec_ns: int
    #: Source sizes (column 7-8).
    sloc_c: int
    sloc_verilog: int
    #: Place-and-route footprint (Table III where published).
    resources: ResourceVector = ResourceVector()
    #: Implementation style: 'rtl' (DeLiBA-K) or 'hls' (DeLiBA-2).
    impl: str = "rtl"
    clock_hz: float = ACCEL_CLOCK_HZ

    def compute_ns(self, items: int = 1) -> int:
        """Pipeline time for ``items`` back-to-back inputs.

        First result after ``cycles[1]`` cycles; the pipeline then emits
        one result per cycle (II=1, the point of the RTL redesign).
        """
        if items < 1:
            raise FpgaError(f"items must be >= 1, got {items}")
        total_cycles = self.cycles[1] + (items - 1)
        return cycles_to_ns(total_cycles, self.clock_hz)


#: DeLiBA-2's HLS accelerators: the paper reports the RTL rework bought
#: 38.61% in cycles and 45.71% in latency, so HLS = RTL / (1 - factor).
HLS_CYCLE_FACTOR = 1.0 / (1.0 - 0.3861)
HLS_LATENCY_FACTOR = 1.0 / (1.0 - 0.4571)

# Table I rows (times in ns).
KERNEL_SPECS: dict[str, AcceleratorSpec] = {
    "straw": AcceleratorSpec(
        "straw", us(55), 0.80, (105, 105), (345, 355), us(49), 256, 880,
        ResourceVector(lut=78_555, ff=224_000, bram=190, uram=26, dsp=0),
    ),
    "straw2": AcceleratorSpec(
        "straw2", us(48), 0.80, (155, 155), (315, 315), us(51), 256, 806,
        ResourceVector(lut=82_334, ff=313_000, bram=165, uram=35, dsp=0),
    ),
    "list": AcceleratorSpec(
        "list", us(35), 0.80, (40, 40), (161, 161), us(56), 197, 770,
        ResourceVector(lut=52_335, ff=92_456, bram=85, uram=22, dsp=0),
    ),
    "tree": AcceleratorSpec(
        "tree", us(22), 0.85, (130, 130), (115, 115), us(31), 241, 780,
        ResourceVector(lut=56_551, ff=97_523, bram=82, uram=26, dsp=0),
    ),
    "uniform": AcceleratorSpec(
        "uniform", us(9), 0.72, (40, 50), (180, 180), us(19), 237, 745,
        ResourceVector(lut=62_456, ff=112_000, bram=78, uram=29, dsp=0),
    ),
    "rs_encoder": AcceleratorSpec(
        "rs_encoder", us(65), 0.70, (150, 150), (345, 345), us(85), 280, 960,
        ResourceVector(lut=92_355, ff=582_000, bram=215, uram=52, dsp=0),
    ),
}


def hls_variant(spec: AcceleratorSpec) -> AcceleratorSpec:
    """DeLiBA-2's HLS version of a kernel (derived from published factors)."""
    return replace(
        spec,
        impl="hls",
        cycles=(
            int(round(spec.cycles[0] * HLS_CYCLE_FACTOR)),
            int(round(spec.cycles[1] * HLS_CYCLE_FACTOR)),
        ),
        vivado_latency_ns=(
            int(round(spec.vivado_latency_ns[0] * HLS_LATENCY_FACTOR)),
            int(round(spec.vivado_latency_ns[1] * HLS_LATENCY_FACTOR)),
        ),
    )


def spec_by_name(name: str, impl: str = "rtl") -> AcceleratorSpec:
    """Kernel lookup; ``impl='hls'`` returns the DeLiBA-2 derivative."""
    if name not in KERNEL_SPECS:
        raise FpgaError(f"unknown kernel {name!r}; know {sorted(KERNEL_SPECS)}")
    spec = KERNEL_SPECS[name]
    if impl == "rtl":
        return spec
    if impl == "hls":
        return hls_variant(spec)
    raise FpgaError(f"unknown impl {impl!r} (rtl or hls)")


class Accelerator:
    """A placed, runnable accelerator instance on the card.

    Each instance is a pipelined unit: concurrent requests overlap (one
    result per cycle after fill), modeled with a single-slot issue
    server held only for the issue interval.
    """

    def __init__(self, env: Environment, spec: AcceleratorSpec):
        self.env = env
        self.spec = spec
        self._issue = FifoServer(env, capacity=1, name=f"accel:{spec.name}")
        self.invocations = 0
        self.items_processed = 0

    def process(self, items: int = 1) -> Generator:
        """Process: run ``items`` inputs through the pipeline."""
        issue_ns = cycles_to_ns(items, self.spec.clock_hz)  # II = 1
        # Issue holds the pipeline entry; the last item's drain does not.
        drain_ns = cycles_to_ns(self.spec.cycles[1], self.spec.clock_hz)
        yield self._issue.hold(issue_ns, drain_ns)
        self.invocations += 1
        self.items_processed += items
