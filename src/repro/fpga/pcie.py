"""PCIe Gen3 x16 link model between the host and the U280.

Effective data bandwidth ~15.75 GB/s per direction (128b/130b encoding,
minus TLP overhead ~ 13.7 GB/s usable), with a fixed round-trip latency
for small transactions (doorbells, descriptor fetches).
"""

from __future__ import annotations

from typing import Generator

from ..errors import FpgaError
from ..sim import Environment, FifoServer, Timeout
from ..units import transfer_ns

#: Usable payload bandwidth per direction (bytes/sec).
PCIE_GEN3X16_BW = 13.7e9
#: One-way latency of a small TLP (posted write / read completion).
PCIE_TLP_NS = 350
#: Doorbell (4-byte posted write) cost on the host side.
DOORBELL_NS = 120


class PcieLink:
    """Full-duplex PCIe link with per-direction serialization."""

    def __init__(self, env: Environment, bandwidth: float = PCIE_GEN3X16_BW, tlp_ns: int = PCIE_TLP_NS):
        if bandwidth <= 0:
            raise FpgaError(f"PCIe bandwidth must be > 0, got {bandwidth}")
        self.env = env
        self.bandwidth = bandwidth
        self.tlp_ns = tlp_ns
        self._h2c = FifoServer(env, capacity=1, name="pcie.h2c")
        self._c2h = FifoServer(env, capacity=1, name="pcie.c2h")
        self.bytes_h2c = 0
        self.bytes_c2h = 0

    def h2c(self, nbytes: int) -> Generator:
        """Process: move ``nbytes`` host -> card."""
        yield self._transfer(self._h2c, nbytes)
        self.bytes_h2c += nbytes

    def c2h(self, nbytes: int) -> Generator:
        """Process: move ``nbytes`` card -> host."""
        yield self._transfer(self._c2h, nbytes)
        self.bytes_c2h += nbytes

    def _transfer(self, channel: FifoServer, nbytes: int) -> Timeout:
        """Serialize on one direction, then the TLP's one-way latency."""
        if nbytes < 0:
            raise FpgaError(f"negative transfer size {nbytes}")
        return channel.hold(transfer_ns(nbytes, self.bandwidth), self.tlp_ns)

    def doorbell(self) -> Generator:
        """Process: ring a queue doorbell (host-side posted write)."""
        yield self.env.timeout(DOORBELL_NS + self.tlp_ns)
