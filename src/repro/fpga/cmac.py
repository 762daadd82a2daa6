"""CMAC: the hard Ethernet MAC block feeding the FPGA TCP stack.

Runs at 260 MHz in DeLiBA-K (paper Section IV-D).  DeLiBA-K drives a
10 GbE SFP interface; the UIFD driver can also use the CMAC alone (no
QDMA) for small-volume paths like network monitoring (Section III-B).
"""

from __future__ import annotations

from typing import Generator

from ..errors import FpgaError
from ..sim import Environment, FifoServer
from ..units import gbps, transfer_ns
from .device import CMAC_CLOCK_HZ


class Cmac:
    """Ethernet MAC with line-rate serialization per direction."""

    def __init__(self, env: Environment, line_rate_bps: float = gbps(10), clock_hz: float = CMAC_CLOCK_HZ):
        if line_rate_bps <= 0:
            raise FpgaError(f"line rate must be > 0, got {line_rate_bps}")
        self.env = env
        self.line_rate = line_rate_bps  # bytes/sec
        self.clock_hz = clock_hz
        self._tx = FifoServer(env, capacity=1, name="cmac.tx")
        self._rx = FifoServer(env, capacity=1, name="cmac.rx")
        self.frames_tx = 0
        self.frames_rx = 0
        self.bytes_tx = 0
        self.bytes_rx = 0

    def _mac_cycles_ns(self, cycles: int = 6) -> int:
        return max(1, int(round(cycles * 1e9 / self.clock_hz)))

    def transmit(self, nbytes: int) -> Generator:
        """Process: clock one frame out of the MAC."""
        if nbytes <= 0:
            raise FpgaError(f"frame size must be > 0, got {nbytes}")
        yield self._tx.hold(self._mac_cycles_ns() + transfer_ns(nbytes, self.line_rate))
        self.frames_tx += 1
        self.bytes_tx += nbytes

    def receive(self, nbytes: int) -> Generator:
        """Process: clock one frame into the MAC."""
        if nbytes <= 0:
            raise FpgaError(f"frame size must be > 0, got {nbytes}")
        yield self._rx.hold(self._mac_cycles_ns() + transfer_ns(nbytes, self.line_rate))
        self.frames_rx += 1
        self.bytes_rx += nbytes
