"""Point-to-point link model: serialization + propagation + FIFO contention.

A link is a single-server queue: frames serialize one at a time at the
link's bandwidth (this is what caps throughput at the measured 9.8 Gb/s
of the paper's 10 GbE fabric), then experience fixed propagation delay.
Ethernet framing overhead is charged per MTU-sized frame.
"""

from __future__ import annotations

from ..errors import NetworkError
from ..sim import Environment, FifoServer, Timeout
from ..units import transfer_ns
from .message import Message

#: Ethernet per-frame overhead: preamble+SFD (8) + header (14) + FCS (4) + IFG (12).
ETHERNET_FRAME_OVERHEAD = 38
#: Default payload MTU.
DEFAULT_MTU = 1500
#: Jumbo-frame MTU (the paper's cluster supports up to 9018-byte frames).
JUMBO_MTU = 9000


class Link:
    """Unidirectional link with bandwidth, propagation delay, and a queue."""

    def __init__(
        self,
        env: Environment,
        bandwidth_bps: float,
        propagation_ns: int,
        mtu: int = DEFAULT_MTU,
        name: str = "",
    ):
        if bandwidth_bps <= 0:
            raise NetworkError(f"link bandwidth must be > 0, got {bandwidth_bps}")
        if propagation_ns < 0:
            raise NetworkError(f"propagation delay must be >= 0, got {propagation_ns}")
        if mtu < 64:
            raise NetworkError(f"mtu must be >= 64, got {mtu}")
        self.env = env
        self.bandwidth_bps = bandwidth_bps  # bytes/sec
        self.propagation_ns = propagation_ns
        self.mtu = mtu
        self.name = name
        self._channel = FifoServer(env, capacity=1, name=f"link:{name}")
        #: Wire bytes / frames booked onto the link (a booked frame is
        #: never recalled, so it counts as sent from the moment it queues).
        self.bytes_sent = 0
        self.frames_sent = 0
        #: Administrative state: messages offered to a down link are lost
        #: (the fabric checks before transmitting).  Flap via set_up().
        self.up = True
        #: Down transitions seen (chaos link-flap accounting).
        self.flaps = 0

    def set_up(self, up: bool) -> None:
        """Raise or lower the link (chaos link flaps).

        In-flight frames finish serializing — the flap takes effect for
        traffic offered after the transition, like pulling a cable
        between frames.
        """
        if up != self.up:
            self.up = up
            if not up:
                self.flaps += 1

    def wire_bytes(self, payload_bytes: int) -> int:
        """Bytes on the wire including per-frame Ethernet overhead."""
        frames = max(1, (payload_bytes + self.mtu - 1) // self.mtu)
        return payload_bytes + frames * ETHERNET_FRAME_OVERHEAD

    def serialization_ns(self, payload_bytes: int) -> int:
        """Time to clock the message onto the wire."""
        return transfer_ns(self.wire_bytes(payload_bytes), self.bandwidth_bps)

    def transmit(self, message: Message, then: int = 0) -> Timeout:
        """Event: serialize ``message`` onto the link, then propagate.

        Fires once the message has fully arrived at the far end, plus
        ``then`` ns (the next hop's fixed latency, e.g. the switch).
        Back-to-back messages queue FIFO on the link.
        """
        size = message.size
        frames = max(1, (size + self.mtu - 1) // self.mtu)
        wire = size + frames * ETHERNET_FRAME_OVERHEAD
        self.bytes_sent += wire
        self.frames_sent += frames
        return self._channel.hold(transfer_ns(wire, self.bandwidth_bps), self.propagation_ns + then)
