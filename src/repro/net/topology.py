"""Star topology: hosts connected through one switch.

Models the paper's testbed fabric: every host has a full-duplex 10 GbE
port (uplink + downlink :class:`Link`), and the switch adds a fixed
store-and-forward latency.  Delivery places the message in the
destination host's inbox; TCP connections (``tcp.py``) layer ordering
and stack costs on top.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..errors import NetworkError, ProcessKilled
from ..sim import NULL_METRICS, Environment, Event, FilterStore
from ..units import gbps, us
from .link import DEFAULT_MTU, Link
from .message import Message

#: Raw bandwidth measured by iperf on the paper's 10 GbE network.
PAPER_BANDWIDTH_BPS = gbps(9.8)
#: One-way propagation+PHY latency per hop (host->switch or switch->host).
DEFAULT_HOP_NS = us(1.0)
#: Switch store-and-forward latency.
DEFAULT_SWITCH_NS = us(1.5)


class Host:
    """A network endpoint with an inbox per host."""

    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name
        self.inbox: FilterStore = FilterStore(env, name=f"inbox:{name}")
        self.uplink: Optional[Link] = None
        self.downlink: Optional[Link] = None

    def __repr__(self) -> str:
        return f"<Host {self.name!r}>"


class Network:
    """A switch plus its attached hosts."""

    def __init__(
        self,
        env: Environment,
        bandwidth_bps: float = PAPER_BANDWIDTH_BPS,
        hop_ns: int = DEFAULT_HOP_NS,
        switch_ns: int = DEFAULT_SWITCH_NS,
        mtu: int = DEFAULT_MTU,
        metrics=None,
    ):
        self.env = env
        metrics = metrics or NULL_METRICS
        self._m_messages = metrics.counter("net.messages")
        self._m_bytes = metrics.counter("net.bytes")
        self._m_delivery_ns = metrics.latency("net.delivery_ns")
        self.bandwidth_bps = bandwidth_bps
        self.hop_ns = hop_ns
        self.switch_ns = switch_ns
        self.mtu = mtu
        self.hosts: dict[str, Host] = {}
        self.messages_delivered = 0
        #: Delivery taps (port mirroring): called with every delivered
        #: message.  Used by CMAC-based network monitors.
        self.taps: list = []

    def add_host(self, name: str) -> Host:
        """Attach a host with fresh up/down links."""
        if name in self.hosts:
            raise NetworkError(f"duplicate host {name!r}")
        host = Host(self.env, name)
        host.uplink = Link(self.env, self.bandwidth_bps, self.hop_ns, self.mtu, name=f"{name}-up")
        host.downlink = Link(self.env, self.bandwidth_bps, self.hop_ns, self.mtu, name=f"{name}-down")
        self.hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        """Lookup; raises on unknown host."""
        if name not in self.hosts:
            raise NetworkError(f"unknown host {name!r}")
        return self.hosts[name]

    def path_up(self, src: str, dst: str) -> bool:
        """True when every link on the src -> switch -> dst path is up."""
        return self.host(src).uplink.up and self.host(dst).downlink.up

    def transfer(self, message: Message, then: int = 0) -> Generator:
        """Process: move a message src -> switch -> dst (no inbox delivery).

        Serialization happens on both the sender's uplink and the
        receiver's downlink, so incast congestion at a busy receiver and
        fan-out congestion at a busy sender both emerge naturally.  Each
        hop is one event: the switch latency rides the uplink's tail, and
        ``then`` (the receiver's own latency, after which the process
        completes) the downlink's — unless taps are installed, which
        must see the message at wire arrival.  If the calling process
        is interrupted, the frame is not recalled: it finishes its trip
        in the background.
        """
        tail, after = (0, then) if self.taps else (then, 0)
        dst = self.host(message.dst)
        message.sent_at = self.env.now
        hop = self.host(message.src).uplink.transmit(message, self.switch_ns)
        on_uplink = True
        try:
            yield hop
            on_uplink = False
            hop = dst.downlink.transmit(message, tail)
            yield hop
        except ProcessKilled:
            self.env.process(
                self._finish(message, hop, on_uplink, tail),
                name=f"net:{message.src}->{message.dst}",
            )
            raise
        self._arrived(message, tail)
        if after:
            yield self.env.timeout(after)

    def _finish(self, message: Message, hop: Event, on_uplink: bool, then: int) -> Generator:
        """Process: the rest of an abandoned transfer's wire path."""
        yield hop
        if on_uplink:
            yield self.host(message.dst).downlink.transmit(message, then)
        self._arrived(message, then)

    def _arrived(self, message: Message, since: int) -> None:
        """Account a message that reached the far end ``since`` ns ago."""
        message.delivered_at = self.env.now - since
        self.messages_delivered += 1
        self._m_messages.add()
        self._m_bytes.add(message.size)
        self._m_delivery_ns.record(message.delivered_at - message.sent_at)
        for tap in self.taps:
            tap(message)

    def send(self, message: Message) -> Generator:
        """Process: transfer a message into the destination host's inbox."""
        yield from self.transfer(message)
        yield self.host(message.dst).inbox.put(message)

    def send_async(self, message: Message):
        """Fire-and-forget variant returning the delivery Process event."""
        return self.env.process(self.send(message), name=f"net:{message.src}->{message.dst}")

    def utilization_report(self, elapsed_ns: int) -> dict[str, float]:
        """Per-link achieved Gb/s over ``elapsed_ns`` (wire bytes incl. framing).

        Lets benches show where the fabric saturates (e.g. the client
        uplink at large sequential writes).
        """
        if elapsed_ns <= 0:
            raise NetworkError(f"elapsed_ns must be > 0, got {elapsed_ns}")
        report = {}
        for host in self.hosts.values():
            for link in (host.uplink, host.downlink):
                report[link.name] = link.bytes_sent * 8 / elapsed_ns  # bits/ns == Gb/s
        return report

    def min_latency_ns(self, nbytes: int) -> int:
        """Best-case one-way delivery time for an ``nbytes`` message."""
        probe = self.hosts[next(iter(self.hosts))] if self.hosts else None
        if probe is None:
            raise NetworkError("network has no hosts")
        ser = probe.uplink.serialization_ns(nbytes)
        return 2 * ser + 2 * self.hop_ns + self.switch_ns
