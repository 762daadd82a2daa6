"""Messenger dispatch: the fabric calls each entity's attached receiver.

Delivery is a direct call, so there is no mailbox for a message to
wait in: a message reaches a live entity's handler, bounces off a dead
one, or (for an entity nobody attached) fails loudly.
"""

import pytest

from repro.errors import NetworkError
from repro.net.stack import KERNEL_TCP
from repro.net.topology import Network
from repro.osd.fabric import LOOPBACK_BW, LOOPBACK_NS, Fabric, Messenger
from repro.osd.ops import OpKind, OsdOp, OsdReply
from repro.sim import Environment
from repro.status import BlkStatus
from repro.units import transfer_ns

#: Service time of the echo handler below.
SERVICE_NS = 1_000


class Echo(Messenger):
    """Answers every request with a success after ``SERVICE_NS``."""

    def on_request(self, op, src):
        yield self.env.timeout(SERVICE_NS)
        yield from self.reply_to(src, OsdReply(op.op_id, True))


def _setup(hosts=("a", "b")):
    env = Environment()
    net = Network(env)
    for host in set(hosts):
        net.add_host(host)
    fabric = Fabric(env, net)
    fabric.register("client", hosts[0], KERNEL_TCP)
    fabric.register("server", hosts[1], KERNEL_TCP)
    client = Messenger(env, fabric, "client")
    server = Echo(env, fabric, "server")
    client.start()
    server.start()
    return env, fabric, client, server


def _call(env, client, replies):
    def proc():
        replies.append((yield from client.call("server", OsdOp(OpKind.PING, 0, "obj"))))

    return env.process(proc())


@pytest.mark.parametrize("hosts", [("a", "b"), ("a", "a")], ids=["wire", "loopback"])
def test_delivery_without_receiver_raises(hosts):
    env = Environment()
    net = Network(env)
    for host in set(hosts):
        net.add_host(host)
    fabric = Fabric(env, net)
    fabric.register("src", hosts[0], KERNEL_TCP)
    fabric.register("dst", hosts[1], KERNEL_TCP)
    fabric.send_async("src", "dst", 64, payload="hello")
    with pytest.raises(NetworkError, match="no receiver"):
        env.run()


def test_attach_unknown_entity_raises():
    env = Environment()
    fabric = Fabric(env, Network(env))
    with pytest.raises(NetworkError):
        fabric.attach("ghost", lambda src, payload, corrupted: None)


def test_stop_start_cycle_dispatches_again():
    env, _, client, server = _setup()
    replies = []
    _call(env, client, replies)
    env.run()
    server.stop()
    _call(env, client, replies)
    env.run()
    server.start()
    server.start()  # idempotent
    _call(env, client, replies)
    env.run()
    assert [r.ok for r in replies] == [True, False, True]
    assert replies[1].status is BlkStatus.TRANSPORT
    assert not client._pending and not server._handlers


@pytest.mark.parametrize("first", ["client", "stopper"])
def test_request_delivered_in_stop_ns_gets_reset(first):
    """Same-ns delivery and stop, in either order: the caller is answered."""
    env, _, client, server = _setup(hosts=("a", "a"))
    op_bytes = OsdOp(OpKind.PING, 0, "obj").wire_size()
    arrival = LOOPBACK_NS + transfer_ns(op_bytes, LOOPBACK_BW)
    seen = {}

    def stopper():
        yield env.timeout(arrival)
        seen["handlers_at_stop"] = len(server._handlers)
        server.stop()

    replies = []
    if first == "stopper":
        env.process(stopper())
        call = _call(env, client, replies)
    else:
        call = _call(env, client, replies)
        env.process(stopper())
    env.run()
    # "client" first: the request reached a handler, which stop() killed.
    # "stopper" first: the request arrived at a dead entity and bounced.
    killed = first == "client"
    assert seen["handlers_at_stop"] == (1 if killed else 0)
    assert call.ok and len(replies) == 1
    assert not replies[0].ok and replies[0].status is BlkStatus.TRANSPORT
    assert replies[0].error.startswith("connection reset" if killed else "connection refused")
    assert not client._pending and not server._handlers
