"""The monitor: cluster membership authority and recovery coordinator.

Publishes OSDMap epochs; on failure it marks the OSD down+out (bumping
the epoch so client placement caches invalidate) and can drive recovery:
re-replicating / reconstructing the objects the lost OSD held onto the
new acting sets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generator

from ..crush import CRUSH_ITEM_NONE
from ..errors import StorageError
from ..sim import NULL_METRICS, Environment
from .ops import OpKind, OsdOp
from .osd import OsdDaemon, shard_object_name
from .qos import CLASS_SYSTEM, QosTag
from .osdmap import OSDMap, Pool, PoolType

#: Most recent failure detections remembered (bounded: a long chaos run
#: with flapping links must not grow monitor state without limit).
FAILURES_DETECTED_CAP = 1024


@dataclass
class RecoveryStats:
    """Outcome of one recovery pass."""

    objects_examined: int = 0
    objects_recovered: int = 0
    bytes_moved: int = 0
    #: EC objects skipped because fewer than k shards survive anywhere.
    unrecoverable: int = 0


class Monitor:
    """Membership and recovery controller.

    When given a fabric messenger (the ``mon`` entity), the monitor can
    run **heartbeats**: periodic PING ops to every up OSD; an OSD that
    misses its reply deadline is declared down (epoch bump), so failures
    are *detected*, not just operator-injected.  ``down_out_interval_ns``
    adds flap damping: an OSD is only marked down after failing probes
    continuously for that long (0 = first miss, the historical default).
    """

    def __init__(self, env: Environment, osdmap: OSDMap, daemons: dict[int, OsdDaemon],
                 messenger=None, metrics=None, down_out_interval_ns: int = 0):
        self.env = env
        self.osdmap = osdmap
        self.daemons = daemons
        self.messenger = messenger
        self.down_out_interval_ns = down_out_interval_ns
        self._heartbeat_proc = None
        self._hb_running = False
        #: osd_id -> sim time of the first unanswered probe of the
        #: current suspicion window (cleared when a probe succeeds).
        self._suspect_since: dict[int, int] = {}
        self.failures_detected: deque[int] = deque(maxlen=FAILURES_DETECTED_CAP)
        self.flaps_suppressed = 0
        metrics = metrics or NULL_METRICS
        self._m_failures = metrics.counter("mon.failures_detected")
        self._m_flaps = metrics.counter("mon.flaps_suppressed")
        self._m_hb_rtt = metrics.distribution("mon.heartbeat_rtt_ns")

    # -- heartbeats --------------------------------------------------------------

    def start_heartbeats(self, interval_ns: int, grace_ns: int) -> None:
        """Begin probing every up OSD each ``interval_ns``; an OSD whose
        PING reply misses ``grace_ns`` is marked down."""
        if self.messenger is None:
            raise StorageError("heartbeats need a fabric messenger (mon entity)")
        if self._heartbeat_proc is not None:
            raise StorageError("heartbeats already running")
        self._hb_running = True
        self._heartbeat_proc = self.env.process(
            self._heartbeat_loop(interval_ns, grace_ns), name="mon.heartbeat"
        )

    def stop_heartbeats(self) -> None:
        """Stop the probe loop (in-flight probes drain without effect)."""
        self._hb_running = False
        if self._heartbeat_proc is not None and self._heartbeat_proc.is_alive:
            self._heartbeat_proc.interrupt("stopped")
        self._heartbeat_proc = None

    def _heartbeat_loop(self, interval_ns: int, grace_ns: int):
        while True:
            yield self.env.timeout(interval_ns)
            # Each probe resolves independently: one hung OSD's grace
            # window must not delay marking every *other* dead OSD down
            # (the old all_of barrier head-of-line blocked on the
            # slowest probe).
            for osd_id in self.osdmap.up_osds():
                self.env.process(self._probe_one(osd_id, grace_ns), name=f"hb.{osd_id}")

    def _probe_one(self, osd_id: int, grace_ns: int):
        t0 = self.env.now
        reply = yield from self.messenger.call(
            f"osd.{osd_id}",
            # Heartbeats ride the reserved ``system`` class: detection
            # latency must not degrade when tenants saturate the OSDs.
            OsdOp(OpKind.PING, 0, "ping", qos=QosTag(svc=CLASS_SYSTEM)),
            timeout_ns=grace_ns
        )
        if not self._hb_running:
            return
        if reply.ok:
            self._m_hb_rtt.record(self.env.now - t0)
            if self._suspect_since.pop(osd_id, None) is not None:
                # Probes recovered before down_out_interval elapsed: the
                # flap is damped, no epoch is published.
                self.flaps_suppressed += 1
                self._m_flaps.add()
            return
        if not self.osdmap.osds[osd_id].up:
            return
        since = self._suspect_since.setdefault(osd_id, t0)
        if self.env.now - since >= self.down_out_interval_ns:
            self._suspect_since.pop(osd_id, None)
            self.osdmap.mark_down(osd_id)
            self.failures_detected.append(osd_id)
            self._m_failures.add()

    def fail_osd(self, osd_id: int) -> None:
        """Declare an OSD dead: stop its daemon and publish a new epoch."""
        daemon = self.daemons.get(osd_id)
        if daemon is None:
            raise StorageError(f"unknown osd.{osd_id}")
        daemon.stop()
        self.osdmap.mark_down(osd_id)

    def revive_osd(self, osd_id: int) -> None:
        """Bring a previously failed OSD back.

        Without a WAL the store really is cleared: the volatile seed
        store cannot prove anything about its pre-failure content, so
        serving it would be silent data loss; until backfill completes
        the daemon answers absent reads with a retryable "missing during
        backfill" error (clients fail over) instead of authoritative
        absence.  A durable OSD instead replays its WAL: everything
        acked before the failure survives, and recovery only ships the
        delta written during the outage."""
        daemon = self.daemons.get(osd_id)
        if daemon is None:
            raise StorageError(f"unknown osd.{osd_id}")
        if daemon.wal is not None:
            daemon.restart_from_wal()
        else:
            daemon.reset_for_backfill()
        daemon.start()
        self._suspect_since.pop(osd_id, None)
        self.osdmap.mark_up(osd_id)

    def recover_pool(self, pool: Pool, helper_daemon: OsdDaemon) -> Generator:
        """Process: restore full durability for every object in ``pool``.

        ``helper_daemon`` is any live OSD used to perform reads/writes of
        missing copies (a stand-in for Ceph's per-PG recovery agents).
        Returns :class:`RecoveryStats`.
        """
        stats = RecoveryStats()
        live = {o: self.daemons[o] for o in self.osdmap.up_osds()}
        # Collect every logical object known to any live OSD in this pool.
        names: set[str] = set()
        for daemon in live.values():
            for key in daemon.store.object_names():
                base = key.split(".s")[0] if pool.pool_type == PoolType.ERASURE else key
                names.add(base)
        for name in sorted(names):
            stats.objects_examined += 1
            acting = self.osdmap.placement.object_to_osds(pool, name)[1]
            if pool.pool_type == PoolType.REPLICATED:
                moved = yield from self._recover_replicated(name, acting, live, helper_daemon)
            else:
                moved = yield from self._recover_ec(
                    pool, name, acting, live, helper_daemon, stats
                )
            if moved:
                stats.objects_recovered += 1
                stats.bytes_moved += moved
        # A full pass restored every recoverable object, so revived-empty
        # members are populated: absent now really means "never existed".
        for daemon in live.values():
            daemon.backfill_reserve = False
        return stats

    def _recover_replicated(self, name, acting, live, helper) -> Generator:
        holders = [o for o in live if name in live[o].store]
        if not holders:
            return 0
        source = holders[0]
        data = live[source].store.read(name, 0, live[source].store.object_size(name))
        moved = 0
        for target in acting:
            if target == CRUSH_ITEM_NONE or target in holders or target not in live:
                continue
            op = OsdOp(
                OpKind.WRITE_DIRECT,
                0,
                name,
                0,
                len(data),
                data=data,
                epoch=self.osdmap.epoch,
                qos=QosTag(svc=CLASS_SYSTEM),
            )
            yield from helper.call(f"osd.{target}", op)
            moved += len(data)
        return moved

    def _recover_ec(self, pool: Pool, name, acting, live, helper, stats) -> Generator:
        codec = helper.codec_for(pool.pool_id)
        # Gather surviving shards from live OSDs.
        shards: list = [None] * pool.size
        for rank in range(pool.size):
            key = shard_object_name(name, rank)
            for osd_id, daemon in live.items():
                if key in daemon.store:
                    shards[rank] = daemon.store.read(key, 0, daemon.store.object_size(key))
                    break
        present = sum(1 for s in shards if s is not None)
        if present < pool.k:
            # Unrecoverable (fewer than k shards survive anywhere): skip
            # and count rather than aborting the whole pass mid-pool.
            stats.unrecoverable += 1
            return 0
        moved = 0
        for rank, target in enumerate(acting):
            if target == CRUSH_ITEM_NONE or target not in live:
                continue
            key = shard_object_name(name, rank)
            if key in live[target].store:
                continue
            shard = shards[rank]
            if shard is None:
                shard = codec.reconstruct_shard(shards, rank)
                shards[rank] = shard
            op = OsdOp(
                OpKind.SHARD_WRITE,
                pool.pool_id,
                name,
                0,
                len(shard),
                data=shard,
                shard=rank,
                epoch=self.osdmap.epoch,
                qos=QosTag(svc=CLASS_SYSTEM),
            )
            yield from helper.call(f"osd.{target}", op)
            moved += len(shard)
        return moved
