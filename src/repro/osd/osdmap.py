"""The cluster map: OSD states, pools, epochs.

The OSDMap is the authoritative description of the cluster that the
monitor publishes and every client caches.  Any change (device failure,
pool creation, reweight) bumps the epoch.  The map owns the CRUSH
placement: one PG -> acting table per pool, computed for the current
epoch and shared by every reader (clients, recovery, monitor, scrub).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..crush import CrushMap, CrushRule, PlacementEngine, erasure_rule, replicated_rule
from ..errors import StorageError


class PoolType(Enum):
    """Data-durability scheme of a pool."""

    REPLICATED = "replicated"
    ERASURE = "erasure"


@dataclass
class Pool:
    """A named pool with placement parameters (mirrors Ceph's pg_pool_t)."""

    pool_id: int
    name: str
    pool_type: PoolType
    pg_num: int
    size: int  # replicas (replicated) or k+m (erasure)
    k: int = 1
    m: int = 0
    rule: Optional[CrushRule] = None

    def __post_init__(self):
        if self.pg_num < 1:
            raise StorageError(f"pool {self.name!r}: pg_num must be >= 1")
        if self.pool_type == PoolType.ERASURE:
            if self.k < 2:
                raise StorageError(f"EC pool {self.name!r} needs k >= 2, got {self.k}")
            if self.size != self.k + self.m:
                raise StorageError(
                    f"EC pool {self.name!r}: size {self.size} != k+m {self.k + self.m}"
                )
        elif self.size < 1:
            raise StorageError(f"pool {self.name!r}: size must be >= 1")


@dataclass
class OsdState:
    """Liveness/membership of one OSD."""

    osd_id: int
    up: bool = True
    in_cluster: bool = True
    host: str = ""


class OSDMap:
    """Epoch-versioned view of OSD states and pools over a CRUSH map."""

    def __init__(self, crush: CrushMap):
        self.crush = crush
        self.epoch = 1
        #: PG -> acting tables of the current epoch, filled on first lookup.
        self.placement = PlacementEngine(crush)
        self.osds: dict[int, OsdState] = {}
        self.pools: dict[int, Pool] = {}
        self._next_pool_id = 1
        #: Callbacks fired (synchronously) after every epoch bump; the
        #: recovery manager subscribes to re-derive PG states.
        self._watchers: list = []

    def watch(self, callback) -> None:
        """Register ``callback(epoch)`` to run after each epoch bump."""
        self._watchers.append(callback)

    def bump(self) -> int:
        """Advance the epoch and notify watchers; returns the new epoch.

        The placement tables are dropped first, so every reader, watchers
        included, sees acting sets computed against the new map.
        """
        self.epoch += 1
        self.placement.invalidate()
        for callback in list(self._watchers):
            callback(self.epoch)
        return self.epoch

    def register_osd(self, osd_id: int, host: str) -> None:
        """Record an OSD's existence and host placement."""
        if osd_id in self.osds:
            raise StorageError(f"osd.{osd_id} already registered")
        self.osds[osd_id] = OsdState(osd_id, host=host)

    def create_replicated_pool(
        self, name: str, pg_num: int, size: int, root_id: int, fault_domain_type: int = 0
    ) -> Pool:
        """New replicated pool with a firstn rule under ``root_id``."""
        pool_id = self._next_pool_id
        self._next_pool_id += 1
        rule = replicated_rule(root_id, fault_domain_type, rule_id=pool_id, name=f"{name}-rule")
        pool = Pool(pool_id, name, PoolType.REPLICATED, pg_num, size, rule=rule)
        self.pools[pool_id] = pool
        self.bump()
        return pool

    def create_erasure_pool(
        self, name: str, pg_num: int, k: int, m: int, root_id: int, fault_domain_type: int = 0
    ) -> Pool:
        """New EC pool with an indep rule under ``root_id``."""
        pool_id = self._next_pool_id
        self._next_pool_id += 1
        rule = erasure_rule(root_id, fault_domain_type, rule_id=pool_id, name=f"{name}-rule")
        pool = Pool(pool_id, name, PoolType.ERASURE, pg_num, k + m, k=k, m=m, rule=rule)
        self.pools[pool_id] = pool
        self.bump()
        return pool

    def pool(self, pool_id: int) -> Pool:
        """Lookup; raises on unknown pool."""
        if pool_id not in self.pools:
            raise StorageError(f"unknown pool {pool_id}")
        return self.pools[pool_id]

    def pool_by_name(self, name: str) -> Pool:
        """Lookup by name."""
        for pool in self.pools.values():
            if pool.name == name:
                return pool
        raise StorageError(f"unknown pool {name!r}")

    def mark_down(self, osd_id: int) -> None:
        """OSD stopped responding: down + out, epoch bump, CRUSH reweight."""
        state = self.osds.get(osd_id)
        if state is None:
            raise StorageError(f"unknown osd.{osd_id}")
        state.up = False
        state.in_cluster = False
        self.crush.mark_out(osd_id)
        self.bump()

    def mark_up(self, osd_id: int) -> None:
        """OSD rejoined."""
        state = self.osds.get(osd_id)
        if state is None:
            raise StorageError(f"unknown osd.{osd_id}")
        state.up = True
        state.in_cluster = True
        self.crush.mark_in(osd_id)
        self.bump()

    def up_osds(self) -> list[int]:
        """Ids of OSDs currently up."""
        return sorted(o.osd_id for o in self.osds.values() if o.up)

    def host_of(self, osd_id: int) -> str:
        """Network host an OSD runs on."""
        if osd_id not in self.osds:
            raise StorageError(f"unknown osd.{osd_id}")
        return self.osds[osd_id].host
