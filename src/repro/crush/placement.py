"""Object -> placement-group -> OSD mapping (the client-side hot path).

This is the computation the DeLiBA-K FPGA executes in the datapath: hash
the object name to a placement group (PG) with Ceph's *stable mod*, then
run the pool's CRUSH rule on the PG seed to obtain the acting set of
OSDs.  A PG's acting set only changes when the map changes, so
:class:`PlacementEngine` computes a whole pool's PG -> acting table at
once, in one batched rule pass, and serves every later lookup from it
until the map changes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..errors import CrushError
from .hashing import hash32_2, str_hash
from .map import CrushMap
from .rules import Mapper
from .types import CRUSH_ITEM_NONE


def stable_mod(x: int, b: int, bmask: int) -> int:
    """Ceph's ``ceph_stable_mod``: a modulo that is stable as ``b`` grows.

    When ``b`` is not a power of two, values map so that growing the PG
    count splits each PG in two instead of reshuffling everything.
    """
    if (x & bmask) < b:
        return x & bmask
    return x & (bmask >> 1)


def pg_mask(pg_num: int) -> int:
    """Smallest all-ones mask covering ``pg_num`` (Ceph's pgp_num_mask)."""
    if pg_num < 1:
        raise CrushError(f"pg_num must be >= 1, got {pg_num}")
    return (1 << (pg_num - 1).bit_length()) - 1 if pg_num > 1 else 0


def object_to_pg(object_name: str, pg_num: int) -> int:
    """Placement group index for an object name."""
    return stable_mod(str_hash(object_name), pg_num, pg_mask(pg_num))


def pg_seed(pool_id: int, pg_id: int) -> int:
    """The CRUSH input x for a placement group (pool-salted)."""
    return hash32_2(pg_id, pool_id)


class PlacementEngine:
    """PG -> acting-set tables, one per pool, each filled in one CRUSH pass.

    A table holds the acting set of every PG of a pool and is filled the
    first time any reader looks that pool up, by one
    :meth:`Mapper.do_rule_many` over all ``pg_num`` PG seeds.  The
    tables answer for the map as it was when they were filled:
    :meth:`invalidate` drops them.  An :class:`~repro.osd.osdmap.OSDMap`
    owns one engine and invalidates it on every epoch bump, so all of its
    readers share one table per pool per epoch (Ceph's
    ``OSDMapMapping``).

    ``pool`` arguments are anything with ``pool_id``, ``pg_num``,
    ``rule`` and ``size`` (an OSD-layer ``Pool``).
    """

    def __init__(self, cmap: CrushMap, total_tries: Optional[int] = None):
        self.map = cmap
        self.mapper = Mapper(cmap) if total_tries is None else Mapper(cmap, total_tries)
        self._tables: dict[int, tuple[tuple[int, ...], ...]] = {}
        #: Tables filled so far (one batched CRUSH pass each).
        self.fills = 0

    def invalidate(self) -> None:
        """Drop every table; the next lookup refills from the current map."""
        self._tables.clear()

    def table(self, pool) -> tuple[tuple[int, ...], ...]:
        """Acting set of every PG of ``pool``, indexed by PG id."""
        table = self._tables.get(pool.pool_id)
        if table is None:
            seeds = [pg_seed(pool.pool_id, pg) for pg in range(pool.pg_num)]
            acting = self.mapper.do_rule_many(pool.rule, seeds, pool.size)
            table = self._tables[pool.pool_id] = tuple(map(tuple, acting))
            self.fills += 1
        return table

    def pg_to_osds(self, pool, pg_id: int) -> tuple[int, ...]:
        """Acting set for a PG: up to ``size`` OSD ids (holes for indep rules)."""
        return self.table(pool)[pg_id]

    def object_to_osds(self, pool, object_name: str) -> tuple[int, tuple[int, ...]]:
        """Full path: object name -> (pg_id, acting set)."""
        pg_id = object_to_pg(object_name, pool.pg_num)
        return pg_id, self.pg_to_osds(pool, pg_id)

    @staticmethod
    def primary_of(acting: Sequence[int]) -> Optional[int]:
        """First non-hole OSD in the acting set, or None when empty."""
        for osd in acting:
            if osd != CRUSH_ITEM_NONE:
                return osd
        return None
