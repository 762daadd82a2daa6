"""CRUSH rules and the placement mapping engine.

A rule is a small program over the hierarchy: ``take`` a root, ``choose``
(or ``chooseleaf``) N items of a given type, ``emit``.  The engine here
ports the behaviour of Ceph's ``crush_do_rule`` in two modes:

* **firstn** — replica placement: ranks shift down on failure;
* **indep** — erasure-coded placement: ranks are positional and failed
  slots stay holes so shard identity is preserved.

Collision, out-device rejection (probabilistic reweight test), and
bounded retry (``choose_total_tries``) follow the published algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Generator, Optional, Sequence

from ..errors import CrushError
from .buckets import Bucket
from .hashing import hash32_2
from .map import CrushMap
from .types import CRUSH_ITEM_NONE, WEIGHT_ONE, DeviceClass

#: Default retry budget, matching Ceph's choose_total_tries tunable.
CHOOSE_TOTAL_TRIES = 50
#: Maximum descent depth (guards against malformed cyclic maps).
MAX_DEPTH = 32

#: A rule walk (or part of one): yields ``(bucket, r)`` choose requests,
#: is sent the chosen item, and returns its result.
Walk = Generator[tuple[Bucket, int], int, object]


class StepOp(Enum):
    """Rule step opcodes."""

    TAKE = "take"
    CHOOSE_FIRSTN = "choose_firstn"
    CHOOSE_INDEP = "choose_indep"
    CHOOSELEAF_FIRSTN = "chooseleaf_firstn"
    CHOOSELEAF_INDEP = "chooseleaf_indep"
    EMIT = "emit"


@dataclass(frozen=True)
class Step:
    """One rule instruction.

    ``num`` follows CRUSH semantics: 0 means "as many as requested",
    a negative value means "requested minus |num|".
    """

    op: StepOp
    arg: int = 0  # bucket id for TAKE
    num: int = 0  # replica count for CHOOSE*
    type_id: int = 0  # hierarchy type for CHOOSE*


@dataclass(frozen=True)
class CrushRule:
    """A named sequence of steps.

    ``device_class`` restricts placement to devices of one media class
    (Ceph's class-aware rules) — how a pool targets SSDs while SMR/HDD
    devices in the same hierarchy serve archival pools.
    """

    rule_id: int
    name: str
    steps: tuple[Step, ...]
    device_class: Optional[DeviceClass] = None

    def __post_init__(self):
        if not self.steps or self.steps[0].op != StepOp.TAKE:
            raise CrushError(f"rule {self.name!r} must start with a take step")
        if self.steps[-1].op != StepOp.EMIT:
            raise CrushError(f"rule {self.name!r} must end with an emit step")


def replicated_rule(
    root_id: int,
    fault_domain_type: int = 0,
    rule_id: int = 0,
    name: str = "replicated",
    device_class: Optional[DeviceClass] = None,
) -> CrushRule:
    """Standard replica rule: take root, chooseleaf N fault domains, emit.

    With ``fault_domain_type=0`` devices are chosen directly.
    """
    if fault_domain_type == 0:
        choose = Step(StepOp.CHOOSE_FIRSTN, num=0, type_id=0)
    else:
        choose = Step(StepOp.CHOOSELEAF_FIRSTN, num=0, type_id=fault_domain_type)
    return CrushRule(
        rule_id, name, (Step(StepOp.TAKE, arg=root_id), choose, Step(StepOp.EMIT)), device_class
    )


def erasure_rule(
    root_id: int,
    fault_domain_type: int = 0,
    rule_id: int = 1,
    name: str = "erasure",
    device_class: Optional[DeviceClass] = None,
) -> CrushRule:
    """EC rule: indep placement so shard ranks are stable."""
    if fault_domain_type == 0:
        choose = Step(StepOp.CHOOSE_INDEP, num=0, type_id=0)
    else:
        choose = Step(StepOp.CHOOSELEAF_INDEP, num=0, type_id=fault_domain_type)
    return CrushRule(
        rule_id, name, (Step(StepOp.TAKE, arg=root_id), choose, Step(StepOp.EMIT)), device_class
    )


class Mapper:
    """Executes rules against a :class:`CrushMap`.

    A rule execution is a *walk*: a generator that runs the rule for one
    input ``x`` and, whenever it needs a bucket draw, yields
    ``(bucket, r)`` and is sent back ``bucket.choose(x, r)``.
    :meth:`do_rule_many` advances the walks of many inputs in lockstep
    and answers each round's requests bucket by bucket with one
    :meth:`~repro.crush.buckets.Bucket.choose_many`; :meth:`do_rule` is
    the one-input case.
    """

    def __init__(self, cmap: CrushMap, total_tries: int = CHOOSE_TOTAL_TRIES):
        self.map = cmap
        self.total_tries = total_tries

    # -- device acceptance -------------------------------------------------------

    def _device_ok(self, dev_id: int, x: int, device_class: Optional[DeviceClass]) -> bool:
        """Class filter plus reweight test (probability reweight/0x10000)."""
        dev = self.map.devices[dev_id]
        if device_class is not None and dev.device_class != device_class:
            return False
        if dev.reweight >= WEIGHT_ONE:
            return True
        if dev.reweight == 0:
            return False
        return (hash32_2(x, dev_id) & 0xFFFF) < dev.reweight

    # -- descent -----------------------------------------------------------------

    def _descend(self, start: int, r: int, want_type: int) -> Walk:
        """Walk from ``start`` down to an item of ``want_type`` using rank r."""
        node = start
        for _ in range(MAX_DEPTH):
            if self.map.type_of(node) == want_type:
                return node
            if node >= 0:
                return None  # reached a device above the wanted type: dead end
            bucket = self.map.buckets[node]
            if bucket.size == 0:
                return None
            node = yield bucket, r
        raise CrushError(f"descent from {start} exceeded max depth {MAX_DEPTH}")

    def _leaf_under(
        self, node: int, x: int, rank: int, device_class: Optional[DeviceClass]
    ) -> Walk:
        """Pick one acceptable device under ``node`` (chooseleaf recursion)."""
        for ftotal in range(self.total_tries):
            item = yield from self._descend(node, rank + ftotal * 7919, want_type=0)
            if item is None:
                continue
            if self._device_ok(item, x, device_class):
                return item
        return None

    # -- choose ---------------------------------------------------------------------

    def _choose_firstn(
        self, start: int, x: int, numrep: int, want_type: int, recurse_to_leaf: bool,
        out: list[int], device_class: Optional[DeviceClass],
    ) -> Walk:
        chosen: list[int] = []
        leaves: list[int] = []
        for rep in range(numrep):
            found = None
            leaf_found = None
            for ftotal in range(self.total_tries):
                r = rep + ftotal
                item = yield from self._descend(start, r, want_type)
                if item is None or item in chosen:
                    continue
                if recurse_to_leaf:
                    leaf = yield from self._leaf_under(item, x, rep, device_class)
                    if leaf is None or leaf in leaves or leaf in out:
                        continue
                    found, leaf_found = item, leaf
                    break
                if want_type == 0:
                    if not self._device_ok(item, x, device_class) or item in out:
                        continue
                found = item
                break
            if found is not None:
                chosen.append(found)
                if recurse_to_leaf:
                    leaves.append(leaf_found)
        return leaves if recurse_to_leaf else chosen

    def _choose_indep(
        self, start: int, x: int, numrep: int, want_type: int, recurse_to_leaf: bool,
        out: list[int], device_class: Optional[DeviceClass],
    ) -> Walk:
        # Breadth-first rounds (as in crush_choose_indep): every unfilled
        # slot tries once per round with r = rep + round*numrep.  Round 0
        # draws are therefore identical whether or not other slots failed,
        # which is what keeps EC shard ranks stable across device failures.
        result: list[Optional[int]] = [None] * numrep
        taken: set[int] = set(o for o in out if o != CRUSH_ITEM_NONE)
        for ftotal in range(self.total_tries):
            unfilled = [rep for rep in range(numrep) if result[rep] is None]
            if not unfilled:
                break
            for rep in unfilled:
                r = rep + ftotal * numrep
                item = yield from self._descend(start, r, want_type)
                if item is None or item in taken or item in result:
                    continue
                if recurse_to_leaf:
                    leaf = yield from self._leaf_under(item, x, rep, device_class)
                    if leaf is None or leaf in taken or leaf in result:
                        continue
                    result[rep] = leaf
                    taken.add(leaf)
                    continue
                if want_type == 0 and not self._device_ok(item, x, device_class):
                    continue
                result[rep] = item
                taken.add(item)
        return [CRUSH_ITEM_NONE if v is None else v for v in result]

    # -- rule execution ----------------------------------------------------------------

    def _walk(self, rule: CrushRule, x: int, num_rep: int) -> Walk:
        """The whole rule for input ``x``; returns the emitted items."""
        working: list[int] = []
        out: list[int] = []
        for step in rule.steps:
            if step.op == StepOp.TAKE:
                if step.arg not in self.map.buckets and step.arg not in self.map.devices:
                    raise CrushError(f"take of unknown item {step.arg}")
                working = [step.arg]
            elif step.op == StepOp.EMIT:
                out.extend(working)
                working = []
            else:
                numrep = step.num if step.num > 0 else num_rep + step.num
                numrep = min(numrep, num_rep) if step.num == 0 else numrep
                firstn = step.op in (StepOp.CHOOSE_FIRSTN, StepOp.CHOOSELEAF_FIRSTN)
                to_leaf = step.op in (StepOp.CHOOSELEAF_FIRSTN, StepOp.CHOOSELEAF_INDEP)
                choose = self._choose_firstn if firstn else self._choose_indep
                next_working: list[int] = []
                for node in working:
                    next_working.extend(
                        (yield from choose(
                            node, x, numrep, step.type_id, to_leaf, out, rule.device_class
                        ))
                    )
                working = next_working
        return out

    def do_rule_many(self, rule: CrushRule, xs: Sequence[int], num_rep: int) -> list[list[int]]:
        """``[do_rule(rule, x, num_rep) for x in xs]``, in one batched pass.

        Every round sends each live walk the item it asked for and
        collects its next request; requests are grouped by bucket, and a
        group of two or more is answered by one ``choose_many``.
        """
        if num_rep < 1:
            raise CrushError(f"num_rep must be >= 1, got {num_rep}")
        walks = [self._walk(rule, x, num_rep) for x in xs]
        results: list[list[int]] = [[] for _ in walks]
        replies: list[tuple[int, Optional[int]]] = [(i, None) for i in range(len(walks))]
        while replies:
            groups: dict[int, tuple[Bucket, list[int], list[int]]] = {}
            for i, item in replies:
                try:
                    bucket, r = walks[i].send(item)
                except StopIteration as done:
                    results[i] = done.value
                    continue
                group = groups.get(bucket.id)
                if group is None:
                    group = groups[bucket.id] = (bucket, [], [])
                group[1].append(i)
                group[2].append(r)
            replies = []
            for bucket, idx, rs in groups.values():
                if len(idx) == 1:
                    items = [bucket.choose(xs[idx[0]], rs[0])]
                else:
                    items = bucket.choose_many([xs[i] for i in idx], rs)
                replies.extend(zip(idx, items))
        return results

    def do_rule(self, rule: CrushRule, x: int, num_rep: int) -> list[int]:
        """Map input ``x`` to ``num_rep`` items under ``rule``.

        firstn rules return up to ``num_rep`` devices (possibly fewer);
        indep rules return exactly ``num_rep`` slots with
        :data:`CRUSH_ITEM_NONE` holes where placement failed.
        """
        return self.do_rule_many(rule, [x], num_rep)[0]
