"""I/O lifecycle tracing: causal span trees, and Figure 2's six stages.

The paper names detailed profiling/tracing of the I/O path as future
work; this module provides it for the simulated stack.  A
:class:`Tracer` grows one :class:`SpanNode` tree per workload op:

* the **root** is created when the API engine prepares the SQE (or,
  for engines that do not pre-stamp one, when the bio enters blk-mq);
  the block layer annotates it with the request's ``req_id``;
* each datapath layer appends a **child** covering its own interval
  (``rings``, ``dmq``, ``uifd``/``nbd``, ``qdma``, ``accel``,
  ``fabric``, ``complete``);
* every fan-out — bio split across objects, replication fan-out, EC
  shard dispatch, primary sub-ops — and every retry/failover leg under
  an :class:`repro.osd.policy.OpPolicy` adds one child per leg, so the
  tree records *why* the op took as long as it did.

The flat per-request stage view is a read-only projection of those
trees: a request's stage spans are the closed direct children, named
in :data:`STAGES`, of every root carrying its ``req_id``.  The stage
names follow the six numbered optimizations of the paper's
architecture figure:

1. ``rings``      — io_uring submission/completion handling (batching,
                    zero-copy rings);
2. ``dmq``        — the modified multi-queue block layer;
3. ``qdma``       — descriptor + DMA transfer over PCIe;
4. ``accel``      — replication/EC accelerator compute;
5. ``fabric``     — network + OSD service (replication fan-out, TCP);
6. ``complete``   — completion delivery back to the application.

Enable with ``build_framework(..., trace=True)`` (``obs=True`` builds
the same tracer) and read ``fw.tracer.summary()`` afterwards, export
the stage view with :meth:`Tracer.export_chrome_trace` (loadable in
``chrome://tracing`` / Perfetto) or :meth:`Tracer.export_csv` (flat,
one row per span), or hand ``fw.tracer.roots`` to :mod:`repro.obs`.

Span recording never creates simulation events: timestamps are read
from ``env.now`` and everything else is plain Python bookkeeping, so a
traced run produces the exact same event stream as an untraced one.
Span ids come from a per-tracer counter, so two seeded runs export
identical trees.
"""

from __future__ import annotations

import csv
import itertools
import json
import pathlib
from typing import Iterator, Optional, Union

from .errors import ReproError

#: Canonical stage order for reports.
STAGES = ("rings", "dmq", "qdma", "accel", "fabric", "complete")
_STAGE_ORDER = {stage: i for i, stage in enumerate(STAGES)}


class SpanNode:
    """One node of a causal span tree."""

    __slots__ = ("span_id", "name", "kind", "start_ns", "end_ns", "parent", "children", "meta", "_tracer")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        name: str,
        kind: str,
        start_ns: int,
        parent: Optional["SpanNode"] = None,
        meta: Optional[dict] = None,
    ):
        self._tracer = tracer
        self.span_id = span_id
        self.name = name
        #: Resource class the span occupies: "stage", "queue", "service",
        #: "compute", "dma", "net", "rpc", "fanout", "wait", "driver", ...
        self.kind = kind
        self.start_ns = start_ns
        #: -1 while open; :meth:`finish` extends monotonically, so layers
        #: that learn about completion at different times may all call it.
        self.end_ns = -1
        self.parent = parent
        self.children: list[SpanNode] = []
        self.meta: dict = meta or {}

    # -- lifecycle ---------------------------------------------------------------

    def child(self, name: str, kind: str = "span", start_ns: Optional[int] = None, **meta) -> "SpanNode":
        """Open a child span starting now (or at ``start_ns``)."""
        node = SpanNode(
            self._tracer,
            self._tracer._next_span_id(),
            name,
            kind,
            self._tracer.env.now if start_ns is None else start_ns,
            parent=self,
            meta=meta or None,
        )
        self.children.append(node)
        return node

    def record(self, name: str, kind: str, start_ns: int, end_ns: int, **meta) -> "SpanNode":
        """Append an already-closed child (retrospective instrumentation)."""
        if end_ns < start_ns:
            raise ReproError(f"span {name!r} ends before it starts")
        node = self.child(name, kind, start_ns=start_ns, **meta)
        node.end_ns = end_ns
        return node

    def finish(self, end_ns: Optional[int] = None, ok: bool = True, **meta) -> None:
        """Close (or extend) the span.

        ``end_ns`` defaults to the current clock.  Repeated calls keep
        the *latest* end: the block layer closes a request's root when
        the driver completes it, and the io_uring engine extends it to
        the CQE reap — both simply call ``finish()``.
        """
        end = self._tracer.env.now if end_ns is None else end_ns
        if end > self.end_ns:
            self.end_ns = end
        if not ok:
            self.meta["error"] = True
        if meta:
            self.meta.update(meta)

    def annotate(self, **meta) -> None:
        """Attach metadata without touching timestamps."""
        self.meta.update(meta)

    # -- inspection --------------------------------------------------------------

    @property
    def complete(self) -> bool:
        """True once the span has an end timestamp."""
        return self.end_ns >= 0

    @property
    def duration_ns(self) -> int:
        """Span length (0 while still open)."""
        return max(0, self.end_ns - self.start_ns) if self.end_ns >= 0 else 0

    def walk(self) -> Iterator["SpanNode"]:
        """Pre-order traversal of this subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> list["SpanNode"]:
        """Every descendant (including self) with the given name."""
        return [s for s in self.walk() if s.name == name]

    def to_dict(self) -> dict:
        """JSON-ready nested representation (deterministic key order)."""
        out = {
            "span_id": self.span_id,
            "name": self.name,
            "kind": self.kind,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
        }
        if self.meta:
            out["meta"] = {k: self.meta[k] for k in sorted(self.meta)}
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    def __repr__(self) -> str:
        state = f"{self.start_ns}..{self.end_ns}" if self.complete else f"{self.start_ns}.."
        return f"<SpanNode #{self.span_id} {self.name}/{self.kind} {state} kids={len(self.children)}>"


class Tracer:
    """Records causal span trees; the six-stage view is derived from them."""

    def __init__(self, env):
        self.env = env
        #: Root spans in creation (= submission) order.
        self.roots: list[SpanNode] = []
        self._span_ids = itertools.count(1)

    def _next_span_id(self) -> int:
        return next(self._span_ids)

    def start_root(self, name: str, kind: str = "op", start_ns: Optional[int] = None, **meta) -> SpanNode:
        """Open a new request tree rooted now (or at ``start_ns``)."""
        root = SpanNode(
            self,
            self._next_span_id(),
            name,
            kind,
            self.env.now if start_ns is None else start_ns,
            meta=meta or None,
        )
        self.roots.append(root)
        return root

    def complete_trees(self) -> list[SpanNode]:
        """Roots whose end-to-end interval is closed."""
        return [r for r in self.roots if r.complete]

    def incomplete_trees(self) -> list[SpanNode]:
        """Roots that never completed (op failed mid-flight / run ended)."""
        return [r for r in self.roots if not r.complete]

    # -- the six-stage projection ------------------------------------------------

    def stage_spans(self) -> dict[int, list[SpanNode]]:
        """Request id -> its closed stage spans (requests with none are omitted).

        A bio merged into another request keeps its own root, annotated
        with the merged request's ``req_id``; its spans count toward
        that request.
        """
        out: dict[int, list[SpanNode]] = {}
        for root in self.roots:
            rid = root.meta.get("req_id")
            if rid is None:
                continue
            spans = [c for c in root.children if c.name in _STAGE_ORDER and c.end_ns >= 0]
            if spans:
                out.setdefault(rid, []).extend(spans)
        return out

    def _tenants(self) -> dict[int, str]:
        """request id -> tenant label, for QoS-tagged requests."""
        return {
            root.meta["req_id"]: root.meta["tenant"]
            for root in self.roots
            if "req_id" in root.meta and root.meta.get("tenant")
        }

    # -- reporting ---------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Mean microseconds per stage across all traced requests.

        Every request that *entered* a stage counts toward that stage's
        mean, including zero-duration visits — filtering those out would
        silently bias stage shares upward.

        Requests that never reached ``complete`` (failed by chaos, or
        in flight when the run ended) are surfaced under the
        ``"incomplete"`` key as a plain count: dropping them silently
        would bias chaos-run breakdowns toward the survivors.
        """
        totals = []
        for spans in self.stage_spans().values():
            per_stage: dict[str, int] = {}
            for span in spans:
                per_stage[span.name] = per_stage.get(span.name, 0) + span.duration_ns
            totals.append(per_stage)
        out: dict[str, float] = {}
        for stage in STAGES:
            vals = [t[stage] for t in totals if stage in t]
            if vals:
                out[stage] = sum(vals) / len(vals) / 1000.0
        incomplete = sum(1 for t in totals if "complete" not in t)
        if incomplete:
            out["incomplete"] = incomplete
        return out

    def breakdown_table(self) -> str:
        """Render the mean per-stage latency contribution."""
        summary = self.summary()
        incomplete = summary.pop("incomplete", 0)
        total = sum(summary.values()) or 1.0
        lines = ["stage      mean-us   share"]
        for stage in STAGES:
            if stage in summary:
                lines.append(
                    f"{stage:10s} {summary[stage]:7.2f}  {summary[stage] / total:6.1%}"
                )
        if incomplete:
            lines.append(f"(+{int(incomplete)} request(s) never reached complete)")
        return "\n".join(lines)

    # -- span export -------------------------------------------------------------

    def iter_spans(self) -> Iterator[tuple[int, SpanNode]]:
        """(request_id, span) for every closed stage span, in a fixed order.

        Sorted by start time, then request id, then canonical stage
        order — a pure function of the simulated run, so two seeded runs
        export identical streams."""
        flat = [(rid, span) for rid, spans in self.stage_spans().items() for span in spans]
        flat.sort(key=lambda e: (e[1].start_ns, e[0], _STAGE_ORDER[e[1].name]))
        return iter(flat)

    def to_chrome_trace(self) -> dict:
        """The stage view as a Chrome trace-event object (JSON-ready).

        Complete ("X") events, one per span, timestamps in microseconds.
        Each *stage* renders as its own named track (``tid`` = canonical
        stage index): Perfetto then shows six readable lanes with every
        request's visit to a layer on that layer's lane, instead of one
        unreadable track per request.  The owning request stays in
        ``args.request_id``.

        Requests whose root carries a ``tenant`` additionally split into
        per-tenant lanes — ``"fabric [tenant-a]"`` — with stable tids
        assigned by sorted tenant name, and carry ``args.tenant``, so a
        multi-tenant run's interference pattern is visible per tenant
        rather than collapsed into one anonymous lane.
        """
        request_tenant = self._tenants()
        # Deterministic tenant lane block after the base stages (and the
        # tid len(STAGES), which no stage uses).
        tenants = sorted(set(request_tenant.values()))
        tenant_base = {
            tenant: len(STAGES) + 1 + i * len(STAGES) for i, tenant in enumerate(tenants)
        }
        events = []
        for rid, span in self.iter_spans():
            tenant = request_tenant.get(rid, "")
            stage_idx = _STAGE_ORDER[span.name]
            event = {
                "name": span.name,
                "cat": "io",
                "ph": "X",
                "ts": span.start_ns / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "pid": 0,
                "tid": tenant_base[tenant] + stage_idx if tenant else stage_idx,
                "args": {"request_id": rid, "start_ns": span.start_ns, "end_ns": span.end_ns},
            }
            if tenant:
                event["args"]["tenant"] = tenant
            events.append(event)
        meta = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": "repro I/O lifecycle"},
            }
        ]
        used_tids = {e["tid"] for e in events}
        lane_names = dict(_STAGE_ORDER)
        for tenant in tenants:
            for stage, idx in _STAGE_ORDER.items():
                lane_names[f"{stage} [{tenant}]"] = tenant_base[tenant] + idx
        for lane, tid in lane_names.items():
            if tid in used_tids:
                meta.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 0,
                        "tid": tid,
                        "args": {"name": lane},
                    }
                )
        return {"traceEvents": events + meta, "displayTimeUnit": "ns"}

    def export_chrome_trace(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the Chrome trace-event JSON; returns the path written."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome_trace(), indent=1))
        return path

    def export_csv(self, path: Union[str, pathlib.Path]) -> pathlib.Path:
        """Write the flat span table: one row per closed stage span."""
        request_tenant = self._tenants()
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["request_id", "tenant", "stage", "start_ns", "end_ns", "duration_ns"])
            for rid, span in self.iter_spans():
                writer.writerow([
                    rid, request_tenant.get(rid, ""), span.name,
                    span.start_ns, span.end_ns, span.duration_ns,
                ])
        return path
