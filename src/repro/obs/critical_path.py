"""Critical-path analysis over causal span trees.

Given one request's :class:`~repro.obs.context.SpanNode` tree, the
analyzer partitions the root interval ``[start, end]`` into disjoint
segments, each attributed to exactly one span on the critical path.
The partition is exact by construction: the attributed nanoseconds sum
to the measured end-to-end latency with no rounding and no residual —
the acceptance criterion the tests enforce.

The walk is backward in time.  At each node we scan the node's closed
children from the latest-finishing one down:

* a gap between the current cursor and a child's end is the *parent's
  own* time (e.g. blk-mq self-time between the driver finishing and
  the CQE being reaped);
* the latest-finishing child in range owns the segment up to its end —
  we recurse into it over the clipped window;
* children that finish earlier than the cursor ever reaches are
  *shadowed* (the replica leg that was not the straggler) and get zero
  critical-path time; their slack is reported separately by
  :func:`stragglers`.

Open children (``end_ns < 0``) and zero-duration markers are skipped —
they cannot gate a completed request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..errors import ReproError
from .context import SpanNode


@dataclass
class PathSegment:
    """One disjoint slice of the root interval, owned by one span."""

    span: SpanNode
    start_ns: int
    end_ns: int
    #: Names from the root down to the owning span ("self" segments of a
    #: parent carry the parent's own stack, not a child's).
    stack: tuple[str, ...]

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class CriticalPath:
    """Exact attribution of one request's end-to-end latency."""

    root: SpanNode
    segments: list[PathSegment] = field(default_factory=list)

    @property
    def total_ns(self) -> int:
        return self.root.duration_ns

    def by_span(self) -> dict[int, int]:
        """span_id -> attributed ns (sums exactly to ``total_ns``)."""
        out: dict[int, int] = {}
        for seg in self.segments:
            out[seg.span.span_id] = out.get(seg.span.span_id, 0) + seg.duration_ns
        return out

    def by_kind(self) -> dict[str, int]:
        """Resource kind (queue/service/net/dma/...) -> attributed ns."""
        out: dict[str, int] = {}
        for seg in self.segments:
            out[seg.span.kind] = out.get(seg.span.kind, 0) + seg.duration_ns
        return out

    def by_stage(self) -> dict[str, int]:
        """Top-level layer -> attributed ns.

        The "stage" of a segment is the first element below the root in
        its stack; time attributed to the root itself is reported under
        the root's own name (API/submission overhead).
        """
        out: dict[str, int] = {}
        for seg in self.segments:
            stage = seg.stack[1] if len(seg.stack) > 1 else seg.stack[0]
            out[stage] = out.get(stage, 0) + seg.duration_ns
        return out

    def folded(self) -> dict[tuple[str, ...], int]:
        """Full stack -> ns, ready for folded-stack flamegraph export."""
        out: dict[tuple[str, ...], int] = {}
        for seg in self.segments:
            out[seg.stack] = out.get(seg.stack, 0) + seg.duration_ns
        return out


def _closed_children(span: SpanNode) -> list[SpanNode]:
    kids = [c for c in span.children if c.end_ns >= 0 and c.end_ns > c.start_ns]
    # Deterministic gating order: latest end wins; ties broken by start
    # then span id so two seeded runs attribute identically.
    kids.sort(key=lambda c: (c.end_ns, c.start_ns, c.span_id))
    return kids


def _attribute(
    span: SpanNode,
    lo: int,
    hi: int,
    stack: tuple[str, ...],
    segments: list[PathSegment],
) -> None:
    """Partition [lo, hi] among ``span`` and its gating children."""
    if hi <= lo:
        return
    cursor = hi
    for child in reversed(_closed_children(span)):
        if cursor <= lo:
            break
        c_lo = max(child.start_ns, lo)
        c_hi = min(child.end_ns, cursor)
        if c_hi <= c_lo:
            continue  # shadowed: a later-finishing sibling owns this window
        if c_hi < cursor:
            # Nothing was running in (c_hi, cursor] at this level: the
            # parent itself owns that slice (its self-time).
            segments.append(PathSegment(span, c_hi, cursor, stack))
        _attribute(child, c_lo, c_hi, stack + (child.name,), segments)
        cursor = c_lo
    if cursor > lo:
        segments.append(PathSegment(span, lo, cursor, stack))


def analyze(root: SpanNode) -> CriticalPath:
    """Compute the exact critical-path partition of a completed tree."""
    path = CriticalPath(root)
    if root.end_ns >= 0:
        _attribute(root, root.start_ns, root.end_ns, (root.name,), path.segments)
        # Oldest-first reads better in reports and exports.
        path.segments.reverse()
    return path


@dataclass
class StragglerReport:
    """One fan-out where a sibling finished later than the others."""

    parent: SpanNode
    gating: SpanNode
    #: (sibling, slack_ns): how much earlier each non-gating leg landed.
    slack: list[tuple[SpanNode, int]]


_FANOUT_KINDS = frozenset({"rpc", "fanout"})


def stragglers(root: SpanNode) -> list[StragglerReport]:
    """Find fan-outs whose completion was gated by one slow leg.

    For every span with two or more closed overlapping rpc/fanout
    children, the latest-finishing leg gates the parent; each sibling's
    slack is the time it spent waiting for the gating leg.
    """
    reports: list[StragglerReport] = []
    for span in root.walk():
        legs = [
            c
            for c in span.children
            if c.kind in _FANOUT_KINDS and c.end_ns >= 0
        ]
        if len(legs) < 2:
            continue
        legs.sort(key=lambda c: (c.end_ns, c.start_ns, c.span_id))
        gating = legs[-1]
        # Only a *concurrent* fan-out has stragglers; sequential retry
        # legs (disjoint intervals) are attribution, not slack.
        overlapping = [
            c for c in legs[:-1] if c.end_ns > gating.start_ns and c.start_ns < gating.end_ns
        ]
        if not overlapping:
            continue
        slack = [(c, gating.end_ns - c.end_ns) for c in overlapping]
        reports.append(StragglerReport(span, gating, slack))
    return reports


def aggregate_attribution(
    paths: Iterable[CriticalPath],
) -> tuple[dict[str, int], dict[str, int], dict[tuple[str, ...], int]]:
    """Sum per-request attributions: (by_stage, by_kind, folded)."""
    by_stage: dict[str, int] = {}
    by_kind: dict[str, int] = {}
    folded: dict[tuple[str, ...], int] = {}
    for path in paths:
        for stage, ns in path.by_stage().items():
            by_stage[stage] = by_stage.get(stage, 0) + ns
        for kind, ns in path.by_kind().items():
            by_kind[kind] = by_kind.get(kind, 0) + ns
        for stack, ns in path.folded().items():
            folded[stack] = folded.get(stack, 0) + ns
    return by_stage, by_kind, folded


def exact_paths(roots: Iterable[SpanNode]) -> list[CriticalPath]:
    """Critical paths of ``roots``, each checked by :func:`verify_exact`.

    Raises :class:`~repro.errors.ReproError` on the first inexact
    partition: exact attribution is the product, not a diagnostic."""
    paths = []
    for root in roots:
        path = analyze(root)
        problem = verify_exact(path)
        if problem is not None:
            raise ReproError(f"inexact critical path for request span {root.span_id}: {problem}")
        paths.append(path)
    return paths


def verify_exact(path: CriticalPath) -> Optional[str]:
    """Return an error string if the partition is not exact, else None.

    Checks that segments are disjoint, ordered, cover [start, end] with
    no holes, and sum to the root duration — the invariant the analyzer
    guarantees and the test-suite property test re-proves.
    """
    root = path.root
    if root.end_ns < 0:
        return None if not path.segments else "open root has segments"
    if not path.segments:
        if root.duration_ns == 0:
            return None
        return "non-empty interval produced no segments"
    cursor = root.start_ns
    for seg in path.segments:
        if seg.start_ns != cursor:
            return f"hole or overlap at {cursor}: segment starts at {seg.start_ns}"
        if seg.end_ns <= seg.start_ns:
            return f"empty segment at {seg.start_ns}"
        cursor = seg.end_ns
    if cursor != root.end_ns:
        return f"partition ends at {cursor}, root ends at {root.end_ns}"
    if sum(s.duration_ns for s in path.segments) != root.duration_ns:
        return "segment durations do not sum to root duration"
    return None
