"""Stage-breakdown experiment: where does an I/O spend its time?

Runs the full DeLiBA-K stack with the causal tracer *and* the metrics
registry enabled and reports, per fio mode, the critical-path time
attributed to each datapath stage plus the per-layer instruments that
explain it (ring batch sizes, block-layer queue depth, OSD service
latency).  Unlike the flat stage summary it replaced, the attribution
is exact: per-stage nanoseconds partition each request's measured
end-to-end latency, so the share column always sums to 100%.
"""

from __future__ import annotations

from ..deliba import FRAMEWORKS, build_framework
from ..obs.critical_path import aggregate_attribution, exact_paths
from ..units import kib
from ..workloads import FioJob
from .experiments import ExperimentResult

#: fio modes profiled (one column pair per mode).
BREAKDOWN_MODES = ("randread", "randwrite")
#: Stage render order (critical-path stage names; "api" is root self-time).
_STAGE_ORDER = ("api", "rings", "dmq", "uifd", "qdma", "accel", "fabric", "complete")
#: Registry names surfaced in the notes, with a human label each.
_NOTE_METRICS = (
    ("uring.sqe_batch_size", "mean SQEs per io_uring_enter"),
    ("uring.syscalls_saved", "syscalls saved by batching"),
    ("driver.uifd.request_ns", "driver request latency"),
    ("osd.0.op_latency", "osd.0 service latency"),
    ("net.bytes", "bytes on the wire"),
)


def _profile(rw: str, bs: int, nreq: int, seed: int):
    """One causally traced + metered run of the delibak stack."""
    fw = build_framework(FRAMEWORKS["delibak"], seed=seed, obs=True, metrics=True)
    job = FioJob(name=f"breakdown-{rw}", rw=rw, bs=bs, iodepth=1, nrequests=nreq)
    proc = fw.env.process(fw.run_fio(job), name=f"breakdown:{rw}")
    fw.env.run()
    if not proc.ok:
        raise proc.value
    return fw, proc.value


def _attribution(fw) -> tuple[dict[str, int], int]:
    """Exact per-stage critical-path ns and the request count."""
    paths = exact_paths(fw.tracer.complete_trees())
    by_stage, _kinds, _folded = aggregate_attribution(paths)
    merged: dict[str, int] = {}
    for stage, ns in by_stage.items():
        # Root self-time segments carry the op name; report them as "api".
        key = "api" if stage in ("read", "write") else stage
        merged[key] = merged.get(key, 0) + ns
    return merged, len(paths)


def _metric_note(fw) -> list[str]:
    """One line per surfaced instrument, skipping any that stayed empty."""
    lines = []
    for name, label in _NOTE_METRICS:
        if name not in fw.metrics:
            continue
        metric = fw.metrics.get(name)
        if hasattr(metric, "mean_us"):
            if metric.count:
                lines.append(f"{label}: {metric.mean_us():.1f} us mean (n={metric.count})")
        elif hasattr(metric, "mean"):
            if metric.count:
                lines.append(f"{label}: {metric.mean():.1f} mean (n={metric.count})")
        elif metric.value:
            lines.append(f"{label}: {metric.value}")
    depth = fw.blk.queue_depth_summary(fw.env.now)
    if depth:
        busiest = max(depth, key=depth.get)
        lines.append(f"time-weighted blk queue depth ({busiest}): {depth[busiest]:.2f}")
    return lines


def exp_breakdown(bs: int = kib(4), nreq: int = 60, seed: int = 0) -> ExperimentResult:
    """Critical-path latency breakdown of the DeLiBA-K stack."""
    res = ExperimentResult(
        "breakdown",
        f"DeLiBA-K critical-path I/O breakdown, bs={bs} (exact attribution)",
        ["stage"] + [f"{rw} us" for rw in BREAKDOWN_MODES] + [f"{rw} share" for rw in BREAKDOWN_MODES],
    )
    stages = {}
    counts = {}
    notes = []
    for rw in BREAKDOWN_MODES:
        fw, _ = _profile(rw, bs, nreq, seed)
        stages[rw], counts[rw] = _attribution(fw)
        incomplete = len(fw.tracer.incomplete_trees())
        note = f"[{rw}] " + "; ".join(_metric_note(fw))
        if incomplete:
            note += f"; {incomplete} request(s) never completed"
        notes.append(note)
    totals = {rw: sum(stages[rw].values()) or 1 for rw in BREAKDOWN_MODES}
    order = {name: i for i, name in enumerate(_STAGE_ORDER)}
    seen = sorted(
        {s for rw in BREAKDOWN_MODES for s in stages[rw]},
        key=lambda s: (order.get(s, len(order)), s),
    )
    for stage in seen:
        row = [stage]
        row += [
            round(stages[rw].get(stage, 0) / max(counts[rw], 1) / 1000.0, 2)
            for rw in BREAKDOWN_MODES
        ]
        row += [f"{stages[rw].get(stage, 0) / totals[rw]:.1%}" for rw in BREAKDOWN_MODES]
        res.rows.append(row)
    res.notes = "\n".join(notes)
    return res
