"""Metric names, units and their computation from a run's repetitions.

``END_TO_END`` and ``PER_LAYER`` are the names ``BENCHMARK.json`` lists,
in the same order, with the same units.  Host times are scaled to the
nominal reference speed (see ``clock.py``) and taken as the median over
repetitions.  Simulated figures and counts are deterministic for a
workload and seed, so any repetition gives them.
"""

from __future__ import annotations

from statistics import median

from repro.trace import STAGES

from .probes import LAYERS

END_TO_END = {
    "host_us_per_req": "us",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "sim_kiops": "kIOPS",
}

PER_LAYER = {
    "sim.events_per_req": "1/req",
    "sim.processes_per_req": "1/req",
    **{f"{layer}.self_us_per_req": "us/req" for layer in LAYERS},
    **{f"{layer}.self_frac": "ratio" for layer in LAYERS},
    "api.submits_per_req": "1/req",
    "blk.requests_per_bio": "1/bio",
    "fpga.qdma_transfers_per_req": "1/req",
    "fpga.accel_calls_per_req": "1/req",
    "net.messages_per_req": "1/req",
    "osd.client_ops_per_req": "1/req",
    "osd.store_writes_per_req": "1/req",
    "osd.store_bytes_per_user_byte": "B/B",
    "crush.placements_per_req": "1/req",
    "crush.placement_hit_ratio": "ratio",
    "crush.host_us_per_req": "us/req",
    "ec.encodes_per_req": "1/req",
    "ec.host_us_per_req": "us/req",
    "obs.spans_per_req": "1/req",
    **{f"stage.{stage}_us": "us" for stage in STAGES},
    "trace.overhead_ratio": "ratio",
}


def _of(reps: list[dict], mode: str) -> list[dict]:
    return [r for r in reps if r["mode"] == mode]


def _us_per_req(rep: dict, seconds: float) -> float:
    return seconds / rep["ios"] * 1e6


def _scaled_us_per_req(rep: dict, timer: str) -> float:
    """A probe timer per I/O, scaled like the repetition's window time."""
    return _us_per_req(rep, rep["probes"][timer] * rep["host_s"] / rep["host_wall_s"])


def end_to_end(reps: list[dict]) -> dict[str, float]:
    """The end-to-end metrics from the ``plain`` repetitions."""
    plain = _of(reps, "plain")
    first = plain[0]
    return {
        "host_us_per_req": median(_us_per_req(r, r["host_s"]) for r in plain),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        "setup_s": median(r["setup_s"] for r in plain),
        "sim_p50_us": first["sim_p50_us"],
        "sim_p99_us": first["sim_p99_us"],
        "sim_kiops": first["sim_kiops"],
    }


def per_layer(reps: list[dict]) -> dict[str, float]:
    """The per-layer metrics from a traced run's four kinds of repetition.

    Counts, stage means and probe timers come from ``probed``
    repetitions, self time from ``profiled`` ones, and the tracer's
    overhead from ``traced`` against ``untraced`` ones, neither probed.
    """
    probed, profiled = _of(reps, "probed"), _of(reps, "profiled")
    t = probed[0]
    n = t["ios"]
    c = t["probes"]
    out = {
        "sim.events_per_req": t["events"] / n,
        "sim.processes_per_req": c["sim.processes"] / n,
    }
    for layer in LAYERS:
        out[f"{layer}.self_us_per_req"] = median(
            _us_per_req(r, r["self_s"][layer]) for r in profiled
        )
    for layer in LAYERS:
        out[f"{layer}.self_frac"] = median(
            r["self_s"][layer] / sum(r["self_s"].values()) for r in profiled
        )
    lookups = c["crush.lookups"]
    out.update({
        "api.submits_per_req": c["api.submits"] / n,
        "blk.requests_per_bio": c["blk.requests"] / c["blk.bios"],
        "fpga.qdma_transfers_per_req": c["fpga.qdma_transfers"] / n,
        "fpga.accel_calls_per_req": c["fpga.accel_calls"] / n,
        "net.messages_per_req": c["net.messages"] / n,
        "osd.client_ops_per_req": c["osd.client_ops"] / n,
        "osd.store_writes_per_req": c["osd.store_writes"] / n,
        "osd.store_bytes_per_user_byte": t["store_bytes"] / t["bytes_written"],
        "crush.placements_per_req": c["crush.placements"] / n,
        "crush.placement_hit_ratio": 1 - c["crush.placements"] / lookups if lookups else 0.0,
        "crush.host_us_per_req": median(_scaled_us_per_req(r, "crush.host_s") for r in probed),
        "ec.encodes_per_req": c["ec.encodes"] / n,
        "ec.host_us_per_req": median(_scaled_us_per_req(r, "ec.host_s") for r in probed),
        "obs.spans_per_req": t["spans"] / n,
    })
    out.update({f"stage.{stage}_us": t["stages_us"][stage] for stage in STAGES})
    out["trace.overhead_ratio"] = median(r["host_s"] for r in _of(reps, "traced")) / median(
        r["host_s"] for r in _of(reps, "untraced")
    )
    return out
