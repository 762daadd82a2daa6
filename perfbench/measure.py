"""One measured repetition of a workload, in the current process.

A repetition builds a fresh stack, generates the seeded inputs and
prefills (the set-up), runs the bios through ``fw.engine.run`` (the
window), then reads every touched block back for the oracle.  Set-up
and window are timed piece by piece with :class:`clock.Stopwatch`; the
window's pieces are slices of ``SLICE_NS`` simulated nanoseconds.
The modes share that path:

- ``plain``: the workload as specified; gives the end-to-end metrics.
- ``untraced``: built with no tracer, causal tracer included.
- ``traced``: built with the flat stage tracer (or the workload's causal
  one).  Its window time over ``untraced``'s is the tracer's overhead.
- ``probed``: ``traced`` plus :class:`probes.Probes`, for the per-layer
  counts and stage means; its host time is not compared with the others.
- ``profiled``: ``plain`` with cProfile enabled around the window's
  slices only.

All modes must simulate the same thing, so each returns the identity of
its run (simulated statistics, event count and a latency digest).
"""

from __future__ import annotations

import cProfile
import hashlib
import pstats
import resource
from contextlib import nullcontext

from repro.trace import STAGES

from .clock import Stopwatch
from .probes import Probes, layer_self_seconds
from .workloads import BS, IODEPTH, WORKLOADS, build, make_inputs, read_back

#: Mode -> the tracing its stack is built with (see ``workloads.build``).
MODES = {"plain": None, "untraced": False, "traced": True, "probed": True, "profiled": None}
#: Simulated time covered by one timed slice.
SLICE_NS = 100_000
#: Fields that must be equal across every repetition of one workload and seed.
IDENTITY = ("sim_p50_us", "sim_p99_us", "sim_kiops", "events", "latency_sha256")


def latency_digest(latencies_ns: list[int]) -> str:
    """SHA-256 over the per-I/O simulated latencies, in completion order."""
    return hashlib.sha256(",".join(map(str, latencies_ns)).encode()).hexdigest()


def run_sliced(env, watch: Stopwatch, profiler: cProfile.Profile | None = None) -> None:
    """Run ``env`` until its queue drains, one timed slice at a time.

    Slice ``k`` covers simulated time ``[k, k + 1) * SLICE_NS`` from the
    start, so for one workload and seed every repetition runs the same
    events in the same slice.  Running in slices does not change which
    events run or their order.  A ``profiler`` sees the slices only, not
    the stopwatch's reference chunks.
    """
    run = env.run
    if profiler:
        def run(until: int) -> None:
            profiler.enable()
            try:
                env.run(until)
            finally:
                profiler.disable()
    while env.peek() is not None:
        watch.time(run, env.now + SLICE_NS)


def measure(
    workload_name: str, seed: int, mode: str = "plain", nrequests: int | None = None,
    verify: bool = True,
) -> dict:
    """Run one repetition and return its raw figures (see module docstring).

    ``verify`` runs the read-back oracle after the window; ``bad_blocks``
    counts the blocks it found wrong.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; know {list(MODES)}")
    workload = WORKLOADS[workload_name]
    probes = Probes() if mode == "probed" else None
    with probes.installed() if probes else nullcontext():
        setup = Stopwatch()
        fw = setup.time(build, workload, MODES[mode])
        inputs = setup.time(make_inputs, workload, seed, nrequests)
        if inputs.prefill_offsets:
            fw.env.process(fw.prefill(inputs.prefill_offsets, BS), name="perfbench.prefill")
            run_sliced(fw.env, setup)

        before = probes.snapshot() if probes else {}
        events0 = fw.env._seq  # the scheduler's running count of events scheduled
        proc = fw.env.process(fw.engine.run(inputs.bios, IODEPTH), name="perfbench.window")
        window = Stopwatch()
        profiler = cProfile.Profile() if mode == "profiled" else None
        run_sliced(fw.env, window, profiler)
        events = fw.env._seq - events0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        after = probes.snapshot() if probes else {}
        if not proc.ok:
            raise proc.value
        result = proc.value

        out = {
            "workload": workload_name,
            "seed": seed,
            "mode": mode,
            "ios": result.ios,
            "setup_s": setup.scaled(),
            "setup_wall_s": sum(setup.pieces),
            "host_s": window.scaled(),
            "host_wall_s": sum(window.pieces),
            "peak_rss_mb": peak_rss_mb,
            "errors": result.errors,
            "sim_p50_us": result.percentile_latency_us(50),
            "sim_p99_us": result.percentile_latency_us(99),
            "sim_kiops": result.kiops(),
            "events": events,
            "latency_sha256": latency_digest(result.latencies_ns),
        }
        out["beyond_p99"] = sum(1 for v in result.latencies_ns if v > out["sim_p99_us"] * 1000)
        if probes:
            out["probes"] = {k: after[k] - before[k] for k in after}
            summary = fw.tracer.summary()
            out["stages_us"] = {stage: summary.get(stage, 0.0) for stage in STAGES}
            roots = getattr(fw.tracer, "roots", ())
            out["spans"] = sum(1 for root in roots for _ in root.walk())
            out["store_bytes"] = sum(d.store.used_bytes for d in fw.cluster.daemons.values())
            out["bytes_written"] = inputs.bytes_written
        if profiler:
            out["self_s"] = layer_self_seconds(pstats.Stats(profiler))
        out["bad_blocks"] = len(read_back(fw, inputs)) if verify else 0
    return out
