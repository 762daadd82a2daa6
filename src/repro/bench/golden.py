"""Golden-trace determinism: digests of canonical runs.

The perf work on the hot paths (placement caching, batched uring
submit/reap, vectorized EC, sim-core tightening, analytic FIFO servers)
is only shippable if it changes **no simulated outcome**: every latency
sample, retry count, and table cell must come out byte-identical.  This
module pins that down with digests of nine canonical runs:

* ``fig6`` — the replication-mode hardware throughput grid (the paper's
  headline figure): digests the raw experiment rows across three
  framework generations, 16 workload cells each.
* ``chaos-smoke`` — the seeded crash-a-replica-mid-run scenario: digests
  the full latency stream plus every fault-path counter (the same
  fingerprint the chaos determinism check uses).
* ``cache-smoke``, ``power-loss-smoke``, ``crashsim-smoke``,
  ``health-smoke``, ``recover-smoke``, ``profile-smoke`` — the sha256 of
  each subsystem smoke's full report text.  The reports embed the
  smokes' own run fingerprints and counters, so a behaviour change under
  faults fails here even when every smoke invariant still holds.
* ``qos-battery`` — the fingerprint of the seeded three-tenant QoS
  battery (a short window of the ``qos --smoke`` battery).

The smoke parameters are kept small and match runs the tier-1 tests
already make, so pinning them costs little test time.

Recorded digests live in ``tests/golden/``; ``python -m repro golden``
re-runs the canonical runs and compares (``--update`` re-records).  The
tier-1 test ``tests/test_golden_trace.py`` runs the same check, so any
optimization that perturbs the event stream fails CI.
"""

from __future__ import annotations

import hashlib
import pathlib
from typing import Optional

#: Default location of the recorded digests (inside the test tree).
GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[3] / "tests" / "golden"

#: Canonical chaos-smoke parameters (must match the recorded digest).
CHAOS_SEED = 0
CHAOS_NREQUESTS = 80


def fig6_digest() -> str:
    """Digest of the fig6 experiment's raw rows (not the rendering).

    Hashes ``(headers, rows, notes)`` via ``repr`` so presentation-layer
    changes (column widths, table borders) cannot mask or fake an
    event-stream change: every cell is a simulated measurement.
    """
    from .experiments import exp_fig6

    res = exp_fig6()
    blob = repr((res.headers, res.rows, res.notes)).encode()
    return hashlib.sha256(blob).hexdigest()


def chaos_smoke_digest(seed: int = CHAOS_SEED, nrequests: int = CHAOS_NREQUESTS) -> str:
    """Event-level digest of the canonical crash-replica chaos run.

    Reuses :class:`~repro.bench.chaos.ChaosRunStats`' fingerprint, which
    covers the complete latency stream and all fault-path counters.
    """
    from .chaos import SCENARIOS, run_chaos_scenario

    stats = run_chaos_scenario(SCENARIOS[1], seed=seed, nrequests=nrequests)
    return stats.digest


def text_digest(text: str) -> str:
    """sha256 hex digest of a report text (the smoke-report fingerprint)."""
    return hashlib.sha256(text.encode()).hexdigest()


def cache_smoke_digest() -> str:
    """Digest of the cache smoke report (PT identity, hit curve, WB/WT)."""
    from .cachebench import cache_smoke

    return text_digest(cache_smoke(seed=0, nreq=60)[1])


def power_loss_smoke_digest() -> str:
    """Digest of the power-loss smoke report (outage, AGAIN retries, replay)."""
    from .chaos import power_loss_smoke

    return text_digest(power_loss_smoke(seed=0, nrequests=CHAOS_NREQUESTS)[1])


def crashsim_smoke_digest() -> str:
    """Digest of the crash-point explorer smoke report (replicated pool)."""
    from .crashsim import crashsim_smoke

    return text_digest(crashsim_smoke(seed=0, max_points=2, pool="replicated")[1])


def health_smoke_digest() -> str:
    """Digest of the health smoke report (neutrality, slow-op root causes)."""
    from .healthbench import health_smoke

    return text_digest(health_smoke(seed=0, nrequests=30)[1])


def qos_battery_digest() -> str:
    """Fingerprint of the seeded three-tenant QoS battery, scheduling on."""
    from ..units import ms
    from .qosbench import BATTERY, run_qos_scenario

    return run_qos_scenario(BATTERY, seed=3, duration_ns=ms(12), warmup_ns=ms(4)).digest


def recover_smoke_digest() -> str:
    """Digest of the recovery smoke report (kill + revive, both pool kinds)."""
    from .recovery import recover_smoke

    return text_digest(recover_smoke(seed=0, nobjects=12)[1])


def profile_smoke_digest() -> str:
    """Digest of the causal-profiling smoke report (four scenarios)."""
    from ..obs.profile import profile_smoke

    return text_digest(profile_smoke(seed=0, nrequests=20)[1])


#: Canonical run name -> (digest file name, digest function).
CANONICAL_RUNS = {
    "fig6": ("fig6.sha256", fig6_digest),
    "chaos-smoke": ("chaos-smoke.sha256", chaos_smoke_digest),
    "cache-smoke": ("cache-smoke.sha256", cache_smoke_digest),
    "power-loss-smoke": ("power-loss-smoke.sha256", power_loss_smoke_digest),
    "crashsim-smoke": ("crashsim-smoke.sha256", crashsim_smoke_digest),
    "health-smoke": ("health-smoke.sha256", health_smoke_digest),
    "qos-battery": ("qos-battery.sha256", qos_battery_digest),
    "recover-smoke": ("recover-smoke.sha256", recover_smoke_digest),
    "profile-smoke": ("profile-smoke.sha256", profile_smoke_digest),
}


def read_golden(name: str, directory: Optional[pathlib.Path] = None) -> Optional[str]:
    """Recorded digest for ``name`` (None when not yet recorded)."""
    directory = directory or GOLDEN_DIR
    path = directory / CANONICAL_RUNS[name][0]
    if not path.exists():
        return None
    return path.read_text().strip()


def record(directory: Optional[pathlib.Path] = None) -> dict[str, str]:
    """Run every canonical run and write its digest file."""
    directory = directory or GOLDEN_DIR
    directory.mkdir(parents=True, exist_ok=True)
    out = {}
    for name, (fname, fn) in CANONICAL_RUNS.items():
        digest = fn()
        (directory / fname).write_text(digest + "\n")
        out[name] = digest
    return out


def check(directory: Optional[pathlib.Path] = None) -> tuple[bool, list[str]]:
    """Re-run the canonical runs against the recorded digests.

    Returns ``(ok, report_lines)``; missing recordings count as failures
    (run with ``--update`` first).
    """
    directory = directory or GOLDEN_DIR
    ok = True
    lines = []
    for name, (_fname, fn) in CANONICAL_RUNS.items():
        want = read_golden(name, directory)
        got = fn()
        if want is None:
            ok = False
            lines.append(f"{name}: NOT RECORDED (got {got})")
        elif got != want:
            ok = False
            lines.append(f"{name}: MISMATCH recorded={want} got={got}")
        else:
            lines.append(f"{name}: OK ({got[:16]}...)" if len(got) > 20 else f"{name}: OK ({got})")
    return ok, lines
