"""Golden-trace determinism harness.

The hot-path optimizations (placement cache, batched uring submit/reap,
vectorized EC, event pooling) are only admissible if they change *no
simulated event*.  These tests lock that down two ways:

* recorded goldens — digests of the fig6 experiment table, a chaos
  crash-replica run, the QoS battery, and the cache, power-loss,
  crashsim, health, recovery, and profiling smoke reports, committed
  under ``tests/golden/``; any divergence fails here (the crashsim and
  health digests are checked where their tests already run the smoke);
  and
* same-process double runs — the same scenario executed twice in one
  interpreter must produce identical digests (catches leaked state in
  caches, pools, and module-level counters).

If a digest changes *intentionally* (a modeling change, not an
optimization), re-record with ``python -m repro golden --update`` and
say so in the commit message.
"""

import pytest

from repro.bench import golden
from repro.bench.chaos import SCENARIOS, run_chaos_scenario
from repro.bench.qosbench import BATTERY, run_qos_scenario
from repro.units import ms


def test_golden_files_exist():
    for key in golden.CANONICAL_RUNS:
        assert golden.read_golden(key), f"missing golden for {key!r}"


def test_chaos_smoke_digest_matches_golden():
    assert golden.chaos_smoke_digest() == golden.read_golden("chaos-smoke")


def test_fig6_digest_matches_golden():
    assert golden.fig6_digest() == golden.read_golden("fig6")


@pytest.mark.parametrize(
    "name", ["cache-smoke", "power-loss-smoke", "recover-smoke", "profile-smoke"]
)
def test_smoke_digest_matches_golden(name):
    _fname, digest_fn = golden.CANONICAL_RUNS[name]
    assert digest_fn() == golden.read_golden(name)


def test_chaos_double_run_same_process_is_deterministic():
    """Two runs in one interpreter: pooled events, memoized placements,
    and per-layer request ids must not leak between runs."""
    first = golden.chaos_smoke_digest()
    second = golden.chaos_smoke_digest()
    assert first == second


def test_chaos_digest_depends_on_seed():
    """Sanity check that the digest actually captures run content (a
    constant digest would make the goldens vacuous)."""
    scenario = SCENARIOS[1]
    base = run_chaos_scenario(
        scenario, seed=golden.CHAOS_SEED, nrequests=golden.CHAOS_NREQUESTS
    ).digest
    other = run_chaos_scenario(
        scenario, seed=golden.CHAOS_SEED + 1, nrequests=golden.CHAOS_NREQUESTS
    ).digest
    assert base != other


def test_check_reports_all_canonical_runs():
    ok, lines = golden.check()
    assert ok, "\n".join(lines)
    assert len(lines) == len(golden.CANONICAL_RUNS)


def _qos_battery_digest(qos: bool) -> str:
    return run_qos_scenario(
        BATTERY, seed=3, duration_ns=ms(12), warmup_ns=ms(4), qos=qos
    ).digest


def test_qos_bench_double_run_is_deterministic():
    """Two same-seed QoS battery runs in one interpreter must agree:
    tag clocks, wake timers, and tracker state live per-run — and match
    the recorded golden."""
    first = _qos_battery_digest(qos=True)
    assert first == _qos_battery_digest(qos=True)
    assert first == golden.read_golden("qos-battery")


def test_qos_digest_captures_scheduling():
    """The digest must see the scheduler: the same load with QoS off
    dispatches in different order and phases, so digests differ."""
    assert _qos_battery_digest(qos=True) != _qos_battery_digest(qos=False)


def test_goldens_unchanged_with_qos_merged():
    """Golden neutrality: with QoS left disabled, the canonical runs —
    which exercise the full datapath the tenant tagging threads through
    (bio -> blk-mq -> driver -> RADOS ops) — still match the digests
    recorded before the QoS subsystem existed."""
    assert golden.chaos_smoke_digest() == golden.read_golden("chaos-smoke")
    assert golden.fig6_digest() == golden.read_golden("fig6")
