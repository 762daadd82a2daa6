"""Crash-point explorer (repro.bench.crashsim): invariants, determinism,
and the CI report artifact."""

import json

from repro.bench import golden
from repro.bench.crashsim import (
    crashsim_smoke,
    harvest_crash_points,
    run_crash_point,
    run_crashsim,
)


def test_harvest_finds_ordering_events():
    points, candidates, victim = harvest_crash_points(0, "replicated", 8)
    assert candidates > 8  # plenty of append/barrier/apply edges
    assert len(points) == 8  # evenly subsampled to the cap
    assert points == sorted(points)
    assert victim in range(6)


def test_single_crash_point_holds_invariants():
    points, _, victim = harvest_crash_points(0, "replicated", 4)
    result = run_crash_point(0, "replicated", victim, points[1])
    assert result.violations == []
    assert result.acked + result.unacked == 12  # 6 objects x 2 rounds
    assert result.records_replayed >= 0


def test_matrix_is_deterministic():
    first = run_crashsim("replicated", seed=0, max_points=3)
    second = run_crashsim("replicated", seed=0, max_points=3)
    assert first.digest == second.digest
    assert first.violations == []


def test_ec_pool_matrix_clean():
    stats = run_crashsim("ec", seed=0, max_points=3)
    assert stats.violations == []
    assert stats.explored_points == 3


def test_smoke_passes_and_writes_report(tmp_path):
    report_path = tmp_path / "crashsim.json"
    code, report = crashsim_smoke(
        seed=0, max_points=2, pool="replicated", report_path=str(report_path)
    )
    assert code == 0, report
    assert "SMOKE PASS" in report
    assert golden.text_digest(report) == golden.read_golden("crashsim-smoke")
    payload = json.loads(report_path.read_text())
    assert payload["result"] == "PASS"
    assert payload["determinism"] == "PASS"
    assert payload["pools"]["replicated"]["violations"] == []
    assert payload["pools"]["replicated"]["explored_points"] == 2
