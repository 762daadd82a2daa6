"""Tests of the benchmark itself: metric names, tiny runs, the oracle and the CLI contract.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.measure import IDENTITY, MODES, measure
from perfbench.metrics import END_TO_END, PER_LAYER, end_to_end, per_layer
from perfbench.workloads import (
    BS,
    IODEPTH,
    WORKLOADS,
    build,
    make_inputs,
    read_back,
    run_process,
)
from repro.blk import IoOp
from repro.obs.context import CausalTracer

ROOT = Path(__file__).resolve().parents[2]

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY = 40


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = _spec()
    for metric in [*END_TO_END, *PER_LAYER]:
        assert NAME.fullmatch(metric), metric
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_inputs_follow_the_seed():
    w = WORKLOADS["rep-4k-randrw"]
    a, b, c = make_inputs(w, 1, TINY), make_inputs(w, 1, TINY), make_inputs(w, 2, TINY)
    assert [(x.op, x.sector, x.data) for x in a.bios] == [(x.op, x.sector, x.data) for x in b.bios]
    assert [x.sector for x in a.bios] != [x.sector for x in c.bios]
    payloads = [x.data for x in a.bios if x.op == IoOp.WRITE]
    assert len(set(payloads)) == len(payloads)
    assert a.prefill_offsets == sorted({x.offset for x in a.bios if x.op == IoOp.READ})


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_has_no_failures(name):
    rep = measure(name, seed=3, nrequests=TINY)
    assert rep["ios"] == TINY
    assert rep["errors"] == 0 and rep["bad_blocks"] == 0  # failed_frac == 0
    assert rep["events"] > 0 and rep["sim_p50_us"] > 0


def test_every_mode_simulates_the_same_and_a_traced_run_gives_every_metric():
    reps = [measure("ec-4k-randwrite", seed=3, mode=m, nrequests=TINY) for m in MODES]
    assert len({tuple(r[k] for k in IDENTITY) for r in reps}) == 1
    layers = per_layer(reps)
    assert set(layers) == set(PER_LAYER)
    assert layers["ec.encodes_per_req"] == 1
    assert layers["net.messages_per_req"] > 0 and layers["crush.self_frac"] > 0
    assert set(end_to_end(reps)) == set(END_TO_END)


def test_untraced_build_drops_the_causal_tracer_without_changing_the_simulation():
    w = WORKLOADS["rep-4k-randread-obs"]
    assert isinstance(build(w).tracer, CausalTracer)
    assert isinstance(build(w, trace=True).tracer, CausalTracer)
    assert build(w, trace=False).tracer is None
    assert build(WORKLOADS["rep-4k-randrw"], trace=True).tracer is not None
    reps = [measure(w.name, seed=3, mode=m, nrequests=TINY) for m in ("untraced", "traced")]
    assert len({tuple(r[k] for k in IDENTITY) for r in reps}) == 1


@pytest.mark.parametrize("written", [True, False], ids=["written", "prefill-only"])
def test_oracle_flags_a_block_overwritten_on_every_replica(written):
    fw = build(WORKLOADS["rep-4k-randrw"])
    inputs = make_inputs(WORKLOADS["rep-4k-randrw"], 5, TINY)
    run_process(fw, fw.prefill(inputs.prefill_offsets, BS), "prefill")
    run_process(fw, fw.engine.run(inputs.bios, IODEPTH), "window")
    assert read_back(fw, inputs) == []

    writes = {b.offset for b in inputs.bios if b.op == IoOp.WRITE}
    victim = min(writes) if written else min(set(inputs.prefill_offsets) - writes)
    name = fw.image.object_name(victim // fw.image.object_size)
    holders = [d for d in fw.cluster.daemons.values() if name in d.store]
    assert len(holders) == WORKLOADS["rep-4k-randrw"].pool.size
    for daemon in holders:
        daemon.store.write(name, victim % fw.image.object_size, b"\x00" * BS)
    assert read_back(fw, inputs) == [victim]


def test_cli_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rep-4k-randrw", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_cli_prints_every_metric_with_its_unit():
    name = "rep-4k-randread-obs"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == WORKLOADS[name].nrequests
    assert {m: v["unit"] for m, v in result["metrics"].items()} == END_TO_END
    for metric, unit in [*END_TO_END.items(), ("failed_frac", "ratio")]:
        assert any(line.split()[:1] == [metric] and unit in line.split() for line in lines), metric
