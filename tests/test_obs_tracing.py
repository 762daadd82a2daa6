"""End-to-end causal tracing: neutrality, determinism, tree fidelity.

The load-bearing guarantees:

* observability is *free*: a run with the causal tracer + resource
  sampler produces byte-identical latencies to a plain run;
* the span forest is a faithful account: every completed request has a
  complete tree whose duration equals the measured latency, and the
  critical-path partition of every tree is exact;
* exports are a pure function of the seed (double-run determinism).
"""

import json

import pytest

from repro.deliba import FRAMEWORKS, PoolSpec, build_framework
from repro.obs.context import CausalTracer
from repro.obs.critical_path import analyze, stragglers, verify_exact
from repro.obs.export import export_span_trees, to_perfetto
from repro.obs.sampler import ResourceSampler, install_framework_probes
from repro.units import kib, mib
from repro.workloads import FioJob


def _run(framework, rw, obs, seed=0, nrequests=12, pool_spec=None, cluster_spec=None,
         faults=False, iodepth=2, size=None):
    cfg = FRAMEWORKS[framework]
    object_size = kib(4) if pool_spec and pool_spec.kind == "erasure" else None
    fw = build_framework(
        cfg, pool_spec=pool_spec, cluster_spec=cluster_spec,
        object_size=object_size, seed=seed, obs=obs, metrics=obs,
    )
    if faults:
        from repro.osd import FaultInjector

        FaultInjector(fw.cluster).set_message_faults(
            drop_p=0.02, duplicate_p=0.01, corrupt_p=0.01
        )
    kwargs = {"size": size} if size else {}
    job = FioJob("obs-t", rw, bs=kib(4), iodepth=iodepth, nrequests=nrequests, **kwargs)
    proc = fw.env.process(fw.run_fio(job))
    if obs:
        sampler = ResourceSampler(fw.env, fw.metrics, interval_ns=20_000)
        install_framework_probes(sampler, fw)
        sampler.drive()
        assert sampler.samples_taken > 1
    else:
        fw.env.run()
    assert proc.ok
    return fw, proc.value


# --- neutrality ---------------------------------------------------------------


@pytest.mark.parametrize("framework", sorted(FRAMEWORKS))
@pytest.mark.parametrize("rw", ["randread", "randwrite"])
def test_observability_is_event_stream_neutral(framework, rw):
    """Tracer + sampler on vs fully off: identical latencies, same clock."""
    _, plain = _run(framework, rw, obs=False, seed=3)
    fw, traced = _run(framework, rw, obs=True, seed=3)
    assert traced.latencies_ns == plain.latencies_ns
    assert traced.finished_at == plain.finished_at
    assert isinstance(fw.tracer, CausalTracer)


@pytest.mark.parametrize("framework", ["delibak", "software-ceph"])
def test_client_nic_probes_installed_and_sampled(framework):
    """The client NIC series are found by the client's fabric host."""
    fw, _ = _run(framework, "randwrite", obs=True, seed=3)
    for direction in ("up", "down"):
        series = fw.metrics.timeseries(f"obs.net.client.{direction}_util")
        assert series.values and max(series.values) > 0, direction


def test_erasure_pool_neutral_and_exact():
    pool = PoolSpec(kind="erasure")
    _, plain = _run("delibak", "randwrite", obs=False, seed=5, pool_spec=pool)
    fw, traced = _run("delibak", "randwrite", obs=True, seed=5, pool_spec=PoolSpec(kind="erasure"))
    assert traced.latencies_ns == plain.latencies_ns
    roots = fw.tracer.complete_trees()
    assert len(roots) == 12
    for root in roots:
        assert verify_exact(analyze(root)) is None


# --- tree fidelity ------------------------------------------------------------


def test_tree_durations_equal_measured_latencies():
    fw, result = _run("delibak", "randwrite", obs=True, seed=0, nrequests=16, iodepth=4)
    roots = fw.tracer.complete_trees()
    assert fw.tracer.incomplete_trees() == []
    assert len(roots) == 16
    assert sorted(result.latencies_ns) == sorted(r.duration_ns for r in roots)


def test_replicated_write_fanout_has_straggler_legs():
    fw, _ = _run("delibak", "randwrite", obs=True, seed=0, nrequests=16, iodepth=4)
    reports = [r for root in fw.tracer.complete_trees() for r in stragglers(root)]
    assert reports, "replicated writes must fan out to >=2 concurrent legs"
    for report in reports:
        assert all(slack >= 0 for _, slack in report.slack)
        gating_end = report.gating.end_ns
        for sibling, slack in report.slack:
            assert gating_end - sibling.end_ns == slack


def test_chaos_run_grows_retry_legs_and_stays_neutral():
    from repro.bench.chaos import _chaos_cluster_spec

    cfg = FRAMEWORKS["delibak"]
    spec = _chaos_cluster_spec(7, cfg.client_stack)
    pool = PoolSpec(kind="replicated", size=3)
    common = dict(seed=7, nrequests=40, pool_spec=pool, faults=True,
                  iodepth=8, size=mib(32))
    _, plain = _run("delibak", "randrw", obs=False, cluster_spec=spec, **common)
    fw, traced = _run(
        "delibak", "randrw", obs=True,
        cluster_spec=_chaos_cluster_spec(7, cfg.client_stack), **common
    )
    assert traced.latencies_ns == plain.latencies_ns
    roots = fw.tracer.complete_trees()
    assert len(roots) == 40
    for root in roots:
        assert verify_exact(analyze(root)) is None
    # The lossy fabric must have forced at least one retry somewhere:
    # visible as a backoff wait or a leg with attempt > 1.
    retried = [
        s
        for root in roots
        for s in root.walk()
        if s.name == "backoff" or s.meta.get("attempt", 1) > 1
    ]
    assert retried, "no retry legs recorded under message faults"


# --- determinism --------------------------------------------------------------


def test_span_tree_export_deterministic_across_runs(tmp_path):
    fw_a, _ = _run("delibak", "randwrite", obs=True, seed=11)
    fw_b, _ = _run("delibak", "randwrite", obs=True, seed=11)
    a = export_span_trees(fw_a.tracer.roots, tmp_path / "a.json").read_text()
    b = export_span_trees(fw_b.tracer.roots, tmp_path / "b.json").read_text()
    assert a == b
    doc_a = to_perfetto(fw_a.tracer.roots, fw_a.metrics, fw_a.env.now)
    doc_b = to_perfetto(fw_b.tracer.roots, fw_b.metrics, fw_b.env.now)
    assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)
