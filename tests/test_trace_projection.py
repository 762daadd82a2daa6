"""The flat six-stage view is a projection of the causal span trees.

``tests/golden/flat-view.json`` pins, per grid case, the sha256 of the
tracer's Chrome trace JSON, its CSV export and its ``summary()``.  The
digests were recorded while the flat stage stream was still kept as a
second, separate record of every stage interval; the projection must
reproduce that stream byte-for-byte.

Re-record (only for an intentional modelling change) with::

    PYTHONPATH=src python -m tests.test_trace_projection --update
"""

import dataclasses
import hashlib
import json
import pathlib
import sys
import tempfile

import pytest

from repro.blk import BlkMqConfig
from repro.deliba import FRAMEWORKS, PoolSpec, build_framework
from repro.units import kib, mib, ms
from repro.workloads import FioJob

FIXTURE = pathlib.Path(__file__).parent / "golden" / "flat-view.json"


def _merging(name: str, per_core_mapping: bool = True):
    # One ring, so consecutive sequential bios share a plug list.
    return dataclasses.replace(
        FRAMEWORKS[name],
        uring_instances=1,
        blk=BlkMqConfig(merge_enabled=True, per_core_mapping=per_core_mapping),
    )


def _fio(fw, *jobs, until=None):
    def body():
        for job in jobs:
            yield from fw.run_fio(job)

    fw.env.process(body())
    fw.env.run(until=until)
    return fw


def _grid_run(framework, rw, iodepth=4, nrequests=24, pool="replicated"):
    pool_spec = PoolSpec(kind="erasure") if pool == "erasure" else None
    fw = build_framework(
        FRAMEWORKS[framework], pool_spec=pool_spec, seed=3, trace=True,
        object_size=kib(4) if pool == "erasure" else None,
    )
    return _fio(fw, FioJob("pin", rw, bs=kib(4), iodepth=iodepth, nrequests=nrequests))


def _tenant_run():
    # A tagged job followed by an untagged one: per-tenant lanes and the
    # base stage lanes both appear in the export.
    fw = build_framework(FRAMEWORKS["delibak"], seed=3, trace=True)
    return _fio(
        fw,
        FioJob("gold", "randwrite", bs=kib(4), iodepth=4, nrequests=16, tenant="gold"),
        FioJob("anon", "randread", bs=kib(4), iodepth=4, nrequests=16),
    )


def _chaos_run():
    # Lossy fabric, cut off mid-run: some requests never reach complete.
    from repro.bench.chaos import _chaos_cluster_spec
    from repro.osd import FaultInjector

    cfg = FRAMEWORKS["delibak"]
    fw = build_framework(
        cfg, pool_spec=PoolSpec(kind="replicated", size=3), seed=7, trace=True,
        cluster_spec=_chaos_cluster_spec(7, cfg.client_stack),
    )
    FaultInjector(fw.cluster).set_message_faults(drop_p=0.05, duplicate_p=0.01, corrupt_p=0.01)
    job = FioJob("chaos", "randrw", bs=kib(4), iodepth=8, nrequests=40, size=mib(32))
    return _fio(fw, job, until=ms(29))


def _merge_run(cfg):
    fw = build_framework(cfg, seed=3, trace=True)
    fw = _fio(fw, FioJob("seq", "write", bs=kib(4), iodepth=8, nrequests=32))
    assert fw.blk.merges > 0
    return fw


CASES = {
    **{
        f"{name}-{rw}-qd4": (lambda name=name, rw=rw: _grid_run(name, rw))
        for name in ("delibak", "deliba2", "deliba1", "software-ceph")
        for rw in ("randwrite", "randrw")
    },
    "delibak-ec-randwrite-qd4": lambda: _grid_run("delibak", "randwrite", pool="erasure"),
    "delibak-tenant": _tenant_run,
    "delibak-chaos-incomplete": _chaos_run,
    "delibak-merge-write": lambda: _merge_run(_merging("delibak")),
    "delibak-merge-write-rr": lambda: _merge_run(_merging("delibak", per_core_mapping=False)),
}


def _sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def flat_view_digests(fw) -> dict:
    """sha256 of the Chrome trace JSON, the CSV export and the summary."""
    tracer = fw.tracer
    with tempfile.TemporaryDirectory() as tmp:
        csv_text = tracer.export_csv(pathlib.Path(tmp) / "spans.csv").read_bytes()
    return {
        "chrome": _sha(json.dumps(tracer.to_chrome_trace())),
        "csv": _sha(csv_text),
        "summary": _sha(json.dumps(tracer.summary())),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_flat_view_matches_pinned_fixture(case):
    pinned = json.loads(FIXTURE.read_text())
    assert flat_view_digests(CASES[case]()) == pinned[case]


def test_software_uifd_path_reports_fabric_stage():
    """The software UIFD path grows a ``fabric`` child like the hardware
    one, so the projected view covers its network + OSD time too."""
    fw = _grid_run("delibak-sw", "randwrite")
    summary = fw.tracer.summary()
    assert summary["fabric"] > 0.5 * sum(summary.values())
    assert {span.name for _rid, span in fw.tracer.iter_spans()} >= {"rings", "fabric", "complete"}


def test_chaos_case_leaves_incomplete_requests():
    assert CASES["delibak-chaos-incomplete"]().tracer.summary().get("incomplete", 0) > 0


if __name__ == "__main__" and sys.argv[1:] == ["--update"]:
    FIXTURE.write_text(
        json.dumps({case: flat_view_digests(CASES[case]()) for case in sorted(CASES)}, indent=1)
        + "\n"
    )
    print(f"wrote {FIXTURE}")
