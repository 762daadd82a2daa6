"""Tests for the lifecycle tracer and the command-line interface."""

import pytest

from repro.cli import main
from repro.deliba import DELIBAK, build_framework
from repro.errors import ReproError
from repro.sim import Environment
from repro.trace import STAGES, Tracer
from repro.units import kib
from repro.workloads import FioJob


# --- tracer unit tests --------------------------------------------------------


def _stage_ns(tracer, rid, stage):
    return sum(s.duration_ns for s in tracer.stage_spans()[rid] if s.name == stage)


def test_tracer_begin_end_span():
    env = Environment()
    tracer = Tracer(env)
    span = tracer.start_root("write", req_id=1).child("fabric", "net")
    env.run(until=500)
    span.finish()
    assert _stage_ns(tracer, 1, "fabric") == 500


def test_tracer_record_retrospective():
    tracer = Tracer(Environment())
    tracer.start_root("write", req_id=7).record("qdma", "dma", 100, 400)
    assert _stage_ns(tracer, 7, "qdma") == 300


def test_tracer_record_validation():
    tracer = Tracer(Environment())
    with pytest.raises(ReproError):
        tracer.start_root("write", req_id=1).record("qdma", "dma", 400, 100)


def test_tracer_summary_and_total():
    tracer = Tracer(Environment())
    first = tracer.start_root("write", req_id=1)
    first.record("fabric", "net", 0, 60_000)
    first.record("qdma", "dma", 60_000, 62_000)
    first.finish(62_000)
    tracer.start_root("write", req_id=2).record("fabric", "net", 0, 40_000)
    summary = tracer.summary()
    assert summary["fabric"] == pytest.approx(50.0)
    assert summary["qdma"] == pytest.approx(2.0)
    assert first.duration_ns == 62_000


def test_tracer_empty_summary():
    assert Tracer(Environment()).summary() == {}


def test_breakdown_table_renders():
    tracer = Tracer(Environment())
    tracer.start_root("write", req_id=1).record("fabric", "net", 0, 50_000)
    out = tracer.breakdown_table()
    assert "fabric" in out and "%" in out


def test_projection_ignores_non_stage_and_unnumbered_spans():
    tracer = Tracer(Environment())
    root = tracer.start_root("write", req_id=1)
    root.record("uifd", "driver", 0, 100)  # a layer span, not one of the six stages
    root.child("fabric", "net", start_ns=100).record("accel", "compute", 100, 200)  # nested
    tracer.start_root("recovery.pg.1.0", "recovery").record("fabric", "net", 0, 10)  # no req_id
    assert tracer.summary() == {}
    assert list(tracer.iter_spans()) == []


# --- tracer integration --------------------------------------------------------


def test_traced_framework_covers_stages():
    fw = build_framework(DELIBAK, trace=True)
    job = FioJob("t", "randwrite", bs=kib(4), iodepth=1, nrequests=10)
    proc = fw.env.process(fw.run_fio(job))
    fw.env.run()
    assert proc.ok
    summary = fw.tracer.summary()
    for stage in ("rings", "qdma", "accel", "fabric", "complete"):
        assert stage in summary, f"stage {stage} missing from {summary}"
    # Fabric (network + OSD) must dominate the 4 kB write path.
    assert summary["fabric"] > 0.5 * sum(summary.values())
    # Stage sum roughly accounts for end-to-end latency.
    assert sum(summary.values()) <= proc.value.mean_latency_us() * 1.1


def test_untraced_framework_has_no_tracer():
    fw = build_framework(DELIBAK)
    assert fw.tracer is None


def test_stage_names_canonical():
    assert STAGES == ("rings", "dmq", "qdma", "accel", "fabric", "complete")


# --- cli -------------------------------------------------------------------------


def test_cli_frameworks(capsys):
    assert main(["frameworks"]) == 0
    out = capsys.readouterr().out
    assert "delibak" in out and "rtl-fpga-tcp" in out


def test_cli_fio(capsys):
    code = main(["fio", "--framework", "delibak", "--rw", "randread",
                 "--nrequests", "20", "--iodepth", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean latency" in out and "MB/s" in out


def test_cli_fio_erasure_pool(capsys):
    code = main(["fio", "--framework", "delibak", "--rw", "randwrite",
                 "--pool", "erasure", "--nrequests", "10"])
    assert code == 0


def test_cli_experiment_power(capsys):
    assert main(["experiment", "power"]) == 0
    out = capsys.readouterr().out
    assert "195" in out


def test_cli_trace(capsys):
    assert main(["trace", "--nrequests", "10"]) == 0
    out = capsys.readouterr().out
    assert "fabric" in out


def test_cli_trace_rejects_software_framework(capsys):
    assert main(["trace", "--framework", "software-ceph"]) == 2


def test_cli_rejects_unknown_command():
    with pytest.raises(SystemExit):
        main(["nonsense"])


def test_cli_fio_prints_percentiles(capsys):
    assert main(["fio", "--nrequests", "30", "--iodepth", "2"]) == 0
    out = capsys.readouterr().out
    assert "p99" in out


def test_cli_replay(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("W 0 4096\nR 0 4096\n")
    assert main(["replay", str(trace), "--iodepth", "1"]) == 0
    out = capsys.readouterr().out
    assert "replayed 2 I/Os" in out


def test_cli_sweep(tmp_path, capsys):
    csv_path = tmp_path / "grid.csv"
    code = main(["sweep", "--frameworks", "delibak", "--rw", "randread",
                 "--bs", "4096", "--iodepth", "1", "--csv", str(csv_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "sweep" in out and csv_path.exists()
