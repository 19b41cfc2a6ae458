"""Run registry: lifecycle round-trips, crash tolerance, `repro runs`.

The registry is operational state, so its failure philosophy inverts
the tracer's: a torn line (a run killed mid-append) must be *skipped*
on load — one crashed run can never brick the run listing for every
run that came after it.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ObsError
from repro.obs import REGISTRY_BASENAME, RunRecord, RunRegistry, host_metadata


def test_register_finalize_round_trip(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.register(
        "demo-abc123", name="demo", kind="sweep",
        spec_digest="deadbeef", trace_path=tmp_path / "demo-abc123.jsonl",
        started_at=100.0,
    )
    running = registry.get("demo-abc123")
    assert running.status == "running"
    assert running.kind == "sweep"
    assert running.host["python"]

    registry.finalize(
        "demo-abc123", "ok", wall_s=2.5,
        metrics={"n_points": 9, "n_failed": 0}, ended_at=102.5,
    )
    done = registry.get("demo-abc123")
    assert done.status == "ok"
    assert done.wall_s == 2.5
    assert done.metrics["n_points"] == 9
    # Identity and host carry forward: the latest line is self-contained.
    assert done.name == "demo"
    assert done.spec_digest == "deadbeef"
    assert done.host == running.host
    assert done.trace_path == str(tmp_path / "demo-abc123.jsonl")

    # Two lines on disk, last record per run id wins.
    lines = (tmp_path / REGISTRY_BASENAME).read_text().splitlines()
    assert len(lines) == 2
    assert RunRecord.from_dict(json.loads(lines[-1])) == done


def test_failed_run_records_error(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.register("bad-run", name="bad")
    registry.finalize("bad-run", "failed", error="ValueError: boom")
    record = registry.get("bad-run")
    assert record.status == "failed"
    assert record.error == "ValueError: boom"


def test_torn_lines_are_skipped_not_fatal(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.register("good-run", name="good", started_at=1.0)
    with open(registry.path, "a", encoding="utf-8") as handle:
        handle.write('{"run_id": "torn-run", "status": "run')  # killed mid-append
        handle.write("\n")
        handle.write("not json at all\n")
        handle.write('{"status": "ok"}\n')  # no run_id
    runs = registry.load()
    assert set(runs) == {"good-run"}
    side = registry.path.with_name(REGISTRY_BASENAME + ".quarantine")
    assert side.read_text(encoding="utf-8").splitlines() == [
        '{"run_id": "torn-run", "status": "run',
        "not json at all",
        '{"status": "ok"}',
    ]


def test_register_after_torn_tail_lands_intact(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.register("good-run", started_at=1.0)
    with open(registry.path, "a", encoding="utf-8") as handle:
        handle.write('{"run_id": "torn-run", "status": "run')  # no newline
    registry.register("next-run", started_at=2.0)
    assert set(registry.load()) == {"good-run", "next-run"}


def test_runs_filtering_and_latest(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.register("sweep-aaa", name="volt-sweep", kind="sweep",
                      started_at=10.0)
    registry.finalize("sweep-aaa", "ok", wall_s=1.0)
    registry.register("cohort-bbb", name="pilot-cohort", kind="cohort",
                      started_at=20.0)
    registry.finalize("cohort-bbb", "failed", error="boom")
    registry.register("cohort-ccc", name="pilot-cohort", kind="cohort",
                      started_at=30.0)

    assert [r.run_id for r in registry.runs()] == [
        "cohort-ccc", "cohort-bbb", "sweep-aaa",
    ]
    assert [r.run_id for r in registry.runs(kind="cohort")] == [
        "cohort-ccc", "cohort-bbb",
    ]
    assert [r.run_id for r in registry.runs(status="failed")] == [
        "cohort-bbb",
    ]
    assert [r.run_id for r in registry.runs(name="volt")] == ["sweep-aaa"]
    assert [r.run_id for r in registry.runs(limit=1)] == ["cohort-ccc"]
    assert registry.latest().run_id == "cohort-ccc"
    assert registry.latest(status="ok").run_id == "sweep-aaa"
    with pytest.raises(ObsError, match="unknown run status"):
        registry.runs(status="done")


def test_empty_and_invalid_registrations_rejected(tmp_path):
    registry = RunRegistry(tmp_path)
    with pytest.raises(ObsError, match="non-empty"):
        registry.register("")
    with pytest.raises(ObsError, match="'ok', 'failed' or 'interrupted'"):
        registry.finalize("whatever", "running")


def test_finalize_without_register_still_lands(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.finalize("orphan-run", "ok", wall_s=3.0)
    record = registry.get("orphan-run")
    assert record.status == "ok"
    assert record.wall_s == 3.0


def _dead_pid() -> int:
    """The pid of a child that provably no longer exists (reaped)."""
    import subprocess
    import sys

    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def _set_pid(registry: RunRegistry, run_id: str, pid) -> None:
    """Rewrite one run's registered pid in place (crash simulation)."""
    lines = [
        json.loads(line)
        for line in registry.path.read_text().splitlines()
    ]
    for record in lines:
        if record["run_id"] == run_id:
            record["pid"] = pid
    registry.path.write_text(
        "".join(json.dumps(record) + "\n" for record in lines)
    )


def test_stale_detection_needs_dead_owner_on_this_host(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.register("live-run", started_at=1.0)
    # This process registered it and is plainly alive.
    assert not registry.get("live-run").is_stale()
    assert registry.get("live-run").effective_status() == "running"

    registry.register("crashed-run", started_at=2.0)
    _set_pid(registry, "crashed-run", _dead_pid())
    record = registry.get("crashed-run")
    assert record.is_stale()
    assert record.effective_status() == "stale"

    # Terminal records are never stale, whatever their pid says.
    registry.register("done-run", started_at=3.0)
    _set_pid(registry, "done-run", _dead_pid())
    registry.finalize("done-run", "ok", wall_s=1.0)
    assert not registry.get("done-run").is_stale()

    # Records without a pid (pre-1.6 writers) are assumed live.
    _set_pid(registry, "live-run", None)
    assert not registry.get("live-run").is_stale()


def test_stale_is_undecidable_across_hosts(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.register("remote-run", started_at=1.0)
    _set_pid(registry, "remote-run", _dead_pid())
    lines = [
        json.loads(line)
        for line in registry.path.read_text().splitlines()
    ]
    lines[0]["host"]["hostname"] = "some-other-machine"
    registry.path.write_text(json.dumps(lines[0]) + "\n")
    assert not registry.get("remote-run").is_stale()


def test_runs_status_filter_separates_stale_from_running(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.register("live-run", started_at=1.0)
    registry.register("crashed-run", started_at=2.0)
    _set_pid(registry, "crashed-run", _dead_pid())
    assert [r.run_id for r in registry.runs(status="running")] == [
        "live-run",
    ]
    assert [r.run_id for r in registry.runs(status="stale")] == [
        "crashed-run",
    ]


def test_prune_stale_finalizes_as_interrupted(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.register("live-run", started_at=1.0)
    registry.register("crashed-run", started_at=2.0)
    dead = _dead_pid()
    _set_pid(registry, "crashed-run", dead)

    pruned = registry.runs(status="stale")
    assert [r.run_id for r in pruned] == ["crashed-run"]
    (record,) = registry.prune_stale()
    assert record.run_id == "crashed-run"
    assert record.status == "interrupted"
    assert f"pruned: owner pid {dead} died" in record.error

    # The live run is untouched; a second prune is a no-op.
    assert registry.get("live-run").status == "running"
    assert registry.get("crashed-run").status == "interrupted"
    assert registry.prune_stale() == []


def test_cli_runs_renders_stale_and_prunes(tmp_path, capsys):
    registry = RunRegistry(tmp_path)
    registry.register("crashed-run", name="crashy", kind="sweep",
                      started_at=2.0)
    dead = _dead_pid()
    _set_pid(registry, "crashed-run", dead)

    assert main(["runs", "--trace-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "stale" in out
    assert f"owner pid {dead} is dead" in out
    assert "--prune-stale" in out

    assert main(
        ["runs", "--trace-dir", str(tmp_path), "--status", "stale"]
    ) == 0
    assert "crashed-run" in capsys.readouterr().out

    assert main(
        ["runs", "--trace-dir", str(tmp_path), "--prune-stale"]
    ) == 0
    out = capsys.readouterr().out
    assert "pruned stale run crashed-run -> interrupted" in out
    assert registry.get("crashed-run").status == "interrupted"

    # Nothing left to prune.
    assert main(
        ["runs", "--trace-dir", str(tmp_path), "--prune-stale"]
    ) == 0
    assert "no stale runs" in capsys.readouterr().out


def test_resource_fields_round_trip(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.register("res-run", name="res", started_at=1.0)
    registry.finalize(
        "res-run", "ok", wall_s=2.0,
        peak_rss_bytes=96 * 1048576, cpu_s=3.75,
    )
    record = registry.get("res-run")
    assert record.peak_rss_bytes == 96 * 1048576
    assert record.cpu_s == 3.75
    line = json.loads(
        (tmp_path / REGISTRY_BASENAME).read_text().splitlines()[-1]
    )
    assert line["peak_rss_bytes"] == 96 * 1048576
    assert line["cpu_s"] == 3.75


def test_pre_15_records_load_with_blank_resources(tmp_path, capsys):
    # A registry line written before schema revision 1.5: no
    # peak_rss_bytes / cpu_s keys at all.  It must load as None and
    # render blank — never KeyError, never a fabricated zero.
    registry = RunRegistry(tmp_path)
    old_line = {
        "run_id": "old-run", "name": "old", "kind": "sweep",
        "status": "ok", "started_at": 5.0, "ended_at": 6.0,
        "wall_s": 1.0, "trace_path": "", "host": {}, "metrics": {},
    }
    registry.root.mkdir(parents=True, exist_ok=True)
    registry.path.write_text(json.dumps(old_line) + "\n", encoding="utf-8")

    record = registry.get("old-run")
    assert record.peak_rss_bytes is None
    assert record.cpu_s is None
    # An unknowing round trip does not invent the missing keys.
    assert "peak_rss_bytes" not in record.to_dict()
    assert "cpu_s" not in record.to_dict()

    assert main(["runs", "--trace-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    (row,) = [line for line in out.splitlines() if "old-run" in line]
    assert " - " in row  # blank CPU / PEAK RSS columns


def test_cli_runs_shows_resource_columns(tmp_path, capsys):
    registry = RunRegistry(tmp_path)
    registry.register("res-run", name="res", started_at=1.0)
    registry.finalize(
        "res-run", "ok", wall_s=2.0,
        peak_rss_bytes=96 * 1048576, cpu_s=3.75,
    )
    assert main(["runs", "--trace-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "CPU" in out and "PEAK RSS" in out
    assert "3.8 s" in out
    assert "96 MB" in out


def test_host_metadata_fingerprint():
    host = host_metadata()
    assert set(host) >= {
        "python", "platform", "machine", "cpus", "repro", "hostname",
    }
    assert host["cpus"] >= 1


def test_cli_runs_lists_and_filters(tmp_path, capsys):
    registry = RunRegistry(tmp_path)
    registry.register("cohort-aaa", name="pilot", kind="cohort",
                      started_at=10.0)
    registry.finalize(
        "cohort-aaa", "ok", wall_s=1.5,
        metrics={"n_points": 4, "n_failed": 0},
    )
    registry.register("sweep-bbb", name="volts", kind="sweep",
                      started_at=20.0)

    assert main(["runs", "--trace-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "cohort-aaa" in out and "sweep-bbb" in out
    assert "ok" in out and "running" in out

    assert main(
        ["runs", "--trace-dir", str(tmp_path), "--kind", "cohort"]
    ) == 0
    out = capsys.readouterr().out
    assert "cohort-aaa" in out and "sweep-bbb" not in out

    assert main(["runs", "--trace-dir", str(tmp_path), "--latest"]) == 0
    assert capsys.readouterr().out.strip() == "sweep-bbb"


def test_cli_runs_empty_registry(tmp_path, capsys):
    assert main(["runs", "--trace-dir", str(tmp_path)]) == 0
    assert "No runs registered" in capsys.readouterr().out
    # --latest is for scripting: nothing to print is an error there.
    assert main(["runs", "--trace-dir", str(tmp_path), "--latest"]) == 1


def test_session_run_registers_and_finalizes(tmp_path):
    from repro import obs
    from repro.api.schema import Experiment, Fig2Params
    from repro.api.session import Session

    obs.set_trace_dir(tmp_path)
    experiment = Experiment(
        name="reg-fig2",
        kind="figure",
        params=Fig2Params(
            apps=("morphology",), records=("100",), duration_s=2.0
        ),
    )
    session = Session(workers=1, store_dir=tmp_path / "stores")
    handle = session.run(experiment)

    registry = RunRegistry(tmp_path)
    record = registry.get(session.run_id_for(experiment))
    assert record is not None
    assert record.status == "ok"
    assert record.kind == "figure"
    assert record.wall_s is not None and record.wall_s > 0
    assert record.metrics["n_points"] >= 1
    assert record.metrics["n_failed"] == 0
    assert record.trace_path == handle.telemetry()["trace_path"]
