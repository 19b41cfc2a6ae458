"""Sampling profiler: off-path cost, span attribution, shard contract.

Three properties carry the feature.  First, profiling that nobody asked
for must cost nothing — the PR 6 disabled-probe guard is re-pinned here
with the profiler seams in place.  Second, a profiled multi-worker run
must attribute (nearly) every kept sample to a known span path — the
whole point of span-attributed sampling.  Third, the on-disk shard
format and its readers are a contract: the committed fixture under
``data/mini_prof*`` pins ``repro profile`` output bit-for-bit.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import threading
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import cli, obs
from repro.errors import ObsError
from repro.obs import profile as prof
from repro.obs.core import _NULL_SPAN

DATA = Path(__file__).parent / "data"
FIXTURE_TRACE = DATA / "mini_prof.jsonl"


# -- the disabled path stays free ------------------------------------------


def test_profiler_not_started_without_request(tmp_path):
    assert not prof.requested()
    obs.enable(tmp_path / "t.jsonl", run_id="no-prof")
    with obs.span("work"):
        pass
    obs.disable()
    assert not prof.sampler_active()
    assert not prof.profile_dir_for(tmp_path / "t.jsonl").exists()


def test_disabled_probes_cost_microseconds_with_profiler_seams():
    # The PR 6 overhead guard, re-pinned after the profiler landed: the
    # sampler is consulted at tracer construction only, never per
    # probe, so the disabled fast path is unchanged.
    assert obs.span("a") is _NULL_SPAN
    n = 100_000
    started = time.perf_counter()
    for i in range(n):
        with obs.span("hot", index=i):
            obs.counter("hits")
            obs.resource_probe()
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"{n} disabled iterations took {elapsed:.2f}s"
    assert not obs.enabled()
    assert not prof.sampler_active()


def test_interval_env_parsing(monkeypatch):
    assert prof.sample_interval_s() == prof.DEFAULT_INTERVAL_S
    monkeypatch.setenv(prof.ENV_PROFILE_INTERVAL, "0.02")
    assert prof.sample_interval_s() == 0.02
    monkeypatch.setenv(prof.ENV_PROFILE_INTERVAL, "not-a-number")
    assert prof.sample_interval_s() == prof.DEFAULT_INTERVAL_S
    monkeypatch.setenv(prof.ENV_PROFILE_INTERVAL, "-1")
    assert prof.sample_interval_s() == prof.DEFAULT_INTERVAL_S


# -- live sampling ----------------------------------------------------------


def _busy(seconds: float) -> int:
    total = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        total += sum(range(500))
    return total


def test_enable_starts_sampler_and_disable_writes_shard(tmp_path):
    os.environ[prof.ENV_PROFILE] = "1"
    os.environ[prof.ENV_PROFILE_INTERVAL] = "0.001"
    sink = tmp_path / "t.jsonl"
    obs.enable(sink, run_id="prof-run")
    assert prof.sampler_active()
    with obs.span("crunch"):
        _busy(0.1)
    obs.disable()
    assert not prof.sampler_active()

    merged = prof.load_profile(sink)
    assert merged["trace"] == "prof-run"
    assert merged["samples"] > 0
    crunch = sum(
        count
        for (span, _stack), count in merged["folds"].items()
        if span and span[-1] == "crunch"
    )
    assert crunch > 0
    # Every stacked frame is module.qualname of real code.
    for (_span, stack), _count in merged["folds"].items():
        assert all("." in frame for frame in stack)


def test_enable_truncate_clears_stale_shards(tmp_path):
    os.environ[prof.ENV_PROFILE] = "1"
    sink = tmp_path / "t.jsonl"
    stale_dir = prof.profile_dir_for(sink)
    stale_dir.mkdir(parents=True)
    stale = stale_dir / "profile-99999.jsonl"
    stale.write_text("{}\n", encoding="utf-8")
    obs.enable(sink, run_id="re-run")
    try:
        assert not stale.exists()
    finally:
        obs.disable()


def test_sampling_does_not_pin_sampled_frames(tmp_path):
    # Without cyclic GC, a local of a sampled frame must die with its
    # function: the sample may not keep the frame alive.
    class Payload:
        pass

    refs = []
    ready = threading.Event()
    release = threading.Event()

    def work():
        payload = Payload()
        refs.append(weakref.ref(payload))
        ready.set()
        release.wait(timeout=10)

    worker = threading.Thread(target=work)
    gc.disable()
    try:
        worker.start()
        assert ready.wait(timeout=10)
        tracer = SimpleNamespace(
            open_span_paths=lambda: {worker.ident: ("work",)}
        )
        sampler = prof.Sampler(tracer, tmp_path / "p.jsonl", 1.0)
        sampler._sample_once(None, threading.get_ident())
        release.set()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert sampler.samples == 1
        assert refs[0]() is None
    finally:
        release.set()
        gc.enable()


def _profiled_worker(index: int) -> int:
    # Workers never call enable(); the fork-rebound tracer starts the
    # worker's own sampler because REPRO_PROFILE rode the environment.
    with obs.span("unit", index=index):
        return _busy(0.3)


def test_four_worker_pool_attributes_samples_to_spans(tmp_path):
    os.environ[prof.ENV_PROFILE] = "1"
    os.environ[prof.ENV_PROFILE_INTERVAL] = "0.002"
    sink = tmp_path / "pool.jsonl"
    obs.enable(sink, run_id="pool-prof", name="pool")
    with obs.span("owner") as owner:
        with obs.worker_parent(owner.span_id):
            pool = multiprocessing.Pool(processes=4)
        pool.map(_profiled_worker, range(8))
        # close + join (not terminate) so each worker's atexit writes
        # its final shard even when it lived under the 1 s rewrite.
        pool.close()
        pool.join()
    obs.disable()

    merged = prof.load_profile(sink)
    # Owner shard plus at least one worker shard made it to disk.
    pids = {header["pid"] for header in merged["shards"]}
    assert os.getpid() in pids
    assert len(pids) >= 2

    known = {("owner",), ("owner", "unit"), ("unit",)}
    attributed = sum(
        count
        for (span, _stack), count in merged["folds"].items()
        if tuple(span) in known
    )
    assert merged["samples"] > 20
    # The acceptance bar: >= 90% of kept samples attribute to known
    # span paths (idle helper threads were skipped, not stacked).
    assert attributed >= 0.9 * merged["samples"]


# -- shard reading ----------------------------------------------------------


def test_load_profile_without_shards_is_an_error(tmp_path):
    sink = tmp_path / "t.jsonl"
    sink.write_text("", encoding="utf-8")
    with pytest.raises(ObsError, match="no profile shards"):
        prof.load_profile(sink)


@pytest.mark.parametrize(
    "lines",
    [
        [],
        ["not json"],
        ['{"profile": "v0", "pid": 1}'],
        ['{"profile": "v1", "pid": "one"}'],
        ['{"profile": "v1", "pid": 1}', '{"span": [], "stack": []}'],
        ['{"profile": "v1", "pid": 1}', '{"span": [], "stack": [], "n": 0}'],
    ],
)
def test_malformed_shard_is_a_hard_error(tmp_path, lines):
    shard = tmp_path / "profile-1.jsonl"
    shard.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(ObsError):
        prof.load_shard(shard)


def test_fixture_merges_across_processes():
    merged = prof.load_profile(FIXTURE_TRACE)
    assert merged["trace"] == "mini-prof"
    assert merged["samples"] == 18
    assert merged["skipped"] == 2
    assert len(merged["shards"]) == 2
    assert merged["interval_s"] == 0.005
    assert sum(merged["folds"].values()) == 18


def test_hot_by_span_folds_leaf_frames():
    merged = prof.load_profile(FIXTURE_TRACE)
    folded = prof.hot_by_span(merged)
    assert folded[("point",)] == {
        "repro.apps.dwt.run": 7,
        "repro.campaign.runner._evaluate_payload": 1,
    }
    assert folded[("session.run",)] == {
        "repro.campaign.runner.run_campaign": 6,
    }


def test_render_hot_section_orders_by_weight():
    merged = prof.load_profile(FIXTURE_TRACE)
    text = prof.render_hot_section(merged, top=1)
    lines = text.splitlines()
    assert lines[0] == (
        "Sampling profile: 18 samples · interval 5.0 ms · "
        "2 process(es) · 2 idle-thread samples skipped"
    )
    # Heaviest span path first; top=1 keeps one function per path.
    assert len(lines) == 7  # header + 3 span paths x (label + 1 function)
    assert lines[1].startswith("  point — 8 samples (44.4%")
    assert lines[2].strip().endswith("repro.apps.dwt.run")
    assert lines[3].startswith("  session.run — 6 samples")
    assert lines[5].startswith("  session.run > campaign — 4 samples")


def test_speedscope_document_shape():
    merged = prof.load_profile(FIXTURE_TRACE)
    doc = prof.speedscope_document(merged)
    assert doc["$schema"].endswith("file-format-schema.json")
    names = [frame["name"] for frame in doc["shared"]["frames"]]
    assert len(names) == len(set(names))
    assert "span:session.run" in names
    (sampled,) = doc["profiles"]
    assert sampled["type"] == "sampled"
    assert len(sampled["samples"]) == len(sampled["weights"]) == 4
    assert sampled["endValue"] == pytest.approx(18 * 0.005)
    for stack in sampled["samples"]:
        assert all(0 <= index < len(names) for index in stack)


# -- the CLI contract -------------------------------------------------------


def test_cli_profile_collapsed_output_is_golden(tmp_path, capsys):
    code = cli.main(
        ["profile", str(FIXTURE_TRACE), "--trace-dir", str(tmp_path)]
    )
    assert code == 0
    golden = (DATA / "mini_prof.collapsed.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_cli_profile_flamegraph_writes_speedscope(tmp_path, capsys):
    out = tmp_path / "flame.json"
    code = cli.main(
        [
            "profile", str(FIXTURE_TRACE),
            "--flamegraph", str(out),
            "--trace-dir", str(tmp_path),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["profiles"][0]["type"] == "sampled"
    assert str(out) in capsys.readouterr().out


def test_cli_global_profile_flag_arms_environment(tmp_path, capsys):
    # --profile implies tracing: the overheads command runs traced and
    # profiled without an explicit --trace.
    code = cli.main(
        ["--trace", str(tmp_path), "--profile", "overheads"]
    )
    assert code == 0
    assert os.environ.get(prof.ENV_PROFILE) == "1"
