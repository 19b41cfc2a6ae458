"""Benchmark history: append/load round trip, drift verdicts, trend CLI.

The committed ``data/bench_history_drift.jsonl`` fixture is the
load-bearing artefact: ten points per series, one series collapsing on
the last point.  ``render_trend`` over it must reproduce the committed
expected text *bit-identically* — drift verdicts are pure arithmetic,
so any diff means the detector or its formatting changed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro import cli
from repro.obs import bench
from repro.obs.events import metric_event

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "bench_history_drift.jsonl"
EXPECTED = DATA / "bench_history_drift.expected.txt"


def _gauge(name: str, value: float, t: float = 1.0) -> dict:
    return metric_event(
        trace="bench-x", name=name, kind="gauge", value=value,
        t=t, pid=1, attrs={"cpus": 8},
    )


# -- append / load ----------------------------------------------------------


def test_append_and_load_round_trip(tmp_path):
    history = tmp_path / "hist.jsonl"
    events = [
        _gauge("cold_s", 1.5),
        _gauge("speedup", 3.0),
        # Non-gauge events are not history material.
        metric_event(
            trace="bench-x", name="ticks", kind="counter", value=9.0,
            t=1.0, pid=1,
        ),
    ]
    out = bench.append_history(events, path=history, revision="abc123")
    assert out == history
    loaded = bench.load_history(history)
    assert [event["name"] for event in loaded] == ["cold_s", "speedup"]
    # Every appended line carries the revision stamp in its attrs.
    assert {event["attrs"]["git"] for event in loaded} == {"abc123"}
    # The original host fingerprint attrs survive alongside.
    assert loaded[0]["attrs"]["cpus"] == 8
    # Appends accumulate — the history is a trajectory, not a snapshot.
    bench.append_history([_gauge("cold_s", 1.6)], path=history, revision="d")
    assert len(bench.load_history(history)) == 3


def test_append_refuses_malformed_events(tmp_path):
    history = tmp_path / "hist.jsonl"
    bad = _gauge("cold_s", 1.5)
    bad["value"] = "fast"
    with pytest.raises(ValueError, match="malformed history event"):
        bench.append_history([bad], path=history, revision="abc")
    assert not history.exists()


def test_load_skips_torn_and_alien_lines(tmp_path):
    history = tmp_path / "hist.jsonl"
    good = json.dumps(_gauge("cold_s", 1.5))
    history.write_text(
        good + "\n" + '{"event": "metric", "kind"' + "\n" + "[1, 2]\n",
        encoding="utf-8",
    )
    loaded = bench.load_history(history)
    assert [event["name"] for event in loaded] == ["cold_s"]


def test_append_after_torn_tail_lands_intact(tmp_path):
    history = tmp_path / "hist.jsonl"
    bench.append_history([_gauge("cold_s", 1.5)], path=history, revision="a")
    with history.open("a", encoding="utf-8") as handle:
        handle.write('{"event": "metric", "kind"')  # no newline
    bench.append_history([_gauge("cold_s", 1.6)], path=history, revision="b")
    loaded = bench.load_history(history)
    assert [event["value"] for event in loaded] == [1.5, 1.6]


def test_missing_history_is_empty(tmp_path):
    assert bench.load_history(tmp_path / "nope.jsonl") == []


def test_default_history_path_env_override(monkeypatch, tmp_path):
    monkeypatch.delenv(bench.ENV_HISTORY, raising=False)
    assert bench.default_history_path() == (
        Path("benchmarks") / "results" / "bench_history.jsonl"
    )
    monkeypatch.setenv(bench.ENV_HISTORY, str(tmp_path / "h.jsonl"))
    assert bench.default_history_path() == tmp_path / "h.jsonl"


# -- drift arithmetic -------------------------------------------------------


def test_detect_drift_needs_window_plus_one_points():
    assert bench.detect_drift([1.0] * 5, window=5) is None
    verdict = bench.detect_drift([1.0] * 6, window=5)
    assert verdict == {
        "latest": 1.0, "median": 1.0, "delta": 0.0, "drift": False,
    }


def test_detect_drift_flags_both_directions():
    base = [2.0, 2.1, 1.9, 2.0, 2.0]
    slow = bench.detect_drift(base + [2.6])
    assert slow["drift"] and slow["delta"] == pytest.approx(0.3)
    # A sudden "improvement" is drift too (usually a broken benchmark).
    fast = bench.detect_drift(base + [1.4])
    assert fast["drift"] and fast["delta"] == pytest.approx(-0.3)
    steady = bench.detect_drift(base + [2.2])
    assert not steady["drift"]


def test_detect_drift_judges_latest_against_rolling_median():
    # Only the window points immediately before the latest matter; the
    # early outlier has rolled out of the window.
    values = [100.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    verdict = bench.detect_drift(values, window=5)
    assert verdict["median"] == 1.0
    assert not verdict["drift"]


def test_detect_drift_zero_baseline():
    verdict = bench.detect_drift([0.0] * 6)
    assert verdict == {
        "latest": 0.0, "median": 0.0, "delta": 0.0, "drift": False,
    }
    jumped = bench.detect_drift([0.0] * 5 + [0.1])
    assert math.isinf(jumped["delta"]) and jumped["drift"]


def test_detect_drift_rejects_bad_window():
    with pytest.raises(ValueError, match="window"):
        bench.detect_drift([1.0], window=0)


def test_sparkline():
    assert bench.sparkline([]) == ""
    assert bench.sparkline([3.0, 3.0, 3.0]) == "▄▄▄"
    line = bench.sparkline([0.0, 1.0, 2.0, 3.0])
    assert line[0] == "▁" and line[-1] == "█"
    assert len(line) == 4


# -- the committed fixture pins the verdict --------------------------------


def test_trend_over_fixture_is_bit_identical():
    events = bench.load_history(FIXTURE)
    text, drifting = bench.render_trend(events)
    assert drifting == 1
    assert text + "\n" == EXPECTED.read_text(encoding="utf-8")
    # Deterministic: same points in, same text out.
    again, _ = bench.render_trend(bench.load_history(FIXTURE))
    assert again == text


def test_trend_metric_filter():
    events = bench.load_history(FIXTURE)
    text, drifting = bench.render_trend(events, metric="warm_s")
    assert drifting == 0
    assert "speedup" not in text
    assert "1 series" in text
    empty, none_drifting = bench.render_trend(events, metric="nope")
    assert none_drifting == 0
    assert empty == "No benchmark history for metric 'nope'."


def test_trend_band_override_clears_drift():
    events = bench.load_history(FIXTURE)
    _text, drifting = bench.render_trend(events, band=0.99)
    assert drifting == 0


# -- CLI --------------------------------------------------------------------


def test_cli_bench_trend_exits_nonzero_on_drift(capsys):
    code = cli.main(["bench", "trend", "--history", str(FIXTURE)])
    assert code == 1
    out = capsys.readouterr().out
    assert "DRIFT [rev000000009]" in out
    assert out.endswith("beyond the ±25% band.\n")


def test_cli_bench_trend_clean_exits_zero(capsys):
    code = cli.main(
        ["bench", "trend", "warm_s", "--history", str(FIXTURE)]
    )
    assert code == 0
    assert "DRIFT" not in capsys.readouterr().out


def test_cli_bench_trend_flags(tmp_path, capsys):
    code = cli.main(
        [
            "bench", "trend",
            "--history", str(FIXTURE),
            "--window", "3",
            "--band", "0.99",
        ]
    )
    assert code == 0
    assert "window 3 · band ±99%" in capsys.readouterr().out


def test_cli_bench_trend_missing_history(tmp_path, capsys):
    code = cli.main(
        ["bench", "trend", "--history", str(tmp_path / "none.jsonl")]
    )
    assert code == 0
    assert "No benchmark history." in capsys.readouterr().out
