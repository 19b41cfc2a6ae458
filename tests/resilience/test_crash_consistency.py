"""Crash-consistency tests: torn tails, sealing, and write retries.

A writer killed mid-append (the chaos layer's whole point) must never
make a store unreadable: the torn tail is tolerated and quarantined on
load, the next append seals it with a newline so debris cannot merge
with fresh records, and a transient ENOSPC at the persistence seam is
retried before it fails the campaign.
"""

from __future__ import annotations

import json

import pytest

from repro.cache import DiskCache, computed_events
from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.errors import CampaignError
from repro.journal import quarantine
from repro.resilience import chaos_draw

GOOD = {
    "hash": "aaaa", "kind": "energy", "params": {"v": 1},
    "status": "ok", "result": {"total_pj": 1.0}, "elapsed_s": 0.1,
}
TORN = '{"hash": "bbbb", "status": "o'  # a writer died mid-line here


def one_point_spec() -> CampaignSpec:
    return CampaignSpec(
        name="crash-test",
        kind="energy",
        axes={"emt": ("none",), "voltage": (0.9,)},
        fixed={"workload": {
            "n_reads": 20_000, "n_writes": 20_000, "duration_s": 1e-3,
        }},
    )


class TestStoreTornTail:
    def test_torn_tail_tolerated_and_quarantined(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(GOOD) + "\n" + TORN, encoding="utf-8")
        store = ResultStore(path)
        records = store.load()
        assert set(records) == {"aaaa"}  # torn line skipped, not fatal
        side = tmp_path / "c.jsonl.quarantine"
        assert side.read_text(encoding="utf-8") == TORN + "\n"

    def test_quarantine_not_duplicated_across_loads(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(TORN, encoding="utf-8")
        ResultStore(path).load()
        ResultStore(path).load()  # fresh memo: the file parses again
        side = tmp_path / "c.jsonl.quarantine"
        assert side.read_text(encoding="utf-8").splitlines() == [TORN]

    def test_quarantine_helper_counts_fresh_lines_only(self, tmp_path):
        path = tmp_path / "c.jsonl"
        assert quarantine(path, ["x", "y"]) == 2
        assert quarantine(path, ["y", "z"]) == 1
        assert quarantine(path, []) == 0
        side = tmp_path / "c.jsonl.quarantine"
        assert side.read_text(encoding="utf-8").splitlines() == [
            "x", "y", "z",
        ]

    def test_append_seals_torn_tail_with_newline(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(TORN, encoding="utf-8")  # no trailing newline
        store = ResultStore(path)
        store.append(GOOD)
        raw = path.read_text(encoding="utf-8").splitlines()
        assert raw[0] == TORN  # sealed: debris stays an isolated line
        assert json.loads(raw[1])["hash"] == "aaaa"
        assert set(store.load()) == {"aaaa"}

    def test_append_to_clean_store_adds_no_blank_line(self, tmp_path):
        store = ResultStore(tmp_path / "c.jsonl")
        store.append(GOOD)
        store.append({**GOOD, "hash": "cccc"})
        raw = (tmp_path / "c.jsonl").read_text(encoding="utf-8")
        assert raw.count("\n") == 2 and "\n\n" not in raw
        assert set(store.load()) == {"aaaa", "cccc"}


class TestCacheEventLogTornTail:
    def test_torn_event_tail_tolerated_sealed_and_quarantined(
        self, tmp_path
    ):
        cache = DiskCache(tmp_path)
        cache.get_or_compute({"x": 1}, lambda: 1)
        cache.get_or_compute({"x": 2}, lambda: 2)
        with cache.events_path.open("ab") as handle:
            handle.write(b'{"event": "compu')  # crashed writer's debris
        # The reader tolerates and quarantines the torn line...
        assert len(computed_events(tmp_path)) == 2
        side = tmp_path / "events.jsonl.quarantine"
        assert "compu" in side.read_text(encoding="utf-8")
        # ...and the next append seals it, so the new event parses.
        cache.get_or_compute({"x": 3}, lambda: 3)
        assert len(computed_events(tmp_path)) == 3


class TestStoreWriteRetry:
    def test_transient_enospc_is_retried_then_succeeds(
        self, tmp_path, monkeypatch
    ):
        spec = one_point_spec()
        point_hash = spec.expand()[0].content_hash()
        # A seed whose ENOSPC draw fires on write attempt 1 and clears
        # on attempt 2 — the retry must land the record.
        for seed in range(500):
            if (
                chaos_draw(seed, "enospc", point_hash, 1) < 0.5
                and chaos_draw(seed, "enospc", point_hash, 2) >= 0.5
            ):
                break
        else:
            raise AssertionError("no seed found — widen the search")
        monkeypatch.setenv("REPRO_CHAOS", f"enospc:0.5,seed:{seed}")
        store = ResultStore(tmp_path / "c.jsonl")
        result = run_campaign(spec, store=store)
        assert result.n_executed == 1 and result.n_failed == 0
        assert store.completed_hashes() == {point_hash}

    def test_persistent_enospc_fails_the_campaign_bounded(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "enospc:1.0")
        store = ResultStore(tmp_path / "c.jsonl")
        with pytest.raises(
            CampaignError, match="store append failed after 5 attempts"
        ):
            run_campaign(one_point_spec(), store=store)
