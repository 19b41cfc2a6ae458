"""The benchmark's workloads, driven through the program's public API.

Each workload is one unit of work a benchmark repetition times, built
from the ``--seed`` alone, in directories that start empty:

* ``sweep_dwt`` — the paper's design-space sweep (dwt x {none, dream,
  secded} x the nine paper voltages 0.50-0.90 V x records 100/106) at
  the paper's memory geometry, inline in one process.  The Monte-Carlo
  pipeline (fault sampling, EMT encode/decode, faulty-SRAM roundtrip,
  kernel, SNR) does nearly all the work; dispatch and the job journal
  do none.  The voltages span BERs from dense (1.2e-2) to ~0, so a
  sparse-fault change is exercised at both ends.  Item: one
  Monte-Carlo trial of one EMT on one record.
* ``cohort_ward`` — the shipped ``examples/experiments/cohort_ward.json``
  (200 patients x 3 policies) at 2 workers with an empty calibration
  cache.  The per-window loop of the mission simulator dominates;
  calibration calls the fault sampler in many small batches (the
  layer ``sweep_dwt`` calls in large ones), and every patient goes
  through supervised-pool dispatch.  Item: one patient simulation
  (patient x policy).
* ``service_burst`` — ``repro serve`` in its own process (2 workers,
  2 result-store shards); one client submits unique tiny
  energy-campaign jobs back to back, then waits until every job is
  terminal.  Journal I/O, socket handling, dispatch and sharded store
  appends do the work; the Monte-Carlo pipeline does none.  Item: one
  job, from the first submit to the last terminal journal record.

``fig2_paper`` is left out: 80% of its time is
``compressed_sensing.omp_reconstruct`` (tens of thousands of tiny
``linalg.solve`` calls), which no planned optimisation targets, and its
runs spread widely.

Every workload returns the items it attempted and failed, a digest of
its results (stable across runs, processes and tracing) and the list
of output checks that failed.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any

#: The seed whose digests are pinned in ``digests.json``.
DEFAULT_SEED = 0

#: The paper's nine supply voltages (BER 1.2e-2 down to 1e-9).
PAPER_VOLTAGES = (0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9)

#: Per-size knobs: ``full`` is what the benchmark measures, ``tiny``
#: what the self-check runs.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "sweep_dwt": {
        "full": {"runs": 50, "voltages": PAPER_VOLTAGES},
        "tiny": {"runs": 2, "voltages": (0.5, 0.9)},
    },
    "cohort_ward": {
        "full": {"size": None},
        "tiny": {"size": 4},
    },
    "service_burst": {
        "full": {"jobs": 200},
        "tiny": {"jobs": 6},
    },
}

PERFBENCH = Path(__file__).resolve().parent


def record_digest(records: list[dict]) -> str:
    """sha256 of the records' outcomes, independent of order and timing."""
    rows = sorted(
        (rec["hash"], rec["coords"], rec["result"], rec["status"])
        for rec in records
        if "hash" in rec
    )
    blob = json.dumps(rows, sort_keys=True, default=list)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile of ``values`` (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q * 100) - 1
    ]


class Workload:
    """One workload at one seed and size, in its own scratch directory."""

    name = "abstract"

    #: Per-layer metrics this workload exercises: a traced run in which
    #: any of them reads 0 fails, since a wrapper then missed its layer.
    heavy: tuple[str, ...] = ()

    def __init__(
        self, seed: int, size: str, scratch: Path, root: Path,
        trace_out: Path | None = None,
    ):
        self.seed = seed
        self.trace_out = trace_out
        self.knobs = SIZES[self.name][size]
        self.scratch = scratch
        self.root = root
        self.stores = scratch / "stores"
        os.environ["REPRO_CAMPAIGN_DIR"] = str(self.stores)
        os.environ["REPRO_CACHE_DIR"] = str(scratch / "cache")

    def setup(self) -> None:
        """Everything before the timed region."""

    def run(self) -> None:
        """The timed region."""

    def close(self) -> None:
        """Stop what :meth:`setup` started (after the timed region)."""

    def verify(self) -> dict[str, Any]:
        """Output checks: ``attempted``, ``failed``, ``digest``,
        ``errors`` and workload-specific ``extra`` figures."""
        raise NotImplementedError


class SweepDwt(Workload):
    name = "sweep_dwt"
    heavy = (
        "mem.faults.sample.calls", "mem.faults.sample.self_s",
        "mem.faults.sample.bits", "emt.encode.self_s", "emt.encode.words",
        "emt.decode.self_s", "emt.decode.words",
        "mem.fabric.roundtrip.calls", "mem.fabric.roundtrip.self_s",
        "apps.kernel.calls", "apps.kernel.self_s", "signals.snr.self_s",
        "campaign.store.append.calls",
    )

    def _experiment(self, runs: int, name: str):
        from repro.api import experiment_from_payload

        return experiment_from_payload({
            "version": 1,
            "kind": "sweep",
            "name": name,
            "seed": self.seed,
            "sweep": {
                "apps": ["dwt"],
                "emts": ["none", "dream", "secded"],
                "voltages": list(self.knobs["voltages"]),
                "records": ["100", "106"],
                "duration_s": 8.0,
                "runs": runs,
                "tolerance_db": 1.0,
            },
        })

    def setup(self) -> None:
        from repro.api import Session

        self.session = Session(
            backend="inline", workers=1, store_dir=self.stores
        )
        self.experiment = self._experiment(self.knobs["runs"], "bench-sweep")
        self.planned = self.session.plan(self.experiment)
        # A one-run pass in its own store synthesises the records, the
        # clean reference outputs and the energy workload, which the
        # measured sweep then finds in the process's caches.
        Session(
            backend="inline", workers=1, store_dir=self.scratch / "warm"
        ).run(self._experiment(1, "bench-sweep-warm"))

    def run(self) -> None:
        self.handle = self.session.run(self.experiment)

    def verify(self) -> dict[str, Any]:
        params = self.experiment.params
        per_point = params.runs * len(params.emts) * len(params.records)
        quality = [p for p in self.planned if p.role == "quality"]
        attempted = sum(len(p.spec.expand()) for p in quality) * per_point
        records = self.handle.records
        expected = sum(len(p.spec.expand()) for p in self.planned)
        errors = []
        if len(records) != expected:
            errors.append(f"{len(records)} records, expected {expected}")
        bad = [rec for rec in records if rec.get("status") != "ok"]
        if bad:
            errors.append(f"{len(bad)} point(s) not ok: {bad[0].get('error')}")
        done = sum(
            rec["result"]["n_runs"] * len(params.emts) * len(params.records)
            for rec in records
            if rec.get("status") == "ok" and rec["kind"] == "montecarlo"
        )
        return {
            "attempted": attempted,
            "failed": attempted - done,
            "digest": record_digest(records),
            "errors": errors,
            "extra": {},
        }


class CohortWard(Workload):
    name = "cohort_ward"
    heavy = (
        "mem.faults.sample.calls", "runtime.calibrate.calls",
        "runtime.calibrate.self_s", "runtime.simulate.calls",
        "runtime.simulate.self_s", "runtime.simulate.windows",
        "cohort.patient.self_s", "resilience.dispatch.tasks",
        "cache.computed",
    )

    def setup(self) -> None:
        from repro.api import Session, load_experiment

        experiment = load_experiment(
            self.root / "examples" / "experiments" / "cohort_ward.json"
        )
        params = experiment.params
        if self.knobs["size"] is not None:
            params = replace(params, size=self.knobs["size"])
        self.experiment = replace(experiment, seed=self.seed, params=params)
        self.session = Session(workers=2, store_dir=self.stores)
        self.planned = self.session.plan(self.experiment)

    def run(self) -> None:
        self.handle = self.session.run(self.experiment)

    def verify(self) -> dict[str, Any]:
        params = self.experiment.params
        n_points = sum(len(p.spec.expand()) for p in self.planned)
        attempted = n_points * params.size
        records = self.handle.records
        errors = []
        if len(records) != n_points:
            errors.append(f"{len(records)} records, expected {n_points}")
        done = 0
        for rec in records:
            if rec.get("status") != "ok":
                errors.append(f"policy point not ok: {rec.get('error')}")
                continue
            result = rec["result"]
            if result["n_patients"] != params.size:
                errors.append(
                    f"{result['policy']}: {result['n_patients']} patients, "
                    f"expected {params.size}"
                )
            if result["n_failed"]:
                errors.append(
                    f"{result['policy']}: {result['n_failed']} patient(s) "
                    "failed"
                )
            done += result["n_patients"] - result["n_failed"]
        return {
            "attempted": attempted,
            "failed": attempted - done,
            "digest": record_digest(records),
            "errors": errors,
            "extra": {},
        }


class ServiceBurst(Workload):
    name = "service_burst"
    heavy = (
        "energy.price.self_s", "campaign.store.append.calls",
        "campaign.store.append.bytes", "campaign.store.load.self_s",
        "resilience.dispatch.tasks", "service.client.submit.self_s",
        "service.queue.submit.self_s", "service.queue.mark.self_s",
        "service.queue.load.calls", "service.queue.load.bytes",
    )

    #: Daemon fleet size.
    WORKERS = 2

    #: How often the client re-reads the journal while waiting; the
    #: burst's end comes from journal timestamps, not from this poll.
    POLL_S = 0.5

    #: Longest the burst may take before it counts as failed.
    DEADLINE_S = 120.0

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.service_root = self.scratch / "service"
        self.daemon: subprocess.Popen | None = None

    def _spec(self, index: int):
        from repro.campaign.spec import CampaignSpec

        # Unique per (seed, index), so no submission deduplicates.
        return CampaignSpec(
            name=f"bench-svc-{self.seed}-{index:03d}",
            kind="energy",
            axes={"emt": ("none", "dream"), "voltage": (0.9,)},
            fixed={"workload": {
                "n_reads": 50_000 + 1_000 * (self.seed % 1_000) + index,
                "n_writes": 50_000,
                "duration_s": 1e-3,
            }},
        )

    def setup(self) -> None:
        from repro.errors import ServiceError
        from repro.service import ServiceClient, campaign_job_payload

        self.specs = [self._spec(i) for i in range(self.knobs["jobs"])]
        self.payloads = [
            campaign_job_payload(
                spec, spec.expand(), spec.name, str(self.stores)
            )
            for spec in self.specs
        ]
        forks = self.scratch / "daemon-forks"
        command = [
            sys.executable, str(PERFBENCH / "launcher.py"),
            "--perfbench-forks", str(forks),
        ]
        if self.trace_out is not None:
            command += ["--perfbench-trace-out", str(self.trace_out)]
        command += [
            "--root", str(self.service_root),
            "--workers", str(self.WORKERS), "--shards", "2",
            "--store-dir", str(self.stores),
            "--trace-dir", str(self.scratch / "service-trace"),
        ]
        self.daemon = subprocess.Popen(command)
        self.client = ServiceClient(root=self.service_root, timeout_s=30.0)
        # Ready: the first ping is answered and the whole fleet forked.
        deadline = time.monotonic() + 60.0
        answered = False
        while not (answered and forks.exists()
                   and int(forks.read_text() or 0) >= self.WORKERS):
            if self.daemon.poll() is not None:
                raise RuntimeError(
                    f"service daemon exited with {self.daemon.returncode}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError("service daemon never became ready")
            if not answered:
                try:
                    self.client.ping()
                    answered = True
                    continue
                except ServiceError:
                    pass  # not listening yet
            time.sleep(0.01)

    def _journal(self) -> dict[str, list[dict]]:
        """Every parsed journal line per job id (torn lines skipped)."""
        path = self.service_root / "jobs.jsonl"
        history: dict[str, list[dict]] = {}
        if not path.exists():
            return history
        for line in path.read_text(encoding="utf-8").splitlines():
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            history.setdefault(record.get("job_id"), []).append(record)
        return history

    def run(self) -> None:
        self.submit_s: list[float] = []
        self.job_ids: list[str] = []
        self.started_at = time.time()
        for payload in self.payloads:
            begun = time.perf_counter()
            job, created = self.client.submit_campaign(payload)
            self.submit_s.append(time.perf_counter() - begun)
            if not created:
                raise RuntimeError(f"job {job.job_id} deduplicated")
            self.job_ids.append(job.job_id)
        deadline = time.monotonic() + self.DEADLINE_S
        while time.monotonic() < deadline:
            journal = self._journal()
            if all(
                journal.get(job_id)
                and journal[job_id][-1]["status"] in ("done", "failed",
                                                      "cancelled")
                for job_id in self.job_ids
            ):
                break
            time.sleep(self.POLL_S)

    def close(self) -> None:
        if self.daemon is None:
            return
        try:
            if self.daemon.poll() is None:
                self.client.shutdown(wait=True)
        finally:
            try:
                self.daemon.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
            self.daemon = None

    def verify(self) -> dict[str, Any]:
        from repro.campaign.store import ResultStore

        journal = self._journal()
        errors = []
        done_ids = []
        waits, runs, finished = [], [], []
        for job_id in self.job_ids:
            history = journal.get(job_id, [])
            last = history[-1] if history else {}
            if last.get("status") != "done":
                errors.append(f"job {job_id} is {last.get('status')}")
                continue
            done_ids.append(job_id)
            running = [h for h in history if h["status"] == "running"]
            started = running[0]["updated_at"] if running else last[
                "updated_at"]
            waits.append(1e3 * (started - last["submitted_at"]))
            runs.append(1e3 * (last["updated_at"] - started))
            finished.append(last["updated_at"])
        records: list[dict] = []
        shards = set()
        for spec in self.specs:
            stored = ResultStore.for_campaign(spec.name, root=self.stores)
            rows = list(stored.load().values())
            if len(rows) != 2 or any(r["status"] != "ok" for r in rows):
                errors.append(f"{spec.name}: store holds {len(rows)} "
                              "record(s), expected 2 ok")
            records.extend(rows)
            shards.update(
                p.name for p in (self.stores / f"{spec.name}.shards").glob(
                    "shard-*.jsonl")
            )
        if len(shards) < 2:
            errors.append(f"burst touched {len(shards)} shard(s), expected 2")
        quarantine = self.service_root / "jobs.jsonl.quarantine"
        attempted = len(self.payloads)
        extra = {
            "submit_p50_ms": 1e3 * percentile(self.submit_s, 0.50),
            "submit_p95_ms": 1e3 * percentile(self.submit_s, 0.95),
            "queue_wait_ms": percentile(waits, 0.5) if waits else 0.0,
            "run_ms": percentile(runs, 0.5) if runs else 0.0,
            "quarantined_lines": (
                len(quarantine.read_text(encoding="utf-8").splitlines())
                if quarantine.exists() else 0
            ),
        }
        if finished:
            extra["elapsed_s"] = max(finished) - self.started_at
        return {
            "attempted": attempted,
            "failed": attempted - len(done_ids),
            "digest": record_digest(records),
            "errors": errors,
            "extra": extra,
        }


WORKLOADS = {cls.name: cls for cls in (SweepDwt, CohortWard, ServiceBurst)}
