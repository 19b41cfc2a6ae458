"""The repository benchmark: one workload, timed from outside the program.

Usage::

    python3 perfbench/run.py --workload sweep_dwt --seed 0 --seconds 30 \\
        --trace 0

Every repetition runs in a fresh interpreter (``rep.py``) with fresh
store, cache and service directories under ``.perfbench_runs/``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
one discarded start compiles bytecode, a few set-up-only starts and
every repetition's start give ``setup_s`` (median), and repetitions run
until ``--seconds`` of timed work is done.  ``items_per_s`` is the work
completed over all timed regions; ``peak_rss_mb`` is the median over
repetitions.

``--trace 1`` reports the per-layer metrics: one plain repetition, then
one with the span wrappers of ``tracer.py`` installed in every process
of the workload.  Their wall-time ratio is ``obs.trace_overhead_ratio``.

Output checks: each repetition's result digest must be identical (plain
and traced alike), equal the digest pinned in ``digests.json`` at the
default seed, and every workload-specific check must hold.  Failed or
missing items are counted in ``failed``.  The last stdout line is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``); the
exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

from tracer import REGION, TASK  # noqa: E402
from workloads import DEFAULT_SEED, SIZES, WORKLOADS  # noqa: E402

#: The whole run, repetitions included, stays under this wall time.
BUDGET_S = 160.0

#: Set-up-only starts per plain run, after the discarded one.
SETUP_STARTS = 5


class RepFailed(Exception):
    """A repetition crashed, timed out or printed no result."""


def run_rep(
    workload: str, seed: int, size: str, scratch: Path, deadline: float,
    setup_only: bool = False, trace_out: Path | None = None,
) -> tuple[float, dict | None]:
    """Start one repetition; returns (set-up seconds, result or None)."""
    command = [
        sys.executable, str(PERFBENCH / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--scratch", str(scratch),
    ]
    if setup_only:
        command.append("--setup-only")
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    lines: queue.Queue = queue.Queue()
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )

    def pump() -> None:
        for line in proc.stdout:
            lines.put((time.perf_counter(), line.rstrip("\n")))
        lines.put((time.perf_counter(), None))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    setup_s = None
    last = None
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RepFailed(f"{workload} repetition timed out")
            try:
                stamp, line = lines.get(timeout=remaining)
            except queue.Empty:
                raise RepFailed(f"{workload} repetition timed out") from None
            if line is None:
                break
            if line == "READY" and setup_s is None:
                setup_s = stamp - started
            elif line.strip():
                last = line
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RepFailed(f"{workload} repetition timed out") from None
        if code != 0 or setup_s is None:
            raise RepFailed(f"{workload} repetition exited with {code}")
        if setup_only:
            return setup_s, None
        try:
            return setup_s, json.loads(last)
        except (TypeError, json.JSONDecodeError):
            raise RepFailed(f"{workload} repetition printed no result") from None
    finally:
        stop_group(proc)
        reader.join(timeout=5.0)
        proc.stdout.close()
        shutil.rmtree(scratch, ignore_errors=True)


def stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of a repetition's process group and wait."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def load_spans(trace_out: Path) -> tuple[dict, dict, dict]:
    """Sum every process's spans and counters over all jobs.

    Returns ``(spans, counters, main)``: span name -> [calls, total_s,
    self_s] and counter name -> value over the whole process tree, and
    the load-generating process's own spans.
    """
    spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    counters: dict[str, float] = defaultdict(float)
    main: dict[str, list] = {}
    for path in sorted(trace_out.glob("spans-*.json")):
        dump = json.loads(path.read_text(encoding="utf-8"))
        for job in dump["jobs"].values():
            for name, values in job["spans"].items():
                for index, value in enumerate(values):
                    spans[name][index] += value
                if dump["role"] == "main":
                    main[name] = values
            for name, value in job["counters"].items():
                counters[name] += value
    return spans, counters, main


def layer_metrics(
    trace_out: Path, plain: dict, traced: dict
) -> dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    spans, counters, main = load_spans(trace_out)

    def calls(name: str) -> float:
        return float(spans[name][0]) if name in spans else 0.0

    def own(name: str) -> float:
        return spans[name][2] if name in spans else 0.0

    metrics = {
        f"{name}.{kind}": (calls if kind == "calls" else own)(name)
        for name in (
            "mem.faults.sample", "mem.fabric.roundtrip", "apps.kernel",
            "runtime.calibrate", "runtime.simulate",
        )
        for kind in ("calls", "self_s")
    }
    for name in (
        "emt.encode", "emt.decode", "signals.snr", "signals.synth",
        "energy.price", "campaign.plan", "campaign.store.load",
        "cohort.patient", "service.client.submit", "service.queue.submit",
        "service.queue.mark",
    ):
        metrics[f"{name}.self_s"] = own(name)
    for name in (
        "mem.faults.sample.bits", "mem.faults.injected", "emt.encode.words",
        "emt.decode.words", "campaign.store.append.bytes",
        "resilience.retries", "resilience.respawns",
        "runtime.simulate.windows", "cache.computed", "cache.disk_hits",
        "cache.memory_hits", "service.queue.load.bytes",
    ):
        metrics[name] = counters.get(name, 0.0)
    roundtrip_words = counters.get("emt.decode.roundtrip_words", 0.0)
    metrics["emt.decode.useful_ratio"] = (
        counters.get("emt.decode.touched_words", 0.0) / roundtrip_words
        if roundtrip_words else 0.0
    )
    metrics["campaign.store.append.calls"] = calls("campaign.store.append")
    metrics["campaign.store.append.self_s"] = own("campaign.store.append")
    metrics["resilience.dispatch.tasks"] = calls(TASK)
    metrics["resilience.dispatch.overhead_s"] = (
        counters.get("resilience.dispatch.capacity_s", 0.0)
        - (spans[TASK][1] if TASK in spans else 0.0)
    )
    lookups = sum(
        metrics[name]
        for name in ("cache.computed", "cache.disk_hits", "cache.memory_hits")
    )
    metrics["cache.hit_ratio"] = (
        (metrics["cache.disk_hits"] + metrics["cache.memory_hits"]) / lookups
        if lookups else 0.0
    )
    metrics["service.queue.load.calls"] = calls("service.queue.load")
    # Journal-derived service figures come from the plain repetition:
    # the defects they expose are timing races tracing would perturb.
    extra = plain["extra"]
    for name, key in (
        ("service.queue.quarantined_lines", "quarantined_lines"),
        ("service.job.queue_wait_ms", "queue_wait_ms"),
        ("service.job.run_ms", "run_ms"),
        ("service.client.submit_p50_ms", "submit_p50_ms"),
        ("service.client.submit_p95_ms", "submit_p95_ms"),
    ):
        metrics[name] = float(extra.get(key, 0.0))
    metrics["obs.trace_overhead_ratio"] = (
        traced["elapsed_s"] / plain["elapsed_s"]
    )
    metrics["trace.unattributed_s"] = main[REGION][2] if REGION in main else 0.0
    return metrics


def pinned_digest(path: Path, workload: str, size: str, seed: int):
    """The digest pinned for this run, or ``None`` when none is."""
    pins = json.loads(path.read_text(encoding="utf-8"))
    return pins.get(f"{workload}/{size}/{seed}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument(
        "--digests", type=Path, default=PERFBENCH / "digests.json",
        help="pinned result digests (default: perfbench/digests.json)",
    )
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not (ROOT / "src" / "repro").is_dir():
        print("error: no program source (src/repro) beside perfbench/",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    scratch_root = ROOT / ".perfbench_runs"
    counter = itertools.count()

    def rep(**options) -> tuple[float, dict | None]:
        scratch = scratch_root / f"{args.workload}-{os.getpid()}-{next(counter)}"
        return run_rep(
            args.workload, args.seed, args.size, scratch, deadline, **options
        )

    errors: list[str] = []
    results: list[dict] = []
    setup_samples: list[float] = []
    traced = None
    try:
        rep(setup_only=True)  # discarded: compiles bytecode
        if args.trace:
            results.append(rep()[1])
            trace_out = scratch_root / f"trace-{os.getpid()}"
            shutil.rmtree(trace_out, ignore_errors=True)
            try:
                traced = rep(trace_out=trace_out)[1]
                layers = layer_metrics(trace_out, results[0], traced)
                errors.extend(
                    f"layer metric {name} read 0 on a workload that "
                    "exercises it"
                    for name in WORKLOADS[args.workload].heavy
                    if not layers[name] > 0
                )
            finally:
                shutil.rmtree(trace_out, ignore_errors=True)
        else:
            for _ in range(SETUP_STARTS):
                setup_samples.append(rep(setup_only=True)[0])
            timed = 0.0
            while timed < args.seconds:
                started = time.monotonic()
                setup_s, result = rep()
                setup_samples.append(setup_s)
                results.append(result)
                timed += result["elapsed_s"]
                # Start no repetition that could overrun the budget.
                if started + 2.5 * (time.monotonic() - started) > deadline:
                    break
    except RepFailed as exc:
        errors.append(str(exc))
        crashed = True
    else:
        crashed = False

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if crashed:
        # A crashed repetition attempted a whole workload and finished
        # none of it.
        lost = results[0]["attempted"] if results else 1
        attempted += lost
        failed += lost
    for result in results + ([traced] if traced else []):
        errors.extend(result["errors"])
    digests = {r["digest"] for r in results + ([traced] if traced else [])}
    if len(digests) != 1:
        errors.append(f"repetitions disagree: {len(digests)} distinct digests")
    pinned = pinned_digest(args.digests, args.workload, args.size, args.seed)
    if pinned is None and args.seed == DEFAULT_SEED:
        errors.append("no digest pinned for the default seed")
    elif pinned is not None and digests != {pinned}:
        errors.append(f"digests {sorted(digests)} != pinned {pinned}")

    rates = [(r["attempted"] - r["failed"]) / r["elapsed_s"] for r in results]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    values: dict[str, float] = {}
    if args.trace and traced is not None:
        values = layers
    elif not args.trace and results:
        values = {
            "setup_s": statistics.median(setup_samples),
            "items_per_s": sum(r["attempted"] - r["failed"] for r in results)
            / sum(r["elapsed_s"] for r in results),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in results
            ),
        }
    metrics = {}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not errors:
        errors.append(f"metrics not measured: {', '.join(missing)}")
    for metric in wanted:
        if metric["name"] in missing:
            continue
        metrics[metric["name"]] = {
            "value": values[metric["name"]], "unit": metric["unit"],
        }

    print(f"{args.workload} seed={args.seed} repetitions={len(results)}"
          + (" (+1 traced)" if args.trace else ""))
    print("  items/s per repetition: " + " ".join(f"{x:.4g}" for x in rates))
    if setup_samples:
        print("  set-up starts (s): "
              + " ".join(f"{x:.3f}" for x in setup_samples))
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
    print(f"  {'failed_ratio':36s} {failed / max(attempted, 1):14.6g} 1")
    if not args.trace and args.workload == "service_burst" and results:
        for key in ("submit_p50_ms", "submit_p95_ms"):
            value = statistics.median(r["extra"][key] for r in results)
            print(f"  {key:36s} {value:14.6g} ms")
    for error in errors:
        print(f"  CHECK FAILED: {error}")
    correct = not errors
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
