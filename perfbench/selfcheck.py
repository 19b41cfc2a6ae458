"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

Usage: ``python3 perfbench/selfcheck.py`` from the repository root.

Checks that, for every workload in ``BENCHMARK.json``:

* ``--trace 0`` exits 0 with ``correct: true`` and exactly the
  end-to-end metrics, and ``--trace 1`` with exactly the per-layer ones;
* a deliberately corrupted pinned digest makes the run exit non-zero
  with ``correct: false``;

that the tracer refuses to install a wrapper that matches nothing, and
that without the program's source beside it the benchmark exits
non-zero without printing a result.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SCRATCH = ROOT / ".perfbench_runs" / "selfcheck"


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    """Run the benchmark; returns (exit code, parsed last line or None)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        raise SystemExit(1)
    print(f"ok: {message}")


def tracer_refuses_missing_sites() -> bool:
    """A wrapper whose method or function is gone raises at install."""
    sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]
    import tracer

    probe = tracer.Tracer(SCRATCH / "spans", role="main")
    for install in (
        lambda: tracer._wrap_method(probe, [tracer.Tracer], "gone", "x"),
        lambda: tracer._rebind(object(), None, "x"),
    ):
        try:
            install()
        except RuntimeError:
            continue
        return False
    return True


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    tiny = ["--seed", "0", "--seconds", "1", "--size", "tiny"]
    try:
        check(
            tracer_refuses_missing_sites(),
            "the tracer refuses a wrapper that matches nothing",
        )
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                code, result = bench(
                    "--workload", workload, "--trace", str(trace), *tiny
                )
                check(
                    code == 0 and result is not None and result["correct"],
                    f"{workload} --trace {trace} runs correct",
                )
                check(
                    set(result["metrics"]) == {m["name"] for m in spec[key]},
                    f"{workload} --trace {trace} emits every {key} metric",
                )
            pins = json.loads(
                (PERFBENCH / "digests.json").read_text(encoding="utf-8")
            )
            pin = f"{workload}/tiny/0"
            pins[pin] = pins[pin][::-1]
            corrupted = SCRATCH / "digests.json"
            corrupted.write_text(json.dumps(pins), encoding="utf-8")
            code, result = bench(
                "--workload", workload, "--trace", "0", *tiny,
                "--digests", str(corrupted),
            )
            check(
                code != 0 and result is not None and not result["correct"],
                f"{workload} fails against a corrupted pinned digest",
            )
        bare = SCRATCH / "bare"
        shutil.copytree(PERFBENCH, bare / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, result = bench(
            "--workload", spec["workloads"][0]["name"], "--trace", "0",
            *tiny, cwd=bare,
        )
        check(
            code != 0 and result is None,
            "without the program's source the run fails with no result",
        )
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
