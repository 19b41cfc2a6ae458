"""One benchmark repetition: a fresh interpreter that sets a workload up,
prints ``READY``, times it, checks it and prints one JSON line.

Usage (``run.py`` starts this; it is not meant to be run by hand)::

    python3 perfbench/rep.py --workload NAME --seed N --size full \\
        --scratch DIR [--setup-only] [--trace-out DIR]

With ``--setup-only`` the process stops after ``READY``: the parent
times interpreter start to ``READY`` as the workload's set-up time.
With ``--trace-out`` the span wrappers of :mod:`tracer` are installed
before set-up and every process of the workload writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(PERFBENCH)]


def peak_rss_mb() -> float:
    """Largest peak RSS of this process or any child it has reaped."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out is not None:
        import tracer as tracing

        tracer = tracing.install(args.trace_out, role="main")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](
        args.seed, args.size, args.scratch, ROOT, trace_out=args.trace_out
    )
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        started = time.perf_counter()
        if tracer is not None:
            with tracer.region(tracing.REGION):
                workload.run()
        else:
            workload.run()
        elapsed = time.perf_counter() - started
    finally:
        workload.close()
    outcome = workload.verify()
    outcome["elapsed_s"] = outcome["extra"].pop("elapsed_s", elapsed)
    outcome["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
