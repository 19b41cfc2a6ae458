"""Run ``repro serve`` in this process, observed by the benchmark.

Usage: ``python3 perfbench/launcher.py [--perfbench-forks FILE]
[--perfbench-trace-out DIR] <repro serve arguments>``.

* ``--perfbench-forks FILE`` rewrites FILE with the number of processes
  the daemon has forked so far, after each fork.  The client counts the
  daemon ready only once its whole worker fleet exists.
* ``--perfbench-trace-out DIR`` installs the span wrappers of
  ``tracer.py`` before the daemon forks its fleet.

Otherwise this is exactly ``python -m repro serve``.
"""

from __future__ import annotations

import itertools
import os
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(PERFBENCH.parent / "src"), str(PERFBENCH)]


def main(argv: list[str]) -> int:
    while argv[:1] and argv[0].startswith("--perfbench-"):
        option, value, argv = argv[0], Path(argv[1]), argv[2:]
        if option == "--perfbench-forks":
            forks = itertools.count(1)
            os.register_at_fork(
                after_in_parent=lambda path=value: path.write_text(
                    str(next(forks))
                )
            )
        elif option == "--perfbench-trace-out":
            import tracer

            tracer.install(value, role="daemon")
        else:
            raise SystemExit(f"unknown option {option}")
    from repro.cli import main as repro_main

    return repro_main(["serve", *argv])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
