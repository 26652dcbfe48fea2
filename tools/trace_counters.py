"""List the benchmark tracer's exact counters on its three workloads.

Usage (from anywhere):

    python3 tools/trace_counters.py [--root CHECKOUT] [--against LISTING]

Runs CHECKOUT's own ``perfbench/run.py --trace 1 --seconds 2`` (default
CHECKOUT: the checkout holding this script) at seed 77 on the
``arl``, ``calibrate`` and ``converge`` workloads, one after the other, each
from the root of CHECKOUT. Each run's last line of output is its JSON
result, which must say ``"correct": true``. Prints one line per count-valued
metric of each run (unit ``count`` or ``B``: the streams built, the
increments drawn and consumed, the chunks and steps scanned, the probes, the
replications and the report bytes), in workload then name order: workload,
metric, value. The tracer takes its counters from the first traced pass, so
they do not depend on ``--seconds``. Two trees draw, scan and write the same
amounts when the outputs of this script on both are equal:

    python3 tools/trace_counters.py --root A > a.txt
    python3 tools/trace_counters.py --root B --against a.txt

With ``--against`` the script exits 1 when its lines differ from the saved
listing, naming the first line that differs on stderr. A run that fails or
is not correct exits 1 at once.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from cli_digests import listing_main

WORKLOADS = ("arl", "calibrate", "converge")
SEED = 77
COUNT_UNITS = ("count", "B")


def counters(root: Path, workload: str) -> list:
    """The count-valued metrics of one traced run, as listing lines."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "2", "--trace", "1"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: perfbench exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        raise RuntimeError(f"{workload}: the run is not correct:\n{proc.stdout}")
    return [f"{workload} {name} {metric['value']}"
            for name, metric in sorted(result["metrics"].items())
            if metric["unit"] in COUNT_UNITS]


def all_counters(root: Path):
    """The listing lines of the three workloads of ``root``, in order."""
    for workload in WORKLOADS:
        yield from counters(root, workload)


def main(argv=None) -> int:
    return listing_main(__doc__.splitlines()[0],
                        "checkout whose perfbench and src are run", all_counters, argv)


if __name__ == "__main__":
    sys.exit(main())
