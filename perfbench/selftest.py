"""Self-test of the benchmark.

Usage (from the root of a checkout): python3 perfbench/selftest.py [SECONDS]

For each workload, makes two traced runs at one seed (each alternates an
untraced and a traced pass) and asserts that
  * every job passed its output checks;
  * report.csv, stops.csv and summary.json are byte-identical between the
    untraced and the traced passes, so the wrappers change no result;
  * the exact counters repeat exactly, between passes and between runs;
  * the per-layer self times sum to the traced wall time.
Exits 0 when all hold.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from jobs import WORKLOADS  # noqa: E402
from tracer import EXACT_COUNTERS  # noqa: E402

SEED = 7


def main(argv) -> int:
    seconds = float(argv[0]) if argv else 1.0
    failures = []
    for workload in WORKLOADS:
        counters = []
        for attempt in range(2):
            result = run.measure(workload, SEED, seconds, trace=True)
            _, printed = run.summarize(result, trace=True)
            label = f"{workload} run {attempt}"
            if result["failed"]:
                failures.append(f"{label}: failed jobs {result['problems']}")
            failures += [f"{label}: {reason}" for reason in run.verdict(result, True)]
            if not result["artifact_files"]:
                failures.append(f"{label}: no artifacts compared")
            wall, layer_sum = printed["trace.wall_s"][0], printed["trace.layer_sum_s"][0]
            if abs(wall - layer_sum) > 0.01 * wall:
                failures.append(f"{label}: layer self times sum to {layer_sum:.4f} s, "
                                f"traced wall is {wall:.4f} s")
            counters.append({name: result["layers"][name] for name in EXACT_COUNTERS})
            print(f"{label}: traced wall {wall:.3f} s, layer sum {layer_sum:.3f} s, "
                  f"overhead {printed['trace.overhead_s'][0]:.3f} s, "
                  f"{result['artifact_files']} artifacts compared", flush=True)
        if counters[0] != counters[1]:
            diff = {k: (counters[0][k], counters[1][k]) for k in EXACT_COUNTERS
                    if counters[0][k] != counters[1][k]}
            failures.append(f"{workload}: counters differ between runs {diff}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
