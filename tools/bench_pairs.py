"""Run the benchmark in alternating parent/change pairs on fresh copies.

Usage (from anywhere inside a checkout):

    python3 tools/bench_pairs.py --parent REV --seed N [--pairs 10]

Builds two fresh copies in a temporary directory: the parent, ``git archive
REV``, and the change, the checkout's tracked files as they are on disk.
Each pair runs each copy's ``perfbench/run.py --trace 0`` at seed N on every
workload of the checkout's ``BENCHMARK.json``, for its ``run_seconds``; the
parent runs first in even pairs and the change in odd ones. Every run must
say ``"correct": true``, or the script exits 1 naming the run. Each run's
end-to-end metrics go to stderr as it ends.

Then, for each workload and each end-to-end metric of ``BENCHMARK.json``
(all of them lower-is-better), one line: both sides' medians and quartiles,
the number of pairs in which the change read lower, and a verdict. A bound
is a fraction of the parent's median.

* ``lower``: the change is lower in at least nine tenths of the pairs, ties
  counting for neither, and the medians are further apart than the parent's
  interquartile range (IQR);
* ``worse``: the change's median is above the parent's by more than the bound;
* ``unresolved``: the parent's IQR is wider than the bound;
* ``within``: none of these.

The copies start from the same state, so neither side reads the caches or
files of a checkout that the other does not.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def make_copies(root: Path, parent: str, work: Path) -> dict:
    """The fresh parent and change copies of ``root``, by side."""
    copies = {"parent": work / "parent", "change": work / "change"}
    with tarfile.open(fileobj=io.BytesIO(git(root, "archive", parent))) as archive:
        archive.extractall(copies["parent"])
    for name in git(root, "ls-files", "-z").decode().split("\0"):
        if name and (root / name).is_file():      # a deleted tracked file is left out
            (copies["change"] / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, copies["change"] / name)
    return copies


def run_once(copy: Path, workload: str, seed: int, seconds: float, label: str) -> dict:
    """The end-to-end metrics of one correct ``--trace 0`` run, by name."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if result.get("correct") is not True:
        raise RuntimeError(f"{label}: the run is not correct (exit {proc.returncode}):\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def verdict(parent: list, change: list, bound: float) -> tuple:
    """(summary, verdict) of one metric's paired runs."""
    p_q1, p_med, p_q3 = statistics.quantiles(parent, n=4, method="inclusive")
    c_q1, c_med, c_q3 = statistics.quantiles(change, n=4, method="inclusive")
    lower = sum(c < p for p, c in zip(parent, change))
    iqr = p_q3 - p_q1
    if 10 * lower >= 9 * len(parent) and p_med - c_med > iqr:
        word = "lower"
    elif c_med > p_med * (1.0 + bound):
        word = "worse"
    elif iqr > bound * p_med:
        word = "unresolved"
    else:
        word = "within"
    summary = (f"parent {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]  "
               f"change {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]  "
               f"lower in {lower}/{len(parent)}")
    return summary, word


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--seed", type=int, required=True, help="the benchmark seed")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (>= 2)")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, so that each side has quartiles")
    root = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel")
                .decode().strip())
    bench = json.loads((root / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    if any(m["better"] != "lower" for m in metrics):
        raise SystemExit("bench_pairs: every end-to-end metric must be lower-is-better")
    runs = {(side, w): [] for side in ("parent", "change") for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as work:
        copies = make_copies(root, args.parent, Path(work))
        for pair in range(args.pairs):
            sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for w in workloads:
                for side in sides:
                    label = f"pair {pair} {side} {w}"
                    try:
                        values = run_once(copies[side], w, args.seed,
                                          bench["run_seconds"], label)
                    except RuntimeError as exc:
                        print(f"bench_pairs: {exc}", file=sys.stderr)
                        return 1
                    runs[side, w].append(values)
                    print(label + " " + " ".join(f"{m['name']}={values[m['name']]:.6g}"
                                                 for m in metrics), file=sys.stderr)
    for w in workloads:
        for m in metrics:
            name = m["name"]
            summary, word = verdict([r[name] for r in runs["parent", w]],
                                    [r[name] for r in runs["change", w]], m["bound"])
            print(f"{w:<10} {name:<12} {m['unit']:<3} {summary}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
