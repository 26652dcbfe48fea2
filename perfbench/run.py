"""levydetect benchmark: one command, three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {arl,calibrate,converge} --seed N \
        --seconds S --trace {0,1}

The seed generates the experiment configs. Set-up is timed in fresh
interpreters; then a single-threaded workload process runs the job list in a
closed loop for S seconds on the numpy kernels and checks every output. With
--trace 0 the result carries the end-to-end metrics; the pass time among them
is scaled to a fixed machine speed (see worker.run_pass), because the raw
wall time drifts with the shared host. With --trace 1 the untraced and traced
passes alternate and the result carries the per-layer metrics. The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from jobs import WORKLOADS, make_jobs, write_configs  # noqa: E402

SETUP_SAMPLES = 7            # fresh interpreters timed per run, worker included
WORK_ROOT = ".perfbench_work"
PROCESS_TIMEOUT = 150.0

END_TO_END = ("setup_s", "norm_wall_s", "peak_rss_mb")
PER_LAYER = {
    "import_s": "s", "config.load_s": "s", "model.build_s": "s", "rng.setup_s": "s",
    "engine.sample_s": "s", "evaluate.self_s": "s", "report.write_s": "s",
    "cli.self_s": "s", "trace.overhead_s": "s",
    "rng.streams": "count", "engine.paths.draws": "count",
    "engine.paths.consumed": "count", "engine.paths.draw_efficiency": "ratio",
    "engine.chunks": "count", "engine.dyadic.draws": "count",
    "engine.dyadic.consumed": "count", "engine.dyadic.draw_efficiency": "ratio",
    "kernels.steps_scanned": "count", "evaluate.probes": "count",
    "evaluate.replications": "count", "report.bytes": "B",
}
# printed with the traced run but not part of the result line: each is zero
# on every run of a workload that does not call its layer
PRINTED_ONLY = {
    "engine.paths.driver_self_s": "s", "engine.dyadic_self_s": "s",
    "kernels.cusum_scan_s": "s", "kernels.sr_scan_s": "s", "kernels.lb_scan_s": "s",
    "kernels.ns_per_step": "ns", "evaluate.probe_s": "s", "evaluate.calibrate_s": "s",
    "evaluate.lorden_s": "s", "paths.sample_s": "s", "likelihood.llr_s": "s",
    "detector.run_rule_s": "s", "bench.self_s": "s",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env["LEVYDETECT_KERNELS"] = "python"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(manifest_path: str, result_path: str, *flags) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), manifest_path,
           result_path, *flags]
    proc = subprocess.run(cmd, env=worker_env(), timeout=PROCESS_TIMEOUT,
                          stdout=sys.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark measurement and return the worker's result plus the
    set-up samples. Leaves nothing behind in the checkout."""
    if not os.path.isfile(os.path.join("src", "levydetect", "__init__.py")):
        raise FileNotFoundError("run from the root of a levydetect checkout "
                                "(src/levydetect not found)")
    work_dir = os.path.abspath(os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}"))
    try:
        jobs = make_jobs(workload, seed)
        write_configs(jobs, os.path.join(work_dir, "configs"))
        manifest_path = os.path.join(work_dir, "manifest.json")
        with open(manifest_path, "w") as fh:
            json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                       "trace": trace, "work_dir": work_dir, "jobs": jobs}, fh)
        setups = [run_worker(manifest_path, os.path.join(work_dir, f"setup{i}.json"),
                             "--setup-only")["setup_s"]
                  for i in range(SETUP_SAMPLES - 1)]
        result = run_worker(manifest_path, os.path.join(work_dir, "result.json"))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    result["setup_samples"] = setups + [result["setup_s"]]
    result["jobs"] = len(jobs)
    return result


def summarize(result: dict, trace: bool) -> tuple:
    """(metrics of the result line as name -> (value, unit), every metric of
    the printed report as name -> (value, unit, note))."""
    failed, attempted, walls = result["failed"], result["attempted"], result["walls"]
    wall = statistics.median(walls)
    printed = {
        "setup_s": (statistics.median(result["setup_samples"]), "s",
                    f"median of {len(result['setup_samples'])} interpreters"),
        "wall_s": (wall, "s", f"median of {len(walls)} untraced passes, "
                              f"{min(walls):.3f} to {max(walls):.3f}"),
        "norm_wall_s": (statistics.median(result["norm_walls"]), "s",
                        "median pass scaled to the nominal machine speed"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", ""),
        "fail_frac": (failed / attempted, "",
                      f"{failed} of {attempted} jobs, {result['jobs']} per pass"),
    }
    declared = END_TO_END
    if trace:
        layers = dict(result["layers"], import_s=result["import_s"])
        traced_wall = statistics.median(result["traced_walls"])
        layers["trace.overhead_s"] = traced_wall - wall
        printed = {"wall_s": printed["wall_s"]}
        for name, unit in dict(PER_LAYER, **PRINTED_ONLY).items():
            printed[name] = (layers[name], unit, "")
        printed["trace.wall_s"] = (traced_wall, "s",
                                   f"median of {len(result['traced_walls'])} traced passes")
        printed["trace.layer_sum_s"] = (layers["trace.layer_sum_s"], "s",
                                        "self times of all layers")
        declared = PER_LAYER
    return {k: printed[k][:2] for k in declared}, printed


def verdict(result: dict, trace: bool) -> list:
    """Reasons the run is not correct, beyond failed jobs."""
    reasons = []
    if result["meta"]["kernel_backend"] != "python":
        reasons.append(f"kernel backend {result['meta']['kernel_backend']}, not python")
    if not result["artifacts_identical"]:
        reasons.append("report.csv/stops.csv/summary.json differ between passes")
    if trace and not result["counters_repeat"]:
        reasons.append("exact counters differ between traced passes")
    return reasons


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    # on SIGTERM unwind, so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    try:
        result = measure(args.workload, args.seed, args.seconds, trace)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    metrics, printed = summarize(result, trace)
    reasons = verdict(result, trace)
    meta = " ".join(f"{k}={v}" for k, v in result["meta"].items())
    print(f"perfbench workload={args.workload} trace={args.trace} {meta}")
    for name, (value, unit, note) in printed.items():
        print(f"  {name:<30} {value:<14.6g} {unit:<6} {note}")
    for name, found in result["problems"].items():
        print(f"  FAILED {name}: {'; '.join(found)}")
    for reason in reasons:
        print(f"  INCORRECT: {reason}")
    print(json.dumps({
        "correct": result["failed"] == 0 and not reasons,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
