"""The workload process: one single-threaded interpreter that sets up, runs
the job list in a closed loop (each job starts when the previous one ends)
and checks every output.

Usage: python3 perfbench/worker.py MANIFEST RESULT [--setup-only]

MANIFEST is the JSON written by run.py (workload, seed, seconds, trace,
work directory, jobs). The worker writes its measurements to RESULT as JSON.
With --setup-only it measures set-up alone and exits, which gives run.py
further set-up samples from fresh interpreters.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

from jobs import DELTA, LOG_BARRIER, PIPELINE_SR_LOG_BARRIER, check_cli, check_pipeline

ARTIFACTS = ("report.csv", "stops.csv", "summary.json")
# The speed of a shared host drifts by a third or more over minutes, and all
# code slows together. Job times are therefore also reported scaled to a
# fixed machine speed: the one at which a reference sample takes
# NOMINAL_REFERENCE_S (about its median on a 2-vCPU Xeon KVM guest).
NOMINAL_REFERENCE_S = 0.018
REFERENCE_SAMPLES = 5
REFERENCE_SEED = 20161105


def setup(jobs: list) -> dict:
    """Import the package, parse every config and build every model the
    workload uses, as each CLI invocation does before its work starts."""
    t0 = time.perf_counter()
    import levydetect  # noqa: F401
    from levydetect.cli import main  # noqa: F401
    from levydetect.config import ExperimentConfig
    from levydetect.families import LevySpec
    from levydetect.model import build_change_model
    t_import = time.perf_counter()
    pairs = {}
    for job in jobs:
        if job["kind"] == "cli":
            cfg = ExperimentConfig.load(job["config_path"])
            pairs.setdefault(job["pair"], cfg.model)
        else:
            pairs.setdefault(job["pair"], job["model"])
    for pair in pairs.values():
        model = build_change_model(LevySpec.from_dict(pair["pre"]),
                                   LevySpec.from_dict(pair["post"]))
        model.require_admissible()
    return {"setup_s": time.perf_counter() - t0, "import_s": t_import - t0}


def run_pipeline(job: dict) -> list:
    """sample_changed_path -> llr_path -> run_rule on each path, for the
    continuous CUSUM, the grid CUSUM and Shiryaev-Roberts."""
    from levydetect import detector, likelihood, paths
    from levydetect.config import ExperimentConfig
    from levydetect.detector import DetectorConfig
    from levydetect.rng import RngStream, stream_id

    model = ExperimentConfig.from_dict({"model": job["model"]}).change_model()
    cont = DetectorConfig(rule="cusum_continuous", log_barrier=LOG_BARRIER)
    grid = DetectorConfig(rule="cusum_grid", log_barrier=LOG_BARRIER, delta=DELTA)
    sr = DetectorConfig(rule="shiryaev_roberts", log_barrier=PIPELINE_SR_LOG_BARRIER,
                        delta=DELTA)
    stride = round(DELTA / job["grid_dt"])
    stops = []
    for i in range(job["n_paths"]):
        rng = RngStream(job["master_seed"], stream_id("path", i))
        path = paths.sample_changed_path(model, job["tau"], job["horizon"],
                                         job["grid_dt"], rng)
        llr = likelihood.llr_path(model, path)
        stops.append((detector.run_rule(cont, llr), detector.run_rule(grid, llr),
                      stride))
        detector.run_rule(sr, llr)
    return stops


def run_job(job: dict, out_dir: str):
    """Run one job; returns its exit code (cli) or stop list (pipeline)."""
    if job["kind"] == "pipeline":
        return run_pipeline(job)
    from levydetect import cli
    return cli.main([job["subcommand"], "--config", job["config_path"],
                     "--out", out_dir])


def reference_s(gen) -> float:
    """Current machine speed for the kind of work the jobs do: the median of
    REFERENCE_SAMPLES timings of a fixed numpy kernel that calls nothing in
    levydetect. Each sample draws a 64 x 8,000 block of Philox normals (4 MB,
    large enough to leave the core's cache, as the jobs' arrays do), takes
    cumulative sums and running minima along the rows and finds each row's
    first crossing."""
    import numpy as np
    samples = []
    for _ in range(REFERENCE_SAMPLES):
        t0 = time.perf_counter()
        u = np.cumsum(gen.standard_normal((64, 8000)), axis=1)
        (u - np.minimum.accumulate(u, axis=1) > 3.0).argmax(axis=1)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def run_pass(jobs: list, pass_dir: str, gen, tracer=None):
    """Run the job list once; returns (wall seconds, normalised seconds,
    outcomes). The wall time is the sum of the job times. The reference
    kernel is timed before the first job and after each one, outside the job
    times; each job's time is scaled by NOMINAL_REFERENCE_S over the mean of
    the two reference timings around it, and the normalised time is the sum.
    With a tracer each job is a root span, so the layer self times sum to the
    wall time."""
    outcomes = []
    runner = run_job if tracer is None else tracer.span("bench", run_job)
    wall = norm = 0.0
    ref = reference_s(gen)
    for i, job in enumerate(jobs):
        out_dir = os.path.join(pass_dir, f"job{i:02d}")
        t0 = time.perf_counter()
        try:
            outcomes.append((runner(job, out_dir), None))
        except Exception as exc:  # a failed job is counted, not fatal
            outcomes.append((None, f"{type(exc).__name__}: {exc}"))
        elapsed = time.perf_counter() - t0
        ref_after = reference_s(gen)
        wall += elapsed
        norm += elapsed * NOMINAL_REFERENCE_S / ((ref + ref_after) / 2.0)
        ref = ref_after
    return wall, norm, outcomes


def check_pass(jobs: list, pass_dir: str, outcomes: list) -> tuple:
    """Check every job's output; returns (problems by job, artifact digests)."""
    problems, digests = {}, {}
    for i, (job, (value, error)) in enumerate(zip(jobs, outcomes)):
        out_dir = os.path.join(pass_dir, f"job{i:02d}")
        try:
            if error is not None:
                found = [error]
            elif job["kind"] == "pipeline":
                found = check_pipeline(job, value)
            else:
                found = check_cli(job, value, out_dir)
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:  # malformed output
            found = [f"unexpected output: {type(exc).__name__}: {exc}"]
        if job["kind"] == "cli":
            for name in ARTIFACTS:
                path = os.path.join(out_dir, name)
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        digests[f"{job['name']}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
        if found:
            problems[job["name"]] = found
    return problems, digests


def metadata(seed: int) -> dict:
    import numpy
    import scipy
    import levydetect
    commit = None
    head = os.path.join(".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path) as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    return {"kernel_backend": levydetect.kernel_backend(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "seed": seed}


def measure(manifest: dict) -> dict:
    jobs, seconds, traced = manifest["jobs"], manifest["seconds"], manifest["trace"]
    result = setup(jobs)
    if traced:
        from tracer import EXACT_COUNTERS, Tracer
        tracer = Tracer()

    import numpy as np
    gen = np.random.Generator(np.random.Philox(REFERENCE_SEED))
    walls, norm_walls, traced_walls, layer_runs = [], [], [], []
    attempted = failed = 0
    problems_seen, reference_digests, identical = {}, None, True
    start = time.perf_counter()
    k = 0
    # in a traced run, untraced and traced passes alternate, starting untraced
    while k < (2 if traced else 1) or time.perf_counter() - start < seconds:
        pass_dir = os.path.join(manifest["work_dir"], f"pass{k}")
        with_trace = traced and k % 2 == 1
        if with_trace:
            tracer.reset()
            with tracer.installed():
                wall, _, outcomes = run_pass(jobs, pass_dir, gen, tracer)
            traced_walls.append(wall)
            layer_runs.append(tracer.layer_metrics())
        else:
            wall, norm, outcomes = run_pass(jobs, pass_dir, gen)
            walls.append(wall)
            norm_walls.append(norm)
        problems, digests = check_pass(jobs, pass_dir, outcomes)
        shutil.rmtree(pass_dir, ignore_errors=True)
        attempted += len(jobs)
        failed += len(problems)
        for name, found in problems.items():
            problems_seen.setdefault(name, found)
        if reference_digests is None:
            reference_digests = digests
        else:
            identical = identical and digests == reference_digests
        k += 1

    result.update(
        walls=walls, norm_walls=norm_walls, attempted=attempted, failed=failed,
        problems=problems_seen,
        artifacts_identical=identical, artifact_files=len(reference_digests),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        meta=metadata(manifest["seed"]))
    if traced:
        first = layer_runs[0]
        layers = {name: statistics.median(run[name] for run in layer_runs)
                  for name in first}
        layers.update({name: first[name] for name in EXACT_COUNTERS})
        result.update(
            layers=layers, traced_walls=traced_walls,
            counters_repeat=all({n: run[n] for n in EXACT_COUNTERS} ==
                                {n: first[n] for n in EXACT_COUNTERS}
                                for run in layer_runs))
    return result


def main(argv) -> int:
    manifest_path, result_path = argv[0], argv[1]
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if "--setup-only" in argv[2:]:
        result = setup(manifest["jobs"])
    else:
        result = measure(manifest)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
