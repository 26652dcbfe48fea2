"""Per-layer spans and counters, recorded from outside the package.

``Tracer.installed()`` replaces the package's public functions, in every
module that holds a reference to them, by wrappers that time each call and
count work at the layer boundary; leaving the block puts the originals back,
so untraced passes run the unmodified code. A layer's self time is the
duration of its spans minus the time of wrapped calls inside them, so the
self times of one pass add up to the pass's traced wall time.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

# counters that must repeat exactly at one seed
EXACT_COUNTERS = ("rng.streams", "engine.paths.draws", "engine.paths.consumed",
                  "engine.chunks", "engine.dyadic.draws", "engine.dyadic.consumed",
                  "kernels.steps_scanned", "evaluate.probes", "evaluate.replications",
                  "report.bytes")

# kernel -> (layer, rule kinds for which one call is one chunk of run_paths)
_KERNELS = {"cusum_scan": ("kernels.cusum", ("cusum",)),
            "lb_cusum_scan": ("kernels.lb", ("cusum",)),
            "sr_scan": ("kernels.sr", ("sr",)),
            "lb_until_scan": ("kernels.lb", ("fixed",))}


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)     # layer -> self seconds
        self.incl_s = defaultdict(float)     # span name -> inclusive seconds
        self.counts = defaultdict(int)
        self._open = []                      # child seconds of each open span
        self._patches = []
        self._engine = "other"               # 'paths' or 'dyadic' while inside
        self._rule_kind = None
        self._calibrating = False

    def reset(self) -> None:
        self.self_s.clear()
        self.incl_s.clear()
        self.counts.clear()

    def span(self, layer: str, fn, name: str = None):
        """Wrap ``fn`` so each call is a span of ``layer``."""
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                self.self_s[layer] += d - self._open.pop()
                if name:
                    self.incl_s[name] += d
                if self._open:
                    self._open[-1] += d
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    # ------------------------------------------------------------------ #

    def _install(self) -> None:
        import levydetect
        from levydetect import (cli, config, detector, engine, evaluate, kernels,
                                likelihood, model, paths, report, rng)

        self._patch(cli, "main", self.span("cli", cli.main))

        load = config.ExperimentConfig.__dict__["load"].__func__
        self._patch(config.ExperimentConfig, "load",
                    classmethod(self.span("config", load)))

        build = self.span("model", model.build_change_model)
        for mod in (model, config, levydetect):
            self._patch(mod, "build_change_model", build)

        generator = self.span("rng", rng.RngStream.generator)

        def counted_generator(stream):
            self.counts["rng.streams"] += 1
            return generator(stream)
        self._patch(rng.RngStream, "generator", counted_generator)

        make_u_sampler = engine.make_u_sampler

        def traced_make_u_sampler(*args, **kwargs):
            draw = self.span("engine.sample", make_u_sampler(*args, **kwargs))

            def sampler(gen, size):
                self.counts[f"engine.{self._engine}.draws"] += \
                    size if isinstance(size, int) else int(np.prod(size))
                return draw(gen, size)
            return sampler
        self._patch(engine, "make_u_sampler", traced_make_u_sampler)

        self._install_engine_runs(engine, evaluate)

        for kname, (layer, primary_for) in _KERNELS.items():
            self._patch(kernels, kname,
                        self._kernel(self.span(layer, getattr(kernels, kname)),
                                     primary_for))

        self._install_evaluate(cli, evaluate)

        for mod, attr, layer, holders in (
                (paths, "sample_changed_path", "paths", (cli, levydetect)),
                (likelihood, "llr_path", "likelihood", (cli, levydetect)),
                (detector, "run_rule", "detector", (levydetect,))):
            wrapped = self.span(layer, getattr(mod, attr))
            for holder in (mod,) + holders:
                self._patch(holder, attr, wrapped)

        for attr in ("write_csv", "write_json"):
            write = self.span("report", getattr(report, attr))

            def counted_write(path, *args, _write=write, **kwargs):
                _write(path, *args, **kwargs)
                self.counts["report.bytes"] += os.path.getsize(path)
            for holder in (report, cli):
                self._patch(holder, attr, counted_write)

    def _kernel(self, scan, primary_for):
        def counted_scan(inc, *args):
            self.counts["kernels.steps_scanned"] += inc.size
            if self._rule_kind in primary_for:
                self.counts["engine.chunks"] += 1
            return scan(inc, *args)
        return counted_scan

    def _install_engine_runs(self, engine, evaluate) -> None:
        run_paths = self.span("engine.paths", engine.run_paths)
        paths_sig = inspect.signature(engine.run_paths)
        run_dyadic = self.span("engine.dyadic", engine.run_dyadic)
        dyadic_sig = inspect.signature(engine.run_dyadic)

        def traced_run_paths(*args, **kwargs):
            a = paths_sig.bind(*args, **kwargs).arguments
            rule = a["rule"]
            outer = self._engine, self._rule_kind
            self._engine, self._rule_kind = "paths", rule.kind
            try:
                result = run_paths(*args, **kwargs)
            finally:
                self._engine, self._rule_kind = outer
            total = a["n_steps"] if rule.kind != "fixed" \
                else min(a["n_steps"], rule.fixed_steps)
            stops = result.stop_steps
            self.counts["engine.paths.consumed"] += int(np.where(stops < 0, total, stops).sum())
            self.counts["evaluate.replications"] += a["n_rep"]
            return result

        def traced_run_dyadic(*args, **kwargs):
            a = dyadic_sig.bind(*args, **kwargs).arguments
            outer = self._engine
            self._engine = "dyadic"
            try:
                stops, stops_strict = run_dyadic(*args, **kwargs)
            finally:
                self._engine = outer
            # a path is needed up to the last stop over all strides and conventions
            needed = np.max(np.rint(np.array(stops + stops_strict) / a["dt"]), axis=0)
            self.counts["engine.dyadic.consumed"] += int(needed.sum())
            self.counts["evaluate.replications"] += a["n_rep"]
            return stops, stops_strict

        for mod in (engine, evaluate):
            self._patch(mod, "run_paths", traced_run_paths)
            self._patch(mod, "run_dyadic", traced_run_dyadic)

    def _install_evaluate(self, cli, evaluate) -> None:
        wrapped = {name: self.span("evaluate", getattr(evaluate, name),
                                   name=f"evaluate.{name}")
                   for name in ("estimate_arl", "calibrate_barrier", "lorden_delay",
                                "lower_bound_ratio", "convergence_study", "compare")}
        estimate_arl = wrapped["estimate_arl"]
        probe = self.span("evaluate", evaluate.estimate_arl, name="evaluate.probe")
        calibrate = wrapped["calibrate_barrier"]

        def traced_estimate_arl(*args, **kwargs):
            if self._calibrating:
                self.counts["evaluate.probes"] += 1
                return probe(*args, **kwargs)
            return estimate_arl(*args, **kwargs)

        def traced_calibrate_barrier(*args, **kwargs):
            outer = self._calibrating
            self._calibrating = True
            try:
                return calibrate(*args, **kwargs)
            finally:
                self._calibrating = outer

        wrapped["estimate_arl"] = traced_estimate_arl
        wrapped["calibrate_barrier"] = traced_calibrate_barrier
        for name, fn in wrapped.items():
            for mod in (evaluate, cli):
                if name in mod.__dict__:
                    self._patch(mod, name, fn)

    # ------------------------------------------------------------------ #

    def layer_metrics(self) -> dict:
        """Per-layer seconds and counters of the pass just traced."""
        s, c = self.self_s, self.counts
        scan_s = s["kernels.cusum"] + s["kernels.sr"] + s["kernels.lb"]
        steps = c["kernels.steps_scanned"]
        out = {
            "config.load_s": s["config"],
            "model.build_s": s["model"],
            "rng.setup_s": s["rng"],
            "engine.sample_s": s["engine.sample"],
            "engine.paths.driver_self_s": s["engine.paths"],
            "engine.dyadic_self_s": s["engine.dyadic"],
            "kernels.cusum_scan_s": s["kernels.cusum"],
            "kernels.sr_scan_s": s["kernels.sr"],
            "kernels.lb_scan_s": s["kernels.lb"],
            "kernels.ns_per_step": 1e9 * scan_s / steps if steps else 0.0,
            "evaluate.self_s": s["evaluate"],
            "evaluate.probe_s": self.incl_s["evaluate.probe"],
            "evaluate.calibrate_s": self.incl_s["evaluate.calibrate_barrier"],
            "evaluate.lorden_s": self.incl_s["evaluate.lorden_delay"],
            "paths.sample_s": s["paths"],
            "likelihood.llr_s": s["likelihood"],
            "detector.run_rule_s": s["detector"],
            "report.write_s": s["report"],
            "cli.self_s": s["cli"],
            "bench.self_s": s["bench"],
        }
        for name in EXACT_COUNTERS:
            out[name] = c[name]
        for eng in ("paths", "dyadic"):
            drawn = c[f"engine.{eng}.draws"]
            out[f"engine.{eng}.draw_efficiency"] = \
                c[f"engine.{eng}.consumed"] / drawn if drawn else 0.0
        out["trace.layer_sum_s"] = sum(s.values())
        return out
