"""Experiment configuration: one JSON file describes one experiment.

Only the model block is mandatory; every other field has a documented
default. A summary.json written by the CLI embeds the fully resolved config
under ``resolved_config`` and can itself be passed back as a config file,
which is how byte-identical reruns are produced.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass

from .detector import DetectorConfig
from .errors import SpecValidationError
from .evaluate import REGIMES
from .families import LevySpec
from .model import ChangeModel, build_change_model

__all__ = ["ExperimentConfig", "DEFAULTS"]

DEFAULTS = {
    "simulation": {
        "horizon": 100.0,
        "grid_dt": 0.01,
        "n_rep": 1000,
        "master_seed": 12345,
        "threads": 1,
    },
    "detector": {
        "rule": "cusum_grid",
        "delta": 0.1,
        "log_barrier": 2.0,
        "gamma": None,
        "rel_tol": 0.02,
    },
    "experiment": {
        "regime": "in_control",
        "tau": 5.0,
        "tau_grid": [0.0, 1.0, 5.0],
        "dyadic_levels": 4,
        "base_delta": None,
        "rules": [["cusum_grid", 0.1], ["shiryaev_roberts", 0.1]],
        "fixed_steps": None,
        "n_rep_calibrate": 4000,
    },
    "output": {
        "dump_llr": False,
    },
}


def _is_finite(value) -> bool:
    """A JSON number (not a bool) with a finite value."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _merge(name: str, given) -> dict:
    """The defaults of block ``name`` updated by the given block."""
    if not isinstance(given, dict):
        raise SpecValidationError(f"{name} must be a JSON object, got {given!r}")
    out = copy.deepcopy(DEFAULTS[name])
    out.update(given)
    return out


@dataclass
class ExperimentConfig:
    model: dict
    simulation: dict
    detector: dict
    experiment: dict
    output: dict

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if "resolved_config" in data:      # a summary.json round-trips
            data = data["resolved_config"]
        if "model" not in data or not isinstance(data["model"], dict):
            raise SpecValidationError("config needs a 'model' block")
        model = data["model"]
        if "pre" not in model or "post" not in model:
            raise SpecValidationError("model block needs 'pre' and 'post' entries")
        cfg = cls(
            model=copy.deepcopy(model),
            simulation=_merge("simulation", data.get("simulation", {})),
            detector=_merge("detector", data.get("detector", {})),
            experiment=_merge("experiment", data.get("experiment", {})),
            output=_merge("output", data.get("output", {})),
        )
        cfg._check_fields()
        return cfg

    def _check_fields(self) -> None:
        sim, exp, det = self.simulation, self.experiment, self.detector
        regime = exp["regime"]
        if regime not in REGIMES:
            raise SpecValidationError(
                f"experiment.regime must be one of {REGIMES}, got {regime!r}")
        for name, value in (("simulation.n_rep", sim["n_rep"]),
                            ("simulation.threads", sim["threads"]),
                            ("experiment.n_rep_calibrate", exp["n_rep_calibrate"]),
                            ("experiment.dyadic_levels", exp["dyadic_levels"])):
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise SpecValidationError(
                    f"{name} must be an integer >= 1, got {value!r}")
        seed = sim["master_seed"]
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
            raise SpecValidationError(
                f"simulation.master_seed must be an integer in [0, 2^64), got {seed!r}")
        for name in ("horizon", "grid_dt"):
            if not (_is_finite(sim[name]) and sim[name] > 0.0):
                raise SpecValidationError(
                    f"simulation.{name} must be a finite number > 0, got {sim[name]!r}")
        for name, delta in (("detector.delta", det["delta"]),
                            ("experiment.base_delta", exp["base_delta"])):
            if delta is not None and not (_is_finite(delta) and delta > 0.0):
                raise SpecValidationError(
                    f"{name} must be a finite number > 0, got {delta!r}")
        barrier = det["log_barrier"]
        if not _is_finite(barrier):
            raise SpecValidationError(
                f"detector.log_barrier must be a finite number, got {barrier!r}")
        taus = exp["tau_grid"]
        if not (isinstance(taus, (list, tuple)) and taus
                and all(_is_finite(t) and t >= 0.0 for t in taus)):
            raise SpecValidationError(
                "experiment.tau_grid must be a non-empty list of finite numbers >= 0, "
                f"got {taus!r}")
        rules = exp["rules"]
        if not (isinstance(rules, (list, tuple)) and rules
                and all(isinstance(r, (list, tuple)) and len(r) == 2 and isinstance(r[0], str)
                        and _is_finite(r[1]) and r[1] > 0.0 for r in rules)):
            raise SpecValidationError(
                "experiment.rules must be a non-empty list of [rule, delta] pairs with "
                f"delta a finite number > 0, got {rules!r}")

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecValidationError(f"cannot parse config {path}: {exc}") from exc
        return cls.from_dict(data)

    def resolved(self) -> dict:
        return {
            "model": copy.deepcopy(self.model),
            "simulation": copy.deepcopy(self.simulation),
            "detector": copy.deepcopy(self.detector),
            "experiment": copy.deepcopy(self.experiment),
            "output": copy.deepcopy(self.output),
        }

    def change_model(self) -> ChangeModel:
        specs = []
        for side in ("pre", "post"):
            try:
                specs.append(LevySpec.from_dict(self.model[side]))
            except SpecValidationError as exc:
                raise SpecValidationError(f"model.{side}: {exc}") from exc
        return build_change_model(*specs)

    def detector_config(self) -> DetectorConfig:
        det = self.detector
        return DetectorConfig(rule=det["rule"],
                              log_barrier=float(det["log_barrier"]),
                              delta=det.get("delta"))
