"""Experiment configuration: one JSON file describes one experiment.

Only the model block is mandatory. ``FIELDS`` is the contract for every other
block: each field's kind (what its value must be) and its default. The
defaults, the checks and the rejection of unknown keys all come from that
table, and every violation names its field. A summary.json written by the
CLI embeds the fully resolved config under ``resolved_config`` and can itself
be passed back as a config file, which is how byte-identical reruns are
produced.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import dataclass

from .detector import HARNESS_RULES, DetectorConfig
from .errors import SpecValidationError
from .evaluate import REGIMES
from .families import LevySpec, reject_unknown_keys
from .model import ChangeModel, build_change_model
from .rng import BLOCK_REPLICATIONS

__all__ = ["ExperimentConfig", "DEFAULTS", "FIELDS"]


def _is_finite(value) -> bool:
    """A JSON number (not a bool) whose value is a finite float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# A kind is (description, check): a value is in the kind when check(value).
POSITIVE = ("a finite number > 0", lambda v: _is_finite(v) and v > 0.0)
NONNEG = ("a finite number >= 0", lambda v: _is_finite(v) and v >= 0.0)
FINITE = ("a finite number", _is_finite)
COUNT = ("an integer >= 1", lambda v: _is_int(v) and v >= 1)
# a standard error needs two replications, and each needs a stream id; the
# final probe of a calibration on n paths runs on 4 n stream ids
_ID_BITS = BLOCK_REPLICATIONS.bit_length() - 1
REPLICATIONS = (f"an integer in [2, 2^{_ID_BITS})",
                lambda v: _is_int(v) and 2 <= v < BLOCK_REPLICATIONS)
CALIBRATION_PATHS = (f"an integer in [1, 2^{_ID_BITS - 2}]",
                     lambda v: _is_int(v) and 1 <= v <= BLOCK_REPLICATIONS // 4)
SEED = ("an integer in [0, 2^64)", lambda v: _is_int(v) and 0 <= v < 2 ** 64)
BOOL = ("true or false", lambda v: isinstance(v, bool))
RULE = (f"one of {HARNESS_RULES}", lambda v: isinstance(v, str) and v in HARNESS_RULES)
REGIME = (f"one of {REGIMES}", lambda v: isinstance(v, str) and v in REGIMES)


def _or_null(kind):
    return (f"null or {kind[0]}", lambda v: v is None or kind[1](v))


def _list_of(noun: str, check):
    return (f"a non-empty list of {noun}",
            lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(check, v)))


TAU_GRID = _list_of("finite numbers >= 0", NONNEG[1])
RULE_PAIRS = _list_of(f"[rule, delta] pairs with rule {RULE[0]} and delta {POSITIVE[0]}",
                      lambda r: isinstance(r, (list, tuple)) and len(r) == 2
                      and RULE[1](r[0]) and POSITIVE[1](r[1]))

FIELDS = {
    "simulation": {
        "horizon": (POSITIVE, 100.0),
        "grid_dt": (POSITIVE, 0.01),
        "n_rep": (REPLICATIONS, 1000),
        "master_seed": (SEED, 12345),
        "threads": (COUNT, 1),
    },
    "detector": {
        "rule": (RULE, "cusum_grid"),
        "delta": (POSITIVE, 0.1),
        "log_barrier": (FINITE, 2.0),
        "gamma": (_or_null(POSITIVE), None),
        "rel_tol": (POSITIVE, 0.02),
    },
    "experiment": {
        "regime": (REGIME, "in_control"),
        "tau": (_or_null(NONNEG), 5.0),          # null: no change
        "tau_grid": (TAU_GRID, [0.0, 1.0, 5.0]),
        "dyadic_levels": (COUNT, 4),
        "base_delta": (_or_null(POSITIVE), None),  # null: detector.delta
        "rules": (RULE_PAIRS, [["cusum_grid", 0.1], ["shiryaev_roberts", 0.1]]),
        "fixed_steps": (_or_null(COUNT), None),
        "n_rep_calibrate": (CALIBRATION_PATHS, 4000),
    },
    "output": {
        "dump_llr": (BOOL, False),
    },
}

DEFAULTS = {block: {key: default for key, (_, default) in rows.items()}
            for block, rows in FIELDS.items()}


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
        if isinstance(data, dict) and "resolved_config" in data:  # a summary.json round-trips
            data = data["resolved_config"]
        if not isinstance(data, dict) or not isinstance(data.get("model"), dict):
            raise SpecValidationError("config needs a 'model' block")
        reject_unknown_keys(data, ("model", *FIELDS))
        model = data["model"]
        if "pre" not in model or "post" not in model:
            raise SpecValidationError("model block needs 'pre' and 'post' entries")
        reject_unknown_keys(model, ("pre", "post"), "model.")
        cfg = cls(model=copy.deepcopy(model),
                  **{block: _merge(block, data.get(block, {})) for block in FIELDS})
        cfg._check_fields()
        return cfg

    def _check_fields(self) -> None:
        for block, rows in FIELDS.items():
            values = getattr(self, block)
            reject_unknown_keys(values, rows, f"{block}.")
            for key, ((description, check), _) in rows.items():
                if not check(values[key]):
                    raise SpecValidationError(
                        f"{block}.{key} must be {description}, got {values[key]!r}")

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise SpecValidationError(f"cannot parse config {path}: {exc}") from exc
        return cls.from_dict(data)

    def resolved(self) -> dict:
        return {block: copy.deepcopy(getattr(self, block))
                for block in ("model", *FIELDS)}

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
                              delta=det["delta"])
