"""Stopping rules over one log-likelihood path.

* ``cusum_continuous``: first passage of the drawup (the log-likelihood
  process reflected at its running minimum, floored at 0) over the log
  barrier, monitored at every simulation grid point.
* ``cusum_grid``: the grid rule on a coarse step delta; its statistic at step
  k is the coarse value minus the minimum over *strictly earlier* coarse
  points (the k = 0 state is the zero sentinel, so one step is always needed).
* ``shiryaev_roberts``: R_k = (1 + R_{k-1}) L_k run in the log domain,
  crossing exp(log_barrier).

The grid rules, ``HARNESS_RULES``, are the ones the Monte Carlo harness runs;
they need a delta, and a :class:`DetectorConfig` takes only a finite delta > 0.

:func:`run_rule` runs the engine's :func:`kernels.cusum_scan` or
:func:`kernels.sr_scan` once, on the whole path as one column. For barriers
above zero the grid statistic and the drawup cross at the same monitored
times; they differ only in whether a new running minimum reads as a negative
statistic or as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import AlignmentError, ContractError, SpecValidationError
from .likelihood import LLRPath

__all__ = ["RULES", "HARNESS_RULES", "DetectorConfig", "check_log_barrier", "StopResult",
           "grid_stride", "run_rule"]

RULES = ("cusum_continuous", "cusum_grid", "shiryaev_roberts")
HARNESS_RULES = ("cusum_grid", "shiryaev_roberts")    # the grid rules: they need a delta


def check_log_barrier(rule: str, log_barrier: float) -> None:
    """A log barrier must be finite, and >= 0 (barrier h >= 1) for the CUSUM
    rules; Shiryaev-Roberts takes any finite one."""
    if not math.isfinite(log_barrier):
        raise SpecValidationError("log_barrier must be finite")
    if rule != "shiryaev_roberts" and log_barrier < 0.0:
        raise SpecValidationError("log_barrier must be >= 0 (barrier h >= 1)")


@dataclass(frozen=True)
class DetectorConfig:
    """A stopping rule plus its barrier on the log statistic.

    ``log_barrier`` bounds log S for the CUSUM rules and log R for
    Shiryaev-Roberts (so the raw R threshold is exp(log_barrier)). Checked
    when built: the grid rules need a delta, and any delta is finite and > 0.
    """

    rule: str
    log_barrier: float
    delta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise SpecValidationError(f"unknown rule {self.rule!r}")
        check_log_barrier(self.rule, self.log_barrier)
        if self.rule in HARNESS_RULES and self.delta is None:
            raise SpecValidationError(f"rule {self.rule!r} needs a delta")
        if self.delta is not None and not (math.isfinite(self.delta) and self.delta > 0.0):
            raise SpecValidationError(f"delta must be a finite number > 0, got {self.delta!r}")


@dataclass(frozen=True)
class StopResult:
    stop_time: float
    censored: bool
    stat_at_stop: float
    steps_taken: int


def grid_stride(delta: float, grid_dt: float) -> int:
    """``delta`` in whole steps of ``grid_dt`` (to 1e-9 relative), else
    AlignmentError; SpecValidationError if grid_dt is not a finite number > 0."""
    if not 0.0 < grid_dt < math.inf:
        raise SpecValidationError(f"step {grid_dt!r} is not a finite number > 0")
    k = delta / grid_dt
    stride = int(round(k))
    if stride < 1 or abs(k - stride) > 1e-9 * max(1.0, abs(k)):
        raise AlignmentError(
            f"delta {delta} is not an integer multiple of grid_dt {grid_dt}")
    return stride


def run_rule(config: DetectorConfig, llr: LLRPath) -> StopResult:
    """Run the configured stopping rule over a log-likelihood path: one scan
    of every monitored point, the origin first with an empty past (its
    statistic is the -inf sentinel), censored at the path horizon."""
    if not isinstance(llr, LLRPath):
        raise ContractError(f"rule {config.rule!r} takes a log-likelihood path")
    h, drawup = config.log_barrier, config.rule == "cusum_continuous"
    if drawup and h == 0.0:             # the drawup is 0 at the origin
        return StopResult(stop_time=0.0, censored=False, stat_at_stop=0.0, steps_taken=0)
    stride = 1 if drawup else grid_stride(config.delta, llr.grid_dt)
    delta = stride * llr.grid_dt
    u = llr.u_values[::stride, None]
    if config.rule == "shiryaev_roberts":   # log R_k = u_k + log sum_{m<k} exp(-u_m)
        off, stat = kernels.sr_scan(u, np.array([-np.inf]), 0, h)
    else:
        off, stat = kernels.cusum_scan(u, np.array([np.inf]), None, 0, h)
    censored = bool(off[0] < 0)
    k = u.shape[0] - 1 if censored else int(off[0])    # censored at the last point
    if drawup:                          # floored at 0; a crossing is >= h > 0
        stat = np.maximum(stat, 0.0)
    return StopResult(stop_time=k * delta, censored=censored,
                      stat_at_stop=float(stat[0]), steps_taken=k)

