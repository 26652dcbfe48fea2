"""Stopping rules over log-likelihood paths.

Rules
-----
* ``cusum_continuous``: first passage of the drawup (the log-likelihood
  process reflected at its running minimum) over the log barrier, monitored at
  every simulation grid point.
* ``cusum_grid``: the grid rule on a coarse step delta; its statistic at step
  k is the coarse value minus the minimum over *strictly earlier* coarse
  points (the k = 0 state is the zero sentinel, so one step is always needed).
* ``shiryaev_roberts``: R_k = (1 + R_{k-1}) L_k run in the log domain,
  crossing exp(log_barrier).

For barriers above zero the strict-past grid statistic and the reflected
process cross at the same monitored times; they differ only in whether a new
running minimum reads as a negative statistic or as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import kernels
from .errors import (
    AlignmentError,
    ContractError,
    SpecValidationError,
    UndefinedEstimateError,
)
from .likelihood import LLRPath

__all__ = [
    "RULES",
    "DetectorConfig",
    "check_log_barrier",
    "StopResult",
    "drawup",
    "first_passage",
    "cusum_log_stats",
    "grid_stride",
    "run_rule",
    "mle_changepoint",
    "lattice_safe_barrier",
]

RULES = ("cusum_continuous", "cusum_grid", "shiryaev_roberts")
BARRIER_NUDGE = 1e-6      # how far lattice_safe_barrier moves a barrier off the lattice


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
    when built; the grid rules need a delta.
    """

    rule: str
    log_barrier: float
    delta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise SpecValidationError(f"unknown rule {self.rule!r}")
        check_log_barrier(self.rule, self.log_barrier)
        if self.rule in ("cusum_grid", "shiryaev_roberts") and self.delta is None:
            raise SpecValidationError(f"rule {self.rule!r} needs a delta")


@dataclass(frozen=True)
class StopResult:
    stop_time: float
    censored: bool
    stat_at_stop: float
    steps_taken: int


def drawup(llr: LLRPath) -> np.ndarray:
    """The log-likelihood path minus its running minimum (inclusive); >= 0."""
    return np.maximum(cusum_log_stats(llr.u_values), 0.0)


def cusum_log_stats(u_values: np.ndarray) -> np.ndarray:
    """Grid-rule log statistics from monitored values (u_values[0] at time 0).

    Entry k >= 1 is u_k minus the minimum over strictly earlier monitored
    values; entry 0 is the -inf sentinel (S_0 = 0).
    """
    u = np.asarray(u_values, dtype=float)
    return _after_origin(kernels.reflected, u, u[0])


def _after_origin(stat, u: np.ndarray, carry: float) -> np.ndarray:
    """A kernel statistic over the points after u[0], one row whose carry
    starts at ``carry``; entry 0 is the -inf sentinel."""
    out = np.full(len(u), -math.inf)
    if len(u) > 1:
        out[1:] = stat(u[None, 1:], np.array([carry]))[0]
    return out


def first_passage(y: Sequence[float], log_barrier: float,
                  grid_dt: float) -> StopResult:
    """First index with statistic >= log_barrier, else censored at the path
    horizon."""
    y = np.asarray(y, dtype=float)
    k = int(kernels.first_crossing(y[None, :] >= log_barrier)[0])
    if k >= 0:
        return StopResult(stop_time=k * grid_dt, censored=False,
                          stat_at_stop=float(y[k]), steps_taken=k)
    return StopResult(stop_time=(len(y) - 1) * grid_dt, censored=True,
                      stat_at_stop=float(y[-1]), steps_taken=len(y) - 1)


def grid_stride(delta: float, grid_dt: float) -> int:
    """``delta`` in whole steps of ``grid_dt`` (to 1e-9 relative), else AlignmentError."""
    k = delta / grid_dt
    stride = int(round(k))
    if stride < 1 or abs(k - stride) > 1e-9 * max(1.0, abs(k)):
        raise AlignmentError(
            f"delta {delta} is not an integer multiple of grid_dt {grid_dt}")
    return stride


def run_rule(config: DetectorConfig, llr: LLRPath) -> StopResult:
    """Run the configured stopping rule over a log-likelihood path."""
    if not isinstance(llr, LLRPath):
        raise ContractError(f"rule {config.rule!r} takes a log-likelihood path")
    if config.rule == "cusum_continuous":
        return first_passage(drawup(llr), config.log_barrier, llr.grid_dt)
    stride = grid_stride(config.delta, llr.grid_dt)
    delta = stride * llr.grid_dt
    u = llr.u_values[::stride]
    if config.rule == "cusum_grid":
        return first_passage(cusum_log_stats(u), config.log_barrier, delta)
    # shiryaev_roberts: log R_k = u_k + log sum_{m<k} exp(-u_m); R_0 = 0
    return first_passage(_after_origin(kernels.sr_log, u, -u[0]),
                         config.log_barrier, delta)


def mle_changepoint(s_path: Sequence[float], stop: StopResult) -> float:
    """Change-point estimate: the last monitored time at or before the stop
    with log statistic <= 0 (the last reflection of the statistic)."""
    if stop.censored:
        raise UndefinedEstimateError("change-point estimate needs an uncensored stop")
    stats = np.asarray(s_path, dtype=float)
    if stop.steps_taken >= len(stats):
        raise ContractError("statistic path shorter than the stopping step")
    delta = stop.stop_time / stop.steps_taken if stop.steps_taken else 0.0
    lastref = np.zeros(1, dtype=np.int64)       # the origin reflects
    # one row whose block starts at the origin: step k is entry k
    kernels.last_reflection(stats[None, :], -1, np.array([stop.steps_taken]), lastref)
    return float(lastref[0] * delta)


def lattice_safe_barrier(log_barrier: float, phi_constant: float) -> float:
    """Move a barrier off the lattice {k * phi_constant} of a constant
    density-ratio model (intensity-only change), where the reflected statistic
    can land exactly on the barrier and the two stopping conventions
    (>= h vs > h) part ways."""
    if phi_constant <= 0.0:
        return log_barrier
    k = round(log_barrier / phi_constant)
    if k > 0 and abs(log_barrier - k * phi_constant) < BARRIER_NUDGE:
        return k * phi_constant + BARRIER_NUDGE
    return log_barrier
