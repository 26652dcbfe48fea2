"""Stopping rules over log-likelihood paths and increment series.

Rules
-----
* ``cusum_continuous``: first passage of the drawup (the log-likelihood
  process reflected at its running minimum) over the log barrier, monitored at
  every simulation grid point.
* ``cusum_grid``: the grid rule on a coarse step delta; its statistic at step
  k is the coarse value minus the minimum over *strictly earlier* coarse
  points (the k = 0 state is the zero sentinel, so one step is always needed).
* ``cusum_iid``: the classical recursion max(S, 1) * likelihood over an
  increment series with explicit increment laws.
* ``shiryaev_roberts``: R_k = (1 + R_{k-1}) L_k run in the log domain,
  crossing exp(log_barrier).

For barriers above zero the strict-past grid statistic and the reflected
process cross at the same monitored times; they differ only in whether a new
running minimum reads as a negative statistic or as zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import kernels
from .errors import (
    ContractError,
    SpecValidationError,
    UndefinedEstimateError,
)
from .likelihood import IncrementLaw, LLRPath, llr_increment_iid
from .paths import IncrementSeries, _stride_of

__all__ = [
    "RULES",
    "DetectorConfig",
    "CusumState",
    "StopResult",
    "drawup",
    "first_passage",
    "cusum_update",
    "cusum_log_stats",
    "run_rule",
    "mle_changepoint",
    "lattice_safe_barrier",
]

RULES = ("cusum_continuous", "cusum_grid", "cusum_iid", "shiryaev_roberts")


@dataclass(frozen=True)
class DetectorConfig:
    """A stopping rule plus its barrier on the log statistic.

    ``log_barrier`` bounds log S for the CUSUM rules and log R for
    Shiryaev-Roberts (so the raw R threshold is exp(log_barrier)).
    """

    rule: str
    log_barrier: float
    delta: Optional[float] = None
    iid_laws: Optional[Tuple[IncrementLaw, IncrementLaw]] = None

    def validate(self) -> None:
        if self.rule not in RULES:
            raise SpecValidationError(f"unknown rule {self.rule!r}")
        if not math.isfinite(self.log_barrier):
            raise SpecValidationError("log_barrier must be finite")
        if self.rule != "shiryaev_roberts" and self.log_barrier < 0.0:
            raise SpecValidationError("log_barrier must be >= 0 (barrier h >= 1)")
        if self.rule in ("cusum_grid", "shiryaev_roberts") and self.delta is None:
            raise SpecValidationError(f"rule {self.rule!r} needs a delta")
        if self.rule == "cusum_iid" and self.iid_laws is None:
            raise SpecValidationError("cusum_iid needs the increment law pair")


@dataclass(frozen=True)
class CusumState:
    """Running CUSUM statistic in the log domain; -inf encodes S = 0."""

    log_stat: float = -math.inf
    steps: int = 0


@dataclass(frozen=True)
class StopResult:
    stop_time: float
    censored: bool
    stat_at_stop: float
    steps_taken: int


def cusum_update(state: CusumState, log_l: float) -> CusumState:
    """One step of log S' = max(log S, 0) + log_l (max(-inf, 0) = 0)."""
    base = max(state.log_stat, 0.0)
    return CusumState(log_stat=base + log_l, steps=state.steps + 1)


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


def first_passage(y: Sequence[float], log_barrier: float, grid_dt: float,
                  monitor_stride: int = 1) -> StopResult:
    """First monitored time with statistic >= log_barrier, else censored.

    Monitored indices are multiples of ``monitor_stride`` (index 0 included);
    the censored stop time is the path horizon.
    """
    if monitor_stride < 1:
        raise SpecValidationError("monitor_stride must be >= 1")
    y = np.asarray(y, dtype=float)
    horizon = (len(y) - 1) * grid_dt
    sub = y[::monitor_stride]
    k = int(kernels.first_crossing(sub[None, :] >= log_barrier)[0])
    if k >= 0:
        return StopResult(stop_time=k * monitor_stride * grid_dt, censored=False,
                          stat_at_stop=float(sub[k]), steps_taken=k)
    return StopResult(stop_time=horizon, censored=True,
                      stat_at_stop=float(sub[-1]), steps_taken=len(sub) - 1)


def run_rule(config: DetectorConfig,
             data: Union[LLRPath, IncrementSeries]) -> StopResult:
    """Run the configured stopping rule over a path or increment series."""
    config.validate()

    if config.rule in ("cusum_continuous", "cusum_grid", "shiryaev_roberts"):
        if not isinstance(data, LLRPath):
            raise ContractError(f"rule {config.rule!r} takes a log-likelihood path")
        if config.rule == "cusum_continuous":
            return first_passage(drawup(data), config.log_barrier, data.grid_dt)
        stride = _stride_of(config.delta, data.grid_dt) if config.delta else 1
        delta = stride * data.grid_dt
        u = data.u_values[::stride]
        if config.rule == "cusum_grid":
            return first_passage(cusum_log_stats(u), config.log_barrier, delta)
        # shiryaev_roberts: log R_k = u_k + log sum_{m<k} exp(-u_m); R_0 = 0
        return first_passage(_after_origin(kernels.sr_log, u, -u[0]),
                             config.log_barrier, delta)

    # cusum_iid over an increment series
    if not isinstance(data, IncrementSeries):
        raise ContractError("rule 'cusum_iid' takes an increment series")
    q0, q1 = config.iid_laws
    # log S_k = max(log S_{k-1}, 0) + log L_k is the grid statistic of the
    # cumulative log-likelihood started at 0
    u = np.concatenate([[0.0], np.cumsum(llr_increment_iid(q0, q1, data.values))])
    return first_passage(cusum_log_stats(u), config.log_barrier, data.delta)


def mle_changepoint(s_path: Sequence[float], stop: StopResult) -> float:
    """Change-point estimate: the last monitored time at or before the stop
    with log statistic <= 0 (the last reflection of the statistic)."""
    if stop.censored:
        raise UndefinedEstimateError("change-point estimate needs an uncensored stop")
    stats = np.asarray(s_path, dtype=float)
    if stop.steps_taken >= len(stats):
        raise ContractError("statistic path shorter than the stopping step")
    delta = stop.stop_time / stop.steps_taken if stop.steps_taken else 0.0
    upto = stats[:stop.steps_taken + 1]
    idx = np.nonzero(upto <= 0.0)[0]
    return float(idx[-1] * delta)


def lattice_safe_barrier(log_barrier: float, phi_constant: float,
                         nudge: float = 1e-6) -> float:
    """Move a barrier off the lattice {k * phi_constant} of a constant
    density-ratio model (intensity-only change), where the reflected statistic
    can land exactly on the barrier and the two stopping conventions
    (>= h vs > h) part ways."""
    if phi_constant <= 0.0:
        return log_barrier
    k = round(log_barrier / phi_constant)
    if k > 0 and abs(log_barrier - k * phi_constant) < nudge:
        return k * phi_constant + nudge
    return log_barrier
