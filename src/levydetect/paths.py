"""Path simulation with an explicit jump ledger.

A trajectory covers the :func:`grid_steps` whole steps of the simulation
grid that fit in its horizon, and switches from the pre-change to the
post-change law at the change point tau (snapped to that grid; tau = inf
means no change).
Brownian parts are sampled exactly at grid points, compound-Poisson jumps at
exact event times, and gamma subordinator increments from their exact marginal
law per step. For the gamma measure the ledger records only jumps above a
truncation threshold; the jumps hidden below it are recovered exactly in
distribution through a stick-breaking decomposition of each step increment,
so the ledger always sums to at most the step increment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ContractError, SpecValidationError
from .families import LevySpec
from .model import ChangeModel
from .rng import RngStream, give_back, lease

__all__ = [
    "SamplePath",
    "sample_changed_path",
    "gamma_ledger_threshold",
]

# Ledger budget for the gamma measure: expected recorded jumps per unit time.
GAMMA_LEDGER_RATE = 1.0e3
_MIN_THRESHOLD = 1.0e-300


@dataclass(frozen=True)
class SamplePath:
    """A simulated trajectory on a regular grid plus its jump ledger."""

    grid_dt: float
    values: np.ndarray            # X at grid points, values[0] = 0
    jump_times: np.ndarray        # strictly increasing, within (0, horizon]
    jump_sizes: np.ndarray
    change_point: float           # inf allowed
    horizon: float
    model_digest: str = ""        # identity of the generating change model

    def __post_init__(self):
        n = grid_steps(self.horizon, self.grid_dt)
        if len(self.values) != n + 1:
            raise SpecValidationError(
                f"path length {len(self.values)} does not match horizon/grid_dt")
        if len(self.jump_times) != len(self.jump_sizes):
            raise SpecValidationError("jump ledger times and sizes differ in length")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.grid_dt


def grid_steps(horizon: float, dt: float, unit: int = 1) -> int:
    """The largest multiple of ``unit`` steps of width dt that fits in
    [0, horizon]: floor(horizon / dt) trimmed to whole units, where a
    horizon within 1e-9 of a step below a whole step counts that step
    (n * dt can represent as a hair above the horizon it was made from).
    Every horizon of the package turns into steps here, so no run goes
    past its horizon.

    Raises SpecValidationError, naming dt, unless it is a finite number > 0,
    and ContractError, naming the horizon, when horizon / dt is not a number
    below 2^63 (the count must fit an int64) or when not even ``unit`` steps
    fit."""
    if not 0.0 < dt < math.inf:
        raise SpecValidationError(f"step {dt!r} is not a finite number > 0")
    ratio = horizon / dt
    if not ratio < 2.0 ** 63:
        raise ContractError(
            f"horizon {horizon} is not a finite number of steps {dt} below 2^63")
    n = int(math.floor(ratio + 1e-9))
    n -= n % unit
    if n < unit:
        raise ContractError(f"horizon {horizon} is shorter than {unit} step(s) of {dt}")
    return n


def gamma_ledger_threshold(activity: float, scale: float) -> float:
    """Smallest recorded jump size for a gamma subordinator ledger.

    Chosen so the expected number of recorded jumps per unit time,
    activity * E1(eps/scale), stays within GAMMA_LEDGER_RATE; E1 is inverted by
    bisection on its monotone tail.
    """
    from scipy.special import exp1

    target = GAMMA_LEDGER_RATE / activity
    if exp1(_MIN_THRESHOLD / scale) <= target:
        return _MIN_THRESHOLD
    lo, hi = _MIN_THRESHOLD / scale, 100.0
    for _ in range(200):
        mid = math.sqrt(lo * hi) if lo > 0 else 0.5 * (lo + hi)
        if exp1(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi * scale


def _poisson_events(gen: np.random.Generator, rate: float, t0: float,
                    t1: float) -> np.ndarray:
    """Exact event times of a Poisson process on (t0, t1]: count then uniforms.

    Times use 1 - U with U in [0, 1), keeping events strictly after t0 so
    that no event can coincide with a change point at the piece boundary.
    """
    span = t1 - t0
    if span <= 0.0:
        return np.empty(0)
    n = gen.poisson(rate * span)
    if n == 0:
        return np.empty(0)
    return t0 + np.sort(1.0 - gen.random(n)) * span


def _gamma_step_jumps(gen: np.random.Generator, increment: float, shape: float,
                      threshold: float) -> np.ndarray:
    """Jumps above ``threshold`` inside one gamma increment.

    Conditional on the step increment G, the normalized jump sizes follow the
    stick-breaking law with Beta(1, shape) sticks, so drawing sticks until the
    remaining mass falls below the threshold yields an exact joint sample of
    (G, jumps > threshold).
    """
    out = []
    remaining = increment
    while remaining > threshold:
        frac = gen.beta(1.0, shape)
        jump = remaining * frac
        if jump > threshold:
            out.append(jump)
        remaining -= jump
    return np.asarray(out)


def _simulate_piece(gen: np.random.Generator, spec: LevySpec, k0: int, k1: int,
                    grid_dt: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Increments over grid steps k0 < k1 (times k0 * grid_dt to k1 * grid_dt)
    plus the jump ledger."""
    t0, t1, n = k0 * grid_dt, k1 * grid_dt, k1 - k0
    drift, nu = spec.linear_drift(), spec.jumps
    if nu is None or nu.finite_activity:
        if spec.sigma > 0.0:
            inc = gen.normal(drift * grid_dt, spec.sigma * math.sqrt(grid_dt), size=n)
        else:
            inc = np.full(n, drift * grid_dt)
        if nu is None:                   # Brownian: no jump measure
            return inc, np.empty(0), np.empty(0)
        times = _poisson_events(gen, nu.intensity, t0, t1)
        sizes = nu.law.jump_sizes(gen, len(times))
        # embed jumps exactly into the covering step increments
        idx = np.ceil((times - t0) / grid_dt - 1e-12).astype(int) - 1
        idx = np.clip(idx, 0, n - 1)
        np.add.at(inc, idx, sizes)
        return inc, times, sizes
    # gamma subordinator
    shape = nu.activity * grid_dt
    inc = gen.gamma(shape, nu.scale, size=n) + drift * grid_dt
    threshold = gamma_ledger_threshold(nu.activity, nu.scale)
    all_times, all_sizes = [], []
    for k in range(n):
        jumps = _gamma_step_jumps(gen, inc[k] - drift * grid_dt, shape, threshold)
        if len(jumps):
            t = t0 + k * grid_dt + np.sort(gen.random(len(jumps))) * grid_dt
            all_times.append(t)
            all_sizes.append(jumps[np.argsort(gen.random(len(jumps)))])
    if all_times:
        times = np.concatenate(all_times)
        sizes = np.concatenate(all_sizes)
    else:
        times, sizes = np.empty(0), np.empty(0)
    return inc, times, sizes


def sample_changed_path(model: ChangeModel, tau: float, horizon: float,
                        grid_dt: float, rng: RngStream) -> SamplePath:
    """Simulate one trajectory under the change-at-tau law on the
    :func:`grid_steps` whole steps of grid_dt that fit in the horizon (the
    path's ``horizon`` is their end).

    Pre-change increments up to tau (snapped to the grid), post-change after;
    the path is continuous at tau by construction (no jump is injected there).
    """
    n = grid_steps(horizon, grid_dt)
    if not tau >= 0.0:
        raise SpecValidationError(f"change point must be a number >= 0, got {tau!r}")
    horizon = n * grid_dt
    k = min(round(min(tau, horizon) / grid_dt), n)      # tau's step
    pieces = [(spec, k0, k1) for spec, k0, k1 in ((model.pre, 0, k), (model.post, k, n))
              if k0 < k1]

    gens = lease(rng.master_seed, range(rng.stream_id, rng.stream_id + 1), (rng.component,))
    try:
        gen = gens[rng.component][0]
        drawn = [_simulate_piece(gen, spec, k0, k1, grid_dt) for spec, k0, k1 in pieces]
    finally:
        give_back(gens)
    increments, jump_times, jump_sizes = (np.concatenate(parts) for parts in zip(*drawn))

    values = np.empty(n + 1)
    values[0] = 0.0
    np.cumsum(increments, out=values[1:])
    return SamplePath(grid_dt=grid_dt, values=values, jump_times=jump_times,
                      jump_sizes=jump_sizes,
                      change_point=math.inf if math.isinf(tau) else k * grid_dt,
                      horizon=horizon,
                      model_digest=model.digest())
