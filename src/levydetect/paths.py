"""Path simulation with an explicit jump ledger.

A trajectory switches from the pre-change to the post-change law at the
change point tau (snapped to the simulation grid; tau = inf means no change).
Brownian parts are sampled exactly at grid points, compound-Poisson jumps at
exact event times, and gamma subordinator increments from their exact marginal
law per step. For the gamma family the ledger records only jumps above a
truncation threshold; the jumps hidden below it are recovered exactly in
distribution through a stick-breaking decomposition of each step increment,
so the ledger always sums to at most the step increment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import AlignmentError, SpecValidationError
from .families import LevySpec
from .model import ChangeModel
from .rng import RngStream

__all__ = [
    "SamplePath",
    "IncrementSeries",
    "sample_changed_path",
    "restrict_to_grid",
    "gamma_ledger_threshold",
]

# Ledger budget for the gamma family: expected recorded jumps per unit time.
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
    stream: Tuple[int, int] = (0, 0)   # (master_seed, stream_id) that built it

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

    @property
    def n_steps(self) -> int:
        return len(self.values) - 1


@dataclass(frozen=True)
class IncrementSeries:
    """Increments of a path over an equispaced coarse grid."""

    delta: float
    values: np.ndarray            # increments, one per coarse step


def _stride_of(delta: float, grid_dt: float) -> int:
    k = delta / grid_dt
    stride = int(round(k))
    if stride < 1 or abs(k - stride) > 1e-9 * max(1.0, abs(k)):
        raise AlignmentError(
            f"delta {delta} is not an integer multiple of grid_dt {grid_dt}")
    return stride


def grid_steps(horizon: float, grid_dt: float) -> int:
    """Number of whole grid steps covering [0, horizon] (floor, with an
    epsilon guard against n*dt representing as a hair above horizon)."""
    return int(math.floor(horizon / grid_dt + 1e-9))


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


def _simulate_piece(gen: np.random.Generator, spec: LevySpec, t0: float, t1: float,
                    grid_dt: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Increments over grid steps spanning [t0, t1] plus the jump ledger."""
    n = int(round((t1 - t0) / grid_dt))
    if n == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    drift = spec.linear_drift()
    if spec.family == "brownian":
        inc = gen.normal(drift * grid_dt, spec.sigma * math.sqrt(grid_dt), size=n)
        return inc, np.empty(0), np.empty(0)
    if spec.family in ("compound_poisson", "jump_diffusion"):
        if spec.sigma > 0.0:
            inc = gen.normal(drift * grid_dt, spec.sigma * math.sqrt(grid_dt), size=n)
        else:
            inc = np.full(n, drift * grid_dt)
        times = _poisson_events(gen, spec.intensity, t0, t1)
        sizes = spec.jumps.jump_sizes(gen, len(times))
        # embed jumps exactly into the covering step increments
        idx = np.ceil((times - t0) / grid_dt - 1e-12).astype(int) - 1
        idx = np.clip(idx, 0, n - 1)
        np.add.at(inc, idx, sizes)
        return inc, times, sizes
    # gamma subordinator
    shape = spec.activity * grid_dt
    inc = gen.gamma(shape, spec.scale, size=n) + drift * grid_dt
    threshold = gamma_ledger_threshold(spec.activity, spec.scale)
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
    """Simulate one trajectory under the change-at-tau law.

    Pre-change increments up to tau (snapped to the grid), post-change after;
    the path is continuous at tau by construction (no jump is injected there).
    """
    model.require_admissible()
    if grid_dt <= 0.0:
        raise SpecValidationError("grid_dt must be positive")
    if horizon < grid_dt:
        raise SpecValidationError("horizon must cover at least one step")
    if tau < 0.0:
        raise SpecValidationError("change point must be nonnegative")
    n = grid_steps(horizon, grid_dt)
    horizon = n * grid_dt
    gen = rng.generator()
    tau_t = (math.inf if math.isinf(tau)
             else min(round(min(tau, horizon) / grid_dt), n) * grid_dt)

    pieces = []
    if math.isinf(tau_t):
        pieces.append((model.pre, 0.0, horizon))
    else:
        if tau_t > 0.0:
            pieces.append((model.pre, 0.0, tau_t))
        if tau_t < horizon:
            pieces.append((model.post, tau_t, horizon))

    incs, times, sizes = [], [], []
    for spec, t0, t1 in pieces:
        inc, jt, js = _simulate_piece(gen, spec, t0, t1, grid_dt)
        incs.append(inc)
        times.append(jt)
        sizes.append(js)
    increments = np.concatenate(incs) if incs else np.empty(0)
    jump_times = np.concatenate(times) if times else np.empty(0)
    jump_sizes = np.concatenate(sizes) if sizes else np.empty(0)

    values = np.empty(n + 1)
    values[0] = 0.0
    np.cumsum(increments, out=values[1:])
    return SamplePath(grid_dt=grid_dt, values=values, jump_times=jump_times,
                      jump_sizes=jump_sizes,
                      change_point=tau_t, horizon=horizon,
                      model_digest=model.digest(),
                      stream=(rng.master_seed, rng.stream_id))


def restrict_to_grid(path: SamplePath, delta: float) -> IncrementSeries:
    """Increments of the path over an equispaced coarse grid.

    The coarse step must be an integer multiple of the simulation step; no
    interpolation is ever performed.
    """
    stride = _stride_of(delta, path.grid_dt)
    coarse = path.values[::stride]
    return IncrementSeries(delta=stride * path.grid_dt, values=np.diff(coarse))
