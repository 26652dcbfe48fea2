"""Log-likelihood-ratio paths and per-increment log-likelihoods.

``llr_path`` turns a simulated trajectory into the log-likelihood-ratio
process U on the same grid. The Brownian exposure reads the continuous part
(grid increment minus ledger jumps), compound-Poisson jumps contribute
phi(jump) per ledger entry, and the gamma subordinator uses the affine closed
form in the full increment, so the sub-threshold jumps hidden from its ledger
still enter U exactly. Everything stays in the log domain; exp(U) is formed
only at reporting boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .engine import sample_u_increments
from .errors import ContractError, SpecValidationError
from .model import ChangeModel
from .paths import SamplePath
from .report import EvalReport, Provenance
from .rng import RngStream

__all__ = [
    "LLRPath",
    "llr_path",
    "GaussianIncrements",
    "PoissonCounts",
    "IncrementLaw",
    "llr_increment_iid",
    "martingale_check",
]


@dataclass(frozen=True)
class LLRPath:
    """The log-likelihood-ratio process on the simulation grid (U_0 = 0)."""

    grid_dt: float
    u_values: np.ndarray
    source_change_point: float = math.inf
    source_horizon: float = math.nan
    source_stream: Tuple[int, int] = (0, 0)
    model_digest: str = ""

    def __post_init__(self):
        if self.u_values[0] != 0.0:
            raise SpecValidationError("log-likelihood path must start at 0")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.u_values)) * self.grid_dt


def llr_path(model: ChangeModel, path: SamplePath) -> LLRPath:
    """Log-likelihood-ratio process of a trajectory under the change model."""
    model.require_admissible()
    if path.model_digest and path.model_digest != model.digest():
        raise ContractError("path was simulated under a different change model")

    t = path.times
    values = path.values
    if model.pre.family == "gamma":
        c1 = model.phi.pos[1]
        d0 = model.pre.linear_drift()
        u = c1 * (values - d0 * t) - model.comp_rate * t
    else:
        u = np.zeros_like(values)
        # cumulative jump sums aligned to grid points (jump at t_k counts at t_k)
        if len(path.jump_times):
            counts = np.searchsorted(path.jump_times, t, side="right")
            cum_phi = np.concatenate([[0.0], np.cumsum(model.phi(path.jump_sizes))]) \
                if model.phi is not None else np.zeros(len(path.jump_times) + 1)
            cum_size = np.concatenate([[0.0], np.cumsum(path.jump_sizes)])
            jump_phi = cum_phi[counts]
            jump_mass = cum_size[counts]
        else:
            jump_phi = np.zeros_like(values)
            jump_mass = np.zeros_like(values)

        alpha, sigma = model.alpha, model.sigma
        if alpha != 0.0 and sigma > 0.0:
            d0 = model.pre.linear_drift()
            u += alpha * (values - jump_mass - d0 * t) - 0.5 * (alpha * sigma) ** 2 * t
        if model.phi is not None:
            u += jump_phi - model.comp_rate * t
    u[0] = 0.0
    return LLRPath(grid_dt=path.grid_dt, u_values=u,
                   source_change_point=path.change_point,
                   source_horizon=path.horizon,
                   source_stream=path.stream,
                   model_digest=model.digest())


# --------------------------------------------------------------------------- #
# i.i.d. increment laws for the discrete-time engine
# --------------------------------------------------------------------------- #

@dataclass(frozen=True)
class GaussianIncrements:
    mean: float
    sd: float
    kind = "gaussian"


@dataclass(frozen=True)
class PoissonCounts:
    rate: float
    kind = "poisson"


IncrementLaw = Union[GaussianIncrements, PoissonCounts]


def llr_increment_iid(q0: IncrementLaw, q1: IncrementLaw, x):
    """log dQ1/dQ0 at x for equivalent parametric increment laws.

    Supported pairs: Gaussians with a common sd, and Poisson counts.
    """
    if q0.kind != q1.kind:
        raise SpecValidationError(
            f"increment laws {q0.kind!r} and {q1.kind!r} are not equivalent here")
    x = np.asarray(x, dtype=float)
    if q0.kind == "gaussian":
        if q0.sd != q1.sd:
            raise SpecValidationError("gaussian increment laws must share the sd")
        if not (q0.sd > 0.0):
            raise SpecValidationError("gaussian sd must be positive")
        s2 = q0.sd ** 2
        out = (q1.mean - q0.mean) / s2 * (x - 0.5 * (q0.mean + q1.mean))
    else:
        if not (q0.rate > 0.0 and q1.rate > 0.0):
            raise SpecValidationError("poisson rates must be positive")
        out = x * math.log(q1.rate / q0.rate) - (q1.rate - q0.rate)
    return float(out) if out.ndim == 0 else out


def martingale_check(model: ChangeModel, delta: float, n_rep: int,
                     rng: RngStream) -> EvalReport:
    """Monte Carlo estimate of the pre-change mean of exp(U_delta).

    The estimate should sit within a few standard errors of 1; use
    ``report.within(1.0)`` for the 3-SE test.
    """
    model.require_admissible()
    u = sample_u_increments(model, "pre", delta, n_rep, rng)
    vals = np.exp(u)
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_rep))
    prov = Provenance(master_seed=rng.master_seed, grid_dt=delta, delta=delta,
                      rule="martingale", model_digest=model.digest(),
                      regime="pre", stream_block=rng.stream_id)
    return EvalReport(estimate=est, std_error=se, n_rep=n_rep, n_censored=0,
                      horizon=delta, provenance=prov, label="martingale")
