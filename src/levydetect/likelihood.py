"""Log-likelihood-ratio paths.

``llr_path`` turns a simulated trajectory into the log-likelihood-ratio
process U on the same grid. The Brownian exposure reads the continuous part
(grid increment minus ledger jumps), compound-Poisson jumps contribute
phi(jump) per ledger entry, and the gamma measure uses the affine closed
form in the full increment, so the sub-threshold jumps hidden from its ledger
still enter U exactly. Everything stays in the log domain; exp(U) is formed
only at reporting boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, SpecValidationError
from .model import ChangeModel
from .paths import SamplePath

__all__ = ["LLRPath", "llr_path"]


@dataclass(frozen=True)
class LLRPath:
    """The log-likelihood-ratio process on the simulation grid (U_0 = 0)."""

    grid_dt: float
    u_values: np.ndarray

    def __post_init__(self):
        if not len(self.u_values):
            raise SpecValidationError("log-likelihood path has no points")
        if self.u_values[0] != 0.0:
            raise SpecValidationError("log-likelihood path must start at 0")

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.u_values)) * self.grid_dt


def llr_path(model: ChangeModel, path: SamplePath) -> LLRPath:
    """Log-likelihood-ratio process of a trajectory under the change model."""
    if path.model_digest and path.model_digest != model.digest():
        raise ContractError("path was simulated under a different change model")

    t = path.times
    values = path.values
    if model.phi is not None and not model.pre.jumps.finite_activity:
        c1 = model.phi.pos[1]
        d0 = model.pre.linear_drift()
        u = c1 * (values - d0 * t) - model.comp_rate * t
    else:
        u = np.zeros_like(values)
        # cumulative jump sums aligned to grid points (jump at t_k counts at t_k)
        if len(path.jump_times):
            if model.phi is None:
                raise ContractError("path has jumps, and the model's laws have none")
            counts = np.searchsorted(path.jump_times, t, side="right")
            cum_phi = np.concatenate([[0.0], np.cumsum(model.phi(path.jump_sizes))])
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
    return LLRPath(grid_dt=path.grid_dt, u_values=u)
