"""Independent cross-checks for tests and acceptance checks: quadrature of
the closed forms in :mod:`levydetect.model`, and the Brownian grid CUSUM's
run lengths in closed form. No run imports this module, and scipy is
imported only when a quadrature is called.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .errors import NumericalError
from .families import LevySpec
from .model import ChangeModel, DensityRatio

__all__ = [
    "comp_rate_quadrature",
    "integrability_quadrature",
    "truncated_moment_quadrature",
    "drift_constants_quadrature",
    "brownian_grid_cusum_arl",
]

# -zeta(1/2) / sqrt(2 pi): the mean overshoot of a driftless Gaussian walk
# over a far barrier, in standard deviations of its step
RHO = 1.4603545088095868 / math.sqrt(2.0 * math.pi)


def _quad_over_support(pre: LevySpec, phi: DensityRatio, combine) -> float:
    """Integrate combine(phi, e^phi dnu_pre, dnu_pre) over the common support.

    ``combine(p, a, b)`` receives the log ratio p, the tilted density
    a = e^p * (pre density), and the raw density b, all evaluated stably.
    """
    from scipy import integrate

    total = 0.0
    for sign, piece in ((1.0, phi.pos), (-1.0, phi.neg)):
        if piece is None:
            continue

        def g(u):
            x = sign * u
            p = phi(x)
            with np.errstate(divide="ignore"):
                l = np.log(pre.jumps.density(x))
            return combine(p, np.exp(p + l), np.exp(l))

        inner, inner_err = integrate.quad(g, 1e-12, 1.0, limit=200)
        tail, tail_err = integrate.quad(g, 1.0, np.inf, limit=200)
        if inner_err + tail_err > 1e-6 * max(1.0, abs(inner + tail)):
            raise NumericalError(
                f"quadrature residual {inner_err + tail_err:.3e} too large")
        total += inner + tail
    return total


def comp_rate_quadrature(model: ChangeModel) -> float:
    """Quadrature value of integral (e^phi - 1) dnu_pre."""
    return _quad_over_support(model.pre, model.phi, lambda p, a, b: a - b)


def integrability_quadrature(model: ChangeModel) -> float:
    """Quadrature value of integral (e^{phi/2} - 1)^2 dnu_pre."""
    return _quad_over_support(model.pre, model.phi,
                              lambda p, a, b: a - 2.0 * np.sqrt(a * b) + b)


def truncated_moment_quadrature(spec: LevySpec) -> float:
    """Quadrature value of integral_{|x|<=1} x dnu(x)."""
    if (nu := spec.jumps) is None:
        return 0.0
    from scipy import integrate

    lo = 0.0 if nu.finite_activity else 1e-12
    pos, _ = integrate.quad(lambda x: x * float(nu.density(x)), lo, 1.0, limit=200)
    neg = 0.0
    if nu.support in ("real", "two_sided"):
        neg, _ = integrate.quad(lambda x: x * float(nu.density(x)), -1.0, 0.0, limit=200)
    return pos + neg


def drift_constants_quadrature(model: ChangeModel) -> Tuple[float, float]:
    """Quadrature values of a model's jump-part drifts ``phi_mean_pre -
    comp_rate`` and ``phi_mean_post - comp_rate``: -integral (e^phi - 1 - phi)
    dnu_pre, and that plus integral phi (e^phi - 1) dnu_pre."""
    pre, phi = model.pre, model.phi
    beta_pre = -_quad_over_support(pre, phi, lambda p, a, b: a - b - p * b)
    beta_post = beta_pre + _quad_over_support(pre, phi, lambda p, a, b: p * (a - b))
    return beta_pre, beta_post


def brownian_grid_cusum_arl(log_barrier: float, delta: float) -> Tuple[float, float]:
    """In- and out-of-control ARL (time units) of the CUSUM sampled every
    ``delta`` on a Brownian pair whose drifts differ by one volatility: the
    continuous forms at h' = h + 2 rho sqrt(delta) (Siegmund's corrected
    diffusion; Sequential Analysis, 1985, ch. X)."""
    h = log_barrier + 2.0 * RHO * math.sqrt(delta)
    return 2.0 * (math.exp(h) - h - 1.0), 2.0 * (math.exp(-h) + h - 1.0)
