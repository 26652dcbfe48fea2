"""Change models: a pre/post pair of Levy specifications plus the derived
likelihood ingredients.

A pair (pre, post) is *admissible* when the two path laws are mutually
absolutely continuous, which for Levy processes reduces to three checks:

1. equal Brownian volatilities;
2. equivalent jump measures whose log density ratio ``phi`` satisfies the
   square-integrability condition  integral (e^{phi/2} - 1)^2 dnu_pre < inf;
3. a drift gap that is carried entirely by the Brownian part, i.e.
   b_post - b_pre - integral_{|x|<=1} x (nu_post - nu_pre)(dx) = alpha * sigma^2
   for some real alpha, with alpha = 0 forced when sigma = 0.

The catalogue is restricted to pairs whose density ratio is affine per
half-line, so ``phi``, the integrability integral, and the drift constants of
the log-likelihood process all have closed forms, and building a model runs no
quadrature; the jump-size laws of :mod:`levydetect.families` own theirs. The
quadrature twins at the end of the module import scipy lazily and serve only
as independent cross-checks of those closed forms.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import (
    InadmissibleModelError,
    NumericalError,
    SpecValidationError,
    SupportError,
    UnsupportedPairError,
)
from .families import LevySpec

__all__ = [
    "DensityRatio",
    "ChangeModel",
    "build_change_model",
    "phi_eval",
    "drift_constants",
    "COND_VOLATILITY",
    "COND_EQUIVALENCE",
    "COND_INTEGRABILITY",
    "COND_DRIFT",
]

COND_VOLATILITY = "volatility-mismatch"
COND_EQUIVALENCE = "jump-measure-equivalence"
COND_INTEGRABILITY = "jump-integrability"
COND_DRIFT = "drift-incompatibility"


@dataclass(frozen=True)
class DensityRatio:
    """Piecewise-affine log density ratio of the two jump measures.

    ``pos`` and ``neg`` hold (c0, c1) with phi(x) = c0 + c1 * x on the
    respective half-line; a missing side means the common support excludes it.
    """

    pos: Optional[Tuple[float, float]] = None
    neg: Optional[Tuple[float, float]] = None

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.empty_like(x)
        out.fill(np.nan)
        if self.pos is not None:
            mask = x > 0.0
            out[mask] = self.pos[0] + self.pos[1] * x[mask]
        if self.neg is not None:
            mask = x < 0.0
            out[mask] = self.neg[0] + self.neg[1] * x[mask]
        if np.isnan(out).any():
            bad = x[np.isnan(out)][0]
            raise SupportError(f"point {bad} lies outside the common jump support")
        return float(out[0]) if scalar else out


@dataclass(frozen=True)
class ChangeModel:
    """Validated pre/post pair with the derived likelihood quantities.

    ``alpha`` is the Brownian exposure of the log-likelihood process,
    ``comp_rate`` the jump compensator rate integral (e^phi - 1) dnu_pre,
    ``beta_pre``/``beta_post`` the mean drifts of the log-likelihood process
    before and after the change, and ``phi`` the jump density ratio
    (None when neither side jumps).
    """

    pre: LevySpec
    post: LevySpec
    admissible: bool
    message: str = ""
    violated: Optional[str] = None
    alpha: float = math.nan
    phi: Optional[DensityRatio] = None
    beta_pre: float = math.nan
    beta_post: float = math.nan
    comp_rate: float = math.nan
    phi_mean_pre: float = math.nan
    phi_mean_post: float = math.nan
    integrability_value: float = math.nan

    @property
    def sigma(self) -> float:
        return self.pre.sigma

    @property
    def has_jumps(self) -> bool:
        return self.phi is not None

    def require_admissible(self) -> None:
        if not self.admissible:
            raise InadmissibleModelError(self.message)

    def to_dict(self) -> dict:
        return {"pre": self.pre.to_dict(), "post": self.post.to_dict()}

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]

    @classmethod
    def from_dict(cls, data: dict) -> "ChangeModel":
        return build_change_model(LevySpec.from_dict(data["pre"]),
                                  LevySpec.from_dict(data["post"]))


# --------------------------------------------------------------------------- #
# closed forms: phi, integrability and the moments of phi
# --------------------------------------------------------------------------- #

def _jump_closed_forms(pre: LevySpec, post: LevySpec) -> tuple:
    """(phi, integrability, comp_rate, phi_mean_pre, phi_mean_post) of two
    jump parts on one support: the integrals of (e^{phi/2} - 1)^2 (``inf``
    when gamma activities differ) and of e^phi - 1 against nu_pre, and of phi
    against each nu_i. Raises UnsupportedPairError outside the affine
    catalogue (different jump kinds, unequal Gaussian sd)."""
    if pre.family == "gamma":
        a, t0, t1 = pre.activity, pre.scale, post.scale
        p0, p1 = 1.0 / t0, 1.0 / t1
        c1 = p0 - p1
        integ = (a * math.log1p((p0 - p1) ** 2 / (4.0 * p0 * p1))
                 if a == post.activity else math.inf)
        return (DensityRatio(pos=(math.log(post.activity / a), c1)), integ,
                a * math.log(t1 / t0), c1 * a * t0, c1 * a * t1)   # comp: Frullani

    j0, j1 = pre.jumps, post.jumps
    if j0.kind != j1.kind:
        raise UnsupportedPairError(
            f"jump kinds {j0.kind!r} and {j1.kind!r} share a support but their "
            "density ratio is not affine; pair is outside the catalogue")
    lam0, lam1 = pre.intensity, post.intensity
    log_lam = math.log(lam1 / lam0)
    phi = DensityRatio(*((log_lam + c0, c1) for c0, c1 in j0.phi_pieces(j1)))
    return (phi, j0.hellinger(lam0, j1, lam1), lam1 - lam0,
            lam0 * j0.phi_mean(phi), lam1 * j1.phi_mean(phi))


# --------------------------------------------------------------------------- #
# quadrature twins (independent of the closed forms; used as cross-checks)
# --------------------------------------------------------------------------- #

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
                l = np.log(pre.levy_density(x))
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
    model.require_admissible()
    return _quad_over_support(model.pre, model.phi, lambda p, a, b: a - b)


def integrability_quadrature(model: ChangeModel) -> float:
    """Quadrature value of integral (e^{phi/2} - 1)^2 dnu_pre."""
    model.require_admissible()
    return _quad_over_support(model.pre, model.phi,
                              lambda p, a, b: a - 2.0 * np.sqrt(a * b) + b)


def truncated_moment_quadrature(spec: LevySpec) -> float:
    """Quadrature value of integral_{|x|<=1} x dnu(x) (cross-check)."""
    if not spec.has_jumps:
        return 0.0
    from scipy import integrate

    lo = 1e-12 if spec.family == "gamma" else 0.0
    pos, _ = integrate.quad(lambda x: x * float(spec.levy_density(x)), lo, 1.0, limit=200)
    neg = 0.0
    if spec.jump_support() in ("real", "two_sided"):
        neg, _ = integrate.quad(lambda x: x * float(spec.levy_density(x)), -1.0, 0.0, limit=200)
    return pos + neg


# --------------------------------------------------------------------------- #
# public operations
# --------------------------------------------------------------------------- #

def build_change_model(pre: LevySpec, post: LevySpec) -> ChangeModel:
    """Validate a pre/post pair and derive the likelihood ingredients.

    Returns an inadmissible ChangeModel (with the violated condition named)
    when the pair fails one of the absolute-continuity conditions; raises
    SpecValidationError / UnsupportedPairError for malformed or
    out-of-catalogue inputs.
    """
    pre.validate()
    post.validate()
    if pre == post:
        raise SpecValidationError("pre and post specifications are identical; "
                                  "there is no change to detect")

    groups = {"brownian": "bm-cp", "compound_poisson": "bm-cp",
              "jump_diffusion": "bm-cp", "gamma": "gamma"}
    if groups[pre.family] != groups[post.family]:
        raise UnsupportedPairError(
            f"families {pre.family!r} and {post.family!r} cannot be paired")

    def rejected(cond: str, msg: str, **extra) -> ChangeModel:
        return ChangeModel(pre=pre, post=post, admissible=False,
                           violated=cond, message=msg, **extra)

    # volatility condition
    if pre.sigma != post.sigma:
        return rejected(COND_VOLATILITY,
                        f"Brownian volatilities differ ({pre.sigma} vs {post.sigma}); "
                        "the path laws are singular")

    # jump-measure equivalence and integrability
    phi: Optional[DensityRatio] = None
    comp = mean_pre = mean_post = integ_value = 0.0
    if pre.has_jumps != post.has_jumps:
        return rejected(COND_EQUIVALENCE,
                        "one side has a jump component and the other does not; "
                        "the jump measures cannot be equivalent")
    if pre.has_jumps:
        if pre.jump_support() != post.jump_support():
            return rejected(COND_EQUIVALENCE,
                            f"jump supports differ ({pre.jump_support()} vs "
                            f"{post.jump_support()}); measures are not equivalent")
        phi, integ_value, comp, mean_pre, mean_post = _jump_closed_forms(pre, post)
        if math.isinf(integ_value):
            return rejected(COND_INTEGRABILITY,
                            f"gamma activities differ ({pre.activity} vs {post.activity}); "
                            "the integral of (e^(phi/2)-1)^2 against the pre-change "
                            "jump measure diverges",
                            phi=phi, integrability_value=integ_value)

    # drift condition
    gap = post.drift_b - pre.drift_b - (post.jump_truncated_mean() - pre.jump_truncated_mean())
    sigma = pre.sigma
    if sigma > 0.0:
        alpha = gap / sigma ** 2
    else:
        tol = 1e-8 * max(1.0, abs(post.drift_b), abs(pre.drift_b))
        if abs(gap) > tol:
            return rejected(COND_DRIFT,
                            f"drift gap {gap:.6g} cannot be absorbed with sigma = 0",
                            phi=phi, integrability_value=integ_value)
        alpha = 0.0

    # total mean drift of the log-likelihood process: the Brownian exposure
    # contributes -+ alpha^2 sigma^2 / 2, the jump part (phi integrals) the rest
    bm_drift = 0.5 * alpha ** 2 * sigma ** 2
    return ChangeModel(pre=pre, post=post, admissible=True,
                       message="admissible", alpha=alpha, phi=phi,
                       beta_pre=-bm_drift + (mean_pre - comp),
                       beta_post=bm_drift + (mean_post - comp),
                       comp_rate=comp,
                       phi_mean_pre=mean_pre if phi is not None else math.nan,
                       phi_mean_post=mean_post if phi is not None else math.nan,
                       integrability_value=integ_value)


def phi_eval(model: ChangeModel, x):
    """Log jump-measure density ratio at x (scalar or array)."""
    model.require_admissible()
    if model.phi is None:
        raise InadmissibleModelError("model has no jump component")
    return model.phi(x)


def drift_constants(model: ChangeModel, method: str = "closed") -> Tuple[float, float]:
    """Jump-part drifts of the log-likelihood process before and after the change:

        beta_pre  = - integral (e^phi - 1 - phi) dnu_pre        (< 0)
        beta_post = beta_pre + integral phi (e^phi - 1) dnu_pre (> 0)

    ``method='closed'`` uses the stored phi moments; ``method='quadrature'``
    recomputes both integrals numerically (raises NumericalError if the
    quadrature residual is too large). The ``beta_pre``/``beta_post`` fields on
    the model additionally include the Brownian drift -+ alpha^2 sigma^2 / 2.
    """
    model.require_admissible()
    if model.phi is None:
        raise InadmissibleModelError("drift constants require a jump component")
    if method == "closed":
        return (model.phi_mean_pre - model.comp_rate,
                model.phi_mean_post - model.comp_rate)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    pre, phi = model.pre, model.phi
    beta_pre = -_quad_over_support(pre, phi, lambda p, a, b: a - b - p * b)
    beta_post = beta_pre + _quad_over_support(pre, phi, lambda p, a, b: p * (a - b))
    return beta_pre, beta_post
