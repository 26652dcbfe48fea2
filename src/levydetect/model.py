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
quadrature. The quadrature twins at the end of the module import scipy lazily
and serve only as independent cross-checks of those closed forms.
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
# density ratio construction
# --------------------------------------------------------------------------- #

def _build_phi(pre: LevySpec, post: LevySpec) -> Tuple[Optional[DensityRatio], Optional[str]]:
    """Return (phi, violated-condition) for the jump parts.

    Raises UnsupportedPairError for equivalent pairs outside the affine
    catalogue (different jump kinds on a shared support, unequal Gaussian sd).
    """
    if pre.family == "gamma":
        a0, t0 = pre.activity, pre.scale
        a1, t1 = post.activity, post.scale
        c0 = math.log(a1 / a0)
        c1 = 1.0 / t0 - 1.0 / t1
        return DensityRatio(pos=(c0, c1)), None

    j0, j1 = pre.jumps, post.jumps
    lam0, lam1 = pre.intensity, post.intensity
    if j0.support != j1.support:
        return None, COND_EQUIVALENCE
    if j0.kind != j1.kind:
        raise UnsupportedPairError(
            f"jump kinds {j0.kind!r} and {j1.kind!r} share a support but their "
            "density ratio is not affine; pair is outside the catalogue")
    log_lam = math.log(lam1 / lam0)
    if j0.kind == "gaussian":
        if j0.sd != j1.sd:
            raise UnsupportedPairError(
                "gaussian jump pairs must share the sd (affine catalogue)")
        s2 = j0.sd ** 2
        c1 = (j1.mean - j0.mean) / s2
        c0 = log_lam + (j0.mean ** 2 - j1.mean ** 2) / (2.0 * s2)
        return DensityRatio(pos=(c0, c1), neg=(c0, c1)), None
    if j0.kind == "exponential":
        c0 = log_lam + math.log(j1.rate / j0.rate)
        c1 = j0.rate - j1.rate
        return DensityRatio(pos=(c0, c1)), None
    # two-sided exponential
    c0p = log_lam + math.log((j1.weight_pos * j1.rate_pos) / (j0.weight_pos * j0.rate_pos))
    c1p = j0.rate_pos - j1.rate_pos
    c0n = log_lam + math.log(((1.0 - j1.weight_pos) * j1.rate_neg)
                             / ((1.0 - j0.weight_pos) * j0.rate_neg))
    c1n = j1.rate_neg - j0.rate_neg
    return DensityRatio(pos=(c0p, c1p), neg=(c0n, c1n)), None


# --------------------------------------------------------------------------- #
# closed forms: integrability and the moments of phi
# --------------------------------------------------------------------------- #

def _exp_hellinger(c0: float, r0: float, c1: float, r1: float) -> float:
    """integral (sqrt(dnu_post) - sqrt(dnu_pre))^2 for nu_i = c_i Exp(r_i) on
    one half-line, written without cancellation between near-equal laws."""
    return ((math.sqrt(c1) - math.sqrt(c0)) ** 2
            + 2.0 * math.sqrt(c0 * c1) * (math.sqrt(r1) - math.sqrt(r0)) ** 2 / (r0 + r1))


def _integrability(pre: LevySpec, post: LevySpec) -> float:
    """Closed form of  integral (e^{phi/2} - 1)^2 dnu_pre
    = nu_pre(R) + nu_post(R) - 2 integral sqrt(dnu_pre dnu_post);
    ``math.inf`` when it diverges (gamma activities differ)."""
    if pre.family == "gamma":
        if pre.activity != post.activity:
            return math.inf
        p0, p1 = 1.0 / pre.scale, 1.0 / post.scale
        return pre.activity * math.log1p((p0 - p1) ** 2 / (4.0 * p0 * p1))
    lam0, lam1 = pre.intensity, post.intensity
    j0, j1 = pre.jumps, post.jumps
    if j0.kind == "gaussian":
        shift = (j1.mean - j0.mean) / j0.sd
        return ((math.sqrt(lam1) - math.sqrt(lam0)) ** 2
                - 2.0 * math.sqrt(lam0 * lam1) * math.expm1(-shift ** 2 / 8.0))
    if j0.kind == "exponential":
        return _exp_hellinger(lam0, j0.rate, lam1, j1.rate)
    w0, w1 = j0.weight_pos, j1.weight_pos
    return (_exp_hellinger(lam0 * w0, j0.rate_pos, lam1 * w1, j1.rate_pos)
            + _exp_hellinger(lam0 * (1.0 - w0), j0.rate_neg, lam1 * (1.0 - w1), j1.rate_neg))


def _phi_moments(pre: LevySpec, post: LevySpec, phi: DensityRatio) -> Tuple[float, float, float]:
    """Return (comp_rate, phi_mean_pre, phi_mean_post) in closed form.

    comp_rate   = integral (e^phi - 1) dnu_pre
    phi_mean_i  = integral phi dnu_i
    """
    if pre.family == "gamma":
        a, t0 = pre.activity, pre.scale
        t1 = post.scale
        c1 = phi.pos[1]
        comp = a * math.log(t1 / t0)          # Frullani integral
        return comp, c1 * a * t0, c1 * a * t1

    lam0, lam1 = pre.intensity, post.intensity
    comp = lam1 - lam0
    j0, j1 = pre.jumps, post.jumps

    def mean_under(spec_intensity, jump_law):
        if jump_law.kind == "gaussian":
            c0, c1 = phi.pos
            return spec_intensity * (c0 + c1 * jump_law.mean)
        if jump_law.kind == "exponential":
            c0, c1 = phi.pos
            return spec_intensity * (c0 + c1 / jump_law.rate)
        c0p, c1p = phi.pos
        c0n, c1n = phi.neg
        w = jump_law.weight_pos
        pos = w * (c0p + c1p / jump_law.rate_pos)
        neg = (1.0 - w) * (c0n - c1n / jump_law.rate_neg)
        return spec_intensity * (pos + neg)

    return comp, mean_under(lam0, j0), mean_under(lam1, j1)


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
    comp = 0.0
    mean_pre = 0.0
    mean_post = 0.0
    integ_value = 0.0
    if pre.has_jumps != post.has_jumps:
        return rejected(COND_EQUIVALENCE,
                        "one side has a jump component and the other does not; "
                        "the jump measures cannot be equivalent")
    if pre.has_jumps:
        phi, cond = _build_phi(pre, post)
        if cond is not None:
            return rejected(cond,
                            f"jump supports differ ({pre.jump_support()} vs "
                            f"{post.jump_support()}); measures are not equivalent")
        integ_value = _integrability(pre, post)
        if math.isinf(integ_value):
            return rejected(COND_INTEGRABILITY,
                            f"gamma activities differ ({pre.activity} vs {post.activity}); "
                            "the integral of (e^(phi/2)-1)^2 against the pre-change "
                            "jump measure diverges",
                            phi=phi, integrability_value=integ_value)
        comp, mean_pre, mean_post = _phi_moments(pre, post, phi)

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
