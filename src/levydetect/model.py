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

:func:`build_change_model` raises :class:`InadmissibleModelError` for a pair
that fails one of them; its ``violated`` is the COND_* constant of the failed
condition (volatility, jump-measure equivalence, jump integrability, drift).
So a :class:`ChangeModel` that exists is admissible, and no operation on one
checks again.

The catalogue is restricted to pairs whose density ratio is affine per
half-line, so ``phi``, the integrability integral, and the drift constants of
the log-likelihood process all have closed forms, and building a model runs no
quadrature; the jump measures of :mod:`levydetect.families` own theirs. The
quadrature cross-checks of those closed forms live in :mod:`levydetect.oracle`,
which no run imports.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import (
    InadmissibleModelError,
    SpecValidationError,
    SupportError,
    UnsupportedPairError,
)
from .families import LevySpec

__all__ = [
    "DensityRatio",
    "ChangeModel",
    "build_change_model",
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
    When both sides hold one piece, phi is that piece on the whole line, 0
    included.
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
            mask = x >= 0.0 if self.pos == self.neg else x > 0.0
            out[mask] = self.pos[0] + self.pos[1] * x[mask]
        if self.neg is not None:
            mask = x < 0.0
            out[mask] = self.neg[0] + self.neg[1] * x[mask]
        if np.isnan(out).any():
            bad = x[np.isnan(out)][0]
            raise SupportError(f"point {bad} lies outside the common jump support")
        return float(out[0]) if scalar else out

    @property
    def constant(self) -> Optional[float]:
        """phi's one value on the common support when it has one (its pieces
        are one and the same, with c1 = 0), else None."""
        pieces = {p for p in (self.pos, self.neg) if p is not None}
        if len(pieces) == 1 and (piece := pieces.pop())[1] == 0.0:
            return piece[0]
        return None


@dataclass(frozen=True)
class ChangeModel:
    """Admissible pre/post pair with the derived likelihood quantities, as
    :func:`build_change_model` returns it.

    ``alpha`` is the Brownian exposure of the log-likelihood process,
    ``comp_rate`` the jump compensator rate integral (e^phi - 1) dnu_pre,
    ``phi_mean_pre``/``phi_mean_post`` the integrals of phi against each
    nu_i, ``beta_pre``/``beta_post`` the mean drifts of the log-likelihood
    process before and after the change, and ``phi`` the jump density ratio
    (None when neither side jumps). The jump parts of the two drifts are

        phi_mean_pre  - comp_rate = - integral (e^phi - 1 - phi) dnu_pre  (< 0)
        phi_mean_post - comp_rate = integral (phi e^phi - e^phi + 1) dnu_pre  (> 0)

    and ``beta_pre``/``beta_post`` add the Brownian drift -+ alpha^2 sigma^2 / 2.
    """

    pre: LevySpec
    post: LevySpec
    alpha: float
    phi: Optional[DensityRatio]
    beta_pre: float
    beta_post: float
    comp_rate: float
    phi_mean_pre: float          # NaN when neither side jumps
    phi_mean_post: float
    integrability_value: float

    @property
    def sigma(self) -> float:
        return self.pre.sigma

    def require_admissible(self) -> None:
        """Does nothing: :func:`build_change_model` raises for an inadmissible
        pair, so every ChangeModel is admissible. Kept so that callers outside
        the package that still call it keep working."""

    def to_dict(self) -> dict:
        return {"pre": self.pre.to_dict(), "post": self.post.to_dict()}

    def digest(self) -> str:
        """Identity of the pair: a hash of :meth:`to_dict`, computed once,
        since the model and its specifications are frozen."""
        return self._digest

    @cached_property
    def _digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


# --------------------------------------------------------------------------- #
# public operations
# --------------------------------------------------------------------------- #

def build_change_model(pre: LevySpec, post: LevySpec) -> ChangeModel:
    """Check a pre/post pair for admissibility and derive the likelihood
    ingredients.

    Raises InadmissibleModelError, whose ``violated`` names the condition,
    when the pair fails one of the absolute-continuity conditions, and
    SpecValidationError / UnsupportedPairError for identical or
    out-of-catalogue pairs.
    """
    if pre == post:
        raise SpecValidationError("pre and post specifications are identical; "
                                  "there is no change to detect")

    # volatility condition
    if pre.sigma != post.sigma:
        raise InadmissibleModelError(
            f"Brownian volatilities differ ({pre.sigma} vs {post.sigma}); "
            "the path laws are singular", COND_VOLATILITY)

    # jump-measure equivalence and integrability
    nu0, nu1 = pre.jumps, post.jumps
    phi: Optional[DensityRatio] = None
    comp = mean_pre = mean_post = integ_value = 0.0
    if (nu0 is None) != (nu1 is None):
        raise InadmissibleModelError(
            "one side has a jump component and the other does not; "
            "the jump measures cannot be equivalent", COND_EQUIVALENCE)
    if nu0 is not None:
        if nu0.support != nu1.support:
            raise InadmissibleModelError(
                f"jump supports differ ({nu0.support} vs {nu1.support}); "
                "measures are not equivalent", COND_EQUIVALENCE)
        if nu0.finite_activity != nu1.finite_activity:
            raise InadmissibleModelError(
                "a finite jump measure against the gamma measure, whose density "
                "a e^(-x/theta)/x is not integrable near 0: the integral of "
                "(sqrt(dnu_post) - sqrt(dnu_pre))^2 diverges", COND_INTEGRABILITY)
        if nu0.kind != nu1.kind:
            raise UnsupportedPairError(
                f"jump kinds {nu0.kind!r} and {nu1.kind!r} share a support but their "
                "density ratio is not affine; pair is outside the catalogue")
        # each measure's closed forms against one of its own kind
        phi = DensityRatio(*nu0.phi_pieces(nu1))
        integ_value, comp = nu0.hellinger(nu1), nu0.compensator(nu1)
        mean_pre, mean_post = nu0.phi_mean(phi), nu1.phi_mean(phi)
        if math.isinf(integ_value):
            raise InadmissibleModelError(
                f"gamma activities differ ({nu0.activity} vs {nu1.activity}); "
                "the integral of (e^(phi/2)-1)^2 against the pre-change "
                "jump measure diverges", COND_INTEGRABILITY)

    # drift condition
    gap = post.drift_b - pre.drift_b - (post.jump_truncated_mean() - pre.jump_truncated_mean())
    sigma = pre.sigma
    if sigma > 0.0:
        alpha = gap / sigma ** 2
    else:
        tol = 1e-8 * max(1.0, abs(post.drift_b), abs(pre.drift_b))
        if abs(gap) > tol:
            raise InadmissibleModelError(
                f"drift gap {gap:.6g} cannot be absorbed with sigma = 0", COND_DRIFT)
        alpha = 0.0

    # total mean drift of the log-likelihood process: the Brownian exposure
    # contributes -+ alpha^2 sigma^2 / 2, the jump part (phi integrals) the rest
    bm_drift = 0.5 * alpha ** 2 * sigma ** 2
    return ChangeModel(pre=pre, post=post, alpha=alpha, phi=phi,
                       beta_pre=-bm_drift + (mean_pre - comp),
                       beta_post=bm_drift + (mean_post - comp),
                       comp_rate=comp,
                       phi_mean_pre=mean_pre if phi is not None else math.nan,
                       phi_mean_post=mean_post if phi is not None else math.nan,
                       integrability_value=integ_value)

