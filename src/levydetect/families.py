"""Parametric Levy process families.

A process is described by its Brownian volatility ``sigma``, its drift ``b``
under the usual |x| <= 1 truncation convention, and a jump part. Four families
are supported:

* ``brownian``        -- sigma > 0, no jumps
* ``compound_poisson``-- finite-activity jumps, sigma = 0
* ``jump_diffusion``  -- Brownian part plus compound-Poisson jumps
* ``gamma``           -- gamma subordinator (infinite activity, pure jump)

Compound-Poisson jump sizes come from one of three parametric laws
(:class:`GaussianJumps`, :class:`ExponentialJumps`,
:class:`TwoSidedExponentialJumps`); these are exactly the laws whose
jump-measure density ratios are affine per half-line, so every downstream
likelihood object has a closed form. Each law owns its closed forms against
a law of its own kind: the pieces (c0, c1) of phi = c0 + c1 * x per side,
positive side first, without the log-intensity term (``phi_pieces``); the
Hellinger integral at two intensities; the phi-mean; per side the (weight,
c0, marks) triple of one step's phi-sum (``step_sides``); and ledger jump
sizes. ``phi`` arguments are the pair's density ratio, whose ``pos``/``neg``
pieces include the log-intensity term.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace
from typing import Optional, Union

import numpy as np

from .errors import SpecValidationError, UnsupportedPairError

__all__ = [
    "GaussianJumps",
    "ExponentialJumps",
    "TwoSidedExponentialJumps",
    "JumpLaw",
    "LevySpec",
    "reject_unknown_keys",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _std_normal_pdf(z):
    return np.exp(-z ** 2 / 2.0) / _SQRT_2PI


@dataclass(frozen=True)
class GaussianJumps:
    """Jump sizes drawn from N(mean, sd^2), supported on the whole line."""

    mean: float
    sd: float

    kind = "gaussian"
    support = "real"

    def validate(self) -> None:
        if not (self.sd > 0.0) or not math.isfinite(self.sd):
            raise SpecValidationError(f"gaussian jump sd must be positive, got {self.sd}")
        if not math.isfinite(self.mean):
            raise SpecValidationError("gaussian jump mean must be finite")

    def density(self, x):
        return _std_normal_pdf((np.asarray(x, dtype=float) - self.mean) / self.sd) / self.sd

    def truncated_mean(self) -> float:
        """E[X 1{|X| <= 1}] in closed form via the standard normal cdf/pdf."""
        a = (-1.0 - self.mean) / self.sd
        b = (1.0 - self.mean) / self.sd
        mass = 0.5 * (math.erfc(-b / math.sqrt(2.0)) - math.erfc(-a / math.sqrt(2.0)))
        return self.mean * mass - self.sd * (_std_normal_pdf(b) - _std_normal_pdf(a))

    def phi_pieces(self, other: "GaussianJumps") -> list:
        """One affine piece on both half-lines; only a mean shift is affine."""
        if self.sd != other.sd:
            raise UnsupportedPairError(
                "gaussian jump pairs must share the sd (affine catalogue)")
        s2 = self.sd ** 2
        piece = ((self.mean ** 2 - other.mean ** 2) / (2.0 * s2),
                 (other.mean - self.mean) / s2)
        return [piece, piece]

    def hellinger(self, lam: float, other: "GaussianJumps", other_lam: float) -> float:
        """(sqrt(lam1) - sqrt(lam0))^2 + 2 sqrt(lam0 lam1) (1 - e^{-shift^2/8})."""
        shift = (other.mean - self.mean) / self.sd
        return ((math.sqrt(other_lam) - math.sqrt(lam)) ** 2
                - 2.0 * math.sqrt(lam * other_lam) * math.expm1(-shift ** 2 / 8.0))

    def phi_mean(self, phi) -> float:
        c0, c1 = phi.pos
        return c0 + c1 * self.mean

    def step_sides(self, phi) -> list:
        """The c1 part of n marks' phi-sum is c1 times an N(mean n, sd^2 n) draw."""
        (c0, c1), mean, sd = phi.pos, self.mean, self.sd
        return [(1.0, c0, lambda gen, n: c1 * (
            mean * n + sd * np.sqrt(n) * gen.standard_normal(n.size)))]

    def jump_sizes(self, gen: np.random.Generator, n: int) -> np.ndarray:
        return gen.normal(self.mean, self.sd, size=n)


def _exp_hellinger(c0: float, r0: float, c1: float, r1: float) -> float:
    """integral (sqrt(dnu_post) - sqrt(dnu_pre))^2 for nu_i = c_i Exp(r_i) on
    one half-line, written without cancellation between near-equal laws."""
    return ((math.sqrt(c1) - math.sqrt(c0)) ** 2
            + 2.0 * math.sqrt(c0 * c1) * (math.sqrt(r1) - math.sqrt(r0)) ** 2 / (r0 + r1))


class _ExponentialSides:
    """The closed forms of a law with an Exp(rate) magnitude on each side it
    charges. ``sides`` holds one (sign, weight, rate) per side, the positive
    side first; the exponential law is the single side (1.0, 1.0, rate)."""

    def density(self, x):
        x = np.asarray(x, dtype=float)
        out = 0.0
        for sign, weight, rate in self.sides:
            out = np.where(sign * x > 0.0, weight * rate * np.exp(-rate * np.abs(x)), out)
        return out

    def truncated_mean(self) -> float:
        def one_sided(rate: float) -> float:      # E[X 1{X <= 1}], X ~ Exp(rate)
            return (1.0 - math.exp(-rate) * (1.0 + rate)) / rate

        return sum(sign * (weight * one_sided(rate)) for sign, weight, rate in self.sides)

    def phi_pieces(self, other) -> list:
        return [(math.log((w1 * r1) / (w0 * r0)), s * r0 - s * r1)
                for (s, w0, r0), (_, w1, r1) in zip(self.sides, other.sides)]

    def hellinger(self, lam: float, other, other_lam: float) -> float:
        return sum(_exp_hellinger(lam * w0, r0, other_lam * w1, r1)
                   for (_, w0, r0), (_, w1, r1) in zip(self.sides, other.sides))

    def phi_mean(self, phi) -> float:
        return sum(w * (c0 + s * c1 / r)
                   for (s, w, r), (c0, c1) in zip(self.sides, (phi.pos, phi.neg)))

    def step_sides(self, phi) -> list:
        """A sum of n Exp(rate) marks is a Gamma(n) draw over the rate."""
        def gamma_sum(scale: float):
            return lambda gen, n: scale * gen.standard_gamma(n)

        return [(w, c0, gamma_sum(s * (c1 / r)))
                for (s, w, r), (c0, c1) in zip(self.sides, (phi.pos, phi.neg))]

    def jump_sizes(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """A side by weight (drawn only when there are two), then a magnitude."""
        up = gen.random(n) < self.sides[0][1] if len(self.sides) > 1 else True
        mags = [sign * gen.exponential(1.0 / rate, size=n) for sign, _, rate in self.sides]
        return np.where(up, mags[0], mags[-1])


@dataclass(frozen=True)
class ExponentialJumps(_ExponentialSides):
    """Jump sizes Exp(rate), supported on (0, inf)."""

    rate: float

    kind = "exponential"
    support = "positive"

    def validate(self) -> None:
        if not (self.rate > 0.0) or not math.isfinite(self.rate):
            raise SpecValidationError(f"exponential jump rate must be positive, got {self.rate}")

    @property
    def sides(self) -> tuple:
        return ((1.0, 1.0, self.rate),)


@dataclass(frozen=True)
class TwoSidedExponentialJumps(_ExponentialSides):
    """Mixture of an Exp(rate_pos) jump up (weight_pos) and an Exp(rate_neg) jump down."""

    rate_pos: float
    rate_neg: float
    weight_pos: float

    kind = "two_sided_exponential"
    support = "two_sided"

    def validate(self) -> None:
        if not (self.rate_pos > 0.0 and self.rate_neg > 0.0):
            raise SpecValidationError("two-sided exponential rates must be positive")
        if not (0.0 < self.weight_pos < 1.0):
            raise SpecValidationError(
                f"two-sided exponential weight must lie in (0, 1), got {self.weight_pos}")

    @property
    def sides(self) -> tuple:
        return ((1.0, self.weight_pos, self.rate_pos),
                (-1.0, 1.0 - self.weight_pos, self.rate_neg))


JumpLaw = Union[GaussianJumps, ExponentialJumps, TwoSidedExponentialJumps]


@dataclass(frozen=True)
class LevySpec:
    """One process: volatility, truncation-convention drift, and jump block.

    ``drift_b`` is the drift relative to the |x| <= 1 truncation, so the
    observable linear drift of a finite-variation path is
    ``drift_b - integral of x over |x| <= 1 against the jump measure``
    (see :meth:`linear_drift`).
    """

    family: str
    sigma: float = 0.0
    drift_b: float = 0.0
    intensity: Optional[float] = None       # compound-Poisson jump rate
    jumps: Optional[JumpLaw] = None
    activity: Optional[float] = None        # gamma subordinator activity a
    scale: Optional[float] = None           # gamma subordinator scale theta

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def brownian(cls, sigma: float, drift: float = 0.0) -> "LevySpec":
        return cls(family="brownian", sigma=float(sigma), drift_b=float(drift))

    @classmethod
    def compound_poisson(cls, intensity: float, jumps: JumpLaw,
                         drift: float = 0.0) -> "LevySpec":
        return cls(family="compound_poisson", sigma=0.0, drift_b=float(drift),
                   intensity=float(intensity), jumps=jumps)

    @classmethod
    def jump_diffusion(cls, sigma: float, intensity: float, jumps: JumpLaw,
                       drift: float = 0.0) -> "LevySpec":
        return cls(family="jump_diffusion", sigma=float(sigma), drift_b=float(drift),
                   intensity=float(intensity), jumps=jumps)

    @classmethod
    def gamma_subordinator(cls, activity: float, scale: float,
                           drift: Optional[float] = None) -> "LevySpec":
        """Gamma subordinator; ``drift=None`` means a pure subordinator.

        The pure subordinator has zero linear drift, i.e. its
        truncation-convention drift equals the small-jump first moment
        a * theta * (1 - exp(-1/theta)).
        """
        a = float(activity)
        theta = float(scale)
        if drift is None:
            if a > 0.0 and theta > 0.0:
                drift = a * theta * (1.0 - math.exp(-1.0 / theta))
            else:
                drift = 0.0
        return cls(family="gamma", sigma=0.0, drift_b=float(drift),
                   activity=a, scale=theta)

    # ------------------------------------------------------------------ #
    # validation and derived quantities
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        if self.family not in ("brownian", "compound_poisson", "jump_diffusion", "gamma"):
            raise SpecValidationError(f"unknown family {self.family!r}")
        if self.sigma < 0.0 or not math.isfinite(self.sigma):
            raise SpecValidationError(f"sigma must be nonnegative, got {self.sigma}")
        if not math.isfinite(self.drift_b):
            raise SpecValidationError("drift must be finite")
        if self.family == "brownian":
            if self.sigma <= 0.0:
                raise SpecValidationError("brownian family needs sigma > 0")
            if self.intensity is not None or self.jumps is not None:
                raise SpecValidationError("brownian family carries no jump block")
        if self.family in ("compound_poisson", "jump_diffusion"):
            if self.intensity is None or not (self.intensity > 0.0):
                raise SpecValidationError(
                    f"jump intensity must be positive, got {self.intensity}")
            if self.jumps is None:
                raise SpecValidationError("jump size law is required")
            self.jumps.validate()
            if self.family == "compound_poisson" and self.sigma != 0.0:
                raise SpecValidationError(
                    "compound_poisson has sigma = 0; use jump_diffusion for sigma > 0")
        if self.family == "gamma":
            if self.sigma != 0.0:
                raise SpecValidationError("gamma subordinator is pure jump (sigma = 0)")
            if self.activity is None or not (self.activity > 0.0):
                raise SpecValidationError(f"gamma activity must be positive, got {self.activity}")
            if self.scale is None or not (self.scale > 0.0):
                raise SpecValidationError(f"gamma scale must be positive, got {self.scale}")

    @property
    def has_jumps(self) -> bool:
        return self.family in ("compound_poisson", "jump_diffusion", "gamma")

    def jump_truncated_mean(self) -> float:
        """Closed form of the |x| <= 1 first moment of the jump measure."""
        if self.family in ("compound_poisson", "jump_diffusion"):
            return self.intensity * self.jumps.truncated_mean()
        if self.family == "gamma":
            a, theta = self.activity, self.scale
            return a * theta * (1.0 - math.exp(-1.0 / theta))
        return 0.0

    def linear_drift(self) -> float:
        """Drift of the path once jumps are taken raw (finite-variation form).

        For the Brownian family this is just ``drift_b``; for jump families it
        is ``drift_b`` minus the truncated first moment of the jump measure.
        """
        if self.family == "brownian":
            return self.drift_b
        return self.drift_b - self.jump_truncated_mean()

    def levy_density(self, x):
        """Jump-measure density at x (intensity-weighted for finite activity)."""
        x = np.asarray(x, dtype=float)
        if self.family in ("compound_poisson", "jump_diffusion"):
            return self.intensity * self.jumps.density(x)
        if self.family == "gamma":
            a, theta = self.activity, self.scale
            safe = np.where(x > 0.0, x, 1.0)
            return np.where(x > 0.0, a * np.exp(-safe / theta) / safe, 0.0)
        return np.zeros_like(x)

    def jump_support(self) -> str:
        """Support label of the jump measure: real / positive / two_sided / none."""
        if self.family == "gamma":
            return "positive"
        if self.jumps is not None:
            return self.jumps.support
        return "none"

    # ------------------------------------------------------------------ #
    # serialization (consumed by the CLI config layer)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        out: dict = {"family": self.family, "sigma": self.sigma, "drift": self.drift_b}
        if self.family in ("compound_poisson", "jump_diffusion"):
            out.update(intensity=self.intensity,
                       jumps={"kind": self.jumps.kind, **asdict(self.jumps)})
        if self.family == "gamma":
            out.update(activity=self.activity, scale=self.scale)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "LevySpec":
        """Read a process block; every family reads ``sigma`` and ``drift``,
        so a nonzero sigma on a pure-jump family is rejected, not dropped."""
        if not isinstance(data, dict):
            raise SpecValidationError(f"process block must be a JSON object, got {data!r}")
        if "family" not in data:
            raise SpecValidationError("process block needs a 'family' key")
        family = data["family"]
        if not isinstance(family, str) or family not in _FAMILY_KEYS:
            raise SpecValidationError(f"unknown family {family!r}")
        reject_unknown_keys(data, ("family", "sigma", "drift", *_FAMILY_KEYS[family]))
        sigma = _number(data, "sigma", 1.0 if family == "brownian" else 0.0)
        drift = _number(data, "drift", None if family == "gamma" else 0.0)
        if family == "brownian":
            spec = cls.brownian(sigma, drift)
        elif family == "gamma":
            spec = cls.gamma_subordinator(activity=_number(data, "activity", 0.0),
                                          scale=_number(data, "scale", 0.0), drift=drift)
        else:
            spec = cls.jump_diffusion(sigma, _number(data, "intensity", 0.0),
                                      _jump_law_from_dict(data.get("jumps")), drift)
        # the family and sigma as written, so validate() sees a sigma the family cannot carry
        spec = replace(spec, family=family, sigma=sigma)
        spec.validate()
        return spec


# the keys each family reads besides family, sigma and drift
_FAMILY_KEYS = {"brownian": (), "compound_poisson": ("intensity", "jumps"),
                "jump_diffusion": ("intensity", "jumps"), "gamma": ("activity", "scale")}

# each jump law and the defaults of the keys it reads besides kind
_JUMP_LAWS = {"gaussian": (GaussianJumps, {"mean": 0.0, "sd": 1.0}),
              "exponential": (ExponentialJumps, {"rate": 1.0}),
              "two_sided_exponential": (TwoSidedExponentialJumps,
                                        {"rate_pos": 1.0, "rate_neg": 1.0, "weight_pos": 0.5})}


def reject_unknown_keys(block: dict, known, prefix: str = "") -> None:
    """Raise naming the first key of ``block`` that is not in ``known``."""
    for key in block:
        if key not in known:
            raise SpecValidationError(f"unknown key '{prefix}{key}'")


def _number(block: dict, key: str, default: Optional[float],
            prefix: str = "") -> Optional[float]:
    """``block[key]`` as a float, or ``default`` when the key is absent; the
    value must be a finite JSON number (not a bool, a string or null)."""
    if key not in block:
        return default
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise SpecValidationError(f"{prefix}{key} must be a finite number, got {value!r}")
    return float(value)


def _jump_law_from_dict(block: Optional[dict]) -> JumpLaw:
    if not block:
        raise SpecValidationError("jump family requires a 'jumps' block")
    if not isinstance(block, dict):
        raise SpecValidationError(f"jumps must be a JSON object, got {block!r}")
    kind = block.get("kind")
    if not isinstance(kind, str) or kind not in _JUMP_LAWS:
        raise SpecValidationError(f"unknown jump kind {kind!r}")
    law, defaults = _JUMP_LAWS[kind]
    reject_unknown_keys(block, ("kind", *defaults), "jumps.")
    return law(**{key: _number(block, key, default, prefix="jumps.")
                  for key, default in defaults.items()})
