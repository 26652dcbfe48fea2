"""Parametric Levy processes, each held as its Levy triplet.

A :class:`LevySpec` is a Brownian volatility ``sigma``, a drift ``b`` under
the usual |x| <= 1 truncation convention, and a jump measure: None, a
:class:`FiniteMeasure` (an intensity times a jump law) or a
:class:`GammaMeasure`. Its family follows from sigma and the measure, so one
law has one spec (a jump diffusion of sigma 0 is the compound-Poisson spec):

* ``brownian``        -- sigma > 0, no jump measure
* ``compound_poisson``-- a finite measure, sigma = 0
* ``jump_diffusion``  -- a finite measure, sigma > 0
* ``gamma``           -- the gamma measure (infinite activity), sigma = 0

Compound-Poisson jump sizes come from one of three parametric laws
(:class:`GaussianJumps`, :class:`ExponentialJumps`,
:class:`TwoSidedExponentialJumps`); these are exactly the laws whose
jump-measure density ratios are affine per half-line, so every downstream
likelihood object has a closed form. Each law, and each measure, owns its
closed forms against one of its own kind: the pieces (c0, c1) of
phi = c0 + c1 * x per side, positive side first (a measure's include the
log-rate term); the Hellinger integral; the phi-mean; and a measure also its
compensator, density, support and |x| <= 1 first moment. A law's jump sizes
(``jump_sizes``), which the path simulator and the engine's event sampler
read, are drawn jump by jump, so the k-th size a generator gives does not
depend on how many are drawn at once. Outside this module, code tells the
measures apart by ``finite_activity`` alone.

Every law, measure and :class:`LevySpec` checks its parameters when it is
built, ``dataclasses.replace`` included, and raises SpecValidationError for
a bad one; all are frozen, so one that exists is valid.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import Optional, Union

import numpy as np

from .errors import SpecValidationError, UnsupportedPairError

__all__ = [
    "FiniteMeasure",
    "GammaMeasure",
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


def _unsign_zeros(obj, *fields: str) -> None:
    """Write a field's -0.0 as 0.0, so that equal specs digest alike."""
    for name in fields:
        if getattr(obj, name) == 0.0:
            object.__setattr__(obj, name, abs(getattr(obj, name)))


def _check_rates(owner: str, **rates: Optional[float]) -> None:
    for name, value in rates.items():
        if value is None or not 0.0 < value < math.inf:
            raise SpecValidationError(f"{owner} {name} must be a finite number > 0, got {value}")


@dataclass(frozen=True)
class GaussianJumps:
    """Jump sizes drawn from N(mean, sd^2), supported on the whole line."""

    mean: float
    sd: float

    kind = "gaussian"
    support = "real"

    def __post_init__(self) -> None:
        _check_rates("gaussian jump", sd=self.sd)
        if not math.isfinite(self.mean):
            raise SpecValidationError("gaussian jump mean must be finite")
        _unsign_zeros(self, "mean")

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

    def jump_sizes(self, gen: np.random.Generator, n: int) -> np.ndarray:
        """One exponential, or for two sides one uniform u per jump: below
        the positive side's weight w the jump is up, and u / w (or
        (u - w) / (1 - w) down) is uniform given the side, so inverting it
        gives the magnitude. Each jump takes one draw, so the k-th size of
        a generator's jumps does not depend on how many are drawn at once."""
        if len(self.sides) == 1:
            return gen.exponential(1.0 / self.sides[0][2], size=n)
        (_, w, rate_pos), (_, _, rate_neg) = self.sides
        u = gen.random(n)
        up = u < w
        v = np.where(up, u / w, (u - w) / (1.0 - w))
        return np.where(up, -np.log1p(-v) / rate_pos, np.log1p(-v) / rate_neg)


@dataclass(frozen=True)
class ExponentialJumps(_ExponentialSides):
    """Jump sizes Exp(rate), supported on (0, inf)."""

    rate: float

    kind = "exponential"
    support = "positive"

    def __post_init__(self) -> None:
        _check_rates("exponential jump", rate=self.rate)

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

    def __post_init__(self) -> None:
        if not (0.0 < self.rate_pos < math.inf and 0.0 < self.rate_neg < math.inf):
            raise SpecValidationError("two-sided exponential rates must be positive and finite")
        if not (0.0 < self.weight_pos < 1.0):
            raise SpecValidationError(
                f"two-sided exponential weight must lie in (0, 1), got {self.weight_pos}")

    @property
    def sides(self) -> tuple:
        return ((1.0, self.weight_pos, self.rate_pos),
                (-1.0, 1.0 - self.weight_pos, self.rate_neg))


JumpLaw = Union[GaussianJumps, ExponentialJumps, TwoSidedExponentialJumps]


@dataclass(frozen=True)
class FiniteMeasure:
    """``intensity`` times a jump law: jumps at that rate, sizes from ``law``."""

    intensity: float
    law: JumpLaw

    finite_activity = True
    kind = property(lambda self: self.law.kind)
    support = property(lambda self: self.law.support)

    def __post_init__(self) -> None:
        _check_rates("jump", intensity=self.intensity)

    def density(self, x):
        return self.intensity * self.law.density(x)

    def truncated_mean(self) -> float:
        return self.intensity * self.law.truncated_mean()

    def phi_pieces(self, other: "FiniteMeasure") -> list:
        log_rate = math.log(other.intensity / self.intensity)
        return [(log_rate + c0, c1) for c0, c1 in self.law.phi_pieces(other.law)]

    def hellinger(self, other: "FiniteMeasure") -> float:
        return self.law.hellinger(self.intensity, other.law, other.intensity)

    def compensator(self, other: "FiniteMeasure") -> float:
        return other.intensity - self.intensity

    def phi_mean(self, phi) -> float:
        return self.intensity * self.law.phi_mean(phi)

    def to_dict(self) -> dict:
        return {"intensity": self.intensity,
                "jumps": {"kind": self.law.kind, **asdict(self.law)}}


@dataclass(frozen=True)
class GammaMeasure:
    """a e^{-x / theta} / x dx on (0, inf), the jump measure of a gamma
    subordinator of activity a and scale theta: infinite activity."""

    activity: float
    scale: float

    finite_activity = False
    kind = "gamma"
    support = "positive"

    def __post_init__(self) -> None:
        _check_rates("gamma", activity=self.activity, scale=self.scale)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        safe = np.where(x > 0.0, x, 1.0)
        return np.where(x > 0.0, self.activity * np.exp(-safe / self.scale) / safe, 0.0)

    def truncated_mean(self) -> float:
        a, theta = self.activity, self.scale
        return a * theta * (1.0 - math.exp(-1.0 / theta))

    def phi_pieces(self, other: "GammaMeasure") -> list:
        return [(math.log(other.activity / self.activity), 1.0 / self.scale - 1.0 / other.scale)]

    def hellinger(self, other: "GammaMeasure") -> float:
        """a log(1 + (p0 - p1)^2 / (4 p0 p1)), p = 1 / theta; inf at two activities."""
        if self.activity != other.activity:
            return math.inf
        p0, p1 = 1.0 / self.scale, 1.0 / other.scale
        return self.activity * math.log1p((p0 - p1) ** 2 / (4.0 * p0 * p1))

    def compensator(self, other: "GammaMeasure") -> float:
        return self.activity * math.log(other.scale / self.scale)     # Frullani

    def phi_mean(self, phi) -> float:
        return phi.pos[1] * self.activity * self.scale

    def to_dict(self) -> dict:
        return {"activity": self.activity, "scale": self.scale}


# the family of (sigma > 0, the jump measure's finite_activity, None without one)
_FAMILIES = {(True, None): "brownian", (False, True): "compound_poisson",
             (True, True): "jump_diffusion", (False, False): "gamma"}
# the jump measure of each family and the keys a process block gives it
_FAMILY_KEYS = {"brownian": (None, ()), "gamma": (GammaMeasure, ("activity", "scale")),
                "compound_poisson": (FiniteMeasure, ("intensity", "jumps")),
                "jump_diffusion": (FiniteMeasure, ("intensity", "jumps"))}


@dataclass(frozen=True)
class LevySpec:
    """One process as its Levy triplet: volatility, drift ``drift_b`` under
    the |x| <= 1 truncation, and jump measure ``jumps`` (None, a
    :class:`FiniteMeasure` or a :class:`GammaMeasure`); :meth:`linear_drift`
    is the observable drift of a finite-variation path."""

    sigma: float = 0.0
    drift_b: float = 0.0
    jumps: Union[FiniteMeasure, GammaMeasure, None] = None

    @classmethod
    def brownian(cls, sigma: float, drift: float = 0.0) -> "LevySpec":
        return cls(float(sigma), float(drift))

    @classmethod
    def compound_poisson(cls, intensity: float, jumps: JumpLaw,
                         drift: float = 0.0) -> "LevySpec":
        return cls(0.0, float(drift), FiniteMeasure(float(intensity), jumps))

    @classmethod
    def jump_diffusion(cls, sigma: float, intensity: float, jumps: JumpLaw,
                       drift: float = 0.0) -> "LevySpec":
        return cls(float(sigma), float(drift), FiniteMeasure(float(intensity), jumps))

    @classmethod
    def gamma_subordinator(cls, activity: float, scale: float,
                           drift: Optional[float] = None) -> "LevySpec":
        """Gamma subordinator; ``drift=None`` means a pure subordinator, whose
        linear drift is zero: its truncation-convention drift is the
        small-jump first moment (:meth:`jump_truncated_mean`)."""
        jumps = GammaMeasure(float(activity), float(scale))
        return cls(0.0, jumps.truncated_mean() if drift is None else float(drift), jumps)

    def __post_init__(self) -> None:        # run by replace() too
        if self.sigma < 0.0 or not math.isfinite(self.sigma):
            raise SpecValidationError(f"sigma must be nonnegative, got {self.sigma}")
        if self.family is None:
            raise SpecValidationError("brownian family needs sigma > 0" if self.jumps is None
                                      else "gamma subordinator is pure jump (sigma = 0)")
        if not math.isfinite(self.drift_b):
            raise SpecValidationError("drift must be finite")
        _unsign_zeros(self, "sigma", "drift_b")

    @property
    def family(self) -> str:
        """The family name that sigma > 0 and the kind of jump measure give."""
        finite = None if self.jumps is None else self.jumps.finite_activity
        return _FAMILIES.get((self.sigma > 0.0, finite))

    def jump_truncated_mean(self) -> float:
        """Closed form of the |x| <= 1 first moment of the jump measure."""
        return 0.0 if self.jumps is None else self.jumps.truncated_mean()

    def linear_drift(self) -> float:
        """Drift of the path once jumps are taken raw (finite-variation form):
        ``drift_b`` minus the truncated first moment of the jump measure."""
        return self.drift_b - self.jump_truncated_mean()

    def to_dict(self) -> dict:
        return {"family": self.family, "sigma": self.sigma, "drift": self.drift_b,
                **({} if self.jumps is None else self.jumps.to_dict())}

    @classmethod
    def from_dict(cls, data: dict) -> "LevySpec":
        """Read a process block: ``family``, ``sigma``, ``drift`` and the
        keys the family reads, each as written, so a nonzero sigma on a
        pure-jump family is rejected, not dropped."""
        if not isinstance(data, dict):
            raise SpecValidationError(f"process block must be a JSON object, got {data!r}")
        if "family" not in data:
            raise SpecValidationError("process block needs a 'family' key")
        family = data["family"]
        if not isinstance(family, str) or family not in _FAMILY_KEYS:
            raise SpecValidationError(f"unknown family {family!r}")
        measure, keys = _FAMILY_KEYS[family]
        reject_unknown_keys(data, ("family", "sigma", "drift", *keys))
        sigma = _number(data, "sigma", 1.0 if family == "brownian" else 0.0)
        jumps = None if measure is None else measure(*(
            _jump_law_from_dict(data.get(key)) if key == "jumps" else _number(data, key, None)
            for key in keys))
        pure = family == "gamma" and "drift" not in data        # a pure subordinator
        spec = cls(sigma, jumps.truncated_mean() if pure else _number(data, "drift", 0.0), jumps)
        if family == "compound_poisson" and sigma > 0.0:
            raise SpecValidationError(
                "compound_poisson has sigma = 0; use jump_diffusion for sigma > 0")
        return spec


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
