import json
import math
import pickle
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levydetect.cli import main
from levydetect.errors import (
    InadmissibleModelError,
    SpecValidationError,
    SupportError,
    UnsupportedPairError,
)
from levydetect.families import (
    ExponentialJumps,
    GaussianJumps,
    LevySpec,
    TwoSidedExponentialJumps,
)
from levydetect.likelihood import llr_path
from levydetect.model import (
    COND_DRIFT,
    COND_EQUIVALENCE,
    COND_INTEGRABILITY,
    COND_VOLATILITY,
    ChangeModel,
    build_change_model,
)
from levydetect.oracle import (
    comp_rate_quadrature,
    drift_constants_quadrature,
    integrability_quadrature,
    truncated_moment_quadrature,
)
from levydetect.paths import sample_changed_path
from levydetect.rng import RngStream


class TestAdmissibility:
    def test_brownian_drift_change(self):
        m = build_change_model(LevySpec.brownian(1.0, 0.0), LevySpec.brownian(1.0, 1.0))
        assert m.alpha == pytest.approx(1.0)
        assert m.phi is None

    def test_volatility_mismatch_rejected(self):
        with pytest.raises(InadmissibleModelError) as e:
            build_change_model(LevySpec.brownian(1.0, 0.0), LevySpec.brownian(2.0, 0.0))
        assert e.value.violated == COND_VOLATILITY

    def test_gamma_activity_change_rejected_by_integrability(self):
        with pytest.raises(InadmissibleModelError) as e:
            build_change_model(LevySpec.gamma_subordinator(1.0, 1.0),
                               LevySpec.gamma_subordinator(2.0, 1.0))
        assert e.value.violated == COND_INTEGRABILITY

    def test_gamma_scale_change_accepted(self, gamma_model):
        assert gamma_model.comp_rate == pytest.approx(math.log(2.0))

    def test_jumps_versus_no_jumps_rejected(self):
        with pytest.raises(InadmissibleModelError) as e:
            build_change_model(
                LevySpec.brownian(1.0, 0.0),
                LevySpec.jump_diffusion(1.0, 1.0, GaussianJumps(0.0, 1.0)))
        assert e.value.violated == COND_EQUIVALENCE

    def test_support_mismatch_rejected(self):
        with pytest.raises(InadmissibleModelError) as e:
            build_change_model(
                LevySpec.compound_poisson(1.0, ExponentialJumps(1.0)),
                LevySpec.compound_poisson(1.0, TwoSidedExponentialJumps(1.0, 1.0, 0.5)))
        assert e.value.violated == COND_EQUIVALENCE

    def test_drift_gap_with_zero_sigma_rejected(self):
        with pytest.raises(InadmissibleModelError) as e:
            build_change_model(
                LevySpec.compound_poisson(1.0, GaussianJumps(0.0, 1.0), drift=0.0),
                LevySpec.compound_poisson(2.0, GaussianJumps(0.0, 1.0), drift=0.5))
        assert e.value.violated == COND_DRIFT

    def test_rejection_symmetric_in_equivalence(self):
        pre = LevySpec.compound_poisson(1.0, ExponentialJumps(1.0))
        post = LevySpec.compound_poisson(1.0, TwoSidedExponentialJumps(1.0, 1.0, 0.5))
        for a, b in ((pre, post), (post, pre)):
            with pytest.raises(InadmissibleModelError) as e:
                build_change_model(a, b)
            assert e.value.violated == COND_EQUIVALENCE

    def test_identical_specs_raise(self):
        with pytest.raises(SpecValidationError):
            build_change_model(LevySpec.brownian(1.0, 0.0), LevySpec.brownian(1.0, 0.0))

    def test_gaussian_sd_change_outside_catalogue(self):
        with pytest.raises(UnsupportedPairError):
            build_change_model(
                LevySpec.compound_poisson(1.0, GaussianJumps(0.0, 1.0)),
                LevySpec.compound_poisson(1.0, GaussianJumps(0.0, 2.0)))

    def test_gamma_cannot_pair_with_brownian(self):
        """The gamma measure is pure jump, so against a Brownian law the
        volatilities differ."""
        with pytest.raises(InadmissibleModelError) as e:
            build_change_model(LevySpec.gamma_subordinator(1.0, 1.0),
                               LevySpec.brownian(1.0, 0.0))
        assert e.value.violated == COND_VOLATILITY

    @pytest.mark.parametrize("law,violated", [
        (GaussianJumps(0.0, 1.0), COND_EQUIVALENCE),
        (TwoSidedExponentialJumps(1.0, 1.0, 0.5), COND_EQUIVALENCE),
        (ExponentialJumps(1.0), COND_INTEGRABILITY)],
        ids=["gaussian", "two_sided", "exponential"])
    def test_a_jump_law_against_the_gamma_measure(self, law, violated):
        """A law that charges the negative half-line is not equivalent to the
        gamma measure. An exponential law shares its support, but its density
        is bounded while the gamma density a e^(-x/theta)/x is not integrable
        near 0, so the Hellinger integral diverges (it was called outside
        the catalogue)."""
        pair = (LevySpec.compound_poisson(1.0, law), LevySpec.gamma_subordinator(1.0, 1.0))
        for pre, post in (pair, pair[::-1]):
            with pytest.raises(InadmissibleModelError) as e:
                build_change_model(pre, post)
            assert e.value.violated == violated

    @pytest.mark.parametrize("signed,unsigned", [
        (LevySpec.jump_diffusion(-0.0, 1.0, GaussianJumps(0.0, 1.0)),
         LevySpec.compound_poisson(1.0, GaussianJumps(0.0, 1.0))),
        (LevySpec.brownian(1.0, -0.0), LevySpec.brownian(1.0, 0.0)),
        (LevySpec.compound_poisson(1.0, GaussianJumps(-0.0, 1.0)),
         LevySpec.compound_poisson(1.0, GaussianJumps(0.0, 1.0)))],
        ids=["sigma", "drift", "gaussian_mean"])
    def test_equal_specs_digest_alike(self, signed, unsigned):
        """A -0.0 sigma, drift or Gaussian jump mean is held as 0.0: the
        specs compared equal, but their models digested apart."""
        post = (LevySpec.brownian(1.0, 1.0) if signed.jumps is None
                else LevySpec.compound_poisson(2.0, GaussianJumps(0.0, 1.0)))
        assert signed == unsigned
        assert json.dumps(signed.to_dict()) == json.dumps(unsigned.to_dict())
        assert (build_change_model(signed, post).digest()
                == build_change_model(unsigned, post).digest())


# one spec of each family, and a valid value of each key a process block may read
ONE_OF_EACH = [LevySpec.brownian(1.0, 0.0),
               LevySpec.compound_poisson(1.0, GaussianJumps(0.0, 1.0)),
               LevySpec.jump_diffusion(1.0, 1.0, GaussianJumps(0.0, 1.0)),
               LevySpec.gamma_subordinator(1.0, 1.0)]
FIELD_VALUES = {"intensity": 2.0, "jumps": {"kind": "exponential", "rate": 1.0},
                "activity": 2.0, "scale": 2.0}


@pytest.mark.parametrize("spec,name", [
    (spec, name) for spec in ONE_OF_EACH for name in FIELD_VALUES
    if name not in spec.to_dict()], ids=lambda v: getattr(v, "family", v))
def test_a_field_the_family_does_not_read_is_rejected(spec, name):
    """A spec holds sigma, the drift and one jump measure, so it has no
    place for a field its family ignores; a process block with such a key
    raises naming it, so two blocks that differ in an ignored key are not
    two laws."""
    with pytest.raises(SpecValidationError, match=f"unknown key '{name}'"):
        LevySpec.from_dict(dict(spec.to_dict(), **{name: FIELD_VALUES[name]}))


def test_a_pair_differing_only_in_an_ignored_field_cannot_be_built():
    """A jump diffusion of sigma 0 and the compound-Poisson process of its
    measure differ only in the family name, which the law ignores: they are
    one spec, so the pair raises the identical-pair error, not a model with
    beta_pre = beta_post = 0, and a jump_diffusion block of sigma 0 reads as
    compound_poisson."""
    cp = LevySpec.compound_poisson(1.0, GaussianJumps(0.0, 1.0))
    jd = LevySpec.jump_diffusion(0.0, 1.0, GaussianJumps(0.0, 1.0))
    assert jd == cp
    with pytest.raises(SpecValidationError, match="pre and post specifications are identical"):
        build_change_model(cp, jd)
    block = dict(cp.to_dict(), family="jump_diffusion")
    assert LevySpec.from_dict(block).to_dict()["family"] == "compound_poisson"


@pytest.mark.parametrize("build,name", [
    (lambda: LevySpec.compound_poisson(math.inf, GaussianJumps(0.0, 1.0)), "intensity"),
    (lambda: LevySpec.jump_diffusion(1.0, math.inf, GaussianJumps(0.0, 1.0)), "intensity"),
    (lambda: LevySpec.gamma_subordinator(math.inf, 1.0), "activity"),
    (lambda: LevySpec.gamma_subordinator(1.0, math.inf), "scale"),
    (lambda: LevySpec.gamma_subordinator(1.0, 0.0), "scale"),
    (lambda: LevySpec.gamma_subordinator(math.nan, 1.0), "activity"),
    (lambda: TwoSidedExponentialJumps(math.inf, 1.0, 0.5), "rates"),
    (lambda: LevySpec.compound_poisson(0.0, GaussianJumps(0.0, 1.0)), "intensity"),
    (lambda: LevySpec.gamma_subordinator(1.0, -2.0), "scale"),
], ids=["compound_poisson-inf", "jump_diffusion-inf", "gamma-inf-activity",
        "gamma-inf-scale", "gamma-zero-scale", "gamma-nan-activity", "two_sided-inf",
        "compound_poisson-zero", "gamma-negative-scale"])
def test_an_infinite_or_nonpositive_rate_is_rejected_by_name(build, name):
    """Each rate is a finite number > 0, and its error names it, not the
    drift derived from it; an infinite intensity would give a NaN beta_post."""
    with pytest.raises(SpecValidationError, match=name):
        build()


INADMISSIBLE_PAIRS = [
    (COND_VOLATILITY, LevySpec.brownian(1.0, 0.0), LevySpec.brownian(2.0, 0.0),
     "Brownian volatilities differ (1.0 vs 2.0); the path laws are singular"),
    (COND_EQUIVALENCE, LevySpec.brownian(1.0, 0.0),
     LevySpec.jump_diffusion(1.0, 1.0, GaussianJumps(0.0, 1.0)),
     "one side has a jump component and the other does not; "
     "the jump measures cannot be equivalent"),
    (COND_INTEGRABILITY, LevySpec.gamma_subordinator(1.0, 1.0),
     LevySpec.gamma_subordinator(2.0, 1.0),
     "gamma activities differ (1.0 vs 2.0); the integral of (e^(phi/2)-1)^2 "
     "against the pre-change jump measure diverges"),
    (COND_DRIFT, LevySpec.compound_poisson(1.0, GaussianJumps(0.0, 1.0), drift=0.0),
     LevySpec.compound_poisson(2.0, GaussianJumps(0.0, 1.0), drift=0.5),
     "drift gap 0.5 cannot be absorbed with sigma = 0"),
]


@pytest.mark.parametrize("cond,pre,post,message", INADMISSIBLE_PAIRS,
                         ids=[p[0] for p in INADMISSIBLE_PAIRS])
def test_each_condition_raises_with_the_message_the_cli_prints(
        cond, pre, post, message, tmp_path, capsys):
    """An inadmissible pair cannot be built: the error names its condition,
    and ``validate`` prints and records that condition and message."""
    with pytest.raises(InadmissibleModelError) as e:
        build_change_model(pre, post)
    assert (e.value.violated, str(e.value)) == (cond, message)
    copy = pickle.loads(pickle.dumps(e.value))
    assert (copy.violated, str(copy)) == (cond, message)
    config = tmp_path / "pair.json"
    config.write_text(json.dumps({"model": {"pre": pre.to_dict(), "post": post.to_dict()}}))
    out = tmp_path / "out"
    assert main(["validate", "--config", str(config), "--out", str(out)]) == 3
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"  condition = {cond}", f"  reason    = {message}"]
    results = json.loads((out / "summary.json").read_text())["results"]
    assert results == {"admissible": False, "violated_condition": cond, "message": message}


def test_no_module_repeats_a_construction_check():
    """Specs, jump laws, rules and detector configs check themselves when
    built, and build_change_model raises for an inadmissible pair, so no
    module calls require_admissible() or validate(), and a ChangeModel
    carries no verdict of its own."""
    pkg = Path(__file__).resolve().parents[1] / "src" / "levydetect"
    offenders = [f"{path.name}: {pattern}" for path in sorted(pkg.glob("*.py"))
                 for pattern in (r"\.require_admissible\(\)", r"\.validate\(\)")
                 if re.search(pattern, path.read_text())]
    assert offenders == []
    assert {f.name for f in fields(ChangeModel)}.isdisjoint(
        {"admissible", "message", "violated"})


class TestDensityRatio:
    def test_constant_ratio_for_intensity_change(self, poisson_model):
        assert poisson_model.phi(0.5) == pytest.approx(math.log(2.0))
        assert poisson_model.phi(-3.7) == pytest.approx(math.log(2.0))

    def test_gaussian_shift_value(self, gaussian_shift_model):
        # mean 0 -> 1 at unit sd: phi(x) = x - 1/2
        assert gaussian_shift_model.phi(0.5) == pytest.approx(0.0, abs=1e-15)
        assert gaussian_shift_model.phi(2.0) == pytest.approx(1.5)

    def test_gamma_scale_value(self, gamma_model):
        assert gamma_model.phi(3.0) == pytest.approx(1.5)

    def test_outside_support_raises(self, gamma_model):
        with pytest.raises(SupportError):
            gamma_model.phi(-1.0)

    def test_one_piece_on_the_whole_line_holds_at_zero(self, poisson_model,
                                                       gaussian_shift_model):
        """A ratio that is one affine piece on both half-lines is that piece
        at 0 too, for a scalar and inside an array."""
        assert poisson_model.phi(0.0) == math.log(2.0)
        assert gaussian_shift_model.phi(0.0) == -0.5
        assert list(gaussian_shift_model.phi(np.array([-1.0, 0.0, 1.0]))) \
            == [-1.5, -0.5, 0.5]

    @pytest.mark.parametrize("fixture", ["gamma_model", "exponential_model"])
    def test_positive_support_excludes_zero(self, fixture, request):
        """A jump law on the positive half-line has no ratio at 0 or below."""
        model = request.getfixturevalue(fixture)
        for x in (0.0, -1.0, np.array([1.0, 0.0])):
            with pytest.raises(SupportError):
                model.phi(x)

    def test_no_ratio_without_jumps(self, brownian_model):
        """A pair with no jump component has no density ratio to evaluate."""
        assert brownian_model.phi is None

    @pytest.mark.parametrize("fixture", [
        "poisson_model", "gaussian_shift_model", "gamma_model",
        "exponential_model", "two_sided_model",
    ])
    def test_ratio_matches_densities_pointwise(self, fixture, request):
        """exp(phi) times the pre density equals the post density on a grid."""
        model = request.getfixturevalue(fixture)
        if model.pre.jumps.support == "positive":
            grid = np.linspace(1e-3, 8.0, 1000)
        else:
            grid = np.concatenate([np.linspace(-6.0, -1e-3, 500),
                                   np.linspace(1e-3, 6.0, 500)])
        lhs = np.exp(model.phi(grid)) * model.pre.jumps.density(grid)
        rhs = model.post.jumps.density(grid)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


class TestDriftConstants:
    """The jump parts of the log-likelihood drifts, read off the model's
    fields as ``phi_mean_pre - comp_rate`` and ``phi_mean_post - comp_rate``."""

    def test_poisson_intensity_closed_forms(self, poisson_model):
        m = poisson_model
        jump_pre, jump_post = m.phi_mean_pre - m.comp_rate, m.phi_mean_post - m.comp_rate
        assert jump_pre == pytest.approx(math.log(2.0) - 1.0)
        assert jump_post == pytest.approx(2.0 * math.log(2.0) - 1.0)
        assert poisson_model.comp_rate == pytest.approx(1.0)

    def test_gamma_frullani_compensator(self, gamma_model):
        assert gamma_model.comp_rate == pytest.approx(math.log(2.0), abs=1e-12)
        assert comp_rate_quadrature(gamma_model) == pytest.approx(math.log(2.0), abs=1e-8)

    @pytest.mark.parametrize("fixture", [
        "poisson_model", "gaussian_shift_model", "gamma_model",
        "exponential_model", "two_sided_model",
    ])
    def test_closed_forms_match_quadrature(self, fixture, request):
        model = request.getfixturevalue(fixture)
        quad = drift_constants_quadrature(model)
        assert model.phi_mean_pre - model.comp_rate == pytest.approx(quad[0], abs=1e-8)
        assert model.phi_mean_post - model.comp_rate == pytest.approx(quad[1], abs=1e-8)

    @pytest.mark.parametrize("fixture", [
        "poisson_model", "gaussian_shift_model", "gamma_model",
        "exponential_model", "two_sided_model",
    ])
    def test_sign_structure(self, fixture, request):
        """Jump-part drifts are negative before and positive after the change."""
        model = request.getfixturevalue(fixture)
        jump_pre, jump_post = drift_constants_quadrature(model)
        assert jump_pre < -1e-8
        assert jump_post > 1e-8
        assert model.beta_pre < 0.0 < model.beta_post

    def test_requires_jump_component(self, brownian_model):
        """Without a jump component the phi moments, and so the jump-part
        drifts, are NaN, and each beta is the Brownian drift alone."""
        m = brownian_model
        assert m.phi is None and m.comp_rate == 0.0
        assert math.isnan(m.phi_mean_pre - m.comp_rate)
        assert math.isnan(m.phi_mean_post - m.comp_rate)
        bm_drift = 0.5 * m.alpha ** 2 * m.sigma ** 2
        assert (m.beta_pre, m.beta_post) == (-bm_drift, bm_drift) != (0.0, 0.0)


class TestDriftCondition:
    @pytest.mark.parametrize("fixture", [
        "brownian_model", "poisson_model", "gaussian_shift_model",
        "jump_diffusion_model", "gamma_model", "exponential_model",
        "two_sided_model",
    ])
    def test_identity_holds(self, fixture, request):
        """post drift - pre drift - truncated moment gap = alpha sigma^2."""
        model = request.getfixturevalue(fixture)
        gap = model.post.drift_b - model.pre.drift_b
        jump_gap = (truncated_moment_quadrature(model.post)
                    - truncated_moment_quadrature(model.pre))
        assert gap - jump_gap == pytest.approx(
            model.alpha * model.sigma ** 2, abs=1e-10)

    def test_truncated_moment_closed_forms(self):
        for spec in (
            LevySpec.compound_poisson(1.3, GaussianJumps(0.4, 0.8)),
            LevySpec.compound_poisson(0.7, ExponentialJumps(2.2)),
            LevySpec.compound_poisson(1.1, TwoSidedExponentialJumps(1.5, 0.9, 0.3)),
            LevySpec.gamma_subordinator(1.4, 0.6),
        ):
            assert spec.jump_truncated_mean() == pytest.approx(
                truncated_moment_quadrature(spec), abs=1e-10)


class TestIntegrabilityProbe:
    def test_finite_for_equivalent_catalogue_pairs(self, gaussian_shift_model):
        # closed form for a unit-sd mean shift m at equal intensity lam:
        # lam * (E e^phi - 2 E e^{phi/2} + 1) = lam * (2 - 2 e^{-m^2/8})
        expected = 2.0 * (1.0 - math.exp(-1.0 / 8.0))
        assert gaussian_shift_model.integrability_value == pytest.approx(
            expected, rel=1e-5)

    def test_divergent_for_activity_change(self):
        with pytest.raises(InadmissibleModelError) as e:
            build_change_model(LevySpec.gamma_subordinator(1.0, 1.0),
                               LevySpec.gamma_subordinator(1.7, 1.0))
        assert e.value.violated == COND_INTEGRABILITY

    @pytest.mark.parametrize("fixture", [
        "poisson_model", "gaussian_shift_model", "jump_diffusion_model",
        "gamma_model", "gamma_model_mild", "exponential_model", "two_sided_model",
    ])
    def test_closed_form_matches_quadrature(self, fixture, request):
        model = request.getfixturevalue(fixture)
        assert model.integrability_value == pytest.approx(
            integrability_quadrature(model), rel=1e-9)

    def test_high_intensity_pair_is_integrable(self):
        """Every finite-activity pair is integrable; here the integral is
        (sqrt(9e6) - sqrt(1e6))^2 = 4e6."""
        m = build_change_model(
            LevySpec.jump_diffusion(1.0, 1e6, GaussianJumps(0.0, 1.0)),
            LevySpec.jump_diffusion(1.0, 9e6, GaussianJumps(0.0, 1.0)))
        assert m.integrability_value == 4e6

    def test_narrow_mark_shift_value(self):
        """Marks of sd 0.01 shifted by 0.5 barely overlap: the integral is
        2 (1 - e^{-0.5^2 / (8 * 0.01^2)})."""
        m = build_change_model(
            LevySpec.jump_diffusion(1.0, 1.0, GaussianJumps(0.0, 0.01)),
            LevySpec.jump_diffusion(1.0, 1.0, GaussianJumps(0.5, 0.01)))
        assert m.integrability_value == pytest.approx(2.0 * (1.0 - math.exp(-312.5)))


@settings(max_examples=50, deadline=None)
@given(lam0=st.floats(0.2, 5.0), lam1=st.floats(0.2, 5.0),
       mean_shift=st.one_of(st.just(0.0), st.floats(1e-3, 2.0),
                            st.floats(-2.0, -1e-3)),
       sd=st.floats(0.3, 3.0))
def test_random_gaussian_pairs_admissible_with_consistent_alpha(
        lam0, lam1, mean_shift, sd):
    """Any symmetric-drift Gaussian-jump pair through a jump diffusion is
    admissible, and the drift identity pins alpha. Jump-part drifts are
    sign-definite whenever the jump measures differ by a representable
    amount (a subnormal-scale mean shift would underflow them to zero)."""
    pre = LevySpec.jump_diffusion(1.0, lam0, GaussianJumps(0.0, sd), drift=0.0)
    post = LevySpec.jump_diffusion(1.0, lam1, GaussianJumps(mean_shift, sd), drift=0.5)
    if pre == post:
        return
    m = build_change_model(pre, post)
    gap = 0.5 - (post.jump_truncated_mean() - pre.jump_truncated_mean())
    assert m.alpha == pytest.approx(gap, rel=1e-12)
    if mean_shift != 0.0 or abs(lam0 - lam1) > 1e-9 * lam0:
        assert m.phi_mean_pre - m.comp_rate < 0.0 < m.phi_mean_post - m.comp_rate


# --------------------------------------------------------------------------- #
# the catalogue, bit for bit against the per-kind expressions it replaced
# --------------------------------------------------------------------------- #

JUMP_FIXTURES = ["poisson_model", "gaussian_shift_model", "jump_diffusion_model",
                 "gamma_model", "gamma_model_mild", "exponential_model", "two_sided_model"]
GRID = np.concatenate([np.linspace(-3.0, 3.0, 61), [0.0, -0.0, 1e-9, -1e-9]])


def _one_sided(rate):
    return (1.0 - math.exp(-rate) * (1.0 + rate)) / rate


def _exp_hellinger(c0, r0, c1, r1):
    return ((math.sqrt(c1) - math.sqrt(c0)) ** 2
            + 2.0 * math.sqrt(c0 * c1) * (math.sqrt(r1) - math.sqrt(r0)) ** 2 / (r0 + r1))


def _per_kind_law(law, gen, n):
    """(truncated mean, density on GRID, n ledger jump sizes from gen) of a
    jump law, by the per-kind expressions with their order of operations."""
    x = GRID
    if law.kind == "gaussian":
        a, b = (-1.0 - law.mean) / law.sd, (1.0 - law.mean) / law.sd
        pdf = lambda z: np.exp(-z ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
        mass = 0.5 * (math.erfc(-b / math.sqrt(2.0)) - math.erfc(-a / math.sqrt(2.0)))
        return (law.mean * mass - law.sd * (pdf(b) - pdf(a)),
                pdf((x - law.mean) / law.sd) / law.sd, gen.normal(law.mean, law.sd, size=n))
    if law.kind == "exponential":
        return (_one_sided(law.rate),
                np.where(x > 0.0, law.rate * np.exp(-law.rate * np.abs(x)), 0.0),
                gen.exponential(1.0 / law.rate, size=n))
    w, rp, rn = law.weight_pos, law.rate_pos, law.rate_neg
    pos = w * rp * np.exp(-rp * np.abs(x))
    neg = (1.0 - w) * rn * np.exp(-rn * np.abs(x))
    # one uniform per jump: its side, and its magnitude by inversion
    sizes = [-np.log1p(-(u / w)) / rp if u < w else np.log1p(-((u - w) / (1.0 - w))) / rn
             for u in gen.random(n)]
    return (w * _one_sided(rp) - (1.0 - w) * _one_sided(rn),
            np.where(x > 0.0, pos, np.where(x < 0.0, neg, 0.0)), np.array(sizes))


def _per_kind_pair(pre, post):
    """(phi.pos, phi.neg, integrability, comp_rate, phi_mean_pre,
    phi_mean_post) of an admissible jump pair by the per-kind expressions."""
    nu0, nu1 = pre.jumps, post.jumps
    if pre.family == "gamma":
        a, t0, t1 = nu0.activity, nu0.scale, nu1.scale
        c1 = 1.0 / t0 - 1.0 / t1
        p0, p1 = 1.0 / t0, 1.0 / t1
        return ((math.log(nu1.activity / a), c1), None,
                a * math.log1p((p0 - p1) ** 2 / (4.0 * p0 * p1)),
                a * math.log(t1 / t0), c1 * a * t0, c1 * a * t1)
    j0, j1, lam0, lam1 = nu0.law, nu1.law, nu0.intensity, nu1.intensity
    log_lam = math.log(lam1 / lam0)
    if j0.kind == "gaussian":
        s2 = j0.sd ** 2
        c1 = (j1.mean - j0.mean) / s2
        c0 = log_lam + (j0.mean ** 2 - j1.mean ** 2) / (2.0 * s2)
        shift = (j1.mean - j0.mean) / j0.sd
        integ = ((math.sqrt(lam1) - math.sqrt(lam0)) ** 2
                 - 2.0 * math.sqrt(lam0 * lam1) * math.expm1(-shift ** 2 / 8.0))
        return ((c0, c1), (c0, c1), integ, lam1 - lam0,
                lam0 * (c0 + c1 * j0.mean), lam1 * (c0 + c1 * j1.mean))
    if j0.kind == "exponential":
        c0 = log_lam + math.log(j1.rate / j0.rate)
        c1 = j0.rate - j1.rate
        return ((c0, c1), None, _exp_hellinger(lam0, j0.rate, lam1, j1.rate),
                lam1 - lam0, lam0 * (c0 + c1 / j0.rate), lam1 * (c0 + c1 / j1.rate))
    w0, w1 = j0.weight_pos, j1.weight_pos
    c0p = log_lam + math.log((w1 * j1.rate_pos) / (w0 * j0.rate_pos))
    c1p = j0.rate_pos - j1.rate_pos
    c0n = log_lam + math.log(((1.0 - w1) * j1.rate_neg) / ((1.0 - w0) * j0.rate_neg))
    c1n = j1.rate_neg - j0.rate_neg
    integ = (_exp_hellinger(lam0 * w0, j0.rate_pos, lam1 * w1, j1.rate_pos)
             + _exp_hellinger(lam0 * (1.0 - w0), j0.rate_neg, lam1 * (1.0 - w1), j1.rate_neg))

    def mean_under(lam, law):
        w = law.weight_pos
        return lam * (w * (c0p + c1p / law.rate_pos)
                      + (1.0 - w) * (c0n - c1n / law.rate_neg))
    return ((c0p, c1p), (c0n, c1n), integ, lam1 - lam0,
            mean_under(lam0, j0), mean_under(lam1, j1))


def _assert_catalogue_matches(model):
    pre, post = model.pre, model.post
    pos, neg, integ, comp, mean_pre, mean_post = _per_kind_pair(pre, post)
    assert (model.phi.pos, model.phi.neg) == (pos, neg)
    assert (model.integrability_value, model.comp_rate) == (integ, comp)
    assert (model.phi_mean_pre, model.phi_mean_post) == (mean_pre, mean_post)
    bm = 0.5 * model.alpha ** 2 * model.sigma ** 2
    assert model.beta_pre == -bm + (mean_pre - comp)
    assert model.beta_post == bm + (mean_post - comp)
    for i, spec in enumerate((pre, post)):
        nu = spec.jumps
        if spec.family == "gamma":
            a, t = nu.activity, nu.scale
            safe = np.where(GRID > 0.0, GRID, 1.0)
            assert spec.jump_truncated_mean() == a * t * (1.0 - math.exp(-1.0 / t))
            assert np.array_equal(nu.density(GRID), np.where(
                GRID > 0.0, a * np.exp(-safe / t) / safe, 0.0))
            continue
        for n in (0, 1, 257):
            fresh = RngStream(8086, 10 * i + n).generator
            mean, density, sizes = _per_kind_law(nu.law, fresh(), n)
            assert np.array_equal(nu.law.jump_sizes(fresh(), n), sizes)
        assert nu.law.truncated_mean() == mean
        assert spec.jump_truncated_mean() == nu.intensity * mean
        assert np.array_equal(nu.density(GRID), nu.intensity * density)


class TestCatalogue:
    """Each jump law owns its closed forms; the model constants, truncated
    means, densities and ledger jump sizes built from them must equal the
    per-kind expressions they replaced, bit for bit."""

    @pytest.mark.parametrize("fixture", JUMP_FIXTURES)
    def test_fixture_matches_the_per_kind_formulas(self, fixture, request):
        _assert_catalogue_matches(request.getfixturevalue(fixture))

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["gaussian", "exponential", "two_sided_exponential"]),
           lams=st.tuples(st.floats(0.05, 20.0), st.floats(0.05, 20.0)),
           params=st.tuples(*[st.tuples(st.floats(0.05, 8.0), st.floats(0.05, 8.0),
                                        st.floats(0.01, 0.99), st.floats(-3.0, 3.0))] * 2))
    def test_random_laws_match_the_per_kind_formulas(self, kind, lams, params):
        """Jump diffusions (sigma 1 absorbs any drift gap), so every pair
        of one kind is admissible; Gaussian pairs share the sd."""
        (r0, q0, w0, m0), (r1, q1, w1, m1) = params
        laws = {"gaussian": (GaussianJumps(m0, r0), GaussianJumps(m1, r0)),
                "exponential": (ExponentialJumps(r0), ExponentialJumps(r1)),
                "two_sided_exponential": (TwoSidedExponentialJumps(r0, q0, w0),
                                          TwoSidedExponentialJumps(r1, q1, w1))}[kind]
        pre, post = (LevySpec.jump_diffusion(1.0, lam, law, drift=0.5 * i)
                     for i, (lam, law) in enumerate(zip(lams, laws)))
        _assert_catalogue_matches(build_change_model(pre, post))


class TestJumpSizes:
    @pytest.mark.parametrize("law", [GaussianJumps(0.3, 1.2), ExponentialJumps(1.5),
                                     TwoSidedExponentialJumps(1.5, 0.7, 0.3)])
    def test_sizes_are_drawn_jump_by_jump(self, law):
        """Sizes drawn 5, 0, 1 and 122 at a time are those of one draw of
        128: the k-th size a generator gives is a function of k alone, which
        the engine's event sampler relies on."""
        fresh = RngStream(8086, 3).generator
        gen = fresh()
        parts = [law.jump_sizes(gen, n) for n in (5, 0, 1, 122)]
        assert np.array_equal(np.concatenate(parts), law.jump_sizes(fresh(), 128))

    def test_two_sided_sizes_follow_the_mixture(self):
        """One uniform per jump gives the two-sided law: over 100,000 sizes
        the share of up-jumps is within 4 SE of the weight, and a KS test
        against the mixture's distribution function passes."""
        from scipy.stats import kstest
        w, rp, rn = 0.3, 1.5, 0.7
        x = TwoSidedExponentialJumps(rp, rn, w).jump_sizes(RngStream(8086, 4).generator(),
                                                           100000)
        assert abs((x > 0).mean() - w) <= 4.0 * math.sqrt(w * (1.0 - w) / x.size)

        def cdf(v):
            return np.where(v < 0.0, (1.0 - w) * np.exp(rn * np.minimum(v, 0.0)),
                            1.0 - w * np.exp(-rp * np.maximum(v, 0.0)))
        assert kstest(x, cdf).pvalue > 0.005


class TestDigest:
    @pytest.mark.parametrize("pre,post,digest", [
        (LevySpec.brownian(1.0, 0.0), LevySpec.brownian(1.0, 1.0), "b09e007508f3"),
        (LevySpec.compound_poisson(1.0, GaussianJumps(0.0, 1.0)),
         LevySpec.compound_poisson(2.0, GaussianJumps(0.0, 1.0)), "4717ac9a69f7")])
    def test_digest_is_pinned_and_hashed_once(self, pre, post, digest, monkeypatch):
        """The digest names the pair in every artifact, so its value is
        pinned (the brownian_model and poisson_model fixtures). The model
        and its specifications are frozen, so the pair is serialised once,
        however often a path, its log-likelihood or a report asks."""
        dumps, calls = json.dumps, []

        def counting_dumps(*args, **kwargs):
            calls.append(None)
            return dumps(*args, **kwargs)
        monkeypatch.setattr(json, "dumps", counting_dumps)
        model = build_change_model(pre, post)
        for i in range(3):
            assert model.digest() == digest
            path = sample_changed_path(model, 0.5, 1.0, 0.01, RngStream(7, i))
            assert path.model_digest == digest
            llr_path(model, path)
        assert len(calls) == 1
