import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from levydetect.model import (
    COND_DRIFT,
    COND_EQUIVALENCE,
    COND_INTEGRABILITY,
    COND_VOLATILITY,
    build_change_model,
    comp_rate_quadrature,
    drift_constants,
    integrability_quadrature,
    phi_eval,
    truncated_moment_quadrature,
)
from levydetect.rng import RngStream


class TestAdmissibility:
    def test_brownian_drift_change(self):
        m = build_change_model(LevySpec.brownian(1.0, 0.0), LevySpec.brownian(1.0, 1.0))
        assert m.admissible
        assert m.alpha == pytest.approx(1.0)
        assert m.phi is None

    def test_volatility_mismatch_rejected(self):
        m = build_change_model(LevySpec.brownian(1.0, 0.0), LevySpec.brownian(2.0, 0.0))
        assert not m.admissible
        assert m.violated == COND_VOLATILITY

    def test_gamma_activity_change_rejected_by_integrability(self):
        m = build_change_model(LevySpec.gamma_subordinator(1.0, 1.0),
                               LevySpec.gamma_subordinator(2.0, 1.0))
        assert not m.admissible
        assert m.violated == COND_INTEGRABILITY

    def test_gamma_scale_change_accepted(self, gamma_model):
        assert gamma_model.admissible
        assert gamma_model.comp_rate == pytest.approx(math.log(2.0))

    def test_jumps_versus_no_jumps_rejected(self):
        m = build_change_model(
            LevySpec.brownian(1.0, 0.0),
            LevySpec.jump_diffusion(1.0, 1.0, GaussianJumps(0.0, 1.0)))
        assert not m.admissible
        assert m.violated == COND_EQUIVALENCE

    def test_support_mismatch_rejected(self):
        m = build_change_model(
            LevySpec.compound_poisson(1.0, ExponentialJumps(1.0)),
            LevySpec.compound_poisson(1.0, TwoSidedExponentialJumps(1.0, 1.0, 0.5)))
        assert not m.admissible
        assert m.violated == COND_EQUIVALENCE

    def test_drift_gap_with_zero_sigma_rejected(self):
        m = build_change_model(
            LevySpec.compound_poisson(1.0, GaussianJumps(0.0, 1.0), drift=0.0),
            LevySpec.compound_poisson(2.0, GaussianJumps(0.0, 1.0), drift=0.5))
        assert not m.admissible
        assert m.violated == COND_DRIFT

    def test_rejection_symmetric_in_equivalence(self):
        pre = LevySpec.compound_poisson(1.0, ExponentialJumps(1.0))
        post = LevySpec.compound_poisson(1.0, TwoSidedExponentialJumps(1.0, 1.0, 0.5))
        assert not build_change_model(pre, post).admissible
        assert not build_change_model(post, pre).admissible

    def test_identical_specs_raise(self):
        with pytest.raises(SpecValidationError):
            build_change_model(LevySpec.brownian(1.0, 0.0), LevySpec.brownian(1.0, 0.0))

    def test_gaussian_sd_change_outside_catalogue(self):
        with pytest.raises(UnsupportedPairError):
            build_change_model(
                LevySpec.compound_poisson(1.0, GaussianJumps(0.0, 1.0)),
                LevySpec.compound_poisson(1.0, GaussianJumps(0.0, 2.0)))

    def test_gamma_cannot_pair_with_brownian(self):
        with pytest.raises(UnsupportedPairError):
            build_change_model(LevySpec.gamma_subordinator(1.0, 1.0),
                               LevySpec.brownian(1.0, 0.0))

    def test_malformed_specs_raise(self):
        with pytest.raises(SpecValidationError):
            LevySpec.brownian(-1.0, 0.0).validate()
        with pytest.raises(SpecValidationError):
            LevySpec.compound_poisson(0.0, GaussianJumps(0.0, 1.0)).validate()
        with pytest.raises(SpecValidationError):
            LevySpec.gamma_subordinator(1.0, -2.0).validate()


class TestDensityRatio:
    def test_constant_ratio_for_intensity_change(self, poisson_model):
        assert phi_eval(poisson_model, 0.5) == pytest.approx(math.log(2.0))
        assert phi_eval(poisson_model, -3.7) == pytest.approx(math.log(2.0))

    def test_gaussian_shift_value(self, gaussian_shift_model):
        # mean 0 -> 1 at unit sd: phi(x) = x - 1/2
        assert phi_eval(gaussian_shift_model, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert phi_eval(gaussian_shift_model, 2.0) == pytest.approx(1.5)

    def test_gamma_scale_value(self, gamma_model):
        assert phi_eval(gamma_model, 3.0) == pytest.approx(1.5)

    def test_outside_support_raises(self, gamma_model):
        with pytest.raises(SupportError):
            phi_eval(gamma_model, -1.0)

    def test_inadmissible_model_raises(self):
        m = build_change_model(LevySpec.brownian(1.0, 0.0), LevySpec.brownian(2.0, 0.0))
        with pytest.raises(InadmissibleModelError):
            phi_eval(m, 1.0)

    @pytest.mark.parametrize("fixture", [
        "poisson_model", "gaussian_shift_model", "gamma_model",
        "exponential_model", "two_sided_model",
    ])
    def test_ratio_matches_densities_pointwise(self, fixture, request):
        """exp(phi) times the pre density equals the post density on a grid."""
        model = request.getfixturevalue(fixture)
        if model.pre.jump_support() == "positive":
            grid = np.linspace(1e-3, 8.0, 1000)
        else:
            grid = np.concatenate([np.linspace(-6.0, -1e-3, 500),
                                   np.linspace(1e-3, 6.0, 500)])
        lhs = np.exp(model.phi(grid)) * model.pre.levy_density(grid)
        rhs = model.post.levy_density(grid)
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-300)


class TestDriftConstants:
    def test_poisson_intensity_closed_forms(self, poisson_model):
        jump_pre, jump_post = drift_constants(poisson_model)
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
        closed = drift_constants(model)
        quad = drift_constants(model, method="quadrature")
        assert closed[0] == pytest.approx(quad[0], abs=1e-8)
        assert closed[1] == pytest.approx(quad[1], abs=1e-8)

    @pytest.mark.parametrize("fixture", [
        "poisson_model", "gaussian_shift_model", "gamma_model",
        "exponential_model", "two_sided_model",
    ])
    def test_sign_structure(self, fixture, request):
        """Jump-part drifts are negative before and positive after the change."""
        model = request.getfixturevalue(fixture)
        jump_pre, jump_post = drift_constants(model, method="quadrature")
        assert jump_pre < -1e-8
        assert jump_post > 1e-8
        assert model.beta_pre < 0.0 < model.beta_post

    def test_requires_jump_component(self, brownian_model):
        with pytest.raises(InadmissibleModelError):
            drift_constants(brownian_model)


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
        m = build_change_model(LevySpec.gamma_subordinator(1.0, 1.0),
                               LevySpec.gamma_subordinator(1.7, 1.0))
        assert not m.admissible
        assert m.violated == COND_INTEGRABILITY

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
        assert m.admissible
        assert m.integrability_value == 4e6

    def test_narrow_mark_shift_value(self):
        """Marks of sd 0.01 shifted by 0.5 barely overlap: the integral is
        2 (1 - e^{-0.5^2 / (8 * 0.01^2)})."""
        m = build_change_model(
            LevySpec.jump_diffusion(1.0, 1.0, GaussianJumps(0.0, 0.01)),
            LevySpec.jump_diffusion(1.0, 1.0, GaussianJumps(0.5, 0.01)))
        assert m.admissible
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
    assert m.admissible
    gap = 0.5 - (post.jump_truncated_mean() - pre.jump_truncated_mean())
    assert m.alpha == pytest.approx(gap, rel=1e-12)
    if mean_shift != 0.0 or abs(lam0 - lam1) > 1e-9 * lam0:
        jp, jq = drift_constants(m)
        assert jp < 0.0 < jq


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
    up = gen.random(n) < w
    mags = np.where(up, gen.exponential(1.0 / rp, size=n), gen.exponential(1.0 / rn, size=n))
    return (w * _one_sided(rp) - (1.0 - w) * _one_sided(rn),
            np.where(x > 0.0, pos, np.where(x < 0.0, neg, 0.0)), np.where(up, mags, -mags))


def _per_kind_pair(pre, post):
    """(phi.pos, phi.neg, integrability, comp_rate, phi_mean_pre,
    phi_mean_post) of an admissible jump pair by the per-kind expressions."""
    if pre.family == "gamma":
        a, t0, t1 = pre.activity, pre.scale, post.scale
        c1 = 1.0 / t0 - 1.0 / t1
        p0, p1 = 1.0 / t0, 1.0 / t1
        return ((math.log(post.activity / a), c1), None,
                a * math.log1p((p0 - p1) ** 2 / (4.0 * p0 * p1)),
                a * math.log(t1 / t0), c1 * a * t0, c1 * a * t1)
    j0, j1, lam0, lam1 = pre.jumps, post.jumps, pre.intensity, post.intensity
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
        if spec.family == "gamma":
            a, t = spec.activity, spec.scale
            safe = np.where(GRID > 0.0, GRID, 1.0)
            assert spec.jump_truncated_mean() == a * t * (1.0 - math.exp(-1.0 / t))
            assert np.array_equal(spec.levy_density(GRID), np.where(
                GRID > 0.0, a * np.exp(-safe / t) / safe, 0.0))
            continue
        for n in (0, 1, 257):
            fresh = RngStream(8086, 10 * i + n).generator
            mean, density, sizes = _per_kind_law(spec.jumps, fresh(), n)
            assert np.array_equal(spec.jumps.jump_sizes(fresh(), n), sizes)
        assert spec.jumps.truncated_mean() == mean
        assert spec.jump_truncated_mean() == spec.intensity * mean
        assert np.array_equal(spec.levy_density(GRID), spec.intensity * density)


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
