import pytest

from levydetect import engine
from levydetect.families import (
    ExponentialJumps,
    GaussianJumps,
    LevySpec,
    TwoSidedExponentialJumps,
)
from levydetect.model import build_change_model
from levydetect.rng import give_back, lease


def u_increments(model, regime, dt, n, stream):
    """n independent log-likelihood increments over one step, drawn from one
    stream by the engine's exact sampler. ``engine.make_u_sampler`` is looked
    up at each call, so a test that patches it draws through its mutant."""
    gens = lease(stream.master_seed, range(stream.stream_id, stream.stream_id + 1),
                 engine.substream_components(model, dt))
    try:
        return engine.make_u_sampler(model, regime, dt)(engine.stream_state(gens), (1, n))[0]
    finally:
        give_back(gens)


@pytest.fixture(scope="session")
def brownian_model():
    """Standard Brownian motion, drift 0 -> 1."""
    return build_change_model(LevySpec.brownian(1.0, 0.0),
                              LevySpec.brownian(1.0, 1.0))


@pytest.fixture(scope="session")
def poisson_model():
    """Intensity-only change 1 -> 2 (symmetric Gaussian marks keep the drift
    condition trivially satisfied); the log ratio is constant log 2."""
    return build_change_model(
        LevySpec.compound_poisson(1.0, GaussianJumps(0.0, 1.0)),
        LevySpec.compound_poisson(2.0, GaussianJumps(0.0, 1.0)))


@pytest.fixture(scope="session")
def gaussian_shift_model():
    """Compound Poisson with a jump-mean shift at equal intensity; the
    truncated-moment gap goes into the post drift (sigma = 0 leaves no
    Brownian part to absorb it)."""
    pre = LevySpec.compound_poisson(1.0, GaussianJumps(0.0, 1.0))
    post_jumps = GaussianJumps(1.0, 1.0)
    post_drift = pre.drift_b - pre.jump_truncated_mean() \
        + 1.0 * post_jumps.truncated_mean()
    return build_change_model(
        pre, LevySpec.compound_poisson(1.0, post_jumps, drift=post_drift))


@pytest.fixture(scope="session")
def jump_diffusion_model():
    """Brownian drift shift plus a jump-mean shift."""
    return build_change_model(
        LevySpec.jump_diffusion(1.0, 1.0, GaussianJumps(0.0, 1.0), drift=0.0),
        LevySpec.jump_diffusion(1.0, 1.0, GaussianJumps(0.5, 1.0), drift=1.0))


@pytest.fixture(scope="session")
def gamma_model():
    """Gamma subordinator scale change 1 -> 2."""
    return build_change_model(LevySpec.gamma_subordinator(1.0, 1.0),
                              LevySpec.gamma_subordinator(1.0, 2.0))


@pytest.fixture(scope="session")
def gamma_model_mild():
    """Gamma scale change 1 -> 1.25 (exp(U) has finite variance)."""
    return build_change_model(LevySpec.gamma_subordinator(1.0, 1.0),
                              LevySpec.gamma_subordinator(1.0, 1.25))


@pytest.fixture(scope="session")
def exponential_model():
    """Compound Poisson with exponential jumps, intensity and rate change."""
    pre = LevySpec.compound_poisson(1.0, ExponentialJumps(1.0))
    post_jumps = ExponentialJumps(1.5)
    post_drift = (pre.drift_b - pre.jump_truncated_mean()) \
        + 2.0 * post_jumps.truncated_mean()
    return build_change_model(
        pre, LevySpec.compound_poisson(2.0, post_jumps, drift=post_drift))


@pytest.fixture(scope="session")
def two_sided_model():
    """Two-sided exponential jumps with rate and weight changes."""
    pre_jumps = TwoSidedExponentialJumps(1.0, 2.0, 0.5)
    post_jumps = TwoSidedExponentialJumps(1.5, 1.5, 0.6)
    pre = LevySpec.compound_poisson(1.0, pre_jumps)
    post_drift = (pre.drift_b - pre.jump_truncated_mean()) \
        + 1.2 * post_jumps.truncated_mean()
    return build_change_model(
        pre, LevySpec.compound_poisson(1.2, post_jumps, drift=post_drift))
