import ast
import math
import re
import sys
import threading
import typing
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from levydetect import engine, kernels, rng
from levydetect.config import ExperimentConfig
from levydetect.detector import DetectorConfig
from levydetect.engine import RuleSpec, run_dyadic, run_paths
from levydetect.errors import ContractError
from levydetect.evaluate import (calibrate_barrier, compare, estimate_arl,
                                 lorden_delay, lower_bound_ratio)
from levydetect.families import ExponentialJumps, LevySpec, TwoSidedExponentialJumps
from levydetect.likelihood import llr_path
from levydetect.model import build_change_model
from levydetect.paths import sample_changed_path
from levydetect.rng import RngStream, give_back, lease, stream_id

from conftest import u_increments

SEED = 8086
TWO_RULES = [("cusum_grid", 0.1), ("shiryaev_roberts", 0.1)]     # compare at one step


MODEL_FIXTURES = ["brownian_model", "poisson_model", "jump_diffusion_model",
                  "gamma_model", "exponential_model", "two_sided_model"]


def _per_family_increments(model, regime, dt, gens, size):
    """The per-family sampler expressions, with their order of operations:
    component 0 Brownian normals (or gamma variates); the increments of a
    jump pair are :func:`_event_increments`."""
    spec = model.pre if regime == "pre" else model.post
    bm_sd = abs(model.alpha) * model.sigma * math.sqrt(dt)
    bm_mean = (0.5 if regime == "post" else -0.5) * (model.alpha * model.sigma) ** 2 * dt
    if model.phi is None:
        return bm_mean + bm_sd * gens[0].standard_normal(size)
    comp_dt = model.comp_rate * dt
    if spec.family == "gamma":
        return model.phi.pos[1] * gens[0].gamma(spec.jumps.activity * dt, spec.jumps.scale, size) \
            - comp_dt
    return _event_increments(model, regime, dt, gens, size)


def _event_increments(model, regime, dt, gens, size):
    """One row of a jump pair, written plainly: the Brownian part (or its
    mean) from component 0; the jump times in steps, sums of exponential
    gaps of mean 1 / (intensity * dt), -log(1 - u) / (intensity * dt) of a
    uniform u drawn one at a time from component 1;
    one jump size per jump, drawn one at a time from component 2 (none
    where phi is constant on the support); each jump adds phi(size) to the
    step k with its time in (k - 1, k], in time order; then the
    compensator."""
    spec = model.pre if regime == "pre" else model.post
    bm_sd = abs(model.alpha) * model.sigma * math.sqrt(dt)
    bm_mean = (0.5 if regime == "post" else -0.5) * (model.alpha * model.sigma) ** 2 * dt
    out = bm_mean + bm_sd * gens[0].standard_normal(size) if bm_sd > 0.0 \
        else np.full(size, bm_mean)
    times, t = [], 0.0
    while (t := t - np.log1p(-gens[1].random()) / (spec.jumps.intensity * dt)) <= size:
        times.append(t)
    constant = model.phi.constant
    for t in times:
        out[math.ceil(t) - 1] += constant if constant is not None \
            else model.phi(spec.jumps.law.jump_sizes(gens[2], 1)[0])
    return out - model.comp_rate * dt


def _by_component(rows) -> list:
    """Rows of :meth:`RngStream.substreams` as the engine hands generators
    out: entry c lists the rows' generators of component c, in row order
    (None where the rows have none)."""
    return [None if g is None else list(column) for g, column in zip(rows[0], zip(*rows))]


def _fresh(ids, components) -> list:
    """Freshly built generators of ``components`` of streams (SEED, i), i in
    ``ids``, by component."""
    return _by_component([RngStream(SEED, i).substreams(components) for i in ids])


class _RecordingGenerator:
    """A generator that counts its draw calls and the values they ask for."""

    def __init__(self, gen):
        self.gen, self.calls, self.values = gen, 0, 0

    @property
    def used(self) -> bool:
        return self.calls > 0

    def __getattr__(self, name):
        draw = getattr(self.gen, name)

        def counted(*args, **kwargs):
            self.calls += 1
            values = draw(*args, **kwargs)
            self.values += np.size(values)
            return values
        return counted


def _equal_rates():
    """Exponential jumps at one rate, intensity 1 -> 2: c1 is exactly 0."""
    pre, jumps = LevySpec.compound_poisson(1.0, ExponentialJumps(1.5)), ExponentialJumps(1.5)
    drift = (pre.drift_b - pre.jump_truncated_mean()) + 2.0 * jumps.truncated_mean()
    return (build_change_model(pre, LevySpec.compound_poisson(2.0, jumps, drift=drift)),
            (engine.COUNT,))


def _equal_negative_rates():
    """Two-sided exponential jumps whose negative side keeps its rate: c1 is
    0 on that side only, so phi is not constant on the support, and each
    jump's size is drawn."""
    pre = LevySpec.compound_poisson(1.0, TwoSidedExponentialJumps(1.0, 2.0, 0.5))
    jumps = TwoSidedExponentialJumps(1.5, 2.0, 0.6)
    drift = (pre.drift_b - pre.jump_truncated_mean()) + 1.2 * jumps.truncated_mean()
    return (build_change_model(pre, LevySpec.compound_poisson(1.2, jumps, drift=drift)),
            (engine.COUNT, engine.MARK))


def _two_sided_intensity():
    """Two-sided exponential jumps of one law, intensity 1 -> 1.5: phi is
    log 1.5 on both sides."""
    jumps = TwoSidedExponentialJumps(1.0, 2.0, 0.5)
    pre = LevySpec.compound_poisson(1.0, jumps)
    drift = (pre.drift_b - pre.jump_truncated_mean()) + 1.5 * jumps.truncated_mean()
    return (build_change_model(pre, LevySpec.compound_poisson(1.5, jumps, drift=drift)),
            (engine.COUNT,))


# pairs with a zero mark coefficient: builders of (model, the components it draws from)
_ZERO_WEIGHT_PAIRS = {"equal_rates": _equal_rates,
                      "equal_negative_rates": _equal_negative_rates,
                      "two_sided_intensity": _two_sided_intensity}


def _streams(ids, components) -> list:
    """[substreams, a new event clock or None] of streams (SEED, i), i in ``ids``."""
    out = []
    for i in ids:
        gens = RngStream(SEED, i).substreams(components)
        state = engine.stream_state(_by_component([gens]))
        out.append([gens, state[engine.CLOCK] if len(state) > engine.CLOCK else None])
    return out


def _draw(sampler, streams, rows, steps) -> np.ndarray:
    """One sampler call on the rows ``rows`` of ``streams``, from
    :func:`_streams`; their clocks carry on."""
    clock = None if streams[rows[0]][1] is None else \
        np.concatenate([streams[i][1] for i in rows])
    state = engine.stream_state(_by_component([streams[i][0] for i in rows]), clock)
    block = sampler(state, (len(rows), steps))
    for j, i in enumerate(rows):
        if streams[i][1] is not None:
            streams[i][1] = state[engine.CLOCK][j:j + 1]
    return block


class TestSamplers:
    @pytest.mark.parametrize("fixture", MODEL_FIXTURES + ["gaussian_shift_model"])
    @pytest.mark.parametrize("regime", ["pre", "post"])
    @pytest.mark.parametrize("dt", [0.1, 0.5])
    def test_sampler_matches_the_per_family_formula(self, fixture, regime, dt, request):
        """Bit for bit, over successive calls of different widths (the
        first, of one step, mostly without a jump), against the written-out
        per-family expression on fresh generators of the same substreams:
        for a jump pair, its events drawn one by one."""
        model = request.getfixturevalue(fixture)
        rng = RngStream(SEED, stream_id("arl", 5))
        streams = _streams([rng.stream_id], engine.substream_components(model, dt))
        sampler = engine.make_u_sampler(model, regime, dt)
        got = np.concatenate([_draw(sampler, streams, [0], w)[0] for w in (1, 699, 1300)])
        fresh = [RngStream(SEED, rng.stream_id, c).generator() for c in range(3)]
        assert np.array_equal(got, _per_family_increments(model, regime, dt, fresh, 2000))

    @pytest.mark.parametrize("fixture", MODEL_FIXTURES)
    @pytest.mark.parametrize("regime", ["pre", "post"])
    @pytest.mark.parametrize("dt", [0.1, 0.5])
    def test_sampler_draws_from_exactly_its_components(self, fixture, regime, dt,
                                                       request):
        """Given generators at exactly substream_components and None at
        every other index, the sampler draws from each of them and from
        nothing else."""
        model = request.getfixturevalue(fixture)
        components = engine.substream_components(model, dt)
        assert list(components) == sorted(set(components))
        gens = tuple(None if g is None else _RecordingGenerator(g)
                     for g in RngStream(SEED, 9).substreams(components))
        assert [c for c, g in enumerate(gens) if g is not None] == list(components)
        engine.make_u_sampler(model, regime, dt)(
            engine.stream_state(_by_component([gens])), (1, 500))
        assert all(gens[c].used for c in components)

    @pytest.mark.parametrize("fixture", MODEL_FIXTURES)
    @pytest.mark.parametrize("regime", ["pre", "post"])
    def test_block_call_equals_single_row_calls(self, fixture, regime, request):
        """A call over b rows gives, bit for bit, the b rows of single-row
        calls, also when successive calls draw different subsets of rows,
        each row's event clock carrying on from its last call."""
        model = request.getfixturevalue(fixture)
        components = engine.substream_components(model, 0.1)
        sampler = engine.make_u_sampler(model, regime, 0.1)
        ids = [stream_id("arl", i) for i in range(6)]
        block_streams, row_streams = _streams(ids, components), _streams(ids, components)
        for rows, steps in (([0, 1, 2, 3, 4, 5], 64), ([4, 1], 128), ([5, 0, 4], 37)):
            block = _draw(sampler, block_streams, rows, steps)
            assert block.shape == (len(rows), steps)
            for j, i in enumerate(rows):
                assert np.array_equal(block[j], _draw(sampler, row_streams, [i], steps)[0])

    @pytest.mark.parametrize("pair", ["poisson_model", *_ZERO_WEIGHT_PAIRS])
    def test_zero_weight_marks_are_never_drawn(self, pair, request, monkeypatch):
        """A law whose phi is constant on its support (c1 = 0, and one c0
        wherever its jumps land) adds that constant per jump: it lists no
        mark component, builds no mark generator and draws no jump size; a
        law with c1 = 0 on one side only draws each size, for its side. The
        increments are still the per-family formula's, bit for bit, in both
        regimes. On a fresh thread, whose pool starts empty, a run builds
        each generator it hands out on its own component."""
        model, components = _ZERO_WEIGHT_PAIRS[pair]() if pair in _ZERO_WEIGHT_PAIRS \
            else (request.getfixturevalue(pair), (engine.COUNT,))
        assert engine.substream_components(model, 0.1) == components
        for regime in ("pre", "post"):
            gens = [_RecordingGenerator(RngStream(SEED, 4, c).generator())
                    for c in range(3)]
            got = engine.make_u_sampler(model, regime, 0.1)(
                engine.stream_state(_by_component([gens])), (1, 3000))[0]
            assert [c for c, g in enumerate(gens) if g.used] == list(components)
            fresh = [RngStream(SEED, 4, c).generator() for c in range(3)]
            assert np.array_equal(got, _per_family_increments(model, regime, 0.1,
                                                              fresh, 3000))
        built = _count_builds(monkeypatch)
        rule = RuleSpec(kind="cusum", log_barrier=2.0)
        _on_fresh_thread(lambda: run_paths(model, "pre", rule, 0.1, 300, 40, SEED, "arl"))
        assert Counter(stream.component for stream in built) == {c: 40 for c in components}

    @pytest.mark.parametrize("regime,fixture,substeps", [
        *(pytest.param(regime, fixture, 1, id=f"{regime}-{fixture}")
          for regime in ("pre", "post") for fixture in MODEL_FIXTURES),
        pytest.param("pre", "poisson_model", 2, id="pre-poisson_model-half_grid")])
    def test_increment_law_matches_path_route(self, regime, fixture, substeps, request):
        """One-step law from the exact sampler agrees with the per-path
        simulator route: two-sample KS p-value above 1e-4. The path is drawn
        on a grid ``substeps`` times finer than the step, so on the half grid
        llr_path sums two grid steps. Each case draws both routes on streams
        no other case reads, so the thirteen cases are independent and
        together fail by chance at most about once in 770 redraws (KS is
        conservative where a law has an atom). Over seeds 101-125 the
        smallest of 300 p-values of the twelve one-step-grid cases was
        0.0029, 8 were below 0.05, and the smallest of the half-grid case's
        25 was 0.21. A gamma post-change sampler drawing with the pre-change
        scale gives p = 4e-17; a half-grid path read after its first grid
        step only, p = 1e-263."""
        model = request.getfixturevalue(fixture)
        dt, n = 0.5, 1500
        tau, path_seed, fast_seed = {("pre", 1): (math.inf, SEED, SEED + 1),
                                     ("post", 1): (0.0, SEED + 3, SEED + 4),
                                     ("pre", 2): (math.inf, SEED + 5, SEED + 6)}[regime, substeps]
        path_u = np.array([
            llr_path(model, sample_changed_path(
                model, tau, dt, dt / substeps, RngStream(path_seed, i))).u_values[-1]
            for i in range(n)])
        fast_u = u_increments(model, regime, dt, n, RngStream(fast_seed, 0))
        assert ks_2samp(path_u, fast_u).pvalue > 1e-4

    def test_mean_matches_drift(self, gamma_model):
        n = 200000
        u = u_increments(gamma_model, "pre", 1.0, n, RngStream(SEED + 2, 0))
        se = u.std(ddof=1) / math.sqrt(n)
        assert abs(u.mean() - gamma_model.beta_pre) <= 3.0 * se


JUMP_FIXTURES = ["poisson_model", "gaussian_shift_model", "jump_diffusion_model",
                 "exponential_model", "two_sided_model"]


def _sampled(model, regime, dt, rows, widths) -> np.ndarray:
    """``rows`` replications' increments over successive sampler calls of
    ``widths`` steps, on streams (SEED, arl/i); each row's clock carries on."""
    sampler = engine.make_u_sampler(model, regime, dt)
    state = engine.stream_state(_fresh([stream_id("arl", i) for i in range(rows)],
                                       engine.substream_components(model, dt)))
    return np.concatenate([sampler(state, (rows, w)) for w in widths], axis=1)


class TestEventClock:
    @pytest.mark.parametrize("rate_dt", [0.005, 0.5])
    def test_counts_per_step_are_poisson(self, poisson_model, rate_dt):
        """The intensity-only pair adds log 2 per jump, so each step's
        increment gives its jump count. Over 200,400 steps of 400 rows, the
        counts have mean and variance rate * dt and P(N = 0) =
        exp(-rate * dt), and the first step of the rows has mean rate * dt,
        each within 4 SE. A rate 5 % too high, or events put one step late,
        fail it at rate * dt = 0.5."""
        model = poisson_model
        dt = rate_dt / model.pre.jumps.intensity
        u = _sampled(model, "pre", dt, 400, (64, 200, 237))
        jumps = u + model.comp_rate * dt
        n = np.rint(jumps / model.phi.constant)
        assert n.min() >= 0.0 and np.allclose(jumps, n * model.phi.constant, atol=1e-9)
        m, size = rate_dt, n.size
        checks = [(n.mean(), m, math.sqrt(m / size)),
                  (n.var(), m, math.sqrt((m + 2.0 * m * m) / size)),
                  ((n == 0).mean(), math.exp(-m),
                   math.sqrt(math.exp(-m) * (1.0 - math.exp(-m)) / size)),
                  (n[:, 0].mean(), m, math.sqrt(m / n.shape[0]))]
        for got, want, se in checks:
            assert abs(got - want) <= 4.0 * se, (got, want, se)

    @pytest.mark.parametrize("fixture", JUMP_FIXTURES)
    @pytest.mark.parametrize("regime", ["pre", "post"])
    def test_phi_sum_per_step_has_its_closed_form_mean(self, fixture, regime, request):
        """Without its compensator and Brownian mean, a step's increment is
        its jumps' phi-sum (plus Brownian noise), whose mean is dt times the
        closed-form phi-mean of the regime (``phi_mean_pre`` or
        ``phi_mean_post``, which carry the intensity), within 4 SE over
        200,400 steps."""
        model, dt = request.getfixturevalue(fixture), 0.1
        bm_mean = (0.5 if regime == "post" else -0.5) * (model.alpha * model.sigma) ** 2 * dt
        x = _sampled(model, regime, dt, 400, (64, 200, 237)) + model.comp_rate * dt - bm_mean
        want = dt * (model.phi_mean_pre if regime == "pre" else model.phi_mean_post)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - want) <= 4.0 * se, (x.mean(), want, se)

    def test_jump_times_are_drawn_by_the_chunk(self, jump_diffusion_model):
        """At dt = 0.005 a step holds a jump with probability 0.005: over
        8,000 steps of 200 rows each row draws its gaps GAPS at a time, so
        it makes N // GAPS + 1 calls on its COUNT generator, N its jumps
        (one size drawn per jump), far fewer than one call per row and
        sub-block."""
        model, dt = jump_diffusion_model, 0.005
        gens = _fresh([stream_id("arl", i) for i in range(200)],
                      engine.substream_components(model, dt))
        counts, marks = ([_RecordingGenerator(g) for g in gens[c]]
                         for c in (engine.COUNT, engine.MARK))
        gens[engine.COUNT], gens[engine.MARK] = counts, marks
        sampler, blocks = engine.make_u_sampler(model, "pre", dt), []

        def counted(state, size):
            blocks.append(size[0])
            return sampler(state, size)
        state = engine.BatchState(counted, (RuleSpec("cusum", math.inf),), gens)
        state.advance(8000, [math.inf])
        jumps = np.array([g.values for g in marks])
        assert (jumps > 0).all() and (jumps > engine.GAPS).any()
        assert [g.calls for g in counts] == (jumps // engine.GAPS + 1).tolist()
        assert sum(g.calls for g in counts) < sum(blocks) / 10

    @pytest.mark.parametrize("fixture", ["jump_diffusion_model", "two_sided_model"])
    def test_gap_chunk_does_not_change_results(self, fixture, request, monkeypatch):
        """GAPS only sets how many gaps a row's clock draws at once: at 1, 7
        and 32 gaps per chunk, run_paths (CUSUM with its lower-bound sums
        and last reflections, Shiryaev-Roberts) and run_dyadic give the same
        bits, in both regimes."""
        model = request.getfixturevalue(fixture)

        def runs(gaps):
            monkeypatch.setattr(engine, "GAPS", gaps)
            return [(run_paths(model, regime, RuleSpec("cusum", 3.0), 0.1, 600, 300, SEED,
                               "arl", collect_lb=True, last_reflect=True),
                     run_paths(model, regime, RuleSpec("sr", math.log(150.0)), 0.1, 600,
                               300, SEED, "arl"),
                     run_dyadic(model, regime, 2.0, 0.01, 1200, [4, 2, 1], 60, SEED))
                    for regime in ("pre", "post")]
        first, *others = [runs(gaps) for gaps in (1, 7, 32)]
        assert first[0][0].censored.any() and not first[0][0].censored.all()
        for other in others:
            for (cusum, sr, dyadic), (cusum_o, sr_o, dyadic_o) in zip(first, other):
                _assert_same_run(cusum, cusum_o, fixture)
                assert np.array_equal(sr.stop_steps, sr_o.stop_steps)
                assert np.array_equal(sr.stat, sr_o.stat, equal_nan=True)
                for a, b in zip(dyadic[0] + dyadic[1], dyadic_o[0] + dyadic_o[1]):
                    assert np.array_equal(a, b)


class TestRunPaths:
    def test_threads_do_not_change_results(self, brownian_model):
        """Six batches on up to four workers, each restarting its own
        generators for its next batch, switching threads every microsecond."""
        rule, n_rep = RuleSpec(kind="cusum", log_barrier=2.0), 5 * engine.BATCH + 76
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [run_paths(brownian_model, "pre", rule, 0.05, 1000, n_rep, SEED,
                              "arl", threads=t) for t in (1, 2, 4)]
        finally:
            sys.setswitchinterval(interval)
        for other in runs[1:]:
            assert np.array_equal(runs[0].stop_steps, other.stop_steps)
            assert np.array_equal(runs[0].stat, other.stat)

    def test_common_random_numbers_make_stops_monotone_in_barrier(self, brownian_model):
        """Same streams, larger barrier: every replication stops later."""
        stops = []
        for h in (1.0, 1.5, 2.0, 2.5):
            rule = RuleSpec(kind="cusum", log_barrier=h)
            res = run_paths(brownian_model, "pre", rule, 0.05, 4000, 600, SEED, "arl")
            stops.append(res.stop_times)
        for a, b in zip(stops, stops[1:]):
            assert np.all(b >= a - 1e-12)

    def test_censoring_flagged(self, brownian_model):
        rule = RuleSpec(kind="cusum", log_barrier=8.0)
        res = run_paths(brownian_model, "pre", rule, 0.05, 200, 300, SEED, "arl")
        assert res.censored.all()
        assert np.all(res.stop_times == pytest.approx(10.0))

    def test_fixed_rule(self, brownian_model):
        """The fixed rule of 7 steps is a rule that never stops, run to a
        horizon of 7 steps."""
        rule = RuleSpec("cusum", math.inf)
        res = run_paths(brownian_model, "pre", rule, 0.1, 7, 100, SEED, "arl")
        assert res.censored.all() and np.all(res.stop_times == pytest.approx(0.7))

    def test_one_step_geometric_oracle(self, brownian_model):
        """Zero barrier: the rule stops at the first step whose statistic is
        nonnegative, i.e. run length is geometric with p = P(U_step >= 0)."""
        dt = 0.5
        rule = RuleSpec(kind="cusum", log_barrier=0.0)
        res = run_paths(brownian_model, "pre", rule, dt, 4000, 40000, SEED, "arl")
        p = 1.0 - _phi_cdf(0.5 * 1.0 * math.sqrt(dt))   # P(N(-dt/2, dt) >= 0)
        expected = dt / p
        est = res.stop_times.mean()
        se = res.stop_times.std(ddof=1) / math.sqrt(len(res.stop_times))
        assert abs(est - expected) <= 3.0 * se

    def test_sr_rule_mean_run_length_scales_with_threshold(self, brownian_model):
        """E[R_k] = k under the pre-change law pins the in-control mean near
        threshold * dt (optional-stopping heuristic, generous tolerance)."""
        dt = 0.1
        rule = RuleSpec(kind="sr", log_barrier=math.log(200.0))
        res = run_paths(brownian_model, "pre", rule, dt, 50000, 2000, SEED, "arl")
        est = res.stop_times.mean()
        assert 0.8 * 200.0 * dt <= est <= 1.6 * 200.0 * dt

    @pytest.mark.parametrize("regime", ["pre", "post"])
    @pytest.mark.parametrize("kind,collect_lb", [
        ("cusum", False), ("cusum", True), ("sr", True), ("fixed", True)])
    def test_chunk_width_does_not_change_results(self, regime, kind, collect_lb,
                                                  request, monkeypatch):
        """Draw-and-scan sub-block boundaries fall at different steps for
        each width; the outputs of every family must not move by a single
        bit."""
        # the fixed rule of 150 steps: a rule that never stops, run 150 steps
        rule, n_steps = {"cusum": (RuleSpec(kind="cusum", log_barrier=3.0), 600),
                         "sr": (RuleSpec(kind="sr", log_barrier=math.log(150.0)), 600),
                         "fixed": (RuleSpec("cusum", math.inf), 150)}[kind]

        def run(model, chunk):
            monkeypatch.setattr(engine, "CHUNK", chunk)
            return run_paths(model, regime, rule, 0.1, n_steps, 300, SEED, "arl",
                             collect_lb=collect_lb, last_reflect=True)
        for fixture in MODEL_FIXTURES:
            model = request.getfixturevalue(fixture)
            runs = [run(model, c) for c in (37, 64, 4096)]
            if kind != "fixed" and regime == "pre":
                assert runs[0].censored.any() and not runs[0].censored.all(), fixture
            for other in runs[1:]:
                _assert_same_run(runs[0], other, fixture)

    @pytest.mark.parametrize("regime", ["pre", "post"])
    def test_first_sub_block_width_does_not_change_results(self, regime, request,
                                                            monkeypatch):
        """SUB_BLOCK moves every sub-block boundary (1 and 7 split a path
        into many more sub-blocks, 4096 draws it in one), and no output of
        either rule, the lower-bound sums and last reflections included,
        moves by a single bit."""
        rules = (RuleSpec(kind="cusum", log_barrier=3.0),
                 RuleSpec(kind="sr", log_barrier=math.log(150.0)))

        def run(model, rule, width):
            monkeypatch.setattr(engine, "SUB_BLOCK", width)
            return run_paths(model, regime, rule, 0.1, 600, 300, SEED, "arl",
                             collect_lb=True, last_reflect=True)
        for fixture in MODEL_FIXTURES:
            model = request.getfixturevalue(fixture)
            for rule in rules:
                runs = [run(model, rule, w) for w in (1, 7, 64, 4096)]
                for other in runs[1:]:
                    _assert_same_run(runs[0], other, fixture)

    @pytest.mark.parametrize("regime", ["pre", "post"])
    def test_rules_sharing_paths_match_their_own_runs(self, regime, request):
        """run_rules draws each path once for a CUSUM and an SR rule, and
        each rule's stops, statistics, last reflections and lower-bound sums
        are those of its own run_paths, bit for bit, although a path stays
        live until both rules stop. Beside a rule of stride 4, which moves
        every sub-block boundary to a multiple of 4, a stride-1 rule keeps
        its own bits too, and so does a rule that never stops, beside a rule
        that does."""
        cusum = RuleSpec(kind="cusum", log_barrier=3.0)
        sr = RuleSpec(kind="sr", log_barrier=math.log(150.0))
        strided = RuleSpec(kind="cusum", log_barrier=2.0, stride=4)
        unreachable = RuleSpec("sr", math.inf)
        for rules, keep in (((cusum, sr), True), ((cusum, strided), False),
                            ((cusum, unreachable), True)):
            for fixture in MODEL_FIXTURES:
                model = request.getfixturevalue(fixture)
                shared = engine.run_rules(model, regime, rules, 0.1, 600, 300, SEED, "arl",
                                          collect_lb=keep, last_reflect=keep)
                for rule, res in zip(rules, shared):
                    _assert_same_run(run_paths(model, regime, rule, 0.1, 600, 300, SEED,
                                               "arl", collect_lb=keep, last_reflect=keep),
                                     res, fixture)

    @pytest.mark.parametrize("n_steps", [5, 300])
    def test_censored_lb_sums_stop_at_the_horizon(self, n_steps, request):
        """A CUSUM or SR rule that no path can reach runs to the horizon n
        and reports the stop time n * dt, as the rule of barrier +inf does;
        its lower-bound sums cover the same steps 0 .. n - 1, bit for bit,
        and are those of the fixed rule of n steps (lower_bound_ratio's)."""
        def run(model, rule):
            return run_paths(model, "pre", rule, 0.1, n_steps, 40, SEED, "lower_bound",
                             collect_lb=True)
        config = DetectorConfig(rule="cusum_grid", log_barrier=2.0, delta=0.1)
        for fixture in MODEL_FIXTURES:
            model = request.getfixturevalue(fixture)
            never = run(model, RuleSpec("cusum", math.inf))
            fixed = lower_bound_ratio(model, config, 40, n_steps * 0.1, SEED,
                                      fixed_steps=n_steps)
            assert fixed.estimate == 0.1 * (never.lb_num.mean() / never.lb_den.mean()), fixture
            for kind in ("cusum", "sr"):
                res = run(model, RuleSpec(kind=kind, log_barrier=1e300))
                assert res.censored.all(), fixture
                assert np.array_equal(res.stop_times, never.stop_times), fixture
                assert np.array_equal(res.lb_num, never.lb_num), fixture
                assert np.array_equal(res.lb_den, never.lb_den), fixture

    @pytest.mark.parametrize("kind,collect_lb", [
        ("cusum", False), ("cusum", True), ("sr", False), ("sr", True), ("fixed", True)])
    def test_each_drawn_sub_block_is_summed_once(self, brownian_model, kind, collect_lb,
                                                 monkeypatch):
        """One cumulative sum per sampler call, whichever scans read the
        block (the SR rule with lower-bound sums runs two)."""
        calls = _count_draws(monkeypatch)
        sums = _count_calls(monkeypatch, kernels, "cumulative")
        # the fixed rule of 500 steps: a rule that never stops, run 500 steps
        rule, n_steps = {"cusum": (RuleSpec(kind="cusum", log_barrier=3.0), 600),
                         "sr": (RuleSpec(kind="sr", log_barrier=math.log(150.0)), 600),
                         "fixed": (RuleSpec("cusum", math.inf), 500)}[kind]
        run_paths(brownian_model, "pre", rule, 0.1, n_steps, 300, SEED, "arl",
                  collect_lb=collect_lb)
        assert len(calls) > 3 and len(sums) == len(calls)

    @pytest.mark.parametrize("fixture", MODEL_FIXTURES)
    def test_draws_stay_within_twice_the_consumed_steps(self, fixture, request,
                                                        monkeypatch):
        """A path draws only the sub-blocks it scans, so it overdraws by less
        than the width of the sub-block holding its stop: at most
        max(SUB_BLOCK, sqrt(SUB_BLOCK * stop)) steps (a censored path draws
        the whole horizon and no more). Each sampler call draws every row of
        one scanned sub-block, so there are no more calls than scans."""
        calls = _count_draws(monkeypatch)
        scans = _count_calls(monkeypatch, kernels, "cusum_scan")
        n_steps, n_rep = 5000, 1500
        res = run_paths(request.getfixturevalue(fixture), "pre",
                        RuleSpec(kind="cusum", log_barrier=2.0), 0.05, n_steps,
                        n_rep, SEED, "arl")
        consumed = np.where(res.censored, n_steps, res.stop_steps)
        _assert_overdraw_within_sub_block(_row_draws(calls, n_rep), consumed, n_steps, 1)
        assert 0 < len(calls) <= len(scans) < n_rep

    @pytest.mark.parametrize("regime", ["pre", "post"])
    def test_collect_lb_does_not_change_cusum_outputs(self, brownian_model, regime):
        """Accumulating the lower-bound sums rides along the same scan: stops,
        statistics and last reflections equal those of the plain run."""
        rule = RuleSpec(kind="cusum", log_barrier=2.0)
        plain, lb = (run_paths(brownian_model, regime, rule, 0.1, 600, 300, SEED,
                               "arl", collect_lb=c, last_reflect=True)
                     for c in (False, True))
        assert (plain.last_reflect > 0).any()
        assert np.array_equal(plain.stop_steps, lb.stop_steps)
        assert np.array_equal(plain.stat, lb.stat, equal_nan=True)
        assert np.array_equal(plain.last_reflect, lb.last_reflect)
        assert np.array_equal(plain.tau_hat, lb.tau_hat, equal_nan=True)

    def test_last_reflection_is_kept_only_when_read(self, brownian_model, monkeypatch):
        """Only a raw estimate_arl result (tau_hat, for stops.csv) keeps the
        last reflections; estimates, calibration probes, Lorden runs and the
        lower bound skip that scan, and skipping it moves no stop."""
        calls = _count_calls(monkeypatch, kernels, "last_reflection")
        config = DetectorConfig(rule="cusum_grid", log_barrier=2.0, delta=0.1)
        estimate_arl(brownian_model, config, "in_control", 300, 200.0, SEED)
        lorden_delay(brownian_model, config, (0.0, 1.0), 300, 200.0, SEED)
        lower_bound_ratio(brownian_model, config, 300, 200.0, SEED)
        calibrate_barrier(brownian_model, "cusum_grid", 8.0, 0.05, SEED, delta=0.1,
                          n_rep=300)
        assert calls == []
        _, raw = estimate_arl(brownian_model, config, "in_control", 300, 200.0, SEED,
                              return_raw=True)
        assert calls and (raw.tau_hat > 0).any()
        rule = RuleSpec(kind="cusum", log_barrier=2.0)
        kept, skipped = (run_paths(brownian_model, "pre", rule, 0.1, 2000, 300, SEED,
                                   "arl", last_reflect=k) for k in (True, False))
        assert skipped.last_reflect is None and np.array_equal(kept.last_reflect,
                                                                raw.last_reflect)
        assert np.array_equal(kept.stop_steps, skipped.stop_steps)
        assert np.array_equal(kept.stat, skipped.stat, equal_nan=True)
        with pytest.raises(ContractError):
            skipped.tau_hat

    @pytest.mark.parametrize("unit,chunk,ends", [
        (1, engine.CHUNK, {0: 64, 255: 256, 256: 384, 1023: 1024, 1024: 1280,
                           4096: 4608, 100000: 100352, 262144: 266240}),
        (3, engine.CHUNK, {0: 66, 255: 264, 256: 264, 1023: 1056, 1024: 1056,
                           4096: 4224}),
        (16, engine.CHUNK, {0: 64, 255: 256, 256: 384, 1023: 1024, 1024: 1280,
                            4096: 4608}),
        (1, 100, {0: 64, 255: 256, 256: 356, 1023: 1056, 1024: 1056, 4096: 4156}),
        (1, 37, {0: 37, 255: 259, 256: 259, 1023: 1036, 1024: 1036, 4096: 4107})])
    def test_block_end_schedule(self, unit, chunk, ends, monkeypatch):
        """Sub-blocks of w steps up to step 4w, w = SUB_BLOCK rounded up to
        whole units, then twice as wide each time the step quadruples, capped
        at the chunk width in whole units: with unit 1 (and 16), 64 wide up
        to step 256, 128 up to 1024, 256 up to 4096, and so on up to 4096
        wide from step 262144; with unit 3, 66 wide up to step 264."""
        monkeypatch.setattr(engine, "CHUNK", chunk)
        assert {pos: engine.block_end(pos, unit=unit) for pos in ends} == ends

    def test_invalid_rule_rejected(self):
        with pytest.raises(ContractError):
            RuleSpec(kind="nope")
        with pytest.raises(ContractError):
            RuleSpec(kind="cusum", log_barrier=-1.0)
        with pytest.raises(ContractError):
            RuleSpec("cusum", 1.0, stride=0)

    @pytest.mark.parametrize("kind", ["cusum", "sr"])
    def test_barrier_may_be_infinite_but_not_nan(self, kind):
        """A barrier of +inf is a rule that never stops; NaN and -inf are
        no barrier."""
        assert RuleSpec(kind, math.inf).log_barrier == math.inf
        for barrier in (math.nan, -math.inf):
            with pytest.raises(ContractError, match="log barrier"):
                RuleSpec(kind, barrier)

    def test_strided_rules_keep_no_step_carries(self, brownian_model):
        """The last reflections, lower-bound sums and record highs count
        steps of the path, so a strided rule runs without them; its stride
        must divide the horizon and every step its batch is advanced to."""
        rule = RuleSpec("cusum", 1.0, stride=2)
        for keep in ({"collect_lb": True}, {"last_reflect": True}):
            with pytest.raises(ContractError, match="strided rules"):
                run_paths(brownian_model, "post", rule, 0.1, 400, 10, SEED, "arl", **keep)
        with pytest.raises(ContractError, match="strided rules"):
            engine.batch_states(brownian_model, "post", (rule,), 0.1, 10, SEED, "calibrate",
                                records=True)
        with pytest.raises(ContractError, match="off the grid of stride 2"):
            run_paths(brownian_model, "post", rule, 0.1, 401, 10, SEED, "arl")
        states = engine.batch_states(brownian_model, "post", (rule,), 0.1, 10, SEED, "arl")
        with pytest.raises(ContractError, match="off the grid of stride 2"):
            engine.advance(states, 3, [1.0])


# every conftest pair but gamma 1 -> 2, where exp(X) has infinite variance
IDENTITY_FIXTURES = ["brownian_model", "poisson_model", "gaussian_shift_model",
                     "jump_diffusion_model", "gamma_model_mild", "exponential_model",
                     "two_sided_model"]


class TestShiryaevRobertsIdentity:
    @pytest.mark.parametrize("fixture", IDENTITY_FIXTURES)
    def test_in_control_mean_stop_equals_mean_statistic(self, request, fixture):
        """Under the pre-change law E[exp(X)] = 1, so R_k - k is a martingale
        and E[N ^ n] = E[R_{N ^ n}] for the grid SR rule (Pollak, Ann.
        Statist. 13, 1985). At log A = 2 over n = 10 steps of 0.1 some rows
        stop and others are censored, so the check covers the sampler, the
        scan, the stop steps and the statistic a censored row reports (its
        last value). Over 20,000 paths the paired difference is within 3
        SE of 0: over 25 other seeds the largest |z| of the seven pairs was
        2.7. Stops one step late, or a compensator 5 % too large, fail it."""
        n_steps, n_rep = 10, 20000
        res = run_paths(request.getfixturevalue(fixture), "pre", RuleSpec("sr", 2.0), 0.1,
                        n_steps, n_rep, 1985, "arl",
                        block=IDENTITY_FIXTURES.index(fixture))
        d = np.where(res.censored, n_steps, res.stop_steps) - np.exp(res.stat)
        z = d.mean() / (d.std(ddof=1) / math.sqrt(n_rep))
        assert abs(z) <= 3.0, f"z = {z:.2f}"


class TestCusumIdentity:
    @pytest.mark.parametrize("fixture", IDENTITY_FIXTURES)
    def test_in_control_mean_statistic_equals_mean_lower_bound_sum(self, request, fixture):
        """The grid CUSUM statistic is S_k = e^{X_k} max(S_{k-1}, 1), S_0 = 0.
        Under the pre-change law E[exp(X)] = 1, so S_k - sum_{j<k} (1 - S_j)^+
        is a martingale (Moustakides, Ann. Statist. 14, 1986) and
        E[S_{N ^ n}] = E[sum_{j<N ^ n} (1 - S_j)^+], the lower-bound sum
        ``lb_den`` (its j = 0 term included). At log h = 2 over n = 100 steps
        of 0.1 some rows stop and others are censored, so the check covers
        the sampler, the scan, the stop steps, the statistic a row reports
        and the lower-bound sums at once. Over 10,000 paths the paired
        difference is within 3.5 SE of 0: over seeds 101-125 the largest |z|
        of the seven pairs was 2.42 (175 values, sd 0.96). A compensator 5 %
        too large fails it on the four pairs that have one."""
        n_steps, n_rep = 100, 10000
        res = run_paths(request.getfixturevalue(fixture), "pre", RuleSpec("cusum", 2.0), 0.1,
                        n_steps, n_rep, 2016, "arl", block=IDENTITY_FIXTURES.index(fixture),
                        collect_lb=True)
        d = np.exp(res.stat) - res.lb_den
        z = d.mean() / (d.std(ddof=1) / math.sqrt(n_rep))
        assert abs(z) <= 3.5, f"z = {z:.2f}"


class TestRunDyadic:
    def test_strides_must_divide(self, brownian_model):
        with pytest.raises(ContractError):
            run_dyadic(brownian_model, "post", 2.0, 0.1, 101, [4, 2, 1], 10, SEED)

    def test_annotations_resolve(self):
        hints = typing.get_type_hints(engine.run_dyadic)
        assert hints["return"] == typing.Tuple[typing.List[np.ndarray],
                                               typing.List[np.ndarray]]

    def test_matches_run_paths_at_stride_one(self, brownian_model):
        stops, strict = run_dyadic(brownian_model, "post", 2.0, 0.1, 400, [1],
                                   500, SEED)
        res = run_paths(brownian_model, "post", RuleSpec(kind="cusum", log_barrier=2.0),
                        0.1, 400, 500, SEED, "converge")
        assert np.array_equal(stops[0], res.stop_times)
        # continuous increment laws: the two stopping conventions coincide
        assert np.array_equal(stops[0], strict[0])

    @pytest.mark.parametrize("regime", ["pre", "post"])
    @pytest.mark.parametrize("strides,n_steps", [([20, 10, 1], 1200), ([3, 2, 1], 600)])
    def test_matches_whole_horizon_oracle(self, regime, strides, n_steps, request):
        """Drawing and scanning in sub-blocks aligned to the lcm of the
        strides (6 for [3, 2, 1], which does not nest) gives the bits of one
        whole-horizon draw per path scanned at once; censored rows report the
        horizon."""
        censored = stopped = False
        for fixture in MODEL_FIXTURES:
            model = request.getfixturevalue(fixture)
            got = run_dyadic(model, regime, 2.0, 0.01, n_steps, strides, 60, SEED)
            expected = _whole_horizon_dyadic(model, regime, 2.0, 0.01, n_steps,
                                             strides, 60)
            for g, e in zip(got[0] + got[1], expected[0] + expected[1]):
                assert np.array_equal(g, e), fixture
                censored |= bool((g == n_steps * 0.01).any())
                stopped |= bool((g < n_steps * 0.01).any())
        assert censored and stopped

    @pytest.mark.parametrize("strides", [[3, 2, 1], [16, 8, 4, 2]])
    def test_first_sub_block_width_does_not_change_results(self, strides, request,
                                                            monkeypatch):
        """SUB_BLOCK moves every sub-block boundary, which stays on every
        stride's grid; no stop under either convention moves by a single
        bit."""
        censored = stopped = False
        for fixture in MODEL_FIXTURES:
            model = request.getfixturevalue(fixture)
            runs = []
            for width in (1, 7, 64, 4096):
                monkeypatch.setattr(engine, "SUB_BLOCK", width)
                stops, strict = run_dyadic(model, "pre", 2.0, 0.01, 1200, strides, 60,
                                           SEED)
                runs.append(stops + strict)
            for other in runs[1:]:
                for a, b in zip(runs[0], other):
                    assert np.array_equal(a, b), fixture
            censored |= any(bool((a == 12.0).any()) for a in runs[0])
            stopped |= any(bool((a < 12.0).any()) for a in runs[0])
        assert censored and stopped

    @pytest.mark.parametrize("fixture", MODEL_FIXTURES)
    def test_draws_stop_once_every_stride_has_stopped(self, fixture, request,
                                                      monkeypatch):
        """A path draws sub-blocks aligned to the lcm of the strides only
        until its last stop over strides and conventions, overdrawing by
        less than the width of the sub-block holding that stop: at most
        max(w, sqrt(w * stop)) steps, w = SUB_BLOCK rounded up to whole lcm
        units (64 steps for the lcm 4 here, not 64 lcm units). Each sampler
        call draws every live row of one sub-block, so there are no more
        calls than scans, and each drawn sub-block is summed once."""
        calls = _count_draws(monkeypatch, "converge")
        scans = _count_calls(monkeypatch, kernels, "cumulative")
        dt, strides, n_steps, n_rep = 0.002, [4, 2, 1], 30000, 300
        stops, strict = run_dyadic(request.getfixturevalue(fixture), "post", 2.0, dt,
                                   n_steps, strides, n_rep, SEED)
        needed = np.rint(np.max(stops + strict, axis=0) / dt).astype(np.int64)
        _assert_overdraw_within_sub_block(_row_draws(calls, n_rep), needed, n_steps, 4)
        assert 0 < len(calls) <= len(scans) < n_rep
        assert len(scans) == len(calls)

    def test_threads_do_not_change_results(self, jump_diffusion_model):
        n_rep = engine.BATCH + 76          # two batches
        runs = [run_dyadic(jump_diffusion_model, "pre", 2.0, 0.05, 400, [4, 2, 1],
                           n_rep, SEED, threads=t) for t in (1, 2)]
        for a, b in zip(runs[0][0] + runs[0][1], runs[1][0] + runs[1][1]):
            assert np.array_equal(a, b)

    def test_one_thread_dispatcher(self):
        """run_paths and run_dyadic share one batch dispatcher, so the
        package starts a thread pool in one place."""
        pkg = Path(__file__).resolve().parents[1] / "src" / "levydetect"
        assert sum(path.read_text().count("ThreadPoolExecutor(")
                   for path in pkg.glob("*.py")) == 1

    def test_one_draw_and_scan_loop(self):
        """Every drawn block is summed in one place, BatchState, and the
        nested grids are its rules: the engine calls no statistic primitive
        itself."""
        pkg = Path(__file__).resolve().parents[1] / "src" / "levydetect"
        assert sum(path.read_text().count("kernels.cumulative(")
                   for path in pkg.glob("*.py")) == 1
        text = (pkg / "engine.py").read_text()
        assert "kernels.reflected" not in text and "kernels.first_crossing" not in text

    def test_ties_rerun_the_strict_convention(self, brownian_model, monkeypatch):
        """With steps of +1 or -1 the statistic lands on the barrier 2.0
        exactly, so the strict stops part from the ">=" ones; both lists
        still equal the whole-horizon scan of each convention."""
        make_u_sampler = engine.make_u_sampler

        def signed(*args):
            draw = make_u_sampler(*args)
            return lambda gens, size: np.sign(draw(gens, size))
        monkeypatch.setattr(engine, "make_u_sampler", signed)
        strides = [4, 2, 1]
        stops, strict = run_dyadic(brownian_model, "post", 2.0, 0.01, 1200, strides, 60,
                                   SEED)
        expected = _whole_horizon_dyadic(brownian_model, "post", 2.0, 0.01, 1200,
                                         strides, 60)
        for g, e in zip(stops + strict, expected[0] + expected[1]):
            assert np.array_equal(g, e)
        assert any((a != b).any() for a, b in zip(stops, strict))


class TestBatchState:
    @pytest.mark.parametrize("regime", ["pre", "post"])
    @pytest.mark.parametrize("kind,collect_lb", [
        ("cusum", False), ("cusum", True), ("sr", True)])
    def test_stopping_and_resuming_matches_one_run(self, regime, kind, collect_lb,
                                                   request):
        """Advancing a batch in pieces to arbitrary steps gives the outputs
        of one uninterrupted run_paths, bit for bit, for every family."""
        rule = {"cusum": RuleSpec(kind="cusum", log_barrier=3.0),
                "sr": RuleSpec(kind="sr", log_barrier=math.log(150.0))}[kind]
        for fixture in MODEL_FIXTURES:
            model = request.getfixturevalue(fixture)
            whole = run_paths(model, regime, rule, 0.1, 600, 300, SEED, "arl",
                              collect_lb=collect_lb, last_reflect=True)
            components = engine.substream_components(model, 0.1)
            state = engine.BatchState(
                engine.make_u_sampler(model, regime, 0.1), (rule,),
                _fresh([stream_id("arl", i) for i in range(300)], components),
                600 if collect_lb else None, last_reflect=True)
            for target in (1, 37, 64, 65, 200, 333, 599, 600):
                engine.advance([state], target, [rule.log_barrier])
            assert np.array_equal(state.stop[0], whole.stop_steps), fixture
            assert np.array_equal(state.stat[0], whole.stat, equal_nan=True), fixture
            assert np.array_equal(state.lastref[0], whole.last_reflect), fixture
            if collect_lb:
                assert np.array_equal(state.num[0], whole.lb_num), fixture
                assert np.array_equal(state.den[0], whole.lb_den), fixture

    @pytest.mark.parametrize("regime", ["pre", "post"])
    @pytest.mark.parametrize("kind", ["cusum", "sr"])
    def test_resuming_under_a_higher_barrier_matches_one_run(self, regime, kind,
                                                             request):
        """Run until a low barrier, on to a step, then until a high barrier:
        the record-high ladders give the stops of both barriers' own runs."""
        low, high = {"cusum": (1.0, 3.0), "sr": (math.log(20.0), math.log(150.0))}[kind]
        for fixture in MODEL_FIXTURES:
            model = request.getfixturevalue(fixture)
            runs = {h: run_paths(model, regime, RuleSpec(kind=kind, log_barrier=h),
                                 0.1, 600, 300, SEED, "arl") for h in (low, high)}
            states = engine.batch_states(model, regime,
                                         (RuleSpec(kind=kind, log_barrier=low),),
                                         0.1, 300, SEED, "arl", records=True)
            engine.advance(states, 600, [low])
            engine.advance(states, 150, [high])
            engine.advance(states, 600, [high])
            for h, run in runs.items():
                assert np.array_equal(states[0].first_reach(0, h), run.stop_steps), fixture

    @pytest.mark.parametrize("keep", [{"lb_horizon": 100}, {"last_reflect": True}],
                             ids=["lb_horizon", "last_reflect"])
    @pytest.mark.parametrize("kind", ["cusum", "sr"])
    def test_records_keep_no_lower_bound_sums_or_last_reflections(self, brownian_model,
                                                                  kind, keep):
        """Both stop at the barrier a row was last advanced under, which a
        higher barrier would not see, so a state kept with records refuses
        them when it is built, before any scan (the CUSUM scan with
        lower-bound sums keeps no record highs at all)."""
        gens = _fresh([stream_id("calibrate", i) for i in range(4)],
                      engine.substream_components(brownian_model, 0.1))
        with pytest.raises(ContractError, match="records keep neither"):
            engine.BatchState(engine.make_u_sampler(brownian_model, "pre", 0.1),
                              (RuleSpec(kind, 2.0),), gens, records=True, **keep)

    def test_calibration_does_not_depend_on_threads(self, brownian_model):
        """1500 replications span two batches, advanced on one or two workers,
        for one rule and for two rules that share their paths."""
        cals = [calibrate_barrier(brownian_model, "cusum_grid", 8.0, 0.02, SEED,
                                  delta=0.1, n_rep=1500, threads=t) for t in (1, 2)]
        assert 1500 > engine.BATCH
        assert cals[0] == cals[1]
        tables = [compare(brownian_model, 8.0, TWO_RULES, 1500, SEED, threads=t,
                          n_rep_calibrate=1500) for t in (1, 2)]
        assert all(row.calibrated for row in tables[0].rows)
        assert tables[0] == tables[1]


class TestStreamRestart:
    def test_restart_equals_a_fresh_build(self):
        """A pooled generator of each component that has drawn normals,
        gammas of shape 0.1, Poisson counts and one uint32 (which leaves half
        a word cached), once restarted, has a fresh build's whole state and
        draws its bits."""
        components, i, j = (0, 1, 2, 3, 4), stream_id("arl", 77, 3), stream_id("delay", 5)

        def draws(gen):
            return (gen.integers(0, 2 ** 32, dtype=np.uint32), gen.standard_normal(9),
                    gen.standard_gamma(0.1, 9), gen.poisson(2.5, 9))

        def restarted():
            gens = lease(SEED, range(j, j + 1), components)
            held = {id(column[0]) for column in gens}
            for column in gens:
                draws(column[0])
            give_back(gens)
            gens = lease(SEED, range(i, i + 1), components)
            assert {id(column[0]) for column in gens} == held
            return gens
        gens = _on_fresh_thread(restarted)
        for c, (gen,) in enumerate(gens):
            fresh = RngStream(SEED, i, c).generator()
            assert repr(gen.bit_generator.state) == repr(fresh.bit_generator.state)
            for a, b in zip(draws(gen), draws(fresh)):
                assert np.array_equal(a, b), c

    @pytest.mark.parametrize("fixture", ["brownian_model", "two_sided_model"])
    def test_run_builds_one_set_of_generators_per_worker(self, fixture, request,
                                                         monkeypatch):
        """On a fresh thread, three batches build one batch of generators;
        the last, short batch runs on restarted ones and equals a batch state
        on freshly built substreams."""
        model, rule = request.getfixturevalue(fixture), RuleSpec("cusum", log_barrier=2.0)
        components = engine.substream_components(model, 0.1)
        built = _count_builds(monkeypatch)
        n_rep = 2 * engine.BATCH + 76
        res = _on_fresh_thread(lambda: run_paths(model, "pre", rule, 0.1, 600, n_rep, SEED,
                                                 "arl", last_reflect=True))
        assert len(built) == engine.BATCH * len(components)
        monkeypatch.undo()
        state = engine.BatchState(
            engine.make_u_sampler(model, "pre", 0.1), (rule,),
            _fresh([stream_id("arl", i) for i in range(2 * engine.BATCH, n_rep)], components),
            last_reflect=True)
        state.advance(600, [rule.log_barrier])
        assert np.array_equal(res.stop_steps[-76:], state.stop[0])
        assert np.array_equal(res.stat[-76:], state.stat[0], equal_nan=True)
        assert np.array_equal(res.last_reflect[-76:], state.lastref[0])

    def test_second_two_thread_run_builds_nothing(self, monkeypatch):
        """The workers of a two-thread run outlive it, and so do their
        generator pools: of two estimate_arl calls on two threads with
        examples_config/poisson.json, the second builds no generator."""
        cfg = ExperimentConfig.load(str(Path(__file__).resolve().parents[1]
                                        / "examples_config" / "poisson.json"))
        model, config, sim = cfg.change_model(), cfg.detector_config(), cfg.simulation
        built = _count_builds(monkeypatch)
        for _ in range(2):
            built.clear()
            estimate_arl(model, config, "in_control", sim["n_rep"], sim["horizon"],
                         sim["master_seed"], threads=2)
        assert built == []

    def test_batch_states_share_no_generator(self, two_sided_model):
        """Calibration resumes its states after their batch ends, so each
        state leases generators of its own."""
        states = engine.batch_states(two_sided_model, "pre",
                                     (RuleSpec("cusum", log_barrier=2.0),),
                                     0.1, 2 * engine.BATCH + 76, SEED, "calibrate")
        gens = [g for state in states for column in state.gens if column is not None
                for g in column]
        assert len(states) == 3 and len({id(g) for g in gens}) == len(gens)
        engine.release(states)

    def test_leases_equal_fresh_builds(self):
        """Leases of several component tuples share one thread's pool: each
        entry of a lease holds, for its component, generators in the state of
        fresh builds on its streams (None at the components not asked for),
        two leases out at once share no generator, and the pool builds only
        what it lacks."""
        seen, built = set(), []

        def check(ids, components):
            gens = lease(SEED, ids, components)
            assert len(gens) == max(components) + 1
            for c, column in enumerate(gens):
                assert (column is None) == (c not in components)
                if column is not None:
                    assert ([repr(g.bit_generator.state) for g in column]
                            == [repr(RngStream(SEED, i, c).generator().bit_generator.state)
                                for i in ids])
            held = {id(g) for column in gens if column is not None for g in column}
            built.append(len(held - seen))
            seen.update(held)
            return gens, held

        def run():
            pool = rng._POOL.gens
            give_back(check(range(0, 3), (0,))[0])
            # component 1 restarts two of the pool's three, component 2 the
            # last and builds one
            give_back(check(range(10, 12), (1, 2))[0])
            out, out_ids = check(range(20, 22), (0, 3, 4))
            gens, ids = check(range(30, 36), (1, 2))
            assert not ids & out_ids
            give_back(gens)
            give_back(out)
            sizes = [len(pool)]
            give_back(check(range(40, 48), (0, 3, 4))[0])
            give_back(check(range(50, 61), (1, 2))[0])
            return out, sizes + [len(pool)]
        out, sizes = _on_fresh_thread(run)
        assert out == [] and built == [3, 1, 2, 12, 6, 0] and sizes == [18, 24]

    def test_a_failing_batch_gives_its_generators_back(self, two_sided_model,
                                                      monkeypatch):
        """A run whose batch raises gives the batch's generators back to its
        thread's pool, which keeps the size it had."""
        rule = RuleSpec("cusum", log_barrier=2.0)

        def failing_make_u_sampler(*args):
            def sampler(gens, size):
                raise RuntimeError("sampler failed")
            return sampler

        def run():
            run_paths(two_sided_model, "pre", rule, 0.1, 300, 100, SEED, "arl")
            before = len(rng._POOL.gens)
            monkeypatch.setattr(engine, "make_u_sampler", failing_make_u_sampler)
            with pytest.raises(RuntimeError, match="sampler failed"):
                run_paths(two_sided_model, "pre", rule, 0.1, 300, 100, SEED, "arl")
            return before, len(rng._POOL.gens)
        before, after = _on_fresh_thread(run)
        assert before == 100 * len(engine.substream_components(two_sided_model, 0.1))
        assert after == before

    @pytest.mark.parametrize("fixture", ["brownian_model", "two_sided_model"])
    def test_second_runs_build_nothing_and_equal_a_fresh_thread(self, fixture, request,
                                                                monkeypatch):
        """On one thread a second estimate_arl and a second compare build no
        generator, and each run equals the same run on a fresh thread."""
        model = request.getfixturevalue(fixture)
        config = DetectorConfig(rule="cusum_grid", log_barrier=2.0, delta=0.1)

        def arl():
            report, res = estimate_arl(model, config, "in_control", engine.BATCH + 76, 200.0,
                                       SEED, return_raw=True)
            return report, res.stop_steps, res.stat, res.last_reflect

        def table():
            return compare(model, 8.0, TWO_RULES, 300, SEED, n_rep_calibrate=300)

        def twice():
            out = []
            for run in (arl, table):
                first = run()
                before = len(built)
                out += [first, run(), len(built) - before]
            return out
        built = _count_builds(monkeypatch)
        arl_1, arl_2, arl_built, table_1, table_2, table_built = _on_fresh_thread(twice)
        arl_fresh, table_fresh = _on_fresh_thread(arl), _on_fresh_thread(table)
        assert arl_built == 0 and table_built == 0
        for got in (arl_1, arl_2):
            assert got[0] == arl_fresh[0]
            for a, b in zip(got[1:], arl_fresh[1:]):
                assert np.array_equal(a, b, equal_nan=True)
        assert table_1 == table_fresh and table_2 == table_fresh
        assert any(row.calibrated for row in table_fresh.rows)

    def test_final_probe_on_a_warm_pool_equals_a_cold_run(self, two_sided_model,
                                                          brownian_model):
        """A calibration on a thread whose pool other runs have filled, with
        other component tuples and a lease never given back, equals one on a
        fresh thread: its probes and its final probe's report."""
        def calibrate():
            return calibrate_barrier(two_sided_model, "cusum_grid", 8.0, 0.02, SEED,
                                     delta=0.1, n_rep=700)

        def warm():
            run_paths(brownian_model, "pre", RuleSpec("cusum", 2.0), 0.1, 300, 900, SEED,
                      "arl")
            engine.batch_states(brownian_model, "pre", (RuleSpec("cusum", 2.0),), 0.1, 100,
                                SEED, "calibrate")
            calibrate_barrier(brownian_model, "shiryaev_roberts", 8.0, 0.02, SEED + 1,
                              delta=0.1, n_rep=300)
            return calibrate()
        cold = _on_fresh_thread(calibrate)
        assert _on_fresh_thread(warm) == cold and cold.report.n_rep == 4 * 700

    def test_no_generator_is_handed_to_two_live_users(self, two_sided_model, monkeypatch):
        """Runs on the thread of live batch states draw from the rest of its
        pool, released states draw no more and their generators go back to
        the pool, which leases them again, and the workers of a threaded run
        draw from pools of their own."""
        make_u_sampler, used = engine.make_u_sampler, {}

        def recording_make_u_sampler(*args):
            draw = make_u_sampler(*args)

            def sampler(gens, size):
                # the generators themselves are kept, so no id is reused
                used.setdefault(threading.get_ident(), []).extend(
                    g for column in gens if column is not None for g in column)
                return draw(gens, size)
            return sampler
        monkeypatch.setattr(engine, "make_u_sampler", recording_make_u_sampler)
        rule, n_rep = RuleSpec("cusum", log_barrier=2.0), 2 * engine.BATCH + 76

        def ids(gens) -> set:
            return {id(g) for g in gens}

        def leased(states) -> set:
            return ids(g for s in states for column in s.gens if column is not None
                       for g in column)

        def run():
            states = engine.batch_states(two_sided_model, "pre", (rule,), 0.1, n_rep, SEED,
                                         "calibrate")
            held = leased(states)
            run_paths(two_sided_model, "pre", rule, 0.1, 300, n_rep, SEED, "arl")
            during = ids(used.pop(threading.get_ident()))
            engine.release(states)
            with pytest.raises(IndexError):
                engine.advance(states, 300, [rule.log_barrier])
            again = engine.batch_states(two_sided_model, "pre", (rule,), 0.1, n_rep, SEED,
                                        "calibrate")
            return held, during, leased(again)
        held, during, again = _on_fresh_thread(run)
        assert held and not held & during and again == held
        used.clear()
        run_paths(two_sided_model, "pre", rule, 0.1, 300, n_rep, SEED, "arl", threads=2)
        pools = [ids(gens) for gens in used.values()]
        assert len(pools) == 2 and not pools[0] & pools[1]

    def test_stream_ids_are_range_checked(self, brownian_model):
        """The last replication's stream id is checked before any batch runs."""
        rules, top = (RuleSpec("cusum", log_barrier=2.0),), 1 << 40
        (res,) = engine.run_rules(brownian_model, "pre", rules, 0.1, 10, top, SEED, "arl",
                                  first=top - 1)
        assert res.stop_steps.size == 1
        with pytest.raises(ValueError, match="replication index out of range"):
            engine.run_rules(brownian_model, "pre", rules, 0.1, 10, top + 1, SEED, "arl",
                             first=top - 1)


def _on_fresh_thread(fn):
    """``fn()`` on a new thread, whose generator pool starts empty."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=300)


def _count_builds(monkeypatch) -> list:
    """The streams of the generators built from now on, on any thread."""
    built, generator = [], RngStream.generator
    monkeypatch.setattr(RngStream, "generator",
                        lambda stream: built.append(stream) or generator(stream))
    return built


def _count_draws(monkeypatch, purpose: str = "arl") -> list:
    """Per sampler call of the engine, the replications of its rows and its
    number of steps. A row's replication is its stream id (its Philox key
    word 1) less that of replication 0 of ``purpose`` (block 0): the engine
    restarts one set of generators for each batch, so a row's generator
    objects do not name its replication."""
    calls, base = [], stream_id(purpose, 0)
    make_u_sampler = engine.make_u_sampler

    def replications(gens) -> list:
        column = next(g for g in gens if g is not None)
        return [int(gen.bit_generator.state["state"]["key"][1]) - base for gen in column]

    def counting_make_u_sampler(*args):
        draw = make_u_sampler(*args)

        def sampler(gens, size):
            calls.append((replications(gens), size[1]))
            return draw(gens, size)
        return sampler
    monkeypatch.setattr(engine, "make_u_sampler", counting_make_u_sampler)
    return calls


def _row_draws(calls, n_rep: int) -> np.ndarray:
    """The steps drawn for each replication over the calls of :func:`_count_draws`."""
    drawn = np.zeros(n_rep, dtype=np.int64)
    for rows, steps in calls:
        drawn[rows] += steps
    return drawn


def _assert_overdraw_within_sub_block(drawn, needed, n_steps: int, unit: int) -> None:
    """Each path draws the steps it needs, and less than one more sub-block:
    under the square-root schedule the sub-block holding step k is at most
    max(w, sqrt(w * k)) wide, w = SUB_BLOCK rounded up to whole units."""
    w = -(-engine.SUB_BLOCK // unit) * unit
    assert (needed < n_steps).any() and (needed > 4 * w).any()
    assert np.all(drawn >= needed)
    assert np.all(drawn <= n_steps)
    assert np.all(drawn - needed < np.maximum(w, np.sqrt(w * needed)))


def _assert_same_run(a, b, fixture: str) -> None:
    """Two engine runs agree bit for bit on every output they kept."""
    assert np.array_equal(a.stop_steps, b.stop_steps), fixture
    assert np.array_equal(a.stat, b.stat, equal_nan=True), fixture
    assert np.array_equal(a.last_reflect, b.last_reflect), fixture
    assert np.array_equal(a.lb_num, b.lb_num), fixture
    assert np.array_equal(a.lb_den, b.lb_den), fixture


def _count_calls(monkeypatch, module, name: str) -> list:
    """One entry per call of ``module.name``."""
    calls, fn = [], getattr(module, name)

    def counting(*args):
        calls.append(None)
        return fn(*args)
    monkeypatch.setattr(module, name, counting)
    return calls


def _whole_horizon_dyadic(model, regime, log_barrier, dt, n_steps, strides, n_rep):
    """run_dyadic over whole-horizon draws: one sampler call per path, the
    cumulative sum of all its increments, then the reflected statistic at
    each stride under both stopping conventions."""
    sampler = engine.make_u_sampler(model, regime, dt)
    components = engine.substream_components(model, dt)
    uu = np.cumsum([sampler(engine.stream_state(_fresh([stream_id("converge", i)], components)),
                            (1, n_steps))[0] for i in range(n_rep)], axis=1).T
    out, out_strict = [], []
    for s in strides:
        y = kernels.reflected(uu[s - 1::s], np.zeros(n_rep))
        for stops, crossed in ((out, y >= log_barrier), (out_strict, y > log_barrier)):
            first = kernels.first_crossing(crossed)
            stops.append(np.where(first >= 0, (first + 1) * s * dt, n_steps * dt))
    return out, out_strict


def _cusum_oracle(row, hbar):
    """Plain-loop reflected statistic: (0-based stop index or -1, statistic
    at the stop or at the last step if none, last 1-based step with
    statistic <= 0)."""
    ui, mi, ref = 0.0, 0.0, 0
    for k, x in enumerate(row):
        ui += x
        y = ui - mi
        if y <= 0.0:
            ref = k + 1
        if y >= hbar:
            return k, y, ref
        mi = min(mi, ui)
    return -1, y, ref


def _lb_oracle(row, stop_step):
    """Plain-loop lower-bound sums over global steps 1 .. stop_step - 1
    (k = 0 contributes 1 to each)."""
    num, den, ui, mi = 1.0, 1.0, 0.0, 0.0
    for k, x in enumerate(row):
        if k + 1 >= stop_step:
            break
        ui += x
        s = math.exp(ui - mi)
        num += max(s, 1.0)
        den += max(1.0 - s, 0.0)
        mi = min(mi, ui)
    return num, den


def _fresh_state(n):
    return np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64)


def _switch_rows(low: int = 1) -> list:
    """Row counts from ``low`` up that sit just below and at every row count
    from which kernels run a recursion across the rows."""
    return sorted({low} | {n for s in kernels.ACROSS_ROWS.values() for n in (s - 1, s)
                           if n >= low})


def _sr_scan_by_accumulate(uu, logA, log_thresh):
    """sr_scan's (offset, stat) with the log sums taken by
    np.logaddexp.accumulate along each path; advances ``logA``."""
    logr = np.empty_like(uu)
    logr[0] = logA
    np.negative(uu[:-1], out=logr[1:])
    np.logaddexp.accumulate(logr, axis=0, out=logr)
    logA[:] = np.logaddexp(logr[-1], -uu[-1])
    logr += uu
    off = kernels.first_crossing(logr >= log_thresh)
    return off, _masked_stat(logr, off)


def _assert_sr_scan_is_accumulate(uu, logA, start, log_thresh):
    """Scan a block with sr_scan and with the accumulate, each from its own
    copy of the carry; offsets, stat and the carry agree bit for bit.
    Returns sr_scan's result."""
    want_a = logA.copy()
    want = _sr_scan_by_accumulate(uu, want_a, log_thresh)
    got = kernels.sr_scan(uu, logA, start, log_thresh)
    for x, y in zip(got + (logA,), want + (want_a,)):
        assert np.array_equal(x, y, equal_nan=True)
    return got


class TestScanKernels:
    def test_cumulative_sums_into_step_major_values(self):
        """A (rows, steps) block becomes (steps, rows) cumulative values, bit
        for bit those of a cumsum along each row with the carry prepended,
        the carry advances to the last of them, and the block is left as it
        is; below and at every switch, and across tiles of the copy."""
        for rows in _switch_rows() + [kernels.TILE_ROWS + 5, 300]:
            rng = np.random.default_rng(23)
            inc, u = rng.normal(-0.05, 0.4, size=(rows, 150)), rng.normal(size=rows)
            want = np.cumsum(np.column_stack([u, inc]), axis=1)[:, 1:].T
            block, carry = inc.copy(), u.copy()
            assert np.array_equal(kernels.cumulative(block, carry), want)
            assert np.array_equal(block, inc)
            assert np.array_equal(carry, want[-1])
            parts = [kernels.cumulative(inc[:, lo:hi].copy(), u)
                     for lo, hi in ((0, 1), (1, 64), (64, 150))]
            assert np.array_equal(np.concatenate(parts), want)
            assert np.array_equal(u, want[-1])

    def test_cusum_sequential_oracle(self):
        rng = np.random.default_rng(3)
        inc = rng.normal(-0.05, 0.3, size=(32, 400))
        hbar = 3.0
        u, mn, lref = _fresh_state(32)
        off, st = kernels.cusum_scan(kernels.cumulative(inc.copy(), u), mn, lref, 0, hbar)
        for i in range(32):
            stop, stat, ref = _cusum_oracle(inc[i], hbar)
            assert off[i] == stop
            assert st[i] == stat        # at the stop, or at the last step
            assert lref[i] == ref
        assert (off >= 0).any() and (off < 0).any()

    def test_multi_chunk_carry(self):
        """Scanning 300-step chunks and dropping stopped rows gives the
        first stops, statistics (the last ones of rows that never stop) and
        last reflections of one whole scan."""
        rng = np.random.default_rng(7)
        inc = rng.normal(-0.05, 0.4, size=(16, 900))
        for hbar in (0.8, 2.5):
            u, mn, lref = _fresh_state(16)
            stops = np.full(16, -1, dtype=np.int64)
            stats = np.full(16, np.nan)
            alive = np.arange(16)
            for lo in range(0, 900, 300):
                cu, cm, cl = u[alive], mn[alive], lref[alive]
                uu = kernels.cumulative(inc[alive, lo:lo + 300].copy(), cu)
                o, s = kernels.cusum_scan(uu, cm, cl, lo, hbar)
                u[alive], mn[alive], lref[alive] = cu, cm, cl
                done = o >= 0
                stops[alive[done]] = lo + 1 + o[done]
                stats[alive] = s
                alive = alive[~done]
            u1, m1, l1 = _fresh_state(16)
            o1, s1 = kernels.cusum_scan(kernels.cumulative(inc.copy(), u1), m1, l1,
                                        0, hbar)
            assert np.array_equal(stops, np.where(o1 >= 0, o1 + 1, -1))
            assert np.array_equal(stats, s1)
            assert np.array_equal(lref, l1)
            for i in range(16):
                stop, stat, ref = _cusum_oracle(inc[i], hbar)
                assert stops[i] == (stop + 1 if stop >= 0 else -1)
                assert lref[i] == ref

    def test_record_highs_oracle(self):
        """Scanned in blocks, on 8 paths and just below and at every switch,
        the record highs of each path are the steps whose statistic is above
        the statistic at every earlier step."""
        for n in _switch_rows(8):
            rng = np.random.default_rng(19)
            inc = rng.normal(-0.05, 0.4, size=(n, 300))
            u, mn, lref = _fresh_state(n)
            best = np.full(n, -np.inf)
            got = [[] for _ in range(n)]
            for lo, hi in ((0, 64), (64, 200), (200, 300)):
                uu = kernels.cumulative(inc[:, lo:hi].copy(), u)
                *_, (rows, steps, values) = kernels.cusum_scan(uu, mn, lref, lo, math.inf,
                                                                best)
                for r, k, v in zip(rows, steps, values):
                    got[r].append((k, v))
            for i in range(n):
                ui, mi, top, want = 0.0, 0.0, -math.inf, []
                for k, x in enumerate(inc[i]):
                    ui += x
                    if ui - mi > top:
                        top = ui - mi
                        want.append((k + 1, top))
                    mi = min(mi, ui)
                assert got[i] == want
                assert best[i] == top

    def test_sr_recursion_oracle(self):
        """Below and at every switch, and at 500 paths, sr_scan gives the bits
        of np.logaddexp.accumulate along each path, block by block (one block
        of 1 or 2 steps, or blocks split at step 77), and follows the
        recursion R_k = (1 + R_{k-1}) e^{x_k}. Every third path starts with a
        zero increment, so its first step adds two equal logs (0 and -0.0:
        logaddexp's x == y branch). No path crosses, so each block's stat is
        its last log R."""
        for rows in _switch_rows(4) + [500]:
            for widths in ((1,), (2,), (77, 123)):
                rng = np.random.default_rng(5)
                inc = rng.normal(0.0, 0.3, size=(rows, sum(widths)))
                inc[::3, 0] = 0.0
                u, a = np.zeros(rows), np.zeros(rows)
                start = 0
                for w in widths:
                    off, stat = _assert_sr_scan_is_accumulate(
                        kernels.cumulative(inc[:, start:start + w].copy(), u), a, start,
                        math.log(1e9))
                    assert np.all(off == -1)
                    start += w
                for i in range(rows):
                    r = 0.0
                    for x in inc[i]:
                        r = (1.0 + r) * math.exp(x)
                    assert stat[i] == pytest.approx(math.log(r), rel=1e-10)

    def test_sr_stops_at_first_crossing(self):
        """On 8 paths and just below and at every switch, sr_scan stops each
        path at its first crossing, with the accumulate's bits."""
        for rows in _switch_rows(8):
            rng = np.random.default_rng(11)
            inc = rng.normal(-0.02, 0.3, size=(rows, 257))
            u, a = np.zeros(rows), np.zeros(rows)
            log_thresh = math.log(30.0)
            off, st = _assert_sr_scan_is_accumulate(kernels.cumulative(inc.copy(), u),
                                                    a, 0, log_thresh)
            assert (off >= 0).any()
            for i in range(rows):
                r, stop = 0.0, -1
                for k, x in enumerate(inc[i]):
                    r = (1.0 + r) * math.exp(x)
                    if math.log(r) >= log_thresh:
                        stop = k
                        break
                assert off[i] == stop
                # log R at the stop, or at the last step
                assert st[i] == pytest.approx(math.log(r), rel=1e-12)

    def test_lb_until_oracle(self):
        rng = np.random.default_rng(17)
        inc = rng.normal(-0.05, 0.4, size=(8, 120))
        stop_steps = rng.integers(1, 121, size=8).astype(np.int64)
        u, state = np.zeros(8), (np.zeros(8), np.ones(8), np.ones(8))
        kernels.lb_until_scan(kernels.cumulative(inc.copy(), u), *state, 0, stop_steps)
        for i in range(8):
            num, den = _lb_oracle(inc[i], stop_steps[i])
            assert state[1][i] == pytest.approx(num, rel=1e-12)
            assert state[2][i] == pytest.approx(den, rel=1e-12)

    def test_lb_cusum_oracle(self):
        rng = np.random.default_rng(13)
        inc = rng.normal(-0.02, 0.3, size=(64, 257))
        u, *state = (*_fresh_state(64), np.ones(64), np.ones(64))
        off, _ = kernels.lb_cusum_scan(kernels.cumulative(inc.copy(), u), *state, 0,
                                       1.2, 258)
        assert (off >= 0).any()
        for i in range(64):
            stop, _, ref = _cusum_oracle(inc[i], 1.2)
            assert off[i] == stop
            assert state[1][i] == ref
            # sums cover steps strictly before the stop
            num, den = _lb_oracle(inc[i], stop + 1 if stop >= 0 else 258)
            assert state[2][i] == pytest.approx(num, rel=1e-12)
            assert state[3][i] == pytest.approx(den, rel=1e-12)

    def test_kernels_equal_the_masked_formulas(self):
        """The reported statistic, last_reflection and lb_sums equal, bit for
        bit, their formulas over (steps, paths) masks: within cusum_scan,
        lb_cusum_scan (with the last reflection kept or not) and
        lb_until_scan. Every other random block has a path count just below
        or at a switch. Over the blocks some path stops at the block's first
        step, some path does not stop, and the horizon falls inside the
        block."""
        rng, cases, switch_rows = np.random.default_rng(29), Counter(), _switch_rows()
        for i in range(300):
            uu, start, carry = _random_block(
                rng, switch_rows[i // 2 % len(switch_rows)] if i % 2 else None)
            m, rows = uu.shape
            block = uu.copy()
            horizon = start + int(rng.integers(1, m + 2))   # in the block or past it
            for keep in (False, True):
                for scan, masked, n_carries, args in (
                        (kernels.cusum_scan, _masked_cusum_scan, 2, (start, 1.5)),
                        (kernels.lb_cusum_scan, _masked_lb_cusum_scan, 4,
                         (start, 1.5, horizon))):
                    got, want = ([c.copy() for c in carry[:n_carries]] for _ in range(2))
                    if not keep:
                        got[1] = want[1] = None
                    out = scan(uu, *got, *args)
                    _assert_all_equal(out + tuple(got), masked(uu, *want, *args) + tuple(want))
            cases.update(first_step=int((out[0] == 0).any()), no_stop=int((out[0] < 0).any()),
                         horizon_inside=int(horizon <= start + m))
            stop = np.where(rng.random(rows) < 0.3, np.iinfo(np.int64).max,
                            start + rng.integers(0, m + 2, size=rows))
            got, want = ([c.copy() for c in carry] for _ in range(2))
            kernels.lb_until_scan(uu, got[0], got[2], got[3], start, stop)
            _masked_lb_sums(kernels.reflected(uu, want[0]), start, stop, want[2], want[3])
            _assert_all_equal(got, want)
            assert np.array_equal(uu, block)        # the scans leave their block as it is
        assert all(cases[case] for case in ("first_step", "no_stop", "horizon_inside"))


def _masked_stat(y, off):
    """The statistic a scan reports, at the crossing or else at the last
    point, as a clamped index and a where over both branches."""
    return np.where(off >= 0, y[np.maximum(off, 0), np.arange(y.shape[1])], y[-1])


def _masked_last_reflection(y, start_step, stop, lastref):
    """last_reflection as the max over a (steps, paths) matrix of the steps
    <= stop with y <= 0, -1 elsewhere."""
    steps = start_step + 1 + np.arange(y.shape[0], dtype=np.int64)
    refl = (y <= 0.0) & (steps[:, None] <= stop[None, :])
    np.maximum(lastref, np.max(np.where(refl, steps[:, None], np.int64(-1)), axis=0),
               out=lastref)


def _masked_lb_sums(y, start_step, stop, num, den):
    """lb_sums with the terms at steps >= stop zeroed, then summed whole."""
    invalid = (start_step + 1 + np.arange(y.shape[0]))[:, None] >= stop[None, :]
    s = np.exp(np.minimum(y, 700.0))
    for terms, total in ((np.maximum(s, 1.0), num), (np.maximum(1.0 - s, 0.0), den)):
        np.copyto(terms, 0.0, where=invalid)
        terms[0] += total
        np.add.accumulate(terms, axis=0, out=terms)
        total[:] = terms[-1]


def _masked_cusum_scan(uu, mn, lastref, start_step, hbar):
    """cusum_scan composed of the masked formulas."""
    y = kernels.reflected(uu, mn)
    off = kernels.first_crossing(y >= hbar)
    if lastref is not None:
        _masked_last_reflection(y, start_step, kernels.crossing_steps(off, start_step),
                                lastref)
    return off, _masked_stat(y, off)


def _masked_lb_cusum_scan(uu, mn, lastref, num, den, start_step, hbar, horizon):
    """lb_cusum_scan composed of the masked formulas."""
    y = kernels.reflected(uu, mn)
    off = kernels.first_crossing(y >= hbar)
    stop = kernels.crossing_steps(off, start_step)
    if lastref is not None:
        _masked_last_reflection(y, start_step, stop, lastref)
    _masked_lb_sums(y, start_step, np.minimum(stop, horizon), num, den)
    return off, _masked_stat(y, off)


def _assert_all_equal(got, want) -> None:
    """Arrays (or Nones) equal bit for bit, pair by pair."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a is None and b is None) or np.array_equal(a, b, equal_nan=True)


def _random_block(rng, rows=None):
    """A block of cumulative values of ``rows`` paths (1 to 39 if None),
    among them ones that cross 1.5 at the block's first step and ones that
    never cross it, a start step, and a carry (mn, lastref, num, den) of
    paths scanned up to it."""
    rows, m = rows or int(rng.integers(1, 40)), int(rng.integers(1, 300))
    start = int(rng.integers(0, 1000))
    inc = rng.normal(rng.uniform(-0.3, 0.1, size=(rows, 1)), 0.4, size=(rows, m))
    inc[rng.random(rows) < 0.2, 0] = 2.0
    u = rng.normal(0.0, 1.0, size=rows)
    mn = np.minimum(u, rng.uniform(-2.0, 0.0, size=rows))
    carry = (mn, rng.integers(0, start + 1, size=rows),
             rng.uniform(1.0, 50.0, size=rows), rng.uniform(1.0, 50.0, size=rows))
    return kernels.cumulative(inc, u), start, carry


def _phi_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def test_statistics_are_computed_only_in_kernels():
    """The running minimum and the Shiryaev-Roberts log sums (accumulated
    along the steps or stepped across the paths) live in kernels.py alone;
    every other module calls its primitives. Within kernels.py every
    accumulate and cumsum call sits in _accumulate, so no recursion can
    bypass its across-the-paths switch."""
    pkg = Path(__file__).resolve().parents[1] / "src" / "levydetect"
    offenders = [f"{path.name}: {pattern}"
                 for path in sorted(pkg.glob("*.py")) if path.name != "kernels.py"
                 for pattern in ("np.minimum.accumulate", "np.logaddexp.accumulate",
                                 "np.logaddexp(")
                 if pattern in path.read_text()]
    assert (pkg / "kernels.py").exists() and offenders == []
    tree = ast.parse((pkg / "kernels.py").read_text())
    inside = {id(node) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "_accumulate"
              for node in ast.walk(fn)}
    bypasses = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("accumulate", "cumsum") and id(node) not in inside]
    assert len(inside) > 1 and bypasses == []


def test_stream_is_the_philox_key_and_components_are_counter_offsets():
    """Component 0 of RngStream(s, i) is Philox keyed [s, i], so rows of an
    old stops.csv for the Brownian and gamma families still replay; component
    c starts that key at counter [0, 0, 0, c]. A change in how numpy seeds
    Philox fails here first."""
    s, i = 8086, stream_id("arl", 123, 2)

    def draws(gen):
        return gen.standard_normal(16)
    assert np.array_equal(draws(RngStream(s, i).generator()),
                          draws(np.random.Generator(np.random.Philox(key=[s, i]))))
    for c in range(1, 5):
        expected = np.random.Generator(np.random.Philox(key=[s, i], counter=[0, 0, 0, c]))
        assert np.array_equal(draws(RngStream(s, i, c).generator()), draws(expected))
    gens = RngStream(s, i).substreams((1, 2))
    assert gens[0] is None
    assert np.array_equal(draws(gens[2]), draws(RngStream(s, i, 2).generator()))


def test_philox_streams_are_built_only_in_rng():
    """Every generator comes from RngStream and only rng.py sets a Philox
    state (the in-place restart of a lease), so the stream contract lives in
    rng.py alone."""
    pkg = Path(__file__).resolve().parents[1] / "src" / "levydetect"
    patterns = (r"np\.random\.Philox", r"np\.random\.Generator\(", r"\.state\s*=(?!=)")
    offenders = [f"{path.name}: {pattern}"
                 for path in sorted(pkg.glob("*.py")) if path.name != "rng.py"
                 for pattern in patterns if re.search(pattern, path.read_text())]
    rng_text = (pkg / "rng.py").read_text()
    assert all(re.search(pattern, rng_text) for pattern in patterns) and offenders == []


def test_only_rng_knows_the_philox_state_format():
    """rng.py alone builds Philox bit generators and sets or reads a
    generator's Philox state: the restart of a lease sets the whole state,
    so the state's format is known in one module."""
    pkg = Path(__file__).resolve().parents[1] / "src" / "levydetect"
    patterns = ("bit_generator.state", "np.random.Philox(")
    offenders = [f"{path.name}: {pattern}"
                 for path in sorted(pkg.glob("*.py")) if path.name != "rng.py"
                 for pattern in patterns if pattern in path.read_text()]
    rng_text = (pkg / "rng.py").read_text()
    assert all(pattern in rng_text for pattern in patterns) and offenders == []


def test_batch_size_does_not_change_results(jump_diffusion_model, monkeypatch):
    """BATCH only cuts the replications into work items: at 1, 7, 100 and 150
    replications per item, run_paths (CUSUM with its last reflections,
    Shiryaev-Roberts with its lower-bound sums), run_dyadic,
    calibrate_barrier and a two-rule compare give the same bits. Items of 7
    rows run every recursion along the steps, and an item of 150 runs each
    across the rows until its live rows fall below that recursion's switch
    (kernels.ACROSS_ROWS), so both ways agree too."""
    assert 7 < min(kernels.ACROSS_ROWS.values()) and max(kernels.ACROSS_ROWS.values()) <= 150
    model = jump_diffusion_model

    def runs(batch):
        monkeypatch.setattr(engine, "BATCH", batch)
        return (run_paths(model, "pre", RuleSpec(kind="cusum", log_barrier=3.0), 0.1,
                          300, 150, SEED, "arl", last_reflect=True),
                run_paths(model, "pre", RuleSpec(kind="sr", log_barrier=math.log(150.0)),
                          0.1, 300, 150, SEED, "arl", collect_lb=True),
                run_dyadic(model, "pre", 2.0, 0.05, 400, [4, 2, 1], 150, SEED),
                calibrate_barrier(model, "cusum_grid", 20.0, 0.05, SEED, delta=0.1,
                                  n_rep=150),
                compare(model, 20.0, TWO_RULES, 150, SEED, rel_tol=0.05,
                        n_rep_calibrate=150))
    first, *others = [runs(batch) for batch in (1, 7, 100, 150)]
    assert not any(math.isnan(row.h_bar) for row in first[4].rows)
    for cusum, sr, (stops, strict), cal, table in others:
        _assert_same_run(first[0], cusum, "cusum")
        _assert_same_run(first[1], sr, "sr")
        for a, b in zip(first[2][0] + first[2][1], stops + strict):
            assert np.array_equal(a, b)
        assert cal == first[3]
        assert table == first[4]


def test_compare_draws_each_path_once(brownian_model, monkeypatch):
    """Two rules at one step draw each calibration and delay path once: each
    sampler call draws rows that sit at one step of their streams, up to the
    end of that step's sub-block at most, so no step is drawn twice, and the
    pair draws less than 0.7 times what the two rules draw in one-rule
    comparisons."""
    calls = _count_draws(monkeypatch, "calibrate")

    def draws(rules) -> int:
        first, pos = len(calls), {}        # replication (any purpose) -> steps drawn
        compare(brownian_model, 15.0, rules, 2000, SEED, n_rep_calibrate=1000)
        for reps, steps in calls[first:]:
            starts = {pos.get(i, 0) for i in reps}
            assert len(starts) == 1, f"one call draws from steps {sorted(starts)[:5]}"
            at = starts.pop()
            assert steps <= engine.block_end(at) - at, (at, steps)
            pos.update((i, at + steps) for i in reps)
        return sum(pos.values())
    shared, alone = draws(TWO_RULES), draws(TWO_RULES[:1]) + draws(TWO_RULES[1:])
    assert shared < 0.7 * alone, (shared, alone)


def test_first_sub_block_width_does_not_change_compare(brownian_model, monkeypatch):
    """SUB_BLOCK moves where the shared calibration and delay paths are cut
    into sub-blocks, and no row of a two-rule compare, nor any probe of a
    calibration."""
    def tables(width):
        monkeypatch.setattr(engine, "SUB_BLOCK", width)
        return (compare(brownian_model, 8.0, TWO_RULES, 600, SEED, n_rep_calibrate=600),
                calibrate_barrier(brownian_model, "cusum_grid", 6.4, 0.02, SEED,
                                  delta=0.1, n_rep=300))
    first = tables(32)
    assert all(row.calibrated for row in first[0].rows)
    assert tables(64) == first
