"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every test is fully seeded; rerunning reproduces identical numbers.
"""

import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from levydetect import engine, kernels
from levydetect.cli import main as cli_main
from levydetect.detector import DetectorConfig
from levydetect.engine import RuleSpec, advance, batch_states
from levydetect.errors import InadmissibleModelError
from levydetect.evaluate import (
    compare,
    convergence_study,
    estimate_arl,
    lorden_delay,
    lower_bound_ratio,
)
from levydetect.families import GaussianJumps, LevySpec
from levydetect.model import (
    COND_INTEGRABILITY,
    COND_VOLATILITY,
    build_change_model,
)
from levydetect.oracle import brownian_grid_cusum_arl, comp_rate_quadrature
from levydetect.paths import grid_steps
from levydetect.rng import RngStream, stream_id

from conftest import u_increments

SEED = 20260808

BROWNIAN_ARL_TARGET_IN = 2.0 * (math.exp(2.0) - 3.0)       # ~8.7781
BROWNIAN_ARL_TARGET_OUT = 2.0 * (math.exp(-2.0) + 1.0)     # ~2.2707


@pytest.fixture(scope="module")
def models():
    return {
        "brownian": build_change_model(LevySpec.brownian(1.0, 0.0),
                                       LevySpec.brownian(1.0, 1.0)),
        "compound_poisson": build_change_model(
            LevySpec.compound_poisson(1.0, GaussianJumps(0.0, 1.0)),
            LevySpec.compound_poisson(2.0, GaussianJumps(0.0, 1.0))),
        "jump_diffusion": build_change_model(
            LevySpec.jump_diffusion(1.0, 1.0, GaussianJumps(0.0, 1.0), drift=0.0),
            LevySpec.jump_diffusion(1.0, 1.0, GaussianJumps(0.5, 1.0), drift=1.0)),
        "gamma": build_change_model(LevySpec.gamma_subordinator(1.0, 1.0),
                                    LevySpec.gamma_subordinator(1.0, 1.25)),
    }


def _announce(criterion: str, detail: str) -> None:
    print(f"\n[{criterion}] PASS - {detail}")


def _c01_worst_error(reflected) -> float:
    """Worst relative error of a reflected-statistic kernel against the
    explicit maximum over all restart points, max_{m<k} (c_k - c_m), over
    1000 random blocks of sequences. The blocks hold 1 sequence, or as many
    as sit just below or at a row count from which the kernels run a
    recursion across the rows. Each block's sequences are split into blocks
    of steps at 0-3 random points; :func:`kernels.cumulative` sums each
    carrying ``u``, and the kernel scans it carrying ``mn``, as the engine
    does."""
    rng = np.random.default_rng(SEED)
    sizes = sorted({1} | {n for s in kernels.ACROSS_ROWS.values() for n in (s - 1, s)})
    worst = 0.0
    for i in range(1000):
        rows, n = sizes[i % len(sizes)], int(rng.integers(1, 51))
        logs = rng.normal(0.0, 1.5, size=(rows, n))
        c = np.column_stack([np.zeros(rows), np.cumsum(logs, axis=1)])
        cuts = np.sort(rng.integers(1, n + 1, size=int(rng.integers(0, 4))))
        u, mn, stats = np.zeros(rows), np.zeros(rows), []
        for block in np.split(logs, cuts, axis=1):
            if block.shape[1]:
                stats.append(reflected(kernels.cumulative(block.copy(), u), mn))
        earlier = np.tril(np.ones((n, n), dtype=bool))      # m < k
        brute = np.where(earlier, c[:, 1:, None] - c[:, None, :-1], -np.inf).max(axis=2)
        err = np.abs(np.concatenate(stats).T - brute) / np.maximum(1.0, np.abs(brute))
        worst = max(worst, float(err.max()))
    return worst


def test_c01_recursion_equals_exhaustive_definition():
    """The reflected CUSUM statistic every run computes, scanned block by
    block with its carries, reproduces the explicit maximum over all restart
    points, to relative 1e-12, over 1000 random sequences."""
    worst = _c01_worst_error(kernels.reflected)
    assert worst <= 1e-12
    _announce("criterion 1",
              f"kernels.reflected matches the exhaustive maximum (worst rel err {worst:.2e})")


def test_c01_fails_on_a_broken_reflection():
    """Criterion 1 can fail: minima shifted by 0.25, or an ``mn`` carry
    dropped between blocks, each miss the exhaustive maximum by far more
    than 1e-12."""
    def shifted(uu, mn):
        return kernels.reflected(uu, mn) - 0.25

    def no_carry(uu, mn):
        return kernels.reflected(uu, np.zeros_like(mn))

    for mutant in (shifted, no_carry):
        assert _c01_worst_error(mutant) > 1e-12, mutant.__name__


def _c02_z_scores(models, make_u_sampler) -> dict:
    """Signed z-scores against 1, per family, 1e5 draws each: of the mean of
    exp(U_step) under the pre-change law and of the mean of exp(-U_step)
    under the post-change law, the increments drawn by the samplers that
    ``make_u_sampler`` makes in place of :func:`engine.make_u_sampler`."""
    zs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "make_u_sampler", make_u_sampler)
        for i, (name, model) in enumerate(models.items()):
            pre = np.exp(u_increments(model, "pre", 1.0, 100000,
                                      RngStream(SEED, stream_id("martingale", 0, i))))
            post = np.exp(-u_increments(model, "post", 1.0, 100000,
                                        RngStream(SEED, stream_id("martingale", 1, i))))
            zs[name] = tuple((v.mean() - 1.0) / (v.std(ddof=1) / math.sqrt(v.size))
                             for v in (pre, post))
    return zs


def test_c02_martingale_normalization(models):
    """E_pre[exp(U_step)] = 1 and E_post[exp(-U_step)] = 1 within 3 SE for
    all four families, 1e5 draws each. Over 40 other seeds the largest
    post-change |z| of the four families was 2.4."""
    zs = _c02_z_scores(models, engine.make_u_sampler)
    for name, (z_pre, z_post) in zs.items():
        assert abs(z_pre) <= 3.0, f"{name} pre: z = {z_pre:.2f}"
        assert abs(z_post) <= 3.0, f"{name} post: z = {z_post:.2f}"
    _announce("criterion 2",
              "unit martingale means for all four families, pre / post "
              + ", ".join(f"{k}: z={abs(a):.2f} / {abs(b):.2f}" for k, (a, b) in zs.items()))


def test_c02_fails_on_a_wrong_compensator(models):
    """Criterion 2 can fail: increments short by 5 % of the jump compensator
    per step move the pre-change mean of exp(U_step) below 1, and the
    post-change mean of exp(-U_step) above 1, by more than 3 SE on the
    families whose compensator rate is not 0."""
    make = engine.make_u_sampler

    def short_compensator(model, regime, dt):
        draw, short = make(model, regime, dt), 0.05 * model.comp_rate * dt

        def sampler(gens, size):
            out = draw(gens, size)
            out -= short
            return out
        return sampler

    zs = _c02_z_scores(models, short_compensator)
    moved = {name for name, model in models.items() if model.comp_rate != 0.0}
    assert moved == {"compound_poisson", "gamma"}
    for name in moved:
        z_pre, z_post = zs[name]
        assert z_pre < -3.0, f"{name} pre: z = {z_pre:.2f}"
        assert z_post > 3.0, f"{name} post: z = {z_post:.2f}"


def test_c02_fails_on_a_gamma_post_sampler_with_the_pre_scale(models):
    """Criterion 2 can fail: a gamma post-change sampler that draws with the
    pre-change scale moves the post-change mean of exp(-U_step) above 1 by
    more than 3 SE. The gamma pair's laws differ in scale alone, so that
    sampler is the pre-change one, under which the mean is 1 plus the
    chi-square divergence of the pre-change law from the post-change one."""
    make = engine.make_u_sampler

    def pre_scale(model, regime, dt):
        return make(model, "pre" if model.pre.family == "gamma" else regime, dt)

    z_post = _c02_z_scores(models, pre_scale)["gamma"][1]
    assert z_post > 3.0, f"gamma post: z = {z_post:.2f}"


def test_c03_brownian_run_length_oracle(models):
    """Run lengths at grid 1e-3 within 3 SE of the grid rule's closed form
    (Siegmund's corrected diffusion), and the continuous-time closed forms
    re-verified by extrapolating the grid bias to zero."""
    model = models["brownian"]
    base = 21
    results = {}
    for i, dt in enumerate((4e-3, 2e-3, 1e-3)):
        cfg = DetectorConfig(rule="cusum_grid", log_barrier=2.0, delta=dt)
        results[("in", dt)] = estimate_arl(model, cfg, "in_control", 10000,
                                           200.0, SEED, block=base + i)
        results[("out", dt)] = estimate_arl(model, cfg, "out_of_control", 10000,
                                            60.0, SEED, block=base + 3 + i)

    r = math.sqrt(2.0)
    lines = []
    for regime, target, grid_target in zip(
            ("in", "out"), (BROWNIAN_ARL_TARGET_IN, BROWNIAN_ARL_TARGET_OUT),
            brownian_grid_cusum_arl(2.0, 1e-3)):
        fine, mid = results[(regime, 1e-3)], results[(regime, 2e-3)]
        # leading grid bias scales like sqrt(dt): extrapolate the finest pair
        extr = (r * fine.estimate - mid.estimate) / (r - 1.0)
        se = math.hypot(r / (r - 1.0) * fine.std_error,
                        1.0 / (r - 1.0) * mid.std_error)
        assert abs(extr - target) <= 3.0 * se, \
            f"{regime}: extrapolated {extr} vs {target} (se {se})"
        z = (fine.estimate - grid_target) / fine.std_error
        assert abs(z) <= 3.0, f"{regime}: {fine.estimate} vs {grid_target} (z {z:.2f})"
        assert fine.n_censored == 0
        lines.append(f"{regime}: {fine.estimate:.3f} vs grid {grid_target:.3f} "
                     f"(z {z:+.2f}), extrapolated {extr:.3f}+-{se:.3f} vs {target:.3f}")
    _announce("criterion 3", "; ".join(lines))


def test_c04_equalizer_property(models):
    """The restart is Lorden's least favorable state, path by path: on
    common streams every path started from a raised statistic (CUSUM log
    statistic w, Shiryaev-Roberts R = r) stops no later than from the
    restart, and the mean stop is strictly earlier. So the restart delay is
    the worst case at every change point, and the Lorden delay reports its
    one run, uncensored, at each of {0, 1, 5}."""
    model, delta, n_rep, horizon = models["brownian"], 0.05, 10000, 60.0
    n_steps = grid_steps(horizon, delta)
    lines = []
    for rule, kind, h, carry, starts in (
            ("cusum_grid", "cusum", 2.0, "mn", {f"w={w:g}": -w for w in (0.5, 1.0, 1.5)}),
            ("shiryaev_roberts", "sr", math.log(150.0), "logA",
             {f"r={r:g}": math.log1p(r) for r in (1.0, 3.0)})):
        cfg = DetectorConfig(rule=rule, log_barrier=h, delta=delta)
        res = lorden_delay(model, cfg, [0.0, 1.0, 5.0], n_rep, horizon=horizon,
                           seed=SEED)
        assert res.worst.n_censored == 0
        assert all(replace(rep, label=res.worst.label) == res.worst
                   for rep in res.per_tau)
        restart = estimate_arl(model, cfg, "out_of_control", n_rep, horizon, SEED,
                               block=0, purpose="delay",
                               return_raw=True)[1].stop_times

        def stops(start: float) -> np.ndarray:
            states = batch_states(model, "post", (RuleSpec(kind=kind, log_barrier=h),),
                                  delta, n_rep, SEED, "delay")
            for state in states:
                getattr(state, carry)[:] = start
            advance(states, n_steps, [h])
            return np.concatenate([state.stop[0] for state in states])

        for name, start in starts.items():
            raised = stops(start)
            assert np.all((raised >= 0) & (raised * delta <= restart)), f"{rule} {name}"
            assert (raised * delta).mean() < restart.mean(), f"{rule} {name}"
            lines.append(f"{rule} {name}: {(raised * delta).mean():.3f} < "
                         f"{res.worst.estimate:.3f}")
    _announce("criterion 4", "; ".join(lines))


def test_c05_lower_bound_equality(models):
    """The in-control ratio functional of the reflected rule matches the
    independent out-of-control mean within 5% for both models."""
    cfg = DetectorConfig(rule="cusum_grid", log_barrier=2.0, delta=0.1)
    lines = []
    for name, horizon_in, horizon_out in (("brownian", 300.0, 60.0),
                                          ("compound_poisson", 600.0, 60.0)):
        model = models[name]
        lb = lower_bound_ratio(model, cfg, 10000, horizon=horizon_in, seed=SEED)
        e0 = estimate_arl(model, cfg, "out_of_control", 10000, horizon_out,
                          SEED, block=40)
        rel = abs(lb.estimate - e0.estimate) / e0.estimate
        assert rel <= 0.05, f"{name}: {lb.estimate} vs {e0.estimate} ({rel:.2%})"
        assert lb.n_censored == 0
        lines.append(f"{name}: {lb.estimate:.4f} vs {e0.estimate:.4f} ({rel:.2%})")
    _announce("criterion 5", "; ".join(lines))


def test_c06_lower_bound_inequality(models):
    """For a Shiryaev-Roberts rule and a fixed-time rule at the same step,
    the ratio functional stays below the worst-case delay."""
    model = models["brownian"]
    delta = 0.1
    sr_cfg = DetectorConfig(rule="shiryaev_roberts",
                            log_barrier=math.log(150.0), delta=delta)
    lb_sr = lower_bound_ratio(model, sr_cfg, 10000, horizon=400.0, seed=SEED)
    d_sr = lorden_delay(model, sr_cfg, [0.0, 1.0, 5.0], 10000, horizon=60.0,
                        seed=SEED)
    slack_sr = d_sr.worst.estimate + 3.0 * math.hypot(lb_sr.std_error,
                                                      d_sr.worst.std_error)
    assert lb_sr.estimate <= slack_sr

    m = 50
    lb_fx = lower_bound_ratio(model, sr_cfg, 10000, horizon=50.0,
                              seed=SEED, fixed_steps=m)
    fixed_delay = m * delta       # deterministic worst case of the fixed rule
    assert lb_fx.estimate <= fixed_delay + 3.0 * lb_fx.std_error
    _announce("criterion 6",
              f"SR: {lb_sr.estimate:.4f} <= {d_sr.worst.estimate:.4f}; "
              f"fixed: {lb_fx.estimate:.4f} <= {fixed_delay:.1f}")


def test_c07_discretization_convergence(models):
    """Across four dyadic monitoring grids over shared paths, stop times are
    pathwise nonincreasing on all of 1e4 paths and the mean gaps to the
    finest monitored rule shrink monotonically. The limit is the continuous
    rule's: each grid's mean stop, the finest's too, is within 3 SE of the
    grid rule's delay in closed form (Siegmund's corrected diffusion), which
    tends to the continuous rule's as the step goes to 0."""
    res = convergence_study(models["brownian"], 2.0, 4, 10000, SEED,
                            base_delta=0.08, grid_dt=0.005, horizon=40.0)
    assert res.monotone_fraction == 1.0
    gaps = [lv.mean_gap for lv in res.levels]
    assert all(g >= 0.0 for g in gaps)
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    zs = []
    for lv in res.levels + (res.reference,):
        z = (lv.mean_stop - brownian_grid_cusum_arl(2.0, lv.delta)[1]) / lv.std_error
        assert abs(z) <= 3.0, f"delta {lv.delta}: {lv.mean_stop} (z {z:.2f})"
        zs.append(z)
    _announce("criterion 7",
              "monotone on 100% of paths; gaps "
              + " > ".join(f"{g:.4f}" for g in gaps)
              + "; delay z vs closed form " + ", ".join(f"{z:+.2f}" for z in zs))


def test_c08_optimality_gap(models):
    """At a common false-alarm budget of 50 (calibrated to 2%), the CUSUM
    worst-case delay undercuts Shiryaev-Roberts for both models."""
    lines = []
    for name in ("brownian", "compound_poisson"):
        res = compare(models[name], 50.0,
                      [("cusum_grid", 0.1), ("shiryaev_roberts", 0.1)],
                      10000, SEED, rel_tol=0.02, n_rep_calibrate=4000)
        assert all(r.calibrated for r in res.rows)
        for r in res.rows:
            assert abs(r.gamma_achieved - 50.0) <= 0.02 * 50.0 \
                + 3.0 * r.gamma_se, f"{name}/{r.rule} calibration off"
        assert res.cusum_leads()
        cusum = next(r for r in res.rows if r.rule == "cusum_grid")
        sr = next(r for r in res.rows if r.rule == "shiryaev_roberts")
        assert cusum.worst_delay <= sr.worst_delay + 3.0 * math.hypot(
            cusum.delay_se, sr.delay_se)
        lines.append(f"{name}: {cusum.worst_delay:.3f} vs {sr.worst_delay:.3f}")
    _announce("criterion 8", "; ".join(lines))


def test_c09_admissibility_gate():
    """Rejections name their condition; the gamma scale change carries the
    exact log-scale compensator, cross-checked by quadrature to 1e-8."""
    with pytest.raises(InadmissibleModelError) as gate:
        build_change_model(LevySpec.gamma_subordinator(1.0, 1.0),
                           LevySpec.gamma_subordinator(2.0, 1.0))
    assert gate.value.violated == COND_INTEGRABILITY

    with pytest.raises(InadmissibleModelError) as mismatch:
        build_change_model(LevySpec.brownian(1.0, 0.0), LevySpec.brownian(2.0, 0.0))
    assert mismatch.value.violated == COND_VOLATILITY

    scale = build_change_model(LevySpec.gamma_subordinator(1.0, 1.0),
                               LevySpec.gamma_subordinator(1.0, 2.0))
    assert scale.comp_rate == pytest.approx(math.log(2.0), abs=1e-12)
    quad = comp_rate_quadrature(scale)
    assert abs(quad - scale.comp_rate) <= 1e-8
    _announce("criterion 9",
              f"rejections cite their conditions; compensator log 2 matches "
              f"quadrature to {abs(quad - scale.comp_rate):.1e}")


def test_c10_determinism_across_thread_counts(tmp_path):
    """Rerunning with a different worker count leaves every numeric CSV
    column byte-identical."""
    payload = {
        "model": {
            "pre": {"family": "brownian", "sigma": 1.0, "drift": 0.0},
            "post": {"family": "brownian", "sigma": 1.0, "drift": 1.0},
        },
        "simulation": {"horizon": 150.0, "grid_dt": 0.05, "n_rep": 4000,
                       "master_seed": SEED},
        "detector": {"rule": "cusum_grid", "delta": 0.05, "log_barrier": 2.0},
        "experiment": {"regime": "in_control"},
    }
    cfg_path = tmp_path / "c10.json"
    cfg_path.write_text(json.dumps(payload))
    outs = []
    for threads in (1, 3):
        out = str(tmp_path / f"threads{threads}")
        code = cli_main(["arl", "--config", str(cfg_path), "--out", out,
                         "--threads", str(threads)])
        assert code == 0
        outs.append(out)
    for name in ("report.csv", "stops.csv"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, f"{name} differs across thread counts"
    _announce("criterion 10",
              "report.csv and stops.csv byte-identical for 1 vs 3 workers")
