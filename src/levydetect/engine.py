"""Batched Monte Carlo engine.

The detection statistics are grid functionals of the log-likelihood process,
and for every catalogue family the law of its increments over a monitoring
step is known exactly, so runs are simulated directly on the monitoring grid.
Each replication owns a counter-based stream (reproducible from its index
alone) and draws each kind of variate from its own substream, so every draw
is a function of its step index only, whatever the schedule that draws it.

One draw-and-scan loop serves both runs. For the paths still running it
draws exactly the sub-block it scans next (64, 128, 256, ... steps, capped at
the chunk width) and drops the paths that stopped, so a path costs draws and
scan time only up to about twice its stopping step. :func:`run_paths` scans
one stopping rule; :func:`run_dyadic` scans several monitoring strides of one
fine path, in sub-blocks scaled to the least common multiple of the strides.

Per-replication streams make results independent of the worker count and
the chunk width, make common random numbers across barrier candidates hold
pathwise, and let any single replication be replayed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .errors import ContractError
from .model import ChangeModel
from .rng import RngStream, stream_id

__all__ = ["RuleSpec", "PathRunResult", "make_u_sampler", "substream_components",
           "sample_u_increments", "run_paths", "run_dyadic"]

CHUNK = 4096          # widest draw-and-scan sub-block in steps (not a tuning knob)
SUB_BLOCK = 64        # first sub-block of a path; later ones double up to CHUNK
BATCH = 1024          # replications per work item

# substream components (see rng.RngStream): what a sampler draws from each
BM, COUNT, MARK, COUNT_NEG, MARK_NEG = range(5)

@dataclass(frozen=True)
class RuleSpec:
    """Stopping rule run by the engine.

    kind 'cusum': reflected log-likelihood statistic crossing ``log_barrier``;
    kind 'sr': Shiryaev-Roberts statistic crossing exp(``log_barrier``);
    kind 'fixed': deterministic stop after ``fixed_steps`` monitoring steps.
    """

    kind: str
    log_barrier: float = math.nan
    fixed_steps: int = 0

    def validate(self) -> None:
        if self.kind not in ("cusum", "sr", "fixed"):
            raise ContractError(f"unknown rule kind {self.kind!r}")
        if self.kind in ("cusum", "sr"):
            if not math.isfinite(self.log_barrier):
                raise ContractError("rule needs a finite log barrier")
            if self.kind == "cusum" and self.log_barrier < 0.0:
                raise ContractError("cusum log barrier must be >= 0")
        if self.kind == "fixed" and self.fixed_steps < 1:
            raise ContractError("fixed rule needs at least one step")

    def check_horizon(self, n_steps: int) -> None:
        """A fixed rule must stop within the ``n_steps``-step horizon."""
        if self.kind == "fixed" and self.fixed_steps > n_steps:
            raise ContractError(
                f"fixed rule of {self.fixed_steps} steps exceeds the {n_steps}-step horizon")


@dataclass
class PathRunResult:
    """Per-replication outcomes of one engine run."""

    dt: float
    n_steps: int
    stop_steps: np.ndarray        # global step of the stop; -1 = censored
    stat: np.ndarray              # log statistic at the stop (NaN if censored/fixed)
    last_reflect: np.ndarray      # last step with log-statistic <= 0 (cusum, with or
                                  # without collect_lb; 0 for sr and fixed)
    lb_num: Optional[np.ndarray] = None
    lb_den: Optional[np.ndarray] = None

    @property
    def censored(self) -> np.ndarray:
        return self.stop_steps < 0

    @property
    def stop_times(self) -> np.ndarray:
        return np.where(self.censored, self.n_steps * self.dt,
                        self.stop_steps * self.dt)

    @property
    def tau_hat(self) -> np.ndarray:
        return np.where(self.censored, np.nan, self.last_reflect * self.dt)


# --------------------------------------------------------------------------- #
# exact per-step increment samplers for the log-likelihood process
# --------------------------------------------------------------------------- #

def _bm_sd(model: ChangeModel, dt: float) -> float:
    return abs(model.alpha) * model.sigma * math.sqrt(dt)


def substream_components(model: ChangeModel, dt: float) -> Tuple[int, ...]:
    """The substream components the increment sampler of ``model`` draws
    from, in increasing order."""
    if model.phi is None or model.pre.family == "gamma":
        return (BM,)
    jumps = (COUNT, MARK, COUNT_NEG, MARK_NEG) \
        if model.pre.jumps.kind == "two_sided_exponential" else (COUNT, MARK)
    return ((BM,) if _bm_sd(model, dt) > 0.0 else ()) + jumps


def make_u_sampler(model: ChangeModel, regime: str, dt: float) -> Callable:
    """Exact sampler for log-likelihood increments over one monitoring step.

    ``regime`` is 'pre' (no change yet) or 'post' (changed from the start).
    The sampler is called as ``sampler(gens, size)``, ``gens`` being one
    replication's substream generators indexed by component
    (:meth:`RngStream.substreams` of :func:`substream_components`). Each
    component feeds one kind of variate, one value per step: BM the Brownian
    normals (and the gamma family's gamma variates), COUNT the jump counts,
    MARK the jump marks, COUNT_NEG/MARK_NEG the negative side of a two-sided
    law. That assignment is the stream contract; it makes the increments of
    successive calls continue one sequence whatever the call sizes.
    """
    model.require_admissible()
    if regime not in ("pre", "post"):
        raise ContractError(f"regime must be 'pre' or 'post', got {regime!r}")
    spec = model.pre if regime == "pre" else model.post
    alpha, sigma = model.alpha, model.sigma

    bm_sd = _bm_sd(model, dt)
    bm_mean = (0.5 if regime == "post" else -0.5) * (alpha * sigma) ** 2 * dt

    if model.phi is None:
        def draw(gens, size: int) -> np.ndarray:
            return bm_mean + bm_sd * gens[BM].standard_normal(size)
        return draw

    comp_dt = model.comp_rate * dt
    phi = model.phi

    if spec.family == "gamma":
        shape = spec.activity * dt
        theta = spec.scale
        c1 = phi.pos[1]

        def draw(gens, size: int) -> np.ndarray:
            return c1 * gens[BM].gamma(shape, theta, size) - comp_dt
        return draw

    lam_dt = spec.intensity * dt
    law = spec.jumps
    has_bm = bm_sd > 0.0

    def brownian(gens, size: int) -> np.ndarray:
        return bm_mean + bm_sd * gens[BM].standard_normal(size) if has_bm \
            else np.full(size, bm_mean)

    if law.kind == "gaussian":
        c0, c1 = phi.pos
        mean, sd = law.mean, law.sd

        def draw(gens, size: int) -> np.ndarray:
            out = brownian(gens, size)
            n = gens[COUNT].poisson(lam_dt, size)
            z = gens[MARK].standard_normal(size)
            out += c0 * n + c1 * (mean * n + sd * np.sqrt(n) * z)
            return out - comp_dt
        return draw

    if law.kind == "exponential":
        c0, c1 = phi.pos
        rate = law.rate

        def draw(gens, size: int) -> np.ndarray:
            out = brownian(gens, size)
            n = gens[COUNT].poisson(lam_dt, size)
            out += c0 * n + (c1 / rate) * gens[MARK].standard_gamma(n)
            return out - comp_dt
        return draw

    c0p, c1p = phi.pos
    c0n, c1n = phi.neg
    w = law.weight_pos
    rp, rn = law.rate_pos, law.rate_neg

    def draw(gens, size: int) -> np.ndarray:
        out = brownian(gens, size)
        npos = gens[COUNT].poisson(lam_dt * w, size)
        nneg = gens[COUNT_NEG].poisson(lam_dt * (1.0 - w), size)
        out += c0p * npos + (c1p / rp) * gens[MARK].standard_gamma(npos)
        out += c0n * nneg - (c1n / rn) * gens[MARK_NEG].standard_gamma(nneg)
        return out - comp_dt
    return draw


def sample_u_increments(model: ChangeModel, regime: str, dt: float,
                        n: int, rng: RngStream) -> np.ndarray:
    """n independent log-likelihood increments over one step (one stream)."""
    gens = rng.substreams(substream_components(model, dt))
    return make_u_sampler(model, regime, dt)(gens, n)


# --------------------------------------------------------------------------- #
# the draw-and-scan loop of run_paths and run_dyadic
# --------------------------------------------------------------------------- #

def _sub_blocks(total: int, unit: int, chunk: int):
    """(start, end) sub-blocks covering steps [0, total): SUB_BLOCK * unit
    steps, then doubling up to ``chunk`` steps rounded down to whole units.
    Every bound is a multiple of ``unit`` when ``total`` is."""
    cap = max(unit, chunk - chunk % unit)
    start, width = 0, min(SUB_BLOCK * unit, cap)
    while start < total:
        end = min(start + width, total)
        yield start, end
        start, width = end, min(2 * width, cap)


def _draw(sampler, gens, rows: np.ndarray, start: int, end: int) -> np.ndarray:
    """Increments of steps start + 1 .. end for the batch rows ``rows``."""
    inc = np.empty((rows.size, end - start))
    for j, idx in enumerate(rows):
        inc[j] = sampler(gens[idx], end - start)
    return inc


def _dispatch(run_batch, components, n_rep: int, master_seed: int, purpose: str,
              block: int, threads: int) -> None:
    """Call ``run_batch(gens, lo)`` on each slice [lo, lo + BATCH) of the
    replications, inline or on ``threads`` workers. ``gens`` holds the
    substreams of each replication i, stream (master_seed, purpose/block/i)."""
    def work(lo: int) -> None:
        streams = (RngStream(master_seed, stream_id(purpose, i, block))
                   for i in range(lo, min(lo + BATCH, n_rep)))
        run_batch([s.substreams(components) for s in streams], lo)

    starts = range(0, n_rep, BATCH)
    if threads <= 1 or len(starts) <= 1:
        for lo in starts:
            work(lo)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for f in [pool.submit(work, lo) for lo in starts]:
                f.result()


def _run_batch(sampler, rule: RuleSpec, n_steps: int, result, collect_lb: bool,
               chunk: int, gens, lo: int) -> None:
    """Run replications [lo, lo + len(gens)) and write results in place."""
    b = len(gens)
    sl = slice(lo, lo + b)
    stop, stat, out_ref = result.stop_steps[sl], result.stat[sl], result.last_reflect[sl]
    stop[:], stat[:] = -1, np.nan

    # carries of the live rows only, filtered as rows stop
    u, mn, logA = np.zeros(b), np.zeros(b), np.zeros(b)
    lastref = np.zeros(b, dtype=np.int64)
    num, den = np.ones(b), np.ones(b)   # k = 0 terms: max(S_0,1) = 1 and (1 - S_0)^+ = 1
    alive = np.arange(b)

    def settle(sel) -> None:
        """Write the final carries of the live rows ``sel``."""
        out_ref[alive[sel]] = lastref[sel]
        if collect_lb:
            result.lb_num[sl][alive[sel]] = num[sel]
            result.lb_den[sl][alive[sel]] = den[sel]

    fixed_total = rule.fixed_steps if rule.kind == "fixed" else None
    total_steps = n_steps if fixed_total is None else min(n_steps, fixed_total)

    for pos, end in _sub_blocks(total_steps, 1, chunk):
        if not alive.size:
            break
        # every carry is a sequential accumulate and every draw a function of
        # its step, so the split into sub-blocks leaves the results bit-identical
        inc = _draw(sampler, gens, alive, pos, end)

        if rule.kind == "cusum":
            if collect_lb:
                off, st, ye = kernels.lb_cusum_scan(inc, u, mn, lastref, num, den,
                                                    pos, rule.log_barrier)
            else:
                off, st, ye = kernels.cusum_scan(inc, u, mn, lastref, pos,
                                                 rule.log_barrier)
        elif rule.kind == "sr":
            u_prev = u.copy()        # both scans advance u from this value
            off, st, ye = kernels.sr_scan(inc, u, logA, pos, rule.log_barrier)
            if collect_lb:
                kernels.lb_until_scan(inc, u_prev, mn, num, den, pos,
                                      kernels.crossing_steps(off, pos))
        else:  # fixed
            off = np.full(alive.size, -1, dtype=np.int64)
            st = ye = np.full(alive.size, np.nan)
            if collect_lb:
                kernels.lb_until_scan(inc, u, mn, num, den, pos,
                                      np.full(alive.size, fixed_total, dtype=np.int64))

        done = off >= 0
        stat[alive] = np.where(done, st, ye)   # censored rows keep the last value
        if done.any():
            stop[alive[done]] = pos + 1 + off[done]
            settle(done)
            keep = ~done
            alive = alive[keep]
            u, mn, logA, lastref, num, den = (
                c[keep] for c in (u, mn, logA, lastref, num, den))

    settle(slice(None))
    if fixed_total is not None:
        stop[:] = fixed_total


def run_paths(model: ChangeModel, regime: str, rule: RuleSpec, dt: float,
              n_steps: int, n_rep: int, master_seed: int, purpose: str,
              block: int = 0, threads: int = 1, collect_lb: bool = False,
              chunk: int = CHUNK) -> PathRunResult:
    """Monte Carlo run of a stopping rule over ``n_rep`` monitored paths.

    Results are bit-identical for any ``threads`` value and any ``chunk``
    (the widest sub-block drawn and scanned at once): replication i always
    uses the stream (master_seed, purpose/block/i), each of its draws depends
    on its step alone, and aggregation is by fixed slices.
    """
    rule.validate()
    rule.check_horizon(n_steps)
    sampler = make_u_sampler(model, regime, dt)
    result = PathRunResult(
        dt=dt, n_steps=n_steps,
        stop_steps=np.empty(n_rep, dtype=np.int64),
        stat=np.empty(n_rep),
        last_reflect=np.empty(n_rep, dtype=np.int64),
        lb_num=np.empty(n_rep) if collect_lb else None,
        lb_den=np.empty(n_rep) if collect_lb else None,
    )
    _dispatch(partial(_run_batch, sampler, rule, n_steps, result, collect_lb, chunk),
              substream_components(model, dt), n_rep, master_seed, purpose, block,
              threads)
    return result


def run_dyadic(model: ChangeModel, regime: str, log_barrier: float, dt: float,
               n_steps: int, strides: Sequence[int], n_rep: int,
               master_seed: int, purpose: str = "converge", block: int = 0,
               threads: int = 1) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Stop times of the grid rule at several monitoring strides over one
    shared fine path per replication.

    Returns two lists of per-stride stop-time arrays: for the usual
    ``statistic >= barrier`` stop and for the strict ``> barrier`` variant
    (they part ways only when the statistic lands exactly on the barrier).
    Censored runs report the horizon. All strides see identical trajectories,
    so nested-grid comparisons hold pathwise, not just in distribution.
    The sub-blocks are aligned to the least common multiple of the strides,
    and a path stops drawing once every stride has stopped under both
    conventions.
    """
    for s in strides:
        if n_steps % s:
            raise ContractError(f"n_steps {n_steps} not divisible by stride {s}")
    sampler = make_u_sampler(model, regime, dt)
    # global fine step of each stop by convention (>=, >) and stride; -1 = none yet
    stops = np.full((2, len(strides), n_rep), -1, dtype=np.int64)

    def run_batch(gens, lo: int) -> None:
        stop = stops[:, :, lo:lo + len(gens)]
        alive = np.arange(len(gens))
        u, mins = np.zeros(alive.size), np.zeros((len(strides), alive.size))
        for start, end in _sub_blocks(n_steps, math.lcm(*strides), CHUNK):
            if not alive.size:
                break
            uu = kernels.cumulative(_draw(sampler, gens, alive, start, end), u)
            for li, s in enumerate(strides):
                y = kernels.reflected(uu[:, s - 1::s], mins[li])
                for conv, crossed in enumerate((y >= log_barrier, y > log_barrier)):
                    first = kernels.first_crossing(crossed)
                    new = (first >= 0) & (stop[conv, li, alive] < 0)
                    stop[conv, li, alive[new]] = start + (first[new] + 1) * s
            keep = (stop[:, :, alive] < 0).any(axis=(0, 1))
            alive, u, mins = alive[keep], u[keep], mins[:, keep]

    _dispatch(run_batch, substream_components(model, dt), n_rep, master_seed, purpose,
              block, threads)
    times = np.where(stops >= 0, stops * dt, n_steps * dt)
    return list(times[0]), list(times[1])
