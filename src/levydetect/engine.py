"""Batched Monte Carlo engine.

The detection statistics are grid functionals of the log-likelihood process,
and for every catalogue family the law of its increments over a monitoring
step is known exactly, so runs are simulated directly on the monitoring grid.
Each replication owns a counter-based stream (reproducible from its index
alone) and draws each kind of variate from its own substream, so every draw
is a function of its step index only, whatever the schedule that draws it.
For the jump families one table, :func:`_jump_sides`, names the substreams
of each side of the jump law, whose closed forms come from the law itself;
the sampler and :func:`substream_components` both read it.

A :class:`BatchState` holds one batch's streams, carries and steps. It
advances its rows to a step, or until each reaches a barrier, drawing and
scanning exactly the sub-blocks they need (64, 128, 256, ... steps, capped at
the chunk width), so a path costs up to about twice its stopping step and can
be resumed at any step. :func:`run_paths` drives it for one stopping rule;
:func:`run_dyadic` scans several monitoring strides of one fine path in its
own loop. Results depend on neither the worker count nor the chunk width."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .errors import ContractError
from .families import LevySpec
from .model import ChangeModel
from .rng import RngStream, stream_id

__all__ = ["RuleSpec", "PathRunResult", "BatchState", "make_u_sampler",
           "substream_components", "sample_u_increments", "block_end", "batch_states",
           "advance", "run_paths", "run_dyadic"]

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
        if self.kind in ("cusum", "sr") and not math.isfinite(self.log_barrier):
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


def _jump_sides(model: ChangeModel, spec: LevySpec, dt: float) -> list:
    """The stream contract of a compound-Poisson or jump-diffusion pair: one
    row per side of the jump law of ``spec``, positive side first, (count
    component, mark component, jump rate * dt, and the law's c0 and marks of
    the side). ``marks(gen, n)`` draws the marks of ``n`` jumps per step from
    ``gen``; a step's jumps add c0 * n + marks(gen, n) to its phi-sum."""
    lam_dt = spec.intensity * dt
    return [(count, mark, lam_dt * weight, c0, marks)
            for (count, mark), (weight, c0, marks)
            in zip(((COUNT, MARK), (COUNT_NEG, MARK_NEG)), spec.jumps.step_sides(model.phi))]


def substream_components(model: ChangeModel, dt: float) -> Tuple[int, ...]:
    """The substream components the increment sampler of ``model`` draws
    from, in increasing order."""
    if model.phi is None or model.pre.family == "gamma":
        return (BM,)
    jumps = sorted(c for side in _jump_sides(model, model.pre, dt) for c in side[:2])
    return ((BM,) if _bm_sd(model, dt) > 0.0 else ()) + tuple(jumps)


def make_u_sampler(model: ChangeModel, regime: str, dt: float) -> Callable:
    """Exact sampler for log-likelihood increments over one monitoring step.

    ``regime`` is 'pre' (no change yet) or 'post' (changed from the start).
    The sampler is called as ``sampler(gens, size)``, ``gens`` being one
    replication's substream generators indexed by component
    (:meth:`RngStream.substreams` of :func:`substream_components`). Each
    component feeds one kind of variate, one value per step: BM the Brownian
    normals (and the gamma family's gamma variates), and each side of a jump
    law its counts and its marks (:func:`_jump_sides`). That assignment is the
    stream contract; it makes the increments of successive calls continue one
    sequence whatever the call sizes.
    """
    model.require_admissible()
    if regime not in ("pre", "post"):
        raise ContractError(f"regime must be 'pre' or 'post', got {regime!r}")
    spec = model.pre if regime == "pre" else model.post
    bm_sd = _bm_sd(model, dt)
    bm_mean = (0.5 if regime == "post" else -0.5) * (model.alpha * model.sigma) ** 2 * dt

    if model.phi is None:
        def draw(gens, size: int) -> np.ndarray:
            return bm_mean + bm_sd * gens[BM].standard_normal(size)
        return draw

    comp_dt = model.comp_rate * dt

    if spec.family == "gamma":
        shape, theta, c1 = spec.activity * dt, spec.scale, model.phi.pos[1]

        def draw(gens, size: int) -> np.ndarray:
            return c1 * gens[BM].gamma(shape, theta, size) - comp_dt
        return draw

    sides, has_bm = _jump_sides(model, spec, dt), bm_sd > 0.0

    def draw(gens, size: int) -> np.ndarray:
        out = bm_mean + bm_sd * gens[BM].standard_normal(size) if has_bm else bm_mean
        for count, mark, rate_dt, c0, marks in sides:
            n = gens[count].poisson(rate_dt, size)
            out = out + (c0 * n + marks(gens[mark], n))
        return out - comp_dt
    return draw


def sample_u_increments(model: ChangeModel, regime: str, dt: float,
                        n: int, rng: RngStream) -> np.ndarray:
    """n independent log-likelihood increments over one step (one stream)."""
    gens = rng.substreams(substream_components(model, dt))
    return make_u_sampler(model, regime, dt)(gens, n)


# --------------------------------------------------------------------------- #
# the draw-and-scan loop: a resumable batch state and its drivers
# --------------------------------------------------------------------------- #

def block_end(pos: int, chunk: int = CHUNK, unit: int = 1) -> int:
    """End of the sub-block holding step pos + 1. Sub-blocks are SUB_BLOCK *
    unit steps, then double up to ``chunk`` steps rounded down to whole units."""
    cap = max(unit, chunk - chunk % unit)
    start, width = 0, min(SUB_BLOCK * unit, cap)
    while start + width <= pos and width < cap:
        start, width = start + width, min(2 * width, cap)
    return start + width * ((pos - start) // width + 1)


def _draw(sampler, gens, rows: np.ndarray, start: int, end: int) -> np.ndarray:
    """Increments of steps start + 1 .. end for the batch rows ``rows``."""
    inc = np.empty((rows.size, end - start))
    for j, idx in enumerate(rows):
        inc[j] = sampler(gens[idx], end - start)
    return inc


class BatchState:
    """One batch of replications, resumable at any step: the substream
    generators, each row's carries (``CARRIES``), its step ``pos`` and the
    first crossing (``stop``, -1 if none; ``stat``) of the barrier it was last
    advanced under. With ``records`` it also keeps each row's running maximum
    ``best`` and ``ladder`` of record highs (row, step, value), so a row can go
    on under a higher barrier and the step it reached a lower one is a lookup
    (:meth:`first_reach`)."""

    CARRIES = ("u", "mn", "logA", "lastref", "num", "den")

    def __init__(self, sampler, rule: RuleSpec, gens, collect_lb: bool = False,
                 records: bool = False, chunk: int = CHUNK):
        b = len(gens)
        self.sampler, self.rule, self.gens = sampler, rule, gens
        self.collect_lb, self.chunk, self.ladder = collect_lb, chunk, []
        self.pos, self.lastref = np.zeros(b, dtype=np.int64), np.zeros(b, dtype=np.int64)
        self.stop, self.stat = np.full(b, -1, dtype=np.int64), np.full(b, np.nan)
        self.u, self.mn, self.logA = np.zeros(b), np.zeros(b), np.zeros(b)
        self.num, self.den = np.ones(b), np.ones(b)   # k = 0: max(S_0,1) = (1 - S_0)^+ = 1
        self.best = np.full(b, -np.inf) if records else None

    def advance(self, target: int, barrier: float) -> None:
        """Advance each row that has not reached ``barrier`` to step ``target``,
        or to the end of the sub-block in which it does. Rows at one step are
        drawn and scanned together, going on with the schedule from there.
        Every carry is a sequential accumulate and every draw a function of
        its step, so results do not depend on where a run stops and resumes."""
        while True:
            done = self.stop >= 0 if self.best is None else self.best >= barrier
            live = np.flatnonzero((self.pos < target) & ~done)
            if not live.size:
                return
            start = int(self.pos[live].min())
            rows = live[self.pos[live] == start]
            self._scan(rows, start, min(block_end(start, self.chunk), target), barrier)

    def first_reach(self, barrier: float) -> np.ndarray:
        """Each row's first step with statistic >= barrier among the steps it
        has scanned (-1 if none): the step of its first record high at or
        above the barrier. A state kept without records was advanced under
        one barrier."""
        if self.best is None:
            return self.stop
        if len(self.ladder) > 1:
            self.ladder[:] = [tuple(np.concatenate(c) for c in zip(*self.ladder))]
        rows, steps, values = self.ladder[0]
        hit = values >= barrier
        first = np.full(self.pos.size, np.iinfo(np.int64).max)
        np.minimum.at(first, rows[hit], steps[hit])
        return np.where(self.best >= barrier, first, -1)

    def _scan(self, rows: np.ndarray, start: int, end: int, barrier: float) -> None:
        inc = _draw(self.sampler, self.gens, rows, start, end)
        u, mn, logA, lastref, num, den = carries = [getattr(self, c)[rows]
                                                    for c in self.CARRIES]
        rec = () if self.best is None else (self.best[rows],)
        kind, lb = self.rule.kind, self.collect_lb
        if kind == "fixed":
            out = np.full(rows.size, -1, dtype=np.int64), np.nan, np.nan
            if lb:
                kernels.lb_until_scan(inc, u, mn, num, den, start,
                                      np.full(rows.size, self.rule.fixed_steps))
        elif kind == "cusum" and lb:
            out = kernels.lb_cusum_scan(inc, u, mn, lastref, num, den, start, barrier)
        else:
            u_prev = u.copy() if lb else None   # both sr scans advance u from this value
            out = kernels.cusum_scan(inc, u, mn, lastref, start, barrier, *rec) \
                if kind == "cusum" else kernels.sr_scan(inc, u, logA, start, barrier, *rec)
            if lb:
                kernels.lb_until_scan(inc, u_prev, mn, num, den, start,
                                      kernels.crossing_steps(out[0], start))
        for c, value in zip(self.CARRIES, carries):
            getattr(self, c)[rows] = value
        if rec:
            self.best[rows] = rec[0]
            self.ladder.append((rows[out[3][0]],) + out[3][1:])
        off, st, ye = out[:3]
        self.stop[rows] = np.where(off >= 0, start + 1 + off, -1)
        self.stat[rows] = np.where(off >= 0, st, ye)   # censored rows keep the last value
        self.pos[rows] = end


def _pool_map(fn, items, threads: int) -> list:
    """``fn`` over ``items``, inline or on ``threads`` workers, in order."""
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _dispatch(work, components, n_rep: int, master_seed: int, purpose: str,
              block: int, threads: int, first: int = 0) -> list:
    """``work(gens, lo)`` on each slice [lo, lo + BATCH) of replications first ..
    n_rep - 1, ``gens`` the substreams of stream (master_seed, purpose/block/i)."""
    def batch(lo: int):
        return work([RngStream(master_seed, stream_id(purpose, i, block)).substreams(
            components) for i in range(lo, min(lo + BATCH, n_rep))], lo)
    return _pool_map(batch, range(first, n_rep, BATCH), threads)


def batch_states(model: ChangeModel, regime: str, rule: RuleSpec, dt: float,
                 n_rep: int, master_seed: int, purpose: str,
                 block: int = 0, threads: int = 1, first: int = 0,
                 records: bool = False) -> List[BatchState]:
    """Fresh states of the replications first .. n_rep - 1, one per slice of
    :func:`_dispatch`, on the streams :func:`run_paths` gives them."""
    rule.validate()
    sampler = make_u_sampler(model, regime, dt)
    return _dispatch(lambda gens, lo: BatchState(sampler, rule, gens, records=records),
                     substream_components(model, dt), n_rep, master_seed, purpose,
                     block, threads, first)


def advance(states, target: int, barrier: float, threads: int = 1) -> None:
    """:meth:`BatchState.advance` on every state, inline or on ``threads`` workers."""
    _pool_map(lambda s: s.advance(target, barrier), states, threads)


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
    fixed = rule.kind == "fixed"
    lb = (lambda: np.empty(n_rep)) if collect_lb else (lambda: None)
    result = PathRunResult(dt, n_steps, np.empty(n_rep, dtype=np.int64), np.empty(n_rep),
                           np.empty(n_rep, dtype=np.int64), lb(), lb())

    def work(gens, lo: int) -> None:
        state = BatchState(sampler, rule, gens, collect_lb, chunk=chunk)
        state.advance(rule.fixed_steps if fixed else n_steps, rule.log_barrier)
        sl = slice(lo, lo + len(gens))
        result.stop_steps[sl] = rule.fixed_steps if fixed else state.stop
        result.stat[sl], result.last_reflect[sl] = state.stat, state.lastref
        if collect_lb:
            result.lb_num[sl], result.lb_den[sl] = state.num, state.den

    _dispatch(work, substream_components(model, dt), n_rep, master_seed, purpose,
              block, threads)
    return result


def run_dyadic(model: ChangeModel, regime: str, log_barrier: float, dt: float,
               n_steps: int, strides: Sequence[int], n_rep: int,
               master_seed: int, purpose: str = "converge", block: int = 0,
               threads: int = 1) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Stop times of the grid rule at several monitoring strides over one
    shared fine path per replication: two lists of per-stride arrays, for the
    usual ``statistic >= barrier`` stop and the strict ``> barrier`` variant
    (they part ways only when the statistic lands exactly on the barrier).
    Censored runs report the horizon. All strides see identical trajectories,
    so nested-grid comparisons hold pathwise. Sub-blocks are aligned to the
    least common multiple of the strides; a path stops drawing once every
    stride has stopped under both conventions."""
    for s in strides:
        if n_steps % s:
            raise ContractError(f"n_steps {n_steps} not divisible by stride {s}")
    sampler = make_u_sampler(model, regime, dt)
    # global fine step of each stop by convention (>=, >) and stride; -1 = none yet
    stops = np.full((2, len(strides), n_rep), -1, dtype=np.int64)

    def run_batch(gens, lo: int) -> None:
        stop = stops[:, :, lo:lo + len(gens)]
        alive, start = np.arange(len(gens)), 0
        u, mins = np.zeros(alive.size), np.zeros((len(strides), alive.size))
        while start < n_steps and alive.size:
            end = min(block_end(start, unit=math.lcm(*strides)), n_steps)
            uu = kernels.cumulative(_draw(sampler, gens, alive, start, end), u)
            for li, s in enumerate(strides):
                y = kernels.reflected(uu[:, s - 1::s], mins[li])
                for conv, crossed in enumerate((y >= log_barrier, y > log_barrier)):
                    first = kernels.first_crossing(crossed)
                    new = (first >= 0) & (stop[conv, li, alive] < 0)
                    stop[conv, li, alive[new]] = start + (first[new] + 1) * s
            keep = (stop[:, :, alive] < 0).any(axis=(0, 1))
            alive, u, mins, start = alive[keep], u[keep], mins[:, keep], end

    _dispatch(run_batch, substream_components(model, dt), n_rep, master_seed, purpose,
              block, threads)
    times = np.where(stops >= 0, stops * dt, n_steps * dt)
    return list(times[0]), list(times[1])
