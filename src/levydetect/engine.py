"""Batched Monte Carlo engine.

The detection statistics are grid functionals of the log-likelihood process,
and for every catalogue family the law of its increments over a monitoring
step is known exactly, so runs are simulated directly on the monitoring grid.
Each replication owns a counter-based stream (reproducible from its index
alone) and draws each kind of variate from its own substream. Each batch
leases its generators, by component, from its thread's pool, which restarts
them in place on the batch's streams (:func:`rng.lease`); a restart sets the
whole Philox state of a fresh generator, so no value can move.
A Brownian or gamma step draws one variate per step. A compound-Poisson or
jump-diffusion pair draws its jumps as events: each row keeps an event clock
(:func:`stream_state`) of pending jump times, sums of exponential gaps drawn
a chunk at a time (each the inverse of one uniform), and a block adds phi(size) on the step of each of its
events, one jump size drawn per event, none where phi is constant on the
law's support. So a row's k-th normal, jump time and jump size are functions
of k and its stream alone, whatever the schedule that draws them, and a row
with no event in a block draws nothing for its jumps. The sampler fills a
whole (rows, steps) block per call: only the generator calls run per row,
writing into the block, and the arithmetic runs once per block, so a block
holds the bits of its rows drawn one by one.

A :class:`BatchState` holds one batch's streams, steps and event clocks, and
the carries of one or more stopping rules. It advances its rows to a step,
or until each rule reaches its barrier, drawing and scanning exactly the
sub-blocks they need with one sampler call per sub-block that every rule
scans, and can be resumed at any step. It sums each sampled (rows, steps)
sub-block once into step-major (steps, rows) cumulative values, which every
scan kernel reads, a rule of stride s every s-th step, each a contiguous row;
this is the engine's one draw-and-scan loop. Sub-blocks widen as a path goes on, so a
path that stops at step k draws at most max(64, sqrt(64 k)) steps past it; a
rule may watch every s-th step only (its stride), and the widths are whole
multiples of every stride (:func:`block_end`). :func:`run_rules` drives it
for rules that share their paths, :func:`run_paths` for one rule, and
:func:`run_dyadic` for nested monitoring grids, one strided CUSUM rule per
grid of one fine path. Their results depend on neither the worker count,
``CHUNK``, ``SUB_BLOCK`` nor ``GAPS``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .errors import ContractError, SampleSizeError
from .model import ChangeModel
from .rng import give_back, lease, stream_id

__all__ = ["RuleSpec", "PathRunResult", "BatchState", "make_u_sampler",
           "substream_components", "stream_state", "block_end",
           "batch_states", "release", "advance", "run_rules", "run_paths", "run_dyadic"]

CHUNK = 4096          # widest draw-and-scan sub-block in steps (not a tuning knob)
SUB_BLOCK = 64        # first sub-block of a path; later ones double up to CHUNK
BATCH = 1024          # replications per work item
GAPS = 32             # exponential gaps an event clock draws at once (moves no result)

# substream components (see rng.RngStream): what a sampler draws from each
BM, COUNT, MARK = range(3)
CLOCK = 3             # the entry of a jump pair's stream state past its components

@dataclass(frozen=True)
class RuleSpec:
    """Stopping rule run by the engine.

    kind 'cusum': reflected log-likelihood statistic crossing ``log_barrier``;
    kind 'sr': Shiryaev-Roberts statistic crossing exp(``log_barrier``).
    A barrier of +inf is never crossed: such a rule runs to the horizon, the
    fixed rule of that many steps.
    A rule of ``stride`` s > 1 watches every s-th step of the path, steps s,
    2s, ..., and reports its stop in path steps: the nested grids of
    :func:`run_dyadic` are such rules on one shared fine path.
    """

    kind: str
    log_barrier: float = math.nan
    stride: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("cusum", "sr"):
            raise ContractError(f"unknown rule kind {self.kind!r}")
        if math.isnan(self.log_barrier) or self.log_barrier == -math.inf:
            raise ContractError("rule needs a finite or +inf log barrier")
        if self.kind == "cusum" and self.log_barrier < 0.0:
            raise ContractError("cusum log barrier must be >= 0")
        if self.stride < 1:
            raise ContractError(f"stride must be a positive step count; got {self.stride}")


@dataclass
class PathRunResult:
    """Per-replication outcomes of one engine run."""

    dt: float
    n_steps: int
    stop_steps: np.ndarray        # global step of the stop; -1 = censored
    stat: np.ndarray              # log statistic at the stop (the last if censored)
    last_reflect: Optional[np.ndarray]  # last step with log-statistic <= 0 (cusum,
                                  # with or without collect_lb; 0 for sr);
                                  # None unless the run kept it (run_paths' last_reflect)
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
        if self.last_reflect is None:
            raise ContractError("tau_hat needs a run that kept its last reflections")
        return np.where(self.censored, np.nan, self.last_reflect * self.dt)


# --------------------------------------------------------------------------- #
# exact per-step increment samplers for the log-likelihood process
# --------------------------------------------------------------------------- #

def _bm_sd(model: ChangeModel, dt: float) -> float:
    return abs(model.alpha) * model.sigma * math.sqrt(dt)


def substream_components(model: ChangeModel, dt: float) -> Tuple[int, ...]:
    """The substream components the increment sampler of ``model`` draws
    from, in increasing order: BM for a Brownian part (and the gamma
    measure's variates); for a jump pair COUNT for its event times, and MARK
    for its jump sizes unless phi is constant where the jumps land."""
    if model.phi is None or not model.pre.jumps.finite_activity:
        return (BM,)
    return (((BM,) if _bm_sd(model, dt) > 0.0 else ()) + (COUNT,)
            + (() if model.phi.constant is not None else (MARK,)))


def stream_state(gens: list, clock: Optional[np.ndarray] = None) -> list:
    """What a sampler reads of its rows: ``gens``, their generators by
    component, and for a jump pair (one with a COUNT entry) the rows' event
    clock at entry CLOCK: ``clock``, or a new one if None. A clock row is
    [s, t_1, ..., t_GAPS]: s the steps its row has drawn, and t its current
    chunk of event times, in steps from the row's start, ascending; those at
    or before s are spent. A new row is all 0: at step 0, with no event
    pending."""
    if len(gens) <= COUNT or gens[COUNT] is None:
        return gens
    if clock is None:
        clock = np.zeros((len(gens[COUNT]), 1 + GAPS))
    return [*gens, *[None] * (CLOCK - len(gens)), clock]


def _advance_clock(gens, clock: np.ndarray, rate_dt: float, width: int
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Advance the rows' event clocks ``width`` steps, row j drawing from
    ``gens[j]``. Returns the row and the column of each event of the block,
    an event at time t in (k - 1, k] falling on step k, each row's in time
    order (the rows interleave if some drew more than one chunk). A row
    whose chunk ends within the block draws the next chunk, as many
    exponential gaps of mean 1 / ``rate_dt`` steps, each -log(1 - u) /
    ``rate_dt`` of one uniform u, and adds them on, in order, to its last
    time, until a time lies past the block; a row with no event in the
    block draws nothing."""
    start = clock[:, 0].copy()
    end, times = start + width, clock[:, 1:]

    def binned(t, rows):
        r, c = ((t > start[rows, None]) & (t <= end[rows, None])).nonzero()
        return rows[r], (np.ceil(t[r, c]) - start[rows[r]]).astype(np.intp) - 1

    rows = np.arange(len(clock))
    found = [binned(times, rows)]
    rows = rows[times[:, -1] <= end]
    while rows.size:
        t = np.empty((rows.size, times.shape[1]))
        for i, row in zip(rows.tolist(), t):
            gens[i].random(out=row)
        np.negative(t, out=t)
        np.log1p(t, out=t)                  # -log(1 - u) / rate_dt, by inversion
        t /= -rate_dt
        t[:, 0] += times[rows, -1]
        np.cumsum(t, axis=1, out=t)
        times[rows] = t
        found.append(binned(t, rows))
        rows = rows[t[:, -1] <= end[rows]]
    clock[:, 0] = end
    return found[0] if len(found) == 1 else tuple(np.concatenate(c) for c in zip(*found))


def make_u_sampler(model: ChangeModel, regime: str, dt: float) -> Callable:
    """Exact sampler for log-likelihood increments over one monitoring step.

    ``regime`` is 'pre' (no change yet) or 'post' (changed from the start).
    The sampler is called as ``sampler(state, (rows, steps))`` and returns a
    ``(rows, steps)`` block: row j holds the next ``steps`` increments of the
    replication whose generator of component c is ``state[c][j]``, for each
    component c of :func:`substream_components` (as :func:`rng.lease` hands
    them out), and whose event clock, for a jump pair, is row j of
    ``state[CLOCK]`` (:func:`stream_state`), which the call advances. BM
    feeds the Brownian normals (and the gamma measure's gamma variates), one
    per step. A jump pair draws its jumps as events: COUNT feeds each row's
    exponential gaps between jump times, one uniform inverted per gap, MARK one jump size per event (the
    law's ``jump_sizes``), and each event adds phi(size) to its step; where
    phi is constant on the law's support no size is drawn. So a row's k-th
    jump time and k-th jump size are functions of k and its stream alone.
    That is the stream contract; it makes the increments of successive calls
    continue one sequence per row whatever the call sizes and whichever rows
    share a call. The generator calls run per row, each writing into its row
    of the block, and only for the rows whose events need them; the
    arithmetic runs once on the block, in place, in the order of operations
    of the one-row expression.
    """
    if regime not in ("pre", "post"):
        raise ContractError(f"regime must be 'pre' or 'post', got {regime!r}")
    spec = model.pre if regime == "pre" else model.post
    bm_sd = _bm_sd(model, dt)
    bm_mean = (0.5 if regime == "post" else -0.5) * (model.alpha * model.sigma) ** 2 * dt

    def brownian(gens, size) -> np.ndarray:     # bm_mean + bm_sd * z
        z = np.empty(size)
        for gen, row in zip(gens[BM], z):
            gen.standard_normal(out=row)
        z *= bm_sd
        z += bm_mean
        return z

    if model.phi is None:
        return brownian

    comp_dt, nu = model.comp_rate * dt, spec.jumps

    if not nu.finite_activity:
        shape, theta, c1 = nu.activity * dt, nu.scale, model.phi.pos[1]

        def draw(gens, size) -> np.ndarray:     # c1 * gamma(shape, theta) - comp_dt
            g = np.empty(size)
            for gen, row in zip(gens[BM], g):
                gen.standard_gamma(shape, out=row)
            g *= theta                      # gamma(shape, theta), bit for bit
            g *= c1
            g -= comp_dt
            return g
        return draw

    rate_dt, law, phi = nu.intensity * dt, nu.law, model.phi
    has_bm, constant = bm_sd > 0.0, phi.constant

    def jumps(gens, size) -> np.ndarray:
        # bm_mean + bm_sd * z, + phi(size) on each event's step in each
        # row's event order, - comp_dt
        out = brownian(gens, size) if has_bm else np.full(size, bm_mean)
        rows, cols = _advance_clock(gens[COUNT], gens[CLOCK], rate_dt, size[1])
        if rows.size:
            at, values = rows * size[1] + cols, constant
            if constant is None:            # sizes in row, then event, order
                at = at[np.argsort(rows, kind="stable")]
                counts = np.bincount(rows, minlength=size[0]).tolist()
                values = phi(np.concatenate([law.jump_sizes(gen, n)
                                             for gen, n in zip(gens[MARK], counts) if n]))
            np.add.at(out.reshape(-1), at, values)
        out -= comp_dt
        return out
    return jumps


# --------------------------------------------------------------------------- #
# the draw-and-scan loop: a resumable batch state and its drivers
# --------------------------------------------------------------------------- #

def block_end(pos: int, unit: int = 1) -> int:
    """End of the sub-block holding step pos + 1, a multiple of ``unit``
    (a count of steps, like every width). Sub-blocks are w steps wide up
    to step 4w, w = ``SUB_BLOCK`` rounded up to whole units, and their width
    doubles each time the step quadruples (2w up to step 16w, 4w up to 64w,
    ...), capped at ``CHUNK`` steps rounded down to whole units. From step 4w
    on, the width at step k is at most sqrt(w * k): a path that stops at step
    k draws at most max(w, sqrt(w * k)) steps past it, in about 3 sqrt(k / w)
    sub-blocks."""
    cap = max(unit, CHUNK - CHUNK % unit)
    start, width = 0, min(-(-SUB_BLOCK // unit) * unit, cap)
    end = 4 * width                 # where the width next doubles
    while width < cap and pos >= end:
        start, width, end = end, min(2 * width, cap), 4 * end
    return start + width * ((pos - start) // width + 1)


class BatchState:
    """One batch of replications under one or more stopping rules, resumable
    at any step. Each sub-block a row draws is sampled and summed once (the
    carry ``u``; the row's step ``pos``; for a jump pair its event clock
    ``clock``, :func:`stream_state`) and every rule scans it with carries
    of its own (``RULE_CARRIES``, one row per rule in the order of ``rules``)
    and keeps its own first crossing (``stop``, -1 if none; ``stat``, the
    statistic there, the last value if censored) of the barrier it was last
    advanced under. The carries ``lastref`` (with ``last_reflect``) and
    ``num``/``den`` (with ``lb_horizon``: the lower-bound sums over steps
    strictly before each row's stop or step ``lb_horizon``, whichever comes
    first) are None unless asked for. With ``records`` each rule also keeps
    each row's running maximum ``best`` and its ``ladders`` entry of record
    highs (row, step, value), so a row can go on under a higher barrier and
    the step it reached a lower one is a lookup (:meth:`first_reach`). Sub-blocks are whole multiples of ``unit``, the
    least common multiple of the rules' strides (:func:`block_end`), so each
    boundary is a monitoring step of every rule. Last reflections, lower-bound
    sums and records count steps of the path, so only stride-1 rules keep them;
    and the first two stop at the barrier a row was last advanced under, which
    a higher one would not see, so a state kept with records keeps neither."""

    RULE_CARRIES = ("mn", "logA", "lastref", "num", "den")

    def __init__(self, sampler, rules: Sequence[RuleSpec], gens,
                 lb_horizon: Optional[int] = None, records: bool = False,
                 last_reflect: bool = False):
        b, k = len(next(g for g in gens if g is not None)), len(rules)
        self.sampler, self.rules, self.gens = sampler, tuple(rules), gens
        self.unit = math.lcm(*(rule.stride for rule in rules))
        barrier_bound = last_reflect or lb_horizon is not None
        if (self.unit > 1 and (records or barrier_bound)) or (records and barrier_bound):
            raise ContractError("strided rules keep no records, last reflections "
                                "or lower-bound sums, and records keep neither of the others")
        self.lb_horizon, self.ladders = lb_horizon, [[] for _ in self.rules]
        self.pos, self.u = np.zeros(b, dtype=np.int64), np.zeros(b)
        state = stream_state(gens)
        self.clock = state[CLOCK] if len(state) > CLOCK else None
        self.lastref = np.zeros((k, b), dtype=np.int64) if last_reflect else None
        self.stop, self.stat = np.full((k, b), -1, dtype=np.int64), np.full((k, b), np.nan)
        self.mn, self.logA = np.zeros((k, b)), np.zeros((k, b))
        # k = 0: max(S_0, 1) = (1 - S_0)^+ = 1
        self.num, self.den = ((None, None) if lb_horizon is None
                              else (np.ones((k, b)), np.ones((k, b))))
        self.best = np.full((k, b), -np.inf) if records else None

    def advance(self, target: int, barriers: Sequence[float]) -> None:
        """Advance each row on which some rule has not reached its barrier
        (one per rule) to step ``target``, or to the end of the sub-block in
        which the last of them does; a rule whose barrier is -inf keeps no row
        live. Rows at one step are drawn and scanned together, going on with
        the schedule from there. With records every rule scans every drawn
        step, so each can resume; without, a rule that has stopped on a row
        skips its later steps. Every carry is a sequential accumulate, the
        event clock included, and a row's k-th draw of each kind a function
        of k and its stream alone, so results do not depend on where
        a run stops and resumes, nor on which other rules share the paths."""
        if target % self.unit:
            raise ContractError(f"step {target} is off the grid of stride {self.unit}")
        levels = np.asarray(barriers, dtype=float)[:, None]
        while True:
            going = self.stop < 0 if self.best is None else self.best < levels
            live = np.flatnonzero((self.pos < target) & going.any(axis=0))
            if not live.size:
                return
            at = self.pos[live]
            start = int(at.min())
            rows = live[at == start]
            self._scan(rows, start, min(block_end(start, self.unit), target), barriers)

    def ladder(self, rule: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rule ``rule``'s record highs over the steps scanned, merged into
        (row, step, value) arrays; each row's records come in step order."""
        if len(ladder := self.ladders[rule]) > 1:
            ladder[:] = [tuple(np.concatenate(c) for c in zip(*ladder))]
        return ladder[0]

    def first_reach(self, rule: int, barrier: float) -> np.ndarray:
        """Each row's first step with rule ``rule``'s statistic >= barrier
        among the steps it has scanned (-1 if none): the step of its first
        record high at or above the barrier, in a state kept with records."""
        rows, steps, values = self.ladder(rule)
        hit = values >= barrier
        first = np.full(self.pos.size, np.iinfo(np.int64).max)
        np.minimum.at(first, rows[hit], steps[hit])
        return np.where(self.best[rule] >= barrier, first, -1)

    def _scan(self, rows: np.ndarray, start: int, end: int, barriers) -> None:
        # one sampler call, summed once into step-major cumulative values
        gens, clock = self.gens, self.clock
        if rows.size < self.pos.size:       # some rows are not live
            live = rows.tolist()
            gens = [None if g is None else [g[i] for i in live] for g in gens]
            clock = None if clock is None else clock[rows]
        u = self.u[rows]
        uu = kernels.cumulative(
            self.sampler(stream_state(gens, clock), (rows.size, end - start)), u)
        self.u[rows] = u
        if clock is not self.clock:
            self.clock[rows] = clock
        # without records, a rule skips the rows it has stopped on; a row
        # live under one rule has not stopped on it
        several = self.best is None and len(barriers) > 1
        for r, barrier in enumerate(barriers):
            s = self.rules[r].stride
            going = self.stop[r][rows] < 0 if several else None
            if going is None or going.all():
                self._scan_rule(r, rows, uu[s - 1::s], start, barrier)
            elif going.any():
                self._scan_rule(r, rows[going], uu[s - 1::s, going], start, barrier)
        self.pos[rows] = end

    def _scan_rule(self, r: int, rows: np.ndarray, uu: np.ndarray, start: int,
                   barrier: float) -> None:
        # a rule's carries are views v[r]: indexed in two steps, as fast as 1-D ones
        mn, logA, lastref, num, den = carries = [
            None if (v := getattr(self, c)) is None else v[r][rows]
            for c in self.RULE_CARRIES]
        rec = () if self.best is None else (self.best[r][rows],)
        kind, horizon = self.rules[r].kind, self.lb_horizon
        if kind == "cusum" and horizon is not None:
            out = kernels.lb_cusum_scan(uu, mn, lastref, num, den, start, barrier, horizon)
        else:
            if kind == "cusum":
                out = kernels.cusum_scan(uu, mn, lastref, start, barrier, *rec)
            else:
                out = kernels.sr_scan(uu, logA, start, barrier, *rec)
            if horizon is not None:
                kernels.lb_until_scan(uu, mn, num, den, start, np.minimum(
                    kernels.crossing_steps(out[0], start), horizon))
        for c, value in zip(self.RULE_CARRIES, carries):
            if value is not None:
                getattr(self, c)[r][rows] = value
        if rec:
            self.best[r][rows] = rec[0]
            self.ladders[r].append((rows[out[2][0]],) + out[2][1:])
        off, st = out[:2]
        self.stop[r][rows] = np.where(off >= 0, start + (1 + off) * self.rules[r].stride, -1)
        self.stat[r][rows] = st


_EXECUTORS: dict = {}     # worker count -> the process's executor of that many threads


def _pool_map(fn, items, threads: int) -> list:
    """``fn`` over ``items``, inline or on ``threads`` workers, in order; the
    workers, and so their generator pools (:func:`rng.lease`), persist."""
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    if threads not in _EXECUTORS:
        # imported here, so a one-thread run never loads it (nor logging, nor queue)
        from concurrent.futures import ThreadPoolExecutor
        _EXECUTORS.setdefault(threads, ThreadPoolExecutor(max_workers=threads))
    return list(_EXECUTORS[threads].map(fn, items))


def _dispatch(work, components, n_rep: int, master_seed: int, purpose: str,
              block: int, threads: int, first: int = 0) -> list:
    """``work(gens, lo)`` on each slice [lo, lo + BATCH) of replications first ..
    n_rep - 1, ``gens`` the substreams of stream (master_seed, purpose/block/i)
    leased from the pool of the batch's thread (:func:`rng.lease`). They are
    the work's: it gives them back (:func:`rng.give_back`) when it is done
    with them."""
    if n_rep <= first:
        return []
    ids = range(stream_id(purpose, first, block), stream_id(purpose, n_rep - 1, block) + 1)

    def batch(lo: int):
        return work(lease(master_seed, ids[lo - first:lo - first + BATCH], components), lo)
    return _pool_map(batch, range(first, n_rep, BATCH), threads)


def batch_states(model: ChangeModel, regime: str, rules: Sequence[RuleSpec], dt: float,
                 n_rep: int, master_seed: int, purpose: str,
                 block: int = 0, records: bool = False) -> List[BatchState]:
    """Fresh states of the replications 0 .. n_rep - 1 under ``rules``, one
    per slice of :func:`_dispatch`, on the streams :func:`run_rules` gives
    them. Each keeps its batch's lease from this thread's pool, so it can be
    resumed, until :func:`release` gives it back; the states are made on this
    thread, so that the generators go back to the pool they came from."""
    sampler = make_u_sampler(model, regime, dt)
    return _dispatch(lambda gens, lo: BatchState(sampler, rules, gens, records=records),
                     substream_components(model, dt), n_rep, master_seed, purpose,
                     block, threads=1)


def release(states: Sequence[BatchState]) -> None:
    """Give the generators of ``states`` back to this thread's pool: the
    states draw no more, but their stops and ladders can still be read."""
    for state in states:
        give_back(state.gens)


def advance(states, target: int, barriers: Sequence[float], threads: int = 1) -> None:
    """:meth:`BatchState.advance` on every state, inline or on ``threads`` workers."""
    _pool_map(lambda s: s.advance(target, barriers), states, threads)


def run_rules(model: ChangeModel, regime: str, rules: Sequence[RuleSpec], dt: float,
              n_steps: int, n_rep: int, master_seed: int, purpose: str,
              block: int = 0, threads: int = 1, first: int = 0,
              collect_lb: bool = False, last_reflect: bool = False) -> List[PathRunResult]:
    """Monte Carlo run of stopping rules over the monitored paths of the
    replications first .. n_rep - 1: one result per rule, each equal bit for
    bit to that rule's own run, since every path is drawn once and each rule
    scans it with its own carries (:class:`BatchState`).

    Each row's last reflection (``PathRunResult.last_reflect``, read by
    ``tau_hat``) is kept only with ``last_reflect``; it is None otherwise.
    A censored run's lower-bound sums (``collect_lb``) stop at the horizon.
    Results are bit-identical for any ``threads`` value and any ``CHUNK``
    (the widest sub-block drawn and scanned at once): replication i always
    uses the stream (master_seed, purpose/block/i), its k-th draw of each kind
    depends on k alone, and aggregation is by fixed slices.
    """
    sampler, size = make_u_sampler(model, regime, dt), max(n_rep - first, 0)
    lb = (lambda: np.empty(size)) if collect_lb else (lambda: None)
    try:        # before any path is drawn, so a sample too large fails at once
        results = [PathRunResult(dt, n_steps, np.empty(size, dtype=np.int64), np.empty(size),
                                 np.empty(size, dtype=np.int64) if last_reflect else None,
                                 lb(), lb()) for _ in rules]
    except MemoryError as exc:
        raise SampleSizeError(f"{size} replications do not fit in memory", purpose) from exc
    barriers = [rule.log_barrier for rule in rules]

    def work(gens, lo: int) -> None:
        try:
            state = BatchState(sampler, rules, gens, n_steps if collect_lb else None,
                               last_reflect=last_reflect)
            state.advance(n_steps, barriers)
        finally:
            give_back(gens)
        sl = slice(lo - first, lo - first + state.pos.size)
        for r, result in enumerate(results):
            result.stop_steps[sl] = state.stop[r]
            result.stat[sl] = state.stat[r]
            if last_reflect:
                result.last_reflect[sl] = state.lastref[r]
            if collect_lb:
                result.lb_num[sl], result.lb_den[sl] = state.num[r], state.den[r]

    _dispatch(work, substream_components(model, dt), n_rep, master_seed, purpose,
              block, threads, first)
    return results


def run_paths(model: ChangeModel, regime: str, rule: RuleSpec, dt: float,
              n_steps: int, n_rep: int, master_seed: int, purpose: str,
              block: int = 0, threads: int = 1, collect_lb: bool = False,
              last_reflect: bool = False) -> PathRunResult:
    """:func:`run_rules` for one rule over the replications 0 .. n_rep - 1."""
    return run_rules(model, regime, (rule,), dt, n_steps, n_rep, master_seed, purpose,
                     block=block, threads=threads, collect_lb=collect_lb,
                     last_reflect=last_reflect)[0]


def run_dyadic(model: ChangeModel, regime: str, log_barrier: float, dt: float,
               n_steps: int, strides: Sequence[int], n_rep: int,
               master_seed: int, threads: int = 1
               ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Stop times of the grid rule at several monitoring strides over one
    shared fine path per replication: two lists of per-stride arrays, for the
    usual ``statistic >= barrier`` stop and the strict ``> barrier`` variant.
    Censored runs report the horizon. The strides are CUSUM rules of one
    :func:`run_rules` (:attr:`RuleSpec.stride`), so all of them see identical
    trajectories and nested-grid comparisons hold pathwise; replication i
    runs on stream (master_seed, converge/0/i), the streams of
    ``convergence_study``. Before its ``>=`` stop a statistic is below the
    barrier, so the conventions part only where it lands exactly on the
    barrier there; for doubles ``y > h`` is ``y >= nextafter(h, inf)``, so
    only then are the strict stops run again, at that barrier."""
    def run(barrier: float) -> List[PathRunResult]:
        rules = [RuleSpec("cusum", barrier, stride=s) for s in strides]
        return run_rules(model, regime, rules, dt, n_steps, n_rep, master_seed,
                         "converge", threads=threads)

    results = run(log_barrier)
    strict = (run(float(np.nextafter(log_barrier, np.inf)))
              if any((r.stat == log_barrier).any() for r in results) else results)
    return [r.stop_times for r in results], [r.stop_times for r in strict]
