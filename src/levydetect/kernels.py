"""Scan kernels: the one place the detection statistics are computed (numpy).

Every statistic is a function of the *cumulative* log-likelihood values of a
path. The sampler fills a (paths, steps) block of increments, as each path's
generator writes its own row; :func:`cumulative` sums it into step-major
(steps, paths) values, the one place a block changes layout. Every other
primitive reads step-major blocks, one column per path, and advances
per-path carries in place:

* :func:`cumulative` -- sums an increment block into cumulative values, once
  per drawn block; carry ``u``, the value at the last point.
* :func:`reflected` -- the CUSUM log statistic, each value minus the minimum
  over *strictly earlier* points; carry ``mn``, the minimum over every point
  so far (the reflection barrier).
* :func:`sr_log` -- the Shiryaev-Roberts log statistic
  log R_k = u_k + log sum_{m<k} exp(-u_m); carry ``logA``, the log sum over
  every point so far.
* :func:`first_crossing` -- block position of each path's first crossing.
* :func:`last_reflection` -- carry ``lastref``, the last global step at or
  before the stop with log statistic <= 0 (0 = origin); the CUSUM scans
  skip it when ``lastref`` is None.
* :func:`lb_sums` -- carries ``num``/``den``, the lower-bound sums
  sum max(S_k, 1) and sum (1 - S_k)^+ over steps strictly before the stop.
* :func:`record_highs` -- carry ``best``, the running maximum of the
  statistic; returns the points that raise it (the ladder of record highs).

Each recursion (running sums, minima, maxima and log sums) runs through
:func:`_accumulate`. A step waits on the one before it, while paths are
independent, so from ``ACROSS_ROWS`` paths up it makes one ufunc call per
step over every path, a contiguous row of the block, and below that one
``ufunc.accumulate`` along the steps; both give the same bits.

Steps are numbered globally from 1; a block of width m covers steps
``start_step + 1 .. start_step + m``. Every carry is a sequential accumulate
(cumulative values continue from their carry), so splitting a path into
blocks at any points gives bit-identical results. After a path crosses its
barrier its ``u``/``mn``/``logA`` carries are unspecified (callers drop
stopped paths).

The four scans the engine runs on cumulative values (:func:`cusum_scan`,
:func:`lb_cusum_scan`, :func:`sr_scan`, :func:`lb_until_scan`) compose these
primitives and leave their block as it is; :func:`detector.run_rule` runs
:func:`cusum_scan` or :func:`sr_scan` once, on a whole path as one column.
The three that stop return one statistic per path, ``(offset, stat)``: the
block position of the path's first crossing (-1 if none) and the statistic
there, or at the block's last point where the path does not cross.
"""

from __future__ import annotations

import numpy as np

_INT_MAX = np.iinfo(np.int64).max

# Paths from which _accumulate makes one ufunc call per step across the
# paths (about 0.5 us a call) instead of one accumulate along the steps. On a
# 2-vCPU Xeon the calls cost the same as the accumulate at 128 paths for add
# and about 96 for minimum and maximum, and win from 17-20 for logaddexp.
ACROSS_ROWS = {np.add: 128, np.minimum: 128, np.maximum: 128, np.logaddexp: 32}
# Paths per tile of cumulative's transposing copy: a whole-block copy maps the
# paths onto few cache sets at power-of-two widths (3.1-8.9 ns per element at
# widths 256-4,096, against 1.5-2.3 in tiles of 64 paths).
TILE_ROWS = 64


def backend() -> str:
    """Name of the scan backend; the numpy kernels are the only one."""
    return "python"


# --------------------------------------------------------------------------- #
# primitives
# --------------------------------------------------------------------------- #

def _accumulate(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.accumulate(a, axis=0, out=a)`` on a step-major block, bit for
    bit: from ``ACROSS_ROWS[ufunc]`` paths up, one call per step over every
    path, a[k] = ufunc(a[k - 1], a[k]) with the earlier value first."""
    if a.shape[1] < ACROSS_ROWS[ufunc]:
        return ufunc.accumulate(a, axis=0, out=a)
    prev = a[0]
    for step in a[1:]:                  # views made one at a time
        ufunc(prev, step, out=step)
        prev = step
    return a


def cumulative(inc: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sum a (paths, steps) increment block, as the sampler fills it, into
    step-major (steps, paths) cumulative values continuing from ``u``, in the
    order of a cumsum with ``u`` prepended; advances ``u``."""
    uu = np.empty(inc.shape[::-1])      # the size of inc, so its memory is reused
    for lo in range(0, inc.shape[0], TILE_ROWS):
        uu[:, lo:lo + TILE_ROWS] = inc[lo:lo + TILE_ROWS].T
    uu[0] += u
    u[:] = _accumulate(np.add, uu)[-1]
    return uu


def reflected(uu: np.ndarray, mn: np.ndarray) -> np.ndarray:
    """Each value minus the minimum of ``mn`` and the earlier block values."""
    y = np.empty_like(uu)               # strict-past minima, then the statistic
    y[0] = mn
    y[1:] = uu[:-1]
    _accumulate(np.minimum, y)
    mn[:] = np.minimum(y[-1], uu[-1])
    return np.subtract(uu, y, out=y)


def sr_log(uu: np.ndarray, logA: np.ndarray) -> np.ndarray:
    """log R = value + log(exp(logA) + sum of exp(-earlier block values))."""
    logr = np.empty_like(uu)            # log sums over earlier points, then log R
    logr[0] = logA
    np.negative(uu[:-1], out=logr[1:])
    _accumulate(np.logaddexp, logr)
    logA[:] = np.logaddexp(logr[-1], -uu[-1])
    return np.add(uu, logr, out=logr)


def first_crossing(crossed: np.ndarray) -> np.ndarray:
    """0-based block position of each path's first True (-1 if none)."""
    hit = crossed.any(axis=0)           # argmax along the steps copies its input
    off = np.full(crossed.shape[1], -1, dtype=np.int64)
    off[hit] = crossed[:, hit].argmax(axis=0)
    return off


def crossing_steps(off: np.ndarray, start_step: int) -> np.ndarray:
    """Global step of each path's crossing (int64 max where none)."""
    return np.where(off >= 0, start_step + 1 + off, _INT_MAX)


def last_reflection(y, start_step, stop, lastref) -> None:
    """Advance ``lastref`` to the last step <= ``stop`` with y <= 0."""
    m = y.shape[0]
    back = y[::-1] <= 0.0               # position j: step start_step + m - j
    back &= np.arange(m)[:, None] >= m - np.clip(stop - start_step, 0, m)
    j = back.argmax(axis=0)             # the last such step, if any
    hit = back[j, np.arange(y.shape[1])]
    np.maximum(lastref, np.where(hit, start_step + m - j, -1), out=lastref)


def record_highs(y, start_step, best):
    """Points above ``best`` and every earlier block point: (path, global
    step, value) of each, in step order; advances ``best``. The first step
    at which a path's statistic reaches a barrier is the first of its record
    highs at or above it."""
    prev = np.empty_like(y)             # running maxima over strictly earlier points
    prev[0] = best
    prev[1:] = y[:-1]
    _accumulate(np.maximum, prev)
    best[:] = np.maximum(prev[-1], y[-1])
    steps, paths = np.nonzero(y > prev)
    return paths, start_step + 1 + steps, y[steps, paths]


def _add_prefix(terms, n, total) -> None:
    """Add each path's first ``n`` terms to ``total`` in place: the
    sequential order of :func:`cumulative`, read at the path's last term."""
    terms[0] += total
    _accumulate(np.add, terms)
    paths = np.flatnonzero(n)
    total[paths] = terms[n[paths] - 1, paths]


def lb_sums(y, start_step, stop, num, den) -> None:
    """Add max(S, 1) and (1 - S)^+, S = exp(y), over steps < ``stop``;
    S is computed in place in ``y``."""
    n = np.clip(stop - start_step - 1, 0, y.shape[0])     # terms before the stop
    s = np.exp(np.minimum(y, 700.0, out=y), out=y)
    _add_prefix(np.maximum(s, 1.0), n, num)
    np.subtract(1.0, s, out=s)
    _add_prefix(np.maximum(s, 0.0, out=s), n, den)


# --------------------------------------------------------------------------- #
# engine scans over blocks of cumulative values
# --------------------------------------------------------------------------- #

def _outcome(y, off, start_step, best):
    out = off, y[off, np.arange(y.shape[1])]     # off -1 reads the last step
    return out if best is None else out + (record_highs(y, start_step, best),)


def _cusum_block(uu, mn, lastref, start_step, hbar):
    """Reflected block, first crossings of ``hbar`` and their global steps."""
    y = reflected(uu, mn)
    off = first_crossing(y >= hbar)
    stop = crossing_steps(off, start_step)
    if lastref is not None:
        last_reflection(y, start_step, stop, lastref)
    return y, off, stop


def cusum_scan(uu, mn, lastref, start_step, hbar, best=None):
    """Advance the reflected log-likelihood statistic; detect barrier crossing.

    Returns (offset, stat): offset is the 0-based block position of the first
    step with statistic >= hbar (-1 if none), stat the statistic there, or at
    the last block step where the path does not cross. Given the carry
    ``best``, a third item holds the block's :func:`record_highs`.
    The carry ``lastref`` may be None: the last reflection is then not kept.
    """
    y, off, _ = _cusum_block(uu, mn, lastref, start_step, hbar)
    return _outcome(y, off, start_step, best)


def lb_cusum_scan(uu, mn, lastref, num, den, start_step, hbar, horizon):
    """:func:`cusum_scan` that also accumulates the lower-bound sums over
    steps strictly before the stop, or before step ``horizon`` if the path
    has not stopped by then."""
    y, off, stop = _cusum_block(uu, mn, lastref, start_step, hbar)
    out = _outcome(y, off, start_step, None)       # before lb_sums overwrites y
    lb_sums(y, start_step, np.minimum(stop, horizon), num, den)
    return out


def sr_scan(uu, logA, start_step, log_thresh, best=None):
    """Advance the Shiryaev-Roberts statistic; detect log R >= log_thresh.
    Returns (offset, stat), and the record highs, as :func:`cusum_scan`
    does."""
    logr = sr_log(uu, logA)
    off = first_crossing(logr >= log_thresh)
    return _outcome(logr, off, start_step, best)


def lb_until_scan(uu, mn, num, den, start_step, stop):
    """Accumulate the lower-bound sums up to externally supplied global stop
    steps (exclusive); used when the stopping rule is not the reflected
    statistic itself (Shiryaev-Roberts)."""
    lb_sums(reflected(uu, mn), start_step, stop, num, den)
