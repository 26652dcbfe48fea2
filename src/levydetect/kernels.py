"""Scan kernels: the one place the detection statistics are computed (numpy).

Every statistic is a function of the *cumulative* log-likelihood values of a
path. The primitives below take 2-D blocks of those values, one row per path,
and advance per-row carries in place:

* :func:`cumulative` -- cumulative values of an increment block; carry ``u``,
  the value at the last processed point.
* :func:`reflected` -- the CUSUM log statistic, each value minus the minimum
  over *strictly earlier* points; carry ``mn``, the minimum over every point
  so far (the reflection barrier).
* :func:`sr_log` -- the Shiryaev-Roberts log statistic
  log R_k = u_k + log sum_{m<k} exp(-u_m); carry ``logA``, the log sum over
  every point so far.
* :func:`first_crossing` -- block position of each row's first crossing.
* :func:`last_reflection` -- carry ``lastref``, the last global step at or
  before the stop with log statistic <= 0 (0 = origin).
* :func:`lb_sums` -- carries ``num``/``den``, the lower-bound sums
  sum max(S_k, 1) and sum (1 - S_k)^+ over steps strictly before the stop.
* :func:`record_highs` -- carry ``best``, the running maximum of the
  statistic; returns the points that raise it (the ladder of record highs).

Steps are numbered globally from 1; a block of width m covers steps
``start_step + 1 .. start_step + m``. Every carry is a sequential accumulate
(cumulative values prepend their carry), so splitting a path into blocks at
any points gives bit-identical results. After a row crosses its barrier its
``u``/``mn``/``logA`` carries are unspecified (callers drop stopped rows).

The four scans the engine runs on increment blocks (:func:`cusum_scan`,
:func:`lb_cusum_scan`, :func:`sr_scan`, :func:`lb_until_scan`) are
compositions of these primitives; the detector runs the same primitives on
one row.
"""

from __future__ import annotations

import numpy as np

_INT_MAX = np.iinfo(np.int64).max


def backend() -> str:
    """Name of the scan backend; the numpy kernels are the only one."""
    return "python"


# --------------------------------------------------------------------------- #
# primitives
# --------------------------------------------------------------------------- #

def cumulative(inc: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Cumulative values of an increment block continuing from ``u``."""
    ext = np.empty((inc.shape[0], inc.shape[1] + 1), dtype=np.float64)
    ext[:, 0] = u
    ext[:, 1:] = inc
    uu = np.cumsum(ext, axis=1)[:, 1:]
    u[:] = uu[:, -1]
    return uu


def reflected(uu: np.ndarray, mn: np.ndarray) -> np.ndarray:
    """Each value minus the minimum of ``mn`` and the earlier block values."""
    y = np.empty_like(uu)               # strict-past minima, then the statistic
    y[:, 0] = mn
    y[:, 1:] = uu[:, :-1]
    np.minimum.accumulate(y, axis=1, out=y)
    mn[:] = np.minimum(y[:, -1], uu[:, -1])
    return np.subtract(uu, y, out=y)


def sr_log(uu: np.ndarray, logA: np.ndarray) -> np.ndarray:
    """log R = value + log(exp(logA) + sum of exp(-earlier block values))."""
    logr = np.empty_like(uu)            # log sums over earlier points, then log R
    logr[:, 0] = logA
    np.negative(uu[:, :-1], out=logr[:, 1:])
    np.logaddexp.accumulate(logr, axis=1, out=logr)
    logA[:] = np.logaddexp(logr[:, -1], -uu[:, -1])
    return np.add(uu, logr, out=logr)


def first_crossing(crossed: np.ndarray) -> np.ndarray:
    """0-based block position of each row's first True (-1 if none)."""
    return np.where(crossed.any(axis=1), crossed.argmax(axis=1).astype(np.int64),
                    np.int64(-1))


def value_at(y: np.ndarray, off: np.ndarray) -> np.ndarray:
    """y at each row's block position ``off`` (NaN where off < 0)."""
    return np.where(off >= 0, y[np.arange(y.shape[0]), np.maximum(off, 0)], np.nan)


def crossing_steps(off: np.ndarray, start_step: int) -> np.ndarray:
    """Global step of each row's crossing (int64 max where none)."""
    return np.where(off >= 0, start_step + 1 + off, _INT_MAX)


def _steps(start_step: int, m: int) -> np.ndarray:
    return start_step + 1 + np.arange(m, dtype=np.int64)


def last_reflection(y, start_step, stop, lastref) -> None:
    """Advance ``lastref`` to the last step <= ``stop`` with y <= 0."""
    gidx = _steps(start_step, y.shape[1])
    refl = (y <= 0.0) & (gidx[None, :] <= stop[:, None])
    np.maximum(lastref, np.max(np.where(refl, gidx[None, :], np.int64(-1)), axis=1),
               out=lastref)


def record_highs(y, start_step, best):
    """Points above ``best`` and every earlier block point: (row, global step,
    value) of each, row by row in step order; advances ``best``. The first
    step at which a row's statistic reaches a barrier is the first of its
    record highs at or above it."""
    prev = np.empty_like(y)             # running maxima over strictly earlier points
    prev[:, 0] = best
    prev[:, 1:] = y[:, :-1]
    np.maximum.accumulate(prev, axis=1, out=prev)
    best[:] = np.maximum(prev[:, -1], y[:, -1])
    rows, cols = np.nonzero(y > prev)
    return rows, start_step + 1 + cols, y[rows, cols]


def lb_sums(y, start_step, stop, num, den) -> None:
    """Add max(S, 1) and (1 - S)^+, S = exp(y), over steps < ``stop``."""
    valid = _steps(start_step, y.shape[1])[None, :] < stop[:, None]
    s = np.exp(np.minimum(y, 700.0))
    cumulative(np.where(valid, np.maximum(s, 1.0), 0.0), num)
    cumulative(np.where(valid, np.maximum(1.0 - s, 0.0), 0.0), den)


# --------------------------------------------------------------------------- #
# engine scans over increment blocks
# --------------------------------------------------------------------------- #

def _outcome(y, off, start_step, best):
    out = off, value_at(y, off), y[:, -1].copy()
    return out if best is None else out + (record_highs(y, start_step, best),)


def cusum_scan(inc, u, mn, lastref, start_step, hbar, best=None):
    """Advance the reflected log-likelihood statistic; detect barrier crossing.

    Returns (offset, stat, yend): offset is the 0-based block position of the
    first step with statistic >= hbar (-1 if none), stat the statistic there,
    yend the statistic at the last block step (for censor reporting). Given
    the carry ``best``, a fourth item holds the block's :func:`record_highs`.
    """
    y = reflected(cumulative(inc, u), mn)
    off = first_crossing(y >= hbar)
    last_reflection(y, start_step, crossing_steps(off, start_step), lastref)
    return _outcome(y, off, start_step, best)


def lb_cusum_scan(inc, u, mn, lastref, num, den, start_step, hbar):
    """:func:`cusum_scan` that also accumulates the lower-bound sums over
    steps strictly before the stop."""
    y = reflected(cumulative(inc, u), mn)
    off = first_crossing(y >= hbar)
    stop = crossing_steps(off, start_step)
    last_reflection(y, start_step, stop, lastref)
    lb_sums(y, start_step, stop, num, den)
    return off, value_at(y, off), y[:, -1].copy()


def sr_scan(inc, u, logA, start_step, log_thresh, best=None):
    """Advance the Shiryaev-Roberts statistic; detect log R >= log_thresh.
    Returns (offset, stat, rend), and the record highs, as :func:`cusum_scan`
    does."""
    logr = sr_log(cumulative(inc, u), logA)
    off = first_crossing(logr >= log_thresh)
    return _outcome(logr, off, start_step, best)


def lb_until_scan(inc, u, mn, num, den, start_step, stop):
    """Accumulate the lower-bound sums up to externally supplied global stop
    steps (exclusive); used when the stopping rule is not the reflected
    statistic itself (fixed-time rules, Shiryaev-Roberts)."""
    lb_sums(reflected(cumulative(inc, u), mn), start_step, stop, num, den)
