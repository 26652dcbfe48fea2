"""Scan kernels: the one place the detection statistics are computed (numpy).

Every statistic is a function of the *cumulative* log-likelihood values of a
path. The primitives below take 2-D blocks of those values, one row per path,
and advance per-row carries in place:

* :func:`cumulative` -- sums an increment block in place into cumulative
  values, once per drawn block; carry ``u``, the value at the last point.
* :func:`reflected` -- the CUSUM log statistic, each value minus the minimum
  over *strictly earlier* points; carry ``mn``, the minimum over every point
  so far (the reflection barrier).
* :func:`sr_log` -- the Shiryaev-Roberts log statistic
  log R_k = u_k + log sum_{m<k} exp(-u_m); carry ``logA``, the log sum over
  every point so far. Each step of the log-sum recursion waits on the step
  before it along a row, while rows are independent, so from
  ``ACROSS_ROWS`` rows up it runs across the rows, one ``np.logaddexp`` call
  per step over every row, and below that along each row with
  ``np.logaddexp.accumulate``. Both paths run one ufunc with one operand
  order, so they give the same bits.
* :func:`first_crossing` -- block position of each row's first crossing.
* :func:`last_reflection` -- carry ``lastref``, the last global step at or
  before the stop with log statistic <= 0 (0 = origin); the CUSUM scans
  skip it when ``lastref`` is None.
* :func:`lb_sums` -- carries ``num``/``den``, the lower-bound sums
  sum max(S_k, 1) and sum (1 - S_k)^+ over steps strictly before the stop.
* :func:`record_highs` -- carry ``best``, the running maximum of the
  statistic; returns the points that raise it (the ladder of record highs).

Steps are numbered globally from 1; a block of width m covers steps
``start_step + 1 .. start_step + m``. Every carry is a sequential accumulate
(cumulative values continue from their carry), so splitting a path into
blocks at any points gives bit-identical results. After a row crosses its
barrier its ``u``/``mn``/``logA`` carries are unspecified (callers drop
stopped rows).

The four scans the engine runs on cumulative values (:func:`cusum_scan`,
:func:`lb_cusum_scan`, :func:`sr_scan`, :func:`lb_until_scan`) compose these
primitives and leave their block as it is; :func:`detector.run_rule` runs
:func:`cusum_scan` or :func:`sr_scan` once, on a whole path as one row. The
three that stop return one statistic per row, ``(offset, stat)``: the block
position of the row's first crossing (-1 if none) and the statistic there,
or at the block's last point where the row does not cross.
"""

from __future__ import annotations

import numpy as np

_INT_MAX = np.iinfo(np.int64).max

# Rows from which sr_log runs its recursion across rows. Along a row,
# np.logaddexp.accumulate costs about 40 ns per element on a 2-vCPU Xeon;
# one np.logaddexp call over one step of every row costs about 17 ns per
# element at 500 rows, but its fixed cost per call makes it the slower of
# the two below 21-22 rows (blocks 64 and 256 steps wide). At 32 rows it is
# about 20 % faster, clear of the crossover.
ACROSS_ROWS = 32
# Elements of a step-major tile of the across-rows recursion (128 KB): 16
# steps of 1,024 rows, 512 of 32. A tile stays in cache while it is
# transposed in and out; tiles of 64 steps (520 KB at 1,024 rows) raised the
# peak RSS of a compare run by 0.6 MB.
TILE_SIZE = 16384


def backend() -> str:
    """Name of the scan backend; the numpy kernels are the only one."""
    return "python"


# --------------------------------------------------------------------------- #
# primitives
# --------------------------------------------------------------------------- #

def cumulative(inc: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Sum an increment block in place into cumulative values continuing
    from ``u``, in the order of a cumsum with ``u`` prepended; advances ``u``
    and returns ``inc``."""
    inc[:, 0] += u
    np.cumsum(inc, axis=1, out=inc)
    u[:] = inc[:, -1]
    return inc


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
    _logaddexp_accumulate(logr)
    logA[:] = np.logaddexp(logr[:, -1], -uu[:, -1])
    return np.add(uu, logr, out=logr)


def _logaddexp_accumulate(a: np.ndarray) -> None:
    """``np.logaddexp.accumulate(a, axis=1, out=a)``, bit for bit. From
    ``ACROSS_ROWS`` rows up, each step is one call over every row of a
    step-major tile, with the previous output first as in the accumulate;
    a tile starts at the last step of the one before."""
    n, m = a.shape
    if n < ACROSS_ROWS:
        np.logaddexp.accumulate(a, axis=1, out=a)
        return
    w = max(1, TILE_SIZE // n)          # steps per tile
    t = np.empty((min(m, w + 1), n))
    for lo in range(0, m - 1, w):
        hi = min(m, lo + w + 1)
        tile = t[:hi - lo]
        np.copyto(tile, a[:, lo:hi].T)
        # step views are made one at a time: a list of them all raised the
        # peak RSS of a compare run by 0.6 MB
        prev = tile[0]
        for step in tile[1:]:
            np.logaddexp(prev, step, out=step)
            prev = step
        np.copyto(a[:, lo + 1:hi], tile[1:].T)


def first_crossing(crossed: np.ndarray) -> np.ndarray:
    """0-based block position of each row's first True (-1 if none)."""
    j = crossed.argmax(axis=1)
    return np.where(crossed[np.arange(crossed.shape[0]), j], j, np.int64(-1))


def crossing_steps(off: np.ndarray, start_step: int) -> np.ndarray:
    """Global step of each row's crossing (int64 max where none)."""
    return np.where(off >= 0, start_step + 1 + off, _INT_MAX)


def last_reflection(y, start_step, stop, lastref) -> None:
    """Advance ``lastref`` to the last step <= ``stop`` with y <= 0."""
    m = y.shape[1]
    back = y[:, ::-1] <= 0.0            # column j: step start_step + m - j
    back &= np.arange(m) >= m - np.clip(stop - start_step, 0, m)[:, None]
    j = back.argmax(axis=1)             # the last such step, if any
    hit = back[np.arange(y.shape[0]), j]
    np.maximum(lastref, np.where(hit, start_step + m - j, -1), out=lastref)


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


def _add_prefix(terms, n, total) -> None:
    """Add each row's first ``n`` terms to ``total`` in place: the
    sequential order of :func:`cumulative`, read at the row's last term."""
    terms[:, 0] += total
    np.add.accumulate(terms, axis=1, out=terms)
    rows = np.flatnonzero(n)
    total[rows] = terms[rows, n[rows] - 1]


def lb_sums(y, start_step, stop, num, den) -> None:
    """Add max(S, 1) and (1 - S)^+, S = exp(y), over steps < ``stop``;
    S is computed in place in ``y``."""
    n = np.clip(stop - start_step - 1, 0, y.shape[1])     # terms before the stop
    s = np.exp(np.minimum(y, 700.0, out=y), out=y)
    _add_prefix(np.maximum(s, 1.0), n, num)
    np.subtract(1.0, s, out=s)
    _add_prefix(np.maximum(s, 0.0, out=s), n, den)


# --------------------------------------------------------------------------- #
# engine scans over blocks of cumulative values
# --------------------------------------------------------------------------- #

def _outcome(y, off, start_step, best):
    out = off, y[np.arange(y.shape[0]), off]     # off -1 reads the last column
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
    the last block step where the row does not cross. Given the carry
    ``best``, a third item holds the block's :func:`record_highs`.
    The carry ``lastref`` may be None: the last reflection is then not kept.
    """
    y, off, _ = _cusum_block(uu, mn, lastref, start_step, hbar)
    return _outcome(y, off, start_step, best)


def lb_cusum_scan(uu, mn, lastref, num, den, start_step, hbar, horizon):
    """:func:`cusum_scan` that also accumulates the lower-bound sums over
    steps strictly before the stop, or before step ``horizon`` if the row
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
