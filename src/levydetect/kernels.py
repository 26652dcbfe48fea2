"""Path-scan kernels of the batch engine (numpy).

Each kernel processes one block of log-likelihood increments per call and
carries per-path state across blocks:

* ``u``       cumulative log-likelihood value at the last processed step;
* ``mn``      minimum of the cumulative value over all *previous* monitored
              points (the reflection barrier of the detection statistic);
* ``lastref`` last global step index with log-statistic <= 0 (0 = origin);
* ``logA``    log of the accumulated inverse likelihood sum for the
              Shiryaev-Roberts recursion.

Steps are numbered globally from 1; a block of width m covers steps
``start_step + 1 .. start_step + m``. After a row crosses its barrier the
carries of that row are unspecified (callers drop stopped rows), except that
``lastref`` never counts steps past the crossing.

Every carry is a sequential accumulate (cumulative sums are built by
prepending the carry), so splitting a path into blocks at any points gives
bit-identical results.
"""

from __future__ import annotations

import numpy as np

_INT_MAX = np.iinfo(np.int64).max


def backend() -> str:
    """Name of the scan backend; the numpy kernels are the only one."""
    return "python"


def _cumulative(inc: np.ndarray, carry: np.ndarray) -> np.ndarray:
    ext = np.empty((inc.shape[0], inc.shape[1] + 1), dtype=np.float64)
    ext[:, 0] = carry
    ext[:, 1:] = inc
    return np.cumsum(ext, axis=1)[:, 1:]


def _prev_min(uu: np.ndarray, mn: np.ndarray) -> np.ndarray:
    prev = np.empty_like(uu)
    prev[:, 0] = mn
    prev[:, 1:] = uu[:, :-1]
    return np.minimum.accumulate(prev, axis=1)


def cusum_scan(inc, u, mn, lastref, start_step, hbar):
    """Advance the reflected log-likelihood statistic; detect barrier crossing.

    Returns (offset, stat, yend): offset is the 0-based block position of the
    first step with statistic >= hbar (-1 if none), stat the statistic there,
    yend the statistic at the last block step (for censor reporting).
    """
    n, m = inc.shape
    uu = _cumulative(inc, u)
    mn_prev = _prev_min(uu, mn)
    y = uu - mn_prev

    crossed = y >= hbar
    any_cross = crossed.any(axis=1)
    off = np.where(any_cross, crossed.argmax(axis=1).astype(np.int64), np.int64(-1))

    gidx = start_step + 1 + np.arange(m, dtype=np.int64)
    stop_g = np.where(any_cross, start_step + 1 + off, _INT_MAX)
    refl = (y <= 0.0) & (gidx[None, :] <= stop_g[:, None])
    ref_idx = np.max(np.where(refl, gidx[None, :], np.int64(-1)), axis=1)
    np.maximum(lastref, ref_idx, out=lastref)

    rows = np.arange(n)
    stat = np.where(any_cross, y[rows, np.maximum(off, 0)], np.nan)
    yend = y[:, -1].copy()

    u[:] = uu[:, -1]
    mn[:] = np.minimum(mn_prev[:, -1], uu[:, -1])
    return off, stat, yend


def sr_scan(inc, u, logA, start_step, log_thresh):
    """Advance the Shiryaev-Roberts statistic log R_k = u_k + logA_k where
    A_k accumulates exp(-u_m) over past points; detect log R >= log_thresh."""
    n, m = inc.shape
    uu = _cumulative(inc, u)
    prev = np.empty_like(uu)
    prev[:, 0] = logA
    prev[:, 1:] = -uu[:, :-1]
    logA_seq = np.logaddexp.accumulate(prev, axis=1)
    logr = uu + logA_seq

    crossed = logr >= log_thresh
    any_cross = crossed.any(axis=1)
    off = np.where(any_cross, crossed.argmax(axis=1).astype(np.int64), np.int64(-1))
    rows = np.arange(n)
    stat = np.where(any_cross, logr[rows, np.maximum(off, 0)], np.nan)
    rend = logr[:, -1].copy()

    u[:] = uu[:, -1]
    logA[:] = np.logaddexp(logA_seq[:, -1], -uu[:, -1])
    return off, stat, rend


def lb_cusum_scan(inc, u, mn, num, den, start_step, hbar):
    """Like :func:`cusum_scan` but also accumulates the two lower-bound sums
    sum max(S_k, 1) and sum (1 - S_k)^+ over steps strictly before the stop."""
    n, m = inc.shape
    uu = _cumulative(inc, u)
    mn_prev = _prev_min(uu, mn)
    y = uu - mn_prev

    crossed = y >= hbar
    any_cross = crossed.any(axis=1)
    off = np.where(any_cross, crossed.argmax(axis=1).astype(np.int64), np.int64(-1))
    gidx = start_step + 1 + np.arange(m, dtype=np.int64)
    stop_g = np.where(any_cross, start_step + 1 + off, _INT_MAX)
    valid = gidx[None, :] < stop_g[:, None]

    s = np.exp(np.minimum(y, 700.0))
    term_num = np.where(valid, np.maximum(s, 1.0), 0.0)
    term_den = np.where(valid, np.maximum(1.0 - s, 0.0), 0.0)
    num[:] = _cumulative(term_num, num)[:, -1]
    den[:] = _cumulative(term_den, den)[:, -1]

    rows = np.arange(n)
    stat = np.where(any_cross, y[rows, np.maximum(off, 0)], np.nan)
    yend = y[:, -1].copy()
    u[:] = uu[:, -1]
    mn[:] = np.minimum(mn_prev[:, -1], uu[:, -1])
    return off, stat, yend


def lb_until_scan(inc, u, mn, num, den, start_step, stop_steps):
    """Accumulate the lower-bound sums up to externally supplied stop steps
    (global, exclusive); used when the stopping rule is not the reflected
    statistic itself (fixed-time rules, Shiryaev-Roberts)."""
    uu = _cumulative(inc, u)
    mn_prev = _prev_min(uu, mn)
    y = uu - mn_prev

    m = inc.shape[1]
    gidx = start_step + 1 + np.arange(m, dtype=np.int64)
    valid = gidx[None, :] < stop_steps[:, None]

    s = np.exp(np.minimum(y, 700.0))
    term_num = np.where(valid, np.maximum(s, 1.0), 0.0)
    term_den = np.where(valid, np.maximum(1.0 - s, 0.0), 0.0)
    num[:] = _cumulative(term_num, num)[:, -1]
    den[:] = _cumulative(term_den, den)[:, -1]

    u[:] = uu[:, -1]
    mn[:] = np.minimum(mn_prev[:, -1], uu[:, -1])
