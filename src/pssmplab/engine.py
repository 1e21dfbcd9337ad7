"""Batch Monte Carlo engine for exponential functionals and marginals.

One windowed loop serves every model class.  Each window advances the live
paths through the dense numpy window kernel, _kernels.advance_window: 128
steps of dt for the Gaussian part or, for a model without one, a single
exact drift segment of length _WINDOW_TIME (the dt grid only discretizes
the Brownian part).  Jump epochs are exact per-path stop times: the kernel
stops a path at min(zeta, next jump epoch), and at a jump epoch the loop
adds a jump size, draws the next epoch and resumes the path in the next
window.

The loop accumulates A = integral e^{sign * xi_s / alpha} ds up to the
killing time or, for conservative models, until the part of A added since
the last reading (one whole window, or at least a window's time for a path
stopped by a jump) is below rel_tol of the running total.  That part, w,
and the time of the next reading are kept only for conservative models:
a killed path stops at its finite zeta, never by convergence, so a killed
run never reads w or next_check and never resets them.  In marginal
mode the kernel also stops each path where A crosses its target.  The
horizon is read at the end of each window, so a censored path may run past
it by up to one window.

Draw order.  A run first draws each path's killing time zeta, then its
first jump epoch.  A model with jumps then draws, per window, the window's
(m, k) normals, then the jump sizes and next epochs of the paths that
jumped in it, all on the calling thread.  A jump-free Gaussian run draws
nothing after zeta but the normals, so they are one stream, of which each
window takes the next m*k in C order as its (m, k) block.  From its second
window on, while the kernel runs a window whose m*k normals fill at least
one kernel column block, one worker thread draws the next window's
normals: m*k of them, enough for any k' <= k live paths, less those left
over.  Philox is counter-based, so filling its stream in pieces gives the
bits one draw gives: the result is the same as drawing each window's
block inline.  The worker is started when first needed and joined before
the run returns, also when the kernel raises.  A model without a Gaussian
part draws no normals: its one-row windows, which the kernel runs on a
branch of their own, read zeros from one (1, n) buffer made once per run.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .models import LevyModel
from .paths import SimConfig

__all__ = ["FunctionalBatch", "MarginalBatch", "functional_batch",
           "marginal_batch", "REL_TOL"]

# a conservative path has converged once the part of A added since the last
# reading is below REL_TOL of the running total
REL_TOL = 1e-6

# path status codes; the kernel writes the first two
KILLED = _kernels.KILLED  # reached zeta; A is the full integral up to killing
HIT = _kernels.HIT        # marginal mode: A crossed the target
CONVERGED = 3  # conservative model: trailing window below rel_tol
CENSORED = 4   # horizon exhausted first

_WINDOW_STEPS = 128
_WINDOW_TIME = 4.0
_MIN_TIME = 1.0    # a conservative path is not read as converged before it


@dataclass
class FunctionalBatch:
    values: np.ndarray      # accumulated integral per path
    censored: np.ndarray    # bool: horizon hit before killing/convergence


@dataclass
class MarginalBatch:
    xi: np.ndarray          # xi at the crossing time (valid where hit)
    status: np.ndarray      # HIT / KILLED / CENSORED per path


def _draw_jump_sizes(specs, cum, rng, k):
    if len(specs) == 1:
        return specs[0].sample_sizes(rng, k)
    u = rng.random(k)
    # a jump's component is the count of cumulative rate shares below u;
    # without cum[-1], which rounding may leave below 1, none is past the last
    which = sum(u > c for c in cum[:-1])
    sizes = np.empty(k)
    for si, spec in enumerate(specs):
        mask = which == si
        cnt = int(mask.sum())
        if cnt:
            sizes[mask] = spec.sample_sizes(rng, cnt)
    return sizes


class _GaussNormals:
    """The normals of a jump-free Gaussian run, in stream order, filled
    into two preallocated buffers in turn: the next window's draw and the
    leftover go into the buffer that the kernel is not reading."""

    def __init__(self, rng, m, n):
        self.rng, self.m = rng, m
        self.bufs = [np.empty(m * n), np.empty(m * n)]
        self.have = 0        # drawn, unused normals at the front of bufs[0]
        self.started = False
        self.pool = None
        self.pending = None

    def take(self, k):
        """The next window's (m, k) block, valid until the next call."""
        need = self.m * k
        cur, nxt = self.bufs
        if self.pending is not None:
            self.pending.result()
            self.pending = None
        if self.have < need:
            self.rng.standard_normal(out=cur[self.have:need])
            self.have = need
        rest = self.have - need
        nxt[:rest] = cur[need:self.have]
        self.have = rest
        # draw ahead from the second window on, as many runs end in their
        # first, and only for a window that fills a column block: a thread
        # handoff costs more than a small draw, and the last small windows
        # use up the leftover
        if self.started and need >= _kernels._BLOCK_CELLS and rest < need:
            if self.pool is None:
                self.pool = ThreadPoolExecutor(max_workers=1)
            self.pending = self.pool.submit(self.rng.standard_normal,
                                            out=nxt[rest:need])
            self.have = need
        self.started = True
        self.bufs.reverse()
        return cur[:need].reshape(self.m, k)

    def close(self):
        """Join the worker once its last draw is done; a failed draw
        raises here."""
        if self.pool is not None:
            self.pool.shutdown()
        if self.pending is not None:
            self.pending.result()


def _run(model: LevyModel, sign, n, rng, dt, horizon, rel_tol, targets=None):
    """A, xi and the status of n paths, each where its path stopped."""
    sigma = math.sqrt(model.gaussian)
    m, step = (_WINDOW_STEPS, dt) if sigma > 0 else (1, _WINDOW_TIME)
    span = m * step
    mode = _kernels.TARGET if targets is not None else _kernels.STOP_AT_ZETA
    # the live state, one row per quantity and one column per live path
    state = np.zeros((8, n))
    x, a, t, w, zeta, jump_at, next_check, tgt = state
    zeta[:] = rng.exponential(1.0 / model.killing, n) if model.killing > 0 \
        else np.inf
    rates = np.array([s.intensity for s in model.jumps])
    total_rate = float(rates.sum())
    cum = np.cumsum(rates) / total_rate
    jump_at[:] = rng.exponential(1.0 / total_rate, n) if model.jumps \
        else np.inf
    next_check[:] = span
    tgt[:] = 0.0 if targets is None else targets
    live = np.arange(n)
    out = np.zeros((2, n))
    status = np.full(n, CENSORED, dtype=np.int8)

    gauss = _GaussNormals(rng, m, n) if sigma > 0 and not model.jumps \
        else None
    zeros = np.zeros((1, n)) if sigma == 0 else None
    conservative = model.killing == 0
    try:
        while live.size:
            k = live.size
            if gauss is not None:
                normals = gauss.take(k)
            elif sigma > 0:
                normals = rng.standard_normal((m, k))
            else:
                normals = zeros[:, :k]
            st = np.zeros(k, np.int8)
            _kernels.advance_window(x, a, t, w, st,
                                    np.minimum(zeta, jump_at), tgt, normals,
                                    float(model.drift), sigma, float(step),
                                    1.0 / model.alpha, float(sign), mode)
            # stopped at a jump epoch rather than at zeta: jump and go on
            jumped = (st == KILLED) & (jump_at < zeta)
            ji = np.flatnonzero(jumped)
            if ji.size:
                st[ji] = 0
                x[ji] += _draw_jump_sizes(model.jumps, cum, rng, ji.size)
                jump_at[ji] = t[ji] + rng.exponential(1.0 / total_rate,
                                                      ji.size)
            if conservative:
                # convergence is read after a full window, or at a jump
                # once a window's time has passed since the last reading,
                # never on a window that a jump cut short
                due = (st == 0) & (~jumped | (t >= next_check))
                conv = due & (t >= _MIN_TIME) & (w < rel_tol * a)
                st[conv] = CONVERGED
                reset = due & ~conv
                w[reset] = 0.0
                next_check[reset] = t[reset] + span
            st[(st == 0) & (t >= horizon)] = CENSORED
            finished = st != 0
            if finished.any():
                idx = live[finished]
                out[:, idx] = np.compress(finished, state[:2], axis=1)
                status[idx] = st[finished]
                keep = ~finished
                live = live[keep]
                state = np.compress(keep, state, axis=1)
                x, a, t, w, zeta, jump_at, next_check, tgt = state
    finally:
        if gauss is not None:
            gauss.close()
    return out[1], out[0], status


def _check_n(n) -> None:
    """``n`` as a number of draws: an int (Python or numpy, not bool) >= 1;
    anything else would fail inside numpy or return empty arrays."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")


def functional_batch(model: LevyModel, sign: float, n: int, config: SimConfig,
                     rel_tol: float = REL_TOL) -> FunctionalBatch:
    """n draws of integral_0^stop e^{sign*xi/alpha} on the config's stream;
    censored marks paths that hit the horizon before killing or
    convergence."""
    _check_n(n)
    a, _, status = _run(model, sign, n, config.rng(), config.dt,
                        config.horizon, rel_tol)
    return FunctionalBatch(values=a, censored=status == CENSORED)


def marginal_batch(model: LevyModel, targets: np.ndarray,
                   config: SimConfig) -> MarginalBatch:
    """xi at the first time A crosses each target (the Lamperti clock),
    KILLED where zeta arrives first (the pssMp is already at 0); drawn on
    the config's stream."""
    targets = np.asarray(targets, dtype=float)
    bad = ~(np.isfinite(targets) & (targets >= 0.0))
    if bad.any():
        raise ValueError(f"targets must be finite and >= 0, got "
                         f"{float(targets[bad][0])!r}")
    # rel_tol = 0: a path stops only at its target, at zeta or the horizon
    _, x, status = _run(model, 1.0, targets.size, config.rng(), config.dt,
                        config.horizon, rel_tol=0.0, targets=targets)
    return MarginalBatch(xi=x, status=status)
