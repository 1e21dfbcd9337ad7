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
run keeps neither, and the kernel adds to a zeroed w that nothing reads.
In marginal mode the kernel also stops each path where A crosses its
target.  The horizon is read at the end of each window, so a censored path
may run past it by up to one window.

Coupled runs.  coupled_batch runs a jump-free Gaussian model in
STOP_AT_ZETA mode with one more state row, the coarse A: the kernel adds
to it the path's integral on the grid of step 2 dt from the same normals
(see _kernels), and the row stops where the fine path stops.  On a killed
run the coarse path is then a run at 2 dt in law, killed at the same zeta.
On a conservative run it stops at the fine path's convergence reading, so
it differs from a run at 2 dt by the tail past that reading, below
rel_tol of A.  The fine draws keep their bits.

Compaction.  The state holds only the rows a run reads: x, a, t and the
next jump epoch; zeta on a killed run; w and next_check on a conservative
one, whose zeta is inf; the target in marginal mode; the coarse A in a
coupled run.  A finished path's columns leave the block at the end of its
window.

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
from typing import Optional

import numpy as np

from . import _kernels
from .models import LevyModel
from .paths import SimConfig

__all__ = ["FunctionalBatch", "MarginalBatch", "functional_batch",
           "coupled_batch", "marginal_batch", "REL_TOL"]

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
    coarse: Optional[np.ndarray] = None  # coupled_batch: the 2 dt integral
    normals: int = 0        # normals the windows took


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


def _run(model: LevyModel, sign, n, rng, dt, horizon, rel_tol, targets=None,
         coupled=False):
    """A, xi and the status of n paths, each where its path stopped, the
    coupled coarse A (None unless ``coupled``) and the normals the windows
    took."""
    sigma = math.sqrt(model.gaussian)
    m, step = (_WINDOW_STEPS, dt) if sigma > 0 else (1, _WINDOW_TIME)
    span = m * step
    mode = _kernels.TARGET if targets is not None else _kernels.STOP_AT_ZETA
    conservative = model.killing == 0
    # the live state holds only the rows this run reads, one per quantity
    # and one column per live path; the first rows are the outputs
    rows = ["a", "x"] + ["coarse"] * coupled + ["t", "jump_at"] + \
        (["w", "next_check"] if conservative else ["zeta"]) + \
        ["tgt"] * (targets is not None)
    n_out = 3 if coupled else 2
    state = np.zeros((len(rows), n))
    s = dict(zip(rows, state))
    if not conservative:
        s["zeta"][:] = rng.exponential(1.0 / model.killing, n)
    rates = np.array([spec.intensity for spec in model.jumps])
    total_rate = float(rates.sum())
    cum = np.cumsum(rates) / total_rate
    s["jump_at"][:] = rng.exponential(1.0 / total_rate, n) if model.jumps \
        else np.inf
    if conservative:
        s["next_check"][:] = span
    if targets is not None:
        s["tgt"][:] = targets
    live = np.arange(n)
    out = np.zeros((n_out, n))
    status = np.full(n, CENSORED, dtype=np.int8)
    taken = 0

    gauss = _GaussNormals(rng, m, n) if sigma > 0 and not model.jumps \
        else None
    zeros = np.zeros((1, n)) if sigma == 0 else None
    # the kernel's target argument where the run has no targets
    no_target = np.full(n, np.inf)
    try:
        while live.size:
            k = live.size
            if gauss is not None:
                normals = gauss.take(k)
            elif sigma > 0:
                normals = rng.standard_normal((m, k))
            else:
                normals = zeros[:, :k]
            taken += normals.size if sigma > 0 else 0
            x, a, t, jump_at = s["x"], s["a"], s["t"], s["jump_at"]
            # a conservative run has zeta = inf: it stops at jump epochs only
            stop_at = jump_at if conservative else \
                np.minimum(s["zeta"], jump_at)
            w = s["w"] if conservative else np.zeros(k)
            st = np.zeros(k, np.int8)
            _kernels.advance_window(x, a, t, w, st, stop_at,
                                    s.get("tgt", no_target[:k]), normals,
                                    float(model.drift), sigma, float(step),
                                    1.0 / model.alpha, float(sign), mode,
                                    s.get("coarse"))
            # stopped at a jump epoch rather than at zeta: jump and go on
            jumped = st == KILLED
            if not conservative:
                jumped &= jump_at < s["zeta"]
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
                next_check = s["next_check"]
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
                out[:, idx] = np.compress(finished, state[:n_out], axis=1)
                status[idx] = st[finished]
                keep = ~finished
                live = live[keep]
                state = np.compress(keep, state, axis=1)
                s = dict(zip(rows, state))
    finally:
        if gauss is not None:
            gauss.close()
    return out[0], out[1], (out[2] if coupled else None), status, taken


def _check_n(n) -> None:
    """``n`` as a number of draws: an int (Python or numpy, not bool) >= 1;
    anything else would fail inside numpy or return empty arrays."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n!r}")


def _check_draw(sign, n, rel_tol) -> None:
    """The arguments of a functional batch: sign 0 would integrate 1 and
    return zeta, and a NaN or negative rel_tol would censor every
    conservative path; rel_tol = 0 means never converged."""
    if sign not in (1.0, -1.0):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    _check_n(n)
    if not (math.isfinite(rel_tol) and rel_tol >= 0.0):
        raise ValueError(f"rel_tol must be finite and >= 0, got {rel_tol!r}")


def functional_batch(model: LevyModel, sign: float, n: int, config: SimConfig,
                     rel_tol: float = REL_TOL) -> FunctionalBatch:
    """n draws of integral_0^stop e^{sign*xi/alpha} on the config's stream;
    censored marks paths that hit the horizon before killing or
    convergence."""
    _check_draw(sign, n, rel_tol)
    a, _, _, status, taken = _run(model, sign, n, config.rng(), config.dt,
                                  config.horizon, rel_tol)
    return FunctionalBatch(values=a, censored=status == CENSORED,
                           normals=taken)


def coupled_batch(model: LevyModel, sign: float, n: int, config: SimConfig,
                  rel_tol: float = REL_TOL) -> FunctionalBatch:
    """functional_batch's draws, each with ``coarse``: the same path's
    integral on the grid of step 2 dt, from the same normals, stopped where
    the fine path stops.  A jump-free Gaussian model only."""
    if not model.gaussian > 0 or model.jumps:
        raise ValueError("a coupled batch needs a jump-free Gaussian model")
    _check_draw(sign, n, rel_tol)
    a, _, coarse, status, taken = _run(model, sign, n, config.rng(),
                                       config.dt, config.horizon, rel_tol,
                                       coupled=True)
    return FunctionalBatch(values=a, censored=status == CENSORED,
                           coarse=coarse, normals=taken)


def marginal_batch(model: LevyModel, targets: np.ndarray,
                   config: SimConfig) -> MarginalBatch:
    """xi at the first time A crosses each target (the Lamperti clock),
    KILLED where zeta arrives first (the pssMp is already at 0); drawn on
    the config's stream."""
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 1:
        raise ValueError(f"targets must be 1-D, got shape {targets.shape}")
    bad = ~(np.isfinite(targets) & (targets >= 0.0))
    if bad.any():
        raise ValueError(f"targets must be finite and >= 0, got "
                         f"{float(targets[bad][0])!r}")
    # rel_tol = 0: a path stops only at its target, at zeta or the horizon
    _, x, _, status, _ = _run(model, 1.0, targets.size, config.rng(),
                              config.dt, config.horizon, rel_tol=0.0,
                              targets=targets)
    return MarginalBatch(xi=x, status=status)
