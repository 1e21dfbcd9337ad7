"""Batch Monte Carlo engines for exponential functionals and marginals.

Three execution paths, dispatched on the model:

* Gaussian engine -- drift + Brownian (no jumps), windowed over the dt grid;
  the inner loop is the dense numpy window kernel in _kernels.
* Jump engine -- finite-activity jumps with zero Gaussian part; exact
  event-driven simulation, no grid.
* Generic engine -- both components present; per-path simulation through
  paths.sample_levy_path (correct but slow, no acceptance-scale use).

All engines accumulate A = integral e^{sign * xi_s / alpha} ds either up to
the killing time or, for conservative models, adaptively until a whole
trailing window contributes less than rel_tol of the running total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .models import LevyModel
from .paths import SimConfig, sample_levy_path

__all__ = ["FunctionalBatch", "MarginalBatch", "functional_batch",
           "marginal_batch", "segment_exp_integral"]

# status codes shared by all engines
KILLED = 1     # reached zeta; A is the full integral up to killing
HIT = 2        # marginal mode: A crossed the target
CONVERGED = 3  # conservative model: trailing window below rel_tol
CENSORED = 4   # horizon exhausted first

_WINDOW_STEPS = 128
_WINDOW_TIME = 4.0


@dataclass
class FunctionalBatch:
    values: np.ndarray      # accumulated integral per path
    censored: np.ndarray    # bool: horizon hit before killing/convergence
    final_x: np.ndarray     # xi at the stopping time


@dataclass
class MarginalBatch:
    xi: np.ndarray          # xi at the crossing time (valid where hit)
    status: np.ndarray      # HIT / KILLED / CENSORED per path


def segment_exp_integral(x0, inc, gap, inv_alpha, sign=1.0):
    """Exact integral of e^{sign*xi/alpha} over one linear segment."""
    u = sign * inv_alpha * np.asarray(x0, dtype=float)
    d = sign * inv_alpha * np.asarray(inc, dtype=float)
    phi = np.ones_like(d)
    nz = d != 0.0
    phi[nz] = np.expm1(d[nz]) / d[nz]
    return gap * np.exp(u) * phi


# ---------------------------------------------------------------------------
# Gaussian engine


def _gauss_run(b, sigma, inv_alpha, sign, kappa, n, rng, dt, horizon,
               rel_tol, min_time, targets=None):
    mode = _kernels.TARGET if targets is not None else _kernels.STOP_AT_ZETA
    if kappa > 0:
        zeta = rng.exponential(1.0 / kappa, n)
    else:
        zeta = np.full(n, np.inf)
    x = np.zeros(n)
    a = np.zeros(n)
    t = np.zeros(n)
    tgt = np.asarray(targets, dtype=float).copy() if targets is not None \
        else np.zeros(n)
    live = np.arange(n)
    out_a = np.zeros(n)
    out_x = np.zeros(n)
    status = np.full(n, CENSORED, dtype=np.int8)

    while live.size:
        k = live.size
        normals = rng.standard_normal((_WINDOW_STEPS, k))
        w = np.zeros(k)
        done = np.zeros(k, np.uint8)
        _kernels.advance_window(x, a, t, w, done, zeta, tgt, normals,
                                float(b), float(sigma), float(dt),
                                float(inv_alpha), float(sign), mode)
        st = done.astype(np.int8)
        free = zeta == np.inf
        conv = (done == 0) & free & (t >= min_time) & (w < rel_tol * a)
        st[conv] = CONVERGED
        cens = (st == 0) & (t >= horizon)
        st[cens] = CENSORED
        finished = st != 0
        if finished.any():
            idx = live[finished]
            out_a[idx] = a[finished]
            out_x[idx] = x[finished]
            status[idx] = st[finished]
            keep = ~finished
            live = live[keep]
            x, a, t, zeta, tgt = x[keep], a[keep], t[keep], zeta[keep], tgt[keep]
    return out_a, out_x, status


# ---------------------------------------------------------------------------
# jump engine (finite activity, sigma = 0)


def _draw_jump_sizes(specs, rates, total_rate, rng, k):
    if len(specs) == 1:
        return specs[0].sample_sizes(rng, k)
    u = rng.random(k)
    cum = np.cumsum(rates) / total_rate
    which = np.searchsorted(cum, u)
    sizes = np.empty(k)
    for si, spec in enumerate(specs):
        mask = which == si
        cnt = int(mask.sum())
        if cnt:
            sizes[mask] = spec.sample_sizes(rng, cnt)
    return sizes


def _jump_run(model: LevyModel, inv_alpha, sign, n, rng, horizon,
              rel_tol, min_time, targets=None):
    b = model.drift
    kappa = model.killing
    specs = model.jumps
    rates = np.array([s.intensity for s in specs])
    total_rate = float(rates.sum())
    s_ia = sign * inv_alpha
    if kappa > 0:
        zeta = rng.exponential(1.0 / kappa, n)
    else:
        zeta = np.full(n, np.inf)
    x = np.zeros(n)
    a = np.zeros(n)
    t = np.zeros(n)
    w = np.zeros(n)
    next_check = np.full(n, _WINDOW_TIME)
    tgt = np.asarray(targets, dtype=float).copy() if targets is not None \
        else None
    live = np.arange(n)
    out_a = np.zeros(n)
    out_x = np.zeros(n)
    status = np.full(n, CENSORED, dtype=np.int8)

    while live.size:
        k = live.size
        st = np.zeros(k, np.int8)
        wait = rng.exponential(1.0 / total_rate, k)
        stop = np.minimum(zeta, horizon)
        seg_end = np.minimum(t + wait, stop)
        gap = seg_end - t
        seg = segment_exp_integral(x, b * gap, gap, inv_alpha, sign)

        cross = np.zeros(k, bool)
        if tgt is not None:
            cross = seg >= tgt - a
            if cross.any():
                x0 = x[cross]
                r = (tgt - a)[cross]
                kc = s_ia * b
                eu = np.exp(-s_ia * x0)
                if abs(kc) < 1e-300:
                    s_star = r * eu
                else:
                    s_star = np.log1p(r * kc * eu) / kc
                x[cross] = x0 + b * s_star
                a[cross] = tgt[cross]
                t[cross] += s_star
                st[cross] = HIT

        run = ~cross
        a[run] += seg[run]
        w[run] += seg[run]
        x[run] += b * gap[run]
        t[run] = seg_end[run]

        jumped = run & (seg_end < stop)
        kj = int(jumped.sum())
        if kj:
            sizes = _draw_jump_sizes(specs, rates, total_rate, rng, kj)
            x[jumped] += sizes

        st[run & ~jumped & (seg_end >= zeta)] = KILLED
        st[(st == 0) & run & ~jumped & (seg_end >= horizon)] = CENSORED

        due = (st == 0) & (t >= next_check)
        if due.any():
            conv = due & (zeta == np.inf) & (t >= min_time) & (w < rel_tol * a)
            st[conv] = CONVERGED
            reset = due & ~conv
            w[reset] = 0.0
            next_check[reset] = t[reset] + _WINDOW_TIME

        finished = st != 0
        if finished.any():
            idx = live[finished]
            out_a[idx] = a[finished]
            out_x[idx] = x[finished]
            status[idx] = st[finished]
            keep = ~finished
            live = live[keep]
            x, a, t, w = x[keep], a[keep], t[keep], w[keep]
            zeta, next_check = zeta[keep], next_check[keep]
            if tgt is not None:
                tgt = tgt[keep]
    return out_a, out_x, status


# ---------------------------------------------------------------------------
# generic per-path engine


def _generic_run(model: LevyModel, inv_alpha, sign, n, rng, dt, horizon,
                 rel_tol, min_time):
    cfg = SimConfig(dt=dt, horizon=horizon, seed=0)
    out_a = np.zeros(n)
    out_x = np.zeros(n)
    status = np.full(n, CENSORED, dtype=np.int8)
    for i in range(n):
        path = sample_levy_path(model, cfg, rng=rng)
        left = path.left_limits()
        gaps = np.diff(path.times)
        segs = segment_exp_integral(path.values[:-1],
                                    left[1:] - path.values[:-1],
                                    gaps, inv_alpha, sign)
        out_a[i] = segs.sum()
        out_x[i] = path.values[-1]
        if path.zeta is not None:
            status[i] = KILLED
        else:
            tail = segs[path.times[1:] > path.times[-1] - _WINDOW_TIME].sum()
            if path.times[-1] >= min_time and tail < rel_tol * out_a[i]:
                status[i] = CONVERGED
    return out_a, out_x, status


# ---------------------------------------------------------------------------
# dispatch


def _dispatch(model: LevyModel, sign, n, rng, dt, horizon, rel_tol, min_time,
              targets=None):
    inv_alpha = 1.0 / model.alpha
    if not model.jumps:
        return _gauss_run(model.drift, math.sqrt(model.gaussian), inv_alpha,
                          sign, model.killing, n, rng, dt, horizon, rel_tol,
                          min_time, targets)
    if model.gaussian == 0:
        return _jump_run(model, inv_alpha, sign, n, rng, horizon, rel_tol,
                         min_time, targets)
    if targets is not None:
        raise NotImplementedError(
            "marginal sampling for mixed Gaussian+jump models")
    return _generic_run(model, inv_alpha, sign, n, rng, dt, horizon,
                        rel_tol, min_time)


def functional_batch(model: LevyModel, sign: float, n: int,
                     rng: np.random.Generator, config: SimConfig,
                     rel_tol: float = 1e-6,
                     min_time: float = 1.0) -> FunctionalBatch:
    """n draws of integral_0^stop e^{sign*xi/alpha}; censored marks paths
    that hit the horizon before killing or convergence."""
    a, x, status = _dispatch(model, sign, n, rng, config.dt, config.horizon,
                             rel_tol, min_time)
    return FunctionalBatch(values=a, censored=status == CENSORED, final_x=x)


def marginal_batch(model: LevyModel, targets: np.ndarray,
                   rng: np.random.Generator,
                   config: SimConfig) -> MarginalBatch:
    """xi at the first time A crosses each target (the Lamperti clock),
    KILLED where zeta arrives first (the pssMp is already at 0)."""
    targets = np.asarray(targets, dtype=float)
    a, x, status = _dispatch(model, 1.0, targets.size, rng, config.dt,
                             config.horizon, rel_tol=0.0, min_time=np.inf,
                             targets=targets)
    return MarginalBatch(xi=x, status=status)
