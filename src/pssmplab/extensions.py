"""Recurrent extensions of the self-similar process and the entrance law.

Two ways back from 0: restart by a jump drawn from the truncated power
measure eta_beta(dx) = beta * x^{-1-beta} dx, or restart "continuously" from
a fixed small epsilon.  Both are epsilon-approximations of the exact
excursion synthesis: the process is glued excursion after excursion with zero
time spent at 0, and epsilon is recorded so callers can extrapolate.

Independently of the glued path, the entrance law of the excursion measure is
evaluated through its closed-form representation in terms of the exponential
functional J of the tilted model:

    n(f(X_t), t < T_0)
        = E_t(f(t^alpha / J^alpha) J^{alpha theta - 1})
          / (t^{alpha theta} Gamma(1 - alpha theta) E_t(J^{alpha theta - 1}))

with the normalizing expectation estimated on an independent stream.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

import numpy as np
from scipy import special

from .errors import ConfigRejected, NoCramerRoot
from .expfun import (
    CheckReport,
    ExpFunEstimate,
    mean_se,
    moment,
    sample_I_batch,
    sample_J_batch,
)
from .lamperti import _check_positive, levy_to_pssmp
from .models import LevyModel, cramer_root, dual, esscher
from .paths import SimConfig, sample_levy_path

__all__ = ["ExtensionConfig", "ExtensionPath", "sample_jump_in_restart",
           "simulate_extension", "entrance_law", "entrance_law_curve",
           "excursion_normalization_check", "resolvent_crosscheck",
           "occupation_histogram", "make_test_function"]

# time quadratures of the entrance law run to t_max = _E_FOLDS / lam, where
# the weight e^{-lam t} is e^{-40}
_E_FOLDS = 40.0
_NORMALIZATION_NODES = 512   # t nodes of excursion_normalization_check
_RESOLVENT_T_NODES = 256     # t nodes of resolvent_crosscheck
_RESOLVENT_X_NODES = 64      # Gauss-Legendre x nodes of resolvent_crosscheck


# ---------------------------------------------------------------------------
# test-function catalog


def make_test_function(spec: Union[Callable, dict]) -> Callable:
    """Fixed vocabulary of test functions so reports are comparable.

    Specs: {"kind": "one"}, {"kind": "power", "p": p},
    {"kind": "indicator", "a": a, "b": b},
    {"kind": "bump", "a": a, "b": b} (smooth, supported on [a, b]).
    """
    if callable(spec):
        return spec
    kind = spec.get("kind")
    if kind == "one":
        return lambda x: np.ones_like(np.asarray(x, dtype=float))
    if kind == "power":
        p = float(spec["p"])
        return lambda x: np.asarray(x, dtype=float) ** p
    if kind == "indicator":
        a, b = float(spec["a"]), float(spec["b"])
        return lambda x: ((np.asarray(x) >= a) & (np.asarray(x) <= b)).astype(float)
    if kind == "bump":
        a, b = float(spec["a"]), float(spec["b"])

        def bump(x):
            x = np.asarray(x, dtype=float)
            u = (2.0 * (x - a) / (b - a)) - 1.0
            out = np.zeros_like(u)
            inside = np.abs(u) < 1.0
            out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
            return out

        return bump
    raise ValueError(f"unknown test function spec {spec!r}")


# ---------------------------------------------------------------------------
# extension configuration and path


@dataclass(frozen=True)
class ExtensionConfig:
    mode: str                 # "jump_in" | "continuous"
    epsilon: float
    horizon: float
    beta: Optional[float] = None

    def __post_init__(self):
        if self.mode not in ("jump_in", "continuous"):
            raise ValueError("mode must be 'jump_in' or 'continuous'")
        _check_positive("epsilon", self.epsilon)
        _check_positive("horizon", self.horizon)
        if self.mode == "jump_in" and self.beta is None:
            raise ValueError("jump_in mode requires beta")
        if self.beta is not None and not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta!r}")


@dataclass
class ExtensionPath:
    times: np.ndarray
    values: np.ndarray
    zero_hits: List[float]
    restarts: List[Tuple[float, float]]
    epsilon_used: float
    gamma: float

    def to_json_record(self) -> str:
        return json.dumps({
            "t": self.times.tolist(), "x": self.values.tolist(),
            "restarts": [[t, x] for t, x in self.restarts],
            "zero_hits": self.zero_hits, "epsilon": self.epsilon_used,
        })


def extension_gamma(model: LevyModel, cfg: ExtensionConfig) -> float:
    """Self-similarity index of the excursion measure; gates the config
    against the existence criteria for each mode."""
    if cfg.mode == "jump_in":
        beta = cfg.beta
        if not 0.0 < beta < 1.0 / model.alpha:
            raise ConfigRejected(
                f"jump_in needs beta in (0, {1.0 / model.alpha:g})")
        v = model.psi(beta)
        if not v < 0:
            raise ConfigRejected(
                f"jump_in extension does not exist: psi({beta:g}) = {v:g} >= 0")
        return model.alpha * beta
    report = cramer_root(model)
    if report.theta is None:
        raise ConfigRejected("continuous extension needs a Cramer root")
    if not report.alpha_theta < 1.0:
        raise ConfigRejected(
            f"continuous extension needs alpha*theta < 1, got "
            f"{report.alpha_theta:g}")
    return report.alpha_theta


def sample_jump_in_restart(beta: float, epsilon: float,
                           rng: np.random.Generator) -> float:
    """One draw from eta_beta restricted to (epsilon, inf), by inverse CDF."""
    _check_positive("beta", beta)
    _check_positive("epsilon", epsilon)
    return epsilon * rng.random() ** (-1.0 / beta)


def simulate_extension(model: LevyModel, cfg: ExtensionConfig,
                       sim: SimConfig) -> ExtensionPath:
    """Glue excursions until the horizon; zero time is spent at 0.

    The discarded sub-epsilon excursions have finite total duration that
    vanishes as epsilon -> 0 (their mean duration is E(I) x^{1/alpha}
    integrated against eta_beta below epsilon), so the scheme converges to
    the extension's law away from the zero set.
    """
    gamma = extension_gamma(model, cfg)
    rng = sim.rng()
    t_cur = 0.0
    chunks_t, chunks_x = [], []
    zero_hits: List[float] = []
    restarts: List[Tuple[float, float]] = []
    while t_cur < cfg.horizon:
        if cfg.mode == "jump_in":
            x0 = sample_jump_in_restart(cfg.beta, cfg.epsilon, rng)
        else:
            x0 = cfg.epsilon
        restarts.append((t_cur, x0))
        path = sample_levy_path(model, sim, rng=rng)
        ps = levy_to_pssmp(path, x0, model.alpha, allow_truncated=True)
        chunks_t.append(t_cur + ps.times)
        chunks_x.append(ps.values)
        if ps.t0 is None:
            # censored excursion: the extension path ends at the horizon
            t_cur += ps.times[-1]
            break
        t_cur += ps.t0
        zero_hits.append(t_cur)
    times = np.concatenate(chunks_t)
    values = np.concatenate(chunks_x)
    return ExtensionPath(times=times, values=values, zero_hits=zero_hits,
                         restarts=restarts, epsilon_used=cfg.epsilon,
                         gamma=gamma)


def occupation_histogram(paths, bins: np.ndarray):
    """Time-weighted histogram of path values (occupation measure density).

    ``paths`` iterates PssmpPath or ExtensionPath objects; each segment
    contributes its duration at its left-end value.  Bins are half-open
    [b_i, b_{i+1}) but the last, which includes its right edge, as in
    np.histogram; values outside [bins[0], bins[-1]] are dropped.
    """
    bins = np.asarray(bins, dtype=float)
    nb = bins.size - 1
    counts = np.zeros(nb)
    total = 0.0
    # one path at a time: all paths at once would hold every path's
    # segments in memory
    for p in paths:
        w = p.times[1:] - p.times[:-1]
        v = p.values[:-1]
        # slot i + 1 is bin i; 0 is below the range and nb + 1 above it
        slot = np.searchsorted(bins, v, side="right")
        slot[v == bins[-1]] = nb
        counts += np.bincount(slot, weights=w, minlength=nb + 2)[1:nb + 1]
        total += w.sum()
    if not total > 0:
        raise ValueError("paths have zero total duration")
    density = counts / (total * np.diff(bins))
    centers = 0.5 * (bins[:-1] + bins[1:])
    return centers, density


# ---------------------------------------------------------------------------
# entrance law


def _tilted_setup(model: LevyModel):
    report = cramer_root(model)
    if report.theta is None:
        raise NoCramerRoot("entrance law needs a Cramer root")
    if not report.alpha_theta < 1.0:
        raise NoCramerRoot("entrance law needs alpha*theta < 1")
    return report.theta, report.alpha_theta, esscher(model, report.theta)


@dataclass
class EntranceCurve:
    t_grid: np.ndarray
    values: np.ndarray
    std_errs: np.ndarray
    n: int
    censored: int


def entrance_law_curve(model: LevyModel, t_grid: np.ndarray, f, n: int,
                       config: SimConfig) -> EntranceCurve:
    """Entrance-law functional over a whole t-grid from one shared J batch;
    the normalizer is estimated on an independent stream."""
    t_grid = np.asarray(t_grid, dtype=float)
    for t in t_grid.tolist():
        _check_positive("t", t)
    theta, at, tilted = _tilted_setup(model)
    func = make_test_function(f)
    alpha = model.alpha

    jv, jc = sample_J_batch(tilted, n, config)
    jv = jv[~jc]
    w = jv ** (at - 1.0)

    den = moment(tilted, at - 1.0, n, config.substream(1), functional="J")

    gam = special.gamma(1.0 - at)
    values = np.empty(t_grid.size)
    ses = np.empty(t_grid.size)
    for i, t in enumerate(t_grid):
        num, num_se = mean_se(func(t ** alpha / jv ** alpha) * w)
        scale = t ** at * gam * den.value
        v = num / scale
        rel = math.hypot(num_se / num if num != 0 else 0.0,
                         den.std_err / den.value)
        values[i] = v
        ses[i] = abs(v) * rel if num != 0 else num_se / scale
    return EntranceCurve(t_grid=t_grid, values=values, std_errs=ses, n=n,
                         censored=int(jc.sum()) + den.censored)


def entrance_law(model: LevyModel, t: float, f, n: int, config: SimConfig):
    """n(f(X_t), t < T_0) as an ExpFunEstimate-style (value, se) report."""
    curve = entrance_law_curve(model, np.array([t]), f, n, config)
    return ExpFunEstimate(value=float(curve.values[0]),
                          std_err=float(curve.std_errs[0]), n=n,
                          censored=curve.censored)


def _u_substitution_grid(at: float, t_max: float, m: int):
    """Grid in u = t^{1-at}; regularizes the t^{-at} singularity at 0."""
    p = 1.0 - at
    u = np.linspace(0.0, t_max ** p, m + 1)[1:]
    t = u ** (1.0 / p)
    return u, t


def excursion_normalization_check(model: LevyModel, n: int,
                                  config: SimConfig) -> dict:
    """Check that the Monte Carlo entrance law integrates e^{-t} to 1.

    With f = 1 the entrance mass is t^{-at}/Gamma(1-at) and the integral
    is exactly 1; quadrature uses the u = t^{1-at} substitution so the
    integrand is bounded at 0.  Reports the value at two grid resolutions.
    """
    _, at, _ = _tilted_setup(model)
    p = 1.0 - at
    u, t = _u_substitution_grid(at, _E_FOLDS, _NORMALIZATION_NODES)
    curve = entrance_law_curve(model, t, {"kind": "one"}, n, config)
    # integrand in u: e^{-t} * value(t) * t^{at} / p  (dt = t^{at}/p du)
    g = np.exp(-t) * curve.values * t ** at / p
    gse = np.exp(-t) * curve.std_errs * t ** at / p
    du = u[1] - u[0]
    value = float(np.trapezoid(np.concatenate(([g[0]], g)), dx=du))
    # shared samples across t: treat node errors as fully correlated
    se = float(np.trapezoid(np.concatenate(([gse[0]], gse)), dx=du))
    # half resolution reuses every other node of the same curve
    coarse = float(np.trapezoid(np.concatenate(([g[1]], g[1::2])),
                                dx=2.0 * du))
    change = abs(value - coarse) / abs(value)
    return {"value": value, "se": se, "grid_change": change, "n": n}


def resolvent_crosscheck(model: LevyModel, lam: float, f, n: int,
                         config: SimConfig) -> CheckReport:
    """Resolvent of the excursion measure by two independent pipelines.

    lhs: time-quadrature of the entrance law, n(int_0^{T0} e^{-lam t} f(X_t) dt).
    rhs: space-quadrature of f(x) x^{1/alpha - 1 - theta} E_dual(e^{-lam
    x^{1/alpha} I}) divided by alpha*Gamma(1-at)*E_dual(I^{at-1}), with I
    sampled under the dual of the tilted model.
    """
    _check_positive("lambda", lam)
    theta, at, tilted = _tilted_setup(model)
    alpha = model.alpha
    func = make_test_function(f)

    # support of f by scanning, before any sampling: the x-quadrature
    # covers the part of the probe grid where f is nonzero, so an f that
    # is nonzero at either end of the grid would be cut off there
    probe = np.geomspace(1e-4, 1e4, 4001)
    on = func(probe) != 0
    if not on.any():
        raise ValueError("test function f is identically zero on the probe "
                         "grid")
    if on[0] or on[-1]:
        raise ValueError("test function f is nonzero at the end of the probe "
                         f"grid [{probe[0]:g}, {probe[-1]:g}]; the resolvent "
                         "needs an f with compact support inside it")
    a, b = probe[on][0] * 0.999, probe[on][-1] * 1.001

    # --- lhs: t-quadrature with the u-substitution grid
    p = 1.0 - at
    u, t = _u_substitution_grid(at, _E_FOLDS / lam, _RESOLVENT_T_NODES)
    curve = entrance_law_curve(model, t, func, n, config)
    g = np.exp(-lam * t) * curve.values * t ** at / p
    gse = np.exp(-lam * t) * curve.std_errs * t ** at / p
    du = u[1] - u[0]
    lhs = float(np.trapezoid(np.concatenate(([0.0], g)), dx=du))
    lhs_se = float(np.trapezoid(np.concatenate(([0.0], gse)), dx=du))

    # --- rhs: x-quadrature over the support of f
    hat = dual(tilted)
    iv, ic = sample_I_batch(hat, n, config.substream(2))
    iv = iv[~ic]
    iv2, ic2 = sample_I_batch(hat, n, config.substream(3))
    den, den_se = mean_se(iv2[~ic2] ** (at - 1.0))

    nodes, weights = np.polynomial.legendre.leggauss(_RESOLVENT_X_NODES)
    x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
    wq = 0.5 * (b - a) * weights

    laplace = np.empty(x.size)
    laplace_se = np.empty(x.size)
    for i, xi in enumerate(x):
        laplace[i], laplace_se[i] = mean_se(
            np.exp(-lam * xi ** (1.0 / alpha) * iv))
    shape = func(x) * x ** (1.0 / alpha - 1.0 - theta)
    integral = float(np.sum(wq * shape * laplace))
    integral_se = float(np.sum(wq * shape * laplace_se))
    norm = alpha * float(special.gamma(1.0 - at)) * den
    rhs = integral / norm
    rhs_se = abs(rhs) * math.hypot(
        integral_se / integral if integral != 0 else 0.0, den_se / den)

    return CheckReport(lhs=lhs, rhs=rhs, std_err=math.hypot(lhs_se, rhs_se),
                       n=n, censored=int(ic.sum() + ic2.sum())
                       + curve.censored)
