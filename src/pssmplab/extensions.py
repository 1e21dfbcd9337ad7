"""Recurrent extensions of the self-similar process and the entrance law.

Two ways back from 0: restart by a jump drawn from the truncated power
measure eta_beta(dx) = beta * x^{-1-beta} dx, or restart "continuously" from
a fixed small epsilon.  Both are epsilon-approximations of the exact
excursion synthesis: the process is glued excursion after excursion with zero
time spent at 0.  The path records its epsilon, but nothing here
extrapolates in epsilon, and the epsilon bias is not measured.

Independently of the glued path, the entrance law of the excursion measure is
evaluated through its closed-form representation in terms of the exponential
functional J of the tilted model:

    n(f(X_t), t < T_0)
        = E_t(f(t^alpha / J^alpha) J^{alpha theta - 1})
          / (t^{alpha theta} Gamma(1 - alpha theta) E_t(J^{alpha theta - 1}))

with the normalizing expectation estimated on an independent stream.  Both
means, and the resolvent's, are multilevel on a jump-free Gaussian model
(``expfun._payoff_mean``): the numerator's levels are drawn from the
caller's stream, the normalizer's from its substream(1), and every t of a
grid shares the numerator's draws.  With jumps or sigma = 0 each is the
plain mean of n draws.  A numerator with no nonzero draw has SE NaN, so its
check is not decisive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .errors import BetaOutOfRange, ConfigRejected, NoCramerRoot
from .expfun import CheckReport, _payoff_mean, moment
from .lamperti import _check_positive, levy_to_pssmp
from .models import (
    BetaClass,
    LevyModel,
    _interval,
    _number,
    classify_beta,
    cramer_root,
    esscher,
)
from .paths import SimConfig, sample_levy_path

__all__ = ["ExtensionConfig", "ExtensionPath", "sample_jump_in_restart",
           "simulate_extension", "entrance_mass_check", "entrance_law_curve",
           "resolvent_check", "occupation_histogram",
           "make_test_function"]

_RESOLVENT_X_NODES = 96  # Gauss-Legendre nodes in ln x of resolvent_check


# ---------------------------------------------------------------------------
# test-function catalog


def make_test_function(spec: dict) -> Callable:
    """Fixed vocabulary of test functions so reports are comparable.

    Specs: {"kind": "one"}, {"kind": "power", "p": p},
    {"kind": "indicator", "a": a, "b": b} (1 on [a, b)),
    {"kind": "bump", "a": a, "b": b} (smooth, supported on [a, b]).
    Each field is a finite number, named by its path (``f.p``) when it is
    not, and a < b.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"test function f: expected an object, got "
                         f"{spec!r}")
    kind = spec.get("kind")
    if kind == "one":
        return lambda x: np.ones_like(np.asarray(x, dtype=float))
    if kind == "power":
        p = _number(spec, "p", "f")
        return lambda x: np.asarray(x, dtype=float) ** p
    if kind == "indicator":
        a, b = _interval(spec, "f")
        return lambda x: ((np.asarray(x) >= a) & (np.asarray(x) < b)).astype(float)
    if kind == "bump":
        a, b = _interval(spec, "f")

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
    """Self-similarity index of the excursion measure, alpha*beta or
    alpha*theta.  ConfigRejected unless ``classify_beta`` reads
    JUMP_IN_EXISTS or the Cramer report ``continuous_extension_exists``."""
    if cfg.mode == "jump_in":
        try:
            verdict = classify_beta(model, cfg.beta)
        except BetaOutOfRange as exc:
            raise ConfigRejected(f"jump_in: {exc}") from exc
        if verdict is not BetaClass.JUMP_IN_EXISTS:
            raise ConfigRejected(
                f"jump_in extension does not exist at beta={cfg.beta}: "
                f"verdict {verdict.value}")
        return model.alpha * cfg.beta
    report = cramer_root(model)
    if not report.continuous_extension_exists:
        raise ConfigRejected(
            "continuous extension needs a Cramer root theta with alpha*theta "
            f"< 1, got alpha*theta={report.alpha_theta}")
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
    contributes its duration at its left-end value.  ``bins`` are at least
    two finite, strictly increasing edges.  Bins are half-open
    [b_i, b_{i+1}) but the last, which includes its right edge, as in
    np.histogram; values outside [bins[0], bins[-1]] are dropped.
    """
    bins = np.asarray(bins, dtype=float)
    if not (bins.ndim == 1 and bins.size >= 2 and np.isfinite(bins).all()
            and (np.diff(bins) > 0).all()):
        raise ValueError(f"bins must be at least two finite, strictly "
                         f"increasing edges, got {bins.tolist()!r}")
    nb = bins.size - 1
    lo, hi, inner = bins[0], bins[-1], bins[1:-1]
    counts = np.zeros(nb)
    total = 0.0
    # one path at a time: all paths at once would hold every path's
    # segments in memory
    for p in paths:
        w = p.times[1:] - p.times[:-1]
        v = p.values[:-1]
        total += w.sum()
        # only values in [lo, hi] are binned (NaN is not); the count of
        # inner edges at or below such a value is its bin, hi in the last
        keep = (v >= lo) & (v <= hi)
        slot = np.searchsorted(inner, v[keep], side="right")
        counts += np.bincount(slot, weights=w[keep], minlength=nb)
    if not total > 0:
        raise ValueError("paths have zero total duration")
    density = counts / (total * np.diff(bins))
    centers = 0.5 * (bins[:-1] + bins[1:])
    return centers, density


# ---------------------------------------------------------------------------
# entrance law


def _tilted_setup(model: LevyModel):
    report = cramer_root(model)
    if not report.continuous_extension_exists:
        raise NoCramerRoot(
            "entrance law needs a Cramer root theta with alpha*theta < 1, "
            f"got alpha*theta={report.alpha_theta}")
    at = report.alpha_theta
    return (report.theta, at, esscher(model, report.theta),
            math.gamma(1.0 - at))


@dataclass
class EntranceCurve:
    t_grid: np.ndarray
    values: np.ndarray
    std_errs: np.ndarray
    n: int
    censored: int
    alpha_theta: float


def entrance_law_curve(model: LevyModel, t_grid: np.ndarray, f, n: int,
                       config: SimConfig) -> EntranceCurve:
    """Entrance-law functional over a whole t-grid from shared J draws, one
    payoff output per t (expfun._payoff_mean); the normalizer is estimated
    on an independent stream."""
    _, at, tilted, gam = _tilted_setup(model)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1:
        raise ValueError(f"t_grid must be 1-D, got shape {t_grid.shape}")
    for t in t_grid.tolist():
        _check_positive("t", t)
    func = make_test_function(f)
    alpha = model.alpha
    # f = x^p makes the payoff J^{at - 1 - alpha p}; every other f is bounded
    power = at - 1.0 - (alpha * f["p"] if f["kind"] == "power" else 0.0)

    def payoff(jv):
        w = jv ** (at - 1.0)
        return np.array([func(t ** alpha / jv ** alpha) * w for t in t_grid])

    mc = _payoff_mean(tilted, "J", payoff, power, n, config)
    den = moment(tilted, at - 1.0, n, config.substream(1), functional="J")

    values = np.empty(t_grid.size)
    ses = np.empty(t_grid.size)
    for i, (t, num, num_se) in enumerate(zip(t_grid, mc.values,
                                             mc.std_errs)):
        scale = t ** at * gam * den.value
        v = num / scale
        rel = math.hypot(num_se / num if num != 0 else 0.0,
                         den.std_err / den.value)
        values[i] = v
        ses[i] = abs(v) * rel if num != 0 else num_se / scale
    return EntranceCurve(t_grid=t_grid, values=values, std_errs=ses, n=n,
                         censored=mc.censored + den.censored,
                         alpha_theta=at)


def entrance_mass_check(model: LevyModel, t: float, n: int,
                        config: SimConfig) -> CheckReport:
    """Monte Carlo entrance mass n(t < T_0), the entrance law at f = 1,
    against its exact value t^{-at}/Gamma(1-at)."""
    curve = entrance_law_curve(model, np.array([t]), {"kind": "one"}, n,
                               config)
    at = curve.alpha_theta
    return CheckReport(lhs=float(curve.values[0]),
                       rhs=t ** (-at) / math.gamma(1.0 - at),
                       std_err=float(curve.std_errs[0]), n=n,
                       censored=curve.censored)


def _bessel_k(mu: float, z: np.ndarray) -> np.ndarray:
    """K_mu(z) = e^{-z} int_0^inf e^{-2z sinh^2(t/2)} cosh(mu t) dt for
    0 <= mu < 1 and z > 0 (DLMF 10.32.9), by the trapezoid rule, which
    converges geometrically on this integrand (Trefethen & Weideman 2014).
    Past z(cosh T - 1) = 45 + ln(1 + 1/z) the integrand adds below e^{-45}
    relative.  Each z steps by a power of two h <= min(1/4, T/32), so the
    nodes k h are exact."""
    z = np.asarray(z, dtype=float)
    end = np.arccosh(1.0 + (45.0 + np.log1p(1.0 / z)) / z)
    h = np.minimum(0.25, 2.0 ** np.floor(np.log2(end / 32.0)))
    t = h[..., None] * np.arange(max(64, math.ceil(4.0 * end.max())) + 1)
    f = np.exp(-2.0 * z[..., None] * np.sinh(0.5 * t) ** 2) * np.cosh(mu * t)
    # the t = 0 node has half weight and integrand 1
    return np.exp(-z) * h * (f.sum(axis=-1) - 0.5)


def resolvent_check(model: LevyModel, lam: float, f, n: int,
                    config: SimConfig) -> CheckReport:
    """Resolvent of the excursion measure, n(int_0^{T0} e^{-lam t} f(X_t)
    dt), on a Bessel exponent (``catalog.bessel``), against its exact value.

    lhs: the mean over J under the tilt (expfun._payoff_mean) of r(J), the
    entrance law's t-integral in x = t^alpha / J^alpha, the x-quadrature
    of f(x) x^{1/alpha - 1 - theta} e^{-lam x^{1/alpha} J}
    / (alpha Gamma(1-at)), over the mean of J^{at-1} on an independent
    stream, with the delta-method SE.
    rhs: int f(y) y 2 (2 lam / y^2)^{mu/2} K_mu(y sqrt(2 lam)) dy
    / Gamma(1-mu) with mu = -drift, the exact value for BES(2 - 2 mu),
    with K_mu a trapezoid sum (``_bessel_k``).
    Both quadratures run in ln x over [a, b], the support of f, which is an
    ``indicator`` or a ``bump`` with 0 < a.  Any other exponent than a
    Bessel one is refused before anything is sampled or solved.
    """
    _check_positive("lambda", lam)
    func = make_test_function(f)
    if f["kind"] not in ("indicator", "bump") or not f["a"] > 0:
        raise ValueError(f"the resolvent needs an indicator or bump f on "
                         f"[a, b] with 0 < a < b, got {f!r}")
    if (model.gaussian != 1.0 or model.jumps or model.killing != 0.0
            or model.alpha != 0.5 or not -1.0 < model.drift < 0.0):
        raise ValueError(f"the resolvent check needs a Bessel exponent: "
                         f"gaussian 1, no jumps, no killing, alpha 1/2 and "
                         f"-1 < drift < 0, got {model!r}")
    a, b = float(f["a"]), float(f["b"])
    mu = -model.drift
    theta, at, tilted, gam = _tilted_setup(model)
    alpha = model.alpha

    # nodes in y = ln x: dx = x dy, so they stay dense where x is small
    nodes, weights = np.polynomial.legendre.leggauss(_RESOLVENT_X_NODES)
    la, lb = math.log(a), math.log(b)
    x = np.exp(0.5 * (lb - la) * nodes + 0.5 * (la + lb))
    dx = 0.5 * (lb - la) * weights * func(x) * x

    wx = dx * x ** (1.0 / alpha - 1.0 - theta) / (alpha * gam)

    def payoff(jv):
        return sum(wi * np.exp(-lam * xi ** (1.0 / alpha) * jv)
                   for wi, xi in zip(wx, x))[None]

    # r(J) is bounded, so its variance rule is read at at - 1, as for a
    # bounded f in the entrance law
    mc = _payoff_mean(tilted, "J", payoff, at - 1.0, n, config)
    den = moment(tilted, at - 1.0, n, config.substream(1), functional="J")
    m, se = mc.values[0], mc.std_errs[0]
    lhs = m / den.value
    # den comes from another stream, so the two errors add in quadrature
    lhs_se = math.hypot(se, lhs * den.std_err) / den.value

    s = math.sqrt(2.0 * lam)
    rhs = float(np.sum(dx * 2.0 * x * (s / x) ** mu * _bessel_k(mu, s * x))) \
        / math.gamma(1.0 - mu)
    return CheckReport(lhs=lhs, rhs=rhs, std_err=lhs_se, n=n,
                       censored=mc.censored + den.censored)
