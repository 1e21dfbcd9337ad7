"""Statistical and numerical verification harness.

Three families of checks: two-sample distribution tests (scaling property,
restart laws), the deterministic renewal-measure limit for infinite-mean
Pareto waiting times of index gamma in (1/2, 1], and a
qualitative demonstration of the boundary-root regime where the usual
derivative condition fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import catalog
from .errors import BetaOutOfRange, GridTooCoarse, TooFewSamples
from .expfun import sample_I_batch
from .lamperti import _check_positive, pssmp_marginal
from .models import LevyModel, _interval, cramer_root, esscher
from .paths import SimConfig, sample_increment_batch

__all__ = ["KsReport", "RenewalProblem", "ks_two_sample", "scaling_test",
           "renewal_limit", "counterexample_demo", "multi_seed_ks",
           "hill_estimate"]

KS_LEVEL = 0.01   # per-seed KS pass level of multi_seed_ks


@dataclass
class KsReport:
    statistic: float
    p_value: float
    n1: int
    n2: int

    def to_json(self) -> dict:
        return {"statistic": self.statistic, "p_value": self.p_value,
                "n1": self.n1, "n2": self.n2}


def _smirnov_sf(n: int, d: float) -> float:
    """Exact one-sided tail P(D_n^+ >= d) of Birnbaum & Tingey (1951):
    d * sum_{j <= n(1-d)} C(n, j) (1 - d - j/n)^{n-j} (d + j/n)^{j-1},
    summed in log space. Terms with d + j/n >= 1 are zero."""
    if d <= 0.0:
        return 1.0
    j = np.arange(math.floor(n * (1.0 - d)) + 1)
    x = d + j / n
    j, x = j[x < 1.0], x[x < 1.0]
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
    log_terms = (log_fact[n] - log_fact[j] - log_fact[n - j]
                 + (n - j) * np.log1p(-x) + (j - 1) * np.log(x) + math.log(d))
    return float(np.exp(log_terms).sum())


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> KsReport:
    """Two-sample Kolmogorov-Smirnov test.

    The statistic is scipy's ``ks_2samp`` statistic, bit for bit. The
    p-value is min(1, 2 S_n(D)), with S_n the exact one-sided tail of
    ``_smirnov_sf`` and n = n1 n2 / (n1 + n2) rounded half to even. This is
    scipy's ``method="asymp"`` p-value, 2 smirnov(n, D), wherever n > 140
    and n D^2 >= 2.2, that is for p below about 0.024. Below p = 0.08 it is
    within 1e-4 of scipy's relative; above, it is an upper bound of the
    exact two-sided tail of D_n and up to 0.12 above scipy's value.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size < 20 or b.size < 20:
        raise TooFewSamples("KS test needs at least 20 samples per side")
    for name, v in (("a", a), ("b", b)):
        if not np.isfinite(v).all():
            raise ValueError(f"{name} must be finite, got "
                             f"{float(v[~np.isfinite(v)][0])}")
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    d = float(np.abs(np.searchsorted(a, both, side="right") / a.size
                     - np.searchsorted(b, both, side="right") / b.size).max())
    n = round(a.size * b.size / (a.size + b.size))  # half to even
    return KsReport(statistic=d, p_value=min(1.0, 2.0 * _smirnov_sf(n, d)),
                    n1=a.size, n2=b.size)


def scaling_test(model: LevyModel, x: float, c: float, t: float, n: int,
                 config: SimConfig,
                 alpha_override: Optional[float] = None) -> KsReport:
    """KS between {c * X_{t c^{-1/alpha}} under P_x} and {X_t under
    P_{cx}}, drawn on the config's stream and the next; equality in law is
    the scaling property of index alpha.

    ``alpha_override`` rescales time with a wrong index on the first sample
    only -- the harness-sensitivity knob.
    """
    for name, v in (("x", x), ("c", c), ("t", t)):
        _check_positive(name, v)
    if alpha_override is not None:
        _check_positive("alpha_override", alpha_override)
    alpha_used = model.alpha if alpha_override is None else alpha_override
    a = c * pssmp_marginal(model, x, t * c ** (-1.0 / alpha_used), n, config)
    b = pssmp_marginal(model, c * x, float(t), n, config.substream(1))
    return ks_two_sample(a, b)


def multi_seed_ks(sampler: Callable[[int], KsReport],
                  seeds: int = 100) -> dict:
    """Run a seeded KS check across many seeds; single-seed acceptance is
    itself random, so the rule is a pass *rate* at KS_LEVEL."""
    if seeds < 1:
        raise TooFewSamples(f"a pass rate needs at least 1 seed, got {seeds}")
    passes = 0
    for s in range(seeds):
        if sampler(s).p_value > KS_LEVEL:
            passes += 1
    return {"passes": passes, "seeds": seeds, "level": KS_LEVEL,
            "rate": passes / seeds}


# ---------------------------------------------------------------------------
# renewal limit


@dataclass(frozen=True)
class RenewalProblem:
    """Pareto waiting times, P(wait > u) = (1 + u)^{-gamma}; infinite mean
    when gamma <= 1."""

    gamma: float
    dx: float
    t_max: float

    def __post_init__(self):
        if not 0.5 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (1/2, 1]")
        _check_positive("dx", self.dx)
        _check_positive("t_max", self.t_max)
        if self.t_max <= self.dx:
            raise ValueError("need dx < t_max")
        steps = self.t_max / self.dx
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"t_max must be a whole number of dx steps, got "
                             f"dx={self.dx!r}, t_max={self.t_max!r}")


def _renewal_mass(prob_mass: np.ndarray) -> np.ndarray:
    """Renewal masses sum_k F^{*k} on the lattice by convolution doubling.

    S_m = sum_{k < 2^m} F^{*k}; then S_{m+1} = S_m + F^{*2^m} (*) S_m and
    F^{*2^{m+1}} = F^{*2^m} (*) F^{*2^m}, truncated to the grid each round.
    Each product is a real FFT at a power-of-two length of at least
    2*size - 1, so nothing wraps around; its rounding is about 1e-17 per
    mass.
    """
    size = prob_mass.size
    n = 1 << (2 * size - 2).bit_length()
    s = np.zeros(size)
    s[0] = 1.0  # the k = 0 term, a unit atom at the origin
    f = prob_mass.copy()
    for _ in range(60):
        f_hat = np.fft.rfft(f, n)
        add = np.fft.irfft(f_hat * np.fft.rfft(s, n), n)[:size]
        s = s + add
        if add.sum() < 1e-12 * s.sum():
            break
        f = np.fft.irfft(f_hat * f_hat, n)[:size]
        if f.sum() < 1e-15:
            break
    return s


def _renewal_value(problem: RenewalProblem, g: Callable, dx: float) -> float:
    t = problem.t_max
    j = int(round(t / dx))
    grid = np.arange(j + 1) * dx  # ends at t: t / dx is whole
    tail = (1.0 + grid) ** (-problem.gamma)
    prob_mass = np.diff(1.0 - tail)
    u_mass = _renewal_mass(np.concatenate(([0.0], prob_mass)))
    # m(t) = integral_0^t tail(u) du, trapezoid on the same grid
    m_cum = np.concatenate(
        ([0.0], np.cumsum(0.5 * (tail[:-1] + tail[1:]) * dx)))
    # sum over renewal points y <= t; g may look left of 0
    return float(m_cum[j] * np.sum(g(t - grid) * u_mass))


def renewal_limit(problem: RenewalProblem, g: dict) -> dict:
    """m(t) * integral g(t - y) U(dy) at t = t_max against its
    strong-renewal limit, by deterministic lattice convolution at two
    resolutions, dx and dx/2; a move of more than 2 % between them raises
    GridTooCoarse.  ``g`` is the indicator of [a, b),
    {"kind": "indicator", "a": a, "b": b}.  The convolutions are numpy
    FFTs, at a cost of O(N log N) in the N = t_max / dx lattice points.

    The limit constant is 1 / (Gamma(gamma) * Gamma(2 - gamma)): it follows
    from U(t) ~ t^gamma / (Gamma(1+gamma) Gamma(1-gamma) ell(t)) together
    with m(t) ~ t^{1-gamma} ell(t) / (1-gamma), and it is the only constant
    consistent with the gamma = 1 endpoint, where m(t) * [U(t+h) - U(t)] -> h
    is the classical renewal theorem.  (An often-quoted variant with
    Gamma(1 - gamma) in place of Gamma(2 - gamma) fails that endpoint.)
    """
    if not isinstance(g, dict) or g.get("kind") != "indicator":
        raise ValueError(f"g: expected an object of kind 'indicator', got "
                         f"{g!r}")
    a, b = _interval(g, "g")
    g_fn = lambda y: ((y >= a) & (y < b)).astype(float)

    coarse = _renewal_value(problem, g_fn, problem.dx)
    fine = _renewal_value(problem, g_fn, problem.dx / 2.0)
    if fine == 0:
        raise ValueError(f"g sums to zero over the lattice of [0, t_max="
                         f"{problem.t_max:g}] at dx={problem.dx / 2.0:g}")
    move = abs(fine - coarse) / abs(fine)
    if move > 0.02:
        raise GridTooCoarse(
            f"halving dx moved value(t_max point) by {move:.1%} (> 2%)")
    gam = problem.gamma
    target = (b - a) / (math.gamma(gam) * math.gamma(2.0 - gam))
    return {"t": float(problem.t_max), "value": fine, "target": target}


# ---------------------------------------------------------------------------
# boundary-root regime demo


def hill_estimate(samples: np.ndarray, k: Optional[int] = None) -> float:
    """Hill estimator of a right tail index from the top k order statistics."""
    x = np.sort(np.asarray(samples, dtype=float))
    x = x[x > 0]
    if k is None:
        k = max(10, int(math.sqrt(x.size)))
    if k < 1:
        raise ValueError(f"a Hill estimate needs k >= 1, got k={k}")
    if x.size < k + 1:
        raise TooFewSamples(f"a Hill estimate from the top k={k} order "
                            f"statistics needs at least {k + 1} positive "
                            f"samples, got {x.size}")
    top = x[-k - 1:]
    mean_log = float((np.log(top[1:]) - math.log(top[0])).mean())
    if mean_log == 0:
        raise TooFewSamples(f"the top k + 1 = {k + 1} order statistics are "
                            f"tied at {float(top[0])!r}: no Hill estimate")
    return 1.0 / mean_log


def counterexample_demo(q: float, beta: float, delta: float, n: int,
                        config: SimConfig) -> dict:
    """Boundary-root regime of catalog.boundary_root(q, beta, delta), at
    alpha = 1/2: the Laplace-exponent root sits at the edge of the
    finiteness domain, the one-sided derivative there diverges, and the
    tilted increments have a power tail of index beta.

    Returns a qualitative report; the tail display multiplies x^q * P(T_0 > x)
    by the slowly growing factor (log x)^{1-beta}/(1-beta) and checks it is
    non-degenerate over one decade.
    """
    if not 0.5 < beta < 1.0:
        raise BetaOutOfRange("the demo regime needs beta in (1/2, 1)")
    model = catalog.boundary_root(q, beta, delta)
    report = cramer_root(model)
    tilted = esscher(model, report.theta)
    xi1, _ = sample_increment_batch(tilted, 1.0, n, config)
    hill = hill_estimate(xi1)

    iv, ic = sample_I_batch(model, n, config.substream(1))
    t0 = iv[~ic]  # T_0 from x = 1
    hi = float(np.quantile(t0, 0.999))
    xs = np.geomspace(hi / 10.0, hi, 8)
    surv = np.array([(t0 > x).mean() for x in xs])
    factor = (np.log(xs)) ** (1.0 - beta) / (1.0 - beta)
    display = xs ** q * surv * factor
    return {
        "theta": report.theta,
        "theta_matches_q": abs(report.theta - q) < 1e-9,
        "condition4_finite": report.condition4_finite,
        "derivative_diverges": not report.condition4_finite,
        "hill_tail_index": hill,
        "tail_display": [{"x": float(x), "value": float(v)}
                         for x, v in zip(xs, display)],
        "qualitative": True,
    }
