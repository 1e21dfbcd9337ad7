"""Exponential functionals of the Levy process and their moment identities.

Two functionals drive everything downstream:

    I = integral_0^zeta e^{xi_s/alpha} ds        (under the base model)
    J = integral_0^inf e^{-xi_s/alpha} ds        (under the tilted model)

I is the hitting time of 0 from x0 = 1; J drives the entrance law of the
continuous recurrent extension.  The checks below compare independent Monte
Carlo estimates of both sides of the moment recursion, the I/J duality and
the negative-moment identity, reporting z-scores rather than verdicts.

Multilevel means.  ``moment``, and the entrance law's and the resolvent's
numerators in ``extensions``, take the mean of a payoff of I or J, one or
k outputs of the same draws (_payoff_mean).  It is Giles' multilevel
estimate (2008, *Oper. Res.* 56) when the model has sigma > 0 and no jumps
and the plain variance is finite by psi at the power p of the functional
that bounds the payoff (p itself for a moment): for I, -1 < 2p < 0 or
2p > 0 with psi(2p/alpha) < 0; for J, 2p < 0 or psi(-2p/alpha) < 0, with
psi the exponent of the model J is drawn under; and p != 0.  Levels run
from _COARSEST_DT down to config.dt by halving; each level l >= 1 draws
fine and coarse on one path (engine.coupled_batch), so the sum of the
level means telescopes to the finest level's expectation.  That is exact
on killed runs, where a coupled coarse path is a path at 2 dt in law.  On
conservative runs (J) it holds to within rel_tol, because a coupled coarse
path stops at the fine path's convergence reading.  The estimate keeps the
first-order dt bias of config.dt; a moment reports the coupled levels'
pooled reading of it as ``dt_bias``.  Every other mean is the plain mean
of n draws, bit for bit as before.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional

import numpy as np

from .engine import REL_TOL, _check_n, coupled_batch, functional_batch
from .errors import (
    DerivativeInfinite,
    HorizonTooShort,
    HypothesisViolated,
    ModelDoesNotHitZero,
    NoCramerRoot,
    NotDriftingUp,
    TooFewSamples,
)
from .models import LevyModel, cramer_root, esscher
from .paths import SimConfig

__all__ = ["ExpFunEstimate", "CheckReport", "sample_I", "sample_I_batch",
           "sample_J_batch", "mean_se", "moment", "recursion_check",
           "dual_identity_check", "negative_moment_check"]

NEAR_CRITICAL_PSI = 0.02

# The multilevel estimate's coarsest dt: there one window of _WINDOW_STEPS
# rows already outlasts most paths, so a coarser level adds level variance
# and saves no normals.
_COARSEST_DT = 0.16
_PILOT = 100  # draws of each level's pilot, which sets the allocation


class Level(NamedTuple):
    """One level of a multilevel estimate: its dt, its uncensored draws,
    and the mean and per-draw variance of P_l - P_{l-1} (P_0 on level 0);
    in _multilevel, a tuple of both per output."""
    dt: float
    n: int
    mean: float
    variance: float


@dataclass
class ExpFunEstimate:
    value: float
    std_err: float
    n: int
    censored: int
    truncation_note: str = ""
    # multilevel only: the levels, coarsest first, and the coupled levels'
    # pooled reading of minus the first-order dt bias of the estimate, with
    # its SE (_pooled_dt_bias)
    levels: Optional[list] = None
    dt_bias: Optional[float] = None
    dt_bias_se: Optional[float] = None

    def to_json(self) -> dict:
        return {"value": self.value, "se": self.std_err, "n": self.n,
                "censored": self.censored, "note": self.truncation_note,
                "levels": None if self.levels is None
                else [lv._asdict() for lv in self.levels],
                "dt_bias": self.dt_bias, "dt_bias_se": self.dt_bias_se}


@dataclass
class CheckReport:
    """lhs against rhs, read as z = |lhs - rhs| / se (0 where se is 0: both
    sides are exact; NaN unless lhs, rhs and se are all finite, so that no
    z-gate passes it)."""

    lhs: float
    rhs: float
    std_err: float
    z_score: float = field(init=False)
    n: int
    censored: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lhs, self.rhs, self.std_err))):
            self.z_score = math.nan
        else:
            self.z_score = abs(self.lhs - self.rhs) / self.std_err \
                if self.std_err > 0 else 0.0

    def to_json(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "se": self.std_err,
                "z": self.z_score, "n": self.n, "censored": self.censored}


def _require_hits_zero(model: LevyModel):
    if not model.hits_zero():
        raise ModelDoesNotHitZero(
            "I requires killing > 0 or a model drifting to -inf")


def sample_I_batch(model: LevyModel, n: int, config: SimConfig,
                   rel_tol: float = REL_TOL):
    """n draws of I on the config's stream; returns (values, censored
    mask)."""
    _require_hits_zero(model)
    batch = functional_batch(model, 1.0, n, config, rel_tol=rel_tol)
    return batch.values, batch.censored


def _require_drifting_up(tilted: LevyModel):
    if tilted.killing > 0 or not tilted.mean() > 0:
        raise NotDriftingUp("J requires a conservative model with psi'(0) > 0")


def sample_J_batch(tilted: LevyModel, n: int, config: SimConfig):
    """n draws of J under a conservative model drifting to +inf, on the
    config's stream."""
    _require_drifting_up(tilted)
    batch = functional_batch(tilted, -1.0, n, config)
    return batch.values, batch.censored


def sample_I(model: LevyModel, config: SimConfig,
             rel_tol: float = REL_TOL) -> float:
    """One draw of I; raises when the horizon decided neither way."""
    values, censored = sample_I_batch(model, 1, config, rel_tol=rel_tol)
    if censored[0]:
        raise HorizonTooShort("I draw censored at the horizon")
    return float(values[0])


def mean_se(x: np.ndarray):
    """Sample mean and its standard error; needs at least two draws."""
    if x.size < 2:
        raise TooFewSamples(
            f"a standard error needs at least 2 draws, got {x.size}")
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))


def _check_moment_hypothesis(model: LevyModel, p: float):
    """Existence gate for E(I^p), stated through psi at beta = p/alpha
    (positive p) or beta = (p+1)/alpha (negative p, shifted-moment form)."""
    if p > 0:
        beta = p / model.alpha
        v = model.psi(beta)
        if not v < 0:
            raise HypothesisViolated(
                f"E(I^{p}) is infinite: psi({beta:g}) = {v:g} >= 0")
    elif p < 0:
        if p < -1:
            raise HypothesisViolated("negative moments supported on [-1, 0)")
        beta = (p + 1.0) / model.alpha
        v = model.psi(beta)
        if v > 0:
            raise HypothesisViolated(
                f"E(I^{p}) not covered: psi({beta:g}) = {v:g} > 0")
    else:
        beta = 0.0
        v = 0.0
    if p > 0 and 0.0 < abs(v) < NEAR_CRITICAL_PSI:
        warnings.warn(
            f"psi({beta:g}) = {v:g} is near-critical; the moment estimator "
            "has heavy tails -- increase n accordingly", stacklevel=3)


def _multilevel_ok(model: LevyModel, p: float, functional: str) -> bool:
    """Whether E(functional^p) is taken by the multilevel estimator: a
    jump-free model with sigma > 0 and, by psi, a finite plain variance,
    E(functional^{2p}) < oo.  On the I side psi is read only for 2p > 0: at
    2p <= -1 a killed I is near zeta when small, so E(I^{2p}) = oo."""
    if not (model.gaussian > 0 and not model.jumps and p != 0):
        return False
    if functional == "I":
        return -1.0 < 2 * p < 0 or (p > 0 and model.psi(2 * p / model.alpha)
                                    < 0)
    return 2 * p < 0 or model.psi(-2 * p / model.alpha) < 0


def _level_dts(config: SimConfig) -> list:
    """Each level's dt, coarsest first: config.dt * 2^(L - l), with L the
    most doublings of config.dt that stay at or below _COARSEST_DT and the
    horizon."""
    top = min(_COARSEST_DT, config.horizon)
    L = 0
    while config.dt * 2.0 ** (L + 1) <= top:
        L += 1
    return [config.dt * 2.0 ** (L - l) for l in range(L + 1)]


def _level_config(config: SimConfig, level: int, run: int,
                  dt: float) -> SimConfig:
    """The stream of one run of one level (run 0 is the pilot): the
    caller's stream id plus 2^63 + level 2^56 + run 2^33, mod 2^64.  It is
    at least 2^33 from the caller's stream, from its substream(k) for
    k < 2^32 and from the level streams of those substreams."""
    sid = config.stream_id + (1 << 63) + (level << 56) + (run << 33)
    return replace(config, dt=dt, stream_id=sid % (1 << 64))


def _level_draws(model, sign, payoff, level, n, config):
    """payoff(P_l) - payoff(P_{l-1}) (payoff(P_0) on level 0) of the
    uncensored paths of one n-path run, a (k, m) array, with the count of
    censored paths and the normals taken per path."""
    if level == 0:
        b = functional_batch(model, sign, n, config)
        y = payoff(b.values[~b.censored])
    else:
        b = coupled_batch(model, sign, n, config)
        ok = ~b.censored
        y = payoff(b.values[ok]) - payoff(b.coarse[ok])
    return y, int(b.censored.sum()), b.normals / n


def _multilevel(model: LevyModel, sign: float, payoff, n: int,
                config: SimConfig):
    """Giles' multilevel estimate of E(payoff(functional)) for a payoff
    that maps m draws to a (k, m) array, each of the k outputs with at most
    the variance of its plain estimate from n draws at the coarsest dt.
    Returns the levels, coarsest first, each Level holding a tuple of k
    means and of k variances, and the count of censored paths.

    E(P_L) = E(P_0) + sum_l E(P_l - P_{l-1}), where P_l is the payoff of
    the functional at dt_l = config.dt * 2^(L - l) and level l >= 1 draws
    both on one path by coupled_batch.  Each level's pilot of _PILOT draws
    gives output j's variance s_lj^2 and the level's cost c_l, the normals
    per path.  Output j asks n_lj = max(_PILOT, ceil(n / s_0j^2 *
    sqrt(s_lj^2 / c_l) * sum_i sqrt(s_ij^2 c_i))), so that sum_l s_lj^2 /
    n_lj <= s_0j^2 / n at the least cost; an output whose level-0 pilot is
    constant asks the plain n at level 0.  All outputs share each level's
    draws, so level l takes the largest n_lj, drawn in runs of at most n
    paths after the pilot.  Output j's SE is sqrt(sum_l s_lj^2 / n_l) over
    all of each level's draws.
    """
    dts = _level_dts(config)
    draws = [_level_draws(model, sign, payoff, lv, _PILOT,
                          _level_config(config, lv, 0, dt))
             for lv, dt in enumerate(dts)]
    cost = [c for _, _, c in draws]
    want = [_PILOT] * len(dts)
    for j in range(len(draws[0][0])):
        var = [float(y[j].var(ddof=1)) if y.shape[1] > 1 else 0.0
               for y, _, _ in draws]
        if not var[0] > 0:
            want[0] = max(want[0], n)
            continue
        scale = n * sum(math.sqrt(v * c) for v, c in zip(var, cost)) / var[0]
        want = [max(w, math.ceil(scale * math.sqrt(v / c)))
                for w, v, c in zip(want, var, cost)]
    levels = []
    censored = 0
    for lv, dt in enumerate(dts):
        ys = [draws[lv][0]]
        censored += draws[lv][1]
        for run, start in enumerate(range(_PILOT, want[lv], n), 1):
            y, cens, _ = _level_draws(model, sign, payoff, lv,
                                      min(n, want[lv] - start),
                                      _level_config(config, lv, run, dt))
            ys.append(y)
            censored += cens
        y = np.concatenate(ys, axis=1)
        levels.append(Level(dt=dt, n=y.shape[1],
                            mean=tuple(mean_se(r)[0] for r in y),
                            variance=tuple(float(r.var(ddof=1))
                                           for r in y)))
    return levels, censored


class _Mean(NamedTuple):
    """E(payoff) for each of k outputs; levels only when multilevel."""
    values: list
    std_errs: list
    censored: int
    levels: Optional[list]


def _payoff_mean(model: LevyModel, functional: str, payoff, power: float,
                 n: int, config: SimConfig) -> _Mean:
    """Monte Carlo E(payoff(functional)) for a payoff that maps m draws of
    I or J to a (k, m) array, one row per output.

    When _multilevel_ok holds at ``power``, the power of the functional
    that bounds the payoff's plain variance, it is a multilevel estimate
    (_multilevel) on streams derived from the config's; otherwise it is
    the plain mean of n draws on the config's stream.  An output with no
    nonzero draw has value 0 and SE NaN: no mean of draws that are all 0
    is decisive."""
    if functional == "I":
        _require_hits_zero(model)
        sign = 1.0
    else:
        _require_drifting_up(model)
        sign = -1.0
    if len(_level_dts(config)) > 1 and _multilevel_ok(model, power,
                                                      functional):
        _check_n(n)
        levels, censored = _multilevel(model, sign, payoff, n, config)
        values = [math.fsum(lv.mean[j] for lv in levels)
                  for j in range(len(levels[0].mean))]
        ses = [math.sqrt(sum(lv.variance[j] / lv.n for lv in levels))
               for j in range(len(values))]
    else:
        batch = functional_batch(model, sign, n, config)
        values, ses = zip(*(mean_se(r) for r in
                            payoff(batch.values[~batch.censored])))
        censored = int(batch.censored.sum())
        levels = None
    ses = [math.nan if v == 0 and se == 0 else se
           for v, se in zip(values, ses)]
    return _Mean(list(values), ses, censored, levels)


def _pooled_dt_bias(levels: list):
    """Every coupled level's reading of the first-order dt bias, pooled by
    inverse variance: level l's mean difference is about -c dt_l, so
    mean_l dt_L / dt_l estimates -c dt_L, about minus the bias at the
    finest dt.  Returns the pooled value and its SE."""
    fine = levels[-1].dt
    reads = [(lv.mean * fine / lv.dt,
              lv.variance / lv.n * (fine / lv.dt) ** 2) for lv in levels[1:]]
    weight = math.fsum(1.0 / v for _, v in reads)
    return (math.fsum(e / v for e, v in reads) / weight,
            math.sqrt(1.0 / weight))


def moment(model: LevyModel, p: float, n: int, config: SimConfig,
           functional: str = "I") -> ExpFunEstimate:
    """Monte Carlo E(functional^p) on the config's stream, with the
    moment-existence gate for I.

    A jump-free Gaussian moment with a finite plain variance
    (_multilevel_ok) is a multilevel estimate (_multilevel) with at most
    the plain variance of n draws, on streams derived from the config's;
    any other is the plain mean of n draws on the config's stream.  Either
    is fixed by (seed, stream_id)."""
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got {p!r}")
    if functional == "I":
        _check_moment_hypothesis(model, p)
    elif functional != "J":
        raise ValueError("functional must be 'I' or 'J'")
    est = _payoff_mean(model, functional, lambda v: (v ** p)[None], p, n,
                       config)
    levels = bias = bias_se = None
    if est.levels is not None:
        levels = [lv._replace(mean=lv.mean[0], variance=lv.variance[0])
                  for lv in est.levels]
        bias, bias_se = _pooled_dt_bias(levels)
    return ExpFunEstimate(value=est.values[0], std_err=est.std_errs[0], n=n,
                          censored=est.censored,
                          truncation_note=f"horizon={config.horizon}, "
                                          f"adaptive rel_tol={REL_TOL:g}",
                          levels=levels, dt_bias=bias, dt_bias_se=bias_se)


def recursion_check(model: LevyModel, beta: float, n: int,
                    config: SimConfig) -> CheckReport:
    """Moment recursion E(I^{alpha beta}) = (alpha beta / -psi(beta)) *
    E(I^{alpha beta - 1}), both sides estimated on independent streams."""
    if not 0.0 < beta < 1.0 / model.alpha:
        raise HypothesisViolated(
            f"beta={beta} must lie in (0, {1.0 / model.alpha:g})")
    v = model.psi(beta)
    ab = model.alpha * beta
    # moment's gate at p = alpha beta requires v < 0 and warns when v is
    # near-critical
    lhs = moment(model, ab, n, config)
    low = moment(model, ab - 1.0, n, config.substream(1))
    factor = ab / (-v)
    return CheckReport(lhs=lhs.value, rhs=factor * low.value,
                       std_err=math.hypot(lhs.std_err, factor * low.std_err),
                       n=n, censored=lhs.censored + low.censored)


def _root_or_raise(model: LevyModel):
    report = cramer_root(model)
    if report.theta is None:
        raise NoCramerRoot("psi has no positive root on its domain")
    return report


def dual_identity_check(model: LevyModel, n: int,
                        config: SimConfig) -> CheckReport:
    """E_tilted(J^{alpha theta - 1}) against E(I^{alpha theta - 1})."""
    theta = _root_or_raise(model).theta
    p = model.alpha * theta - 1.0
    lhs = moment(esscher(model, theta), p, n, config, functional="J")
    rhs = moment(model, p, n, config.substream(1))
    return CheckReport(lhs=lhs.value, rhs=rhs.value,
                       std_err=math.hypot(lhs.std_err, rhs.std_err),
                       n=n, censored=lhs.censored + rhs.censored)


def negative_moment_check(model: LevyModel, n: int,
                          config: SimConfig) -> CheckReport:
    """E_tilted(J^{-1}) against the analytic psi'(theta)/alpha.

    Under the tilted model xi drifts to +inf with E(xi_1) = psi'(theta), and
    J = integral e^{-xi/alpha} is the exponential functional of xi/alpha, so
    E(J^{-1}) = E(xi_1)/alpha (Bertoin & Yor 2005).
    """
    report = _root_or_raise(model)
    if not report.condition4_finite:
        raise DerivativeInfinite(
            "psi'_-(theta) diverges (boundary root): E_tilted(J^{-1}) is "
            "infinite and the estimate grows with n instead of stabilizing")
    lhs = moment(esscher(model, report.theta), -1.0, n, config,
                 functional="J")
    return CheckReport(lhs=lhs.value,
                       rhs=report.psi_prime_at_theta / model.alpha,
                       std_err=lhs.std_err, n=n, censored=lhs.censored)
