"""Exponential functionals of the Levy process and their moment identities.

Two functionals drive everything downstream:

    I = integral_0^zeta e^{xi_s/alpha} ds        (under the base model)
    J = integral_0^inf e^{-xi_s/alpha} ds        (under the tilted model)

I is the hitting time of 0 from x0 = 1; J drives the entrance law of the
continuous recurrent extension.  The checks below compare independent Monte
Carlo estimates of both sides of the moment recursion, the I/J duality and
the negative-moment identity, reporting z-scores rather than verdicts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .engine import REL_TOL, functional_batch
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


@dataclass
class ExpFunEstimate:
    value: float
    std_err: float
    n: int
    censored: int
    truncation_note: str = ""

    def to_json(self) -> dict:
        return {"value": self.value, "se": self.std_err, "n": self.n,
                "censored": self.censored, "note": self.truncation_note}


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


def sample_J_batch(tilted: LevyModel, n: int, config: SimConfig):
    """n draws of J under a conservative model drifting to +inf, on the
    config's stream."""
    if tilted.killing > 0 or not tilted.mean() > 0:
        raise NotDriftingUp("J requires a conservative model with psi'(0) > 0")
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


def moment(model: LevyModel, p: float, n: int, config: SimConfig,
           functional: str = "I") -> ExpFunEstimate:
    """Monte Carlo E(functional^p) on the config's stream, with the
    moment-existence gate for I."""
    if functional == "I":
        _check_moment_hypothesis(model, p)
        values, censored = sample_I_batch(model, n, config)
    elif functional == "J":
        values, censored = sample_J_batch(model, n, config)
    else:
        raise ValueError("functional must be 'I' or 'J'")
    m, se = mean_se(values[~censored] ** p)
    return ExpFunEstimate(value=m, std_err=se, n=n,
                          censored=int(censored.sum()),
                          truncation_note=f"horizon={config.horizon}, "
                                          f"adaptive rel_tol={REL_TOL:g}")


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
