"""Exponential functionals I and J: exact cases, gates, identity checks."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pssmplab import catalog, expfun
from pssmplab.errors import (
    DerivativeInfinite,
    HorizonTooShort,
    HypothesisViolated,
    ModelDoesNotHitZero,
    NoCramerRoot,
    NotDriftingUp,
)
from pssmplab.expfun import (
    CheckReport,
    dual_identity_check,
    moment,
    negative_moment_check,
    recursion_check,
    sample_I,
    sample_I_batch,
    sample_J_batch,
)
from pssmplab.models import LevyModel, esscher
from pssmplab.paths import SimConfig

CFG = SimConfig(dt=0.01, horizon=400.0, seed=0)


def test_pure_drift_I_is_alpha():
    # xi_s = -s: I = integral e^{-s/alpha} ds = alpha exactly
    for alpha in (0.5, 1.0, 2.0):
        val = sample_I(catalog.pure_drift(alpha), CFG)
        assert val == pytest.approx(alpha, rel=1e-5)


def test_pure_drift_recursion_is_exact():
    # I deterministic: both sides equal alpha^{alpha beta} with zero variance
    rep = recursion_check(catalog.pure_drift(2.0), 0.25, 8, CFG)
    assert rep.lhs == pytest.approx(2.0 ** 0.5, rel=1e-5)
    assert rep.rhs == pytest.approx(rep.lhs, rel=1e-5)


def test_moment_hypothesis_gate():
    m = catalog.brownian()
    with pytest.raises(HypothesisViolated):
        moment(m, 0.8, 10, CFG)  # psi(0.8) > 0: E(I^0.8) infinite
    with pytest.raises(HypothesisViolated):
        moment(m, -1.5, 10, CFG)
    with pytest.raises(HypothesisViolated):
        recursion_check(m, 0.6, 10, CFG)  # psi(0.6) > 0
    with pytest.raises(HypothesisViolated):
        recursion_check(m, 1.5, 10, CFG)  # outside (0, 1/alpha)


@pytest.mark.parametrize("functional, model", [
    ("I", catalog.brownian()), ("J", esscher(catalog.brownian(), 0.5))])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_moment_rejects_non_finite_p_before_sampling(functional, model, bad,
                                                     monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the p check")

    monkeypatch.setattr(expfun, "sample_I_batch", no_sampling)
    monkeypatch.setattr(expfun, "sample_J_batch", no_sampling)
    with pytest.raises(ValueError, match=f"p must be finite, got {bad!r}"):
        moment(model, bad, 10, CFG, functional=functional)


def test_near_critical_warning():
    with pytest.warns(UserWarning, match="near-critical"):
        moment(catalog.brownian(), 0.49, 50, CFG)


def test_recursion_check_warns_once_near_critical():
    # psi(0.48) = -0.0098 on brownian: moment's gate at p = alpha beta is
    # the one statement of the warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        recursion_check(catalog.brownian(), 0.48, 50, CFG)
    assert len(caught) == 1
    assert issubclass(caught[0].category, UserWarning)
    assert "near-critical" in str(caught[0].message)


def test_sample_J_requires_upward_drift():
    with pytest.raises(NotDriftingUp):
        sample_J_batch(catalog.brownian(), 10, CFG)  # killed
    with pytest.raises(NotDriftingUp):
        sample_J_batch(catalog.pure_drift(), 10, CFG)  # drifts down


def test_sample_I_requires_hitting_zero():
    up = LevyModel(drift=1.0, gaussian=0.0)
    with pytest.raises(ModelDoesNotHitZero):
        sample_I_batch(up, 10, CFG)


def test_censoring_is_reported():
    # a horizon far too short leaves most Brownian draws undecided (the
    # horizon is enforced at window granularity, so early-killed paths may
    # still resolve)
    short = SimConfig(dt=0.01, horizon=0.05, seed=0)
    values, censored = sample_I_batch(catalog.brownian(), 50, short)
    assert censored.mean() > 0.7
    # a conservative model cannot converge before min_time, so a single
    # sub-min_time draw is always censored
    slow = LevyModel(drift=-1.0, gaussian=1.0)
    with pytest.raises(HorizonTooShort):
        sample_I(slow, SimConfig(dt=0.01, horizon=0.5, seed=0))


def test_recursion_check_two_sided():
    rep = recursion_check(catalog.two_sided(), 0.8, 20000, CFG)
    assert rep.z_score < 5.0
    assert rep.censored == 0


def test_dual_identity_two_sided():
    rep = dual_identity_check(catalog.two_sided(), 20000, CFG)
    assert rep.z_score < 5.0


def test_negative_moment_brownian():
    # E_tilted(J^{-1}) = psi'(theta)/alpha, with psi'(theta) = 1/2 for the
    # Brownian model (Bertoin & Yor 2005: E(1/J) = E xi_1 for J = int e^{-xi})
    for alpha in (1.0, 0.5):
        m = replace(catalog.brownian(), alpha=alpha)
        rep = negative_moment_check(m, 20000, CFG)
        assert rep.rhs == pytest.approx(0.5 / alpha, abs=1e-9)
        assert rep.z_score < 5.0


def test_negative_moment_boundary_root_diverges():
    with pytest.raises(DerivativeInfinite):
        negative_moment_check(catalog.boundary_root(), 100, CFG)
    # without a Cramer root neither J-side check exists
    for check in (negative_moment_check, dual_identity_check):
        with pytest.raises(NoCramerRoot):
            check(catalog.killed_drift(), 100, CFG)


def test_moment_of_J_dufresne_quantile_sanity():
    # tilted Brownian: J has the law 2/Exp(1); its median is 2/log(2)
    tilted = esscher(catalog.brownian(), 0.5)
    jv, jc = sample_J_batch(tilted, 5000, CFG)
    assert jc.sum() == 0
    med = np.median(jv)
    assert med == pytest.approx(2.0 / math.log(2.0), rel=0.1)


def test_reports_serialize():
    rep = recursion_check(catalog.pure_drift(), 0.5, 8, CFG)
    doc = rep.to_json()
    assert set(doc) == {"lhs", "rhs", "se", "z", "n", "censored"}
    est = moment(catalog.pure_drift(), 0.5, 8, CFG)
    assert set(est.to_json()) == {"value", "se", "n", "censored", "note"}


@pytest.mark.parametrize("lhs, rhs, se", [
    (math.nan, 1.0, math.nan), (1.0, math.nan, 0.1), (1.0, 2.0, math.nan),
    (math.inf, 1.0, 0.1), (1.0, 1.0, math.inf)])
def test_check_report_z_is_nan_unless_all_finite(lhs, rhs, se):
    # a non-finite side or SE must never read as a passing z
    rep = CheckReport(lhs=lhs, rhs=rhs, std_err=se, n=10, censored=0)
    assert math.isnan(rep.z_score)
    assert not rep.z_score < 4.0
    # se = 0 with finite sides stays z = 0: both sides are exact
    assert CheckReport(lhs=1.0, rhs=1.0, std_err=0.0, n=10,
                       censored=0).z_score == 0.0
