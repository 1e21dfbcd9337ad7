"""Exponential functionals I and J: exact cases, gates, identity checks."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pssmplab import catalog, expfun, paths
from pssmplab.engine import functional_batch
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
    mean_se,
    moment,
    negative_moment_check,
    recursion_check,
    sample_I,
    sample_I_batch,
    sample_J_batch,
)
from pssmplab.models import (
    CompoundPoisson,
    Exponential,
    LevyModel,
    cramer_root,
    esscher,
)
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
    doc = est.to_json()
    assert set(doc) == {"value", "se", "n", "censored", "note", "levels",
                        "dt_bias", "dt_bias_se"}
    assert doc["levels"] is None and doc["dt_bias"] is None
    doc = moment(DRIFTED, -0.25, 20, CFG).to_json()
    assert [lv["dt"] for lv in doc["levels"]] == [0.16, 0.08, 0.04, 0.02,
                                                  0.01]
    assert set(doc["levels"][0]) == {"dt", "n", "mean", "variance"}
    assert doc["dt_bias"] == doc["levels"][-1]["mean"]


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


# -- multilevel moments -------------------------------------------------------

# the benchmark's drifted model, psi(s) = s^2/2 - s - 1/8, and Dufresne's
# tilt of brownian, J = 2/Exp(1)
DRIFTED = LevyModel(drift=-1.0, gaussian=1.0, killing=0.125, alpha=1.0)
TILTED = esscher(catalog.brownian(), 0.5)
MIXED = LevyModel(drift=0.0, gaussian=1.0, killing=0.125, alpha=1.0,
                  jumps=(CompoundPoisson(rate=0.5, law=Exponential(
                      rate=2.0, sign=-1)),))


@pytest.mark.parametrize("model, p, functional", [
    # both sides of the beta = 0.25 and 0.45 recursions on brownian have
    # an infinite plain variance
    (catalog.brownian(), 0.25, "I"), (catalog.brownian(), -0.75, "I"),
    (catalog.brownian(), 0.45, "I"), (catalog.brownian(), -0.55, "I"),
    # jumps
    (MIXED, -0.5, "I"),
    (esscher(MIXED, cramer_root(MIXED).theta), -1.0, "J"),
    # no Gaussian part
    (catalog.killed_drift(), -0.25, "I"),
    # p = 0, and E(I^{2p}) = oo at 2p <= -1 on a killed model, where psi
    # reads psi(-1.5) < 0
    (DRIFTED, 0.0, "I"),
    (replace(DRIFTED, drift=0.0, killing=2.0), -0.75, "I"),
])
def test_excluded_moments_keep_the_plain_draws(model, p, functional):
    est = moment(model, p, 400, CFG, functional=functional)
    sign = 1.0 if functional == "I" else -1.0
    batch = functional_batch(model, sign, 400, CFG)
    assert (est.value, est.std_err) == mean_se(
        batch.values[~batch.censored] ** p)
    assert est.levels is None and est.dt_bias is None


@pytest.mark.parametrize("model, p, functional, exact, bias", [
    (TILTED, -1.0, "J", 0.5, 4e-4),
    (DRIFTED, 0.75, "I", 1.292763, 8e-4),
    (DRIFTED, -0.25, "I", 1.023438, 2e-4),
])
def test_multilevel_moment_matches_the_exact_value(model, p, functional,
                                                   exact, bias):
    # bias: the first-order dt bias at dt = 0.01, from 4 x 10^4 coupled
    # pairs per dt, where fine - coarse halved with dt from 0.04
    n = 20000
    est = moment(model, p, n, CFG, functional=functional)
    assert [lv.dt for lv in est.levels] == [0.16, 0.08, 0.04, 0.02, 0.01]
    assert est.censored == 0
    assert abs(est.value - exact) < 4.0 * est.std_err + bias
    # the variance of n plain draws, read from the coarsest level
    plain_se = math.sqrt(est.levels[0].variance / n)
    assert 0.8 < est.std_err / plain_se < 1.05


def test_level_streams_are_apart_from_every_caller_stream(monkeypatch):
    keys = []
    stream_rng = paths.stream_rng

    def recording(seed, stream_id):
        keys.append(stream_id)
        return stream_rng(seed, stream_id)

    monkeypatch.setattr(paths, "stream_rng", recording)
    for base in (0, 3001, 2 ** 64 - 3):
        keys.clear()
        # two moments, on the config's stream and on its substream(1)
        recursion_check(DRIFTED, 0.75, 300, replace(CFG, stream_id=base))
        assert len(keys) == len(set(keys)) > 10
        for key in keys:
            for caller in (base, base + 1):
                # neither the caller's stream nor its substream(k), k < 2^32
                assert (key - caller) % 2 ** 64 >= 2 ** 32
            # nor a suite's base 1000 i
            assert key % 1000 or key >= 1000 * 2 ** 32


def test_dt_bias_is_the_finest_level_difference_and_first_order():
    est = moment(TILTED, -1.0, 2000, CFG, functional="J")
    finest = est.levels[-1]
    assert est.dt_bias == finest.mean
    assert est.dt_bias_se == math.sqrt(finest.variance / finest.n)
    # the finest level's fine - coarse mean is about -c dt: it halves with
    # dt.  An estimate's own finest level is too small to show that, so
    # the level is drawn here with 3 x 10^4 pairs (relative SE 5 %)
    bias = []
    for dt in (0.04, 0.02, 0.01):
        y, censored, _ = expfun._level_draws(
            TILTED, -1.0, -1.0, 1, 30000, SimConfig(dt=dt, seed=5))
        assert censored == 0
        bias.append(y.mean())
    assert all(b < 0 for b in bias)
    for coarse, fine in zip(bias, bias[1:]):
        assert 1.6 < coarse / fine < 2.4, bias
