"""Verification harness: KS machinery, renewal limit, boundary-root demo."""

import math

import numpy as np
import pytest
from scipy import special, stats

from pssmplab import catalog
from pssmplab.errors import BetaOutOfRange, GridTooCoarse, TooFewSamples
from pssmplab.paths import SimConfig
from pssmplab.verify import (
    KsReport,
    RenewalProblem,
    _renewal_mass,
    _smirnov_sf,
    counterexample_demo,
    hill_estimate,
    ks_two_sample,
    multi_seed_ks,
    renewal_limit,
    scaling_test,
)

CFG = SimConfig(dt=0.01, horizon=400.0, seed=0)


def test_ks_two_sample_basics():
    rng = np.random.default_rng(0)
    a = rng.normal(size=1000)
    b = rng.normal(size=1000)
    rep = ks_two_sample(a, b)
    assert rep.p_value > 0.01
    shifted = ks_two_sample(a, b + 1.0)
    assert shifted.p_value < 1e-10
    with pytest.raises(TooFewSamples):
        ks_two_sample(a[:5], b)
    same = ks_two_sample(a, a)
    assert (same.statistic, same.p_value) == (0.0, 1.0)
    # a non-finite draw is refused with its side, never given a p-value
    x = a[:100]
    for bad in (math.nan, math.inf, -math.inf):
        y = x.copy()
        y[[3, 17, 40, 41, 99]] = bad
        with pytest.raises(ValueError, match=f"b must be finite, got {bad}"):
            ks_two_sample(x, y)
        with pytest.raises(ValueError, match=f"a must be finite, got {bad}"):
            ks_two_sample(y, x)


def test_ks_two_sample_matches_scipy_asymp():
    rng = np.random.default_rng(23)
    sizes = [20, 25, 30, 141, 1000, 2000]  # 25, 25: n = 12.5 rounds to 12
    big = [1000, 2000]  # the only pairs with n > 140
    pairs = ([(n1, n2) for n1 in sizes for n2 in sizes] * 7
             + [(n1, n2) for n1 in big for n2 in big] * 25)
    exact_region = 0
    for n1, n2 in pairs:
        a = rng.normal(size=n1)
        b = rng.normal(size=n2) + rng.choice([0.0, 0.1, 0.2, 0.4])
        if rng.random() < 0.2:  # ties within and across the samples
            a, b = np.round(a, 1), np.round(b, 1)
        ours, ref = ks_two_sample(a, b), stats.ks_2samp(a, b, method="asymp")
        assert ours.statistic == ref.statistic
        assert (ours.p_value > 0.01) == (ref.pvalue > 0.01)
        assert ours.p_value >= ref.pvalue - 1e-6
        en = round(n1 * n2 / (n1 + n2))
        if en > 140 and en * ours.statistic ** 2 >= 2.2:
            exact_region += 1
            assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9,
                                                 abs=1e-300)
    assert exact_region >= 40, exact_region


def test_smirnov_tail_matches_scipy():
    for n in (10, 12, 141, 1000, 12345, 100_000):
        for d in (1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
            # log n! from one cumsum carries about sqrt(n) roundings of a
            # number near n ln n: 2.4e-9 relative at n = 1e5
            assert _smirnov_sf(n, d) == pytest.approx(
                special.smirnov(n, d), rel=1e-8, abs=1e-300), (n, d)


def test_multi_seed_ks_rule():
    rep = multi_seed_ks(lambda s: KsReport(0.0, 1.0, 100, 100), seeds=10)
    assert rep == {"passes": 10, "seeds": 10, "level": 0.01, "rate": 1.0}
    rep = multi_seed_ks(lambda s: KsReport(1.0, 0.0, 100, 100), seeds=10)
    assert rep["rate"] == 0.0
    for seeds in (0, -3):
        with pytest.raises(TooFewSamples):
            multi_seed_ks(lambda s: KsReport(0.0, 1.0, 100, 100), seeds=seeds)


def test_scaling_test_brownian():
    rep = scaling_test(catalog.brownian(), 1.0, 2.0, 0.5, 2000, CFG)
    assert rep.p_value > 0.001
    bad = scaling_test(catalog.brownian(), 1.0, 2.0, 0.5, 2000, CFG,
                       alpha_override=2.5)
    assert bad.p_value < 0.01
    # each argument is named; at t = 0 any alpha would pass
    for x, c, t, msg in ((-1.0, 2.0, 0.5, "x must be .*, got -1"),
                         (1.0, math.inf, 0.5, "c must be .*, got inf"),
                         (1.0, 2.0, -1.0, "t must be .*, got -1"),
                         (1.0, 2.0, 0.0, "t must be .*, got 0")):
        with pytest.raises(ValueError, match=msg):
            scaling_test(catalog.brownian(), x, c, t, 100, CFG)


def test_renewal_problem_validation():
    for gamma in (0.3, -1.0, math.nan):
        with pytest.raises(ValueError, match=r"gamma must be in \(1/2, 1\]"):
            RenewalProblem(gamma=gamma, dx=0.05, t_max=10.0)
    with pytest.raises(ValueError):
        RenewalProblem(gamma=0.75, dx=0.0, t_max=10.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dx must be finite"):
            RenewalProblem(gamma=0.75, dx=bad, t_max=10.0)
        with pytest.raises(ValueError, match="t_max must be finite"):
            RenewalProblem(gamma=0.75, dx=0.05, t_max=bad)
    # a lattice that cannot end at t_max would read m(t) past it
    for dx in (0.3, 0.07):
        with pytest.raises(ValueError, match=rf"whole number of dx steps, "
                                             rf"got dx={dx}, t_max=50\.0"):
            RenewalProblem(gamma=0.75, dx=dx, t_max=50.0)


def _exact_renewal_mass(f):
    """u[0] = 1, u[j] = sum_{i=1..j} f[i] u[j-i]: the lattice renewal
    equation, term by term (f[0] = 0)."""
    u = np.zeros(f.size)
    u[0] = 1.0
    for j in range(1, f.size):
        u[j] = np.dot(f[1:j + 1], u[j - 1::-1])
    return u


@pytest.mark.parametrize("size", [501, 1025, 4001])
@pytest.mark.parametrize("tail", [
    lambda u: (1.0 + u) ** -0.6, lambda u: (1.0 + u) ** -0.75,
    lambda u: 1.0 / (1.0 + u), lambda u: np.exp(-np.sqrt(u)),
], ids=["pareto-0.6", "pareto-0.75", "pareto-1", "stretched-exp"])
def test_renewal_mass_matches_the_renewal_equation(size, tail):
    grid = np.arange(size) * 0.05
    f = np.concatenate(([0.0], np.diff(1.0 - tail(grid))))
    assert np.abs(_renewal_mass(f) - _exact_renewal_mass(f)).max() <= 1e-15


def test_renewal_limit_target_constant():
    p = RenewalProblem(gamma=0.75, dx=0.1, t_max=50.0)
    res = renewal_limit(p, {"kind": "indicator", "a": 0.0, "b": 2.0})
    expect = 2.0 / (math.gamma(0.75) * math.gamma(1.25))
    assert res["target"] == pytest.approx(expect, rel=1e-12)
    assert res["value"] > 0


def test_renewal_limit_gamma_one_is_classical():
    # gamma = 1: the limit constant is exactly 1 and the convolution value
    # must track the classical renewal theorem
    p = RenewalProblem(gamma=1.0, dx=0.05, t_max=200.0)
    res = renewal_limit(p, {"kind": "indicator", "a": 0.0, "b": 1.0})
    assert res["target"] == pytest.approx(1.0, abs=1e-12)
    assert abs(res["value"] - 1.0) < 0.1


@pytest.mark.parametrize("g, match", [
    ({"kind": "indicator", "a": 1.0, "b": 0.0}, "g: indicator needs finite"),
    ({"kind": "indicator", "a": 0.0, "b": math.inf},
     "g: indicator needs finite"),
    ({"kind": "indicator", "a": 300.0, "b": 400.0},
     "g sums to zero over the lattice"),
    (3, "g: expected an object of kind 'indicator'"),
])
def test_renewal_limit_rejects_g_without_lattice_mass(g, match):
    p = RenewalProblem(gamma=0.75, dx=0.05, t_max=200.0)
    with pytest.raises(ValueError, match=match):
        renewal_limit(p, g)


def test_renewal_limit_g_missing_only_the_coarse_lattice_is_grid_too_coarse():
    # the fine lattice (dx/2 = 0.025) hits [0.02, 0.03), the coarse one
    # does not: a smaller dx is the fix, not a different g
    p = RenewalProblem(gamma=0.75, dx=0.05, t_max=200.0)
    with pytest.raises(GridTooCoarse, match="halving dx"):
        renewal_limit(p, {"kind": "indicator", "a": 0.02, "b": 0.03})


def test_hill_estimate_pareto():
    rng = np.random.default_rng(1)
    x = rng.pareto(2.0, size=50000) + 1.0
    assert hill_estimate(x, k=2000) == pytest.approx(2.0, abs=0.3)


@pytest.mark.parametrize("x", [[2.0], [], [1.0, 2.0, 3.0],
                               [-1.0] * 20 + [2.0] * 10])
def test_hill_estimate_needs_k_plus_one_positive_samples(x):
    with pytest.raises(TooFewSamples, match="needs at least 11 positive"):
        hill_estimate(np.array(x))


def test_hill_estimate_rejects_a_tie_at_the_top_and_k_below_one():
    with pytest.raises(TooFewSamples, match="order statistics are tied at "
                                            "1.0"):
        hill_estimate(np.ones(20))
    with pytest.raises(TooFewSamples, match="tied at 5.0"):
        hill_estimate(np.array([1.0, 2.0, 3.0] + [5.0] * 11), k=10)
    x = np.random.default_rng(1).pareto(2.0, size=100) + 1.0
    for k in (0, -3):
        with pytest.raises(ValueError, match=f"needs k >= 1, got k={k}"):
            hill_estimate(x, k=k)


def test_counterexample_demo():
    rep = counterexample_demo(1.0, 0.75, 0.01, 10000, CFG)
    assert rep["theta_matches_q"]
    assert rep["condition4_finite"] is False
    assert rep["derivative_diverges"]
    assert 0.4 < rep["hill_tail_index"] < 1.2
    vals = [d["value"] for d in rep["tail_display"]]
    assert len(vals) == 8 and all(v > 0 for v in vals)
    with pytest.raises(BetaOutOfRange):
        counterexample_demo(1.0, 0.3, 0.01, 100, CFG)
