"""Recurrent extensions: gates, restart law, gluing, entrance law."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from pssmplab import catalog, extensions
from pssmplab.errors import ConfigRejected
from pssmplab.extensions import (
    ExtensionConfig,
    entrance_law,
    entrance_law_curve,
    excursion_normalization_check,
    extension_gamma,
    make_test_function,
    occupation_histogram,
    resolvent_crosscheck,
    sample_jump_in_restart,
    simulate_extension,
)
from pssmplab.lamperti import PssmpPath
from pssmplab.paths import SimConfig, stream_rng

CFG = SimConfig(dt=0.01, horizon=400.0, seed=0)


def test_test_function_catalog():
    one = make_test_function({"kind": "one"})
    np.testing.assert_array_equal(one(np.array([0.1, 7.0])), [1.0, 1.0])
    pw = make_test_function({"kind": "power", "p": 2.0})
    assert pw(3.0) == 9.0
    ind = make_test_function({"kind": "indicator", "a": 1.0, "b": 2.0})
    np.testing.assert_array_equal(ind(np.array([0.5, 1.5, 2.5])), [0, 1, 0])
    bump = make_test_function({"kind": "bump", "a": 0.5, "b": 1.5})
    assert bump(np.array([0.5]))[0] == 0.0
    assert bump(np.array([1.0]))[0] == pytest.approx(1.0)
    assert bump(np.array([2.0]))[0] == 0.0
    f = lambda x: x
    assert make_test_function(f) is f
    with pytest.raises(ValueError):
        make_test_function({"kind": "mystery"})


def test_extension_config_validation():
    with pytest.raises(ValueError):
        ExtensionConfig(mode="sideways", epsilon=0.1, horizon=1.0)
    with pytest.raises(ValueError):
        ExtensionConfig(mode="continuous", epsilon=0.0, horizon=1.0)
    with pytest.raises(ValueError):
        ExtensionConfig(mode="jump_in", epsilon=0.1, horizon=1.0)  # no beta
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon"):
            ExtensionConfig(mode="continuous", epsilon=bad, horizon=1.0)
        with pytest.raises(ValueError, match="horizon"):
            ExtensionConfig(mode="continuous", epsilon=0.1, horizon=bad)
        with pytest.raises(ValueError, match="beta"):
            ExtensionConfig(mode="jump_in", epsilon=0.1, horizon=1.0,
                            beta=bad)
        with pytest.raises(ValueError, match="beta"):
            sample_jump_in_restart(bad, 0.01, stream_rng(0, 0))
        with pytest.raises(ValueError, match="epsilon"):
            sample_jump_in_restart(0.25, bad, stream_rng(0, 0))


def test_extension_gates():
    m = catalog.brownian()
    ok = ExtensionConfig(mode="jump_in", epsilon=0.01, horizon=5.0, beta=0.25)
    assert extension_gamma(m, ok) == pytest.approx(0.25)
    cont = ExtensionConfig(mode="continuous", epsilon=0.01, horizon=5.0)
    assert extension_gamma(m, cont) == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(ConfigRejected):  # psi(0.8) > 0
        extension_gamma(m, ExtensionConfig(mode="jump_in", epsilon=0.01,
                                           horizon=5.0, beta=0.8))
    with pytest.raises(ConfigRejected):  # beta outside (0, 1/alpha)
        extension_gamma(m, ExtensionConfig(mode="jump_in", epsilon=0.01,
                                           horizon=5.0, beta=1.5))
    with pytest.raises(ConfigRejected):  # no Cramer root
        extension_gamma(catalog.killed_drift(), cont)


def test_jump_in_restart_law():
    rng = stream_rng(0, 0)
    draws = np.array([sample_jump_in_restart(0.25, 0.01, rng)
                      for _ in range(2000)])
    assert (draws >= 0.01).all()
    # reference law: Pareto with shape beta and scale epsilon
    res = stats.kstest(draws, stats.pareto(b=0.25, scale=0.01).cdf)
    assert res.pvalue > 0.001


def test_simulate_extension_glues_excursions():
    cfg = ExtensionConfig(mode="jump_in", epsilon=0.05, horizon=30.0,
                          beta=0.25)
    ep = simulate_extension(catalog.brownian(), cfg, CFG)
    assert ep.gamma == pytest.approx(0.25)
    assert ep.epsilon_used == 0.05
    assert (np.diff(ep.times) >= 0).all()
    assert (ep.values > 0).all()
    assert ep.restarts[0][0] == 0.0
    assert all(x >= 0.05 for _, x in ep.restarts)
    assert list(ep.zero_hits) == sorted(ep.zero_hits)
    assert len(ep.restarts) - len(ep.zero_hits) in (0, 1)
    rec = json.loads(ep.to_json_record())
    assert rec["restarts"] == [[t, x] for t, x in ep.restarts]
    assert rec["zero_hits"] == ep.zero_hits and rec["epsilon"] == 0.05


def test_simulate_extension_continuous_mode():
    cfg = ExtensionConfig(mode="continuous", epsilon=0.01, horizon=10.0)
    ep = simulate_extension(catalog.brownian(), cfg, CFG)
    assert ep.gamma == pytest.approx(0.5, abs=1e-9)
    assert all(x == 0.01 for _, x in ep.restarts)


def test_occupation_histogram_synthetic():
    # one path sitting at 0.5 for time 3 and at 1.5 for time 1
    p = PssmpPath(times=np.array([0.0, 3.0, 4.0]),
                  values=np.array([0.5, 1.5, 1.5]),
                  t0=None, x0=0.5, alpha=1.0, truncated=True)
    bins = np.array([0.0, 1.0, 2.0])
    centers, density = occupation_histogram([p], bins)
    np.testing.assert_allclose(centers, [0.5, 1.5])
    np.testing.assert_allclose(density, [0.75, 0.25])
    assert np.sum(density * np.diff(bins)) == pytest.approx(1.0)


def test_occupation_histogram_edges_match_np_histogram():
    # values on interior edges (counted in the bin to their right), on the
    # last edge (counted in the last bin) and outside the range (dropped);
    # the appended last value of each path carries no duration
    bins = np.array([0.1, 0.2, 0.4, 0.8, 1.6])
    rng = np.random.default_rng(4)
    paths = []
    for k in range(5):
        v = rng.permutation(np.concatenate(
            ([0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0],
             rng.uniform(0.0, 2.0, 20 + k))))
        v = np.append(v, 0.5)
        t = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, v.size - 1))))
        paths.append(PssmpPath(times=t, values=v, t0=None, x0=v[0],
                               alpha=1.0, truncated=True))
    counts = np.zeros(bins.size - 1)
    total = 0.0
    for p in paths:
        counts += np.histogram(p.values[:-1], bins=bins,
                               weights=np.diff(p.times))[0]
        total += p.times[-1]
    centers, density = occupation_histogram(paths, bins)
    np.testing.assert_allclose(density, counts / (total * np.diff(bins)),
                               rtol=1e-12)
    np.testing.assert_allclose(centers, 0.5 * (bins[:-1] + bins[1:]))


def test_occupation_histogram_rejects_zero_duration():
    p = PssmpPath(times=np.array([0.0]), values=np.array([0.5]),
                  t0=None, x0=0.5, alpha=1.0, truncated=True)
    with pytest.raises(ValueError, match="duration"):
        occupation_histogram([p], np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="duration"):
        occupation_histogram([], np.array([0.0, 1.0]))


def test_entrance_law_mass_brownian():
    # f = 1 at t = 1: mass is 1/Gamma(1 - alpha*theta) = 1/Gamma(1/2)
    est = entrance_law(catalog.brownian(), 1.0, {"kind": "one"}, 20000, CFG)
    assert abs(est.value - 0.5641895835) < 5.0 * est.std_err


def test_entrance_law_power_theta_is_t_constant():
    curve = entrance_law_curve(catalog.brownian(), np.array([0.5, 1.0, 2.0]),
                               {"kind": "power", "p": 0.5}, 20000, CFG)
    v, s = curve.values, curve.std_errs
    for i in range(1, 3):
        assert abs(v[i] - v[0]) < 5.0 * float(np.hypot(s[i], s[0]))


def test_excursion_normalization():
    rep = excursion_normalization_check(catalog.brownian(), 20000, CFG)
    assert abs(rep["value"] - 1.0) < 0.1
    assert rep["grid_change"] < 0.02


def test_resolvent_crosscheck_small():
    rep = resolvent_crosscheck(catalog.brownian(), 1.0,
                               {"kind": "bump", "a": 0.5, "b": 1.5},
                               20000, CFG)
    assert rep.z_score < 5.0
    assert rep.lhs > 0 and rep.rhs > 0


@pytest.mark.parametrize("spec", [{"kind": "one"}, {"kind": "power", "p": 1}])
def test_resolvent_crosscheck_rejects_f_nonzero_at_probe_ends(spec,
                                                              monkeypatch):
    # the x-quadrature would cover only the probe grid and cut f off at its
    # ends; the check is refused before anything is sampled
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the support probe")

    monkeypatch.setattr(extensions, "entrance_law_curve", no_sampling)
    monkeypatch.setattr(extensions, "sample_I_batch", no_sampling)
    with pytest.raises(ValueError, match="function f is nonzero"):
        resolvent_crosscheck(catalog.brownian(), 1.0, spec, 5000, CFG)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_out_of_domain_lambda_and_t_are_rejected_before_sampling(
        bad, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the domain check")

    monkeypatch.setattr(extensions, "sample_J_batch", no_sampling)
    monkeypatch.setattr(extensions, "sample_I_batch", no_sampling)
    bump = {"kind": "bump", "a": 0.5, "b": 1.5}
    with pytest.raises(ValueError, match="lambda must be finite and > 0"):
        resolvent_crosscheck(catalog.brownian(), bad, bump, 100, CFG)
    with pytest.raises(ValueError, match="t must be finite and > 0"):
        entrance_law_curve(catalog.brownian(), np.array([1.0, bad]),
                           {"kind": "one"}, 100, CFG)
    with pytest.raises(ValueError, match="t must be finite and > 0"):
        entrance_law(catalog.brownian(), bad, {"kind": "one"}, 100, CFG)
