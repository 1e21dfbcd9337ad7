"""Recurrent extensions: gates, restart law, gluing, entrance law."""

import json
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy import special, stats

from pssmplab import catalog, cli, extensions, models
from pssmplab.errors import ConfigRejected, NoCramerRoot
from pssmplab.expfun import moment, sample_J_batch
from pssmplab.extensions import (
    ExtensionConfig,
    entrance_law_curve,
    entrance_mass_check,
    extension_gamma,
    make_test_function,
    occupation_histogram,
    resolvent_check,
    sample_jump_in_restart,
    simulate_extension,
)
from pssmplab.lamperti import PssmpPath, levy_to_pssmp
from pssmplab.models import CRITICAL_TOL, LevyModel, cramer_root
from pssmplab.paths import SimConfig, sample_levy_path, stream_rng

CFG = SimConfig(dt=0.01, horizon=400.0, seed=0)


def test_test_function_catalog():
    one = make_test_function({"kind": "one"})
    np.testing.assert_array_equal(one(np.array([0.1, 7.0])), [1.0, 1.0])
    pw = make_test_function({"kind": "power", "p": 2.0})
    assert pw(3.0) == 9.0
    ind = make_test_function({"kind": "indicator", "a": 1.0, "b": 2.0})
    np.testing.assert_array_equal(ind(np.array([0.5, 1.0, 1.5, 2.0, 2.5])),
                                  [0, 1, 1, 0, 0])  # 1 on [a, b)
    bump = make_test_function({"kind": "bump", "a": 0.5, "b": 1.5})
    assert bump(np.array([0.5]))[0] == 0.0
    assert bump(np.array([1.0]))[0] == pytest.approx(1.0)
    assert bump(np.array([2.0]))[0] == 0.0
    with pytest.raises(ValueError):
        make_test_function({"kind": "mystery"})
    for bad in (3, lambda x: x):
        with pytest.raises(ValueError,
                           match="test function f: expected an object"):
            make_test_function(bad)


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
    # psi(beta) = -5e-11 is inside the critical band of classify_beta
    beta = 0.5 - 1e-10
    assert -CRITICAL_TOL <= m.psi(beta) < 0
    with pytest.raises(ConfigRejected):
        extension_gamma(m, ExtensionConfig(mode="jump_in", epsilon=0.01,
                                           horizon=5.0, beta=beta))
    # alpha = 2.5 puts alpha*theta at 1.25: neither the continuous extension
    # nor the entrance law exists
    steep = replace(m, alpha=2.5)
    with pytest.raises(ConfigRejected):
        extension_gamma(steep, cont)
    for model in (catalog.killed_drift(), steep):
        with pytest.raises(NoCramerRoot):
            entrance_mass_check(model, 1.0, 100, CFG)


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


def _edge_paths(extra=()):
    # values on interior edges (counted in the bin to their right), on the
    # last edge (counted in the last bin) and outside the range (dropped);
    # the appended last value of each path carries no duration
    rng = np.random.default_rng(4)
    paths = []
    for k in range(5):
        v = rng.permutation(np.concatenate(
            ([0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 2.0], extra,
             rng.uniform(0.0, 2.0, 20 + k))))
        v = np.append(v, 0.5)
        t = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1.0, v.size - 1))))
        paths.append(PssmpPath(times=t, values=v, t0=None, x0=v[0],
                               alpha=1.0, truncated=True))
    return paths


def test_occupation_histogram_edges_match_np_histogram():
    bins = np.array([0.1, 0.2, 0.4, 0.8, 1.6])
    paths = _edge_paths()
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


def _reference_occupation_histogram(paths, bins):
    # every value of a path binned by searchsorted over all edges, and
    # bincount over the slots below, in and above the range
    nb = bins.size - 1
    counts = np.zeros(nb)
    total = 0.0
    for p in paths:
        w = p.times[1:] - p.times[:-1]
        v = p.values[:-1]
        slot = np.searchsorted(bins, v, side="right")
        slot[v == bins[-1]] = nb
        counts += np.bincount(slot, weights=w, minlength=nb + 2)[1:nb + 1]
        total += w.sum()
    return 0.5 * (bins[:-1] + bins[1:]), counts / (total * np.diff(bins))


def _mapped_brownian_excursions(count):
    # criterion 8's excursions, from epsilon = 0.01
    model = catalog.brownian()
    rng = CFG.rng()
    for _ in range(count):
        path = sample_levy_path(model, CFG, rng=rng)
        yield levy_to_pssmp(path, 0.01, model.alpha, allow_truncated=True)


@pytest.mark.parametrize("case", ["brownian excursions", "edge values",
                                  "extension path"])
def test_occupation_histogram_matches_per_path_binning_bit_for_bit(case):
    if case == "brownian excursions":
        bins = np.geomspace(0.1, 1.0, 13)
        paths = list(_mapped_brownian_excursions(200))
    elif case == "edge values":
        bins = np.array([0.1, 0.2, 0.4, 0.8, 1.6])
        paths = _edge_paths([math.nan, math.inf, -math.inf, 0.1, 0.1, 1.6,
                             1.6])
    else:
        bins = np.geomspace(0.01, 1.0, 9)
        cfg = ExtensionConfig(mode="continuous", epsilon=0.01, horizon=10.0)
        paths = [simulate_extension(catalog.brownian(), cfg, CFG)]
    centers, density = occupation_histogram(paths, bins)
    ref_centers, ref_density = _reference_occupation_histogram(paths, bins)
    assert np.array_equal(centers, ref_centers)
    assert np.array_equal(density, ref_density)
    assert (density > 0).all()


def test_occupation_histogram_rejects_zero_duration():
    p = PssmpPath(times=np.array([0.0]), values=np.array([0.5]),
                  t0=None, x0=0.5, alpha=1.0, truncated=True)
    with pytest.raises(ValueError, match="duration"):
        occupation_histogram([p], np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="duration"):
        occupation_histogram([], np.array([0.0, 1.0]))


@pytest.mark.parametrize("bins", [[1.0, 0.5, 0.0], [0.0, 1.0, 1.0, 2.0],
                                  [0.0, math.nan, 2.0], [1.0], [[0.0, 1.0]]])
def test_occupation_histogram_rejects_bad_bins(bins):
    # as np.histogram does; unchecked, decreasing edges would give
    # densities of -0.0 and a repeated or NaN edge NaN
    p = PssmpPath(times=np.array([0.0, 3.0, 4.0]),
                  values=np.array([0.5, 1.5, 1.5]),
                  t0=None, x0=0.5, alpha=1.0, truncated=True)
    with pytest.raises(ValueError, match="bins must be at least two finite, "
                                         "strictly increasing edges"):
        occupation_histogram([p], np.array(bins))


def test_entrance_law_mass_brownian():
    # f = 1 at t = 1: mass is 1/Gamma(1 - alpha*theta) = 1/Gamma(1/2)
    rep = entrance_mass_check(catalog.brownian(), 1.0, 20000, CFG)
    assert rep.rhs == pytest.approx(0.5641895835, abs=1e-9)
    assert abs(rep.lhs - 0.5641895835) < 5.0 * rep.std_err
    assert rep.n == 20000 and rep.censored == 0


def test_entrance_law_checks_solve_the_cramer_root_once(monkeypatch):
    # each check reads alpha*theta, theta and the tilt from one root solve
    real = models.cramer_root
    calls = []

    def counted(model):
        calls.append(model)
        return real(model)

    for name, mod in list(sys.modules.items()):
        if name.startswith("pssmplab") and \
                getattr(mod, "cramer_root", None) is real:
            monkeypatch.setattr(mod, "cramer_root", counted)
    m = catalog.brownian()
    bump = {"kind": "bump", "a": 0.5, "b": 1.5}
    for run in (lambda: resolvent_check(catalog.bessel(), 1.0, bump, 200,
                                        CFG),
                lambda: entrance_mass_check(m, 1.0, 200, CFG),
                lambda: cli.run_suite({"checks": [
                    {"op": "entrance_law", "model": "brownian", "n": 200}]},
                    seed=0)):
        calls.clear()
        out = run()
        assert len(calls) == 1
    assert "error" not in out["checks"][0]


def test_entrance_law_power_theta_is_t_constant():
    # with f = x^theta every draw's term is t^{alpha theta}/J over the
    # normalizer's t^{alpha theta}, so the curve is constant in t draw by
    # draw, up to rounding; at alpha = 0.5 a t^theta in place of
    # t^{alpha theta} would spread it by a factor 4^{1/4}
    for model in (catalog.brownian(),
                  LevyModel(drift=0.0, gaussian=1.0, killing=0.125,
                            alpha=0.5)):
        theta = cramer_root(model).theta
        v = entrance_law_curve(model, np.array([0.5, 1.0, 2.0]),
                               {"kind": "power", "p": theta}, 64, CFG).values
        assert (v.max() - v.min()) / abs(v.mean()) < 1e-9


@pytest.mark.parametrize("delta", [0.5, 1.5])
def test_resolvent_check_against_the_bessel_value(delta):
    # criterion 11 runs delta = 1 with a bump; here the indicator of
    # [0.5, 1.5) at the other two dimensions
    rep = resolvent_check(catalog.bessel(delta), 1.0,
                          {"kind": "indicator", "a": 0.5, "b": 1.5}, 20000,
                          CFG)
    assert rep.n == 20000 and rep.censored == 0
    assert rep.z_score < 4.0


def test_a_root_at_the_extension_boundary_is_refused_before_sampling(
        monkeypatch):
    # theta = 1 exactly on the first model and theta = 2 - 2e-14 on the
    # Bessel exponent, so alpha*theta is 1 or within ROOT_TOL of it and
    # there is no continuous extension; both checks refuse the bisected
    # root before anything is sampled
    model = LevyModel(drift=-0.5, gaussian=1.0, killing=0.0, alpha=1.0)
    near_bessel = LevyModel(drift=-1.0 + 1e-14, gaussian=1.0, killing=0.0,
                            alpha=0.5)
    for m in (model, near_bessel):
        assert not cramer_root(m).continuous_extension_exists

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the existence check")

    monkeypatch.setattr(extensions, "sample_J_batch", no_sampling)
    bump = {"kind": "bump", "a": 0.5, "b": 1.5}
    with pytest.raises(NoCramerRoot):
        resolvent_check(near_bessel, 1.0, bump, 200, CFG)
    with pytest.raises(NoCramerRoot):
        entrance_mass_check(model, 1.0, 200, CFG)


@pytest.mark.parametrize("lam, a, b", [(1.0, 0.5, 1.5), (2.0, 0.5, 1.5),
                                       (1.0, 0.5, 9000.0)])
def test_resolvent_lhs_is_the_exact_x_integral(lam, a, b):
    # bessel has alpha = 1/2 and theta = 2 at, so per tilted J draw with
    # c = lam J, the lhs's x-integral of the indicator of [a, b) is
    # int_a^b x^{1-theta} e^{-c x^2} dx / (Gamma(1 - at) / 2)
    #     = c^{at-1} [P(1-at, c b^2) - P(1-at, c a^2)]
    # over the normalizer E(J^{at-1}), on the check's own streams (a
    # multilevel moment: J^{at-1} has a finite variance)
    model = catalog.bessel(1.0)
    assert model.alpha == 0.5
    root = cramer_root(model)
    at, tilted = root.alpha_theta, models.esscher(model, root.theta)
    jv, jc = sample_J_batch(tilted, 2000, CFG)
    den = moment(tilted, at - 1.0, 2000, CFG.substream(1), functional="J")
    assert den.levels is not None
    c, s = lam * jv[~jc], 1.0 - at
    r = c ** -s * (special.gammainc(s, c * b * b)
                   - special.gammainc(s, c * a * a))
    expected = r.mean() / den.value
    rep = resolvent_check(model, lam, {"kind": "indicator", "a": a, "b": b},
                          2000, CFG)
    assert rep.lhs == pytest.approx(expected, rel=1e-12)
    # at delta = 1, K_{1/2} is elementary and the exact value is
    # sqrt(2) int_a^b e^{-y sqrt(2 lam)} dy
    k = math.sqrt(2.0 * lam)
    assert rep.rhs == pytest.approx(
        (math.exp(-k * a) - math.exp(-k * b)) / math.sqrt(lam), rel=1e-12)


@pytest.mark.parametrize("mu", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_bessel_k_matches_scipy(mu):
    # scipy's kv underflows to 0 near z = 700, so the grid stops at 600
    z = np.logspace(-300, math.log10(600.0), 400)
    np.testing.assert_allclose(extensions._bessel_k(mu, z),
                               special.kv(mu, z), rtol=1e-12, atol=0)
    # one z per call sets its own node count
    np.testing.assert_allclose([extensions._bessel_k(mu, v) for v in z[::20]],
                               special.kv(mu, z[::20]), rtol=1e-12, atol=0)


def test_bessel_k_half_is_elementary():
    # K_{1/2}(z) = sqrt(pi / 2z) e^{-z}, down to 4.7e-306 at z = 700
    z = np.logspace(-300, math.log10(700.0), 400)
    np.testing.assert_allclose(extensions._bessel_k(0.5, z),
                               np.sqrt(np.pi / (2.0 * z)) * np.exp(-z),
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("spec", [
    {"kind": "one"}, {"kind": "power", "p": 1},
    {"kind": "indicator", "a": 0.0, "b": 1.0},
    {"kind": "bump", "a": -1.0, "b": 1.0}])
def test_resolvent_crosscheck_refuses_f_without_support_in_0_inf(
        spec, monkeypatch):
    # the x-quadrature runs in ln x over the support f states, so f must
    # be an indicator or bump with 0 < a; anything else is refused before
    # anything is sampled
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the support check")

    monkeypatch.setattr(extensions, "sample_J_batch", no_sampling)
    with pytest.raises(ValueError, match=r"the resolvent needs an indicator "
                                         r"or bump f on \[a, b\] with 0 < a"):
        resolvent_check(catalog.bessel(), 1.0, spec, 5000, CFG)


@pytest.mark.parametrize("model", [
    catalog.brownian(), catalog.two_sided(), catalog.pure_drift(0.5),
    LevyModel(drift=-0.5, gaussian=2.0, alpha=0.5),
    LevyModel(drift=-0.5, gaussian=1.0, killing=0.125, alpha=0.5),
    LevyModel(drift=-1.0, gaussian=1.0, alpha=0.5),
    LevyModel(drift=0.0, gaussian=1.0, alpha=0.5)],
    ids=["brownian", "two_sided", "pure_drift", "gaussian_2", "killed",
         "drift_-1", "drift_0"])
def test_resolvent_check_refuses_a_non_bessel_exponent(model, monkeypatch):
    # the exact value is that of a Bessel process, so any other exponent
    # is refused before its Cramer root is solved or anything is sampled
    def not_reached(*args, **kwargs):
        raise AssertionError("solved or sampled before the model check")

    monkeypatch.setattr(extensions, "sample_J_batch", not_reached)
    monkeypatch.setattr(extensions, "cramer_root", not_reached)
    with pytest.raises(ValueError, match="the resolvent check needs a "
                                         "Bessel exponent"):
        resolvent_check(model, 1.0, {"kind": "bump", "a": 0.5, "b": 1.5},
                        100, CFG)


def test_catalog_bessel():
    # mu = 1 - delta/2, theta = 2 mu and alpha*theta = mu
    for delta in (0.5, 1.0, 1.5):
        m = catalog.bessel(delta)
        assert m.drift == delta / 2.0 - 1.0 and m.alpha == 0.5
        assert cramer_root(m).alpha_theta == pytest.approx(1.0 - delta / 2,
                                                           abs=1e-12)
    for bad in (0.0, 2.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=r"delta must be in \(0, 2\)"):
            catalog.bessel(bad)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_out_of_domain_lambda_and_t_are_rejected_before_sampling(
        bad, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the domain check")

    monkeypatch.setattr(extensions, "sample_J_batch", no_sampling)
    bump = {"kind": "bump", "a": 0.5, "b": 1.5}
    with pytest.raises(ValueError, match="lambda must be finite and > 0"):
        resolvent_check(catalog.bessel(), bad, bump, 100, CFG)
    with pytest.raises(ValueError, match="t must be finite and > 0"):
        entrance_law_curve(catalog.brownian(), np.array([1.0, bad]),
                           {"kind": "one"}, 100, CFG)
    with pytest.raises(ValueError, match="t must be finite and > 0"):
        entrance_mass_check(catalog.brownian(), bad, 100, CFG)
