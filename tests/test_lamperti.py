"""Lamperti time change: forward map, inverse map, hitting times, marginals."""

import math
import re

import numpy as np
import pytest

from pssmplab import catalog
from pssmplab.expfun import moment, sample_I_batch
from pssmplab.engine import REL_TOL
from pssmplab.errors import HorizonTooShort, ModelDoesNotHitZero, StartsAtZero
from pssmplab.lamperti import (
    PssmpPath,
    hitting_time_samples,
    levy_to_pssmp,
    pssmp_marginal,
    pssmp_to_levy,
)
from pssmplab.models import CompoundPoisson, Exponential, LevyModel
from pssmplab.paths import LevyPath, SimConfig, _merge_jumps, sample_levy_path


def test_pure_drift_forward_map_is_linear_decay():
    # xi_s = -s, alpha = 1, x0 = 1: clock A(s) = 1 - e^{-s} and X_u = 1 - u
    cfg = SimConfig(dt=0.01, horizon=40.0, seed=0)
    path = sample_levy_path(catalog.pure_drift(), cfg)
    ps = levy_to_pssmp(path, 1.0, 1.0)
    assert ps.t0 == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(ps.values, 1.0 - ps.times, atol=1e-12)


def test_forward_map_scaling_in_x0():
    # image times scale by x0^{1/alpha}, values by x0
    cfg = SimConfig(dt=0.01, horizon=400.0, seed=5)
    m = catalog.two_sided()
    path = sample_levy_path(m, cfg)
    p1 = levy_to_pssmp(path, 1.0, m.alpha)
    p4 = levy_to_pssmp(path, 4.0, m.alpha)
    np.testing.assert_allclose(p4.times, 16.0 * p1.times, rtol=1e-12)
    np.testing.assert_allclose(p4.values, 4.0 * p1.values, rtol=1e-12)
    assert p4.t0 == pytest.approx(16.0 * p1.t0, rel=1e-12)


def test_round_trip_killed_path():
    # the inverse reads the path as piecewise linear between recorded
    # points, which is exact for the Gaussian model
    cfg = SimConfig(dt=0.01, horizon=400.0, seed=7)
    m = catalog.brownian()
    path = sample_levy_path(m, cfg)
    assert path.zeta is not None
    ps = levy_to_pssmp(path, 2.0, m.alpha)
    back = pssmp_to_levy(ps)
    np.testing.assert_allclose(back.times, path.times, atol=1e-10)
    np.testing.assert_allclose(back.values, path.values, atol=1e-12)
    assert back.zeta == pytest.approx(path.zeta, abs=1e-10)


def test_round_trip_recovers_xi_values_with_jumps():
    # with jumps the reconstructed time scale is only approximate (left
    # limits at jump times are not stored), but xi itself is exact
    cfg = SimConfig(dt=0.01, horizon=400.0, seed=7)
    m = catalog.two_sided()
    path = sample_levy_path(m, cfg)
    ps = levy_to_pssmp(path, 2.0, m.alpha)
    back = pssmp_to_levy(ps)
    np.testing.assert_allclose(back.values, path.values, atol=1e-12)


def test_round_trip_conservative_path_where_positive():
    # time reconstruction is only meaningful where the clock has not
    # saturated; compare on the region X >= 1e-4
    cfg = SimConfig(dt=0.01, horizon=40.0, seed=0)
    path = sample_levy_path(catalog.pure_drift(), cfg)
    ps = levy_to_pssmp(path, 1.0, 1.0)
    back = pssmp_to_levy(ps)
    keep = ps.values >= 1e-4
    k = int(keep.sum())
    np.testing.assert_allclose(back.times[:k], path.times[:k], atol=1e-9)
    np.testing.assert_allclose(back.values[:k], path.values[:k], atol=1e-12)


def test_horizon_too_short_for_upward_drift():
    up = LevyModel(drift=1.0, gaussian=0.0, killing=0.0, alpha=1.0)
    cfg = SimConfig(dt=0.01, horizon=5.0, seed=0)
    path = sample_levy_path(up, cfg)
    with pytest.raises(HorizonTooShort):
        levy_to_pssmp(path, 1.0, 1.0)
    ps = levy_to_pssmp(path, 1.0, 1.0, allow_truncated=True)
    assert ps.truncated and ps.t0 is None


def test_forward_map_rejects_nonpositive_x0():
    cfg = SimConfig(dt=0.01, horizon=5.0, seed=0)
    path = sample_levy_path(catalog.pure_drift(), cfg)
    for x0 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="x0"):
            levy_to_pssmp(path, x0, 1.0)
        with pytest.raises(ValueError, match="x0"):
            hitting_time_samples(catalog.two_sided(), x0, 5, cfg)
    for alpha in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="alpha"):
            levy_to_pssmp(path, 1.0, alpha)
    # a conservative model drifting up never hits 0: no censored draws
    with pytest.raises(ModelDoesNotHitZero):
        hitting_time_samples(LevyModel(drift=1.0), 1.0, 5,
                             SimConfig(horizon=50.0))


def test_inverse_map_rejects_start_at_zero():
    ps = PssmpPath(times=np.array([0.0, 1.0]), values=np.array([0.0, 1.0]),
                   t0=None, x0=0.0, alpha=1.0, truncated=True)
    with pytest.raises(StartsAtZero):
        pssmp_to_levy(ps)


def test_hitting_time_identity_on_shared_streams():
    # T_0 under P_{x0} equals x0^{1/alpha} * T_0 under P_1 pathwise when the
    # same Levy path is used, since T_0 = x0^{1/alpha} * I
    m = catalog.two_sided()
    cfg = SimConfig(dt=0.01, horizon=400.0, seed=3)
    t1, c1 = hitting_time_samples(m, 1.0, 50, cfg)
    t4, c4 = hitting_time_samples(m, 4.0, 50, cfg)
    np.testing.assert_array_equal(c1, c4)
    ok = ~c1
    assert ok.sum() > 40
    np.testing.assert_allclose(t4[ok], 16.0 * t1[ok], rtol=1e-12)


def test_pssmp_marginal_brownian():
    cfg = SimConfig(dt=0.01, horizon=400.0, seed=0)
    x = pssmp_marginal(catalog.brownian(), 1.0, 0.5, 5000, cfg)
    assert (x >= 0).all()
    absorbed = (x == 0).mean()
    assert 0.0 < absorbed < 0.5
    assert x[x > 0].mean() > 0.5  # survivors stay of order the start point
    for x0 in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="x0"):
            pssmp_marginal(catalog.brownian(), x0, 0.5, 10, cfg)
    for t in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="t must"):
            pssmp_marginal(catalog.brownian(), 1.0, t, 10, cfg)


@pytest.mark.parametrize("n", [-3, 0, 2.5, True])
@pytest.mark.parametrize("call", [
    lambda n, cfg: moment(catalog.brownian(), 0.25, n, cfg),
    lambda n, cfg: sample_I_batch(catalog.brownian(), n, cfg),
    lambda n, cfg: hitting_time_samples(catalog.two_sided(), 1.0, n, cfg),
    lambda n, cfg: pssmp_marginal(catalog.brownian(), 1.0, 0.5, n, cfg),
], ids=["moment", "sample_I_batch", "hitting_time_samples",
        "pssmp_marginal"])
def test_draw_count_must_be_a_positive_int(call, n):
    with pytest.raises(ValueError,
                       match=rf"^n must be an integer >= 1, got {n!r}$"):
        call(n, SimConfig(seed=0))


def test_pssmp_marginal_rejects_an_overflowing_target():
    # x0^(-1/alpha) = 1e400 overflows; t * x0^(-1/alpha) = 1e400 gives inf
    for model, x0, t in ((catalog.bessel(1.0), 1e-200, 1.0),
                         (catalog.brownian(), 1e-200, 1e200)):
        with pytest.raises(ValueError, match=re.escape(
                f"the Lamperti target t * x0^(-1/alpha) overflows at "
                f"x0={x0!r}, t={t!r}")):
            pssmp_marginal(model, x0, t, 4, SimConfig(seed=0))


def test_pssmp_path_json_record():
    cfg = SimConfig(dt=0.01, horizon=40.0, seed=0)
    path = sample_levy_path(catalog.pure_drift(), cfg)
    ps = levy_to_pssmp(path, 1.0, 1.0)
    rec = ps.to_json_record()
    assert '"t0"' in rec and '"x0"' in rec


# ---------------------------------------------------------------------------
# bit-identity of the sampler and the map with a straightforward reference:
# a sorted unique grid, a stable full sort of grid and jump epochs, left
# limits by a masked copy, a masked (e^d - 1)/d and the tail-window rule


def _reference_sample_levy_path(model, config, rng):
    zeta = rng.exponential(1.0 / model.killing) if model.killing > 0 \
        else math.inf
    t_end = min(config.horizon, zeta)
    killed = zeta <= config.horizon
    jump_times, jump_sizes = [], []
    for spec in model.jumps:
        count = rng.poisson(spec.intensity * t_end)
        jump_times.append(np.sort(rng.random(count) * t_end))
        jump_sizes.append(spec.sample_sizes(rng, count))
    n_grid = int(math.ceil(t_end / config.dt))
    grid = np.unique(np.minimum(np.arange(n_grid + 1) * config.dt, t_end))
    if grid[-1] < t_end:
        grid = np.append(grid, t_end)
    if jump_times:
        jt = np.concatenate(jump_times)
        js = np.concatenate(jump_sizes)
        order = np.argsort(jt, kind="stable")
        jt, js = jt[order], js[order]
        keep = ~np.isin(jt, grid)
        if jt.size > 1:
            keep &= np.concatenate(([True], np.diff(jt) > 0))
        jt, js = jt[keep], js[keep]
    else:
        jt, js = np.empty(0), np.empty(0)
    times = np.concatenate((grid, jt))
    order = np.argsort(times, kind="stable")
    times = times[order]
    is_jump = np.concatenate((np.zeros(grid.size, bool),
                              np.ones(jt.size, bool)))[order]
    sizes = np.zeros(times.size)
    sizes[is_jump] = js
    gaps = np.diff(times)
    incs = model.drift * gaps
    if model.gaussian > 0:
        incs = incs + math.sqrt(model.gaussian) * np.sqrt(gaps) * \
            rng.standard_normal(gaps.size)
    pre = np.concatenate(([0.0], np.cumsum(incs + sizes[1:]) - sizes[1:]))
    values = pre + sizes
    left = values.copy()
    left[is_jump] = pre[is_jump]
    return LevyPath(times=times, values=values, left=left,
                    zeta=zeta if killed else None, truncated=not killed)


def _reference_clock_increments(path, alpha):
    left = path.left
    x0 = path.values[:-1]
    u = (1.0 / alpha) * x0
    d = (1.0 / alpha) * (left[1:] - x0)
    phi = np.ones_like(d)
    nz = d != 0.0
    phi[nz] = np.expm1(d[nz]) / d[nz]
    return np.diff(path.times) * np.exp(u) * phi


def _mixed_model():
    return LevyModel(drift=0.0, gaussian=1.0,
                     jumps=(CompoundPoisson(rate=0.5,
                                            law=Exponential(rate=2.0,
                                                            sign=-1)),),
                     killing=0.125, alpha=1.0)


@pytest.mark.parametrize("name, model, horizon", [
    ("brownian", catalog.brownian(), 400.0),
    ("two_sided", catalog.two_sided(), 400.0),
    ("pure_drift truncated", catalog.pure_drift(), 5.0),
    ("pure_drift convergent", catalog.pure_drift(), 40.0),
    ("brownian + Exp(2) jumps", _mixed_model(), 400.0),
    ("boundary_root", catalog.boundary_root(1.0, 0.75, 0.01), 400.0),
    ("bessel", catalog.bessel(1.0), 400.0),
    # the tail window's share of the clock is 1.1e-7: below REL_TOL, but
    # not below REL_TOL * 0.01, so the cut must read the unscaled clock
    ("pure_drift at the tail cut", catalog.pure_drift(), 20.0),
])
def test_sampler_and_map_match_reference_bit_for_bit(name, model, horizon):
    cfg = SimConfig(dt=0.01, horizon=horizon, seed=11)
    rng, ref_rng = cfg.rng(), cfg.rng()
    for _ in range(8):
        p = sample_levy_path(model, cfg, rng=rng)
        r = _reference_sample_levy_path(model, cfg, ref_rng)
        assert np.array_equal(p.times, r.times)
        assert np.array_equal(p.values, r.values)
        assert np.array_equal(p.left, r.left)
        if not model.jumps:
            assert p.left is p.values
        assert p.zeta == r.zeta and p.truncated == r.truncated
        segs = _reference_clock_increments(r, model.alpha)
        clock = np.concatenate(([0.0], np.cumsum(segs)))
        tail = segs[r.times[1:] > r.times[-1] - 4.0].sum()
        ends = r.zeta is not None or tail < REL_TOL * clock[-1]
        # 0.01 is criterion 8's epsilon
        for x0 in (2.0, 0.01):
            ps = levy_to_pssmp(p, x0, model.alpha, allow_truncated=True)
            scale = x0 ** (1.0 / model.alpha)
            assert np.array_equal(ps.times, scale * clock)
            assert np.array_equal(ps.values, x0 * np.exp(r.values))
            assert ps.t0 == (scale * clock[-1] if ends else None)
            assert ps.truncated == (not ends)
    # both streams are at the same place
    assert rng.random() == ref_rng.random()


def test_merge_jumps_drops_collisions():
    grid = np.array([0.0, 0.5, 1.0, 1.5, 1.75])
    jt = np.array([0.0, 0.25, 0.25, 0.5, 0.75, 1.6, 1.75])
    js = np.arange(1.0, 8.0)
    times, is_jump, sizes = _merge_jumps(grid, jt, js)
    # epochs on a grid point, and a repeated epoch after its first, are gone
    np.testing.assert_array_equal(
        times, [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 1.6, 1.75])
    np.testing.assert_array_equal(
        is_jump, [False, True, False, True, False, False, True, False])
    np.testing.assert_array_equal(sizes, [0, 2.0, 0, 5.0, 0, 0, 6.0, 0])
