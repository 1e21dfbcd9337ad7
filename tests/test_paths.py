"""Seeded path sampling: reproducibility, structure, law-level checks."""

import math

import numpy as np
import pytest

from pssmplab import catalog
from pssmplab.paths import (
    SimConfig,
    sample_increment_batch,
    sample_levy_path,
    stream_rng,
)


def test_same_stream_is_reproducible():
    cfg = SimConfig(dt=0.01, horizon=50.0, seed=3, stream_id=7)
    p1 = sample_levy_path(catalog.brownian(), cfg)
    p2 = sample_levy_path(catalog.brownian(), cfg)
    np.testing.assert_array_equal(p1.times, p2.times)
    np.testing.assert_array_equal(p1.values, p2.values)
    assert p1.zeta == p2.zeta


def test_distinct_streams_differ():
    cfg = SimConfig(dt=0.01, horizon=50.0, seed=3, stream_id=7)
    p1 = sample_levy_path(catalog.brownian(), cfg)
    p2 = sample_levy_path(catalog.brownian(), cfg.substream(1))
    assert p1.values.size != p2.values.size or \
        not np.array_equal(p1.values, p2.values)


def test_path_structure_killed():
    cfg = SimConfig(dt=0.01, horizon=400.0, seed=1)
    p = sample_levy_path(catalog.brownian(), cfg)
    assert p.zeta is not None and not p.truncated
    assert p.times[0] == 0.0 and p.values[0] == 0.0
    assert p.times[-1] == pytest.approx(p.zeta)
    assert (np.diff(p.times) > 0).all()
    assert (np.diff(p.times) <= cfg.dt + 1e-12).all()


def test_path_structure_conservative():
    cfg = SimConfig(dt=0.01, horizon=5.0, seed=1)
    p = sample_levy_path(catalog.pure_drift(), cfg)
    assert p.zeta is None and p.truncated
    np.testing.assert_allclose(p.values, -p.times, atol=1e-12)


def test_jump_times_carry_left_limits():
    cfg = SimConfig(dt=0.01, horizon=400.0, seed=2)
    p = sample_levy_path(catalog.two_sided(), cfg)
    at_jump = ~np.isnan(p.pre_jump)
    assert at_jump.any()
    left = p.left_limits()
    # at a jump the recorded value differs from the left limit by the size
    assert (np.abs(p.values[at_jump] - left[at_jump]) > 0).all()
    # between recorded points the drift is exactly -1 (no Gaussian part)
    gaps = np.diff(p.times)
    incs = left[1:] - p.values[:-1]
    np.testing.assert_allclose(incs, -gaps, atol=1e-12)


def test_increment_batch_drift_only_is_exact():
    m = catalog.pure_drift()
    cfg = SimConfig(dt=0.01, horizon=10.0, seed=0)
    v, killed = sample_increment_batch(m, 2.5, 100, cfg)
    np.testing.assert_allclose(v, -2.5, atol=1e-12)
    assert not killed.any()


def test_increment_batch_killing_rate():
    m = catalog.brownian()  # kappa = 1/8
    cfg = SimConfig(dt=0.01, horizon=10.0, seed=0)
    v, killed = sample_increment_batch(m, 2.0, 20000, cfg)
    expect = 1.0 - math.exp(-0.125 * 2.0)
    assert killed.mean() == pytest.approx(expect, abs=0.01)
    # xi_2 ~ N(0, 2): mean and variance within 4 SE
    assert abs(v.mean()) < 4.0 * math.sqrt(2.0 / v.size)
    assert abs(v.var(ddof=1) - 2.0) < 4.0 * 2.0 * math.sqrt(2.0 / (v.size - 1))


def test_increment_batch_matches_laplace_exponent():
    # E(e^{lam xi_t}, t < zeta) = e^{t psi(lam)} on surviving draws
    m = catalog.two_sided()
    cfg = SimConfig(dt=0.01, horizon=10.0, seed=4)
    t, lam = 1.0, 0.5
    v, killed = sample_increment_batch(m, t, 200000, cfg)
    w = np.exp(lam * v[~killed])
    est = w.sum() / v.size  # killed draws contribute 0
    se = w.std(ddof=1) * math.sqrt((~killed).mean()) / math.sqrt(v.size)
    assert abs(est - math.exp(t * m.psi(lam))) < 4.0 * se


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(dt=2.0, horizon=1.0)
    for dt in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dt"):
            SimConfig(dt=dt)
    with pytest.raises(ValueError, match="horizon"):
        SimConfig(horizon=math.nan)
    # an infinite horizon is a valid config, but a path that is not killed
    # would never end
    with pytest.raises(ValueError, match="horizon"):
        sample_levy_path(catalog.pure_drift(), SimConfig(horizon=math.inf))
    path = sample_levy_path(catalog.brownian(), SimConfig(horizon=math.inf))
    assert path.zeta is not None and path.times[-1] == path.zeta
    with pytest.raises(ValueError):
        stream_rng(0, -1)
    with pytest.raises(ValueError):
        sample_increment_batch(catalog.brownian(), 20.0, 10,
                               SimConfig(dt=0.01, horizon=10.0))
    for t in (math.nan, -1.0):
        with pytest.raises(ValueError, match="t must be finite and >= 0"):
            sample_increment_batch(catalog.brownian(), t, 5, SimConfig())


def test_substream_offsets_stream_id():
    cfg = SimConfig(seed=9, stream_id=5)
    assert cfg.substream(3).stream_id == 8
    assert cfg.substream(3).seed == 9
