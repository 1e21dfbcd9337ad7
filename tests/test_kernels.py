"""Window kernel: bit-identity with the per-step recursion, target crossing,
segment integrals."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from pssmplab import _kernels, catalog
from pssmplab.engine import HIT, KILLED, marginal_batch
from pssmplab.lamperti import segment_exp_integral
from pssmplab.paths import SimConfig


def _state(n):
    return dict(x=np.zeros(n), a=np.zeros(n), t=np.zeros(n), w=np.zeros(n),
                done=np.zeros(n, np.uint8))


def _reference_window(x, a, t, w, done, zeta, target, normals, b, sigma, dt,
                      inv_alpha, sign, mode, seen, coarse=None):
    """The kernel's contract written as a loop over paths and steps, one
    scalar at a time.  ``seen`` counts the branches taken.  With ``coarse``
    each step pair is also one segment of the 2 dt grid, from x at its
    first step to x after its second or, on the kill pair, to x at zeta."""
    s_ia = sign * inv_alpha
    for i in range(x.size):
        for k in range(normals.shape[0]):
            if done[i]:
                break
            if k % 2 == 0:
                x_pair, t_pair = x[i], t[i]
            last = zeta[i] - t[i] <= dt
            h = zeta[i] - t[i] if last else dt
            inc = b * h + sigma * np.sqrt(h) * normals[k, i]
            d = s_ia * inc
            if d != 0.0:
                phi = np.expm1(d) / d
            else:
                phi = 1.0
                seen["d_zero"] += 1
            seg = h * np.exp(s_ia * x[i]) * phi
            if mode == _kernels.TARGET and seg >= target[i] - a[i]:
                r = target[i] - a[i]
                c = inc / h
                kc = s_ia * c
                eu = np.exp(-s_ia * x[i])
                if abs(kc) * h < 1e-14:
                    s_star = r * eu
                    seen["small_kc"] += 1
                else:
                    s_star = np.log1p(r * kc * eu) / kc
                x[i] = x[i] + c * s_star
                t[i] += s_star
                a[i] = target[i]
                done[i] = 2
                seen["cross_on_kill"] += bool(last)
                break
            a[i] += seg
            w[i] += seg
            x[i] += inc
            t[i] += h
            if last:
                t[i] = zeta[i]
                done[i] = 1
            if coarse is not None and (k % 2 == 1 or last):
                h_c = zeta[i] - t_pair if last else 2.0 * dt
                d = s_ia * (x[i] - x_pair)
                phi = np.expm1(d) / d if d != 0.0 else 1.0
                coarse[i] += h_c * np.exp(s_ia * x_pair) * phi
                if last:
                    seen[f"coarse_kill_row_{k % 2}"] += 1


# (b, sigma, m, wide): a Brownian window, then sigma = 0 with zero normals:
# a standing path (d == 0), a linear path, a drift so small that the
# crossing takes the small-kc branch; then one-row windows, which the
# kernel runs on a branch of their own: linear (the engine's window for a
# model without a Gaussian part), Brownian and standing.  A wide batch has
# more paths than one column block of its window.  Every window of an even
# m is also run coupled in STOP_AT_ZETA mode
_SCENARIOS = [(0.3, 1.0, 32, True), (0.0, 0.0, 32, False),
              (-1.0, 0.0, 32, False), (1e-16, 0.0, 32, False),
              (-1.0, 0.0, 1, True), (0.3, 1.0, 1, False),
              (0.0, 0.0, 1, False)]


def _scenario_window(rng, b, sigma, m, wide, same_t, dt=0.05):
    """A window's inputs: zeta inside the window or infinite; every path
    running on entry; nonzero incoming a and w; and targets that some paths
    cross, some of them on their kill step."""
    n = _kernels._block(m) + 100 if wide else 64
    t = np.full(n, 0.3) if same_t else rng.uniform(0.0, 2.0, n)
    zeta = t + rng.uniform(0.0, 1.3 * m * dt, n)
    zeta[rng.random(n) < 0.3] = np.inf
    # kill a quarter halfway through a step, with the target a quarter
    # step in: on the linear path A crosses it on the kill step
    j = rng.integers(0, m, n)
    on_kill = rng.random(n) < 0.25
    zeta[on_kill] = t[on_kill] + (j[on_kill] + 0.5) * dt
    x = rng.normal(size=n)
    a = rng.exponential(0.2, n)
    w = rng.exponential(0.05, n)
    done = np.zeros(n, np.uint8)
    target = a + rng.exponential(0.5 * m * dt, n)
    s = 2.0  # sign * inv_alpha below
    h = (j[on_kill] + 0.25) * dt
    lin = np.exp(s * x[on_kill]) * (
        np.expm1(s * b * h) / (s * b) if b else h)
    target[on_kill] = a[on_kill] + lin
    normals = rng.standard_normal((m, n)) if sigma else np.zeros((m, n))
    return [x, a, t, w, done], zeta, target, normals


@pytest.mark.parametrize("same_t", [True, False])
def test_window_matches_per_step_recursion_bit_for_bit(same_t):
    rng = np.random.default_rng(7)
    seen = dict(d_zero=0, small_kc=0, cross_on_kill=0, coarse_kill_row_0=0,
                coarse_kill_row_1=0)
    for b, sigma, m, wide in _SCENARIOS:
        state, zeta, target, normals = _scenario_window(rng, b, sigma, m,
                                                        wide, same_t)
        for mode in (_kernels.STOP_AT_ZETA, _kernels.TARGET):
            args = (zeta, target, normals, b, sigma, 0.05, 2.0, 1.0, mode)
            ref = [v.copy() for v in state]
            got = [v.copy() for v in state]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _reference_window(*ref, *args, seen)
                _kernels.advance_window(*got, *args)
            for name, r, g in zip("x a t w done".split(), ref, got):
                assert np.array_equal(r, g), (b, sigma, m, mode, name)
            assert (got[4] == 1).any()
            if mode == _kernels.TARGET:
                assert (got[4] == 2).any()
            elif m % 2 == 0:
                # coupled: the fine outputs keep their bits
                coarse = rng.exponential(0.2, zeta.size)
                ref_c, got_c = coarse.copy(), coarse.copy()
                fine = [v.copy() for v in state]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    _reference_window(*[v.copy() for v in state], *args,
                                      seen, coarse=ref_c)
                    _kernels.advance_window(*fine, *args, got_c)
                for name, r, g in zip("x a t w done".split(), got, fine):
                    assert np.array_equal(r, g), (b, sigma, m, name)
                assert np.array_equal(ref_c, got_c), (b, sigma, m)
                assert (got_c > coarse).all()
    assert all(seen.values()), seen


@pytest.mark.parametrize("inside", [True, False])
def test_one_column_window_matches_per_step_recursion(inside):
    # a block of one column, as at the tail of a conservative J batch:
    # numpy sums a contiguous axis pairwise, and A and W must still be
    # added row by row; zeta inside the window or infinite
    rng = np.random.default_rng(11)
    m, dt = 128, 0.05
    seen = dict(d_zero=0, small_kc=0, cross_on_kill=0)
    for _ in range(10):
        t = rng.uniform(0.0, 2.0, 1)
        zeta = t + rng.uniform(0.0, m * dt, 1) if inside else \
            np.full(1, np.inf)
        state = [rng.normal(size=1), rng.exponential(0.2, 1), t,
                 rng.exponential(0.05, 1), np.zeros(1, np.uint8)]
        args = (zeta, np.full(1, np.inf), rng.standard_normal((m, 1)), 0.3,
                1.0, dt, 1.0, -1.0, _kernels.STOP_AT_ZETA)
        ref = [v.copy() for v in state]
        got = [v.copy() for v in state]
        _reference_window(*ref, *args, seen)
        _kernels.advance_window(*got, *args)
        for name, r, g in zip("x a t w done".split(), ref, got):
            assert np.array_equal(r, g), (zeta, name)
        assert got[4][0] == inside


@pytest.mark.parametrize("t0, dt", [(0.3, 0.05), (-2.0 ** -54, 0.5)])
def test_kill_row_on_clock_edges(t0, dt):
    # zeta on or next to a grid time, where zeta - t <= dt is decided by
    # rounding; with t0 = -2^-54, zeta = 1 is a tie: zeta - (0.5 - 2^-54)
    # rounds to 0.5 = dt, so the kill row is the step that starts there
    m = 8
    clock = np.cumsum(np.r_[t0, np.full(m, dt)])
    zeta = np.concatenate([clock + dt, clock, clock + 2 * dt, [1.0]])
    zeta = np.concatenate([zeta, np.nextafter(zeta, np.inf),
                           np.nextafter(zeta, -np.inf)])
    zeta = zeta[zeta > t0]
    n = zeta.size
    args = (zeta, np.full(n, np.inf), np.zeros((m, n)), -1.0, 0.0, dt, 1.0,
            1.0, _kernels.STOP_AT_ZETA)
    ref = [np.zeros(n), np.zeros(n), np.full(n, t0), np.zeros(n),
           np.zeros(n, np.uint8)]
    got = [v.copy() for v in ref]
    _reference_window(*ref, *args, dict(d_zero=0, small_kc=0,
                                        cross_on_kill=0))
    _kernels.advance_window(*got, *args)
    for r, g in zip(ref, got):
        assert np.array_equal(r, g)


def test_stop_at_zeta_exact_boundary():
    # pure drift, no noise: the last partial step must land exactly on zeta
    n = 4
    zeta = np.array([0.005, 0.5, 0.755, 2.0])
    normals = np.zeros((128, n))
    s = _state(n)
    _kernels.advance_window(s["x"], s["a"], s["t"], s["w"], s["done"], zeta,
                            np.zeros(n), normals, -1.0, 0.0, 0.01, 1.0, 1.0,
                            _kernels.STOP_AT_ZETA)
    done = s["done"] == 1
    assert done[:3].all() and not done[3]  # 2.0 > 128 * 0.01
    np.testing.assert_allclose(s["t"][:3], zeta[:3], atol=1e-15)
    # A(zeta) = 1 - e^{-zeta} for xi_s = -s
    np.testing.assert_allclose(s["a"][:3], 1.0 - np.exp(-zeta[:3]),
                               rtol=1e-12)


def test_target_crossing_closed_form():
    # xi_s = -s, integrand e^{xi}: A(s) = 1 - e^{-s}, so A crosses r at
    # s* = -log(1 - r) and xi at the crossing is log(1 - r)
    # one window covers time 1.28, i.e. clock values up to 1 - e^{-1.28}
    n = 3
    target = np.array([0.1, 0.5, 0.7])
    normals = np.zeros((128, n))
    s = _state(n)
    _kernels.advance_window(s["x"], s["a"], s["t"], s["w"], s["done"],
                            np.full(n, np.inf), target, normals, -1.0, 0.0,
                            0.01, 1.0, 1.0, _kernels.TARGET)
    assert (s["done"] == 2).all()
    np.testing.assert_allclose(s["t"], -np.log1p(-target), rtol=1e-12)
    np.testing.assert_allclose(s["x"], np.log1p(-target), rtol=1e-12)
    np.testing.assert_allclose(s["a"], target, rtol=1e-15)


def test_marginal_batch_pure_drift():
    cfg = SimConfig(dt=0.01, horizon=100.0, seed=0)
    targets = np.array([0.25, 0.5, 0.75])
    batch = marginal_batch(catalog.pure_drift(), targets, cfg)
    assert (batch.status == HIT).all()
    np.testing.assert_allclose(batch.xi, np.log1p(-targets), rtol=1e-10)


def test_marginal_batch_jump_engine_statuses():
    cfg = SimConfig(dt=0.01, horizon=400.0, seed=0)
    targets = np.full(2000, 0.3)
    batch = marginal_batch(catalog.two_sided(), targets, cfg)
    assert set(np.unique(batch.status)) <= {HIT, KILLED}
    assert (batch.status == HIT).any() and (batch.status == KILLED).any()
    assert np.isfinite(batch.xi[batch.status == HIT]).all()


def test_segment_exp_integral_matches_quadrature():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x0 = rng.normal()
        inc = rng.normal()
        gap = rng.uniform(0.01, 2.0)
        ia = rng.uniform(0.3, 3.0)
        sign = rng.choice([-1.0, 1.0])
        # the integral of e^{-xi/alpha} is that of e^{xi/alpha} along -xi
        val = segment_exp_integral(np.array([sign * x0]),
                                   np.array([sign * inc]),
                                   np.array([gap]), ia)[0]
        ref, _ = integrate.quad(
            lambda s: math.exp(sign * ia * (x0 + inc * s / gap)), 0.0, gap)
        assert val == pytest.approx(ref, rel=1e-10)


def test_segment_exp_integral_zero_increment():
    val = segment_exp_integral(np.array([0.5]), np.array([0.0]),
                               np.array([1.5]), 2.0)[0]
    assert val == pytest.approx(1.5 * math.exp(1.0), rel=1e-14)
