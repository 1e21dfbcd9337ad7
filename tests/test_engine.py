"""The batch engine across model classes: oracle checks for the mixed class
(Gaussian part and jumps together), agreement of the engine's I draws with
the per-path sampler, the convergence rule when jumps cut windows short,
the draw order of a jump-free Gaussian run, whose normals a worker thread
draws ahead, and the growing windows of marginal mode."""

import hashlib
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from pssmplab import _kernels, catalog, engine
from pssmplab.engine import (
    CENSORED,
    CONVERGED,
    HIT,
    KILLED,
    coupled_batch,
    functional_batch,
    marginal_batch,
)
from pssmplab.extensions import entrance_law_curve
from pssmplab.expfun import (
    dual_identity_check,
    negative_moment_check,
    sample_I_batch,
)
from pssmplab.lamperti import levy_to_pssmp, pssmp_marginal
from pssmplab.models import (
    CompoundPoisson,
    Exponential,
    LevyModel,
    PointMass,
    cramer_root,
    esscher,
)
from pssmplab.paths import SimConfig, sample_levy_path
from pssmplab.verify import ks_two_sample, multi_seed_ks, scaling_test

CFG = SimConfig(dt=0.01, horizon=400.0, seed=0)


def _mixed() -> LevyModel:
    """Killed Brownian motion plus downward Exp(2) jumps at rate 0.5; its
    Cramer root is 0.717.  Both checks below have finite-variance
    estimators: J^{-1} and J^{-0.57} under the tilted model, which rises
    only through its Gaussian part, and I^{-0.57} under the killed one."""
    return LevyModel(drift=0.0, gaussian=1.0,
                     jumps=(CompoundPoisson(rate=0.5,
                                            law=Exponential(rate=2.0,
                                                            sign=-1)),),
                     killing=0.125, alpha=1.0)


def test_mixed_negative_moment():
    # E_tilted(J^{-1}) = psi'(theta) (Bertoin & Yor 2005)
    model = _mixed()
    rep = negative_moment_check(model, 20000, CFG)
    assert rep.rhs == cramer_root(model).psi_prime_at_theta
    assert rep.censored == 0
    assert rep.z_score < 4.0


def test_mixed_dual_identity():
    # E_tilted(J^{alpha theta - 1}) = E(I^{alpha theta - 1})
    rep = dual_identity_check(_mixed(), 20000, CFG)
    assert rep.censored == 0
    assert rep.z_score < 4.0


def test_mixed_marginal():
    x = pssmp_marginal(_mixed(), 1.0, 0.5, 5000, CFG)
    assert (x >= 0).all() and np.isfinite(x).all()
    absorbed = (x == 0).mean()
    assert 0.0 < absorbed < 0.5
    assert x[x > 0].mean() > 0.5


def test_mixed_scaling_multi_seed_ks():
    def one(s, override=None):
        cfg = SimConfig(dt=0.01, horizon=400.0, seed=2000 + s)
        return scaling_test(_mixed(), 1.0, 2.0, 0.5, 2000, cfg,
                            alpha_override=override)

    rep = multi_seed_ks(lambda s: one(s), seeds=20)
    bad = multi_seed_ks(lambda s: one(s, override=2.5), seeds=10)
    assert rep["passes"] >= 19
    assert bad["rate"] <= 0.5


def _two_components() -> LevyModel:
    """Killed Brownian motion plus upward Exp(3) jumps and downward jumps
    of 0.5, each at rate 0.5: the engine picks each jump's component."""
    return LevyModel(drift=0.0, gaussian=1.0,
                     jumps=(CompoundPoisson(rate=0.5,
                                            law=Exponential(rate=3.0)),
                            CompoundPoisson(rate=0.5,
                                            law=PointMass(-0.5))),
                     killing=0.125, alpha=1.0)


@pytest.mark.parametrize("name", ["mixed", "two_sided", "two_components"])
def test_engine_I_matches_per_path_sampler(name):
    # I from the batch engine against t0 = A(zeta) of single paths from
    # sample_levy_path, the reference sampler, on an independent stream
    model = {"mixed": _mixed, "two_sided": catalog.two_sided,
             "two_components": _two_components}[name]()
    n = 2000
    engine_i, censored = sample_I_batch(model, n, CFG)
    rng = CFG.substream(1).rng()
    path_t0 = np.array([
        levy_to_pssmp(sample_levy_path(model, CFG, rng=rng), 1.0,
                      model.alpha).t0
        for _ in range(n)])
    assert not censored.any()
    assert ks_two_sample(engine_i, path_t0).p_value > 0.01


def _searchsorted_jump_sizes(specs, rates, rng, k):
    """The component pick by np.searchsorted on the cumulative rate
    shares, kept as the reference for engine._draw_jump_sizes."""
    u = rng.random(k)
    which = np.searchsorted(np.cumsum(rates) / float(rates.sum()), u)
    sizes = np.empty(k)
    for si, spec in enumerate(specs):
        mask = which == si
        cnt = int(mask.sum())
        if cnt:
            sizes[mask] = spec.sample_sizes(rng, cnt)
    return sizes


@pytest.mark.parametrize("specs", [
    catalog.two_sided().jumps,
    _two_components().jumps + (CompoundPoisson(0.2, PointMass(1.5)),),
], ids=["two", "three"])
def test_draw_jump_sizes_matches_searchsorted(specs):
    rates = np.array([s.intensity for s in specs])
    cum = np.cumsum(rates) / float(rates.sum())
    for seed in range(5):
        got = engine._draw_jump_sizes(specs, cum,
                                      np.random.default_rng(seed), 3000)
        want = _searchsorted_jump_sizes(specs, rates,
                                        np.random.default_rng(seed), 3000)
        assert got.tobytes() == want.tobytes()


def test_window_cut_short_by_a_jump_is_not_read_as_convergence():
    # upward jumps of 0.005 at rate 200, so xi_t is about t and J about 1;
    # each drift segment between jumps adds far less than rel_tol * J long
    # before the tail of J is that small, so convergence may only be read
    # once a window's time has passed.  With one path a tighter rel_tol
    # sees the same draws and only runs longer.
    model = LevyModel(drift=0.0, gaussian=0.0,
                      jumps=(CompoundPoisson(rate=200.0,
                                             law=PointMass(0.005)),),
                      killing=0.0, alpha=1.0)
    loose = functional_batch(model, -1.0, 1, CFG)
    tight = functional_batch(model, -1.0, 1, CFG, rel_tol=1e-12)
    assert not loose.censored[0] and not tight.censored[0]
    assert abs(loose.values[0] - tight.values[0]) < 1e-5 * tight.values[0]


def _record_windows(monkeypatch, fail_on=None):
    """Wrap the kernel: keep a copy of each window's normals and the thread
    count while the window runs; raise on call number fail_on."""
    kernel = engine._kernels.advance_window
    blocks, threads = [], []

    def recording(*args):
        normals = args[7]
        blocks.append(normals.copy())
        threads.append(threading.active_count())
        if len(blocks) == fail_on:
            raise RuntimeError("kernel failed")
        kernel(*args)
        # no draw wrote into the block while the kernel read it
        assert np.array_equal(normals, blocks[-1])

    monkeypatch.setattr(engine._kernels, "advance_window", recording)
    return blocks, threads


@pytest.mark.parametrize("case", ["I_below_block", "I_above_block", "J",
                                  "marginal"])
def test_gaussian_normals_are_one_stream_in_window_order(monkeypatch, case):
    # each window's (m, k) block is the next m*k normals of the stream that
    # follows the set-up draws, in C order, whether or not drawn ahead
    brownian = catalog.brownian()
    model, n = {"I_below_block": (brownian, 100),
                "I_above_block": (brownian, 3000),
                "J": (esscher(brownian, 0.5), 3000),
                "marginal": (brownian, 3000)}[case]
    blocks, threads = _record_windows(monkeypatch)
    if case == "marginal":
        targets = CFG.substream(1).rng().exponential(2.0, n)
        marginal_batch(model, targets, CFG)
    else:
        functional_batch(model, -1.0 if case == "J" else 1.0, n, CFG)
    assert len(blocks) > 2
    # marginal windows grow from 32 rows; the others all have 128
    rows = [b.shape[0] for b in blocks]
    first = [32, 64] if case == "marginal" else []
    assert rows == first + [128] * (len(rows) - len(first))
    # the worker drew ahead exactly in the runs above one block
    assert max(threads) - threads[0] == (case != "I_below_block")
    rng = CFG.rng()
    if model.killing > 0:
        rng.exponential(1.0 / model.killing, n)
    drawn = np.concatenate([b.ravel() for b in blocks])
    expected = rng.standard_normal(drawn.size)
    assert np.array_equal(drawn.view(np.uint64), expected.view(np.uint64))


def _reference_marginal(model, targets, cfg):
    """marginal_batch of a killed model as a plain loop over windows of 32,
    64, 128, 128, ... rows.  Each window takes the next (m, k) normals for
    its k live paths, then the jump sizes and the next epochs of the paths
    that stopped at a jump epoch; no state is compacted."""
    rng = cfg.rng()
    n = targets.size
    zeta = rng.exponential(1.0 / model.killing, n)
    rate = sum(spec.intensity for spec in model.jumps)
    jump_at = rng.exponential(1.0 / rate, n) if model.jumps \
        else np.full(n, np.inf)
    x, a, t = np.zeros(n), np.zeros(n), np.zeros(n)
    status = np.zeros(n, np.int8)
    live, m = np.arange(n), 32
    while live.size:
        k = live.size
        normals = rng.standard_normal((m, k))
        xl, al, tl, done = x[live], a[live], t[live], np.zeros(k, np.int8)
        _kernels.advance_window(xl, al, tl, np.zeros(k), done,
                                np.minimum(zeta[live], jump_at[live]),
                                targets[live], normals, model.drift,
                                math.sqrt(model.gaussian), cfg.dt,
                                1.0 / model.alpha, 1.0, _kernels.TARGET)
        x[live], a[live], t[live] = xl, al, tl
        jumped = (done == KILLED) & (jump_at[live] < zeta[live])
        ji = live[jumped]
        if ji.size:
            done[jumped] = 0
            x[ji] += model.jumps[0].sample_sizes(rng, ji.size)
            jump_at[ji] = t[ji] + rng.exponential(1.0 / rate, ji.size)
        done[(done == 0) & (tl >= cfg.horizon)] = CENSORED
        status[live] = done
        live = live[done == 0]
        m = min(2 * m, 128)
    return x, status


@pytest.mark.parametrize("name", ["brownian", "mixed"])
def test_marginal_windows_grow_from_32_rows(name):
    # the draw contract of a TARGET run: the stream is taken in blocks of
    # (32, k), (64, k'), (128, k''), ... with the jumps of each window
    # drawn after its normals, bit for bit, also when the worker draws
    # ahead (3000 paths fill more than one column block)
    model = {"brownian": catalog.brownian(), "mixed": _mixed()}[name]
    targets = CFG.substream(1).rng().exponential(2.0, 3000)
    batch = marginal_batch(model, targets, CFG)
    x, status = _reference_marginal(model, targets, CFG)
    assert np.array_equal(batch.status, status)
    assert np.array_equal(batch.xi.view(np.uint64), x.view(np.uint64))
    assert {HIT, KILLED} <= set(np.unique(status))


def test_a_marginal_run_that_ends_in_its_first_window_takes_32_rows():
    # every path crosses its target, or is killed, within 32 rows of 0.01
    n = 1000
    batch = marginal_batch(catalog.brownian(), np.full(n, 0.01), CFG)
    assert set(np.unique(batch.status)) <= {HIT, KILLED}
    assert batch.normals == 32 * n


def test_a_conservative_marginal_reads_convergence_after_full_spans():
    # xi_t = -t: A converges to 1 below the targets 2.  At dt = 0.5 the
    # windows of 32 and 64 rows end at t = 16 and 48; a reading there would
    # find the 64 rows past t = 16 below rel_tol.  A reading needs a full
    # 128-row window: the first, at row 224, resets w = A, and the second,
    # at row 352, reads the path converged
    model = LevyModel(drift=-1.0, gaussian=1e-8, jumps=(), killing=0.0,
                      alpha=1.0)
    n = 50
    batch = marginal_batch(model, np.full(n, 2.0),
                           SimConfig(dt=0.5, horizon=400.0, seed=0))
    assert (batch.status == CONVERGED).all()
    assert batch.normals == (32 + 64 + 128 + 128) * n


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def test_stop_at_zeta_draws_keep_their_bits():
    # functional and coupled runs keep 128-row windows: these digests are
    # those of the draws before marginal windows grew
    brownian, bessel = catalog.brownian(), catalog.bessel(1.0)
    runs = {
        "I": functional_batch(brownian, 1.0, 3000, CFG),
        "I_conservative": functional_batch(bessel, 1.0, 500, CFG),
        "J": functional_batch(esscher(brownian, 0.5), -1.0, 1000, CFG),
        "coupled": coupled_batch(brownian, 1.0, 1000, CFG),
        "coupled_conservative": coupled_batch(bessel, 1.0, 300, CFG),
    }
    digests = {name: _digest(b.values, b.censored,
                             *([] if b.coarse is None else [b.coarse]))
               for name, b in runs.items()}
    assert digests == {
        "I": "d8dfcb1e56f6b199",
        "I_conservative": "a0773e3738f6e5d3",
        "J": "f8f3c7b2fa20a548",
        "coupled": "0266df4d53d833a7",
        "coupled_conservative": "ecc01c08e49c07ef",
    }
    assert [b.normals for b in runs.values()] == [
        2550656, 783744, 2782848, 885376, 466816]


def test_conservative_marginal_stops_at_convergence():
    # BES(1) from x = 1 is Brownian motion absorbed at 0: P(X_1 = 0) =
    # P(T_0 <= 1) = erfc(1/sqrt 2).  Its absorbed paths leave the run
    # CONVERGED, none CENSORED.  Calibrated on seeds 6000-6039 at this n:
    # mean z 0.06, mean z^2 1.05, max |z| 2.54.
    n = 5000
    batch = marginal_batch(catalog.bessel(1.0), np.ones(n),
                           SimConfig(seed=0))
    assert not (batch.status == CENSORED).any()
    assert set(np.unique(batch.status)) == {HIT, CONVERGED}
    p = math.erfc(1.0 / math.sqrt(2.0))
    zero = (batch.status == CONVERGED).mean()
    assert abs(zero - p) < 4.0 * math.sqrt(p * (1.0 - p) / n)


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
def test_marginal_batch_rejects_invalid_targets(bad):
    # a negative target used to come back HIT and a NaN one KILLED, which
    # pssmp_marginal reads as X_t = 0
    targets = np.array([0.5, bad, 2.0, -3.0])
    with pytest.raises(ValueError, match=rf"targets must be finite and >= 0, "
                                         rf"got {bad!r}"):
        marginal_batch(catalog.brownian(), targets, CFG)


@pytest.mark.parametrize("name, call", [
    # sign 0 integrated 1 and returned zeta as if it were I
    ("sign", lambda: functional_batch(catalog.brownian(), 0.0, 5, CFG)),
    # a NaN or negative rel_tol censored every conservative path
    ("rel_tol", lambda: functional_batch(catalog.pure_drift(), 1.0, 5, CFG,
                                         rel_tol=np.nan)),
    ("rel_tol", lambda: sample_I_batch(catalog.bessel(1.0), 5, CFG,
                                       rel_tol=-1.0)),
    # a 2-D grid or target array failed inside the loop or in numpy
    ("t_grid", lambda: entrance_law_curve(catalog.brownian(),
                                          [[0.5, 1.0]], {"kind": "one"}, 5,
                                          CFG)),
    ("targets", lambda: marginal_batch(catalog.brownian(),
                                       np.ones((2, 3)), CFG)),
], ids=["sign", "rel_tol_nan", "rel_tol_negative", "t_grid", "targets"])
def test_bad_arguments_are_refused_by_name(name, call):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        call()


def test_zero_rel_tol_means_never_converged():
    batch = functional_batch(catalog.pure_drift(), 1.0, 3,
                             SimConfig(dt=0.01, horizon=40.0), rel_tol=0.0)
    assert batch.censored.all()


def test_no_thread_outlives_a_run(monkeypatch):
    before = threading.active_count()
    _, threads = _record_windows(monkeypatch)
    functional_batch(catalog.brownian(), 1.0, 3000, CFG)
    assert max(threads) == before + 1  # the worker drew ahead
    assert threading.active_count() == before
    # the kernel raises on its third window, while the worker draws the
    # fourth window's normals: the error propagates and the worker is gone
    _, threads = _record_windows(monkeypatch, fail_on=3)
    with pytest.raises(RuntimeError, match="kernel failed"):
        functional_batch(catalog.brownian(), 1.0, 3000, CFG)
    assert threads[-1] == before + 1
    assert threading.active_count() == before


def test_concurrent_runs_each_draw_their_own_stream():
    # four runs that draw ahead, on more threads than cores and with a short
    # switch interval: each equals the same run made alone
    configs = [SimConfig(dt=0.01, horizon=400.0, seed=s) for s in range(4)]

    def run(cfg):
        return functional_batch(catalog.brownian(), 1.0, 3000, cfg).values

    alone = [run(cfg) for cfg in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            together = list(pool.map(run, configs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(alone, together):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
