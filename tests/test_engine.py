"""The batch engine across model classes: oracle checks for the mixed class
(Gaussian part and jumps together), agreement of the engine's I draws with
the per-path sampler, and the convergence rule when jumps cut windows
short."""

import numpy as np
import pytest

from pssmplab import catalog
from pssmplab.engine import functional_batch
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
        return scaling_test(_mixed(), 1.0, 2.0, [0.5], 2000, cfg,
                            alpha_override=override)[0]

    rep = multi_seed_ks(lambda s: one(s), seeds=20)
    bad = multi_seed_ks(lambda s: one(s, override=2.5), seeds=10)
    assert rep["passes"] >= 19
    assert bad["rate"] <= 0.5


@pytest.mark.parametrize("name", ["mixed", "two_sided"])
def test_engine_I_matches_per_path_sampler(name):
    # I from the batch engine against t0 = A(zeta) of single paths from
    # sample_levy_path, the reference sampler, on an independent stream
    model = _mixed() if name == "mixed" else catalog.two_sided()
    n = 2000
    engine_i, censored = sample_I_batch(model, n, CFG)
    rng = CFG.substream(1).rng()
    path_t0 = np.array([
        levy_to_pssmp(sample_levy_path(model, CFG, rng=rng), 1.0,
                      model.alpha).t0
        for _ in range(n)])
    assert not censored.any()
    assert ks_two_sample(engine_i, path_t0).p_value > 0.01


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
