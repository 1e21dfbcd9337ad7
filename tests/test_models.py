"""Laplace exponent, root finding, tilting, duality and model files."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pssmplab import catalog
from pssmplab.errors import (
    BetaOutOfRange,
    ModelDoesNotHitZero,
    ModelFileError,
    NotCramerRoot,
    TiltOutsideDomain,
)
from pssmplab.models import (
    BetaClass,
    CompoundPoisson,
    Exponential,
    LevyModel,
    PointMass,
    TemperedPower,
    TwoSidedExponential,
    classify_beta,
    cramer_root,
    dual,
    esscher,
    model_from_dict,
    model_to_dict,
    tempered_power_killing_for_root,
)


def test_brownian_psi_closed_form():
    m = catalog.brownian()
    for lam in [-1.0, 0.0, 0.3, 0.5, 2.0]:
        assert m.psi(lam) == pytest.approx(-0.125 + 0.5 * lam * lam, abs=1e-15)
    assert m.psi_derivative(0.7) == pytest.approx(0.7, abs=1e-15)


def test_compound_poisson_psi_matches_mgf():
    law = TwoSidedExponential(rate_pos=2.0, rate_neg=1.0, p_pos=0.5)
    m = catalog.two_sided()
    for lam in [-0.5, 0.1, 1.0, 1.9]:
        expect = -1.0 / 3.0 - lam + 1.0 * (law.mgf(lam) - 1.0)
        assert m.psi(lam) == pytest.approx(expect, rel=1e-12)
    # outside the finiteness domain psi is encoded as +inf
    assert m.psi(2.5) == math.inf
    assert m.domain_sup == 2.0
    # the downward Exp(1) side bounds the domain below at -1
    assert m.psi(-1.0) == math.inf
    assert math.isfinite(m.psi(-0.999))


def test_cramer_root_brownian():
    rep = cramer_root(catalog.brownian())
    assert rep.theta == pytest.approx(0.5, abs=1e-10)
    assert rep.psi_prime_at_theta == pytest.approx(0.5, abs=1e-9)
    assert rep.alpha_theta == pytest.approx(0.5, abs=1e-10)
    assert rep.jump_in_range[0] == 0.0
    assert rep.jump_in_range[1] == pytest.approx(0.5, abs=1e-10)
    assert rep.continuous_extension_exists
    assert rep.condition4_finite


def test_cramer_root_two_sided():
    m = catalog.two_sided()
    rep = cramer_root(m)
    assert rep.theta is not None
    assert abs(m.psi(rep.theta)) < 1e-9
    assert rep.theta == pytest.approx(1.6409245841812492, abs=1e-9)


def test_cramer_root_absent():
    # killed downward drift: psi(lam) = -kappa - lam stays negative
    rep = cramer_root(catalog.killed_drift())
    assert rep.theta is None
    assert rep.continuous_extension_exists is False
    assert rep.jump_in_range == (0.0, 1.0)
    assert rep.to_json() == {
        "domain_sup": "inf", "theta": None, "psi_prime_at_theta": None,
        "alpha_theta": None, "jump_in_range": [0.0, 1.0],
        "continuous_extension_exists": False, "condition4_finite": None}


def test_cramer_root_requires_hitting_zero():
    with pytest.raises(ModelDoesNotHitZero):
        cramer_root(LevyModel(drift=1.0, gaussian=0.0, killing=0.0))


def test_boundary_root_model():
    m = catalog.boundary_root()
    rep = cramer_root(m)
    assert rep.theta == pytest.approx(1.0, abs=1e-9)
    assert rep.condition4_finite is False
    assert rep.psi_prime_at_theta == math.inf
    # alpha = 0.5 keeps alpha*theta < 1, so the continuous verdict holds
    assert rep.alpha_theta == pytest.approx(0.5, abs=1e-9)
    assert rep.continuous_extension_exists
    assert math.isfinite(m.psi(m.domain_sup))
    assert abs(m.psi(1.0)) < 1e-9


def test_cramer_root_stops_at_float_resolution():
    # root near 2e4, where adjacent floats are 3.6e-12 apart: wider than the
    # bisection tolerance, so the bracket can only close to adjacent floats
    m = LevyModel(drift=1e-4, killing=1.0,
                  jumps=(CompoundPoisson(1.0, Exponential(4.0, sign=-1)),))
    rep = cramer_root(m)
    assert rep.theta == pytest.approx(2e4, rel=1e-3)
    assert abs(m.psi(rep.theta)) < 1e-12


def test_psi_beyond_float_range_is_inf():
    # psi(500) overflows in the point-mass term; the root lies far below
    m = LevyModel(drift=-3.0, killing=0.5, jumps=(
        CompoundPoisson(1.0, PointMass(2.0)),
        CompoundPoisson(1.0, Exponential(500.0))))
    assert m.psi(500.0) == math.inf
    rep = cramer_root(m)
    assert abs(m.psi(rep.theta)) < 1e-12
    assert rep.condition4_finite


@pytest.mark.parametrize("value, lam, slope", [(2.0, 400.0, math.inf),
                                               (-2.0, -400.0, -math.inf)])
def test_psi_derivative_beyond_float_range_is_inf(value, lam, slope):
    # the point-mass term overflows: psi is +inf, psi' infinite with the
    # sign of the jump
    m = LevyModel(drift=-1.0, killing=0.5,
                  jumps=(CompoundPoisson(1.0, PointMass(value)),))
    assert m.psi(lam) == math.inf
    assert m.psi_derivative(lam) == slope


def test_esscher_keeps_the_rate_of_a_massless_side():
    # downward Exp(2) jumps written as a two-sided law with p_pos = 0: its
    # rate_pos = 1.5 bounds nothing, and the root sqrt(6) lies beyond it
    law = TwoSidedExponential(rate_pos=1.5, rate_neg=2.0, p_pos=0.0)
    m = LevyModel(drift=-1.0, gaussian=1.0,
                  jumps=(CompoundPoisson(1.0, law),))
    theta = cramer_root(m).theta
    assert theta == pytest.approx(math.sqrt(6.0), abs=1e-9)
    tilted = esscher(m, theta)
    assert tilted.jumps[0].law.rate_pos == 1.5
    for lam in [-1.0, 0.0, 1.0]:
        assert tilted.psi(lam) == pytest.approx(m.psi(lam + theta), abs=1e-9)


def test_tempered_power_killing_for_root():
    kappa = tempered_power_killing_for_root(1.0, 0.75, 0.01)
    assert kappa > 0
    m = LevyModel(jumps=(TemperedPower(1.0, 0.75, 0.01),), killing=kappa,
                  alpha=0.5)
    assert abs(m.psi(1.0)) < 1e-9


def test_tempered_power_total_intensity_positive():
    spec = TemperedPower(q=1.0, beta=0.75, delta=0.01)
    assert spec.total_intensity > 0


def test_esscher_shifts_psi():
    m = catalog.two_sided()
    theta = cramer_root(m).theta
    t = esscher(m, theta)
    assert t.killing == 0.0
    for lam in [-0.3, 0.0, 0.2]:
        assert t.psi(lam) == pytest.approx(m.psi(lam + theta), abs=1e-8)
    assert t.mean() > 0


def test_esscher_brownian_drift_shift():
    m = catalog.brownian()
    t = esscher(m, 0.5)
    assert t.drift == pytest.approx(0.5)
    assert t.gaussian == 1.0
    assert t.killing == 0.0


def test_esscher_rejects_non_root():
    m = catalog.brownian()
    with pytest.raises(NotCramerRoot):
        esscher(m, 0.3)
    with pytest.raises(TiltOutsideDomain):
        esscher(catalog.two_sided(), 3.0)
    # upward Exp(2) jumps: psi is +inf from lam = 2 on
    up = LevyModel(drift=-1.0, killing=0.5,
                   jumps=(CompoundPoisson(1.0, Exponential(2.0)),))
    with pytest.raises(TiltOutsideDomain):
        esscher(up, 2.5)


def test_dual_negates_exponent():
    m = catalog.two_sided()
    d = dual(m)
    for lam in [-0.5, 0.3, 0.9]:
        assert d.psi(lam) == pytest.approx(m.psi(-lam), rel=1e-12)
    assert d.killing == m.killing


def test_classify_beta():
    m = catalog.brownian()
    assert classify_beta(m, 0.25) is BetaClass.JUMP_IN_EXISTS
    assert classify_beta(m, 0.5) is BetaClass.CRITICAL
    assert classify_beta(m, 0.8) is BetaClass.NEITHER
    with pytest.raises(BetaOutOfRange):
        classify_beta(m, 1.5)


def test_jump_law_tilts():
    law = Exponential(rate=2.0)
    assert law.tilted(0.5) == Exponential(rate=1.5)
    pm = PointMass(0.7)
    assert pm.tilted(1.0) is pm
    # the tilted component carries the law's mass at theta in its rate
    for jl in (law, pm, TwoSidedExponential(2.0, 1.0, 0.25)):
        cp = CompoundPoisson(0.8, jl).tilted(0.5)
        assert cp.rate == 0.8 * jl.mgf(0.5)
        assert cp.law == jl.tilted(0.5)


def test_jump_law_reflection():
    law = TwoSidedExponential(2.0, 1.0, 0.25)
    r = law.reflected()
    assert (r.rate_pos, r.rate_neg, r.p_pos) == (1.0, 2.0, 0.75)
    for lam in [-1.5, -0.3, 0.0, 0.4, 0.9]:
        assert r.mgf(lam) == pytest.approx(law.mgf(-lam), rel=1e-15)


def test_model_dict_round_trip():
    m = catalog.two_sided()
    again = model_from_dict(model_to_dict(m))
    assert again == m
    b = catalog.boundary_root()
    assert model_from_dict(model_to_dict(b)) == b


def test_model_from_dict_error_paths():
    with pytest.raises(ModelFileError, match=r"\$\.drift"):
        model_from_dict({"gaussian": 0.0, "jumps": [], "killing": 0.0,
                         "alpha": 1.0})
    with pytest.raises(ModelFileError, match=r"jumps\[0\]"):
        model_from_dict({"drift": 0.0, "gaussian": 0.0, "killing": 0.0,
                         "alpha": 1.0, "jumps": [{"type": "nope"}]})
    with pytest.raises(ModelFileError, match="number"):
        model_from_dict({"drift": "x", "gaussian": 0.0, "killing": 0.0,
                         "alpha": 1.0})
    with pytest.raises(ModelFileError):
        model_from_dict({"drift": 0.0, "gaussian": 0.0, "killing": 0.0,
                         "alpha": 1.0, "jumps": "not-a-list"})


def test_model_validation():
    with pytest.raises(ValueError):
        LevyModel(alpha=0.0)
    with pytest.raises(ValueError):
        LevyModel(gaussian=-1.0)
    with pytest.raises(ValueError):
        LevyModel(killing=-0.1)
    with pytest.raises(ValueError):
        CompoundPoisson(rate=0.0, law=PointMass(1.0))
    with pytest.raises(ValueError):
        TemperedPower(q=1.0, beta=1.2, delta=0.01)


@pytest.mark.parametrize("field", ["drift", "gaussian", "killing", "alpha"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite(field, bad):
    with pytest.raises(ValueError, match=field):
        LevyModel(**{field: bad})


def test_model_from_dict_rejects_nan_drift():
    doc = {"drift": math.nan, "gaussian": 1.0, "jumps": [], "killing": 0.125,
           "alpha": 1.0}
    with pytest.raises(ModelFileError, match=r"\$\.drift: .*finite"):
        model_from_dict(doc)
    with pytest.raises(ModelFileError, match=r"\$\.jumps\[0\]\.rate"):
        model_from_dict(dict(doc, drift=0.0, jumps=[
            {"type": "compound_poisson", "rate": math.inf,
             "law": {"type": "point_mass", "value": 1.0}}]))


def test_hits_zero():
    assert catalog.brownian().hits_zero()
    assert catalog.pure_drift().hits_zero()
    assert not LevyModel(drift=1.0).hits_zero()


def test_jump_sampler_laws():
    rng = np.random.default_rng(5)
    x = TemperedPower(q=1.0, beta=0.75, delta=0.01).sample_sizes(rng, 5000)
    assert (x > 0.01).all() or (x >= 0.01).all()
    y = TwoSidedExponential(2.0, 1.0, 0.5).sample(rng, 5000)
    frac_up = (y > 0).mean()
    assert abs(frac_up - 0.5) < 0.05


# ---------------------------------------------------------------------------
# properties on random valid models mixing all four jump laws

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])

_rate = st.floats(0.2, 5.0)
_sign = st.sampled_from([1, -1])
_law = st.one_of(
    st.builds(Exponential, _rate, _sign),
    st.builds(TwoSidedExponential, _rate, _rate,
              st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))),
    st.builds(PointMass, st.floats(-3.0, 3.0)),
)
_jump = st.one_of(
    st.builds(CompoundPoisson, st.floats(0.1, 3.0), _law),
    st.builds(TemperedPower, st.floats(0.2, 3.0), st.floats(0.1, 0.9),
              st.floats(0.01, 0.5), _sign),
)


@st.composite
def levy_models(draw, killed=False):
    return LevyModel(
        drift=draw(st.floats(-3.0, 3.0)),
        gaussian=draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
        jumps=tuple(draw(st.lists(_jump, max_size=3))),
        killing=draw(st.floats(0.01, 1.0) if killed else st.floats(0.0, 1.0)),
        alpha=draw(st.floats(0.25, 3.0)),
    )


@st.composite
def boundary_root_models(draw):
    """A killed model with an upward tempered power whose q is the domain
    edge, killed at the rate that puts the Cramer root exactly at q."""
    base = draw(levy_models())
    q = draw(st.floats(0.2, 3.0))
    tp = TemperedPower(q, draw(st.floats(0.1, 0.9)), draw(st.floats(0.01, 0.5)))
    jumps = tuple(j for j in base.jumps if j.domain_sup > q) + (tp,)
    free = LevyModel(drift=base.drift, gaussian=base.gaussian, jumps=jumps,
                     alpha=base.alpha)
    kappa = free.psi(q)
    if not kappa > 0:  # psi(q) <= 0 without killing: no root at the edge
        return base
    return LevyModel(drift=base.drift, gaussian=base.gaussian, jumps=jumps,
                     killing=kappa, alpha=base.alpha)


def _condition4_rule(model, theta):
    """psi'(theta) < inf, per law: theta below the rate of every upward
    exponential and the q of every upward tempered power."""
    for j in model.jumps:
        if isinstance(j, TemperedPower):
            ok = j.sign < 0 or theta < j.q
        elif isinstance(j.law, Exponential):
            ok = j.law.sign < 0 or theta < j.law.rate
        elif isinstance(j.law, TwoSidedExponential):
            ok = j.law.p_pos == 0 or theta < j.law.rate_pos
        else:
            ok = True
        if not ok:
            return False
    return True


@PROPERTY
@given(levy_models(), st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
def test_property_psi_is_convex(m, a, b):
    mid = m.psi(0.5 * (a + b))
    chord = 0.5 * (m.psi(a) + m.psi(b))  # +inf outside the domain
    assert mid <= chord + 1e-8 * (1.0 + abs(mid))


@PROPERTY
@given(levy_models(), st.floats(-4.0, 4.0))
def test_property_dual_is_an_involution(m, lam):
    back = dual(dual(m))
    assert (back.drift, back.gaussian, back.killing, back.alpha) == \
        (m.drift, m.gaussian, m.killing, m.alpha)
    # two-sided laws store 1 - (1 - p_pos), which can round in the last bit
    assert back.psi(lam) == pytest.approx(m.psi(lam), rel=1e-12, abs=1e-12)
    assert dual(m).psi(lam) == pytest.approx(m.psi(-lam), rel=1e-12,
                                             abs=1e-12)


@PROPERTY
@given(levy_models())
def test_property_json_round_trip(m):
    assert model_from_dict(json.loads(json.dumps(model_to_dict(m)))) == m


@PROPERTY
@given(st.one_of(levy_models(killed=True), boundary_root_models()))
def test_property_cramer_root_and_esscher(m):
    rep = cramer_root(m)
    sup = m.domain_sup
    if rep.theta is None:
        # psi stays negative on (0, sup E)
        for lam in ([0.5 * sup, 0.9 * sup] if math.isfinite(sup)
                    else [1.0, 10.0]):
            assert m.psi(lam) <= 0.0
        return
    assert abs(m.psi(rep.theta)) <= 1e-9
    assert rep.condition4_finite == _condition4_rule(m, rep.theta)
    assert rep.condition4_finite == math.isfinite(rep.psi_prime_at_theta)
    t = esscher(m, rep.theta)
    assert t.killing == 0.0
    for lam in (-rep.theta, -0.5 * rep.theta, 0.0,
                0.5 * (sup - rep.theta) if math.isfinite(sup) else 1.0):
        want = m.psi(lam + rep.theta)
        assert t.psi(lam) == pytest.approx(want, rel=1e-9, abs=1e-8)
