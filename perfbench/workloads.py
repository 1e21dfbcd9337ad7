"""The three workloads: their set-up, their ops and each op's oracle.

``build(name, seed, size)`` is the set-up that ``setup_s`` times: it imports
pssmplab, builds the models and (for the negative-moment oracle) finds the
Cramer root.  It returns
the ops of one pass.  An op is called with a ``Speed`` and returns its
``OpResult``s (most return one, the verification suite one per check) with
its raw and speed-normalized wall time.  The program receives only the
``SimConfig``s (and, for the suite, the seed) built from the benchmark seed.

Ops call pssmplab through module attributes (``expfun.recursion_check``,
not a local binding), so the tracer's replacements are the ones called.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
import traceback
from dataclasses import dataclass, fields, is_dataclass
from types import SimpleNamespace

import numpy as np

from pssmplab import catalog, cli, expfun, lamperti, paths, verify
from pssmplab.extensions import occupation_histogram
from pssmplab.lamperti import pssmp_to_levy
from pssmplab.models import CompoundPoisson, Exponential, LevyModel, \
    cramer_root, model_to_dict
from pssmplab.paths import SimConfig

_clock = time.perf_counter

WORKLOADS = ("gauss-estimators", "jump-and-paths", "verify-suite")

Z_MAX = 4.0  # the acceptance gate of every expfun check
# The recursion check runs on _drifted_brownian at this beta.  The catalog
# models have no beta at which both of its estimators have finite variance
# (brownian at 0.25, two_sided at 0.5: E(I^(alpha beta - 1)) has infinite
# variance), so there its z is not N(0, 1) and the gate fails at 5-12 % of
# seeds; the same holds for dual_identity_check on brownian (power -1/2).
RECURSION_BETA = 0.75
SUITE_THREADS = 1  # the default of verify --threads

# Run sizes.  "full" is what the benchmark measures; "smoke" runs every op
# at a size that finishes in seconds.
SIZES = {
    "full": dict(gauss_n=5000, jump_n=100000, mixed_n=200, hit_n=100,
                 excursions=10000, sim_pssmp=50, sim_ext=10, demo_n=10000,
                 suite_scale=0.25),
    "smoke": dict(gauss_n=200, jump_n=2000, mixed_n=40, hit_n=10,
                  excursions=300, sim_pssmp=3, sim_ext=2, demo_n=2000,
                  suite_scale=0.02),
}


@dataclass
class OpResult:
    name: str
    wall_s: float  # raw wall time
    busy_s: float  # CPU time of the thread that ran it, at the reference speed
    ok: bool
    detail: str
    digest: str


# -- machine speed -------------------------------------------------------------

# median of speed_now() on a 2-core x86-64 VM (Python 3.11, numpy 2.4)
REF_NOMINAL_S = 0.021


def speed_sample() -> float:
    """Seconds taken by a fixed loop shaped like pssmplab's work: a window
    of Philox normals for a 4096-path batch, masked gathers with exp/expm1
    on that batch (the window kernel), then many small-array
    concatenate/argsort/cumsum calls (per-path sampling).  It shares no
    code with pssmplab, so a change to pssmplab leaves it as it is; it
    tracks the machine's current speed.  It is timed in CPU time of the
    calling thread, like the ops' busy time."""
    rng = np.random.Generator(np.random.Philox(7))
    x0 = rng.standard_normal(4096)
    live = x0 > -0.5
    z = rng.standard_normal((8, 4096))
    grid = np.arange(40) * 0.01
    t0 = time.thread_time()
    rng.standard_normal((128, 4096))
    x = x0.copy()
    acc = np.zeros_like(x)
    for k in range(60):
        idx = np.nonzero(live)[0]
        d = 0.1 * z[k % 8, idx]
        phi = np.ones_like(d)
        nz = d != 0.0
        phi[nz] = np.expm1(d[nz]) / d[nz]
        acc[idx] += np.exp(x[idx]) * phi
        x[idx] += d
    for _ in range(300):
        t = np.concatenate((grid, [0.5]))
        t = t[np.argsort(t, kind="stable")]
        np.cumsum(np.diff(t))
    return time.thread_time() - t0


def speed_now() -> float:
    """The faster of two speed samples (one may be interrupted)."""
    return min(speed_sample(), speed_sample())


def normalized(seconds: float, *speeds: float) -> float:
    """``seconds`` scaled to the reference speed, by the mean of the speed
    samples taken around them."""
    return seconds * REF_NOMINAL_S * len(speeds) / sum(speeds)


class Speed:
    """Speed samples between consecutive ops of a pass: the sample after
    one op is the sample before the next."""

    def __init__(self):
        self.last = speed_now()

    def advance(self) -> float:
        self.last = speed_now()
        return self.last


# -- digests -----------------------------------------------------------------


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (float, np.floating)):
        h.update(b"f" + float(obj).hex().encode())
    elif isinstance(obj, (bool, np.bool_, int, np.integer, str)) or \
            obj is None:
        h.update(f"{type(obj).__name__}:{obj!r};".encode())
    elif isinstance(obj, dict):
        h.update(b"{")
        for k in sorted(obj, key=str):
            _feed(h, str(k))
            _feed(h, obj[k])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for v in obj:
            _feed(h, v)
        h.update(b"]")
    elif is_dataclass(obj):
        _feed(h, {f.name: getattr(obj, f.name) for f in fields(obj)})
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _op(name, fn, gate):
    """One op: time ``fn()``, check its output with ``gate`` and digest it.
    An exception is a failed op that keeps its traceback."""

    def run(speed):
        before = speed.last
        t0, c0 = _clock(), time.thread_time()
        out, trace = None, ""
        try:
            out = fn()
        except Exception:
            trace = traceback.format_exc()
        wall, cpu = _clock() - t0, time.thread_time() - c0
        after = speed.advance()
        busy, norm = normalized(cpu, before, after), \
            normalized(wall, before, after)
        if trace:
            return [OpResult(name, wall, busy, False, trace, "")], wall, norm
        try:
            ok, detail = gate(out)
            sha = digest(out)
        except Exception:
            ok, detail, sha = False, traceback.format_exc(), ""
        return [OpResult(name, wall, busy, bool(ok), detail, sha)], wall, norm

    return run


def _z_gate(rep):
    return rep.z_score < Z_MAX, f"z={rep.z_score:.3f} (gate < {Z_MAX})"


# -- gauss-estimators ----------------------------------------------------------


def _drifted_brownian() -> LevyModel:
    """Killed Brownian motion with unit downward drift.  Its Cramer root is
    2.118, so the recursion check at beta = 0.75 has finite-variance
    estimators on both sides: E(I^1.5) < oo as psi(1.5) < 0, and
    E(I^-0.5) < oo.  Its z gate is then a valid test."""
    return LevyModel(drift=-1.0, gaussian=1.0, jumps=(), killing=0.125,
                     alpha=1.0)


def _gauss_estimators(seed, size):
    cfg = SimConfig(dt=0.01, horizon=400.0, seed=seed)
    model = catalog.brownian()
    drifted = _drifted_brownian()
    root = cramer_root(model)
    n = size["gauss_n"]

    def negative_gate(rep):
        ok, detail = _z_gate(rep)
        # the right-hand side is the analytic psi'(theta) of the set-up
        same = rep.rhs == root.psi_prime_at_theta
        return ok and same, detail + ("" if same else "; rhs != psi'(theta)")

    return [
        _op("drifted.recursion_check", lambda: expfun.recursion_check(
            drifted, RECURSION_BETA, n, cfg), _z_gate),
        _op("negative_moment_check", lambda: expfun.negative_moment_check(
            model, n, cfg), negative_gate),
    ]


# -- jump-and-paths ------------------------------------------------------------


def _mixed_model() -> LevyModel:
    """Killed Brownian motion plus downward exponential jumps: the generic
    per-path engine (Gaussian part and jumps both present).  Its Cramer
    root is 0.717, so both sides of the dual identity, at power -0.283,
    have finite variance."""
    return LevyModel(drift=0.0, gaussian=1.0,
                     jumps=(CompoundPoisson(rate=0.5,
                                            law=Exponential(rate=2.0,
                                                            sign=-1)),),
                     killing=0.125, alpha=1.0)


def _hitting(model, n, cfg):
    def fn():
        t1, c1 = lamperti.hitting_time_samples(model, 1.0, n, cfg)
        t9, c9 = lamperti.hitting_time_samples(model, 9.0, n, cfg)
        return t1, c1, t9, c9

    def gate(out):
        t1, c1, t9, c9 = out
        scale = 9.0 ** (1.0 / model.alpha)
        alive = ~(c1 | c9)
        if not alive.any():
            return False, "every draw censored"
        rel = float(np.max(np.abs(t9[alive] - scale * t1[alive])
                           / (scale * t1[alive])))
        return rel < 1e-12, f"pathwise T0(9) max rel err={rel:.2e} (< 1e-12)"

    return fn, gate


def _occupation(model, count, cfg):
    """Criterion 8: continuous-extension excursions from epsilon = 0.01."""
    bins = np.geomspace(0.1, 1.0, 13)

    def fn():
        rng = cfg.rng()
        pss = []
        for _ in range(count):
            path = paths.sample_levy_path(model, cfg, rng=rng)
            pss.append(lamperti.levy_to_pssmp(path, 0.01, model.alpha,
                                              allow_truncated=True))
        centers, density = occupation_histogram(pss, bins)
        slope = float(np.polyfit(np.log(centers), np.log(density), 1)[0])
        return centers, density, slope

    def gate(out):
        slope = out[2]
        return abs(slope + 0.5) < 0.1, f"slope={slope:.4f} (-0.5 +/- 0.1)"

    return fn, gate


def _round_trip(model, cfg):
    """pssmp_to_levy(levy_to_pssmp(path)) from x0 = 2, as the lamperti
    tests check it: xi exact to 1e-12 and, on a killed Gaussian path (whose
    recorded points are exactly piecewise linear), times and zeta to 1e-10."""

    def fn():
        path = paths.sample_levy_path(model, cfg)
        ps = lamperti.levy_to_pssmp(path, 2.0, model.alpha)
        return path, pssmp_to_levy(ps)

    def gate(out):
        path, back = out
        ev = float(np.max(np.abs(back.values - path.values)))
        ok, detail = ev <= 1e-12, f"xi err={ev:.1e} (1e-12)"
        if not model.jumps:
            et = float(np.max(np.abs(back.times - path.times)))
            ez = abs(back.zeta - path.zeta)
            ok = ok and et <= 1e-10 and ez <= 1e-10
            detail += f", t err={et:.1e} (1e-10), zeta err={ez:.1e} (1e-10)"
        return ok, detail

    return fn, gate


def _simulate(model, kind, n, seed, tmp):
    args = SimpleNamespace(samples=n, dt=0.01, horizon=400.0, seed=seed,
                           x0=2.0, mode="jump_in", epsilon=0.05, beta=0.25,
                           ext_horizon=5.0)

    def fn():
        with tempfile.TemporaryDirectory(dir=tmp) as d:
            out = os.path.join(d, f"{kind}.jsonl")
            lines = cli.simulate(model, kind, args, out)
            with open(out) as fh:
                text = fh.read()
        return lines, text

    def gate(out):
        lines, text = out
        recs = [json.loads(line) for line in lines]
        ok = len(recs) == n and text == "\n".join(lines) + "\n"
        if kind == "pssmp":  # starts at x0
            ok = ok and all(r["x0"] == 2.0 and
                            math.isclose(r["x"][0], 2.0, rel_tol=1e-6)
                            for r in recs)
        else:  # glued jump-in restarts above epsilon, times ordered
            ok = ok and all(
                r["epsilon"] == 0.05
                and all(x >= 0.05 for _, x in r["restarts"])
                and r["zero_hits"] == sorted(r["zero_hits"])
                and all(b >= a for a, b in zip(r["t"], r["t"][1:]))
                for r in recs)
        return ok, f"{len(recs)} {kind} records"

    return fn, gate


def _demo_gate(rep):
    vals = [d["value"] for d in rep["tail_display"]]
    ok = (rep["theta_matches_q"] and rep["condition4_finite"] is False
          and rep["derivative_diverges"]
          and 0.4 < rep["hill_tail_index"] < 1.2
          and len(vals) == 8 and all(v > 0 for v in vals))
    return ok, f"hill tail index={rep['hill_tail_index']:.3f} (0.4..1.2)"


def _jump_and_paths(seed, size, tmp):
    cfg = SimConfig(dt=0.01, horizon=400.0, seed=seed)
    brownian = catalog.brownian()
    two_sided = catalog.two_sided()
    mixed = _mixed_model()
    n = size["jump_n"]
    ops = [
        _op("two_sided.dual_identity_check",
            lambda: expfun.dual_identity_check(two_sided, n, cfg), _z_gate),
        _op("mixed.dual_identity_check",
            lambda: expfun.dual_identity_check(mixed, size["mixed_n"], cfg),
            _z_gate),
        _op("two_sided.hitting_time", *_hitting(two_sided, size["hit_n"],
                                                cfg)),
        _op("brownian.hitting_time", *_hitting(brownian, size["hit_n"], cfg)),
        _op("occupation", *_occupation(brownian, size["excursions"], cfg)),
        _op("brownian.round_trip", *_round_trip(brownian, cfg)),
        _op("two_sided.round_trip", *_round_trip(two_sided, cfg)),
        _op("simulate.pssmp", *_simulate(brownian, "pssmp",
                                         size["sim_pssmp"], seed, tmp)),
        _op("simulate.extension", *_simulate(brownian, "extension",
                                             size["sim_ext"], seed, tmp)),
        _op("counterexample_demo",
            lambda: verify.counterexample_demo(1.0, 0.75, 0.01,
                                               size["demo_n"], cfg),
            _demo_gate),
    ]
    return ops


# -- verify-suite --------------------------------------------------------------


def _suite(scale):
    """The default suite with each check's n scaled.  The scaling check
    keeps its n and its 20 KS seeds, as its gate is a pass rate over those
    seeds, except at smoke size.  The recursion check runs on the drifted
    Brownian model at RECURSION_BETA, where its gate is valid."""
    suite = cli.default_suite()
    for check in suite["checks"]:
        if check["op"] == "recursion":
            check.update(model=model_to_dict(_drifted_brownian()),
                         beta=RECURSION_BETA)
        if "n" not in check:
            continue
        if check["op"] != "scaling":
            check["n"] = max(20, int(check["n"] * scale))
        elif scale < 0.1:
            check.update(n=max(20, int(check["n"] * scale)), seeds=2)
    return suite


def _verify_suite(seed, size):
    suite = _suite(size["suite_scale"])

    def run(speed):
        # Time each check where run_suite looks it up, cli._run_check, with
        # speed samples around it on the pool thread that runs it; the
        # suite's wall time is scaled by the checks' mean scale.
        inner = cli._run_check
        timings = {}

        def timed(check, seed_, stream_base):
            before = speed_now()
            t0, c0 = _clock(), time.thread_time()
            try:
                return inner(check, seed_, stream_base)
            finally:
                wall, cpu = _clock() - t0, time.thread_time() - c0
                after = speed_now()
                timings[stream_base] = (wall, normalized(wall, before, after),
                                        normalized(cpu, before, after))

        cli._run_check = timed
        t0 = _clock()
        try:
            report = cli.run_suite(suite, seed, threads=SUITE_THREADS)
        except Exception:
            report = traceback.format_exc()
        finally:
            cli._run_check = inner
        wall = _clock() - t0
        speed.advance()
        if isinstance(report, str):
            norm = normalized(wall, speed.last)
            return [OpResult("run_suite", wall, norm, False, report, "")], \
                wall, norm
        checks = [timings[1000 * i] for i in range(len(report["checks"]))]
        norm = wall * sum(c[1] for c in checks) / sum(c[0] for c in checks)
        out = []
        for i, check in enumerate(report["checks"]):
            detail = check.get("error") or \
                ", ".join(f"{k}={check[k]:.4g}" for k in
                          ("z", "rate", "value") if k in check
                          and isinstance(check[k], float))
            out.append(OpResult(f"{i}.{check['op']}", checks[i][0],
                                checks[i][2], bool(check["pass"]), detail,
                                digest(check)))
        return out, wall, norm

    return [run]


def build(name, seed, size="full", tmp=None):
    """Set up workload ``name`` and return the ops of one pass."""
    size = SIZES[size]
    if name == "gauss-estimators":
        return _gauss_estimators(seed, size)
    if name == "jump-and-paths":
        return _jump_and_paths(seed, size, tmp)
    if name == "verify-suite":
        return _verify_suite(seed, size)
    raise ValueError(f"unknown workload {name!r}")
