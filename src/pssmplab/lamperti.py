"""Lamperti transformation between Levy paths and positive self-similar paths.

Forward direction: given a path of xi and a starting point x0 > 0, the clock

    A(s) = integral_0^s e^{xi_r / alpha} dr

is computed exactly segment by segment (xi is piecewise linear between the
recorded points), and the self-similar path is read off as

    X_u = x0 * exp(xi_{tau(u * x0^{-1/alpha})}),   tau = right-continuous
                                                   inverse of A,

sampled at the image times u_i = x0^{1/alpha} * A(s_i).  The first hitting
time of 0 is t0 = x0^{1/alpha} * A(zeta) for killed paths, and the limit of
x0^{1/alpha} * A for conservative paths whose clock converges within the
horizon.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import HIT, REL_TOL, _check_n, marginal_batch
from .errors import HorizonTooShort, StartsAtZero
from .expfun import sample_I_batch
from .models import LevyModel
from .paths import LevyPath, SimConfig

__all__ = ["PssmpPath", "levy_to_pssmp", "pssmp_to_levy",
           "hitting_time_samples", "pssmp_marginal"]

# a conservative path's clock has converged when its last _TAIL_WINDOW of
# time adds less than REL_TOL of the total
_TAIL_WINDOW = 4.0


@dataclass
class PssmpPath:
    """Positive self-similar path sampled at the image times of the clock.

    ``t0`` is the first hitting time of 0 when it was reached (by killing or
    by clock convergence); ``values[-1]`` is then the left limit X_{t0-}.
    """

    times: np.ndarray
    values: np.ndarray
    t0: Optional[float]
    x0: float
    alpha: float
    truncated: bool = False

    def to_json_record(self) -> str:
        return json.dumps({
            "t": self.times.tolist(),
            "x": self.values.tolist(),
            "t0": self.t0,
            "x0": self.x0,
        })


def _check_positive(name: str, v: float) -> None:
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"{name} must be finite and > 0, got {v!r}")


def segment_exp_integral(x0, inc, gap, inv_alpha):
    """Exact integral of e^{xi/alpha} over linear segments of xi: from x0,
    rising by inc over gap.  x0 and inc are arrays of one shape; the
    result is a new array of that shape."""
    out = np.multiply(inv_alpha, x0, dtype=float)
    np.exp(out, out=out)
    out *= gap
    d = np.multiply(inv_alpha, inc, dtype=float)
    # (e^d - 1)/d, with its limit 1 at d = 0 taken as 1/1
    phi = np.expm1(d)
    zero = d == 0.0
    phi[zero] = d[zero] = 1.0
    phi /= d
    out *= phi
    return out


def _clock_increments(path: LevyPath, alpha: float) -> np.ndarray:
    start = path.values[:-1]
    gaps = path.times[1:] - path.times[:-1]
    return segment_exp_integral(start, path.left[1:] - start, gaps,
                                1.0 / alpha)


def levy_to_pssmp(path: LevyPath, x0: float, alpha: float,
                  allow_truncated: bool = False) -> PssmpPath:
    """Map a Levy path to the self-similar path started at x0."""
    _check_positive("x0", x0)
    _check_positive("alpha", alpha)
    segs = _clock_increments(path, alpha)
    times = np.empty(segs.size + 1)
    times[0] = 0.0
    segs.cumsum(out=times[1:])
    clock_end = times[-1]
    times *= x0 ** (1.0 / alpha)
    values = np.exp(path.values)
    values *= x0

    if path.zeta is not None:
        return PssmpPath(times=times, values=values, t0=float(times[-1]),
                         x0=x0, alpha=alpha)
    # conservative path: the clock converges iff the tail window is negligible
    tail = segs[path.times[1:] > path.times[-1] - _TAIL_WINDOW].sum()
    if tail < REL_TOL * clock_end:
        return PssmpPath(times=times, values=values, t0=float(times[-1]),
                         x0=x0, alpha=alpha)
    if allow_truncated:
        return PssmpPath(times=times, values=values, t0=None, x0=x0,
                         alpha=alpha, truncated=True)
    raise HorizonTooShort(
        "path neither killed nor clock-convergent within the horizon")


def pssmp_to_levy(path: PssmpPath) -> LevyPath:
    """Invert levy_to_pssmp: recover xi and its own time scale.

    The path is read as the image of a piecewise-linear xi, so each segment
    duration follows from the closed-form clock increment:

        du = x0^{1/alpha} * ds * (e^{b/alpha} - e^{a/alpha}) / ((b - a)/alpha).
    """
    x0 = float(path.values[0])
    if x0 == 0:
        raise StartsAtZero("cannot invert a path started at 0")
    pos = path.values > 0
    values = path.values[pos]
    times = path.times[pos]
    xi = np.log(values / x0)
    inv_alpha = 1.0 / path.alpha
    scale = x0 ** inv_alpha

    du = np.diff(times) / scale
    a, b = xi[:-1], xi[1:]
    # du = ds * e^{a/alpha} * (e^d - 1)/d with d = (b - a)/alpha; the last
    # two factors are the clock increment of the segment over unit time
    ds = du / segment_exp_integral(a, b - a, 1.0, inv_alpha)
    s = np.concatenate(([0.0], np.cumsum(ds)))
    zeta = float(s[-1]) if path.t0 is not None else None
    return LevyPath(times=s, values=xi, left=xi,
                    zeta=zeta, truncated=path.t0 is None)


def hitting_time_samples(model: LevyModel, x0: float, n: int,
                         config: SimConfig):
    """n independent draws of the first hitting time of 0 under P_{x0}.

    Each draw is t0 = x0^{1/alpha} * I with I from sample_I_batch on the
    config's stream, so the identity holds exactly across x0 on shared
    randomness.  Returns (values, censored); censored draws carry the clock
    value reached at the horizon, a lower bound for t0.
    """
    _check_positive("x0", x0)
    values, censored = sample_I_batch(model, n, config)
    return x0 ** (1.0 / model.alpha) * values, censored


def pssmp_marginal(model: LevyModel, x0: float, t: float, n: int,
                   config: SimConfig) -> np.ndarray:
    """n draws of X_t under P_{x0} on the config's stream; 0 where the path
    was absorbed before t."""
    _check_positive("x0", x0)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    _check_n(n)
    try:
        target = t * x0 ** (-1.0 / model.alpha)
    except OverflowError:
        target = math.inf
    if not math.isfinite(target):
        raise ValueError(f"the Lamperti target t * x0^(-1/alpha) overflows "
                         f"at x0={x0!r}, t={t!r}")
    batch = marginal_batch(model, np.full(n, target), config)
    out = np.where(batch.status == HIT, x0 * np.exp(batch.xi), 0.0)
    return out
