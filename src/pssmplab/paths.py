"""Seeded, reproducible sample paths of the killed Levy process.

Randomness contract: the generator for (seed, stream_id) is a Philox
counter-based bit generator keyed by the 128-bit word (seed, stream_id), so
distinct stream ids give statistically independent streams and results do not
depend on thread scheduling.  Within one path the draw order is fixed:
killing time, then per-jump-component event times and sizes, then the
Gaussian grid increments.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .models import LevyModel

__all__ = ["SimConfig", "LevyPath", "stream_rng", "sample_levy_path",
           "sample_increment_batch"]


def _key_word(name: str, value) -> int:
    """``value`` as one 64-bit word of the Philox key: an int (Python or
    numpy, not bool) in [0, 2**64); anything else would alias another
    stream or fail later."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or not 0 <= int(value) < 2 ** 64:
        raise ValueError(f"{name} must be an integer in [0, 2**64), "
                         f"got {value!r}")
    return int(value)


def stream_rng(seed: int, stream_id: int) -> np.random.Generator:
    """Independent generator for one worker stream (counter-based split)."""
    key = np.array([_key_word("seed", seed),
                    _key_word("stream_id", stream_id)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.01
    horizon: float = 400.0
    seed: int = 0
    stream_id: int = 0

    def __post_init__(self):
        if not math.isfinite(self.dt):
            raise ValueError("dt must be finite")
        if math.isnan(self.horizon):
            raise ValueError("horizon must not be NaN")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.dt > self.horizon:
            raise ValueError("dt must not exceed horizon")
        for name in ("seed", "stream_id"):
            word = _key_word(name, getattr(self, name))
            object.__setattr__(self, name, word)

    def rng(self) -> np.random.Generator:
        return stream_rng(self.seed, self.stream_id)

    def substream(self, offset: int) -> "SimConfig":
        return replace(self, stream_id=self.stream_id + offset)


@dataclass
class LevyPath:
    """Discretized path of xi.  ``values`` holds the post-jump value at each
    time and ``left`` the left limit xi_{t-}, to which the segment ending
    there interpolates; the two differ only where a jump landed.  On a path
    without jumps ``left`` is the ``values`` array itself, not a copy."""

    times: np.ndarray
    values: np.ndarray
    left: np.ndarray
    zeta: Optional[float]
    truncated: bool

    def to_json_record(self) -> str:
        return json.dumps({
            "t": self.times.tolist(),
            "x": self.values.tolist(),
            "zeta": self.zeta,
        })


def _merge_jumps(grid, jt, js):
    """Insert the sorted jump epochs jt (sizes js) into the sorted grid.

    Epochs on a grid point or on an earlier epoch (measure-zero collisions)
    are dropped.  Returns the merged times, the jump mask and the jump size
    at each time (0 off the jumps).
    """
    pos = np.searchsorted(grid, jt)  # jt <= grid[-1], so pos < grid.size
    keep = grid[pos] != jt
    keep[1:] &= np.diff(jt) > 0
    at = pos[keep] + np.arange(int(keep.sum()))
    is_jump = np.zeros(grid.size + at.size, bool)
    is_jump[at] = True
    times = np.empty(is_jump.size)
    times[at] = jt[keep]
    times[~is_jump] = grid
    sizes = np.zeros(is_jump.size)
    sizes[at] = js[keep]
    return times, is_jump, sizes


def _check_path_ends(model: LevyModel, config: SimConfig) -> None:
    """A path ends at its killing time or at a finite horizon."""
    if model.killing == 0 and config.horizon == math.inf:
        raise ValueError("horizon must be finite on a model without killing")


def sample_levy_path(model: LevyModel, config: SimConfig,
                     rng: Optional[np.random.Generator] = None) -> LevyPath:
    """One path on [0, min(horizon, zeta)].

    Gaussian increments are exact over each inter-point gap; jump times are
    drawn from their exponential clocks and inserted into the grid exactly
    (not rounded), which the Lamperti time change depends on.
    """
    _check_path_ends(model, config)
    if rng is None:
        rng = config.rng()
    zeta = rng.exponential(1.0 / model.killing) if model.killing > 0 else math.inf
    t_end = min(config.horizon, zeta)
    killed = zeta <= config.horizon
    truncated = not killed

    jump_times = []
    jump_sizes = []
    for spec in model.jumps:
        count = rng.poisson(spec.intensity * t_end)
        times = np.sort(rng.random(count) * t_end)
        sizes = spec.sample_sizes(rng, count)
        jump_times.append(times)
        jump_sizes.append(sizes)

    # k * dt below t_end, then t_end: sorted and distinct, no sort needed
    n_grid = int(math.ceil(t_end / config.dt))
    grid = np.arange(n_grid + 2, dtype=float)
    grid *= config.dt
    n_below = int(np.searchsorted(grid[:n_grid + 1], t_end))
    grid[n_below] = t_end
    grid = grid[:n_below + 1]

    jt = np.concatenate(jump_times) if jump_times else np.empty(0)
    if jt.size:
        js = np.concatenate(jump_sizes)
        order = np.argsort(jt, kind="stable")
        jt, js = jt[order], js[order]
        times, is_jump, sizes = _merge_jumps(grid, jt, js)
    else:
        times = grid

    gaps = times[1:] - times[:-1]  # np.diff, without its call overhead
    # drift * gaps + sqrt(gaussian) * sqrt(gaps) * normals, in place
    if model.gaussian > 0:
        incs = np.sqrt(gaps)
        incs *= math.sqrt(model.gaussian)
        incs *= rng.standard_normal(gaps.size)
        gaps *= model.drift
        incs += gaps
    else:
        incs = gaps
        incs *= model.drift
    left = np.empty(times.size)
    left[0] = 0.0
    if jt.size:
        incs += sizes[1:]
        incs.cumsum(out=left[1:])
        left[1:] -= sizes[1:]  # the running sum less the jump landing there
        values = left + sizes
        left = np.where(is_jump, left, values)
    else:
        incs.cumsum(out=left[1:])
        values = left

    return LevyPath(times=times, values=values, left=left,
                    zeta=zeta if killed else None, truncated=truncated)


def sample_increment_batch(model: LevyModel, t: float, n: int,
                           config: SimConfig):
    """n independent draws of xi_t on the config's stream, together with a
    killed-before-t flag.

    The Gaussian part is one exact N(0, gaussian * t) draw per path; jump
    totals are exact Poisson sums.  Returns (values, killed) where values[killed] are left in place but only
    surviving draws enter E(e^{lam xi_t}, t < zeta) estimates.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and >= 0, got {t!r}")
    if t > config.horizon:
        raise ValueError("t must not exceed the configured horizon")
    rng = config.rng()
    if model.killing > 0:
        killed = rng.exponential(1.0 / model.killing, n) < t
    else:
        killed = np.zeros(n, bool)

    values = np.full(n, model.drift * t)
    if model.gaussian > 0:
        values = values + math.sqrt(model.gaussian * t) * \
            rng.standard_normal(n)
    for spec in model.jumps:
        counts = rng.poisson(spec.intensity * t, n)
        total = int(counts.sum())
        if total:
            sizes = spec.sample_sizes(rng, total)
            idx = np.repeat(np.arange(n), counts)
            values = values + np.bincount(idx, weights=sizes, minlength=n)
    return values, killed
