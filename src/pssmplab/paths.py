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


def stream_rng(seed: int, stream_id: int) -> np.random.Generator:
    """Independent generator for one worker stream (counter-based split)."""
    if stream_id < 0:
        raise ValueError("stream_id must be >= 0")
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(stream_id)],
                   dtype=np.uint64)
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

    def rng(self) -> np.random.Generator:
        return stream_rng(self.seed, self.stream_id)

    def substream(self, offset: int) -> "SimConfig":
        return replace(self, stream_id=self.stream_id + offset)


@dataclass
class LevyPath:
    """Discretized path of xi.  ``values`` holds the post-jump value at each
    time; where ``pre_jump`` is not NaN the left limit at that time differs
    (a jump landed there) and segments interpolate to the left limit."""

    times: np.ndarray
    values: np.ndarray
    pre_jump: np.ndarray
    zeta: Optional[float]
    truncated: bool

    def left_limits(self) -> np.ndarray:
        """Value of xi just before each grid time."""
        return np.where(np.isnan(self.pre_jump), self.values, self.pre_jump)

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
    incs = model.drift * gaps
    if model.gaussian > 0:
        incs = incs + math.sqrt(model.gaussian) * np.sqrt(gaps) * \
            rng.standard_normal(gaps.size)
    pre_jump = np.full(times.size, np.nan)
    if jt.size:
        left = np.concatenate(([0.0], np.cumsum(incs + sizes[1:]) - sizes[1:]))
        values = left + sizes
        pre_jump[is_jump] = left[is_jump]
    else:
        values = np.concatenate(([0.0], np.cumsum(incs)))

    return LevyPath(times=times, values=values, pre_jump=pre_jump,
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
