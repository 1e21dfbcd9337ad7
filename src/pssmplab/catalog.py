"""Reference model catalog used by the tests and the default CLI suite."""

from __future__ import annotations

from .models import (
    CompoundPoisson,
    Exponential,
    LevyModel,
    TemperedPower,
    tempered_power_killing_for_root,
)

__all__ = ["brownian", "two_sided", "killed_drift", "pure_drift",
           "bessel", "boundary_root"]


def brownian() -> LevyModel:
    """Killed standard Brownian motion; theta = 1/2, psi'(theta) = 1/2."""
    return LevyModel(drift=0.0, gaussian=1.0, jumps=(), killing=0.125,
                     alpha=1.0)


def two_sided() -> LevyModel:
    """Killed drift plus upward Exp(2) and downward Exp(1) jumps, each at
    rate 1/2.  With no Gaussian part, paths are exact: straight drift
    segments between exact jump epochs (no time-discretization error)."""
    return LevyModel(
        drift=-1.0, gaussian=0.0,
        jumps=(CompoundPoisson(0.5, Exponential(2.0)),
               CompoundPoisson(0.5, Exponential(1.0, -1))),
        killing=1.0 / 3.0, alpha=0.5)


def killed_drift(rate: float = 0.5) -> LevyModel:
    """Killed unit downward drift: no Cramer root, every jump-in index works."""
    return LevyModel(drift=-1.0, gaussian=0.0, jumps=(), killing=rate,
                     alpha=1.0)


def pure_drift(alpha: float = 1.0) -> LevyModel:
    """Conservative unit downward drift: I = alpha exactly."""
    return LevyModel(drift=-1.0, gaussian=0.0, jumps=(), killing=0.0,
                     alpha=alpha)


def bessel(delta: float = 1.0) -> LevyModel:
    """Lamperti exponent of the Bessel process BES(delta) killed at 0, for
    0 < delta < 2: xi_t = B_t + (delta/2 - 1) t with alpha = 1/2.  With
    mu = 1 - delta/2, theta = 2 mu and alpha*theta = mu; delta = 1 is
    Brownian motion killed at 0."""
    if not 0.0 < delta < 2.0:
        raise ValueError(f"delta must be in (0, 2), got {delta!r}")
    return LevyModel(drift=delta / 2.0 - 1.0, gaussian=1.0, jumps=(),
                     killing=0.0, alpha=0.5)


def boundary_root(q: float = 1.0, beta: float = 0.75, delta: float = 0.01,
                  alpha: float = 0.5) -> LevyModel:
    """Killed tempered-power subordinator whose Cramer root sits exactly at
    the edge of the Laplace-exponent domain, so psi'_-(theta) diverges.

    alpha defaults to 0.5 so that alpha * theta < 1 and the continuous
    extension exists despite the failing derivative condition.
    """
    kappa = tempered_power_killing_for_root(q, beta, delta)
    return LevyModel(drift=0.0, gaussian=0.0,
                     jumps=(TemperedPower(q=q, beta=beta, delta=delta),),
                     killing=kappa, alpha=alpha)
