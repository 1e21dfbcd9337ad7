"""Killed Levy process models: characteristics, Laplace exponent, tilting, duality.

A model bundles drift, Gaussian coefficient, a list of compound-Poisson-style
jump components, a killing rate and the self-similarity index alpha of the
positive Markov process obtained from it by time change.  The Laplace exponent

    psi(lam) = -kappa + b*lam + sigma2*lam**2/2 + sum_j integral (e^{lam x} - 1) nu_j(dx)

is strictly convex on its finiteness domain; everything in this module is a
pure function of immutable values.

Finiteness is stated once: every exponent and mgf returns +inf outside its
domain, and the existence verdicts (the Cramer root, condition 4
psi'(theta) < inf, the boundary-root regime) are read off psi and psi'
alone; ``esscher`` rejects a theta with non-finite psi before any part
is tilted, so ``tilted`` assumes theta inside the domain.

A new jump law for CompoundPoisson is one frozen dataclass providing
``domain_sup`` (the upper end of its mgf domain, which brackets the root
search), ``mgf`` and ``mgf_derivative`` (+inf outside the domain),
``tilted(theta)`` returning the tilted law, ``reflected()`` and
``sample(rng, size)``, plus one entry in ``_LAWS``.  A new jump component
next to CompoundPoisson and TemperedPower provides ``intensity``,
``domain_sup``, ``exponent`` and ``exponent_derivative`` (+inf outside
the domain), ``tilted``, ``reflected`` and ``sample_sizes``, plus one entry
in ``_JUMPS``.  The dataclass fields are the model-file format: each init
field is written under its own name, a ``sign`` field as "+" or "-"
(optional on reading, "+" by default) and a ``law`` field as a nested law.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional, Tuple

import numpy as np
from scipy import integrate

from .errors import (
    BetaOutOfRange,
    ModelDoesNotHitZero,
    ModelFileError,
    NotCramerRoot,
    TiltOutsideDomain,
)

__all__ = [
    "Exponential",
    "TwoSidedExponential",
    "PointMass",
    "CompoundPoisson",
    "TemperedPower",
    "LevyModel",
    "CramerReport",
    "BetaClass",
    "cramer_root",
    "esscher",
    "dual",
    "classify_beta",
    "load_model",
    "model_from_dict",
    "model_to_dict",
    "tempered_power_killing_for_root",
]

_QUAD_TOL = 1e-10
ROOT_TOL = 1e-12      # bisection width and |psi(theta)| of cramer_root
TILT_TOL = 1e-8       # |psi(theta)| that esscher accepts as a root
CRITICAL_TOL = 1e-9   # |psi(beta)| that classify_beta reads as critical


# ---------------------------------------------------------------------------
# jump laws for compound Poisson components


@dataclass(frozen=True)
class Exponential:
    """One-sided exponential jump law with the given rate; sign +1 or -1."""

    rate: float
    sign: int = 1

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("Exponential jump rate must be > 0")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def domain_sup(self) -> float:
        return self.rate if self.sign > 0 else math.inf

    def mgf(self, lam: float) -> float:
        s = self.sign * lam
        if s >= self.rate:
            return math.inf
        return self.rate / (self.rate - s)

    def mgf_derivative(self, lam: float) -> float:
        s = self.sign * lam
        if s >= self.rate:
            return math.inf
        return self.sign * self.rate / (self.rate - s) ** 2

    def tilted(self, theta: float) -> "Exponential":
        return Exponential(self.rate - self.sign * theta, self.sign)

    def reflected(self) -> "Exponential":
        return Exponential(self.rate, -self.sign)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.sign * rng.exponential(1.0 / self.rate, size=size)


@dataclass(frozen=True)
class TwoSidedExponential:
    """Mixture of an upward Exp(rate_pos) and a downward Exp(rate_neg) jump."""

    rate_pos: float
    rate_neg: float
    p_pos: float

    def __post_init__(self):
        if self.rate_pos <= 0 or self.rate_neg <= 0:
            raise ValueError("two-sided exponential rates must be > 0")
        if not 0.0 <= self.p_pos <= 1.0:
            raise ValueError("p_pos must be in [0, 1]")

    @property
    def domain_sup(self) -> float:
        return self.rate_pos if self.p_pos > 0 else math.inf

    def mgf(self, lam: float) -> float:
        out = 0.0
        if self.p_pos > 0:
            if lam >= self.rate_pos:
                return math.inf
            out += self.p_pos * self.rate_pos / (self.rate_pos - lam)
        if self.p_pos < 1:
            if lam <= -self.rate_neg:
                return math.inf
            out += (1 - self.p_pos) * self.rate_neg / (self.rate_neg + lam)
        return out

    def mgf_derivative(self, lam: float) -> float:
        if not math.isfinite(self.mgf(lam)):
            return math.inf
        out = 0.0
        if self.p_pos > 0:
            out += self.p_pos * self.rate_pos / (self.rate_pos - lam) ** 2
        if self.p_pos < 1:
            out -= (1 - self.p_pos) * self.rate_neg / (self.rate_neg + lam) ** 2
        return out

    def tilted(self, theta: float) -> "TwoSidedExponential":
        m = self.mgf(theta)
        mp = self.p_pos * self.rate_pos / (self.rate_pos - theta) if self.p_pos > 0 else 0.0
        # a side with no mass keeps its rate: its domain bound is not real
        return TwoSidedExponential(
            self.rate_pos - theta if self.p_pos > 0 else self.rate_pos,
            self.rate_neg + theta if self.p_pos < 1 else self.rate_neg,
            mp / m)

    def reflected(self) -> "TwoSidedExponential":
        return TwoSidedExponential(self.rate_neg, self.rate_pos, 1.0 - self.p_pos)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        up = rng.random(size) < self.p_pos
        out = np.where(
            up,
            rng.exponential(1.0 / self.rate_pos, size=size),
            -rng.exponential(1.0 / self.rate_neg, size=size),
        )
        return out


@dataclass(frozen=True)
class PointMass:
    """Deterministic jump size."""

    value: float

    @property
    def domain_sup(self) -> float:
        return math.inf

    def mgf(self, lam: float) -> float:
        try:
            return math.exp(lam * self.value)
        except OverflowError:  # finite, but beyond the float range
            return math.inf

    def mgf_derivative(self, lam: float) -> float:
        return self.value * self.mgf(lam)

    def tilted(self, theta: float) -> "PointMass":
        return self

    def reflected(self) -> "PointMass":
        return PointMass(-self.value)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value)


# ---------------------------------------------------------------------------
# jump components


@dataclass(frozen=True)
class CompoundPoisson:
    """Jumps at the given Poisson rate with law drawn from ``law``."""

    rate: float
    law: object

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("compound Poisson rate must be > 0")

    @property
    def intensity(self) -> float:
        return self.rate

    @property
    def domain_sup(self) -> float:
        return self.law.domain_sup

    def exponent(self, lam: float) -> float:
        return self.rate * (self.law.mgf(lam) - 1.0)

    def exponent_derivative(self, lam: float) -> float:
        return self.rate * self.law.mgf_derivative(lam)

    def tilted(self, theta: float) -> "CompoundPoisson":
        return CompoundPoisson(self.rate * self.law.mgf(theta),
                               self.law.tilted(theta))

    def reflected(self) -> "CompoundPoisson":
        return CompoundPoisson(self.rate, self.law.reflected())

    def sample_sizes(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self.law.sample(rng, size)


@dataclass(frozen=True)
class TemperedPower:
    """Jump intensity e^{-q|x|} |x|^{-1-beta} on sign*(delta, inf).

    Jumps below the cutoff delta are not part of the model (a subordinator
    needs no compensation); the implied bias bound for dropping the small
    jumps of the untruncated intensity is delta^{1-beta}/(1-beta).
    """

    q: float
    beta: float
    delta: float
    sign: int = 1
    total_intensity: float = field(init=False, compare=False, default=0.0)

    def __post_init__(self):
        if self.q < 0:
            raise ValueError("tempering rate q must be >= 0")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("power index beta must be in (0, 1)")
        if self.delta <= 0:
            raise ValueError("truncation delta must be > 0")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        val, _ = integrate.quad(
            lambda x: math.exp(-self.q * x) * x ** (-1.0 - self.beta),
            self.delta, math.inf, epsabs=_QUAD_TOL, epsrel=1e-12, limit=200)
        object.__setattr__(self, "total_intensity", val)

    @property
    def intensity(self) -> float:
        return self.total_intensity

    @property
    def domain_sup(self) -> float:
        return self.q if self.sign > 0 else math.inf

    def exponent(self, lam: float) -> float:
        s = self.sign * lam
        if s > self.q:
            return math.inf
        q, beta, delta = self.q, self.beta, self.delta
        # (e^{sx} - 1) e^{-qx} written as a difference of bounded exponentials
        val, _ = integrate.quad(
            lambda x: (math.exp((s - q) * x) - math.exp(-q * x)) * x ** (-1.0 - beta),
            delta, math.inf, epsabs=_QUAD_TOL, epsrel=1e-12, limit=200)
        return val

    def exponent_derivative(self, lam: float) -> float:
        s = self.sign * lam
        if s >= self.q:
            return math.inf if self.sign > 0 else -math.inf
        q, beta, delta = self.q, self.beta, self.delta
        val, _ = integrate.quad(
            lambda x: math.exp((s - q) * x) * x ** (-beta),
            delta, math.inf, epsabs=_QUAD_TOL, epsrel=1e-12, limit=200)
        return self.sign * val

    def tilted(self, theta: float) -> "TemperedPower":
        return TemperedPower(self.q - self.sign * theta, self.beta,
                             self.delta, self.sign)

    def reflected(self) -> "TemperedPower":
        return TemperedPower(self.q, self.beta, self.delta, -self.sign)

    def sample_sizes(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # Pareto proposal via inverse CDF, thinned by exp(-q (x - delta))
        out = np.empty(size)
        filled = 0
        while filled < size:
            need = size - filled
            x = self.delta * rng.random(need) ** (-1.0 / self.beta)
            if self.q > 0:
                keep = rng.random(need) < np.exp(-self.q * (x - self.delta))
                x = x[keep]
            out[filled:filled + x.size] = x
            filled += x.size
        return self.sign * out


# ---------------------------------------------------------------------------
# the model


@dataclass(frozen=True)
class LevyModel:
    """Characteristics of a (possibly killed) Levy process plus the index alpha."""

    drift: float = 0.0
    gaussian: float = 0.0
    jumps: Tuple = ()
    killing: float = 0.0
    alpha: float = 1.0

    def __post_init__(self):
        for name in ("drift", "gaussian", "killing", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.gaussian < 0:
            raise ValueError("gaussian coefficient must be >= 0")
        if self.killing < 0:
            raise ValueError("killing rate must be >= 0")
        object.__setattr__(self, "jumps", tuple(self.jumps))

    # -- Laplace exponent -------------------------------------------------

    @property
    def domain_sup(self) -> float:
        return min((j.domain_sup for j in self.jumps), default=math.inf)

    def psi(self, lam: float) -> float:
        """Laplace exponent; +inf encodes lam outside the finiteness domain."""
        out = -self.killing + self.drift * lam + 0.5 * self.gaussian * lam * lam
        for j in self.jumps:
            out += j.exponent(lam)
        return out

    def psi_derivative(self, lam: float) -> float:
        out = self.drift + self.gaussian * lam
        for j in self.jumps:
            d = j.exponent_derivative(lam)
            if not math.isfinite(d):
                return d
            out += d
        return out

    def mean(self) -> float:
        """Mean displacement per unit time given survival, psi'(0)."""
        return self.psi_derivative(0.0)

    def hits_zero(self) -> bool:
        return self.killing > 0 or self.mean() < 0


class BetaClass(enum.Enum):
    JUMP_IN_EXISTS = "jump_in_exists"
    CRITICAL = "critical"
    NEITHER = "neither"


@dataclass(frozen=True)
class CramerReport:
    domain_sup: float
    theta: Optional[float]
    psi_prime_at_theta: Optional[float]
    alpha_theta: Optional[float]
    jump_in_range: Tuple[float, float]
    continuous_extension_exists: bool
    condition4_finite: Optional[bool] = None

    def to_json(self) -> dict:
        def enc(v):
            if v is None:
                return None
            return v if math.isfinite(v) else ("inf" if v > 0 else "-inf")

        return {
            "domain_sup": enc(self.domain_sup),
            "theta": self.theta,
            "psi_prime_at_theta": enc(self.psi_prime_at_theta),
            "alpha_theta": self.alpha_theta,
            "jump_in_range": list(self.jump_in_range),
            "continuous_extension_exists": self.continuous_extension_exists,
            "condition4_finite": self.condition4_finite,
        }


# ---------------------------------------------------------------------------
# operations


def _find_upper_sign_change(model: LevyModel):
    """Return ("bracket", hi) with psi(hi) > 0, ("boundary", sup) for an
    exact root at the domain boundary, or None when psi stays negative on
    (0, sup E)."""
    sup = model.domain_sup
    if math.isfinite(sup):
        v = model.psi(sup)
        if math.isfinite(v):
            if abs(v) <= 1e-9:
                return ("boundary", sup)
            if v < 0:
                return None
            hi = sup
        else:
            # psi -> +inf as lam -> sup-; walk toward the boundary
            hi = None
            lam = sup * 0.5
            while sup - lam > 1e-14 * max(1.0, sup):
                if model.psi(lam) > 0:
                    hi = lam
                    break
                lam = sup - 0.5 * (sup - lam)
            if hi is None:
                return None
        return ("bracket", hi)
    # unbounded domain: scan geometrically; by convexity, if psi has not
    # turned positive by a huge lambda it never will
    lam = 1.0
    for _ in range(80):
        v = model.psi(lam)
        if v > 0:
            return ("bracket", lam)
        lam *= 2.0
    return None


def cramer_root(model: LevyModel) -> CramerReport:
    """Locate the positive root of psi (Cramer's condition) by bisection.

    psi(0) = -kappa <= 0 and psi is strictly convex, so there is at most one
    positive root; it is absent when psi stays negative up to sup E.
    """
    if not model.hits_zero():
        raise ModelDoesNotHitZero(
            "model needs killing > 0 or negative mean to hit zero")
    sup = model.domain_sup
    theta = None
    found = _find_upper_sign_change(model)
    if found is not None:
        kind, val = found
        if kind == "boundary":
            theta = val
        else:
            hi = val
            lo = 0.0
            if model.killing == 0:
                # psi(0) = 0; move lo into the dip so the bracket is strict
                lo = hi * 0.5
                while model.psi(lo) >= 0:
                    lo *= 0.5
                    if lo < 1e-300:
                        break
            while hi - lo > ROOT_TOL or \
                    abs(model.psi(0.5 * (lo + hi))) > ROOT_TOL:
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:  # no float left between them
                    break
                if model.psi(mid) < 0:
                    lo = mid
                else:
                    hi = mid
                if hi - lo < 1e-17 * max(1.0, hi):
                    break
            theta = 0.5 * (lo + hi)

    inv_alpha = 1.0 / model.alpha
    upper = min(inv_alpha, theta if theta is not None else sup)
    jump_in_range = (0.0, upper)

    psi_prime = None
    alpha_theta = None
    cond4 = None
    cont = False
    if theta is not None:
        # condition 4 of the existence theorem: psi'(theta) < inf
        psi_prime = model.psi_derivative(theta)
        cond4 = math.isfinite(psi_prime)
        alpha_theta = model.alpha * theta
        cont = alpha_theta < 1.0
    return CramerReport(
        domain_sup=sup,
        theta=theta,
        psi_prime_at_theta=psi_prime,
        alpha_theta=alpha_theta,
        jump_in_range=jump_in_range,
        continuous_extension_exists=cont,
        condition4_finite=cond4,
    )


def esscher(model: LevyModel, theta: float) -> LevyModel:
    """Exponential tilt at the Cramer root: removes killing, shifts the drift
    by gaussian*theta and tilts every jump law; psi_tilted(lam) = psi(lam+theta)."""
    if theta == 0.0:
        if model.killing != 0:
            raise NotCramerRoot("theta=0 is a root only for conservative models")
        return model
    v = model.psi(theta)
    if not math.isfinite(v):
        raise TiltOutsideDomain(
            f"theta={theta} outside the Laplace-exponent domain: "
            f"psi({theta}) = {v}")
    if abs(v) > TILT_TOL:
        raise NotCramerRoot(
            f"psi({theta}) = {v:g} is not 0 within {TILT_TOL:g}")
    return LevyModel(
        drift=model.drift + model.gaussian * theta,
        gaussian=model.gaussian,
        jumps=tuple(j.tilted(theta) for j in model.jumps),
        killing=0.0,
        alpha=model.alpha,
    )


def dual(model: LevyModel) -> LevyModel:
    """The model of -xi: negated drift, reflected jump laws."""
    return LevyModel(
        drift=-model.drift,
        gaussian=model.gaussian,
        jumps=tuple(j.reflected() for j in model.jumps),
        killing=model.killing,
        alpha=model.alpha,
    )


def classify_beta(model: LevyModel, beta: float) -> BetaClass:
    """Jump-in extension existence verdict for a candidate index beta."""
    if not 0.0 < beta < 1.0 / model.alpha:
        raise BetaOutOfRange(f"beta={beta} not in (0, {1.0 / model.alpha})")
    v = model.psi(beta)
    if math.isfinite(v) and abs(v) <= CRITICAL_TOL:
        return BetaClass.CRITICAL
    if v < 0:
        return BetaClass.JUMP_IN_EXISTS
    return BetaClass.NEITHER


def tempered_power_killing_for_root(q: float, beta: float, delta: float) -> float:
    """Killing rate that places the Cramer root of a TemperedPower(q, beta,
    delta) subordinator exactly at the domain boundary q."""
    spec = TemperedPower(q, beta, delta)
    return spec.exponent(q)


# ---------------------------------------------------------------------------
# JSON model files


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ModelFileError(f"{path}.{key}: missing required field")
    return doc[key]


def _number(doc: dict, key: str, path: str) -> float:
    v = _require(doc, key, path)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ModelFileError(f"{path}.{key}: expected a number, got {v!r}")
    if not math.isfinite(v):
        raise ModelFileError(
            f"{path}.{key}: expected a finite number, got {v!r}")
    return float(v)


def _sign(doc: dict, key: str, path: str) -> int:
    v = doc.get(key, "+")
    if v not in ("+", "-"):
        raise ModelFileError(f"{path}.{key}: expected '+' or '-', got {v!r}")
    return 1 if v == "+" else -1


# the model-file name of each jump law and jump component; a part's other
# fields are written under their own names
_LAWS = {"exponential": Exponential,
         "two_sided_exponential": TwoSidedExponential,
         "point_mass": PointMass}
_JUMPS = {"compound_poisson": CompoundPoisson, "tempered_power": TemperedPower}
_TYPE_NAMES = {cls: name for table in (_LAWS, _JUMPS)
               for name, cls in table.items()}


def _part_to_dict(part) -> dict:
    doc = {"type": _TYPE_NAMES[type(part)]}
    for f in fields(part):
        if not f.init:
            continue
        v = getattr(part, f.name)
        if f.name == "sign":
            v = "+" if v > 0 else "-"
        elif f.name == "law":
            v = _part_to_dict(v)
        doc[f.name] = v
    return doc


def _part_from_dict(doc: dict, path: str, table: dict, what: str):
    """The part of ``table`` named by doc["type"], every init field read
    from doc; ``what`` names the table in the unknown-type error."""
    if not isinstance(doc, dict):
        raise ModelFileError(f"{path}: expected an object")
    kind = _require(doc, "type", path)
    cls = table.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ModelFileError(f"{path}.type: unknown {what} {kind!r}")
    args = {}
    for f in fields(cls):
        if not f.init:
            continue
        if f.name == "sign":
            args[f.name] = _sign(doc, f.name, path)
        elif f.name == "law":
            args[f.name] = _part_from_dict(_require(doc, f.name, path),
                                           f"{path}.law", _LAWS, "jump law")
        else:
            args[f.name] = _number(doc, f.name, path)
    try:
        return cls(**args)
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc


def model_from_dict(doc: dict, path: str = "$") -> LevyModel:
    if not isinstance(doc, dict):
        raise ModelFileError(f"{path}: expected a JSON object")
    jumps = doc.get("jumps", [])
    if not isinstance(jumps, list):
        raise ModelFileError(f"{path}.jumps: expected an array")
    try:
        return LevyModel(
            drift=_number(doc, "drift", path),
            gaussian=_number(doc, "gaussian", path),
            jumps=tuple(_part_from_dict(j, f"{path}.jumps[{i}]", _JUMPS,
                                        "jump spec")
                        for i, j in enumerate(jumps)),
            killing=_number(doc, "killing", path),
            alpha=_number(doc, "alpha", path),
        )
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc


def model_to_dict(model: LevyModel) -> dict:
    return {
        "drift": model.drift,
        "gaussian": model.gaussian,
        "jumps": [_part_to_dict(j) for j in model.jumps],
        "killing": model.killing,
        "alpha": model.alpha,
    }


def load_model(path: str) -> LevyModel:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"$: invalid JSON: {exc}") from exc
    return model_from_dict(doc)
