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

from .errors import (
    BetaOutOfRange,
    ModelDoesNotHitZero,
    ModelFileError,
    NotCramerRoot,
    TiltOutsideDomain,
)

__all__ = [
    "Exponential",
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
        if not 0.0 < self.rate < math.inf:
            raise ValueError(f"Exponential jump rate must be finite and > 0, "
                             f"got {self.rate!r}")
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
class PointMass:
    """Deterministic jump size."""

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"point-mass value must be finite, "
                             f"got {self.value!r}")

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
        if not 0.0 < self.rate < math.inf:
            raise ValueError(f"compound Poisson rate must be finite and > 0, "
                             f"got {self.rate!r}")

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


def _upper_gamma(a: float, z: float) -> float:
    """Upper incomplete gamma Gamma(a, z) for 0 < a < 1 and z >= 0: the
    series Gamma(a) - gamma(a, z) below z = 1 (DLMF 8.7), the continued
    fraction by the modified Lentz method from z = 1 on (DLMF 8.9)."""
    eps = 2.0 ** -52
    if z < 1.0:
        # gamma(a, z) = z^a e^{-z} sum_n z^n / (a (a+1) ... (a+n))
        term = total = 1.0 / a
        n = 0
        while term > eps * total:
            n += 1
            term *= z / (a + n)
            total += term
        return math.gamma(a) - total * z ** a * math.exp(-z)
    # z^a e^{-z} / (z+1-a - 1(1-a) / (z+3-a - 2(2-a) / (z+5-a - ...)))
    b = z + 1.0 - a
    c, d = 1e300, 1.0 / b
    h, ratio, n = d, 0.0, 0
    while abs(ratio - 1.0) > eps:  # a NaN z stops the loop too
        n += 1
        an = -n * (n - a)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        ratio = d * c
        h *= ratio
    return h * z ** a * math.exp(-z)


@dataclass(frozen=True)
class TemperedPower:
    """Jump intensity e^{-q|x|} |x|^{-1-beta} on sign*(delta, inf).

    Jumps below the cutoff delta are not part of the model (a subordinator
    needs no compensation); the implied bias bound for dropping the small
    jumps of the untruncated intensity is delta^{1-beta}/(1-beta).

    Intensity, exponent and derivative are closed forms.  With
    a = 1 - beta and Gamma(a, z) the upper incomplete gamma,

        E(c) = int_delta^inf e^{-cx} x^{-1-beta} dx
             = (delta^{-beta} e^{-c delta} - c^beta Gamma(a, c delta)) / beta,
        D(c) = int_delta^inf e^{-cx} x^{-beta} dx = c^{beta-1} Gamma(a, c delta),

    by parts, with E(0) = delta^{-beta}/beta and D(0) = +inf.  For
    s = sign*lam <= q the intensity is E(q), the exponent
    E(q - s) - E(q) and its derivative sign*D(q - s).
    """

    q: float
    beta: float
    delta: float
    sign: int = 1
    total_intensity: float = field(init=False, compare=False, default=0.0)

    def __post_init__(self):
        if not 0.0 <= self.q < math.inf:
            raise ValueError(f"tempering rate q must be finite and >= 0, "
                             f"got {self.q!r}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("power index beta must be in (0, 1)")
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"truncation delta must be finite and > 0, "
                             f"got {self.delta!r}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "total_intensity", self._tail(self.q))

    def _tail(self, c: float) -> float:
        """E(c) of the class docstring; c = 0 needs no case of its own."""
        beta, delta = self.beta, self.delta
        return (delta ** -beta * math.exp(-c * delta)
                - c ** beta * _upper_gamma(1.0 - beta, c * delta)) / beta

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
        return self._tail(self.q - s) - self.total_intensity

    def exponent_derivative(self, lam: float) -> float:
        s = self.sign * lam
        if s >= self.q:
            return math.inf if self.sign > 0 else -math.inf
        c = self.q - s
        return self.sign * c ** (self.beta - 1.0) * _upper_gamma(
            1.0 - self.beta, c * self.delta)

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


def _positive_root(model: LevyModel) -> Optional[float]:
    """The positive root of psi, or None when psi stays negative on
    (0, sup E): sup itself when psi(sup) = 0, else bisected in a bracket."""
    sup = model.domain_sup
    hi = None
    if not math.isfinite(sup):
        # unbounded domain: scan geometrically; by convexity, if psi has not
        # turned positive by a huge lambda it never will
        lams = (2.0 ** i for i in range(80))
        hi = next((lam for lam in lams if model.psi(lam) > 0), None)
    else:
        v = model.psi(sup)
        if abs(v) <= 1e-9:
            return sup
        if v < 0:
            return None
        if math.isfinite(v):
            hi = sup
        else:
            # psi -> +inf as lam -> sup-; walk toward the boundary
            lam = sup * 0.5
            while sup - lam > 1e-14 * max(1.0, sup):
                if model.psi(lam) > 0:
                    hi = lam
                    break
                lam = sup - 0.5 * (sup - lam)
    if hi is None:
        return None
    lo = 0.0
    if model.killing == 0:
        # psi(0) = 0; move lo into the dip so the bracket is strict
        lo = hi * 0.5
        while model.psi(lo) >= 0:
            lo *= 0.5
            if lo < 1e-300:
                break
    while hi - lo > ROOT_TOL or abs(model.psi(0.5 * (lo + hi))) > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # no float left between them
            break
        if model.psi(mid) < 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-17 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def cramer_root(model: LevyModel) -> CramerReport:
    """Locate the positive root of psi (Cramer's condition) by bisection.

    psi(0) = -kappa <= 0 and psi is strictly convex, so there is at most one
    positive root; it is absent when psi stays negative up to sup E.
    """
    if not model.hits_zero():
        raise ModelDoesNotHitZero(
            "model needs killing > 0 or negative mean to hit zero")
    sup = model.domain_sup
    theta = _positive_root(model)
    if theta is None:
        return CramerReport(
            domain_sup=sup, theta=None, psi_prime_at_theta=None,
            alpha_theta=None, jump_in_range=(0.0, min(1.0 / model.alpha, sup)),
            continuous_extension_exists=False)
    # condition 4 of the existence theorem: psi'(theta) < inf
    psi_prime = model.psi_derivative(theta)
    return CramerReport(
        domain_sup=sup, theta=theta, psi_prime_at_theta=psi_prime,
        alpha_theta=model.alpha * theta,
        jump_in_range=(0.0, min(1.0 / model.alpha, theta)),
        # the bisection's width bounds theta's error, so a bracket that
        # reaches alpha*theta = 1 is the boundary, not an extension
        continuous_extension_exists=model.alpha * (theta + ROOT_TOL) < 1.0,
        condition4_finite=math.isfinite(psi_prime))


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


# a field is named path.key, or key alone when the path is empty
def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ModelFileError(f"{path}.{key}: missing required field"
                             .lstrip("."))
    return doc[key]


def _number(doc: dict, key: str, path: str, finite: bool = True) -> float:
    v = _require(doc, key, path)
    name = f"{path}.{key}".lstrip(".")
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ModelFileError(f"{name}: expected a number, got {v!r}")
    if finite and not math.isfinite(v):
        raise ModelFileError(f"{name}: expected a finite number, got {v!r}")
    return float(v)


def _interval(doc: dict, path: str):
    """The fields a < b of a test-function spec, both finite."""
    a, b = (_number(doc, key, path, finite=False) for key in ("a", "b"))
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"{path}: {doc['kind']} needs finite a < b, got "
                         f"a={a}, b={b}")
    return a, b


def _sign(doc: dict, key: str, path: str) -> int:
    v = doc.get(key, "+")
    if v not in ("+", "-"):
        raise ModelFileError(f"{path}.{key}: expected '+' or '-', got {v!r}")
    return 1 if v == "+" else -1


# the model-file name of each jump law and jump component; a part's other
# fields are written under their own names
_LAWS = {"exponential": Exponential, "point_mass": PointMass}
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


def _read_json(path: str):
    """The JSON document in a file; unparsable text is a ModelFileError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"$: invalid JSON: {exc}") from exc


def load_model(path: str) -> LevyModel:
    return model_from_dict(_read_json(path))
