"""Fading coefficient distributions and their moment engine.

The verifier thresholds need E h, E h^2, E h^3, E h^4 and the derived
central quantities to high accuracy.  Moments come from closed forms
where available and from adaptive quadrature otherwise (the Rician case:
Bessel-weighted integrands, no series expansions).  Sampling always goes
through a caller-supplied numpy Generator so seeded runs reproduce.  A
discrete mixture builds its sampling table (atom values and normalized
cdf) once; a draw is a uniform and the count of cdf entries <= it, the
stream and values ``Generator.choice`` with the same probabilities gives.
scipy is imported inside the few methods that call it (the Rician pdf,
cdf and moments, the Nakagami cdf), so importing dicode does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFadingError, QuadratureError

_QUAD_REL = 1e-10  # target passed to quad; contract is 1e-8 relative
_MOMENT_REL = 1e-8


@dataclass(frozen=True)
class FadingMoments:
    """First four raw moments of h plus the centered quantities the
    thresholds use.  c is E h, variance is Var h, cm3 and cm4 are the
    third and fourth central moments, var_centered_sq is Var((h-c)^2)
    and var_sq is Var(h^2)."""

    c: float
    e2: float
    e3: float
    e4: float
    variance: float
    cm3: float
    cm4: float
    var_centered_sq: float
    var_sq: float

    @classmethod
    def from_raw(cls, c: float, e2: float, e3: float, e4: float) -> "FadingMoments":
        variance = _clamp_nonneg(e2 - c * c, e2)
        cm3 = e3 - 3 * c * e2 + 2 * c**3
        cm4 = _clamp_nonneg(e4 - 4 * c * e3 + 6 * c * c * e2 - 3 * c**4, e4)
        var_centered_sq = _clamp_nonneg(cm4 - variance * variance, cm4)
        var_sq = _clamp_nonneg(e4 - e2 * e2, e4)
        return cls(c, e2, e3, e4, variance, cm3, cm4, var_centered_sq, var_sq)


def _clamp_nonneg(value: float, scale: float) -> float:
    if value < 0:
        if value < -1e-8 * max(1.0, abs(scale)):
            raise ArithmeticError(f"moment combination {value} negative beyond tolerance")
        return 0.0
    return value


class FadingDistribution:
    """Base class; subclasses implement sampling, CDF and raw moments."""

    def sample(self, rng: np.random.Generator, size=None):
        raise NotImplementedError

    def cdf(self, x: float) -> float:
        raise NotImplementedError

    def raw_moment(self, k: int) -> float:
        raise NotImplementedError

    def moments(self) -> FadingMoments:
        return FadingMoments.from_raw(
            self.raw_moment(1), self.raw_moment(2), self.raw_moment(3), self.raw_moment(4)
        )

    @property
    def p_zero(self) -> float:
        return 0.0

    @property
    def scale_hint(self) -> float:
        return 1.0

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(FadingDistribution):
    value: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("constant fading value must be finite")

    def sample(self, rng, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    def cdf(self, x):
        return 1.0 if x >= self.value else 0.0

    def raw_moment(self, k):
        return self.value**k

    def moments(self):
        # exact: every central moment vanishes
        v = self.value
        return FadingMoments(v, v * v, v**3, v**4, 0.0, 0.0, 0.0, 0.0, 0.0)

    @property
    def p_zero(self):
        return 1.0 if self.value == 0.0 else 0.0

    @property
    def scale_hint(self):
        return max(abs(self.value), 1.0)

    def to_config(self):
        return {"type": "constant", "value": self.value}


@dataclass(frozen=True)
class Rayleigh(FadingDistribution):
    scale: float = 1.0

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError("Rayleigh scale must be positive and finite")

    def sample(self, rng, size=None):
        return rng.rayleigh(self.scale, size)

    def cdf(self, x):
        if x <= 0:
            return 0.0
        return -math.expm1(-x * x / (2 * self.scale**2))

    def pdf(self, x):
        if x <= 0:
            return 0.0
        s2 = self.scale**2
        return x / s2 * math.exp(-x * x / (2 * s2))

    def raw_moment(self, k):
        # E h^k = scale^k 2^(k/2) Gamma(1 + k/2)
        return self.scale**k * 2 ** (k / 2) * math.gamma(1 + k / 2)

    @property
    def scale_hint(self):
        return self.scale

    def to_config(self):
        return {"type": "rayleigh", "scale": self.scale}


@dataclass(frozen=True)
class Rician(FadingDistribution):
    """Rician fading with shape K (line-of-sight to scatter power ratio)
    and scale Omega = E h^2."""

    shape: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        if not (self.shape >= 0 and self.scale > 0
                and math.isfinite(self.shape) and math.isfinite(self.scale)):
            raise ValueError("Rician needs finite shape >= 0 and scale > 0")

    def _nu_s(self):
        k, om = self.shape, self.scale
        return math.sqrt(k * om / (k + 1)), math.sqrt(om / (2 * (k + 1)))

    def sample(self, rng, size=None):
        nu, s = self._nu_s()
        a = nu + s * rng.standard_normal(size)
        b = s * rng.standard_normal(size)
        return np.hypot(a, b)

    def pdf(self, x):
        # written so the Bessel factor never overflows: I0(z) = i0e(z) e^z
        from scipy import special

        if x <= 0:
            return 0.0
        k, om = self.shape, self.scale
        z = 2 * math.sqrt(k * (k + 1) / om) * x
        expo = -((math.sqrt((k + 1) / om) * x - math.sqrt(k)) ** 2)
        return 2 * (k + 1) * x / om * special.i0e(z) * math.exp(expo)

    def cdf(self, x):
        if x <= 0:
            return 0.0
        from scipy import stats

        nu, s = self._nu_s()
        return float(stats.rice.cdf(x, nu / s, scale=s))

    def raw_moment(self, k):
        from scipy import integrate

        val, err = integrate.quad(
            lambda x: x**k * self.pdf(x), 0, np.inf, epsrel=_QUAD_REL, epsabs=0, limit=300
        )
        if err > _MOMENT_REL * max(abs(val), 1e-300):
            raise QuadratureError(f"Rician moment {k} did not converge (err {err:g})")
        return val

    @property
    def scale_hint(self):
        return math.sqrt(self.scale)

    def to_config(self):
        return {"type": "rician", "shape": self.shape, "scale": self.scale}


@dataclass(frozen=True)
class Nakagami(FadingDistribution):
    """Nakagami-m with shape m >= 1/2 and spread Omega = E h^2."""

    shape: float = 1.0
    spread: float = 1.0

    def __post_init__(self):
        if not (self.shape >= 0.5 and self.spread > 0
                and math.isfinite(self.shape) and math.isfinite(self.spread)):
            raise ValueError("Nakagami needs finite shape >= 1/2 and spread > 0")

    def sample(self, rng, size=None):
        g = rng.gamma(self.shape, self.spread / self.shape, size)
        return np.sqrt(g)

    def cdf(self, x):
        if x <= 0:
            return 0.0
        from scipy import special

        m, om = self.shape, self.spread
        return float(special.gammainc(m, m * x * x / om))

    def pdf(self, x):
        if x <= 0:
            return 0.0
        m, om = self.shape, self.spread
        log_val = (
            math.log(2.0)
            + m * math.log(m / om)
            - math.lgamma(m)
            + (2 * m - 1) * math.log(x)
            - m * x * x / om
        )
        return math.exp(log_val)

    def raw_moment(self, k):
        m, om = self.shape, self.spread
        return (om / m) ** (k / 2) * math.exp(math.lgamma(m + k / 2) - math.lgamma(m))

    @property
    def scale_hint(self):
        return math.sqrt(self.spread)

    def to_config(self):
        return {"type": "nakagami", "shape": self.shape, "spread": self.spread}


@dataclass(frozen=True)
class DiscreteMixture(FadingDistribution):
    """Finite mixture of point masses; atom values may be any reals
    (the slow-fading outage rule only looks at |h|).  Probabilities must
    sum to one within 1e-12."""

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("mixture needs at least one atom")
        total = 0.0
        for value, prob in self.atoms:
            if not math.isfinite(value):
                raise ValueError("atom values must be finite")
            if not prob >= 0:
                raise ValueError("atom probabilities must be nonnegative")
            total += prob
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"atom probabilities sum to {total!r}, not 1")
        # the sampling table, built once: atom values and the normalized cdf
        probs = np.array([p for _, p in self.atoms])
        cdf = np.cumsum(probs / probs.sum())
        cdf /= cdf[-1]
        object.__setattr__(self, "_values", np.array([v for v, _ in self.atoms]))
        object.__setattr__(self, "_cdf", cdf)

    def sample(self, rng, size=None):
        # Generator.choice(len(atoms), size, p=probs) without its checks of p:
        # the same uniforms, and the count of cdf entries <= u (searchsorted right)
        u = rng.random(size)
        idx = np.zeros(np.shape(u), dtype=np.min_scalar_type(len(self._cdf)))
        for c in self._cdf:
            idx += u >= c
        del u  # before the gather: one chunk-sized float array at a time
        return self._values[idx]

    def cdf(self, x):
        return float(sum(p for v, p in self.atoms if v <= x))

    def raw_moment(self, k):
        return float(sum(p * v**k for v, p in self.atoms))

    @property
    def p_zero(self):
        return float(sum(p for v, p in self.atoms if v == 0.0))

    @property
    def scale_hint(self):
        return max(1.0, max(abs(v) for v, _ in self.atoms))

    def to_config(self):
        return {"type": "discrete", "atoms": [[v, p] for v, p in self.atoms]}


_LAWS = {"constant": Constant, "rayleigh": Rayleigh, "rician": Rician,
         "nakagami": Nakagami, "discrete": DiscreteMixture}


def parse_distribution(cfg: dict) -> FadingDistribution:
    """Build a law from a record that names its type and exactly its parameters."""
    law = _LAWS.get(cfg.get("type")) if isinstance(cfg, dict) else None
    if law is None:
        raise ValueError(f"unknown fading law record {cfg!r}")
    params = list(law.__dataclass_fields__)
    if set(cfg) != {"type", *params}:
        raise ValueError(f"a {cfg['type']} fading record takes {params}, got "
                         f"{sorted(set(cfg) - {'type'})}")
    if law is DiscreteMixture:
        return law(tuple((float(v), float(p)) for v, p in cfg["atoms"]))
    return law(*(float(cfg[f]) for f in params))


def quantile_abs(dist: FadingDistribution, eta: float) -> float:
    """Largest threshold T with P(|h| < T) <= eta.

    This is the slow-fading outage radius: channel states with |h| < T
    are declared outages, and eta caps how often that may happen.  Raises
    DegenerateFadingError when P(h = 0) > eta, since then no positive T
    can satisfy the cap.
    """
    if not 0 <= eta < 1:
        raise ValueError("eta must lie in [0, 1)")
    if dist.p_zero > eta:
        raise DegenerateFadingError(
            f"fading law has P(h=0) = {dist.p_zero:g} > eta = {eta:g}; no valid outage radius"
        )
    if isinstance(dist, Constant):
        return abs(dist.value)
    if isinstance(dist, DiscreteMixture):
        mags = sorted({abs(v) for v, p in dist.atoms if p > 0})
        best = 0.0
        for m in mags:
            below = sum(p for v, p in dist.atoms if abs(v) < m)
            if below <= eta:
                best = m
        return best
    # continuous laws on [0, inf): bisect the CDF
    tol = 1e-10 * dist.scale_hint
    lo, hi = 0.0, dist.scale_hint
    while dist.cdf(hi) <= eta:
        hi *= 2
        if hi > 1e12 * dist.scale_hint:
            raise ArithmeticError("outage radius search diverged")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if dist.cdf(mid) <= eta:
            lo = mid
        else:
            hi = mid
    return lo
