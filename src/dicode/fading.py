"""Fading coefficient distributions and their moment engine.

The verifier thresholds need E h, E h^2, E h^3, E h^4 and the derived
central quantities to high accuracy.  Moments come from closed forms
where available and from the one quadrature of ``expect`` otherwise (the
Rician case: Bessel-weighted integrand, no series).  Sampling always goes
through a caller-supplied numpy Generator so seeded runs reproduce; each
law's one sampling body fills a float64 array in place, the caller's
buffer when ``sample`` is given one.  A discrete mixture builds its
sampling table (atom values and normalized cdf) once; a draw is a uniform
and the count of cdf entries <= it, the stream and values
``Generator.choice`` with the same probabilities gives.
scipy is imported inside the few methods that call it (the Rician pdf
and cdf, the Nakagami cdf, the quadrature of ``expect``), so importing
dicode does not load it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import Key, resolve, work_count
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
    """A law of h, checked against its record: a ``TYPE`` name and the ``KEYS``
    of its parameters.  An atomic law lists ``atoms``, ((value, probability), ...);
    a continuous law leaves them None and defines ``pdf`` and ``cdf`` on [0, inf)."""

    atoms = None

    def __post_init__(self):  # kept as KEYS resolves them: Rayleigh(2) holds 2.0
        kw = resolve({name: _plain(getattr(self, name)) for name in self.KEYS}, self.KEYS)
        for name, value in kw.items():
            object.__setattr__(self, name, tuple(value) if isinstance(value, list) else value)

    def sample(self, rng: np.random.Generator, size=None, out=None):
        """Draws of h: a float64 scalar (size None) or an array of shape size;
        given out, a C-contiguous float64 array, fills it in place and returns
        it.  Either way the law's ``_fill`` draws the same stream and values."""
        fill = np.empty(() if size is None else size) if out is None else out
        self._fill(rng, fill)
        return fill[()] if out is None and size is None else fill

    def cdf(self, x: float) -> float:
        return float(sum(p for v, p in self.atoms if v <= x))

    @property
    def p_zero(self) -> float:
        return 0.0 if self.atoms is None else float(sum(p for v, p in self.atoms if v == 0.0))

    def expect(self, f: Callable[[float], float], rel: float = _MOMENT_REL) -> float:
        """E f(h): exact over the atoms, else a quadrature of f times the pdf over
        (0, inf), redone in units s = scale_hint, as s int f(st) pdf(st) dt, where
        the raw one's error estimate misses rel; refused unless an estimate is within
        rel and the quadrature of the pdf alone reads 1 within rel (a law it misses,
        too narrow or too far out, would give a wrong value and a small error)."""
        if self.atoms is not None:
            return float(sum(p * f(v) for v, p in self.atoms))
        if not abs(self._quadrature_mass - 1) <= rel:
            raise QuadratureError(f"{self.TYPE} expectations are out of the quadrature's reach: "
                                  f"it reads the law's mass as {self._quadrature_mass:g}, not 1")
        s = self.scale_hint
        for g in (lambda x: f(x) * self.pdf(x), lambda t: s * f(s * t) * self.pdf(s * t)):
            val, err = _quad(g)
            if err <= rel * max(abs(val), 1e-300):
                return val
        raise QuadratureError(f"{self.TYPE} expectation did not converge (err {err:g})")

    @cached_property
    def _quadrature_mass(self) -> float:
        return _quad(self.pdf)[0]

    def raw_moment(self, k: int) -> float:
        return self.expect(lambda h: h**k)

    def moments(self) -> FadingMoments:
        return FadingMoments.from_raw(*(self.raw_moment(k) for k in range(1, 5)))

    def to_config(self) -> dict:
        """The record parse_distribution builds this law from."""
        return {"type": self.TYPE, **{name: _plain(getattr(self, name)) for name in self.KEYS}}


def _quad(g: Callable[[float], float]) -> tuple[float, float]:
    """The integral of g over (0, inf) and quad's error estimate, judged by
    ``expect``: full_output keeps quad's own warning quiet."""
    from scipy import integrate

    return integrate.quad(g, 0, math.inf, epsrel=_QUAD_REL, epsabs=0, limit=300,
                          full_output=1)[:2]


def _blocks(out: np.ndarray):
    """C-contiguous flat views of out, ``config.WORK_BYTES`` (256 KiB) each, in order."""
    if not out.flags.c_contiguous:  # reshape would copy, losing the draws
        raise ValueError("a law that draws in blocks fills only C-contiguous arrays")
    flat, step = out.reshape(-1), work_count(out.itemsize)
    return (flat[i:i + step] for i in range(0, flat.size, step))


def _plain(value):  # a parameter as its record holds it: tuples become lists
    return [_plain(v) for v in value] if isinstance(value, (tuple, list)) else value


@dataclass(frozen=True)
class Constant(FadingDistribution):
    TYPE = "constant"
    KEYS = {"value": Key(float, "the coefficient h", required=True)}
    value: float = 1.0

    @property
    def atoms(self):
        return ((self.value, 1.0),)

    def _fill(self, rng, out):
        out.fill(self.value)

    def moments(self):
        # exact: every central moment vanishes
        v = self.value
        return FadingMoments(v, v * v, v**3, v**4, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Rayleigh(FadingDistribution):
    TYPE = "rayleigh"
    KEYS = {"scale": Key(float, "sigma > 0; E h^2 = 2 sigma^2", required=True)}
    scale: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.scale > 0:
            raise ValueError("Rayleigh scale must be positive and finite")

    def _fill(self, rng, out):
        # Generator.rayleigh's scale * sqrt(2 e), step by step in place
        rng.standard_exponential(out=out)
        out *= 2
        np.sqrt(out, out=out)
        out *= self.scale

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


@dataclass(frozen=True)
class Rician(FadingDistribution):
    """Rician fading with shape K (line-of-sight to scatter power ratio)
    and scale Omega = E h^2."""

    TYPE = "rician"
    KEYS = {"shape": Key(float, "K >= 0, line-of-sight to scatter power ratio", required=True),
            "scale": Key(float, "Omega > 0, E h^2", required=True)}
    shape: float = 1.0
    scale: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not (self.shape >= 0 and self.scale > 0):
            raise ValueError("Rician needs finite shape >= 0 and scale > 0")

    def _nu_s(self):
        k, om = self.shape, self.scale
        return math.sqrt(k * om / (k + 1)), math.sqrt(om / (2 * (k + 1)))

    def _fill(self, rng, out):
        nu, s = self._nu_s()
        rng.standard_normal(out=out)
        out *= s
        out += nu
        for x in _blocks(out):  # the second normals a block at a time, in stream order
            np.hypot(x, s * rng.standard_normal(x.size), out=x)

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

    @property
    def scale_hint(self):
        return math.sqrt(self.scale)


@dataclass(frozen=True)
class Nakagami(FadingDistribution):
    """Nakagami-m with shape m >= 1/2 and spread Omega = E h^2."""

    TYPE = "nakagami"
    KEYS = {"shape": Key(float, "m >= 1/2", required=True),
            "spread": Key(float, "Omega > 0, E h^2", required=True)}
    shape: float = 1.0
    spread: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not (self.shape >= 0.5 and self.spread > 0):
            raise ValueError("Nakagami needs finite shape >= 1/2 and spread > 0")

    def _fill(self, rng, out):
        # Generator.gamma's scale * standard_gamma, in place
        rng.standard_gamma(self.shape, out=out)
        out *= self.spread / self.shape
        np.sqrt(out, out=out)

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


def _atom(pair) -> tuple[float, float]:
    if not (isinstance(pair, list) and len(pair) == 2):
        raise ValueError(f"an atom is a [value, probability] pair, got {pair!r}")
    return (Key(float, "atom value").check("value", pair[0]),
            Key(float, "its weight", min=0).check("probability", pair[1]))


@dataclass(frozen=True)
class DiscreteMixture(FadingDistribution):
    """Finite mixture of point masses; atom values may be any reals
    (the slow-fading outage rule only looks at |h|).  Probabilities must
    sum to one within 1e-12."""

    TYPE = "discrete"
    KEYS = {"atoms": Key(list, "[value, probability] pairs", min=1, required=True,
                         parse=_atom)}
    # field(): no default, where a bare annotation would inherit atoms = None
    atoms: tuple[tuple[float, float], ...] = field()

    def __post_init__(self):
        super().__post_init__()
        total = sum(p for _, p in self.atoms)
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"atom probabilities sum to {total!r}, not 1")
        # the sampling table, built once: atom values, the thresholds of the
        # normalized cdf that _fill counts, and the dtype of an atom index.
        # Every uniform is below the cdf's last entry, 1.0, so only the others
        # are counted; a one-atom law keeps its 1.0, which counts 0 for every u
        probs = np.array([p for _, p in self.atoms])
        cdf = np.cumsum(probs / probs.sum())
        cdf /= cdf[-1]
        object.__setattr__(self, "_values", np.array([v for v, _ in self.atoms]))
        object.__setattr__(self, "_cdf", cdf)
        object.__setattr__(self, "_cuts", tuple(cdf[:-1] if len(cdf) > 1 else cdf))
        object.__setattr__(self, "_index", np.min_scalar_type(len(cdf) - 1))

    def _fill(self, rng, out):
        # Generator.choice(len(atoms), size, p=probs) without its checks of p:
        # the same uniforms, and the count of cdf entries <= u (searchsorted
        # right), block by block so the temporaries stay small
        first, *rest = self._cuts
        for u in _blocks(out):
            rng.random(out=u)
            idx = np.greater_equal(u, first, out=np.empty(u.shape, self._index))
            for c in rest:
                idx += u >= c
            np.take(self._values, idx, out=u, mode="clip")  # unbuffered; idx is in range


_LAWS = {law.TYPE: law for law in (Constant, Rayleigh, Rician, Nakagami, DiscreteMixture)}
_LAW_TYPE = Key(str, "fading law", choices=tuple(_LAWS))


def parse_distribution(record: dict) -> FadingDistribution:
    """Build a law from a record that names its type and exactly its parameters:
    the record is resolved against the law's KEYS, then the law checks itself."""
    if not isinstance(record, dict) or "type" not in record:
        raise ValueError(f"a fading law record names its type, got {record!r}")
    law = _LAWS[_LAW_TYPE.check("type", record["type"])]
    return law(**resolve({k: v for k, v in record.items() if k != "type"}, law.KEYS))


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
    if dist.atoms is not None:
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
