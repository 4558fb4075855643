"""Rate bounds and reference capacities.

DI rates are measured against the n log n scaling: R = log2(M) / (n log2 n).
The converse side is a sphere-packing count of minimum-distance balls
inside the power sphere; the minimum distance forced by error targets
comes from the Gaussian tail.  Shannon capacities (outage, ergodic) are
included for context only; they live on the ordinary n scaling and are
not comparable numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateFadingError, QuadratureError
from .fading import Constant, DiscreteMixture, FadingDistribution, quantile_abs

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


# Rational approximation coefficients (Acklam); refined below to full
# double precision, so callers may rely on ~1e-15 absolute error.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def inv_norm_cdf(p: float) -> float:
    """Standard normal quantile, absolute error well below 1e-9.

    Acklam's rational approximation followed by one Halley refinement
    against the erfc-based forward CDF.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly in (0, 1), got {p!r}")
    if p < _P_LOW:
        q = math.sqrt(-2 * math.log(p))
        x = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1)
    elif p <= 1 - _P_LOW:
        q = p - 0.5
        r = q * q
        x = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
            (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1)
    else:
        q = math.sqrt(-2 * math.log(1 - p))
        x = -(((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1)
    for _ in range(2):
        err = _norm_cdf(x) - p
        u = err * _SQRT_2PI * math.exp(0.5 * x * x)
        x = x - u / (1 + 0.5 * x * u)
    return x


def min_distance_lower_bound(lambda_sum: float, sigma: float) -> float:
    """Distance any code must keep between codewords to meet error targets.

    If both error kinds are to stay below lambda1 + lambda2 = lambda_sum,
    a noise sample along the separating direction must fall below d/2
    with probability above 1 - lambda_sum, giving
    d = 2 sigma InvPhi(1 - lambda_sum), clamped at zero once the targets
    allow guessing (lambda_sum >= 1/2).
    """
    if not 0.0 < lambda_sum < 1.0:
        raise ValueError("lambda_sum must lie strictly in (0, 1)")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return max(0.0, 2.0 * sigma * inv_norm_cdf(1.0 - lambda_sum))


def sphere_packing_rate(n: float, power_bound: float, d_min: float) -> float:
    """DI rate cap from packing radius-r balls in the power sphere.

    M <= ((sqrt(A n) + r)^n / r^n) with r = d_min / 2, so
    R <= log2((sqrt(A n) + r) / r) / log2 n, which tends to 1/2.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if power_bound <= 0:
        raise ValueError("power bound must be positive")
    if d_min <= 0:
        raise ValueError("minimum distance must be positive")
    r = d_min / 2.0
    return math.log2((math.sqrt(power_bound * n) + r) / r) / math.log2(n)


def di_rate(log2_size: float, n: float) -> float:
    """Achieved DI rate: log2(M) / (n log2 n)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if log2_size < 0:
        raise ValueError("log2 codebook size must be nonnegative")
    return log2_size / (n * math.log2(n))


def shannon_outage_capacity(dist: FadingDistribution, snr: float, eps: float) -> float:
    """log2(1 + x* snr) with x* the largest x keeping P(h^2 >= x) >= 1 - eps.

    That x* is T^2 for the outage radius T = ``quantile_abs(dist, eps)``,
    the largest T with P(|h| < T) <= eps.  When P(h = 0) > eps no positive
    T qualifies and the capacity is 0.
    """
    if snr <= 0:
        raise ValueError("snr must be positive")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly in (0, 1)")
    try:
        radius = quantile_abs(dist, eps)
    except DegenerateFadingError:
        return 0.0
    return math.log2(1.0 + radius * radius * snr)


def shannon_ergodic_capacity(dist: FadingDistribution, snr: float) -> float:
    """E log2(1 + h^2 snr); exact for atomic laws, quadrature otherwise."""
    if snr <= 0:
        raise ValueError("snr must be positive")
    if isinstance(dist, Constant):
        return math.log2(1.0 + dist.value**2 * snr)
    if isinstance(dist, DiscreteMixture):
        return float(sum(p * math.log2(1.0 + v * v * snr) for v, p in dist.atoms))
    from scipy import integrate

    val, err = integrate.quad(
        lambda x: dist.pdf(x) * math.log2(1.0 + x * x * snr) if x > 0 else 0.0,
        0,
        math.inf,
        epsrel=1e-10,
        epsabs=0,
        limit=300,
    )
    if err > 1e-6 * max(abs(val), 1e-300):
        raise QuadratureError(f"ergodic capacity quadrature did not converge (err {err:g})")
    return val


@dataclass(frozen=True)
class RateReport:
    """One row of a rate study: what a codebook achieves vs. what the
    packing bound allows, with optional reference capacities."""

    n: float
    log2_size: float
    rate: float
    upper_bound: float
    power_bound: float
    d_min: float
    outage_capacity: float | None = None
    ergodic_capacity: float | None = None


def rate_report(
    n: float,
    log2_size: float,
    power_bound: float,
    d_min: float,
    dist: FadingDistribution | None = None,
    snr: float | None = None,
    outage_eps: float | None = None,
) -> RateReport:
    c_out = c_erg = None
    if dist is not None and snr is not None:
        c_erg = shannon_ergodic_capacity(dist, snr)
        if outage_eps is not None:
            c_out = shannon_outage_capacity(dist, snr, outage_eps)
    return RateReport(
        n=n,
        log2_size=log2_size,
        rate=di_rate(log2_size, n),
        upper_bound=sphere_packing_rate(n, power_bound, d_min),
        power_bound=power_bound,
        d_min=d_min,
        outage_capacity=c_out,
        ergodic_capacity=c_erg,
    )
