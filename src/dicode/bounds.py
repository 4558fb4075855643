"""Rate bounds and reference capacities.

DI rates are measured against the n log n scaling: R = log2(M) / (n log2 n).
The converse side is a sphere-packing count of minimum-distance balls
inside the power sphere; the minimum distance forced by error targets
comes from the Gaussian tail (statistics.NormalDist).  Shannon
capacities (outage, ergodic) are included for context only; they live
on the ordinary n scaling and are not comparable numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateFadingError
# FadingDistribution, of dicode.fading, is named here only in annotations


def min_distance_lower_bound(lambda_sum: float, sigma: float) -> float:
    """Distance any code must keep between codewords to meet error targets.

    If both error kinds are to stay below lambda1 + lambda2 = lambda_sum,
    a noise sample along the separating direction must fall below d/2
    with probability above 1 - lambda_sum, giving
    d = 2 sigma InvPhi(1 - lambda_sum), clamped at zero once the targets
    allow guessing (lambda_sum >= 1/2).  Read off the lower tail as
    -2 sigma InvPhi(lambda_sum), it is exact for any budget in (0, 1/2).
    """
    if not 0.0 < lambda_sum < 1.0:
        raise ValueError("lambda_sum must lie strictly in (0, 1)")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    from statistics import NormalDist  # lazily: it pulls in fractions and decimal, ~0.4 MB RSS

    return max(0.0, -2.0 * sigma * NormalDist().inv_cdf(lambda_sum))


def sphere_packing_rate(n: float, power_bound: float, d_min: float) -> float:
    """DI rate cap from packing radius-r balls in the power sphere.

    M <= ((sqrt(A n) + r)^n / r^n) with r = d_min / 2, so
    R <= log2((sqrt(A n) + r) / r) / log2 n, which tends to 1/2.
    """
    if not n >= 2:
        raise ValueError("n must be >= 2")
    if not power_bound > 0:  # NaN too
        raise ValueError(f"power_bound: must be positive, got {power_bound!r}")
    if not d_min > 0:
        raise ValueError(f"d_min: must be positive, got {d_min!r}")
    r = d_min / 2.0
    return math.log2((math.sqrt(power_bound * n) + r) / r) / math.log2(n)


def di_rate(log2_size: float, n: float) -> float:
    """Achieved DI rate: log2(M) / (n log2 n)."""
    if not n >= 2:
        raise ValueError("n must be >= 2")
    if not log2_size >= 0:
        raise ValueError("log2 codebook size must be nonnegative")
    return log2_size / (n * math.log2(n))


def shannon_outage_capacity(dist: FadingDistribution, snr: float, eps: float) -> float:
    """log2(1 + x* snr) with x* the largest x keeping P(h^2 >= x) >= 1 - eps.

    That x* is T^2 for the outage radius T = ``quantile_abs(dist, eps)``,
    the largest T with P(|h| < T) <= eps.  When P(h = 0) > eps no positive
    T qualifies and the capacity is 0.
    """
    if not snr > 0:
        raise ValueError(f"snr: must be positive, got {snr!r}")
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly in (0, 1)")
    from .fading import quantile_abs  # lazily: codebook, for di_rate, loads no fading law
    try:
        radius = quantile_abs(dist, eps)
    except DegenerateFadingError:
        return 0.0
    return math.log2(1.0 + radius * radius * snr)


def shannon_ergodic_capacity(dist: FadingDistribution, snr: float) -> float:
    """E log2(1 + h^2 snr); exact for atomic laws, quadrature otherwise."""
    if not snr > 0:
        raise ValueError(f"snr: must be positive, got {snr!r}")
    return dist.expect(lambda h: math.log2(1 + h * h * snr), rel=1e-6)


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
    rate, upper_bound = di_rate(log2_size, n), sphere_packing_rate(n, power_bound, d_min)
    request = {"fading": dist, "snr": snr, "outage_eps": outage_eps}
    given = [k for k, v in request.items() if v is not None]
    missing = [k for k in ("fading", "snr") if request[k] is None]
    if given and missing:  # the capacities need a law and an snr, or neither
        raise ValueError(f"{'/'.join(missing)}: required with {'/'.join(given)}")
    c_out = c_erg = None
    if dist is not None and snr is not None:
        c_erg = shannon_ergodic_capacity(dist, snr)
        try:  # snr passed the ergodic capacity's check, so only eps can fail
            c_out = None if outage_eps is None else shannon_outage_capacity(dist, snr, outage_eps)
        except ValueError as exc:
            raise ValueError(f"outage_eps: {exc}") from exc
    return RateReport(
        n=n,
        log2_size=log2_size,
        rate=rate,
        upper_bound=upper_bound,
        power_bound=power_bound,
        d_min=d_min,
        outage_capacity=c_out,
        ergodic_capacity=c_erg,
    )
