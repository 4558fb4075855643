"""Ball-membership identification verifiers.

A verifier for identity i asks one question: does the received block lie
in a ball around the expected (faded) codeword?  With channel state
information the ball center uses the realized fading; without it the
center is c*u with c = E h, and the fading spread is absorbed into the
threshold.  Thresholds are always

    tau = E xi + sqrt(Var xi * ln n)

with xi the genuine squared distance statistic and ln the natural log;
Chebyshev then caps the miss probability by 1/ln n.  Squared-radius
units throughout, and the boundary point xi = tau accepts.

The verifiers ``CsiFast``, ``CsiSlow`` and ``NoCsi`` share one shape:

* ``threshold(u)`` is tau for codeword u.  It depends on n and sigma^2
  with CSI and on ||u||_2^2 and ||u||_4^4 without, never on the received
  word, so a caller computes it once per codeword.
* ``center(u, H)`` is the ball center: h*u, the block's h times u, or c*u.
* ``verify(Y, u, H, tau, out=None)`` takes a (rows, n) block of received
  words with the matching fading block H (None on AWGN, one coefficient
  per row for slow fading, a (rows, n) block for fast fading) and
  returns the accept and outage masks.  The statistic of a row is one
  row-sum, sum_j (Y_j - center_j)^2.  ``out``, an array shaped like Y,
  takes the centers and the squared differences; a caller that decides
  many blocks passes the same one each time, so no block-sized array
  is allocated per call.

One received word y is decided as the block ``y[None]``, with
``h[None]`` as its fading.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .fading import FadingMoments


def threshold_csi(n: int, sigma2: float, deviation_scale: float = 1.0) -> float:
    """Ball threshold with CSI: n sigma^2 + sqrt(2 n sigma^4 ln n).

    The genuine statistic is ||z||^2 with E = n sigma^2 and
    Var = 2 n sigma^4.  deviation_scale multiplies the deviation term
    only; it exists for sensitivity studies and defaults to 1.
    """
    if n < 2:
        raise ValueError("block length must be >= 2 so ln n > 0")
    if sigma2 < 0:
        raise ValueError("noise variance must be nonnegative")
    return n * sigma2 + deviation_scale * sigma2 * math.sqrt(2 * n * math.log(n))


def impostor_moments(
    u: np.ndarray,
    u_sent: np.ndarray,
    sigma2: float,
    m: FadingMoments,
    mode: str,
) -> tuple[float, float]:
    """Mean and variance of the verifier statistic when u_sent was
    transmitted and identity u is being verified (fast fading).

    With u_sent == u these are exactly the genuine-statistic moments.
    mode "csi" centers at h*u; mode "nocsi" centers at c*u.
    """
    u = np.asarray(u, dtype=float)
    u_sent = np.asarray(u_sent, dtype=float)
    if u.shape != u_sent.shape:
        raise ValueError("codewords must share one shape")
    n = u.size
    diff = u_sent - u
    d2 = float(np.sum(diff**2))
    if mode == "csi":
        d4 = float(np.sum(diff**4))
        mean = n * sigma2 + m.e2 * d2
        var = 2 * n * sigma2**2 + 4 * sigma2 * m.e2 * d2 + m.var_sq * d4
        return mean, var
    if mode == "nocsi":
        s2 = float(np.sum(u_sent**2))
        s4 = float(np.sum(u_sent**4))
        c = m.c
        mean = n * sigma2 + m.variance * s2 + c * c * d2
        var = (
            2 * n * sigma2**2
            + 4 * sigma2 * m.variance * s2
            + 4 * sigma2 * c * c * d2
            + s4 * m.var_centered_sq
            + 4 * m.cm3 * c * float(np.sum(u_sent**3 * diff))
            + 4 * c * c * m.variance * float(np.sum(u_sent**2 * diff**2))
        )
        return mean, var
    raise ValueError(f"mode must be 'csi' or 'nocsi', got {mode!r}")


def nocsi_threshold(
    u: np.ndarray,
    sigma2: float,
    m: FadingMoments,
    deviation_scale: float = 1.0,
) -> float:
    """Threshold for the CSI-free verifier of codeword u.

    Genuine statistic xi = ||y - c u||^2 has
      E xi   = n sigma^2 + Var h ||u||_2^2
      Var xi = 2 n sigma^4 + 4 sigma^2 Var h ||u||_2^2
               + ||u||_4^4 Var((h-c)^2)
    and tau = E xi + sqrt(Var xi ln n).
    """
    u = np.asarray(u, dtype=float)
    if u.size < 2:
        raise ValueError("block length must be >= 2 so ln n > 0")
    mean, var = impostor_moments(u, u, sigma2, m, "nocsi")
    return mean + deviation_scale * math.sqrt(var * math.log(u.size))


def _ball(Y: np.ndarray, center: np.ndarray, out=None) -> np.ndarray:
    """Squared distance of every row of Y to center, one row-sum each;
    out (shaped like Y, and may be center) holds the squared differences."""
    d = np.subtract(Y, center, out=out)
    np.square(d, out=d)
    return d.sum(axis=-1)


@dataclass(frozen=True)
class CsiFast:
    """CSI per coordinate: the ball is centered at h * u (u on AWGN)."""

    sigma2: float
    deviation_scale: float = 1.0

    def threshold(self, u) -> float:
        return threshold_csi(np.size(u), self.sigma2, self.deviation_scale)

    def center(self, u, H, out=None):
        return u if H is None else np.multiply(H, u, out=out)

    def verify(self, Y, u, H, tau, out=None):
        accept = _ball(Y, self.center(u, H, out), out) <= tau
        return accept, np.zeros_like(accept)


@dataclass(frozen=True)
class CsiSlow:
    """Block CSI with an outage rule: |h| below the radius means no verdict.

    For non-outage states the ball center is h*u, which reduces the
    statistic to the plain AWGN one, so the AWGN threshold applies
    unchanged.
    """

    sigma2: float
    outage_threshold: float
    deviation_scale: float = 1.0

    def threshold(self, u) -> float:
        return threshold_csi(np.size(u), self.sigma2, self.deviation_scale)

    def center(self, u, H, out=None):
        return np.multiply.outer(H, u, out=out)

    def verify(self, Y, u, H, tau, out=None):
        outage = np.abs(H) < self.outage_threshold
        return (_ball(Y, self.center(u, H, out), out) <= tau) & ~outage, outage


@dataclass(frozen=True)
class NoCsi:
    """CSI-free verifier: ball centered at (E h) * u, whatever h was.

    Only meaningful when E h != 0; a zero-mean law collapses all centers
    to the origin and identities become indistinguishable, so that case
    warns.
    """

    sigma2: float
    moments: FadingMoments
    deviation_scale: float = 1.0

    def threshold(self, u) -> float:
        if self.moments.c == 0.0:
            warnings.warn(
                "fading mean is zero: CSI-free centers coincide and identities "
                "cannot be separated",
                RuntimeWarning,
                stacklevel=2,
            )
        return nocsi_threshold(u, self.sigma2, self.moments, self.deviation_scale)

    def center(self, u, H, out=None):
        return self.moments.c * u  # one row, broadcast over the block

    def verify(self, Y, u, H, tau, out=None):
        accept = _ball(Y, self.center(u, H), out) <= tau
        return accept, np.zeros_like(accept)

