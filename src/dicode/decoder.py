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

* ``threshold(u)`` is tau for codeword u, the one rule above applied to
  the verifier's ``genuine_moments(u)``.  With CSI these are the noise
  moments n sigma^2 and 2 n sigma^4 (``noise_moments``); without, they
  are ``impostor_moments`` with u_sent = u.  They never depend on the
  received word, so a caller computes tau once per codeword.
* ``center(u, H)`` is the ball center: h*u, formed in a fast-fading H
  (u on AWGN), the rows h_r*u for slow-fading coefficients h_r, or c*u.
* ``verify(Y, u, H, tau)`` takes a (rows, n) block of received words
  with the matching fading block H (None on AWGN, one coefficient per
  row for slow fading, a (rows, n) block for fast fading) and returns
  (accept, outage): outage is the |h| < radius mask of ``CsiSlow``, the
  one verifier with an outage rule (``OUTAGE``), and None for the others.
  One body serves all three.  Each row is decided by ``statistic``,
  sum_j (Y_j - center_j)^2, the one definition that the moment grid
  (``harness.moment_validation``) reads too.  It is taken in the block's
  own memory: Y is overwritten with the squared differences, and a
  fast-fading H with h*u, so a call allocates no block-sized array.

``CsiFast`` and ``NoCsi`` also give ``statistic_moments(u, u_sent, m)``,
the closed-form mean and variance of that statistic when u_sent is sent
over fast fading with moments m; ``impostor_moments`` is its one entry.

One received word y is decided as the block ``y[None]``, with
``h[None]`` as its fading; y, and a fast-fading h, are overwritten too.

Each verifier declares its ``simulate`` ``MODE``, the channel types it
``SERVES`` and its ball ``CENTER``; ``VERIFIERS`` lists them by mode and
``GRID_MODES`` names each moment-grid mode's verifier.  ``build_verifier``
is the one place a verifier is built for a mode and a channel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import work_count
from .errors import DegenerateFadingError
from .fading import Constant, FadingMoments, quantile_abs

DEVIATION_SCALE = 1.0  # the default scale of every threshold's deviation term


def noise_moments(n: int, sigma2: float) -> tuple[float, float]:
    """Mean n sigma^2 and variance 2 n sigma^4 of ||z||^2, the noise term of every
    statistic and, with CSI, the whole genuine one."""
    if sigma2 < 0:
        raise ValueError("noise variance must be nonnegative")
    return n * sigma2, 2 * n * sigma2**2


def impostor_moments(verifier, u, u_sent, m: FadingMoments) -> tuple[float, float]:
    """Mean and variance of verifier's statistic when u_sent was transmitted
    and identity u is being verified, over fast fading with moments m
    (h = 1 on AWGN).  With u_sent == u these are the genuine moments."""
    u, u_sent = np.asarray(u, dtype=float), np.asarray(u_sent, dtype=float)
    if u.shape != u_sent.shape:
        raise ValueError("codewords must share one shape")
    return verifier.statistic_moments(u, u_sent, m)


def statistic(verifier, Y: np.ndarray, u: np.ndarray, H) -> np.ndarray:
    """Ball statistic of each row of Y: sum_j (Y_j - verifier.center(u, H)_j)^2.
    Y ends as the squared differences, and a fast-fading H as h*u; with one
    coefficient per row, the centers h_r*u go a quarter of ``config.WORK_BYTES``
    (64 KiB) of rows at a time."""
    step = work_count(4 * 8 * Y.shape[-1]) if np.ndim(H) == 1 else max(1, len(Y))
    for r in range(0, len(Y), step):
        Y[r:r + step] -= verifier.center(u, None if H is None else H[r:r + step])
    np.square(Y, out=Y)
    return Y.sum(axis=-1)


class _Ball:
    """What the three verifiers share: tau from their own genuine moments."""

    OUTAGE = False  # an outage rule: |h| below outage_threshold gives no verdict

    def genuine_moments(self, u) -> tuple[float, float]:
        """Mean and variance of the statistic when u itself is sent."""
        return noise_moments(np.size(u), self.sigma2)

    def threshold(self, u) -> float:
        """tau = E xi + deviation_scale sqrt(Var xi ln n) for codeword u.  deviation_scale
        exists for sensitivity studies and defaults to 1."""
        n = np.size(u)
        if n < 2:
            raise ValueError("block length must be >= 2 so ln n > 0")
        mean, var = self.genuine_moments(u)
        return mean + self.deviation_scale * math.sqrt(var * math.log(n))


def _verify(self, Y, u, H, tau):
    """(accept, outage) of block Y; each class binds it as ``verify``, which perfbench wraps."""
    accept = statistic(self, Y, u, H) <= tau
    if not self.OUTAGE:
        return accept, None
    outage = np.abs(H) < self.outage_threshold  # one coefficient per row, left unchanged
    return accept & ~outage, outage


@dataclass(frozen=True)
class CsiFast(_Ball):
    """CSI per coordinate: the ball is centered at h * u (u on AWGN)."""

    MODE, SERVES, CENTER = "csi-fast", ("awgn", "fast-fading"), "h*u"
    sigma2: float
    deviation_scale: float = DEVIATION_SCALE
    verify = _verify

    def center(self, u, H):
        return u if H is None else np.multiply(H, u, out=H)

    def statistic_moments(self, u, u_sent, m: FadingMoments) -> tuple[float, float]:
        """With d = u_sent - u: E = n sigma^2 + E h^2 ||d||_2^2 and
        Var = 2 n sigma^4 + 4 sigma^2 E h^2 ||d||_2^2 + Var h^2 ||d||_4^4."""
        mean, var = noise_moments(u.size, self.sigma2)
        d2, d4 = (float(np.sum((u_sent - u)**k)) for k in (2, 4))
        return mean + m.e2 * d2, var + 4 * self.sigma2 * m.e2 * d2 + m.var_sq * d4


@dataclass(frozen=True)
class CsiSlow(_Ball):
    """Block CSI with an outage rule: |h| below the radius means no verdict.

    For non-outage states the ball center is h*u, which reduces the
    statistic to the plain AWGN one, so the noise moments set tau.
    """

    MODE, SERVES, CENTER, OUTAGE = "csi-slow", ("slow-fading",), "h*u", True
    sigma2: float
    outage_threshold: float
    deviation_scale: float = DEVIATION_SCALE
    verify = _verify

    def center(self, u, H):
        return np.multiply.outer(H, u)


@dataclass(frozen=True)
class NoCsi(_Ball):
    """CSI-free verifier: ball centered at (E h) * u, whatever h was.

    Only meaningful when E h != 0; a zero-mean law collapses all centers
    to the origin and identities become indistinguishable, so that case
    warns.
    """

    MODE, SERVES, CENTER = "no-csi", ("awgn", "fast-fading"), "E[h]*u"
    sigma2: float
    moments: FadingMoments
    deviation_scale: float = DEVIATION_SCALE
    verify = _verify

    def genuine_moments(self, u) -> tuple[float, float]:
        if self.moments.c == 0.0:
            warnings.warn("fading mean is zero: CSI-free centers coincide and identities "
                          "cannot be separated", RuntimeWarning, stacklevel=3)
        return impostor_moments(self, u, u, self.moments)

    def center(self, u, H):
        return self.moments.c * u  # one row, broadcast over the block

    def statistic_moments(self, u, u_sent, m: FadingMoments) -> tuple[float, float]:
        """The genuine statistic xi = ||y - c u||^2 has
          E xi   = n sigma^2 + Var h ||u||_2^2
          Var xi = 2 n sigma^4 + 4 sigma^2 Var h ||u||_2^2 + ||u||_4^4 Var((h-c)^2);
        an impostor u_sent adds the terms in d = u_sent - u."""
        mean, var = noise_moments(u.size, self.sigma2)
        diff, c, sigma2 = u_sent - u, m.c, self.sigma2
        d2, s2, s4 = (float(np.sum(x)) for x in (diff**2, u_sent**2, u_sent**4))
        return mean + m.variance * s2 + c * c * d2, (
            var + 4 * sigma2 * m.variance * s2 + 4 * sigma2 * c * c * d2 + s4 * m.var_centered_sq
            + 4 * m.cm3 * c * float(np.sum(u_sent**3 * diff))
            + 4 * c * c * m.variance * float(np.sum(u_sent**2 * diff**2)))


# the `simulate` verifier modes, in --help order
VERIFIERS = {verifier.MODE: verifier for verifier in (CsiFast, CsiSlow, NoCsi)}
# each moment-grid mode -> the verifier whose statistic it checks
GRID_MODES = {"csi": "csi-fast", "nocsi": "no-csi"}


def build_verifier(mode: str, channel, deviation_scale: float = DEVIATION_SCALE,
                   outage_eta=None, allow_degenerate_outage=False, moments=None):
    """(verifier, outage radius, degenerate) of mode over channel.  Refused unless
    mode serves channel and outage_eta is set just when the verifier has an outage
    rule.  NoCsi takes fading moments (given, else the law's; h = 1 on awgn), and
    CsiSlow the radius of outage_eta (0 where P(h = 0) > eta, if allowed)."""
    cls = VERIFIERS[mode]
    if channel.TYPE not in cls.SERVES:
        served = " or ".join(m for m, v in VERIFIERS.items() if channel.TYPE in v.SERVES)
        raise ValueError(f"verifier.mode {mode} serves {' or '.join(cls.SERVES)} "
                         f"channels, not {channel.TYPE}; {channel.TYPE} takes {served}")
    if cls.OUTAGE != (outage_eta is not None) or (allow_degenerate_outage and not cls.OUTAGE):
        raise ValueError(f"{mode} needs outage_eta" if cls.OUTAGE else f"verifier.mode {mode} has "
                         "no outage rule; drop outage_eta and allow_degenerate_outage")
    if cls is NoCsi:
        law = channel.fading if channel.FADING_DIMS else Constant(1.0)
        return cls(channel.sigma2, moments or law.moments(), deviation_scale), None, False
    if not cls.OUTAGE:
        return cls(channel.sigma2, deviation_scale), None, False
    if not 0 <= outage_eta < 1:
        raise ValueError(f"outage_eta must lie in [0, 1), got {outage_eta!r}")
    try:
        radius, degenerate = quantile_abs(channel.fading, outage_eta), False
    except DegenerateFadingError:
        if not allow_degenerate_outage:
            raise
        radius, degenerate = 0.0, True
    return cls(channel.sigma2, radius, deviation_scale), radius, degenerate
