"""Channel simulation: y_t = h_t x_t + z_t with iid N(0, sigma^2) noise.

Three channels share one base class, ``ChannelModel``, and one entry point:

* ``Awgn``        h = 1 for the whole block
* ``SlowFading``  one fading draw per block, constant across coordinates
* ``FastFading``  iid fading draws per coordinate

Each declares its record ``TYPE`` and the shape of its fading draws
(``FADING_DIMS``).  ``CHANNELS`` lists them by type for ``parse_channel``
and the simulate key table, so no caller checks a channel's class.

``transmit`` fills a (rows, n) block of ``block_buffers``, one received
word per row, each row with the next Generator of an iterator; a single
word is a one-row block.  Each Generator draws its fading realization
first and its noise second; that ordering is part of the reproducibility
contract.  ``receive``, the one statement of y = h x + z, then makes the
whole block's words from those draws, in place.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import Key
from .fading import FadingDistribution

# every channel's noise variance and default, also in the simulate and moments tables
SIGMA2 = Key(float, "noise variance", min=0, default=1.0)


class ChannelModel:
    """A channel: its record is a ``TYPE``, ``sigma2`` and any ``fading`` law.  Its
    fading draws H span the first ``FADING_DIMS`` axes of a (rows, n) block: none
    (h = 1), one draw per row, or one per coordinate."""

    def __post_init__(self):  # kept as SIGMA2 resolves it: Awgn(1) holds 1.0
        object.__setattr__(self, "sigma2", SIGMA2.check("sigma2", self.sigma2))
        if self.FADING_DIMS and not isinstance(self.fading, FadingDistribution):
            raise ValueError(f"a {self.TYPE} channel needs channel.fading, a fading law record")

    def to_config(self):
        record = {"type": self.TYPE, "sigma2": self.sigma2}
        if self.FADING_DIMS:
            record["fading"] = self.fading.to_config()
        return record


@dataclass(frozen=True)
class Awgn(ChannelModel):
    TYPE, FADING_DIMS = "awgn", 0
    sigma2: float = SIGMA2.default


@dataclass(frozen=True)
class SlowFading(ChannelModel):
    TYPE, FADING_DIMS = "slow-fading", 1
    fading: FadingDistribution
    sigma2: float = SIGMA2.default


@dataclass(frozen=True)
class FastFading(ChannelModel):
    TYPE, FADING_DIMS = "fast-fading", 2
    fading: FadingDistribution
    sigma2: float = SIGMA2.default


# the channel types a `channel` record may name, in --help order
CHANNELS = {model.TYPE: model for model in (Awgn, SlowFading, FastFading)}


def receive(model: ChannelModel, u: np.ndarray, Y: np.ndarray, H) -> np.ndarray:
    """The block y = h x + z for codeword u, in place: Y holds standard normals
    and ends as sigma*Y + h*u, where H is the block's fading as ``block_buffers``
    lays it (None on AWGN) and is left unchanged.  On a fading channel h*u is
    one block-sized temporary; AWGN makes none."""
    Y *= math.sqrt(model.sigma2)
    Y += u if H is None else np.multiply.outer(H, u) if model.FADING_DIMS == 1 else H * u
    return Y


def transmit(model: ChannelModel, u: np.ndarray, rngs, out):
    """Send codeword u once per row of ``out``, a (Y, H) pair like ``block_buffers``
    makes, drawing row r with the r-th generator of the iterable ``rngs``, and
    return the pair, filled in place.

    Row r of Y is the word received with generator r, and H is None for
    AWGN, one coefficient per row for slow fading, or a (rows, n) block
    for fast fading.  Each generator draws its fading first and its
    noise second, so row r does not depend on the other rows.  A block
    takes as many generators as it has rows, so one iterator can feed
    many blocks; one that runs out first is refused.  ``rngs`` may yield
    one reused Generator, reseeded for each row: a row is drawn before
    the next generator is asked for, and callers must not keep the
    generators it yields.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("codeword must be one-dimensional")
    Y, H = out
    if Y.shape[1] != u.size:
        raise ValueError(f"a word of length {u.size} does not fit buffers of shape {Y.shape}")
    r = 0
    for rng in itertools.islice(rngs, len(Y)):
        if H is not None:  # H[r, ...]: a view of the row (fast) or the entry (slow)
            model.fading.sample(rng, out=H[r, ...])
        rng.standard_normal(out=Y[r])
        r += 1
    if r < len(Y):
        raise ValueError(f"{r} generators for a block of {len(Y)} rows")
    return receive(model, u, Y, H), H


def block_buffers(model: ChannelModel, rows: int, n: int):
    """Uninitialised (Y, H) arrays for ``rows`` received words of length n."""
    if not isinstance(model, ChannelModel):
        raise TypeError(f"unknown channel model {model!r}")
    H = np.empty((rows, n)[:model.FADING_DIMS]) if model.FADING_DIMS else None
    return np.empty((rows, n)), H


def parse_channel(cfg: dict) -> ChannelModel:
    """The channel of a resolved ``channel`` record, whose fading law is already built."""
    kind, fading = cfg.get("type"), cfg.get("fading")
    if kind not in CHANNELS:
        raise ValueError(f"unknown channel type {kind!r}")
    model, noise = CHANNELS[kind], {"sigma2": cfg["sigma2"]} if "sigma2" in cfg else {}
    if model.FADING_DIMS:
        return model(fading, **noise)  # which refuses a missing law
    if fading is not None:
        faded = " or ".join(k for k, m in CHANNELS.items() if m.FADING_DIMS)
        raise ValueError(f"channel.fading is set, but an {kind} channel has no fading; "
                         f"use {faded}, or drop channel.fading")
    return model(**noise)
