"""Channel simulation: y_t = h_t x_t + z_t with iid N(0, sigma^2) noise.

Three channels share one base class, ``ChannelModel``, and one entry point:

* ``Awgn``        h = 1 for the whole block
* ``SlowFading``  one fading draw per block, constant across coordinates
* ``FastFading``  iid fading draws per coordinate

Each declares its record ``TYPE`` and the shape of its fading draws
(``FADING_DIMS``).  ``CHANNELS`` lists them by type for ``parse_channel``
and the simulate key table, so no caller checks a channel's class.

``transmit`` fills a (rows, n) block, one received word per row, each
row with the next Generator of an iterator; a single word is a one-row
block.  Each Generator draws its fading realization first and its noise
second; that ordering is part of the reproducibility contract.  The law
fills its row of the block in place, and the row is finished (scaled and
shifted by the faded codeword) right after, while it is still in cache;
a caller that sends many blocks can hand ``transmit`` the leading rows
of the same ``block_buffers`` each time.
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


def transmit(model: ChannelModel, u: np.ndarray, rngs, out=None):
    """Send codeword u once per row of the block, drawing row r with the r-th
    generator that the iterable ``rngs`` yields.

    Returns the block (Y, H): row r of Y is the word received with
    generator r, and H is None for AWGN, a vector with one coefficient
    per row for slow fading, or a (rows, n) block for fast fading.  Each
    generator draws its fading first and its noise second, so row r does
    not depend on the other rows; one word is a one-row block.  ``rngs``
    may yield one reused Generator, reseeded for each row: a row is drawn
    before the next generator is asked for, and callers must not keep
    the generators it yields.

    ``out``, a (Y, H) pair like ``block_buffers`` makes, is the block:
    every row of it is filled in place and returned, taking just as many
    generators from ``rngs``, so a caller can send one iterator's trials
    over many blocks.  An iterator that runs out first is refused.
    Without ``out`` the block has one row per generator of ``rngs``.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("codeword must be one-dimensional")
    if out is None:
        rngs = list(rngs)
        out = block_buffers(model, len(rngs), u.size)
    Y, H = out
    if Y.shape[1] != u.size:
        raise ValueError(f"a word of length {u.size} does not fit buffers of shape {Y.shape}")
    scale, r = math.sqrt(model.sigma2), 0
    for rng in itertools.islice(rngs, len(Y)):
        y = Y[r]
        if H is not None:  # H[r, ...]: a view of the row (fast) or the entry (slow)
            model.fading.sample(rng, out=H[r, ...])
        rng.standard_normal(out=y)
        # sigma*z + h*u, elementwise as in y = h x + z
        y *= scale
        y += u if H is None else H[r] * u
        r += 1
    if r < len(Y):
        raise ValueError(f"{r} generators for a block of {len(Y)} rows")
    return Y, H


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
