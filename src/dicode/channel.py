"""Channel simulation: y_t = h_t x_t + z_t with iid N(0, sigma^2) noise.

Three variants share one entry point:

* ``Awgn``        h = 1 for the whole block
* ``SlowFading``  one fading draw per block, constant across coordinates
* ``FastFading``  iid fading draws per coordinate

``transmit`` sends one word per supplied Generator, as the rows of one
(rows, n) block; a single word is a one-row block.  Each Generator draws
its fading realization first and its noise second; that ordering is part
of the reproducibility contract.  A row is finished (scaled and shifted by the
faded codeword) right after its draws, while it is still in cache, and
a caller that sends many blocks can hand ``transmit`` the same buffers
from ``block_buffers`` each time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .fading import FadingDistribution


@dataclass(frozen=True)
class Awgn:
    sigma2: float = 1.0

    def __post_init__(self):
        if not (self.sigma2 >= 0 and math.isfinite(self.sigma2)):
            raise ValueError("noise variance must be nonnegative and finite")

    def to_config(self):
        return {"type": "awgn", "sigma2": self.sigma2}


@dataclass(frozen=True)
class SlowFading:
    fading: FadingDistribution
    sigma2: float = 1.0

    def __post_init__(self):
        if not (self.sigma2 >= 0 and math.isfinite(self.sigma2)):
            raise ValueError("noise variance must be nonnegative and finite")

    def to_config(self):
        return {"type": "slow-fading", "sigma2": self.sigma2, "fading": self.fading.to_config()}


@dataclass(frozen=True)
class FastFading:
    fading: FadingDistribution
    sigma2: float = 1.0

    def __post_init__(self):
        if not (self.sigma2 >= 0 and math.isfinite(self.sigma2)):
            raise ValueError("noise variance must be nonnegative and finite")

    def to_config(self):
        return {"type": "fast-fading", "sigma2": self.sigma2, "fading": self.fading.to_config()}


ChannelModel = Union[Awgn, SlowFading, FastFading]


def transmit(model: ChannelModel, u: np.ndarray, rngs, out=None):
    """Send codeword u once per generator in the sequence ``rngs``.

    Returns the block (Y, H): row r of Y is the word received with
    generator r, and H is None for AWGN, a vector with one coefficient
    per row for slow fading, or a (rows, n) block for fast fading.  Each
    generator draws its fading first and its noise second, so row r does
    not depend on the other rows; one word is a one-row block.

    ``out``, a (Y, H) pair from ``block_buffers`` with at least one row
    per generator, makes the send write into (and return the leading
    rows of) those arrays instead of allocating new ones.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("codeword must be one-dimensional")
    Y, H = block_buffers(model, len(rngs), u.size) if out is None else out
    if Y.shape[0] < len(rngs) or Y.shape[1] != u.size:
        raise ValueError(f"a ({len(rngs)}, {u.size}) block does not fit buffers of shape {Y.shape}")
    Y = Y[:len(rngs)]
    H = None if H is None else H[:len(rngs)]
    scale = math.sqrt(model.sigma2)
    for r, rng in enumerate(rngs):
        y = Y[r]
        if H is not None:
            H[r] = model.fading.sample(rng, None if H.ndim == 1 else u.size)
        rng.standard_normal(out=y)
        # sigma*z + h*u, elementwise as in y = h x + z
        y *= scale
        y += u if H is None else H[r] * u
    return Y, H


def block_buffers(model: ChannelModel, rows: int, n: int):
    """Uninitialised (Y, H) arrays for ``rows`` received words of length n."""
    if not isinstance(model, (Awgn, SlowFading, FastFading)):
        raise TypeError(f"unknown channel model {model!r}")
    H = None
    if isinstance(model, SlowFading):
        H = np.empty(rows)
    elif isinstance(model, FastFading):
        H = np.empty((rows, n))
    return np.empty((rows, n)), H


def parse_channel(cfg: dict) -> ChannelModel:
    """The channel of a resolved ``channel`` record, whose fading law is already built."""
    kind, fading = cfg.get("type"), cfg.get("fading")
    sigma2 = cfg.get("sigma2", 1.0)
    if kind == "awgn":
        if fading is not None:
            raise ValueError("channel.fading is set, but an awgn channel has no fading; "
                             "use slow-fading or fast-fading, or drop channel.fading")
        return Awgn(sigma2)
    if kind not in ("slow-fading", "fast-fading"):
        raise ValueError(f"unknown channel type {kind!r}")
    if fading is None:
        raise ValueError(f"a {kind} channel needs channel.fading, a fading law record")
    return (SlowFading if kind == "slow-fading" else FastFading)(fading, sigma2)
