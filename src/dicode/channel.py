"""Channel simulation: y_t = h_t x_t + z_t with iid N(0, sigma^2) noise.

Three variants share one entry point:

* ``Awgn``        h = 1 for the whole block
* ``SlowFading``  one fading draw per block, constant across coordinates
* ``FastFading``  iid fading draws per coordinate

``transmit`` sends one word per supplied Generator: a single word, or
the rows of one (rows, n) array.  Each Generator draws its fading realization
first and its noise second; that ordering is part of the
reproducibility contract.  A row is finished (scaled and shifted by the
faded codeword) right after its draws, while it is still in cache, and
a caller that sends many blocks can hand ``transmit`` the same buffers
from ``block_buffers`` each time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .fading import FadingDistribution, parse_distribution


@dataclass(frozen=True)
class Awgn:
    sigma2: float = 1.0

    def __post_init__(self):
        if not self.sigma2 >= 0:
            raise ValueError("noise variance must be nonnegative")

    def to_config(self):
        return {"type": "awgn", "sigma2": self.sigma2}


@dataclass(frozen=True)
class SlowFading:
    fading: FadingDistribution
    sigma2: float = 1.0

    def __post_init__(self):
        if not self.sigma2 >= 0:
            raise ValueError("noise variance must be nonnegative")

    def to_config(self):
        return {"type": "slow-fading", "sigma2": self.sigma2, "fading": self.fading.to_config()}


@dataclass(frozen=True)
class FastFading:
    fading: FadingDistribution
    sigma2: float = 1.0

    def __post_init__(self):
        if not self.sigma2 >= 0:
            raise ValueError("noise variance must be nonnegative")

    def to_config(self):
        return {"type": "fast-fading", "sigma2": self.sigma2, "fading": self.fading.to_config()}


ChannelModel = Union[Awgn, SlowFading, FastFading]


def transmit(model: ChannelModel, u: np.ndarray, rng, out=None):
    """Send codeword u once per generator.

    With one Generator this returns (y, h): h is None for AWGN, a float
    for slow fading and an array of per-coordinate coefficients for fast
    fading.  With a sequence of Generators it returns the block form
    (Y, H): row r of Y is the word received with generator r, and H is
    None, a vector with one coefficient per row, or a (rows, n) block.
    Either way each generator draws its fading first and its noise
    second, so row r equals the single send with generator r.

    ``out``, a (Y, H) pair from ``block_buffers`` with at least one row
    per generator, makes the block form write into (and return the
    leading rows of) those arrays instead of allocating new ones.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("codeword must be one-dimensional")
    if isinstance(rng, np.random.Generator):
        Y, H = _transmit_rows(model, u, (rng,), None)
        return Y[0], None if H is None else (float(H[0]) if H.ndim == 1 else H[0])
    return _transmit_rows(model, u, rng, out)


def block_buffers(model: ChannelModel, rows: int, n: int):
    """Uninitialised (Y, H) arrays for ``rows`` received words of length n."""
    _check_model(model)
    H = None
    if isinstance(model, SlowFading):
        H = np.empty(rows)
    elif isinstance(model, FastFading):
        H = np.empty((rows, n))
    return np.empty((rows, n)), H


def _check_model(model):
    if not isinstance(model, (Awgn, SlowFading, FastFading)):
        raise TypeError(f"unknown channel model {model!r}")


def _transmit_rows(model, u, rngs, out):
    _check_model(model)
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


def parse_channel(cfg: dict) -> ChannelModel:
    kind = cfg.get("type")
    sigma2 = float(cfg.get("sigma2", 1.0))
    if kind == "awgn":
        if "fading" in cfg:
            raise ValueError("channel.fading is set, but an awgn channel has no fading; "
                             "use slow-fading or fast-fading, or drop channel.fading")
        return Awgn(sigma2)
    if kind == "slow-fading":
        return SlowFading(parse_distribution(cfg["fading"]), sigma2)
    if kind == "fast-fading":
        return FastFading(parse_distribution(cfg["fading"]), sigma2)
    raise ValueError(f"unknown channel type {kind!r}")
