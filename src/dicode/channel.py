"""Channel simulation: y_t = h_t x_t + z_t with iid N(0, sigma^2) noise.

Three variants share one entry point:

* ``Awgn``        h = 1 for the whole block
* ``SlowFading``  one fading draw per block, constant across coordinates
* ``FastFading``  iid fading draws per coordinate

``transmit`` draws the fading realization first and the noise second,
always through the supplied Generator; that ordering is part of the
reproducibility contract.
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


def transmit(model: ChannelModel, u: np.ndarray, rng: np.random.Generator):
    """Send codeword u once; returns (y, h_realization).

    h_realization is None for AWGN, a float for slow fading and an
    array of per-coordinate coefficients for fast fading.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise ValueError("codeword must be one-dimensional")
    sigma = math.sqrt(model.sigma2)
    if isinstance(model, Awgn):
        return u + sigma * rng.standard_normal(u.size), None
    if isinstance(model, SlowFading):
        h = float(model.fading.sample(rng))
        return h * u + sigma * rng.standard_normal(u.size), h
    if isinstance(model, FastFading):
        h = np.asarray(model.fading.sample(rng, u.size), dtype=float)
        return h * u + sigma * rng.standard_normal(u.size), h
    raise TypeError(f"unknown channel model {model!r}")


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
