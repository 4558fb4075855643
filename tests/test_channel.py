"""Channel simulation: y = h x + z coordinatewise."""

import math

import numpy as np
import pytest

from dicode.channel import Awgn, FastFading, SlowFading, block_buffers, parse_channel, transmit
from dicode.config import resolve
from dicode.fading import Constant, DiscreteMixture, Rayleigh
from dicode.harness import CONFIG_KEYS, _gen, _slot_streams


def send_one(model, x, rng):
    """One word as a one-row block: (y, h) of row 0."""
    Y, H = transmit(model, x, [rng])
    return Y[0], None if H is None else H[0]


def test_noiseless_channels_reproduce_the_scaled_input():
    x = np.linspace(-1.0, 1.0, 64)
    rng = np.random.default_rng(0)
    y, h = send_one(Awgn(1e-24), x, rng)
    assert h is None
    assert np.max(np.abs(y - x)) < 1e-9

    y, h = send_one(SlowFading(Constant(2.0), 1e-24), x, rng)
    assert h == 2.0
    assert np.max(np.abs(y - 2 * x)) < 1e-9

    y, h = send_one(FastFading(Constant(0.5), 1e-24), x, rng)
    assert np.array_equal(h, np.full(64, 0.5))
    assert np.max(np.abs(y - 0.5 * x)) < 1e-9


def test_constant_unit_fading_behaves_like_awgn():
    x = np.ones(4096)
    y, h = send_one(FastFading(Constant(1.0), 0.25), x, np.random.default_rng(3))
    z = y - x
    assert np.all(h == 1.0)
    assert z.mean() == pytest.approx(0.0, abs=4 * 0.5 / math.sqrt(z.size))
    assert z.var() == pytest.approx(0.25, rel=0.1)


def test_received_energy_matches_first_principles():
    # E ||y||^2 = E h^2 ||x||^2 + n sigma^2 for fast fading
    n, sigma2 = 256, 0.5
    fading = Rayleigh(1.0)                      # E h^2 = 2
    x = np.full(n, 0.3)
    model = FastFading(fading, sigma2)
    total = 0.0
    reps = 400
    for r in range(reps):
        y, _ = send_one(model, x, np.random.default_rng(1000 + r))
        total += float(np.sum(y**2))
    want = 2.0 * n * 0.09 + n * sigma2
    got = total / reps
    assert got == pytest.approx(want, rel=0.05)


def test_slow_fading_applies_one_coefficient_per_block():
    model = SlowFading(DiscreteMixture(((0.0, 0.5), (2.0, 0.5))), 1e-24)
    x = np.ones(32)
    seen = set()
    for r in range(40):
        y, h = send_one(model, x, np.random.default_rng(r))
        assert isinstance(h, float)
        assert np.max(np.abs(y - h * x)) < 1e-9
        seen.add(h)
    assert seen == {0.0, 2.0}


def test_transmission_is_reproducible_per_seed():
    model = FastFading(Rayleigh(1.0), 1.0)
    x = np.arange(16.0)
    y1, h1 = send_one(model, x, np.random.default_rng(42))
    y2, h2 = send_one(model, x, np.random.default_rng(42))
    assert np.array_equal(y1, y2)
    assert np.array_equal(h1, h2)
    y3, _ = send_one(model, x, np.random.default_rng(43))
    assert not np.array_equal(y1, y3)


def test_noise_variance_scales_as_configured():
    x = np.zeros(100_000)
    for sigma2 in (0.25, 1.0, 4.0):
        y, _ = send_one(Awgn(sigma2), x, np.random.default_rng(5))
        assert y.var() == pytest.approx(sigma2, rel=0.05)


def test_parse_round_trips():
    # a channel record resolves in the simulate key table, which builds its fading law
    models = [
        Awgn(0.5),
        SlowFading(Rayleigh(1.0), 2.0),
        FastFading(DiscreteMixture(((1.0, 1.0),)), 0.1),
    ]
    for m in models:
        assert parse_channel(resolve(m.to_config(), CONFIG_KEYS, "channel.")) == m
    with pytest.raises(ValueError):
        parse_channel({"type": "quantum", "sigma2": 1.0})
    # a fading law on an awgn channel would be dropped without a word
    with pytest.raises(ValueError, match="channel.fading"):
        parse_channel({"type": "awgn", "sigma2": 1.0, "fading": Rayleigh(1.0)})
    for kind in ("slow-fading", "fast-fading"):
        with pytest.raises(ValueError, match=f"a {kind} channel needs channel.fading"):
            parse_channel({"type": kind, "sigma2": 1.0})


@pytest.mark.parametrize("model", [SlowFading, FastFading])
def test_a_fading_channel_without_a_law_is_refused_when_built(model):
    # not later, when transmit reaches for the law's sample
    for law in (None, {"type": "rayleigh", "scale": 1.0}):
        with pytest.raises(ValueError, match=f"^a {model.TYPE} channel needs channel.fading"):
            model(law, 1.0)


def test_rejects_negative_noise_but_allows_zero():
    Awgn(0.0)  # exact zero is allowed for noiseless sanity runs
    with pytest.raises(ValueError):
        Awgn(-0.5)
    with pytest.raises(ValueError):
        FastFading(Rayleigh(1.0), -1.0)
    with pytest.raises(ValueError):  # the one noise check of the shared base class
        SlowFading(Rayleigh(1.0), math.nan)


@pytest.mark.parametrize("model", [
    Awgn(0.5),
    SlowFading(DiscreteMixture(((0.0, 0.3), (1.0, 0.7))), 2.0),
    FastFading(Rayleigh(1.0), 0.7),
], ids=["awgn", "slow", "fast"])
def test_block_rows_equal_single_sends_drawn_fading_first(model):
    # row r of a block send is the one-row block of generator r alone, and
    # each generator draws its fading before its noise; the harness's streams,
    # one generator reseeded for each row, send the rows of fresh generators
    x = np.linspace(-1.0, 2.0, 40)
    reused = np.random.Generator(np.random.PCG64(0))
    for block, out, fresh in (
            ([np.random.default_rng(s) for s in range(5)], None, np.random.default_rng),
            (_slot_streams(reused, 3, 1, 2, 0, 5), block_buffers(model, 5, 40),
             lambda r: _gen(3, 1, 2, r))):
        Y, H = transmit(model, x, block, out=out)
        assert Y.shape == (5, 40)
        for r in range(5):
            rng = fresh(r)
            h = None if isinstance(model, Awgn) else model.fading.sample(
                rng, 40 if isinstance(model, FastFading) else None)
            z = math.sqrt(model.sigma2) * rng.standard_normal(40)
            assert np.array_equal(Y[r], (x if h is None else h * x) + z)
            Y1, H1 = transmit(model, x, [fresh(r)])
            assert np.array_equal(Y[r], Y1[0])
            if h is None:
                assert H is None and H1 is None
            else:
                assert np.array_equal(H[r], h) and np.array_equal(H1[0], h)
        if isinstance(model, SlowFading):
            assert H.shape == (5,) and H1.shape == (1,)


@pytest.mark.parametrize("model", [
    Awgn(0.5),
    SlowFading(DiscreteMixture(((0.0, 0.3), (1.0, 0.7))), 2.0),
    FastFading(Rayleigh(1.0), 0.7),
], ids=["awgn", "slow", "fast"])
def test_block_send_into_reused_buffers_matches_a_fresh_block(model):
    # a block in the leading rows of a caller's buffers equals a fresh
    # block, and stale rows from an earlier, longer block change nothing
    x = np.linspace(-1.0, 2.0, 40)
    bufs = block_buffers(model, 6, 40)

    def lead(rows):  # the leading rows of bufs, as the harness hands a short block
        return tuple(None if b is None else b[:rows] for b in bufs)

    transmit(model, x, [np.random.default_rng(s) for s in range(10, 16)], out=bufs)
    Y, H = transmit(model, x, [np.random.default_rng(s) for s in range(4)], out=lead(4))
    Y0, H0 = transmit(model, x, [np.random.default_rng(s) for s in range(4)])
    assert Y.shape == (4, 40) and np.shares_memory(Y, bufs[0])
    assert np.array_equal(Y, Y0)
    if H0 is None:
        assert H is None and bufs[1] is None
    else:
        assert np.shares_memory(H, bufs[1]) and np.array_equal(H, H0)
    # the buffers fix the row count: one iterator feeds two blocks, and the
    # generators past them stay in the iterator
    rngs = iter([np.random.default_rng(s) for s in range(9)])
    transmit(model, x, rngs, out=bufs)
    Y, H = transmit(model, x, rngs, out=lead(2))
    assert np.array_equal(Y, transmit(model, x, [np.random.default_rng(s) for s in (6, 7)])[0])
    assert next(rngs).random() == np.random.default_rng(8).random()
    with pytest.raises(ValueError, match="does not fit"):
        transmit(model, x[:39], [np.random.default_rng(s) for s in range(6)], out=bufs)
    with pytest.raises(TypeError):
        block_buffers("awgn", 2, 40)


@pytest.mark.parametrize("model", [Awgn(0.5), FastFading(Rayleigh(1.0), 0.7)], ids=["awgn", "fast"])
def test_transmit_refuses_an_iterator_shorter_than_its_buffers(model):
    x = np.linspace(-1.0, 2.0, 40)
    with pytest.raises(ValueError, match="3 generators for a block of 4 rows"):
        transmit(model, x, iter([np.random.default_rng(s) for s in range(3)]),
                 out=block_buffers(model, 4, 40))
    reused = np.random.Generator(np.random.PCG64(0))
    with pytest.raises(ValueError, match="5 generators for a block of 6 rows"):
        transmit(model, x, _slot_streams(reused, 3, 1, 2, 0, 5), out=block_buffers(model, 6, 40))
