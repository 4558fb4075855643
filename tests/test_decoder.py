"""Verifier statistics, thresholds, and the closed-form moments.

The moment formulas are the load-bearing part of the whole package, so
they get two independent oracles here:

1. hand recomputation from gamma-function moments for a frozen Rayleigh
   example (values pinned to 13 digits), and
2. direct Monte Carlo of the statistic, coded inline with plain numpy
   (no shared helpers with the implementation), with standard-error
   tolerances.

Verdicts are checked the same way: ``statistic`` and the block
``verify`` against sum_j (y_j - center_j)^2 coded inline, compared with
the threshold, and against |h| < radius for slow-fading outage.
"""

import math
import warnings

import numpy as np
import pytest

from dicode.decoder import (
    CsiFast,
    CsiSlow,
    NoCsi,
    impostor_moments,
    statistic,
    threshold_csi,
)
from dicode.fading import Constant, DiscreteMixture, Rayleigh


def test_threshold_frozen_value():
    # n sigma^2 + sigma^2 sqrt(2 n ln n) at n=1024, sigma^2=1
    assert threshold_csi(1024, 1.0) == pytest.approx(1143.1455171538892, rel=1e-12)


def test_threshold_scales_linearly_in_noise_power():
    base = threshold_csi(500, 1.0)
    for c in (0.25, 2.0, 7.5):
        assert threshold_csi(500, c) == pytest.approx(c * base, rel=1e-12)


def test_threshold_needs_two_coordinates():
    with pytest.raises(ValueError):
        threshold_csi(1, 1.0)


def test_boundary_point_accepts():
    # the ball is closed: statistic exactly at the threshold passes
    n, sigma2 = 16, 1.0
    spec = CsiFast(sigma2)
    u = np.zeros(n)
    h = np.ones((1, n))
    y = np.zeros((1, n))
    y[0, 0] = math.sqrt(threshold_csi(n, sigma2))
    stat = float(np.sum((y - h * u) ** 2))  # one nonzero term, so exact
    assert stat == pytest.approx(spec.threshold(u), rel=1e-12)
    accept, outage = spec.verify(y, u, h, stat)
    assert accept[0] and not outage[0]
    accept, _ = spec.verify(y, u, h, np.nextafter(stat, -np.inf))
    assert not accept[0]


def test_unit_constant_fading_collapses_all_three_verifiers():
    rng = np.random.default_rng(0)
    n, sigma2 = 64, 0.5
    u = rng.normal(0, 1, n)
    y = u + math.sqrt(sigma2) * rng.normal(0, 1, n)
    m = Constant(1.0).moments()
    stat = float(np.sum((y - u) ** 2))
    specs = [(CsiFast(sigma2), np.ones((1, n))),
             (CsiSlow(sigma2, outage_threshold=0.5), np.ones(1)),
             (NoCsi(sigma2, m), None)]
    # every ball is centered at u itself
    for spec, H in specs:
        assert np.array_equal(np.ravel(spec.center(u, H)), u)
    # Var h = 0 kills the fading terms, so the thresholds agree too
    taus = [spec.threshold(u) for spec, _ in specs]
    assert taus[1] == pytest.approx(taus[0], rel=1e-12)
    assert taus[2] == pytest.approx(taus[0], rel=1e-12)
    for (spec, H), tau in zip(specs, taus):
        accept, outage = spec.verify(y[None], u, H, tau)
        assert accept[0] == (stat <= tau) and not outage[0]


def test_genuine_moments_with_csi_are_pure_noise_moments():
    rng = np.random.default_rng(1)
    u = rng.normal(0, 2, 50)
    for sigma2 in (0.3, 1.0, 4.0):
        mean, var = impostor_moments(CsiFast(sigma2), u, u, Rayleigh(1.0).moments())
        assert mean == pytest.approx(50 * sigma2, rel=1e-12)
        assert var == pytest.approx(2 * 50 * sigma2**2, rel=1e-12)


def test_nocsi_genuine_moments_frozen_rayleigh_example():
    # n=100, sigma^2=1, u = all ones, unit-scale Rayleigh; recomputed by
    # hand from E h^k = 2^(k/2) Gamma(1 + k/2)
    u = np.ones(100)
    m = Rayleigh(1.0).moments()
    mean, var = impostor_moments(NoCsi(1.0, m), u, u, m)
    assert mean == pytest.approx(142.9203673205103, rel=1e-12)
    assert var == pytest.approx(413.0395598910635, rel=1e-11)

    c = math.sqrt(2) * math.gamma(1.5)
    e3 = 2 * math.sqrt(2) * math.gamma(2.5)
    varh = 2.0 - c * c
    cm4 = 8.0 - 4 * c * e3 + 6 * c * c * 2.0 - 3 * c**4
    assert mean == pytest.approx(100 + 100 * varh, rel=1e-12)
    assert var == pytest.approx(200 + 400 * varh + 100 * (cm4 - varh**2), rel=1e-11)


def test_nocsi_threshold_matches_its_own_moments():
    rng = np.random.default_rng(2)
    u = rng.normal(0, 1, 80)
    m = Rayleigh(1.0).moments()
    mean, var = impostor_moments(NoCsi(0.7, m), u, u, m)
    tau = NoCsi(0.7, m).threshold(u)
    assert tau == pytest.approx(mean + math.sqrt(var * math.log(80)), rel=1e-12)


def test_impostor_mean_grows_with_separation():
    u = np.zeros(32)
    m = Rayleigh(1.0).moments()
    last_csi = last_blind = -1.0
    for t in (0.0, 0.5, 1.0, 2.0, 4.0):
        other = u.copy()
        other[0] = t
        mean_csi, _ = impostor_moments(CsiFast(1.0), u, other, m)
        mean_blind, _ = impostor_moments(NoCsi(1.0, m), u, other, m)
        assert mean_csi > last_csi
        assert mean_blind > last_blind
        last_csi, last_blind = mean_csi, mean_blind


def test_impostor_moments_reject_a_shape_mismatch():
    m = Constant(1.0).moments()
    for verifier in (CsiFast(1.0), NoCsi(1.0, m)):
        with pytest.raises(ValueError, match="one shape"):
            impostor_moments(verifier, np.zeros(4), np.zeros(5), m)


# (law, CsiFast genuine, CsiFast impostor, NoCsi genuine, NoCsi impostor, NoCsi taus),
# recorded through the mode-string impostor_moments and nocsi_threshold
FROZEN_MOMENTS = [
    (Rayleigh(1.0), (8.399999999999999, 11.759999999999998),
     (9.399999999999999, 14.684999999999999), (9.908919163611689, 16.680165195815658),
     (10.747967786159776, 19.875836342031675), (16.346982025579152, 22.960945898418007)),
    (DiscreteMixture(((0.5, 0.6), (1.5, 0.2), (2.0, 0.2))),
     (8.399999999999999, 11.759999999999998), (9.099999999999998, 13.791562499999998),
     (9.806249999999999, 15.848781738281243), (10.356249999999998, 17.850344238281245),
     (16.081817156241232, 22.47710329331529)),
]


@pytest.mark.parametrize("law, csi_genuine, csi_impostor, nocsi_genuine, nocsi_impostor, taus",
                         FROZEN_MOMENTS, ids=["rayleigh", "skewed-mixture"])
def test_statistic_moments_and_nocsi_thresholds_are_frozen(law, csi_genuine, csi_impostor,
                                                           nocsi_genuine, nocsi_impostor, taus):
    # dyadic inputs are exact in binary, so only the formulas set these bits
    n, sigma2 = 12, 0.7
    u = (np.arange(n) % 5 - 2) * 0.375
    other = u + ((np.arange(n) * 7) % 3 - 1) * 0.25
    m = law.moments()
    assert impostor_moments(CsiFast(sigma2), u, u, m) == csi_genuine
    assert impostor_moments(CsiFast(sigma2), u, other, m) == csi_impostor
    assert impostor_moments(NoCsi(sigma2, m), u, u, m) == nocsi_genuine
    assert impostor_moments(NoCsi(sigma2, m), u, other, m) == nocsi_impostor
    assert (NoCsi(sigma2, m).threshold(u), NoCsi(sigma2, m, 2.0).threshold(other)) == taus


# -- Monte Carlo oracle for the moment formulas ----------------------------

LAWS = [
    Constant(1.5),
    Rayleigh(1.0),
    DiscreteMixture(((0.5, 0.6), (1.5, 0.2), (2.0, 0.2))),   # mean 1, skewed
    DiscreteMixture(((-1.0, 0.5), (1.0, 0.5))),              # mean 0
]
LAW_IDS = ["constant", "rayleigh", "skewed-mixture", "zero-mean-mixture"]


@pytest.mark.parametrize("law", LAWS, ids=LAW_IDS)
@pytest.mark.parametrize("mode", ["csi", "nocsi"])
def test_formula_moments_match_direct_simulation(law, mode):
    n, sigma2, trials = 32, 0.8, 200_000
    rng = np.random.default_rng(500)
    u = rng.normal(0, 1.0, n)
    u_sent = u + rng.normal(0, 0.5, n)
    m = law.moments()
    c = m.c
    for sent in (u, u_sent):
        verifier = CsiFast(sigma2) if mode == "csi" else NoCsi(sigma2, m)
        mean_th, var_th = impostor_moments(verifier, u, sent, m)
        h = law.sample(np.random.default_rng(7), (trials, n))
        z = math.sqrt(sigma2) * np.random.default_rng(8).standard_normal((trials, n))
        y = h * sent + z
        center = h * u if mode == "csi" else c * u
        stat = np.sum((y - center) ** 2, axis=1)
        se_mean = stat.std(ddof=1) / math.sqrt(trials)
        assert abs(stat.mean() - mean_th) < 5 * se_mean, (mode, stat.mean(), mean_th)
        w = stat - stat.mean()
        m4 = np.mean(w**4)
        var_emp = np.mean(w**2)
        se_var = math.sqrt(max(m4 - var_emp**2, 0.0) / trials)
        assert abs(var_emp - var_th) < 5 * se_var, (mode, var_emp, var_th)


def test_genuine_acceptance_beats_the_chebyshev_floor():
    # the design guarantee is >= 1 - 1/ln n; the Gaussian reality is much
    # better, so 0.9 at n=256 leaves no flakiness
    n, sigma2, trials = 256, 1.0, 2000
    spec = CsiFast(sigma2)
    u = np.ones(n)
    tau = spec.threshold(u)
    Y = u + math.sqrt(sigma2) * np.random.default_rng(11).standard_normal((trials, n))
    accept, _ = spec.verify(Y, u, np.ones((trials, n)), tau)
    assert np.array_equal(accept, np.sum((Y - u) ** 2, axis=1) <= tau)
    accepts = int(accept.sum())
    assert accepts / trials >= 0.9
    assert accepts / trials >= 1 - 1 / math.log(n)


def test_far_impostors_are_rejected():
    n, sigma2, trials = 256, 1.0, 500
    spec = CsiFast(sigma2)
    u = np.zeros(n)
    far = np.full(n, 0.8)           # distance^2 = 163.8 >> threshold slack 33.9
    tau = spec.threshold(u)
    Y = far + math.sqrt(sigma2) * np.random.default_rng(12).standard_normal((trials, n))
    accept, _ = spec.verify(Y, u, np.ones((trials, n)), tau)
    assert (np.sum((Y - u) ** 2, axis=1) > tau).all()
    assert not accept.any()


def test_slow_fading_outage_and_verdicts():
    n, sigma2 = 64, 1.0
    spec = CsiSlow(sigma2, outage_threshold=0.1)
    u = np.ones(n)
    tau = spec.threshold(u)
    h = np.array([0.05, -0.1, 2.0, -2.0])
    Y = np.stack([0.05 * u, -0.1 * u, 2.0 * u, 2.0 * u])
    stats = np.sum((Y - h[:, None] * u) ** 2, axis=1)
    accept, outage = spec.verify(Y, u, h, tau)
    # |h| below the radius is an outage, even with y at the exact center;
    # the radius itself is not
    assert outage.tolist() == [True, False, False, False]
    assert stats[0] == 0.0 and not accept[0]
    assert stats[1] == 0.0 and accept[1]
    assert stats[2] == 0.0 and accept[2]     # exact center, zero statistic
    assert stats[3] > tau and not accept[3]  # wrong sign puts y far from h*u


def test_zero_mean_law_warns_on_blind_verification():
    u = np.ones(16)
    m = DiscreteMixture(((-1.0, 0.5), (1.0, 0.5))).moments()
    with pytest.warns(RuntimeWarning):
        NoCsi(1.0, m).threshold(u)


def test_deviation_scale_widens_the_ball():
    n, sigma2 = 128, 1.0
    assert threshold_csi(n, sigma2, 2.0) > threshold_csi(n, sigma2, 1.0)
    u = np.ones(n)
    m = Rayleigh(1.0).moments()
    assert NoCsi(sigma2, m, 2.0).threshold(u) > NoCsi(sigma2, m, 1.0).threshold(u)


def test_block_verify_decides_every_row_by_its_ball_statistic():
    # each row: outage iff |h| < radius, else accept iff the inline
    # statistic against that row's center is within the threshold
    rng = np.random.default_rng(3)
    rows, n, sigma2 = 8, 32, 1.0
    u = rng.normal(0, 1, n)
    sent = np.where(np.arange(rows)[:, None] % 2 == 0, u, u + 1.5)  # genuine and impostor rows
    H = rng.rayleigh(1.0, (rows, n))
    Y = H * sent + rng.normal(0, 1, (rows, n))
    Y_awgn = sent + rng.normal(0, 1, (rows, n))
    h_slow = np.array([0.05, 1.0, -1.0, 2.0, 0.0, 0.7, 1.2, -0.05])
    Y_slow = h_slow[:, None] * sent + rng.normal(0, 1, (rows, n))
    m = Rayleigh(1.0).moments()
    no_outage = np.zeros(rows, dtype=bool)
    cases = [  # spec, Y, H, tau, centers, outage
        (CsiFast(sigma2), Y, H, threshold_csi(n, sigma2), H * u, no_outage),
        (CsiFast(sigma2), Y_awgn, None, threshold_csi(n, sigma2), u, no_outage),
        (CsiSlow(sigma2, 0.1), Y_slow, h_slow, threshold_csi(n, sigma2),
         h_slow[:, None] * u, np.abs(h_slow) < 0.1),
        (NoCsi(sigma2, m), Y, H, NoCsi(sigma2, m).threshold(u), m.c * u, no_outage),  # H ignored
    ]
    for spec, Yb, Hb, tau, centers, want_outage in cases:
        assert spec.threshold(u) == tau
        accept, outage = spec.verify(Yb, u, Hb, tau)
        assert accept.shape == outage.shape == (rows,)
        assert accept.any() and not accept.all()
        assert outage.sum() == (3 if isinstance(spec, CsiSlow) else 0)  # |h| < 0.1 thrice
        stats = np.sum((Yb - centers) ** 2, axis=1)
        assert np.array_equal(statistic(spec, Yb, u, Hb), stats)
        reused = np.full((rows, n), np.nan)
        for _ in range(2):  # a reused out leaves nothing behind for the next call
            assert np.array_equal(statistic(spec, Yb, u, Hb, reused), stats)
        assert np.array_equal(outage, want_outage)
        assert np.array_equal(accept, (stats <= tau) & ~want_outage)
        # a scratch block changes no verdict and leaves Y and H as they were
        Y0, H0 = Yb.copy(), None if Hb is None else Hb.copy()
        scratch = np.full((rows, n), np.nan)
        accept2, outage2 = spec.verify(Yb, u, Hb, tau, out=scratch)
        assert np.array_equal(accept2, accept) and np.array_equal(outage2, outage)
        assert np.array_equal(Yb, Y0) and (Hb is None or np.array_equal(Hb, H0))
