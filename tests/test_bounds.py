"""Rate bounds, the normal quantile, and reference capacities.

inv_norm_cdf is hand-rolled (rational initial guess plus Halley polish),
so it gets a bisection-on-erf oracle across the whole open interval.
Capacity checks use closed forms where they exist and a large Monte
Carlo otherwise.
"""

import math

import numpy as np
import pytest

from dicode.bounds import (
    di_rate,
    inv_norm_cdf,
    min_distance_lower_bound,
    rate_report,
    shannon_ergodic_capacity,
    shannon_outage_capacity,
    sphere_packing_rate,
)
from dicode.fading import Constant, DiscreteMixture, Rayleigh


def norm_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2))


def bisect_quantile(p, lo=-40.0, hi=40.0):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_normal_quantile_frozen_values():
    assert inv_norm_cdf(0.5) == 0.0
    assert inv_norm_cdf(0.95) == pytest.approx(1.6448536269514722, abs=1e-12)
    assert inv_norm_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-12)
    assert inv_norm_cdf(0.05) == pytest.approx(-1.6448536269514722, abs=1e-12)


def test_normal_quantile_against_bisection_oracle():
    for p in (1e-12, 1e-6, 0.01, 0.02425, 0.1, 0.3, 0.5, 0.7, 0.9,
              0.97575, 0.99):
        want = bisect_quantile(p)
        assert inv_norm_cdf(p) == pytest.approx(want, abs=1e-9)


def test_normal_quantile_deep_upper_tail():
    # near p = 1 the map p -> x has derivative 1/phi(x) ~ 1e+11, so a
    # one-ulp wobble in p legitimately moves x by ~1e-5; the oracle runs
    # through the well-conditioned lower tail and the tolerance follows
    # the conditioning
    for q in (1e-6, 1e-9, 1e-12):
        want = -bisect_quantile(q)
        phi = math.exp(-want * want / 2) / math.sqrt(2 * math.pi)
        tol = max(1e-9, 20 * 2.3e-16 / phi)
        assert inv_norm_cdf(1 - q) == pytest.approx(want, abs=tol)


def test_normal_quantile_round_trips_through_the_cdf():
    for p in np.linspace(0.001, 0.999, 97):
        assert norm_cdf(inv_norm_cdf(p)) == pytest.approx(p, abs=1e-13)


def test_normal_quantile_is_antisymmetric_and_monotone():
    ps = np.linspace(0.01, 0.99, 49)
    vals = [inv_norm_cdf(p) for p in ps]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    for p in (0.01, 0.2, 0.37):
        assert inv_norm_cdf(p) == pytest.approx(-inv_norm_cdf(1 - p), abs=1e-12)


def test_normal_quantile_rejects_the_boundary():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            inv_norm_cdf(p)


def test_distance_lower_bound_from_error_budgets():
    # 2 sigma Phi^{-1}(1 - lambda); lambda = 0.05 at unit noise
    want = 2 * 1.6448536269514722
    assert min_distance_lower_bound(0.05, 1.0) == pytest.approx(want, abs=1e-10)
    assert min_distance_lower_bound(0.05, 3.0) == pytest.approx(3 * want, abs=1e-10)
    # once the combined budget reaches 1/2 the bound degenerates
    assert min_distance_lower_bound(0.5, 1.0) == 0.0
    assert min_distance_lower_bound(0.8, 1.0) == 0.0


def test_sphere_packing_rate_formula():
    # log2((sqrt(An) + r)/r) / log2 n with r = d/2
    n, A, d = 1024, 1.0, 4.0
    want = math.log2((math.sqrt(n * A) + 2) / 2) / math.log2(n)
    assert sphere_packing_rate(n, A, d) == pytest.approx(want, rel=1e-12)
    assert sphere_packing_rate(n, A, d) == pytest.approx(0.40874628, abs=1e-7)


def test_sphere_packing_rate_tends_to_one_half():
    rates = [sphere_packing_rate(float(2**k), 1.0, 4.0) for k in (20, 40, 80, 200)]
    assert all(r < 0.5 for r in rates)
    assert all(b > a for a, b in zip(rates, rates[1:]))
    assert rates[-1] == pytest.approx(0.5, abs=0.01)
    assert sphere_packing_rate(2**80, 1.0, 4.0) == pytest.approx(0.4875, abs=1e-4)


def test_sphere_packing_scaling_invariance():
    # scaling A and d^2 together rescales the geometry, not the rate
    r1 = sphere_packing_rate(4096, 1.0, 3.0)
    r2 = sphere_packing_rate(4096, 4.0, 6.0)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_di_rate():
    assert di_rate(512.0, 256) == pytest.approx(0.25, rel=1e-14)
    assert di_rate(904.0, 500) == pytest.approx(904 / (500 * math.log2(500)), rel=1e-14)


def test_outage_capacity_rayleigh_frozen():
    # E h^2 = 1 Rayleigh, eps = 0.1, snr = 10: h^2 is Exp(1), so the
    # 90%-reliable squared gain is -ln 0.9 and C = log2(1 - 10 ln 0.9)
    c = shannon_outage_capacity(Rayleigh(1 / math.sqrt(2)), 10.0, 0.1)
    want = math.log2(1 - 10 * math.log(0.9))
    assert c == pytest.approx(want, abs=1e-6)
    assert c == pytest.approx(1.0381588, abs=1e-6)


def test_outage_capacity_constant_and_discrete():
    # a constant channel never sees an outage below probability one
    assert shannon_outage_capacity(Constant(2.0), 3.0, 0.1) == pytest.approx(
        math.log2(1 + 4 * 3), rel=1e-12
    )
    law = DiscreteMixture(((1.0, 0.5), (2.0, 0.5)))
    # eps = 0.4 cannot drop the h=1 state (its mass is 0.5)
    assert shannon_outage_capacity(law, 1.0, 0.4) == pytest.approx(
        math.log2(2), rel=1e-12
    )
    # eps = 0.6 tolerates losing it, so the gain-4 state sets the rate
    assert shannon_outage_capacity(law, 1.0, 0.6) == pytest.approx(
        math.log2(5), rel=1e-12
    )


def test_outage_capacity_with_a_zero_atom():
    # P(h = 0) = 0.3: eps below it leaves no usable state, eps above it
    # drops only the dead state
    law = DiscreteMixture(((0.0, 0.3), (1.0, 0.7)))
    assert shannon_outage_capacity(law, 4.0, 0.1) == 0.0
    assert shannon_outage_capacity(law, 4.0, 0.35) == pytest.approx(math.log2(5), rel=1e-12)
    assert shannon_outage_capacity(Constant(0.0), 4.0, 0.5) == 0.0


def test_outage_capacity_is_monotone_in_eps_and_snr():
    law = Rayleigh(1.0)
    caps = [shannon_outage_capacity(law, 5.0, e) for e in (0.01, 0.1, 0.3)]
    assert caps[0] < caps[1] < caps[2]
    snrs = [shannon_outage_capacity(law, s, 0.1) for s in (1.0, 5.0, 25.0)]
    assert snrs[0] < snrs[1] < snrs[2]


def test_ergodic_capacity_closed_forms():
    assert shannon_ergodic_capacity(Constant(2.0), 3.0) == pytest.approx(
        math.log2(13), rel=1e-12
    )
    law = DiscreteMixture(((1.0, 0.25), (2.0, 0.75)))
    want = 0.25 * math.log2(1 + 2) + 0.75 * math.log2(1 + 8)
    assert shannon_ergodic_capacity(law, 2.0) == pytest.approx(want, rel=1e-12)


def test_ergodic_capacity_matches_monte_carlo():
    law = Rayleigh(1.0)
    got = shannon_ergodic_capacity(law, 4.0)
    h = law.sample(np.random.default_rng(0), 2_000_000)
    mc = np.mean(np.log2(1 + h * h * 4.0))
    se = np.std(np.log2(1 + h * h * 4.0), ddof=1) / math.sqrt(h.size)
    assert got == pytest.approx(float(mc), abs=5 * se)


def test_rate_report_assembly():
    rep = rate_report(n=1024, log2_size=300.0, power_bound=1.0, d_min=4.0)
    assert rep.rate == pytest.approx(di_rate(300.0, 1024), rel=1e-14)
    assert rep.upper_bound == pytest.approx(sphere_packing_rate(1024, 1.0, 4.0), rel=1e-14)
    assert rep.outage_capacity is None and rep.ergodic_capacity is None

    rep2 = rate_report(n=1024, log2_size=300.0, power_bound=1.0, d_min=4.0,
                       dist=Rayleigh(1.0), snr=10.0, outage_eps=0.1)
    assert rep2.outage_capacity is not None
    assert rep2.ergodic_capacity is not None
    assert rep2.outage_capacity < rep2.ergodic_capacity


def test_constructed_codebooks_respect_the_packing_bound():
    from dicode.codebook import plan_params

    for n, a in ((500, 0.02), (3000, 0.035)):
        p = plan_params(n=n, a=a)
        cap = sphere_packing_rate(n, p.power_bound, p.min_euclidean_distance)
        assert p.rate < cap
