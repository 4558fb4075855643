"""Rate bounds and reference capacities.

The distance forced by error budgets reads the standard library's normal
quantile off the lower tail; it is checked against a bisection on
1/2 erfc from 1e-300 to 0.49.  Capacity checks use closed forms where
they exist and a large Monte Carlo otherwise.
"""

import math
from statistics import NormalDist

import numpy as np
import pytest

from dicode.bounds import (
    di_rate,
    min_distance_lower_bound,
    rate_report,
    shannon_ergodic_capacity,
    shannon_outage_capacity,
    sphere_packing_rate,
)
from dicode.fading import Constant, DiscreteMixture, Rayleigh


def norm_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2))


def bisect_lower_tail(p, lo=-40.0, hi=0.0):
    """The x <= 0 with norm_cdf(x) = p, for p in (1e-300, 1/2)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_normal_quantile_against_bisection_oracle():
    # -2 sigma InvPhi(lambda) from the lower tail, where 1/2 erfc keeps its
    # relative precision
    for lam in (1e-6, 1e-3, 0.01, 0.02425, 0.05, 0.075, 0.1, 0.3, 0.425,
                0.45, 0.49):
        want = -2.0 * bisect_lower_tail(lam)
        assert min_distance_lower_bound(lam, 1.0) == pytest.approx(want, rel=1e-14), lam
        assert min_distance_lower_bound(lam, 2.5) == pytest.approx(2.5 * want, rel=1e-14)


def test_normal_quantile_deep_upper_tail():
    # budgets far below the double spacing at one, where 1 - lambda would
    # round to 1: the lower-tail reading stays exact however small
    for lam in (1e-300, 1e-100, 1e-20, 1e-16, 1e-12, 1e-9):
        want = -2.0 * bisect_lower_tail(lam)
        assert min_distance_lower_bound(lam, 1.0) == pytest.approx(want, rel=1e-14), lam


def test_normal_quantile_is_antisymmetric_and_monotone():
    lams = np.geomspace(1e-300, 0.49, 200)
    vals = [min_distance_lower_bound(lam, 1.0) for lam in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # the lower-tail reading equals the upper-tail form 2 InvPhi(1 - lambda)
    # wherever 1 - lambda is well conditioned, and clamps at 0 from 1/2 on
    for lam in (0.01, 0.2, 0.37, 0.49):
        upper = 2.0 * NormalDist().inv_cdf(1.0 - lam)
        assert min_distance_lower_bound(lam, 1.0) == pytest.approx(upper, abs=1e-12)
    for lam in (0.5, 0.63, 0.99):
        assert min_distance_lower_bound(lam, 1.0) == 0.0


def test_normal_quantile_rejects_the_boundary():
    for lam in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError, match="lambda_sum must lie strictly in"):
            min_distance_lower_bound(lam, 1.0)
    for sigma in (0.0, -1.0):
        with pytest.raises(ValueError, match="sigma must be positive"):
            min_distance_lower_bound(0.05, sigma)


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


@pytest.mark.parametrize("key,call", [
    ("power_bound", lambda x: sphere_packing_rate(100, x, 1.0)),
    ("d_min", lambda x: sphere_packing_rate(100, 1.0, x)),
    ("snr", lambda x: shannon_ergodic_capacity(Constant(1.0), x)),
    ("snr", lambda x: shannon_outage_capacity(Constant(1.0), x, 0.1)),
], ids=["power_bound", "d_min", "ergodic-snr", "outage-snr"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
def test_bounds_refuse_what_is_not_positive_naming_the_key(key, call, value):
    # the text `dicode bounds` prints; NaN fails every comparison, so it is refused too
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == f"{key}: must be positive, got {value!r}"


def test_rates_refuse_a_nan_length_or_size():
    for call in (lambda: sphere_packing_rate(math.nan, 1.0, 1.0), lambda: di_rate(1.0, math.nan)):
        with pytest.raises(ValueError, match="^n must be >= 2$"):
            call()
    with pytest.raises(ValueError, match="^log2 codebook size must be nonnegative$"):
        di_rate(math.nan, 1024)


@pytest.mark.parametrize("dist,snr,eps,says", [
    (Rayleigh(1.0), None, 0.1, "snr: required with fading/outage_eps"),
    (Rayleigh(1.0), None, None, "snr: required with fading"),
    (None, 4.0, None, "fading: required with snr"),
    (None, 4.0, 0.1, "fading: required with snr/outage_eps"),
    (None, None, 0.1, "fading/snr: required with outage_eps"),
    (None, None, 2.0, "fading/snr: required with outage_eps"),  # refused before eps is read
], ids=["no-snr", "law-only", "snr-only", "no-law", "eps-only", "bad-eps-only"])
def test_rate_report_refuses_a_partial_capacity_request(dist, snr, eps, says):
    # the capacities need a law and an snr, or neither; a partial request
    # would otherwise come back with both capacities None
    with pytest.raises(ValueError, match=f"^{says}$"):
        rate_report(1024, 512, 1.0, 4.0, dist, snr, eps)


def test_constructed_codebooks_respect_the_packing_bound():
    from dicode.codebook import plan_params

    for n, a in ((500, 0.02), (3000, 0.035)):
        p = plan_params(n=n, a=a)
        cap = sphere_packing_rate(n, p.power_bound, p.min_euclidean_distance)
        assert p.rate < cap
