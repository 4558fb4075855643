"""Release gate: one test per criterion, tolerances pinned here.

The toolkit ships when every criterion below holds at the stated budget:

  1  closed-form statistic moments match heavy Monte Carlo (<= 5 min)
  2  flagship identification run at n = 3000, A/sigma^2 = 100 (<= 10 min)
  3  slow-fading outage accounting, normal and degenerate regimes
  4  fast-fading CSI survives a fading law with an atom at zero
  5  CSI-free verification works iff the fading mean is nonzero
  6  construction guarantees: norms, distances, rate identity, encode cost
  7  no rate ever crosses the packing bound; asymptote and quantile checks
  8  exhaustive small-instance oracles (RS distance, tiny concat, projections)
  9  byte-identical reports for any worker count

Each test prints a single summary line on success; a failing test is the
FAIL line.  This module is much heavier than the unit tests: expect
several minutes end to end.
"""

import itertools
import math
import random
import time
from statistics import NormalDist

import numpy as np
import pytest

from dicode.bounds import di_rate, min_distance_lower_bound, sphere_packing_rate
from dicode.codebook import (
    ConcatCodebook,
    ConcatParams,
    guaranteed_distance,
    plan_params,
)
from dicode.fading import Constant, DiscreteMixture, Nakagami, Rayleigh
from dicode.galois import make_field, prime_power
from dicode.harness import (
    ExperimentConfig,
    MomentGridConfig,
    moment_validation,
    run_experiment,
)
from dicode.packing import (
    PackingSpec,
    check_projection_property,
    generate_expurgated,
)
from dicode.rs import RSCode

ATOM_AT_ZERO = ((0.0, 0.3), (1.0, 0.7))
SKEWED = ((0.5, 0.6), (1.5, 0.2), (2.0, 0.2))       # mean 1, third moment 0.15
FLAGSHIP = dict(n=3000, a=0.035, power_bound=1.0)   # q1=5, d2=60, floor sqrt(15)


def _pass(num: int, text: str) -> None:
    print(f"criterion {num}: PASS ({text})", flush=True)


# -- shared heavy artifacts ------------------------------------------------


@pytest.fixture(scope="module")
def flagship_pool():
    """448 sampled flagship codewords: 100k+ pairs for the norm and
    distance sweeps, shared between criteria 6 and 7."""
    params = plan_params(**FLAGSHIP)
    book = ConcatCodebook(params)
    picker = random.Random(61)
    ids: list[int] = []
    seen = set()
    while len(ids) < 448:
        idx = picker.randrange(params.size)
        if idx not in seen:
            seen.add(idx)
            ids.append(idx)
    pool = np.stack([book.encode(i) for i in ids])
    sq = np.sum(pool**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (pool @ pool.T)
    iu = np.triu_indices(len(pool), k=1)
    return params, pool, d2[iu]


@pytest.fixture(scope="module")
def ladder():
    """Planned codebooks at three sizes: encode cost plus the distance of
    an exhibited nearest pair (one minimum-weight outer partner)."""
    out = []
    for n, a, reps in ((1000, 0.04, 8), (3000, 0.035, 4), (15625, 0.03, 2)):
        params = plan_params(n=n, a=a, power_bound=1.0)
        book = ConcatCodebook(params)
        base = book.encode(0)  # absorb lazy per-book setup before timing
        picker = random.Random(n)
        t0 = time.perf_counter()
        for _ in range(reps):
            book.encode(picker.randrange(params.size))
        dt = (time.perf_counter() - t0) / reps
        d_close = float(np.linalg.norm(book.encode(book.close_partner(0)) - base))
        out.append((params, dt, d_close))
    return out


# -- criteria --------------------------------------------------------------


@pytest.mark.slow
def test_criterion_1_moment_formulas_match_monte_carlo():
    cfg = MomentGridConfig(
        distributions=(
            Constant(1.0),
            Rayleigh(1.0),
            Nakagami(2.0, 1.0),
            DiscreteMixture(ATOM_AT_ZERO),
            DiscreteMixture(SKEWED),
        ),
        modes=("csi", "nocsi"),
        n=64,
        draws=1_000_000,
        pair_count=3,
        sigma2=1.0,
        seed=101,
        tolerance_sigmas=4.0,
    )
    report = moment_validation(cfg)
    assert len(report.rows) == 5 * 2 * 3 * 2 * 2
    assert report.failures == [], [
        (r.case, r.statistic, r.quantity, r.deviation) for r in report.failures
    ]
    assert report.elapsed_s <= 300.0
    worst = max(r.deviation for r in report.rows)
    _pass(1, f"{len(report.rows)} moment checks, worst {worst:.2f} SE, "
             f"{report.elapsed_s:.0f}s")


@pytest.mark.slow
def test_criterion_2_flagship_awgn_identification():
    t0 = time.perf_counter()
    cfg = ExperimentConfig.from_dict({
        "channel": {"type": "awgn", "sigma2": 0.01},
        "codebook": {"type": "concat", **FLAGSHIP},
        "verifier": {"mode": "csi-fast"},
        "trials": {"identities": 100, "per_identity": 100, "pairs": 1000,
                   "per_pair": 10, "min_distance_pairs": 100},
        "seed": 2026,
        "workers": 2,
    })
    res = run_experiment(cfg).results
    elapsed = time.perf_counter() - t0
    type1 = res["type1"]["pooled"]
    assert type1["trials"] == 10_000
    assert type1["error_rate"] <= 0.02
    assert type1["error_rate"] <= 1.0 / math.log(3000)  # design guarantee
    assert res["type2"]["pooled"]["trials"] == 10_000
    assert res["type2"]["max_pair_rate"] <= 0.01
    kinds = [r["kind"] for r in res["type2"]["per_pair"]]
    assert kinds.count("close") == 100
    assert elapsed <= 600.0
    _pass(2, f"type-I {type1['error_rate']:.4f}, max-pair type-II "
             f"{res['type2']['max_pair_rate']:.4f}, {elapsed:.0f}s")


def _slow_fading_config(eta, allow_degenerate):
    return ExperimentConfig.from_dict({
        "channel": {"type": "slow-fading", "sigma2": 0.01,
                    "fading": {"type": "discrete",
                               "atoms": [list(a) for a in ATOM_AT_ZERO]}},
        "codebook": {"type": "concat", **FLAGSHIP},
        "verifier": {"mode": "csi-slow"},
        "trials": {"identities": 40, "per_identity": 100, "pairs": 400,
                   "per_pair": 10, "min_distance_pairs": 40},
        "outage_eta": eta,
        "allow_degenerate_outage": allow_degenerate,
        "seed": 303,
        "workers": 2,
    })


@pytest.mark.slow
def test_criterion_3_slow_fading_outage_dichotomy():
    # (a) eta above the zero-atom mass: outages absorb exactly the dead
    # blocks and the surviving trials behave like the flagship run
    res = run_experiment(_slow_fading_config(0.4, False)).results
    assert res["verifier"]["outage_threshold"] == pytest.approx(1.0)
    assert res["verifier"]["degenerate_outage"] is False
    frac = res["outage"]["fraction"]
    assert 0.28 <= frac <= 0.32
    assert res["type1"]["pooled"]["error_rate"] <= 0.02
    assert res["type2"]["max_pair_rate"] <= 0.01

    # (b) eta below the zero-atom mass: no usable outage radius exists;
    # on dead blocks the two conditional error rates must trade off to 1
    res = run_experiment(_slow_fading_config(0.2, True)).results
    assert res["verifier"]["degenerate_outage"] is True
    assert res["outage"]["outages"] == 0
    zf = res["zero_fading"]
    assert zf["type1"]["trials"] > 500 and zf["type2"]["trials"] > 500
    assert zf["error_sum"] == pytest.approx(1.0, abs=0.02)
    _pass(3, f"outage fraction {frac:.3f}, degenerate error sum "
             f"{zf['error_sum']:.4f}")


def test_criterion_4_fast_fading_csi_with_zero_atom():
    cfg = ExperimentConfig.from_dict({
        "channel": {"type": "fast-fading", "sigma2": 1.0,
                    "fading": {"type": "discrete",
                               "atoms": [[0.0, 0.5], [1.0, 0.5]]}},
        "codebook": {"type": "packing", "profile": "fourth-moment",
                     "spec": {"n": 4096, "target_size": 120, "power_bound": 4.0,
                              "sampling_power": 2.0, "distance_exponent": 0.05,
                              "seed": 9}},
        "verifier": {"mode": "csi-fast"},
        "trials": {"identities": 40, "per_identity": 50, "pairs": 60,
                   "per_pair": 20, "min_distance_pairs": 10},
        "seed": 44,
    })
    res = run_experiment(cfg).results
    assert res["codebook"]["survivors"] >= 60
    t1 = res["type1"]["pooled"]["error_rate"]
    t2 = res["type2"]["max_pair_rate"]
    assert t1 <= 0.05
    assert t2 <= 0.05
    _pass(4, f"P(h=0)=0.5, type-I {t1:.4f}, max-pair type-II {t2:.4f}")


def test_criterion_5_csi_free_needs_nonzero_fading_mean():
    def run(atoms):
        cfg = ExperimentConfig.from_dict({
            "channel": {"type": "fast-fading", "sigma2": 1.0,
                        "fading": {"type": "discrete",
                                   "atoms": [list(a) for a in atoms]}},
            "codebook": {"type": "packing", "profile": "norm-concentrated",
                         "spec": {"n": 4096, "target_size": 120,
                                  "power_bound": 4.0, "sampling_power": 2.0,
                                  "distance_exponent": 0.05, "seed": 9}},
            "verifier": {"mode": "no-csi"},
            "trials": {"identities": 40, "per_identity": 50, "pairs": 60,
                       "per_pair": 20, "min_distance_pairs": 10},
            "seed": 55,
        })
        return run_experiment(cfg).results

    good = run(SKEWED)                       # mean 1: centers are informative
    t1 = good["type1"]["pooled"]["error_rate"]
    t2 = good["type2"]["max_pair_rate"]
    assert t1 <= 0.05
    assert t2 <= 0.05

    with pytest.warns(RuntimeWarning, match="fading mean is zero"):
        bad = run(((-1.0, 0.5), (1.0, 0.5)))  # mean 0: centers collapse to 0
    t2_bad = bad["type2"]["max_pair_rate"]
    assert t2_bad > 0.5
    _pass(5, f"mean-1 law: type-I {t1:.4f} / type-II {t2:.4f}; "
             f"mean-0 law degrades to {t2_bad:.2f}")


@pytest.mark.slow
def test_criterion_6_construction_guarantees(flagship_pool, ladder):
    params, pool, pair_d2 = flagship_pool
    A, n = params.power_bound, params.n

    # structural guarantees on every planned codebook; the exhibited
    # nearest pair must honor the floor and the per-block energy cap
    for p, _, d_close in ladder:
        assert p.a < p.b < 2 * p.a
        assert p.meets_asymptotic_rate
        lhs = p.rate * p.n * math.log2(p.n)
        rhs = p.k1 * p.k2 * math.log2(p.q1)
        assert math.isclose(lhs, rhs, rel_tol=1e-12)
        expect = guaranteed_distance(p.d1, p.d2, p.power_bound, p.q1)
        assert math.isclose(p.min_euclidean_distance, expect, rel_tol=1e-12)
        assert p.min_euclidean_distance <= d_close
        assert d_close**2 <= p.d2 * p.n1 * 4.0 * p.power_bound + 1e-9

    # norm and distance sweep over 100k+ sampled flagship pairs
    assert len(pair_d2) >= 100_000
    assert float(np.max(np.sum(pool**2, axis=1))) <= A * n * (1 + 1e-12)
    assert float(np.max(np.sum(pool**4, axis=1))) <= A * A * n * (1 + 1e-12)
    floor2 = params.min_euclidean_distance**2
    min_d2 = float(pair_d2.min())
    assert min_d2 >= floor2 - 1e-6

    # encode cost grows sub-quadratically across a 15.6x span of n
    (p_lo, t_lo, _), _, (p_hi, t_hi, _) = ladder
    slope = math.log(t_hi / t_lo) / math.log(p_hi.n / p_lo.n)
    assert 0.0 < slope < 2.0
    _pass(6, f"{len(pair_d2)} pairs, min d^2 {min_d2:.1f} >= floor {floor2:.1f}, "
             f"encode-cost slope {slope:.2f}")


def test_criterion_7_bounds_consistency(flagship_pool, ladder):
    # the packing converse caps the rate through the code's minimum
    # distance, so the radius fed to it must be a distance the code
    # provably keeps: the construction floor for concatenated books
    # (their superexponential size forbids exhaustive measurement; any
    # exhibited pair only upper-bounds the minimum and would shrink the
    # cap below what the converse asserts), the exact pairwise minimum
    # for packing books
    params, _, pair_d2 = flagship_pool
    checks = []

    assert float(pair_d2.min()) >= params.min_euclidean_distance**2 - 1e-6
    for p, _, _ in ((params, None, None),) + tuple(ladder):
        checks.append((di_rate(p.log2_size, p.n),
                       sphere_packing_rate(p.n, p.power_bound,
                                           p.min_euclidean_distance)))
    for profile in ("fourth-moment", "norm-concentrated"):
        spec = PackingSpec(n=4096, target_size=120, power_bound=4.0,
                           sampling_power=2.0, distance_exponent=0.05, seed=9)
        vectors, _ = generate_expurgated(spec, profile)
        sq = np.sum(vectors**2, axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (vectors @ vectors.T)
        np.fill_diagonal(d2, np.inf)
        checks.append((di_rate(math.log2(len(vectors)), spec.n),
                       sphere_packing_rate(spec.n, spec.power_bound,
                                           math.sqrt(float(d2.min())))))
    for achieved, cap in checks:
        assert achieved <= cap

    # the packing cap climbs to 1/2 as n grows with the radius fixed
    vals = [sphere_packing_rate(float(10**e), 1.0, 4.0) for e in (6, 9, 12)]
    assert vals[0] < vals[1] < vals[2] < 0.5
    assert abs(vals[2] - 0.5) <= 0.05

    # distance-from-error-budget quantiles against the stdlib normal
    oracle = NormalDist()
    worst = 0.0
    for lam in (1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49):
        got = min_distance_lower_bound(lam, 1.0)
        want = 2.0 * oracle.inv_cdf(1.0 - lam)
        worst = max(worst, abs(got - want))
    assert worst <= 1e-6
    _pass(7, f"{len(checks)} codebooks under the cap, asymptote gap "
             f"{abs(vals[2] - 0.5):.3f}, quantile error {worst:.1e}")


def test_criterion_8_exhaustive_small_instance_oracles():
    # (a) every full-length RS code with at most 1e5 codewords has
    # minimum weight exactly n - k + 1, by complete enumeration
    codes = words = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32):
        p, m = prime_power(q)
        F = make_field(p, m)
        for k in range(1, q + 1):
            if q**k > 100_000:
                break
            code = RSCode(F, q, k)
            msgs = np.array(np.unravel_index(np.arange(q**k), (q,) * k)).T
            coords = F.coordinates(msgs.ravel()).reshape(len(msgs), k, m)
            table = code.encode_batch(coords).any(axis=2)  # the nonzero symbols
            weights = np.count_nonzero(table, axis=1)
            nonzero = np.any(msgs != 0, axis=1)
            assert int(weights[nonzero].min()) == q - k + 1, (q, k)
            codes += 1
            words += len(msgs)

    # (b) tiny concatenated codebook, all 81 codewords: symbol Hamming
    # distance >= d1 d2 and Euclidean distance exactly at the floor
    tiny = ConcatParams(n=12, a=0.1, power_bound=1.0, eps1=0.6, eps2=0.7, field_seed=0,
                        q1=3, n1=3, k1=2, n2=4, k2=2)
    book = ConcatCodebook(tiny)
    all_words = np.stack([book.encode(i) for i in range(tiny.size)])
    min_ham = tiny.n
    min_d2 = math.inf
    for i in range(tiny.size - 1):
        diff = all_words[i + 1:] - all_words[i]
        min_ham = min(min_ham, int(np.count_nonzero(diff, axis=1).min()))
        min_d2 = min(min_d2, float(np.sum(diff**2, axis=1).min()))
    assert min_ham >= tiny.d1 * tiny.d2
    assert min_d2 == pytest.approx(tiny.min_euclidean_distance**2, rel=1e-12)

    # (c) projected-distance checker against a from-scratch subset scan
    spec = PackingSpec(n=12, target_size=10, power_bound=4.0,
                       sampling_power=2.0, distance_exponent=0.05, seed=3)
    vectors, _ = generate_expurgated(spec, "basic")
    report = check_projection_property(vectors, mu=0.75, alpha=0.25,
                                       mode="exhaustive")
    assert report.certified
    subset = report.subset_size
    brute = {}
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            gaps = [(vectors[i][t] - vectors[j][t]) ** 2 for t in range(12)]
            best = min(math.sqrt(sum(gaps[t] for t in combo))
                       for combo in itertools.combinations(range(12), subset))
            brute[(i, j)] = best
    for i, j, value in report.pair_minima:
        assert value == pytest.approx(brute[(i, j)], abs=1e-12)
    assert report.overall_min == pytest.approx(min(brute.values()), abs=1e-12)
    _pass(8, f"{codes} RS codes / {words} codewords enumerated, tiny concat "
             f"min d^2 {min_d2:.0f}, projections over C(12,{subset}) subsets")


def test_criterion_9_reports_do_not_depend_on_worker_count():
    base = {
        "channel": {"type": "slow-fading", "sigma2": 0.25,
                    "fading": {"type": "discrete",
                               "atoms": [list(a) for a in ATOM_AT_ZERO]}},
        "codebook": {"type": "concat", "n": 500, "a": 0.02},
        "verifier": {"mode": "csi-slow"},
        "trials": {"identities": 8, "per_identity": 10, "pairs": 12,
                   "per_pair": 5, "min_distance_pairs": 3},
        "outage_eta": 0.4,
        "seed": 909,
    }
    texts = [
        run_experiment(ExperimentConfig.from_dict({**base, "workers": w})).canonical_json()
        for w in (1, 2, 4)
    ]
    rerun = run_experiment(ExperimentConfig.from_dict({**base, "workers": 4}))
    assert texts[0] == texts[1] == texts[2] == rerun.canonical_json()
    _pass(9, f"{len(texts[0])} canonical bytes identical over workers 1/2/4 "
             f"and a rerun")
