"""Frozen outputs: codewords, close partners, canonical reports and
moment-grid rows.

The codeword, partner and criterion-9 hashes were recorded with the
digit-matrix encoder (vector Horner over ``ExtensionContext.vmul``/
``vadd``) before the encoder moved to GF(p) linear algebra.  The
moment-grid and fast-fading hashes were recorded with the whole-chunk
moment expression and ``Generator.choice`` sampling of discrete laws,
before the blocked grid kernel and the table sampler.  The n = 15625
and n = 10^5 codeword and partner hashes were recorded with the
baby-step/giant-step Horner outer encoder and the factor-by-factor
close-partner polynomial, before both moved to subspace evaluation.
The law outputs (moments, cdf, outage radius, capacities) were recorded
with per-law parsing, cdfs and quadratures, before every law took its
expectations through ``FadingDistribution.expect``.  The packing-book
hashes were recorded with the one-row-at-a-time greedy distance loop and
the ``draws ** 4`` filter, before the greedy step moved to Gram rows
with a rounding guard.  The planner grid was recorded while
``ConcatParams`` still stored its derived values (p, m, b, padding, size,
rate, distance floor) as constructor arguments.
Any change to how identities are encoded or how draws are consumed
shows up here first; these values must never be updated to make a
change pass.
"""

import hashlib
import json
import random
from dataclasses import asdict, astuple

import numpy as np
import pytest

from dicode.bounds import shannon_ergodic_capacity, shannon_outage_capacity
from dicode.codebook import ConcatCodebook, plan_params
from dicode.errors import InfeasibleError
from dicode.fading import Constant, DiscreteMixture, Nakagami, Rayleigh, Rician, quantile_abs
from dicode.harness import ExperimentConfig, MomentGridConfig, moment_validation, run_experiment
from dicode.packing import PackingSpec, generate_expurgated

SKEWED = ((0.5, 0.6), (1.5, 0.2), (2.0, 0.2))
ATOM_AT_ZERO = ((0.0, 0.3), (1.0, 0.7))


def _words_sha(words) -> str:
    return hashlib.sha256(np.ascontiguousarray(words, dtype="<f8").tobytes()).hexdigest()


@pytest.fixture(scope="module")
def flagship():
    return ConcatCodebook(plan_params(n=3000, a=0.035, power_bound=1.0))


def _flagship_ids(book):
    picker = random.Random(2024)
    return [0, 1, book.size - 1] + [picker.randrange(book.size) for _ in range(2)]


def test_flagship_codewords_are_frozen(flagship):
    words = np.stack([flagship.encode(i) for i in _flagship_ids(flagship)])
    assert _words_sha(words) == "3601b5d736a2e657d36311f4f5ed985813a26ea6305e2b3ec3972840466735af"


def test_ladder_codewords_are_frozen():
    # n = 1000 plans q1 = 4: p = 2 and m = 2, the tower shape of large n
    book = ConcatCodebook(plan_params(n=1000, a=0.04, power_bound=1.0))
    assert (book.params.p, book.params.m) == (2, 2)
    picker = random.Random(1000)
    ids = [0, 5, book.size - 1] + [picker.randrange(book.size) for _ in range(2)]
    words = np.stack([book.encode(i) for i in ids])
    assert _words_sha(words) == "af3af9bf9a647f9fdec0126b133fddc15bc6e7a7c4d4040b6299b4b4fab31541"


def test_flagship_close_partners_are_frozen(flagship):
    partners = [flagship.close_partner(i) for i in _flagship_ids(flagship)[3:]]
    text = ",".join(str(j) for j in partners)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "c17e91434673d81693716723b40eb7f0439eb4fed56a11f68cc8c296cfb7543d")


@pytest.mark.parametrize("n,shape,digest", [
    (15625, (2, 15), "5d816193872ce1a6b42e7d6d183a8b7a30c72af14dc773ab4f16b9a3e44ad3b3"),
    (100_000, (11, 10), "d77669aefddbb6c0fe0e499cc67c33838ef03a1524d4a77ce5d2f490f7b547c0"),
])
def test_large_codewords_and_close_partners_are_frozen(n, shape, digest):
    # shape is (p, D): the outer field is GF(p^D)
    book = ConcatCodebook(plan_params(n=n, a=0.03, power_bound=1.0))
    assert (book.params.p, book.outer_field.prime_degree) == shape
    index = random.Random(n).randrange(book.size)
    words = np.stack([book.encode(index), book.encode(book.close_partner(index))])
    assert _words_sha(words) == digest


def test_planner_grid_is_frozen():
    # the params.json record of every feasible plan, key order included,
    # and the refusal of every infeasible one
    lines = []
    for n in (4, 12, 20, 100, 500, 1000, 3000, 15625, 10**5, 10**6):
        for a in (0.005, 0.01, 0.02, 0.035, 0.06, 0.09, 0.12):
            for eps1, eps2 in ((0.1, 0.1), (0.3, 0.05)):
                for power_bound in (1.0, 2.5):
                    try:
                        plan = plan_params(n, a, power_bound, eps1, eps2, field_seed=3)
                        lines.append(json.dumps(plan.to_json_dict()))
                    except InfeasibleError as exc:
                        lines.append(f"InfeasibleError: {exc}")
    assert sum(line.startswith("{") for line in lines) == 66
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "977443a60f0a9baf8d74a6755ff989aee66d2f362b85b9a035c67f5c67474a7c")


CRITERION_5 = dict(n=4096, target_size=120, power_bound=4.0, sampling_power=2.0,
                   distance_exponent=0.05, seed=9)


@pytest.mark.parametrize("spec,profile,report,digest", [
    # the criterion-5 book and its fourth-moment twin
    (CRITERION_5, "norm-concentrated", (240, 0, 0, 1, 0, 239),
     "3dc2967cb6395dbe90a0e1d39c84aef701f23bb62034d1c2b7c899b81eeaaa3f"),
    (CRITERION_5, "fourth-moment", (240, 0, 0, 0, 0, 240),
     "ba8d56cd92e627ca4a1ddf6be5c646f1109f876be08047b4fce8bc191fd056ef"),
    # a crowded book: most rows fall to the distance floor
    (dict(n=16, target_size=300, power_bound=1.0, sampling_power=0.5, distance_exponent=0.1,
          seed=3), "basic", (600, 6, 0, 0, 359, 235),
     "24d68784489af48af6239e3cdf80026a743732798c5a24a44588d1e1c2c64f48"),
], ids=["criterion-5", "criterion-5-fourth-moment", "crowded"])
def test_packing_books_are_frozen(spec, profile, report, digest):
    vectors, got = generate_expurgated(PackingSpec(**spec), profile)
    assert (got.sampled, got.removed_power, got.removed_fourth, got.removed_band,
            got.removed_distance, got.survivors) == report
    assert _words_sha(vectors) == digest


def test_criterion_9_canonical_report_is_frozen():
    cfg = {
        "channel": {"type": "slow-fading", "sigma2": 0.25,
                    "fading": {"type": "discrete", "atoms": [[0.0, 0.3], [1.0, 0.7]]}},
        "codebook": {"type": "concat", "n": 500, "a": 0.02},
        "verifier": {"mode": "csi-slow"},
        "trials": {"identities": 8, "per_identity": 10, "pairs": 12, "per_pair": 5,
                   "min_distance_pairs": 3},
        "outage_eta": 0.4, "seed": 909, "workers": 1,
    }
    text = run_experiment(ExperimentConfig.from_dict(cfg)).canonical_json()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "13c8a47f884edfe4e3f0101e29bada3cf577c103f8379c92805e201d4d427c38")


def test_moment_grid_rows_are_frozen():
    # the criterion-1 laws; 7000 draws run as chunks of 3000, 3000 and 1000,
    # and a 3000-draw chunk as blocks of 2048 and 952 rows
    cfg = MomentGridConfig(
        distributions=(Constant(1.0), Rayleigh(1.0), Nakagami(2.0, 1.0),
                       DiscreteMixture(((0.0, 0.3), (1.0, 0.7))), DiscreteMixture(SKEWED)),
        n=64, draws=7000, chunk=3000, pair_count=1, seed=101)
    text = json.dumps([asdict(r) for r in moment_validation(cfg).rows], sort_keys=True, indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8651fe5b5a918ae56c9c84069438e6cd38a2c6b230bcb3e1210692f19cf61d11")


def test_fast_fading_nocsi_canonical_report_is_frozen():
    # loud noise and a narrow ball: both error kinds occur, so the report
    # depends on every fading and noise draw
    cfg = {
        "channel": {"type": "fast-fading", "sigma2": 10.0,
                    "fading": {"type": "discrete", "atoms": [list(a) for a in SKEWED]}},
        "codebook": {"type": "packing", "profile": "norm-concentrated",
                     "spec": {"n": 64, "target_size": 16, "power_bound": 4.0,
                              "sampling_power": 2.0, "distance_exponent": 0.05, "seed": 5}},
        "verifier": {"mode": "no-csi", "deviation_scale": 0.3},
        "trials": {"identities": 6, "per_identity": 20, "pairs": 8, "per_pair": 15,
                   "min_distance_pairs": 2},
        "seed": 77, "workers": 1,
    }
    report = run_experiment(ExperimentConfig.from_dict(cfg))
    assert report.results["type1"]["pooled"]["errors"] > 0
    assert report.results["type2"]["pooled"]["accepts"] > 0
    assert hashlib.sha256(report.canonical_json().encode()).hexdigest() == (
        "58318b6421a20b9ef1f3b2001351b2411c827588a4cefd6160a4891a530d1c24")


# law -> (moments(), raw_moment(1..4), cdf(1.0), p_zero, quantile_abs(law, 0.35),
# shannon_ergodic_capacity(law, 3.0), shannon_outage_capacity(law, 3.0, 0.35));
# the last two laws are those of the benchmark workloads
LAW_OUTPUTS = {
    "constant": (Constant(1.0), (
        (1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        (1.0, 1.0, 1.0, 1.0),
        1.0, 0.0, 1.0,
        2.0, 2.0)),
    "constant-negative": (Constant(-2.0), (
        (-2.0, 4.0, -8.0, 16.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        (-2.0, 4.0, -8.0, 16.0),
        1.0, 0.0, 2.0,
        3.700439718141092, 3.700439718141092)),
    "rayleigh": (Rayleigh(1.3), (
        (1.6293083785101505, 3.3800000000000003, 8.260593479046465, 22.848800000000004,
         0.7253542077166242, 0.38987978364157705, 1.7073671525365057, 1.181228425884294,
         11.424400000000002),
        (1.6293083785101505, 3.3800000000000003, 8.260593479046465, 22.848800000000004),
        0.25610693786235356, 0.0, 1.206667417427525,
        2.9225484821046783, 2.4244219663471274)),
    "rician": (Rician(2.0, 1.3), (
        (1.0577369220344828, 1.3000000000000003, 1.7745385125359912, 2.62888888888889,
         0.18119260376501867, 0.016172299887514008, 0.09241699278557558, 0.05958623312642852,
         0.9388888888888893),
        (1.0577369220344828, 1.3000000000000003, 1.7745385125359912, 2.62888888888889),
        0.45870853328955824, 0.0, 0.8778642460977903,
        2.044133423823231, 1.7276751880720915)),
    "rician-k0": (Rician(0.0, 2.0), (
        (1.2533141373155, 1.999999999999999, 3.7599424119464997, 7.999999999999997,
         0.4292036732051032, 0.1774600744841064, 0.5977966991829753, 0.41358090609022224,
         4.000000000000002),
        (1.2533141373155, 1.999999999999999, 3.7599424119464997, 7.999999999999997),
        0.3934693402873665, 0.0, 0.9282057056863279,
        2.3426454382452726, 1.8418513785820683)),
    "nakagami": (Nakagami(2.0, 1.0), (
        (0.9399856029866257, 0.9999999999999997, 1.174982003733281, 1.5000000000000007,
         0.11642706617786935, 0.0161168687363189, 0.04146954567299321, 0.027914283934207244,
         0.5000000000000013),
        (0.9399856029866257, 0.9999999999999997, 1.174982003733281, 1.5000000000000007),
        0.5939941502901616, 0.0, 0.78582558297785,
        1.8158696372945098, 1.5122600342770451)),
    "skewed": (DiscreteMixture(SKEWED), (
        (1.0, 1.4, 2.35, 4.25, 0.3999999999999999, 0.1500000000000008, 0.24999999999999822,
         0.0899999999999983, 2.29),
        (1.0, 1.4, 2.35, 4.25),
        0.6, 0.0, 0.5,
        1.815340158940156, 0.8073549220576041)),
    "atom-at-zero": (DiscreteMixture(ATOM_AT_ZERO), (
        (0.7, 0.7, 0.7, 0.7, 0.21000000000000002, -0.08399999999999996, 0.07769999999999977,
         0.03359999999999976, 0.21000000000000002),
        (0.7, 0.7, 0.7, 0.7),
        1.0, 0.3, 1.0,
        1.4, 2.0)),
}


@pytest.mark.parametrize("name", LAW_OUTPUTS)
def test_law_outputs_are_frozen(name):
    law, expected = LAW_OUTPUTS[name]
    got = (astuple(law.moments()), tuple(law.raw_moment(k) for k in range(1, 5)), law.cdf(1.0),
           law.p_zero, quantile_abs(law, 0.35), shannon_ergodic_capacity(law, 3.0),
           shannon_outage_capacity(law, 3.0, 0.35))
    assert got == expected
