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
Any change to how identities are encoded or how draws are consumed
shows up here first; these values must never be updated to make a
change pass.
"""

import hashlib
import json
import random
from dataclasses import asdict

import numpy as np
import pytest

from dicode.codebook import ConcatCodebook, plan_params
from dicode.fading import Constant, DiscreteMixture, Nakagami, Rayleigh
from dicode.harness import ExperimentConfig, MomentGridConfig, moment_validation, run_experiment

SKEWED = ((0.5, 0.6), (1.5, 0.2), (2.0, 0.2))


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
