"""Experiment harness: determinism, accounting, and statistics.

The load-bearing properties: per-trial seeding makes reports
byte-identical for any worker count, outages never land in error
denominators, and the degenerate slow-fading regime shows the forced
trade-off (conditional error rates on h = 0 trials sum to one).
"""

import dataclasses
import itertools
import json
import math
import os
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from dicode import config as config_mod
from dicode.channel import FastFading
from dicode.errors import DegenerateFadingError
from dicode.harness import (
    ArrayCodebook,
    ExperimentConfig,
    MomentGridConfig,
    _gen,
    _slot_streams,
    build_codebook,
    moment_validation,
    run_experiment,
    wilson_interval,
    write_text_atomic,
)
from dicode.fading import Constant, DiscreteMixture, Nakagami, Rayleigh, Rician
from dicode.packing import PackingSpec, generate_expurgated


def small_config(**overrides):
    base = {
        "channel": {"type": "awgn", "sigma2": 0.25},
        "codebook": {"type": "concat", "n": 500, "a": 0.02, "power_bound": 1.0},
        "verifier": {"mode": "csi-fast"},
        "trials": {"identities": 5, "per_identity": 4, "pairs": 6,
                   "per_pair": 3, "min_distance_pairs": 2},
        "seed": 7,
    }
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


# -- wilson intervals ------------------------------------------------------


def test_wilson_frozen_values():
    # the exact bits every frozen report hash was made with: z is the 97.5%
    # quantile 1.9599639845400538, one ulp below the correctly rounded one
    assert wilson_interval(0, 100) == (0.0, 0.036993498206985664)
    lo, hi = wilson_interval(50, 100)
    assert (lo, hi) == (0.4038315303659956, 0.5961684696340044)
    assert lo + hi == pytest.approx(1.0, abs=1e-12)  # symmetry at p = 1/2
    assert wilson_interval(3, 17) == (0.06191126637620997, 0.41029458568834126)
    assert wilson_interval(1, 3) == (0.06149194472039626, 0.7923403991979521)


def test_wilson_interval_properties():
    for k, n in ((0, 10), (3, 17), (10, 10), (250, 1000)):
        lo, hi = wilson_interval(k, n)
        assert 0.0 <= lo <= k / n <= hi <= 1.0
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


def test_wilson_coverage_meta_test():
    # Bernoulli(0.3), 20 independent experiments of 200 trials: the 95%
    # interval should bracket the truth in the clear majority of them
    rng = np.random.default_rng(19)
    covered = 0
    for _ in range(20):
        k = int(rng.binomial(200, 0.3))
        lo, hi = wilson_interval(k, 200)
        covered += lo <= 0.3 <= hi
    assert covered >= 15


# -- experiment engine -----------------------------------------------------


def test_reports_are_byte_identical_across_worker_counts():
    texts = []
    for workers in (1, 2, 4):
        rep = run_experiment(small_config(workers=workers))
        texts.append(rep.canonical_json())
    # threads that switch mid-block: a generator shared between two of them
    # would hand one thread's draws to the other and change the bytes
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        texts.append(run_experiment(small_config(workers=3)).canonical_json())
    finally:
        sys.setswitchinterval(interval)
    assert texts[0] == texts[1] == texts[2] == texts[3]
    # the worker count may only surface in the meta block
    assert '"workers"' not in texts[0]


def test_block_streams_equal_numpys_per_trial_seeding():
    # _slot_streams reaches SeedSequence((seed, tag, slot, t))'s stream by numpy's
    # seeding arithmetic, which NEP 19 does not freeze: a numpy release that
    # changes it fails here.  Seeds of 1 to 4 uint32 words; t from 2^32 takes a
    # second word, and three ranges straddle 2^32, one by more than a seed chunk
    picks = np.random.default_rng(21).integers(0, 1 << 32, size=50).tolist()
    ranges = [(s, min(s + 43, 300)) for s in range(0, 300, 43)] + [(t, t + 1) for t in picks]
    ranges += [(2**32 - 2, 2**32), (2**32 - 1, 2**32 + 1), (2**32, 2**32 + 2),
               (2**32 - 300, 2**32 + 300)]
    rng = np.random.Generator(np.random.PCG64(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy scalar uint32 overflow would warn on stderr
        for seed, tag, slot in itertools.product((0, 2**32 - 1, 2**32, 2**64 + 1, 2**97 + 5),
                                                 range(4), (0, 2**31)):
            for start, stop in ranges:
                streams = _slot_streams(rng, seed, tag, slot, start, stop)
                for t in range(start, stop):
                    g, ref = next(streams), _gen(seed, tag, slot, t)
                    assert np.array_equal(g.standard_normal(8), ref.standard_normal(8)), \
                        (seed, tag, slot, t)
                    assert np.array_equal(g.random(3), ref.random(3))
                    assert g.bit_generator.state == ref.bit_generator.state
                assert next(streams, None) is None


def test_outputs_carry_the_run_environment_beside_their_results(monkeypatch):
    import dicode.harness as harness_mod

    env = {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
           "cores": harness_mod._usable_cores()}
    grid_cfg = MomentGridConfig(distributions=(Rayleigh(1.0),), n=8, draws=2000, pair_count=1)
    report, grid = run_experiment(small_config()), moment_validation(grid_cfg)
    meta = json.loads(report.full_json())["meta"]
    assert set(meta) == {"wall_clock_s", "workers", "env"} and meta["env"] == env
    assert json.loads(grid.to_json())["env"] == env
    # another environment moves neither the canonical bytes nor the moment rows
    monkeypatch.setattr(harness_mod, "_env", lambda: {"python": "0.0.0", "numpy": "0", "cores": 0})
    other = run_experiment(small_config())
    assert json.loads(other.full_json())["meta"]["env"]["cores"] == 0
    assert other.canonical_json() == report.canonical_json()
    assert moment_validation(grid_cfg).rows == grid.rows


@pytest.mark.parametrize("workers", [0, -3])
def test_run_experiment_refuses_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
        run_experiment(dataclasses.replace(small_config(), workers=workers))


def test_reruns_reproduce_and_seeds_differ():
    a = run_experiment(small_config()).canonical_json()
    b = run_experiment(small_config()).canonical_json()
    c = run_experiment(small_config(seed=8)).canonical_json()
    assert a == b
    assert a != c


def test_zero_noise_means_zero_errors():
    cfg = small_config(channel={"type": "awgn", "sigma2": 0.0})
    res = run_experiment(cfg).results
    assert res["type1"]["pooled"]["errors"] == 0
    assert res["type2"]["pooled"]["accepts"] == 0
    assert res["type1"]["pooled"]["error_rate"] == 0.0


def test_trial_accounting_adds_up():
    res = run_experiment(small_config()).results
    t1 = res["type1"]
    assert len(t1["per_identity"]) == 5
    assert t1["pooled"]["trials"] == 5 * 4
    assert t1["pooled"]["errors"] == sum(r["errors"] for r in t1["per_identity"])
    t2 = res["type2"]
    assert len(t2["per_pair"]) == 6
    kinds = [r["kind"] for r in t2["per_pair"]]
    assert kinds.count("close") == 2 and kinds.count("random") == 4
    for r in t2["per_pair"]:
        assert r["sent"] != r["verified"]
    assert res["outage"]["trials"] == 5 * 4 + 6 * 3


def test_outages_leave_the_error_denominator():
    # Rayleigh slow fading with a tall outage budget: outages must be
    # frequent, reported, and excluded from the error rates
    cfg = small_config(
        channel={"type": "slow-fading", "sigma2": 0.25,
                 "fading": {"type": "rayleigh", "scale": 1.0}},
        verifier={"mode": "csi-slow"},
        outage_eta=0.3,
        trials={"identities": 6, "per_identity": 30, "pairs": 6,
                "per_pair": 10, "min_distance_pairs": 2},
    )
    res = run_experiment(cfg).results
    out = res["outage"]
    assert out["outages"] > 0
    assert out["fraction"] == pytest.approx(0.3, abs=0.12)
    pooled = res["type1"]["pooled"]
    observed = pooled["trials"] - pooled["outages"]
    assert pooled["error_rate"] == pooled["errors"] / observed
    assert res["verifier"]["outage_threshold"] > 0.0


def test_degenerate_fading_needs_the_explicit_flag():
    channel = {"type": "slow-fading", "sigma2": 1.0,
               "fading": {"type": "discrete",
                          "atoms": [[0.0, 0.3], [1.0, 0.7]]}}
    cfg = small_config(channel=channel, verifier={"mode": "csi-slow"},
                       outage_eta=0.2)
    with pytest.raises(DegenerateFadingError):
        run_experiment(cfg)


def test_degenerate_regime_error_rates_sum_to_one_on_dead_blocks():
    channel = {"type": "slow-fading", "sigma2": 1.0,
               "fading": {"type": "discrete",
                          "atoms": [[0.0, 0.3], [1.0, 0.7]]}}
    cfg = small_config(
        channel=channel, verifier={"mode": "csi-slow"}, outage_eta=0.2,
        allow_degenerate_outage=True,
        trials={"identities": 10, "per_identity": 40, "pairs": 10,
                "per_pair": 40, "min_distance_pairs": 2},
        codebook={"type": "concat", "n": 500, "a": 0.02, "power_bound": 1.0},
    )
    res = run_experiment(cfg).results
    assert res["verifier"]["degenerate_outage"] is True
    assert res["verifier"]["outage_threshold"] == 0.0
    assert res["outage"]["outages"] == 0          # radius zero: no outages
    zf = res["zero_fading"]
    assert zf["type1"]["trials"] > 0 and zf["type2"]["trials"] > 0
    # pure-noise blocks: accept probability p gives error sum (1-p) + p
    assert zf["error_sum"] == pytest.approx(1.0, abs=0.15)


def test_zero_coefficient_bookkeeping_only_counts_exact_zeros():
    cfg = small_config(
        channel={"type": "slow-fading", "sigma2": 0.25,
                 "fading": {"type": "rayleigh", "scale": 1.0}},
        verifier={"mode": "csi-slow"}, outage_eta=0.1,
    )
    res = run_experiment(cfg).results
    assert "zero_fading" not in res   # Rayleigh never lands on exactly 0


# -- codebook sources ------------------------------------------------------


def test_array_codebook_close_partner_is_nearest_neighbor():
    rng = np.random.default_rng(0)
    vectors = rng.normal(0, 1, (20, 8))
    book = ArrayCodebook(vectors)
    for i in (0, 7, 19):
        j = book.close_partner(i)
        d = np.sum((vectors - vectors[i]) ** 2, axis=1)
        d[i] = np.inf
        assert j == int(np.argmin(d))


def _full_matrix_partners(vectors):
    sq = np.sum(vectors**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2 * (vectors @ vectors.T)
    np.fill_diagonal(d2, np.inf)
    return np.argmin(d2, axis=1).tolist()


@pytest.mark.parametrize("book", ["criterion-5", "400x64", "40x8"])
def test_array_codebook_close_partners_equal_the_full_matrix_oracle(book):
    if book == "criterion-5":
        spec = PackingSpec(n=4096, target_size=120, power_bound=4.0, sampling_power=2.0,
                           distance_exponent=0.05, seed=9)
        vectors = generate_expurgated(spec, "norm-concentrated")[0]
    else:
        rows, n = map(int, book.split("x"))
        vectors = np.random.default_rng(rows).normal(0, 1, (rows, n))
    array_book = ArrayCodebook(vectors)
    got = [array_book.close_partner(i) for i in range(len(vectors))]
    assert got == _full_matrix_partners(vectors)


def test_array_codebook_close_partner_holds_one_row_of_distances():
    book = ArrayCodebook(np.random.default_rng(3).normal(0, 1, (4000, 4)))
    tracemalloc.start()
    try:
        book.close_partner(17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 4000 * 8  # a (4000, 4000) matrix would take 128 MB


def test_building_a_packing_book_peaks_near_its_draws():
    # the criterion-5 record of the fading-nocsi benchmark: the book is the
    # compacted draws, its norms one float per row
    record = {"type": "packing", "profile": "norm-concentrated",
              "spec": {"n": 4096, "target_size": 120, "power_bound": 4.0,
                       "sampling_power": 2.0, "distance_exponent": 0.05, "seed": 9}}
    draw_bytes = 2 * 120 * 4096 * 8
    tracemalloc.start()
    try:
        book, summary = build_codebook(record)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary["survivors"] == book.size == 239
    assert peak <= 1.5 * draw_bytes, peak / draw_bytes


def test_build_codebook_sources(tmp_path):
    book, summary = build_codebook({"type": "concat", "n": 500, "a": 0.02})
    assert summary["type"] == "concat"
    assert summary["params"]["q1"] == 4

    spec = {"n": 32, "target_size": 20, "power_bound": 4.0,
            "sampling_power": 2.0, "distance_exponent": 0.05, "seed": 1}
    book2, summary2 = build_codebook({"type": "packing", "spec": spec,
                                      "profile": "basic"})
    assert summary2["survivors"] == book2.size

    path = tmp_path / "ext.csv"
    np.savetxt(path, np.eye(4), delimiter=",")
    book3, summary3 = build_codebook({"type": "csv", "path": str(path)})
    assert book3.size == 4 and book3.n == 4

    with pytest.raises(ValueError):
        build_codebook({"type": "magic"})


def test_identity_draws_cover_big_indices():
    # identities live below M ~ 2^904; uniform draws must not collapse
    # into the float-safe range
    cfg = small_config(trials={"identities": 30, "per_identity": 1,
                               "pairs": 2, "per_pair": 1,
                               "min_distance_pairs": 1})
    res = run_experiment(cfg).results
    ids = [int(r["identity"]) for r in res["type1"]["per_identity"]]
    book, _ = build_codebook({"type": "concat", "n": 500, "a": 0.02})
    assert all(0 <= i < book.size for i in ids)
    assert max(ids) > 2**64          # astronomically unlikely to fail
    assert len(set(ids)) == len(ids)  # collisions are impossible in practice


def test_verifier_channel_compatibility_is_enforced():
    with pytest.raises(ValueError):
        run_experiment(small_config(verifier={"mode": "csi-slow"}))
    with pytest.raises(ValueError):
        run_experiment(small_config(
            channel={"type": "slow-fading", "sigma2": 1.0,
                     "fading": {"type": "rayleigh", "scale": 1.0}},
            verifier={"mode": "csi-fast"},
        ))
    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"channel": {"type": "awgn", "sigma2": 1.0},
                                    "codebook": {"type": "concat", "n": 500, "a": 0.02},
                                    "mystery_knob": 3})


_SLOW_RAYLEIGH = {"type": "slow-fading", "sigma2": 1.0,
                  "fading": {"type": "rayleigh", "scale": 1.0}}


@pytest.mark.parametrize("overrides,says", [
    ({"channel": _SLOW_RAYLEIGH}, "csi-fast serves awgn or fast-fading channels, not slow-fading"),
    ({"channel": _SLOW_RAYLEIGH, "verifier": {"mode": "no-csi"}}, "not slow-fading"),
    ({"verifier": {"mode": "csi-slow"}, "outage_eta": 0.1}, "csi-slow serves slow-fading"),
    ({"channel": _SLOW_RAYLEIGH, "verifier": {"mode": "csi-slow"}}, "csi-slow needs outage_eta"),
    ({"outage_eta": 0.3}, "csi-fast has no outage rule"),
    ({"verifier": {"mode": "no-csi"}, "allow_degenerate_outage": True},
     "no-csi has no outage rule"),
], ids=["slow/csi-fast", "slow/no-csi", "awgn/csi-slow", "no-eta", "eta", "degenerate"])
def test_unserved_modes_are_refused_before_the_codebook_is_built(overrides, says, monkeypatch):
    import dicode.harness as harness_mod

    def no_build(cfg):
        raise AssertionError("build_codebook ran")

    monkeypatch.setattr(harness_mod, "build_codebook", no_build)
    cfg = small_config(**overrides)
    with pytest.raises(ValueError, match=says):
        run_experiment(cfg)


def test_random_pairs_of_one_identity_are_refused_before_the_codebook_is_built(monkeypatch):
    import dicode.harness as harness_mod

    def no_build(cfg):
        raise AssertionError("build_codebook ran")

    monkeypatch.setattr(harness_mod, "build_codebook", no_build)
    trials = {"identities": 1, "per_identity": 4, "pairs": 6, "per_pair": 3,
              "min_distance_pairs": 2}
    with pytest.raises(ValueError, match="^trials.identities must be at least 2 for random "
                       "pairs, got 1 with trials.pairs - trials.min_distance_pairs = 4$"):
        run_experiment(small_config(trials=trials))


@pytest.mark.parametrize("name", ["identities", "per_identity", "pairs", "per_pair",
                                  "min_distance_pairs"])
def test_a_hand_built_config_keeps_each_count_as_its_table_resolves_it(name):
    # an integral float count runs as the int `dicode simulate` reads
    cfg = small_config()
    value = getattr(cfg, name)
    got = dataclasses.replace(cfg, **{name: float(value)})
    assert type(getattr(got, name)) is int and got == cfg
    assert run_experiment(got).canonical_json() == run_experiment(cfg).canonical_json()


def test_one_identity_runs_close_pairs_alone():
    trials = {"identities": 1, "per_identity": 4, "pairs": 2, "per_pair": 3,
              "min_distance_pairs": 2}
    rep = run_experiment(small_config(trials=trials))
    assert rep.results["type2"]["pooled"]["trials"] == 6


def test_report_csv_shapes():
    rep = run_experiment(small_config())
    lines = rep.identities_csv().strip().splitlines()
    assert lines[0].startswith("slot,identity,trials")
    assert len(lines) == 1 + 5
    lines = rep.pairs_csv().strip().splitlines()
    assert len(lines) == 1 + 6
    full = json.loads(rep.full_json())
    assert set(full) == {"results", "meta"}
    assert "wall_clock_s" in full["meta"]


def test_atomic_write(tmp_path):
    path = tmp_path / "out.txt"
    write_text_atomic(path, "hello\n")
    assert path.read_text() == "hello\n"
    write_text_atomic(path, "replaced\n")
    assert path.read_text() == "replaced\n"
    write_text_atomic(path, (f"line {i}\n" for i in range(3)))  # an iterable of strings
    assert path.read_text() == "line 0\nline 1\nline 2\n"
    assert list(tmp_path.iterdir()) == [path]  # no temp litter


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=["022", "077", "002"])
def test_atomic_write_gives_the_mode_of_a_plain_write(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain.txt", "w") as fh:
            fh.write("plain\n")
        write_text_atomic(tmp_path / "atomic.txt", "atomic\n")
    finally:
        os.umask(old)
    mode = (tmp_path / "plain.txt").stat().st_mode & 0o777
    assert mode == 0o666 & ~umask
    assert (tmp_path / "atomic.txt").stat().st_mode & 0o777 == mode


# -- moment validation grid ------------------------------------------------


def test_moment_grid_confirms_formulas_on_a_small_budget():
    cfg = MomentGridConfig(
        distributions=(Constant(1.0), Rayleigh(1.0),
                       DiscreteMixture(((0.5, 0.6), (1.5, 0.2), (2.0, 0.2)))),
        n=32, draws=60_000, seed=5, pair_count=2,
    )
    report = moment_validation(cfg)
    # 3 laws x 2 modes x 2 pairs x 2 statistics x 2 quantities
    assert len(report.rows) == 48
    assert report.failures == []
    payload = json.loads(report.to_json())
    assert payload["failures"] == 0
    assert payload["draws"] == 60_000
    assert len(payload["cell_s"]) == 24 and payload["cell_s"] == report.cell_s


def test_moment_grid_flags_a_wrong_formula(monkeypatch):
    # detection power: corrupt the closed-form mean by 5% and the grid
    # must flag every mean row while the variance rows stay green
    import dicode.harness as harness_mod

    true_fn = harness_mod.impostor_moments

    def skewed(verifier, u_center, u_sent, m):
        mean, var = true_fn(verifier, u_center, u_sent, m)
        return 1.05 * mean, var

    monkeypatch.setattr(harness_mod, "impostor_moments", skewed)
    cfg = MomentGridConfig(distributions=(Constant(1.0),), n=16,
                           draws=40_000, seed=6, pair_count=1)
    report = moment_validation(cfg)
    mean_rows = [r for r in report.rows if r.quantity == "mean"]
    var_rows = [r for r in report.rows if r.quantity == "variance"]
    assert mean_rows and var_rows
    assert all(not r.ok for r in mean_rows)
    assert min(r.deviation for r in mean_rows) > 10.0   # not a borderline trip
    assert all(r.ok for r in var_rows)


def test_moment_grid_builds_each_verifier_through_the_decoder_builder(monkeypatch):
    # one build per law and mode, over fast fading, from the law's one moments() call
    import dicode.harness as harness_mod

    calls, build = [], harness_mod.build_verifier

    def spy(mode, channel, *args, **kw):
        calls.append((mode, channel, kw.get("moments")))
        return build(mode, channel, *args, **kw)

    monkeypatch.setattr(harness_mod, "build_verifier", spy)
    law = Rayleigh(1.0)
    moment_validation(MomentGridConfig(distributions=(law,), n=16, draws=200, pair_count=2,
                                       sigma2=0.5))
    assert [(mode, channel) for mode, channel, _ in calls] == [
        ("csi-fast", FastFading(law, 0.5)), ("no-csi", FastFading(law, 0.5))]
    assert all(moments == law.moments() for *_, moments in calls)


def test_moment_grid_refuses_an_unknown_mode_before_drawing(monkeypatch):
    # "csi-fast" names a `simulate` verifier, not a grid mode
    import dicode.harness as harness_mod

    def no_draws(*args):
        raise AssertionError("a cell was drawn")

    monkeypatch.setattr(harness_mod, "_cell_moments", no_draws)
    with pytest.raises(ValueError, match="^moment grid modes\\[0\\] must be one of .*'csi-fast'"):
        MomentGridConfig(distributions=(Constant(1.0),), n=16, draws=200, pair_count=1,
                         modes=("csi-fast",))


@pytest.mark.parametrize("field, value", [
    ("pair_count", 0), ("modes", ()), ("distributions", ()), ("draws", 0), ("chunk", 0),
    ("n", 0), ("draws", -5), ("vector_power", -1.0), ("vector_power", math.nan),
    ("vector_power", math.inf), ("tolerance_sigmas", -1.0), ("tolerance_sigmas", math.nan),
    ("tolerance_sigmas", math.inf)])
def test_moment_grid_refuses_an_empty_or_impossible_grid(field, value):
    # an empty grid would pass without checking anything; the rest cannot
    # draw, or would fail (or pass) every row whatever the draws
    kw = {"distributions": (Constant(1.0),), "n": 16, "draws": 200, "pair_count": 1, field: value}
    says = "has 0 entries, fewer than 1" if value == () else "must be"
    with pytest.raises(ValueError, match=f"^moment grid {field} {says}"):
        MomentGridConfig(**kw)


class _NanLaw(Constant):
    """Constant fading's closed-form moments, but every draw is NaN."""

    def _fill(self, rng, out):
        out.fill(math.nan)


def test_moment_rows_with_non_finite_estimates_fail():
    cfg = MomentGridConfig(distributions=(_NanLaw(1.0),), n=16, draws=200, seed=1,
                           pair_count=1)
    report = moment_validation(cfg)
    assert len(report.rows) == 8 and report.failures == report.rows
    assert all(math.isnan(r.estimate) and math.isnan(r.deviation) for r in report.rows)


def _reference_grid(cfg: MomentGridConfig) -> list:
    """The grid's rows from the plain whole-chunk expression: per chunk,
    the fading, then the noise, as one (chunk, n) draw each."""
    from dicode.decoder import CsiFast, NoCsi, impostor_moments
    from dicode.harness import MomentCheckRow, _gen, hash_label

    rng_vectors = _gen(cfg.seed, 10)
    vecs = [math.sqrt(cfg.vector_power) * rng_vectors.standard_normal(cfg.n)
            for _ in range(max(3, cfg.pair_count))]
    rows = []
    for dist in cfg.distributions:
        m = dist.moments()
        for mode in cfg.modes:
            verifier = CsiFast(cfg.sigma2) if mode == "csi" else NoCsi(cfg.sigma2, m)
            for pi in range(cfg.pair_count):
                u_center, u_other = vecs[pi % len(vecs)], vecs[(pi + 1) % len(vecs)]
                label = f"{dist.to_config()['type']}/{mode}/pair{pi}"
                for stat, u_sent in (("genuine", u_center), ("impostor", u_other)):
                    th_mean, th_var = impostor_moments(verifier, u_center, u_sent, m)
                    rng = _gen(cfg.seed, 11, hash_label(label), 0 if stat == "genuine" else 1)
                    s1 = s2 = s3 = s4 = 0.0
                    done = 0
                    while done < cfg.draws:
                        b = min(cfg.chunk, cfg.draws - done)
                        h = np.asarray(dist.sample(rng, (b, cfg.n)), dtype=float)
                        z = math.sqrt(cfg.sigma2) * rng.standard_normal((b, cfg.n))
                        y = h * u_sent + z
                        center = h * u_center if mode == "csi" else m.c * u_center
                        w = np.sum((y - center) ** 2, axis=1) - th_mean
                        s1 += float(w.sum())
                        s2 += float((w * w).sum())
                        s3 += float((w**3).sum())
                        s4 += float((w**4).sum())
                        done += b
                    N = cfg.draws
                    mean_w = s1 / N
                    var = s2 / N - mean_w**2
                    m4 = s4 / N - 4 * mean_w * s3 / N + 6 * mean_w**2 * s2 / N - 3 * mean_w**4
                    for quantity, formula, est, se in (
                            ("mean", th_mean, th_mean + mean_w, math.sqrt(max(var, 0.0) / N)),
                            ("variance", th_var, var, math.sqrt(max(m4 - var * var, 0.0) / N))):
                        dev = abs(est - formula) / se if se > 0 else 0.0
                        rows.append(MomentCheckRow(label, stat, quantity, formula, est, se, dev,
                                                   dev <= cfg.tolerance_sigmas))
    return rows


def test_moment_grid_rows_match_the_whole_chunk_expression(monkeypatch):
    from collections import Counter

    import dicode.harness as harness_mod
    from dicode.fading import FadingDistribution

    laws = (Constant(1.0), Rayleigh(1.0), Rician(1.5, 2.0), Nakagami(2.0, 1.0),
            DiscreteMixture(((0.5, 0.6), (1.5, 0.2), (2.0, 0.2))))
    # 8 * 16 * 3 bytes make three-row blocks, so a 7-draw chunk splits 3 + 3 + 1,
    # and 17 draws run as chunks of 7, 7 and 3
    cfg = MomentGridConfig(distributions=laws, n=16, draws=17, chunk=7, seed=8, pair_count=2,
                           sigma2=0.7)
    want = _reference_grid(cfg)
    monkeypatch.setattr(config_mod, "WORK_BYTES", 8 * 16 * 3)
    calls = Counter()
    for cls in (FadingDistribution, Constant):  # every law's moments() is one of these
        def counted(self, _moments=cls.moments):
            calls[self] += 1
            return _moments(self)
        monkeypatch.setattr(cls, "moments", counted)
    interval = sys.getswitchinterval()
    for threads in (1, 3):
        calls.clear()
        monkeypatch.setattr(harness_mod, "_usable_cores", lambda: threads)
        sys.setswitchinterval(1e-6)  # threads swap often, so shared state would show
        try:
            report = moment_validation(cfg)
        finally:
            sys.setswitchinterval(interval)
        assert report.rows == want
        assert calls == Counter(laws)  # once per law, not once per cell
        assert len(report.cell_s) == len(want) // 2
        assert all(s >= 0 for s in report.cell_s)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("law", [
    Constant(1.0), Rayleigh(1.0), Rician(1.5, 2.0), Nakagami(2.0, 1.0),
    DiscreteMixture(((0.0, 0.3), (1.0, 0.7))),
    DiscreteMixture(((0.5, 0.6), (1.5, 0.2), (2.0, 0.2))),
], ids=["constant", "rayleigh", "rician", "nakagami", "atom-at-zero", "skewed"])
def test_moment_grid_peak_memory_is_one_chunk_buffer_per_thread(monkeypatch, law, threads):
    # the benchmark's laws and shape: each thread holds one (chunk, n) fading
    # buffer and two row blocks, and the law's own temporaries stay small
    import tracemalloc

    # Rician moments run a quadrature that imports scipy on first use; its
    # allocations are the import's, not the grid's
    import scipy.integrate  # noqa: F401
    import scipy.special  # noqa: F401
    import scipy.stats  # noqa: F401

    import dicode.harness as harness_mod

    monkeypatch.setattr(harness_mod, "_usable_cores", lambda: threads)
    cfg = MomentGridConfig(distributions=(law,), n=64, draws=20_000, pair_count=1)
    per_thread = cfg.chunk * cfg.n * 8 + 2 * config_mod.WORK_BYTES
    tracemalloc.start()
    try:
        report = moment_validation(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.rows) == 8
    assert peak <= threads * 1.15 * per_thread, peak / per_thread


class _HugeBook:
    """Stands in for a codebook whose identities pass 4300 decimal digits."""

    size = 10**5000
    n = 16

    def __init__(self):
        self.seen = set()

    def encode(self, index):
        self.seen.add(index)
        return np.random.default_rng(index % 2**32).choice([-1.0, 1.0], self.n)

    def close_partner(self, index):
        return index ^ 1


def _from_digits(digits: str) -> int:
    # int() refuses strings past 4300 digits, so rebuild in chunks
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10**len(chunk) + int(chunk)
    return value


def test_reports_write_identities_past_the_int_to_str_limit(monkeypatch):
    import dicode.harness as harness_mod

    book = _HugeBook()
    monkeypatch.setattr(harness_mod, "build_codebook", lambda cfg: (book, {"type": "stub"}))
    rep = run_experiment(small_config(trials={"identities": 3, "per_identity": 2, "pairs": 3,
                                              "per_pair": 2, "min_distance_pairs": 1}))
    written = [r["identity"] for r in rep.results["type1"]["per_identity"]]
    written += [r[k] for r in rep.results["type2"]["per_pair"] for k in ("sent", "verified")]
    assert max(len(w) for w in written) > 4300
    assert all(w.isdigit() and not w.startswith("0") for w in written)
    assert {_from_digits(w) for w in written} == book.seen
    assert len(rep.identities_csv().splitlines()) == 4


# -- the batched trial engine against a trial-by-trial reference loop ------

_SMALL_PACKING = {"type": "packing", "profile": "norm-concentrated",
                  "spec": {"n": 64, "target_size": 16, "power_bound": 4.0,
                           "sampling_power": 2.0, "distance_exponent": 0.05, "seed": 3}}
_SKEWED = {"type": "discrete", "atoms": [[0.5, 0.6], [1.5, 0.2], [2.0, 0.2]]}
_ATOM_AT_ZERO = {"type": "discrete", "atoms": [[0.0, 0.3], [0.2, 0.2], [1.0, 0.5]]}

# name -> (config overrides, WORK_BYTES); 8 bytes per coordinate, so
# 8 * 64 * 3 gives three-row blocks and a short last block.  Loud noise and
# a narrow ball make every case reject some genuine and accept some
# impostor trials.  The long-slot case has a two-word seed and slots of
# more than two seed chunks (256 trials each) in three-row blocks of the
# n = 500 book, so blocks straddle the chunks.
_LOUD = {"sigma2": 10.0}
_NARROW = {"deviation_scale": 0.3}
ENGINE_CASES = {
    "awgn/csi-fast": ({"channel": {"type": "awgn", **_LOUD},
                       "verifier": {"mode": "csi-fast", **_NARROW}}, 1),
    "awgn/no-csi": ({"channel": {"type": "awgn", **_LOUD}, "codebook": _SMALL_PACKING,
                     "verifier": {"mode": "no-csi", **_NARROW}}, 8 * 64 * 3),
    "fast/csi-fast": ({"channel": {"type": "fast-fading", **_LOUD, "fading": _SKEWED},
                       "codebook": _SMALL_PACKING, "verifier": {"mode": "csi-fast", **_NARROW}},
                      8 * 64 * 3),
    "fast/no-csi": ({"channel": {"type": "fast-fading", **_LOUD, "fading": _SKEWED},
                     "codebook": _SMALL_PACKING, "verifier": {"mode": "no-csi", **_NARROW}}, 1),
    "slow/csi-slow-degenerate": ({"channel": {"type": "slow-fading", **_LOUD,
                                              "fading": _ATOM_AT_ZERO},
                                  "codebook": _SMALL_PACKING,
                                  "verifier": {"mode": "csi-slow", **_NARROW},
                                  "outage_eta": 0.1, "allow_degenerate_outage": True},
                                 8 * 64 * 3),
    "slow/csi-slow-outage": ({"channel": {"type": "slow-fading", **_LOUD,
                                          "fading": _ATOM_AT_ZERO},
                              "codebook": _SMALL_PACKING,
                              "verifier": {"mode": "csi-slow", **_NARROW},
                              "outage_eta": 0.5}, 1),
    "awgn/csi-fast-long-slots": ({"channel": {"type": "awgn", **_LOUD},
                                  "verifier": {"mode": "csi-fast", **_NARROW}, "seed": 2**32 + 7,
                                  "trials": {"identities": 2, "per_identity": 600, "pairs": 2,
                                             "per_pair": 530, "min_distance_pairs": 1}},
                                 8 * 500 * 3),
}


def _reference_counts(cfg, results):
    """Per-slot (hits, outages, h = 0 trials, h = 0 hits) from a plain loop:
    one transmit and one one-row verify with a fresh threshold per trial."""
    from dicode.channel import FastFading, SlowFading, transmit
    from dicode.decoder import CsiFast, CsiSlow, NoCsi
    from dicode.harness import build_codebook

    book, _ = build_codebook(cfg.codebook)
    sigma2 = cfg.channel.sigma2
    if cfg.verifier_mode == "csi-fast":
        spec = CsiFast(sigma2, cfg.deviation_scale)
    elif cfg.verifier_mode == "csi-slow":
        spec = CsiSlow(sigma2, results["verifier"]["outage_threshold"], cfg.deviation_scale)
    else:
        law = cfg.channel.fading if isinstance(cfg.channel, FastFading) else Constant(1.0)
        spec = NoCsi(sigma2, law.moments(), cfg.deviation_scale)
    slow = isinstance(cfg.channel, SlowFading)

    def slot(tag, k, sent, verified, trials):
        u_sent, u = book.encode(int(sent)), book.encode(int(verified))
        out = [0, 0, 0, 0]
        for t in range(trials):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, tag, k, t))))
            y, h = transmit(cfg.channel, u_sent, [rng])  # a one-row block
            accept, outage = spec.verify(y, u, h, spec.threshold(u))
            if outage is not None and outage[0]:
                out[1] += 1
                continue
            hit = bool(accept[0]) if tag == 2 else not accept[0]
            out[0] += hit
            if slow and h[0] == 0.0:
                out[2] += 1
                out[3] += hit
        return out

    type1 = [slot(1, r["slot"], r["identity"], r["identity"], r["trials"])
             for r in results["type1"]["per_identity"]]
    type2 = [slot(2, r["slot"], r["sent"], r["verified"], r["trials"])
             for r in results["type2"]["per_pair"]]
    return type1, type2


@pytest.mark.parametrize("case", sorted(ENGINE_CASES))
def test_engine_counts_match_a_trial_by_trial_loop(case, monkeypatch):
    import dicode.harness as harness_mod

    overrides, block_bytes = ENGINE_CASES[case]
    monkeypatch.setattr(config_mod, "WORK_BYTES", block_bytes)
    trials = {"identities": 4, "per_identity": 10, "pairs": 5, "per_pair": 7,
              "min_distance_pairs": 2}
    overrides = {"trials": trials, **overrides}
    reports = [run_experiment(small_config(**overrides, workers=w)) for w in (1, 3)]
    assert reports[0].canonical_json() == reports[1].canonical_json()
    res = reports[0].results
    type1, type2 = _reference_counts(small_config(**overrides), res)
    assert [[r["errors"], r["outages"]] for r in res["type1"]["per_identity"]] == \
        [c[:2] for c in type1]
    assert [[r["accepts"], r["outages"]] for r in res["type2"]["per_pair"]] == \
        [c[:2] for c in type2]
    zero = res.get("zero_fading")
    if zero is None:
        assert sum(c[2] for c in type1 + type2) == 0
    else:
        assert [zero["type1"]["trials"], zero["type1"]["errors"]] == \
            [sum(c[2] for c in type1), sum(c[3] for c in type1)]
        assert [zero["type2"]["trials"], zero["type2"]["accepts"]] == \
            [sum(c[2] for c in type2), sum(c[3] for c in type2)]
    # every case decides trials both ways, so the comparison has teeth
    assert res["type1"]["pooled"]["errors"] > 0 and res["type2"]["pooled"]["accepts"] > 0
    assert (zero is not None) == case.endswith("degenerate")
    assert (res["outage"]["outages"] > 0) == case.endswith("outage")


def test_trial_engine_holds_one_block_of_words_per_worker(monkeypatch):
    # 2 workers, AWGN, 8 slots of 2048 trials at n = 64: each worker's block
    # of received words is WORK_BYTES, and verify decides it in its own memory.
    # The block is pinned at 1 MiB: the seeding's fixed 0.3 MB would be over a
    # block at the 256 KiB default, and the bound tells blocks, not seeding
    block = 1 << 20
    monkeypatch.setattr(config_mod, "WORK_BYTES", block)

    def config(per_identity):
        return small_config(
            codebook={"type": "packing", "spec": {"n": 64, "target_size": 40,
                                                  "distance_exponent": 0.05}},
            trials={"identities": 8, "per_identity": per_identity, "pairs": 0,
                    "min_distance_pairs": 0}, workers=2)

    run_experiment(config(1))  # the lazy imports and caches of a first run
    tracemalloc.start()
    try:
        run_experiment(config(block // (8 * 64)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # about 2.3 blocks: the two words blocks and each thread's seeding; a
    # scratch block per worker besides would make it 4.3
    assert peak <= 2.75 * block, peak / block


# name -> a run whose outputs must not depend on WORK_BYTES.  At the 256 KiB
# default each one cuts some step into several work blocks that 1 MiB takes
# whole: trial blocks (rows of n = 500 and 512 words), slow-fading center
# rows, moment-grid fill and noise blocks (a 100 x 512 chunk), and the
# encoder's coefficient widths at n = 3000
_WIDE_PACKING = {"type": "packing", "profile": "norm-concentrated",
                 "spec": {"n": 512, "target_size": 8, "power_bound": 4.0,
                          "sampling_power": 2.0, "distance_exponent": 0.05, "seed": 3}}
_WIDE_TRIALS = {"identities": 3, "per_identity": 100, "pairs": 2, "per_pair": 100,
                "min_distance_pairs": 1}


def _simulate(**overrides):
    return run_experiment(small_config(trials=_WIDE_TRIALS, **overrides)).canonical_json()


def _concat_words():
    from dicode.codebook import ConcatCodebook, plan_params

    book = ConcatCodebook(plan_params(n=3000, a=0.035, power_bound=1.0))
    return [book.encode(i).tobytes() for i in (12345, book.close_partner(12345))]


WORK_CASES = {
    "concat/awgn/csi-fast": _simulate,
    "packing/fast/no-csi": lambda: _simulate(
        channel={"type": "fast-fading", "sigma2": 4.0, "fading": _SKEWED},
        codebook=_WIDE_PACKING, verifier={"mode": "no-csi"}),
    "packing/slow/csi-slow": lambda: _simulate(
        channel={"type": "slow-fading", "sigma2": 4.0, "fading": _ATOM_AT_ZERO},
        codebook=_WIDE_PACKING, verifier={"mode": "csi-slow"}, outage_eta=0.1,
        allow_degenerate_outage=True),
    "moments/two-laws": lambda: moment_validation(MomentGridConfig(
        distributions=(Rician(1.5, 2.0), DiscreteMixture(((0.5, 0.6), (1.5, 0.2), (2.0, 0.2)))),
        modes=("nocsi",), n=512, draws=100, seed=4, pair_count=1)).rows,
    "concat/encode": _concat_words,
}


@pytest.mark.parametrize("work_bytes", [1 << 20, 1], ids=["1MiB", "1B"])
@pytest.mark.parametrize("case", sorted(WORK_CASES))
def test_outputs_do_not_depend_on_work_bytes(case, work_bytes, monkeypatch):
    # the same report bytes, moment rows and codewords as at the default;
    # at one byte every count derived from WORK_BYTES (rows, fill entries,
    # coefficient widths, center rows) is one, not zero
    want = WORK_CASES[case]()
    monkeypatch.setattr(config_mod, "WORK_BYTES", work_bytes)
    assert WORK_CASES[case]() == want


def test_zero_mean_law_warns_on_the_batched_path():
    cfg = small_config(channel={"type": "fast-fading", "sigma2": 1.0,
                                "fading": {"type": "discrete", "atoms": [[-1.0, 0.5], [1.0, 0.5]]}},
                       codebook=_SMALL_PACKING, verifier={"mode": "no-csi"})
    with pytest.warns(RuntimeWarning, match="fading mean is zero"):
        run_experiment(cfg)
