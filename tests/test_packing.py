"""Random sphere packings with expurgation.

The independent oracle for the subset-projection checker is a
from-scratch brute force over all coordinate subsets at n = 12.  For
the expurgation itself, verify_packing re-checks every survivor with
plain reductions, and corrupted inputs must be caught.
"""

import itertools
import json
import math

import numpy as np
import pytest

from dicode.cli import main
from dicode.errors import InfeasibleError
from dicode.harness import wilson_interval
from dicode.packing import (
    PROFILES,
    SPEC_KEYS,
    PackingSpec,
    check_projection_property,
    generate_expurgated,
    load_csv,
    parse_spec,
    vectors_csv,
    verify_packing,
)

COMFY = dict(n=64, target_size=60, power_bound=4.0, sampling_power=2.0,
             distance_exponent=0.05)


def test_generation_is_deterministic_per_seed():
    spec = PackingSpec(seed=7, **COMFY)
    v1, r1 = generate_expurgated(spec, "fourth-moment")
    v2, r2 = generate_expurgated(spec, "fourth-moment")
    assert np.array_equal(v1, v2)
    assert r1 == r2
    v3, _ = generate_expurgated(PackingSpec(seed=8, **COMFY), "fourth-moment")
    assert not np.array_equal(v1, v3)


@pytest.mark.parametrize("profile", PROFILES)
def test_survivors_satisfy_their_profile_constraints(profile):
    spec = PackingSpec(seed=3, **COMFY)
    vectors, report = generate_expurgated(spec, profile)
    assert report.survivors == len(vectors) >= 2
    n, A = spec.n, spec.power_bound
    s2 = np.sum(vectors**2, axis=1)
    assert np.all(s2 <= n * A + 1e-9)
    if profile in ("fourth-moment", "norm-concentrated"):
        assert np.all(np.sum(vectors**4, axis=1) <= 3 * A * A * n + 1e-9)
    if profile == "norm-concentrated":
        band = math.sqrt(n) * math.log(n)
        assert np.all(np.abs(s2 - spec.sampling_power * n) <= band + 1e-9)
    floor2 = spec.distance_floor**2
    for i, j in itertools.combinations(range(len(vectors)), 2):
        assert np.sum((vectors[i] - vectors[j]) ** 2) >= floor2 - 1e-9


def test_survival_is_typical_not_lucky():
    # with A' = A/2 and a modest floor, random draws should nearly all
    # survive; check the pooled survivor fraction across 50 seeds is
    # confidently above one half
    total = kept = 0
    for seed in range(50):
        spec = PackingSpec(seed=seed, **COMFY)
        _, rep = generate_expurgated(spec, "fourth-moment")
        total += rep.sampled
        kept += rep.survivors
    lo, _ = wilson_interval(kept, total)
    assert lo > 0.5, (kept, total)


def test_expurgation_actually_removes_offenders():
    # shrink the floor's headroom: tiny sampling power makes every pair
    # too close, so expurgation wipes the set out
    spec = PackingSpec(n=16, target_size=20, power_bound=0.01,
                       sampling_power=0.005, distance_exponent=0.24, seed=0)
    with pytest.raises(InfeasibleError):
        generate_expurgated(spec, "basic")


def test_independent_verifier_passes_generated_sets():
    spec = PackingSpec(seed=11, **COMFY)
    for profile in PROFILES:
        vectors, _ = generate_expurgated(spec, profile)
        assert verify_packing(vectors, spec, profile) == []


def test_independent_verifier_catches_corruption():
    spec = PackingSpec(seed=11, **COMFY)
    vectors, _ = generate_expurgated(spec, "norm-concentrated")
    # duplicate a row: pairwise distance 0 < floor
    bad = np.vstack([vectors, vectors[0]])
    problems = verify_packing(bad, spec, "norm-concentrated")
    assert any("distance" in p for p in problems)
    # blow the power cap
    bad = vectors.copy()
    bad[0] = math.sqrt(spec.power_bound) * 2 * np.ones(spec.n)
    problems = verify_packing(bad, spec, "norm-concentrated")
    assert any("power" in p for p in problems)


def brute_force_projected_min(a, b, keep):
    """All coordinate subsets of the given size, coded independently."""
    best = math.inf
    for subset in itertools.combinations(range(a.size), keep):
        d = math.sqrt(sum((a[i] - b[i]) ** 2 for i in subset))
        best = min(best, d)
    return best


def test_projection_exhaustive_matches_brute_force_at_n12():
    spec = PackingSpec(n=12, target_size=5, power_bound=4.0,
                       sampling_power=2.0, distance_exponent=0.05, seed=1)
    vectors, _ = generate_expurgated(spec, "basic")
    vectors = vectors[:5]
    mu = 0.75
    keep = math.ceil(mu * 12 - 1e-9)
    report = check_projection_property(vectors, mu=mu, alpha=0.2, mode="exhaustive")
    assert report.subset_size == keep == 9
    assert report.certified
    pairs = list(itertools.combinations(range(5), 2))
    assert len(report.pair_minima) == len(pairs)
    for (i, j, got) in report.pair_minima:
        want = brute_force_projected_min(vectors[i], vectors[j], keep)
        assert got == pytest.approx(want, rel=1e-12)
    assert report.overall_min == pytest.approx(
        min(v for _, _, v in report.pair_minima), rel=1e-12
    )


def test_projection_with_full_fraction_is_the_plain_distance():
    spec = PackingSpec(n=14, target_size=6, power_bound=4.0,
                       sampling_power=2.0, distance_exponent=0.05, seed=2)
    vectors, _ = generate_expurgated(spec, "basic")
    vectors = vectors[:6]
    report = check_projection_property(vectors, mu=1.0, alpha=0.2, mode="exhaustive")
    full = min(
        float(np.linalg.norm(vectors[i] - vectors[j]))
        for i, j in itertools.combinations(range(6), 2)
    )
    assert report.overall_min == pytest.approx(full, rel=1e-12)


def test_projection_minima_grow_with_the_kept_fraction():
    spec = PackingSpec(n=12, target_size=5, power_bound=4.0,
                       sampling_power=2.0, distance_exponent=0.05, seed=3)
    vectors, _ = generate_expurgated(spec, "basic")
    vectors = vectors[:5]
    last = -1.0
    for mu in (0.5, 0.75, 1.0):
        rep = check_projection_property(vectors, mu=mu, alpha=0.2, mode="exhaustive")
        assert rep.overall_min >= last
        last = rep.overall_min


def test_sampled_projection_never_certifies_and_upper_bounds_the_truth():
    spec = PackingSpec(n=12, target_size=5, power_bound=4.0,
                       sampling_power=2.0, distance_exponent=0.05, seed=4)
    vectors, _ = generate_expurgated(spec, "basic")
    vectors = vectors[:5]
    exact = check_projection_property(vectors, mu=0.75, alpha=0.2, mode="exhaustive")
    sampled = check_projection_property(vectors, mu=0.75, alpha=0.2,
                                        mode="sampled", sample_count=64, seed=9)
    assert not sampled.certified
    assert exact.certified
    # a sample can only miss the worst subset, never beat it
    assert sampled.overall_min >= exact.overall_min - 1e-12
    again = check_projection_property(vectors, mu=0.75, alpha=0.2,
                                      mode="sampled", sample_count=64, seed=9)
    assert again.overall_min == sampled.overall_min


def test_exhaustive_mode_refuses_large_dimensions():
    vectors = np.eye(20)
    with pytest.raises(ValueError):
        check_projection_property(vectors, mu=0.5, alpha=0.2, mode="exhaustive")


def test_spec_validation():
    with pytest.raises(ValueError):
        PackingSpec(n=8, target_size=4, power_bound=1.0, sampling_power=2.0,
                    distance_exponent=0.05)      # A' >= A
    with pytest.raises(ValueError):
        PackingSpec(n=8, target_size=4, power_bound=2.0, sampling_power=1.0,
                    distance_exponent=0.3)       # exponent above 1/4
    with pytest.raises(ValueError):
        generate_expurgated(
            PackingSpec(n=8, target_size=4, power_bound=2.0,
                        sampling_power=1.0, distance_exponent=0.05),
            "prop-5",
        )


def test_csv_round_trip_with_spec_sidecar(tmp_path, capsys):
    spec = PackingSpec(seed=5, **COMFY)
    vectors, _ = generate_expurgated(spec, "basic")
    path = tmp_path / "vectors.csv"
    path.write_text(vectors_csv(vectors))
    assert np.array_equal(load_csv(path), vectors)
    # `dicode packing` writes the same rows, and a sidecar of the spec and profile
    sets = [arg for k, v in COMFY.items() for arg in ("--set", f"spec.{k}={v}")]
    assert main(["packing", "--outdir", str(tmp_path / "run"), "--seed", "5", *sets]) == 0
    capsys.readouterr()
    assert (tmp_path / "run" / "vectors.csv").read_text() == path.read_text()
    sidecar = json.loads((tmp_path / "run" / "vectors.csv.spec.json").read_text())
    assert sidecar == {**spec.to_json_dict(), "profile": "basic"}
    assert parse_spec({k: v for k, v in sidecar.items() if k in SPEC_KEYS}) == spec


@pytest.mark.parametrize("entry,row,col", [("nan", 2, 3), ("inf", 3, 1), ("-inf", 1, 2)])
def test_load_csv_refuses_non_finite_entries(entry, row, col, tmp_path):
    cells = [["0.5"] * 3 for _ in range(3)]
    cells[row - 1][col - 1] = entry
    path = tmp_path / "book.csv"
    path.write_text("".join(",".join(r) + "\n" for r in cells))
    with pytest.raises(ValueError, match=f"row {row}, column {col} is {float(entry)}"):
        load_csv(path)
