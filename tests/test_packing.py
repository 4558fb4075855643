"""Random sphere packings with expurgation.

The independent oracle for the subset-projection checker is a
from-scratch brute force over all coordinate subsets at n = 12.  For
the expurgation itself, verify_packing re-checks every survivor with
plain reductions, and corrupted inputs must be caught.  The generator's
Gram rows and fourth-power filter are held to a reference that keeps the
one-row-at-a-time greedy loop and the ``draws ** 4`` filter: same bytes,
same report, same refusals, also where rounding decides.
"""

import hashlib
import itertools
import json
import math
import sys
import tracemalloc
from dataclasses import astuple, replace

import numpy as np
import pytest

from dicode import config
from dicode.cli import main
from dicode.errors import InfeasibleError
from dicode.harness import ArrayCodebook, wilson_interval
from dicode.packing import (
    PROFILES,
    SPEC_KEYS,
    ExpurgationReport,
    PackingSpec,
    _distance_survivors,
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


@pytest.mark.parametrize("n", [16, 300, 1000])
def test_verifier_pair_check_matches_the_all_pairs_loop(n):
    # rows at 0.5 to 1.1 floors from row 0, two of them within 1e-9 of it;
    # for n > 256 the first coordinates hold only part of each distance
    spec = PackingSpec(n=n, target_size=4, power_bound=4.0, sampling_power=2.0,
                       distance_exponent=0.05)
    floor = spec.distance_floor
    rng = np.random.default_rng(n)
    base = rng.normal(0.0, math.sqrt(2.0), size=(4, n))
    steps = rng.normal(size=(5, n))
    steps /= np.linalg.norm(steps, axis=1, keepdims=True)
    steps *= floor * np.array([[0.5], [0.9], [1 - 1e-9], [1 + 1e-9], [1.1]])
    vectors = np.vstack([base[:1], base[0] + steps, base[1:]])
    want = []
    for i, j in itertools.combinations(range(len(vectors)), 2):
        d = float(np.linalg.norm(vectors[i] - vectors[j]))
        if d < floor * (1 - 1e-12):
            want.append(f"pair ({i}, {j}): distance {d:.6g} below floor {floor:.6g}")
    assert len(want) >= 3
    assert [p for p in verify_packing(vectors, spec, "basic") if p.startswith("pair")] == want


def reference_greedy(candidates, floor2):
    """The greedy distance step one row at a time: (survivors, removed)."""
    kept = np.empty_like(candidates)
    count = 0
    removed_distance = 0
    for row in candidates:
        if count:
            d2 = np.sum((kept[:count] - row) ** 2, axis=1)
            if float(d2.min()) < floor2:
                removed_distance += 1
                continue
        kept[count] = row
        count += 1
    return kept[:count].copy(), removed_distance


def reference_generate(spec, profile):
    """generate_expurgated with the direct greedy loop and the draws**4 filter."""
    n = spec.n
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    draws = rng.normal(0.0, math.sqrt(spec.sampling_power), size=(2 * spec.target_size, n))
    s2 = np.sum(draws**2, axis=1)
    keep = s2 <= spec.power_bound * n
    removed_power = int(np.sum(~keep))
    removed_fourth = removed_band = 0
    if profile in ("fourth-moment", "norm-concentrated"):
        bound4 = spec.fourth_bound if profile == "fourth-moment" else 3.0 * spec.power_bound**2
        s4 = np.sum(draws**4, axis=1)
        bad4 = (s4 > bound4 * n) & keep
        removed_fourth = int(np.sum(bad4))
        keep &= ~bad4
    if profile == "norm-concentrated":
        band = math.sqrt(n) * math.log(n)
        off = (np.abs(s2 - spec.sampling_power * n) > band) & keep
        removed_band = int(np.sum(off))
        keep &= ~off
    kept, removed_distance = reference_greedy(draws[keep], spec.distance_floor**2)
    count = len(kept)
    if count < 2:
        raise InfeasibleError(
            f"expurgation left {count} vector(s); the parameters are too tight"
        )
    return kept, ExpurgationReport(profile, spec.seed, int(draws.shape[0]), spec.target_size,
                                   removed_power, removed_fourth, removed_band,
                                   removed_distance, count, spec.distance_floor)


def _outcome(generate, spec, profile):
    try:
        vectors, report = generate(spec, profile)
    except InfeasibleError as exc:
        return "refused", str(exc)
    return vectors.tobytes(), vectors.shape, astuple(report)


# (target_size, A, A', a): roomy, crowded (many distance removals), hopeless
# (refused at most n) and a wide floor
GRID = [(5, 4.0, 2.0, 0.1), (40, 1.0, 0.5, 0.24), (20, 0.02, 0.01, 0.24), (30, 4.0, 2.0, 0.01)]


@pytest.mark.parametrize("n", [2, 3, 8, 16, 64, 257, 4096])
def test_expurgation_matches_the_direct_reference(n):
    refused = 0
    for (target, power, sampling, a), profile, seed in itertools.product(
            GRID, PROFILES, (0, 1, 2)):
        if n == 4096 and target > 5:
            target = 12  # the reference pays n floats per survivor per row
        spec = PackingSpec(n=n, target_size=target, power_bound=power,
                           sampling_power=sampling, distance_exponent=a, seed=seed)
        want = _outcome(reference_generate, spec, profile)
        assert _outcome(generate_expurgated, spec, profile) == want, (spec, profile)
        refused += want[0] == "refused"
    assert refused > 0 or n > 16


def _guard_pairs(n, seed):
    """Two rows of norm about 1e3 sqrt(n), 1e-3 apart per coordinate: their
    Gram distance cancels away most digits, the direct one keeps them."""
    rng = np.random.default_rng(seed)
    base = 1e3 * rng.normal(size=n)
    return np.stack([base, base + 1e-3 * rng.normal(size=n)])


@pytest.mark.parametrize("n", [2, 17, 64, 300])
def test_distance_guard_decides_as_the_direct_sum_at_the_floor(n):
    for seed in range(4):
        draws = _guard_pairs(n, seed)
        d2 = float(np.sum((draws[:1] - draws[1]) ** 2, axis=1).min())
        sq = np.sum(draws**2, axis=1)
        gram = sq[0] + sq[1] - 2 * float(draws[0] @ draws[1])
        assert gram != d2  # the Gram value alone would decide some of these wrongly
        for floor2 in (np.nextafter(d2, -np.inf), d2, np.nextafter(d2, np.inf)):
            got = _distance_survivors(draws, np.ones(2, bool), floor2)
            want, _ = reference_greedy(draws, floor2)
            assert draws[got].tobytes() == want.tobytes(), (n, seed, floor2)
            assert len(got) == (1 if floor2 > d2 else 2)


def test_distance_guard_keeps_every_decision_across_blocks():
    # n = 3 runs blocks of three rows; copies of one row a hair apart put
    # every pair at the floor, some rows are out from the start
    rng = np.random.default_rng(5)
    base = 1e3 * rng.normal(size=3)
    draws = base + 1e-3 * rng.normal(size=(40, 3))
    keep = rng.random(40) < 0.8
    d2 = np.sum((draws[:, None, :] - draws[None, :, :]) ** 2, axis=2)
    for floor2 in np.quantile(d2[np.triu_indices(40, 1)], [0.01, 0.1, 0.3, 0.5]):
        for f in (np.nextafter(floor2, -np.inf), floor2, np.nextafter(floor2, np.inf)):
            got = _distance_survivors(draws, keep, f)
            want, removed = reference_greedy(draws[keep], f)
            assert draws[got].tobytes() == want.tobytes()
            assert len(got) + removed == keep.sum()


def _fourth_guard_spec(offset):
    """A fourth-moment spec whose B n lies within one ulp of a row's draws**4
    sum, on a row where the squared-squares sum differs from it: that row is
    one of the guard's close rows.  n = 64 keeps B n = (s4 / n) n exact."""
    n = 64
    for seed in range(200):
        spec = PackingSpec(n=n, target_size=10, power_bound=4.0, sampling_power=2.0,
                           distance_exponent=0.05, seed=seed)
        draws = np.random.Generator(np.random.PCG64(seed)).normal(
            0.0, math.sqrt(2.0), size=(20, n))
        s4 = np.sum(draws**4, axis=1)
        top = int(np.argmax(s4))
        if np.einsum("ij,ij->i", draws**2, draws**2)[top] != s4[top]:
            break
    else:
        pytest.fail("no seed where the two fourth-power sums differ")
    limit = s4[top] if offset == 0 else np.nextafter(s4[top], offset * np.inf)
    assert (limit / n) * n == limit
    return replace(spec, fourth_moment_bound=float(limit / n))


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_fourth_power_guard_decides_as_draws_to_the_fourth(offset):
    spec = _fourth_guard_spec(offset)
    want = _outcome(reference_generate, spec, "fourth-moment")
    assert want[2][5] == (1 if offset < 0 else 0)  # removed_fourth: the top row alone
    assert _outcome(generate_expurgated, spec, "fourth-moment") == want


@pytest.mark.parametrize("spec,limit", [
    # the criterion-5 book: the draws, one block of squares and the survivors
    # compacted in place
    (dict(n=4096, target_size=120, power_bound=4.0, sampling_power=2.0,
          distance_exponent=0.05, seed=9), 1.5),
    # 4000 rows of 64: a whole (m, m) Gram product would be 62 times the draws;
    # here the peak is the greedy step's (n, m) Gram block
    (dict(n=64, target_size=2000, power_bound=4.0, sampling_power=2.0,
          distance_exponent=0.05, seed=1), 2.5),
], ids=["criterion-5", "tall"])
def test_expurgation_peak_memory_stays_near_the_draws(spec, limit):
    spec = PackingSpec(**spec)
    draw_bytes = 2 * spec.target_size * spec.n * 8
    tracemalloc.start()
    try:
        generate_expurgated(spec, "norm-concentrated")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit * draw_bytes, peak / draw_bytes


CRITERION_5 = dict(n=4096, target_size=120, power_bound=4.0, sampling_power=2.0,
                   distance_exponent=0.05, seed=9)


def test_the_book_owns_its_rows_and_no_discarded_draw():
    # a crowded spec keeps 14 of 80 draws: a view of them would keep all 80 alive
    spec = PackingSpec(n=64, target_size=40, power_bound=1.0, sampling_power=0.5,
                       distance_exponent=0.24, seed=0)
    vectors, report = generate_expurgated(spec)
    assert report.survivors == len(vectors) == 14 < report.sampled
    assert vectors.base is None and vectors.flags.owndata and vectors.flags.c_contiguous
    assert vectors.nbytes == report.survivors * spec.n * 8
    # the criterion-5 book is the same, bit for bit, as when it was a view
    book, _ = generate_expurgated(PackingSpec(**CRITERION_5), "norm-concentrated")
    assert book.base is None and book.shape == (239, 4096)
    assert hashlib.sha256(book.tobytes()).hexdigest() == (
        "3dc2967cb6395dbe90a0e1d39c84aef701f23bb62034d1c2b7c899b81eeaaa3f")


def test_a_crowded_book_builds_under_a_trace_function(tmp_path, capsys):
    # coverage, pdb and cProfile set a trace or profile function, and CPython then
    # makes a bound method for each C call; a resize that checks references counts
    # it. 14 of 80 draws survive, so the compaction does change the shape
    argv = ["packing", "--seed", "0", "--set", "spec.n=64", "--set", "spec.target_size=40",
            "--set", "spec.power_bound=1.0", "--set", "spec.sampling_power=0.5",
            "--set", "spec.distance_exponent=0.24", "--outdir", str(tmp_path)]
    spec = PackingSpec(n=64, target_size=40, power_bound=1.0, sampling_power=0.5,
                       distance_exponent=0.24, seed=0)
    untraced, _ = generate_expurgated(spec)
    previous = sys.gettrace()
    sys.settrace(lambda *args: None)
    try:
        vectors, report = generate_expurgated(spec)
        code = main(argv)
    finally:
        sys.settrace(previous)
    assert report.survivors == len(vectors) == 14 < report.sampled
    assert np.array_equal(vectors, untraced)
    assert code == 0 and "kept 14 of 80" in capsys.readouterr().out


def test_dicode_packing_writes_its_csv_a_row_at_a_time(tmp_path, capsys):
    # the whole CSV text would be about 6 times the draws; the rows go one at a time
    sets = [arg for k, v in CRITERION_5.items() for arg in ("--set", f"spec.{k}={v}")]
    argv = ["packing", *sets, "--set", "profile=norm-concentrated"]
    main([*argv, "--outdir", str(tmp_path / "warm")])  # the lazy imports of a first run
    tracemalloc.start()
    try:
        assert main([*argv, "--outdir", str(tmp_path / "run")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    draw_bytes = 2 * 120 * 4096 * 8
    assert peak <= 1.5 * draw_bytes, peak / draw_bytes
    assert hashlib.sha256((tmp_path / "run" / "vectors.csv").read_bytes()).hexdigest() == (
        "2506c0fa8f772c2bdf7112c2662d8d3f972700eaae40da899c297b4db36b44d2")


# (spec, profile): the criterion-5 shape at a few rows, an odd n, and the
# fourth-power guard's close row
BLOCKED = [(dict(n=4096, target_size=6, power_bound=4.0, sampling_power=2.0,
                 distance_exponent=0.05, seed=9), profile) for profile in PROFILES] + [
    (dict(n=257, target_size=40, power_bound=1.0, sampling_power=0.5,
          distance_exponent=0.24, seed=2), profile) for profile in PROFILES]


@pytest.mark.parametrize("spec,profile", BLOCKED + [(None, "fourth-moment")],
                         ids=[f"n{s['n']}-{p}" for s, p in BLOCKED] + ["fourth-guard"])
def test_norms_by_row_block_equal_the_whole_matrix(spec, profile, monkeypatch):
    # one row at a time, all rows but one, and the default block: the same
    # book, report and ArrayCodebook norms as the whole-matrix reductions
    spec = _fourth_guard_spec(0) if spec is None else PackingSpec(**spec)
    want = _outcome(reference_generate, spec, profile)
    rows = 2 * spec.target_size
    for block_rows in (1, rows - 1, None):
        if block_rows:
            monkeypatch.setattr(config, "WORK_BYTES", 8 * spec.n * block_rows)
        assert _outcome(generate_expurgated, spec, profile) == want, block_rows
        vectors, _ = generate_expurgated(spec, profile)
        sq = ArrayCodebook(vectors)._sq
        assert sq.tobytes() == np.sum(vectors**2, axis=1).tobytes(), block_rows
        monkeypatch.undo()


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


def test_sampled_projection_minima_are_frozen():
    # pair by pair, each pair's subsets drawn in turn from one generator
    vectors = np.random.default_rng(11).normal(size=(7, 40))
    report = check_projection_property(vectors, mu=0.6, alpha=0.2, mode="sampled",
                                       sample_count=30, seed=5)
    assert (report.subset_size, report.subsets_per_pair, len(report.pair_minima)) == (24, 30, 21)
    assert report.overall_min == min(v for _, _, v in report.pair_minima)
    assert hashlib.sha256(repr(report.pair_minima).encode()).hexdigest() == (
        "09eb6b8bba92f9282cd59882e7a5e21269cfa29a885c8480ff35393ca23b094a")
    with pytest.raises(ValueError, match="sample_count"):
        check_projection_property(vectors, mu=0.6, alpha=0.2, mode="sampled", sample_count=0)


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


@pytest.mark.parametrize("profile", ["basic", "norm-concentrated"])
def test_a_fourth_power_budget_is_refused_where_the_profile_ignores_it(profile):
    spec = PackingSpec(fourth_moment_bound=0.01, **COMFY)
    says = f"fourth_moment_bound is read only by profile 'fourth-moment'; profile {profile!r}"
    with pytest.raises(ValueError, match=says):
        generate_expurgated(spec, profile)
    with pytest.raises(ValueError, match=says):
        verify_packing(np.zeros((2, spec.n)), spec, profile)
    # under fourth-moment the same budget is read: every draw breaks it
    with pytest.raises(InfeasibleError):
        generate_expurgated(spec, "fourth-moment")


def test_csv_round_trip_with_spec_sidecar(tmp_path, capsys):
    spec = PackingSpec(seed=5, **COMFY)
    vectors, _ = generate_expurgated(spec, "basic")
    path = tmp_path / "vectors.csv"
    path.write_text("".join(vectors_csv(vectors)))
    assert np.array_equal(load_csv(path), vectors)
    # `dicode packing` writes the same rows, and a sidecar of the spec and profile
    sets = [arg for k, v in COMFY.items() for arg in ("--set", f"spec.{k}={v}")]
    assert main(["packing", "--outdir", str(tmp_path / "run"), "--seed", "5", *sets]) == 0
    capsys.readouterr()
    assert (tmp_path / "run" / "vectors.csv").read_text() == path.read_text()
    sidecar = json.loads((tmp_path / "run" / "vectors.csv.spec.json").read_text())
    assert sidecar == {**spec.to_json_dict(), "profile": "basic"}
    assert parse_spec({k: v for k, v in sidecar.items() if k in SPEC_KEYS}) == spec


def test_load_csv_peak_memory_stays_near_the_array(tmp_path):
    vectors = np.random.default_rng(4).normal(0.0, 2.0, size=(100, 1024))
    path = tmp_path / "book.csv"
    path.write_text("".join(vectors_csv(vectors)))
    tracemalloc.start()
    try:
        book = load_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert book.tobytes() == vectors.tobytes()
    assert peak <= 2.5 * vectors.nbytes, peak / vectors.nbytes


@pytest.mark.parametrize("entry,row,col", [("nan", 2, 3), ("inf", 3, 1), ("-inf", 1, 2)])
def test_load_csv_refuses_non_finite_entries(entry, row, col, tmp_path):
    cells = [["0.5"] * 3 for _ in range(3)]
    cells[row - 1][col - 1] = entry
    path = tmp_path / "book.csv"
    path.write_text("".join(",".join(r) + "\n" for r in cells))
    with pytest.raises(ValueError, match=f"row {row}, column {col} is {float(entry)}"):
        load_csv(path)


@pytest.mark.parametrize("text,row,col,cell", [("1,2\n3,abc\n", 2, 2, "abc"),
                                               ("1,,2\n", 1, 2, ""), ("\n0x1,2\n", 1, 1, "0x1")])
def test_load_csv_refuses_non_numeric_entries(text, row, col, cell, tmp_path):
    path = tmp_path / "book.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as refused:
        load_csv(path)
    assert str(refused.value) == (f"codebook CSV {path} entry at row {row}, column {col} is "
                                  f"{cell!r}, not a number")


@pytest.mark.parametrize("text,says", [
    ("1,2,3\n4,5\n", "row 2 has length 2, row 1 has length 3"),
    ("1,2\n\n3,4\n5\n", "row 3 has length 1, row 1 has length 2"),
    ("", "holds no rows"), ("\n\n", "holds no rows")],
    ids=["ragged", "ragged-after-a-blank-line", "empty", "blank-lines-only"])
def test_load_csv_refuses_ragged_and_empty_files(text, says, tmp_path):
    # blank lines are skipped, so rows count from the first that holds entries
    path = tmp_path / "book.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as refused:
        load_csv(path)
    assert str(refused.value).startswith(f"codebook CSV {path} ") and says in str(refused.value)
