"""Concatenated codebook construction.

Two oracles drive this file: a brute-force mini planner written from
scratch (to confirm the real planner's optimality and feasibility
verdicts), and exhaustive pairwise distance measurement on handcrafted
small instances where every one of the M codewords can be enumerated.
"""

import dataclasses
import itertools
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from dicode.bounds import di_rate
from dicode.cli import main
from dicode.codebook import (
    ConcatCodebook,
    ConcatParams,
    codewords_csv,
    guaranteed_distance,
    plan_params,
)
from dicode.errors import InfeasibleError
from dicode.galois import digits_to_int, prime_power


def brute_force_plan(n, a, eps1, eps2):
    """Tiny independent planner: scan everything, keep the best rate."""
    best = None
    for q1 in range(2, int(n**0.25) + 2):
        if prime_power(q1) is None:
            continue
        b = 0.25 - math.log(q1) / math.log(n)
        if not a < b < 2 * a:
            continue
        for n1 in range(1, min(q1, n) + 1):
            n2 = n // n1
            if n2 < 1:
                continue
            d1 = max(1, math.ceil(eps1 * n1 - 1e-9))
            k1 = n1 + 1 - d1
            if k1 < 1 or q1**k1 < n2:
                continue
            d2 = max(1, math.ceil(eps2 * n2 - 1e-9))
            k2 = n2 + 1 - d2
            if k2 < 1 or n2 > q1**k1:
                continue
            rate = k1 * k2 * math.log2(q1) / (n * math.log2(n))
            if best is None or rate > best[0]:
                best = (rate, q1, n1, k1, n2, k2)
    return best


def test_planner_matches_brute_force_search():
    for n, a in ((500, 0.02), (1000, 0.04), (3000, 0.035)):
        want = brute_force_plan(n, a, 0.1, 0.1)
        assert want is not None
        got = plan_params(n=n, a=a, power_bound=1.0)
        assert got.rate == pytest.approx(want[0], rel=1e-12)
        assert (got.q1, got.n1, got.k1, got.n2, got.k2) == want[1:]


def test_planner_detects_infeasible_regimes():
    # at n=20 no prime power fits the alphabet window for this margin
    with pytest.raises(InfeasibleError):
        plan_params(n=20, a=0.015)
    # at n=500 the window demands q1=3, whose extensions are too small
    # to index the outer positions
    with pytest.raises(InfeasibleError):
        plan_params(n=500, a=0.04)
    assert brute_force_plan(500, 0.04, 0.1, 0.1) is None


def test_planned_parameters_satisfy_every_contract():
    p = plan_params(n=3000, a=0.035, power_bound=1.0)
    assert a_lt_b_lt_2a(p)
    assert prime_power(p.q1) == (p.p, p.m)
    assert p.n1 <= p.q1
    assert p.n2 == 3000 // p.n1
    assert p.n2 <= p.q2
    assert p.padding == 3000 - p.n1 * p.n2
    assert p.padding < p.n1
    assert p.meets_asymptotic_rate
    # frozen regression for this flagship configuration
    assert (p.q1, p.n1, p.k1, p.n2, p.k2) == (5, 5, 5, 600, 541)
    assert p.d1 == 1 and p.d2 == 60
    assert p.min_euclidean_distance == pytest.approx(math.sqrt(15.0), rel=1e-12)
    want_rate = 5 * 541 * math.log2(5) / (3000 * math.log2(3000))
    assert p.rate == pytest.approx(want_rate, rel=1e-12)
    assert p.rate == pytest.approx(0.1812528, abs=1e-7)


def a_lt_b_lt_2a(p):
    return p.a < p.b < 2 * p.a


def test_rate_identities():
    p = plan_params(n=1000, a=0.04)
    assert p.log2_size == pytest.approx(p.k1 * p.k2 * math.log2(p.q1), rel=1e-14)
    assert p.rate == pytest.approx(p.log2_size / (1000 * math.log2(1000)), rel=1e-14)
    assert p.rate == pytest.approx(di_rate(p.log2_size, 1000), rel=1e-14)


def test_guaranteed_distance_formula():
    # d1 d2 4A/(q1-1)^2 = 2*3*4/16 = 1.5
    assert guaranteed_distance(2, 3, 1.0, 5) == pytest.approx(math.sqrt(1.5), rel=1e-15)
    assert guaranteed_distance(1, 1, 1.0, 2) == 2.0  # binary alphabet: full swing




def tiny_params(**overrides):
    """Handcrafted M=81 instance small enough to enumerate completely:
    inner [3,2] over GF(3), outer [4,2] over GF(9), n = 12."""
    base = dict(n=12, a=0.1, power_bound=1.0, eps1=0.6, eps2=0.7, field_seed=0,
                q1=3, n1=3, k1=2, n2=4, k2=2)
    base.update(overrides)
    return ConcatParams(**base)


def tower_params(q1, n1, k1, n2, k2, padding):
    """A hand-made book over a chosen tower; every distance target is 0.1."""
    return ConcatParams(n=n1 * n2 + padding, a=0.1, power_bound=2.0, eps1=0.1, eps2=0.1,
                        field_seed=5, q1=q1, n1=n1, k1=k1, n2=n2, k2=k2)


# q1 prime; p = 2 with m = 2 and 3 (the towers of n = 1000 and n = 15625);
# odd p with m = 2, which no benchmark workload reaches
TOWERS = {"q1=5": (5, 5, 3, 40, 30, 0), "q1=4": (4, 4, 3, 50, 40, 3),
          "q1=8": (8, 5, 2, 60, 45, 1), "q1=9": (9, 6, 2, 70, 55, 0)}


def test_amplitude_levels_are_equispaced_and_power_capped():
    levels = ConcatCodebook(tiny_params(power_bound=4.0)).levels
    assert np.allclose(levels, [-2.0, 0.0, 2.0])
    levels5 = ConcatCodebook(tower_params(*TOWERS["q1=5"])).levels  # A = 2
    assert np.allclose(levels5, np.sqrt(2.0) * np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
    assert np.max(np.abs(levels5)) <= np.sqrt(2.0) + 1e-15


@pytest.mark.parametrize("shape", sorted(TOWERS))
def test_encoder_matches_the_scalar_tower_on_every_field_shape(shape):
    p = tower_params(*TOWERS[shape])
    book = ConcatCodebook(p)
    ext = book.outer_field
    rng = np.random.default_rng(p.q1)
    ids = [0, p.size - 1] + [int(rng.integers(0, 2**62)) % p.size for _ in range(3)]

    def outer(index):
        # scalar oracle: base-q2 digits, then Horner with scalar field ops
        return book.outer_code.encode([(index // p.q2**j) % p.q2 for j in range(p.k2)])

    # the outer encoder on all identities in one call
    batch = book.outer_code.encode_batch(np.stack([book._message_coords(i) for i in ids]))
    for index, together in zip(ids, batch):
        symbols = outer(index)
        # one identity per call, symbol by symbol, and the same rows as in the batch
        coords = book.outer_code.encode_batch(book._message_coords(index)[None])[0]
        assert [digits_to_int(row, p.p) for row in coords] == symbols
        assert np.array_equal(together, coords)
        # the whole codeword: scalar inner RS over each symbol's base-q1
        # digits, then the amplitude map and zero padding
        inner = [book.inner_code.encode(ext.to_digits(s)) for s in symbols]
        want = np.concatenate([book.levels[inner].ravel(), np.zeros(p.padding)])
        assert np.array_equal(book.encode(index), want)
        # the close partner's outer codeword differs in exactly d2 symbols
        partner = outer(book.close_partner(index))
        assert sum(a != b for a, b in zip(symbols, partner)) == p.d2


class _NoTable:
    """Stands in for a dense table; any read fails."""

    def __getitem__(self, key):
        raise AssertionError("a dense table was read")


@pytest.mark.parametrize("shape", sorted(TOWERS))
def test_encoding_reads_no_dense_table(shape):
    p = tower_params(*TOWERS[shape])
    want, book = ConcatCodebook(p), ConcatCodebook(p)
    fields = {book.inner_field, book.inner_field.base or book.inner_field, book.outer_field}
    for F in fields:
        F._basis  # each field's multiplication basis comes from scalar products, once
    for F in fields:
        vars(F).update(MUL=_NoTable(), ADD=_NoTable(), INV=_NoTable())
    for index in (0, 1, p.size - 1):
        assert np.array_equal(book.encode(index), want.encode(index))
        assert book.close_partner(index) == want.close_partner(index)


def test_exhaustive_distance_on_a_complete_tiny_codebook():
    p = tiny_params()
    book = ConcatCodebook(p)
    assert p.size == 81
    words = np.array([book.encode(i) for i in range(81)])
    assert words.shape == (81, 12)
    # distinct, power-capped
    assert len({tuple(w) for w in words}) == 81
    assert np.max(np.sum(words**2, axis=1)) <= 12 * 1.0 + 1e-12

    floor2 = p.min_euclidean_distance**2       # = 6 * 4/4 = 6
    min_d2 = min(
        float(np.sum((words[i] - words[j]) ** 2))
        for i, j in itertools.combinations(range(81), 2)
    )
    assert min_d2 >= floor2 - 1e-12
    # the bound is tight for this instance: some pair sits exactly on it
    assert min_d2 == pytest.approx(floor2, rel=1e-12)


def test_exhaustive_symbol_distance_matches_the_product_bound():
    p = tiny_params()
    book = ConcatCodebook(p)
    d1d2 = p.d1 * p.d2
    words = [book.encode(i) for i in range(81)]
    # map amplitudes back to level indices to measure Hamming distance
    idx = [np.searchsorted(book.levels, np.round(w, 9) - 1e-9) for w in words]
    min_hamming = min(
        int(np.sum(a != b)) for a, b in itertools.combinations(idx, 2)
    )
    assert min_hamming >= d1d2


def test_all_minus_root_a_codeword_for_identity_zero():
    p = plan_params(n=500, a=0.02, power_bound=4.0)
    u = ConcatCodebook(p).encode(0)
    body = u[: p.n1 * p.n2]
    assert np.all(body == -2.0)
    assert np.all(u[p.n1 * p.n2:] == 0.0)      # padding stays silent


def test_encode_rejects_out_of_range_identities():
    book = ConcatCodebook(tiny_params())
    with pytest.raises(ValueError):
        book.encode(-1)
    with pytest.raises(ValueError):
        book.encode(81)


def test_numpy_integer_identities_encode_as_ints():
    # the n = 3000 book's size is far past int64, so the identity must be
    # a Python int before it meets the size or the base-p digit split
    book = ConcatCodebook(plan_params(n=3000, a=0.035))
    want, partner = book.encode(5), book.close_partner(5)
    for index in (np.int64(5), np.uint64(5), np.int8(5)):
        assert np.array_equal(book.encode(index), want)
        assert book.close_partner(index) == partner
    for index in (5.0, np.float64(5)):
        with pytest.raises(TypeError):
            book.encode(index)
        with pytest.raises(TypeError):
            book.close_partner(index)


def test_close_partner_sits_at_the_outer_distance_floor():
    p = tiny_params()
    book = ConcatCodebook(p)
    for i in (0, 1, 40, 80):
        j = book.close_partner(i)
        assert 0 <= j < 81 and j != i
        ui, uj = book.encode(i), book.encode(j)
        # exactly d2 outer blocks may differ, no more
        blocks_i = ui.reshape(p.n2, p.n1)
        blocks_j = uj.reshape(p.n2, p.n1)
        differing = int(np.sum(np.any(blocks_i != blocks_j, axis=1)))
        assert differing == p.d2
        d2 = float(np.sum((ui - uj) ** 2))
        assert d2 >= p.min_euclidean_distance**2 - 1e-12
        assert d2 <= p.d2 * p.n1 * 4 * p.power_bound + 1e-12


def test_close_partner_is_the_global_minimum_for_the_tiny_book():
    # with all 81 codewords enumerable, the closest codeword to index 0
    # must be no closer than its designated close partner is "close":
    # the partner's distance has to match the smallest observed bucket
    p = tiny_params()
    book = ConcatCodebook(p)
    words = np.array([book.encode(i) for i in range(81)])
    d0 = np.sum((words - words[0]) ** 2, axis=1)
    global_min = np.min(d0[1:])
    partner_d = d0[book.close_partner(0)]
    assert partner_d <= global_min * 4 + 1e-9  # same bucket, not a far pair


def test_params_json_round_trip(tmp_path, capsys):
    # `dicode construct` writes the params JSON of to_json_dict
    p = plan_params(n=500, a=0.02)
    assert main(["construct", "--outdir", str(tmp_path), "--set", "n=500", "--set", "a=0.02"]) == 0
    capsys.readouterr()
    path = tmp_path / "params.json"
    raw = json.loads(path.read_text())
    assert raw == p.to_json_dict()
    assert raw["schema"] == 1
    assert raw["d1"] == p.d1 and raw["d2"] == p.d2


STORED = ("n", "a", "power_bound", "eps1", "eps2", "field_seed", "q1", "n1", "k1", "n2", "k2")


@pytest.mark.parametrize("n,a,eps1,eps2", [(500, 0.02, 0.1, 0.1), (3000, 0.035, 0.3, 0.05),
                                           (15625, 0.03, 0.3, 0.05), (10**5, 0.02, 0.3, 0.05)])
def test_a_record_is_fixed_by_its_stored_values(n, a, eps1, eps2):
    p = plan_params(n=n, a=a, power_bound=2.5, eps1=eps1, eps2=eps2, field_seed=3)
    init = [f.name for f in dataclasses.fields(ConcatParams) if f.init]
    assert sorted(init) == sorted(STORED)
    q = ConcatParams(**{k: getattr(p, k) for k in STORED})
    assert q == p
    assert json.dumps(q.to_json_dict()) == json.dumps(p.to_json_dict())
    # the derived values cannot be passed in
    with pytest.raises(TypeError):
        ConcatParams(**{k: getattr(p, k) for k in STORED}, rate=0.5)


def test_hand_built_records_derive_their_own_values():
    p = tiny_params()
    assert (p.p, p.m, p.padding, p.d1, p.d2, p.size) == (3, 1, 0, 2, 3, 81)
    assert p.b == 0.25 - math.log(3) / math.log(12)
    assert p.log2_size == 4 * math.log2(3)
    assert p.rate == di_rate(4 * math.log2(3), 12)
    assert p.min_euclidean_distance == guaranteed_distance(2, 3, 1.0, 3)
    assert p.meets_asymptotic_rate == (p.rate >= 0.25 - 2 * 0.1)
    padded = tower_params(4, 4, 3, 50, 40, 3)
    assert (padded.n, padded.padding, padded.p, padded.m) == (203, 3, 2, 2)


@pytest.mark.parametrize("overrides,message", [
    (dict(q1=6), "q1 = 6 is not a prime power"),
    (dict(q1=1), "q1 = 1 is not a prime power"),
    (dict(n=11), "need n1 \\* n2 <= n"),
    (dict(n1=4), "need 1 <= n1 <= min"),
    (dict(k1=4), "need 1 <= k1 <= n1"),
    (dict(n2=10), "outer length exceeds"),
    (dict(k2=4), "outer distance misses"),
    (dict(eps1=0.9), "inner distance misses"),
    (dict(power_bound=math.inf), "power bound"),
])
def test_records_refuse_inconsistent_inputs(overrides, message):
    with pytest.raises(ValueError, match=message):
        tiny_params(**overrides)


def test_codeword_csv_export():
    p = tiny_params()
    book = ConcatCodebook(p)
    rows = [line.split(",") for line in codewords_csv(book, [0, 5, 80]).strip().splitlines()]
    assert [r[0] for r in rows] == ["0", "5", "80"]
    for r in rows:
        got = np.array([float(x) for x in r[1:]])
        assert np.array_equal(got, book.encode(int(r[0])))


class _HugeBook:
    """Stands in for a codebook whose identities pass 4300 decimal digits."""

    params = SimpleNamespace(size=10**5000)

    def encode(self, index):
        return np.array([index % 7, -0.5])


def test_codeword_csv_export_writes_identities_past_the_int_to_str_limit():
    book = _HugeBook()
    text = codewords_csv(book, [book.params.size - 1, 12])
    assert text.endswith("\n")
    rows = [line.split(",") for line in text.splitlines()]
    assert rows[0][0] == "9" * 5000
    assert rows[1] == ["12", "5", "-0.5"]
    # an int k: the first k identities
    assert [line.split(",")[0] for line in codewords_csv(book, 2).splitlines()] == ["0", "1"]


def test_distance_exponent_climbs_along_the_ladder():
    # normalized log-distance log_n(d_min) grows with n at fixed margin
    exponents = []
    for n in (2000, 4000, 7000):
        p = plan_params(n=n, a=0.035)
        exponents.append(math.log(p.min_euclidean_distance) / math.log(n))
    assert exponents[0] < exponents[1] < exponents[2]


def test_big_codebook_sparse_pairs_respect_the_floor():
    # cannot enumerate M ~ 2^904, but any sampled pair must respect it
    p = plan_params(n=500, a=0.02)
    book = ConcatCodebook(p)
    rng = np.random.default_rng(9)
    floor2 = p.min_euclidean_distance**2
    idx = [int(x) for x in rng.integers(0, min(p.size, 10**12), size=30)]
    words = [book.encode(i) for i in idx]
    for (ia, ua), (ib, ub) in itertools.combinations(zip(idx, words), 2):
        if ia == ib:
            continue
        assert float(np.sum((ua - ub) ** 2)) >= floor2 - 1e-9
