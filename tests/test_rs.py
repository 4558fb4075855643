"""Reed-Solomon encoding.

Distance oracle: enumerate every codeword (feasible because the test
fields are tiny) and measure pairwise Hamming distances directly.  The
codes must meet the Singleton bound with equality, n - k + 1, which is
the whole reason they appear in the concatenated construction.
"""

import itertools

import numpy as np
import pytest

from dicode import rs
from dicode.galois import TABLE_LIMIT, digits_to_int, int_to_digits, make_extension, make_field
from dicode.rs import RSCode


def all_codewords(code):
    q, k = code.field.q, code.dim
    for msg in itertools.product(range(q), repeat=k):
        yield code.encode(msg)


def hamming(a, b):
    return sum(x != y for x, y in zip(a, b))


def test_known_codeword_over_gf5():
    # message (1, 1) is the polynomial 1 + x, evaluated at 0, 1, 2, 3
    code = RSCode(make_field(5, 1), length=4, dim=2)
    assert code.encode((1, 1)) == [1, 2, 3, 4]
    assert code.encode((0, 0)) == [0, 0, 0, 0]
    assert code.encode((2, 0)) == [2, 2, 2, 2]  # constants encode as constants


def test_exhaustive_pairwise_distance_gf5():
    code = RSCode(make_field(5, 1), length=4, dim=2)
    words = list(all_codewords(code))
    assert len(words) == 25
    assert len({tuple(w) for w in words}) == 25  # injective
    dmin = min(hamming(a, b) for a, b in itertools.combinations(words, 2))
    assert dmin == 3 == code.min_distance


@pytest.mark.parametrize("p,m,length,dim", [
    (2, 1, 2, 1),
    (3, 1, 3, 2),
    (5, 1, 5, 3),
    (7, 1, 6, 2),
    (2, 2, 4, 2),
    (2, 3, 8, 3),
    (3, 2, 9, 4),
    (2, 4, 16, 3),
    (11, 1, 11, 4),
])
def test_minimum_weight_meets_singleton_bound(p, m, length, dim):
    # linear code: min distance == min weight of a nonzero codeword
    code = RSCode(make_field(p, m), length, dim)
    zero = tuple([0] * length)
    wmin = min(
        hamming(w, zero) for w in all_codewords(code) if tuple(w) != zero
    )
    assert wmin == length - dim + 1
    assert code.min_distance == length - dim + 1


def test_encoding_is_linear():
    field = make_field(7, 1)
    code = RSCode(field, 7, 3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = [int(x) for x in rng.integers(0, 7, 3)]
        b = [int(x) for x in rng.integers(0, 7, 3)]
        summed = [field.add(x, y) for x, y in zip(a, b)]
        lhs = code.encode(summed)
        rhs = [field.add(x, y) for x, y in zip(code.encode(a), code.encode(b))]
        assert lhs == rhs


def _batch_matches_scalar(code, count, seed):
    # encode_batch on GF(p) coordinates against scalar Horner on indices
    F, p, D = code.field, code.field.p, code.field.prime_degree
    msgs = np.random.default_rng(seed).integers(0, F.q, size=(count, code.dim))
    coords = np.stack([_coords([int(x) for x in msg], p, D) for msg in msgs])
    batch = code.encode_batch(coords)
    assert batch.shape == (count, code.length, D) and batch.dtype == np.int8
    for rows, msg in zip(batch, msgs):
        assert [digits_to_int(row, p) for row in rows] == code.encode([int(x) for x in msg])


def test_batch_encode_matches_scalar_encode():
    _batch_matches_scalar(RSCode(make_field(5, 1), 5, 3), 50, 1)


def test_digit_encode_matches_scalar_encode_over_extension():
    base = make_field(3, 1)
    ext = make_extension(base, 2)           # GF(9)
    code = RSCode(ext, length=8, dim=3)
    rng = np.random.default_rng(2)
    for _ in range(10):
        msg = [int(x) for x in rng.integers(0, 9, 3)]
        want = code.encode(msg)
        digits = ext.digit_rows(np.array(msg))
        got_digits = code.encode_digits(digits)
        got = [ext.from_digits(r) for r in got_digits]
        assert got == want


# WORK_BYTES for each run; None keeps the default.  The child step is
# Horner in gamma: "plain-horner" runs it one node at a time and divides
# one quotient coefficient per product (WORK_BYTES = 1); "one-block-horner"
# runs every level as one block of nodes and every division in blocks as
# wide as the divisor allows; "small-blocks" cuts the levels into several
# node blocks and the divisions into several coefficient blocks.
SIZES = {"default": None, "plain-horner": 1, "one-block-horner": 1 << 30,
         "small-blocks": 3000}


def _coords(msg, p, D):
    return np.stack([int_to_digits(c, p, D) for c in msg])


@pytest.mark.parametrize("sizes", sorted(SIZES))
@pytest.mark.parametrize("p,m,k,length,dim", [
    (5, 1, 3, 40, 30), (2, 2, 3, 50, 40), (2, 3, 2, 60, 45), (3, 2, 2, 70, 55)])
def test_coordinate_encode_matches_scalar_encode(p, m, k, length, dim, sizes, monkeypatch):
    ext = make_extension(make_field(p, m, seed=3), k, seed=3)
    D = ext.prime_degree
    if SIZES[sizes] is not None:
        monkeypatch.setattr(rs, "WORK_BYTES", SIZES[sizes])
    code = RSCode(ext, length=length, dim=dim)
    rng = np.random.default_rng(length)
    for _ in range(4):
        msg = [int(x) for x in rng.integers(0, ext.q, size=dim)]
        got = [digits_to_int(row, p) for row in code.encode_coords(_coords(msg, p, D))]
        assert got == code.encode(msg)
    # one level per base-p digit of the largest point
    assert p ** (len(code._subspace_maps) - 1) < length <= p ** len(code._subspace_maps)


@pytest.mark.parametrize("p,m,k,length,dim", [(7, 1, 2, 49, 30), (2, 2, 3, 50, 40)])
def test_divisions_reduce_every_product_where_sums_could_leave_float32(
        p, m, k, length, dim, monkeypatch):
    # with no exact range left, every quotient product is reduced mod p
    monkeypatch.setattr(rs, "FLOAT32_EXACT", 0)
    ext = make_extension(make_field(p, m, seed=3), k, seed=3)
    code = RSCode(ext, length=length, dim=dim)
    msg = [int(x) for x in np.random.default_rng(p).integers(0, ext.q, size=dim)]
    got = code.encode_coords(_coords(msg, p, ext.prime_degree))
    assert [digits_to_int(row, p) for row in got] == code.encode(msg)


# (p, m, k): the degree-k extension of GF(p^m); the prime fields, the
# GF(16)/GF(4) and GF(81)/GF(9) towers, and extensions of GF(p) by 2 and 3
FIELDS = {"GF(2)": (2, 1, 1), "GF(3)": (3, 1, 1), "GF(5)": (5, 1, 1), "GF(7)": (7, 1, 1),
          "GF(8)": (2, 1, 3), "GF(27)": (3, 1, 3), "GF(25)": (5, 1, 2), "GF(49)": (7, 1, 2),
          "GF(16)/GF(4)": (2, 2, 2), "GF(81)/GF(9)": (3, 2, 2)}


def _field(p, m, k):
    base = make_field(p, m, seed=1)
    return make_extension(base, k, seed=1) if k > 1 else base


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_batch_encode_matches_scalar_encode_on_every_field(name):
    F = _field(*FIELDS[name])
    for length in sorted({1, F.p, F.q}):
        for dim in sorted({1, length}):
            _batch_matches_scalar(RSCode(F, length, dim), 5, length)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_subspace_encode_matches_scalar_encode_on_every_length(name):
    # lengths 1, p, p + 1, q - 1 and q, each at dim 1 and dim = length
    F = _field(*FIELDS[name])
    p, D = F.p, F.prime_degree
    rng = np.random.default_rng(F.q)
    for length in sorted({n for n in (1, p, p + 1, F.q - 1, F.q) if 1 <= n <= F.q}):
        for dim in sorted({1, length}):
            code = RSCode(F, length, dim)
            for _ in range(3):
                msg = [int(x) for x in rng.integers(0, F.q, size=dim)]
                got = code.encode_coords(_coords(msg, p, D))
                assert got.shape == (length, D) and got.dtype == np.int8
                assert [digits_to_int(row, p) for row in got] == code.encode(msg)


def _naive_vanishing(F, count):
    # prod_{e < count} (x - e), one factor at a time in scalar field ops
    poly = [1]
    for e in range(count):
        shifted = [0] + poly
        poly = [F.add(hi, F.neg(F.mul(lo, e))) for hi, lo in zip(shifted, poly + [0])]
    return poly


@pytest.mark.parametrize("sizes", ["default", "plain-horner"])
@pytest.mark.parametrize("name", ["GF(5)", "GF(8)", "GF(25)", "GF(16)/GF(4)", "GF(81)/GF(9)"])
def test_vanishing_polynomial_matches_the_naive_product(name, sizes, monkeypatch):
    # counts 0, 1, p^i - 1, p^i and p^i + 1: whole cosets, and one point on either side
    if SIZES[sizes] is not None:
        monkeypatch.setattr(rs, "WORK_BYTES", SIZES[sizes])
    F = _field(*FIELDS[name])
    p = F.p
    code = RSCode(F, F.q, 1)
    counts = {0, 1} | {c for i in range(1, F.prime_degree + 1)
                       for c in (p**i - 1, p**i, p**i + 1) if c < F.q}
    for count in sorted(counts):
        got = code.vanishing_coords(count)
        assert got.shape == (count + 1, F.prime_degree)
        assert [digits_to_int(row, p) for row in got] == _naive_vanishing(F, count)
    with pytest.raises(ValueError):
        code.vanishing_coords(F.q)


def test_rejects_impossible_parameters():
    field = make_field(5, 1)
    with pytest.raises(ValueError):
        RSCode(field, length=6, dim=2)     # length > field size
    with pytest.raises(ValueError):
        RSCode(field, length=4, dim=5)     # dim > length
    with pytest.raises(ValueError):
        RSCode(field, length=4, dim=0)


def test_batch_encode_matches_scalar_encode_past_the_table_limit():
    field = make_extension(make_field(2, 5), 2)  # GF(1024): no dense tables
    assert field.q > TABLE_LIMIT
    _batch_matches_scalar(RSCode(field, length=40, dim=3), 20, 3)
    assert not {"MUL", "ADD", "INV"} & set(vars(field))


def test_batch_encode_refuses_wrong_shapes_and_sums_past_float32():
    code = RSCode(make_field(7, 1), length=7, dim=3)
    with pytest.raises(ValueError, match="shape"):
        code.encode_batch(np.zeros((1, 3)))
    # 521 coefficients over GF(127^2): 521 * 2 * 127^2 >= 2^24
    code = RSCode(make_extension(make_field(127, 1), 2), length=600, dim=521)
    with pytest.raises(ValueError, match="float32"):
        code.encode_batch(np.zeros((1, 521, 2)))


def test_tower_code_used_by_the_concatenation():
    # the outer field in a real construction: GF(q1^k1) with q1 = 4, k1 = 3
    base = make_field(2, 2)
    ext = make_extension(base, 3)           # GF(64)
    code = RSCode(ext, length=60, dim=40)
    assert code.min_distance == 21
    msgs = np.arange(64).reshape(-1, 1) * np.ones((1, 40), dtype=int) % 64
    digits = [code.encode_digits(ext.digit_rows(m)) for m in msgs[:4]]
    # distinct messages must give distinct codewords
    flat = {tuple(d.ravel()) for d in digits}
    assert len(flat) == 4
