"""Reed-Solomon encoding.

Distance oracle: enumerate every codeword (feasible because the test
fields are tiny) and measure pairwise Hamming distances directly.  The
codes must meet the Singleton bound with equality, n - k + 1, which is
the whole reason they appear in the concatenated construction.
"""

import itertools

import numpy as np
import pytest

from dicode.galois import make_extension, make_field
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


def test_batch_encode_matches_scalar_encode():
    field = make_field(5, 1)
    code = RSCode(field, 5, 3)
    rng = np.random.default_rng(1)
    msgs = rng.integers(0, 5, size=(50, 3))
    batch = code.encode_batch(msgs)
    assert batch.shape == (50, 5)
    for row, msg in zip(batch, msgs):
        assert list(row) == code.encode([int(x) for x in msg])


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


def test_rejects_impossible_parameters():
    field = make_field(5, 1)
    with pytest.raises(ValueError):
        RSCode(field, length=6, dim=2)     # length > field size
    with pytest.raises(ValueError):
        RSCode(field, length=4, dim=5)     # dim > length
    with pytest.raises(ValueError):
        RSCode(field, length=4, dim=0)


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
