"""Finite field arithmetic.

The main oracle here is exhaustive: any finite structure whose tables
satisfy all field axioms IS a field, and fields of a given order are
unique up to isomorphism.  Small frozen values pin down the specific
representation (canonical digit encoding, deterministic modulus search).
"""

import inspect

import numpy as np
import pytest

from dicode import galois
from dicode.galois import (
    TABLE_LIMIT,
    ExtensionContext,
    _digits,
    _poly_add,
    _poly_mul,
    _poly_rem,
    _poly_trim,
    _prime_factors,
    digits_to_int,
    int_to_digits,
    is_irreducible,
    make_extension,
    make_field,
    prime_power,
    split_digits,
)


def check_field_axioms(ctx, order):
    """Exhaustive: commutativity, associativity, distributivity,
    identities, inverses.  O(order^3); keep order <= 64."""
    elems = range(order)
    for a in elems:
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, ctx.neg(a)) == 0
        if a != 0:  # exactly one inverse, by exhaustive search
            assert sum(ctx.mul(a, b) == 1 for b in elems) == 1
    for a in elems:
        for b in elems:
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
    for a in elems:
        for b in elems:
            for c in elems:
                assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3),
                                 (3, 2), (2, 4), (5, 2), (7, 2), (2, 5), (3, 3)])
def test_small_fields_satisfy_all_axioms(p, m):
    ctx = make_field(p, m, seed=0)
    assert ctx.q == p**m
    check_field_axioms(ctx, p**m)
    for a in range(1, ctx.q):
        assert ctx.mul(a, ctx.inv(a)) == 1


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (5, 2)])
def test_frobenius_is_additive(p, m):
    # (a + b)^p == a^p + b^p in characteristic p
    ctx = make_field(p, m, seed=0)
    for a in range(ctx.q):
        for b in range(ctx.q):
            lhs = ctx.pow(ctx.add(a, b), p)
            rhs = ctx.add(ctx.pow(a, p), ctx.pow(b, p))
            assert lhs == rhs


def test_gf4_uses_the_only_irreducible_quadratic():
    # x^2 + x + 1 is the sole monic irreducible quadratic over GF(2),
    # so the modulus search has no freedom here
    ctx = make_field(2, 2, seed=0)
    assert ctx.modulus == (1, 1, 1)
    # digits (0,1) is x: x*x = x + 1, i.e. element 2 squared is element 3
    assert ctx.mul(2, 2) == 3
    assert ctx.MUL[2][2] == 3


def test_prime_field_is_integer_arithmetic_mod_p():
    ctx = make_field(5, 1, seed=0)
    assert ctx.mul(3, 4) == 2
    assert ctx.add(3, 4) == 2
    assert ctx.neg(2) == 3
    assert ctx.inv(3) == 2  # 3 * 2 = 6 = 1 mod 5
    for a in range(5):
        for b in range(5):
            assert ctx.add(a, b) == (a + b) % 5
            assert ctx.mul(a, b) == (a * b) % 5


def test_gf9_modulus_is_irreducible_and_build_is_deterministic():
    ctx = make_field(3, 2, seed=0)
    base = make_field(3, 1, seed=0)
    assert is_irreducible(base, ctx.modulus)
    again = make_field(3, 2, seed=0)
    assert again.modulus == ctx.modulus
    # a different seed may pick a different modulus, but it must still work
    other = make_field(3, 2, seed=1)
    check_field_axioms(other, 9)


@pytest.mark.parametrize("p,m,k", [(2, 2, 3), (3, 1, 4), (2, 3, 5), (5, 2, 2)])
def test_each_field_tests_its_accepted_modulus_once(p, m, k, monkeypatch):
    # the field searches its own modulus; nothing re-checks the one it keeps
    assert "modulus" not in inspect.signature(ExtensionContext).parameters
    accepted = []

    def counting(F, poly):
        ok = is_irreducible(F, poly)
        if ok:
            accepted.append((F.q, tuple(poly)))
        return ok

    monkeypatch.setattr(galois, "is_irreducible", counting)
    inner = make_field(p, m, seed=2)
    outer = make_extension(inner, k, seed=2)
    want = [(p, inner.modulus)] if m > 1 else []
    assert accepted == want + [(inner.q, outer.modulus)]


def test_irreducibility_matches_quadratic_residue_facts():
    # x^2 + 1 factors over GF(p) iff -1 is a square mod p
    gf3 = make_field(3, 1, seed=0)
    gf5 = make_field(5, 1, seed=0)
    gf7 = make_field(7, 1, seed=0)
    assert is_irreducible(gf3, (1, 0, 1))
    assert not is_irreducible(gf5, (1, 0, 1))  # 2^2 = 4 = -1 mod 5
    assert is_irreducible(gf7, (1, 0, 1))
    # reducible by construction: (x+1)^2 = x^2 + 2x + 1 over GF(3)
    assert not is_irreducible(gf3, (1, 2, 1))


def _mobius(n):
    factors = _prime_factors(n)
    return 0 if len(set(factors)) < len(factors) else (-1) ** len(factors)


@pytest.mark.parametrize("p,m,degrees", [(2, 1, 8), (3, 1, 5), (2, 2, 4), (2, 3, 3)])
def test_irreducible_counts_follow_gauss_formula(p, m, degrees):
    # Ben-Or's test accepts exactly the monic irreducibles: over GF(q) there
    # are (1/k) sum_{d | k} mu(d) q^(k/d) of degree k
    F = make_field(p, m)
    q = F.q
    for k in range(1, degrees + 1):
        want = sum(_mobius(d) * q ** (k // d) for d in range(1, k + 1) if k % d == 0) // k
        got = sum(is_irreducible(F, (*_digits(code, q, k), 1)) for code in range(q**k))
        assert got == want, (q, k)


def test_digit_encoding_round_trips():
    ctx = make_field(3, 3, seed=0)
    for e in range(27):
        d = ctx.to_digits(e)
        assert len(d) == 3
        assert all(0 <= x < 3 for x in d)
        assert digits_to_int(d, 3) == e
    # index IS the base-p digit vector of the coefficients
    assert ctx.to_digits(5) == (2, 1, 0)


def test_multiplicative_group_is_cyclic():
    ctx = make_field(2, 4, seed=0)
    orders = set()
    for g in range(1, 16):
        x, k = g, 1
        while x != 1:
            x = ctx.mul(x, g)
            k += 1
        orders.add(k)
        assert 15 % k == 0
    assert 15 in orders  # a primitive element exists


def test_prime_and_prime_power_classifiers():
    for prime in (2, 3, 97, 7919):
        assert prime_power(prime) == (prime, 1)
    for composite in (1, 91, 561):  # 561 is a Carmichael number
        assert prime_power(composite) is None
    assert prime_power(8) == (2, 3)
    assert prime_power(81) == (3, 4)
    assert prime_power(5) == (5, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


class TestExtensionTower:
    """GF(q1)^k1 built on top of a tabled base field."""

    def test_axioms_via_scalar_ops(self):
        base = make_field(2, 2, seed=0)
        ext = make_extension(base, 2, seed=0)  # GF(16) as GF(4)[x]/(f)
        assert ext.q == 16
        check_field_axioms(ext, 16)

    def test_vector_ops_agree_with_scalar_ops(self):
        base = make_field(3, 1, seed=0)
        ext = make_extension(base, 3, seed=0)  # GF(27)
        rng = np.random.default_rng(5)
        a = rng.integers(0, 27, size=40)
        b = rng.integers(0, 27, size=40)
        da, db = split_digits(a, 3, 3), split_digits(b, 3, 3)
        vm = [ext.from_digits(r) for r in ext.vmul(da, db)]
        va = [ext.from_digits(r) for r in ext.vadd(da, db)]
        assert vm == [ext.mul(int(x), int(y)) for x, y in zip(a, b)]
        assert va == [ext.add(int(x), int(y)) for x, y in zip(a, b)]

    def test_digit_rows_round_trip(self):
        base = make_field(5, 1, seed=0)
        ext = make_extension(base, 2, seed=0)  # GF(25)
        idx = np.arange(25)
        rows = split_digits(idx, ext.base.q, ext.degree)
        assert rows.shape == (25, 2)
        back = [ext.from_digits(r) for r in rows]
        assert back == list(range(25))

    @pytest.mark.parametrize("p,m,k", [(5, 1, 3), (2, 2, 3), (2, 3, 2), (3, 2, 2)])
    def test_mul_matrices_agree_with_scalar_mul(self, p, m, k):
        # coordinates are the base-p digits of an index; M_a c is a * c
        ext = make_extension(make_field(p, m, seed=1), k, seed=1)
        D = ext.prime_degree
        assert D == m * k and ext.q == p**D
        rng = np.random.default_rng(p * 10 + m)
        a = [int(x) for x in rng.integers(0, ext.q, size=30)]
        c = [int(x) for x in rng.integers(0, ext.q, size=30)]
        assert [digits_to_int(row, p) for row in ext.coordinates(a)] == a
        mats = ext.mul_matrices(ext.coordinates(a)).astype(np.int64)
        prods = np.einsum("nij,nj->ni", mats, ext.coordinates(c).astype(np.int64)) % p
        assert [digits_to_int(row, p) for row in prods] == [
            ext.mul(x, y) for x, y in zip(a, c)]

    def test_coordinates_refuse_characteristics_past_int8(self):
        ext = make_extension(make_field(131, 1), 2)
        with pytest.raises(ValueError, match="int8"):
            ext.coordinates([5])
        with pytest.raises(ValueError, match="int8"):
            ext.mul_matrices(np.zeros((1, 2)))

    def test_inverse_round_trips_in_a_large_extension(self):
        base = make_field(7, 1, seed=0)
        ext = make_extension(base, 3, seed=0)  # GF(343)
        for e in (1, 2, 6, 49, 100, 342):  # exactly one inverse, by exhaustive search
            assert sum(ext.mul(e, x) == 1 for x in range(ext.q)) == 1


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        make_field(4, 1)  # not prime
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_extension(make_field(2, 1), 0)


def poly_oracle(field, a, b):
    """(a * b, a + b) from the polynomials over the base, without any table."""
    F = field.base
    da, db = list(field.to_digits(a)), list(field.to_digits(b))
    prod = _poly_rem(F, _poly_mul(F, _poly_trim(list(da)), _poly_trim(list(db))), field.modulus)
    return field.from_digits(prod), field.from_digits(_poly_add(F, da, db))


TABLED = {
    "GF(2)": lambda: make_field(2, 1), "GF(7)": lambda: make_field(7, 1),
    "GF(131)": lambda: make_field(131, 1), "GF(509)": lambda: make_field(509, 1),
    "GF(4)": lambda: make_field(2, 2), "GF(8)": lambda: make_field(2, 3),
    "GF(9)": lambda: make_field(3, 2), "GF(25)": lambda: make_field(5, 2),
    "GF(27)": lambda: make_field(3, 3), "GF(49)": lambda: make_field(7, 2, seed=4),
    "GF(64)": lambda: make_field(2, 6), "GF(121)": lambda: make_field(11, 2),
    "GF(16)/GF(4)": lambda: make_extension(make_field(2, 2), 2),
    "GF(27)/GF(3)": lambda: make_extension(make_field(3, 1), 3),
    "GF(64)/GF(8)": lambda: make_extension(make_field(2, 3, seed=2), 2, seed=2),
}


@pytest.mark.parametrize("name", sorted(TABLED))
def test_tables_equal_the_polynomial_oracle_exhaustively(name):
    field = TABLED[name]()
    q = field.q
    assert q <= TABLE_LIMIT
    if field.base is None:  # the root: integers mod p
        idx = np.arange(q)
        want_mul, want_add = idx[:, None] * idx % q, (idx[:, None] + idx) % q
    else:
        pairs = [[poly_oracle(field, a, b) for b in range(q)] for a in range(q)]
        want_mul, want_add = np.array(pairs).transpose(2, 0, 1)
    assert field.MUL.shape == field.ADD.shape == (q, q)
    np.testing.assert_array_equal(field.MUL, want_mul)
    np.testing.assert_array_equal(field.ADD, want_add)
    assert field.INV[0] == 0
    assert (want_mul[np.arange(1, q), field.INV[1:]] == 1).all()


def test_tables_are_built_only_where_read():
    small = make_extension(make_field(2, 2), 4)  # GF(256): within the table limit
    small.mul_matrices(small.coordinates(np.arange(5)))
    assert not {"MUL", "ADD", "INV"} & set(vars(small))
    small.ADD
    assert "ADD" in vars(small) and "MUL" not in vars(small)
    large = make_extension(make_field(2, 5), 2)  # GF(1024)
    assert large.mul(3, 700) == poly_oracle(large, 3, 700)[0]
    with pytest.raises(ValueError, match="dense tables"):
        large.MUL


@pytest.mark.parametrize("p,m,seed", [(2, 2, 0), (2, 4, 1), (3, 3, 0), (5, 2, 7), (2, 9, 3)])
def test_make_field_is_the_extension_of_its_root(p, m, seed):
    field = make_field(p, m, seed)
    assert field.base.base is None and field.base.q == p
    assert field.modulus == make_extension(make_field(p, 1), m, seed).modulus


@pytest.mark.parametrize("p,m", [(2, 1), (7, 1), (2, 3), (3, 2), (5, 2), (2, 5)])
def test_inner_field_mul_matrices_agree_with_scalar_mul(p, m):
    field = make_field(p, m)
    assert field.prime_degree == m
    idx = np.arange(field.q)
    coords = field.coordinates(idx)
    assert [digits_to_int(row, p) for row in coords] == list(idx)
    mats = field.mul_matrices(coords).astype(np.int64)
    prods = np.einsum("aij,bj->abi", mats, coords.astype(np.int64)) % p
    got = prods @ p ** np.arange(m)
    np.testing.assert_array_equal(
        got, [[field.mul(int(a), int(b)) for b in idx] for a in idx])


@pytest.mark.parametrize("base,width", [(2, 1), (2, 5000), (5, 61), (5, 3000), (9, 700)])
def test_int_digits_round_trip(base, width):
    rng = np.random.default_rng(width)
    value = int("".join(str(d) for d in rng.integers(0, 10, size=width // 2 + 1))) % base**width
    digits = int_to_digits(value, base, width)
    assert digits.shape == (width,) and digits.min() >= 0 and digits.max() < base
    assert digits_to_int(digits, base) == value
    # the low digits agree with plain repeated division
    v, low = value, []
    for _ in range(min(width, 40)):
        v, r = divmod(v, base)
        low.append(r)
    assert list(digits[: len(low)]) == low


def test_split_digits_round_trips_every_table_order():
    # every order q <= TABLE_LIMIT, split at each base b = p^j with q = b^w
    for q in range(2, TABLE_LIMIT + 1):
        if (pm := prime_power(q)) is None:
            continue
        p, m = pm
        for j in (j for j in range(1, m + 1) if m % j == 0):
            base, width = p**j, m // j
            rows = split_digits(np.arange(q), base, width)
            assert rows.shape == (q, width) and rows.dtype == np.int64
            assert [tuple(row) for row in rows] == [_digits(i, base, width) for i in range(q)]
            np.testing.assert_array_equal(rows @ base ** np.arange(width), np.arange(q))


def test_split_digits_match_python_divmod():
    rng = np.random.default_rng(63)
    for _ in range(50):
        base, width = int(rng.integers(2, 1 << 20)), int(rng.integers(1, 70))
        values = rng.integers(0, 2**63 - 1, size=(3, 4), dtype=np.int64, endpoint=True)
        got = split_digits(values, base, width)
        assert got.shape == (3, 4, width)
        for value, row in zip(values.ravel().tolist(), got.reshape(-1, width)):
            want = []
            for _ in range(width):  # the low digits; a split drops the rest
                value, r = divmod(value, base)
                want.append(r)
            assert row.tolist() == want
