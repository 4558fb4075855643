"""Finite field arithmetic for the two Reed-Solomon layers.

Two element representations are used:

* ``FieldContext`` models GF(p^m) with p prime and p^m within machine
  range.  An element is an integer index in ``[0, p^m)`` whose base-p
  digits are the coefficients of the element's polynomial over GF(p)
  (constant coefficient first).  Small fields additionally carry dense
  numpy operation tables so batch encoders can run as table gathers.

* ``ExtensionContext`` models GF(q^k) on top of a ``FieldContext`` with
  order q.  Elements are integer indices whose base-q digits are the
  coefficients over the base field.  Orders here grow with the code
  length and are handled as arbitrary-precision integers; vectorised
  arithmetic works on digit matrices instead of dense tables.

Both contexts pick their irreducible modulus by a deterministic seeded
search, so the same (parameters, seed) always yields the same field.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

# Dense q x q operation tables are built up to this order.
TABLE_LIMIT = 512
# Modulus candidates are fully enumerated (and seed-shuffled) up to this
# count; beyond it the search draws candidates from the seeded stream.
ENUM_LIMIT = 1 << 16
_SEARCH_CAP = 200_000


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all 64-bit integers."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power(q: int) -> tuple[int, int] | None:
    """Decompose q as p^m with p prime, or return None."""
    if q < 2:
        return None
    if is_prime(q):
        return q, 1
    for p in range(2, int(math.isqrt(q)) + 1):
        if q % p:
            continue
        if not is_prime(p):
            return None
        m = 0
        r = q
        while r % p == 0:
            r //= p
            m += 1
        return (p, m) if r == 1 else None
    return None


# ---------------------------------------------------------------------------
# polynomial helpers over an arbitrary field context
#
# Coefficient lists are little-endian (constant term first) with trailing
# zeros stripped; the zero polynomial is the empty list.


def _poly_trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_add(F, a: Sequence[int], b: Sequence[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] = F.add(out[i], x)
    return _poly_trim(out)


def _poly_mul(F, a: Sequence[int], b: Sequence[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _poly_trim(out)


def _poly_rem(F, a: Sequence[int], mod: Sequence[int]) -> list[int]:
    """Remainder of a modulo mod; mod need not be monic."""
    r = list(a)
    dm = len(mod) - 1
    inv_lead = F.inv(mod[-1])
    while len(r) - 1 >= dm and r:
        if r[-1] == 0:
            r.pop()
            continue
        coef = F.mul(r[-1], inv_lead)
        shift = len(r) - 1 - dm
        for i, g in enumerate(mod):
            if g:
                r[shift + i] = F.add(r[shift + i], F.neg(F.mul(coef, g)))
        _poly_trim(r)
    return r


def _poly_gcd(F, a: Sequence[int], b: Sequence[int]) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_rem(F, a, b)
    if a:
        inv_lead = F.inv(a[-1])
        a = [F.mul(x, inv_lead) for x in a]
    return a


def _poly_powmod(F, base: Sequence[int], exp: int, mod: Sequence[int]) -> list[int]:
    result = [1]
    acc = _poly_rem(F, list(base), mod)
    while exp:
        if exp & 1:
            result = _poly_rem(F, _poly_mul(F, result, acc), mod)
        acc = _poly_rem(F, _poly_mul(F, acc, acc), mod)
        exp >>= 1
    return result


def is_irreducible(F, poly: Sequence[int]) -> bool:
    """Rabin's test for a monic polynomial over the field context F.

    A monic f of degree k is irreducible over GF(q) iff x^(q^k) = x mod f
    and gcd(x^(q^(k/r)) - x, f) = 1 for every prime r dividing k.
    """
    poly = list(poly)
    k = len(poly) - 1
    if k < 1 or poly[-1] != 1:
        raise ValueError("expected a monic polynomial of degree >= 1")
    if k == 1:
        return True
    q = F.q
    x = [0, 1]
    for r in sorted({f for f in _prime_factors(k)}):
        t = _poly_powmod(F, x, q ** (k // r), poly)
        t = _poly_add(F, t, [F.neg(c) for c in x])
        if len(_poly_gcd(F, t, poly)) != 1:  # gcd not a nonzero constant
            return False
    t = _poly_powmod(F, x, q**k, poly)
    t = _poly_add(F, t, [F.neg(c) for c in x])
    return not t


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _search_modulus(F, degree: int, seed: int) -> tuple[int, ...]:
    """Deterministic seeded search for a monic irreducible of given degree.

    Candidates are identified with the integer code of their non-leading
    coefficient vector (base-q digits, constant term first).  When the
    candidate space is small it is enumerated once and scanned in a
    seed-shuffled order (ties impossible, scan order is the permutation);
    for large spaces candidates are drawn from the seeded stream.
    """
    q = F.q
    count = q**degree
    rng = np.random.Generator(np.random.PCG64(seed))
    if count <= ENUM_LIMIT:
        order = rng.permutation(count)
        for code in order:
            coeffs = _digits(int(code), q, degree)
            cand = (*coeffs, 1)
            if is_irreducible(F, cand):
                return cand
        raise ValueError(f"no irreducible polynomial of degree {degree} found")
    for _ in range(_SEARCH_CAP):
        coeffs = tuple(int(v) for v in rng.integers(0, q, size=degree))
        cand = (*coeffs, 1)
        if is_irreducible(F, cand):
            return cand
    raise ValueError("modulus search exhausted its attempt budget")


def _digits(value: int, base: int, width: int) -> tuple[int, ...]:
    out = []
    for _ in range(width):
        value, r = divmod(value, base)
        out.append(r)
    if value:
        raise ValueError("value does not fit in the requested digit width")
    return tuple(out)


def _undigits(digits: Sequence[int], base: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * base + int(d)
    return value


# ---------------------------------------------------------------------------


class FieldContext:
    """GF(p^m) with integer-indexed elements and optional dense tables.

    Parameters
    ----------
    p, m : int
        Field characteristic (prime) and extension degree.
    modulus : tuple of int
        Monic irreducible polynomial of degree m over GF(p), little-endian
        coefficients.  For m = 1 the convention is x - 0, i.e. (0, 1).
    seed : int
        The seed that produced the modulus (kept for reproducibility).
    """

    def __init__(self, p: int, m: int, modulus: Sequence[int], seed: int = 0):
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        q = p**m
        if q.bit_length() > 63:
            raise ValueError("field order does not fit in 64 bits")
        modulus = tuple(int(c) % p for c in modulus[:-1]) + (int(modulus[-1]),)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = modulus
        self.seed = seed
        self.prime_subfield = self if m == 1 else FieldContext(p, 1, (0, 1), seed)
        if m > 1:
            sub = self.prime_subfield
            if not is_irreducible(sub, modulus):
                raise ValueError(f"modulus {modulus} is reducible over GF({p})")
            tail = modulus[:-1]
            self._neg_tail = tuple((-c) % p for c in tail)
        self.MUL: np.ndarray | None = None
        self.ADD: np.ndarray | None = None
        self.NEG: np.ndarray | None = None
        self.INV: np.ndarray | None = None
        if q <= TABLE_LIMIT:
            self._build_tables()

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, m={self.m}, modulus={self.modulus})"

    # -- scalar arithmetic on element indices

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        p = self.p
        return _undigits(
            [(x + y) % p for x, y in zip(self.element_digits(a), self.element_digits(b))], p
        )

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        p = self.p
        return _undigits([(-x) % p for x in self.element_digits(a)], p)

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        if self.MUL is not None:
            return int(self.MUL[a, b])
        da = [x for x in self.element_digits(a)]
        db = [x for x in self.element_digits(b)]
        prod = _poly_mul(self.prime_subfield, _poly_trim(da), _poly_trim(db))
        rem = _poly_rem(self.prime_subfield, prod, self.modulus)
        rem += [0] * (self.m - len(rem))
        return _undigits(rem, self.p)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self.INV is not None:
            return int(self.INV[a])
        return self.pow(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        result = 1
        acc = a
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result

    def element_digits(self, a: int) -> tuple[int, ...]:
        if not 0 <= a < self.q:
            raise ValueError(f"element index {a} outside [0, {self.q})")
        return _digits(a, self.p, self.m)

    def digits_to_element(self, digits: Sequence[int]) -> int:
        return _undigits([d % self.p for d in digits], self.p)

    # -- dense tables

    def _build_tables(self) -> None:
        q, p, m = self.q, self.p, self.m
        if m == 1:
            idx = np.arange(q, dtype=np.int64)
            self.ADD = ((idx[:, None] + idx[None, :]) % p).astype(np.int32)
            self.MUL = ((idx[:, None] * idx[None, :]) % p).astype(np.int32)
            self.NEG = ((-idx) % p).astype(np.int32)
        else:
            digs = np.array([self.element_digits(a) for a in range(q)], dtype=np.int64)
            pw = p ** np.arange(m, dtype=np.int64)
            self.ADD = (((digs[:, None, :] + digs[None, :, :]) % p) @ pw).astype(np.int32)
            self.NEG = (((-digs) % p) @ pw).astype(np.int32)
            acc = np.zeros((q, q, 2 * m - 1), dtype=np.int64)
            for i in range(m):
                for j in range(m):
                    acc[:, :, i + j] += digs[:, None, i] * digs[None, :, j]
            acc %= p
            for t in range(2 * m - 2, m - 1, -1):
                top = acc[:, :, t]
                for s, g in enumerate(self._neg_tail):
                    if g:
                        acc[:, :, t - m + s] = (acc[:, :, t - m + s] + top * g) % p
                acc[:, :, t] = 0
            self.MUL = (acc[:, :, :m] @ pw).astype(np.int32)
        inv = np.zeros(q, dtype=np.int32)
        hit = np.argmax(self.MUL == 1, axis=1)
        inv[1:] = hit[1:]
        if not (self.MUL[np.arange(1, q), inv[1:]] == 1).all():
            raise AssertionError("inverse table construction failed; modulus not irreducible?")
        self.INV = inv


def make_field(p: int, m: int, seed: int = 0) -> FieldContext:
    """Build GF(p^m) with a deterministically chosen irreducible modulus."""
    if m == 1:
        return FieldContext(p, 1, (0, 1), seed)
    prime = FieldContext(p, 1, (0, 1), seed)
    modulus = _search_modulus(prime, m, seed)
    return FieldContext(p, m, modulus, seed)


# ---------------------------------------------------------------------------


class ExtensionContext:
    """GF(q^k) over a base FieldContext of order q.

    Element indices are arbitrary-precision integers; the base-q digits of
    an index are the element's coefficients over the base field.  Vector
    operations act on (N, k) digit matrices of base-field indices and
    require the base field to carry dense tables.
    """

    def __init__(self, base: FieldContext, degree: int, modulus: Sequence[int], seed: int = 0):
        if degree < 1:
            raise ValueError("extension degree must be >= 1")
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != degree + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if degree > 1 and not is_irreducible(base, modulus):
            raise ValueError("modulus is reducible over the base field")
        self.base = base
        self.degree = degree
        self.modulus = modulus
        self.seed = seed
        self.order: int = base.q**degree
        self.q = self.order  # so an ExtensionContext can serve as a base itself
        self._neg_tail = tuple(base.neg(c) for c in modulus[:-1])

    def __repr__(self) -> str:
        return f"ExtensionContext(base_q={self.base.q}, degree={self.degree})"

    # -- index <-> digit conversions

    def to_digits(self, idx: int) -> tuple[int, ...]:
        if not 0 <= idx < self.order:
            raise ValueError(f"element index outside [0, {self.order})")
        return _digits(idx, self.base.q, self.degree)

    def from_digits(self, digits: Sequence[int]) -> int:
        return _undigits(digits, self.base.q)

    # -- scalar arithmetic on indices

    def add(self, a: int, b: int) -> int:
        F = self.base
        return self.from_digits(
            [F.add(x, y) for x, y in zip(self.to_digits(a), self.to_digits(b))]
        )

    def neg(self, a: int) -> int:
        F = self.base
        return self.from_digits([F.neg(x) for x in self.to_digits(a)])

    def mul(self, a: int, b: int) -> int:
        F = self.base
        pa = _poly_trim(list(self.to_digits(a)))
        pb = _poly_trim(list(self.to_digits(b)))
        rem = _poly_rem(F, _poly_mul(F, pa, pb), self.modulus)
        rem += [0] * (self.degree - len(rem))
        return self.from_digits(rem)

    def inv(self, a: int) -> int:
        """Inverse via extended Euclid on coefficient polynomials."""
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        F = self.base
        r0, r1 = list(self.modulus), _poly_trim(list(self.to_digits(a)))
        s0, s1 = [], [1]
        while r1:
            # one division step: r0 = q*r1 + r2
            q_poly = []
            r2 = list(r0)
            dm = len(r1) - 1
            inv_lead = F.inv(r1[-1])
            q_poly = [0] * (max(len(r2) - len(r1), 0) + 1)
            while len(r2) - 1 >= dm and r2:
                if r2[-1] == 0:
                    r2.pop()
                    continue
                coef = F.mul(r2[-1], inv_lead)
                shift = len(r2) - 1 - dm
                q_poly[shift] = F.add(q_poly[shift], coef)
                for i, g in enumerate(r1):
                    if g:
                        r2[shift + i] = F.add(r2[shift + i], F.neg(F.mul(coef, g)))
                _poly_trim(r2)
            _poly_trim(q_poly)
            s2 = _poly_add(F, s0, [F.neg(c) for c in _poly_mul(F, q_poly, s1)])
            r0, r1 = r1, r2
            s0, s1 = s1, s2
        if len(r0) != 1:
            raise AssertionError("element not invertible; modulus reducible?")
        lead_inv = F.inv(r0[0])
        out = [F.mul(c, lead_inv) for c in s0]
        out += [0] * (self.degree - len(out))
        return self.from_digits(out[: self.degree])

    def pow(self, a: int, e: int) -> int:
        result = 1
        acc = a
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result

    # -- vector arithmetic on (N, degree) digit matrices

    def _require_tables(self) -> None:
        if self.base.MUL is None:
            raise ValueError(
                f"vector arithmetic needs dense base tables (order {self.base.q} > {TABLE_LIMIT})"
            )

    def digit_rows(self, indices: Sequence[int]) -> np.ndarray:
        return np.array([self.to_digits(int(i)) for i in indices], dtype=np.int32)

    def vadd(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        self._require_tables()
        return self.base.ADD[A, B]

    def vmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Elementwise product of two digit matrices, reduced by the modulus."""
        self._require_tables()
        ADD, MUL = self.base.ADD, self.base.MUL
        k = self.degree
        n_rows = A.shape[0]
        acc = np.zeros((n_rows, 2 * k - 1), dtype=np.int32)
        for i in range(k):
            Ai = A[:, i]
            for j in range(k):
                acc[:, i + j] = ADD[acc[:, i + j], MUL[Ai, B[:, j]]]
        for t in range(2 * k - 2, k - 1, -1):
            top = acc[:, t]
            for s, g in enumerate(self._neg_tail):
                if g:
                    acc[:, t - k + s] = ADD[acc[:, t - k + s], MUL[top, g]]
        return acc[:, :k]


def make_extension(base: FieldContext, degree: int, seed: int = 0) -> ExtensionContext:
    """Build GF(base.q ** degree) with a deterministically chosen modulus."""
    if degree == 1:
        return ExtensionContext(base, 1, (0, 1), seed)
    modulus = _search_modulus(base, degree, seed)
    return ExtensionContext(base, degree, modulus, seed)
