"""Finite field arithmetic for the GF(p) -> GF(q1) -> GF(q1^k1) tower.

One class, ``ExtensionContext``, models every field of the tower.  The
root GF(p) (p prime) has no base and its elements are the ints mod p.
Every other field is a degree-k extension of the field below it: the
inner alphabet GF(q1 = p^m) extends the root, and the outer code's
GF(q1^k1) extends GF(q1).  An element is an integer index whose base-q
digits, for q the order of the base, are its coefficients over the base
(constant term first).  Its base-p digits are its coordinates over GF(p);
``split_digits``, the one vector splitter, gives the digits of many.

The encoder works over the prime field: addition is coordinate-wise
mod p, and multiplication by a fixed element is a fixed D x D matrix over
GF(p), D = ``prime_degree``.  ``mul_matrices`` builds those matrices for
many elements at once from D basis matrices.  The dense MUL/ADD/INV
tables of a small field come from the same matrices, in integers; they
serve scalar arithmetic and the digit-matrix operations ``vadd``/``vmul``,
which remain as tested reference code (the benchmark tracer wraps them
by name).  No encoder reads them.

Every extension searches its own irreducible modulus, seeded and
deterministic, so the same (parameters, seed) always yields the same
field; Ben-Or's test (no factor of degree <= k/2) picks the first
irreducible candidate.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

# Dense q x q operation tables are built up to this order.
TABLE_LIMIT = 512
# Modulus candidates are fully enumerated (and seed-shuffled) up to this
# count; beyond it the search draws candidates from the seeded stream.
ENUM_LIMIT = 1 << 16
_SEARCH_CAP = 200_000
# float32 holds every integer below this exactly; GF(p) products of
# coordinates run in float32 while their sums stay below it
FLOAT32_EXACT = 1 << 24


def prime_power(q: int) -> tuple[int, int] | None:
    """Decompose q as p^m with p prime, or return None.  By trial division:
    the package meets only inner alphabets q1 <= n^(1/4) and primes p <= 127."""
    factors = _prime_factors(q)
    if not factors or factors.count(factors[0]) != len(factors):
        return None
    return factors[0], len(factors)


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
    """Ben-Or's test (FOCS 1981) for a monic polynomial over the field context F.

    A monic f of degree k is irreducible over GF(q) iff it has no factor
    of degree d <= k/2, that is iff gcd(x^(q^d) - x, f) = 1 for every
    such d; each step raises the last power of x to the q-th.
    """
    poly = list(poly)
    k = len(poly) - 1
    if k < 1 or poly[-1] != 1:
        raise ValueError("expected a monic polynomial of degree >= 1")
    t, minus_x = [0, 1], [0, F.neg(1)]
    for _ in range(k // 2):
        t = _poly_powmod(F, t, F.q, poly)
        if len(_poly_gcd(F, _poly_add(F, t, minus_x), poly)) != 1:  # gcd not a nonzero constant
            return False
    return True


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
        candidates = (_digits(int(code), q, degree) for code in rng.permutation(count))
    else:
        candidates = (tuple(int(v) for v in rng.integers(0, q, size=degree))
                      for _ in range(_SEARCH_CAP))
    for coeffs in candidates:
        if is_irreducible(F, (*coeffs, 1)):
            return (*coeffs, 1)
    raise ValueError(f"no irreducible polynomial of degree {degree} found")


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


def split_digits(values, base: int, width: int) -> np.ndarray:
    """(..., width) int64: the low ``width`` base-``base`` digits of each of
    values, ints below 2^63, little-endian (the vector ``_digits``)."""
    rest = np.asarray(values, dtype=np.int64)
    out = np.empty((*rest.shape, width), dtype=np.int64)
    for d in range(width):
        rest, out[..., d] = np.divmod(rest, base)
    return out


def _word_digits(base: int) -> int:
    """How many base-`base` digits fit in one int64 word with room to spare."""
    per = 1
    while base ** (per + 1) < 2**62:
        per += 1
    return per


def int_to_digits(value: int, base: int, width: int) -> np.ndarray:
    """The low ``width`` base-``base`` digits of value, little-endian (int64).

    The integer is halved recursively down to runs of machine words, so a
    value with tens of thousands of digits costs balanced divisions
    rather than one long chain of them.
    """
    per = _word_digits(base)
    word = base**per
    words: list[int] = []

    def split(v: int, count: int) -> None:
        if count > 16:
            half = count // 2
            hi, lo = divmod(v, word**half)
            split(lo, half)
            split(hi, count - half)
            return
        for _ in range(count):
            v, rem = divmod(v, word)
            words.append(rem)

    split(value, -(-width // per))
    place = base ** np.arange(per, dtype=np.int64)
    return (np.array(words, dtype=np.int64)[:, None] // place % base).ravel()[:width]


def digits_to_int(digits: np.ndarray, base: int) -> int:
    """Inverse of ``int_to_digits``: little-endian base-``base`` digits to an int."""
    per = _word_digits(base)
    padded = np.zeros(-(-len(digits) // per) * per, dtype=np.int64)
    padded[: len(digits)] = digits
    words = padded.reshape(-1, per) @ base ** np.arange(per, dtype=np.int64)
    words, word = [int(w) for w in words] or [0], base**per
    while len(words) > 1:  # in balanced pairs, not one chain of quadratic cost
        words = [lo + hi * word for lo, hi in zip(words[::2], words[1::2] + [0])]
        word *= word
    return words[0]


def reduce_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for a float32 array of integers below 2^24 in magnitude.

    floor(x / p) is exact there because IEEE division rounds correctly (the
    quotient stays more than half an ulp away from the next integer), and
    it is much cheaper than ``np.mod`` on floats.
    """
    q = x / p
    np.floor(q, out=q)
    q *= p
    x -= q
    return x


class ExtensionContext:
    """GF(q): the root GF(p), or the degree-``degree`` extension of ``base``.

    Every field of the tower is one of these.  The root has no base and
    its elements are the ints mod p.  Above it, the base-``base.q`` digits
    of an element index are its coefficients over the base field
    (constant term first) and its base-p digits are its ``prime_degree``
    coordinates over GF(p).  Fields of order up to TABLE_LIMIT read
    products, sums and inverses from dense tables, each built on first
    read; larger ones reduce polynomials over the base.  Orders grow with
    the code length and are arbitrary-precision integers.
    """

    def __init__(self, base: ExtensionContext | int, degree: int = 1, seed: int = 0):
        """``base`` is the base field, or the prime p for the root GF(p);
        a degree k > 1 extension takes the seeded search's modulus."""
        if degree < 1:
            raise ValueError("extension degree must be >= 1")
        if isinstance(base, ExtensionContext):
            self.base, self.p, self.q = base, base.p, base.q**degree
            self.prime_degree = degree * base.prime_degree
        elif degree == 1 and prime_power(base) == (base, 1):
            self.base, self.p, self.q, self.prime_degree = None, base, base, 1
        else:
            raise ValueError(f"the root field GF({base}) needs a prime order")
        self.degree = degree
        self.modulus = _search_modulus(base, degree, seed) if degree > 1 else (0, 1)

    def __repr__(self) -> str:
        return f"ExtensionContext(q={self.q}, degree={self.degree}, modulus={self.modulus})"

    # -- index <-> digit conversions

    def to_digits(self, idx: int) -> tuple[int, ...]:
        if not 0 <= idx < self.q:
            raise ValueError(f"element index outside [0, {self.q})")
        return _digits(idx, self.base.q if self.base else self.p, self.degree)

    def from_digits(self, digits: Sequence[int]) -> int:
        return _undigits(digits, self.base.q if self.base else self.p)

    # -- scalar arithmetic on indices

    def add(self, a: int, b: int) -> int:
        if self.base is None:
            return (a + b) % self.p
        if self.q <= TABLE_LIMIT:
            return int(self.ADD[a, b])
        F = self.base
        return self.from_digits([F.add(x, y) for x, y in zip(self.to_digits(a), self.to_digits(b))])

    def neg(self, a: int) -> int:
        return self.mul(a, self.p - 1)  # -1 is the element p - 1 in every field of the tower

    def mul(self, a: int, b: int) -> int:
        if self.base is None:
            return a * b % self.p
        if self.q <= TABLE_LIMIT:
            return int(self.MUL[a, b])
        return self._poly_product(a, b)

    def _poly_product(self, a: int, b: int) -> int:
        """a * b as the product of their polynomials over the base, reduced."""
        F = self.base
        pa = _poly_trim(list(self.to_digits(a)))
        pb = _poly_trim(list(self.to_digits(b)))
        return self.from_digits(_poly_rem(F, _poly_mul(F, pa, pb), self.modulus))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self.base is None:
            return pow(a, self.p - 2, self.p)
        if self.q <= TABLE_LIMIT:
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

    # -- GF(p)-linear algebra on coordinate vectors

    @cached_property
    def _basis(self) -> np.ndarray:
        """(D, D*D) float32: row l is B_l, the matrix of multiplication by p^l.

        Column j of B_l holds the coordinates of p^l * p^j (p^j is the j-th
        basis element); the products come from polynomials over the base.
        """
        D, p = self.prime_degree, self.p
        if self.base is None:
            return np.ones((1, 1), dtype=np.float32)
        unit = [p**j for j in range(D)]
        basis = np.empty((D, D, D), dtype=np.float32)  # [l, :, j]: coordinates of p^l * p^j
        for l, b in enumerate(unit):
            for j, c in enumerate(unit):
                basis[l, :, j] = _digits(self._poly_product(b, c), p, D)
        return basis.reshape(D, D * D)

    def _require_int8_coordinates(self) -> None:
        D, p = self.prime_degree, self.p
        if p > 127 or D * p * p >= FLOAT32_EXACT:
            raise ValueError(f"GF({p}^{D}) coordinates exceed int8, or float32 products of them")

    def coordinates(self, indices: np.ndarray) -> np.ndarray:
        """(N, D) int8 GF(p) coordinates of element indices below 2^63."""
        self._require_int8_coordinates()
        return split_digits(indices, self.p, self.prime_degree).astype(np.int8)

    def mul_matrices(self, coords: np.ndarray) -> np.ndarray:
        """(N, D, D) int8: the GF(p) matrix of multiplication by each element.

        coords holds the elements' (N, D) coordinates.  The map a -> M_a
        is GF(p)-linear, so M_a = sum_l a_l B_l over the D basis matrices
        B_l, and all N matrices come from one product mod p.  Column j of
        M_a holds the coordinates of a * p^j (the j-th basis element).
        """
        self._require_int8_coordinates()
        D = self.prime_degree
        prod = np.asarray(coords, dtype=np.float32).reshape(-1, D) @ self._basis
        return reduce_mod(prod, self.p).astype(np.int8).reshape(-1, D, D)

    # -- dense (q, q) tables of element indices, each built on first read

    def _table_coords(self) -> np.ndarray:
        if self.q > TABLE_LIMIT:
            raise ValueError(f"dense tables need order <= {TABLE_LIMIT}, not {self.q}")
        return split_digits(np.arange(self.q), self.p, self.prime_degree)

    @cached_property
    def MUL(self) -> np.ndarray:
        """MUL[a, b] = a * b: each M_a, in integers, applied to every b's coordinates."""
        c, D, p = self._table_coords(), self.prime_degree, self.p
        mats = (c @ self._basis.astype(np.int64) % p).reshape(-1, D, D)
        prod = mats @ c.T % p  # prod[a, i, b]: coordinate i of a * b
        return np.einsum("aib,i->ab", prod, p ** np.arange(D)).astype(np.int32)

    @cached_property
    def ADD(self) -> np.ndarray:
        c, p = self._table_coords(), self.p
        return ((c[:, None] + c[None]) % p @ p ** np.arange(self.prime_degree)).astype(np.int32)

    @cached_property
    def INV(self) -> np.ndarray:
        """INV[a] = 1 / a, and INV[0] = 0."""
        return np.argmax(self.MUL == 1, axis=1).astype(np.int32)

    # -- vector arithmetic on (N, degree) digit matrices over a tabled base

    def vadd(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        return self.base.ADD[A, B]

    def vmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Elementwise product of two digit matrices, reduced by the modulus."""
        F = self.base
        ADD, MUL = F.ADD, F.MUL
        k = self.degree
        tail = [F.neg(c) for c in self.modulus[:-1]]
        acc = np.zeros((A.shape[0], 2 * k - 1), dtype=np.int32)
        for i in range(k):
            Ai = A[:, i]
            for j in range(k):
                acc[:, i + j] = ADD[acc[:, i + j], MUL[Ai, B[:, j]]]
        for t in range(2 * k - 2, k - 1, -1):
            top = acc[:, t]
            for s, g in enumerate(tail):
                if g:
                    acc[:, t - k + s] = ADD[acc[:, t - k + s], MUL[top, g]]
        return acc[:, :k]


def make_extension(base: ExtensionContext, degree: int, seed: int = 0) -> ExtensionContext:
    """GF(base.q ** degree) with a deterministically chosen modulus."""
    return ExtensionContext(base, degree, seed)


def make_field(p: int, m: int, seed: int = 0) -> ExtensionContext:
    """GF(p^m): the root GF(p) for m = 1, else its degree-m extension (built
    here, not by ``make_extension``, so a trace adding both counts it once)."""
    root = ExtensionContext(p, seed=seed)
    return root if m == 1 else ExtensionContext(root, m, seed)
