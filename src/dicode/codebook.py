"""Concatenated Reed-Solomon identification codebooks.

Identities are integers below M = q2^k2.  Encoding walks down the tower:

  index -> k2 base-q2 digits            (outer message)
        -> outer RS over GF(q2), q2 = q1^k1, length n2
        -> each outer symbol, read as k1 base-q1 digits, becomes an
           inner RS message over GF(q1), length n1
        -> each inner symbol index j maps to the amplitude
           -sqrt(A) + 2 sqrt(A) j / (q1 - 1)
        -> n1*n2 coordinates plus zero padding up to n.

Both fields come from one class: the inner GF(q1) extends GF(p) (or is
it), and the outer GF(q2) extends GF(q1) by degree k1.  Both steps
are GF(p)-linear (Forney's concatenated structure): an identity's base-p
digits are the GF(p) coordinates of its k2 outer symbols, and each outer
symbol's coordinates, m at a time, are its k1 inner message symbols.  One
encoder, ``RSCode.encode_batch`` (subspace evaluation), runs twice: on the
one outer message, then on all n2 inner messages in one call.  The close
partner's minimum-weight polynomial comes from the outer subspace maps.

Distinct identities differ in at least d2 outer symbols, each of which
forces at least d1 inner coordinates apart by at least one amplitude
step, so the Euclidean distance is at least
sqrt(d1 d2 * 4A / (q1-1)^2).  The planner ranks feasible (q1, n1, k1,
k2) for a requested block length by the DI rate R = k1 k2 log2(q1) /
(n log2 n), then builds the record of the best one alone.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field
from decimal import Decimal
from functools import cached_property

import numpy as np

from .bounds import di_rate
from .config import Key, resolve
from .errors import InfeasibleError
from .galois import (
    digits_to_int,
    int_to_digits,
    make_extension,
    make_field,
    prime_power,
)
from .rs import RSCode

_SCHEMA = 1

# plan_params' arguments: `construct` keys, and `simulate` ones under `codebook.`
PLAN_KEYS = {
    "n": Key(int, "block length", min=4, required=True),
    "a": Key(float, "distance exponent margin in (0, 1/8)", required=True),
    "power_bound": Key(float, "energy budget A per codeword"),
    "eps1": Key(float, "inner code distance fraction"),
    "eps2": Key(float, "outer code distance fraction"),
    "field_seed": Key(int, "seed for the field modulus searches", min=0),
}
# a record's inputs: PLAN_KEYS, then the planner's choice (ConcatParams checks its ranges)
_RECORD_KEYS = {**PLAN_KEYS, **dict.fromkeys(("q1", "n1", "k1", "n2", "k2"),
                                             Key(int, "planned code shape"))}


def _check_margins(a: float, eps1: float, eps2: float) -> None:
    if not 0 < a < 0.125:
        raise ValueError("a must lie in (0, 1/8)")
    if not (0 < eps1 < 1 and 0 < eps2 < 1):
        raise ValueError("distance fractions must lie in (0, 1)")


def _ceil_at_least(x: float) -> int:
    """Smallest integer d with d >= x, robust to float dust (0.1*600)."""
    return max(1, math.ceil(x - 1e-9))


@dataclass(frozen=True)
class ConcatParams:
    """Fully resolved construction parameters.

    The inputs (n, a, power_bound, eps1, eps2, field_seed) and the
    planner's choice (q1, n1, k1, n2, k2) fix the code; every other
    field is derived from them and cannot be passed in.

    a is the distance exponent margin (distance target n^(1/4+a) in the
    packing view) and b = 1/4 - log(q1)/log(n) records where the inner
    alphabet size actually landed; the planner only accepts
    a < b < 2a.  power_bound is the per-block energy budget A.
    """

    n: int
    a: float
    b: float = field(init=False)
    power_bound: float
    eps1: float
    eps2: float
    q1: int
    p: int = field(init=False)
    m: int = field(init=False)
    n1: int
    k1: int
    n2: int
    k2: int
    padding: int = field(init=False)
    field_seed: int
    log2_size: float = field(init=False)
    rate: float = field(init=False)
    min_euclidean_distance: float = field(init=False)
    meets_asymptotic_rate: bool = field(init=False)

    @property
    def d1(self) -> int:
        return self.n1 - self.k1 + 1

    @property
    def d2(self) -> int:
        return self.n2 - self.k2 + 1

    @property
    def q2(self) -> int:
        return self.q1**self.k1

    @cached_property
    def size(self) -> int:
        return self.q2**self.k2

    def __post_init__(self):  # kept as plan_params resolves them: n=500.0 as 500
        kw = resolve({name: getattr(self, name) for name in _RECORD_KEYS}, _RECORD_KEYS)
        for name, value in kw.items():
            object.__setattr__(self, name, value)  # the record is frozen
        _check_margins(self.a, self.eps1, self.eps2)
        if not self.power_bound > 0:
            raise ValueError("power bound must be positive and finite")
        pp = prime_power(self.q1)
        if pp is None:
            raise ValueError(f"q1 = {self.q1} is not a prime power")
        if not 1 <= self.n1 <= min(self.q1, self.n):
            raise ValueError("need 1 <= n1 <= min(q1, n)")
        if not 1 <= self.k1 <= self.n1:
            raise ValueError("need 1 <= k1 <= n1")
        if not 1 <= self.n2 <= self.q2:
            raise ValueError("outer length exceeds outer field order")
        if not 1 <= self.k2 <= self.n2:
            raise ValueError("need 1 <= k2 <= n2")
        if self.d1 < self.eps1 * self.n1 - 1e-9:
            raise ValueError("inner distance misses its fraction target")
        if self.d2 < self.eps2 * self.n2 - 1e-9:
            raise ValueError("outer distance misses its fraction target")
        if self.n1 * self.n2 > self.n:
            raise ValueError("need n1 * n2 <= n")
        log2_size = self.k1 * self.k2 * math.log2(self.q1)
        rate = di_rate(log2_size, self.n)
        derived = dict(
            b=0.25 - math.log(self.q1) / math.log(self.n), p=pp[0], m=pp[1],
            padding=self.n - self.n1 * self.n2, log2_size=log2_size, rate=rate,
            min_euclidean_distance=guaranteed_distance(self.d1, self.d2, self.power_bound, self.q1),
            meets_asymptotic_rate=rate >= 0.25 - 2 * self.a)
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "schema": _SCHEMA, "d1": self.d1, "d2": self.d2}


def guaranteed_distance(d1: int, d2: int, power_bound: float, q1: int) -> float:
    """sqrt(d1 d2 * 4A / (q1-1)^2): the construction's distance floor."""
    if q1 < 2:
        raise ValueError("inner alphabet needs at least two levels")
    return math.sqrt(d1 * d2 * 4.0 * power_bound / (q1 - 1) ** 2)


def plan_params(
    n: int,
    a: float,
    power_bound: float = 1.0,
    eps1: float = 0.1,
    eps2: float = 0.1,
    field_seed: int = 0,
) -> ConcatParams:
    """Search (q1, n1, k1, k2) maximizing rate under all constraints.

    q1 ranges over prime powers whose implied exponent
    b = 1/4 - log(q1)/log(n) lands strictly inside (a, 2a); for each
    the dimensions are pushed as high as the distance fractions allow,
    subject to the outer length bound n2 <= q2 (enforced here even
    though it only binds at moderate n; violating it would silently
    break injectivity); the first of the highest rate alone becomes a record.
    Refuses what `dicode construct` refuses (PLAN_KEYS) and plans with the
    values it resolves (n=500.0 as 500, as the CLI does); raises
    InfeasibleError when the search space is empty.
    """
    kw = resolve(locals(), PLAN_KEYS)  # locals() holds just the arguments here
    n, a, eps1, eps2 = kw["n"], kw["a"], kw["eps1"], kw["eps2"]
    _check_margins(a, eps1, eps2)
    log_n = math.log(n)
    best: tuple | None = None  # (rate, the planner's choice)
    q_hi = int(math.floor(n ** (0.25 - a))) + 1
    for q1 in range(2, max(q_hi + 1, 3)):
        if prime_power(q1) is None:
            continue
        b = 0.25 - math.log(q1) / log_n
        if not a < b < 2 * a:
            continue
        for n1 in range(min(q1, n), 0, -1):
            n2 = n // n1
            k1 = n1 + 1 - _ceil_at_least(eps1 * n1)
            if q1**k1 < n2:
                continue  # outer field too small for the outer length
            k2 = n2 + 1 - _ceil_at_least(eps2 * n2)
            rate = di_rate(k1 * k2 * math.log2(q1), n)  # as ConcatParams derives it
            if best is None or rate > best[0]:
                best = (rate, dict(q1=q1, n1=n1, k1=k1, n2=n2, k2=k2))
    if best is None:
        raise InfeasibleError(
            f"no concatenated construction for n={n}, a={a}, eps1={eps1}, eps2={eps2}: "
            "no prime power lands in the allowed alphabet window with a large "
            "enough outer field"
        )
    return ConcatParams(**kw, **best[1])


class ConcatCodebook:
    """Executable form of a parameter set: fields, RS codes, amplitude levels.

    ``levels`` holds the q1 equispaced amplitudes spanning [-sqrt(A),
    +sqrt(A)]; inner symbol j is sent as ``levels[j]``.
    """

    def __init__(self, params: ConcatParams):
        self.params = params
        self.inner_field = make_field(params.p, params.m, params.field_seed)
        self.outer_field = make_extension(self.inner_field, params.k1, params.field_seed)
        self.inner_code = RSCode(self.inner_field, params.n1, params.k1)
        self.outer_code = RSCode(self.outer_field, params.n2, params.k2)
        root = math.sqrt(params.power_bound)
        self.levels = -root + 2 * root * np.arange(params.q1) / (params.q1 - 1)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def size(self) -> int:
        return self.params.size

    def _message_coords(self, index: int) -> np.ndarray:
        """(k2, D) GF(p) coordinates of an identity's outer message symbols."""
        p, index = self.params, operator.index(index)
        if not 0 <= index < self.size:
            raise ValueError("identity index out of range")
        D = self.outer_field.prime_degree
        return int_to_digits(index, p.p, p.k2 * D).reshape(p.k2, D)

    def encode(self, index: int) -> np.ndarray:
        p = self.params
        coords = self.outer_code.encode_batch(self._message_coords(index)[None])[0]  # (n2, D)
        # an outer symbol's coordinates, m at a time, are its k1 inner message symbols
        inner = self.inner_code.encode_batch(coords.reshape(p.n2, p.k1, p.m))  # (n2, n1, m)
        amps = self.levels[inner @ p.p ** np.arange(p.m)]
        if p.padding:
            return np.concatenate([amps.ravel(), np.zeros(p.padding)])
        return amps.ravel()

    @cached_property
    def _min_weight_delta(self) -> np.ndarray:
        """GF(p) coordinates (k2, D) of g(x) = prod_{i<k2-1} (x - point_i).

        g is a message polynomial whose outer codeword vanishes on the
        first k2-1 evaluation points and nowhere else, so it has weight
        exactly d2 = n2 - k2 + 1: the minimum possible.  Adding it to
        any message yields a partner at the outer distance floor.
        """
        return self.outer_code.vanishing_coords(self.params.k2 - 1)  # point i is element i

    def close_partner(self, index: int) -> int:
        """An identity whose outer codeword differs in exactly d2 symbols.

        The difference is a fixed minimum-weight outer codeword, so these
        pairs sit at the guaranteed distance floor; the harness uses them
        as worst-case impostors.
        """
        coords = self._message_coords(index) + self._min_weight_delta
        return digits_to_int(coords.ravel() % self.params.p, self.params.p)


def identity_str(index: int) -> str:
    """An identity's decimal digits; str() refuses the 4300+ that concatenated books reach."""
    return str(Decimal(index))


def codewords_csv(book: ConcatCodebook, count: int) -> str:
    """One row for each of the first count identities: index, then n
    coordinates at 17 significant digits."""
    lines = []
    for idx in range(min(count, book.params.size)):
        lines.append(",".join([identity_str(idx)] + [f"{x:.17g}" for x in book.encode(idx)]))
    return "\n".join(lines) + "\n"
