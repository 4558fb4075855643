"""Random-coding codebooks with expurgation, and their property checkers.

The generator draws 2*target_size iid N(0, A') coordinate vectors
(A' < A), removes every vector that violates the requested norm
properties, then greedily removes later vectors that come within
n^(1/4 + a) of an earlier survivor.  Nothing is resampled: whatever
survives is returned, together with a report of what was removed and
why.

Three property profiles:

  "basic"              power cap ||u||_2^2 <= A n and the distance floor
  "fourth-moment"      adds ||u||_4^4 <= B n (B defaults to 3 A^2)
  "norm-concentrated"  adds ||u||_4^4 <= 3 A^2 n and the two-norm band
                       | ||u||_2^2 - A' n | <= sqrt(n) ln n

The greedy step reads squared distances sq_i + sq_j - 2 G_ij off one
Gram product per block of at most n rows.  Where a row's nearest
survivor lies within 4 (n + 4) eps (sq_i + max sq_j) of the floor, more
than the Gram and the direct sum of a pair can differ, the direct sum
``np.sum((survivors - row) ** 2, axis=1)`` decides, so every decision is
the direct sum's.  The fourth-power sums do likewise against ``draws ** 4``.

The norms are taken a row block at a time (``square_sums``), and the
survivors are moved into the leading rows of the draws in place, so
building a book peaks at about one candidate matrix plus one block.

``verify_packing`` re-checks a finished codebook through an independent
code path, and ``check_projection_property`` tests whether pairs stay
separated even after restriction to coordinate subsets.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import NUMBER, Key, owned_defaults, resolve, work_count
from .errors import InfeasibleError

PROFILES = ("basic", "fourth-moment", "norm-concentrated")
_SCHEMA = 1
_SLACK = 4 * np.finfo(float).eps  # times n + 4: over twice what two n-term float64 sums differ by


@dataclass(frozen=True, kw_only=True)
class PackingSpec:
    n: int
    target_size: int
    power_bound: float = 1.0        # A
    sampling_power: float = 0.5     # A', the actual coordinate variance
    distance_exponent: float        # a: pairwise floor n^(1/4 + a)
    seed: int = 0
    fourth_moment_bound: float | None = None   # B; None means 3 A^2

    def __post_init__(self):  # kept as SPEC_KEYS resolves them: n=32.0 as 32
        try:  # refused as `dicode packing` refuses it, after `packing spec`
            kw = resolve(asdict(self), SPEC_KEYS)
        except ValueError as exc:
            raise ValueError(f"packing spec {exc}") from exc
        for name, value in kw.items():
            object.__setattr__(self, name, value)  # the record is frozen
        if not 0 < self.sampling_power < self.power_bound:
            raise ValueError("need 0 < sampling power < power bound")
        if not 0 < self.distance_exponent < 0.25:
            raise ValueError("distance exponent must lie in (0, 1/4)")

    @property
    def distance_floor(self) -> float:
        return self.n ** (0.25 + self.distance_exponent)

    @property
    def fourth_bound(self) -> float:
        if self.fourth_moment_bound is not None:
            return self.fourth_moment_bound
        return 3.0 * self.power_bound**2

    def to_json_dict(self) -> dict:
        # schema 1 records still carry the two projection fields, never set
        return {**asdict(self), "projection_fraction": None, "projection_exponent": None,
                "schema": _SCHEMA}


# the fields of a spec record: `dicode packing` reads them under `spec.`, and
# `dicode simulate` as its `codebook.spec` record; packing draws the seed, so no default
_SEED = Key(int, "sampling seed (--seed sets this)", min=0)
SPEC_KEYS = {**owned_defaults(PackingSpec, {
    "n": Key(int, "dimension", min=2, required=True),
    "target_size": Key(int, "how many vectors to aim for", min=1, required=True),
    "power_bound": Key(float, "hard energy cap A (power n*A)"),
    "sampling_power": Key(float, "sampling variance A' < A"),
    "distance_exponent": Key(float, "margin a; distance floor is n^(1/4 + a)", required=True),
    "seed": _SEED,
    "fourth_moment_bound": Key(NUMBER, "fourth-power budget (fourth-moment profile)")}),
    "seed": _SEED}


def parse_spec(record: dict) -> PackingSpec:
    """The spec a record of SPEC_KEYS asks for, with the table's defaults."""
    return PackingSpec(**resolve(record, SPEC_KEYS))


@dataclass(frozen=True)
class ExpurgationReport:
    profile: str
    seed: int
    sampled: int
    requested: int
    removed_power: int
    removed_fourth: int
    removed_band: int
    removed_distance: int
    survivors: int
    distance_floor: float

    @property
    def removed(self) -> dict:  # each step's removals, as the reports record them
        return {"power": self.removed_power, "fourth": self.removed_fourth,
                "band": self.removed_band, "distance": self.removed_distance}


def square_sums(rows: np.ndarray, fourth: bool = False):
    """(s2, s4): each row's sum of squares and, if fourth, of fourth powers (else None).

    Bit for bit ``np.sum(rows**2, axis=1)`` and ``np.einsum("ij,ij->i", rows**2,
    rows**2)``: every row meets the same reduction, but the squares are made
    ``config.WORK_BYTES`` (256 KiB) of rows at a time in one reused buffer.
    """
    m, n = rows.shape
    step = work_count(8 * max(n, 1))
    squares = np.empty((min(step, m), n))
    s2, s4 = np.empty(m), np.empty(m) if fourth else None
    for r0 in range(0, m, step):
        block = np.square(rows[r0:r0 + step], out=squares[:min(step, m - r0)])
        np.sum(block, axis=1, out=s2[r0:r0 + step])
        if fourth:
            np.einsum("ij,ij->i", block, block, out=s4[r0:r0 + step])
    return s2, s4


def _distance_survivors(draws: np.ndarray, keep: np.ndarray, floor2: float) -> np.ndarray:
    """Indices of the rows in keep at squared distance >= floor2 from every earlier survivor."""
    m, n = draws.shape
    sq = np.einsum("ij,ij->i", draws, draws)
    tol = _SLACK * (n + 4) * (sq + sq.max())
    alive = keep.copy()
    for r0 in range(0, m, n):
        d2 = draws[r0:r0 + n] @ draws[:r0 + n].T
        d2 *= -2.0
        d2 += sq[:r0 + n]  # sq_j - 2 G_ij: a row's minimum plus sq_i is its nearest
        d2[:, ~alive[:r0 + n]] = np.inf  # rows already out never count
        for i in r0 + np.flatnonzero(alive[r0:r0 + n]):
            near = sq[i] + d2[i - r0, :i].min(initial=np.inf)
            if abs(near - floor2) <= tol[i]:  # too close to call: the direct sum decides
                near = np.sum((draws[np.flatnonzero(alive[:i])] - draws[i]) ** 2, axis=1).min()
            if near < floor2:
                alive[i] = False
                d2[:, i] = np.inf
        del d2  # one block at a time
    return np.flatnonzero(alive)


def _check_profile(spec: PackingSpec, profile: str) -> None:
    """Refuse an unknown profile, and a fourth-power budget it would not read."""
    if profile not in PROFILES:
        raise ValueError(f"profile must be one of {PROFILES}")
    if spec.fourth_moment_bound is not None and profile != "fourth-moment":
        raise ValueError(f"fourth_moment_bound is read only by profile 'fourth-moment'; "
                         f"profile {profile!r} would ignore it")


def generate_expurgated(spec: PackingSpec, profile: str = "basic"):
    """Return (codebook array of shape (S, n), ExpurgationReport).

    Deterministic in spec.seed.  The survivor count S may fall short of
    target_size; that is reported, never hidden.  Raises InfeasibleError
    if fewer than two vectors survive.  The codebook is the draws, compacted
    and shrunk in place to their leading S rows: no second matrix, no view.
    """
    _check_profile(spec, profile)
    n = spec.n
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    draws = rng.normal(0.0, math.sqrt(spec.sampling_power), size=(2 * spec.target_size, n))
    s2, s4 = square_sums(draws, fourth=profile in ("fourth-moment", "norm-concentrated"))
    keep = s2 <= spec.power_bound * n
    removed_power = int(np.sum(~keep))
    removed_fourth = removed_band = 0
    if s4 is not None:
        bound4 = spec.fourth_bound
        close = np.flatnonzero(np.abs(s4 - bound4 * n) <= _SLACK * (n + 4) * bound4 * n)
        s4[close] = np.sum(draws[close] ** 4, axis=1)
        bad4 = (s4 > bound4 * n) & keep
        removed_fourth = int(np.sum(bad4))
        keep &= ~bad4
    if profile == "norm-concentrated":
        band = math.sqrt(n) * math.log(n)
        off = (np.abs(s2 - spec.sampling_power * n) > band) & keep
        removed_band = int(np.sum(off))
        keep &= ~off
    survivors = _distance_survivors(draws, keep, spec.distance_floor**2)
    if (count := len(survivors)) < 2:
        raise InfeasibleError(f"expurgation left {count} vector(s); the parameters are too tight")
    report = ExpurgationReport(
        profile=profile, seed=spec.seed, sampled=len(draws), requested=spec.target_size,
        removed_power=removed_power, removed_fourth=removed_fourth, removed_band=removed_band,
        removed_distance=int(np.sum(keep)) - count, survivors=count,
        distance_floor=spec.distance_floor)
    for row, i in enumerate(survivors):  # i >= row: each row is read before it is overwritten
        if i != row:
            draws[row] = draws[i]
    # no view of draws outlives the call that took it (the row blocks of square_sums and
    # _distance_survivors), so only a tracer's bound method would trip resize's refcheck
    draws.resize((count, n), refcheck=False)
    return draws, report


def verify_packing(vectors: np.ndarray, spec: PackingSpec, profile: str) -> list[str]:
    """Independent re-check of every claimed property; returns violations.

    Deliberately not a call into the generation filter: per-vector math
    is redone with plain reductions, and every pair's distance is taken
    from coordinate differences, never from a Gram product.
    """
    _check_profile(spec, profile)
    vectors = np.asarray(vectors, dtype=float)
    n = spec.n
    problems: list[str] = []
    for i, u in enumerate(vectors):
        power = float(u @ u)
        if power > spec.power_bound * n * (1 + 1e-12):
            problems.append(f"vector {i}: squared norm {power:.6g} above A n")
        if profile in ("fourth-moment", "norm-concentrated"):
            fourth = float(np.sum((u * u) ** 2))
            if fourth > spec.fourth_bound * n * (1 + 1e-12):
                problems.append(f"vector {i}: fourth-power sum {fourth:.6g} above bound")
        if profile == "norm-concentrated" and (
                abs(power - spec.sampling_power * n) > math.sqrt(n) * math.log(n) * (1 + 1e-12)):
            problems.append(f"vector {i}: squared norm {power:.6g} outside the A' n band")
    floor, head = spec.distance_floor, min(n, 256)
    for i in range(len(vectors) - 1):
        # a pair whose first coordinates alone clear the floor, rounding and all, is clear
        part = np.sum((vectors[i + 1:, :head] - vectors[i, :head]) ** 2, axis=1)
        for j in i + 1 + np.flatnonzero(part < floor**2 * (1 + 1e-6)):
            d = float(np.linalg.norm(vectors[i] - vectors[j]))
            if d < floor * (1 - 1e-12):
                problems.append(f"pair ({i}, {j}): distance {d:.6g} below floor {floor:.6g}")
    return problems


@dataclass(frozen=True)
class ProjectionReport:
    mode: str
    subset_size: int
    threshold: float
    certified: bool
    overall_min: float
    passed: bool
    pair_minima: tuple[tuple[int, int, float], ...]
    subsets_per_pair: int


def projection_subset(n: int, mu: float, mode: str) -> int:
    """ceil(mu n), the coordinates a projection keeps: mu in (0, 1], and n <= 16 if exhaustive."""
    if not 0 < mu <= 1:
        raise ValueError(f"projection.mu must lie in (0, 1], got {mu!r}")
    if mode == "exhaustive" and n > 16:
        raise ValueError("projection.mode exhaustive scans every subset, so spec.n must be "
                         f"at most 16, got {n}")
    return max(1, math.ceil(mu * n - 1e-9))


def check_projection_property(vectors: np.ndarray, mu: float = 1.0, alpha: float = 0.25,
                              mode: str = "sampled", sample_count: int = 200,
                              seed: int = 0) -> ProjectionReport:
    """Distance between projections onto coordinate subsets of size >= mu n.

    Exhaustive mode scans all subsets of size ceil(mu n) (projections
    onto supersets can only be farther apart, so that size is the
    binding one) and certifies the minimum; it is restricted to n <= 16.
    Sampled mode draws random subsets and reports the smallest projected
    distance seen, which upper-bounds the truth but certifies nothing.
    The pass criterion compares against n^alpha.  Refuses, with its text,
    what `dicode packing` refuses of its projection.* keys (PROJECTION_KEYS).
    """
    kw = resolve({"mu": mu, "alpha": alpha, "mode": mode, "sample_count": sample_count},
                 PROJECTION_KEYS, "projection.")
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or len(vectors) < 2:
        raise ValueError("need at least two vectors")
    n, mode = vectors.shape[1], kw["mode"]
    subset = projection_subset(n, kw["mu"], mode)
    threshold = n ** kw["alpha"]
    if mode == "exhaustive":
        sel = np.array(list(itertools.combinations(range(n), subset)))
        per_pair = len(sel)
    else:
        rng = np.random.Generator(np.random.PCG64(seed))
        per_pair = kw["sample_count"]
    pair_minima = []
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            gaps = (vectors[i] - vectors[j]) ** 2
            if mode == "sampled":  # this pair's draws, in the generator's order
                sel = np.array([rng.choice(n, size=subset, replace=False) for _ in range(per_pair)])
            pair_minima.append((i, j, float(np.sqrt(gaps[sel].sum(axis=1).min()))))
    overall = min(best for _, _, best in pair_minima)
    return ProjectionReport(
        mode=mode, subset_size=subset, threshold=threshold, certified=mode == "exhaustive",
        overall_min=overall, passed=overall >= threshold, pair_minima=tuple(pair_minima),
        subsets_per_pair=per_pair)


PROJECTION_KEYS = owned_defaults(check_projection_property, {
    "projection.mu": Key(float, "fraction of coordinates that survive projection"),
    "projection.alpha": Key(float, "projected distances must reach n^alpha"),
    "projection.mode": Key(str, "scan every subset (n <= 16) or sample them",
                           choices=("exhaustive", "sampled")),
    "projection.sample_count": Key(int, "subsets per pair in sampled mode", min=1)})


def vectors_csv(vectors: np.ndarray):
    """The lines of a CSV file of one vector per row, at 17 significant digits."""
    return (",".join(f"{x:.17g}" for x in row) + "\n" for row in np.asarray(vectors))


def _csv_number(path, row: int, col: int, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"codebook CSV {path} entry at row {row}, column {col} is {text!r}, "
                         "not a number") from None


def _csv_rows(path):
    """The rows of a CSV file that hold entries, as csv.reader gives them."""
    with open(path, newline="", encoding="utf-8") as fh:
        yield from filter(None, csv.reader(fh))


def load_csv(path) -> np.ndarray:
    """One codeword per non-blank row, parsed straight into one float64 array
    sized by a first pass.  Refused, in this order: the first entry that is not
    a number, the first row whose length differs from row 1's, the first
    non-finite entry."""
    count = sum(1 for _ in _csv_rows(path))
    if not count:
        raise ValueError(f"codebook CSV {path} holds no rows")
    arr = ragged = None
    for r, row in enumerate(_csv_rows(path)):
        try:
            values = list(map(float, row))
        except ValueError:  # raises, naming the first entry that is not a number
            values = [_csv_number(path, r + 1, c, x) for c, x in enumerate(row, 1)]
        if arr is None:
            arr = np.empty((count, len(values)))
        if len(values) != arr.shape[1]:
            ragged = ragged or (r + 1, len(values))
        elif not ragged:  # a non-number after a ragged row still comes first
            arr[r] = values
    if ragged:
        raise ValueError(f"codebook CSV {path} is not rectangular: row {ragged[0]} has "
                         f"length {ragged[1]}, row 1 has length {arr.shape[1]}")
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        row, col = bad[0]
        raise ValueError(f"codebook CSV {path} entry at row {row + 1}, column {col + 1} is "
                         f"{arr[row, col]}, not a finite number")
    return arr
