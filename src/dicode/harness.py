"""Reproducible Monte Carlo experiments over codebooks and channels.

``ExperimentConfig`` and ``MomentGridConfig`` check themselves against
``CONFIG_KEYS`` and ``MOMENTS_KEYS``, the tables `dicode simulate` and
`dicode moments` parse with and print in --help, defaults included.

Every random draw comes from a Generator seeded by
SeedSequence((master_seed, purpose_tag, slot, trial)), so trial t of
slot k consumes exactly the same randomness no matter how trials are
partitioned across workers.  Reports therefore depend only on the
configuration, and the canonical serialization (which excludes timing
and worker count) is byte-identical across runs.  ``_slot_streams``
reaches a slot's trial streams without those SeedSequences: ``_pool``
transcribes numpy's seeding arithmetic, hashing up to ``_SEED_CHUNK``
trial indices per numpy pass, and each trial's state is set on the
worker thread's one PCG64.  NumPy may change that seeding (NEP 19); a
test compares it with ``_gen``, which stays numpy's own path.

Trials run in one engine.  A slot is one (sent, verified) pair of
identities with its trial count; a genuine slot is the pair (i, i).
Each verified codeword's threshold is computed once per run.  A slot
sends its trials in blocks of rows: trial t's generator draws the
fading, then the noise, into row t of the block (``channel.transmit``),
and one ``verify`` call decides the whole block in its own memory.  A
block holds at most ``config.WORK_BYTES`` (256 KiB) of received words,
so memory stays flat in the trial count and the block length; the
verdicts are the ones a trial-by-trial loop gives.  Each worker thread
allocates one (Y, H) block pair and its generator once and reuses them
for every block it sends, a short last block in the leading rows, and
one iterator of the slot's streams feeds all its blocks.  So the trial
loop makes no block-sized allocation, for any channel: no page-fault or
unmap churn, and no thread waits on another's memory-map changes.
A run builds its verifier first, through ``decoder.build_verifier``, so
a channel its mode does not serve, or outage keys without an outage
rule, are refused before the codebook is built.

Moment validation checks, by Monte Carlo, the closed-form moments that
each grid mode's verifier (``GRID_MODES``) gives for its own
``decoder.statistic`` over fast fading (``decoder.impostor_moments``),
built from each law's one moments computation, in a grid of (law, mode,
pair, statistic) cells.  Each cell draws from its own generator, seeded
from its label, so the cells run on every core this process may use
(``os.sched_getaffinity``) and the rows do not depend on how many.
Each thread reuses one chunk of fading buffer and two block buffers, the
received words and h * u_sent, for all its cells: the noise goes in row
blocks of at most ``config.WORK_BYTES``, and the rows equal whole-chunk
draws bit for bit.

Error accounting: a type-I error is a rejected genuine transmission, a
type-II error is an accepted impostor.  Only csi-slow's ``verify`` returns
an outage mask: outages leave both denominators and are reported apart, as
are its trials with h exactly 0, whose two conditional error rates must sum
to one (the verifier sees pure noise either way).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
import threading
import time
import warnings
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .channel import (CHANNELS, SIGMA2, ChannelModel, FastFading, block_buffers, parse_channel,
                      transmit)
from .codebook import PLAN_KEYS, ConcatCodebook, identity_str, plan_params
from .config import Key, owned_defaults, resolve, work_count
from .decoder import (GRID_MODES, VERIFIERS, CsiFast, NoCsi, build_verifier, impostor_moments,
                      statistic)
from .fading import FadingDistribution, parse_distribution
from .packing import PROFILES, generate_expurgated, load_csv, parse_spec, square_sums

_SCHEMA = 1
_TAG_IDENTITIES = 0
_TAG_TYPE1 = 1
_TAG_TYPE2 = 2
_TAG_PAIRS = 3

# (required, optional) keys of each codebook type, below `codebook.`
_CODEBOOK_KEYS = {"concat": (tuple(k for k, key in PLAN_KEYS.items() if key.required),
                             tuple(k for k, key in PLAN_KEYS.items() if not key.required)),
                  "packing": (("spec",), ("profile",)), "csv": (("path",), ())}

# the table of ExperimentConfig and `simulate --help`; channel and verifier classes share defaults
CONFIG_KEYS = {
    "schema": Key(int, "config schema version", choices=(_SCHEMA,)),
    "seed": Key(int, "master seed (drawn and echoed if omitted)", min=0),
    "workers": Key(int, "worker count; never changes results", min=1, default=1),
    "channel.type": Key(str, "channel model", required=True, choices=tuple(CHANNELS)),
    "channel.sigma2": SIGMA2,
    "channel.fading": Key(dict, "fading law record, e.g. {\"type\": \"rayleigh\", \"scale\": 1.0} "
                                "(fading channels only)", parse=parse_distribution),
    "codebook.type": Key(str, "codebook source", required=True, choices=tuple(_CODEBOOK_KEYS)),
    **{f"codebook.{name}": replace(key, help=f"{key.help} (concat)", required=False)
       for name, key in PLAN_KEYS.items()},
    "codebook.profile": Key(str, "expurgation profile (packing)", choices=PROFILES),
    "codebook.spec": Key(dict, "packing spec record: the spec.* keys and defaults of "
                               "`dicode packing` (packing)", parse=parse_spec),
    "codebook.path": Key(str, "CSV path, one vector per row (csv)"),
    "verifier.mode": Key(str, "ball-threshold verifier", default=CsiFast.MODE,
                         choices=tuple(VERIFIERS)),
    **owned_defaults(CsiFast, {"verifier.deviation_scale": Key(float, "deviation term scale")}),
    "trials.identities": Key(int, "identities sampled for type-I trials", min=1, default=50),
    "trials.per_identity": Key(int, "genuine transmissions per identity", min=1, default=20),
    "trials.pairs": Key(int, "impostor pairs, the close pairs included", min=0, default=100),
    "trials.per_pair": Key(int, "impostor transmissions per pair", min=1, default=10),
    "trials.min_distance_pairs": Key(int, "pairs of an identity and its close partner: d2 outer "
                                          "symbols apart (concat), the nearest vector (packing, "
                                          "csv); at most trials.pairs", min=0, default=10),
    "outage_eta": Key(float, "slow fading only: outage probability budget in [0, 1)", default=None),
    "allow_degenerate_outage": Key(bool, "admit P(h=0) > eta by forcing radius 0", default=False),
}


def write_text_atomic(path, text) -> None:
    """Write text, a string or an iterable of strings, via a sibling temp file
    and rename, so readers never see halves.  The file gets the mode a plain
    open(path, "w") gives a new file under the umask."""
    path = str(path)
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# the 97.5% normal quantile one ulp low, the bits every frozen report was made
# with; the digest epoch (ROADMAP item 5) replaces it with NormalDist().inv_cdf(0.975)
_Z95 = 1.9599639845400538


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = _Z95 * _Z95
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = _Z95 * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    # the interval always contains phat; snap the boundary cases so
    # roundoff cannot push the endpoint past the point estimate
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _gen(*entropy) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


# numpy seeds PCG64 from a SeedSequence (numpy/random/bit_generator.pyx, pcg64.c):
# mix_entropy hashes the uint32 entropy words into a pool of four, generate_state(4,
# uint64) hashes the pool into a seed and an increment, and PCG64 steps from them
_M32, _M128, _PCG_MULT = (1 << 32) - 1, (1 << 128) - 1, 0x2360ED051FC65DA44385DF649FCCF645
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_SEED_CHUNK = 256  # trial indices per numpy pass; a chunk starts at a multiple of it


def _consts(h, mult):  # the (h, h2) pairs that successive hash steps take
    while True:
        yield h, (h := h * mult & _M32)


def _hash(value, h, h2):  # SeedSequence's hash step, on Python ints or uint32 arrays
    value = (value ^ h) * h2 & _M32
    return value ^ value >> 16


# generate_state's hash constants, as columns: word i of the state hashes pool word i % 4
_STATE_HASH = np.array(list(itertools.islice(_consts(_INIT_B, _MULT_B), 8)),
                       dtype=np.uint32).T[:, :, None]


def _mix(x, y):  # mix_entropy's mix of pool word x with hashed word y; x or y may be an int
    value = ((x * 0xCA01F9DD & _M32) - (y * 0x4973F715 & _M32)) & _M32
    return value ^ value >> 16


def _words(value: int) -> list[int]:  # an entropy int as SeedSequence's uint32 words
    return [value >> s & _M32 for s in range(0, max(value.bit_length(), 1), 32)]


def _pool(words) -> list:
    """numpy's mix_entropy, in numpy's order, over four or more uint32 words, each a Python
    int or a uint32 array: an array word hashes as many entropies at once as it holds."""
    consts = _consts(_INIT_A, _MULT_A)
    pool = [_hash(w, *next(consts)) for w in words[:4]]
    for s, d in itertools.permutations(range(4), 2):
        pool[d] = _mix(pool[d], _hash(pool[s], *next(consts)))
    for w in words[4:]:
        for d in range(4):
            pool[d] = _mix(pool[d], _hash(w, *next(consts)))
    return pool


def _slot_streams(rng: np.random.Generator, seed: int, tag: int, slot: int, start: int,
                  stop: int):
    """Yield rng reseeded to the stream of SeedSequence((seed, tag, slot, t)) for t = start ..
    stop - 1 in turn, hashing each chunk of t in one numpy pass; no chunk straddles 2^32, so
    past it t's high word is one more int.  Draw from each before asking for the next."""
    prefix, bit_generator = _words(seed) + _words(tag) + _words(slot), rng.bit_generator
    for lo in range(start - start % _SEED_CHUNK, stop, _SEED_CHUNK):
        a, b = max(lo, start), min(lo + _SEED_CHUNK, stop)
        low = np.arange(a & _M32, (a & _M32) + b - a, dtype=np.uint32)
        pool = np.vstack(_pool(prefix + [low] + _words(a)[1:]))[[0, 1, 2, 3, 0, 1, 2, 3]]
        w = _hash(pool, *_STATE_HASH).astype(np.uint64)  # generate_state(4, uint64)
        for s0, s1, i0, i1 in zip(*(w[0::2] | w[1::2] << 32).tolist()):
            inc = (i0 << 65 | i1 << 1 | 1) & _M128  # state 0, step, add the seed, step
            state = ((s0 << 64 | s1) + inc) * _PCG_MULT + inc & _M128
            bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": state, "inc": inc}}
            yield rng


def _uniform_index(rng: np.random.Generator, size: int) -> int:
    """Exact uniform draw from [0, size), rejection on the top bits."""
    bits = (size - 1).bit_length() if size > 1 else 1
    nbytes = (bits + 7) // 8
    shift = nbytes * 8 - bits
    while True:
        val = int.from_bytes(rng.bytes(nbytes), "big") >> shift
        if val < size:
            return val


# ---------------------------------------------------------------------------
# codebook sources


class ArrayCodebook:
    """Explicit list of codewords (packing output or external CSV).

    The book keeps the array it is given, without a copy when it is
    float64, and its squared norms come from ``packing.square_sums`` a
    row block at a time: beside the codewords it holds one float per row.
    """

    def __init__(self, vectors: np.ndarray):
        self.vectors = np.asarray(vectors, dtype=float)
        if self.vectors.ndim != 2 or len(self.vectors) < 2:
            raise ValueError("codebook needs at least two vectors")
        self.size, self.n = self.vectors.shape
        self._sq, _ = square_sums(self.vectors)

    def encode(self, index: int) -> np.ndarray:
        return self.vectors[index]

    def close_partner(self, index: int) -> int:
        """The nearest other codeword, from one row of squared distances."""
        v = self.vectors
        d2 = self._sq + self._sq[index] - 2 * (v @ v[index])
        d2[index] = np.inf
        return int(np.argmin(d2))


@dataclass(frozen=True)
class ExperimentConfig:
    channel: ChannelModel
    codebook: dict
    verifier_mode: str
    identities: int
    per_identity: int
    pairs: int
    per_pair: int
    min_distance_pairs: int
    workers: int
    deviation_scale: float
    outage_eta: float | None
    allow_degenerate_outage: bool
    seed: int = 0  # the CLI draws one when the config has none

    def __post_init__(self):  # kept as CONFIG_KEYS resolves them: identities=2.0 as 2
        kw = resolve(self.to_dict(), CONFIG_KEYS)
        _codebook_args(kw["codebook"])
        for name, value in {**kw["trials"], "deviation_scale": kw["verifier"]["deviation_scale"],
                            **{k: kw[k] for k in ("seed", "workers", "outage_eta")}}.items():
            object.__setattr__(self, name, value)
        pairs, close = self.pairs, self.min_distance_pairs
        if close > pairs:
            raise ValueError(f"trials.min_distance_pairs = {close} exceeds trials.pairs = {pairs}")
        if self.identities == 1 and pairs > close:
            raise ValueError("trials.identities must be at least 2 for random pairs, got 1 with "
                             f"trials.pairs - trials.min_distance_pairs = {pairs - close}")

    @classmethod
    def from_dict(cls, cfg: dict) -> "ExperimentConfig":
        """The run cfg asks for, CONFIG_KEYS' defaults filled in; the codebook kept as given."""
        kw = resolve(cfg, CONFIG_KEYS)
        kw.pop("schema", None)  # resolve admits only the current one
        verifier, kw["codebook"] = kw.pop("verifier"), dict(cfg["codebook"])
        return cls(channel=parse_channel(kw.pop("channel")), verifier_mode=verifier.pop("mode"),
                   **verifier, **kw.pop("trials"), **kw)

    def to_dict(self) -> dict:
        """The record from_dict reads back; the trials keys are those of CONFIG_KEYS."""
        trials = [key[len("trials."):] for key in CONFIG_KEYS if key.startswith("trials.")]
        return {"schema": _SCHEMA, "channel": self.channel.to_config(), "codebook": self.codebook,
                "verifier": {"mode": self.verifier_mode, "deviation_scale": self.deviation_scale},
                "trials": {name: getattr(self, name) for name in trials},
                **{name: getattr(self, name) for name in ("seed", "workers", "outage_eta",
                                                          "allow_degenerate_outage")}}


def _codebook_args(kw: dict) -> tuple[str, dict]:
    """Check a resolved codebook record; returns its type and the arguments it takes."""
    kind = kw.pop("type")
    required, optional = _CODEBOOK_KEYS[kind]
    missing = [k for k in required if k not in kw]
    if missing:
        raise ValueError(f"a {kind} codebook needs codebook.{missing[0]}")
    extra = sorted(set(kw) - {*required, *optional})
    if extra:
        raise ValueError(f"a {kind} codebook takes no codebook.{extra[0]}")
    return kind, kw


def build_codebook(cfg: dict):
    """Materialize the codebook a config record asks for; returns (book, summary)."""
    kind, kw = _codebook_args(resolve(cfg, CONFIG_KEYS, "codebook."))
    if kind == "concat":
        params = plan_params(**kw)
        book = ConcatCodebook(params)
        summary = {"type": "concat", "params": params.to_json_dict(),
                   "size_log2": params.log2_size}
        return book, summary
    if kind == "packing":
        spec = kw.pop("spec")
        vectors, report = generate_expurgated(spec, **kw)
        book = ArrayCodebook(vectors)
        summary = {"type": "packing", "spec": spec.to_json_dict(), "profile": report.profile,
                   "survivors": report.survivors, "removed": report.removed}
        return book, summary
    book = ArrayCodebook(load_csv(kw["path"]))
    return book, {"type": "csv", "path": kw["path"], "size": book.size}


@dataclass
class TrialReport:
    results: dict
    meta: dict

    def canonical_json(self) -> str:
        return json.dumps(self.results, sort_keys=True, indent=1)

    def full_json(self) -> str:
        return json.dumps({"results": self.results, "meta": self.meta},
                          sort_keys=True, indent=1)

    def identities_csv(self) -> str:
        return _csv(self.results["type1"]["per_identity"],
                    ("slot", "identity", "trials", "errors", "outages", "error_rate",
                     "ci_lo", "ci_hi"))

    def pairs_csv(self) -> str:
        return _csv(self.results["type2"]["per_pair"],
                    ("slot", "sent", "verified", "kind", "trials", "accepts", "outages",
                     "accept_rate", "ci_lo", "ci_hi"))


def _csv(rows: list[dict], columns: tuple[str, ...]) -> str:
    lines = [",".join(columns)] + [",".join(str(r[k]) for k in columns) for r in rows]
    return "\n".join(lines) + "\n"


def _rate(successes: int, trials: int):
    if trials <= 0:
        return None, None, None
    lo, hi = wilson_interval(successes, trials)
    return successes / trials, lo, hi


def run_experiment(cfg: ExperimentConfig) -> TrialReport:
    t_start = time.perf_counter()
    random_pairs = cfg.pairs - cfg.min_distance_pairs
    verifier, radius, degenerate = build_verifier(  # refuses a mismatch before any build
        cfg.verifier_mode, cfg.channel, cfg.deviation_scale, cfg.outage_eta,
        cfg.allow_degenerate_outage)
    book, book_summary = build_codebook(cfg.codebook)
    if cfg.verifier_mode == NoCsi.MODE and cfg.codebook.get("type") == "concat":
        warnings.warn("no-csi holds on packing books but not on concatenated ones, whose "
                      "constant-word pair (q1 - 2 sent, q1 - 1 verified) is accepted in "
                      "0.99-1.000 of trials at n >= 15625", RuntimeWarning, stacklevel=2)

    rng_ids = _gen(cfg.seed, _TAG_IDENTITIES)
    identity_ids = [_uniform_index(rng_ids, book.size) for _ in range(cfg.identities)]

    if random_pairs and len(set(identity_ids)) < 2:
        raise ValueError(f"trials.identities = {cfg.identities} drew one identity only, from a "
                         f"book of {identity_str(book.size)}; random pairs need two distinct ones")
    rng_pairs = _gen(cfg.seed, _TAG_PAIRS)
    pair_list: list[tuple[int, int, str]] = []
    for _ in range(random_pairs):  # redrawn until distinct, which two identities ensure
        a = b = identity_ids[0]
        while a == b:
            a = identity_ids[_uniform_index(rng_pairs, len(identity_ids))]
            b = identity_ids[_uniform_index(rng_pairs, len(identity_ids))]
        pair_list.append((a, b, "random"))
    for k in range(cfg.min_distance_pairs):
        sent = identity_ids[k % len(identity_ids)]
        pair_list.append((sent, book.close_partner(sent), "close"))

    # one slot per (sent, verified) pair: the genuine slots (i, i) first
    slots = [(i, i, _TAG_TYPE1, k, cfg.per_identity) for k, i in enumerate(identity_ids)]
    slots += [(a, b, _TAG_TYPE2, k, cfg.per_pair) for k, (a, b, _) in enumerate(pair_list)]
    # each codeword is encoded, and each verified one's threshold computed, once
    codewords = {i: np.asarray(book.encode(i), dtype=float)
                 for i in dict.fromkeys(i for s in slots for i in s[:2])}
    taus = {ver: verifier.threshold(codewords[ver]) for ver in dict.fromkeys(s[1] for s in slots)}
    rows = min(work_count(8 * book.n), max(s[-1] for s in slots))
    local = threading.local()

    def run_slot(k: int):
        """(hits, outages, h = 0 trials, h = 0 hits) of slot k; a hit is
        a type-I error or a type-II accept."""
        sent, ver, tag, slot, trials = slots[k]
        u_sent, u = codewords[sent], codewords[ver]
        if not hasattr(local, "blocks"):  # this thread's words, fading and generator
            local.blocks = block_buffers(cfg.channel, rows, book.n)
            local.rng = np.random.Generator(np.random.PCG64(0))
        streams = _slot_streams(local.rng, cfg.seed, tag, slot, 0, trials)
        (Y0, H0), out = local.blocks, np.zeros(4, dtype=np.int64)
        for start in range(0, trials, rows):
            m = min(rows, trials - start)  # the block's rows: the buffers' leading m
            Y, H = transmit(cfg.channel, u_sent, streams,
                            out=(Y0[:m], None if H0 is None else H0[:m]))
            accept, outage = verifier.verify(Y, u, H, taus[ver])  # in Y's (and H's) memory
            hit = accept if tag == _TAG_TYPE2 else ~accept
            if outage is not None:  # csi-slow: an outage row gives no verdict
                hit &= ~outage
                zero = (H == 0.0) & ~outage  # h = 0 silences the whole word
                out[1:] += outage.sum(), zero.sum(), (hit & zero).sum()
            out[0] += hit.sum()
        return [int(c) for c in out]

    counts = _map_slots(run_slot, len(slots), cfg.workers)
    labels = {i: identity_str(i) for i in codewords}  # every identity's decimal string, once
    per_identity, pooled1, zero1 = _tally(
        [{"slot": k, "identity": labels[i]} for k, i in enumerate(identity_ids)],
        counts[:cfg.identities], cfg.per_identity, "errors", "error_rate")
    per_pair, pooled2, zero2 = _tally(
        [{"slot": k, "sent": labels[a], "verified": labels[b], "kind": kind}
         for k, (a, b, kind) in enumerate(pair_list)],
        counts[cfg.identities:], cfg.per_pair, "accepts", "accept_rate")
    rates = [r["accept_rate"] for r in per_pair if r["accept_rate"] is not None]
    all_trials = pooled1["trials"] + pooled2["trials"]
    all_outages = pooled1["outages"] + pooled2["outages"]
    out_rate, out_lo, out_hi = _rate(all_outages, all_trials)

    results = {
        "schema": _SCHEMA,
        # workers is an execution detail; it must not affect report bytes
        "config": {k: v for k, v in cfg.to_dict().items() if k != "workers"},
        "codebook": book_summary,
        "verifier": {
            "mode": cfg.verifier_mode,
            "deviation_scale": cfg.deviation_scale,
            "outage_threshold": radius,
            "degenerate_outage": degenerate,
        },
        "type1": {"per_identity": per_identity, "pooled": pooled1},
        "type2": {"per_pair": per_pair, "pooled": pooled2,
                  "max_pair_rate": max(rates, default=None)},
        "outage": {"trials": all_trials, "outages": all_outages,
                   "fraction": out_rate, "ci_lo": out_lo, "ci_hi": out_hi},
    }
    if zero1["trials"] or zero2["trials"]:  # only csi-slow reports h = 0 rows
        z1, z2 = zero1["error_rate"], zero2["accept_rate"]
        # given h = 0 the verifier sees pure noise: accepting with probability p
        # errs 1 - p (type I) and p (type II), so their sum must straddle one
        results["zero_fading"] = {
            "type1": zero1, "type2": zero2,
            "error_sum": (z1 + z2) if (z1 is not None and z2 is not None) else None,
        }
    meta = {
        "wall_clock_s": time.perf_counter() - t_start,
        "workers": cfg.workers,
        "env": _env(),
    }
    return TrialReport(results=results, meta=meta)


def _tally(labels: list[dict], counts: list, trials: int, hit: str, rate: str):
    """Per-slot rows, pooled totals and h = 0 totals of one trial kind.

    counts holds each slot's (hits, outages, h = 0 trials, h = 0 hits);
    hit and rate name the counted verdict and its rate in the report.
    """
    rows = []
    for label, (hits, outages, _, _) in zip(labels, counts):
        r, lo, hi = _rate(hits, trials - outages)
        rows.append({**label, "trials": trials, hit: hits, "outages": outages,
                     rate: r, "ci_lo": lo, "ci_hi": hi})
    hits, outages, zero_trials, zero_hits = (sum(c[j] for c in counts) for j in range(4))
    total = trials * len(rows)
    r, lo, hi = _rate(hits, total - outages)
    pooled = {"trials": total, hit: hits, "outages": outages, rate: r, "ci_lo": lo, "ci_hi": hi}
    zero = {"trials": zero_trials, hit: zero_hits,
            rate: zero_hits / zero_trials if zero_trials else None}
    return rows, pooled, zero


def _map_slots(fn, count: int, workers: int):
    # the whole trial phase as one call; perfbench/tracer.py times it by name
    return _map_threads(fn, range(count), workers)


def _map_threads(fn, items, threads: int) -> list:
    """[fn(x) for x in items] on up to `threads` threads, in item order."""
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor  # a one-thread run never loads it
    with ThreadPoolExecutor(max_workers=min(threads, len(items))) as ex:
        return list(ex.map(fn, items))


# ---------------------------------------------------------------------------
# moment-formula validation


@dataclass(frozen=True)
class MomentGridConfig:
    distributions: tuple[FadingDistribution, ...]
    modes: tuple[str, ...] = tuple(GRID_MODES)
    n: int = 64
    draws: int = 1_000_000
    sigma2: float = SIGMA2.default
    pair_count: int = 3
    vector_power: float = 1.0
    seed: int = 0
    chunk: int = 20_000
    tolerance_sigmas: float = 4.0

    def __post_init__(self):  # refused as `dicode moments` refuses it, after `moment grid`
        try:
            kw = resolve(self.to_dict(), MOMENTS_KEYS)
        except ValueError as exc:
            raise ValueError(f"moment grid {exc}") from exc
        kw["distributions"] = self.distributions  # the laws as given, not rebuilt from records
        for name, value in kw.items():  # draws=2000.0 as 2000, lists as tuples: as the CLI runs
            object.__setattr__(self, name, tuple(value) if isinstance(value, list) else value)

    def to_dict(self) -> dict:
        """Every field as `dicode moments` reads it; laws as their records."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "modes": list(self.modes),
                "distributions": [d.to_config() for d in self.distributions]}


MOMENTS_KEYS = owned_defaults(MomentGridConfig, {
    "distributions": Key(list, "list of fading law records to sweep", min=1, required=True,
                         parse=parse_distribution),
    "modes": Key(list, "verifiers to check: " + ", ".join(
        f"{grid} {'the' if i else 'is the'} {mode} ball at {VERIFIERS[mode].CENTER}"
        for i, (grid, mode) in enumerate(GRID_MODES.items())), min=1, choices=tuple(GRID_MODES)),
    "n": Key(int, "vector length for the synthetic codewords", min=1),
    "draws": Key(int, "Monte Carlo draws per check", min=1),
    "sigma2": SIGMA2,
    "pair_count": Key(int, "codeword pairs per law and mode", min=1),
    "vector_power": Key(float, "per-coordinate variance of the synthetic codewords", min=0),
    "chunk": Key(int, "draws per batch", min=1),
    "tolerance_sigmas": Key(float, "allowed deviation in standard errors", min=0)})
MOMENTS_KEYS["seed"] = Key(int, "master seed (drawn and echoed if omitted)", min=0)


@dataclass(frozen=True)
class MomentCheckRow:
    case: str
    statistic: str   # genuine | impostor
    quantity: str    # mean | variance
    formula: float
    estimate: float
    std_error: float
    deviation: float
    ok: bool


@dataclass
class MomentReport:
    rows: list[MomentCheckRow]
    draws: int
    elapsed_s: float
    cell_s: list[float]  # seconds of each (law, mode, pair, statistic) cell, in row order
    env: dict  # the run's Python, numpy and usable cores (``_env``)

    @property
    def failures(self) -> list[MomentCheckRow]:
        return [r for r in self.rows if not r.ok]

    def rows_csv(self) -> str:
        return _csv([asdict(r) for r in self.rows], tuple(f.name for f in fields(MomentCheckRow)))

    def to_json(self) -> str:
        payload = {
            "schema": _SCHEMA,
            "draws": self.draws,
            "elapsed_s": self.elapsed_s,
            "cell_s": self.cell_s,
            "env": self.env,
            "rows": [asdict(r) for r in self.rows],
            "failures": len(self.failures),
        }
        return json.dumps(payload, sort_keys=True, indent=1)


def _cell_moments(dist, verifier, u_center, u_sent, sigma2, th_mean, draws, rng, buffers):
    """Empirical (mean, var, se_mean, se_var) of the verifier's statistic.

    The law fills the calling thread's (chunk, n) fading buffer a chunk at
    a time; the chunk's noise goes block by block into its (rows, n) block
    buffer, and each block goes through ``decoder.statistic``, as in
    ``verify``.  Normals fill the buffer in stream order, so the rows equal
    whole-chunk draws bit for bit.  The sums are centered on the closed-form
    mean th_mean so the fourth powers stay small; it is added back at the end.
    """
    fading, block, faded = buffers  # faded: h * u_sent
    (chunk, n), rows = fading.shape, len(block)
    sigma = math.sqrt(sigma2)
    s1 = s2 = s3 = s4 = 0.0
    for done in range(0, draws, chunk):
        b = min(chunk, draws - done)
        h = dist.sample(rng, out=fading[:b])
        w = np.empty(b)
        for r0 in range(0, b, rows):
            r1 = min(r0 + rows, b)
            y, hb = block[:r1 - r0], h[r0:r1]
            rng.standard_normal(out=y)
            y *= sigma
            y += np.multiply(hb, u_sent, out=faded[:r1 - r0])
            w[r0:r1] = statistic(verifier, y, u_center, hb)
        w -= th_mean
        s1 += float(w.sum())
        s2 += float((w * w).sum())
        s3 += float((w**3).sum())
        s4 += float((w**4).sum())
    N = draws
    mean_w = s1 / N
    var = s2 / N - mean_w**2
    m4 = s4 / N - 4 * mean_w * s3 / N + 6 * mean_w**2 * s2 / N - 3 * mean_w**4
    se_mean = math.sqrt(max(var, 0.0) / N)
    se_var = math.sqrt(max(m4 - var * var, 0.0) / N)
    return th_mean + mean_w, var, se_mean, se_var


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _env() -> dict:  # what an output's bytes rest on besides its config: numpy's seeding
    return {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
            "cores": _usable_cores()}


def moment_validation(cfg: MomentGridConfig) -> MomentReport:
    """Monte Carlo check of every closed-form statistic moment in the grid.

    Each (law, mode, pair, statistic) cell draws from its own generator,
    seeded from its label, so the cells run on as many threads as this
    process may use and the rows do not depend on how many that is.
    """
    t0 = time.perf_counter()
    rng_vectors = _gen(cfg.seed, 10)
    vecs = [math.sqrt(cfg.vector_power) * rng_vectors.standard_normal(cfg.n)
            for _ in range(max(3, cfg.pair_count))]
    pairs = [(vecs[i % len(vecs)], vecs[(i + 1) % len(vecs)]) for i in range(cfg.pair_count)]
    cells = []
    for dist in cfg.distributions:
        m = dist.moments()
        for mode in cfg.modes:
            verifier, _, _ = build_verifier(GRID_MODES[mode], FastFading(dist, cfg.sigma2),
                                            moments=m)
            for pi, (u_center, u_sent) in enumerate(pairs):
                label = f"{dist.TYPE}/{mode}/pair{pi}"
                for stat_name, sent in (("genuine", u_center), ("impostor", u_sent)):
                    cells.append((label, stat_name, dist, verifier, u_center, sent,
                                  impostor_moments(verifier, u_center, sent, m)))
    chunk = min(cfg.chunk, cfg.draws)
    block_rows = min(work_count(8 * cfg.n), chunk)
    local = threading.local()

    def run_cell(cell) -> tuple[list[MomentCheckRow], float]:
        t_cell = time.perf_counter()
        label, stat_name, dist, verifier, u_center, sent, (th_mean, th_var) = cell
        if not hasattr(local, "buffers"):  # this thread's fading, block, h * u_sent
            local.buffers = tuple(np.empty((r, cfg.n)) for r in (chunk, block_rows, block_rows))
        rng = _gen(cfg.seed, 11, hash_label(label), 0 if stat_name == "genuine" else 1)
        est_mean, est_var, se_mean, se_var = _cell_moments(
            dist, verifier, u_center, sent, cfg.sigma2, th_mean, cfg.draws, rng, local.buffers)
        rows = []
        for quantity, formula, est, se in (("mean", th_mean, est_mean, se_mean),
                                           ("variance", th_var, est_var, se_var)):
            finite = math.isfinite(est) and math.isfinite(se)  # else a NaN deviation fails
            dev = (abs(est - formula) / se if se > 0 else 0.0) if finite else math.nan
            rows.append(MomentCheckRow(
                case=label, statistic=stat_name, quantity=quantity,
                formula=formula, estimate=est, std_error=se,
                deviation=dev, ok=dev <= cfg.tolerance_sigmas,
            ))
        return rows, time.perf_counter() - t_cell

    results = _map_threads(run_cell, cells, _usable_cores())
    return MomentReport(rows=[r for rows, _ in results for r in rows], draws=cfg.draws,
                        elapsed_s=time.perf_counter() - t0, cell_s=[s for _, s in results],
                        env=_env())


def hash_label(label: str) -> int:
    """Stable small hash (Python's hash() is salted per process)."""
    h = 0
    for ch in label.encode():
        h = (h * 131 + ch) % (1 << 31)
    return h
