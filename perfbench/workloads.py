"""The four benchmark workloads: inputs, commands and output checks.

A workload turns the benchmark seed into the inputs one run needs (a
config file for the CLI, or the arguments of the library calls), and it
checks the outputs a run leaves in its directory.  Nothing here imports
dicode, and numpy only inside ``check_library``: run.py stays a
light process, and a traced child, which imports this module before its
first span opens, spends nearly all its time inside spans.

Every workload has a full size, which the benchmark measures, and a tiny
size for the self-test; the single-worker tiny runs still last a few
seconds, so that interpreter exit, which no span can see, stays a small
share of them.  Digests of the outputs at ``DEFAULT_SEED`` and
full size are recorded in ``digests.json``; they freeze the codewords and
the canonical report bytes of the commit that recorded them.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

DEFAULT_SEED = 0
HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")

SKEWED = [[0.5, 0.6], [1.5, 0.2], [2.0, 0.2]]  # mean 1, the criterion-5 law
ATOM_AT_ZERO = [[0.0, 0.3], [1.0, 0.7]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str            # "simulate", "moments" or "library"
    item: str            # what one unit of throughput counts
    full: dict
    tiny: dict
    # simulate gates: (type-I pooled, max-pair type-II); None means 1/ln n
    gates: tuple = (None, None)

    def config(self, tiny: bool = False) -> dict:
        return json.loads(json.dumps(self.tiny if tiny else self.full))


def _simulate_config(channel, codebook, mode, trials, workers):
    return {"channel": channel, "codebook": codebook, "verifier": {"mode": mode},
            "trials": trials, "workers": workers}


_PACKING_BOOK = {"type": "packing", "profile": "norm-concentrated",
                 "spec": {"n": 4096, "target_size": 120, "power_bound": 4.0,
                          "sampling_power": 2.0, "distance_exponent": 0.05, "seed": 9}}
_FAST_SKEWED = {"type": "fast-fading", "sigma2": 1.0,
                "fading": {"type": "discrete", "atoms": SKEWED}}
_GRID_LAWS = [
    {"type": "constant", "value": 1.0},
    {"type": "rayleigh", "scale": 1.0},
    {"type": "nakagami", "shape": 2.0, "spread": 1.0},
    {"type": "discrete", "atoms": ATOM_AT_ZERO},
    {"type": "discrete", "atoms": SKEWED},
]


def _moments_config(draws, pair_count):
    # 5 rather than criterion 1's 4 standard errors: a run makes 120 checks
    # and a benchmark pass makes dozens of runs on as many seeds, and with
    # 2e4 draws a 4-SE gate trips on sound formulas at a few percent of
    # seeds (4.1 SE at seed 18); 5 SE keeps that below one in 10^4 runs
    return {"distributions": _GRID_LAWS, "modes": ["csi", "nocsi"], "n": 64,
            "draws": draws, "sigma2": 1.0, "pair_count": pair_count,
            "tolerance_sigmas": 5.0}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="flagship-awgn",
        why="criterion-2 run (concat n=3000, AWGN, csi-fast, 2 workers): encode-bound now, "
            "trial-bound once encoding is fast; an item is one trial",
        kind="simulate", item="trials", gates=(None, 0.01),
        full=_simulate_config(
            {"type": "awgn", "sigma2": 0.01},
            {"type": "concat", "n": 3000, "a": 0.035, "power_bound": 1.0},
            "csi-fast",
            {"identities": 4, "per_identity": 1000, "pairs": 40, "per_pair": 100,
             "min_distance_pairs": 4},
            2),
        tiny=_simulate_config(
            {"type": "awgn", "sigma2": 0.01},
            {"type": "concat", "n": 1000, "a": 0.04, "power_bound": 1.0},
            "csi-fast",
            {"identities": 2, "per_identity": 50, "pairs": 4, "per_pair": 10,
             "min_distance_pairs": 2},
            2),
    ),
    Workload(
        name="fading-nocsi",
        why="criterion-5 packing book over skewed fast fading without CSI: bound by the "
            "per-trial verify path, no field arithmetic; an item is one trial",
        kind="simulate", item="trials", gates=(0.05, 0.05),
        full=_simulate_config(
            _FAST_SKEWED, _PACKING_BOOK, "no-csi",
            {"identities": 20, "per_identity": 50, "pairs": 30, "per_pair": 50,
             "min_distance_pairs": 5},
            1),
        tiny=_simulate_config(
            _FAST_SKEWED, _PACKING_BOOK, "no-csi",
            {"identities": 10, "per_identity": 150, "pairs": 10, "per_pair": 150,
             "min_distance_pairs": 2},
            1),
    ),
    Workload(
        name="moments-grid",
        why="criterion-1 moment grid (5 laws, both modes): bulk fading draws and per-cell "
            "reductions, no codebook or channel; an item is one Monte Carlo draw",
        kind="moments", item="draws",
        full=_moments_config(draws=20_000, pair_count=3),
        tiny=_moments_config(draws=50_000, pair_count=1),
    ),
    Workload(
        name="encode-large",
        why="library encode at n=15625 (q2=8^5 over GF(2^3)) of a seeded identity and its "
            "close partner: past any dense-generator cap; an item is one codeword",
        kind="library", item="codewords",
        full={"n": 15625, "a": 0.03, "power_bound": 1.0, "identities": 1},
        tiny={"n": 3000, "a": 0.035, "power_bound": 1.0, "identities": 6},
    ),
)}


# ---------------------------------------------------------------------------
# documented config keys


def undocumented_keys(cfg: dict, table, prefix: str = "") -> list[str]:
    """Dotted paths in cfg that the help key table does not list.

    A path stops at the first prefix the table names, so records such as
    ``channel.fading`` are not looked into.
    """
    out = []
    for key, value in cfg.items():
        path = prefix + key
        if path in table:
            continue
        if isinstance(value, dict) and value:
            out += undocumented_keys(value, table, path + ".")
        else:
            out.append(path)
    return out


# ---------------------------------------------------------------------------
# commands


def cli_argv(workload: Workload, cfg_path: str, seed: int, outdir: str) -> list[str]:
    """Arguments of ``dicode`` for a CLI workload (without the program)."""
    return [workload.kind, "--config", cfg_path, "--seed", str(seed), "--outdir", outdir]


# ---------------------------------------------------------------------------
# output checks


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class Outcome:
    problems: list
    digest: str | None = None
    items: int = 0


def check_simulate(workload: Workload, cfg: dict, outdir: str) -> Outcome:
    with open(os.path.join(outdir, "report.json"), encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    trials = cfg["trials"]
    problems = []
    type1, type2 = results["type1"]["pooled"], results["type2"]
    want1 = trials["identities"] * trials["per_identity"]
    want2 = trials["pairs"] * trials["per_pair"]
    if type1["trials"] != want1:
        problems.append(f"type-I trials {type1['trials']} != {want1}")
    if type2["pooled"]["trials"] != want2:
        problems.append(f"type-II trials {type2['pooled']['trials']} != {want2}")
    close = sum(r["kind"] == "close" for r in type2["per_pair"])
    if close != trials["min_distance_pairs"]:
        problems.append(f"{close} close pairs != {trials['min_distance_pairs']}")
    gate1, gate2 = workload.gates
    if gate1 is None:
        gate1 = 1.0 / math.log(cfg["codebook"]["n"])
    rate1, rate2 = type1["error_rate"], type2["max_pair_rate"]
    if rate1 is None or rate1 > gate1:
        problems.append(f"type-I error rate {rate1} above {gate1:.4g}")
    if rate2 is None or rate2 > gate2:
        problems.append(f"max-pair type-II rate {rate2} above {gate2:.4g}")
    canonical = json.dumps(results, sort_keys=True, indent=1)
    return Outcome(problems, _sha256_text(canonical), type1["trials"] + type2["pooled"]["trials"])


def check_moments(cfg: dict, outdir: str) -> Outcome:
    with open(os.path.join(outdir, "moments.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    cells = len(cfg["distributions"]) * len(cfg["modes"]) * cfg["pair_count"] * 2
    rows = report["rows"]
    problems = []
    if len(rows) != 2 * cells:
        problems.append(f"{len(rows)} moment rows != {2 * cells}")
    if report["failures"] or not all(r["ok"] for r in rows):
        problems.append(f"{report['failures']} moment checks outside tolerance")
    canonical = json.dumps(rows, sort_keys=True, indent=1)
    return Outcome(problems, _sha256_text(canonical), cells * cfg["draws"])


def check_library(cfg: dict, outdir: str) -> Outcome:
    import numpy as np

    words = np.load(os.path.join(outdir, "codewords.npy"))
    with open(os.path.join(outdir, "book.json"), encoding="utf-8") as fh:
        book = json.load(fh)
    problems = []
    count = cfg["identities"] + 1
    n, amp = book["n"], book["power_bound"]
    if words.shape != (count, n) or words.dtype != np.float64:
        return Outcome([f"codewords have shape {words.shape} and dtype {words.dtype}"])
    body = book["n1"] * book["n2"]
    root = math.sqrt(amp)
    levels = -root + 2 * root * np.arange(book["q1"]) / (book["q1"] - 1)
    if not np.isin(words[:, :body], levels).all():
        problems.append("a coordinate lies off the amplitude grid")
    if np.any(words[:, body:] != 0.0):
        problems.append("a padding coordinate is not zero")
    energy = np.sum(words**2, axis=1)
    if float(energy.max()) > amp * n * (1 + 1e-12):
        problems.append(f"energy {float(energy.max())} above A*n = {amp * n}")
    if book["partner"] == book["identities"][0]:
        problems.append("close partner equals its identity")
    dist = float(np.linalg.norm(words[-1] - words[0]))
    if dist < book["min_euclidean_distance"] * (1 - 1e-12):
        problems.append(f"close pair distance {dist} below {book['min_euclidean_distance']}")
    digest = hashlib.sha256(np.ascontiguousarray(words, dtype="<f8").tobytes()).hexdigest()
    return Outcome(problems, digest, count)


def check(workload: Workload, cfg: dict, outdir: str) -> Outcome:
    """Check one run's outputs; missing or malformed files are problems too."""
    try:
        if workload.kind == "simulate":
            return check_simulate(workload, cfg, outdir)
        if workload.kind == "moments":
            return check_moments(cfg, outdir)
        return check_library(cfg, outdir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome([f"unreadable output: {exc!r}"])


def recorded_digest(name: str) -> str | None:
    try:
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            return json.load(fh).get(name)
    except FileNotFoundError:
        return None
