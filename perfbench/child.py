"""One benchmark child process: set up a workload, or run it once.

    child.py setup <workload> <config.json> <seed>
    child.py run <workload> <config.json> <seed> <outdir> [--trace-out FILE --spawned-at T]

``setup`` imports dicode, checks that every config key is documented and
builds the workload's inputs (codebook, fading moments, synthetic
vectors) without running anything.  ``run`` executes the workload: the
``dicode`` CLI entry point for CLI workloads, the library calls a user
makes for the library workload.  With ``--trace-out`` every dicode layer
is wrapped in spans first and the span table is written to FILE as JSON;
the root span ``bench.child`` starts at ``--spawned-at`` when given, so
interpreter start-up counts too.
``run.py`` runs untraced CLI workloads through ``python -m dicode.cli``
directly; this script serves the traced runs and the library workload.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import random
import sys

from tracer import Tracer, install
from workloads import WORKLOADS, cli_argv, undocumented_keys


def documented_keys(workload):
    """The keys a workload's config may use: the CLI help table of its
    subcommand, or plan_params' arguments plus the identity count."""
    if workload.kind == "simulate":
        from dicode.harness import CONFIG_KEYS
        return CONFIG_KEYS
    if workload.kind == "moments":
        from dicode.cli import MOMENTS_KEYS
        return MOMENTS_KEYS
    from dicode.codebook import plan_params
    return {*inspect.signature(plan_params).parameters, "identities"}


def _check_keys(workload, cfg: dict) -> None:
    bad = undocumented_keys(cfg, documented_keys(workload))
    if bad:
        raise SystemExit(f"{workload.name}: config keys missing from the help tables: {bad}")


def setup(workload, cfg: dict, seed: int) -> None:
    """Build a workload's inputs the way its run does, then stop."""
    if workload.kind == "library":
        from dicode.codebook import ConcatCodebook, plan_params

        _check_keys(workload, cfg)
        ConcatCodebook(plan_params(n=cfg["n"], a=cfg["a"], power_bound=cfg["power_bound"]))
        return
    import dicode.cli  # noqa: F401  the CLI imports every layer
    import numpy as np

    _check_keys(workload, cfg)
    if workload.kind == "simulate":
        from dicode.channel import FastFading, SlowFading
        from dicode.harness import ExperimentConfig, build_codebook

        exp = ExperimentConfig.from_dict({**cfg, "seed": seed})
        build_codebook(exp.codebook)
        if isinstance(exp.channel, (FastFading, SlowFading)):
            exp.channel.fading.moments()
        return
    from dicode.fading import parse_distribution

    for record in cfg["distributions"]:
        parse_distribution(record).moments()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 10))))
    for _ in range(max(3, cfg["pair_count"])):
        rng.standard_normal(cfg["n"])


def encode_large(cfg: dict, seed: int, outdir: str) -> None:
    """Plan and build a large book, encode seeded identities and one close partner."""
    import numpy as np
    from dicode.codebook import ConcatCodebook, plan_params

    params = plan_params(n=cfg["n"], a=cfg["a"], power_bound=cfg["power_bound"])
    book = ConcatCodebook(params)
    picker = random.Random(seed)
    ids = [picker.randrange(params.size) for _ in range(cfg["identities"])]
    words = [book.encode(i) for i in ids]
    partner = book.close_partner(ids[0])
    words.append(book.encode(partner))
    np.save(os.path.join(outdir, "codewords.npy"), np.stack(words))
    # hex, because decimal strings of these identities pass Python's
    # 4300-digit conversion limit
    meta = {"n": params.n, "q1": params.q1, "n1": params.n1, "n2": params.n2,
            "power_bound": params.power_bound,
            "min_euclidean_distance": params.min_euclidean_distance,
            "identities": [hex(i) for i in ids], "partner": hex(partner)}
    with open(os.path.join(outdir, "book.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


def run(workload, cfg_path: str, cfg: dict, seed: int, outdir: str) -> int:
    if workload.kind == "library":
        encode_large(cfg, seed, outdir)
        return 0
    from dicode.cli import main

    return main(cli_argv(workload, cfg_path, seed, outdir))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("config")
    parser.add_argument("seed", type=int)
    parser.add_argument("outdir", nargs="?")
    parser.add_argument("--trace-out")
    parser.add_argument("--spawned-at", type=float,
                        help="perf_counter reading of the parent at spawn time")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if args.mode == "setup":
        setup(workload, cfg, args.seed)
        return 0
    if not args.trace_out:
        return run(workload, args.config, cfg, args.seed, args.outdir)

    tracer = Tracer()
    code = 1
    try:
        with tracer.span("bench.child", start=args.spawned_at):
            with tracer.span("bench.import"):
                install(tracer)
            code = run(workload, args.config, cfg, args.seed, args.outdir)
    finally:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
