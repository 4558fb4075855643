"""Command line front end.

Every subcommand reads an optional JSON config file, applies repeatable
``--set dotted.path=value`` overrides on top, resolves the seed, echoes
the resolved configuration into the output directory, then runs.  All
files are written atomically.  Exit codes: 0 on success, 2 for config or
feasibility problems, 3 when a validation run finds formula violations,
1 for anything unexpected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
import traceback

from .bounds import min_distance_lower_bound, rate_report
from .codebook import ConcatCodebook, export_codewords_csv, plan_params, write_params_json
from .config import NUMBER, Key, epilog, resolve
from .errors import DegenerateFadingError, InfeasibleError, ValidationFailure
from .fading import parse_distribution
from .harness import (
    CONFIG_KEYS,
    ExperimentConfig,
    MomentGridConfig,
    moment_validation,
    run_experiment,
    write_text_atomic,
)
from .packing import (
    PROFILES,
    PackingSpec,
    check_projection_property,
    export_csv,
    generate_expurgated,
    verify_packing,
)

CONSTRUCT_KEYS = {
    "n": Key(int, "block length", min=1, required=True),
    "a": Key(float, "distance exponent margin in (0, 1/8)", required=True),
    "power_bound": Key(float, "energy budget A per codeword"),
    "eps1": Key(float, "inner code distance fraction"),
    "eps2": Key(float, "outer code distance fraction"),
    "field_seed": Key(int, "seed for the field modulus searches (--seed sets this)", min=0),
    "export_codewords": Key(int, "write the first k codewords to codewords.csv (0 = skip)",
                            min=0, default=0),
}

BOUNDS_KEYS = {
    "n": Key(float, "block length", required=True),
    "log2_size": Key(float, "log2 of the codebook size", required=True),
    "power_bound": Key(float, "energy budget A", default=1.0),
    "sigma2": Key(float, "noise variance (used for the distance lower bound)", default=1.0),
    "lambda1": Key(float, "type-I error budget", default=0.0),
    "lambda2": Key(float, "type-II error budget", default=0.0),
    "d_min": Key(float, "minimum distance; derived from the error budgets if omitted"),
    "fading": Key(dict, "fading law record for the reference capacities", default=None),
    "snr": Key(float, "signal to noise ratio for the reference capacities", default=None),
    "outage_eps": Key(float, "outage probability for the outage capacity", default=None),
}

MOMENTS_KEYS = {
    "distributions": Key(list, "list of fading law records to sweep", min=1, required=True),
    "modes": Key(list, "verifier modes to check", choices=("csi", "nocsi")),
    "n": Key(int, "vector length for the synthetic codewords", min=1),
    "draws": Key(int, "Monte Carlo draws per check", min=1),
    "sigma2": Key(float, "noise variance"),
    "pair_count": Key(int, "codeword pairs per law and mode", min=1),
    "vector_power": Key(float, "per-coordinate variance of the synthetic codewords"),
    "seed": Key(int, "master seed", min=0),
    "chunk": Key(int, "draws per batch", min=1),
    "tolerance_sigmas": Key(float, "allowed deviation in standard errors"),
}

PACKING_KEYS = {
    "spec.n": Key(int, "dimension", min=1, required=True),
    "spec.target_size": Key(int, "how many vectors to aim for", min=1, required=True),
    "spec.power_bound": Key(float, "hard energy cap A (power n*A)", default=1.0),
    "spec.sampling_power": Key(float, "sampling variance A' < A", default=0.5),
    "spec.distance_exponent": Key(float, "margin a; distance floor is n^(1/4 + a)",
                                  required=True),
    "spec.seed": Key(int, "sampling seed (--seed sets this)", min=0),
    "spec.fourth_moment_bound": Key(NUMBER, "fourth-power budget per coordinate", default=None),
    "profile": Key(str, "expurgation profile", choices=PROFILES),
    "check_projection": Key(bool, "also run the projected-distance check", default=False),
    "projection.mu": Key(float, "fraction of coordinates that survive projection", default=1.0),
    "projection.alpha": Key(float, "projected distances must reach n^alpha", default=0.25),
    "projection.mode": Key(str, "scan every subset (n <= 16) or sample them",
                           default="sampled", choices=("exhaustive", "sampled")),
    "projection.sample_count": Key(int, "subsets per pair in sampled mode", min=1),
}


def _parse_set(values: list[str]) -> dict:
    out: dict = {}
    for item in values:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        node = out
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ValueError(f"--set path {key!r} collides with a scalar")
        node[parts[-1]] = val
    return out


def _deep_merge(base: dict, extra: dict) -> dict:
    out = dict(base)
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _load_config(args) -> dict:
    cfg: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
    return _deep_merge(cfg, _parse_set(args.set or []))


def _seed(args, seed):
    """--seed beats the config; with neither, draw a seed and print it."""
    if args.seed is not None:
        return args.seed
    if seed is None:
        seed = secrets.randbelow(2**31)
        print(f"seed: {seed} (drawn; pass --seed to reproduce)")
    return seed


def _outdir(args) -> str:
    os.makedirs(args.outdir, exist_ok=True)
    return args.outdir


def _echo_config(outdir: str, cfg: dict) -> None:
    write_text_atomic(os.path.join(outdir, "resolved_config.json"),
                      json.dumps(cfg, sort_keys=True, indent=1) + "\n")


def cmd_construct(args) -> int:
    cfg = _load_config(args)
    if args.seed is not None:
        # construction is deterministic; the seed only steers modulus search
        cfg["field_seed"] = args.seed
    kw = resolve(cfg, CONSTRUCT_KEYS)
    limit = kw.pop("export_codewords")
    outdir = _outdir(args)
    params = plan_params(**kw)
    _echo_config(outdir, cfg)
    write_params_json(os.path.join(outdir, "params.json"), params)
    if limit > 0:
        book = ConcatCodebook(params)
        export_codewords_csv(os.path.join(outdir, "codewords.csv"), book, limit)
    print(f"n={params.n} q1={params.q1} (n1,k1)=({params.n1},{params.k1}) "
          f"(n2,k2)=({params.n2},{params.k2}) rate={params.rate:.6g} "
          f"min_distance={params.min_euclidean_distance:.6g} "
          f"log2_size={params.log2_size:.6g}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    cfg["seed"] = _seed(args, cfg.get("seed"))
    outdir = _outdir(args)
    exp = ExperimentConfig.from_dict(cfg)
    _echo_config(outdir, exp.to_dict())
    report = run_experiment(exp)
    write_text_atomic(os.path.join(outdir, "report.json"), report.full_json() + "\n")
    if args.format == "csv":
        write_text_atomic(os.path.join(outdir, "identities.csv"), report.identities_csv())
        write_text_atomic(os.path.join(outdir, "pairs.csv"), report.pairs_csv())
    r = report.results
    print(f"type-I pooled error rate: {r['type1']['pooled']['error_rate']}")
    print(f"type-II pooled accept rate: {r['type2']['pooled']['accept_rate']}")
    print(f"outage fraction: {r['outage']['fraction']}")
    return 0


def cmd_bounds(args) -> int:
    cfg = _load_config(args)
    kw = resolve(cfg, BOUNDS_KEYS)
    outdir = _outdir(args)
    lam = kw.pop("lambda1") + kw.pop("lambda2")
    sigma = math.sqrt(kw.pop("sigma2"))
    derived_d = min_distance_lower_bound(lam, sigma) if lam > 0 else 0.0
    kw.setdefault("d_min", derived_d)
    fading = kw.pop("fading")
    report = rate_report(dist=parse_distribution(fading) if fading else None, **kw)
    _echo_config(outdir, cfg)
    payload = {
        "n": report.n, "log2_size": report.log2_size, "rate": report.rate,
        "upper_bound": report.upper_bound, "power_bound": report.power_bound,
        "d_min": report.d_min, "d_min_from_error_budgets": derived_d,
        "outage_capacity": report.outage_capacity,
        "ergodic_capacity": report.ergodic_capacity,
    }
    if args.format == "csv":
        head = ",".join(payload)
        row = ",".join("" if v is None else repr(v) for v in payload.values())
        write_text_atomic(os.path.join(outdir, "bounds.csv"), head + "\n" + row + "\n")
    write_text_atomic(os.path.join(outdir, "bounds.json"),
                      json.dumps(payload, sort_keys=True, indent=1) + "\n")
    print(f"rate={report.rate:.6g} upper_bound={report.upper_bound:.6g}")
    return 0


def cmd_moments(args) -> int:
    cfg = _load_config(args)
    cfg["seed"] = _seed(args, cfg.get("seed"))
    kw = resolve(cfg, MOMENTS_KEYS)
    outdir = _outdir(args)
    kw["distributions"] = tuple(parse_distribution(d) for d in kw["distributions"])
    if "modes" in kw:
        kw["modes"] = tuple(kw["modes"])
    grid = MomentGridConfig(**kw)
    _echo_config(outdir, cfg)
    report = moment_validation(grid)
    write_text_atomic(os.path.join(outdir, "moments.json"), report.to_json() + "\n")
    if args.format == "csv":
        head = "case,statistic,quantity,formula,estimate,std_error,deviation,ok"
        rows = [head] + [
            f"{r.case},{r.statistic},{r.quantity},{r.formula!r},{r.estimate!r},"
            f"{r.std_error!r},{r.deviation!r},{r.ok}"
            for r in report.rows
        ]
        write_text_atomic(os.path.join(outdir, "moments.csv"), "\n".join(rows) + "\n")
    bad = report.failures
    print(f"checked {len(report.rows)} moments, {len(bad)} outside "
          f"{grid.tolerance_sigmas} standard errors")
    if bad:
        for r in bad[:10]:
            print(f"  FAIL {r.case} {r.statistic} {r.quantity}: "
                  f"formula {r.formula:.6g} vs estimate {r.estimate:.6g} "
                  f"({r.deviation:.2f} SE)", file=sys.stderr)
        raise ValidationFailure(f"{len(bad)} moment checks failed")
    return 0


def cmd_packing(args) -> int:
    cfg = _load_config(args)
    spec_cfg = cfg.setdefault("spec", {})
    if isinstance(spec_cfg, dict):  # anything else is refused by resolve
        spec_cfg["seed"] = _seed(args, spec_cfg.get("seed"))
    kw = resolve(cfg, PACKING_KEYS)
    projection, check_projection = kw.pop("projection"), kw.pop("check_projection")
    outdir = _outdir(args)
    spec = PackingSpec(**kw.pop("spec"))
    _echo_config(outdir, cfg)
    vectors, report = generate_expurgated(spec, **kw)
    problems = verify_packing(vectors, spec, report.profile)
    if problems:
        for p in problems[:10]:
            print(f"  VERIFY {p}", file=sys.stderr)
        raise ValidationFailure("independent packing verification failed")
    export_csv(os.path.join(outdir, "vectors.csv"), vectors, spec, report.profile)
    payload = {
        "profile": report.profile, "seed": report.seed, "sampled": report.sampled,
        "requested": report.requested, "survivors": report.survivors,
        "distance_floor": report.distance_floor,
        "removed": {"power": report.removed_power, "fourth": report.removed_fourth,
                    "band": report.removed_band, "distance": report.removed_distance},
    }
    if check_projection:
        proj = check_projection_property(vectors, seed=spec.seed, **projection)
        payload["projection"] = {
            "mode": proj.mode, "subset_size": proj.subset_size,
            "threshold": proj.threshold, "certified": proj.certified,
            "overall_min": proj.overall_min, "passed": proj.passed,
        }
        if not proj.passed:
            raise ValidationFailure("projected distances fell below the threshold")
    write_text_atomic(os.path.join(outdir, "report.json"),
                      json.dumps(payload, sort_keys=True, indent=1) + "\n")
    print(f"kept {report.survivors} of {report.sampled} sampled vectors "
          f"(floor {report.distance_floor:.6g})")
    return 0


COMMANDS = {
    "construct": (cmd_construct, "plan and build a concatenated codebook", CONSTRUCT_KEYS),
    "simulate": (cmd_simulate, "run identification trials over a channel", CONFIG_KEYS),
    "bounds": (cmd_bounds, "rate bounds and reference capacities", BOUNDS_KEYS),
    "moments": (cmd_moments, "validate the closed-form statistic moments by Monte Carlo",
                MOMENTS_KEYS),
    "packing": (cmd_packing, "sample and expurgate a sphere packing", PACKING_KEYS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicode",
        description="Identification codebooks, fading channel trials, and rate bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, keys) in COMMANDS.items():
        p = sub.add_parser(
            name, help=help_text, epilog=epilog(keys),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config entry (repeatable, dotted paths)")
        p.add_argument("--seed", type=int, help="master seed; drawn and printed if absent")
        p.add_argument("--outdir", default=".", help="where outputs are written")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="also emit CSV tables when set to csv")
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InfeasibleError, DegenerateFadingError, ValueError, KeyError,
            json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationFailure as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
