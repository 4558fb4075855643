"""Command line front end.

Every subcommand reads an optional JSON config file, applies repeatable
``--set dotted.path=value`` overrides on top, resolves the seed and
checks the whole config against its key table, records included, then
runs.  Each key's rules and default are stated once, in its table, which
--help prints and the library's configs, planner and packing spec check
against.
Only a finished run creates the output directory; it gets the resolved
configuration and the run's outputs, each written atomically.  This
module writes every file; the library hands it text.  Exit codes: 0 on
success, 2 for config or feasibility problems, 3 when a validation run
finds formula violations, 1 for anything unexpected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import secrets
import sys
import traceback
from dataclasses import replace

from .bounds import min_distance_lower_bound, rate_report
from .channel import SIGMA2
from .codebook import PLAN_KEYS, ConcatCodebook, codewords_csv, plan_params
from .config import Key, epilog, owned_defaults, resolve
from .errors import ValidationFailure
from .fading import parse_distribution
from .harness import (
    CONFIG_KEYS,
    MOMENTS_KEYS,
    ExperimentConfig,
    MomentGridConfig,
    moment_validation,
    run_experiment,
    write_text_atomic,
)
from .packing import (
    PROFILES,
    PROJECTION_KEYS,
    SPEC_KEYS,
    PackingSpec,
    check_projection_property,
    generate_expurgated,
    projection_subset,
    vectors_csv,
    verify_packing,
)

CONSTRUCT_KEYS = {
    **owned_defaults(plan_params, PLAN_KEYS),
    "export_codewords": Key(int, "write the first k codewords to codewords.csv (0 = skip)",
                            min=0, default=0),
}

BOUNDS_KEYS = {
    "n": Key(float, "block length", min=2, required=True),
    "log2_size": Key(float, "log2 of the codebook size", min=0, required=True),
    "power_bound": Key(float, "energy budget A", default=1.0),
    "sigma2": replace(SIGMA2, help="noise variance (used for the distance lower bound)"),
    "lambda1": Key(float, "type-I error budget", min=0, default=0.0),
    "lambda2": Key(float, "type-II error budget", min=0, default=0.0),
    "d_min": Key(float, "minimum distance; derived from the error budgets if omitted"),
    "fading": Key(dict, "fading law record for the reference capacities", default=None,
                  parse=parse_distribution),
    "snr": Key(float, "signal to noise ratio for the reference capacities", default=None),
    "outage_eps": Key(float, "outage probability for the outage capacity", default=None),
}

PACKING_KEYS = {
    **{f"spec.{name}": key for name, key in SPEC_KEYS.items()},
    **owned_defaults(generate_expurgated, {
        "profile": Key(str, "expurgation profile", choices=PROFILES)}),
    "check_projection": Key(bool, "also run the projected-distance check, which alone reads "
                                   "the projection.* keys", default=False),
    **PROJECTION_KEYS,
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
        # merge a record into the keys set before it, as a config file merges
        old = node.get(parts[-1])
        merge = isinstance(old, dict) and isinstance(val, dict)
        node[parts[-1]] = _deep_merge(old, val) if merge else val
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


def _write(args, cfg: dict, outputs: dict) -> None:
    """Create --outdir and write a finished run into it: ``resolved_config.json``,
    the values the run used, defaults included, as a config that re-runs it,
    then each output file."""
    os.makedirs(args.outdir, exist_ok=True)
    for name, text in {"resolved_config.json": json.dumps(cfg, sort_keys=True, indent=1) + "\n",
                       **outputs}.items():
        write_text_atomic(os.path.join(args.outdir, name), text)


def cmd_construct(args) -> int:
    cfg = _load_config(args)
    if args.seed is not None:
        # construction is deterministic; the seed only steers modulus search
        cfg["field_seed"] = args.seed
    kw = resolve(cfg, CONSTRUCT_KEYS)
    limit = kw.pop("export_codewords")
    params = plan_params(**kw)
    outputs = {"params.json": json.dumps(params.to_json_dict(), indent=2, sort_keys=True) + "\n"}
    if limit > 0:
        outputs["codewords.csv"] = codewords_csv(ConcatCodebook(params), limit)
    _write(args, {**kw, "export_codewords": limit}, outputs)
    print(f"n={params.n} q1={params.q1} (n1,k1)=({params.n1},{params.k1}) "
          f"(n2,k2)=({params.n2},{params.k2}) rate={params.rate:.6g} "
          f"min_distance={params.min_euclidean_distance:.6g} "
          f"log2_size={params.log2_size:.6g}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    cfg["seed"] = _seed(args, cfg.get("seed"))
    exp = ExperimentConfig.from_dict(cfg)
    report = run_experiment(exp)
    outputs = {"report.json": report.full_json() + "\n"}
    if args.format == "csv":
        outputs["identities.csv"] = report.identities_csv()
        outputs["pairs.csv"] = report.pairs_csv()
    _write(args, exp.to_dict(), outputs)
    r = report.results
    print(f"type-I pooled error rate: {r['type1']['pooled']['error_rate']}")
    print(f"type-II pooled accept rate: {r['type2']['pooled']['accept_rate']}")
    print(f"outage fraction: {r['outage']['fraction']}")
    return 0


def cmd_bounds(args) -> int:
    cfg = _load_config(args)
    kw = resolve(cfg, BOUNDS_KEYS)
    lam = kw["lambda1"] + kw["lambda2"]
    try:
        derived_d = min_distance_lower_bound(lam, math.sqrt(kw["sigma2"])) if lam > 0 else 0.0
    except ValueError as exc:
        raise ValueError(f"lambda1/lambda2/sigma2: {exc}") from exc
    kw.setdefault("d_min", derived_d)
    dist = kw["fading"]
    report = rate_report(kw["n"], kw["log2_size"], kw["power_bound"], kw["d_min"], dist,
                         kw["snr"], kw["outage_eps"])
    payload = {
        "n": report.n, "log2_size": report.log2_size, "rate": report.rate,
        "upper_bound": report.upper_bound, "power_bound": report.power_bound,
        "d_min": report.d_min, "d_min_from_error_budgets": derived_d,
        "outage_capacity": report.outage_capacity,
        "ergodic_capacity": report.ergodic_capacity,
    }
    outputs = {}
    if args.format == "csv":
        head = ",".join(payload)
        row = ",".join("" if v is None else repr(v) for v in payload.values())
        outputs["bounds.csv"] = head + "\n" + row + "\n"
    outputs["bounds.json"] = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    _write(args, {**kw, "fading": None if dist is None else dist.to_config()}, outputs)
    print(f"rate={report.rate:.6g} upper_bound={report.upper_bound:.6g}")
    return 0


def cmd_moments(args) -> int:
    cfg = _load_config(args)
    cfg["seed"] = _seed(args, cfg.get("seed"))
    grid = MomentGridConfig(**resolve(cfg, MOMENTS_KEYS))
    report = moment_validation(grid)
    outputs = {"moments.json": report.to_json() + "\n"}
    if args.format == "csv":
        outputs["moments.csv"] = report.rows_csv()
    _write(args, grid.to_dict(), outputs)  # a failing grid too, for post-mortems
    bad = report.failures
    print(f"checked {len(report.rows)} moments, {len(bad)} outside "
          f"{grid.tolerance_sigmas} standard errors")
    if bad:
        for r in bad[:10]:
            print(f"  FAIL {r.case} {r.statistic} {r.quantity}: "
                  f"formula {r.formula:.6g} vs estimate {r.estimate:.6g} "
                  f"({r.deviation:.3g} SE)", file=sys.stderr)
        raise ValidationFailure(f"{len(bad)} moment checks failed")
    return 0


def cmd_packing(args) -> int:
    cfg = _load_config(args)
    spec_cfg = cfg.setdefault("spec", {})
    if isinstance(spec_cfg, dict):  # anything else is refused by resolve
        spec_cfg["seed"] = _seed(args, spec_cfg.get("seed"))
    kw = resolve(cfg, PACKING_KEYS)
    spec, proj = PackingSpec(**kw["spec"]), kw["projection"]
    # before sampling; the loop below refuses the mode of a scan that will not run
    projection_subset(spec.n, proj["mu"], proj["mode"] if kw["check_projection"] else "sampled")
    for name, value in proj.items():  # the run echoes the defaults, so only they pass
        if not kw["check_projection"] and value != PACKING_KEYS[f"projection.{name}"].default:
            raise ValueError(f"projection.{name} is read only with check_projection true")
    vectors, report = generate_expurgated(spec, kw["profile"])
    problems = verify_packing(vectors, spec, report.profile)
    if problems:
        for p in problems[:10]:
            print(f"  VERIFY {p}", file=sys.stderr)
        raise ValidationFailure("independent packing verification failed")
    payload = {
        "profile": report.profile, "seed": report.seed, "sampled": report.sampled,
        "requested": report.requested, "survivors": report.survivors,
        "distance_floor": report.distance_floor,
        "removed": report.removed,
    }
    passed = True
    if kw["check_projection"]:
        scan = check_projection_property(vectors, seed=spec.seed, **proj)
        payload["projection"] = {
            "mode": scan.mode, "subset_size": scan.subset_size,
            "threshold": scan.threshold, "certified": scan.certified,
            "overall_min": scan.overall_min, "passed": scan.passed,
        }
        passed = scan.passed
    _write(args, kw, {
        "vectors.csv": vectors_csv(vectors),
        "vectors.csv.spec.json": json.dumps({**spec.to_json_dict(), "profile": report.profile},
                                            indent=2, sort_keys=True) + "\n",
        "report.json": json.dumps(payload, sort_keys=True, indent=1) + "\n",
    })
    if not passed:
        raise ValidationFailure("projected distances fell below the threshold")
    print(f"kept {report.survivors} of {report.sampled} sampled vectors "
          f"(floor {report.distance_floor:.6g})")
    return 0


# the flags a subcommand may take besides --config, --set and --outdir
FLAGS = {
    "--seed": {"type": int, "help": "master seed, over the config's (construct: field_seed, "
                                    "packing: spec.seed); drawn and printed if absent, "
                                    "except by construct"},
    "--format": {"choices": ("json", "csv"), "default": "json",
                 "help": "also emit CSV tables when set to csv"},
}

# name -> (function, help, key table, flags from FLAGS)
COMMANDS = {
    "construct": (cmd_construct, "plan and build a concatenated codebook", CONSTRUCT_KEYS,
                  ("--seed",)),
    "simulate": (cmd_simulate, "run identification trials over a channel", CONFIG_KEYS,
                 ("--seed", "--format")),
    "bounds": (cmd_bounds, "rate bounds and reference capacities", BOUNDS_KEYS, ("--format",)),
    "moments": (cmd_moments, "validate the closed-form statistic moments by Monte Carlo",
                MOMENTS_KEYS, ("--seed", "--format")),
    "packing": (cmd_packing, "sample and expurgate a sphere packing", PACKING_KEYS,
                ("--seed",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicode",
        description="Identification codebooks, fading channel trials, and rate bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, keys, flags) in COMMANDS.items():
        p = sub.add_parser(
            name, help=help_text, epilog=epilog(keys),
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config entry (repeatable, dotted paths)")
        p.add_argument("--outdir", default=".",
                       help="where outputs are written, once the config is checked and the "
                            "run is done")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, FileNotFoundError) as exc:
        # InfeasibleError, DegenerateFadingError, QuadratureError and JSONDecodeError
        # are ValueErrors
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
