"""Command line front end: exit codes, artifacts, and help/docs sync."""

import dataclasses
import hashlib
import itertools
import json
import math
import pathlib
import re
import shlex
import warnings

import pytest

from dicode.cli import (
    BOUNDS_KEYS,
    COMMANDS,
    CONSTRUCT_KEYS,
    MOMENTS_KEYS,
    PACKING_KEYS,
    _deep_merge,
    _parse_set,
    main,
)
from dicode.channel import CHANNELS, Awgn, FastFading, SlowFading
from dicode.codebook import ConcatCodebook, ConcatParams, plan_params
from dicode.config import _UNSET, resolve
from dicode.decoder import GRID_MODES, VERIFIERS
from dicode.fading import Constant, DiscreteMixture, Nakagami, Rayleigh, Rician
from dicode.harness import CONFIG_KEYS, ExperimentConfig, MomentGridConfig, moment_validation
from dicode.packing import PackingSpec, check_projection_property


def run(argv):
    return main(argv)


SIM_CONFIG = {
    "channel": {"type": "awgn", "sigma2": 0.25},
    "codebook": {"type": "concat", "n": 500, "a": 0.02},
    "verifier": {"mode": "csi-fast"},
    "trials": {"identities": 4, "per_identity": 3, "pairs": 4,
               "per_pair": 2, "min_distance_pairs": 1},
    "seed": 11,
}


# -- construct -------------------------------------------------------------


def test_construct_writes_params_and_codewords(tmp_path, capsys):
    code = run(["construct", "--outdir", str(tmp_path),
                "--set", "n=500", "--set", "a=0.02",
                "--set", "export_codewords=3"])
    assert code == 0
    params = json.loads((tmp_path / "params.json").read_text())
    assert params["schema"] == 1
    assert params["q1"] == 4
    assert (tmp_path / "resolved_config.json").exists()
    rows = (tmp_path / "codewords.csv").read_text().strip().splitlines()
    assert len(rows) == 3
    assert rows[0].split(",")[0] == "0"
    assert len(rows[0].split(",")) == 1 + 500
    out = capsys.readouterr().out
    assert "q1=4" in out and "rate=" in out


def test_construct_infeasible_exits_2(tmp_path, capsys):
    code = run(["construct", "--outdir", str(tmp_path),
                "--set", "n=20", "--set", "a=0.015"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_construct_missing_required_key_exits_2(tmp_path, capsys):
    assert run(["construct", "--outdir", str(tmp_path), "--set", "a=0.02"]) == 2
    assert "error:" in capsys.readouterr().err


# -- simulate --------------------------------------------------------------


def test_simulate_smoke_and_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SIM_CONFIG))
    outs = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        code = run(["simulate", "--config", str(cfg_path),
                    "--outdir", str(outdir), "--format", "csv"])
        assert code == 0
        outs.append(outdir)
    reports = [json.loads((d / "report.json").read_text()) for d in outs]
    # wall clock lives in meta; the results block must agree exactly
    assert reports[0]["results"] == reports[1]["results"]
    assert reports[0]["meta"] != {} and "wall_clock_s" in reports[0]["meta"]
    for d in outs:
        assert (d / "identities.csv").read_text().startswith("slot,identity")
        assert (d / "pairs.csv").exists()
        assert (d / "resolved_config.json").exists()
    # CSV tables match across runs too
    assert (outs[0] / "pairs.csv").read_text() == (outs[1] / "pairs.csv").read_text()


def test_simulate_draws_and_reports_a_seed(tmp_path, capsys):
    cfg = {k: v for k, v in SIM_CONFIG.items() if k != "seed"}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = run(["simulate", "--config", str(cfg_path), "--outdir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "seed:" in out and "--seed" in out
    resolved = json.loads((tmp_path / "resolved_config.json").read_text())
    assert isinstance(resolved["seed"], int)


def test_simulate_seed_flag_beats_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SIM_CONFIG))
    code = run(["simulate", "--config", str(cfg_path), "--seed", "99",
                "--outdir", str(tmp_path)])
    assert code == 0
    resolved = json.loads((tmp_path / "resolved_config.json").read_text())
    assert resolved["seed"] == 99


def test_simulate_rejects_unknown_keys(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**SIM_CONFIG, "typo_knob": 1}))
    assert run(["simulate", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 2
    assert "typo_knob" in capsys.readouterr().err


def test_simulate_incompatible_verifier_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SIM_CONFIG))
    code = run(["simulate", "--config", str(cfg_path), "--outdir", str(tmp_path),
                "--set", "verifier.mode=csi-slow"])
    assert code == 2
    assert "slow-fading" in capsys.readouterr().err


def test_set_overrides_config_file(tmp_path):
    # the config file asks for an infeasible build; --set rescues it
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n": 20, "a": 0.015}))
    code = run(["construct", "--config", str(cfg_path), "--outdir", str(tmp_path),
                "--set", "n=500", "--set", "a=0.02"])
    assert code == 0


def test_malformed_set_and_config_exit_2(tmp_path, capsys):
    assert run(["construct", "--outdir", str(tmp_path), "--set", "n500"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["construct", "--config", str(bad), "--outdir", str(tmp_path)]) == 2
    assert run(["construct", "--config", str(tmp_path / "absent.json"),
                "--outdir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_set_records_merge_with_earlier_dotted_keys_in_either_order():
    dotted = "codebook.power_bound=2.0"
    record = 'codebook={"type": "concat", "n": 1000, "a": 0.04}'
    want = {"codebook": {"type": "concat", "n": 1000, "a": 0.04, "power_bound": 2.0}}
    assert _parse_set([dotted, record]) == _parse_set([record, dotted]) == want
    # a later key still replaces the same key set before it
    assert _parse_set(["codebook.n=3000", record])["codebook"]["n"] == 1000
    assert _parse_set([record, "codebook.n=3000"])["codebook"]["n"] == 3000


def test_set_path_through_a_scalar_exits_2(tmp_path, capsys):
    for sets in (["n=500", "n.x=1"], ['codebook={"n": 1}', "codebook.n.x=2"]):
        with pytest.raises(ValueError, match="collides with a scalar"):
            _parse_set(sets)
    argv = ["construct", "--outdir", str(tmp_path), "--set", "n=500", "--set", "n.x=1"]
    assert run(argv) == 2
    assert "collides with a scalar" in capsys.readouterr().err


def test_csv_codebook_with_non_finite_entries_exits_2(tmp_path, capsys):
    book = tmp_path / "book.csv"
    book.write_text("0.5,1.0\n0.25,nan\ninf,0.0\n")
    cfg = {**SIM_CONFIG, "codebook": {"type": "csv", "path": str(book)}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run(["simulate", "--config", str(cfg_path), "--outdir", str(tmp_path)]) == 2
    assert "row 2, column 2" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("n", 64.5), ("target_size", "10")])
def test_simulate_refuses_non_integer_packing_spec_counts(field, value, tmp_path, capsys):
    spec = {"n": 32, "target_size": 20, "power_bound": 4.0, "sampling_power": 2.0,
            "distance_exponent": 0.05}
    ExperimentConfig.from_dict({**SIM_CONFIG, "codebook": {"type": "packing", "spec": spec}})
    cfg = {**SIM_CONFIG, "codebook": {"type": "packing", "spec": {**spec, field: value}}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run(["simulate", "--config", str(cfg_path), "--outdir", str(out)]) == 2
    assert f"codebook.spec: {field} must be an integer" in capsys.readouterr().err
    assert not out.exists()  # refused before creating anything


# -- bounds ----------------------------------------------------------------


def test_bounds_report_and_csv(tmp_path):
    code = run(["bounds", "--outdir", str(tmp_path), "--format", "csv",
                "--set", "n=1024", "--set", "log2_size=512",
                "--set", "power_bound=1.0", "--set", "d_min=4.0",
                "--set", 'fading={"type": "rayleigh", "scale": 1.0}',
                "--set", "snr=10.0", "--set", "outage_eps=0.1"])
    assert code == 0
    payload = json.loads((tmp_path / "bounds.json").read_text())
    assert payload["rate"] == pytest.approx(512 / (1024 * 10))
    assert payload["upper_bound"] == pytest.approx(0.40874628, abs=1e-6)
    assert payload["outage_capacity"] < payload["ergodic_capacity"]
    lines = (tmp_path / "bounds.csv").read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("n,log2_size,rate")


def test_bounds_derives_distance_from_error_budgets(tmp_path):
    code = run(["bounds", "--outdir", str(tmp_path),
                "--set", "n=1024", "--set", "log2_size=512",
                "--set", "sigma2=1.0",
                "--set", "lambda1=0.025", "--set", "lambda2=0.025"])
    assert code == 0
    payload = json.loads((tmp_path / "bounds.json").read_text())
    # 2 * sigma * z_{0.95}
    assert payload["d_min"] == pytest.approx(2 * 1.6448536269514722, rel=1e-9)
    assert payload["d_min"] == payload["d_min_from_error_budgets"]


def test_bounds_takes_error_budgets_far_below_the_double_spacing_at_one(tmp_path):
    # 1 - 2e-20 rounds to 1; the lower tail keeps the budget exact
    code = run(["bounds", "--outdir", str(tmp_path), "--set", "n=1024", "--set", "log2_size=512",
                "--set", "lambda1=1e-20", "--set", "lambda2=1e-20"])
    assert code == 0
    payload = json.loads((tmp_path / "bounds.json").read_text())
    assert payload["d_min_from_error_budgets"] == pytest.approx(18.37611449900416, rel=1e-14)
    assert payload["d_min"] == payload["d_min_from_error_budgets"]


def test_bounds_integrates_a_wide_law_without_a_word_on_stderr(tmp_path, capsys):
    # Rayleigh(1e6) is too wide for the raw-unit quadrature: integrated again in units
    # of its scale, the run exits 0 with nothing on stderr, not even quad's warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["bounds", "--outdir", str(tmp_path), "--set", "n=1024",
                    "--set", "log2_size=512", "--set", "d_min=4.0",
                    "--set", 'fading={"type": "rayleigh", "scale": 1e6}', "--set", "snr=1"])
    assert code == 0
    assert capsys.readouterr().err == ""


# -- moments ---------------------------------------------------------------


def test_moments_green_run(tmp_path, capsys):
    code = run(["moments", "--outdir", str(tmp_path), "--seed", "3",
                "--set", 'distributions=[{"type": "constant", "value": 1.0}]',
                "--set", "n=16", "--set", "draws=30000",
                "--set", "pair_count=1"])
    assert code == 0
    payload = json.loads((tmp_path / "moments.json").read_text())
    assert payload["failures"] == 0
    assert len(payload["rows"]) == 8
    assert "checked 8 moments, 0 outside" in capsys.readouterr().out


def test_moments_failure_exits_3(tmp_path, capsys):
    # an absurd tolerance turns ordinary Monte Carlo scatter into failures
    code = run(["moments", "--outdir", str(tmp_path), "--seed", "3",
                "--set", 'distributions=[{"type": "constant", "value": 1.0}]',
                "--set", "n=16", "--set", "draws=5000",
                "--set", "pair_count=1", "--set", "tolerance_sigmas=0.001"])
    assert code == 3
    captured = capsys.readouterr()
    assert "validation failed" in captured.err
    assert "FAIL" in captured.err
    # the report is still written for post-mortems
    assert json.loads((tmp_path / "moments.json").read_text())["failures"] > 0


def test_moments_csv_bytes_are_pinned_failing_rows_included(tmp_path):
    # moments.csv as the per-row f-strings of cmd_moments wrote it before the
    # CSV moved to the shared writer: floats as repr, the verdict as True/False
    code = run(["moments", "--outdir", str(tmp_path), "--seed", "0", "--format", "csv",
                "--set", 'distributions=[{"type": "constant", "value": 1.0}, '
                         '{"type": "rayleigh", "scale": 1.0}]',
                "--set", "draws=2000", "--set", "n=8", "--set", "pair_count=1",
                "--set", "tolerance_sigmas=1.0"])
    assert code == 3  # four rows fail, so the pin covers a False row
    text = (tmp_path / "moments.csv").read_text()
    assert text.splitlines()[0] == "case,statistic,quantity,formula,estimate,std_error,deviation,ok"
    assert text.splitlines()[8] == (
        "constant/nocsi/pair0,impostor,variance,84.34684056937559,80.72818289982243,"
        "2.8692711703003257,1.261176603664963,False")
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "86a0c32d0b4b6b9b192215fbaad26abb6d0dcf1f837376029facf79210bf3950"


def test_moments_without_distributions_exits_2(tmp_path, capsys):
    assert run(["moments", "--outdir", str(tmp_path), "--seed", "1"]) == 2
    assert "distributions" in capsys.readouterr().err


# -- packing ---------------------------------------------------------------


def test_packing_smoke_with_projection(tmp_path, capsys):
    code = run(["packing", "--outdir", str(tmp_path), "--seed", "2",
                "--set", "spec.n=32", "--set", "spec.target_size=20",
                "--set", "spec.power_bound=4.0", "--set", "spec.sampling_power=2.0",
                "--set", "spec.distance_exponent=0.05",
                "--set", "check_projection=true",
                "--set", "projection.mu=0.8", "--set", "projection.mode=sampled",
                "--set", "projection.sample_count=50"])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["survivors"] > 0
    assert payload["projection"]["passed"] is True
    assert payload["projection"]["certified"] is False  # sampled mode never certifies
    vectors = (tmp_path / "vectors.csv").read_text().strip().splitlines()
    assert len(vectors) == payload["survivors"]
    sidecar = json.loads((tmp_path / "vectors.csv.spec.json").read_text())
    assert sidecar["profile"] == "basic"
    assert sidecar["seed"] == 2
    assert "kept" in capsys.readouterr().out


def test_packing_projection_failure_exits_3_after_writing_its_report(tmp_path, capsys):
    code = run(["packing", "--outdir", str(tmp_path), "--seed", "2",
                "--set", "spec.n=32", "--set", "spec.target_size=20",
                "--set", "spec.power_bound=4.0", "--set", "spec.sampling_power=2.0",
                "--set", "spec.distance_exponent=0.05", "--set", "check_projection=true",
                "--set", "projection.mu=0.1", "--set", "projection.alpha=1.0",
                "--set", "projection.sample_count=5"])
    assert code == 3
    assert "projected distances fell below the threshold" in capsys.readouterr().err
    # the finished run is written for post-mortems, as a failing moment grid is
    assert json.loads((tmp_path / "report.json").read_text())["projection"]["passed"] is False
    assert (tmp_path / "vectors.csv").exists() and (tmp_path / "resolved_config.json").exists()


def test_a_packing_book_simulates_from_its_csv_with_every_survivor(tmp_path, capsys):
    book, sim = tmp_path / "book", tmp_path / "simulate"
    spec = ["spec.n=64", "spec.target_size=40", "spec.power_bound=4.0", "spec.sampling_power=2.0",
            "spec.distance_exponent=0.05", "profile=norm-concentrated"]
    assert run(["packing", "--outdir", str(book), "--seed", "3",
                *[arg for item in spec for arg in ("--set", item)]]) == 0
    sets = ["channel.type=awgn", "codebook.type=csv", f"codebook.path={book / 'vectors.csv'}",
            *SIM_TRIALS]
    assert run(["simulate", "--outdir", str(sim), "--seed", "0",
                *[arg for item in sets for arg in ("--set", item)]]) == 0
    capsys.readouterr()
    survivors = json.loads((book / "report.json").read_text())["survivors"]
    size = json.loads((sim / "report.json").read_text())["results"]["codebook"]["size"]
    assert size == survivors >= 2


def test_packing_infeasible_exits_2(tmp_path, capsys):
    code = run(["packing", "--outdir", str(tmp_path), "--seed", "2",
                "--set", "spec.n=16", "--set", "spec.target_size=40",
                "--set", "spec.power_bound=0.01", "--set", "spec.sampling_power=0.005",
                "--set", "spec.distance_exponent=0.24"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


# -- help/docs sync --------------------------------------------------------


# the optional flags each subcommand reads
TAKES = {"construct": {"--seed"}, "simulate": {"--seed", "--format"}, "bounds": {"--format"},
         "moments": {"--seed", "--format"}, "packing": {"--seed"}}


@pytest.mark.parametrize("command,keys", [
    ("construct", CONSTRUCT_KEYS),
    ("simulate", CONFIG_KEYS),
    ("bounds", BOUNDS_KEYS),
    ("moments", MOMENTS_KEYS),
    ("packing", PACKING_KEYS),
])
def test_help_lists_every_config_key(command, keys, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "config keys" in text
    for key in keys:
        assert key in text, f"{command} --help is missing {key}"
        for choice in keys[key].choices:
            assert json.dumps(choice) in text, f"{command} --help is missing {key}={choice}"
    for flag in ("--config", "--set", "--outdir", *TAKES[command]):
        assert flag in text
    for flag in {"--seed", "--format"} - TAKES[command]:
        assert flag not in text, f"{command} --help offers {flag}, which it does not read"
    lines = _help_lines(text, keys)
    for key in keys:
        if keys[key].default is not _UNSET:
            assert f"default {json.dumps(keys[key].default)}]" in lines[key], lines[key]


def _help_lines(text: str, keys: dict) -> dict:
    """The --help line of each key of a table."""
    lines = {}
    for line in text.splitlines():
        words = line.split()
        if line.startswith("  ") and words and words[0] in keys:
            lines[words[0]] = line
    return lines


# every key a run fills in when it is absent, but the seeds the CLI draws and
# the codebook.* keys, whose defaults depend on codebook.type
FILLED_IN = {
    "simulate": ("workers", "channel.sigma2", "verifier.deviation_scale", "trials.identities",
                 "trials.per_identity", "trials.pairs", "trials.per_pair",
                 "trials.min_distance_pairs", "allow_degenerate_outage"),
    "moments": ("modes", "n", "draws", "sigma2", "pair_count", "vector_power", "chunk",
                "tolerance_sigmas"),
    "packing": ("profile", "projection.mu", "projection.alpha", "projection.mode",
                "projection.sample_count"),
    "construct": ("power_bound", "eps1", "eps2", "field_seed"),
}


@pytest.mark.parametrize("command", sorted(FILLED_IN))
def test_help_prints_the_default_of_every_key_a_run_fills_in(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    lines = _help_lines(capsys.readouterr().out, COMMANDS[command][2])
    for key in FILLED_IN[command]:
        assert "default " in lines[key], f"{command} --help prints no default for {key}"
    pins = {"simulate": [("trials.identities", "default 50")], "moments": [("n", "default 64")],
            "packing": [("profile", 'default "basic"'), ("projection.mode", 'default "sampled"')],
            "construct": [("eps1", "default 0.1")]}
    for key, says in pins[command]:
        assert lines[key].endswith(f", {says}]"), lines[key]


@pytest.mark.parametrize("argv", [["bounds", "--seed", "5"], ["construct", "--format", "csv"],
                                  ["packing", "--format", "csv"]])
def test_subcommands_refuse_flags_they_do_not_read(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--outdir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -- strict key tables -----------------------------------------------------


VALID_ARGS = {
    "construct": ["n=500", "a=0.02"],
    "simulate": ["channel.type=awgn", "codebook.type=concat", "codebook.n=500",
                 "codebook.a=0.02", "trials.identities=2", "trials.per_identity=2",
                 "trials.pairs=2", "trials.per_pair=2", "trials.min_distance_pairs=1"],
    "bounds": ["n=1024", "log2_size=512", "d_min=4.0"],
    "moments": ['distributions=[{"type": "constant", "value": 1.0}]', "n=16", "draws=1000",
                "pair_count=1"],
    "packing": ["spec.n=32", "spec.target_size=20", "spec.distance_exponent=0.05"],
}

RAYLEIGH = '{"type": "rayleigh", "scale": 1.0}'

# (subcommand, one bad --set or a tuple of them, what stderr must say);
# bounds has no counts and only simulate and packing have bools
BAD_SETTINGS = [
    ("construct", "eps=0.5", ["'eps'", "did you mean 'eps"]),
    ("construct", "a=NaN", ["a must be finite"]),
    ("construct", "n=0", ["n must be at least 4"]),
    ("construct", "n=3", ["n must be at least 4, got 3"]),
    ("simulate", "codebook.n=3", ["codebook.n must be at least 4, got 3"]),
    ("construct", "export_codewords=2.7", ["export_codewords must be an integer"]),
    ("construct", "field.seed=1", ["'field.seed'", "did you mean 'field_seed'"]),
    ("simulate", "workerz=2", ["'workerz'", "did you mean 'workers'"]),
    ("simulate", "channel.sigma2=NaN", ["channel.sigma2 must be finite"]),
    ("simulate", "trials.per_pair=0", ["trials.per_pair must be at least 1"]),
    ("simulate", "trials.identities=2.7", ["trials.identities must be an integer"]),
    ("simulate", 'allow_degenerate_outage="no"', ["allow_degenerate_outage must be true or false"]),
    ("simulate", "trials.type1_per_identity=5",
     ["'trials.type1_per_identity'", "did you mean 'trials.per_identity'"]),
    ("simulate", 'channel.fading={"type": "rayleigh", "scale": 1.0}',
     ["channel.fading", "awgn channel has no fading"]),
    ("simulate", "channel.type=awgnn", ["channel.type must be one of", "did you mean 'awgn'"]),
    ("simulate", "channel.type=fast-fading", ["a fast-fading channel needs channel.fading"]),
    ("simulate", 'channel.fading={"type": "rician", "shape": 1.0}',
     ["channel.fading: missing required config key 'scale'"]),
    ("simulate", 'codebook.spec={"n": 64.5, "target_size": 20, "distance_exponent": 0.05}',
     ["codebook.spec: n must be an integer, got 64.5"]),
    ("simulate", 'codebook.spec={"n": 64, "target_size": 20, "distance_exponent": 0.05, '
                 '"fourth": 1}', ["codebook.spec: unknown config key 'fourth'"]),
    ("simulate", 'codebook.spec={"n": 1, "target_size": 20, "distance_exponent": 0.05}',
     ["codebook.spec: n must be at least 2, got 1"]),
    ("simulate", "verifier.mode=csi_fast", ["verifier.mode must be one of",
                                            "did you mean 'csi-fast'"]),
    ("simulate", "codebook.type=concatenated", ["codebook.type must be one of",
                                                "did you mean 'concat'"]),
    ("simulate", "codebook.profile=fourth", ["codebook.profile must be one of"]),
    ("simulate", "schema=2", ["schema must be one of 1, got 2"]),
    ("simulate", "channel.sigma2=-1", ["channel.sigma2 must be at least 0, got -1.0"]),
    # outage keys belong to csi-slow, as channel.fading belongs to a fading channel
    ("simulate", "outage_eta=0.3", ["verifier.mode csi-fast has no outage rule; drop outage_eta"]),
    ("simulate", "allow_degenerate_outage=true",
     ["verifier.mode csi-fast has no outage rule", "allow_degenerate_outage"]),
    ("simulate", ("channel.type=slow-fading", f"channel.fading={RAYLEIGH}"),
     ["verifier.mode csi-fast serves awgn or fast-fading channels, not slow-fading; "
      "slow-fading takes csi-slow"]),
    ("bounds", "sigm2=2", ["'sigm2'", "did you mean 'sigma2'"]),
    ("bounds", "snr=NaN", ["snr must be finite"]),
    ("bounds", "lambda.one=0.1", ["'lambda.one'", "did you mean 'lambda"]),
    ("bounds", 'fading={"type": "nakagami", "shape": 0.1, "spread": 1.0}',
     ["fading: Nakagami needs finite shape"]),
    ("bounds", "lambda2=-0.1", ["lambda2 must be at least 0, got -0.1"]),
    # checks that run after the key table name the keys they read
    ("bounds", ("sigma2=-1", "lambda1=0.1"), ["sigma2 must be at least 0, got -1.0"]),
    ("bounds", ("sigma2=0", "lambda1=0.1"), ["lambda1/lambda2/sigma2: sigma must be positive"]),
    ("bounds", ("lambda1=0.6", "lambda2=0.6"),
     ["lambda1/lambda2/sigma2: lambda_sum must lie strictly in (0, 1)"]),
    ("bounds", ('fading={"type": "rayleigh", "scale": 1.0}', "snr=3", "outage_eps=2"),
     ["outage_eps: eps must lie strictly in (0, 1)"]),
    # strictly positive values, and lower bounds in the key table
    ("bounds", "power_bound=0", ["power_bound: must be positive, got 0.0"]),
    ("bounds", "d_min=0", ["d_min: must be positive, got 0.0"]),
    ("bounds", ('fading={"type": "rayleigh", "scale": 1.0}', "snr=0"),
     ["snr: must be positive, got 0.0"]),
    ("bounds", "n=1", ["n must be at least 2, got 1.0"]),
    ("bounds", "log2_size=-1", ["log2_size must be at least 0, got -1.0"]),
    # the reference capacities take a law and an snr (and outage_eps), or none of them
    ("bounds", "outage_eps=2", ["fading/snr: required with outage_eps"]),
    ("bounds", "snr=3", ["fading: required with snr"]),
    ("bounds", 'fading={"type": "rayleigh", "scale": 1.0}', ["snr: required with fading"]),
    ("bounds", ('fading={"type": "rayleigh", "scale": 1.0}', "outage_eps=0.1"),
     ["snr: required with fading/outage_eps"]),
    ("bounds", ("snr=3", "outage_eps=0.1"), ["fading: required with snr/outage_eps"]),
    ("moments", "chunks=5", ["'chunks'", "did you mean 'chunk'"]),
    ("moments", "sigma2=Infinity", ["sigma2 must be finite"]),
    ("moments", 'distributions=[{"type": "rayleigh", "scale": Infinity}]',
     ["distributions[0]: scale must be finite, got inf"]),
    ("moments", 'distributions=[{"type": "constant", "value": 1.0}, {"type": "rayleigh"}]',
     ["distributions[1]: missing required config key 'scale'"]),
    # a law record is checked against the law's own key table
    ("moments", 'distributions=[{"type": "rayleigh", "scale": null}]',
     ["distributions[0]: scale must be a number, got None"]),
    ("moments", 'distributions=[{"type": "rayleigh", "scale": "2"}]',
     ["distributions[0]: scale must be a number, got '2'"]),
    ("moments", 'distributions=[{"type": "discrete", "atoms": 5}]',
     ["distributions[0]: atoms must be a list, got 5"]),
    ("moments", 'distributions=[{"type": "discrete", "atoms": [[1.0]]}]',
     ["distributions[0]: atoms[0]: an atom is a [value, probability] pair, got [1.0]"]),
    ("simulate", 'channel.fading={"type": "rayleigh", "scale": 1.0, "shape": 2.0}',
     ["channel.fading: unknown config key 'shape'"]),
    ("moments", 'distributions=[{"type": "raleigh", "scale": 1.0}]',
     ["distributions[0]: type must be one of", "did you mean 'rayleigh'"]),
    ("moments", "sigma2=-1", ["sigma2 must be at least 0, got -1.0"]),
    ("moments", "vector_power=-1", ["vector_power must be at least 0, got -1.0"]),
    ("moments", "tolerance_sigmas=-1", ["tolerance_sigmas must be at least 0, got -1.0"]),
    ("simulate", "trials.identities=1",
     ["trials.identities must be at least 2 for random pairs, got 1 with "
      "trials.pairs - trials.min_distance_pairs = 1"]),
    ("moments", "draws=0", ["draws must be at least 1"]),
    ("moments", "pair_count=2.7", ["pair_count must be an integer"]),
    ("moments", "mode.csi=true", ["'mode.csi'", "did you mean 'modes'"]),
    ("moments", 'modes=["csi", "nocs"]', ["modes[1] must be one of", "did you mean 'nocsi'"]),
    ("moments", "modes=[]", ["modes has 0 entries, fewer than 1"]),  # else it checks nothing
    ("packing", "projecton.mu=0.5", ["'projecton.mu'", "did you mean 'projection.mu'"]),
    ("packing", "spec.power_bound=NaN", ["spec.power_bound must be finite"]),
    ("packing", "spec.target_size=0", ["spec.target_size must be at least 1"]),
    ("packing", "spec.n=1", ["spec.n must be at least 2, got 1"]),
    ("packing", "projection.sample_count=2.7", ["projection.sample_count must be an integer"]),
    ("packing", "check_projection=no", ["check_projection must be true or false"]),
    ("packing", "spec.fourth=1", ["'spec.fourth'", "did you mean 'spec.fourth_moment_bound'"]),
    ("packing", "profile=norm-concentrate", ["profile must be one of",
                                             "did you mean 'norm-concentrated'"]),
    ("packing", "projection.mode=exhaustiv", ["projection.mode must be one of",
                                              "did you mean 'exhaustive'"]),
    # a fourth-power budget is read by the fourth-moment profile alone
    ("packing", "spec.fourth_moment_bound=0.01",
     ["fourth_moment_bound is read only by profile 'fourth-moment'; profile 'basic'"]),
    ("packing", ("profile=norm-concentrated", "spec.fourth_moment_bound=0.01"),
     ["fourth_moment_bound is read only by profile 'fourth-moment'; "
      "profile 'norm-concentrated'"]),
    ("simulate", 'codebook={"type": "packing", "spec": {"n": 32, "target_size": 20, '
                 '"distance_exponent": 0.05, "fourth_moment_bound": 0.01}}',
     ["fourth_moment_bound is read only by profile 'fourth-moment'; profile 'basic'"]),
    # a law whose mass the quadrature misses has no expectations to offer
    ("bounds", ('fading={"type": "nakagami", "shape": 1e7, "spread": 1.0}', "snr=1"),
     ["nakagami expectations are out of the quadrature's reach"]),
    ("simulate", ("channel.type=fast-fading", "verifier.mode=no-csi",
                  'channel.fading={"type": "rician", "shape": 1e6, "scale": 1.0}'),
     ["rician expectations are out of the quadrature's reach"]),
    ("simulate", 'codebook={"type": "csv", "path": "words.csv"}',
     ["codebook CSV words.csv entry at row 2, column 2 is 'abc', not a number"]),
    ("simulate", 'codebook={"type": "csv", "path": "ragged.csv"}',
     ["codebook CSV ragged.csv is not rectangular: row 2 has length 2, row 1 has length 3"]),
    # seed 1 draws the same one of two identities twice: no random pair can be formed
    ("simulate", 'codebook={"type": "csv", "path": "two.csv"}',
     ["trials.identities = 2 drew one identity only, from a book of 2"]),
    ("simulate", ("channel.type=slow-fading", f"channel.fading={RAYLEIGH}",
                  "verifier.mode=csi-slow", "outage_eta=1.5"),
     ["outage_eta must lie in [0, 1), got 1.5"]),
    ("simulate", ("channel.type=slow-fading", f"channel.fading={RAYLEIGH}",
                  "verifier.mode=csi-slow", "outage_eta=-0.1"),
     ["outage_eta must lie in [0, 1), got -0.1"]),
    ("packing", "projection.mu=1.5", ["projection.mu must lie in (0, 1], got 1.5"]),
    ("packing", "projection.mu=0", ["projection.mu must lie in (0, 1], got 0.0"]),
    # the projection.* keys belong to check_projection, as fourth_moment_bound to its profile
    ("packing", "projection.alpha=5",
     ["projection.alpha is read only with check_projection true"]),
    ("packing", "projection.mode=exhaustive",
     ["projection.mode is read only with check_projection true"]),
    ("packing", ("check_projection=true", "projection.mode=exhaustive"),
     ["projection.mode exhaustive scans every subset, so spec.n must be at most 16, got 32"]),
    ("simulate", "trials.min_distance_pairs=5",
     ["trials.min_distance_pairs = 5 exceeds trials.pairs = 2"]),
]


def _seed(command: str, seed: int) -> list[str]:
    return ["--seed", str(seed)] if "--seed" in TAKES[command] else []


# the runs start in a folder that holds these CSV books
CSV_BOOKS = {"ragged.csv": "1,2,3\n4,5\n", "empty.csv": "", "words.csv": "1,2\n3,abc\n",
             "two.csv": "1,2,3\n-1,0.5,2\n"}


def _sets(command: str, items: list[str], folder, monkeypatch) -> list[str]:
    """--set arguments for items over VALID_ARGS[command], run from folder with
    the CSV_BOOKS: an item replaces the VALID_ARGS items at or under its key."""
    for name, text in CSV_BOOKS.items():
        (folder / name).write_text(text)
    monkeypatch.chdir(folder)
    keys = tuple(item.split("=", 1)[0] + "." for item in items)
    base = [item for item in VALID_ARGS[command]
            if not (item.split("=", 1)[0] + ".").startswith(keys)]
    return [arg for item in base + items for arg in ("--set", item)]


@pytest.mark.parametrize("command,setting,says", BAD_SETTINGS,
                         ids=[f"{c}:{s if isinstance(s, str) else ' '.join(s)}"
                              for c, s, _ in BAD_SETTINGS])
def test_bad_settings_exit_2_naming_the_key(command, setting, says, tmp_path, monkeypatch,
                                            capsys):
    items = [setting] if isinstance(setting, str) else list(setting)
    sets = _sets(command, items, tmp_path, monkeypatch)
    out = tmp_path / "out"
    assert run([command, "--outdir", str(out), *_seed(command, 1), *sets]) == 2
    err = capsys.readouterr().err
    for text in says:
        assert text in err
    assert "Traceback" not in err
    assert not out.exists()  # refused before writing anything


def test_projection_keys_without_the_check_are_refused_before_sampling(tmp_path, monkeypatch,
                                                                       capsys):
    def no_sampling(*args):
        raise AssertionError("the packing was sampled")

    monkeypatch.setattr("dicode.cli.generate_expurgated", no_sampling)
    sets = _sets("packing", ["projection.alpha=5"], tmp_path, monkeypatch)
    assert run(["packing", "--outdir", str(tmp_path / "out"), "--seed", "1", *sets]) == 2
    err = capsys.readouterr().err
    assert "projection.alpha" in err and "check_projection" in err
    assert not (tmp_path / "out").exists()


# (field, value) for the library, and the --set item that asks the CLI for the same
GRID_DRIFT = [("n", 8.5, "n=8.5"), ("draws", True, "draws=true"), ("seed", -1, "seed=-1"),
              ("sigma2", -1.0, "sigma2=-1.0"), ("modes", ("csi-fast",), 'modes=["csi-fast"]')]
SIMULATE_DRIFT = [("workers", 0, "workers=0"), ("identities", 0, "trials.identities=0"),
                  ("min_distance_pairs", 5, "trials.min_distance_pairs=5")]
PLAN_DRIFT = [("field_seed", -1, "field_seed=-1"), ("n", 3, "n=3"), ("n", True, "n=true"),
              ("power_bound", "1", 'power_bound="1"'), ("eps1", math.nan, "eps1=NaN"),
              ("power_bound", True, "power_bound=true"), ("a", "0.02", 'a="0.02"')]
SPEC_DRIFT = [("seed", -1, "spec.seed=-1"), ("n", 1, "spec.n=1"),
              ("target_size", 0, "spec.target_size=0"),
              ("power_bound", True, "spec.power_bound=true"),
              ("distance_exponent", "0.05", 'spec.distance_exponent="0.05"'),
              ("fourth_moment_bound", math.inf, "spec.fourth_moment_bound=Infinity")]

# the --set item that fixes the seed a subcommand would otherwise draw
SEEDED = {"simulate": "seed=1", "moments": "seed=1", "packing": "spec.seed=1"}


def _cli_refusal(command, setting, folder, monkeypatch, capsys) -> str:
    """What `dicode <command>` says, after its prefix, refusing setting (one --set item
    or a tuple of them) over VALID_ARGS."""
    seeded = [SEEDED[command]] if command in SEEDED else []
    items = [setting] if isinstance(setting, str) else list(setting)
    sets = _sets(command, [*seeded, *items], folder, monkeypatch)  # setting may set the seed
    assert run([command, "--outdir", str(folder / "out"), *sets]) == 2
    assert not (folder / "out").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err[len("error: "):].strip()


@pytest.mark.parametrize("field,value,setting", GRID_DRIFT, ids=[s for *_, s in GRID_DRIFT])
def test_the_moment_grid_refuses_what_dicode_moments_refuses(field, value, setting, tmp_path,
                                                             monkeypatch, capsys):
    said = _cli_refusal("moments", setting, tmp_path, monkeypatch, capsys)
    kw = {"distributions": (Constant(1.0),), "n": 16, "draws": 1000, "pair_count": 1}
    with pytest.raises(ValueError) as exc:
        MomentGridConfig(**{**kw, field: value})
    assert str(exc.value) == f"moment grid {said}"


@pytest.mark.parametrize("field,value,setting", SIMULATE_DRIFT,
                         ids=[s for *_, s in SIMULATE_DRIFT])
def test_experiment_configs_refuse_what_dicode_simulate_refuses(field, value, setting, tmp_path,
                                                                monkeypatch, capsys):
    said = _cli_refusal("simulate", setting, tmp_path, monkeypatch, capsys)
    exp = ExperimentConfig.from_dict(_parse_set(VALID_ARGS["simulate"]))
    with pytest.raises(ValueError) as exc:
        dataclasses.replace(exp, **{field: value})
    assert str(exc.value) == said


@pytest.mark.parametrize("field,value,setting", PLAN_DRIFT, ids=[s for *_, s in PLAN_DRIFT])
def test_the_planner_refuses_what_dicode_construct_refuses(field, value, setting, tmp_path,
                                                           monkeypatch, capsys):
    said = _cli_refusal("construct", setting, tmp_path, monkeypatch, capsys)
    with pytest.raises(ValueError) as exc:
        plan_params(**{"n": 500, "a": 0.02, field: value})
    assert str(exc.value) == said
    plan = plan_params(n=500, a=0.02)  # and a record built by hand from its stored values
    stored = {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan) if f.init}
    with pytest.raises(ValueError) as exc:
        ConcatParams(**{**stored, field: value})
    assert str(exc.value) == said


@pytest.mark.parametrize("field,value,setting", SPEC_DRIFT, ids=[s for *_, s in SPEC_DRIFT])
def test_packing_specs_refuse_what_dicode_packing_refuses(field, value, setting, tmp_path,
                                                          monkeypatch, capsys):
    said = _cli_refusal("packing", setting, tmp_path, monkeypatch, capsys)
    assert said.startswith("spec.")
    with pytest.raises(ValueError) as exc:  # the spec's defaults are the table's
        PackingSpec(**{"n": 32, "target_size": 20, "distance_exponent": 0.05, field: value})
    assert str(exc.value) == f"packing spec {said[len('spec.'):]}"


# (argument, value) for check_projection_property, and the --set items that ask
# `dicode packing` for the same scan
PROJECTION_DRIFT = [("mu", 1.5, "projection.mu=1.5"), ("mu", 0, "projection.mu=0"),
                    ("alpha", math.nan, "projection.alpha=NaN"),
                    ("mode", "exhaustiv", "projection.mode=exhaustiv"),
                    ("mode", "exhaustive", "projection.mode=exhaustive"),
                    ("sample_count", 0, "projection.sample_count=0"),
                    ("sample_count", 2.7, "projection.sample_count=2.7")]


@pytest.mark.parametrize("field,value,setting", PROJECTION_DRIFT,
                         ids=[s for *_, s in PROJECTION_DRIFT])
def test_the_projection_scan_refuses_what_dicode_packing_refuses(field, value, setting, tmp_path,
                                                                 monkeypatch, capsys):
    said = _cli_refusal("packing", ("check_projection=true", setting), tmp_path, monkeypatch,
                        capsys)
    with pytest.raises(ValueError) as exc:  # vectors of dimension 32, as the run's spec.n
        check_projection_property([[0.0] * 32, [1.0] * 32], **{field: value})
    assert str(exc.value) == said


def test_hand_built_plan_records_refuse_the_field_seed_dicode_construct_refuses(
        tmp_path, monkeypatch, capsys):
    said = _cli_refusal("construct", "field_seed=-1", tmp_path, monkeypatch, capsys)
    plan = plan_params(n=500, a=0.02)
    stored = {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan) if f.init}
    with pytest.raises(ValueError) as exc:
        ConcatParams(**{**stored, "field_seed": -1})
    assert str(exc.value) == said


# a law or channel built by hand, and the --set item that asks `dicode moments`
# (a law) or `dicode simulate` (a channel) for the same
RECORD_DRIFT = {
    "rayleigh-bool": (lambda: Rayleigh(True), '[{"type": "rayleigh", "scale": true}]'),
    "nakagami-string": (lambda: Nakagami("2", 1.0),
                        '[{"type": "nakagami", "shape": "2", "spread": 1.0}]'),
    "rician-inf": (lambda: Rician(1.0, math.inf),
                   '[{"type": "rician", "shape": 1.0, "scale": Infinity}]'),
    "constant-nan": (lambda: Constant(math.nan), '[{"type": "constant", "value": NaN}]'),
    "discrete-no-atom": (lambda: DiscreteMixture(()), '[{"type": "discrete", "atoms": []}]'),
    "awgn-bool": (lambda: Awgn(True), "channel.sigma2=true"),
    "fast-string": (lambda: FastFading(Constant(1.0), "1"), 'channel.sigma2="1"'),
    "slow-negative": (lambda: SlowFading(Constant(1.0), -1.0), "channel.sigma2=-1.0"),
}


@pytest.mark.parametrize("name", RECORD_DRIFT)
def test_hand_built_laws_and_channels_refuse_what_the_cli_refuses(name, tmp_path, monkeypatch,
                                                                  capsys):
    build, setting = RECORD_DRIFT[name]
    law = setting.startswith("[")
    said = _cli_refusal("moments" if law else "simulate",
                        f"distributions={setting}" if law else setting, tmp_path, monkeypatch,
                        capsys)
    with pytest.raises(ValueError) as exc:
        build()
    assert said == ("distributions[0]: " if law else "channel.") + str(exc.value)


def test_the_planner_plans_an_integral_float_as_dicode_construct_does(tmp_path, monkeypatch,
                                                                      capsys):
    sets = _sets("construct", ["n=500.0", "a=0.02"], tmp_path, monkeypatch)
    assert run(["construct", "--outdir", str(tmp_path / "out"), *sets]) == 0
    capsys.readouterr()
    plan = plan_params(n=500.0, a=0.02)
    assert (plan.n, plan.n2, plan.k2) == (500, 125, 113)
    # a record built by hand with its counts as floats and power_bound as an int, too
    stored = {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan) if f.init}
    swapped = {name: float(v) if isinstance(v, int) else int(v) if v.is_integer() else v
               for name, v in stored.items()}
    assert (swapped["n"], swapped["q1"], swapped["power_bound"]) == (500.0, 4.0, 1)
    written = (tmp_path / "out" / "params.json").read_text()
    for record in (plan, ConcatParams(**swapped)):
        assert json.dumps(record.to_json_dict(), indent=2, sort_keys=True) + "\n" == written
        assert len(ConcatCodebook(record).encode(0)) == 500


def test_the_moment_grid_holds_the_values_dicode_moments_runs(tmp_path, monkeypatch, capsys):
    sets = _sets("moments", ["draws=2000.0", "sigma2=1", "seed=1"], tmp_path, monkeypatch)
    assert run(["moments", "--outdir", str(tmp_path / "out"), *sets]) == 0
    capsys.readouterr()
    grid = MomentGridConfig(distributions=[Constant(1.0)], n=16, draws=2000.0, pair_count=1,
                            sigma2=1, modes=list(GRID_MODES), seed=1)
    assert (grid.draws, grid.sigma2, grid.modes) == (2000, 1.0, tuple(GRID_MODES))
    assert type(grid.draws) is int and type(grid.sigma2) is float
    assert isinstance(grid.distributions, tuple)
    resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
    assert json.dumps(grid.to_dict(), sort_keys=True) == json.dumps(resolved, sort_keys=True)
    ran = json.loads((tmp_path / "out" / "moments.json").read_text())
    assert [dataclasses.asdict(r) for r in moment_validation(grid).rows] == ran["rows"]


@pytest.mark.parametrize("command", sorted(VALID_ARGS))
def test_bad_setting_bases_are_valid(command, tmp_path):
    sets = [arg for item in VALID_ARGS[command] for arg in ("--set", item)]
    assert run([command, "--outdir", str(tmp_path), *_seed(command, 1), *sets]) == 0


# (subcommand, --set items over its VALID_ARGS, as _sets takes them): a bad
# key, a bad record and a plan or value the run itself refuses; none may
# leave --outdir behind.
REFUSALS = [
    ("construct", ["eps=0.5"]),
    ("construct", ["n=20", "a=0.015"]),
    ("simulate", ["workerz=2"]),
    ("simulate", ["channel.type=fast-fading"]),
    ("simulate", ['codebook.spec={"n": 64.5, "target_size": 20, "distance_exponent": 0.05}']),
    ("simulate", ["codebook.n=20", "codebook.a=0.015"]),
    ("simulate", ["verifier.mode=csi-slow"]),
    ("simulate", ["channel.sigma2=-1"]),
    ("simulate", ["outage_eta=0.3", "allow_degenerate_outage=true"]),
    ("simulate", ["channel.type=slow-fading", f"channel.fading={RAYLEIGH}"]),
    ("simulate", ['codebook={"type": "csv", "path": "ragged.csv"}']),
    ("simulate", ['codebook={"type": "csv", "path": "empty.csv"}']),
    ("simulate", ['codebook={"type": "csv", "path": "words.csv"}']),
    ("bounds", ["sigm2=2"]),
    ("bounds", ['fading={"type": "rayleigh", "scale": Infinity}']),
    ("bounds", ["d_min=0"]),
    ("moments", ["chunks=5"]),
    ("moments", ['distributions=[{"type": "rayleigh", "scale": Infinity}]']),
    ("moments", ["sigma2=-1"]),
    ("packing", ["projecton.mu=0.5"]),
    ("packing", ["spec.sampling_power=2.0"]),
    ("packing", ["spec.n=16", "spec.target_size=40", "spec.power_bound=0.01",
                 "spec.sampling_power=0.005", "spec.distance_exponent=0.24"]),
]


@pytest.mark.parametrize("command,settings", REFUSALS,
                         ids=[f"{c}:{' '.join(s)}" for c, s in REFUSALS])
def test_refused_runs_create_no_outdir(command, settings, tmp_path, monkeypatch, capsys):
    sets = _sets(command, settings, tmp_path, monkeypatch)
    out = tmp_path / "out"
    assert run([command, "--outdir", str(out), *_seed(command, 1), *sets]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


# the (channel type, verifier mode) pairs a simulate run takes; every other pair exits 2
SERVED = {("awgn", "csi-fast"), ("awgn", "no-csi"), ("slow-fading", "csi-slow"),
          ("fast-fading", "csi-fast"), ("fast-fading", "no-csi")}


@pytest.mark.parametrize("channel,mode", list(itertools.product(CHANNELS, VERIFIERS)),
                         ids=[f"{c}/{m}" for c, m in itertools.product(CHANNELS, VERIFIERS)])
def test_each_channel_runs_the_verifiers_it_serves_and_refuses_the_rest(channel, mode, tmp_path,
                                                                         capsys):
    # a small packing book, which no-csi thresholds were validated for
    sets = [f"channel.type={channel}", f"verifier.mode={mode}", "codebook.type=packing",
            'codebook.spec={"n": 32, "target_size": 20, "distance_exponent": 0.05}',
            "trials.identities=2", "trials.per_identity=2", "trials.pairs=2", "trials.per_pair=2",
            "trials.min_distance_pairs=1"]
    if channel != "awgn":
        sets.append(f"channel.fading={RAYLEIGH}")
    if mode == "csi-slow":
        sets.append("outage_eta=0.1")  # so only the channel can be wrong
    out = tmp_path / "out"
    code = run(["simulate", "--outdir", str(out), "--seed", "1",
                *[arg for item in sets for arg in ("--set", item)]])
    err = capsys.readouterr().err
    if (channel, mode) in SERVED:
        assert code == 0, err
        config = json.loads((out / "report.json").read_text())["results"]["config"]
        assert (config["channel"]["type"], config["verifier"]["mode"]) == (channel, mode)
    else:
        assert code == 2 and not out.exists()
        assert f"verifier.mode {mode} serves" in err and f"channels, not {channel};" in err


def test_channel_verifier_and_grid_choices_are_their_tables_keys_in_order():
    # --help lists the choices in this order; only the tables name them
    assert CONFIG_KEYS["channel.type"].choices == tuple(CHANNELS) == (
        "awgn", "slow-fading", "fast-fading")
    assert CONFIG_KEYS["verifier.mode"].choices == tuple(VERIFIERS) == (
        "csi-fast", "csi-slow", "no-csi")
    assert MOMENTS_KEYS["modes"].choices == tuple(GRID_MODES) == ("csi", "nocsi")
    assert set(GRID_MODES.values()) <= set(VERIFIERS)


def test_an_unexpected_key_error_exits_1_with_a_traceback(tmp_path, monkeypatch, capsys):
    def broken(exp):
        raise KeyError("fading")

    monkeypatch.setattr("dicode.cli.run_experiment", broken)
    sets = [arg for item in VALID_ARGS["simulate"] for arg in ("--set", item)]
    assert run(["simulate", "--outdir", str(tmp_path / "out"), "--seed", "1", *sets]) == 1
    err = capsys.readouterr().err
    assert "Traceback" in err and "KeyError: 'fading'" in err
    assert not (tmp_path / "out").exists()


SPEC_RECORD = {"n": 64, "target_size": 20, "distance_exponent": 0.05, "seed": 4}
SIM_TRIALS = [item for item in VALID_ARGS["simulate"] if item.startswith("trials.")]


@pytest.mark.parametrize("change,refused", [
    ({}, None),  # power_bound and sampling_power default to 1.0 and 0.5
    ({"n": 64.0}, None),
    ({"n": 64.5}, "n"),
    ({"target_size": "10"}, "target_size"),
    ({"fourth": 1.0}, "fourth"),
], ids=["defaults", "n=64.0", "n=64.5", "target_size=str", "unknown"])
def test_packing_and_simulate_take_the_same_spec_records(change, refused, tmp_path, capsys):
    record = {**SPEC_RECORD, **change}
    pk, sim = tmp_path / "packing", tmp_path / "simulate"
    code_pk = run(["packing", "--outdir", str(pk), "--set", f"spec={json.dumps(record)}"])
    err_pk = capsys.readouterr().err
    code_sim = run(["simulate", "--outdir", str(sim), "--seed", "1",
                    "--set", f"codebook={json.dumps({'type': 'packing', 'spec': record})}",
                    "--set", "channel.type=awgn",
                    *[arg for item in SIM_TRIALS for arg in ("--set", item)]])
    err_sim = capsys.readouterr().err
    if refused:
        assert code_pk == code_sim == 2
        assert f"spec.{refused}" in err_pk
        assert "codebook.spec: " in err_sim and refused in err_sim
        assert not pk.exists() and not sim.exists()
        return
    assert code_pk == code_sim == 0
    sidecar = json.loads((pk / "vectors.csv.spec.json").read_text())
    built = json.loads((sim / "report.json").read_text())["results"]["codebook"]
    assert sidecar == {**built["spec"], "profile": built["profile"]}
    assert (sidecar["n"], sidecar["power_bound"], sidecar["sampling_power"]) == (64, 1.0, 0.5)
    assert type(sidecar["n"]) is int
    assert json.loads((pk / "report.json").read_text())["survivors"] == built["survivors"]


def test_simulate_resolved_config_round_trips(tmp_path):
    cfg = {"channel": {"type": "slow-fading", "sigma2": 0.25,
                       "fading": {"type": "discrete", "atoms": [[0.0, 0.3], [1.0, 0.7]]}},
           "codebook": {"type": "concat", "n": 500, "a": 0.02},
           "verifier": {"mode": "csi-slow"}, "outage_eta": 0.4,
           "trials": {"identities": 3, "per_identity": 4, "pairs": 3,
                      "per_pair": 3, "min_distance_pairs": 1}}
    first, second = tmp_path / "first", tmp_path / "second"
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(["simulate", "--config", str(tmp_path / "cfg.json"), "--seed", "4",
                "--outdir", str(first)]) == 0
    assert run(["simulate", "--config", str(first / "resolved_config.json"),
                "--outdir", str(second)]) == 0
    results = [json.dumps(json.loads((d / "report.json").read_text())["results"],
                          sort_keys=True, indent=1) for d in (first, second)]
    assert results[0] == results[1]
    assert ((first / "resolved_config.json").read_text()
            == (second / "resolved_config.json").read_text())


def _dotted_keys(cfg: dict, table: dict, prefix: str = "") -> set:
    """The table keys a config sets; a record-valued key counts as one."""
    keys = set()
    for name, value in cfg.items():
        path = prefix + name
        if isinstance(value, dict) and path not in table:
            keys |= _dotted_keys(value, table, path + ".")
        else:
            keys.add(path)
    return keys


# subcommand -> (--set arguments that leave most keys at their defaults,
# the output files a re-run must reproduce)
ECHO_CASES = {
    "construct": (["n=500", "a=0.02", "export_codewords=2"], ["params.json", "codewords.csv"]),
    "bounds": (["n=1024", "log2_size=512", "lambda1=0.025", "lambda2=0.025",
                'fading={"type": "rayleigh", "scale": 1.0}', "snr=10.0"], ["bounds.json"]),
    "moments": (['distributions=[{"type": "constant", "value": 1.0}, '
                 '{"type": "discrete", "atoms": [[0.0, 0.3], [1.0, 0.7]]}]', "n=8",
                 "draws=3000", "chunk=700"], ["rows"]),
    "packing": (["spec.n=32", "spec.target_size=20", "spec.power_bound=4.0",
                 "spec.sampling_power=2.0", "spec.distance_exponent=0.05"],
                ["report.json", "vectors.csv", "vectors.csv.spec.json"]),
}


def _outputs(outdir, names):
    if names == ["rows"]:  # moments.json also holds timings
        return json.loads((outdir / "moments.json").read_text())["rows"]
    return [(outdir / name).read_text() for name in names]


@pytest.mark.parametrize("command", sorted(ECHO_CASES))
def test_resolved_config_lists_every_key_and_reruns_the_same(command, tmp_path):
    sets, outputs = ECHO_CASES[command]
    first, second = tmp_path / "first", tmp_path / "second"
    assert run([command, "--outdir", str(first), *_seed(command, 6),
                *[arg for item in sets for arg in ("--set", item)]]) == 0
    echo = json.loads((first / "resolved_config.json").read_text())
    table = COMMANDS[command][2]
    assert _dotted_keys(echo, table) == set(table)
    assert run([command, "--config", str(first / "resolved_config.json"),
                "--outdir", str(second)]) == 0
    assert _outputs(first, outputs) == _outputs(second, outputs)
    assert ((first / "resolved_config.json").read_text()
            == (second / "resolved_config.json").read_text())


def test_resolved_config_holds_the_defaults_the_run_used(tmp_path):
    assert run(["construct", "--outdir", str(tmp_path), "--set", "n=500", "--set", "a=0.02",
                "--set", "export_codewords=2"]) == 0
    echo = json.loads((tmp_path / "resolved_config.json").read_text())
    assert echo == {"n": 500, "a": 0.02, "export_codewords": 2, "power_bound": 1.0,
                    "eps1": 0.1, "eps2": 0.1, "field_seed": 0}
    assert run(["moments", "--outdir", str(tmp_path), "--seed", "2", "--set",
                'distributions=[{"type": "rayleigh", "scale": 1.0}]', "--set", "draws=100"]) == 0
    echo = json.loads((tmp_path / "resolved_config.json").read_text())
    assert echo == {"distributions": [{"type": "rayleigh", "scale": 1.0}],
                    "modes": ["csi", "nocsi"], "n": 64, "draws": 100, "sigma2": 1.0,
                    "pair_count": 3, "vector_power": 1.0, "seed": 2, "chunk": 20_000,
                    "tolerance_sigmas": 4.0}


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_configs_pass_their_key_tables():
    (sim_json,) = _readme_blocks("json")
    ExperimentConfig.from_dict(json.loads(sim_json))
    commands = [shlex.split(line) for block in _readme_blocks("sh")
                for line in block.splitlines() if line.startswith("dicode ")]
    assert sorted({words[1] for words in commands}) == sorted(COMMANDS)
    for words in commands:
        cfg = _parse_set([value for flag, value in zip(words, words[1:]) if flag == "--set"])
        if "--config" in words:
            cfg = _deep_merge(json.loads(sim_json), cfg)
        resolve(cfg, COMMANDS[words[1]][2])


def test_readme_library_example_runs(capsys):
    (example,) = _readme_blocks("python")
    exec(example, {})
    rate = float(capsys.readouterr().out.strip())
    assert 0.0 <= rate <= 1.0
