"""Config key tables and the strict records and constructors behind them.

The CLI-level behaviour (exit code 2 naming the key) is covered in
test_cli.py; here the resolver and the library checks are tested
directly.
"""

import dataclasses
import math

import pytest

from dicode.channel import Awgn, FastFading, SlowFading
from dicode.codebook import AmplitudeAlphabet, plan_params
from dicode.config import NUMBER, Key, resolve
from dicode.fading import Constant, DiscreteMixture, Nakagami, Rayleigh, Rician, parse_distribution
from dicode.harness import ExperimentConfig, build_codebook
from dicode.packing import PackingSpec

TABLE = {
    "count": Key(int, "a count", min=1),
    "scale": Key(float, "a float"),
    "flag": Key(bool, "a bool", default=False),
    "group.mode": Key(str, "a string", default="fast"),
    "group.limit": Key(NUMBER, "kept as given", default=None),
    "group.law": Key(dict, "a record"),
    "items": Key(list, "a list", min=1, required=True),
}


def test_resolve_types_nests_and_fills_table_defaults():
    out = resolve({"count": 3.0, "scale": 2, "items": [1], "group": {"limit": 12}}, TABLE)
    assert out == {"count": 3, "scale": 2.0, "flag": False, "items": [1],
                   "group": {"mode": "fast", "limit": 12}}
    assert type(out["count"]) is int and type(out["scale"]) is float
    assert type(out["group"]["limit"]) is int      # NUMBER keeps what it was given
    assert resolve({"items": [1], "group": {"limit": None}}, TABLE)["group"]["limit"] is None


@pytest.mark.parametrize("cfg,message", [
    ({"items": [1], "cont": 2}, "unknown config key 'cont' (did you mean 'count'?)"),
    ({"items": [1], "group": {"mod": "x"}}, "'group.mod' (did you mean 'group.mode'?)"),
    ({"items": [1], "grup": {"mode": "x"}}, "'grup.mode' (did you mean 'group.mode'?)"),
    ({"items": [1], "group": 3}, "group must be a record"),
    ({"items": [1], "count": 2.7}, "count must be an integer"),
    ({"items": [1], "count": True}, "count must be an integer"),
    ({"items": [1], "count": 0}, "count must be at least 1"),
    ({"items": [1], "scale": math.nan}, "scale must be finite"),
    ({"items": [1], "scale": "1.0"}, "scale must be a number"),
    ({"items": [1], "flag": "no"}, "flag must be true or false"),
    ({"items": [1], "flag": 1}, "flag must be true or false"),
    ({"items": [1], "count": None}, "count must be an integer, got None"),
    ({"items": [1], "group": {"law": [1]}}, "group.law must be a record"),
    ({"items": []}, "items has 0 entries, fewer than 1"),
    ({}, "missing required config key 'items'"),
])
def test_resolve_refuses_and_names_the_key(cfg, message):
    with pytest.raises(ValueError) as exc:
        resolve(cfg, TABLE)
    assert message in str(exc.value)


def test_resolve_under_a_prefix_sees_only_that_group():
    assert resolve({"mode": "slow"}, TABLE, "group.") == {"mode": "slow", "limit": None}
    with pytest.raises(ValueError, match="'group.count'"):
        resolve({"count": 1}, TABLE, "group.")


@pytest.mark.parametrize("build", [
    lambda: Awgn(math.nan),
    lambda: SlowFading(Constant(1.0), math.nan),
    lambda: FastFading(Constant(1.0), math.nan),
    lambda: Constant(math.nan),
    lambda: Rayleigh(math.nan),
    lambda: Rician(math.nan, 1.0),
    lambda: Rician(1.0, math.nan),
    lambda: Nakagami(math.nan, 1.0),
    lambda: Nakagami(1.0, math.nan),
    lambda: DiscreteMixture(((1.0, math.nan),)),
    lambda: AmplitudeAlphabet(4, math.nan),
    lambda: dataclasses.replace(plan_params(n=500, a=0.02), power_bound=math.nan),
], ids=["awgn", "slow", "fast", "constant", "rayleigh", "rician-shape", "rician-scale",
        "nakagami-shape", "nakagami-spread", "discrete", "alphabet", "concat-params"])
def test_constructors_refuse_nan(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("record", [
    {"type": "constant", "value": 1, "scal": 3},
    {"type": "rayleigh"},
    {"type": "rician", "shape": 1.0, "scale": 1.0, "spread": 1.0},
    {"type": "discrete", "atoms": [[1.0, 1.0]], "value": 1.0},
    [{"type": "constant", "value": 1.0}],
])
def test_fading_records_take_exactly_their_parameters(record):
    with pytest.raises(ValueError):
        parse_distribution(record)


SPEC = {"n": 32, "target_size": 20, "power_bound": 4.0, "sampling_power": 2.0,
        "distance_exponent": 0.05, "seed": 1}


def test_packing_spec_records_refuse_unknown_fields():
    with pytest.raises(ValueError, match="fourth"):
        PackingSpec.from_json_dict({**SPEC, "fourth": 3.0, "schema": 1})
    with pytest.raises(ValueError, match="codebook.profile"):
        build_codebook({"type": "packing", "spec": {**SPEC, "profile": "basic"}})


@pytest.mark.parametrize("codebook,message", [
    ({"type": "concat", "n": 500, "a": 0.02, "path": "x.csv"},
     "a concat codebook takes no codebook.path"),
    ({"type": "concat", "a": 0.02}, "a concat codebook needs codebook.n"),
    ({"type": "packing", "spec": SPEC, "n": 500}, "a packing codebook takes no codebook.n"),
    ({"type": "csv"}, "a csv codebook needs codebook.path"),
    ({"type": "concat", "n": 500, "a": 0.02, "eps": 0.2}, "did you mean 'codebook.eps"),
])
def test_codebook_records_take_the_keys_of_their_type(codebook, message):
    cfg = {"channel": {"type": "awgn"}, "codebook": codebook}
    with pytest.raises(ValueError) as exc:
        ExperimentConfig.from_dict(cfg)
    assert message in str(exc.value)


def test_experiment_config_keeps_the_codebook_record_as_given():
    codebook = {"type": "concat", "n": 500.0, "a": 0.02, "power_bound": 1}
    exp = ExperimentConfig.from_dict({"channel": {"type": "awgn"}, "codebook": codebook})
    assert exp.codebook == codebook and type(exp.codebook["n"]) is float
    assert exp.to_dict()["codebook"] == codebook
    _, summary = build_codebook(exp.codebook)
    assert summary["params"]["n"] == 500 and summary["params"]["power_bound"] == 1.0
