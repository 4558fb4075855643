"""Config key tables and the strict records and constructors behind them.

The CLI-level behaviour (exit code 2 naming the key) is covered in
test_cli.py; here the resolver and the library checks are tested
directly.
"""

import dataclasses
import json
import math
import re

import pytest

from dicode.channel import CHANNELS, SIGMA2, Awgn, FastFading, SlowFading, parse_channel
from dicode.codebook import ConcatParams, plan_params
from dicode.config import NUMBER, Key, owned_defaults, resolve
from dicode.decoder import VERIFIERS
from dicode.fading import Constant, DiscreteMixture, Nakagami, Rayleigh, Rician, parse_distribution
from dicode.harness import CONFIG_KEYS, MOMENTS_KEYS, ExperimentConfig, build_codebook
from dicode.packing import PackingSpec, parse_spec

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


def _half(x):
    if x < 0:
        raise ValueError(f"{x} is negative")
    return x / 2


PARSED = {"law": Key(dict, "a record", parse=lambda r: _half(r["x"])),
          "laws": Key(list, "records", parse=lambda r: _half(r["x"]))}


def test_resolve_builds_records_and_names_the_path_of_a_refused_one():
    assert resolve({"law": {"x": 4}, "laws": [{"x": 2}, {"x": 6}]}, PARSED) == {
        "law": 2.0, "laws": [1.0, 3.0]}
    with pytest.raises(ValueError, match=r"^law: -1 is negative$"):
        resolve({"law": {"x": -1}}, PARSED)
    with pytest.raises(ValueError, match=r"^laws\[1\]: -2 is negative$"):
        resolve({"laws": [{"x": 2}, {"x": -2}]}, PARSED)
    with pytest.raises(ValueError, match=r"^law must be a record"):
        resolve({"law": [1]}, PARSED)  # the type check runs before the parse


def test_resolve_under_a_prefix_sees_only_that_group():
    assert resolve({"mode": "slow"}, TABLE, "group.") == {"mode": "slow", "limit": None}
    with pytest.raises(ValueError, match="'group.count'"):
        resolve({"count": 1}, TABLE, "group.")


def test_owned_defaults_reads_each_default_from_the_constructor_that_owns_it():
    def build(n, size=3, mode="sampled"):
        pass

    table = {"n": Key(int, "count"), "group.size": Key(int, "size"),
             "mode": Key(str, "mode", default="exhaustive"), "other": Key(int, "no argument")}
    owned = owned_defaults(build, table)
    assert [owned[k].default for k in ("group.size", "mode")] == [3, "sampled"]
    assert owned["n"] == table["n"] and owned["other"] == table["other"]  # nothing to read
    assert resolve({"n": 1}, owned) == {"n": 1, "group": {"size": 3}, "mode": "sampled"}


def test_simulate_defaults_read_from_one_class_are_every_class_default():
    # both tables hold channel.SIGMA2, which every channel checks against;
    # CONFIG_KEYS reads deviation_scale from CsiFast
    assert CONFIG_KEYS["channel.sigma2"] == MOMENTS_KEYS["sigma2"] == SIGMA2
    sigma2 = CONFIG_KEYS["channel.sigma2"].default
    scale = CONFIG_KEYS["verifier.deviation_scale"].default
    assert [parse_channel({"type": kind, "fading": Constant(1.0)} if model.FADING_DIMS else
                          {"type": kind}).sigma2 for kind, model in CHANNELS.items()] == [sigma2] * 3
    for verifier in VERIFIERS.values():
        assert {f.name: f.default for f in dataclasses.fields(verifier)}["deviation_scale"] == scale


def test_bounds_reads_sigma2_from_the_one_noise_variance_key():
    # `dicode bounds` keeps its own help text only
    from dicode.cli import BOUNDS_KEYS

    key = BOUNDS_KEYS["sigma2"]
    assert (key.type, key.min, key.default) == (SIGMA2.type, SIGMA2.min, SIGMA2.default)
    assert key == dataclasses.replace(SIGMA2, help=key.help) and key.help != SIGMA2.help


# each builder takes the one value under test, as the field its refusals name
BUILDERS = {
    "awgn": ("sigma2", lambda x: Awgn(x)),
    "slow": ("sigma2", lambda x: SlowFading(Constant(1.0), x)),
    "fast": ("sigma2", lambda x: FastFading(Constant(1.0), x)),
    "constant": ("value", lambda x: Constant(x)),
    "rayleigh": ("scale", lambda x: Rayleigh(x)),
    "rician-shape": ("shape", lambda x: Rician(x, 1.0)),
    "rician-scale": ("scale", lambda x: Rician(1.0, x)),
    "nakagami-shape": ("shape", lambda x: Nakagami(x, 1.0)),
    "nakagami-spread": ("spread", lambda x: Nakagami(1.0, x)),
    "discrete": ("atoms[0]: probability", lambda x: DiscreteMixture(((1.0, x),))),
    "concat-params": ("power_bound", lambda x: _concat_params(x)),
}


def _concat_params(power_bound):
    return dataclasses.replace(plan_params(n=500, a=0.02), power_bound=power_bound)


def _echo(record) -> str:
    """The record as a run writes it: params.json for a plan, else its config."""
    is_plan = isinstance(record, ConcatParams)
    return json.dumps(record.to_json_dict() if is_plan else record.to_config(), sort_keys=True)


NON_FINITE = [(name, x) for x in (math.nan, math.inf, -math.inf) for name in BUILDERS]


@pytest.mark.parametrize("name,value", NON_FINITE,  # ids: "awgn" (NaN), "awgn-inf", "awgn--inf"
                         ids=[n if math.isnan(x) else f"{n}-{x}" for n, x in NON_FINITE])
def test_constructors_refuse_nan(name, value):
    field, build = BUILDERS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be finite, got {value!r}$"):
        build(value)


@pytest.mark.parametrize("value", [True, "1"], ids=["bool", "string"])
@pytest.mark.parametrize("name", BUILDERS)
def test_constructors_refuse_what_is_not_a_number_with_the_table_text(name, value):
    # as `dicode simulate` or `moments` refuses the field, after its record's path
    field, build = BUILDERS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be a number, got {value!r}$"):
        build(value)


@pytest.mark.parametrize("name", BUILDERS)
def test_constructors_keep_an_int_as_the_float_their_table_resolves(name):
    # Rayleigh(1) holds and writes 1.0, as `--set` of a 1 does
    build = BUILDERS[name][1]
    assert _echo(build(1)) == _echo(build(1.0))


@pytest.mark.parametrize("record", [
    {"type": "constant", "value": 1, "scal": 3},
    {"type": "rayleigh"},
    {"type": "rician", "shape": 1.0, "scale": 1.0, "spread": 1.0},
    {"type": "discrete", "atoms": [[1.0, 1.0]], "value": 1.0},
    [{"type": "constant", "value": 1.0}],
    {"scale": 1.0},
    {"type": "rayleigh", "scale": None},
    {"type": "rayleigh", "scale": "2"},
    {"type": "constant", "value": True},
    {"type": "discrete", "atoms": [[1.0, 0.5, 0.5]]},
    {"type": "discrete", "atoms": [["1", 1.0]]},
    {"type": "discrete", "atoms": []},
])
def test_fading_records_take_exactly_their_parameters(record):
    with pytest.raises(ValueError):
        parse_distribution(record)


SPEC = {"n": 32, "target_size": 20, "power_bound": 4.0, "sampling_power": 2.0,
        "distance_exponent": 0.05, "seed": 1}


def test_packing_spec_records_refuse_unknown_fields():
    # the projection fields are never read, so a record cannot set them
    for field in ("fourth", "profile", "projection_fraction", "projection_exponent", "schema"):
        with pytest.raises(ValueError, match=f"unknown config key '{field}'"):
            parse_spec({**SPEC, field: 3.0})
        with pytest.raises(ValueError, match=f"^codebook.spec: unknown config key '{field}'"):
            build_codebook({"type": "packing", "spec": {**SPEC, field: 3.0}})


@pytest.mark.parametrize("field,value", [
    ("n", 32.0), ("n", True), ("target_size", "10"), ("seed", 1.0), ("seed", None),
    ("power_bound", math.inf), ("sampling_power", math.nan), ("distance_exponent", "0.05"),
    ("fourth_moment_bound", -math.inf)])
def test_packing_spec_refuses_non_integer_counts_and_non_finite_reals(field, value):
    cfg = {"channel": {"type": "awgn"}, "codebook": {
        "type": "packing", "spec": {**SPEC, field: value}}}
    if isinstance(value, float) and value.is_integer():  # counts take integral floats
        held = getattr(PackingSpec(**{**SPEC, field: value}), field)
        assert type(held) is int and held == int(value)
        assert build_codebook(cfg["codebook"])[1]["spec"][field] == int(value)
        return
    with pytest.raises(ValueError, match=f"packing spec {field} must be"):
        PackingSpec(**{**SPEC, field: value})
    with pytest.raises(ValueError, match=f"^codebook.spec: {field} must be"):
        ExperimentConfig.from_dict(cfg)


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
