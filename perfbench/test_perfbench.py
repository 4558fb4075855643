"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import time

import pytest

from child import documented_keys
from tracer import Tracer
from workloads import WORKLOADS, undocumented_keys


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("tiny", [False, True])
def test_workload_configs_use_only_documented_keys(name, tiny):
    workload = WORKLOADS[name]
    assert undocumented_keys(workload.config(tiny), documented_keys(workload)) == []


def test_undocumented_keys_names_what_the_help_table_lacks():
    from dicode.harness import CONFIG_KEYS

    cfg = {"channel": {"type": "awgn", "fading": {"type": "rayleigh"}},
           "trials": {"identities": 2, "type1_per_identity": 5}}
    assert undocumented_keys(cfg, CONFIG_KEYS) == ["trials.type1_per_identity"]


def test_self_times_add_up_to_the_root_span():
    tracer = Tracer()

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        traced_inner()
        traced_inner()

    traced_inner = tracer.wrap("inner", inner)
    traced_outer = tracer.wrap("outer", outer)
    with tracer.span("root"):
        traced_outer()
    spans = tracer.snapshot()["spans"]
    assert spans["inner"]["calls"] == 2 and spans["outer"]["calls"] == 1
    assert spans["outer"]["self_s"] == pytest.approx(
        spans["outer"]["busy_s"] - spans["inner"]["busy_s"])
    assert sum(s["self_s"] for s in spans.values()) == pytest.approx(spans["root"]["busy_s"])
    assert spans["inner"]["self_s"] >= 0.02
