"""What importing dicode costs, and what the benchmark tracer finds in it.

Both run in a fresh interpreter: a module an earlier test imported would
hide a heavy import, and the tracer replaces functions for good.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _python(code: str, *paths: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(os.path.join(ROOT, p) for p in paths)}
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("module", ["dicode.cli", "dicode.harness", "dicode.codebook"])
def test_importing_dicode_leaves_scipy_unloaded(module):
    # scipy is only for the Rician and Nakagami laws and the ergodic
    # capacity; loading it costs about a second and 70 MB
    out = _python(f"import sys, {module}; print('scipy' in sys.modules)", "src")
    assert out.strip() == "False"


def test_building_a_code_loads_no_fading_law():
    # codebook reaches bounds only for di_rate; the laws load where a capacity needs one
    out = _python("import sys, dicode.codebook; print('dicode.fading' in sys.modules)", "src")
    assert out.strip() == "False"


def test_importing_dicode_loads_neither_numpy_nor_a_submodule():
    # the package root re-exports nothing: names come from the submodules
    out = _python("import sys, dicode; print(sorted(m for m in sys.modules "
                  "if m == 'numpy' or m.startswith('dicode.')))", "src")
    assert out.strip() == "[]"


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_importing_dicode_defaults_openblas_to_one_thread_unless_set(preset):
    # dicode's BLAS products are small and its trial loop has its own
    # workers; an OpenBLAS pool's spinning threads only take their cores
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    if preset:
        env[preset] = "2"
    code = f"import json, os, dicode; print(json.dumps([os.environ.get(k) for k in {BLAS_THREADS}]))"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    got = dict(zip(BLAS_THREADS, json.loads(done.stdout)))
    want = {k: None for k in BLAS_THREADS}
    want.update({preset: "2"} if preset else {"OPENBLAS_NUM_THREADS": "1"})
    assert got == want


TRACED_RUN = """
import json
from tracer import Tracer, install

tracer = Tracer()
install(tracer)  # resolves every traced function and method by name

from dicode.harness import ExperimentConfig, run_experiment

run_experiment(ExperimentConfig.from_dict({
    "channel": {"type": "fast-fading", "sigma2": 1.0,
                "fading": {"type": "discrete", "atoms": [[0.5, 0.5], [1.5, 0.5]]}},
    "codebook": {"type": "packing", "profile": "norm-concentrated",
                 "spec": {"n": 64, "target_size": 16, "power_bound": 4.0,
                          "sampling_power": 2.0, "distance_exponent": 0.05, "seed": 3}},
    "verifier": {"mode": "no-csi"},
    "trials": {"identities": 3, "per_identity": 5, "pairs": 4, "per_pair": 5,
               "min_distance_pairs": 1},
}))
print(json.dumps({k: v["calls"] for k, v in tracer.snapshot()["spans"].items()}))
"""


def test_benchmark_tracer_installs_and_sees_one_call_per_block():
    calls = json.loads(_python(TRACED_RUN, "src", "perfbench").splitlines()[-1])
    # 3 genuine and 4 impostor slots of one block each; thresholds once
    # per verified codeword, which is at most one per identity and partner
    assert calls["harness.trials"] == 1
    assert calls["channel.transmit"] == calls["decoder.verify"] == 7
    assert 1 <= calls["decoder.impostor_moments"] <= 4


ONE_RUN = """
import sys
from dicode.harness import ExperimentConfig, run_experiment

run_experiment(ExperimentConfig.from_dict({
    "channel": {"type": "awgn"},
    "codebook": {"type": "packing",
                 "spec": {"n": 32, "target_size": 20, "distance_exponent": 0.05, "seed": 1}},
    "verifier": {"mode": "csi-fast"},
    "trials": {"identities": 3, "per_identity": 5, "pairs": 4, "per_pair": 5,
               "min_distance_pairs": 1},
    "workers": %d,
}))
print("concurrent.futures" in sys.modules, "logging" in sys.modules)
"""


@pytest.mark.parametrize("workers,loaded", [(1, False), (2, True)])
def test_only_a_run_on_threads_loads_the_thread_pool(workers, loaded):
    # a one-worker run has no use for concurrent.futures, or for the logging
    # it imports, and so loads neither
    out = _python(ONE_RUN % workers, "src")
    assert out.strip() == f"{loaded} {loaded}"
