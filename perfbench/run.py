"""dicode benchmark runner.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test

Run from the root of a dicode checkout.  Every measured run is a fresh
child process, one at a time, against the sources in ``src/``:

* ``--trace 0``: ``setup_s`` is the median of SETUP_REPEATS children that
  import dicode and build the workload's inputs without running them.
  Then untraced runs repeat while another one fits in ``--seconds``;
  ``wall_s``, ``peak_rss_mb`` and ``throughput`` are medians over them.
* ``--trace 1``: untraced and traced runs alternate in the same way, at
  least one of each; a traced run wraps every dicode layer in spans (see
  tracer.py) and the per-layer metrics are medians over the traced runs.

Every run's outputs are checked (see workloads.py).  A run that exits
non-zero, times out or fails a check counts in ``failed``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine facts, every run and, when tracing, the per-layer table.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

from workloads import DEFAULT_SEED, WORKLOADS, check, cli_argv, recorded_digest

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150.0
SELF_SUM_TOLERANCE = 0.05

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "throughput": "items/s"}
# spans reported with calls, busy and self time
SPAN_METRICS = ("galois.vmul", "galois.vadd", "rs.encode_digits", "rs.encode_batch",
                "codebook.encode", "codebook.close_partner", "fading.sample",
                "channel.transmit", "decoder.verify", "decoder.impostor_moments")
DICODE_MODULES = ("galois", "rs", "codebook", "packing", "fading", "channel", "decoder",
                  "bounds", "errors", "harness", "cli")


def per_layer_units() -> dict:
    units = {}
    for span in SPAN_METRICS:
        units.update({f"{span}.calls": "count", f"{span}.busy_s": "s", f"{span}.self_s": "s"})
    units.update({
        "galois.build_s": "s",
        "codebook.plan_params.s": "s",
        "codebook.build_s": "s",
        "codebook.encode.ms_per_codeword": "ms",
        "packing.generate_expurgated.s": "s",
        "packing.keep_ratio": "ratio",
        "fading.moments.s": "s",
        "harness.run_experiment.self_s": "s",
        "harness.trial_us": "us",
        "harness.moment_validation.self_s": "s",
        "harness.write_text_atomic.calls": "count",
        "harness.write_text_atomic.bytes": "B",
        "harness.write_text_atomic.s": "s",
        "cli.main.self_s": "s",
        "bounds.self_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


# ---------------------------------------------------------------------------
# facts


def machine_facts(root: str) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        import numpy as np

        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        blas = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the checkout need not be a git repository
    sources = sorted(glob.glob(os.path.join(root, "src", "dicode", "*.py")))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        lines += data.count(b"\n")

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "blas": blas,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
        "git_commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines,
    }


# ---------------------------------------------------------------------------
# child processes


class Spawner:
    """Runs child processes one at a time against ``<root>/src``."""

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, self.env.get("PYTHONPATH")) if p)
        # keep the interpreter's default int-to-str limit, so an identity
        # too long to print fails here as it does for a user
        self.env.pop("PYTHONINTMAXSTRDIGITS", None)
        self.count = 0

    def __call__(self, argv: list[str]) -> dict:
        """Run argv; returns wall_s, exit code, peak RSS and the log path."""
        self.count += 1
        log_path = os.path.join(self.workdir, f"child-{self.count}.log")
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=log, stderr=subprocess.STDOUT)
            lock = threading.Lock()
            state = {"done": False, "timed_out": False}

            def kill():
                with lock:
                    if not state["done"]:
                        state["timed_out"] = True
                        proc.kill()

            timer = threading.Timer(CHILD_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                with lock:
                    state["done"] = True
            finally:
                timer.cancel()
                timer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall_s": wall, "code": proc.returncode, "timed_out": state["timed_out"],
                "rss_mb": usage.ru_maxrss / 1024.0, "log": log_path}


def log_tail(path: str, lines: int = 15) -> str:
    with open(path, encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


class Bench:
    """One workload at one seed and size, run inside a scratch directory."""

    def __init__(self, workload, seed: int, root: str, workdir: str, tiny: bool = False):
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.cfg = workload.config(tiny)
        self.cfg_path = os.path.join(workdir, "config.json")
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            json.dump(self.cfg, fh, indent=1)
        self.workdir = workdir
        self.spawn = Spawner(root, workdir)
        self.runs: list[dict] = []
        self.setups: list[dict] = []

    def setup(self) -> dict:
        res = self.spawn([sys.executable, CHILD, "setup", self.workload.name,
                          self.cfg_path, str(self.seed)])
        res["problems"] = [] if res["code"] == 0 else [f"setup exited {res['code']}"]
        self.setups.append(res)
        return res

    def run(self, traced: bool) -> dict:
        i = len(self.runs) + 1
        outdir = os.path.join(self.workdir, f"run-{i}")
        os.mkdir(outdir)
        args = [self.cfg_path, str(self.seed), outdir]
        trace_path = os.path.join(self.workdir, f"trace-{i}.json")
        if traced or self.workload.kind == "library":
            argv = [sys.executable, CHILD, "run", self.workload.name, *args]
            if traced:
                argv += ["--trace-out", trace_path, "--spawned-at", repr(time.perf_counter())]
        else:
            argv = [sys.executable, "-m", "dicode.cli",
                    *cli_argv(self.workload, self.cfg_path, self.seed, outdir)]
        res = self.spawn(argv)
        res["traced"] = traced
        if res["code"] != 0 or res["timed_out"]:
            res["problems"] = [f"exit code {res['code']}" + (" (timed out)" if res["timed_out"] else "")]
            res["digest"], res["items"] = None, 0
        else:
            outcome = check(self.workload, self.cfg, outdir)
            res.update(problems=outcome.problems + self.digest_problems(outcome.digest),
                       digest=outcome.digest, items=outcome.items)
        if traced and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                res["trace"] = json.load(fh)
        shutil.rmtree(outdir, ignore_errors=True)
        self.runs.append(res)
        return res

    def digest_problems(self, digest: str | None) -> list[str]:
        """Runs of one seed must agree byte for byte, and at the default
        seed they must reproduce the digest recorded for the workload."""
        earlier = next((r["digest"] for r in self.runs if r["digest"]), None)
        if earlier is not None and digest != earlier:
            return [f"output digest {digest} differs from an earlier run's {earlier}"]
        if self.seed == DEFAULT_SEED and not self.tiny:
            want = recorded_digest(self.workload.name)
            if digest != want:
                return [f"output digest {digest} != recorded {want}"]
        return []


# ---------------------------------------------------------------------------
# metrics


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(bench: Bench) -> dict:
    runs = [r for r in bench.runs if not r["traced"]]
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(r["wall_s"] for r in bench.setups),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs),
        "throughput": statistics.median(r["items"] / r["wall_s"] for r in runs),
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


def layer_values(trace: dict) -> dict:
    spans, counters = trace["spans"], trace["counters"]

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    out = {}
    for span in SPAN_METRICS:
        for field in ("calls", "busy_s", "self_s"):
            out[f"{span}.{field}"] = get(span, field)
    encodes = get("codebook.encode", "calls")
    trials = get("channel.transmit", "calls")
    sampled = counters.get("packing.sampled", 0)
    out.update({
        "galois.build_s": get("galois.make_field", "busy_s") + get("galois.make_extension", "busy_s"),
        "codebook.plan_params.s": get("codebook.plan_params", "busy_s"),
        "codebook.build_s": get("codebook.build", "busy_s"),
        "codebook.encode.ms_per_codeword":
            1e3 * get("codebook.encode", "busy_s") / encodes if encodes else 0.0,
        "packing.generate_expurgated.s": get("packing.generate_expurgated", "busy_s"),
        "packing.keep_ratio": counters.get("packing.survivors", 0) / sampled if sampled else 0.0,
        "fading.moments.s": get("fading.moments", "busy_s"),
        "harness.run_experiment.self_s": get("harness.run_experiment", "self_s"),
        "harness.trial_us": 1e6 * get("harness.trials", "busy_s") / trials if trials else 0.0,
        "harness.moment_validation.self_s": get("harness.moment_validation", "self_s"),
        "harness.write_text_atomic.calls": get("harness.write_text_atomic", "calls"),
        "harness.write_text_atomic.bytes": counters.get("harness.write_text_atomic.bytes", 0),
        "harness.write_text_atomic.s": get("harness.write_text_atomic", "busy_s"),
        "cli.main.self_s": get("cli.main", "self_s"),
        "bounds.self_s": sum(v["self_s"] for k, v in spans.items() if k.startswith("bounds.")),
    })
    return out


def per_layer_metrics(bench: Bench) -> dict:
    traced = [r for r in bench.runs if r["traced"] and "trace" in r]
    plain = [r for r in bench.runs if not r["traced"]]
    units = per_layer_units()
    rows = [layer_values(r["trace"]) for r in traced]
    metrics = {name: _metric(statistics.median(row[name] for row in rows), units[name])
               for name in rows[0]}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_s"] = _metric(
        traced_wall - statistics.median(r["wall_s"] for r in plain), "s")
    return metrics


def self_time_sum(trace: dict) -> float:
    return sum(v["self_s"] for v in trace["spans"].values())


def print_trace_table(run: dict) -> None:
    """Print one traced run's spans, module shares and top layer."""
    spans = run["trace"]["spans"]
    wall = run["wall_s"]
    print(f"trace: wall {wall:.3f} s, self times sum to {self_time_sum(run['trace']):.3f} s")
    print(f"  {'span':32s} {'calls':>9s} {'busy_s':>10s} {'self_s':>10s} {'self%':>7s}")
    for name, v in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:32s} {v['calls']:9d} {v['busy_s']:10.4f} {v['self_s']:10.4f} "
              f"{100 * v['self_s'] / wall:6.2f}%")
    shares = {m: sum(v["self_s"] for k, v in spans.items() if k.split(".")[0] == m)
              for m in DICODE_MODULES}
    print("  module self shares: " + ", ".join(
        f"{m} {100 * s / wall:.2f}%" for m, s in shares.items()))
    layers = {k: v for k, v in spans.items() if not k.startswith("bench.")}
    print(f"  top self time: {max(layers, key=lambda k: layers[k]['self_s'])}")


# ---------------------------------------------------------------------------
# entry points


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    if not trace:
        for _ in range(SETUP_REPEATS):
            res = bench.setup()
            print(f"setup: {res['wall_s']:.4f} s, exit {res['code']}")
    t0 = time.perf_counter()
    while True:
        plain = sum(not r["traced"] for r in bench.runs)
        traced = len(bench.runs) - plain
        if plain and (traced or not trace):
            # start another run only if a typical one still fits the window
            typical = statistics.median(r["wall_s"] for r in bench.runs)
            if time.perf_counter() - t0 + typical > seconds:
                break
        res = bench.run(traced=trace and traced < plain)
        print(f"run {len(bench.runs)}{' traced' if res['traced'] else ''}: "
              f"{res['wall_s']:.4f} s, peak RSS {res['rss_mb']:.1f} MB, "
              f"{res['items']} {bench.workload.item}"
              + ("" if not res["problems"] else f", FAILED: {'; '.join(res['problems'])}"))
        if res["problems"]:
            sys.stderr.write(log_tail(res["log"]))
    failed = sum(bool(r["problems"]) for r in bench.runs + bench.setups)
    digests = sorted({r["digest"] for r in bench.runs if r["digest"]})
    print(f"output digest: {', '.join(digests) or 'none'}")
    if trace:
        print_trace_table([r for r in bench.runs if r["traced"]][-1])
        metrics = per_layer_metrics(bench)
    else:
        metrics = end_to_end_metrics(bench)
    return {"correct": failed == 0, "attempted": len(bench.runs + bench.setups),
            "failed": failed, "metrics": metrics}


def self_test(root: str) -> int:
    """Tiny versions of every workload: metric names and units match
    BENCHMARK.json, outputs pass their checks, and on single-worker
    workloads the traced self times add up to the traced wall time."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if want_layer != per_layer_units():
        problems.append("BENCHMARK.json per-layer metrics differ from run.py")
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=work_root(root)) as workdir:
            bench = Bench(workload, DEFAULT_SEED, root, workdir, tiny=True)
            bench.setup()
            bench.run(traced=False)
            traced = bench.run(traced=True)
            found = [f"{name}: {p}" for r in bench.runs + bench.setups for p in r["problems"]]
            if not found:
                e2e = {k: v["unit"] for k, v in end_to_end_metrics(bench).items()}
                if e2e != want_e2e:
                    found.append(f"{name}: end-to-end metrics {e2e} != {want_e2e}")
                layer = {k: v["unit"] for k, v in per_layer_metrics(bench).items()}
                if layer != want_layer:
                    found.append(f"{name}: per-layer metric names or units differ")
                total = self_time_sum(traced["trace"])
                gap = abs(total - traced["wall_s"]) / traced["wall_s"]
                if workload.config(True).get("workers", 1) == 1 and gap > SELF_SUM_TOLERANCE:
                    found.append(f"{name}: self times sum to {total:.3f} s, "
                                 f"traced wall {traced['wall_s']:.3f} s")
                print(f"{name}: wall {bench.runs[0]['wall_s']:.3f} s, traced "
                      f"{traced['wall_s']:.3f} s, self-time gap {100 * gap:.1f}%")
            for p in found:
                print(f"FAIL {p}")
            problems += found
    print("self-test: " + ("PASS" if not problems else f"FAIL ({len(problems)} problems)"))
    return 0 if not problems else 1


def work_root(root: str) -> str:
    path = os.path.join(root, ".bench_work")
    os.makedirs(path, exist_ok=True)
    return path


def remove_work_root(root: str) -> None:
    try:
        os.rmdir(os.path.join(root, ".bench_work"))
    except OSError:
        pass  # not empty: another run is using it


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="dicode benchmark runner")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dicode", "__init__.py")):
        print("error: run from the root of a dicode checkout (no src/dicode here)",
              file=sys.stderr)
        return 2
    if args.self_test:
        try:
            return self_test(root)
        finally:
            remove_work_root(root)
    if args.workload is None:
        parser.error("--workload is required")
    print("facts: " + json.dumps(machine_facts(root), sort_keys=True))
    workdir = tempfile.mkdtemp(dir=work_root(root))
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, root, workdir)
        result = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        remove_work_root(root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
