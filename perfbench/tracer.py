"""Outside-in span tracing of the dicode layers.

The tracer wraps public functions and methods of the dicode modules from
here, after they are imported, so no file under ``src/`` carries any
instrumentation.  Each wrapped call is a span: its duration is added to
the span's busy time, and to the child time of the enclosing span on the
same thread.  Self time is busy time minus child time, so on a single
thread the self times of all spans add up to the outermost span.

Module-level functions are replaced in every ``dicode`` module that bound
them (``from .channel import transmit`` copies the reference), and
methods are replaced on the class that defines them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from contextlib import contextmanager

# span name -> (module, attribute paths).  An attribute path is "func" or
# "Class.method".  Several paths under one name feed one span.
SPANS = {
    "galois.make_field": ("dicode.galois", ["make_field"]),
    "galois.make_extension": ("dicode.galois", ["make_extension"]),
    "galois.vmul": ("dicode.galois", ["ExtensionContext.vmul"]),
    "galois.vadd": ("dicode.galois", ["ExtensionContext.vadd"]),
    "rs.encode_digits": ("dicode.rs", ["RSCode.encode_digits"]),
    "rs.encode_batch": ("dicode.rs", ["RSCode.encode_batch"]),
    "codebook.plan_params": ("dicode.codebook", ["plan_params"]),
    "codebook.build": ("dicode.codebook", ["ConcatCodebook.__init__"]),
    "codebook.encode": ("dicode.codebook", ["ConcatCodebook.encode"]),
    "codebook.close_partner": ("dicode.codebook", ["ConcatCodebook.close_partner"]),
    "packing.generate_expurgated": ("dicode.packing", ["generate_expurgated"]),
    "fading.sample": ("dicode.fading", ["*.sample"]),
    "fading.moments": ("dicode.fading", ["*.moments"]),
    "channel.transmit": ("dicode.channel", ["transmit"]),
    "decoder.verify": ("dicode.decoder", ["CsiFast.verify", "CsiSlow.verify", "NoCsi.verify"]),
    "decoder.impostor_moments": ("dicode.decoder", ["impostor_moments"]),
    "harness.build_codebook": ("dicode.harness", ["build_codebook"]),
    "harness.run_experiment": ("dicode.harness", ["run_experiment"]),
    # the trial phase of run_experiment: every type-I and type-II slot
    "harness.trials": ("dicode.harness", ["_map_slots"]),
    "harness.moment_validation": ("dicode.harness", ["moment_validation"]),
    "harness.write_text_atomic": ("dicode.harness", ["write_text_atomic"]),
    "cli.main": ("dicode.cli", ["main"]),
}
# Modules whose every public function becomes a span "<module>.<func>".
WHOLE_MODULES = ("dicode.bounds",)


class Tracer:
    """Per-span call counts, busy and self seconds, plus named counters."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, busy_s, self_s]
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, start: float | None = None) -> tuple[list, list, float]:
        stack = self._stack()
        frame = [0.0]  # time spent in child spans
        stack.append(frame)
        return stack, frame, time.perf_counter() if start is None else start

    def _exit(self, name: str, stack: list, frame: list, t0: float) -> None:
        dt = time.perf_counter() - t0
        stack.pop()
        if stack:
            stack[-1][0] += dt
        with self._lock:
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dt
            entry[2] += dt - frame[0]

    @contextmanager
    def span(self, name: str, start: float | None = None):
        """A span around a block; ``start`` backdates it to a perf_counter
        reading, which on Linux is comparable across processes."""
        stack, frame, t0 = self._enter(start)
        try:
            yield
        finally:
            self._exit(name, stack, frame, t0)

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, name: str, fn, on_call=None):
        def traced(*args, **kwargs):
            stack, frame, t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, stack, frame, t0)
            if on_call is not None:
                on_call(self, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "spans": {k: {"calls": v[0], "busy_s": v[1], "self_s": v[2]}
                          for k, v in self.stats.items()},
                "counters": dict(self.counters),
            }


def _count_written_bytes(tracer, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.count("harness.write_text_atomic.bytes", len(text.encode("utf-8")))


def _count_expurgation(tracer, args, kwargs, result):
    _vectors, report = result
    tracer.count("packing.sampled", report.sampled)
    tracer.count("packing.survivors", report.survivors)


ON_CALL = {
    "harness.write_text_atomic": _count_written_bytes,
    "packing.generate_expurgated": _count_expurgation,
}


def _rebind_function(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "dicode" or mod_name.startswith("dicode.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _classes_in(module) -> list:
    return [c for c in vars(module).values()
            if inspect.isclass(c) and c.__module__ == module.__name__]


def install(tracer: Tracer) -> None:
    """Import every traced module and replace its targets with spans."""
    targets = []
    for name, (mod_name, paths) in SPANS.items():
        module = importlib.import_module(mod_name)
        for path in paths:
            owner_name, _, attr = path.rpartition(".")
            if owner_name == "*":
                owners = [c for c in _classes_in(module) if attr in vars(c)]
            elif owner_name:
                owners = [getattr(module, owner_name)]
            else:
                owners = [None]
            for owner in owners:
                targets.append((name, module, owner, attr))
    for mod_name in WHOLE_MODULES:
        module = importlib.import_module(mod_name)
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and value.__module__ == mod_name):
                short = mod_name.rpartition(".")[2]
                targets.append((f"{short}.{attr}", module, None, attr))
    for name, module, owner, attr in targets:
        if owner is None:
            original = getattr(module, attr)
            _rebind_function(original, tracer.wrap(name, original, ON_CALL.get(name)))
        else:
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(name, original, ON_CALL.get(name)))
