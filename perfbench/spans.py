"""Span recording around the package's public functions, and span aggregation.

The child installs a Tracer before its job starts.  Each public function of
a layer module (the names in its ``__all__``, plus the CLI helpers listed in
``EXTRA_PUBLIC``) is replaced by a wrapper, both in its own module and in
every package module that imported it by name, so calls from one layer into
another nest as child spans.  No source file of the package changes.

A span is (name, start, end, parent span index, error flag); the job id is
added by the parent when it collects the spans of a job.  Spans stay in
memory until the job ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("lattice", "phasespace", "geomphase", "effective", "oracle", "mbqc", "cli")

# public helpers that a layer does not list in __all__ but a metric names
EXTRA_PUBLIC = {"cli": ("generated_cluster_patch",)}

# per-call work counters taken from arguments or results
_COUNTERS = {
    # complex128 state vector read and written once per single-qubit gate
    "effective.apply_single_qubit": (
        "bytes_computed",
        lambda args, kwargs, result: 16 * 2 ** (args[0] if args else kwargs["reg"]).n_qubits,
    ),
    "oracle.echo_evolve": ("rk4_steps", lambda args, kwargs, result: result.steps),
}


class Tracer:
    """Wraps the layers' public functions and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def install(self) -> None:
        modules = [importlib.import_module(f"cavitycluster.{layer}") for layer in LAYERS]
        namespaces = modules + [sys.modules["cavitycluster"]]
        for layer, module in zip(LAYERS, modules):
            names = list(getattr(module, "__all__", ())) + list(EXTRA_PUBLIC.get(layer, ()))
            for name in names:
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapped)

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                key = f"{name}.{counter[0]}"
                self.counters[key] = self.counters.get(key, 0) + counter[1](args, kwargs, result)
            return result

        return wrapper


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per function name: calls, errors, total_s and self_s.

    A span's self time is its duration minus the durations of its direct
    children; the job is one thread, so children never overlap each other.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, error) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["errors"] += int(error)
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_time[i]
    return out
