"""Span tracing of the qelicit layers, installed from outside the package.

``Tracer.install`` wraps the public functions of every ``qelicit``
module (its ``__all__``) and the constructors and public methods of its
public classes, then rebinds each wrapped name in every module that
holds it, so calls between modules and inside a module are both seen.
Nothing under ``src/`` is edited; the wrapping lasts for the process.

A span is (name, start, end, parent).  Spans are kept in memory in flat
typed arrays and written out once, when the run ends.  A layer is a
module; its self time is the time its spans do not spend in child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "linalg", "extended", "classical", "measurement", "scores",
    "reports", "registry", "properties", "markets", "cli",
)

# json_safe recurses once per element of a report; tracing it would bury
# the CLI's JSON output under per-element spans, so it stays in its caller.
UNTRACED = {("reports", "json_safe")}

CHECKS = ("truthfulness_check", "unitary_invariance_check", "implementability_check")
CALLS = (
    "linalg.as_density", "linalg.spectral_decompose", "linalg.hs_inner",
    "extended.ext_dot", "extended.matrix_log", "extended.ExtendedHermitian",
    "classical.rule", "measurement.apply_measurement", "measurement.Measurement",
    "registry.make", "scores.expected_score", "reports.run_trials",
    "properties.expected", "markets.trade", "markets.lmsr_cost", "cli.main",
)
SELF_TIMES = (
    "linalg.as_density", "linalg.spectral_decompose", "linalg.hs_inner",
    "measurement.apply_measurement", "measurement.canonical_complete",
    "registry.make", "scores.expected_score", "reports.run_trials",
)
# Taken from a traced set-up rather than from the traced rounds.
SETUP_METRICS = (
    "measurement.canonical_complete.self_s", "registry.make.calls",
    "registry.make.self_s", "registry.self_s",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts = {"outcomes": 0, "trials": 0, "violations": 0}
        self.check_trials = {name: 0 for name in CHECKS}

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return traced

    def _count_outcomes(self, args, out):
        self.counts["outcomes"] += len(out)

    def _count_check(self, name):
        def after(args, report):
            self.counts["trials"] += report.trials
            self.counts["violations"] += report.n_violations
            self.check_trials[name] += report.trials
        return after

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public callables and rebind them package-wide."""
        modules = {layer: sys.modules[f"qelicit.{layer}"] for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if (layer, attr) in UNTRACED or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    after = None
                    if attr == "apply_measurement":
                        after = self._count_outcomes
                    elif attr in CHECKS:
                        after = self._count_check(attr)
                    replaced[id(obj)] = self.wrap(f"{layer}.{attr}", obj, after)
        for mod in [m for n, m in sys.modules.items() if n == "qelicit" or n.startswith("qelicit.")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and not attr.startswith("__"):
                    setattr(mod, attr, replaced[id(obj)])
        self._wrap_registry_factories(modules["registry"])
        self.reset()  # drop spans recorded while wrapping

    def reset(self) -> None:
        """Drop the spans and counts recorded so far."""
        for buf in (self.name_id, self.parent, self.start, self.end):
            del buf[:]
        self.counts = dict.fromkeys(self.counts, 0)
        self.check_trials = dict.fromkeys(self.check_trials, 0)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr == "__init__":
                name = f"{layer}.{cls.__name__}"
            elif attr == "__call__":
                name = f"{layer}.rule" if layer == "classical" else f"{layer}.{cls.__name__}.call"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{layer}.{attr}"
            if isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, member.__func__)))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(name, member))

    def _wrap_registry_factories(self, registry) -> None:
        # The registries hold factories in data, not as module names.
        for key, entry in list(registry.SCORE_REGISTRY.items()):
            registry.SCORE_REGISTRY[key] = dataclasses.replace(
                entry, make=self.wrap("registry.make", entry.make))
        for entry in registry.PROPERTY_REGISTRY.values():
            for slot in ("property", "score"):
                if entry[slot] is not None:
                    entry[slot] = self.wrap("registry.make", entry[slot])

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict:
        """Calls, self time and latency figures per span name and per layer."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        self_s = dur - np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))

        def mask(pred):
            return np.array([pred(n) for n in self.names], dtype=bool)[a["name_id"]]

        def pct(m, q, scale):
            return float(np.percentile(dur[m], q) * scale) if m.any() else 0.0

        trials = self.counts["trials"]
        m = {
            "measurement.outcomes": self.counts["outcomes"],
            "scores.check.trials": trials,
            "scores.check.violations": self.counts["violations"],
            "trace.spans": len(dur),
        }
        for name in CALLS:
            m[f"{name}.calls"] = int(mask(lambda n: n == name).sum())
        for name in SELF_TIMES:
            m[f"{name}.self_s"] = float(self_s[mask(lambda n: n == name)].sum())
        for name in ("linalg.as_density", "linalg.spectral_decompose"):
            m[f"{name}.per_trial"] = m[f"{name}.calls"] / trials if trials else 0.0
        for layer in LAYERS:
            m[f"{layer}.self_s"] = float(self_s[mask(lambda n: n.startswith(layer + "."))].sum())
        for name in CHECKS:
            spent = float(dur[mask(lambda n: n == f"scores.{name}")].sum())
            m[f"scores.{name}.trials_per_s"] = self.check_trials[name] / spent if spent else 0.0
        expected = mask(lambda n: n == "scores.expected_score")
        m["scores.expected_score.p50_us"] = pct(expected, 50, 1e6)
        m["scores.expected_score.p99_us"] = pct(expected, 99, 1e6)
        optimize = mask(lambda n: n.startswith("properties.optimize_"))
        m["properties.optimize.calls"] = int(optimize.sum())
        m["properties.optimize.self_s"] = float(self_s[optimize].sum())
        m["properties.optimize.p50_ms"] = pct(optimize, 50, 1e3)
        m["properties.witness.self_s"] = float(self_s[mask(lambda n: n.endswith("level_set_witness"))].sum())
        return m
