"""Spans around the public entry points of each positroid_lab layer.

The tracer rebinds each listed function in every ``positroid_lab`` module
namespace that holds it (modules import names with ``from .exact import
det``), so calls made inside the library are seen too.  Spans are
(name, start, end, parent) tuples kept in memory and written out at the
end; a layer's self time is its spans' durations minus the time their
child spans cover.  A listed name that the library no longer has is
reported as absent, with zero calls.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from importlib import import_module

# Public entry points per layer; ``Class.method`` wraps a method.
TARGETS = {
    "exact": ["det", "rank", "kernel_basis"],
    "grassmann": ["plucker_of_matrix", "decorated_permutation_of", "matrix_of_plucker"],
    "cells": ["matrix_realization", "positroid_catalog", "positroid_of_perm"],
    "plabic": ["trip_permutation", "matchings", "positroid_of_graph", "boundary_measurement"],
    "triangulations": ["enumerate_subdivisions"],
    "hypersimplex": ["tile_catalog", "enumerate_tilings", "verify_tiling"],
    "trop": ["regular_subdivision", "argmin_face", "faces_are_positroids",
             "positivity_violation"],
    "amplituhedron": ["amp_map", "tile_membership_m2", "w_chamber_membership",
                      "sample_interior_point", "verify_amp_tiling_m2"],
    "cluster": ["Seed.evaluate", "build_seed"],
    "cli": ["main"],
}


def load_layers() -> None:
    """Import every layer module that this version of the library has."""
    for layer in TARGETS:
        try:
            import_module(f"positroid_lab.{layer}")
        except ModuleNotFoundError:
            pass
# det calls are also counted per calling module, for these callers.
DET_CALLERS = ["amplituhedron", "grassmann"]


def _matrix_key(M):
    return (M.rows, M.cols, tuple(M.row(i) for i in range(M.rows)))


def _det_key(args, kwargs):
    return _matrix_key(args[0] if args else kwargs["M"])


def _sample_point_key(args, kwargs):
    k, n, Z, rng = args
    return (k, n, _matrix_key(Z.mat), hash(rng.getstate()))


# Distinct-input ratios: metric name -> (span name, calling module or None, key).
DISTINCT = {
    "exact.det.distinct_ratio": ("exact.det", None, _det_key),
    "amplituhedron.twistor.distinct_ratio": ("exact.det", "amplituhedron", _det_key),
    "amplituhedron.sample_interior_point.distinct_ratio":
        ("amplituhedron.sample_interior_point", None, _sample_point_key),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = {m: set() for m in DISTINCT}
        self.key_calls: Counter = Counter()
        self.absent: list[str] = []
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str):
        return _Span(self, self._name_id(name))

    def _wrap(self, name: str, fn, caller: str):
        nid = self._name_id(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        det_counter = (f"{caller}.det_calls"
                       if name == "exact.det" and caller in DET_CALLERS else None)
        keyed = [(m, key) for m, (span_name, who, key) in DISTINCT.items()
                 if span_name == name and who in (None, caller)]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if det_counter:
                counts[det_counter] += 1
            for metric, key in keyed:
                if metric in self.absent:
                    continue
                try:
                    self.keys[metric].add(key(args, kwargs))
                except Exception:
                    # The signature changed: report the ratio as absent.
                    self.absent.append(metric)
                    continue
                self.key_calls[metric] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (nid, t0, clock(), parent)
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> None:
        """Wrap every target in every loaded positroid_lab module."""
        modules = {name.rpartition(".")[2]: mod for name, mod in list(sys.modules.items())
                   if name.startswith("positroid_lab.") and mod is not None}
        for layer, attrs in TARGETS.items():
            home = modules.get(layer)
            for attr in attrs:
                name = f"{layer}.{attr}"
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                original = getattr(owner, leaf, None) if owner is not None else None
                if original is None:
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                if owner_name:
                    self._rebind(owner, leaf, self._wrap(name, original, layer))
                    continue
                for caller, mod in modules.items():
                    for var, val in list(vars(mod).items()):
                        if val is original:
                            self._rebind(mod, var, self._wrap(name, original, caller))

    def _rebind(self, obj, attr, value) -> None:
        self._restore.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus counters and ratios."""
        child = [0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for idx, (nid, t0, t1, _) in enumerate(self.spans):
            calls[self.names[nid]] += 1
            self_ns[self.names[nid]] += t1 - t0 - child[idx]
        ratios = {m: len(self.keys[m]) / self.key_calls[m]
                  for m in DISTINCT if self.key_calls[m]}
        return {"calls": dict(calls), "self_s": {k: v / 1e9 for k, v in self_ns.items()},
                "counts": dict(self.counts), "distinct_calls": dict(self.key_calls),
                "distinct_keys": {m: len(s) for m, s in self.keys.items()},
                "ratios": ratios, "absent": list(self.absent)}

    def dump(self, path, extra: dict | None = None) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "summary": self.summary(), **(extra or {})}, fh)


class _Span:
    """Span for benchmark-side regions, such as one operation."""

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append(None)
        self.parent = t._stack[-1] if t._stack else -1
        t._stack.append(self.idx)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.idx] = (self.nid, self.t0, time.perf_counter_ns(), self.parent)
        t._stack.pop()
        return False


def merge(summaries) -> dict:
    """Add up summaries of several traced processes."""
    out = {"calls": Counter(), "self_s": Counter(), "counts": Counter(),
           "distinct_calls": Counter(), "distinct_keys": Counter(), "absent": set()}
    for s in summaries:
        for key in ("calls", "self_s", "counts", "distinct_calls", "distinct_keys"):
            out[key].update(s[key])
        out["absent"].update(s["absent"])
    # Distinct inputs are counted per process: each process starts cold.
    out["ratios"] = {m: out["distinct_keys"][m] / out["distinct_calls"][m]
                     for m in DISTINCT if out["distinct_calls"][m]}
    out["absent"] = sorted(out["absent"])
    return {k: dict(v) if isinstance(v, Counter) else v for k, v in out.items()}


def per_layer_metrics(summary: dict, import_s: float, overhead: float) -> dict:
    """The per_layer metrics of BENCHMARK.json, from a (merged) summary."""
    calls, self_s = summary["calls"], summary["self_s"]
    out = {}
    for layer, attrs in TARGETS.items():
        out[f"{layer}.self_s"] = (sum(v for k, v in self_s.items()
                                      if k.startswith(layer + ".")), "s")
        for attr in attrs:
            name = f"{layer}.{attr}"
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for caller in DET_CALLERS:
        out[f"{caller}.det_calls"] = (summary["counts"].get(f"{caller}.det_calls", 0), "count")
    for metric in DISTINCT:
        out[metric] = (summary["ratios"].get(metric, 0.0), "ratio")
    out["cli.import_s"] = (import_s, "s")
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out
