"""Spans around the package's layer boundaries, for the traced run only.

The tracer wraps every public function of the package's modules, and the
numpy/scipy linear-algebra entry points the package calls, at the module
attributes where the package looks them up.  Because the package resolves
those names at call time, the spans follow the real call graph.  Nothing in
the package source changes, and the wrappers are removed after the traced
pass.  Spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "dyson", "observables", "models", "matfile", "cli")

# (module, attribute) -> span name.  eigh covers eigvalsh, svd covers cond
# (one SVD inside), solve covers inv.
LAPACK = {
    ("scipy.linalg", "eig"): "lapack.eig",
    ("numpy.linalg", "eig"): "lapack.eig",
    ("numpy.linalg", "eigh"): "lapack.eigh",
    ("numpy.linalg", "eigvalsh"): "lapack.eigh",
    ("numpy.linalg", "svd"): "lapack.svd",
    ("numpy.linalg", "cond"): "lapack.svd",
    ("numpy.linalg", "solve"): "lapack.solve",
    ("numpy.linalg", "inv"): "lapack.solve",
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Counts taken at the boundary where the work happens: (counts, args, kwargs, result).
COUNTERS = {
    "matfile.load_matrix_file": lambda c, a, k, r: c.update(
        {"matfile.bytes_in": os.path.getsize(_arg(a, k, 0, "path"))}),
    "matfile.emit_json": lambda c, a, k, r: c.update({"matfile.bytes_out": len(r.encode("utf-8"))}),
    "models.ep_scan": lambda c, a, k, r: c.update(
        {"models.ep_scan.points": int(np.size(_arg(a, k, 1, "gamma_grid")))}),
    "observables.shared_metric": lambda c, a, k, r: c.update(
        {"observables.shared_metric.decided": int(r.status != "Inconclusive")}),
}

# Per-layer metrics: name -> unit.  Derived by layer_metrics() except
# dyson.not_unitary_share and the last five, which the run measures itself.
PER_LAYER = {
    **{f"lapack.{f}.{m}": u for f in ("eig", "eigh", "svd", "solve") for m, u in (("calls", "count"), ("s", "s"))},
    "lapack.calls_per_op": "calls/op",
    **{f"linalg.{f}.self_s": "s" for f in ("eig_general", "herm_sqrt", "polar_decompose")},
    **{f"dyson.{f}.self_s": "s" for f in (
        "solve_schrodinger_pair", "build_omega", "hermitian_dyson", "metric", "hermitian_avatar",
        "build_report", "hermitize", "evolve_norm_check")},
    "observables.shared_metric.self_s": "s",
    "observables.probes_per_call": "probes/call",
    "observables.decided_ratio": "ratio",
    "dyson.not_unitary_share": "ratio",
    "models.ep_scan.self_s_per_point": "s/point",
    "models.ep_scan.eig_calls_per_point": "calls/point",
    **{f"matfile.{f}.s": "s" for f in ("load_matrix_file", "report_document", "emit_json")},
    "matfile.bytes_in": "B",
    "matfile.bytes_out": "B",
    "cli.main.self_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_scipy_s": "s",
    "cli.import_quasiherm_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Span names summed into one metric.
GROUPS = {
    "dyson.build_omega": ("dyson.build_omega_I", "dyson.build_omega_K", "dyson.build_omega_KU"),
    "dyson.metric": ("dyson.metric_of", "dyson.metric_from_theta"),
}


@dataclass
class Span:
    name: str
    fn: str
    start: float
    end: float
    parent: int
    op: int


class Tracer:
    """Records nested spans while ``active``; ``op`` tags spans with the operation index."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.active = False
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, fn.__name__, start, end, parent, self.op)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        package = importlib.import_module("quasiherm")
        modules = [importlib.import_module(f"quasiherm.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[obj] = self.wrap(f"{layer}.{attr}", obj)
        # Rebind every name the package resolves to a wrapped function,
        # including names imported from one module into another.
        for mod in (package, *modules):
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])
        for (modname, attr), name in LAPACK.items():
            owner = importlib.import_module(modname)
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def layer_metrics(spans, counts, ops):
    """Per-layer figures from the spans of ``ops`` traced operations and any probes after them."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    calls, total, self_s = Counter(), Counter(), Counter()
    probes = eig_in_scan = lapack_in_ops = 0
    for i, s in enumerate(spans):
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        self_s[s.name] += s.end - s.start - covered[i]
        parent = spans[s.parent].name if s.parent >= 0 else ""
        probes += s.fn == "eigvalsh" and parent == "observables.shared_metric"
        eig_in_scan += s.name == "lapack.eig" and parent == "models.ep_scan"
        lapack_in_ops += s.name.startswith("lapack.") and s.op < ops
    for group, members in GROUPS.items():
        self_s[group] = sum(self_s[m] for m in members)

    out = {}
    for f in ("eig", "eigh", "svd", "solve"):
        out[f"lapack.{f}.calls"] = calls[f"lapack.{f}"]
        out[f"lapack.{f}.s"] = float(total[f"lapack.{f}"])
    out["lapack.calls_per_op"] = lapack_in_ops / ops
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = float(self_s[name[: -len(".self_s")]])
    sm_calls = calls["observables.shared_metric"]
    out["observables.probes_per_call"] = probes / sm_calls if sm_calls else 0.0
    out["observables.decided_ratio"] = (
        counts["observables.shared_metric.decided"] / sm_calls if sm_calls else 0.0)
    points = counts["models.ep_scan.points"]
    out["models.ep_scan.self_s_per_point"] = self_s["models.ep_scan"] / points if points else 0.0
    out["models.ep_scan.eig_calls_per_point"] = eig_in_scan / points if points else 0.0
    for f in ("load_matrix_file", "report_document", "emit_json"):
        out[f"matfile.{f}.s"] = float(total[f"matfile.{f}"])
    out["matfile.bytes_in"] = counts["matfile.bytes_in"]
    out["matfile.bytes_out"] = counts["matfile.bytes_out"]
    return out
