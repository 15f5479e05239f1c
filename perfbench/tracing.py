"""Span tracing of the ``sgwl`` layers, installed from outside the library.

``Tracer.install`` replaces every public function of the six ``sgwl``
modules with a recording wrapper, in every module namespace that binds it
(``from .matcore import as_cmatrix`` re-binds a name in ``gksl``, ``posmap``
and ``decomp``; all of them get the same wrapper).  While an operation is
open each call records a span: name, parent span, operation id, start and
end.  Spans are kept in compact arrays and written out by ``dump``.
``uninstall`` puts every original attribute back.

``summarize`` turns spans into per-layer totals.  A layer's self time is
the time during which its innermost active span belongs to it; a group's
time counts only spans that have no ancestor in the same group, so nested
calls such as ``as_hermitian -> as_cmatrix`` are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("matcore", "gksl", "posmap", "decomp", "scenarios", "cli")

# Function groups behind the per-layer metrics.
GROUPS = {
    "posmap.search": ("posmap.kossakowski_positivity_check", "posmap.map_positivity_check"),
    "posmap.cp_check": ("posmap.is_completely_positive",),
    "posmap.choi": ("posmap.choi",),
    "decomp.feasibility": ("decomp.decomposability_feasibility",),
    "decomp.threshold": ("decomp.find_threshold",),
    "matcore.validate": ("matcore.as_cmatrix", "matcore.as_hermitian"),
    "matcore.partial_transpose": ("matcore.partial_transpose",),
    "matcore.spectral": ("matcore.hermitian_eig", "matcore.is_psd", "matcore.psd_part",
                         "matcore.negative_part", "matcore.min_eigenvalue"),
    "matcore.expm": ("matcore.expm",),
    "gksl.build_generator": ("gksl.build_generator",),
    "gksl.product_generator": ("gksl.product_generator",),
    "gksl.evolve": ("gksl.evolve",),
    "gksl.functional": ("gksl.positivity_functional", "gksl.map_functional"),
}

# (metric, unit, source): per operation unless the unit is a ratio.
PER_LAYER = (
    ("posmap.self_ms", "ms", "self:posmap"),
    ("posmap.search.ms", "ms", "ms:posmap.search"),
    ("posmap.search.starts", "count", "count:search.starts"),
    ("posmap.search.full_budget_ratio", "ratio", "ratio:search.full_budget/search.verdicts"),
    ("posmap.cp_check.ms", "ms", "ms:posmap.cp_check"),
    ("posmap.choi.ms", "ms", "ms:posmap.choi"),
    ("decomp.self_ms", "ms", "self:decomp"),
    ("decomp.feasibility.ms", "ms", "ms:decomp.feasibility"),
    ("decomp.feasibility.iterations", "count", "count:feasibility.iterations"),
    ("decomp.witness_ratio", "ratio", "ratio:feasibility.witnessed/feasibility.not_feasible"),
    ("decomp.threshold.ms", "ms", "ms:decomp.threshold"),
    ("decomp.threshold.criterion_calls", "count", "count:threshold.criterion_calls"),
    ("matcore.self_ms", "ms", "self:matcore"),
    ("matcore.calls", "count", "calls:matcore"),
    ("matcore.validate.ms", "ms", "ms:matcore.validate"),
    ("matcore.validate.calls", "count", "calls:matcore.validate"),
    ("matcore.partial_transpose.calls", "count", "calls:matcore.partial_transpose"),
    ("matcore.spectral.ms", "ms", "ms:matcore.spectral"),
    ("matcore.spectral.calls", "count", "calls:matcore.spectral"),
    ("matcore.expm.ms", "ms", "ms:matcore.expm"),
    ("matcore.expm.calls", "count", "calls:matcore.expm"),
    ("gksl.self_ms", "ms", "self:gksl"),
    ("gksl.build_generator.ms", "ms", "ms:gksl.build_generator"),
    ("gksl.product_generator.ms", "ms", "ms:gksl.product_generator"),
    ("gksl.evolve.ms", "ms", "ms:gksl.evolve"),
    ("gksl.evolve.calls", "count", "calls:gksl.evolve"),
    ("gksl.functional.calls", "count", "calls:gksl.functional"),
    ("scenarios.self_ms", "ms", "self:scenarios"),
    ("cli.self_ms", "ms", "self:cli"),
    ("cli.import_ms", "ms", "count:cli.import_ms"),
    ("cli.import_scipy_optimize_ms", "ms", "count:cli.import_scipy_optimize_ms"),
    ("cli.command_ms", "ms", "count:cli.command_ms"),
    ("trace.overhead_ratio", "ratio", "given"),
)


def _observe_search(tracer, func, args, kwargs, result):
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    starts = 0 if result.start_values is None else len(result.start_values)
    tracer.count("search.verdicts")
    tracer.count("search.starts", starts)
    tracer.count("search.full_budget", int(starts == bound.arguments["budget"]))


def _observe_feasibility(tracer, func, args, kwargs, result):
    tracer.count("feasibility.iterations", result.iterations)
    if result.status != "Feasible":
        tracer.count("feasibility.not_feasible")
        tracer.count("feasibility.witnessed", int(result.status == "InfeasibleWitnessed"))


OBSERVERS = {
    "posmap.kossakowski_positivity_check": _observe_search,
    "posmap.map_positivity_check": _observe_search,
    "decomp.decomposability_feasibility": _observe_feasibility,
}


class Tracer:
    """Records spans of ``sgwl`` calls made while an operation is open."""

    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self.counts: dict[str, float] = {}
        self._parent = array("q")
        self._name = array("i")
        self._op = array("i")
        self._t0 = array("d")
        self._t1 = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    def end_op(self) -> None:
        self.op = -1

    def _wrap(self, func, name: str):
        name_id = len(self.names)
        self.names.append(name)
        observer = OBSERVERS.get(name)
        parent, names, ops, t0s, t1s = self._parent, self._name, self._op, self._t0, self._t1
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if self.op < 0:
                return func(*args, **kwargs)
            sid = len(t0s)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            ops.append(self.op)
            t1s.append(0.0)
            stack.append(sid)
            t0s.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                t1s[sid] = clock()
                stack.pop()
            if observer is not None:
                observer(self, func, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, func)

    def install(self) -> None:
        """Wrap the public functions of every ``sgwl`` module, wherever bound."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(f"sgwl.{m}") for m in MODULES]
        own = {f"sgwl.{m}" for m in MODULES}
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ not in own:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{obj.__module__[5:]}.{obj.__name__}")
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrappers[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def dump(self, path: Path) -> None:
        """Write the spans and counts (a compressed numpy archive)."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            parent=np.frombuffer(self._parent, dtype=np.int64),
            name=np.frombuffer(self._name, dtype=np.int32),
            op=np.frombuffer(self._op, dtype=np.int32),
            t0=np.frombuffer(self._t0, dtype=np.float64),
            t1=np.frombuffer(self._t1, dtype=np.float64),
            count_keys=np.array(list(self.counts), dtype=str),
            count_values=np.array(list(self.counts.values()), dtype=float),
        )

    def summary(self) -> dict[str, float]:
        return summarize(
            self.names,
            np.frombuffer(self._parent, dtype=np.int64),
            np.frombuffer(self._name, dtype=np.int32),
            np.frombuffer(self._t0, dtype=np.float64),
            np.frombuffer(self._t1, dtype=np.float64),
            self.counts,
        )


def load_summary(path: Path) -> dict[str, float]:
    """Totals of a span file written by ``Tracer.dump``."""
    with np.load(path) as z:
        counts = dict(zip(z["count_keys"].tolist(), z["count_values"].tolist()))
        return summarize(z["names"].tolist(), z["parent"], z["name"], z["t0"], z["t1"], counts)


def summarize(names, parent, name, t0, t1, counts) -> dict[str, float]:
    """Totals over all spans: ``self:<layer>`` and ``ms:<group>`` in ms,
    ``calls:<group or layer>`` as counts, plus the recorded counts."""
    out = {f"count:{k}": float(v) for k, v in counts.items()}
    n = len(t0)
    layers = sorted(MODULES)
    for layer in layers:
        out[f"self:{layer}"] = 0.0
        out[f"calls:{layer}"] = 0.0
    for group in GROUPS:
        out[f"ms:{group}"] = 0.0
        out[f"calls:{group}"] = 0.0
    if n == 0:
        return out
    dur = np.asarray(t1) - np.asarray(t0)
    parent = np.asarray(parent)
    name = np.asarray(name)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    exclusive = dur - child_time
    layer_of_name = np.array([layers.index(s.split(".")[0]) for s in names])
    layer = layer_of_name[name]
    self_ms = np.bincount(layer, weights=exclusive, minlength=len(layers)) * 1e3
    calls = np.bincount(layer, minlength=len(layers))
    for i, lay in enumerate(layers):
        out[f"self:{lay}"] = float(self_ms[i])
        out[f"calls:{lay}"] = float(calls[i])
    for group, members in GROUPS.items():
        member_ids = [i for i, s in enumerate(names) if s in members]
        in_group = np.isin(name, member_ids)
        if not in_group.any():
            continue
        nested = np.zeros(n, dtype=bool)
        anc = parent.copy()
        while True:
            live = anc >= 0
            if not live.any():
                break
            nested[live] |= in_group[anc[live]]
            anc[live] = parent[anc[live]]
        outer = in_group & ~nested
        out[f"ms:{group}"] = float(dur[outer].sum() * 1e3)
        out[f"calls:{group}"] = float(in_group.sum())
    return out


def merge(into: dict[str, float], extra: dict[str, float]) -> None:
    for k, v in extra.items():
        into[k] = into.get(k, 0.0) + v


def per_layer_metrics(totals: dict[str, float], n_ops: int, overhead: float) -> dict:
    """Per-operation metrics from summed totals, in ``PER_LAYER`` order."""
    metrics = {}
    for metric, unit, source in PER_LAYER:
        kind, _, key = source.partition(":")
        if kind == "given":
            value = overhead
        elif kind == "ratio":
            num, den = key.split("/")
            d = totals.get(f"count:{den}", 0.0)
            value = totals.get(f"count:{num}", 0.0) / d if d else 0.0
        else:
            value = totals.get(source, 0.0) / max(n_ops, 1)
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import times in ms from ``python -X importtime`` output,
    for the ``sgwl`` package and for ``scipy.optimize``."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        module = parts[2].strip()
        if module in ("sgwl", "scipy.optimize"):
            try:
                found[module] = int(parts[1]) / 1e3
            except ValueError:
                continue
    return {
        "count:cli.import_ms": found.get("sgwl", 0.0),
        "count:cli.import_scipy_optimize_ms": found.get("scipy.optimize", 0.0),
    }
