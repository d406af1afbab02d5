"""Span tracing of e2espin's layers from outside the package.

``Tracer.install`` wraps every public function of each layer module and
puts the wrapper wherever a caller looks the function up: in every
loaded ``e2espin`` module whose namespace holds that function object
(``e2espin.c3mc.kummer_1f1``, ``e2espin.scan.wootters_batch``,
``e2espin.cli.write_csv``, ...), and the public methods of its public
classes on the class (``McConfig.validated``).  Calls made through those
names record a
span: name, start, end, parent span and thread id.  Spans stay in memory
and are turned into per-layer metrics by ``layer_metrics``.

Parents are tracked per thread, so a ``c3_pair`` span run by a scan
worker thread is a root in that thread and its ``kummer_1f1`` spans are
its children.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("special", "c3mc", "amplitudes", "scan", "entanglement", "cli")


def _kummer_args(args, kwargs, result):
    return {"args": int(np.size(kwargs["z"] if "z" in kwargs else args[2]))}


def _pair_counts(args, kwargs, est):
    td = abs(complex(est.t_d))
    sd = (max(0.0, float(est.cov[0, 0])) + max(0.0, float(est.cov[1, 1]))) ** 0.5
    return {
        "samples": int(est.n_samples),
        "rejected": int(est.n_rejected),
        "rel_err": sd / td if td > 0.0 else None,
    }


def _matrix_count(args, kwargs, result):
    return {"matrices": int(np.size(result))}


# counts recorded at the boundary, from a call's arguments and result
COUNTERS = {
    "special.kummer_1f1": _kummer_args,
    "c3mc.c3_pair": _pair_counts,
    "entanglement.wootters_batch": _matrix_count,
}


class Tracer:
    """Records spans while ``active``; idle wrappers just call through."""

    def __init__(self):
        self.spans: list[dict] = []
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            span = {
                "id": next(self._ids),
                "name": name,
                "parent": stack[-1]["id"] if stack else None,
                "thread": threading.get_ident(),
                "start": time.perf_counter(),
            }
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if count is not None:
                span.update(count(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap each layer's public functions wherever they are looked up.

        Public methods of the layer's public classes are wrapped on the
        class, where every call looks them up.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "e2espin" or n.startswith("e2espin."))]
        for layer in LAYERS:
            mod = sys.modules[f"e2espin.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    for name, fn in list(vars(obj).items()):
                        if not name.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, name, self._wrap(f"{layer}.{attr}.{name}", fn))
                elif inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for holder in modules:
                        for key, value in list(vars(holder).items()):
                            if value is obj:
                                self._patch(holder, key, wrapper)

    def _patch(self, holder, key, wrapper):
        self._patched.append((holder, key, getattr(holder, key)))
        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, fn in reversed(self._patched):
            setattr(holder, key, fn)
        self._patched.clear()

    def take(self) -> list[dict]:
        """Return and clear the recorded spans."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans


def _dur(span) -> float:
    return span["end"] - span["start"]


def layers_seen(spans) -> set:
    return {s["name"].split(".", 1)[0] for s in spans}


def layer_metrics(spans, workers: int) -> dict:
    """Per-layer metrics of the spans of one pass (values only)."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    by_id = {}
    for s in spans:
        by_name[s["name"]].append(s)
        children[s["parent"]].append(s)
        by_id[s["id"]] = s

    def total(name):
        return sum(_dur(s) for s in by_name[name])

    def self_total(name):
        return sum(_dur(s) - sum(_dur(c) for c in children[s["id"]]) for s in by_name[name])

    def layer_total(layer):
        """Time in a layer's outermost spans."""
        def inside(span):
            return span is not None and span["name"].startswith(layer + ".")
        return sum(_dur(s) for s in spans if inside(s) and not inside(by_id.get(s["parent"])))

    def under(span, name):
        parent = by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == name:
                return True
            parent = by_id.get(parent["parent"])
        return False

    kummer = by_name["special.kummer_1f1"]
    kummer_args = sum(s["args"] for s in kummer)
    kummer_self = self_total("special.kummer_1f1")

    pairs = by_name["c3mc.c3_pair"]
    samples = sum(s["samples"] for s in pairs)
    pair_time = total("c3mc.c3_pair")
    efficiencies = [1.0 / (s["rel_err"] ** 2 * _dur(s)) for s in pairs if s["rel_err"]]

    grids = by_name["scan.amplitude_grids"]
    grid_pairs = [s for s in pairs
                  if any(g["start"] <= s["start"] <= g["end"] for g in grids)]
    latencies = [_dur(s) for s in grid_pairs]
    grid_wall = sum(_dur(g) for g in grids
                    if any(g["start"] <= s["start"] <= g["end"] for s in grid_pairs))

    points = by_name["cli.cmd_point"]
    point_mc = sum(_dur(s) for s in pairs if under(s, "cli.cmd_point"))

    woot = by_name["entanglement.wootters_batch"]
    return {
        "special.kummer_1f1.calls": len(kummer),
        "special.kummer_1f1.args": kummer_args,
        "special.kummer_1f1.self_s": kummer_self,
        "special.kummer_1f1.args_per_s": kummer_args / kummer_self if kummer_self > 0 else 0.0,
        "c3mc.c3_pair.calls": len(pairs),
        "c3mc.samples": samples,
        "c3mc.c3_pair.self_s": self_total("c3mc.c3_pair"),
        "c3mc.samples_per_s": samples / pair_time if pair_time > 0 else 0.0,
        "c3mc.rejected_fraction": (sum(s["rejected"] for s in pairs) / samples) if samples else 0.0,
        "c3mc.efficiency": statistics.median(efficiencies) if efficiencies else 0.0,
        "scan.amplitude_grids.s": total("scan.amplitude_grids"),
        "scan.observables.s": total("scan.observables_from_amplitudes"),
        "scan.write_csv.s": total("scan.write_csv"),
        "scan.write_pgm.s": total("scan.write_pgm"),
        "scan.records_to_grids.s": total("scan.records_to_grids"),
        "scan.point_latency_s.p50": float(np.percentile(latencies, 50)) if latencies else 0.0,
        "scan.point_latency_s.p90": float(np.percentile(latencies, 90)) if latencies else 0.0,
        "scan.worker_busy_fraction": sum(latencies) / (grid_wall * workers) if grid_wall > 0 else 0.0,
        "amplitudes.s": layer_total("amplitudes"),
        "entanglement.wootters_batch.calls": len(woot),
        "entanglement.wootters_batch.matrices": sum(s["matrices"] for s in woot),
        "entanglement.wootters_batch.s": total("entanglement.wootters_batch"),
        "cli.point.s": total("cli.cmd_point"),
        "cli.point.non_mc_s": total("cli.cmd_point") - point_mc if points else 0.0,
    }


# spans whose absence would silently zero a named metric, per workload
NAMED_SPANS = {
    "born_scan": ("scan.amplitude_grids", "scan.observables_from_amplitudes", "scan.write_csv",
                  "scan.write_pgm", "scan.records_to_grids", "amplitudes.pwba_grid",
                  "entanglement.wootters_batch"),
    "c3_scan": ("special.kummer_1f1", "c3mc.c3_pair", "scan.amplitude_grids",
                "scan.observables_from_amplitudes", "scan.write_csv", "scan.write_pgm",
                "entanglement.wootters_batch"),
    "c3_point": ("special.kummer_1f1", "c3mc.c3_pair", "cli.cmd_point",
                 "entanglement.wootters_batch"),
}

# layers each workload must exercise; a layer with no spans is an error
EXPECTED_LAYERS = {
    "born_scan": ("scan", "amplitudes", "entanglement", "cli"),
    "c3_scan": ("special", "c3mc", "amplitudes", "scan", "entanglement", "cli"),
    "c3_point": ("special", "c3mc", "amplitudes", "entanglement", "cli"),
}
