"""Span tracing for the benchmark's traced runs.

`install` replaces every public function of the sphereflow modules with a
wrapper, in every module namespace where a caller looks it up: `flow_engine`
imports `frame_field`, `make_curve`, ... by name, `run_applicable_checks`
reaches `check_*` through module globals, and `cli.main` reaches `cmd_*` the
same way. A function has one wrapper, labelled `<defining module>.<name>`,
whichever namespace it is found in. The package's own code is not touched.

A span is (label id, start, end, parent span id). Spans stay in memory and
`dump` writes them out when the traced process ends; `aggregate` turns them
into per-function calls, total time, self time and duration percentiles.
"""

from __future__ import annotations

import json
import sys
import time
import types

import numpy as np

PACKAGE = "sphereflow"
# barrier is left out on purpose: the flow only reads BarrierParams.a_eff.
SKIP_MODULES = {"barrier", "errors"}


def _pairs(curve) -> int:
    return curve.n * (curve.n - 1) // 2


def _inventory(manifest) -> dict:
    files = manifest.get("files", [])
    return {"files": len(files), "bytes": sum(int(f["bytes"]) for f in files)}


# Work counted at the span boundary: label -> f(args, result) -> {quantity: n}.
# Pair counts are n(n-1)/2 per call, the pairs the all-pairs pass computes.
COUNTERS = {
    "chord_arc.min_Z": lambda args, res: {"pairs": _pairs(args[0])},
    "chord_arc.profile": lambda args, res: {"pairs": _pairs(args[0])},
    "run_io.write_run": lambda args, res: _inventory(res),
    "run_io.load_run": lambda args, res: _inventory(res.manifest),
}


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.spans: list = []
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []

    def wrap(self, label: str, fn):
        label_id = len(self.labels)
        self.labels.append(label)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(label)
        totals = self.counts.setdefault(label, {}) if counter else None

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (label_id, start, end, parent)
            if counter is not None:
                for key, value in counter(args, result).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"labels": self.labels, "spans": self.spans,
                       "counts": self.counts}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every loaded sphereflow module."""
    sites = []
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith(PACKAGE + ".") or module is None:
            continue
        for attr, value in vars(module).items():
            if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                    and value.__module__.startswith(PACKAGE + ".")):
                owner = value.__module__.split(".", 1)[1]
                if owner not in SKIP_MODULES:
                    sites.append((module, attr, value, f"{owner}.{value.__name__}"))
    wrappers = {}
    for module, attr, fn, label in sites:
        if fn not in wrappers:
            wrappers[fn] = tracer.wrap(label, fn)
        setattr(module, attr, wrappers[fn])


def aggregate(path) -> tuple[dict, int]:
    """Per-label {calls, total_s, self_s, p50_us, p99_us, <counts>} from a
    span dump, plus `iters` of reparametrize_uniform (make_curve calls inside
    it). Returns the table and the span count."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    labels = raw["labels"]
    spans = np.asarray(raw["spans"], dtype=float).reshape(-1, 4)
    label_ids = spans[:, 0].astype(int)
    parents = spans[:, 3].astype(int)
    dur = spans[:, 2] - spans[:, 1]
    child_time = np.zeros(len(spans))
    has_parent = parents >= 0
    np.add.at(child_time, parents[has_parent], dur[has_parent])
    self_time = dur - child_time

    table = {}
    for k, label in enumerate(labels):
        sel = label_ids == k
        d = dur[sel]
        entry = {"calls": int(d.size), "total_s": float(d.sum()),
                 "self_s": float(self_time[sel].sum()),
                 "p50_us": float(np.percentile(d, 50) * 1e6) if d.size else 0.0,
                 "p99_us": float(np.percentile(d, 99) * 1e6) if d.size else 0.0}
        entry.update(raw["counts"].get(label, {}))
        table[label] = entry

    resample = labels.index("sphere_geometry.reparametrize_uniform")
    make = labels.index("sphere_geometry.make_curve")
    inside = (label_ids == make) & has_parent
    inside[inside] = label_ids[parents[inside]] == resample
    table["sphere_geometry.reparametrize_uniform"]["iters"] = int(np.count_nonzero(inside))
    return table, len(spans)
