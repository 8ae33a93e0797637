"""Spans around the calls that cross latentcause module boundaries.

The wrappers are set on module attributes from the benchmark's own files
and put back afterwards; the package source is never edited. A wrapped
name is looked up at call time by its caller, so replacing, say,
``latentcause.mixture.gram`` times every Gram matrix the mixture code builds
without touching ``latentcause.kernels`` itself.

Each span records name, start, end, parent and the process that ran it.
Trials in ``run_benchmark``'s process pool run in forked workers that
inherit the installed wrappers and the open ``run_benchmark`` span; a worker
appends its finished spans to a file in ``sink_dir`` whenever it leaves its
outermost span, and ``collect`` reads them back in the parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from pathlib import Path

from measures import self_times

WRAPPED = "__perfbench_original__"

# Front doors: spans that start a traced unit of work.
FRONT_DOORS = (
    "mixture.fit_multiview",
    "causal.fit_effects",
    "multitreatment.fit_multitreatment",
    "benchmark.run_benchmark",
    "dataio.save_model",
    "dataio.load_model",
)


def _gram_facts(args, kwargs, result):
    return {"cells": int(result.size)}


def _fallback_facts(args, kwargs, result):
    return {"fallback_rows": int(result.fallback_count)}


def _power_facts(args, kwargs, result):
    return {"residual": float(result.residual)}


def _landmark_facts(args, kwargs, result):
    return {"landmarks": int(result.diagnostics.get("anchor_count", 0))}


def _treatment_facts(args, kwargs, result):
    d = result.diagnostics
    return {"ridge_escalations": int(d.get("ridge", 0.0) > 0)
            + int(d.get("variance_ridge", 0.0) > 0),
            "variance_clamped": int(d.get("variance_clamped", 0))}


def _ridge_facts(args, kwargs, result):
    return {"ridge_escalations": int(result.diagnostics.get("ridge", 0.0) > 0)}


def _save_facts(args, kwargs, result):
    return {"model_bytes": os.path.getsize(args[0])}


# (module, attribute, span name, facts from (args, kwargs, result)).
TARGETS = (
    ("latentcause", "fit_multiview", "mixture.fit_multiview", _landmark_facts),
    ("latentcause", "fit_effects", "causal.fit_effects", None),
    ("latentcause", "fit_multitreatment", "multitreatment.fit_multitreatment",
     _ridge_facts),
    ("latentcause", "run_benchmark", "benchmark.run_benchmark", None),
    ("latentcause", "save_model", "dataio.save_model", _save_facts),
    ("latentcause", "load_model", "dataio.load_model", None),
    ("latentcause.benchmark", "fit_multiview", "mixture.fit_multiview",
     _landmark_facts),
    ("latentcause.benchmark", "fit_effects", "causal.fit_effects", None),
    ("latentcause.benchmark", "fit_multitreatment",
     "multitreatment.fit_multitreatment", _ridge_facts),
    ("latentcause.mixture", "gram", "kernels.gram", _gram_facts),
    ("latentcause.mixture", "build_whitener", "tensor_spectral.build_whitener", None),
    ("latentcause.mixture", "whitened_third_moment",
     "tensor_spectral.whitened_third_moment", None),
    ("latentcause.mixture", "robust_power_method",
     "tensor_spectral.robust_power_method", _power_facts),
    ("latentcause.causal", "posteriors", "mixture.posteriors", _fallback_facts),
    ("latentcause.causal", "fit_treatment", "causal.fit_treatment", _treatment_facts),
    ("latentcause.causal", "update_posteriors", "causal.update_posteriors",
     _fallback_facts),
    ("latentcause.causal", "fit_outcome", "causal.fit_outcome", _ridge_facts),
    ("latentcause.multitreatment", "fit_discrete_multiview",
     "mixture.fit_discrete_multiview", None),
    ("latentcause.multitreatment", "posteriors", "mixture.posteriors",
     _fallback_facts),
    ("latentcause.multitreatment", "_stacked_regression",
     "causal._stacked_regression", None),
)


def installed_wrappers():
    """(module, attribute) pairs that currently hold a benchmark wrapper."""
    found = []
    for module_name, attr, _, _ in TARGETS:
        module = importlib.import_module(module_name)
        if hasattr(getattr(module, attr), WRAPPED):
            found.append((module_name, attr))
    return found


class Tracer:
    """Records spans while installed; restores every wrapped name on exit."""

    def __init__(self, sink_dir):
        self.spans = []
        self._open = []
        self._saved = []
        self._count = 0
        self._owner = os.getpid()
        self._sink = Path(sink_dir)

    def __enter__(self):
        for module_name, attr, name, facts in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, facts))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def _wrap(self, fn, name, facts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            pid = os.getpid()
            self._count += 1
            span = {"id": f"{pid}:{self._count}", "name": name, "pid": pid,
                    "parent": self._open[-1] if self._open else None}
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
                self.spans.append(span)
            if facts is not None:
                span["facts"] = facts(args, kwargs, result)
            if pid != self._owner and not any(
                    s.startswith(f"{pid}:") for s in self._open):
                self._flush(pid)
            return result

        setattr(traced, WRAPPED, fn)
        return traced

    def _flush(self, pid):
        mine = [s for s in self.spans if s["pid"] == pid]
        self.spans = [s for s in self.spans if s["pid"] != pid]
        with (self._sink / f"spans-{pid}.jsonl").open("a", encoding="utf-8") as fh:
            for s in mine:
                fh.write(json.dumps(s) + "\n")

    def collect(self):
        """All spans since the last call, worker spans included; then reset."""
        spans, self.spans = self.spans, []
        for path in sorted(self._sink.glob("spans-*.jsonl")):
            with path.open(encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
            path.unlink()
        return spans


_MAX_FACTS = ("residual", "landmarks", "model_bytes")


def summarize(spans):
    """Per span name for one unit of work: total and self ms, calls, facts.

    Only spans inside a front-door span count, so calls the benchmark makes
    itself to check outputs stay out. Facts are summed over calls, except
    the residual, landmark count and model size, which take the largest.
    """
    by_id = {s["id"]: s for s in spans}

    def under_front_door(s):
        while s is not None:
            if s["name"] in FRONT_DOORS:
                return True
            s = by_id.get(s["parent"])
        return False

    own = self_times(spans)
    out = {}
    for s in spans:
        if not under_front_door(s):
            continue
        agg = out.setdefault(s["name"], {"total_ms": 0.0, "self_ms": 0.0,
                                         "calls": 0, "facts": {}})
        agg["total_ms"] += 1000.0 * (s["end"] - s["start"])
        agg["self_ms"] += 1000.0 * own[s["id"]]
        agg["calls"] += 1
        for key, value in s.get("facts", {}).items():
            prev = agg["facts"].get(key)
            if prev is None:
                agg["facts"][key] = value
            elif key in _MAX_FACTS:
                agg["facts"][key] = max(prev, value)
            else:
                agg["facts"][key] = prev + value
    return out
