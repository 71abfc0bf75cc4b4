"""Spans around calls into plmanifold's layers, recorded from outside the package.

A `Tracer` replaces each target function with a wrapper in every
``plmanifold`` module namespace that holds it (``plm.smooth_columns`` and
``bandwidth.smooth_columns`` are the same object under two names), records
one span per call with its parent span, and restores the originals on
``uninstall``.  The package itself is not modified.  Counters are read from
the call's arguments and result at the same boundary, so ratios such as the
share of nonzero kernel weights are measured where the work happens.

Per-layer metrics are normalized per workload unit (one fit pair, one
campaign replication or one CLI fit); see README.md.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    layer: str
    variant: str | None
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_distances(args, kwargs, result):
    return {"calls": 1, "pairs": int(np.size(result))}


def _count_weights(args, kwargs, result):
    return {"nnz": int(np.count_nonzero(result)), "computed": int(np.size(result))}


def _count_smooth(args, kwargs, result):
    columns = np.asarray(_arg(args, kwargs, 4, "columns"))
    return {"calls": 1, "columns": 1 if columns.ndim == 1 else int(columns.shape[1])}


_KERNEL_CODES = {1: "huber", 2: "bisquare"}


def _kernel_variant(args, kwargs):
    return _KERNEL_CODES.get(int(_arg(args, kwargs, 3, "code")), "other")


def _count_kernels(args, kwargs, result):
    weights = np.asarray(_arg(args, kwargs, 0, "W"))
    flags = np.asarray(result[1])
    return {"rows": int(weights.shape[0]), "cells": int(weights.size),
            "flag1": int(np.count_nonzero(flags == 1)),
            "flag2": int(np.count_nonzero(flags == 2))}


def _count_gm(args, kwargs, result):
    return {"calls": 1, "iterations": int(result.iterations)}


def _count_calls(args, kwargs, result):
    return {"calls": 1}


def _count_select(args, kwargs, result):
    diagnostics = result[1]
    return {"candidates": len(diagnostics),
            "infeasible": sum(1 for d in diagnostics if not d.feasible)}


def _plm_variant(args, kwargs):
    if "mode" in kwargs:
        return kwargs["mode"]
    return args[2] if len(args) > 2 else "robust"


def _count_campaign(args, kwargs, result):
    return {"failed_replications": len(result.failures)}


def _count_ingest(args, kwargs, result):
    return {"rows": int(result.n)}


# (module, function, layer, variant of the call or None, counter or None)
TARGETS = (
    ("plmanifold.manifold", "pairwise_distances", "manifold.distances", None, _count_distances),
    ("plmanifold.manifold", "cross_distances", "manifold.distances", None, _count_distances),
    ("plmanifold.smoother", "raw_weight_matrix", "smoother.weights", None, _count_weights),
    ("plmanifold.smoother", "smooth_columns", "smoother.smooth", None, _count_smooth),
    ("plmanifold._kernels", "local_m_rows", "kernels.local_m", _kernel_variant, _count_kernels),
    ("plmanifold.robust_linear", "gm_estimate", "robust_linear.gm", None, _count_gm),
    ("plmanifold.robust_linear", "ols_estimate", "robust_linear.ols", None, _count_calls),
    ("plmanifold.bandwidth", "default_grid", "bandwidth.default_grid", None, None),
    ("plmanifold.bandwidth", "select_bandwidth", "bandwidth.select", None, _count_select),
    ("plmanifold.plm", "fit", "plm.fit", _plm_variant, _count_calls),
    ("plmanifold.inference", "estimate_covariance", "inference.covariance", None, None),
    ("plmanifold.simulation", "generate_sample", "simulation.generate", None, None),
    ("plmanifold.simulation", "run_campaign", "simulation.campaign", None, _count_campaign),
    ("plmanifold.cli", "ingest_csv", "cli.ingest", None, _count_ingest),
    ("plmanifold.cli", "_run_fit", "cli.run", None, None),
)

# Argument or result shapes a counter cannot read after a signature change.
_COUNTER_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.counter_errors: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "plmanifold" or name.startswith("plmanifold.")]
        for module_name, attr, layer, variant, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, layer, variant, counter)
            for namespace in namespaces:
                for name, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, name, wrapper)
                        self._patched.append((namespace, name, original))

    def uninstall(self) -> None:
        for namespace, name, original in reversed(self._patched):
            setattr(namespace, name, original)
        self._patched = []

    def _wrap(self, fn, layer, variant_of, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            variant = variant_of(args, kwargs) if variant_of else None
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(layer, variant, parent, time.perf_counter())
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.counts["raised"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                try:
                    span.counts.update(counter(args, kwargs, result))
                except _COUNTER_ERRORS:
                    tracer.counter_errors.add(layer)
            return result

        return wrapper


@dataclass
class LayerTotals:
    time_s: float = 0.0  # inclusive, outermost spans of the layer only
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)


def aggregate(spans: list[Span]) -> tuple[dict, float]:
    """Per (layer, variant) totals, plus the summed duration of root spans.

    Self time is a span's duration minus its direct children's durations.
    A span nested in a span of the same layer (``pairwise_distances``
    calling ``cross_distances``) adds only its self time, so neither time
    nor counts are taken twice.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
    totals: dict[tuple, LayerTotals] = {}
    root_s = 0.0
    for i, span in enumerate(spans):
        duration = span.end - span.start
        entry = totals.setdefault((span.layer, span.variant), LayerTotals())
        entry.self_s += duration - child_s[i]
        if span.parent is None:
            root_s += duration
        if span.parent is None or spans[span.parent].layer != span.layer:
            entry.time_s += duration
            for key, value in span.counts.items():
                entry.counts[key] = entry.counts.get(key, 0) + value
    return totals, root_s


def _layer(totals, layer, variant=None, any_variant=False) -> LayerTotals:
    out = LayerTotals()
    for (name, var), entry in totals.items():
        if name == layer and (any_variant or var == variant):
            out.time_s += entry.time_s
            out.self_s += entry.self_s
            for key, value in entry.counts.items():
                out.counts[key] = out.counts.get(key, 0) + value
    return out


# Every per-layer metric the traced run reports, with its unit.  Times and
# counts are per workload unit; ratios are taken over the whole run.
PER_LAYER = (
    ("manifold.distances_s", "s"),
    ("manifold.distance_pairs", "count"),
    ("manifold.distance_calls", "count"),
    ("smoother.weights_s", "s"),
    ("smoother.weight_nnz_frac", "ratio"),
    ("smoother.smooth_self_s", "s"),
    ("smoother.smooth_calls", "count"),
    ("smoother.columns", "count"),
    ("kernels.local_m_huber_s", "s"),
    ("kernels.local_m_bisquare_s", "s"),
    ("kernels.rows", "count"),
    ("kernels.cells", "count"),
    ("kernels.flag1_rows", "count"),
    ("kernels.flag2_rows", "count"),
    ("robust_linear.gm_s", "s"),
    ("robust_linear.gm_calls", "count"),
    ("robust_linear.gm_iterations", "count"),
    ("robust_linear.gm_failures", "count"),
    ("robust_linear.ols_s", "s"),
    ("robust_linear.ols_calls", "count"),
    ("bandwidth.default_grid_s", "s"),
    ("bandwidth.select_s", "s"),
    ("bandwidth.select_self_s", "s"),
    ("bandwidth.candidates", "count"),
    ("bandwidth.infeasible", "count"),
    ("plm.fit_s", "s"),
    ("plm.fit_self_s", "s"),
    ("plm.fit_calls", "count"),
    ("plm.fit_robust_s", "s"),
    ("plm.fit_classical_s", "s"),
    ("inference.covariance_s", "s"),
    ("simulation.generate_s", "s"),
    ("simulation.campaign_self_s", "s"),
    ("simulation.failed_replications", "count"),
    ("cli.startup_s", "s"),
    ("cli.import_s", "s"),
    ("cli.ingest_s", "s"),
    ("cli.rows_ingested", "count"),
    ("cli.run_self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.coverage_frac", "ratio"),
)


def layer_metrics(spans: list[Span], units: int, traced_op_s: float,
                  untraced_op_s: float, traced_wall_s: float,
                  startup_s: list[float], import_s: list[float]) -> dict:
    """Every metric of PER_LAYER from one traced run.

    ``units`` is the number of workload units the traced operations did;
    ``traced_op_s`` and ``untraced_op_s`` are seconds per unit of the traced
    and the untraced operations; ``traced_wall_s`` is the summed wall time of the traced
    operations; ``startup_s`` and ``import_s`` are fresh-process probes.
    """
    totals, root_s = aggregate(spans)
    per = 1.0 / units
    dist = _layer(totals, "manifold.distances")
    weights = _layer(totals, "smoother.weights")
    smooth = _layer(totals, "smoother.smooth")
    kernels = _layer(totals, "kernels.local_m", any_variant=True)
    gm = _layer(totals, "robust_linear.gm")
    ols = _layer(totals, "robust_linear.ols")
    select = _layer(totals, "bandwidth.select")
    fit = _layer(totals, "plm.fit", any_variant=True)
    campaign = _layer(totals, "simulation.campaign")
    ingest = _layer(totals, "cli.ingest")
    computed = weights.counts.get("computed", 0)
    values = {
        "manifold.distances_s": dist.time_s * per,
        "manifold.distance_pairs": dist.counts.get("pairs", 0) * per,
        "manifold.distance_calls": dist.counts.get("calls", 0) * per,
        "smoother.weights_s": weights.time_s * per,
        "smoother.weight_nnz_frac": weights.counts.get("nnz", 0) / computed if computed else 0.0,
        "smoother.smooth_self_s": smooth.self_s * per,
        "smoother.smooth_calls": smooth.counts.get("calls", 0) * per,
        "smoother.columns": smooth.counts.get("columns", 0) * per,
        "kernels.local_m_huber_s": _layer(totals, "kernels.local_m", "huber").time_s * per,
        "kernels.local_m_bisquare_s": _layer(totals, "kernels.local_m", "bisquare").time_s * per,
        "kernels.rows": kernels.counts.get("rows", 0) * per,
        "kernels.cells": kernels.counts.get("cells", 0) * per,
        "kernels.flag1_rows": kernels.counts.get("flag1", 0) * per,
        "kernels.flag2_rows": kernels.counts.get("flag2", 0) * per,
        "robust_linear.gm_s": gm.time_s * per,
        "robust_linear.gm_calls": gm.counts.get("calls", 0) * per,
        "robust_linear.gm_iterations": gm.counts.get("iterations", 0) * per,
        "robust_linear.gm_failures": gm.counts.get("raised", 0) * per,
        "robust_linear.ols_s": ols.time_s * per,
        "robust_linear.ols_calls": ols.counts.get("calls", 0) * per,
        "bandwidth.default_grid_s": _layer(totals, "bandwidth.default_grid").time_s * per,
        "bandwidth.select_s": select.time_s * per,
        "bandwidth.select_self_s": select.self_s * per,
        "bandwidth.candidates": select.counts.get("candidates", 0) * per,
        "bandwidth.infeasible": select.counts.get("infeasible", 0) * per,
        "plm.fit_s": fit.time_s * per,
        "plm.fit_self_s": fit.self_s * per,
        "plm.fit_calls": fit.counts.get("calls", 0) * per,
        "plm.fit_robust_s": _layer(totals, "plm.fit", "robust").time_s * per,
        "plm.fit_classical_s": _layer(totals, "plm.fit", "classical").time_s * per,
        "inference.covariance_s": _layer(totals, "inference.covariance").time_s * per,
        "simulation.generate_s": _layer(totals, "simulation.generate").time_s * per,
        "simulation.campaign_self_s": campaign.self_s * per,
        "simulation.failed_replications": campaign.counts.get("failed_replications", 0) * per,
        "cli.startup_s": statistics.median(startup_s),
        "cli.import_s": statistics.median(import_s),
        "cli.ingest_s": ingest.time_s * per,
        "cli.rows_ingested": ingest.counts.get("rows", 0) * per,
        "cli.run_self_s": _layer(totals, "cli.run").self_s * per,
        "trace.overhead_frac": traced_op_s / untraced_op_s - 1.0,
        "trace.coverage_frac": root_s / traced_wall_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
