"""In-memory span tracing of the semidanse layers, driven from outside the library.

Each probe replaces a library function at the name its caller looks it up
(`estimator.forward_batch`, `harness.ekf_batch`, `SsmSpec.transition_batch`,
...), records one span per call and restores the original on exit. A span
holds its name, start and end (perf_counter nanoseconds), the span that was
open when it started, the operation id (0 is the set-up) and a few counts
taken from the call's arguments or result. Spans stay in memory and are
written out once, when the run ends. A span's self time is its duration minus
the durations of its direct children; calls are sequential, so children never
overlap.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import time
from functools import wraps

import numpy as np

from semidanse import baselines, dataset, dynamics, estimator, harness, measurement, metrics, prior_net


def _net_flops(params, b: int, t: int) -> int:
    """Multiply-add flops of one forward pass, computed from the layer shapes."""
    d = params.dims
    cell = 2 * (3 * d.input_dim * d.hidden + 3 * d.hidden * d.hidden)
    heads = 2 * (d.hidden * d.trunk + 2 * d.trunk * d.head + 2 * d.head * d.state_dim)
    return b * (max(t - 1, 0) * cell + t * heads)


def _forward_counts(args, out):
    b, t = args[1].shape[:2]
    cache = out[2]
    cache_bytes = sum(getattr(cache, f.name).nbytes for f in dataclasses.fields(cache) if f.name != "ys")
    return {"item_steps": b * t, "flops": _net_flops(args[0], b, t), "cache_bytes": cache_bytes}


def _backward_counts(args, out):
    b, t = args[1].ys.shape[:2]
    # Reverse mode costs two matmuls per forward matmul (input and weight gradients).
    return {"item_steps": b * t, "flops": 2 * _net_flops(args[0], b, t)}


def _filter_counts(args, out):
    b, t = args[0].shape[:2]
    return {"item_steps": b * t, "predict_steps": max(t - 1, 0)}


# (owner, attribute, span name, counts(args, out) or None)
PROBES = (
    (estimator, "forward_batch", "prior_net.forward_batch", _forward_counts),
    (estimator, "backward_batch", "prior_net.backward_batch", _backward_counts),
    (estimator, "_batch_loss_and_grads", "estimator.batch_loss_and_grads",
     lambda args, out: {"labelled": sum(item.labelled for item in args[1])}),
    (estimator.Adam, "step", "estimator.adam_step", None),
    (estimator, "_validation_metric", "estimator.validation", None),
    (estimator, "infer_batch", "estimator.infer_batch", None),
    (harness, "infer_batch", "estimator.infer_batch", None),
    (harness, "ekf_batch", "baselines.ekf_batch", _filter_counts),
    (harness, "ukf_batch", "baselines.ukf_batch", _filter_counts),
    (dynamics.SsmSpec, "transition_batch", "dynamics.transition_batch",
     lambda args, out: {"rows": args[1].shape[0]}),
    (dynamics, "taylor_matrix_exp", "numerics.taylor_matrix_exp",
     lambda args, out: {"matrices": int(np.prod(args[0].shape[:-2]))}),
    (dynamics, "covariance_factor", "numerics.covariance_factor", None),
    (measurement, "covariance_factor", "numerics.covariance_factor", None),
    (baselines, "covariance_factor", "numerics.covariance_factor", None),
    (dynamics, "simulate_batch", "dynamics.simulate_batch",
     lambda args, out: {"row_steps": len(args[2]) * args[1]}),
    (dataset, "simulate_batch", "dynamics.simulate_batch",
     lambda args, out: {"row_steps": len(args[2]) * args[1]}),
    (harness, "calibrate_sigma_w", "measurement.calibrate_sigma_w", None),
    (dataset, "measure_states", "measurement.measure_states", None),
    (dataset, "generate", "dataset.generate", None),
    (dataset, "read_container", "serialize.read_container",
     lambda args, out: {"bytes": os.path.getsize(args[0])}),
    (prior_net, "read_container", "serialize.read_container",
     lambda args, out: {"bytes": os.path.getsize(args[0])}),
    (dataset, "write_container", "serialize.write_container",
     lambda args, out: {"bytes": os.path.getsize(args[0])}),
    (prior_net, "write_container", "serialize.write_container",
     lambda args, out: {"bytes": os.path.getsize(args[0])}),
    (metrics, "nmse_db_per_trajectory", "metrics.nmse_db_per_trajectory", None),
    (harness, "build_datasets", "harness.build_datasets", None),
    (harness, "run_sweep", "harness.run_sweep", None),
)


@dataclasses.dataclass
class Span:
    span_id: int
    parent: int  # -1 for a root span
    op: int
    name: str
    start_ns: int
    end_ns: int
    counts: dict

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Collects spans while installed; `with tracer:` installs every probe."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counts):
        @wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._open[-1] if self._open else -1, self.op, name, 0, 0, {})
            self.spans.append(span)
            self._open.append(span.span_id)
            span.start_ns = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._open.pop()
            if counts is not None:
                span.counts = counts(args, out)
            return out
        return traced

    def __enter__(self):
        for owner, attr, name, counts in PROBES:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counts))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent,op,name,start_ns,end_ns\n")
            for s in self.spans:
                fh.write(f"{s.span_id},{s.parent},{s.op},{s.name},{s.start_ns},{s.end_ns}\n")


# ---------------------------------------------------------------------------
# Per-layer figures.
# ---------------------------------------------------------------------------

# Metric name -> unit, in the order they are reported.
LAYER_METRICS = {
    "prior_net.forward_batch.calls": "count",
    "prior_net.forward_batch.busy_s": "s",
    "prior_net.forward_batch.ns_per_item_step": "ns",
    "prior_net.forward_batch.gflop_per_s": "GFLOP/s",
    "prior_net.forward_batch.cache_mb": "MB",
    "prior_net.backward_batch.calls": "count",
    "prior_net.backward_batch.busy_s": "s",
    "prior_net.backward_batch.ns_per_item_step": "ns",
    "prior_net.backward_batch.gflop_per_s": "GFLOP/s",
    "estimator.batch_loss_and_grads.calls": "count",
    "estimator.batch_loss_and_grads.self_s": "s",
    "estimator.batch_loss_and_grads.p50_ms": "ms",
    "estimator.batch_loss_and_grads.p90_ms": "ms",
    "estimator.batch_loss_and_grads.labelled_items": "count",
    "estimator.adam_step.calls": "count",
    "estimator.adam_step.busy_s": "s",
    "estimator.validation.calls": "count",
    "estimator.validation.busy_s": "s",
    "estimator.validation.forward_calls": "count",
    "estimator.infer_batch.calls": "count",
    "estimator.infer_batch.busy_s": "s",
    "estimator.infer_batch.self_s": "s",
    "baselines.ekf_batch.busy_s": "s",
    "baselines.ekf_batch.self_s": "s",
    "baselines.ekf_batch.steps_per_s": "1/s",
    "baselines.ukf_batch.busy_s": "s",
    "baselines.ukf_batch.self_s": "s",
    "baselines.ukf_batch.steps_per_s": "1/s",
    "dynamics.transition_batch.calls": "count",
    "dynamics.transition_batch.rows": "count",
    "dynamics.transition_batch.busy_s": "s",
    "dynamics.transition_batch.calls_per_ekf_step": "count",
    "dynamics.transition_batch.calls_per_ukf_step": "count",
    "numerics.taylor_matrix_exp.calls": "count",
    "numerics.taylor_matrix_exp.matrices": "count",
    "numerics.taylor_matrix_exp.busy_s": "s",
    "numerics.covariance_factor.calls": "count",
    "numerics.covariance_factor.busy_s": "s",
    "dynamics.simulate_batch.calls": "count",
    "dynamics.simulate_batch.row_steps": "count",
    "dynamics.simulate_batch.busy_s": "s",
    "dynamics.simulate_batch.simulations_per_split": "count",
    "measurement.calibrate_sigma_w.busy_s": "s",
    "measurement.measure_states.busy_s": "s",
    "dataset.generate.busy_s": "s",
    "serialize.read_container.bytes": "B",
    "serialize.read_container.busy_s": "s",
    "serialize.write_container.bytes": "B",
    "serialize.write_container.busy_s": "s",
    "metrics.nmse_db_per_trajectory.busy_s": "s",
    "harness.build_datasets.self_s": "s",
    "harness.run_sweep.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ancestor(spans: list[Span], span: Span, names: set[str]) -> str | None:
    """Name of the nearest enclosing span whose name is in `names`."""
    parent = span.parent
    while parent >= 0:
        if spans[parent].name in names:
            return spans[parent].name
        parent = spans[parent].parent
    return None


def _phase_totals(spans: list[Span], members: list[Span]) -> dict[str, float]:
    """Additive totals (calls, busy/self nanoseconds, counts) over one phase."""
    child_ns: dict[int, int] = {}
    for s in members:
        if s.parent >= 0:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + s.ns
    totals: dict[str, float] = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for s in members:
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.busy_ns", s.ns)
        add(f"{s.name}.self_ns", s.ns - child_ns.get(s.span_id, 0))
        for key, value in s.counts.items():
            add(f"{s.name}.{key}", value)
        if s.name == "prior_net.forward_batch" and _ancestor(spans, s, {"estimator.validation"}):
            add("estimator.validation.forward_calls", 1)
        if s.name == "dynamics.transition_batch":
            owner = _ancestor(spans, s, {"baselines.ekf_batch", "baselines.ukf_batch"})
            if owner:
                add(f"{owner}.transition_calls", 1)
        if s.name in ("dynamics.simulate_batch", "dataset.generate") and \
                _ancestor(spans, s, {"harness.build_datasets"}):
            add(f"{s.name}.in_build", 1)
    return totals


def layer_figures(spans: list[Span], overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one operation.

    Additive figures are the set-up's total plus the median over the traced
    operations (counts are equal in every operation, so their median is
    exact); rates divide those figures. Per-call percentiles and the cache
    size use every span.
    """
    phases: dict[int, list[Span]] = {}
    for s in spans:
        phases.setdefault(s.op, []).append(s)
    setup = _phase_totals(spans, phases.pop(0, []))
    per_op = [_phase_totals(spans, members) for members in phases.values()] or [{}]
    keys = set(setup).union(*per_op)
    t = {k: setup.get(k, 0) + statistics.median(op.get(k, 0) for op in per_op) for k in keys}

    def get(key):
        return t.get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, float] = {}
    for name, unit in LAYER_METRICS.items():
        layer, stat = name.rsplit(".", 1)
        if stat in ("calls", "rows", "matrices", "row_steps", "bytes"):
            out[name] = int(get(f"{layer}.{stat}"))
        elif stat in ("busy_s", "self_s"):
            out[name] = get(f"{layer}.{stat[:-2]}_ns") / 1e9
    fwd, bwd = "prior_net.forward_batch", "prior_net.backward_batch"
    for layer in (fwd, bwd):
        out[f"{layer}.ns_per_item_step"] = ratio(get(f"{layer}.busy_ns"), get(f"{layer}.item_steps"))
        out[f"{layer}.gflop_per_s"] = ratio(get(f"{layer}.flops"), get(f"{layer}.busy_ns"))
    # The backward-pass cache that inference builds and then drops.
    out[f"{fwd}.cache_mb"] = max(
        (s.counts["cache_bytes"] / 2**20 for s in spans
         if s.name == fwd and s.parent >= 0 and spans[s.parent].name == "estimator.infer_batch"),
        default=0.0,
    )
    loss_ms = [s.ns / 1e6 for s in spans if s.name == "estimator.batch_loss_and_grads"]
    p50, p90 = np.percentile(loss_ms, [50, 90]) if loss_ms else (0.0, 0.0)
    out["estimator.batch_loss_and_grads.p50_ms"] = float(p50)
    out["estimator.batch_loss_and_grads.p90_ms"] = float(p90)
    out["estimator.batch_loss_and_grads.labelled_items"] = int(get("estimator.batch_loss_and_grads.labelled"))
    out["estimator.validation.forward_calls"] = int(get("estimator.validation.forward_calls"))
    for flt, short in (("baselines.ekf_batch", "ekf"), ("baselines.ukf_batch", "ukf")):
        out[f"{flt}.steps_per_s"] = ratio(get(f"{flt}.item_steps") * 1e9, get(f"{flt}.busy_ns"))
        out[f"dynamics.transition_batch.calls_per_{short}_step"] = ratio(
            get(f"{flt}.transition_calls"), get(f"{flt}.predict_steps"))
    out["dynamics.simulate_batch.simulations_per_split"] = ratio(
        get("dynamics.simulate_batch.in_build"), get("dataset.generate.in_build"))
    out["trace.overhead_ratio"] = overhead_ratio
    return {name: out[name] for name in LAYER_METRICS}
