"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps public functions and methods of each ricciwarp module
from the outside: nothing under ``src/`` changes.  Every wrapped call
records one span (name, start, end, parent span, optional count) in flat
arrays kept in memory; the metrics are computed from them at the end.

A function imported by name into another module (``from .curvature
import ricci_fd``) is bound in several namespaces, so each wrapper is
installed in every ``ricciwarp`` module that binds the original object.
Methods are wrapped on their class.  Spans made inside sweep pool workers
stay in the workers and are lost.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array

import numpy as np

from workloads import SOLVE_CLASSES

NO_PARENT = -1
CLASS_LABELS = tuple(c[0] for c in SOLVE_CLASSES)

CHECKS = {  # span name -> check in certify_soliton's chain
    "warped.base_equation_residual": "base_equation",
    "warped.calibrate_scalar_constant": "scalar_equation",
    "warped.scalar_equation_residual": "scalar_equation",
    "warped.first_integral": "first_integral",
    "warped.einstein_check": "einstein_fiber",
    "curvature.soliton_residual": "soliton_residual",
}


def _nfev(args, kwargs, result):
    return int(result.nfev)


def _text_bytes(args, kwargs, result):
    return len(result.encode())


def _source_bytes(args, kwargs, result):
    source = kwargs.get("source", args[-1])
    if "\n" in str(source):
        return len(str(source).encode())
    return os.path.getsize(source)


def _points(args, kwargs, result):
    return int(np.size(args[1]))


def _rows(args, kwargs, result):
    return (len(result),
            sum(1 for row in result if row.status.startswith("error")))


# (span name, module, attribute, count); a missing attribute is skipped so
# the benchmark keeps running when a later change removes a function
FUNCTIONS = (
    ("fd.value_jet", "ricciwarp.fd", "value_jet", None),
    ("fd.value_grad", "ricciwarp.fd", "value_grad", None),
    ("fd.grid_derivative", "ricciwarp.fd", "grid_derivative", None),
    ("curvature.ricci_fd", "ricciwarp.curvature", "ricci_fd", None),
    ("curvature.hessian_fd", "ricciwarp.curvature", "hessian_fd", None),
    ("curvature.gradient_laplacian", "ricciwarp.curvature",
     "gradient_laplacian", None),
    ("curvature.soliton_residual", "ricciwarp.curvature",
     "soliton_residual", None),
    ("warped.certify_soliton", "ricciwarp.warped", "certify_soliton", None),
    ("warped.base_equation_residual", "ricciwarp.warped",
     "base_equation_residual", None),
    ("warped.calibrate_scalar_constant", "ricciwarp.warped",
     "calibrate_scalar_constant", None),
    ("warped.scalar_equation_residual", "ricciwarp.warped",
     "scalar_equation_residual", None),
    ("warped.first_integral", "ricciwarp.warped", "first_integral", None),
    ("warped.einstein_check", "ricciwarp.warped", "einstein_check", None),
    ("shooting.shoot", "ricciwarp.shooting", "shoot", None),
    ("shooting.solve_ivp", "ricciwarp.shooting", "solve_ivp", _nfev),
    ("shooting.certify_profile", "ricciwarp.shooting", "certify_profile", None),
    ("shooting.sweep", "ricciwarp.shooting", "sweep", _rows),
    ("quotient.certify_quotient", "ricciwarp.quotient", "certify_quotient", None),
    ("quotient.is_free", "ricciwarp.quotient", "is_free", None),
    ("quotient.isometry_residual", "ricciwarp.quotient",
     "isometry_residual", None),
    ("quotient.sphere_isometry_residual", "ricciwarp.quotient",
     "sphere_isometry_residual", None),
    ("quotient.invariance_deviation", "ricciwarp.quotient",
     "invariance_deviation", None),
    ("quotient.make_cyclic_action", "ricciwarp.quotient",
     "make_cyclic_action", None),
    ("cli.main", "ricciwarp.cli", "main", None),
)

# (span name, module, class, attribute, count)
METHODS = (
    ("patches.metric", "ricciwarp.patches", "MetricPatch", "metric", None),
    ("patches.field", "ricciwarp.patches", "ScalarField", "__call__", None),
    ("shooting.to_csv", "ricciwarp.shooting", "SolitonProfile", "to_csv",
     _text_bytes),
    ("shooting.from_csv", "ricciwarp.shooting", "SolitonProfile", "from_csv",
     _source_bytes),
    ("shooting.interpolants", "ricciwarp.shooting", "SolitonProfile",
     "interpolants", None),
    ("shooting.spline", "scipy.interpolate", "BSpline", "__call__", _points),
)


class Tracer:
    """In-memory span recorder with wrappers installed from outside."""

    def __init__(self):
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.values: list = []
        self._stack = [NO_PARENT]
        self._undo: list = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str, value=None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.values.append(value)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        names, starts, ends = self.names, self.starts, self.ends
        parents, values, stack = self.parents, self.values, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            values.append(None)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                values[idx] = count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every function and method in FUNCTIONS and METHODS."""
        namespaces = [mod for key, mod in sorted(sys.modules.items())
                      if key == "ricciwarp" or key.startswith("ricciwarp.")]
        for name, module, attr, count in FUNCTIONS:
            original = getattr(sys.modules[module], attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, count)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    self._undo.append((ns, attr, original))
                    setattr(ns, attr, wrapper)
        for name, module, cls_name, attr, count in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            raw = cls.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                patched = classmethod(self.wrap(name, raw.__func__, count))
            else:
                patched = self.wrap(name, raw, count)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, patched)

    def uninstall(self):
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    def dump(self, path: str):
        """Write the spans as JSON lines: name, start, end, parent, value."""
        with open(path, "w") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents,
                            self.values):
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _span_arrays(tr: Tracer):
    n = len(tr.names)
    starts = np.frombuffer(tr.starts, dtype=float, count=n)
    ends = np.frombuffer(tr.ends, dtype=float, count=n)
    parents = np.frombuffer(tr.parents, dtype=np.int64, count=n)
    dur = ends - starts
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent],
                        minlength=n)
    names = np.array(tr.names, dtype=object)
    return names, parents, dur, dur - child


def layer_metrics(tr: Tracer, output_bytes: int) -> dict:
    """Per-layer metrics over the spans of the ``op`` root spans.

    Spans under an ``op`` root whose value is ``(command, label)`` count;
    ``replay`` roots (the serial sweep replay) only feed the sweep's
    parallel efficiency.  Returns ``{name: (value, unit)}``.
    """
    names, parents, dur, self_t = _span_arrays(tr)
    n = names.size
    has_parent = parents >= 0
    root = _propagate(parents.tolist(), ~has_parent)
    in_op = names[root] == "op"

    def sel(name):
        return in_op & (names == name)

    def parent_is(mask):
        out = np.zeros(n, dtype=bool)
        out[has_parent] = mask[parents[has_parent]]
        return out

    def ops_of(command, label):
        return [i for i in np.flatnonzero(names == "op")
                if tr.values[i] == (command, label)]

    def calls(name):
        return int(sel(name).sum())

    def self_s(name):
        return float(self_t[sel(name)].sum())

    out = {}

    def put(key, value, unit):
        out[key] = (value, unit)

    # Ratios of metric evaluations ("metric calls per jet") count outermost
    # evaluations only: evaluating an assembled warped metric evaluates the
    # base and fiber metrics inside it, and those are not counted again.
    # ``patches.metric.calls`` counts every evaluation.

    # patches ---------------------------------------------------------------
    is_metric = names == "patches.metric"
    put("patches.metric.calls", calls("patches.metric"), "count")
    put("patches.metric.self_s", self_s("patches.metric"), "s")
    put("patches.field.calls", calls("patches.field"), "count")
    put("patches.field.self_s", self_s("patches.field"), "s")
    outer_metric = in_op & is_metric & ~parent_is(is_metric)

    def per_certificate(mask, label):
        ops = ops_of("certify", label)
        return int(np.isin(root[mask], ops).sum()) // len(ops) if ops else 0

    for label in CLASS_LABELS:
        put(f"patches.metric.calls_per_certificate.{label}",
            per_certificate(in_op & is_metric, label), "count")

    # fd --------------------------------------------------------------------
    for fn in ("value_jet", "value_grad", "grid_derivative"):
        put(f"fd.{fn}.calls", calls(f"fd.{fn}"), "count")
        put(f"fd.{fn}.self_s", self_s(f"fd.{fn}"), "s")
    per_jet = np.bincount(parents[outer_metric], minlength=n)
    jets = sel("fd.value_jet")
    put("fd.metric_calls_per_jet",
        int(per_jet[jets].max()) if jets.any() else 0, "count")

    # curvature -------------------------------------------------------------
    for fn in ("ricci_fd", "hessian_fd", "gradient_laplacian",
               "soliton_residual"):
        put(f"curvature.{fn}.calls", calls(f"curvature.{fn}"), "count")
        put(f"curvature.{fn}.self_s", self_s(f"curvature.{fn}"), "s")
    sr_anc = _propagate(parents.tolist(),
                        names == "curvature.soliton_residual")
    hits = sr_anc[outer_metric & (sr_anc >= 0)]
    put("curvature.metric_calls_per_soliton_residual",
        int(np.bincount(hits).max()) if hits.size else 0, "count")

    # warped ----------------------------------------------------------------
    put("warped.certify_soliton.self_s", self_s("warped.certify_soliton"), "s")
    under_cs = in_op & parent_is(names == "warped.certify_soliton")
    busy = {}
    for span_name, check in CHECKS.items():
        busy[check] = (busy.get(check, 0.0)
                       + float(dur[under_cs & (names == span_name)].sum()))
    for check, seconds in busy.items():
        put(f"warped.check.{check}_s", seconds, "s")

    # shooting --------------------------------------------------------------
    put("shooting.shoot.calls", calls("shooting.shoot"), "count")
    put("shooting.shoot.self_s", self_s("shooting.shoot"), "s")
    ivp = sel("shooting.solve_ivp")
    put("shooting.solve_ivp.busy_s", float(dur[ivp].sum()), "s")
    nfev = np.array([tr.values[i] for i in np.flatnonzero(ivp)], dtype=np.int64)
    put("shooting.nfev", int(nfev.sum()), "count")
    shoots = sel("shooting.shoot")
    for label in CLASS_LABELS:
        ops = ops_of("solve", label)
        n_shoot = int(np.isin(root[shoots], ops).sum())
        n_fev = int(nfev[np.isin(root[ivp], ops)].sum())
        put(f"shooting.nfev_per_shoot.{label}",
            n_fev // n_shoot if n_shoot else 0, "count")
    for fn in ("to_csv", "from_csv"):
        put(f"shooting.{fn}.self_s", self_s(f"shooting.{fn}"), "s")
        put(f"shooting.{fn}.bytes",
            sum(tr.values[i] for i in np.flatnonzero(sel(f"shooting.{fn}"))),
            "bytes")
    put("shooting.interpolants.self_s", self_s("shooting.interpolants"), "s")
    spl = sel("shooting.spline")
    n_spl = int(spl.sum())
    points = sum(tr.values[i] for i in np.flatnonzero(spl))
    put("shooting.spline.calls", n_spl, "count")
    put("shooting.spline.points", points, "count")
    put("shooting.spline.points_per_call", points / n_spl if n_spl else 0.0,
        "ratio")
    for label in CLASS_LABELS:
        put(f"shooting.spline.calls_per_certificate.{label}",
            per_certificate(spl, label), "count")
    put("shooting.certify_profile.self_s", self_s("shooting.certify_profile"),
        "s")
    sweeps = [tr.values[i] for i in np.flatnonzero(sel("shooting.sweep"))]
    put("shooting.sweep.rows", sum(r for r, _ in sweeps), "count")
    put("shooting.sweep.row_errors", sum(e for _, e in sweeps), "count")
    put("shooting.sweep.parallel_efficiency",
        _parallel_efficiency(tr, names, root, dur), "ratio")

    # quotient --------------------------------------------------------------
    for fn in ("certify_quotient", "is_free", "isometry_residual",
               "sphere_isometry_residual", "invariance_deviation",
               "make_cyclic_action"):
        put(f"quotient.{fn}.self_s", self_s(f"quotient.{fn}"), "s")

    # cli -------------------------------------------------------------------
    put("cli.main.calls", calls("cli.main"), "count")
    put("cli.main.self_s", self_s("cli.main"), "s")
    put("cli.output_bytes", output_bytes, "bytes")
    return out


def _propagate(parents: list, marks) -> np.ndarray:
    """Index of each span's nearest marked ancestor (itself if marked), or -1.

    Parents precede their children in the span order, so one forward pass
    suffices.
    """
    marks = marks.tolist()
    out = [-1] * len(parents)
    for i, parent in enumerate(parents):
        if marks[i]:
            out[i] = i
        elif parent >= 0:
            out[i] = out[parent]
    return np.array(out, dtype=np.int64)


def _parallel_efficiency(tr, names, root, dur) -> float:
    """Serial replay time / (workers x mean parallel time), summed over grids.

    A ``replay`` root's value is ``(label, workers)``; the parallel sweeps
    of that label are the ``shooting.sweep`` spans under ``op`` roots.
    """
    serial = parallel = 0.0
    is_sweep = names == "shooting.sweep"
    for i in np.flatnonzero(names == "replay"):
        label, workers = tr.values[i]
        replay = dur[is_sweep & (root == i)]
        ops = [j for j in np.flatnonzero(names == "op")
               if tr.values[j] == ("sweep", label)]
        runs = dur[is_sweep & np.isin(root, ops)]
        if replay.size and runs.size:
            serial += float(replay.sum())
            parallel += workers * float(runs.mean())
    return serial / parallel if parallel else 0.0
