"""The package namespace exports names, not submodules, and every
exported name resolves; the integrator imports nothing of the package."""

import ast
import importlib
import json
import pathlib
import types

import numpy as np
import pytest

import ricciwarp
from ricciwarp import fd
from ricciwarp.patches import _strict_json


def test_all_names_resolve_and_none_is_a_module():
    assert len(ricciwarp.__all__) == len(set(ricciwarp.__all__))
    for name in ricciwarp.__all__:
        assert not isinstance(getattr(ricciwarp, name), types.ModuleType), name


@pytest.mark.parametrize("module", ["patches", "fd", "curvature", "warped",
                                    "dop853", "shooting", "quotient"])
def test_submodule_all_names_resolve(module):
    mod = importlib.import_module(f"ricciwarp.{module}")
    assert len(mod.__all__) == len(set(mod.__all__))
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_integrator_imports_nothing_of_the_package():
    # the DOP853 loop knows nothing of solitons: no import of ricciwarp,
    # relative or absolute, anywhere in its module
    import ricciwarp.dop853 as dop853
    tree = ast.parse(pathlib.Path(dop853.__file__).read_text())
    sources = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    sources += ["." * node.level + (node.module or "")
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert sources and "numpy" in sources
    assert not [name for name in sources
                if name.startswith(".") or name.split(".")[0] == "ricciwarp"]
    assert dop853.__all__ == []


# the names the CLI, the demos and the tests use
EXPORTS = {
    # patches
    "BoundaryProximityError", "DegenerateMetricError", "GeometryError",
    "MetricPatch", "ScalarField", "cartesian_profile_base",
    "euclidean_patch", "hyperbolic_patch",
    "polar_plane_patch", "quadratic_potential", "constant_field",
    "radial_field", "radial_profile_base", "sphere_patch", "torus_patch",
    # curvature
    "DEFAULT_STEP", "GradientData", "christoffel", "gradient_laplacian",
    "hessian_fd", "ricci_fd", "soliton_residual", "transform_chart",
    # warped
    "BaseStructure", "BlockMatrix", "CertificationReport", "WarpedGeometry",
    "assemble_warped", "base_structure", "certify_soliton", "einstein_check",
    "lifted_potential", "ricci_closed_form",
    # shooting
    "AnsatzParams", "IntegrationError", "SolitonProfile", "SweepRow",
    "certify_profile", "params_grid", "profile_geometry", "shoot", "sweep",
    "ambient_geometry", "GRID_COLUMNS",
    # quotient
    "GroupAction", "QuotientCertificate", "certify_quotient",
    "fixed_point_candidates", "make_cyclic_action",
    "fiber_sample_set", "base_sample_set",
}


def test_package_all_is_the_submodule_lists():
    lists = [importlib.import_module(f"ricciwarp.{module}").__all__
             for module in ("patches", "curvature", "warped", "shooting",
                            "quotient")]
    assert ricciwarp.__all__ == [name for names in lists for name in names]
    assert len(ricciwarp.__all__) == len(set(ricciwarp.__all__)) == 51
    assert set(ricciwarp.__all__) == EXPORTS


# the benchmark tracer's targets that name deleted code: each reads 0 in
# its spans until the tracer counts what the code does now
_DEAD_TRACER_TARGETS = {
    "fd.value_grad", "fd.grid_derivative",
    "warped.base_equation_residual", "warped.calibrate_scalar_constant",
    "warped.scalar_equation_residual", "warped.first_integral",
    "shooting.solve_ivp",
    "quotient.is_free", "quotient.isometry_residual",
    "quotient.sphere_isometry_residual", "quotient.invariance_deviation",
}


def test_bench_tracer_profile_targets_resolve(monkeypatch):
    # the benchmark's tracer wraps its functions and methods by name and
    # skips one that is missing, so a rename would read 0 in its spans
    # instead of failing: every target resolves as the tracer resolves it,
    # or names deleted code
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    missing = {name for name, module, attr, _ in tracing.FUNCTIONS
               if getattr(importlib.import_module(module), attr, None) is None}
    missing |= {name for name, module, cls, attr, _ in tracing.METHODS
                if attr not in vars(getattr(importlib.import_module(module),
                                            cls))}
    assert missing <= _DEAD_TRACER_TARGETS, missing - _DEAD_TRACER_TARGETS


@pytest.mark.parametrize("call,message", [
    (lambda: ricciwarp.MetricPatch(0, np.zeros((0, 2)), None),
     "patch dimension must be >= 1"),
    (lambda: ricciwarp.MetricPatch(2, [[0.0, 1.0], [1.0, 1.0]], None),
     "domain box must have hi > lo on every axis"),
    (lambda: ricciwarp.sphere_patch(0), "sphere dimension must be >= 1"),
    (lambda: ricciwarp.hyperbolic_patch(1),
     "hyperbolic model needs dimension >= 2"),
    (lambda: ricciwarp.GroupAction(1, np.eye(2), np.eye(3),
                                   np.zeros((0, 2)), np.zeros((0, 3))),
     "group order must be >= 2"),
    (lambda: fd.value_jet(np.sum, np.zeros(2), 1e-3),
     "value_jet needs points of shape (N, dim), got (2,)"),
    (lambda: ricciwarp.transform_chart(ricciwarp.euclidean_patch(2),
                                       np.eye(3)),
     "chart map must be 2x2"),
], ids=["patch-dimension-0", "patch-empty-box", "sphere-0", "hyperbolic-1",
        "group-order-1", "value-jet-1d-points", "chart-map-3x3"])
def test_public_input_refused(call, message):
    # each public constructor or function refuses an input it cannot take
    # with its ValueError and message
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_strict_json_nulls_non_finite_in_lists():
    # NaN and +-inf are written as null inside lists and tuples too, as in
    # dicts, so a report's list of numbers stays strict JSON
    doc = {"a": [1.0, float("nan"), (float("inf"), -float("inf"), 2)]}
    assert json.loads(_strict_json(doc)) == {"a": [1.0, None,
                                                   [None, None, 2]]}
