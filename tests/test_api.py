"""The package namespace exports names, not submodules, and every
exported name resolves; the integrator imports nothing of the package."""

import ast
import importlib
import pathlib
import types

import pytest

import ricciwarp


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


def test_bench_tracer_profile_targets_resolve(monkeypatch):
    # the benchmark's tracer wraps these methods by name and skips one that
    # is missing, so a rename would read 0 in its spans instead of failing
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    tracing = importlib.import_module("tracing")
    targets = {attr: importlib.import_module(module).__dict__[cls]
               for _, module, cls, attr, _ in tracing.METHODS
               if cls == "SolitonProfile"}
    assert sorted(targets) == ["from_csv", "interpolants", "to_csv"]
    for attr, cls in targets.items():
        assert attr in vars(cls), attr
