"""Numerical construction and certification of warped gradient Ricci solitons.

The package has four layers:

* ``patches`` / ``curvature`` -- coordinate charts and a finite-difference
  curvature engine (Christoffel, Ricci, Hessian, soliton residual) that
  acts as the independent oracle for everything else;
* ``warped`` -- warped-product assembly, closed-form Ricci blocks, the
  structure equations of warped soliton data, and the certification chain;
* ``shooting`` -- the rotationally symmetric ansatz reduced to an ODE
  system, integrated by shooting from a smooth origin;
* ``quotient`` -- finite isometric group actions and the hypothesis
  certificates for quotient constructions.

``cli`` wraps the workflows behind a JSON-config command line.
"""

__version__ = "0.1.0"

from .patches import (
    BoundaryProximityError,
    DegenerateMetricError,
    GeometryError,
    MetricPatch,
    ScalarField,
    SolitonConstants,
    cartesian_profile_base,
    einstein_model_fiber,
    euclidean_patch,
    hyperbolic_patch,
    polar_plane_patch,
    quadratic_potential,
    constant_field,
    radial_field,
    radial_profile_base,
    sphere_patch,
    torus_patch,
)
from .curvature import (
    DEFAULT_STEP,
    GradientData,
    christoffel,
    gradient_laplacian,
    hessian_fd,
    ricci_fd,
    soliton_residual,
    transform_chart,
)
from .warped import (
    BaseStructure,
    BlockMatrix,
    CertificationReport,
    WarpedGeometry,
    assemble_warped,
    base_structure,
    certify_soliton,
    einstein_check,
    lifted_potential,
    ricci_closed_form,
)
from .shooting import (
    AnsatzParams,
    IntegrationError,
    SolitonProfile,
    SweepRow,
    certify_profile,
    params_grid,
    profile_geometry,
    recompute_diagnostics,
    reduced_rhs,
    shoot,
    sweep,
    taylor_init,
)
from .quotient import (
    GroupAction,
    QuotientCertificate,
    certify_quotient,
    fixed_point_candidates,
    invariance_deviation,
    is_free,
    isometry_residual,
    make_cyclic_action,
    sphere_isometry_residual,
)

__all__ = [
    # patches
    "BoundaryProximityError", "DegenerateMetricError", "GeometryError",
    "MetricPatch", "ScalarField", "SolitonConstants", "cartesian_profile_base",
    "einstein_model_fiber", "euclidean_patch", "hyperbolic_patch",
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
    "certify_profile", "params_grid", "profile_geometry",
    "recompute_diagnostics", "reduced_rhs", "shoot", "sweep", "taylor_init",
    # quotient
    "GroupAction", "QuotientCertificate", "certify_quotient",
    "fixed_point_candidates", "invariance_deviation", "is_free",
    "isometry_residual", "make_cyclic_action", "sphere_isometry_residual",
]
