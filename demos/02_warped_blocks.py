"""Closed-form Ricci blocks of warped metrics against the oracle.

Builds three warped geometries (trivial warping, constant warping, and
f = t over an annulus), evaluates the block formulas

    HH = Ric_B - (m/f) Hess f,   HV = 0,
    VV = Ric_F - [f Lap f + (m-1)|grad f|^2] g_F,

and compares the assembled matrix with the finite-difference Ricci of the
product metric, which knows nothing about the warped structure.
"""

import numpy as np

from ricciwarp import (
    ScalarField,
    WarpedGeometry,
    assemble_warped,
    constant_field,
    polar_plane_patch,
    ricci_closed_form,
    ricci_fd,
    sphere_patch,
)

geometries = {
    "product (f = 1)": WarpedGeometry(
        base=polar_plane_patch(), fiber=sphere_patch(2),
        f=constant_field(1.0), phi=constant_field(0.0), lam=0.0),
    "cylinder (f = b0)": WarpedGeometry(
        base=polar_plane_patch(), fiber=sphere_patch(2),
        f=constant_field(1.3), phi=constant_field(0.0), lam=0.0),
    "annulus (f = t)": WarpedGeometry(
        base=polar_plane_patch(t_range=(0.5, 2.5)), fiber=sphere_patch(1),
        f=ScalarField(lambda X: X[:, 0], "t"), phi=constant_field(0.0),
        lam=0.0),
}

for name, geom in geometries.items():
    patch = assemble_warped(geom)
    x = np.concatenate([geom.base.center(), geom.fiber.center()])
    blocks = ricci_closed_form(geom, x)
    oracle = ricci_fd(patch, x)
    n = geom.base.dim
    print(f"{name:20s} |closed - oracle| = "
          f"{np.linalg.norm(blocks.full() - oracle):.2e}   "
          f"|mixed block| = {np.abs(oracle[:n, n:]).max():.2e}")

print("\nVertical block of the annulus fixture (f = t, circle fiber):")
geom = geometries["annulus (f = t)"]
x = np.array([1.3, 1.0, 2.2])
blocks = ricci_closed_form(geom, x)
print(f"  VV = {blocks.vv[0, 0]:+.9f}  "
      "(f Lap f = 1 and |grad f|^2 = 1 with m = 1 give exactly -1)")
