"""Tour of the finite-difference curvature engine.

Evaluates Christoffel symbols, Ricci tensors, Hessians and Laplacians on
standard charts and compares them with the exact values, including a
step-refinement table showing the fourth-order convergence of the
stencils.
"""

import numpy as np

from ricciwarp import (
    christoffel,
    gradient_laplacian,
    hessian_fd,
    polar_plane_patch,
    quadratic_potential,
    ricci_fd,
    sphere_patch,
    ScalarField,
    euclidean_patch,
)

print("== Christoffel symbols of the polar plane dt^2 + t^2 dtheta^2 ==")
polar = polar_plane_patch()
x = np.array([1.0, 1.5])
G = christoffel(polar, x)
print(f"Gamma^t_(theta,theta) at t=1: {G[0, 1, 1]: .12f}   (exact -1)")
print(f"Gamma^theta_(t,theta) at t=1: {G[1, 0, 1]: .12f}   (exact  1)")

print("\n== Ricci of round spheres: Ric = (m-1)/r^2 * g ==")
for m, r in [(2, 1.0), (3, 1.0), (2, 2.0)]:
    p = sphere_patch(m, r)
    pt = np.full(m, 1.0)
    err = np.linalg.norm(ricci_fd(p, pt) - (m - 1) / r ** 2 * p.metric(pt))
    print(f"S^{m}(r={r}):  |Ric - (m-1)/r^2 g| = {err:.2e}")

print("\n== Convergence of the Ricci stencil on the unit 2-sphere ==")
p = sphere_patch(2)
pt = np.array([1.0, 1.0])
prev = None
for h in (0.1, 0.05, 0.025, 0.0125):
    err = np.linalg.norm(ricci_fd(p, pt, h) - p.metric(pt))
    rate = "" if prev is None else f"   ratio {prev / err:5.1f}"
    print(f"h = {h:<7g} error = {err:.3e}{rate}")
    prev = err

print("\n== Hessian and Laplacian checks ==")
flat = euclidean_patch(3)
Hq = hessian_fd(flat, quadratic_potential(0.7), np.array([0.3, -0.2, 0.5]))
print(f"Hess((0.7/2)|x|^2) on flat R^3 = 0.7*I, max error "
      f"{np.abs(Hq - 0.7 * np.eye(3)).max():.2e}")

u = ScalarField(lambda Y: np.cos(Y[:, 0]), "cos-theta")
res = gradient_laplacian(sphere_patch(2), u, np.array([1.2, 1.0]))
print(f"Laplacian of cos(theta) on S^2 at theta=1.2: {res.laplacian:+.10f} "
      f"(exact {-2 * np.cos(1.2):+.10f})")
