"""Quotient hypothesis certificates for cyclic actions.

Checks the antipodal action on S^2 and an order-3 Hopf-type rotation on
S^3, paired with base rotations that preserve the radial coordinate of a
shot profile, then shows how a pole-fixing rotation is caught by the
eigenspace samples in the certificate's freeness margin.
"""

from ricciwarp import (
    AnsatzParams,
    ambient_geometry,
    certify_quotient,
    make_cyclic_action,
    shoot,
)

geometry = {}
for p, m, kind in [(2, 2, "antipodal"), (3, 3, "hopf")]:
    prof = shoot(AnsatzParams(k=1, m=m, lam=0.0, b0=1.0, t_max=6.0))
    base, f, phi = geometry[m] = ambient_geometry(prof)
    action = make_cyclic_action(p, 1, m, kind)
    cert = certify_quotient(action, base, f, phi)
    print(f"== Z_{p} {kind} on S^{m} ==")
    print(f"  freeness margin          {cert.freeness_margin:.6f}")
    print(f"  base isometry residual   {cert.base_isometry_residual:.2e}")
    print(f"  fiber isometry residual  {cert.fiber_isometry_residual:.2e}")
    print(f"  f / phi invariance       {cert.f_invariance:.2e} / "
          f"{cert.phi_invariance:.2e}")
    print(f"  diagonal action          residual "
          f"{cert.diagonal_isometry_residual:.2e}, margin "
          f"{cert.diagonal_freeness_margin:.4f}")
    print(f"  verdict: {'pass' if cert.verdict else 'fail'}\n")

print("== Z_2 rotation about an axis of S^2 (has fixed poles) ==")
bad = certify_quotient(make_cyclic_action(2, 1, 2, "axis_rotation"),
                       *geometry[2])
print(f"  freeness margin {bad.freeness_margin}  "
      "(zero displacement at an eigenspace sample)")
print(f"  verdict: {'pass' if bad.verdict else 'fail'}")
