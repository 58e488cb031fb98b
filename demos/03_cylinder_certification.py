"""Certification chain on the round cylinder, and how it fails.

The cylinder dt^2 + b0^2 g_{S^m} with potential (lam/2) t^2 and
lam = (m-1)/b0^2 is an exact warped soliton: the structure equations hold,
the first integral is the constant m-1 (matching the fiber's Einstein
constant), and the assembled metric satisfies Ric + Hess(psi) = lam g.
Perturbing lambda by one percent (in the potential too) keeps the base
equations and the constancy of the first integral, but the first integral
becomes 1.01 (m-1), which no longer matches the fiber: the chain fails
``einstein_fiber`` and ``soliton_residual`` at the one-percent level and
prints their names.
"""

import numpy as np

from ricciwarp import (
    MetricPatch,
    WarpedGeometry,
    certify_soliton,
    constant_field,
    quadratic_potential,
    sphere_patch,
)


def cylinder(m, b0, lam):
    base = MetricPatch(1, np.array([[-2.5, 2.5]]),
                       lambda X: np.ones((len(X), 1, 1)), "line")
    return WarpedGeometry(base=base, fiber=sphere_patch(m),
                          f=constant_field(b0),
                          phi=quadratic_potential(lam), lam=lam)


for m in (2, 3):
    lam = 1.0
    b0 = float(np.sqrt((m - 1) / lam))
    print(f"== round cylinder m={m}, b0={b0:g}, lambda={lam} ==")
    report = certify_soliton(cylinder(m, b0, lam), tolerance=1e-8)
    for name, entry in report.checks.items():
        print(f"  {name:18s} residual {entry['residual']:.2e}  "
              f"({entry['samples']} samples)")
    print(f"  verdict: {'pass' if report.verdict else 'fail'}, "
          f"first integral mean {report.mu_mean:.9f}, c = {report.c_value:.9f}")

    report_bad = certify_soliton(cylinder(m, b0, 1.01 * lam), tolerance=1e-8)
    failed = [name for name, e in report_bad.checks.items() if not e["pass"]]
    worst = max(e["residual"] for e in report_bad.checks.values())
    print(f"  with lambda off by 1%: verdict "
          f"{'pass' if report_bad.verdict else 'fail'}, "
          f"failing {', '.join(failed) or 'nothing'}, "
          f"worst residual {worst:.2e}\n")
