"""Shooting rotationally symmetric soliton profiles from a smooth origin.

Integrates the reduced system for three parameter sets, reports the
first-integral conservation and the end-to-end certification, and writes
one profile to CSV (the same format the command line emits).
"""

import os

from ricciwarp import AnsatzParams, certify_profile, shoot

cases = [
    AnsatzParams(k=1, m=2, lam=0.0, b0=1.0),    # steady
    AnsatzParams(k=2, m=3, lam=0.0, b0=1.0),    # steady, bigger factors
    AnsatzParams(k=1, m=2, lam=-0.1, b0=1.0),   # expanding
]

for params in cases:
    prof = shoot(params)
    a, b, _ = prof.interpolants()
    print(f"== k={params.k} m={params.m} lambda={params.lam} "
          f"b0={params.b0} ({prof.classification}) ==")
    print(f"  status {prof.status}, lifetime {prof.end_time:g}, "
          f"a(T)={float(a(prof.end_time)):.4f}, "
          f"b(T)={float(b(prof.end_time)):.4f}")
    print(f"  first integral: mean {prof.mu_mean:.9f}, "
          f"spread {prof.mu_spread:.2e}")
    report = certify_profile(prof)
    worst = max(e["residual"] for e in report.checks.values())
    print(f"  certification: {'pass' if report.verdict else 'fail'} "
          f"(worst residual {worst:.2e}, c = {report.c_value:.6f})\n")

out_dir = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out_dir, exist_ok=True)
path = os.path.join(out_dir, "steady_k1_m2.csv")
shoot(cases[0]).to_csv(path)
print(f"wrote {path}")

# the closure coefficient phi2 = phi''(0)/2 is the shooting degree of
# freedom; positive values blow up in finite time
prof = shoot(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, phi2=0.5))
print(f"phi2=+0.5 branch: status {prof.status} at t = {prof.end_time:.3f}")
