"""Sweep the shooting parameters and tabulate lifetimes and growth.

Rows record how far each profile integrates before a metric coefficient
degenerates or the state blows up, the first-integral statistics, and the
local log-slopes t y'/y of a and b at the end of the span (t_end) and in
its middle (t about t_end / 2).
"""

from ricciwarp import params_grid, sweep

grid = params_grid(ks=[1, 2], ms=[2, 3], lams=[0.0, -0.1, 0.5],
                   b0s=[1.0], t_max=6.0, rtol=1e-9, atol=1e-9)
rows = sweep(grid)

hdr = f"{'k':>2} {'m':>2} {'lambda':>7} {'b0':>4} {'status':<12} " \
      f"{'T':>6} {'mu':>9} {'slope_a':>7} {'slope_b':>7} " \
      f"{'a_mid':>7} {'b_mid':>7}"
print(hdr)
print("-" * len(hdr))
for r in rows:
    print(f"{r.k:>2} {r.m:>2} {r.lam:>7.2f} {r.b0:>4.1f} {r.status:<12} "
          f"{r.lifetime:>6.2f} {r.mu_mean:>9.4f} {r.slope_a:>7.3f} "
          f"{r.slope_b:>7.3f} {r.slope_a_mid:>7.3f} {r.slope_b_mid:>7.3f}")

print("\ncompleted means a, b > 0 up to t_max, no more: the shrinking rows")
print("(lambda > 0) collapse in finite time, or reach t_max with negative")
print("end slopes, their coefficients already shrinking.")
