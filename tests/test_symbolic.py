"""Symbolic referee for the reduced ODE kernel.

Derives Ric + Hess(phi) - lam g for dt^2 + a(t)^2 g_{S^k} + b(t)^2 g_{S^m}
in spherical coordinates from the metric alone, solves the t-, S^k- and
S^m-components for a'', b'' and phi'', and compares the result with the
kernel and with the integrator's right side ``_rhs_with_phi`` at seeded
random states.
"""

import numpy as np
import pytest

from ricciwarp import AnsatzParams
from ricciwarp.shooting import _reduced_kernel, _rhs_with_phi

sp = pytest.importorskip("sympy")

t = sp.Symbol("t")
A, B, PHI = (sp.Function(name)(t) for name in ("a", "b", "phi"))
# a, a', a'', b, b', b'', phi', phi'', lam
a0, a1, a2, b0, b1, b2, p1, p2, lam = sp.symbols("a0 a1 a2 b0 b1 b2 p1 p2 lam")


def _round_sphere(angles):
    """Diagonal of the round metric in spherical coordinates."""
    diag, scale = [], sp.Integer(1)
    for theta in angles:
        diag.append(scale)
        scale = scale * sp.sin(theta) ** 2
    return diag


def _solved_second_derivatives(k, m):
    """(a'', b'', phi'') as functions of (a, a', b, b', phi', lam); for
    k = 0 only (b'', phi'')."""
    alpha = sp.symbols(f"alpha0:{k}")
    theta = sp.symbols(f"theta0:{m}")
    x = (t, *alpha, *theta)
    g = [sp.Integer(1)] + [A ** 2 * c for c in _round_sphere(alpha)] \
        + [B ** 2 * c for c in _round_sphere(theta)]
    n = len(x)
    # Christoffel symbols of a diagonal metric
    gam = [[[(sp.diff(g[i], x[k_]) if i == j else 0)
             + (sp.diff(g[i], x[j]) if i == k_ else 0)
             - (sp.diff(g[j], x[i]) if j == k_ else 0)
             for k_ in range(n)] for j in range(n)] for i in range(n)]
    gam = [[[gam[i][j][k_] / (2 * g[i]) for k_ in range(n)]
            for j in range(n)] for i in range(n)]

    def ricci(j):
        return sum(sp.diff(gam[i][j][j], x[i]) - sp.diff(gam[i][j][i], x[j])
                   + sum(gam[i][i][q] * gam[q][j][j] - gam[i][j][q] * gam[q][j][i]
                         for q in range(n))
                   for i in range(n))

    def hess(j):
        return sp.diff(PHI, x[j], 2) - sum(gam[q][j][j] * sp.diff(PHI, x[q])
                                            for q in range(n))

    # the t-component and the first coordinate of each sphere factor
    rows = [0, 1, 1 + k] if k >= 1 else [0, 1]
    subs = {PHI.diff(t, 2): p2, PHI.diff(t): p1,
            A.diff(t, 2): a2, A.diff(t): a1, A: a0,
            B.diff(t, 2): b2, B.diff(t): b1, B: b0}
    eqs = [sp.simplify(((ricci(j) + hess(j)) / g[j] - lam).subs(subs))
           for j in rows]
    unknowns = [a2, b2, p2] if k >= 1 else [b2, p2]
    sol = sp.solve(eqs, unknowns, dict=True)
    assert len(sol) == 1
    return sp.lambdify((a0, a1, b0, b1, p1, lam), [sol[0][u] for u in unknowns],
                       "math")


@pytest.mark.parametrize("k,m", [(0, 2), (1, 2), (2, 2)])
def test_kernel_matches_symbolic_derivation(k, m):
    second = _solved_second_derivatives(k, m)
    rng = np.random.default_rng(100 * k + m)
    for _ in range(20):
        a, b = rng.uniform(0.3, 3.0, size=2)
        ap, bp, phip = rng.uniform(-2.0, 2.0, size=3)
        lm = float(rng.uniform(-1.0, 1.0))
        params = AnsatzParams(k=k, m=m, lam=lm, b0=1.0)
        want = second(a, ap, b, bp, phip, lm)   # [a'',] b'', phi''

        s_a, s_b, phipp = _reduced_kernel(params, a, ap, b, bp, phip)
        kernel = [a * s_a, b * s_b, phipp]
        # the a'', b'' and phi'' slots of the state derivative
        if k >= 1:
            dy = _rhs_with_phi(params)(np.array([a, ap, b, bp, 0.0, phip]))
            rhs = [dy[1], dy[3], dy[5]]
        else:
            dy = _rhs_with_phi(params)(np.array([b, bp, 0.0, phip]))
            rhs = [dy[1], dy[3]]
        np.testing.assert_allclose(kernel[3 - len(want):], want,
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(rhs, want, rtol=1e-12, atol=0)
