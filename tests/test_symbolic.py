"""Symbolic referee for the reduced ODE kernel and its series start.

Derives Ric + Hess(phi) - lam g for dt^2 + a(t)^2 g_{S^k} + b(t)^2 g_{S^m}
in spherical coordinates from the metric alone, solves the t-, S^k- and
S^m-components for a'', b'' and phi'', and compares the result with the
kernel and with the integrator's right side ``_rhs_with_phi`` at seeded
random states, shows that the kernel's fiber equation is the textbook
warped first integral, and solves the derived system order by order for
the first coefficients of the series start.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from ricciwarp import AnsatzParams
from ricciwarp.shooting import _reduced_kernel, _rhs_with_phi, _series

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


def _second_derivatives(k, m):
    """[a'',] b'', phi'' as expressions in the symbols (a0, a1, b0, b1, p1,
    lam) of (a, a', b, b', phi', lam); for k = 0 only b'' and phi''."""
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
    return [sol[0][u] for u in unknowns]


def _solved_second_derivatives(k, m):
    """(a'', b'', phi'') as functions of (a, a', b, b', phi', lam); for
    k = 0 only (b'', phi'')."""
    return sp.lambdify((a0, a1, b0, b1, p1, lam), _second_derivatives(k, m),
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

        s_a, s_b, phipp = _reduced_kernel(params)(a, ap, b, bp, phip)
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


@pytest.mark.parametrize("k,m", [(k, m) for k in (0, 1, 2) for m in (2, 3)])
def test_first_integral_is_the_fiber_defect(k, m):
    # lam b^2 + b (b'' + k (a'/a) b') + (m-1) b'^2 - b phi' b', with b'' any
    # value (the derivative of the stored b'), is m - 1 + b (b'' - b s_b)
    # for the kernel's s_b: the identity by which SolitonProfile reads mu
    # from its res_sm.  The kernel is plain arithmetic, so it runs on the
    # symbols of a params stand-in
    _, s_b, _ = _reduced_kernel(SimpleNamespace(k=k, m=m, lam=lam))(
        a0, a1, b0, b1, p1)
    first_integral = (lam * b0 ** 2 + b0 * (b2 + k * (a1 / a0) * b1)
                      + (m - 1) * b1 ** 2 - b0 * p1 * b1)
    defect = first_integral - (m - 1) - b0 * (b2 - b0 * s_b)
    assert sp.simplify(sp.nsimplify(defect)) == 0


@pytest.mark.parametrize("k,m,lm,radius,phi2", [
    (1, 2, 0, 1, sp.Rational(-1, 2)),
    (2, 3, sp.Rational(-1, 10), sp.Rational(13, 10), sp.Rational(-1, 5)),
    (1, 3, sp.Rational(1, 2), 2, 0),
    (0, 2, sp.Rational(3, 10), sp.Rational(6, 5), 0),
])
def test_series_matches_an_order_by_order_solve(k, m, lm, radius, phi2):
    # the system derived from the metric, multiplied out by its
    # denominators into e1 (the a-equation), e2 (b) and e3 (phi), on
    # truncated series a = t + a3 t^3 + a5 t^5 + ..., b = b0 + b2 t^2 + b4
    # t^4 + ... and phi' = c1 t + c3 t^3 + ...: each equation's lowest
    # coefficient in t fixes a3, b2 and c1, and the one two powers up a5,
    # b4 and c3, with c1 = 2 phi2 given for k >= 1, where the equations of
    # the lowest coefficients have rank 2 (for k = 0 there is no a, and e2
    # and e3 fix b_n and c_(n-1)).  The series start's coefficients
    # through b4, a5 and c3 (the t^3 coefficient of phi', a sixth of the
    # third derivative) agree with these exact ones to rounding
    a3, a5, a7, b2, b4, b6, c1, c3, c5 = sp.symbols(
        "a3 a5 a7 b2 b4 b6 c1 c3 c5")
    A = t + a3 * t ** 3 + a5 * t ** 5 + a7 * t ** 7
    B = radius + b2 * t ** 2 + b4 * t ** 4 + b6 * t ** 6
    C = c1 * t + c3 * t ** 3 + c5 * t ** 5
    state = {a0: A, a1: A.diff(t), b0: B, b1: B.diff(t), p1: C, lam: lm}
    lhs = ([A.diff(t, 2)] if k >= 1 else []) + [B.diff(t, 2), C.diff(t)]
    equations = [sp.expand(sp.fraction(sp.together(x - f.subs(state)))[0])
                 for x, f in zip(lhs, _second_derivatives(k, m))]
    lowest = [min(p for (p,), _ in sp.Poly(e, t).terms()) for e in equations]
    known = {a7: 0, b6: 0, c5: 0}
    if k >= 1:
        known[c1] = 2 * phi2
    for up, unknowns in ((0, (a3, b2, c1)), (2, (a5, b4, c3))):
        free = [u for u in unknowns[k < 1:] if u not in known]
        rows = [sp.expand(e.subs(known)).coeff(t, p + up)
                for e, p in zip(equations, lowest)]
        [sol] = sp.solve(rows[:len(free)], free, dict=True)
        known.update(sol)
        assert all(sp.simplify(row.subs(known)) == 0 for row in rows)
    params = AnsatzParams(k=k, m=m, lam=float(lm), b0=float(radius),
                          phi2=float(phi2), epsilon=1e-3)
    alpha, beta, phi, _ = _series(params)
    got = {b2: beta[1], b4: beta[2], c1: 2 * phi[0], c3: 4 * phi[1]}
    if k >= 1:
        got.update({a3: alpha[1], a5: alpha[2]})
    for name, value in got.items():
        assert value == pytest.approx(float(known[name]), rel=1e-12,
                                      abs=1e-15), name
