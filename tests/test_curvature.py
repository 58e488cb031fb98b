"""Finite-difference curvature engine against hand-computed oracles."""

import re

import numpy as np
import pytest

from ricciwarp import (
    BoundaryProximityError,
    DegenerateMetricError,
    MetricPatch,
    ScalarField,
    christoffel,
    constant_field,
    euclidean_patch,
    gradient_laplacian,
    hessian_fd,
    hyperbolic_patch,
    polar_plane_patch,
    quadratic_potential,
    ricci_fd,
    soliton_residual,
    sphere_patch,
    torus_patch,
    transform_chart,
)
from ricciwarp.curvature import field_data, metric_jet, ricci

H = 1e-3


def exact_polar_christoffel(t: float) -> np.ndarray:
    """Levi-Civita symbols of dt^2 + t^2 dtheta^2 from the standard formula.

    Independent oracle: Gamma^i_{jk} = 1/2 g^{il}(d_j g_{kl} + d_k g_{jl}
    - d_l g_{jk}) evaluated by hand for the diagonal metric (1, t^2):
    the only nonzero symbols are Gamma^t_{theta theta} = -t and
    Gamma^theta_{t theta} = 1/t.
    """
    G = np.zeros((2, 2, 2))
    G[0, 1, 1] = -t
    G[1, 0, 1] = G[1, 1, 0] = 1.0 / t
    return G


class TestChristoffel:
    def test_flat_euclidean_all_zero(self):
        p = euclidean_patch(3)
        G = christoffel(p, np.array([0.2, -0.3, 0.4]), H)
        assert np.abs(G).max() < 1e-12

    def test_polar_plane_matches_hand_computation(self):
        p = polar_plane_patch()
        x = np.array([1.0, 1.2])
        G = christoffel(p, x, H)
        assert np.allclose(G, exact_polar_christoffel(1.0), atol=1e-10)

    def test_polar_plane_step_halving_consistent(self):
        p = polar_plane_patch()
        x = np.array([1.3, 2.0])
        G1 = christoffel(p, x, H)
        G2 = christoffel(p, x, H / 2)
        assert np.abs(G1 - G2).max() < 1e-9

    def test_sphere_equator_value(self):
        p = sphere_patch(2)
        G = christoffel(p, np.array([np.pi / 2, 1.0]), H)
        # Gamma^theta_{phi phi} = -sin(theta) cos(theta) = 0 at the equator
        assert abs(G[0, 1, 1]) < 1e-12

    def test_sphere_off_equator_value(self):
        p = sphere_patch(2)
        theta = 1.0
        G = christoffel(p, np.array([theta, 1.0]), H)
        assert abs(G[0, 1, 1] - (-np.sin(theta) * np.cos(theta))) < 1e-10
        assert abs(G[1, 0, 1] - np.cos(theta) / np.sin(theta)) < 1e-10

    def test_symmetric_in_lower_indices(self):
        p = sphere_patch(3)
        G = christoffel(p, np.array([1.1, 1.3, 2.1]), H)
        assert np.abs(G - np.transpose(G, (0, 2, 1))).max() < 1e-14

    def test_boundary_proximity_raises(self):
        p = polar_plane_patch()
        with pytest.raises(BoundaryProximityError):
            christoffel(p, np.array([0.3005, 1.0]), H)

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            christoffel(euclidean_patch(2), np.zeros(2), 0.0)


class TestRicci:
    def test_flat_r3_zero(self):
        R = ricci_fd(euclidean_patch(3), np.array([0.1, 0.2, -0.4]), H)
        assert np.abs(R).max() < 1e-12

    def test_polar_plane_zero(self):
        R = ricci_fd(polar_plane_patch(), np.array([1.0, 1.5]), H)
        assert np.abs(R).max() < 1e-9

    @pytest.mark.parametrize("m,r", [(2, 1.0), (3, 1.0), (2, 2.0)])
    def test_round_sphere_einstein_identity(self, m, r):
        p = sphere_patch(m, r)
        x = np.full(m, 1.0)
        R = ricci_fd(p, x, H)
        expected = (m - 1) / r ** 2 * p.metric(x)
        assert np.linalg.norm(R - expected) < 1e-8

    def test_round_sphere_richardson_extrapolation(self):
        # independent confirmation of the constant-curvature identity:
        # the h -> 0 limit of the finite-difference value
        p = sphere_patch(2)
        x = np.array([1.2, 0.8])
        R1 = ricci_fd(p, x, 0.04)
        R2 = ricci_fd(p, x, 0.02)
        extrap = (16.0 * R2 - R1) / 15.0
        assert np.linalg.norm(extrap - p.metric(x)) < 1e-9

    def test_convergence_order_at_least_1_8(self):
        p = sphere_patch(2)
        x = np.array([1.0, 1.0])
        errs = []
        for h in (0.05, 0.025):
            R = ricci_fd(p, x, h)
            errs.append(np.linalg.norm(R - p.metric(x)))
        assert errs[0] / errs[1] >= 3.5

    def test_symmetry_bound(self):
        for patch, x in [
            (sphere_patch(3), np.array([1.0, 1.4, 2.0])),
            (polar_plane_patch(), np.array([1.1, 1.0])),
            (hyperbolic_patch(3), np.array([0.1, -0.2, 1.0])),
        ]:
            R = ricci_fd(patch, x, H)
            assert np.linalg.norm(R - R.T) <= 1e-10 * (1 + np.linalg.norm(R))

    def test_hyperbolic_space_einstein_identity(self):
        p = hyperbolic_patch(3)
        x = np.array([0.0, 0.1, 1.0])
        R = ricci_fd(p, x, H)
        assert np.linalg.norm(R - (-2.0) * p.metric(x)) < 1e-7

    # a point 3h from the boundary; the jet's own step 2H sets the margin
    # of ricci, where the default step's 4H would keep it
    @pytest.mark.parametrize("entry,h", [
        (lambda p, x, h: ricci_fd(p, x, h), H),
        (lambda p, x, h: ricci(metric_jet(p, x, h)), 2 * H),
    ], ids=["ricci_fd", "ricci"])
    def test_interior_margin_enforced(self, entry, h):
        p = euclidean_patch(2, half_width=1.0)
        with pytest.raises(BoundaryProximityError):
            entry(p, np.array([1.0 - 3 * h, 0.0]), h)

    def test_step_below_float_resolution_refused(self):
        # at h = 1e-20 no stencil point leaves [1, 1]: without the floor
        # the oracle returns the zero matrix for Ric = g.  The floor is
        # relative to the largest coordinate, so h = 1e-10 passes near the
        # origin and is refused at x = 1000
        with pytest.raises(ValueError, match="below the float resolution"):
            ricci_fd(sphere_patch(2), [1.0, 1.0], 1e-20)
        p = euclidean_patch(2, half_width=2000.0)
        assert np.abs(ricci_fd(p, [1.0, 0.0], 1e-10)).max() == 0.0
        with pytest.raises(ValueError, match="largest coordinate 1000"):
            ricci_fd(p, [1000.0, 0.0], 1e-10)

    @pytest.mark.parametrize("entry,problem", [
        (np.nan, "is not finite"), (0.5, "is not symmetric"),
    ])
    def test_bad_metric_rejected_naming_the_point(self, entry, problem):
        # entry (0, 1) of the metric at the point x0 = 0.25 only
        def g(X):
            G = np.eye(2) * np.ones((len(X), 1, 1))
            G[X[:, 0] == 0.25, 0, 1] = entry
            return G

        p = MetricPatch(2, np.array([[-1, 1], [-1, 1]]), g, "bad")
        X = np.array([[0.5, 0.1], [0.25, -0.25]])
        with pytest.raises(DegenerateMetricError, match=re.escape(
                f"metric of 'bad' {problem} at point {X[1]}")):
            christoffel(p, X, H)

    def test_degenerate_metric_rejected(self):
        p = MetricPatch(2, np.array([[-1, 1], [-1, 1]]),
                        lambda X: np.diag([1.0, 1e-12]) * np.ones((len(X), 1, 1)),
                        "degenerate")
        with pytest.raises(DegenerateMetricError):
            ricci_fd(p, np.zeros(2), H)


class TestHessian:
    def test_quadratic_on_flat_space(self):
        lam = 0.7
        p = euclidean_patch(3)
        Hs = hessian_fd(p, quadratic_potential(lam), np.array([0.3, -0.2, 0.5]), H)
        assert np.allclose(Hs, lam * np.eye(3), atol=1e-10)

    def test_constant_field_zero(self):
        # zero up to the eps/h^2 rounding floor of the stencil
        p = sphere_patch(2)
        Hs = hessian_fd(p, constant_field(4.2), np.array([1.0, 1.0]), H)
        assert np.abs(Hs).max() < 1e-9

    def test_polar_radial_quadratic_equals_metric(self):
        # u = t^2/2 is |x|^2/2 in disguise; its flat-chart Hessian is the
        # identity, so in polar coordinates it must equal the metric.
        p = polar_plane_patch()
        u = ScalarField(lambda X: 0.5 * X[:, 0] ** 2, "t2/2")
        x = np.array([1.0, 2.0])
        Hs = hessian_fd(p, u, x, H)
        assert np.allclose(Hs, p.metric(x), atol=1e-9)

    def test_exactly_symmetric(self):
        p = sphere_patch(3)
        u = ScalarField(lambda X: np.cos(X[:, 0]) * np.sin(X[:, 1]), "wave")
        Hs = hessian_fd(p, u, np.array([1.2, 1.0, 2.2]), H)
        assert np.array_equal(Hs, Hs.T)


class TestGradientLaplacian:
    def test_flat_coordinate_function(self):
        p = euclidean_patch(2)
        res = gradient_laplacian(p, ScalarField(lambda X: X[:, 0], "x1"),
                                 np.array([0.4, 0.1]), H)
        assert np.allclose(res.gradient, [1.0, 0.0], atol=1e-12)
        assert abs(res.laplacian) < 1e-9
        assert abs(res.grad_norm_sq - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_flat_radial_quadratic_laplacian_is_dim(self, n):
        p = euclidean_patch(n)
        res = gradient_laplacian(p, quadratic_potential(1.0),
                                 0.1 * np.arange(1, n + 1), H)
        assert abs(res.laplacian - n) < 1e-9

    def test_sphere_first_eigenfunction(self):
        # u = cos(theta) satisfies Lap u = -2 u on the unit 2-sphere
        p = sphere_patch(2)
        u = ScalarField(lambda X: np.cos(X[:, 0]), "cos-theta")
        for theta in (0.7, 1.2, 2.0):
            res = gradient_laplacian(p, u, np.array([theta, 1.0]), H)
            assert abs(res.laplacian - (-2.0 * np.cos(theta))) < 1e-8

    def test_sphere_eigenfunction_stencil_refinement(self):
        p = sphere_patch(2)
        u = ScalarField(lambda X: np.cos(X[:, 0]), "cos-theta")
        x = np.array([1.1, 2.0])
        v1 = gradient_laplacian(p, u, x, 2e-3).laplacian
        v2 = gradient_laplacian(p, u, x, 1e-3).laplacian
        assert abs(v1 - v2) < 1e-9


class TestSolitonResidual:
    def test_flat_steady(self):
        p = euclidean_patch(2)
        _, norm = soliton_residual(p, constant_field(0.0), 0.0,
                                   np.array([0.3, 0.3]), H)
        assert norm < 1e-12

    def test_gaussian_shrinker(self):
        # flat R^2 with psi = |x|^2/4 and lam = 1/2
        p = euclidean_patch(2)
        psi = ScalarField(lambda X: 0.25 * np.einsum("ni,ni->n", X, X), "gaussian")
        _, norm = soliton_residual(p, psi, 0.5, np.array([0.4, -0.2]), H)
        assert norm < 1e-9

    def test_affine_in_potential(self):
        p = sphere_patch(2)
        x = np.array([1.3, 1.0])
        lam = 0.8
        psi1 = ScalarField(lambda Y: np.sin(Y[:, 0]), "s")
        psi2 = ScalarField(lambda Y: np.cos(Y[:, 0]) * Y[:, 1], "c")
        psi12 = ScalarField(lambda Y: np.sin(Y[:, 0]) + np.cos(Y[:, 0]) * Y[:, 1], "sc")
        r0, _ = soliton_residual(p, constant_field(0.0), lam, x, H)
        r1, _ = soliton_residual(p, psi1, lam, x, H)
        r2, _ = soliton_residual(p, psi2, lam, x, H)
        r12, _ = soliton_residual(p, psi12, lam, x, H)
        # matrix-level bookkeeping holds to the stencil rounding floor
        assert np.linalg.norm(r12 - r1 - r2 + r0) < 1e-8


class TestStencil:
    """The jet stencil where mixed partials are nonzero, its size, and the
    step it takes."""

    def test_mixed_partial_fourth_order(self):
        from ricciwarp.fd import value_jet
        x, y = 0.3, 0.4
        exact = np.cos(x) * 0.7 * np.exp(0.7 * y)
        errs = [abs(value_jet(lambda P: np.sin(P[:, 0]) * np.exp(0.7 * P[:, 1]),
                              np.array([[x, y]]), h)[2][0, 0, 1] - exact)
                for h in (0.04, 0.02)]
        assert errs[0] / errs[1] >= 12.0

    def test_exact_on_quintic_polynomial(self):
        from ricciwarp.fd import value_jet
        x, y = 0.3, 0.4
        _, grad, hess = value_jet(
            lambda P: P[:, 0] ** 2 * P[:, 1] ** 3 + P[:, 0] ** 4 * P[:, 1],
            np.array([[x, y]]), 1e-2)
        f_xy = 6 * x * y ** 2 + 4 * x ** 3
        assert np.abs(grad[0] - [2 * x * y ** 3 + 4 * x ** 3 * y,
                                 3 * x ** 2 * y ** 2 + x ** 4]).max() < 1e-12
        assert np.abs(hess[0] - [[2 * y ** 3 + 12 * x ** 2 * y, f_xy],
                                 [f_xy, 6 * x ** 2 * y]]).max() < 1e-12

    def test_ricci_fourth_order_in_a_rotated_chart(self):
        # the rotated sphere's metric mixes both coordinates, so the mixed
        # second derivatives of g enter Ric
        c, s = np.cos(0.6), np.sin(0.6)
        q = transform_chart(sphere_patch(2), np.array([[c, -s], [s, c]]))
        y = q.center()
        errs = [np.linalg.norm(ricci_fd(q, y, h) - q.metric(y))
                for h in (0.04, 0.02)]
        assert errs[0] / errs[1] >= 12.0

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_offset_count(self, dim):
        from ricciwarp import fd
        offsets = fd._stencil(dim)[0]
        assert offsets.shape == (1 + 4 * dim + 4 * dim * (dim - 1), dim)
        assert len(np.unique(offsets, axis=0)) == len(offsets)
        assert np.abs(offsets).max() == 2

    def test_metric_points_per_soliton_residual(self):
        points = []
        base = sphere_patch(6)

        def counted(X):
            points.append(len(X))
            return base.g(X)

        patch = MetricPatch(6, base.domain, counted, "counted")
        X = patch.center() + np.linspace(-0.2, 0.2, 7)[:, None]
        soliton_residual(patch, _POTENTIAL, 0.5, X, H)
        assert sum(points) == len(X) * 145

    @pytest.mark.parametrize("h,message", [
        pytest.param(h, "step h must be finite and positive", id=str(h))
        for h in (np.nan, np.inf, 0.0, -1e-3)] + [
        pytest.param(1e-20, "step h=1e-20 is below the float resolution",
                     id="1e-20")])
    def test_step_must_be_finite_and_positive(self, h, message):
        from ricciwarp.fd import value_jet
        patch, u, x = graph_patch(), cubic_field(), np.array([0.1, -0.2, 0.3])
        calls = [lambda: value_jet(u, x[None], h),
                 lambda: christoffel(patch, x, h),
                 lambda: ricci_fd(patch, x, h),
                 lambda: gradient_laplacian(patch, u, x, h),
                 lambda: hessian_fd(patch, u, x, h),
                 lambda: soliton_residual(patch, u, 0.3, x, h)]
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()


class TestTransformChart:
    def test_identity_map(self):
        p = sphere_patch(2)
        q = transform_chart(p, np.eye(2))
        x = np.array([1.2, 1.1])
        assert np.allclose(q.metric(x), p.metric(x))

    def test_flat_metric_constant_pullback(self):
        p = euclidean_patch(3)
        A = np.array([[2.0, 1.0, 0.0], [0.0, 1.5, 0.5], [0.0, 0.0, 1.0]])
        q = transform_chart(p, A)
        assert np.allclose(q.metric(q.center()), A.T @ A)

    def test_singular_map_rejected(self):
        with pytest.raises(ValueError):
            transform_chart(euclidean_patch(2), np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_ricci_covariance_coordinate_swap(self):
        p = sphere_patch(2)
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        q = transform_chart(p, A)
        y = q.center() + np.array([0.2, -0.3])
        R_pull = ricci_fd(q, y, H)
        R_orig = ricci_fd(p, A @ y, H)
        assert np.linalg.norm(R_pull - A.T @ R_orig @ A) < 1e-9

    def test_ricci_covariance_general_linear_map(self):
        p = sphere_patch(2, pad=0.3)
        A = np.array([[1.1, 0.2], [-0.1, 0.9]])
        q = transform_chart(p, A)
        y = q.center() + np.array([-0.1, 0.25])
        R_pull = ricci_fd(q, y, H)
        R_orig = ricci_fd(p, A @ y, H)
        assert np.linalg.norm(R_pull - A.T @ R_orig @ A) < 1e-6

    def test_torus_flat(self):
        R = ricci_fd(torus_patch(3), np.zeros(3), H)
        assert np.abs(R).max() < 1e-12


def _graph_gradient(X):
    """Gradient of z = x0 x1 + x2^2 / 2 at a batch; g = I + dz dz^T."""
    return np.stack([X[:, 1], X[:, 0], X[:, 2]], axis=1)


def graph_patch() -> MetricPatch:
    """The graph metric of z over a box."""
    def g(X):
        dz = _graph_gradient(X)
        return np.eye(3) + dz[:, :, None] * dz[:, None, :]
    return MetricPatch(3, np.array([[-1.0, 1.0]] * 3), g, "graph")


def cubic_field() -> ScalarField:
    return ScalarField(lambda X: X[:, 0] ** 2 * X[:, 1] + X[:, 2] ** 3, "cubic")


class TestBatchedEngine:
    def test_batch_equals_single_points_beyond_the_chunk_cap(self):
        from ricciwarp import fd
        calls = []
        base = graph_patch()

        def counted(X):
            calls.append(len(X))
            return base.g(X)

        patch = MetricPatch(3, base.domain, counted, "graph")
        stencil_points = fd._stencil(3)[0].shape[0]
        n = fd._CHUNK_POINTS // stencil_points + 5
        X = np.random.default_rng(4).uniform(-0.5, 0.5, (n, 3))
        R = ricci_fd(patch, X, H)
        assert len(calls) == 2 and max(calls) <= fd._CHUNK_POINTS
        singles = np.array([ricci_fd(patch, x, H) for x in X[::23]])
        assert R.shape == (n, 3, 3)
        assert np.abs(R[::23] - singles).max() <= 1e-12

    def test_jet_functions_match_the_operators(self):
        # the jet records its patch, points and step, and the formulas on
        # it have the bits of the operators at the same points
        patch, u = graph_patch(), cubic_field()
        X = np.random.default_rng(5).uniform(-0.5, 0.5, (9, 3))
        jet = metric_jet(patch, X, H)
        assert jet.patch is patch and jet.h == H and (jet.X == X).all()
        assert ricci(jet).tobytes() == ricci_fd(patch, X, H).tobytes()
        for mine, theirs in zip(field_data(jet, u),
                                gradient_laplacian(patch, u, X, H)):
            assert mine.tobytes() == theirs.tobytes()

    def test_single_point_shapes(self):
        x = np.array([0.1, -0.2, 0.3])
        patch, u = graph_patch(), cubic_field()
        assert christoffel(patch, x, H).shape == (3, 3, 3)
        assert ricci_fd(patch, x, H).shape == (3, 3)
        gl = gradient_laplacian(patch, u, x, H)
        assert isinstance(gl.laplacian, float) and isinstance(gl.value, float)
        res, norm = soliton_residual(patch, u, 0.3, x, H)
        assert res.shape == (3, 3) and isinstance(norm, float)

    def test_boundary_error_names_the_point(self):
        X = np.zeros((4, 3))
        X[2] = [0.2, 1.0 - 3 * H, 0.0]
        with pytest.raises(BoundaryProximityError, match=re.escape(str(X[2]))):
            ricci_fd(graph_patch(), X, H)

    def test_degenerate_error_names_the_point(self):
        # the metric is singular where x0 = 0
        def pinched(X):
            G = np.zeros((len(X), 2, 2))
            G[:, 0, 0] = 1.0
            G[:, 1, 1] = X[:, 0] ** 2
            return G
        p = MetricPatch(2, np.array([[-1, 1], [-1, 1]]), pinched, "pinched")
        X = np.array([[0.5, 0.1], [0.4, -0.3], [0.0, 0.2], [-0.6, 0.0]])
        with pytest.raises(DegenerateMetricError, match=re.escape(str(X[2]))):
            soliton_residual(p, constant_field(0.0), 0.0, X, H)

    @pytest.mark.parametrize("make", [
        lambda: MetricPatch(2, np.array([[-1, 1], [-1, 1]]),
                            lambda x: np.diag([1.0, x[0] ** 2]), "pinched"),
        lambda: MetricPatch(2, np.array([[-1, 1], [-1, 1]]),
                            lambda x: np.eye(2), "flat-pointwise"),
    ], ids=["fails-inside", "wrong-shape"])
    def test_pointwise_metric_rejected_on_a_batch(self, make):
        p = make()
        X = np.array([[0.5, 0.1], [0.4, -0.3], [0.2, 0.2]])
        with pytest.raises(ValueError, match=re.escape(
                f"metric of patch '{p.label}'") + ".*" + re.escape("(3, 2, 2)")):
            p.metric(X)

    @pytest.mark.parametrize("f, X, expected", [
        (lambda x: 3.3, [[0.5, 0.1], [0.4, -0.3], [0.2, 0.2]], "(3,)"),
        (lambda x: x[0], [[0.5, 0.1], [0.4, -0.3], [0.2, 0.2]], "(3,)"),
        (lambda x: x[0], [[1.0, 2.0], [3.0, 4.0]], "(1,)"),
    ], ids=["scalar", "first-point", "first-point-square"])
    def test_pointwise_field_rejected_on_a_batch(self, f, X, expected):
        u = ScalarField(f, "scalar-valued")
        with pytest.raises(ValueError, match=re.escape(
                "field 'scalar-valued' returned shape") + ".*" + re.escape(expected)):
            u(np.array(X))


def _property_patches():
    return [sphere_patch(2), sphere_patch(3), hyperbolic_patch(2),
            hyperbolic_patch(3), graph_patch()]


def _sample_points(patch, u):
    """Points at fractions ``u`` in [-1, 1] of the half-widths of ``patch``
    about its center; ``u`` is (N, 3) and is cut to the patch dimension."""
    half = 0.5 * (patch.domain[:, 1] - patch.domain[:, 0])
    return patch.center() + half * u[:, :patch.dim]


def _scaled(patch, c):
    return MetricPatch(patch.dim, patch.domain, lambda X: c * patch.g(X),
                       f"{patch.label}|x{c:g}")


_POTENTIAL = ScalarField(
    lambda X: np.sin(X).sum(axis=1) + 0.5 * X[:, 0] * X[:, -1], "sin-sum")


class TestScalingAndCovarianceProperties:
    """Hypothesis checks of identities the oracle knows nothing about.

    The samples are the round 2- and 3-spheres, hyperbolic 2- and
    3-space and the graph metric, at points within 80% of each chart's
    half-widths from its center.  Differences are taken relative to
    max(1, largest component).  Each tolerance sits 4x or more above the
    largest difference measured at h = 1e-3 over 2000 uniform draws and
    600 draws at the corners of the sampled box.
    """

    def test_ricci_invariant_under_constant_scaling(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        from hypothesis.extra.numpy import arrays

        # measured floor 5.8e-10: rounding in the differenced c g
        tol = 4e-9

        @hypothesis.settings(max_examples=40, deadline=2000, database=None)
        @hypothesis.given(
            which=st.integers(0, 4),
            c=st.floats(0.25, 4.0),
            u=arrays(np.float64, (3, 3), elements=st.floats(-0.8, 0.8)))
        def invariant(which, c, u):
            patch = _property_patches()[which]
            X = _sample_points(patch, u)
            R = ricci_fd(patch, X, H)
            Rc = ricci_fd(_scaled(patch, c), X, H)
            assert np.abs(Rc - R).max() <= tol * max(1.0, np.abs(R).max())

        invariant()

    def test_soliton_residual_consistent_under_scaling(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        from hypothesis.extra.numpy import arrays

        # Ric and Hess are unchanged by g -> c g and (lam / c)(c g) = lam g,
        # so the residual matrices agree; measured floor 3.8e-10
        tol = 4e-9

        @hypothesis.settings(max_examples=40, deadline=2000, database=None)
        @hypothesis.given(
            which=st.integers(0, 4),
            c=st.floats(0.25, 4.0),
            lam=st.floats(-1.0, 1.0),
            u=arrays(np.float64, (3, 3), elements=st.floats(-0.8, 0.8)))
        def consistent(which, c, lam, u):
            patch = _property_patches()[which]
            X = _sample_points(patch, u)
            S, norms = soliton_residual(patch, _POTENTIAL, lam, X, H)
            Sc, norms_c = soliton_residual(_scaled(patch, c), _POTENTIAL,
                                           lam / c, X, H)
            scale = max(1.0, np.abs(S).max())
            assert np.abs(Sc - S).max() <= tol * scale
            # |norm(A) - norm(B)| <= norm(A - B) <= dim * max|A - B|
            assert np.abs(norms_c - norms).max() <= 3 * tol * scale

        consistent()

    def test_ricci_covariant_under_linear_chart_maps(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        from hypothesis.extra.numpy import arrays

        # A = Q1 diag(s) Q2 with s in [0.5, 2]: condition number at most 4;
        # the pulled-back stencil samples other points, so truncation adds
        # to rounding; measured floor 8.4e-9
        tol = 4e-8
        entries = st.floats(-1.0, 1.0)

        @hypothesis.settings(max_examples=40, deadline=2000, database=None)
        @hypothesis.given(
            which=st.integers(0, 4),
            m1=arrays(np.float64, (3, 3), elements=entries),
            m2=arrays(np.float64, (3, 3), elements=entries),
            s=arrays(np.float64, 3, elements=st.floats(0.5, 2.0)),
            u=arrays(np.float64, (3, 3), elements=st.floats(-0.8, 0.8)))
        def covariant(which, m1, m2, s, u):
            patch = _property_patches()[which]
            d = patch.dim
            q1, q2 = np.linalg.qr(m1[:d, :d])[0], np.linalg.qr(m2[:d, :d])[0]
            A = q1 @ np.diag(s[:d]) @ q2
            pulled = transform_chart(patch, A)
            Y = _sample_points(pulled, u)
            R_pull = ricci_fd(pulled, Y, H)
            R_orig = ricci_fd(patch, Y @ A.T, H)
            want = np.einsum("ji,njk,kl->nil", A, R_orig, A)
            assert np.abs(R_pull - want).max() <= tol * max(1.0, np.abs(want).max())

        covariant()
