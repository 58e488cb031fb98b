"""Warped assembly, closed-form blocks vs the oracle, structure residuals."""

import json
from dataclasses import replace

import numpy as np
import pytest

from conftest import cylinder_geometry, edit_column
from ricciwarp import (
    AnsatzParams,
    GeometryError,
    ScalarField,
    WarpedGeometry,
    assemble_warped,
    base_structure,
    certify_profile,
    certify_soliton,
    constant_field,
    einstein_check,
    euclidean_patch,
    hyperbolic_patch,
    lifted_potential,
    polar_plane_patch,
    profile_geometry,
    quadratic_potential,
    ricci_closed_form,
    ricci_fd,
    shoot,
    soliton_residual,
    sphere_patch,
    torus_patch,
)

H = 1e-3


def product_geometry():
    """Trivial warping: polar-plane base times round 2-sphere."""
    return WarpedGeometry(base=polar_plane_patch(), fiber=sphere_patch(2),
                          f=constant_field(1.0), phi=constant_field(0.0),
                          lam=0.0)


def annulus_geometry():
    """Nontrivial warping f = t over the polar plane, circle fiber."""
    base = polar_plane_patch(t_range=(0.5, 2.5))
    return WarpedGeometry(base=base, fiber=sphere_patch(1),
                          f=ScalarField(lambda X: X[:, 0], "t"),
                          phi=constant_field(0.0), lam=0.0)


class TestAssemble:
    def test_trivial_warping_is_product(self):
        w = product_geometry()
        patch = assemble_warped(w)
        x = np.array([1.2, 1.0, 1.1, 2.0])
        G = patch.metric(x)
        assert np.allclose(G[:2, :2], w.base.metric(x[:2]))
        assert np.allclose(G[2:, 2:], w.fiber.metric(x[2:]))
        assert np.abs(G[:2, 2:]).max() == 0.0

    def test_constant_warping_cylinder(self):
        b0 = 1.3
        w = cylinder_geometry(2, b0)
        patch = assemble_warped(w)
        x = np.array([0.5, 1.2, 2.0])
        G = patch.metric(x)
        assert G[0, 0] == 1.0
        assert np.allclose(G[1:, 1:], b0 ** 2 * w.fiber.metric(x[1:]))

    def test_annulus_warp_oracle_evaluable(self):
        patch = assemble_warped(annulus_geometry())
        R = ricci_fd(patch, np.array([1.2, 1.1, 2.0]), H)
        assert R.shape == (3, 3)
        assert np.all(np.isfinite(R))

    def test_nonpositive_warping_rejected(self):
        base = polar_plane_patch()
        with pytest.raises(GeometryError):
            WarpedGeometry(base=base, fiber=sphere_patch(1),
                           f=ScalarField(lambda X: X[:, 0] - 2.0, "t-2"),
                           phi=constant_field(0.0), lam=0.0)

    @pytest.mark.parametrize("evaluate", [
        lambda w, x: assemble_warped(w).metric(x),
        lambda w, x: base_structure(w, x[:, :w.n], H),
    ], ids=["assemble_warped", "base_structure"])
    def test_nonpositive_warping_at_an_evaluation_point(self, evaluate):
        # f passes the construction samples and is nonpositive at one
        # point that only the evaluation visits
        base, fiber = polar_plane_patch(), sphere_patch(1)
        dip = base.center() + 0.01
        w = WarpedGeometry(
            base=base, fiber=fiber,
            f=ScalarField(lambda X: np.where((X == dip).all(axis=1), 0.0, 1.0),
                          "dip"),
            phi=constant_field(0.0), lam=0.0)
        x = np.concatenate([dip, fiber.center()])[None, :]
        with pytest.raises(GeometryError,
                           match=r"warping 'dip' is nonpositive at \["):
            evaluate(w, x)


class TestClosedFormBlocks:
    def test_product_case_blocks(self):
        w = product_geometry()
        x = np.array([1.2, 1.0, 1.1, 2.0])
        blocks = ricci_closed_form(w, x, H)
        assert np.allclose(blocks.hh, ricci_fd(w.base, x[:2], H), atol=1e-12)
        assert np.allclose(blocks.vv, ricci_fd(w.fiber, x[2:], H), atol=1e-12)
        assert np.abs(blocks.hv).max() == 0.0

    def test_mixed_block_exactly_zero(self):
        for w in (product_geometry(), cylinder_geometry(3, 0.9),
                  annulus_geometry()):
            x = np.concatenate([w.base.center(), w.fiber.center()])
            blocks = ricci_closed_form(w, x, H)
            assert np.array_equal(blocks.hv, np.zeros_like(blocks.hv))

    @pytest.mark.parametrize("m,b0", [(2, 1.0), (3, 0.8)])
    def test_cylinder_vertical_block(self, m, b0):
        # constant warping kills every f-derivative term, leaving Ric_F
        w = cylinder_geometry(m, b0)
        x = np.concatenate([[0.3], np.full(m, 1.1)])
        blocks = ricci_closed_form(w, x, H)
        expected = (m - 1) * w.fiber.metric(x[1:])
        assert np.linalg.norm(blocks.vv - expected) < 1e-8

    def test_annulus_vertical_block_hand_value(self):
        # f = t on the flat polar base: f Lap f = t * (1/t) = 1 and
        # |grad f|^2 = 1, m = 1, so VV = 0 - [1 + 0] * g_F = -g_F
        w = annulus_geometry()
        x = np.array([1.3, 1.0, 2.2])
        blocks = ricci_closed_form(w, x, H)
        assert np.linalg.norm(blocks.vv - (-w.fiber.metric(x[2:]))) < 1e-8
        # and HH = -(1/t) Hess(t) with Hess(t) = diag(0, t): diag(0, -1)
        hh_expected = np.diag([0.0, -1.0])
        assert np.linalg.norm(blocks.hh - hh_expected) < 1e-8

    def test_oracle_equivalence_all_fixtures(self):
        fixtures = [product_geometry(), cylinder_geometry(2, 1.0),
                    cylinder_geometry(3, 0.8), annulus_geometry()]
        for w in fixtures:
            patch = assemble_warped(w)
            x = np.concatenate([w.base.center(), w.fiber.center()])
            blocks = ricci_closed_form(w, x, H)
            oracle = ricci_fd(patch, x, H)
            assert np.linalg.norm(blocks.full() - oracle) < 1e-5
            n = w.base.dim
            assert np.abs(oracle[:n, n:]).max() < 1e-6


class TestStructureResiduals:
    def test_base_equation_gaussian_base(self):
        # flat base, phi = (lam/2)|x|^2, constant warping: Hess phi = lam g
        lam = 0.7
        w = WarpedGeometry(base=euclidean_patch(2), fiber=sphere_patch(2),
                           f=constant_field(1.5), phi=quadratic_potential(lam),
                           lam=lam)
        norm = base_structure(w, np.array([0.4, -0.3]), H).residual_norm
        assert norm < 1e-9

    def test_base_equation_flat_steady(self):
        w = WarpedGeometry(base=euclidean_patch(2), fiber=torus_patch(2),
                           f=constant_field(1.0), phi=constant_field(0.0),
                           lam=0.0)
        norm = base_structure(w, np.array([0.2, 0.1]), H).residual_norm
        assert norm < 1e-12

    def test_base_equation_cylinder(self):
        w = cylinder_geometry(2, 1.0)
        norm = base_structure(w, np.array([0.7]), H).residual_norm
        assert norm < 1e-8

    def test_scalar_equation_zero_potential(self):
        w = WarpedGeometry(base=euclidean_patch(2), fiber=torus_patch(2),
                           f=constant_field(1.0), phi=constant_field(0.0),
                           lam=0.3)
        scalar = base_structure(w, np.array([0.3, 0.1]), H).scalar
        assert scalar == pytest.approx(0.0, abs=1e-10)

    def test_scalar_equation_cylinder_constant_is_lambda(self):
        # phi = (lam/2) t^2 gives 2 lam phi - |grad phi|^2 + Lap phi = lam:
        # lam^2 t^2 - lam^2 t^2 + lam
        m, b0 = 2, 1.0
        w = cylinder_geometry(m, b0)
        lam = w.lam
        for t in (0.0, 0.8, -1.2):
            val = base_structure(w, np.array([t]), H).scalar
            assert abs(val - lam) < 1e-9

    def test_calibrate_scalar_constant_cylinder(self):
        w = cylinder_geometry(3, 1.2)
        pts = [np.array([t]) for t in np.linspace(-1.5, 1.5, 7)]
        scalar = base_structure(w, np.array(pts), H).scalar
        c = scalar.mean()
        spread = np.abs(scalar - c).max()
        assert abs(c - w.lam) < 1e-9
        assert spread < 1e-9

    def test_first_integral_constant_data(self):
        # all derivative terms vanish: mu = lam f0^2
        lam, f0 = 0.4, 1.7
        w = WarpedGeometry(base=euclidean_patch(2), fiber=sphere_patch(2),
                           f=constant_field(f0), phi=constant_field(2.0),
                           lam=lam)
        val = base_structure(w, np.array([0.3, -0.2]), H).first_integral
        assert abs(val - lam * f0 * f0) < 1e-9

    @pytest.mark.parametrize("m", [2, 3])
    def test_first_integral_cylinder_matches_fiber_constant(self, m):
        b0 = 1.0
        w = cylinder_geometry(m, b0)
        val = base_structure(w, np.array([0.6]), H).first_integral
        assert abs(val - (m - 1)) < 1e-8


class TestEinsteinCheck:
    def test_unit_spheres(self):
        for m in (2, 3):
            fiber = sphere_patch(m)
            samples = [fiber.center(), fiber.center() + 0.3]
            assert einstein_check(fiber, m - 1.0, samples, H) < 1e-6

    def test_flat_torus(self):
        fiber = torus_patch(2)
        assert einstein_check(fiber, 0.0, [np.zeros(2)], H) < 1e-10

    def test_wrong_constant_fails_with_known_residual(self):
        # radius-2 sphere has Einstein constant 1/4; testing against 1
        # leaves a residual of (3/4)|g| at each point
        fiber = sphere_patch(2, radius=2.0)
        x = fiber.center()
        res = einstein_check(fiber, 1.0, [x], H)
        expected = 0.75 * np.linalg.norm(fiber.metric(x))
        assert abs(res - expected) < 1e-6


class TestCertifySoliton:
    def test_flat_steady_product_passes(self):
        w = WarpedGeometry(base=euclidean_patch(2), fiber=torus_patch(2),
                           f=constant_field(1.0), phi=constant_field(0.0),
                           lam=0.0)
        report = certify_soliton(w, tolerance=1e-6)
        assert report.verdict
        assert abs(report.mu_mean) < 1e-9

    @pytest.mark.parametrize("m", [2, 3])
    def test_round_cylinder_passes_tightly(self, m):
        w = cylinder_geometry(m, 1.0)
        report = certify_soliton(w, tolerance=1e-6)
        assert report.verdict
        for entry in report.checks.values():
            assert entry["residual"] <= 1e-8

    def test_expanding_product_with_hyperbolic_fiber(self):
        # flat base with phi = (lam/2)|x|^2 and constant warping f0 forces
        # the first integral lam f0^2 < 0 when expanding, so the fiber
        # must be a hyperbolic space with that Einstein constant
        lam, f0 = -0.5, 1.2
        mu = lam * f0 * f0
        fiber = hyperbolic_patch(2, radius=float(np.sqrt((2 - 1) / -mu)))
        w = WarpedGeometry(base=euclidean_patch(2), fiber=fiber,
                           f=constant_field(f0), phi=quadratic_potential(lam),
                           lam=lam)
        report = certify_soliton(w, tolerance=1e-6)
        assert report.verdict
        assert abs(report.mu_mean - mu) < 1e-8

    def test_wrong_lambda_fails_with_scaled_residual(self):
        m, b0 = 2, 1.0
        lam_true = (m - 1) / b0 ** 2
        w = cylinder_geometry(m, b0, lam=1.1 * lam_true)
        report = certify_soliton(w, tolerance=1e-6)
        assert not report.verdict
        # residual is affine in lambda, slope of order |g|
        assert report.checks["soliton_residual"]["residual"] > 0.05 * lam_true

    def test_equivalence_each_perturbed_hypothesis_fails(self):
        # perturbing any single hypothesis by >= 10 * tolerance must flip
        # the verdict, in the structure check of the broken condition
        m, b0, tol = 2, 1.0, 1e-5
        eps = 10 * tol * 100  # comfortably above threshold, scale ~ |g|
        lam = (m - 1) / b0 ** 2
        base = cylinder_geometry(m, b0).base

        perturbed = [
            # lambda, and the warping with lambda held: the first integral
            # lam f^2 stays constant but misses the fiber's constant
            (cylinder_geometry(m, b0, lam=lam + eps), "einstein_fiber"),
            (cylinder_geometry(m, b0 + eps, lam=lam), "einstein_fiber"),
            # potential: phi no longer solves the base equation
            (WarpedGeometry(
                base=base, fiber=sphere_patch(m), f=constant_field(b0),
                phi=ScalarField(lambda X: 0.5 * lam * X[:, 0] ** 2
                                + eps * X[:, 0] ** 3, "bad"),
                lam=lam), "base_equation"),
            # fiber: wrong radius
            (WarpedGeometry(
                base=base, fiber=sphere_patch(m, radius=1.0 + eps),
                f=constant_field(b0), phi=quadratic_potential(lam),
                lam=lam), "einstein_fiber"),
        ]

        for w, check in perturbed:
            report = certify_soliton(w, tolerance=tol)
            assert not report.verdict
            assert not report.checks[check]["pass"], check

    def test_one_base_sample_is_refused(self):
        # the scalar equation and the first integral compare the base
        # samples with each other: one sample would pass both at residual 0
        with pytest.raises(ValueError, match="at least 2 base samples"):
            certify_soliton(cylinder_geometry(2, 1.0),
                            base_samples=np.array([[0.3]]))

    def test_report_json_structure(self):
        report = certify_soliton(cylinder_geometry(2, 1.0), tolerance=1e-6)
        doc = json.loads(report.to_json())
        assert doc["verdict"] == "pass"
        assert set(doc["checks"]) == {"base_equation", "scalar_equation",
                                      "first_integral", "einstein_fiber",
                                      "soliton_residual"}
        for entry in doc["checks"].values():
            assert set(entry) == {"residual", "samples", "pass"}

    def test_lifted_potential_full_residual(self):
        w = cylinder_geometry(2, 1.0)
        patch = assemble_warped(w)
        psi = lifted_potential(w)
        x = np.array([0.4, 1.2, 2.4])
        _, norm = soliton_residual(patch, psi, w.lam, x, H)
        assert norm < 1e-8


class TestCertifyEvaluationCounts:
    """One certificate evaluates each callable of the data twice: the base
    metric, f and phi once for the base conditions and the fiber metric
    once for the Einstein check, then each once more inside the soliton
    residual of the assembled product."""

    # k = 0 on the round cylinder: the steady k = 0 profile blows up near
    # t = 1.95 and is never certified (test_blowup_profile_keeps_b_positive)
    @pytest.mark.parametrize("profile", ["steady_profile_12", "steady_profile_23",
                                         "cylinder_profile_02"])
    def test_each_callable_evaluated_twice(self, profile, request):
        w = profile_geometry(request.getfixturevalue(profile))
        counts = dict.fromkeys(("base", "fiber", "f", "phi"), 0)

        def counting(key, fn):
            def call(X):
                counts[key] += 1
                return fn(X)
            return call

        counted = WarpedGeometry(
            base=replace(w.base, g=counting("base", w.base.g)),
            fiber=replace(w.fiber, g=counting("fiber", w.fiber.g)),
            f=replace(w.f, f=counting("f", w.f.f)),
            phi=replace(w.phi, f=counting("phi", w.phi.f)),
            lam=w.lam)
        counts.update(dict.fromkeys(counts, 0))  # construction samples f
        certify_soliton(counted)
        assert counts == {"base": 2, "fiber": 2, "f": 2, "phi": 2}


# the four structure checks; soliton_residual is the end-to-end oracle
STRUCTURE = {"base_equation", "scalar_equation", "first_integral",
             "einstein_fiber"}
LOCAL = STRUCTURE - {"einstein_fiber"}
EPS = 1e-3


def _cylinder_phi(extra):
    """The potential t^2 / 2 of the unit round cylinder plus ``extra(t)``."""
    return ScalarField(lambda X: 0.5 * X[:, 0] ** 2 + extra(X[:, 0]), "phi")


CYLINDER_ROWS = {  # the unit round cylinder over S^2 (lam = 1) with one error
    "lambda": lambda: cylinder_geometry(2, 1.0, lam=1.0 + EPS),
    "warping-b0": lambda: cylinder_geometry(2, 1.0 + EPS, lam=1.0),
    "potential": lambda: replace(cylinder_geometry(2, 1.0),
                                 phi=_cylinder_phi(lambda t: EPS * t ** 3)),
    "fiber-radius": lambda: replace(cylinder_geometry(2, 1.0),
                                    fiber=sphere_patch(2, 1.0 + EPS)),
    "phi+0.3": lambda: replace(cylinder_geometry(2, 1.0),
                               phi=_cylinder_phi(lambda t: 0.3)),
}

# edits of the stored polynomials: a bump adds 4 EPS x (1 - x), at most
# EPS, to each step that overlaps [1.5, 2.5]
TAMPERS = {
    "b*1.05": lambda p: edit_column(p, "b", scale=1.05),
    "b-bump": lambda p: edit_column(p, "b", bump=4 * EPS),
    "phi-bump": lambda p: edit_column(p, "phi", bump=4 * EPS),
    "a-bump": lambda p: edit_column(p, "a", bump=4 * EPS),
    "phi+0.3": lambda p: edit_column(p, "phi", shift=0.3),
    "a*1.05": lambda p: edit_column(p, "a", scale=1.05),
}


@pytest.fixture(scope="module")
def round_cylinder_profile():
    """The shot round cylinder: k = 0, m = 2, lam = 0.5, b = sqrt(2)."""
    return shoot(AnsatzParams(k=0, m=2, lam=0.5, b0=float(np.sqrt(2.0)),
                              t_max=6.0))


class TestExplanationMatrix:
    """A broken hypothesis fails the structure check of the condition it
    breaks, and the soliton residual fails exactly when some structure
    check does (the conditions are sufficient on the samples)."""

    @staticmethod
    def explained(report, fails, passes):
        failing = {name for name in STRUCTURE if not report.checks[name]["pass"]}
        assert fails <= failing and not passes & failing, failing
        assert report.checks["soliton_residual"]["pass"] == (not failing)

    @pytest.mark.parametrize("row,fails", [
        ("lambda", {"einstein_fiber"}),
        ("warping-b0", {"einstein_fiber"}),
        ("potential", {"base_equation", "scalar_equation"}),
        ("fiber-radius", {"einstein_fiber"}),
        ("phi+0.3", set()),
    ])
    def test_cylinder(self, row, fails):
        self.explained(certify_soliton(CYLINDER_ROWS[row]()), fails,
                       STRUCTURE - fails)

    # a bump leaves einstein_fiber open: it fails when the bump moves the
    # first integral's mean over the samples by more than the tolerance;
    # a*1.05 at k = 1 rescales the angle of the base circle, a local isometry
    @pytest.mark.parametrize("profile,tamper,fails,passes", [
        ("k1m2", "b*1.05", {"einstein_fiber"}, LOCAL),
        ("k1m2", "b-bump", LOCAL, set()),
        ("k1m2", "phi-bump", LOCAL, set()),
        ("k1m2", "a-bump", LOCAL, set()),
        ("k1m2", "phi+0.3", set(), STRUCTURE),
        ("k1m2", "a*1.05", set(), STRUCTURE),
        ("k2m3", "b*1.05", {"einstein_fiber"}, LOCAL),
        ("k2m3", "b-bump", LOCAL, set()),
        ("k2m3", "phi-bump", LOCAL, set()),
        ("k2m3", "a-bump", LOCAL, set()),
        ("k2m3", "phi+0.3", set(), STRUCTURE),
        ("k2m3", "a*1.05", {"base_equation"}, STRUCTURE - {"base_equation"}),
        ("k0m2", "b*1.05", {"einstein_fiber"}, LOCAL),
        ("k0m2", "b-bump", LOCAL, set()),
        # b is constant, so phi does not enter the first integral
        ("k0m2", "phi-bump", {"base_equation", "scalar_equation"},
         {"first_integral", "einstein_fiber"}),
        ("k0m2", "phi+0.3", set(), STRUCTURE),
    ])
    def test_shot_profile(self, request, profile, tamper, fails, passes):
        prof = request.getfixturevalue({"k1m2": "steady_profile_12",
                                        "k2m3": "steady_profile_23",
                                        "k0m2": "round_cylinder_profile"}[profile])
        self.explained(certify_profile(TAMPERS[tamper](prof)), fails, passes)
