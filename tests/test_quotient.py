"""Group actions: freeness, isometry, invariance, quotient certificates."""

import json
from dataclasses import replace

import numpy as np
import pytest

from ricciwarp import (
    GeometryError,
    GroupAction,
    ScalarField,
    cartesian_profile_base,
    certify_quotient,
    constant_field,
    euclidean_patch,
    fixed_point_candidates,
    make_cyclic_action,
    radial_field,
)
from ricciwarp.quotient import base_sample_set, fiber_sample_set


def rotation(angle, n, i=0, j=1):
    M = np.eye(n)
    c, s = np.cos(angle), np.sin(angle)
    M[i, i] = M[j, j] = c
    M[i, j] = -s
    M[j, i] = s
    return M


class TestGroupAction:
    def test_group_law_enforced(self):
        bad = rotation(2 * np.pi / 3.0001, 3)
        with pytest.raises(ValueError):
            GroupAction(order=3, base_generator=rotation(2 * np.pi / 3, 2),
                        fiber_generator=bad,
                        base_samples=np.array([[1.0, 0.0]]),
                        fiber_samples=np.array([[1.0, 0.0, 0.0]]))

    def test_sphere_preservation_enforced(self):
        shear = np.array([[1.0, 0.5], [0.0, 1.0]])
        # shear^2 != I as well, so force order 1... use a norm-breaking
        # involution instead: diag(2, 0.5) squared is not the identity;
        # build one that squares to the identity but scales norms
        scale = np.array([[0.0, 2.0], [0.5, 0.0]])  # squares to identity
        assert np.allclose(scale @ scale, np.eye(2))
        with pytest.raises(ValueError):
            GroupAction(order=2, base_generator=-np.eye(2),
                        fiber_generator=scale,
                        base_samples=np.array([[1.0, 0.0]]),
                        fiber_samples=np.array([[1.0, 0.0]]))

    def test_make_antipodal_any_m(self):
        for m in (2, 3, 4):
            act = make_cyclic_action(2, 1, m, "antipodal")
            assert act.order == 2
            assert np.allclose(act.fiber_generator, -np.eye(m + 1))

    def test_hopf_odd_m_valid(self):
        act = make_cyclic_action(3, 1, 3, "hopf")
        assert act.fiber_generator.shape == (4, 4)

    def test_hopf_even_m_rejected(self):
        with pytest.raises(ValueError):
            make_cyclic_action(3, 1, 2, "hopf")

    def test_antipodal_needs_order_two(self):
        with pytest.raises(ValueError):
            make_cyclic_action(3, 1, 2, "antipodal")

    def test_base_rotation_on_line_needs_order_two(self):
        with pytest.raises(ValueError):
            make_cyclic_action(3, 0, 3, "hopf")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_cyclic_action(2, 1, 2, "mystery")


def flat_certificate(action, patch=None, f=None, phi=None):
    """The certificate of ``action`` on flat R^{k+1} (half-width 3) with
    constant warping and potential unless given."""
    patch = patch or euclidean_patch(action.base_generator.shape[0], 3.0)
    return certify_quotient(action, patch, f or constant_field(1.0),
                            phi or constant_field(0.0))


def action_of(order, base_gen, base_samples, fiber_gen=None, fiber_samples=None):
    """A GroupAction; the fiber defaults to the free rotation of S^1 by
    2 pi / order."""
    if fiber_gen is None:
        fiber_gen = rotation(2 * np.pi / order, 2)
    if fiber_samples is None:
        fiber_samples = fiber_sample_set(fiber_gen, order, n_random=4, seed=0)
    return GroupAction(order=order, base_generator=base_gen,
                       fiber_generator=fiber_gen, base_samples=base_samples,
                       fiber_samples=fiber_samples)


class TestFreeness:
    def test_antipodal_margin_is_diameter(self):
        cert = flat_certificate(make_cyclic_action(2, 1, 2, "antipodal"))
        assert cert.verdict
        assert abs(cert.freeness_margin - 2.0) < 1e-12

    def test_hopf_margin_matches_rotation_displacement(self):
        # block rotation by 2 pi j / p displaces every unit vector by
        # exactly 2 |sin(pi j / p)|; the margin is the j = 1 value
        for p in (3, 5):
            cert = flat_certificate(make_cyclic_action(p, 1, 3, "hopf"))
            assert cert.verdict
            assert abs(cert.freeness_margin - 2 * np.sin(np.pi / p)) < 1e-12

    def test_pole_fixing_rotation_caught_exactly(self):
        cert = flat_certificate(make_cyclic_action(2, 1, 2, "axis_rotation"))
        assert not cert.verdict
        assert cert.freeness_margin == 0.0

    def test_fixed_points_sampled_from_divisor_powers(self):
        # Fix(g^j) = Fix(g^gcd(j, p)): the divisors 1, 2, 5, 10, 25 of 50
        # add the pole pair once each to 6 axes and 8 random points
        act = make_cyclic_action(50, 1, 2, "axis_rotation", n_samples=8)
        assert len(act.fiber_samples) == 24
        assert flat_certificate(act).freeness_margin == 0.0

    def test_fixed_point_candidates_contain_pole(self):
        M = rotation(np.pi, 3)
        cand = fixed_point_candidates(M)
        dots = np.abs(cand @ np.array([0.0, 0.0, 1.0]))
        assert np.any(dots > 1 - 1e-12)

    def test_antipodal_has_no_fixed_candidates(self):
        assert fixed_point_candidates(-np.eye(3)).shape[0] == 0

    def test_margin_monotone_under_sample_growth(self):
        act = make_cyclic_action(5, 1, 3, "hopf", n_samples=16)
        bigger = replace(act, fiber_samples=np.vstack([
            act.fiber_samples,
            fiber_sample_set(act.fiber_generator, 5, n_random=128, seed=9)]))
        margin_small = flat_certificate(act).freeness_margin
        assert flat_certificate(bigger).freeness_margin <= margin_small + 1e-15


class TestIsometryResidual:
    def test_orthogonal_on_flat_metric(self):
        samples = base_sample_set(1, (0.5, 2.0), n_random=16, seed=0)
        act = action_of(5, rotation(2 * np.pi / 5, 2), samples)
        assert flat_certificate(act).base_isometry_residual < 1e-14

    def test_non_orthogonal_involution_is_not_an_isometry(self):
        swap_scale = np.array([[0.0, 2.0], [0.5, 0.0]])  # squares to the identity
        cert = flat_certificate(action_of(2, swap_scale, np.array([[1.0, 0.0]])))
        assert cert.base_isometry_residual > 0.1
        assert not cert.verdict

    def test_rotation_preserves_profile_base(self, steady_profile_12):
        a_s, _, _ = steady_profile_12.interpolants()
        base = cartesian_profile_base(a_s, 1, (0.3, 5.0))
        samples = base_sample_set(1, (0.5, 2.0), n_random=16, seed=1)
        act = action_of(4, rotation(np.pi / 2, 2), samples)
        assert flat_certificate(act, patch=base).base_isometry_residual <= 1e-10

    def test_profile_base_refuses_a_radius_outside_its_range(
            self, steady_profile_12):
        a_s, _, _ = steady_profile_12.interpolants()
        base = cartesian_profile_base(a_s, 1, (0.3, 5.0), label="b")
        with pytest.raises(GeometryError, match=r"point with radius 0\.2 "
                           r"outside the radial range \[0\.3, 5\] of 'b'"):
            base.metric(np.array([[1.0, 0.0], [0.0, 0.2]]))

    def test_domain_escape_raises(self):
        act = action_of(8, rotation(np.pi / 4, 2), np.array([[0.95, 0.95]]))
        with pytest.raises(GeometryError, match="maps outside the domain"):
            flat_certificate(act, patch=euclidean_patch(2, half_width=1.0))

    def test_sphere_residual_zero_for_orthogonal(self):
        samples = fiber_sample_set(-np.eye(3), 2, n_random=8, seed=0)
        act = action_of(7, rotation(2 * np.pi / 7, 2), base_sample_set(1, n_random=4),
                        fiber_gen=rotation(2 * np.pi / 7, 3), fiber_samples=samples)
        assert flat_certificate(act).fiber_isometry_residual < 1e-14


class TestInvariance:
    def test_radial_function_invariant(self, steady_profile_12):
        _, b_s, _ = steady_profile_12.interpolants()
        samples = base_sample_set(1, (0.5, 2.0), n_random=16, seed=2)
        act = action_of(3, rotation(2 * np.pi / 3, 2), samples)
        assert flat_certificate(act, f=radial_field(b_s)).f_invariance < 1e-12

    def test_coordinate_function_detected(self):
        u = ScalarField(lambda X: X[:, 0], "x1")
        act = action_of(2, rotation(np.pi, 2), np.array([[1.0, 0.0], [0.5, 0.5]]))
        cert = flat_certificate(act, phi=u)
        # u(gx) - u(x) = -2 x1, so the deviation is max 2|x1| over samples
        assert abs(cert.phi_invariance - 2.0) < 1e-14
        assert not cert.verdict

    def test_constant_invariant(self):
        act = action_of(5, rotation(2 * np.pi / 5, 2), np.array([[1.0, 0.0]]))
        cert = flat_certificate(act, f=constant_field(3.3))
        assert cert.f_invariance == cert.phi_invariance == 0.0


def _nan_where_x1_positive(values, X):
    return np.where((X[:, 0] > 0).reshape((-1,) + (1,) * (values.ndim - 1)),
                    np.nan, values)


class TestNonFiniteFails:
    """A NaN in the data reaches the residual it spoils and fails the
    certificate, at every power and for every quantity it enters."""

    SPOILED = {"phi": ("phi_invariance",),
               "f": ("f_invariance", "diagonal_isometry_residual"),
               "metric": ("base_isometry_residual",
                          "diagonal_isometry_residual")}

    @pytest.mark.parametrize("order", [2, 5])
    @pytest.mark.parametrize("nan_in", list(SPOILED))
    def test_nan_fails(self, order, nan_in):
        action = make_cyclic_action(order, 1, 1,
                                    "antipodal" if order == 2 else "hopf")
        if nan_in == "metric":
            patch = euclidean_patch(2, 3.0)
            data = {"patch": replace(
                patch, g=lambda X: _nan_where_x1_positive(patch.g(X), X))}
        else:
            data = {nan_in: ScalarField(
                lambda X: _nan_where_x1_positive(np.ones(len(X)), X), nan_in)}
        doc = flat_certificate(action, **data).to_dict()
        for name in ("base_isometry_residual", "fiber_isometry_residual",
                     "f_invariance", "phi_invariance",
                     "diagonal_isometry_residual"):
            assert np.isnan(doc[name]) == (name in self.SPOILED[nan_in]), name
        assert doc["freeness_margin"] > 0.1
        assert doc["verdict"] == "fail"
        assert flat_certificate(action).verdict   # the same on finite data


    def test_to_json_is_strict(self):
        # a NaN residual is written as null, never as a bare NaN token
        action = make_cyclic_action(2, 1, 1, "antipodal")
        phi = ScalarField(
            lambda X: _nan_where_x1_positive(np.ones(len(X)), X), "phi")
        cert = flat_certificate(action, phi=phi)

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        doc = json.loads(cert.to_json(), parse_constant=refuse)
        assert doc["phi_invariance"] is None and doc["verdict"] == "fail"
        assert np.isnan(cert.to_dict()["phi_invariance"])


class TestQuotientEvaluationCounts:
    """One certificate evaluates the base metric, f and phi p times each:
    once at the base samples and once per non-identity power."""

    @pytest.mark.parametrize("p", [2, 3, 50])
    def test_each_callable_evaluated_p_times(self, steady_profile_13, p):
        a_s, b_s, phi_s = steady_profile_13.interpolants()
        base = cartesian_profile_base(a_s, 1, (0.3, 5.0))
        f, phi = radial_field(b_s), radial_field(phi_s)
        counts = dict.fromkeys(("metric", "f", "phi"), 0)

        def counting(key, fn):
            def call(X):
                counts[key] += 1
                return fn(X)
            return call

        cert = certify_quotient(make_cyclic_action(p, 1, 3, "hopf"),
                                replace(base, g=counting("metric", base.g)),
                                replace(f, f=counting("f", f.f)),
                                replace(phi, f=counting("phi", phi.f)))
        assert cert.verdict
        assert counts == {"metric": p, "f": p, "phi": p}


class TestCertifyQuotient:
    def _profile_data(self, profile, k):
        a_s, b_s, phi_s = profile.interpolants()
        base = cartesian_profile_base(a_s if k >= 1 else np.ones_like, k,
                                      (0.3, 5.0))
        f = radial_field(b_s, "warping")
        phi = radial_field(phi_s, "potential")
        return base, f, phi

    def test_antipodal_on_shot_profile_passes(self, steady_profile_12):
        base, f, phi = self._profile_data(steady_profile_12, 1)
        act = make_cyclic_action(2, 1, 2, "antipodal")
        cert = certify_quotient(act, base, f, phi)
        assert cert.verdict
        assert cert.freeness_margin > 0.1
        assert cert.diagonal_isometry_residual <= 1e-10

    @pytest.mark.parametrize("p", [3, 50])
    def test_hopf_on_odd_fiber_passes(self, steady_profile_13, p):
        base, f, phi = self._profile_data(steady_profile_13, 1)
        act = make_cyclic_action(p, 1, 3, "hopf")
        cert = certify_quotient(act, base, f, phi)
        assert cert.verdict
        assert cert.freeness_margin > 0.1
        assert abs(cert.freeness_margin - 2 * np.sin(np.pi / p)) < 1e-12

    def test_nonradial_potential_fails(self, steady_profile_12):
        base, f, _ = self._profile_data(steady_profile_12, 1)
        phi = ScalarField(lambda X: X[:, 0], "nonradial")
        act = make_cyclic_action(2, 1, 2, "antipodal")
        cert = certify_quotient(act, base, f, phi)
        assert not cert.verdict
        assert cert.phi_invariance > 0.1

    @pytest.mark.parametrize("p", [2, 50])
    def test_fixed_point_action_fails(self, steady_profile_12, p):
        base, f, phi = self._profile_data(steady_profile_12, 1)
        act = make_cyclic_action(p, 1, 2, "axis_rotation")
        cert = certify_quotient(act, base, f, phi)
        assert not cert.verdict
        assert cert.freeness_margin == 0.0

    def test_diagonal_isometry_follows_from_parts(self, steady_profile_12):
        # testable implication: generator isometries plus invariant warping
        # force the diagonal action to preserve the warped metric
        base, f, phi = self._profile_data(steady_profile_12, 1)
        act = make_cyclic_action(2, 1, 2, "antipodal")
        cert = certify_quotient(act, base, f, phi)
        parts_pass = (cert.base_isometry_residual <= 1e-10
                      and cert.fiber_isometry_residual <= 1e-10
                      and cert.f_invariance <= 1e-10)
        assert parts_pass
        assert cert.diagonal_isometry_residual <= 1e-10
        assert cert.diagonal_freeness_margin >= cert.freeness_margin - 1e-12

    def test_certificate_json(self, steady_profile_12):
        base, f, phi = self._profile_data(steady_profile_12, 1)
        act = make_cyclic_action(2, 1, 2, "antipodal")
        doc = json.loads(certify_quotient(act, base, f, phi).to_json())
        assert doc["verdict"] == "pass"
        for key in ("freeness_margin", "base_isometry_residual",
                    "fiber_isometry_residual", "f_invariance",
                    "phi_invariance", "n_fiber_samples"):
            assert key in doc
