"""Reduced system, series closure, shooting, diagnostics, sweeps."""

import contextlib
import gc
import io
import json
import math
import multiprocessing
import os
import signal
import struct
import warnings
import weakref
from dataclasses import replace
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest

from ricciwarp import (
    AnsatzParams,
    GeometryError,
    IntegrationError,
    SolitonProfile,
    assemble_warped,
    certify_profile,
    lifted_potential,
    params_grid,
    profile_geometry,
    shoot,
    soliton_residual,
    sweep,
)
from conftest import (
    _UNDERFLOW,
    _dense,
    _nan_rhs_for,
    _run_arrays,
    _same_bits,
    edit_column,
)
from ricciwarp import dop853, shooting
from ricciwarp.cli import main
from ricciwarp.dop853 import _N_COEFFS, _dop853, _horner
from ricciwarp.shooting import (
    _BLOWUP_LIMIT,
    _CSV_HEAD_CHARS,
    _EVAL_FLOOR,
    _POSITIVITY_FLOOR,
    _REPORT_FIELDS,
    _SHARE_ROWS,
    _csv_header,
    _events,
    _locate,
    _report,
    _rhs_with_phi,
    _series,
    _series_start,
    _state_columns,
    ambient_geometry,
)


class TestReducedRhs:
    def test_cylinder_fixed_point(self):
        # b = sqrt((m-1)/lam), b' = 0 is stationary for b; phi'' = lam
        m, lam = 2, 0.5
        b0 = np.sqrt((m - 1) / lam)
        p = AnsatzParams(k=0, m=m, lam=lam, b0=b0)
        bp, bpp, _, phipp = _rhs_with_phi(p)(
            np.array([b0, 0.0, 0.0, lam * 0.7]))
        assert bp == 0.0
        assert abs(bpp) < 1e-14
        assert abs(phipp - lam) < 1e-14

    def test_flat_state_stays_flat(self):
        # k >= 1, m = 1, a = t, b = 1, phi' = 0, lam = 0: everything rests
        p = AnsatzParams(k=1, m=1, lam=0.0, b0=1.0)
        ap, app, bp, bpp, _, phipp = _rhs_with_phi(p)(
            np.array([0.7, 1.0, 1.0, 0.0, 0.0, 0.0]))
        assert (ap, bp) == (1.0, 0.0)
        assert abs(app) < 1e-14 and abs(bpp) < 1e-14 and abs(phipp) < 1e-14

    def test_unit_speed_vertical_equation(self):
        # with b' = 0, a' = 1, a = t the vertical equation reduces to
        # b'' = b ((m-1)/b^2 - lam); the curvature term drops exactly
        # when m = 1, leaving b'' = -lam b
        lam, t, b = 0.3, 1.7, 1.4
        p1 = AnsatzParams(k=1, m=1, lam=lam, b0=1.0)
        bpp = _rhs_with_phi(p1)(np.array([t, 1.0, b, 0.0, 0.0, 0.0]))[3]
        assert abs(bpp - (-lam * b)) < 1e-14
        p3 = AnsatzParams(k=1, m=3, lam=lam, b0=1.0)
        bpp3 = _rhs_with_phi(p3)(np.array([t, 1.0, b, 0.0, 0.0, 0.0]))[3]
        assert abs(bpp3 - b * ((3 - 1) / b ** 2 - lam)) < 1e-14

    def test_degeneration_clamped(self):
        # stages may probe past a degeneration before the terminal event
        # stops the run: a <= 0 or b <= 0 is evaluated at the floor
        rhs = _rhs_with_phi(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0))
        for state, clamped in (([-0.1, 1.0, 1.0], [_EVAL_FLOOR, 1.0, 1.0]),
                               ([1.0, 1.0, 0.0], [1.0, 1.0, _EVAL_FLOOR])):
            out = rhs(np.array(state + [0.0, 0.0, 0.0]))
            assert np.isfinite(out).all()
            assert out == rhs(np.array(clamped + [0.0, 0.0, 0.0]))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            AnsatzParams(k=1, m=0, lam=0.0, b0=1.0)
        with pytest.raises(ValueError):
            AnsatzParams(k=1, m=2, lam=0.0, b0=-1.0)
        with pytest.raises(ValueError):
            AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, epsilon=0.0)

    # explicit ids, the names pytest gave the cases by their position, so
    # that removing a case renames no other
    @pytest.mark.parametrize("change,reason", [
        pytest.param({"t_max": float("inf")}, "t_max must be a finite number",
                     id="change0-t_max must be a finite number"),
        pytest.param({"lam": float("nan")}, "lam must be a finite number",
                     id="change1-lam must be a finite number"),
        pytest.param({"lam": 10 ** 400}, "lam must be a finite number",
                     id="change2-lam must be a finite number"),
        pytest.param({"k": True}, "k must be an integer",
                     id="change3-k must be an integer"),
        pytest.param({"k": 1.5}, "k must be an integer",
                     id="change4-k must be an integer"),
        pytest.param({"b0": 0.0}, "b0 must be positive",
                     id="change5-b0 must be positive"),
        pytest.param({"k": -1}, "base sphere dimension k must be >= 0",
                     id="change6-base sphere dimension k must be >= 0"),
        pytest.param({"tol": 0.0}, "integrator tolerances must be positive",
                     id="change7-integrator tolerances must be positive"),
        pytest.param({"tol": -1e-10},
                     "integrator tolerances must be positive",
                     id="change8-integrator tolerances must be positive"),
        pytest.param({"epsilon": 1e-4, "t_max": 1.5e-4}, r"2 epsilon <= t_max",
                     id="change9-2 epsilon <= t_max"),
        pytest.param({"k": 10 ** 400}, "k is beyond the float range",
                     id="change10-k is beyond the float range"),
        pytest.param({"m": 10 ** 400}, "m is beyond the float range",
                     id="change11-m is beyond the float range"),
        pytest.param({"lam": 10 ** 5000}, "lam must be a finite number",
                     id="change12-lam must be a finite number"),
    ])
    def test_construction_refuses(self, change, reason):
        # refused when built, before anything integrates: an infinite
        # t_max never ends, a huge integer overflows a float later on
        with pytest.raises(ValueError, match=reason):
            AnsatzParams(**{"k": 1, "m": 2, "lam": 0.0, "b0": 1.0, **change})


class TestTaylorInit:
    def test_epsilon_to_zero_limit(self):
        # the start nears the closure a = t, a' = 1, b = b0, b' = phi' = 0
        # and phi = 0 down to an epsilon just above the positivity floor,
        # and below it the start is refused
        eps = 2e-6
        p = AnsatzParams(k=1, m=2, lam=0.0, b0=1.3, epsilon=eps)
        t, (a, ap, b, bp, phi, phip) = _series_start(p)
        assert t == eps
        assert abs(a - eps) < eps ** 3
        assert abs(ap - 1.0) < eps ** 2
        assert abs(b - 1.3) < eps ** 2
        assert abs(bp) < 10 * eps
        assert abs(phi) < eps ** 2
        assert abs(phip) < 10 * eps
        with pytest.raises(ValueError, match="not above the positivity floor"):
            _series_start(replace(p, epsilon=1e-7))

    @pytest.mark.parametrize("k,m,b0,epsilon,values", [
        (1, 2, 1.0, 5e-7, "a = 5e-07, b = 1"),
        (1, 2, 1.0, 1e-6, "a = 1e-06, b = 1"),
        (1, 2, 1.0, 1e-300, "a = 1e-300, b = 1"),
        (1, 1, 1e-6, 1e-4, "a = 0.0001, b = 1e-06"),
        (0, 1, 5e-7, 1e-4, "b = 5e-07"),
    ])
    def test_start_at_the_floor_refused(self, k, m, b0, epsilon, values):
        # the right side clamps a and b below the floor and the events read
        # them as a degeneration: such a start would integrate another
        # system (a k = 0 start has no a, so any epsilon keeps it)
        p = AnsatzParams(k=k, m=m, lam=0.0, b0=b0, epsilon=epsilon)
        with pytest.raises(ValueError, match=rf"\({values}\) is not above "
                           "the positivity floor 1e-06"):
            _series_start(p)
        if k == 0:
            assert _series_start(replace(p, b0=1.0, epsilon=1e-300))

    def test_k0_start(self):
        # for k = 0 the b-series fixes phi2 = (lam + 2 m b2 / b0) / 2,
        # whatever params.phi2 says: the start is that of any phi2, and its
        # leading terms are b0 + b2 t^2, 2 b2 t, phi2 t^2 and 2 phi2 t, to
        # a relative t^2
        m, lam, b0 = 2, 0.3, 1.2
        p = AnsatzParams(k=0, m=m, lam=lam, b0=b0, phi2=7.0, epsilon=1e-4)
        t, (b, bp, phi, phip) = _series_start(p)
        assert (t, [b, bp, phi, phip]) == _series_start(replace(p, phi2=-1.0))
        b2 = ((m - 1) / b0 - lam * b0) / 2.0
        phi2 = (lam + 2.0 * m * b2 / b0) / 2.0
        assert b == pytest.approx(b0 + b2 * t ** 2, rel=1e-15)
        assert bp == pytest.approx(2.0 * b2 * t, rel=t ** 2)
        assert phi == pytest.approx(phi2 * t ** 2, rel=t ** 2)
        assert phip == pytest.approx(2.0 * phi2 * t, rel=t ** 2)

    def test_epsilon_past_the_radius_starts_earlier(self):
        # past t_conv, where the last order's terms fall to rounding, the
        # series starts at t_conv (0.167 for k1m2 at b0 1); a row of small
        # convergence radius starts earlier in proportion, and a tail at
        # rounding is below the start's last bits
        params = AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, epsilon=0.5)
        t, start = _series_start(params)
        assert 0.15 < t < 0.5
        small, scaled = _series_start(replace(params, b0=0.01, phi2=-5000.0))
        assert small == pytest.approx(0.01 * t, rel=1e-14)
        assert scaled == pytest.approx([0.01 * start[0], start[1],
                                        0.01 * start[2], start[3], start[4],
                                        start[5] / 0.01], rel=1e-13)
        # the round sphere S^3 (lambda 3, phi2 0: a = sin t, b = cos t)
        # starts at its t_conv with the exact state to rounding
        sphere = AnsatzParams(k=1, m=2, lam=3.0, b0=1.0, phi2=0.0,
                              epsilon=0.9)
        t, start = _series_start(sphere)
        assert 0.5 < t < 0.9
        exact = [np.sin(t), np.cos(t), np.cos(t), -np.sin(t), 0.0, 0.0]
        assert np.abs(np.array(start) - exact).max() < 4e-16

    def test_accepted_start_can_run(self):
        # what lets _integrate start without checking the run: finite
        # params whose series start is accepted give a start inside the
        # blow-up box, its a (k >= 1) and b above the positivity floor, at
        # a t in (0, epsilon], below t_max
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        reals = st.floats(allow_nan=False, allow_infinity=False)
        positive = st.floats(min_value=0.0, exclude_min=True,
                             allow_infinity=False)
        # moderate values beside the extremes, and an epsilon above the
        # positivity floor, which a k >= 1 start needs: some 30 to 100
        # starts are accepted
        moderate = st.floats(-10.0, 10.0)
        accepted = []

        @hypothesis.settings(max_examples=800, deadline=None, database=None)
        @hypothesis.given(k=st.integers(0, 6), m=st.integers(1, 6),
                          lam=st.one_of(reals, moderate),
                          b0=st.one_of(positive, st.floats(1e-3, 10.0)),
                          phi2=st.one_of(reals, moderate),
                          epsilon=st.one_of(positive,
                                            st.floats(1e-300, 3e-3),
                                            st.floats(1e-6, 3e-3)),
                          t_max=st.one_of(positive, st.floats(1e-3, 100.0)))
        def run(k, m, lam, b0, phi2, epsilon, t_max):
            try:
                p = AnsatzParams(k=k, m=m, lam=lam, b0=b0, phi2=phi2,
                                 epsilon=epsilon, t_max=t_max)
                t, start = _series_start(p)
            except ValueError:
                return
            accepted.append(p)
            # inside the blow-up box, so finite
            assert max(map(abs, start)) < _BLOWUP_LIMIT
            assert 0 < t <= p.epsilon < p.t_max
            assert start[-4] > _POSITIVITY_FLOOR   # b
            assert k == 0 or start[0] > _POSITIVITY_FLOOR

        run()
        assert len(accepted) >= 20

    @pytest.mark.parametrize("k,m", [(1, 2), (2, 3)])
    def test_epsilon_halving_consistency(self, k, m):
        # the series start is consistent: starting at the default epsilon
        # 0.1 or at 0.05 barely moves the profile downstream, phi included,
        # since phi is gauged to phi(0) = 0 wherever the row starts.
        # Measured at t = 1: a, b and phi move by at most 3.1e-11 (k1m2)
        # and 1.1e-11 (k2m3).  An epsilon of 1e-4 integrates the origin
        # layer at the row's tol, which acceptance criterion 6 bounds
        base = dict(k=k, m=m, lam=0.0, b0=1.0, t_max=2.0)
        p1 = shoot(AnsatzParams(epsilon=0.1, **base))
        p2 = shoot(AnsatzParams(epsilon=0.05, **base))
        assert (p1.start_time, p2.start_time) == (0.1, 0.05)
        a1, b1, f1 = p1.interpolants()
        a2, b2, f2 = p2.interpolants()
        delta = max(abs(float(a1(1.0)) - float(a2(1.0))),
                    abs(float(b1(1.0)) - float(b2(1.0))),
                    abs(float(f1(1.0)) - float(f2(1.0))))
        assert delta < 1e-9

    def test_k2_m3_smoke(self):
        prof = shoot(AnsatzParams(k=2, m=3, lam=0.0, b0=1.0, t_max=1.5))
        assert prof.status == "completed"
        assert np.all(np.isfinite(prof.b))


class TestSeriesReferees:
    """Exact smooth closures that the series start must reproduce
    coefficient by coefficient: a = t sum(alpha[i] t^2i), b = sum(beta[i]
    t^2i), phi = t^2 sum(phi[i] t^2i)."""

    def test_round_sphere(self, monkeypatch):
        # S^(k+m+1) = dt^2 + sin^2 t g_(S^k) + cos^2 t g_(S^m), lambda = k +
        # m: a = sin t, b = cos t and phi = 0, through 12 orders (t^25 in
        # a).  Each coefficient is within rounding of the O(1) terms of its
        # recurrence (measured: at most 6.9e-18 from the exact one in a and
        # b, 2.2e-17 from 0 in phi), so its relative error grows as the
        # coefficients fall to 1/25!; through order 4 it is at most 2.0e-13
        monkeypatch.setattr(shooting, "_SERIES_ORDERS", 12)
        for k, m in ((1, 2), (2, 3), (1, 3)):
            alpha, beta, phi, _ = _series(AnsatzParams(
                k=k, m=m, lam=float(k + m), b0=1.0, phi2=0.0, epsilon=10.0,
                t_max=20.0))
            sin = [(-1) ** i / math.factorial(2 * i + 1) for i in range(13)]
            cos = [(-1) ** i / math.factorial(2 * i) for i in range(13)]
            assert len(alpha) == len(beta) == len(phi) + 1 == 13
            for got, want in ((alpha, sin), (beta, cos)):
                assert np.abs(np.subtract(got, want)).max() < 4e-17
                assert np.abs(np.subtract(got, want)
                              / np.array(want))[:5].max() < 1e-12
            assert np.abs(phi).max() < 4e-17

    def test_einstein_product(self):
        # S^(k+1)(r) x S^m(b0) with lambda = k / r^2 = (m - 1) / b0^2 and
        # phi2 0: a = r sin(t / r), b = b0 and phi = 0
        for k, m, b0 in ((1, 2, 1.0), (1, 3, 2.0), (2, 3, 1.5)):
            lam = (m - 1) / b0 ** 2
            r = math.sqrt(k / lam)
            alpha, beta, phi, _ = _series(AnsatzParams(
                k=k, m=m, lam=lam, b0=b0, phi2=0.0, epsilon=10.0,
                t_max=20.0))
            want = [(-1) ** i / (math.factorial(2 * i + 1) * r ** (2 * i))
                    for i in range(len(alpha))]
            np.testing.assert_allclose(alpha, want, rtol=1e-10, atol=1e-22)
            assert beta[0] == b0 and np.abs(beta[1:]).max() < 1e-15
            assert np.abs(phi).max() < 1e-15

    def test_cylinder_at_its_exact_radius(self):
        # k0m2 at b0 = sqrt((m - 1) / lambda): b = b0 and phi = lambda
        # t^2 / 2, every coefficient past b0 and phi2 0 to rounding (b0 is
        # rounded), so the series stops at its second order and starts at
        # epsilon
        params = AnsatzParams(k=0, m=2, lam=0.5, b0=math.sqrt(2.0))
        alpha, beta, phi, t_conv = _series(params)
        assert alpha == [] and len(beta) == len(phi) + 1 == 3
        assert beta[0] == math.sqrt(2.0)
        assert phi[0] == pytest.approx(0.25, rel=1e-15)
        assert np.abs(beta[1:] + phi[1:]).max() < 1e-16
        t, start = _series_start(params)
        assert t == 0.1 < t_conv
        assert start == pytest.approx([math.sqrt(2.0), 0.0, 0.25 * 0.1 ** 2,
                                       0.5 * 0.1], rel=1e-15, abs=1e-16)

    def test_loading_a_profile_solves_no_series(self, monkeypatch,
                                                steady_profile_12):
        # a profile records its start: reading it back, certifying it and
        # its quotient geometry run no series solve
        def refuse(params):
            raise AssertionError("a series solve")

        monkeypatch.setattr(shooting, "_series", refuse)
        loaded = SolitonProfile.parse_csv(steady_profile_12.to_csv())
        assert loaded.start_time == steady_profile_12.start_time == 0.1
        assert certify_profile(loaded, n_base=4, n_product=4).verdict
        ambient_geometry(loaded)


class TestShoot:
    def test_cylinder_mode_constant_profile(self):
        # the Gaussian shrinker on R^{k+1} x S^m solves the ansatz exactly:
        # a = t, b = sqrt((m-1)/lam), phi = lam t^2/2 (k = 0: the cylinder)
        for k, m, lam in [(0, 2, 0.5), (1, 2, 0.5), (2, 3, 1.0), (3, 2, 0.25)]:
            b0 = float(np.sqrt((m - 1) / lam))
            prof = shoot(AnsatzParams(k=k, m=m, lam=lam, b0=b0, phi2=lam / 2,
                                      t_max=5.0))
            case = f"k={k} m={m} lam={lam}"
            assert prof.status == "completed", case
            if k >= 1:
                assert np.abs(prof.a - prof.t).max() < 1e-7, case
            assert np.abs(prof.b - b0).max() < 1e-7, case
            assert np.abs(prof.phi - 0.5 * lam * prof.t ** 2).max() < 1e-7, case
            assert abs(prof.mu_mean - (m - 1)) < 1e-6, case
            assert prof.mu_spread < 1e-6 * (1 + abs(prof.mu_mean)), case

    def test_steady_conservation(self, steady_profile_12):
        prof = steady_profile_12
        assert prof.status == "completed"
        assert prof.mu_spread <= 1e-6 * (1 + abs(prof.mu_mean))
        # smooth closure pins the first integral at m - 1
        assert abs(prof.mu_mean - 1.0) < 1e-6

    def test_residual_columns_small_on_solutions(self, steady_profile_12):
        # on every grid row, those at step ends included
        prof = steady_profile_12
        assert np.abs(prof.res_tt).max() < 1e-6
        assert np.abs(prof.res_sk).max() < 1e-6
        assert np.abs(prof.res_sm).max() < 1e-6

    def test_degeneration_reported_with_hitting_time(self):
        prof = shoot(AnsatzParams(k=0, m=2, lam=0.5, b0=2.0))
        assert prof.status == "hit_b_zero"
        assert 0 < prof.end_time < 10.0
        assert prof.b.min() > 0

    def test_collapse_of_base_coefficient(self):
        prof = shoot(AnsatzParams(k=1, m=2, lam=2.0, b0=1.0))
        assert prof.status == "hit_a_zero"
        assert 0 < prof.end_time < 10.0

    def test_blowup_flagged(self):
        prof = shoot(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, phi2=0.5))
        assert prof.status == "blowup"
        assert 0 < prof.end_time < 10.0

    def test_classification_labels(self):
        assert AnsatzParams(k=0, m=2, lam=0.5, b0=1.0).classification == "shrinking"
        assert AnsatzParams(k=1, m=2, lam=0.0, b0=1.0).classification == "steady"
        assert AnsatzParams(k=1, m=2, lam=-0.1, b0=1.0).classification == "expanding"

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("b0", [1.0, 1.5])
    def test_schwarzschild_tangherlini(self, m, b0):
        # steady k = 1 with phi2 = 0 is the Ricci-flat Euclidean
        # Schwarzschild-Tangherlini metric (Tangherlini, 1963; Gibbons and
        # Hawking, 1977): b' = sqrt(1 - (b0/b)^(m-1)), a = 2 b0/(m-1) b'
        # and phi' = 0.  Measured worst deviations over the six cases: a
        # 8.7e-9, b' 1.3e-6 and phi' 4.9e-7 (m 4, b0 1); the bounds are
        # 4 times these
        prof = shoot(AnsatzParams(k=1, m=m, lam=0.0, b0=b0, phi2=0.0,
                                  t_max=20.0))
        assert (prof.status, prof.end_time) == ("completed", 20.0)
        b_prime = np.sqrt(1.0 - (b0 / prof.b) ** (m - 1))
        assert np.abs(prof.a - 2 * b0 / (m - 1) * b_prime).max() < 3.5e-8
        assert np.abs(prof.b_prime - b_prime).max() < 5e-6
        assert np.abs(prof.phi_prime).max() < 2e-6

    def test_scaling(self):
        # g -> c^2 g maps a profile to a profile: (b0, lambda, phi2,
        # epsilon, t_max) go to (c b0, lambda / c^2, phi2 / c^2, c epsilon,
        # c t_max); a and b scale by c and phi is unchanged.  c is any real
        # from 0.5 to 3.  Measured over 65 values of c, the worst
        # |difference| / max(1, |value|) of a, b and phi at the samples:
        # k1m2 4.2e-10, k2m3 2.9e-7, k1m3 5.3e-10 and, up to 0.9 of its
        # blow-up time, k0m2 6.6e-10; the bounds are 4 to 5.5 times these.
        # End times agree within 7.1e-12 and the completed rows' mu_mean
        # within 1.4e-11, relative
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        classes = {
            "k1m2": (AnsatzParams(k=1, m=2, lam=-0.1, b0=1.0), 1.7e-9),
            "k2m3": (AnsatzParams(k=2, m=3, lam=0.5, b0=1.3), 1.6e-6),
            "k1m3": (AnsatzParams(k=1, m=3, lam=0.0, b0=1.0), 2.4e-9),
            "k0m2": (AnsatzParams(k=0, m=2, lam=-0.3, b0=1.2), 2.7e-9)}
        profiles = {}

        @hypothesis.settings(max_examples=30, deadline=None, database=None)
        @hypothesis.given(name=st.sampled_from(sorted(classes)),
                          c=st.floats(0.5, 3.0))
        def run(name, c):
            params, bound = classes[name]
            if name not in profiles:
                profiles[name] = shoot(params)
            prof = profiles[name]
            scaled = shoot(replace(
                params, b0=c * params.b0, lam=params.lam / c ** 2,
                phi2=params.phi2 / c ** 2, epsilon=c * params.epsilon,
                t_max=c * params.t_max))
            assert scaled.status == prof.status
            assert scaled.end_time / c == pytest.approx(prof.end_time,
                                                        rel=1e-4)
            t = prof.t
            if prof.status != "completed":
                t = t[t <= 0.9 * prof.end_time]
            else:
                assert scaled.mu_mean == pytest.approx(prof.mu_mean, rel=1e-9)
            for f, f_scaled, size in zip(prof.interpolants(),
                                         scaled.interpolants(), (c, c, 1.0)):
                if f is not None:
                    want = f(t)
                    got = f_scaled(c * t) / size
                    assert (np.abs(got - want)
                            / np.maximum(1.0, np.abs(want))).max() < bound

        run()

    def test_reversal(self):
        # every first-derivative term of the reduced system is a product of
        # two first derivatives, so the system is invariant under t -> T - t
        # with a', b' and phi' negated.  A reversed _dop853 run (at 1e-12)
        # retraces the k1m2 lambda -0.1 profile away from the pole: the
        # worst state component at its step starts and its end measured
        # 1.07e-8 from t = 8 back to 4 and 5.09e-9 from 3 back to 0.5; the
        # bounds are 4 times these.  Toward the pole the origin-layer mode
        # grows (8 back to 1: 6.2e-7; 9.9 back to 0.2: 3.2e-4)
        params = AnsatzParams(k=1, m=2, lam=-0.1, b0=1.0)
        prof = shoot(params)
        flip = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        events, _ = _events(1)
        for T, t_stop, bound in ((8.0, 4.0, 4.3e-8), (3.0, 0.5, 2.1e-8)):
            start = _dense(prof, np.array([T]))[:, 0] * flip
            [row] = _dop853([_rhs_with_phi(params)], [0.0], start[None],
                            [(T - t_stop, 1e-12, 1e-3)], events)
            assert row.status == 0
            t, _, F, y_old = _run_arrays(row)
            got = np.vstack([y_old, _horner(F[-1], y_old[-1], 1.0)])
            want = _dense(prof, T - t).T * flip
            assert np.abs(got - want).max() < bound

    def test_refinement_stability(self):
        base = dict(k=1, m=2, lam=-0.1, b0=1.0, t_max=2.0)
        p1 = shoot(AnsatzParams(epsilon=1e-4, tol=1e-10, **base))
        p2 = shoot(AnsatzParams(epsilon=5e-5, tol=5e-11, **base))
        a1, b1, f1 = p1.interpolants()
        a2, b2, f2 = p2.interpolants()
        delta = max(abs(float(a1(1.0)) - float(a2(1.0))),
                    abs(float(b1(1.0)) - float(b2(1.0))),
                    abs(float(f1(1.0)) - float(f2(1.0))))
        assert delta <= 1e-7


class TestDiagnosticsIndependence:
    def test_perturbed_start_reported_nonconserved(self, monkeypatch):
        # a start off the smooth-closure series (b'(eps) + 0.01) is still
        # a start of the reduced system, and its b-equation alone makes
        # mu = m - 1 an identity of every solution: mu is conserved
        # whatever the start.  Smoothness at the origin is the series
        # start's to enforce; mu measures the defect of the stored b'
        # polynomial
        series_start = shooting._series_start
        b_prime = _state_columns(1).index("b_prime")

        def perturbed(params):
            t, start = series_start(params)
            start[b_prime] += 0.01
            return t, start

        monkeypatch.setattr(shooting, "_series_start", perturbed)
        prof = shoot(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0))
        assert (prof.y_old[0, b_prime]
                == series_start(prof.params)[1][b_prime] + 0.01)
        assert prof.status == "completed"
        assert prof.mu_spread <= 1e-6 * (1 + abs(prof.mu_mean))

    def test_corrupted_derivative_column_detected(self, steady_profile_12):
        # a dataclasses.replace copy derives its own diagnostics rather
        # than reusing the original's cached ones
        prof = steady_profile_12
        assert prof.mu_spread <= 1e-6 * (1 + abs(prof.mu_mean))  # clean data
        tampered = edit_column(prof, "b_prime", shift=1e-3)
        assert tampered.mu_spread > 1e-3
        assert prof.mu_spread <= 1e-6 * (1 + abs(prof.mu_mean))

    def test_corrupted_profile_fails_certification(self, steady_profile_12):
        # b raised by at most 1e-3 on the one step that holds t = 3
        tampered = edit_column(steady_profile_12, "b", bump=4e-3,
                               window=(3.0, 3.0))
        assert np.abs(tampered.b - steady_profile_12.b).max() > 9e-4
        report = certify_profile(tampered, n_base=6, n_product=6)
        assert not report.verdict

    def test_replaced_profile_fits_its_own_splines(self, steady_profile_12):
        # a dataclasses.replace copy does not share the original's cache,
        # so its piecewise polynomials are its own and tampered
        # coefficients reach the certificate
        prof = steady_profile_12
        b_poly = prof.interpolants()[1]
        tampered = edit_column(prof, "b", scale=1.05)
        assert tampered.interpolants()[1] is not b_poly
        assert float(tampered.interpolants()[1](3.0)) == pytest.approx(
            1.05 * float(b_poly(3.0)), rel=1e-12)
        assert not certify_profile(tampered, n_base=6, n_product=6).verdict


class TestDefectsAwayFromStepEnds:
    """mu and the residual columns are defects of the stored polynomials,
    sampled at the fractions ``_SAMPLE_X`` inside every step, so they hold
    where the steps are short: near an event and after an early series
    start."""

    @pytest.mark.parametrize("params,status,check", [
        (AnsatzParams(k=1, m=2, lam=0.5, b0=1.0, t_max=5.0), "hit_a_zero",
         lambda p: abs(p.mu_mean - 1.0) <= 0.01),
        (AnsatzParams(k=0, m=2, lam=0.5, b0=2.0, t_max=5.0), "hit_b_zero",
         lambda p: p.mu_spread <= 1e-7),
        (AnsatzParams(k=1, m=3, lam=0.5, b0=1.0, t_max=5.0), "completed",
         lambda p: p.mu_spread <= 1e-6),
        # k1m2 scaled by 0.05: its series starts at t = 0.0084, and its 233
        # steps read mu_spread 1.8e-8, as k1m2's 32 do
        (AnsatzParams(k=1, m=2, lam=0.0, b0=0.05, phi2=-200.0), "completed",
         lambda p: p.start_time < 0.01 and p.mu_spread <= 1e-7),
    ], ids=["hit_a_zero-mu_mean", "hit_b_zero-mu_spread",
            "completed-mu_spread", "early-start-mu_spread"])
    def test_short_steps_and_early_start(self, params, status, check):
        prof = shoot(params)
        assert prof.status == status
        assert check(prof), (prof.start_time, prof.mu_mean, prof.mu_spread)

    def test_grid_density_does_not_move_mu_spread(self, monkeypatch):
        # the samples only read the defect: twice as many a step read
        # within 2% of the default (measured 1.1%)
        params = AnsatzParams(k=1, m=3, lam=-0.1, b0=1.0)
        default = shoot(params).mu_spread
        monkeypatch.setattr(shooting, "_SAMPLE_X", np.linspace(0.05, 0.95, 16))
        fine = shoot(params).mu_spread
        assert abs(default - fine) <= 0.02 * fine

    def test_arrays_keep_every_row(self, steady_profile_12):
        # every step holds len(_SAMPLE_X) samples, strictly inside it, and
        # every column has one row per sample
        prof = steady_profile_12
        n = prof.t.size
        assert n == prof.t_old.size * len(shooting._SAMPLE_X)
        for column in (prof.a, prof.b_prime, prof.mu, prof.res_tt, prof.res_sk,
                       prof.res_sm):
            assert column.shape == (n,)
        idx, x = _locate(prof._steps, prof.t)
        assert np.array_equal(idx, np.repeat(np.arange(prof.t_old.size),
                                             len(shooting._SAMPLE_X)))
        assert ((0 < x) & (x < 1)).all()
        assert np.abs(x.reshape(-1, len(shooting._SAMPLE_X))
                      - shooting._SAMPLE_X).max() < 1e-9

    def test_event_step_sampled_up_to_the_event(self):
        # a terminal event ends the profile inside its last step: its
        # samples keep to the part up to end_time
        prof = shoot(AnsatzParams(k=1, m=2, lam=0.5, b0=1.0, t_max=5.0))
        assert prof.status == "hit_a_zero"
        assert prof.t_old[-1] + prof.h[-1] > prof.end_time
        last = prof.t[-len(shooting._SAMPLE_X):]
        assert prof.t_old[-1] < last[0] and last[-1] < prof.end_time
        assert prof.a.min() > 0

    def test_series_start_sampled(self, steady_profile_23):
        # k2m3 starts from its series at t = 0.1, its first step is sampled
        # inside itself like every other, and its largest phi'' defect,
        # 2.4e-8, lies at t = 0.89, away from the start
        prof = steady_profile_23
        assert prof.t_old[0] == prof.start_time == 0.1
        assert prof.start_time < prof.t.min() < prof.t_old[1]
        assert np.abs(prof.res_tt).max() < 1e-7
        assert prof.t[np.abs(prof.res_tt).argmax()] > 0.5


class TestCertifyProfile:
    def test_steady_profile_passes(self, steady_profile_12):
        report = certify_profile(steady_profile_12)
        assert report.verdict
        assert report.checks["soliton_residual"]["residual"] <= 1e-5

    def test_flat_product_profile_passes(self):
        # k = 1, m = 1, phi2 = 0 shoots the flat metric a = t, b = 1,
        # phi = 0; its first integral vanishes, as does the Ricci tensor of
        # the unit circle fiber
        prof = shoot(AnsatzParams(k=1, m=1, lam=0.0, b0=1.0, phi2=0.0))
        assert np.abs(prof.b - 1.0).max() < 1e-10
        report = certify_profile(prof, n_base=6, n_product=8)
        assert report.verdict
        assert abs(report.mu_mean) < 1e-8

    def test_scalar_equation_constant_along_profile(self, steady_profile_12):
        report = certify_profile(steady_profile_12)
        c = report.c_value
        assert report.checks["scalar_equation"]["residual"] <= 1e-6 * (1 + abs(c))

    def test_window_must_fit(self, steady_profile_12):
        with pytest.raises(GeometryError):
            certify_profile(steady_profile_12, t_window=(50.0, 60.0))

    @pytest.mark.parametrize("h,message", [
        pytest.param(h, "step h must be finite and positive", id=str(h))
        for h in (np.nan, np.inf, 0.0, -1e-3)] + [
        pytest.param(1e-20, "step h=1e-20 is below the float resolution",
                     id="1e-20")])
    def test_step_must_be_finite_and_positive(self, steady_profile_12, h,
                                              message):
        # refused before the window and chart rules read h
        with pytest.raises(ValueError, match=message):
            certify_profile(steady_profile_12, h=h)

    @pytest.mark.parametrize("status", ["hit_a_zero", "hit_b_zero", "blowup"])
    def test_unfinished_profile_refused(self, steady_profile_12, status):
        unfinished = replace(steady_profile_12, status=status)
        with pytest.raises(GeometryError, match=f"status is '{status}'"):
            certify_profile(unfinished)

    def test_blowup_profile_keeps_b_positive(self, steady_profile_02):
        # the steady k = 0 profile blows up near t = 1.95; the stored
        # polynomial of b stays positive on the whole base chart, so it has
        # a geometry, and certify refuses it for its status alone
        prof = steady_profile_02
        assert prof.status == "blowup" and prof.b.min() > 0
        geom = profile_geometry(prof)
        lo, hi = geom.base.domain[0]
        assert (prof.interpolants()[1](np.linspace(lo, hi, 100_001)) > 0).all()
        with pytest.raises(GeometryError, match="status is 'blowup'"):
            certify_profile(prof)

    @pytest.mark.parametrize("k, m, lam", [(1, 2, 0.0), (2, 3, 0.0),
                                           (1, 3, -0.1)])
    def test_default_grid_resolves_the_certificate(self, k, m, lam,
                                                   monkeypatch):
        # the default samples against twice as many a step, on the same
        # shot: the certificate reads the stored polynomials, not the
        # samples, so it is the same report, and mu_spread moves by less
        # than 10% (measured 1.1% at most)
        params = AnsatzParams(k=k, m=m, lam=lam, b0=1.0)
        report, spread = [], []
        for fractions in (shooting._SAMPLE_X, np.linspace(0.05, 0.95, 16)):
            monkeypatch.setattr(shooting, "_SAMPLE_X", fractions)
            prof = shoot(params)
            report.append(certify_profile(prof).to_json())
            spread.append(prof.mu_spread)
        assert report[0] == report[1]
        assert abs(spread[0] - spread[1]) <= 0.10 * spread[1]

    @pytest.mark.parametrize("column", ["a_prime", "b_prime", "phi_prime"])
    def test_derivative_columns_do_not_reach_the_certificate(
            self, steady_profile_12, column):
        # the geometry reads the polynomials of a, b and phi only
        prof = steady_profile_12
        edited = edit_column(prof, column, shift=3.0)
        assert edited.mu_mean != prof.mu_mean
        assert (certify_profile(edited, n_base=6, n_product=6).to_json()
                == certify_profile(prof, n_base=6, n_product=6).to_json())


class TestOracleClosure:
    @pytest.mark.parametrize("fixture_name", [
        "steady_profile_12", "steady_profile_23", "expanding_profile_12"])
    def test_assembled_residual_gates_the_equations(self, fixture_name, request):
        # anti-hallucination gate for the reduced system: the assembled
        # product metric must satisfy the soliton equation along profiles
        prof = request.getfixturevalue(fixture_name)
        geom = profile_geometry(prof)
        patch = assemble_warped(geom)
        psi = lifted_potential(geom)
        rng = np.random.default_rng(5)
        for t in (0.3, 1.0, 2.7, 4.8):
            x = np.concatenate([[t],
                                geom.base.center()[1:] + 0.1 * rng.random(geom.base.dim - 1),
                                geom.fiber.center() + 0.2 * rng.random(geom.fiber.dim)])
            _, norm = soliton_residual(patch, psi, prof.lam, x, 1e-3)
            assert norm <= 1e-5


def _steps(profile, index, **changes):
    """A copy of ``profile`` with the step rows ``index`` of its table (and
    any other ``changes``): the construction checks the new table."""
    return replace(profile, table=profile.table[index], **changes)


def _edit(profile, column, values):
    """A copy of ``profile`` whose table column ``column`` (a name of
    :func:`_csv_header`) holds ``values``."""
    table = profile.table.copy()
    table[:, _csv_header(profile.params.k).index(column)] = values
    return replace(profile, table=table)


class TestInterpolants:
    @pytest.fixture(params=["k1m2", "k2m3", "k0m2"])
    def profile(self, request, steady_profile_12, steady_profile_23,
                steady_profile_02):
        prof = {"k1m2": steady_profile_12, "k2m3": steady_profile_23,
                "k0m2": steady_profile_02}[request.param]
        return replace(prof)   # a copy without the fixture's polynomials

    def test_one_fit_cached(self, profile, monkeypatch):
        # the coefficient arrays of the piecewise polynomials (_steps) are
        # built once per profile, and the interpolants and the grid share
        # them
        calls = []
        build = SolitonProfile.__dict__["_steps"].func

        def counting(prof):
            calls.append(prof)
            return build(prof)

        steps = cached_property(counting)
        steps.__set_name__(SolitonProfile, "_steps")
        monkeypatch.setattr(SolitonProfile, "_steps", steps)
        first = profile.interpolants()
        assert calls == [profile]
        assert profile.interpolants() is first
        assert profile.b is profile.b and profile.mu.size == profile.t.size
        assert calls == [profile]

    def test_views_freed_with_the_profile(self, profile):
        # the cached views hold the step arrays, not the profile, so a
        # profile forms no reference cycle: with the cyclic collector off
        # it is freed with its last reference
        prof = replace(profile)
        gc.disable()
        try:
            prof.interpolants()
            assert np.isfinite(prof.mu).all()
            profile_geometry(prof)
            ref = weakref.ref(prof)
            del prof
            assert ref() is None
        finally:
            gc.enable()

    def test_each_spline_is_its_own_fit_bit_for_bit(self, profile):
        # each interpolant is the piecewise polynomial of its column alone:
        # an OdeSolution of one-column DOP853 pieces has its bits (a piece
        # keeps the stored h: a profile that ends at an event ends inside
        # its last step); the polynomials of a loaded profile are the shot
        # ones, and the grid columns are their samples
        from scipy.integrate import OdeSolution
        from scipy.integrate._ivp.rk import Dop853DenseOutput

        def piece(t0, t1, h, y, f):
            dense = Dop853DenseOutput(t0, t1, y, f)
            dense.h = h
            return dense

        loaded = SolitonProfile.parse_csv(profile.to_csv())
        t = profile.t
        x = np.concatenate([t, 0.5 * (t[1:] + t[:-1]), [0.0, 20.0]])
        ends = np.append(profile.t_old[1:], profile.end_time)
        shot, back = profile.interpolants(), loaded.interpolants()
        assert (shot[0] is None) == (back[0] is None) == (profile.params.k == 0)
        columns = _state_columns(profile.params.k)
        for name, poly, again in zip(("a", "b", "phi"), shot, back):
            if poly is None:
                continue
            c = columns.index(name)
            own = OdeSolution(
                np.append(profile.t_old[:1], ends),
                [piece(t0, t1, h, y[c:c + 1], f[:, c:c + 1])
                 for t0, t1, h, y, f in zip(profile.t_old, ends, profile.h,
                                            profile.y_old, profile.F)])
            assert _same_bits(poly(x), own(x)[0]), name
            assert _same_bits(poly(t), getattr(profile, name)), name
            assert _same_bits(again(x), poly(x)), name
            assert _same_bits(again(3.0), poly(3.0)), name

    @pytest.mark.parametrize("column,value,message", [
        ("b", np.nan, "column b has a non-finite value"),
        ("phi", np.inf, "column phi has a non-finite value"),
        ("a", -np.inf, "column a has a non-finite value"),
        ("t", np.nan, "column t is not finite and strictly increasing"),
        ("t", 0.0, "column t is not finite and strictly increasing"),
    ])
    def test_unfittable_column_rejected(self, steady_profile_12, column,
                                        value, message):
        # a step table that is no piecewise polynomial is refused
        table = steady_profile_12.table.copy()
        table[7, _csv_header(1).index(column)] = value
        with pytest.raises(ValueError, match=message):
            replace(steady_profile_12, table=table)

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    def test_too_few_rows_rejected(self, steady_profile_12, rows):
        # the first steps of a table alone do not reach its end_time; with
        # the end of their last step as end_time they are a profile, whose
        # samples are the first ones of the whole table
        prof = steady_profile_12
        with pytest.raises(ValueError, match="does not lie in its last step"):
            _steps(prof, slice(rows))
        short = _steps(prof, slice(rows), end_time=float(prof.t_old[rows]))
        n = rows * len(shooting._SAMPLE_X)
        assert _same_bits(short.t, prof.t[:n])
        assert _same_bits(short.mu, prof.mu[:n])


class TestStepTable:
    """Construction (and so every reader) refuses a step table that is not
    one piecewise polynomial from its start time, in (0, epsilon], to
    end_time."""

    @pytest.mark.parametrize("edit,message", [
        (lambda p: _steps(p, [0, 2, 1, *range(3, p.t_old.size)]),
         "column t is not finite and strictly increasing"),
        (lambda p: _steps(p, np.r_[0:20, 21:p.t_old.size]),
         "steps 19 and 20 do not meet"),
        (lambda p: _edit(p, "h", np.where(np.arange(p.h.size) == 9, -p.h,
                                          p.h)),
         "column h is not positive"),
        (lambda p: _edit(p, "h", p.h * (1 + 1e-13)), "do not meet"),
        (lambda p: replace(p, end_time=p.end_time + 1e-12),
         "end_time 10.00000000000.* is not at most its t_max = 10$"),
        (lambda p: replace(p, end_time=float(p.t_old[-1])),
         "does not lie in its last step"),
        (lambda p: replace(p, params=replace(p.params, epsilon=0.05)),
         r"start_time 0.10000000000000001 is not in \(0, epsilon = "
         r"0.050000000000000003\]"),
        (lambda p: _edit(p, "t", p.t_old - 0.1),
         r"start_time 0 is not in \(0, epsilon"),
        (lambda p: replace(p, params=replace(p.params, k=0)),
         "profile step table of a k = 0 profile needs"),
        (lambda p: _steps(p, slice(0)), "at least one step"),
        (lambda p: replace(p, table=p.table[:, :-6]), "F of 7 x 6 values"),
        (lambda p: _edit(p, "F6.a", np.nan),
         "column F6.a has a non-finite value"),
    ], ids=["swapped-rows", "dropped-row", "negative-h", "long-steps",
            "end-past-last-step", "end-at-last-start", "other-epsilon",
            "start-at-zero", "other-k", "no-steps", "six-coefficient-rows",
            "nan-in-F6"])
    def test_refused(self, steady_profile_12, edit, message):
        with pytest.raises(ValueError, match=message):
            edit(steady_profile_12)

    def test_shot_tables_pass(self):
        # every outcome: the step ends, a terminal event soon after an
        # early series start or later, and the shortest span, 2 epsilon
        for params, status in [
                (AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=0.2),
                 "completed"),
                (AnsatzParams(k=1, m=2, lam=500.0, b0=1.0), "blowup"),
                (AnsatzParams(k=0, m=2, lam=0.0, b0=1.0), "blowup"),
                (AnsatzParams(k=3, m=2, lam=0.0, b0=1.0, phi2=0.3), "blowup"),
                (AnsatzParams(k=0, m=2, lam=0.5, b0=2.0), "hit_b_zero"),
                (AnsatzParams(k=1, m=2, lam=2.0, b0=1.0), "hit_a_zero")]:
            prof = shoot(params)
            assert prof.status == status
            again = SolitonProfile.parse_csv(prof.to_csv())
            assert ((again.start_time, again.end_time)
                    == (prof.start_time, prof.end_time))
            assert prof.t_old[-1] < prof.t[-1] < prof.end_time


class TestTableIsTheFile:
    """A profile's ``table`` is its file's data rows, bit for bit, both
    ways, and its step columns are views of it, not copies."""

    @pytest.mark.parametrize("params,status", [
        (AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=3.0), "completed"),
        (AnsatzParams(k=1, m=2, lam=2.0, b0=1.0), "hit_a_zero"),
        (AnsatzParams(k=0, m=2, lam=0.5, b0=2.0), "hit_b_zero"),
        (AnsatzParams(k=1, m=2, lam=500.0, b0=1.0), "blowup"),
        (AnsatzParams(k=0, m=2, lam=1.0, b0=1.0, t_max=3.0), "completed"),
    ], ids=["completed", "hit_a_zero", "hit_b_zero", "blowup", "k0-completed"])
    def test_table_is_the_file(self, params, status):
        prof = shoot(params)
        assert prof.status == status
        text = prof.to_csv()
        rows = [[struct.unpack(">d", bytes.fromhex(word))[0]
                 for word in line.split(",")]
                for line in text.splitlines()[4:]]
        assert _same_bits(rows, prof.table)
        assert _same_bits(SolitonProfile.parse_csv(text).table, prof.table)
        for name in ("t_old", "y_old", "h", "F"):
            assert np.shares_memory(getattr(prof, name), prof.table), name


class TestCsvRoundTrip:
    def test_bit_exact_round_trip(self, steady_profile_12):
        text = steady_profile_12.to_csv()
        loaded = SolitonProfile.parse_csv(text)
        for name in ("t_old", "h", "y_old", "F", "t", "a", "a_prime", "b",
                     "b_prime", "phi", "phi_prime", "mu", "res_tt", "res_sk",
                     "res_sm"):
            orig = getattr(steady_profile_12, name)
            back = getattr(loaded, name)
            assert _same_bits(back, orig), name
        assert loaded.params == steady_profile_12.params
        assert loaded.status == steady_profile_12.status
        assert loaded.start_time == steady_profile_12.start_time == 0.1
        assert loaded.end_time == steady_profile_12.end_time

    @pytest.mark.parametrize("k,m", [(1, 2), (2, 3), (0, 2)])
    def test_recomputed_diagnostics_of_loaded_profile_bit_exact(self, k, m):
        # the loaded columns are strided views of one table; the diagnostics
        # derived on load must not depend on that
        prof = shoot(AnsatzParams(k=k, m=m, lam=0.5 * (1 - k),
                                  b0=float(np.sqrt(2.0)), t_max=3.0))
        again = SolitonProfile.parse_csv(prof.to_csv())
        for name in ("mu", "res_tt", "res_sk", "res_sm"):
            assert np.array_equal(getattr(prof, name).view(np.uint64),
                                  getattr(again, name).view(np.uint64)), name

    def test_k0_columns_nan(self):
        prof = shoot(AnsatzParams(k=0, m=2, lam=0.5, b0=np.sqrt(2.0), t_max=2.0))
        assert np.isnan(prof.a).all()
        assert np.isnan(prof.res_sk).all()
        loaded = SolitonProfile.parse_csv(prof.to_csv())
        assert np.isnan(loaded.a).all()

    def test_malformed_csv_rejected(self):
        with pytest.raises(ValueError):
            SolitonProfile.parse_csv("garbage,text\n1,2\n")
        with pytest.raises(ValueError):
            SolitonProfile.parse_csv("# schema_version=99\n# params={}\n")

    def test_loaded_table_bounded_by_the_step_cap(self, monkeypatch, tmp_path,
                                                  steady_profile_12):
        # no shot profile has more than MAX_STEPS steps: a table of more
        # rows is refused before it is decoded, and a file larger than
        # to_csv writes for MAX_STEPS steps is refused unread past that size
        text = steady_profile_12.to_csv()
        steps = steady_profile_12.h.size                     # 32
        monkeypatch.setattr(dop853, "MAX_STEPS", steps)
        assert SolitonProfile.parse_csv(text).h.size == steps
        limit = _CSV_HEAD_CHARS + steps * 17 * len(_csv_header(1))
        sizes = []

        class Recording(io.StringIO):   # records the reads from_csv makes
            def read(self, size=-1):
                sizes.append(size)
                return super().read(size)

        monkeypatch.setattr(shooting, "open",
                            lambda path: Recording(path.read_text()),
                            raising=False)
        path = tmp_path / "profile.csv"
        # blank lines, which parse_csv skips, pad the file to the limit
        path.write_text(text + "\n" * (limit - len(text)))
        assert SolitonProfile.from_csv(path).h.size == steps
        for size in (limit + 1, 3 * limit):
            path.write_text(text + "\n" * (size - len(text)))
            with pytest.raises(ValueError, match=(
                    f"profile file larger than {limit} characters, the most "
                    f"that a table of MAX_STEPS = {steps} steps takes")):
                SolitonProfile.from_csv(path)
        assert sizes == [limit + 1] * 3
        monkeypatch.setattr(dop853, "MAX_STEPS", steps - 1)
        with pytest.raises(ValueError, match=(
                f"profile CSV has {steps} data rows, more than the "
                f"MAX_STEPS = {steps - 1} steps of any shot profile")):
            SolitonProfile.parse_csv(text)

    @pytest.mark.parametrize("k", [1, 0])
    def test_rows_match_per_cell_reference(self, k):
        prof = shoot(AnsatzParams(k=k, m=2, lam=0.5 * (1 - k), b0=np.sqrt(2.0),
                                  t_max=3.0))
        table = np.column_stack([prof.t_old, prof.y_old, prof.h,
                                 prof.F.reshape(prof.h.size, -1)])
        assert table.shape[1] == len(_csv_header(k)) == 2 + 8 * (4 + 2 * (k > 0))
        reference = [",".join(struct.pack(">d", x).hex() for x in row) + "\n"
                     for row in table]
        head, rows = prof.to_csv().split(",".join(_csv_header(k)) + "\n")
        assert head.count("\n") == 3
        rows = rows.splitlines(keepends=True)
        assert len(rows) == len(reference)
        for i, (row, want) in enumerate(zip(rows, reference)):
            assert row == want, f"row {i}"

    def test_random_columns_round_trip_bit_exact(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        from hypothesis.extra.numpy import arrays

        # -0, subnormals and the ends of the range drawn often, not by luck
        finite = st.one_of(
            st.sampled_from([-0.0, 5e-324, -2.2250738585072009e-308, 1e308,
                             -1.7976931348623157e308]),
            st.floats(allow_nan=False, allow_infinity=False))
        # a t_max past the end of 12 steps of at most 10
        params = AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=121.0)

        # any finite state and coefficients on steps that meet
        @hypothesis.settings(max_examples=60, deadline=2000, database=None)
        @hypothesis.given(
            steps=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=12),
            data=arrays(np.float64, (12, 1 + _N_COEFFS, 6), elements=finite),
            share=st.floats(0.01, 1.0))
        def round_trip(steps, data, share):
            t_old = [params.epsilon]
            for h in steps[:-1]:
                t_old.append(t_old[-1] + h)
            s = len(steps)
            prof = SolitonProfile(
                params=params, table=np.column_stack(
                    [t_old, data[:s, 0], steps, data[:s, 1:].reshape(s, -1)]),
                status="completed", end_time=t_old[-1] + steps[-1] * share)
            back = SolitonProfile.parse_csv(prof.to_csv())
            for name in ("table", "t_old", "h", "y_old", "F"):
                assert _same_bits(getattr(back, name), getattr(prof, name)), name
            assert _same_bits(back.start_time, prof.start_time)
            assert _same_bits(back.end_time, prof.end_time)

        round_trip()

    # the ids count the 7 columns of a grid row; a step row has 2 + 8n:
    # three well-formed words more or one fewer in one row or in every
    # row, a word that is not hex, an empty word, no rows
    @pytest.mark.parametrize("mutate", [
        lambda rows: rows[:1] + [rows[1] + ",3ff0000000000000" * 3] + rows[2:],
        lambda rows: [row + ",3ff0000000000000" * 3 for row in rows],
        lambda rows: rows[:1] + [rows[1].rsplit(",", 1)[0]] + rows[2:],
        lambda rows: [row.rsplit(",", 1)[0] for row in rows],
        lambda rows: rows[:1] + [rows[1][:17] + "x" + rows[1][18:]] + rows[2:],
        lambda rows: rows[:1] + [rows[1] + ","] + rows[2:],
        lambda rows: [],
    ], ids=["ten-columns-in-one-row", "ten-columns", "six-columns-in-one-row",
            "six-columns", "non-numeric-token", "empty-field", "no-data-rows"])
    def test_malformed_rows_rejected(self, mutate):
        prof = shoot(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=1.0))
        lines = prof.to_csv().splitlines()
        text = "\n".join(lines[:4] + mutate(lines[4:])) + "\n"
        with pytest.raises(ValueError, match="malformed data rows"):
            SolitonProfile.parse_csv(text)

    @pytest.mark.parametrize("text", [
        "# schema_version=8\n",
        "# schema_version=8\n# params=[1, 2]\n",
    ], ids=["no-params-line", "params-not-an-object"])
    def test_truncated_header_rejected(self, text):
        with pytest.raises(ValueError):
            SolitonProfile.parse_csv(text)

    @pytest.mark.parametrize("old,new", [
        ("# params=", "# parameters="), (" end_time=1\n", "\n"),
        (" end_time=", " end="),
        ("t,a,a_prime,", "t,a,"),
        ('"k": 1,', '"k": 1.5,'), ('"k": 1,', '"k": true,'),
        ('"lam": 0.0,', '"lam": "x",'), ('"b0": 1.0,', '"b0": NaN,'),
        ('"b0": 1.0,', '"typo": 1.0,'),
        ('"lam": 0.0,', '"lam": 1' + "0" * 400 + ','),
        ('"b0": 1.0,', '"b0": 1' + "0" * 400 + ',')])
    def test_malformed_header_rejected(self, old, new):
        text = shoot(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=1.0)).to_csv()
        assert old in text
        with pytest.raises(ValueError):
            SolitonProfile.parse_csv(text.replace(old, new))

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 0, 9])
    def test_old_schema_refused(self, version):
        # schema 1 and 2 stored a sampled grid, schema 3 the step table in
        # decimal text, schema 4 a grid density in its params line, schema
        # 5 rtol and atol in place of tol, schema 6 no start time and
        # schema 7 the start time in its status line; 0 and 9 were never
        # written.  Every version but 8 gets the one message, which says
        # what to do
        text = shoot(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=1.0)).to_csv()
        old = text.replace("# schema_version=8", f"# schema_version={version}")
        with pytest.raises(ValueError, match=f"schema_version {version} is "
                           "not read; re-run 'solve' to write "
                           "schema_version 8"):
            SolitonProfile.parse_csv(old)

    def test_end_past_t_max_refused(self):
        # an end_time past t_max is refused with the step table
        text = shoot(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=1.0)).to_csv()
        assert "end_time=1\n" in text
        with pytest.raises(ValueError, match=(
                "end_time 1.0*1e[+]300 is not at most its t_max = 1$")):
            SolitonProfile.parse_csv(text.replace("end_time=1\n",
                                                  "end_time=1e300\n"))

    def test_from_csv_reads_a_path(self, tmp_path):
        prof = shoot(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=1.0))
        path = tmp_path / "p.csv"
        text = prof.to_csv(path)
        assert path.read_text() == text
        assert np.array_equal(SolitonProfile.from_csv(path).b, prof.b)
        with pytest.raises(OSError):
            SolitonProfile.from_csv(text)


class TestSweep:
    def test_cylinder_row(self):
        m, lam = 2, 0.5
        rows = sweep(params_grid([0], [m], [lam], [float(np.sqrt((m - 1) / lam))],
                                 t_max=5.0))
        row = rows[0]
        assert row.status == "completed"
        assert row.lifetime == 5.0
        # k = 0 has no a; the round cylinder's b is constant
        assert np.isnan(row.slope_a) and np.isnan(row.slope_a_mid)
        assert abs(row.slope_b) < 1e-6 and abs(row.slope_b_mid) < 1e-6

    def test_flat_row_exponents(self):
        # a = t and b = 1: the slopes of a are 1 and those of b 0, at the
        # end and in the middle
        rows = sweep(params_grid([1], [1], [0.0], [1.0], phi2=0.0, t_max=5.0))
        row = rows[0]
        assert abs(row.slope_a - 1.0) < 1e-6
        assert abs(row.slope_a_mid - 1.0) < 1e-6
        assert abs(row.slope_b) < 1e-6 and abs(row.slope_b_mid) < 1e-6

    def test_shrinking_completed_row_warns_by_its_end_slope(self):
        # k1m2 with lambda 0.1 is positive up to t_max = 10, but a is
        # shrinking there (it hits 0 before t = 20), and more steeply at
        # the end than in the middle
        [row] = sweep(params_grid([1], [2], [0.1], [1.0]))
        assert row.status == "completed"
        assert row.slope_a < row.slope_a_mid < 0
        assert abs(row.slope_a + 1.47) < 0.01

    def test_overflowing_rows_warn_nothing(self):
        # at tol 1e10 most rows of this grid fail to locate an event, and
        # the others' states grow huge: a row's mu overflows without a
        # floating-point warning, and the rows keep their outcomes
        grid = params_grid([1, 2], [2, 3], [0.0, 2.0], [0.9, 1.0, 1.1],
                           tol=1e10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = sweep(grid)
        ends = {i: ("completed", "0x1.4000000000000p+3") for i in (6, 7, 8)}
        ends.update({15: ("hit_a_zero", "0x1.9a1c71ad2a2a9p+1"),
                     17: ("blowup", "0x1.3604189374bcbp+0"),
                     22: ("blowup", "0x1.7c01a36e2eb1ep+1")})
        assert [(row.status.split(":", 2)[:2], row.lifetime.hex())
                for row in rows] == [
            ([ends[i][0]], ends[i][1]) if i in ends
            else (["error", "IntegrationError"], "0x0.0p+0")
            for i in range(len(grid))]

    def test_steady_family_long_lived_growing(self, steady_profile_12):
        prof = steady_profile_12
        assert prof.status == "completed" and prof.end_time == 10.0
        assert np.all(np.diff(prof.a) > 0)
        assert np.all(np.diff(prof.b) > 0)

    def test_degenerate_row_flagged(self):
        rows = sweep(params_grid([0], [2], [0.5], [2.0], t_max=5.0))
        assert rows[0].status == "hit_b_zero"
        assert np.isnan(rows[0].slope_b) and np.isnan(rows[0].slope_b_mid)

    def test_rows_keep_the_bits_of_shoot(self, monkeypatch):
        # a mixed grid, k 0-2, one row of each outcome: every field of a
        # row after its shooting datum is that of _report(shoot(params))
        # run alone, or, when shoot raises, its error status, lifetime 0.0
        # and NaNs.  A sweep row derives mu = m - 1 + b res_sm alone: it
        # differentiates the b' polynomial, never those of a' or phi'
        evaluate = shooting._evaluate

        def refusing(steps, name, idx, x, dt=False):
            if dt and name != "b_prime":
                raise AssertionError(f"a sweep row differentiated {name}")
            return evaluate(steps, name, idx, x, dt)

        monkeypatch.setattr(shooting, "_evaluate", refusing)
        _nan_rhs_for(monkeypatch, _UNDERFLOW)
        grid = [AnsatzParams(k=0, m=2, lam=0.5, b0=2.0, t_max=5.0),
                AnsatzParams(k=0, m=2, lam=0.5, b0=float(np.sqrt(2.0)),
                             t_max=3.0),
                AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=3.0),
                AnsatzParams(k=1, m=2, lam=0.1, b0=1.0),
                AnsatzParams(k=2, m=3, lam=0.0, b0=1e-7),
                AnsatzParams(k=2, m=2, lam=0.0, b0=1.0, phi2=0.3),
                AnsatzParams(k=2, m=3, lam=-0.1, b0=1.0, t_max=3.0),
                AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, phi2=_UNDERFLOW)]
        statuses = []
        for params, row in zip(grid, sweep(grid)):
            try:
                report = _report(shoot(params))
            except (ValueError, IntegrationError) as exc:
                # a row's error is one CSV field: commas become semicolons
                reason = str(exc).replace(",", ";")
                report = {"status": f"error:{type(exc).__name__}:{reason}",
                          "lifetime": 0.0,
                          **dict.fromkeys(_REPORT_FIELDS[2:], np.nan)}
            assert tuple(report) == _REPORT_FIELDS
            got = [getattr(row, name) for name in _REPORT_FIELDS]
            assert got[0] == report["status"]
            assert (np.array(got[1:]).tobytes()
                    == np.array(list(report.values())[1:]).tobytes())
            statuses.append(got[0].split(":")[0])
        assert statuses == ["hit_b_zero", "completed", "completed",
                            "completed", "error", "blowup", "completed",
                            "error"]

    def test_error_row_keeps_the_message(self):
        # b0 = 1e-7 starts the series at t = 2.0e-8, in proportion to its
        # radius, where a and b lie below the positivity floor
        rows = sweep(params_grid([1], [2], [0.0], [1e-7, 1.0], t_max=2.0))
        assert rows[0].status == (
            "error:ValueError:epsilon=0.1: the series start at t = "
            "2.03939e-08 (a = 2.02541e-08; b = 1.01036e-07) is not above the "
            "positivity floor 1e-06; where a profile degenerates")
        assert rows[0].lifetime == 0.0 and np.isnan(rows[0].mu_mean)
        assert rows[1].status == "completed"

    def test_error_message_is_one_csv_field(self, monkeypatch):
        def fail(params, outcome):
            raise GeometryError("a, b\n  c\r\nd")

        monkeypatch.setattr("ricciwarp.shooting._profile", fail)
        rows = sweep(params_grid([1], [2], [0.0], [1.0]))
        assert rows[0].status == "error:GeometryError:a; b c d"

    def test_pool_has_at_most_one_worker_per_row(self, monkeypatch):
        # a parallel sweep runs in min(workers, rows // _SHARE_ROWS)
        # processes, the caller counted, so each gets at least _SHARE_ROWS
        # rows
        pools = _stand_in_pools(monkeypatch)
        grid = params_grid([1], [2], [0.0], _b0s(3 * _SHARE_ROWS), t_max=0.2)
        serial = sweep(grid)
        assert sweep(grid, parallel=True, workers=10_000) == serial
        assert sweep(grid, parallel=True, workers=2) == serial
        assert sweep(grid[:3 * _SHARE_ROWS - 1], parallel=True,
                     workers=64) == serial[:-1]
        assert [pool.size for pool in pools] == [3, 2, 2]

    def test_small_grid_runs_without_a_pool(self, monkeypatch):
        # below 2 * _SHARE_ROWS rows, or with one worker, no child is started
        pools = _stand_in_pools(monkeypatch)
        grid = params_grid([0, 1], [2], [0.0], _b0s(_SHARE_ROWS), t_max=0.2)
        serial = sweep(grid)
        for rows, workers in ((2 * _SHARE_ROWS - 1, 64), (3, 2), (2, None),
                              (len(grid), 1)):
            assert sweep(grid[:rows], parallel=True,
                         workers=workers) == serial[:rows]
        assert pools == []
        # the rows came through a pipe, so their NaN slopes are new objects
        got = sweep(grid, parallel=True, workers=64)
        assert list(map(repr, got)) == list(map(repr, serial))
        assert [pool.size for pool in pools] == [2]

    def test_pool_gets_one_batch_per_process(self, monkeypatch):
        pools = _stand_in_pools(monkeypatch)
        grid = params_grid([0, 1], [2], [0.0, -0.1], _b0s(_SHARE_ROWS),
                           t_max=0.2)
        serial = sweep(grid)
        for rows in (2 * _SHARE_ROWS, 3 * _SHARE_ROWS - 1, 3 * _SHARE_ROWS,
                     len(grid)):
            for workers in (2, 3, 5, 64):
                got = sweep(grid[:rows], parallel=True, workers=workers)
                assert list(map(repr, got)) == list(map(repr, serial[:rows]))
                pool = pools[-1]
                assert (pool.size == len(pool.batches)
                        == min(workers, rows // _SHARE_ROWS))
                mapped = [p for batch in pool.batches for p in batch]
                assert sorted(map(grid.index, mapped)) == list(range(rows))

    def test_parallel_matches_serial(self):
        # a grid of 2 * _SHARE_ROWS rows runs in the caller and one real
        # child; the lambda 2 rows end in hit_a_zero before t_max, so both
        # locate events through the lazily importing dop853.brentq
        grid = params_grid([1], [2], [0.0, 2.0], _b0s(_SHARE_ROWS),
                           t_max=3.5, tol=1e-9)
        assert len(grid) == 2 * _SHARE_ROWS
        serial = sweep(grid, parallel=False)
        parallel = sweep(grid, parallel=True, workers=2)
        assert list(map(repr, serial)) == list(map(repr, parallel))
        assert [row.status for row in serial] == (
            ["completed"] * _SHARE_ROWS + ["hit_a_zero"] * _SHARE_ROWS)
        assert all(row.lifetime < 3.5 for row in serial[_SHARE_ROWS:])
        assert multiprocessing.active_children() == []


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched _sweep_rows reaches a child by fork")
class TestSweepChildFailures:
    """A parallel sweep on real children of a 2 * _SHARE_ROWS-row grid,
    with ``_sweep_rows`` patched to fail in the caller or in the child."""

    @property
    def grid(self):
        return params_grid([1], [2], [0.0], _b0s(2 * _SHARE_ROWS), t_max=0.2)

    def _fail_in(self, monkeypatch, where, fail):
        parent, sweep_rows = os.getpid(), shooting._sweep_rows

        def patched(rows):
            if (os.getpid() == parent) == (where == "caller"):
                fail()
            return sweep_rows(rows)

        monkeypatch.setattr(shooting, "_sweep_rows", patched)

    def test_child_exception_reaches_the_caller(self, monkeypatch):
        def fail():
            raise GeometryError("share lost in the child")

        self._fail_in(monkeypatch, "child", fail)
        with _deadline(60), pytest.raises(GeometryError,
                                          match="^share lost in the child$"):
            sweep(self.grid, parallel=True, workers=2)
        assert multiprocessing.active_children() == []

    def test_child_that_exits_without_a_reply(self, monkeypatch):
        self._fail_in(monkeypatch, "child", lambda: os._exit(3))
        with _deadline(60), pytest.raises(ChildProcessError,
                                          match="code 3 "):
            sweep(self.grid, parallel=True, workers=2)
        assert multiprocessing.active_children() == []

    def test_cli_reports_a_child_without_a_reply(self, monkeypatch,
                                                 tmp_path, capsys):
        # the sweep command exits 4, an I/O failure, and writes no table
        self._fail_in(monkeypatch, "child", lambda: os._exit(3))
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "schema_version": 1, "out_dir": str(tmp_path / "out"),
            "sweep": {"k": [1], "m": [2], "lambda": [0.0],
                      "b0": _b0s(2 * _SHARE_ROWS), "t_max": 0.2,
                      "parallel": True, "workers": 2}}))
        with _deadline(60):
            assert main(["sweep", "--config", str(config)]) == 4
        assert capsys.readouterr().err.startswith(
            "I/O failure: sweep share 1 process exited with code 3 ")
        assert not (tmp_path / "out" / "sweep.csv").exists()
        assert multiprocessing.active_children() == []

    def test_caller_exception_leaves_no_child(self, monkeypatch):
        def fail():
            raise ZeroDivisionError("share lost in the caller")

        self._fail_in(monkeypatch, "caller", fail)
        with _deadline(60), pytest.raises(ZeroDivisionError,
                                          match="in the caller"):
            sweep(self.grid, parallel=True, workers=2)
        assert multiprocessing.active_children() == []


def _b0s(count):
    """``count`` distinct b0 values from 0.9 to 1.1."""
    return [0.9 + 0.2 * i / count for i in range(count)]


@contextlib.contextmanager
def _deadline(seconds):
    """Fail with TimeoutError, rather than hang, after ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _stand_in_pools(monkeypatch):
    """Replace the child processes of a parallel ``sweep`` with stand-ins
    that start no process: each runs its target in process when started,
    so its reply waits in the pipe.  Returns the list of the parallel
    sweeps made, each recording its process count (the caller counted)
    and the share each process integrated (``batches``)."""
    pools, child_shares = [], []
    sweep_rows = shooting._sweep_rows

    class Child:
        def __init__(self, target, args, daemon):
            assert daemon
            self.target, self.args = target, args

        def start(self):
            child_shares.append(None)
            self.target(*self.args)

        def is_alive(self):
            return False

        def join(self):
            pass

    def recording(rows):
        if child_shares and child_shares[-1] is None:
            child_shares[-1] = rows     # a stand-in child's share
        elif child_shares:
            # the caller's share ends the parallel sweep's record
            pools.append(SimpleNamespace(size=1 + len(child_shares),
                                         batches=[rows, *child_shares]))
            child_shares.clear()
        return sweep_rows(rows)

    monkeypatch.setattr("multiprocessing.Process", Child)
    monkeypatch.setattr(shooting, "_sweep_rows", recording)
    return pools
