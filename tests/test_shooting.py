"""Reduced system, series closure, shooting, diagnostics, sweeps."""

import gc
import re
import struct
import warnings
import weakref
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest
from scipy.integrate import solve_ivp

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
from conftest import edit_column
from ricciwarp import shooting
from ricciwarp.shooting import (
    _BLOWUP_LIMIT,
    _EVAL_FLOOR,
    _LAUNCH_END,
    _LAUNCH_TOL,
    _N_COEFFS,
    _POSITIVITY_FLOOR,
    _SHARE_ROWS,
    _SLOPES,
    _csv_header,
    _diagnostics,
    _dop853,
    _evaluate,
    _integrate,
    _locate,
    _log_slopes,
    _profile,
    _rhs_with_phi,
    _Run,
    _series_start,
    _state_columns,
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

    @pytest.mark.parametrize("change,reason", [
        ({"t_max": float("inf")}, "t_max must be a finite number"),
        ({"lam": float("nan")}, "lam must be a finite number"),
        ({"lam": 10 ** 400}, "lam must be a finite number"),
        ({"k": True}, "k must be an integer"),
        ({"k": 1.5}, "k must be an integer"),
        ({"t_max": 1e9}, "output grid too large"),
        ({"k": -1}, "base sphere dimension k must be >= 0"),
        ({"rtol": 0.0}, "integrator tolerances must be positive"),
        ({"atol": -1e-10}, "integrator tolerances must be positive"),
        ({"epsilon": 1e-4, "t_max": 1.5e-4}, r"2 epsilon <= t_max"),
    ])
    def test_construction_refuses(self, change, reason):
        # refused when built, before anything integrates: an infinite
        # t_max never ends, a huge integer overflows a float later on
        with pytest.raises(ValueError, match=reason):
            AnsatzParams(**{"k": 1, "m": 2, "lam": 0.0, "b0": 1.0, **change})


class TestTaylorInit:
    def test_epsilon_to_zero_limit(self):
        # the start nears the closure a = t, a' = 1, b = b0, b' = phi' = 0
        # down to an epsilon just above the positivity floor, and below it
        # the start is refused
        eps = 2e-6
        p = AnsatzParams(k=1, m=2, lam=0.0, b0=1.3, epsilon=eps)
        a, ap, b, bp, phip = _series_start(p)
        assert abs(a - eps) < eps ** 3
        assert abs(ap - 1.0) < eps ** 2
        assert abs(b - 1.3) < eps ** 2
        assert abs(bp) < 10 * eps
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
        # whatever params.phi2 says, and phi' = 2 phi2 eps
        m, lam, b0 = 2, 0.3, 1.2
        p = AnsatzParams(k=0, m=m, lam=lam, b0=b0, phi2=7.0)
        _, _, b, bp, phip = _series_start(p)
        eps = p.epsilon
        b2 = ((m - 1) / b0 - lam * b0) / 2.0
        phi2 = (lam + 2.0 * m * b2 / b0) / 2.0
        assert b == pytest.approx(b0 + b2 * eps ** 2, rel=1e-15)
        assert bp == pytest.approx(2.0 * b2 * eps, rel=1e-15)
        assert phip == pytest.approx(2.0 * phi2 * eps, rel=1e-15)

    def test_epsilon_too_large_rejected(self):
        with pytest.raises(ValueError):
            _series_start(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, epsilon=0.5))

    def test_accepted_start_can_run(self):
        # what lets _integrate launch without checking the run: finite
        # params whose series start is accepted give a start inside the
        # blow-up box, its a (k >= 1) and b above the positivity floor, at
        # an epsilon below the end of the launch segment
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
                start = _series_start(p)
            except ValueError:
                return
            accepted.append(p)
            # inside the blow-up box, so finite
            assert max(map(abs, start)) < _BLOWUP_LIMIT
            assert min(_LAUNCH_END, p.t_max) > p.epsilon
            a, _, b, _, _ = start
            assert b > _POSITIVITY_FLOOR
            assert k == 0 or a > _POSITIVITY_FLOOR

        run()
        assert len(accepted) >= 20

    @pytest.mark.parametrize("k,m", [(1, 2), (2, 3)])
    def test_epsilon_halving_consistency(self, k, m):
        # the series start is consistent: halving epsilon barely moves the
        # profile downstream
        base = dict(k=k, m=m, lam=0.0, b0=1.0, t_max=2.0)
        p1 = shoot(AnsatzParams(epsilon=1e-4, **base))
        p2 = shoot(AnsatzParams(epsilon=5e-5, **base))
        a1, b1, f1 = p1.interpolants()
        a2, b2, f2 = p2.interpolants()
        delta = max(abs(float(a1(1.0)) - float(a2(1.0))),
                    abs(float(b1(1.0)) - float(b2(1.0))),
                    abs(float(f1(1.0)) - float(f2(1.0))))
        assert delta < 1e-8

    def test_k2_m3_smoke(self):
        prof = shoot(AnsatzParams(k=2, m=3, lam=0.0, b0=1.0, t_max=1.5))
        assert prof.status == "completed"
        assert np.all(np.isfinite(prof.b))


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
        prof = steady_profile_12
        inner = slice(2, -2)
        assert np.abs(prof.res_tt[inner]).max() < 1e-6
        assert np.abs(prof.res_sk[inner]).max() < 1e-6
        assert np.abs(prof.res_sm[inner]).max() < 1e-6

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

    def test_refinement_stability(self):
        base = dict(k=1, m=2, lam=-0.1, b0=1.0, t_max=2.0)
        p1 = shoot(AnsatzParams(epsilon=1e-4, rtol=1e-10, atol=1e-10, **base))
        p2 = shoot(AnsatzParams(epsilon=5e-5, rtol=5e-11, atol=5e-11, **base))
        a1, b1, f1 = p1.interpolants()
        a2, b2, f2 = p2.interpolants()
        delta = max(abs(float(a1(1.0)) - float(a2(1.0))),
                    abs(float(b1(1.0)) - float(b2(1.0))),
                    abs(float(f1(1.0)) - float(f2(1.0))))
        assert delta <= 1e-7


def _solve_ivp_runs(params):
    """``solve_ivp``'s DOP853 runs of the integration that ``_integrate``
    does: the same right side, terminal events (in the same order),
    tolerances and first steps, on the launch leg and, unless that run
    ends early, restarted on the rest of the span.  The reference for
    ``_dop853``, whose one run over both legs has their steps joined."""
    k = params.k
    a, ap, b, bp, phip = _series_start(params)
    y0 = np.array([a, ap, b, bp, 0.0, phip] if k >= 1 else [b, bp, 0.0, phip])
    i_a, i_b = (0, 2) if k >= 1 else (None, 0)

    def hit_b(t, y):
        return y[i_b] - _POSITIVITY_FLOOR

    def hit_a(t, y):
        return y[i_a] - _POSITIVITY_FLOOR

    def blow(t, y):
        return _BLOWUP_LIMIT - float(np.abs(y).max())

    events = [hit_b, hit_a, blow] if k >= 1 else [hit_b, blow]
    for event in events:
        event.terminal = True
    row_rhs = _rhs_with_phi(params)

    def rhs(t, y):
        return row_rhs(y.tolist())

    def run(t0, t1, y, rtol, atol):
        with warnings.catch_warnings():
            # solve_ivp warns where it raises rtol to 100 eps
            warnings.simplefilter("ignore", UserWarning)
            return solve_ivp(rhs, (t0, t1), y, method="DOP853", rtol=rtol,
                             atol=atol, dense_output=True, events=events,
                             first_step=min(1e-3, 0.01 * (t1 - t0)))

    t_switch = min(_LAUNCH_END, params.t_max)
    sols = [run(params.epsilon, t_switch, y0, min(params.rtol, _LAUNCH_TOL),
                min(params.atol, _LAUNCH_TOL))]
    if sols[0].status == 0 and t_switch < params.t_max:
        sols.append(run(t_switch, params.t_max, sols[0].y[:, -1],
                        params.rtol, params.atol))
    return sols


def _solve_ivp_outcome(params, sols):
    """``(status, t_end)`` of a profile from its ``solve_ivp`` runs."""
    sol = sols[-1]
    if sol.status != 1:
        return "completed", params.t_max
    if params.k >= 1 and sol.t_events[1].size:
        return "hit_a_zero", float(sol.t[-1])
    if sol.t_events[0].size:
        return "hit_b_zero", float(sol.t[-1])
    return "blowup", float(sol.t[-1])


def _per_run_reference(solutions, ts):
    """The grid values from ``OdeSolution.__call__`` of each ``solve_ivp``
    run: the launch run up to its end, the second run after it."""
    if len(solutions) == 1:
        return solutions[0](ts)
    early = ts <= solutions[0].ts[-1]
    out = np.empty((solutions[0](ts[0]).size, ts.size))
    out[:, early] = solutions[0](ts[early])
    out[:, ~early] = solutions[1](ts[~early])
    return out


def _no_events(Y):
    return np.empty(Y.shape[:-1] + (0,))


def _dense(profile, ts):
    """Every state column's stored polynomial at the times ``ts``."""
    steps = profile._steps
    return np.array([_evaluate(steps, name, *_locate(steps, ts))
                     for name in _state_columns(profile.params.k)])


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return (got.shape == want.shape
            and np.array_equal(got.view(np.uint64), want.view(np.uint64)))


class TestDenseEval:
    # runs: solve_ivp's runs, one per leg of the row's one _dop853 run
    @pytest.mark.parametrize("params,status,runs", [
        (AnsatzParams(k=1, m=2, lam=0.0, b0=1.0), "completed", 2),
        (AnsatzParams(k=2, m=3, lam=0.0, b0=1.0, t_max=3.0), "completed", 2),
        (AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=0.1), "completed", 1),
        (AnsatzParams(k=0, m=2, lam=0.5, b0=float(np.sqrt(2.0)), t_max=3.0),
         "completed", 2),
        (AnsatzParams(k=0, m=2, lam=0.5, b0=2.0, t_max=5.0), "hit_b_zero", 2),
        (AnsatzParams(k=3, m=2, lam=0.0, b0=1.0, phi2=0.3), "blowup", 2),
        (AnsatzParams(k=1, m=2, lam=0.5, b0=1.0, t_max=5.0), "hit_a_zero", 2),
        # below 100 eps, where rtol is raised to 100 eps
        (AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=1.0, rtol=1e-15,
                      atol=1e-15), "completed", 2),
        # events inside the launch leg (t about 0.081 and 0.070), and a
        # second leg of 1e-10
        (AnsatzParams(k=1, m=2, lam=500.0, b0=1.0), "blowup", 1),
        (AnsatzParams(k=0, m=1, lam=500.0, b0=1.0), "hit_b_zero", 1),
        (AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=0.1000000001),
         "completed", 2),
    ])
    def test_matches_ode_solution_bit_for_bit(self, params, status, runs):
        # the one run has the bits of solve_ivp restarted at the leg
        # switch: the runs' steps joined, and one right-side call fewer per
        # further leg, since f at the switch is the last step's
        [outcome] = _integrate([params])
        run, got_status, t_end = outcome
        sols = _solve_ivp_runs(params)
        assert len(sols) == runs
        assert got_status == status
        assert (got_status, t_end) == _solve_ivp_outcome(params, sols)
        steps = [ip for sol in sols for ip in sol.sol.interpolants]
        assert run.nfev == sum(sol.nfev for sol in sols) - (runs - 1)
        assert run.status == sols[-1].status
        assert _same_bits(run.t, np.concatenate(
            [sols[0].t] + [sol.t[1:] for sol in sols[1:]]))
        assert _same_bits(run.t[:-1], [ip.t_old for ip in steps])
        assert _same_bits(run.h, [ip.h for ip in steps])
        assert _same_bits(run.F, [ip.F for ip in steps])
        assert _same_bits(run.y_old, [ip.y_old for ip in steps])
        # the profile's step table needs no column for the step ends: they
        # are the next step's start and, for the last step, end_time
        prof = _profile(params, outcome)
        assert _same_bits(np.append(prof.t_old[1:], prof.end_time),
                          run.t[1:])
        # every step end (t_switch among them), every step middle and the
        # output grid
        ends = run.t
        ts = np.unique(np.concatenate([
            ends, 0.5 * (ends[1:] + ends[:-1]),
            np.linspace(params.epsilon, t_end, 2001)]))
        want = _per_run_reference([sol.sol for sol in sols], ts)
        assert _same_bits(_dense(prof, ts), want)

    def test_step_ends_go_to_the_earlier_step(self):
        # pieces that disagree at their common ends, so the choice of the
        # piece at a step end shows
        from scipy.integrate import OdeSolution
        from scipy.integrate._ivp.rk import Dop853DenseOutput

        rng = np.random.default_rng(5)
        ts = np.array([0.5, 0.8, 1.2, 1.5, 2.0, 2.5])
        F, y_old = rng.normal(size=(ts.size - 1, 7, 4)), rng.normal(
            size=(ts.size - 1, 4))
        sol = OdeSolution(ts, [Dop853DenseOutput(t0, t1, y, f) for t0, t1, y, f
                               in zip(ts[:-1], ts[1:], y_old, F)])
        run = _Run(t=ts, h=np.diff(ts), F=F, y_old=y_old, nfev=0, status=0)
        prof = _profile(AnsatzParams(k=0, m=2, lam=0.0, b0=1.0, epsilon=0.5),
                        (run, "completed", 2.5))
        ts = np.array([0.4, 0.5, 0.6, 0.8, 1.0, 1.2, 1.5, 1.7, 2.0, 2.5, 3.0])
        assert _same_bits(_dense(prof, ts), sol(ts))

    def test_shoot_columns_are_the_dense_output(self, steady_profile_12):
        prof = steady_profile_12
        sols = _solve_ivp_runs(prof.params)
        want = _per_run_reference([sol.sol for sol in sols], prof.t)
        got = np.array([prof.a, prof.a_prime, prof.b, prof.b_prime,
                        prof.phi, prof.phi_prime])
        assert _same_bits(got, want)


def _work(run):
    """A run's right-side calls, accepted steps and rejected attempts."""
    return run.nfev, run.t.size - 1, run.rejected


class TestIntegratorWork:
    @pytest.mark.parametrize("k,m,lam,nfev,steps", [
        (1, 2, 0.0, 755, 47),
        (2, 3, 0.0, 1526, 96),
        (1, 3, -0.1, 977, 61),
    ])
    def test_work_per_shoot(self, k, m, lam, nfev, steps):
        # solve_ivp's counts on these shoots, its two runs summed: a change
        # to the step control or the stage scheme moves them.  The one run
        # makes one right-side call fewer, none at the leg switch: one at
        # the start, 15 per accepted step and 12 per rejected attempt
        rejected = {(1, 2): 4, (2, 3): 7, (1, 3): 5}[k, m]
        [(run, _, _)] = _integrate([AnsatzParams(k=k, m=m, lam=lam, b0=1.0)])
        assert _work(run) == (nfev - 1, steps, rejected)
        assert run.nfev == 1 + 15 * steps + 12 * rejected

    def test_step_underflow_matches_solve_ivp(self):
        # y' = y^2 blows up at t = 1, where the step size underflows
        def fun(t, y):
            return [y[0] * y[0]]

        sol = solve_ivp(fun, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-10,
                        atol=1e-10, first_step=1e-3, dense_output=True)
        [run] = _dop853([lambda y: fun(None, y)], [0.0], np.array([[1.0]]),
                        [[(2.0, 1e-10, 1e-10, 1e-3)]], _no_events)
        assert (sol.status, sol.nfev) == (-1, 7255)
        assert (run.status, run.nfev, run.message) == (-1, 7255, sol.message)
        assert run.message == ("Required step size is less than spacing "
                               "between numbers.")
        assert run.t[-1] == sol.t[-1] == 1.00000000001075

    @pytest.mark.parametrize("component", [0, 1])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_right_side_matches_solve_ivp(self, component, value):
        # y' = y, but one component of y' is NaN or inf past y = 1.5: every
        # attempt that reaches it is rejected until the step size underflows
        # near t = ln 1.5, alone and in a batch whose other row runs on
        def fun(y):
            f = list(y)
            if y[component] > 1.5:
                f[component] = value
            return f

        leg = (2.0, 1e-10, 1e-10, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sol = solve_ivp(lambda t, y: fun(y), (0.0, 2.0), [1.0, 1.0],
                            method="DOP853", rtol=leg[1], atol=leg[2],
                            first_step=leg[3], dense_output=True)
        [alone] = _dop853([fun], [0.0], np.array([[1.0, 1.0]]), [[leg]],
                          _no_events)
        in_batch, calm = _dop853([fun, lambda y: [-v for v in y]], [0.0, 0.0],
                                 np.ones((2, 2)), [[leg], [leg]], _no_events)
        want = (sol.status, sol.nfev, sol.t[-1], sol.message)
        assert want[:3] == (-1, 889, 0.40546510810816383)
        for run in (alone, in_batch):
            assert (run.status, run.nfev, run.t[-1], run.message) == want
            assert _same_bits(run.F, [ip.F for ip in sol.sol.interpolants])
        assert (calm.status, calm.t[-1]) == (0, 2.0)

    def test_integrate_reports_step_underflow(self, monkeypatch):
        # a right side that is never finite rejects every step until the
        # step size underflows
        monkeypatch.setattr(shooting, "_rhs_with_phi",
                            lambda params: lambda y: [np.nan] * len(y))
        params = AnsatzParams(k=1, m=2, lam=0.0, b0=1.0)
        message = ("integrator failed: Required step size is less than "
                   "spacing between numbers.")
        with pytest.raises(IntegrationError) as info:
            shoot(params)
        assert str(info.value) == message
        [row] = sweep([params])
        assert row.status == "error:IntegrationError:" + message

    def test_work_per_shoot_in_a_mixed_batch(self, monkeypatch):
        # the three pinned classes keep their counts inside one sweep of
        # rows that end every other way: a k = 0 row (its own batch),
        # rows that blow up, hit a = 0 and hit b = 0, a refused start and
        # a row whose step size underflows
        _nan_rhs_for(monkeypatch, _UNDERFLOW)
        outcomes = {}
        integrate = shooting._integrate

        def recording(rows):
            got = integrate(rows)
            outcomes.update(zip(rows, got))
            return got

        monkeypatch.setattr(shooting, "_integrate", recording)
        pinned = {AnsatzParams(k=1, m=2, lam=0.0, b0=1.0): (754, 47, 4),
                  AnsatzParams(k=2, m=3, lam=0.0, b0=1.0): (1525, 96, 7),
                  AnsatzParams(k=1, m=3, lam=-0.1, b0=1.0): (976, 61, 5)}
        others = {AnsatzParams(k=0, m=2, lam=1.0, b0=1.0): "completed",
                  AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, phi2=0.5): "blowup",
                  AnsatzParams(k=1, m=2, lam=2.0, b0=1.0): "hit_a_zero",
                  AnsatzParams(k=1, m=2, lam=1.0, b0=3.0): "hit_b_zero",
                  AnsatzParams(k=2, m=2, lam=0.0, b0=1e-5): "error:ValueError",
                  AnsatzParams(k=2, m=2, lam=0.0, b0=1.0, phi2=_UNDERFLOW):
                      "error:IntegrationError"}
        grid = list(others)[:3] + list(pinned) + list(others)[3:]
        rows = sweep(grid)
        assert [row.status[:len(want)] for row, want in zip(
            rows[:3] + rows[6:], others.values())] == list(others.values())
        for params, work in pinned.items():
            run, status, _ = outcomes[params]
            assert status == "completed"
            assert _work(run) == work

    def test_failed_event_location_ends_its_row_alone(self, monkeypatch):
        # brentq refuses the first bracket it gets: the hit_a_zero row's
        # event; that row alone ends, with the error, and the other row of
        # the batch runs on to its end
        calls = []

        def refusing(*args, **kwargs):
            calls.append(args[1:])
            if len(calls) == 1:
                raise ValueError("f(a) and f(b) must have different signs")
            return brentq(*args, **kwargs)

        from scipy.optimize import brentq
        collapse = AnsatzParams(k=1, m=2, lam=2.0, b0=1.0, t_max=3.5)
        steady = AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=3.5)
        [alone] = _integrate([steady])
        monkeypatch.setattr(shooting, "brentq", refusing)
        failed, completed = _integrate([collapse, steady])
        assert isinstance(failed, IntegrationError) and len(calls) == 1
        assert _outcome_bits(completed) == _outcome_bits(alone)
        calls.clear()
        rows = sweep([collapse, steady])
        assert rows[0].status == ("error:IntegrationError:event location "
                                  "failed: f(a) and f(b) must have "
                                  "different signs")
        assert (rows[1].status, rows[1].lifetime) == ("completed", 3.5)

    def test_step_cap(self, monkeypatch):
        # a row whose run ends on its MAX_STEPS-th accepted step keeps the
        # bits of an uncapped run; a row that needs one more ends in an
        # IntegrationError naming the cap, alone in its batch and as a
        # sweep's error row
        steady = AnsatzParams(k=1, m=2, lam=0.0, b0=1.0)   # 47 steps
        short = AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=1.0)
        [alone], [short_alone] = _integrate([steady]), _integrate([short])
        steps = alone[0].h.size
        assert short_alone[0].h.size < steps - 1
        monkeypatch.setattr(shooting, "MAX_STEPS", steps)
        [capped] = _integrate([steady])
        assert _outcome_bits(capped) == _outcome_bits(alone)
        monkeypatch.setattr(shooting, "MAX_STEPS", steps - 1)
        message = (f"integrator failed: MAX_STEPS = {steps - 1} accepted "
                   f"steps reached at t = ")
        with pytest.raises(IntegrationError, match=re.escape(message)):
            shoot(steady)
        # the steady row runs on alone after the short one ends, and is
        # capped there
        handoffs = _spy_handoffs(monkeypatch)
        failed, kept = _integrate([steady, short])
        assert isinstance(failed, IntegrationError)
        assert str(failed).startswith(message)
        assert _outcome_bits(kept) == _outcome_bits(short_alone)
        assert [t_end for _, t_end, _, _ in handoffs] == [steady.t_max]
        rows = sweep([steady, short])
        assert rows[0].status.startswith("error:IntegrationError:" + message)
        assert (rows[1].status, rows[1].lifetime) == ("completed", 1.0)
        # a cap that two rows reach at different passes: the steady row is
        # capped in lockstep, the other alone, and each keeps the bits of
        # its capped run alone
        other = AnsatzParams(k=1, m=3, lam=-0.1, b0=1.0)
        monkeypatch.setattr(shooting, "MAX_STEPS", short_alone[0].h.size - 1)
        capped = [_integrate([params])[0] for params in (steady, other)]
        handoffs.clear()
        both = _integrate([steady, other])
        assert [t_end for _, t_end, _, _ in handoffs] == [other.t_max]
        for got, want in zip(both, capped):
            assert isinstance(got, IntegrationError)
            assert _outcome_bits(got) == _outcome_bits(want)

    def test_tight_degeneration_reaches_the_cap(self):
        # at rtol = atol 1e-15 this row takes 143,554 steps (19 s) to its
        # hit_b_zero at t = 1.5708; the cap ends it near there
        params = AnsatzParams(k=0, m=2, lam=2.0, b0=1.0, rtol=1e-15,
                              atol=1e-15)
        with pytest.raises(IntegrationError, match=(
                f"MAX_STEPS = {shooting.MAX_STEPS} accepted steps reached "
                r"at t = 1\.5707")):
            shoot(params)

    def test_bad_runs_rejected(self):
        # a leg that does not end past the start, or past the last leg
        for ends in ([1.0], [2.0, 2.0], [2.0, 1.5], []):
            with pytest.raises(ValueError, match="forward only"):
                _dop853([lambda y: [0.0]], [1.0], np.array([[1.0]]),
                        [[(t1, 1e-10, 1e-10, 1e-3) for t1 in ends]],
                        _no_events)
        # b0 = inf, which would give a non-finite series start, is refused
        # when the params are built
        with pytest.raises(ValueError, match="b0 must be a finite number"):
            AnsatzParams(k=1, m=2, lam=0.0, b0=float("inf"))


# the phi2 of rows whose right side _nan_rhs_for makes NaN: every step is
# rejected until the step size underflows
_UNDERFLOW = -0.123


def _nan_rhs_for(monkeypatch, marker):
    """Patch ``_rhs_with_phi`` so that rows whose phi2 is ``marker`` get a
    NaN right side; the other rows keep theirs."""
    real = shooting._rhs_with_phi

    def patched(params):
        if params.phi2 == marker:
            return lambda y: [np.nan] * len(y)
        return real(params)

    monkeypatch.setattr(shooting, "_rhs_with_phi", patched)


def _outcome_bits(outcome):
    """A row's ``_integrate`` outcome as comparable bits: the exception's
    type and message, or the status, end and its run's record."""
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    run, status, t_end = outcome
    return (status, np.float64(t_end).tobytes(), run.nfev, run.status,
            run.event, run.message,
            *(getattr(run, name).tobytes()
              + str(getattr(run, name).shape).encode()
              for name in ("t", "h", "F", "y_old")))


def _spy_handoffs(monkeypatch):
    """Record the ``(t, t_end, fresh, step_rejected)`` of each row that a
    batch hands to the one-row loop: its t and leg end, and whether its
    last attempt was accepted or rejected."""
    handoffs = []
    lockstep = shooting._lockstep

    def spy(*args):
        last = lockstep(*args)
        if last is not None:
            row = last[0]
            handoffs.append((row.t, row.t_end, row.fresh, row.step_rejected))
        return last

    monkeypatch.setattr(shooting, "_lockstep", spy)
    return handoffs


class TestBatchesKeepBits:
    """A row integrated in a batch has the bits of the row integrated
    alone, whatever the other rows of the batch and however they end."""

    SPECIAL = [   # rows that end every way (k, m, lam, b0, phi2, t_max)
        (1, 2, 0.0, 1.0, 0.5, 3.5), (0, 2, 0.0, 1.0, -0.5, 3.5),     # blowup
        (1, 2, 2.0, 1.0, -0.5, 3.5),                              # hit a = 0
        (1, 2, 1.0, 3.0, -0.5, 3.5), (0, 2, 0.5, 2.0, -0.5, 3.5),  # hit b = 0
        (2, 3, 0.0, 1e-5, -0.5, 3.5), (0, 3, 0.0, 1e-5, -0.5, 3.5),  # refused
        (2, 2, 0.0, 1.0, _UNDERFLOW, 3.5), (0, 2, 0.5, 1.2, _UNDERFLOW, 3.5),
        # an event inside the launch leg (blowup, hit b = 0), a span of the
        # launch leg alone, and a second leg of 1e-10
        (1, 2, 500.0, 1.0, -0.5, 3.5), (0, 1, 500.0, 1.0, -0.5, 3.5),
        (1, 2, 0.0, 1.0, -0.5, 0.1), (1, 2, 0.0, 1.0, -0.5, 0.1000000001),
    ]

    @pytest.mark.parametrize("partner,handoff", [
        # blows up at t = 0.0813, inside the launch leg: the survivor takes
        # its second leg alone
        (AnsatzParams(k=1, m=2, lam=500.0, b0=1.0),
         (0.04404290462824772, _LAUNCH_END, True, False)),
        # completes at t = 2.3 on the pass where the survivor's attempt was
        # rejected
        (AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=2.3),
         (2.2292491883669596, 10.0, False, True)),
    ])
    def test_last_row_runs_on_alone(self, monkeypatch, partner, handoff):
        # the row left when its partner ends moves to the one-row loop with
        # its t, step size, accept/reject state, leg, record, state and
        # events, and keeps the bits of its run alone
        steady = AnsatzParams(k=1, m=2, lam=0.0, b0=1.0)
        [alone] = _integrate([steady])
        handoffs = _spy_handoffs(monkeypatch)
        ended, survivor = _integrate([partner, steady])
        assert handoffs == [handoff]
        assert ended[1] in ("blowup", "completed")
        assert _outcome_bits(survivor) == _outcome_bits(alone)
        assert _work(survivor[0]) == (754, 47, 4)

    def test_random_batches(self, monkeypatch):
        _nan_rhs_for(monkeypatch, _UNDERFLOW)
        rng = np.random.default_rng(15)
        pool = [AnsatzParams(k=k, m=m, lam=lam, b0=b0, phi2=phi2, t_max=t_max)
                for k, m, lam, b0, phi2, t_max in self.SPECIAL]
        # half of the random rows have k = 0, so batches of both state
        # sizes run with many rows
        pool += [AnsatzParams(k=int(rng.integers(1, 4)) * (i % 2),
                              m=int(rng.integers(1, 4)),
                              lam=float(rng.choice([0.0, -0.1, 0.3])),
                              b0=float(rng.uniform(0.7, 1.5)),
                              phi2=float(rng.uniform(-1.0, 0.2)),
                              t_max=float(rng.choice([0.05, 1.0, 3.0])))
                 for i in range(50)]
        alone, seen, largest = {}, set(), {False: 0, True: 0}
        for _ in range(20):
            rows = [pool[i] for i in rng.choice(
                len(pool), size=rng.choice([2, 3, 5, 9, 17, len(pool)]),
                replace=False)]
            for line in (False, True):
                batch = [p for p in rows if (p.k < 1) == line]
                if not batch:
                    continue
                largest[line] = max(largest[line], len(batch))
                for params, outcome in zip(batch, _integrate(batch)):
                    if params not in alone:
                        [alone[params]] = _integrate([params])
                    assert (_outcome_bits(outcome)
                            == _outcome_bits(alone[params])), params
                    seen.add(type(outcome).__name__
                             if isinstance(outcome, Exception) else outcome[1])
        assert seen == {"completed", "blowup", "hit_a_zero", "hit_b_zero",
                        "ValueError", "IntegrationError"}
        assert min(largest.values()) >= 24, largest


class TestDiagnosticsIndependence:
    def test_perturbed_start_reported_nonconserved(self):
        # a start violating the smooth-closure series produces a profile
        # whose reported first integral is visibly non-constant
        p = AnsatzParams(k=1, m=2, lam=0.0, b0=1.0)
        state = list(_series_start(p))
        state[3] += 0.01  # b'(eps) off the series value
        y0 = np.array(state[:4] + [0.0, state[4]])
        rhs = _rhs_with_phi(p)
        sol = solve_ivp(lambda t, y: rhs(y), (p.epsilon, 10.0), y0,
                        method="DOP853", rtol=1e-10, atol=1e-10,
                        dense_output=True)
        t = np.linspace(p.epsilon, sol.t[-1], 2001)
        a, ap, b, bp, phi, phip = sol.sol(t)
        mu, *_ = _diagnostics(p, t, a, ap, b, bp, phip)
        assert (mu.max() - mu.min()) > 1e-2

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
    def test_default_grid_resolves_the_certificate(self, k, m, lam):
        # the default grid density against twice of it, on the same shot:
        # the certificate reads the stored polynomials, not the grid, so it
        # is the same report, and mu_spread moves by less than 10%
        params = AnsatzParams(k=k, m=m, lam=lam, b0=1.0)
        fine = replace(params, grid_per_unit=2 * params.grid_per_unit)
        report, spread = {}, {}
        for p in (params, fine):
            prof = shoot(p)
            report[p] = certify_profile(prof).to_json()
            spread[p] = prof.mu_spread
        assert report[params] == report[fine]
        assert abs(spread[params] - spread[fine]) <= 0.10 * spread[fine]

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
    return replace(profile, t_old=profile.t_old[index], h=profile.h[index],
                   y_old=profile.y_old[index], F=profile.F[index], **changes)


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
        prof = steady_profile_12
        t_old, y_old = prof.t_old.copy(), prof.y_old.copy()
        if column == "t":
            t_old[7] = value
        else:
            y_old[7, _state_columns(1).index(column)] = value
        with pytest.raises(ValueError, match=message):
            replace(prof, t_old=t_old, y_old=y_old)

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5])
    def test_too_few_rows_rejected(self, steady_profile_12, rows):
        # the first steps of a table alone do not reach its end_time; with
        # the end of their last step as end_time they are a profile, whose
        # grid keeps at least 16 rows
        prof = steady_profile_12
        with pytest.raises(ValueError, match="does not lie in its last step"):
            _steps(prof, slice(rows))
        short = _steps(prof, slice(rows), end_time=float(prof.t_old[rows]))
        assert short.t[-1] == prof.t_old[rows]
        assert short.mu.size == short.t.size == 16


class TestStepTable:
    """Construction (and so every reader) refuses a step table that is not
    one piecewise polynomial from epsilon to end_time."""

    @pytest.mark.parametrize("edit,message", [
        (lambda p: _steps(p, [0, 2, 1, *range(3, p.t_old.size)]),
         "column t is not finite and strictly increasing"),
        (lambda p: _steps(p, np.r_[0:20, 21:p.t_old.size]),
         "steps 19 and 20 do not meet"),
        (lambda p: replace(p, h=np.where(np.arange(p.h.size) == 9, -p.h, p.h)),
         "column h is not positive"),
        (lambda p: replace(p, h=p.h * (1 + 1e-15)), "do not meet"),
        (lambda p: replace(p, end_time=p.end_time + 1e-12),
         "end_time 10.00000000000.* is not at most its t_max = 10$"),
        (lambda p: replace(p, end_time=float(p.t_old[-1])),
         "does not lie in its last step"),
        (lambda p: replace(p, params=replace(p.params, epsilon=2e-4)),
         "starts at 0.0001, not at epsilon = 0.0002"),
        (lambda p: replace(p, params=replace(p.params, k=0)),
         "profile step table of a k = 0 profile needs"),
        (lambda p: _steps(p, slice(0)), "at least one step"),
        (lambda p: replace(p, F=p.F[:, :6]), "F of 7 x 6 values"),
        (lambda p: replace(p, F=np.where(np.arange(7)[:, None] == 6, np.nan,
                                         p.F)),
         "column F6.a has a non-finite value"),
    ], ids=["swapped-rows", "dropped-row", "negative-h", "long-steps",
            "end-past-last-step", "end-at-last-start", "other-epsilon",
            "other-k", "no-steps", "six-coefficient-rows", "nan-in-F6"])
    def test_refused(self, steady_profile_12, edit, message):
        with pytest.raises(ValueError, match=message):
            edit(steady_profile_12)

    def test_shot_tables_pass(self):
        # every outcome: the step ends, a terminal event in the launch leg
        # or after it, and a span inside the launch leg
        for params, status in [
                (AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=0.05),
                 "completed"),
                (AnsatzParams(k=0, m=2, lam=0.0, b0=1.0), "blowup"),
                (AnsatzParams(k=3, m=2, lam=0.0, b0=1.0, phi2=0.3), "blowup"),
                (AnsatzParams(k=0, m=2, lam=0.5, b0=2.0), "hit_b_zero"),
                (AnsatzParams(k=1, m=2, lam=2.0, b0=1.0), "hit_a_zero")]:
            prof = shoot(params)
            assert prof.status == status
            again = SolitonProfile.parse_csv(prof.to_csv())
            assert again.end_time == prof.end_time == prof.t[-1]


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
                params=params, t_old=np.array(t_old), h=np.array(steps),
                y_old=data[:s, 0].copy(), F=data[:s, 1:].copy(),
                status="completed",
                end_time=t_old[-1] + steps[-1] * share)
            back = SolitonProfile.parse_csv(prof.to_csv())
            for name in ("t_old", "h", "y_old", "F"):
                assert _same_bits(getattr(back, name), getattr(prof, name)), name
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
        "# schema_version=4\n",
        "# schema_version=4\n# params=[1, 2]\n",
    ], ids=["no-params-line", "params-not-an-object"])
    def test_truncated_header_rejected(self, text):
        with pytest.raises(ValueError):
            SolitonProfile.parse_csv(text)

    @pytest.mark.parametrize("old,new", [
        ("# params=", "# parameters="), (" end_time=1\n", "\n"),
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

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_old_schema_refused(self, version):
        # schema 1 and 2 stored a sampled grid, schema 3 the step table in
        # decimal text: the message says what to do
        text = shoot(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=1.0)).to_csv()
        old = text.replace("# schema_version=4", f"# schema_version={version}")
        with pytest.raises(ValueError, match=f"schema_version {version} is no "
                           "longer read; re-run 'solve' to write "
                           "schema_version 4"):
            SolitonProfile.parse_csv(old)

    @pytest.mark.parametrize("old,new", [
        ('"grid_per_unit": 200', '"grid_per_unit": 300000'),
        ('"grid_per_unit": 200', '"grid_per_unit": ' + "9" * 400),
        ("end_time=1\n", "end_time=1e300\n")])
    def test_grid_beyond_the_cap_refused(self, old, new):
        # the params line bounds the grid up to t_max before the rows are
        # read, and an end_time past t_max is refused with the step table
        text = shoot(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=1.0)).to_csv()
        assert old in text
        with pytest.raises(ValueError, match=(
                "output grid too large" if "grid_per_unit" in old
                else "end_time 1.0*1e[+]300 is not at most its t_max = 1$")):
            SolitonProfile.parse_csv(text.replace(old, new))

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
        # a mixed grid, k 0-2, one row of each outcome: status, lifetime,
        # mu_mean and mu_spread of every row are those of shoot(params)
        # run alone, and its slopes those of that profile
        _nan_rhs_for(monkeypatch, _UNDERFLOW)
        grid = [AnsatzParams(k=0, m=2, lam=0.5, b0=2.0, t_max=5.0),
                AnsatzParams(k=0, m=2, lam=0.5, b0=float(np.sqrt(2.0)),
                             t_max=3.0),
                AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=3.0),
                AnsatzParams(k=1, m=2, lam=0.1, b0=1.0),
                AnsatzParams(k=2, m=3, lam=0.0, b0=1e-5),
                AnsatzParams(k=2, m=2, lam=0.0, b0=1.0, phi2=0.3),
                AnsatzParams(k=2, m=3, lam=-0.1, b0=1.0, t_max=3.0),
                AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, phi2=_UNDERFLOW)]
        statuses = []
        for params, row in zip(grid, sweep(grid)):
            try:
                prof = shoot(params)
            except (ValueError, IntegrationError) as exc:
                status = f"error:{type(exc).__name__}:{exc}"
                want = [0.0] + [np.nan] * (2 + len(_SLOPES))
            else:
                status = prof.status
                want = [prof.end_time, prof.mu_mean, prof.mu_spread,
                        *_log_slopes(prof).values()]
            got = [row.lifetime, row.mu_mean, row.mu_spread,
                   *(getattr(row, name) for name in _SLOPES)]
            assert row.status == status
            assert np.array(got).tobytes() == np.array(want).tobytes()
            statuses.append(status.split(":")[0])
        assert statuses == ["hit_b_zero", "completed", "completed",
                            "completed", "error", "blowup", "completed",
                            "error"]

    def test_error_row_keeps_the_message(self):
        # b0 = 1e-5 makes the series tail too large at the default epsilon
        rows = sweep(params_grid([1], [2], [0.0], [1e-5, 1.0], t_max=2.0))
        assert rows[0].status == ("error:ValueError:epsilon=0.0001 too large: "
                                  "series tail estimate 1.67e-03 > 1e-8")
        assert rows[0].lifetime == 0.0 and np.isnan(rows[0].mu_mean)
        assert rows[1].status == "completed"

    def test_error_message_is_one_csv_field(self, monkeypatch):
        def fail(params, outcome):
            raise GeometryError("a, b\n  c\r\nd")

        monkeypatch.setattr("ricciwarp.shooting._profile", fail)
        rows = sweep(params_grid([1], [2], [0.0], [1.0]))
        assert rows[0].status == "error:GeometryError:a; b c d"

    def test_pool_has_at_most_one_worker_per_row(self, monkeypatch):
        # the pool gets min(workers, rows // _SHARE_ROWS) processes, so
        # each gets at least _SHARE_ROWS rows
        pools = _stand_in_pools(monkeypatch)
        grid = params_grid([1], [2], [0.0], _b0s(3 * _SHARE_ROWS), t_max=0.1)
        serial = sweep(grid)
        assert sweep(grid, parallel=True, workers=10_000) == serial
        assert sweep(grid, parallel=True, workers=2) == serial
        assert sweep(grid[:3 * _SHARE_ROWS - 1], parallel=True,
                     workers=64) == serial[:-1]
        assert [pool.size for pool in pools] == [3, 2, 2]

    def test_small_grid_runs_without_a_pool(self, monkeypatch):
        # below 2 * _SHARE_ROWS rows, or with one worker, no pool is built
        pools = _stand_in_pools(monkeypatch)
        grid = params_grid([0, 1], [2], [0.0], _b0s(_SHARE_ROWS), t_max=0.1)
        serial = sweep(grid)
        for rows, workers in ((2 * _SHARE_ROWS - 1, 64), (3, 2), (2, None),
                              (len(grid), 1)):
            assert sweep(grid[:rows], parallel=True,
                         workers=workers) == serial[:rows]
        assert pools == []
        assert sweep(grid, parallel=True, workers=64) == serial
        assert [pool.size for pool in pools] == [2]

    def test_pool_gets_one_batch_per_process(self, monkeypatch):
        pools = _stand_in_pools(monkeypatch)
        grid = params_grid([0, 1], [2], [0.0, -0.1], _b0s(_SHARE_ROWS),
                           t_max=0.1)
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
        # a grid of 2 * _SHARE_ROWS rows runs on a real 2-process pool
        grid = params_grid([1], [2], [0.0, -0.1], _b0s(_SHARE_ROWS),
                           t_max=0.5, rtol=1e-9, atol=1e-9)
        assert len(grid) == 2 * _SHARE_ROWS
        serial = sweep(grid, parallel=False)
        parallel = sweep(grid, parallel=True, workers=2)
        assert list(map(repr, serial)) == list(map(repr, parallel))


def _b0s(count):
    """``count`` distinct b0 values from 0.9 to 1.1."""
    return [0.9 + 0.2 * i / count for i in range(count)]


def _stand_in_pools(monkeypatch):
    """Replace the process pool of ``sweep`` with a stand-in that starts
    no process; returns the list of the pools built, each recording its
    size and the batches it maps."""
    pools = []

    class Pool:
        def __init__(self, max_workers):
            self.size, self.batches = max_workers, []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            self.batches = list(items)
            return map(fn, self.batches)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", Pool)
    return pools
