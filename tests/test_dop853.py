"""The DOP853 loop: solve_ivp's steps, dense output and event roots, its
work counts and step cap, and batches in which each row keeps the bits it
has alone."""

import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ricciwarp import AnsatzParams, IntegrationError, shoot, sweep
from conftest import (
    _UNDERFLOW,
    _dense,
    _nan_rhs_for,
    _run_arrays,
    _same_bits,
)
from ricciwarp import dop853, shooting
from ricciwarp.dop853 import _dop853, _horner
from ricciwarp.shooting import (
    _BLOWUP_LIMIT,
    _POSITIVITY_FLOOR,
    _events,
    _integrate,
    _profile,
    _rhs_with_phi,
    _series_start,
)


def _reference_events(k):
    """The terminal events of a k row as ``solve_ivp`` takes them, one
    function ``(t, y) -> float`` each, in its order: b and (for k >= 1) a
    reach the positivity floor, and the state leaves the blow-up box, as
    ``np.max`` reads it."""
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
    return events


def _solve_ivp_run(params):
    """``solve_ivp``'s DOP853 run of the integration that ``_integrate``
    does: the same right side, terminal events (in the same order),
    tolerance and first step, over the one span from the series start to
    ``t_max``.  The reference for ``_dop853``."""
    t0, y0 = _series_start(params)
    row_rhs = _rhs_with_phi(params)

    def rhs(t, y):
        return row_rhs(y.tolist())

    with warnings.catch_warnings():
        # solve_ivp warns where it raises rtol to 100 eps
        warnings.simplefilter("ignore", UserWarning)
        return solve_ivp(rhs, (t0, params.t_max), y0, method="DOP853",
                         rtol=params.tol, atol=params.tol, dense_output=True,
                         events=_reference_events(params.k),
                         first_step=min(1e-3, 0.01 * (params.t_max - t0)))


def _solve_ivp_outcome(params, sol):
    """``(status, t_end)`` of a profile from its ``solve_ivp`` run."""
    if sol.status != 1:
        return "completed", params.t_max
    if params.k >= 1 and sol.t_events[1].size:
        return "hit_a_zero", float(sol.t[-1])
    if sol.t_events[0].size:
        return "hit_b_zero", float(sol.t[-1])
    return "blowup", float(sol.t[-1])


def _no_events(y):
    return []


class TestDenseEval:
    # explicit ids, the names pytest gave the cases when a run had two
    # legs (the last field counted them), so that no case is renamed
    @pytest.mark.parametrize("params,status", [
        pytest.param(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0), "completed",
                     id="params0-completed-2"),
        pytest.param(AnsatzParams(k=2, m=3, lam=0.0, b0=1.0, t_max=3.0),
                     "completed", id="params1-completed-2"),
        # a short span, from the series start at 0.1
        pytest.param(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=0.25),
                     "completed", id="params2-completed-1"),
        pytest.param(AnsatzParams(k=0, m=2, lam=0.5, b0=float(np.sqrt(2.0)),
                                  t_max=3.0),
                     "completed", id="params3-completed-2"),
        pytest.param(AnsatzParams(k=0, m=2, lam=0.5, b0=2.0, t_max=5.0),
                     "hit_b_zero", id="params4-hit_b_zero-2"),
        pytest.param(AnsatzParams(k=3, m=2, lam=0.0, b0=1.0, phi2=0.3),
                     "blowup", id="params5-blowup-2"),
        pytest.param(AnsatzParams(k=1, m=2, lam=0.5, b0=1.0, t_max=5.0),
                     "hit_a_zero", id="params6-hit_a_zero-2"),
        # below 100 eps, where rtol is raised to 100 eps
        pytest.param(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=1.0,
                                  tol=1e-15),
                     "completed", id="params7-completed-2"),
        # a small convergence radius: the series starts these rows at t =
        # 0.0096 and 0.032, before their events (t about 0.081 and 0.070)
        pytest.param(AnsatzParams(k=1, m=2, lam=500.0, b0=1.0), "blowup",
                     id="params8-blowup-1"),
        pytest.param(AnsatzParams(k=0, m=1, lam=500.0, b0=1.0),
                     "hit_b_zero", id="params9-hit_b_zero-1"),
        # the shortest span, 2 epsilon
        pytest.param(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=0.2),
                     "completed", id="params10-completed-2"),
    ])
    def test_matches_ode_solution_bit_for_bit(self, params, status):
        # the one run has the bits of solve_ivp over the one span
        [outcome] = _integrate([params])
        row, got_status = outcome
        t, h, F, y_old = _run_arrays(row)
        t_end = row.t
        sol = _solve_ivp_run(params)
        assert got_status == status
        assert (got_status, t_end) == _solve_ivp_outcome(params, sol)
        steps = sol.sol.interpolants
        assert row.nfev == sol.nfev
        assert row.status == sol.status
        assert _same_bits(t, sol.t)
        assert _same_bits(t[:-1], [ip.t_old for ip in steps])
        assert _same_bits(h, [ip.h for ip in steps])
        assert _same_bits(F, [ip.F for ip in steps])
        assert _same_bits(y_old, [ip.y_old for ip in steps])
        # the profile's step table needs no column for the step ends: they
        # are the next step's start and, for the last step, end_time
        prof = _profile(params, outcome)
        assert _same_bits(np.append(prof.t_old[1:], prof.end_time), t[1:])
        # every step end, every step middle and the output grid
        ends = t
        ts = np.unique(np.concatenate([
            ends, 0.5 * (ends[1:] + ends[:-1]),
            np.linspace(prof.start_time, t_end, 2001)]))
        assert _same_bits(_dense(prof, ts), sol.sol(ts))

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
        row = SimpleNamespace(t=float(ts[-1]), table=np.column_stack(
            [ts[:-1], y_old, np.diff(ts), F.reshape(len(F), -1)]))
        prof = _profile(AnsatzParams(k=0, m=2, lam=0.0, b0=1.0, epsilon=0.5),
                        (row, "completed"))
        ts = np.array([0.4, 0.5, 0.6, 0.8, 1.0, 1.2, 1.5, 1.7, 2.0, 2.5, 3.0])
        assert _same_bits(_dense(prof, ts), sol(ts))

    def test_shoot_columns_are_the_dense_output(self, steady_profile_12):
        prof = steady_profile_12
        want = _solve_ivp_run(prof.params).sol(prof.t)
        got = np.array([prof.a, prof.a_prime, prof.b, prof.b_prime,
                        prof.phi, prof.phi_prime])
        assert _same_bits(got, want)


class TestHornerDerivative:
    """``_horner``'s derivative form on the step table of a shot k1m2
    profile: all its steps at once, one x per step."""

    @staticmethod
    def _table(prof):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.05, 0.95, size=(prof.h.size, 1))
        return np.moveaxis(prof.F, 1, 0), prof.y_old, x

    def test_value_keeps_its_bits(self, steady_profile_12):
        F, y_old, x = self._table(steady_profile_12)
        for at in (x, np.zeros_like(x), np.ones_like(x)):
            value, _ = _horner(F, y_old, at, dx=True)
            assert _same_bits(value, _horner(F, y_old, at))
        # one step and a scalar x, as an event root is located
        F, y = steady_profile_12.F[3], steady_profile_12.y_old[3]
        assert _same_bits(_horner(F, y, 0.3, dx=True)[0], _horner(F, y, 0.3))

    def test_matches_a_central_difference(self, steady_profile_12):
        # inside the steps, against (p(x + d) - p(x - d)) / 2d of the value
        # form, d = 1e-4; measured 1.7e-10 of each column's largest size
        F, y_old, x = self._table(steady_profile_12)
        h = steady_profile_12.h[:, None]
        _, dx = _horner(F, y_old, x, dx=True)
        d = 1e-4
        central = (_horner(F, y_old, x + d)
                   - _horner(F, y_old, x - d)) / (2 * d * h)
        scale = np.abs(dx / h).max(axis=0)
        assert (np.abs(dx / h - central) <= 1e-8 * scale).all()

    def test_step_start_is_the_right_side(self, steady_profile_12):
        # at x = 0 the polynomial's d/dt is F0 + F1 over h, which is the
        # right side at y_old to rounding: a defect read there is the right
        # side substituted back, which is why the diagnostics leave such
        # rows out (measured: within 1 ulp)
        prof = steady_profile_12
        F, y_old, x = self._table(prof)
        _, dx = _horner(F, y_old, np.zeros_like(x), dx=True)
        rhs = _rhs_with_phi(prof.params)
        f = np.array([rhs(y.tolist()) for y in y_old])
        assert (np.abs(dx / prof.h[:, None] - f)
                <= 4 * np.spacing(np.abs(f))).all()


def _work(row):
    """A finished row's right-side calls, accepted steps and rejected
    attempts."""
    return row.nfev, len(row.table), row.rejected


class TestIntegratorWork:
    @pytest.mark.parametrize("k,m,lam,nfev,steps", [
        (1, 2, 0.0, 493, 32),
        (2, 3, 0.0, 616, 41),
        (1, 3, -0.1, 643, 42),
    ])
    def test_work_per_shoot(self, k, m, lam, nfev, steps):
        # solve_ivp's counts on these shoots from their series start at
        # 0.1: a change to the step control, the stage scheme or the start
        # moves them.  One right-side call at the start, 15 per accepted
        # step and 12 per rejected attempt
        rejected = {(1, 2): 1, (2, 3): 0, (1, 3): 1}[k, m]
        params = AnsatzParams(k=k, m=m, lam=lam, b0=1.0)
        [(row, _)] = _integrate([params])
        assert _work(row) == (nfev, steps, rejected)
        assert row.nfev == 1 + 15 * steps + 12 * rejected
        assert _solve_ivp_run(params).nfev == nfev

    def test_tableau_is_scipys(self):
        # the loops read scipy's DOP853 tableau from its coefficient file,
        # with the names and slices of scipy.integrate.DOP853
        from scipy.integrate import DOP853
        for name in ("n_stages", "error_estimator_order", "A", "B", "C",
                     "E3", "E5", "D", "A_EXTRA", "C_EXTRA"):
            got = np.asarray(getattr(dop853._DOP853, name))
            want = np.asarray(getattr(DOP853, name))
            assert got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    def test_step_underflow_matches_solve_ivp(self):
        # y' = y^2 blows up at t = 1, where the step size underflows
        def fun(t, y):
            return [y[0] * y[0]]

        sol = solve_ivp(fun, (0.0, 2.0), [1.0], method="DOP853", rtol=1e-10,
                        atol=1e-10, first_step=1e-3, dense_output=True)
        [row] = _dop853([lambda y: fun(None, y)], [0.0], np.array([[1.0]]),
                        [(2.0, 1e-10, 1e-3)], _no_events)
        assert (sol.status, sol.nfev) == (-1, 7255)
        assert (row.status, row.nfev, row.message) == (-1, 7255, sol.message)
        assert row.message == ("Required step size is less than spacing "
                               "between numbers.")
        assert row.t == sol.t[-1] == 1.00000000001075

    @pytest.mark.parametrize("t0,first_step,least", [
        (1.0, 1e-300, 2.220446049250313e-15),
        (0.5, 1e-20, 1.1102230246251565e-15),
    ], ids=["t0-1", "t0-0.5"])
    def test_first_step_raised_to_the_least(self, t0, first_step, least):
        # a first step below 10 ulps of t0 is raised to that least step
        # size, as solve_ivp raises it: y0' = -y0, y1' = y0 - y1/2 over 2
        # time units, alone and as the first row of a two-row batch
        def fun(y):
            return [-y[0], y[0] - 0.5 * y[1]]

        span = (t0 + 2.0, 1e-10, first_step)
        sol = solve_ivp(lambda t, y: fun(y), (t0, span[0]), [1.0, 0.3],
                        method="DOP853", rtol=span[1], atol=span[1],
                        first_step=first_step, dense_output=True)
        [alone] = _dop853([fun], [t0], np.array([[1.0, 0.3]]), [span],
                          _no_events)
        in_batch, _ = _dop853([fun, lambda y: [-v for v in y]], [t0, 0.0],
                              np.array([[1.0, 0.3], [1.0, 1.0]]),
                              [span, (2.0, 1e-10, 1e-3)], _no_events)
        assert least == 10 * math.ulp(t0)
        assert (sol.status, sol.nfev, sol.sol.interpolants[0].h) == (
            0, 316, least)
        for row in (alone, in_batch):
            t, h, F, _ = _run_arrays(row)
            assert h[0] == least
            assert (row.status, row.nfev) == (0, 316)
            assert _same_bits(row.t, sol.t[-1]) and _same_bits(t, sol.t)
            assert _same_bits(F, [ip.F for ip in sol.sol.interpolants])

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

        span = (2.0, 1e-10, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sol = solve_ivp(lambda t, y: fun(y), (0.0, 2.0), [1.0, 1.0],
                            method="DOP853", rtol=span[1], atol=span[1],
                            first_step=span[2], dense_output=True)
        [alone] = _dop853([fun], [0.0], np.array([[1.0, 1.0]]), [span],
                          _no_events)
        in_batch, calm = _dop853([fun, lambda y: [-v for v in y]], [0.0, 0.0],
                                 np.ones((2, 2)), [span, span], _no_events)
        want = (sol.status, sol.nfev, sol.t[-1], sol.message)
        assert want[:3] == (-1, 889, 0.40546510810816383)
        for row in (alone, in_batch):
            assert (row.status, row.nfev, row.t, row.message) == want
            assert _same_bits(_run_arrays(row)[2],
                              [ip.F for ip in sol.sol.interpolants])
        assert (calm.status, calm.t) == (0, 2.0)

    def test_underflow_before_a_step_leaves_an_empty_table(self):
        # a right side that is never finite rejects every attempt: the row
        # ends at its start with no accepted step, alone and in a batch
        span = (2.0, 1e-10, 1e-3)
        for funs in ([lambda y: [np.nan]],
                     [lambda y: [np.nan], lambda y: [-y[0]]]):
            row = _dop853(funs, [0.5] * len(funs), np.ones((len(funs), 1)),
                          [span] * len(funs), _no_events)[0]
            assert (row.status, row.message, row.t) == (
                -1, "Required step size is less than spacing between "
                "numbers.", 0.5)
            assert row.table.size == 0 and row.rejected > 0

    def test_shoot_holds_the_run_table(self, monkeypatch):
        # the profile's table is the table that the finished row stacked,
        # not a copy of it
        rows = []

        def recording(*args):
            rows.extend(dop853._dop853(*args))
            return rows

        monkeypatch.setattr(shooting, "_dop853", recording)
        prof = shoot(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0))
        [row] = rows
        assert prof.table is row.table
        assert np.shares_memory(prof.table, row.table)
        assert prof.end_time == row.t == 10.0

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
        pinned = {AnsatzParams(k=1, m=2, lam=0.0, b0=1.0): (493, 32, 1),
                  AnsatzParams(k=2, m=3, lam=0.0, b0=1.0): (616, 41, 0),
                  AnsatzParams(k=1, m=3, lam=-0.1, b0=1.0): (643, 42, 1)}
        others = {AnsatzParams(k=0, m=2, lam=1.0, b0=1.0): "completed",
                  AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, phi2=0.5): "blowup",
                  AnsatzParams(k=1, m=2, lam=2.0, b0=1.0): "hit_a_zero",
                  AnsatzParams(k=1, m=2, lam=1.0, b0=3.0): "hit_b_zero",
                  AnsatzParams(k=2, m=2, lam=0.0, b0=1e-7): "error:ValueError",
                  AnsatzParams(k=2, m=2, lam=0.0, b0=1.0, phi2=_UNDERFLOW):
                      "error:IntegrationError"}
        grid = list(others)[:3] + list(pinned) + list(others)[3:]
        rows = sweep(grid)
        assert [row.status[:len(want)] for row, want in zip(
            rows[:3] + rows[6:], others.values())] == list(others.values())
        for params, work in pinned.items():
            run, status = outcomes[params]
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
        monkeypatch.setattr(dop853, "brentq", refusing)
        failed, completed = _integrate([collapse, steady])
        assert isinstance(failed, IntegrationError) and len(calls) == 1
        assert _outcome_bits(completed) == _outcome_bits(alone)
        calls.clear()
        rows = sweep([collapse, steady])
        assert rows[0].status == ("error:IntegrationError:integrator "
                                  "failed: event location failed: f(a) and "
                                  "f(b) must have different signs")
        assert (rows[1].status, rows[1].lifetime) == ("completed", 3.5)

    def test_failed_event_location_keeps_its_row(self, monkeypatch):
        # brentq refuses the collapse row's first bracket: _dop853 ends the
        # row as a _Row with status -1, the message, its counts, and the
        # table of the steps before the one whose event failed, alone and
        # as the first row of a two-row batch
        collapse = AnsatzParams(k=1, m=2, lam=2.0, b0=1.0, t_max=3.5)
        steady = AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=3.5)
        [(whole, status)] = _integrate([collapse])
        assert (status, len(whole.table)) == ("hit_a_zero", 109)
        returned = []

        def recording(*args):
            rows = dop853._dop853(*args)
            returned.append(rows)
            return rows

        def refusing(*args, **kwargs):
            raise ValueError("f(a) and f(b) must have different signs")

        monkeypatch.setattr(shooting, "_dop853", recording)
        monkeypatch.setattr(dop853, "brentq", refusing)
        for batch in ([collapse], [collapse, steady]):
            _integrate(batch)
            row = returned.pop()[0]
            assert isinstance(row, dop853._Row)
            assert (row.status, row.event, row.message) == (
                -1, None, "event location failed: f(a) and f(b) must have "
                "different signs")
            assert (row.nfev, row.rejected) == (2824, 99)
            assert row.table.tobytes() == whole.table[:108].tobytes()

    def test_event_location_on_an_overflowed_step(self):
        # at tolerances of 1e10 the last step of k1m2 overflows to inf: the
        # blow-up event changes sign over it, but its polynomial evaluates
        # inf * 0 = NaN at x = 1, where brentq stops.  The row ends in the
        # error alone and beside a steady row, which keeps its bits alone
        message = ("integrator failed: event location failed: The function "
                   "value at x=1.211000000000001 is NaN; solver cannot "
                   "continue.")
        overflow = AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, tol=1e10)
        steady = AnsatzParams(k=1, m=2, lam=0.0, b0=1.0)
        with pytest.raises(IntegrationError, match=f"^{re.escape(message)}$"):
            shoot(overflow)
        [alone] = _integrate([steady])
        failed, completed = _integrate([overflow, steady])
        assert isinstance(failed, IntegrationError)
        assert str(failed) == message
        assert _outcome_bits(completed) == _outcome_bits(alone)

    def test_step_cap(self, monkeypatch):
        # a row whose run ends on its MAX_STEPS-th accepted step keeps the
        # bits of an uncapped run; a row that needs one more ends in an
        # IntegrationError naming the cap, alone in its batch and as a
        # sweep's error row
        steady = AnsatzParams(k=1, m=2, lam=0.0, b0=1.0)   # 32 steps
        short = AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=1.0)
        [alone], [short_alone] = _integrate([steady]), _integrate([short])
        steps = len(alone[0].table)
        assert len(short_alone[0].table) < steps - 1
        monkeypatch.setattr(dop853, "MAX_STEPS", steps)
        [capped] = _integrate([steady])
        assert _outcome_bits(capped) == _outcome_bits(alone)
        monkeypatch.setattr(dop853, "MAX_STEPS", steps - 1)
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
        # a cap that two rows reach at different passes (the steady row
        # rejects its 16th attempt, k2m3 none): k2m3 is capped in lockstep,
        # the steady row alone, and each keeps the bits of its capped run
        # alone
        other = AnsatzParams(k=2, m=3, lam=0.0, b0=1.0)
        monkeypatch.setattr(dop853, "MAX_STEPS", 20)
        capped = [_integrate([params])[0] for params in (steady, other)]
        handoffs.clear()
        both = _integrate([steady, other])
        assert [t_end for _, t_end, _, _ in handoffs] == [other.t_max]
        for got, want in zip(both, capped):
            assert isinstance(got, IntegrationError)
            assert _outcome_bits(got) == _outcome_bits(want)

    def test_tight_degeneration_reaches_the_cap(self):
        # at tol 1e-15 this row takes 143,554 steps (19 s) to its
        # hit_b_zero at t = 1.5708; the cap ends it near there
        params = AnsatzParams(k=0, m=2, lam=2.0, b0=1.0, tol=1e-15)
        with pytest.raises(IntegrationError, match=(
                f"MAX_STEPS = {dop853.MAX_STEPS} accepted steps reached "
                r"at t = 1\.5707")):
            shoot(params)

    @pytest.mark.parametrize("k", [1, 0])
    def test_event_values_on_floats(self, k):
        # every row reads its event values on Python floats: the bits of
        # solve_ivp's reference events on finite and +-inf states, and a
        # NaN in any component makes the blow-up value NaN, as np.max does
        # (Python's max drops a NaN that does not come first)
        events, _ = _events(k)
        reference = _reference_events(k)
        n = 6 if k >= 1 else 4
        rng = np.random.default_rng(27)
        states = [rng.normal(size=n) * 10.0 ** rng.integers(-8, 12, size=n)
                  for _ in range(200)]
        for special in (np.inf, -np.inf, -0.0, _BLOWUP_LIMIT,
                        _POSITIVITY_FLOOR):
            for i in range(n):
                y = rng.normal(size=n)
                y[i] = special
                states.append(y)
        states.append(np.array([np.inf, -np.inf] * (n // 2)))
        for y in states:
            assert np.array(events(y.tolist())).tobytes() == \
                np.array([event(None, y) for event in reference]).tobytes()
        for fill in (1.0, -np.inf, np.inf):
            for i in range(n):
                y = np.full(n, fill)
                y[i] = np.nan
                got = events(y.tolist())
                assert math.isnan(got[-1])
                np.testing.assert_array_equal(
                    got, [event(None, y) for event in reference])

    def test_bad_runs_rejected(self):
        # a span that does not end past the start, and a start that is not
        # finite, each refuse the call, alone and wherever the row stands
        # in a batch, before any right side is called
        calls = []

        def fun(y):
            calls.append(y)
            return [0.0]

        good = (2.0, 1.0)
        bad = [((t1, 1.0), "forward only")
               for t1 in (1.0, 0.5, -np.inf, np.nan)]
        bad += [((2.0, y0), "`y0` must be finite")
                for y0 in (np.nan, np.inf, -np.inf)]
        for row, match in bad:
            for batch in ([row], [good, row], [row, good, good]):
                with pytest.raises(ValueError, match=match):
                    _dop853([fun] * len(batch), [1.0] * len(batch),
                            np.array([[y0] for _, y0 in batch]),
                            [(t1, 1e-10, 1e-3) for t1, _ in batch],
                            _no_events)
        assert calls == []
        # b0 = inf, which would give a non-finite series start, is refused
        # when the params are built
        with pytest.raises(ValueError, match="b0 must be a finite number"):
            AnsatzParams(k=1, m=2, lam=0.0, b0=float("inf"))


def _outcome_bits(outcome):
    """A row's ``_integrate`` outcome as comparable bits: the exception's
    type and message, or the status and its finished row's counts and
    steps, whose last t is the row's end."""
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    row, status = outcome
    return (status, row.nfev, row.status, row.event, row.message,
            *(a.tobytes() + str(a.shape).encode() for a in _run_arrays(row)))


def _spy_handoffs(monkeypatch):
    """Record the ``(t, t_end, fresh, step_rejected)`` of each row that a
    batch hands to the one-row loop: its t and span end, and whether its
    last attempt was accepted or rejected."""
    handoffs = []
    lockstep = dop853._lockstep

    def spy(*args):
        last = lockstep(*args)
        if last is not None:
            row = last[0]
            handoffs.append((row.t, row.t_end, row.fresh, row.step_rejected))
        return last

    monkeypatch.setattr(dop853, "_lockstep", spy)
    return handoffs


class TestBatchesKeepBits:
    """A row integrated in a batch has the bits of the row integrated
    alone, whatever the other rows of the batch and however they end."""

    SPECIAL = [   # rows that end every way (k, m, lam, b0, phi2, t_max)
        (1, 2, 0.0, 1.0, 0.5, 3.5), (0, 2, 0.0, 1.0, -0.5, 3.5),     # blowup
        (1, 2, 2.0, 1.0, -0.5, 3.5),                              # hit a = 0
        (1, 2, 1.0, 3.0, -0.5, 3.5), (0, 2, 0.5, 2.0, -0.5, 3.5),  # hit b = 0
        (2, 3, 0.0, 1e-7, -0.5, 3.5), (0, 3, 0.0, 1e-7, -0.5, 3.5),  # refused
        (2, 2, 0.0, 1.0, _UNDERFLOW, 3.5), (0, 2, 0.5, 1.2, _UNDERFLOW, 3.5),
        # an event soon after an early series start (blowup, hit b = 0), a
        # short span and the shortest, 2 epsilon
        (1, 2, 500.0, 1.0, -0.5, 3.5), (0, 1, 500.0, 1.0, -0.5, 3.5),
        (1, 2, 0.0, 1.0, -0.5, 0.25), (1, 2, 0.0, 1.0, -0.5, 0.2),
    ]

    @pytest.mark.parametrize("partner,handoff", [
        # blows up at t = 0.0813 after many short steps from its series
        # start at 0.0096: the steady row completes first, and the partner
        # runs on alone from t = 0.0745
        (AnsatzParams(k=1, m=2, lam=500.0, b0=1.0),
         (0.0744735959535767, 10.0, True, False)),
        # completes at t = 2.3 on the pass where the survivor's attempt was
        # rejected
        (AnsatzParams(k=1, m=2, lam=0.0, b0=1.0, t_max=2.3),
         (2.229215868205144, 10.0, False, True)),
    ])
    def test_last_row_runs_on_alone(self, monkeypatch, partner, handoff):
        # the row left when its partner ends moves to the one-row loop with
        # its t, step size, accept/reject state, span, record, state and
        # events, and keeps the bits of its run alone
        steady = AnsatzParams(k=1, m=2, lam=0.0, b0=1.0)
        [alone] = _integrate([steady])
        handoffs = _spy_handoffs(monkeypatch)
        ended, survivor = _integrate([partner, steady])
        assert handoffs == [handoff]
        assert ended[1] in ("blowup", "completed")
        assert _outcome_bits(survivor) == _outcome_bits(alone)
        assert _work(survivor[0]) == (493, 32, 1)

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
                              t_max=float(rng.choice([0.25, 1.0, 3.0])))
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
