"""An adaptive DOP853 loop for batches of autonomous ODE rows.

The method of Hairer, Norsett & Wanner, *Solving ODEs I*, II.10, with the
steps, dense output and event roots of scipy's
``solve_ivp(method="DOP853")`` (``_dop853``).  Its tableau is scipy's
own: ``_dop853_tableau`` executes scipy's coefficient file
``integrate/_ivp/dop853_coefficients.py`` by its location, so importing
this module runs no scipy package, and ``brentq`` imports
``scipy.optimize`` when a run first locates an event.  The loop advances a
batch of rows in lockstep, each with its own t, step size and events.  A
row keeps the bits it has alone, whatever else is in its batch: the
batch's stage sums, error estimates and dense-output products are stacked
``np.matmul`` products over the rows' own stage tables, which give each
row the bits of its ``np.dot`` (folding the rows into one wide product
would not), the rest of a step is elementwise IEEE arithmetic, and the
step-size control, whose ``pow`` an array form need not round as the
scalar one does, runs row by row on Python floats, as do the terminal
events, which each row reads at its accepted steps' ends and on their
polynomials (II.6) with the one event function it is given.  A row
alone, and the last row of a batch, steps on Python floats, with numpy
only for the products: the same operations, so the same bits, at less
cost per step.

The module knows nothing of the rows it integrates and imports nothing
of the package: a caller hands it right sides, starts, spans and a
terminal-event function, and reads back each finished ``_Row``, its step
table and its counts.  Its ``__all__`` is empty; the package exports
none of its names.
"""

from __future__ import annotations

import importlib.util
import math
import os
from itertools import chain
from types import SimpleNamespace

import numpy as np

__all__ = []


def _dop853_tableau():
    """The DOP853 tableau with the names and slices of
    ``scipy.integrate.DOP853``: ``n_stages``, ``error_estimator_order``,
    ``A``, ``B``, ``C``, ``E3``, ``E5``, ``D``, ``A_EXTRA`` and ``C_EXTRA``.

    scipy's coefficient file holds only numpy literals.  It is executed
    from its location in the scipy installation, so that neither
    ``scipy.integrate``'s package (and the linear algebra, sparse and
    optimize packages it imports) nor scipy's own ``__init__`` runs;
    scipy stays the one source of the table.
    """
    root = importlib.util.find_spec("scipy").submodule_search_locations[0]
    spec = importlib.util.spec_from_file_location(
        "_dop853_coefficients",
        os.path.join(root, "integrate", "_ivp", "dop853_coefficients.py"))
    c = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(c)
    n = c.N_STAGES
    return SimpleNamespace(
        n_stages=n, error_estimator_order=7, A=c.A[:n, :n], B=c.B,
        C=c.C[:n], E3=c.E3, E5=c.E5, D=c.D, A_EXTRA=c.A[n + 1:],
        C_EXTRA=c.C[n + 1:])


_DOP853 = _dop853_tableau()
_N_COEFFS = 3 + len(_DOP853.D)   # rows of a step's dense-output table F


def _horner(F, y_old, x, dx=False):
    """The DOP853 dense-output polynomial of a step at ``x = (t - t_old)/h``.

    ``F`` holds the rows ``F0, ..., F6`` of the step's coefficient table
    in their stored order, an array whose first axis they index; Horner's
    rule reads them from the last.  ``Dop853DenseOutput._call_impl``'s
    operations in its order, so every value has its bits (``1 - x`` is
    formed once; it has the same bits each time).  The one implementation
    of the polynomial: a profile's columns (``shooting._evaluate``) call
    it with one coefficient row and one ``x`` per time, and
    :meth:`_Row.accept` for locating events.

    With ``dx`` it returns the pair of the value, with the same bits, and
    its derivative d/dx, formed in the same loop by the product rule: each
    factor ``x`` or ``1 - x`` adds the sum it multiplies, with the sign of
    its own derivative.  d/dt is d/dx over ``h``.
    """
    y = np.zeros_like(y_old)
    d = np.zeros_like(y_old) if dx else None
    u = 1 - x
    for i, f in enumerate(F[::-1]):
        y += f
        w = x if i % 2 == 0 else u
        if dx:   # the product rule in place: x' = 1 and (1 - x)' = -1
            d *= w
            if i % 2 == 0:
                d += y
            else:
                d -= y
        y *= w
    return (y + y_old, d) if dx else y + y_old


_EPS = float(np.finfo(float).eps)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / (_DOP853.error_estimator_order + 1)
_N_STAGES, _N_EXTRA = _DOP853.n_stages, len(_DOP853.C_EXTRA)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
# accepted steps of one row; a row that needs more ends with status -1 (an
# IntegrationError in shooting).  Sized from memory and file:
# a k >= 1 soliton step is 850 bytes of profile.csv and about 0.5 KB of
# records while its batch runs, so a capped row writes about 8.5 MB and a
# full 32-row batch holds about 160 MB.  Without a cap stiff and
# degenerating rows are unbounded: an expanding row's steps grow as
# |lambda| t_max^2 (k1m2 with lambda -1: 955 to t_max 100, 7,191 to 300,
# about 78,300 to 1000), and k0m2 with lambda 2 at rtol 1e-15 takes
# 143,554 steps (19 s) to its hit_b_zero.  No row of the test suite that
# ends short of the cap takes more than 2,628 (k1m2 to t_max 10,000).
MAX_STEPS = 10_000


def brentq(f, a, b, **kwargs):
    """``scipy.optimize.brentq``, whose package is imported on the first
    call: only a run that locates an event pays for it."""
    from scipy.optimize import brentq
    return brentq(f, a, b, **kwargs)


def _check_run(t0, span, y0):
    """Refuse a run that :func:`_dop853` cannot start, as ``solve_ivp``
    would: ``ValueError`` unless its span ends past ``t0`` and ``y0`` is
    finite."""
    if not span[0] > t0:
        raise ValueError(f"integration runs forward only: need t_end past "
                         f"t0, got t0={t0!r}, t_end={span[0]!r}")
    if not np.isfinite(y0).all():
        raise ValueError(
            "All components of the initial state `y0` must be finite.")


class _Row:
    """A row of a :func:`_dop853` run, between two step attempts or done.

    Its right side, terminal events and their values ``g`` at its t, span
    end and tolerances, t, step size, accept/reject state, counts and
    ``record``, the t_old, y_old, h and F of its accepted steps, four
    lists, while it runs (None once it ends).  Its span ``(t_end, tol,
    first_step)`` sets ``atol = tol`` and ``rtol = tol`` raised to 100
    eps, as scipy raises its ``rtol``.  ``events`` maps the Python floats
    of a state to its event values, a list.  Whichever loop makes an
    attempt, the row starts it (:meth:`begin`), controls its step size
    (:meth:`control`) and books it when accepted (:meth:`accept`), so a
    row's steps do not depend on the loop or on a move from one loop to
    the other between two attempts.

    A finished row (:meth:`_finish`) holds its run.  ``table`` is its
    step table, one row per accepted step in the columns ``t_old``,
    ``y_old``, ``h`` and ``F0``-``F6`` (each of n values), those of
    ``profile.csv``: step i carries the dense output polynomial of
    :func:`_horner`, and ends where step i + 1 starts or, the last one,
    at ``t``, the end of the run, a terminal event's root.  ``status`` is
    ``solve_ivp``'s: 0 at the end of the span, 1 at the terminal event
    ``event`` (its index), -1 on a step size that underflowed or at
    ``MAX_STEPS`` accepted steps, which ``message`` names; a row that
    fails before its first accepted step has an empty table.  ``nfev``
    counts the right-side calls of the whole run and ``rejected`` its
    rejected step attempts: a run of s accepted steps and no event calls
    the right side 1 + 15 s + 12 ``rejected`` times.  ``error`` is None,
    or the exception that ``brentq`` raised for the row, which ends it
    without a table.
    """

    __slots__ = ("fun", "events", "g", "t", "t_new", "t_end", "rtol",
                 "atol", "h_abs", "min_step", "fresh", "step_rejected",
                 "nfev", "rejected", "record", "status", "event",
                 "message", "table", "error")

    def __init__(self, fun, events, t0, y0, span):
        self.fun, self.t = fun, float(t0)
        self.events, self.g = events, events(y0)
        self.t_end, self.atol, self.h_abs = map(float, span)
        self.rtol = max(self.atol, 100 * _EPS)
        self.fresh, self.step_rejected = True, False
        self.nfev, self.rejected = 1, 0
        self.record = ([], [], [], [])
        self.error = None

    def begin(self) -> float:
        """Start an attempt as ``DOP853._step_impl`` does and return its
        size h: the first attempt of a step sets the least step size and
        raises the step size to it, and an attempt ends at most at the
        end of the span."""
        t = self.t
        if self.fresh:
            self.fresh = self.step_rejected = False
            self.min_step = 10 * abs(math.nextafter(t, math.inf) - t)
            if self.h_abs < self.min_step:
                self.h_abs = self.min_step
        t_new = t + self.h_abs
        if t_new > self.t_end:
            t_new = self.t_end
        self.t_new = t_new
        h = t_new - t
        self.h_abs = abs(h)
        return h

    def control(self, h, err5, err3, n) -> bool:
        """The step-size control of an attempt of size ``h``: True if it
        is accepted.  ``err5`` and ``err3`` are the squared norms of its n
        error estimates over the scale.  On Python floats, since the
        ``pow`` of an array form need not round as the scalar one does.
        A rejection that leaves the step size below the least ends the
        row, as ``solve_ivp``'s next attempt would."""
        self.nfev += _N_STAGES
        # np.linalg.norm's operations on a vector, squared
        err5_norm_2 = math.sqrt(err5) ** 2
        err3_norm_2 = math.sqrt(err3) ** 2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            error_norm = 0.0
        else:
            denom = err5_norm_2 + 0.01 * err3_norm_2
            error_norm = abs(h) * err5_norm_2 / math.sqrt(denom * n)
        if error_norm < 1:
            if error_norm == 0:
                factor = _MAX_FACTOR
            else:
                factor = min(_MAX_FACTOR,
                             _SAFETY * error_norm ** _ERROR_EXPONENT)
            if self.step_rejected:
                factor = min(1, factor)
            self.h_abs *= factor
            return True
        self.h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
        self.step_rejected = True
        self.rejected += 1
        if self.h_abs < self.min_step:
            self._finish(-1, message=_TOO_SMALL_STEP)
        return False

    def accept(self, h, F, y_old, y_new) -> None:
        """Book the accepted attempt of size ``h``: its dense-output table
        ``F``, its start ``y_old`` and its end ``y_new`` (Python floats),
        where the row reads its event values.

        The earliest root of an event that changed sign over the step,
        located by ``brentq`` on the step's polynomial (Hairer, Norsett &
        Wanner, II.6), ends the row there; so do the end of its span and
        its ``MAX_STEPS``-th accepted step short of that.
        """
        self.nfev += _N_EXTRA
        self.fresh = True
        t_old, self.t = self.t, self.t_new
        status = 0 if self.t >= self.t_end else None
        event = None
        g_old, self.g = self.g, self.events(y_new)
        active = [e for e, (lo, hi) in enumerate(zip(g_old, self.g))
                  if lo <= 0 <= hi or lo >= 0 >= hi]
        if active:
            y_old = np.asarray(y_old)
            try:
                roots = [brentq(lambda s, e=e: self.events(_horner(
                                    F, y_old, (s - t_old) / h).tolist())[e],
                                t_old, self.t, xtol=4 * _EPS, rtol=4 * _EPS)
                         for e in active]
            except (ValueError, RuntimeError) as exc:
                self.error, self.record = exc, None   # this row alone ends
                return
            first = np.argsort(roots)[0]
            status, event, self.t = 1, active[first], roots[first]
        t_olds, y_olds, hs, Fs = self.record
        # solve_ivp drops a step whose root is its start, the last end
        if not (hs and self.t == t_old):
            t_olds.append(t_old)
            y_olds.append(y_old)
            hs.append(h)
            Fs.append(F.ravel())
        if status is not None:
            self._finish(status, event)
        elif len(hs) >= MAX_STEPS:
            self._finish(-1, message=(
                f"MAX_STEPS = {MAX_STEPS} accepted steps reached at "
                f"t = {self.t:.6g} before the end of the span"))

    def _finish(self, status, event=None, message=None):
        """End the row with its outcome and its step table, stacked once
        from its record."""
        self.status, self.event, self.message = status, event, message
        self.table, self.record = np.column_stack(self.record), None


def _dop853(funs, t0, y0, spans, events):
    """Integrate a batch of rows of ``y' = f(y)`` with DOP853.

    The method of Hairer, Norsett & Wanner, *Solving ODEs I*, II.10, as
    ``solve_ivp(method="DOP853", dense_output=True, events=...)`` runs it
    on each row alone: the operations of scipy's ``DOP853._step_impl``,
    ``rk_step``, ``_estimate_error_norm`` and ``_dense_output_impl`` in
    their order, on the coefficients of ``scipy.integrate.DOP853`` (read
    from scipy's coefficient file, :func:`_dop853_tableau`), so
    every row's steps, dense output and event roots have ``solve_ivp``'s
    bits.  Row i runs ``y' = funs[i](y)`` from ``t0[i]`` and the state
    ``y0[i]`` (``y0`` is a rows x n array) over its span ``spans[i] =
    (t_end, tol, first_step)``: ``solve_ivp``'s ``t_span = (t0[i],
    t_end)``, ``rtol = atol = tol`` and ``first_step``.  Each row keeps
    its own t, step size, accept/reject state and events (a
    :class:`_Row`).  ``funs[i]`` maps
    the Python floats of a state to its derivative, a list, and
    ``events`` maps them to the values of the terminal events, a list,
    which every row reads at each accepted step's end.  Returns each
    finished :class:`_Row`, with its step table, end t and counts, or the
    exception that ``brentq`` raised for it.

    Two or more rows step in lockstep (:func:`_lockstep`); a row alone,
    and the last row of a batch, steps on Python floats (:func:`_alone`).
    A row's bits depend neither on the other rows nor on the loop.
    Floating-point warnings are off inside the loops, since the values
    that a batch computes for its rejected rows are discarded.
    """
    for args in zip(t0, spans, y0):
        _check_run(*args)
    Y = np.array(y0, dtype=float)
    ys = Y.tolist()
    rows = [_Row(fun, events, t, y, span)
            for fun, t, y, span in zip(funs, t0, ys, spans)]
    with np.errstate(all="ignore"):
        f = np.array([row.fun(y) for row, y in zip(rows, ys)], dtype=float)
        last = ((rows[0], ys[0], f[0].tolist())
                if len(rows) == 1 else _lockstep(rows, Y, f))
        if last is not None:
            _alone(*last)
    return [row if row.error is None else row.error for row in rows]


def _lockstep(rows, Y, f):
    """Step two or more ``rows`` in lockstep until at most one runs; return
    that one as ``(row, y, f)``, its state and derivative as Python
    floats, or None if none is left.

    ``Y`` holds the rows' states and ``f`` their derivatives.  Each pass
    makes one attempt for every running row, and each row of an accepted
    attempt reads its event values at the attempt's end on Python floats.
    The stage sums ``K^T a``, the error estimates and the dense-output
    products ``D K`` are stacked products, ``np.matmul`` over the rows'
    own stage tables, which give each row the bits of its ``np.dot`` (one
    BLAS call per row; folding the rows into one wide product would not).
    The rest of a step is elementwise IEEE arithmetic.
    """
    M = _DOP853
    n = Y.shape[1]
    K_ext = np.empty((len(rows), _N_STAGES + 1 + _N_EXTRA, n))
    K_ext[:, 0] = f
    live = rows

    def batch():
        """The right side, tolerances and stage views of the rows
        ``live``, whose stage tables ``K_ext`` holds."""
        row_funs = [row.fun for row in live]
        size = len(live) * n

        def fun(Y):   # one flat sequence, written into the stages at once
            return np.fromiter(chain.from_iterable(
                [f(y) for f, y in zip(row_funs, Y.tolist())]),
                float, size).reshape(-1, n)

        def stage(s):   # its rows, and the stage table before it as columns
            return K_ext[:, s], K_ext[:, :s].swapaxes(-1, -2)

        return (fun, (np.array([[row.atol] for row in live]),
                      np.array([[row.rtol] for row in live])),
                [(*stage(s), a[:s]) for s, a in enumerate(M.A[1:], start=1)],
                [(*stage(s), a[:s])
                 for s, a in enumerate(M.A_EXTRA, start=_N_STAGES + 1)],
                stage(_N_STAGES), stage(_N_STAGES + 1)[1])

    def norm2(err):
        return np.matmul(err[:, None, :], err[:, :, None]).ravel().tolist()

    fun, (atol, rtol), stages, extra, (K_last, K_B), K_E = batch()
    while True:
        h = [row.begin() for row in live]
        H = np.array(h)[:, None]
        for Ks, K_prev, a in stages:
            Ks[:] = fun(Y + np.matmul(K_prev, a) * H)
        Y_new = Y + H * np.matmul(K_B, M.B)
        K_last[:] = fun(Y_new)
        scale = atol + np.maximum(np.abs(Y), np.abs(Y_new)) * rtol
        err5 = norm2(np.matmul(K_E, M.E5) / scale)
        err3 = norm2(np.matmul(K_E, M.E3) / scale)
        accepted = [j for j, row in enumerate(live)
                    if row.control(h[j], err5[j], err3[j], n)]
        if accepted:   # the dense output and events of the accepted steps
            Y_old = Y
            for Ks, K_prev, a in extra:
                Ks[:] = fun(Y_old + np.matmul(K_prev, a) * H)
            F = np.empty((len(live), _N_COEFFS, n))
            delta_y = Y_new - Y_old
            K_first = K_ext[:, 0]
            F[:, 0] = delta_y
            F[:, 1] = H * K_first - delta_y
            F[:, 2] = 2 * delta_y - H * (K_last + K_first)
            F[:, 3:] = H[:, :, None] * np.matmul(M.D, K_ext)
            if len(accepted) == len(live):
                Y = Y_new
                K_first[:] = K_last
            else:
                Y = Y.copy()
                Y[accepted] = Y_new[accepted]
                K_ext[accepted, 0] = K_ext[accepted, _N_STAGES]
            ys = Y.tolist()
            for j in accepted:
                live[j].accept(h[j], F[j], Y_old[j], ys[j])
        keep = [j for j, row in enumerate(live) if row.record is not None]
        if len(keep) < 2:
            return next(((live[j], Y[j].tolist(), K_ext[j, 0].tolist())
                         for j in keep), None)
        if len(keep) < len(live):   # rows ended: the batch shrinks
            live, Y, K_ext = [live[j] for j in keep], Y[keep], K_ext[keep]
            fun, (atol, rtol), stages, extra, (K_last, K_B), K_E = batch()


def _alone(row, y, f):
    """Step ``row`` alone to its end from the state ``y`` at its t, with
    the derivative ``f`` there (lists of Python floats).

    The elementwise part of a step is IEEE arithmetic on Python floats,
    which round as numpy's ufuncs do: the stage states, ``y_new``, the
    error scale (whose maximum keeps a NaN, as ``np.maximum`` does), the
    quotients of the error estimates, and the first three rows of the
    dense-output table.  numpy makes only the products that scipy
    reduces, the stage sums, the error estimates, the norms' dot products
    and ``D K``, called as bound ``ndarray.dot`` methods: ``np.dot``'s
    routine, so they have its bits, at less cost per call.  A positive
    ``tol`` (as a span must have) keeps every scale positive, so no
    quotient divides by zero, which would raise here.
    """
    M = _DOP853
    n = len(y)
    K = np.empty((_N_STAGES + 1 + _N_EXTRA, n))

    def stage(s, a):   # its row, and the product of the stage table before
        return K[s], K[:s].T.dot, a[:s]

    stages = [stage(s, a) for s, a in enumerate(M.A[1:], start=1)]
    extra = [stage(s, a)
             for s, a in enumerate(M.A_EXTRA, start=_N_STAGES + 1)]
    K_last = K[_N_STAGES]
    step_sum, error_sum = K[:_N_STAGES].T.dot, K[:_N_STAGES + 1].T.dot
    dense = M.D.dot
    B, E5, E3 = M.B, M.E5, M.E3
    fun = row.fun
    K[0] = f
    while row.record is not None:
        h = row.begin()
        for Ks, dot, a in stages:
            Ks[:] = fun([u + d * h for u, d in zip(y, dot(a).tolist())])
        y_new = [u + h * d for u, d in zip(y, step_sum(B).tolist())]
        K_last[:] = fun(y_new)
        atol, rtol = row.atol, row.rtol
        scale = [atol + (u if u >= v or u != u else v) * rtol
                 for u, v in zip(map(abs, y), map(abs, y_new))]
        err5 = np.array([e / s for e, s in zip(error_sum(E5).tolist(),
                                                scale)])
        err3 = np.array([e / s for e, s in zip(error_sum(E3).tolist(),
                                                scale)])
        if not row.control(h, err5.dot(err5), err3.dot(err3), n):
            continue
        for Ks, dot, a in extra:
            Ks[:] = fun([u + d * h for u, d in zip(y, dot(a).tolist())])
        f_new = K_last.tolist()
        delta_y = [v - u for u, v in zip(y, y_new)]
        F = np.empty((_N_COEFFS, n))
        F[:3] = (delta_y, [h * p - d for p, d in zip(f, delta_y)],
                 [2 * d - h * (q + p) for d, q, p in zip(delta_y, f_new, f)])
        F[3:] = dense(K)
        F[3:] *= h
        row.accept(h, F, y, y_new)
        y, f = y_new, f_new
        K[0] = f
