"""Shooting solver for rotationally symmetric warped soliton profiles.

The ansatz metric on R^{k+1} x S^m is

    g = dt^2 + a(t)^2 g_{S^k} + b(t)^2 g_{S^m},    psi = phi(t),

with unit round factors.  Writing the gradient-soliton equation in an
orthonormal frame and solving for the second derivatives gives the reduced
first-order system in (a, a', b, b', phi'):

    a''/a   = (k-1)(1 - a'^2)/a^2 - m a'b'/(ab) + phi' a'/a - lam
    b''/b   = (m-1)(1 - b'^2)/b^2 - k a'b'/(ab) + phi' b'/b - lam
    phi''   = lam + k a''/a + m b''/b

For k = 0 the base is the line; the a-equation and all a-terms drop out.
``_reduced_kernel`` is the single place where this system is written: the
integrator's right side ``_rhs_with_phi`` and the array diagnostics both
call it.  These equations are not taken on faith: the test suite
assembles the full product metric from integrated profiles and requires
the finite-difference soliton residual to vanish to discretization
accuracy (the closure gate), and it derives the system symbolically from
the metric and compares it with the kernel and the right side.

Smoothness of the metric across t = 0 forces a(0) = 0, a'(0) = 1,
b'(0) = 0, phi'(0) = 0.  Matching even/odd Taylor series in the system
determines the quadratic/cubic coefficients up to one genuine shooting
degree of freedom, the half Hessian phi2 = phi''(0)/2: the trace equation
reproduces the sphere-block relation at leading order instead of fixing
phi2.  Profiles with phi2 <= 0 are long lived with slowly growing a, b;
positive phi2 drives finite-time blowup.  Integration starts from the
series at t = epsilon (``_series_start``, for every k) to keep the right
side total.  It is an adaptive DOP853 loop (``_dop853``: Hairer, Norsett &
Wanner, *Solving ODEs I*, II.10) with the steps, dense output and event
roots of scipy's ``solve_ivp(method="DOP853")``.  The loop advances a
batch of rows in lockstep, each with its own t, step size and events:
``shoot`` is a batch of one row and ``sweep`` integrates its grid in
batches.  A row keeps the bits it has alone, whatever else is in its
batch: the batch's stage sums, error estimates and dense-output products
are stacked ``np.matmul`` products over the rows' own stage tables, which
give each row the bits of its ``np.dot`` (folding the rows into one wide
product would not), the rest of a step is elementwise IEEE arithmetic,
and the step-size control, whose ``pow`` an array form need not round as
the scalar one does, runs row by row on Python floats.  A row alone, and
the last row of a batch, steps on Python floats, with numpy only for the
products: the same operations, so the same bits, at less cost per step.

A profile is its integration: the step table of its DOP853 run, one row
per accepted step holding the step's start ``t_old``, its size ``h``, the
state ``y_old`` at its start and the 7 rows ``F`` of its dense-output
table.  At ``x = (t - t_old) / h`` the step's polynomial is

    y(t) = y_old + x (F0 + (1-x) (F1 + x (F2 + (1-x) (F3
                 + x (F4 + (1-x) (F5 + x F6))))))

evaluated by Horner's rule (``_horner``).  A step ends where the next one
starts and the last one at ``end_time``.  The certificate and the quotient
check read a, b and phi from these polynomials (``interpolants``); the
uniform grid columns (``GRID_COLUMNS``) are samples of them, derived on
first read, and the diagnostics (the first-integral series mu(t) and the
per-equation residual columns) difference those samples with grid
stencils, never substituting the right side back in; substituting would
cancel algebraically and report conservation even for corrupted data.

``profile.csv`` (schema 4) is the step table, each cell the 16 hex
digits of its float64 bits, so it round-trips bit for bit with no
decimal conversion: 2 + 8n cells per step, n = 6 state columns for
k >= 1 and 4 for k = 0.  A completed ``t_max = 10`` profile of the
README's classes takes 47 to 96 steps, 41 to 82 KB; a profile that ends
in a blow-up takes many short steps.  Older files are refused with a
message to re-run ``solve``: schemas 1 and 2 stored a sampled grid, which
would need a spline fit beside the polynomials, and schema 3 decimal
text, which would need a second reader.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import brentq

from .curvature import _MARGIN_SECOND
from .fd import check_step, grid_derivative
from .patches import (
    GeometryError,
    ScalarField,
    cartesian_profile_base,
    radial_field,
    radial_profile_base,
    sphere_patch,
)
from .warped import (
    CertificationReport,
    WarpedGeometry,
    _interior_points,
    certify_soliton,
)

__all__ = [
    "AnsatzParams",
    "IntegrationError",
    "SolitonProfile",
    "SweepRow",
    "certify_profile",
    "params_grid",
    "profile_geometry",
    "shoot",
    "sweep",
    "ambient_geometry",
    "GRID_COLUMNS",
]

PROFILE_SCHEMA_VERSION = 4
GRID_COLUMNS = ("t", "a", "a_prime", "b", "b_prime", "phi", "phi_prime")
# the most points of the output grid of a profile (of solve, of each sweep
# row, and of a loaded file, whose params line sets its grid): the grid
# and its diagnostics hold a dozen arrays of this length
MAX_GRID_POINTS = 200_000
_N_COEFFS = 3 + len(DOP853.D)   # rows of a step's dense-output table F

_POSITIVITY_FLOOR = 1e-6   # terminal event threshold for a, b
_EVAL_FLOOR = 1e-7         # clamp inside the stepper so stages stay finite
_BLOWUP_LIMIT = 1e10
# a profile's status: completed, or the terminal event that ended it
_STATUSES = ("completed", "hit_b_zero", "hit_a_zero", "blowup")


class IntegrationError(GeometryError):
    """The ODE integrator failed (step underflow, ``MAX_STEPS`` reached or
    a failed event location)."""


class CertificationWindowError(GeometryError):
    """A certification window or step does not fit the profile span."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite int or float, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


_INT_FIELDS = ("k", "m", "grid_per_unit")


@dataclass(frozen=True)
class AnsatzParams:
    """Shooting data for the rotationally symmetric ansatz.

    ``phi2`` is the free closure coefficient phi''(0)/2 (ignored for k = 0,
    where the even-series start is fully determined).  The default -0.5
    lies in the long-lived branch for the shipped parameter ranges.
    ``rtol`` and ``atol`` are the integrator tolerances; an ``rtol`` below
    100 machine epsilons (about 2.2e-14) is raised to 100 eps, as scipy's
    ``solve_ivp`` does, and the launch leg up to t = 0.1 runs at
    tolerances of at most 1e-13.  ``grid_per_unit`` is the density of the
    output grid in rows per unit of t; it sets only the diagnostics read
    on that grid, not the certificate, which reads the step polynomials:
    at 100, k = 1, m = 3, lam = -0.1 reads ``mu_spread`` 4.70e-8, against
    2.65e-8 at the default 200.

    Construction refuses (``ValueError``) a k, m or grid_per_unit that is
    not an integer, another field that is not a finite real (a bool is
    neither), values out of range, a span shorter than epsilon
    (``t_max < 2 epsilon``: across a few ulps of t the grid's differences
    are rounding, and its diagnostics meaningless) and an output grid of
    more than ``MAX_GRID_POINTS`` points up to ``t_max``, past which no
    profile ends: a config, a file and Python alike.
    """

    k: int
    m: int
    lam: float
    b0: float
    phi2: float = -0.5
    epsilon: float = 1e-4
    t_max: float = 10.0
    rtol: float = 1e-10
    atol: float = 1e-10
    grid_per_unit: int = 200

    def __post_init__(self):
        for name, value in vars(self).items():
            kind = "an integer" if name in _INT_FIELDS else "a finite number"
            if not (_is_int if name in _INT_FIELDS else _is_real)(value):
                raise ValueError(f"AnsatzParams {name} must be {kind}, got "
                                 f"{value!r}")
        if self.k < 0:
            raise ValueError("base sphere dimension k must be >= 0")
        if self.m < 1:
            raise ValueError("fiber dimension m must be >= 1")
        if self.b0 <= 0:
            raise ValueError("b0 must be positive")
        if not 0 < 2 * self.epsilon <= self.t_max:
            raise ValueError("need 0 < epsilon and 2 epsilon <= t_max")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("integrator tolerances must be positive")
        if self.grid_per_unit < 40:
            raise ValueError("grid_per_unit too coarse for the diagnostics")
        try:
            points = (self.t_max - self.epsilon) * self.grid_per_unit
        except OverflowError:   # a grid_per_unit beyond the float range
            points = math.inf
        if not points <= MAX_GRID_POINTS:
            raise ValueError(f"output grid too large: (t_max - epsilon) * "
                             f"grid_per_unit = {points:.6g} points, at most "
                             f"{MAX_GRID_POINTS}")

    @property
    def classification(self) -> str:
        if self.lam > 0:
            return "shrinking"
        if self.lam < 0:
            return "expanding"
        return "steady"


def _reduced_kernel(params: AnsatzParams, a, ap, b, bp, phip):
    """The reduced system: ``(s_a, s_b, phi'') = (a''/a, b''/b, phi'')``.

    Plain arithmetic, so the same code runs on floats (the ODE right side)
    and on arrays (the grid diagnostics).  For k = 0 the a-arguments are
    not read and ``s_a`` is 0.
    """
    k, m, lam = params.k, params.m, params.lam
    s_b = (m - 1) * (1.0 - bp * bp) / (b * b)
    if k < 1:
        s_a = 0.0
    else:
        s_a = ((k - 1) * (1.0 - ap * ap) / (a * a)
               - m * ap * bp / (a * b) + phip * ap / a - lam)
        s_b = s_b - k * ap * bp / (a * b)
    s_b = s_b + phip * bp / b - lam
    return s_a, s_b, lam + k * s_a + m * s_b


def _series_start(params: AnsatzParams):
    """Series state (a, a', b, b', phi') at t = epsilon for any k.

    The odd/even series a = t + a3 t^3, b = b0 + b2 t^2, phi' = 2 phi2 t
    of the smooth closure at t = 0; for k = 0, a3 = 0 and phi2 is fixed by
    the b-series, and the a-slots are meaningless.  Raises ``ValueError``
    when epsilon is too large for the truncated series to be trustworthy,
    when the start is not finite or not inside the blow-up box, every
    component below ``_BLOWUP_LIMIT`` in size (an epsilon whose cube
    underflows hides huge coefficients from the tail estimate, and a huge
    b0 starts outside the box, where the blow-up event cannot fire), or
    when its b or (for k >= 1) its a is at or below ``_POSITIVITY_FLOOR``:
    the right side clamps them at ``_EVAL_FLOOR`` and the events read them
    as a degeneration, so such a start would integrate another system.  A
    start it returns lies inside the box with a and b above the floor, at
    an epsilon of at most 1e-8 ** (1/3), about 2.2e-3 (and, for k >= 1,
    above about 1e-6).
    """
    k, m, lam, b0 = params.k, params.m, params.lam, params.b0
    b2 = ((m - 1) / b0 - lam * b0) / (2.0 * (k + 1))
    if k >= 1:
        phi2 = params.phi2
        a3 = (2.0 * phi2 - 2.0 * m * b2 / b0 - lam) / (6.0 * k)
    else:
        a3 = 0.0
        phi2 = 0.5 * (lam + 2.0 * m * b2 / b0)
    eps = params.epsilon
    tail = max(abs(a3), abs(b2), abs(phi2), 1.0) * eps ** 3
    if tail > 1e-8:
        raise ValueError(
            f"epsilon={eps:g} too large: series tail estimate {tail:.2e} > 1e-8")
    start = (eps + a3 * eps ** 3,
             1.0 + 3.0 * a3 * eps ** 2,
             b0 + b2 * eps ** 2,
             2.0 * b2 * eps,
             2.0 * phi2 * eps)
    if not all(abs(value) < _BLOWUP_LIMIT for value in start):
        raise ValueError(f"epsilon={eps:g}: the series start {start} is not "
                         f"inside the blow-up box |y| < {_BLOWUP_LIMIT:g}")
    coefficients = ({"a": start[0], "b": start[2]} if k >= 1
                    else {"b": start[2]})
    if min(coefficients.values()) <= _POSITIVITY_FLOOR:
        values = ", ".join(f"{name} = {value:.6g}"
                           for name, value in coefficients.items())
        raise ValueError(f"epsilon={eps:g}: the series start ({values}) is "
                         f"not above the positivity floor "
                         f"{_POSITIVITY_FLOOR:g}, where a profile degenerates")
    return start


def _rhs_with_phi(params: AnsatzParams):
    """The integrator's right side ``rhs(y)`` for ``params``.

    The one right side of the reduced system.  The state carries phi next
    to it: (a, a', b, b', phi, phi') for k >= 1 and (b, b', phi, phi') for
    k = 0, and ``rhs`` returns the state's derivative, phi' in phi's slot.
    Runge-Kutta stages may probe past a degeneration before the terminal
    event localizes it, so a and b are clamped at ``_EVAL_FLOOR`` as
    ``max(a, floor)`` clamps (a NaN stays NaN) and the right side stays
    evaluable below the event floor.  The system is autonomous, so ``rhs``
    takes no time.  :func:`_dop853` hands it a state as a list of Python
    floats: IEEE arithmetic gives the same bits as on ``np.float64``
    scalars at a fraction of the per-call cost.  It returns a list, which
    :func:`_dop853` writes into its stage table as it is.
    """
    floor = _EVAL_FLOOR
    if params.k >= 1:
        def rhs(y):
            a, ap, b, bp, _, phip = y
            a = floor if floor > a else a
            b = floor if floor > b else b
            s_a, s_b, phipp = _reduced_kernel(params, a, ap, b, bp, phip)
            return [ap, a * s_a, bp, b * s_b, phip, phipp]
        return rhs

    def rhs(y):
        b, bp, _, phip = y
        b = floor if floor > b else b
        _, s_b, phipp = _reduced_kernel(params, None, None, b, bp, phip)
        return [bp, b * s_b, phip, phipp]
    return rhs


def _horner(rows, y_old, x):
    """The DOP853 dense-output polynomial of a step at ``x = (t - t_old)/h``.

    ``rows`` yields the rows ``F[-1], ..., F[0]`` of the step's coefficient
    table.  ``Dop853DenseOutput._call_impl``'s operations in its order, so
    every value has its bits (``1 - x`` is formed once; it has the same
    bits each time).  The one implementation of the polynomial: a
    profile's columns (:func:`_evaluate`) call it with one coefficient row
    and one ``x`` per time, and :meth:`_Row.accept` for locating events.
    """
    y = np.zeros_like(y_old)
    u = 1 - x
    for i, f in enumerate(rows):
        y += f
        y *= x if i % 2 == 0 else u
    return y + y_old


def _locate(steps, t):
    """``(idx, x)``: the step of each time in a profile's ``_steps`` and
    ``(t - t_old) / h``.  The step ``OdeSolution`` would choose: the first
    whose end is >= t (``searchsorted(side="left")``), so a step end,
    the leg switch among them, goes to the earlier step, and times outside
    the span go to the first or last step."""
    ends, t_old, h, _ = steps
    idx = np.minimum(np.searchsorted(ends, t, side="left"), ends.size - 1)
    return idx, (t - t_old[idx]) / h[idx]


def _evaluate(steps, name: str, idx, x):
    """State column ``name`` at the times that :func:`_locate` placed:
    :func:`_horner` with one coefficient row and one ``x`` per time, so a
    column has the bits of ``solve_ivp``'s dense output."""
    y_old, rows = steps[3][name]
    return _horner(rows[:, idx], y_old[idx], x)


def _state_columns(k: int):
    """The names of the state columns of a k profile, in its state order."""
    return GRID_COLUMNS[1:] if k >= 1 else GRID_COLUMNS[3:]


def _csv_header(k: int):
    """The header row of a k step table: each step's start ``t`` and state
    there, its size ``h``, then the coefficient rows ``F0`` to ``F6``."""
    names = _state_columns(k)
    return ("t", *names, "h",
            *(f"F{j}.{name}" for j in range(_N_COEFFS) for name in names))


@dataclass
class SolitonProfile:
    """A profile: its parameters, its step table and its outcome.

    The step table of the DOP853 run from ``params.epsilon`` to
    ``end_time``: step i starts at ``t_old[i]`` with the state
    ``y_old[i]`` (a, a', b, b', phi, phi' for k >= 1, the last four for
    k = 0), has the size ``h[i]`` and the coefficient rows ``F[i]`` of its
    polynomial (see :func:`_horner`), and ends where step i + 1 starts or,
    the last one, at ``end_time``.  Construction refuses (``ValueError``)
    a ``status`` other than those of ``_STATUSES`` and a table that is
    not one piecewise polynomial over that span: see :meth:`_check_steps`.

    The grid columns ``GRID_COLUMNS`` are samples of the polynomials on
    the uniform grid of ``grid_per_unit`` rows per unit of t
    (``a``/``a_prime`` NaN-filled for k = 0), and ``mu``, ``res_tt``,
    ``res_sk`` (NaN for k = 0) and ``res_sm`` are derived from them by
    :func:`_diagnostics`, so corrupted coefficients show in them.  These
    views, the polynomials' arrays and the interpolants are each computed
    once per object, on first read (``functools.cached_property``); a
    ``dataclasses.replace`` copy computes its own.
    """

    params: AnsatzParams
    t_old: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    F: np.ndarray
    status: str
    end_time: float

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"profile status {self.status!r} is not one of "
                             f"{', '.join(_STATUSES)}")
        self._check_steps()

    def _check_steps(self):
        """Raise ``ValueError`` unless the step table is one piecewise
        polynomial from epsilon to ``end_time``: at least one step, arrays
        of the shapes of the params' k, finite numbers, ``t`` strictly
        increasing from epsilon, ``h`` positive, each step ending within 4
        ulps of where the next starts, and ``end_time`` in the last step
        and at most ``t_max``.  Every shot profile ends by ``t_max``, and
        :class:`AnsatzParams` bounds the grid up to ``t_max``, so this
        bounds the grid of every table, shot or loaded.  The messages name
        the columns of :meth:`to_csv`."""
        k, eps = self.params.k, self.params.epsilon
        n = len(_state_columns(k))
        shapes = [np.shape(x) for x in (self.t_old, self.h, self.y_old, self.F)]
        s = shapes[0][0] if len(shapes[0]) == 1 else 0
        if s < 1 or shapes != [(s,), (s,), (s, n), (s, _N_COEFFS, n)]:
            raise ValueError(
                f"profile step table of a k = {k} profile needs t_old, h, "
                f"y_old of {n} and F of {_N_COEFFS} x {n} values per step, "
                f"at least one step; got the shapes {shapes}")
        t_old, h = self.t_old, self.h
        if not (np.isfinite(t_old).all() and (np.diff(t_old) > 0).all()):
            raise ValueError("profile column t is not finite and strictly "
                             "increasing")
        finite = np.isfinite(self._table()).all(axis=0)
        if not finite.all():
            raise ValueError(f"profile column {_csv_header(k)[finite.argmin()]}"
                             " has a non-finite value")
        if not (h > 0).all():
            raise ValueError("profile column h is not positive")
        if t_old[0] != eps:
            raise ValueError(f"profile column t starts at {t_old[0]:.17g}, "
                             f"not at epsilon = {eps:.17g}")
        ends = t_old + h
        apart = np.abs(ends[:-1] - t_old[1:]) > 4 * np.spacing(np.abs(t_old[1:]))
        if apart.any():
            i = int(apart.argmax())
            raise ValueError(f"profile steps {i} and {i + 1} do not meet: "
                             f"step {i} ends at {ends[i]:.17g}, step {i + 1} "
                             f"starts at {t_old[i + 1]:.17g}")
        if not self.end_time <= self.params.t_max:
            raise ValueError(f"profile end_time {self.end_time:.17g} is not "
                             f"at most its t_max = {self.params.t_max:.17g}")
        if not t_old[-1] < self.end_time <= ends[-1] + 4 * np.spacing(ends[-1]):
            raise ValueError(f"profile end_time {self.end_time:.17g} does not "
                             f"lie in its last step [{t_old[-1]:.17g}, "
                             f"{ends[-1]:.17g}]")

    def _table(self) -> np.ndarray:
        """The step table as the rows of :meth:`to_csv`: per step t_old,
        y_old, h and F (row by row)."""
        return np.column_stack([self.t_old, self.y_old, self.h,
                                self.F.reshape(len(self.t_old), -1)])

    @cached_property
    def _steps(self):
        """``(ends, t_old, h, columns)``: the step ends, starts and sizes,
        and by name each state column's ``y_old`` and rows ``F[-1], ...,
        F[0]``, contiguous over the steps."""
        rows = self.F[:, ::-1].T   # column, F[-1] ... F[0], step
        return (np.append(self.t_old[1:], self.end_time), self.t_old, self.h,
                {name: (np.ascontiguousarray(self.y_old[:, c]),
                        np.ascontiguousarray(rows[c]))
                 for c, name in enumerate(_state_columns(self.params.k))})

    @cached_property
    def t(self) -> np.ndarray:
        """The uniform grid of ``grid_per_unit`` rows per unit from epsilon
        to ``end_time``, at least 16 rows; ``np.linspace`` stores both
        ends exactly."""
        eps, per_unit = self.params.epsilon, self.params.grid_per_unit
        rows = int(np.ceil((self.end_time - eps) * per_unit)) + 1
        return np.linspace(eps, self.end_time, max(rows, 16))

    @cached_property
    def _grid_steps(self):
        """The grid's steps (:func:`_locate`), which its columns share."""
        return _locate(self._steps, self.t)

    def _column(self, name: str) -> np.ndarray:
        """Column ``name`` sampled on the grid; NaN where k lacks it."""
        if name not in self._steps[3]:
            return np.full_like(self.t, np.nan)
        return _evaluate(self._steps, name, *self._grid_steps)

    a = cached_property(lambda self: self._column("a"))
    a_prime = cached_property(lambda self: self._column("a_prime"))
    b = cached_property(lambda self: self._column("b"))
    b_prime = cached_property(lambda self: self._column("b_prime"))
    phi = cached_property(lambda self: self._column("phi"))
    phi_prime = cached_property(lambda self: self._column("phi_prime"))

    @cached_property
    def _derived(self):
        """``(mu, res_tt, res_sk, res_sm)`` of :func:`_diagnostics`."""
        return _diagnostics(self.params, self.t, self.a, self.a_prime, self.b,
                            self.b_prime, self.phi_prime)

    mu = property(lambda self: self._derived[0])
    res_tt = property(lambda self: self._derived[1])
    res_sk = property(lambda self: self._derived[2])
    res_sm = property(lambda self: self._derived[3])

    @property
    def lam(self) -> float:
        return self.params.lam

    @property
    def mu_mean(self) -> float:
        return float(self.mu.mean())

    @property
    def mu_spread(self) -> float:
        return float(self.mu.max() - self.mu.min())

    @property
    def classification(self) -> str:
        return self.params.classification

    @cached_property
    def _interpolants(self):
        # closures over the step arrays: one over self, cached in self,
        # would hold each profile in a cycle until the cyclic collector runs
        steps = self._steps

        def function(name):
            def evaluate(t):
                return _evaluate(steps, name,
                                 *_locate(steps, np.asarray(t, dtype=float)))
            return evaluate

        return (function("a") if "a" in steps[3] else None, function("b"),
                function("phi"))

    def interpolants(self):
        """``(a, b, phi)``: the stored polynomials of the a, b and phi
        columns as callables of t (arrays or numbers), built once and
        cached.  They have the bits of the dense output of the run the
        profile was shot from.  For k = 0 the a-slot is None."""
        return self._interpolants

    # -- serialization ------------------------------------------------------

    def to_csv(self, path=None) -> str:
        """Profile as CSV text (written to ``path`` when given).

        Three header lines (schema version, params, status and end time),
        the header row of :func:`_csv_header` and one row per step.  A
        cell is the 16 lowercase hex digits of its float64 bits, most
        significant first (``struct.pack(">d", x).hex()``), so the round
        trip is exact.
        """
        header = _csv_header(self.params.k)
        parts = [
            f"# schema_version={PROFILE_SCHEMA_VERSION}\n",
            "# params=" + json.dumps(asdict(self.params), sort_keys=True) + "\n",
            f"# status={self.status} end_time={self.end_time:.17g}\n",
            ",".join(header) + "\n",
        ]
        parts += (bytes(row).hex(",", 8) + "\n"
                  for row in self._table().astype(">f8"))
        text = "".join(parts)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_csv(cls, path) -> "SolitonProfile":
        """Read a profile file written by :meth:`to_csv`.

        Raises ``OSError`` when the file cannot be read and ``ValueError``
        on a malformed or wrong-version profile (see :meth:`parse_csv`).
        """
        with open(path) as fh:
            return cls.parse_csv(fh.read())

    @classmethod
    def parse_csv(cls, text: str) -> "SolitonProfile":
        """Parse profile CSV text written by :meth:`to_csv`.

        Raises ``ValueError`` on a malformed or wrong-version profile: a
        missing or bad header line, a schema 1, 2 or 3 file (re-run
        ``solve``), a params line that is not an object of fields that
        :class:`AnsatzParams` accepts (which bounds the grid up to
        ``t_max``, before the data rows are read), a header row not of the
        params' k, a data row that is not one word of 16 lowercase hex
        digits per column, or a status or step table that construction
        refuses (an unknown status, a NaN or inf bit pattern, or an
        ``end_time`` past ``t_max``, among them).
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# schema_version="):
            raise ValueError("not a profile CSV: missing schema_version line")
        version = int(lines[0].split("=", 1)[1])
        if version in (1, 2, 3):
            raise ValueError(
                f"profile schema_version {version} is no longer read; re-run "
                f"'solve' to write schema_version {PROFILE_SCHEMA_VERSION}, "
                "the DOP853 step table in float64 bit words")
        if version != PROFILE_SCHEMA_VERSION:
            raise ValueError(f"unsupported profile schema_version {version}")
        if len(lines) < 2 or not lines[1].startswith("# params="):
            raise ValueError("profile CSV missing params line")
        raw = json.loads(lines[1].split("=", 1)[1])
        if not isinstance(raw, dict):
            raise ValueError("profile CSV params line is not an object")
        try:
            params = AnsatzParams(**raw)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"profile CSV has bad params: {exc}") from exc
        status_line = lines[2] if len(lines) > 2 else ""
        part = status_line[2:].split()
        if (not status_line.startswith("# status=") or len(part) != 2
                or not part[1].startswith("end_time=")):
            raise ValueError("profile CSV has a missing or malformed status line")
        status = part[0].split("=", 1)[1]
        end_time = float(part[1].split("=", 1)[1])
        header = _csv_header(params.k)
        if len(lines) < 4 or tuple(lines[3].split(",")) != header:
            raise ValueError("profile CSV has an unexpected header row for "
                             f"k = {params.k}")
        data, commas = lines[4:], "," * (len(header) - 1)
        digits = "".join(data).replace(",", "")
        try:
            cells = bytes.fromhex(digits)
        except ValueError:
            cells = b""
        # fromhex skips whitespace and reads upper case: hex() undoes neither
        if not data or any(len(ln) != 17 * len(header) - 1
                           or ln[16::17] != commas for ln in data) \
                or cells.hex() != digits:
            raise ValueError("profile CSV has malformed data rows: expected "
                             f"{len(header)} words of 16 lowercase hex digits")
        rows = np.frombuffer(cells, ">f8").astype(float).reshape(len(data), -1)
        n = len(_state_columns(params.k))
        return cls(params=params, t_old=rows[:, 0], y_old=rows[:, 1:1 + n],
                   h=rows[:, 1 + n],
                   F=rows[:, 2 + n:].reshape(len(rows), _N_COEFFS, n),
                   status=status, end_time=end_time)


def _diagnostics(params: AnsatzParams, t, a, ap, b, bp, phip):
    """A profile's derived series ``(mu, res_tt, res_sk, res_sm)``.

    The first-integral series and the per-equation residual columns, by
    grid finite differences of the state arrays.  b'' is obtained by
    differentiating the b' array; with b'' from the right side the first
    integral collapses to the constant m - 1 identically and the
    conservation check would be vacuous.  The stencils take one step,
    ``t[1] - t[0]``, for the whole grid: ``t`` is the uniform
    ``np.linspace`` grid of :attr:`SolitonProfile.t`.
    """
    k, m, lam = params.k, params.m, params.lam
    dt = t[1] - t[0]
    s_a, s_b, phipp_rhs = _reduced_kernel(params, a, ap, b, bp, phip)
    bpp_fd = grid_derivative(bp, dt)
    res_tt = grid_derivative(phip, dt) - phipp_rhs
    res_sm = bpp_fd - b * s_b
    if k >= 1:
        res_sk = grid_derivative(ap, dt) - a * s_a
    else:
        res_sk = np.full_like(t, np.nan)
    lap_b = bpp_fd + (k * (ap / a) * bp if k >= 1 else 0.0)
    mu = lam * b * b + b * lap_b + (m - 1) * bp * bp - b * phip * bp
    return mu, res_tt, res_sk, res_sm


# the origin launch layer amplifies start-state errors by roughly 1/t^2
# along a transverse mode, so the leg up to _LAUNCH_END is integrated at a
# fixed tight tolerance regardless of the requested one
_LAUNCH_END = 0.1
_LAUNCH_TOL = 1e-13


@dataclass
class _Run:
    """One row's :func:`_dop853` run over all of its legs.

    ``t`` is the start followed by the accepted step ends, the last
    replaced by a terminal event's root; step ``i`` starts at ``t[i]`` and
    carries the dense output polynomial ``t[i]``, ``h[i]``, ``F[i]``,
    ``y_old[i]`` (see :func:`_horner`).  ``status`` is ``solve_ivp``'s: 0
    at the end of the last leg, 1 at the terminal event ``event`` (its
    index), -1 on a step size that underflowed or at ``MAX_STEPS``
    accepted steps, which ``message`` names.  ``nfev`` counts the
    right-side calls of the whole run and ``rejected`` its rejected step
    attempts: a run of s accepted steps and no event calls the right side
    1 + 15 s + 12 ``rejected`` times.
    """

    t: np.ndarray
    h: np.ndarray
    F: np.ndarray
    y_old: np.ndarray
    nfev: int
    status: int
    event: int | None = None
    message: str | None = None
    rejected: int = 0


_EPS = float(np.finfo(float).eps)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_ERROR_EXPONENT = -1 / (DOP853.error_estimator_order + 1)
_N_STAGES, _N_EXTRA = DOP853.n_stages, len(DOP853.C_EXTRA)
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."
# accepted steps of one row, both legs; a row that needs more ends in
# IntegrationError.  Sized from memory and file: a k >= 1 step is 850
# bytes of profile.csv and about 0.5 KB of records while its batch runs,
# so a capped row writes about 8.5 MB and a full 32-row batch holds about
# 160 MB.  Without a cap stiff and degenerating rows are unbounded: an
# expanding row's steps grow as |lambda| t_max^2 (k1m2 with lambda -1:
# 972 to t_max 100, 7,208 to 300, 78,301 to 1000), and k0m2 with lambda 2
# at rtol 1e-15 takes 143,554 steps (19 s) to its hit_b_zero.  No row of
# the test suite takes more than 703, far below it even with the 28-46%
# more steps of the default tolerances moved to 1e-12.
MAX_STEPS = 10_000


def _check_run(t0, legs, y0):
    """Refuse a run that :func:`_dop853` cannot start, as ``solve_ivp``
    would: ``ValueError`` unless it has a leg, each leg ends past the
    previous end (the first past ``t0``) and ``y0`` is finite."""
    ends = [t0] + [leg[0] for leg in legs]
    if not legs or not all(t1 > t for t, t1 in zip(ends, ends[1:])):
        raise ValueError(f"integration runs forward only: need each leg to "
                         f"end past the last, got t0={t0!r}, ends {ends[1:]}")
    if not np.isfinite(y0).all():
        raise ValueError(
            "All components of the initial state `y0` must be finite.")


class _Row:
    """A row of a :func:`_dop853` run between two step attempts.

    Its right side, legs, t, step size, accept/reject state, counts and
    record, the t, h, F and y_old of its accepted steps.  Whichever loop
    makes an attempt, the row starts it (:meth:`begin`), controls its
    step size (:meth:`control`) and books it when accepted
    (:meth:`accept`), so a row's steps do not depend on the loop or on
    a move from one loop to the other between two attempts.  ``run`` is
    None while the row runs, then its :class:`_Run`, or the exception
    that ``brentq`` raised for it.
    """

    __slots__ = ("fun", "legs", "t", "t_new", "t_end", "rtol", "atol",
                 "h_abs", "min_step", "fresh", "step_rejected", "nfev",
                 "rejected", "record", "run")

    def __init__(self, fun, t0, legs):
        self.fun, self.legs, self.t = fun, iter(legs), float(t0)
        self.fresh, self.step_rejected = True, False
        self.nfev, self.rejected = 1, 0
        self.record = ([self.t], [], [], [])
        self.run = None
        self.next_leg()

    def next_leg(self) -> bool:
        """Take the next leg ``(t_end, rtol, atol, first_step)``, its
        ``rtol`` raised to 100 eps as scipy does; False if none is left."""
        leg = next(self.legs, None)
        if leg is not None:
            self.t_end, rtol, self.atol, self.h_abs = map(float, leg)
            self.rtol = max(rtol, 100 * _EPS)
        return leg is not None

    def begin(self) -> float:
        """Start an attempt as ``DOP853._step_impl`` does and return its
        size h: the first attempt of a step sets the least step size and
        raises the step size to it, and an attempt ends at most at the
        end of the leg."""
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

    def accept(self, h, F, y_old, g_old, g, events) -> bool:
        """Book the accepted attempt of size ``h``: its dense-output table
        ``F``, its start ``y_old`` and the terminal event values ``g_old``
        at its start and ``g`` at its end.  True if the row took its next
        leg, with new tolerances.

        The earliest root of an event that changed sign, located by
        ``brentq`` on the step's polynomial, ends the row there; so do the
        end of its last leg and its ``MAX_STEPS``-th accepted step short
        of that.  The end of an earlier leg starts the next one, as
        ``solve_ivp`` restarted there would, but with no right-side call:
        f there is the step's last stage.
        """
        self.nfev += _N_EXTRA
        self.fresh = True
        t_old, self.t = self.t, self.t_new
        status = 0 if self.t >= self.t_end else None
        event, t_step = None, self.t
        active = [e for e, (lo, hi) in enumerate(zip(g_old, g))
                  if lo <= 0 <= hi or lo >= 0 >= hi]
        if active:
            F, y_old = np.asarray(F), np.asarray(y_old)
            try:
                roots = [brentq(lambda s, e=e: events(_horner(
                                    F[::-1], y_old, (s - t_old) / h))[e],
                                t_old, self.t, xtol=4 * _EPS, rtol=4 * _EPS)
                         for e in active]
            except (ValueError, RuntimeError) as exc:
                self.run, self.record = exc, None   # this row alone ends
                return False
            first = np.argsort(roots)[0]
            status, event, t_step = 1, active[first], roots[first]
        ts, hs, Fs, y_olds = self.record
        # solve_ivp drops a step whose root is the last end
        if not (len(ts) > 1 and ts[-1] == t_step):
            ts.append(t_step)
            hs.append(h)
            Fs.append(F)
            y_olds.append(y_old)
        switched = status == 0 and self.next_leg()
        if status is not None and not switched:
            self._finish(status, event)
        elif len(hs) >= MAX_STEPS:
            self._finish(-1, message=(
                f"MAX_STEPS = {MAX_STEPS} accepted steps reached at "
                f"t = {self.t:.6g} before the end of the span"))
        return switched

    def _finish(self, status, event=None, message=None):
        """End the row: its :class:`_Run` from its record and counts."""
        ts, hs, Fs, y_olds = self.record
        self.run = _Run(t=np.array(ts), h=np.array(hs), F=np.array(Fs),
                        y_old=np.array(y_olds), nfev=self.nfev, status=status,
                        event=event, message=message, rejected=self.rejected)
        self.record = None


def _dop853(funs, t0, y0, legs, events):
    """Integrate a batch of rows of ``y' = f(y)`` with DOP853.

    The method of Hairer, Norsett & Wanner, *Solving ODEs I*, II.10, as
    ``solve_ivp(method="DOP853", dense_output=True, events=...)`` runs it
    on each row alone: the operations of scipy's ``DOP853._step_impl``,
    ``rk_step``, ``_estimate_error_norm`` and ``_dense_output_impl`` in
    their order, on the coefficients of ``scipy.integrate.DOP853``, so
    every row's steps, dense output and event roots have ``solve_ivp``'s
    bits.  Row i runs ``y' = funs[i](y)`` from ``t0[i]`` and the state
    ``y0[i]`` (``y0`` is a rows x n array) through its ``legs[i]``, each
    ``(t_end, rtol, atol, first_step)``, and keeps its own t, step size,
    accept/reject state and events (a :class:`_Row`).  ``funs[i]`` maps
    the Python floats of a state to its derivative, a list.  ``events(Y)``
    gives the values of the terminal events (the last axis) of one state
    or of a stack of states.  Returns one :class:`_Run` per row, or the
    exception that ``brentq`` raised for it.

    Two or more rows step in lockstep (:func:`_lockstep`); a row alone,
    and the last row of a batch, steps on Python floats (:func:`_alone`).
    A row's bits depend neither on the other rows nor on the loop.
    Floating-point warnings are off inside the loops, since the values
    that a batch computes for its rejected rows are discarded.
    """
    for args in zip(t0, legs, y0):
        _check_run(*args)
    rows = [_Row(fun, t, row_legs) for fun, t, row_legs in zip(funs, t0, legs)]
    Y = np.array(y0, dtype=float)
    with np.errstate(all="ignore"):
        f = np.array([row.fun(y) for row, y in zip(rows, Y.tolist())],
                     dtype=float)
        g = events(Y).tolist()
        last = ((rows[0], Y[0].tolist(), f[0].tolist(), g[0])
                if len(rows) == 1 else _lockstep(rows, Y, f, g, events))
        if last is not None:
            _alone(*last, events)
    return [row.run for row in rows]


def _lockstep(rows, Y, f, g, events):
    """Step two or more ``rows`` in lockstep until at most one runs; return
    that one as ``(row, y, f, g)``, its state, derivative and event values
    as Python floats, or None if none is left.

    ``Y`` holds the rows' states, ``f`` their derivatives and ``g`` their
    event values.  Each pass makes one attempt for every running row.
    The stage sums ``K^T a``, the error estimates and the dense-output
    products ``D K`` are stacked products, ``np.matmul`` over the rows'
    own stage tables, which give each row the bits of its ``np.dot`` (one
    BLAS call per row; folding the rows into one wide product would not).
    The rest of a step is elementwise IEEE arithmetic.
    """
    M = DOP853
    n = Y.shape[1]
    K_ext = np.empty((len(rows), _N_STAGES + 1 + _N_EXTRA, n))
    K_ext[:, 0] = f
    live = rows

    def batch():
        """The right side, tolerances and stage views of the rows
        ``live``, whose stage tables ``K_ext`` holds."""
        row_funs = [row.fun for row in live]

        def fun(Y):
            return [f(y) for f, y in zip(row_funs, Y.tolist())]

        def stage(s):   # its rows, and the stage table before it as columns
            return K_ext[:, s], K_ext[:, :s].swapaxes(-1, -2)

        return (fun, tolerances(),
                [(*stage(s), a[:s]) for s, a in enumerate(M.A[1:], start=1)],
                [(*stage(s), a[:s])
                 for s, a in enumerate(M.A_EXTRA, start=_N_STAGES + 1)],
                stage(_N_STAGES), stage(_N_STAGES + 1)[1])

    def tolerances():
        return (np.array([[row.atol] for row in live]),
                np.array([[row.rtol] for row in live]))

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
        switched = False
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
            g_old, g = g, events(Y).tolist()
            for j in accepted:
                switched |= live[j].accept(h[j], F[j], Y_old[j], g_old[j],
                                           g[j], events)
        keep = [j for j, row in enumerate(live) if row.run is None]
        if len(keep) < 2:
            return next(((live[j], Y[j].tolist(), K_ext[j, 0].tolist(), g[j])
                         for j in keep), None)
        if len(keep) < len(live):   # rows ended: the batch shrinks
            live, Y, K_ext = [live[j] for j in keep], Y[keep], K_ext[keep]
            g = [g[j] for j in keep]
            fun, (atol, rtol), stages, extra, (K_last, K_B), K_E = batch()
        elif switched:   # the tolerances of the batch are its rows' legs'
            atol, rtol = tolerances()


def _alone(row, y, f, g, events):
    """Step ``row`` alone to its end from the state ``y`` at its t, with
    the derivative ``f`` and the event values ``g`` there (lists of Python
    floats).

    The elementwise part of a step is IEEE arithmetic on Python floats,
    which round as numpy's ufuncs do: the stage states, ``y_new``, the
    error scale (whose maximum keeps a NaN, as ``np.maximum`` does), the
    quotients of the error estimates, and the first three rows of the
    dense-output table.  numpy makes only the products that scipy
    reduces, the stage sums, the error estimates, the norms' dot products
    and ``D K``, called as bound ``ndarray.dot`` methods: ``np.dot``'s
    routine, so they have its bits, at less cost per call.  A positive
    ``atol`` (as :class:`AnsatzParams` requires) keeps every scale
    positive, so no quotient divides by zero, which would raise here.
    """
    M = DOP853
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
    while row.run is None:
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
        g_old, g = g, events(np.array(y_new)).tolist()
        row.accept(h, F, y, g_old, g, events)
        y, f = y_new, f_new
        K[0] = f


def _events(k):
    """``(events, outcomes)``: the terminal events of the state of a k row
    and the profile status each gives.

    ``events(Y)`` has one column per event, in solve_ivp's order, which
    breaks ties between equal roots: b and (for k >= 1) a reach the
    positivity floor, and the state leaves the blow-up box.  ``Y`` may be
    one state or a rows x n array.  :func:`_series_start` refuses a start
    at or below the floor or outside the box, so every event starts
    positive and fires only by falling to zero: no event needs a
    direction.
    """
    floors = slice(2, None, -2) if k >= 1 else slice(0, 1)   # (b, a) or b

    def events(Y):
        g = np.empty(Y.shape[:-1] + (3 if k >= 1 else 2,))
        g[..., :-1] = Y[..., floors] - _POSITIVITY_FLOOR
        g[..., -1] = _BLOWUP_LIMIT - np.abs(Y).max(axis=-1)
        return g

    return events, _STATUSES[1:] if k >= 1 else _STATUSES[1::2]


def _integrate(rows):
    """The DOP853 runs of a batch of ``rows``: one outcome per row.

    ``rows`` are AnsatzParams sharing a state size (all k >= 1 or all
    k = 0), each with its own epsilon, t_max, rtol and atol.  A row's run
    has two legs: the launch leg up to ``t_switch = min(_LAUNCH_END,
    t_max)`` at tolerances of at most ``_LAUNCH_TOL`` and, when
    ``t_switch < t_max``, the rest of the span at the requested ones.  Its
    outcome is ``(run, status, t_end)``, the status and end from the
    run's terminal event, if any; or the exception of a row that cannot
    run: the ``ValueError`` of a refused series start, or the
    ``IntegrationError`` of a step size that underflowed, of a run that
    reached ``MAX_STEPS`` or of an event that ``brentq`` failed to
    locate.  A start that ``_series_start`` returns lies inside the
    blow-up box, its a and b above the positivity floor, and its epsilon
    below ``_LAUNCH_END`` and ``t_max``, so
    :func:`_dop853` accepts every row and every event starts positive.
    The rows are one :func:`_dop853` batch, each run with the bits of its
    row integrated alone, whatever the other rows do.
    """
    events, outcomes = _events(rows[0].k)
    results = [None] * len(rows)
    launch, starts, legs = [], [], []
    for i, p in enumerate(rows):
        try:
            a, ap, b, bp, phip = _series_start(p)
        except ValueError as exc:
            results[i] = exc
            continue
        launch.append(i)
        starts.append([a, ap, b, bp, 0.0, phip] if p.k >= 1
                      else [b, bp, 0.0, phip])
        t_switch = min(_LAUNCH_END, p.t_max)
        spans = [(p.epsilon, t_switch, min(p.rtol, _LAUNCH_TOL),
                  min(p.atol, _LAUNCH_TOL))]
        if t_switch < p.t_max:
            spans.append((t_switch, p.t_max, p.rtol, p.atol))
        # a capped first step keeps the dense output tight where the
        # differentiated diagnostics are most sensitive
        legs.append([(t1, rtol, atol, min(1e-3, 0.01 * (t1 - t0)))
                     for t0, t1, rtol, atol in spans])
    if not launch:
        return results
    for i, run in zip(launch, _dop853(
            [_rhs_with_phi(rows[i]) for i in launch],
            [rows[i].epsilon for i in launch], np.array(starts), legs,
            events)):
        if isinstance(run, Exception):   # raised by brentq
            results[i] = IntegrationError(f"event location failed: {run}")
        elif run.status == -1:
            results[i] = IntegrationError(f"integrator failed: {run.message}")
        elif run.status == 1:
            results[i] = (run, outcomes[run.event], float(run.t[-1]))
        else:
            results[i] = (run, "completed", float(rows[i].t_max))
    return results


def _profile(params: AnsatzParams, outcome) -> SolitonProfile:
    """The profile of a row's :func:`_integrate` outcome: raises the row's
    exception, or stores the steps of its run as its step table."""
    if isinstance(outcome, Exception):
        raise outcome
    run, status, t_end = outcome
    return SolitonProfile(params=params, t_old=run.t[:-1], h=run.h,
                          y_old=run.y_old, F=run.F, status=status,
                          end_time=t_end)


def shoot(params: AnsatzParams) -> SolitonProfile:
    """Integrate the reduced system from the series start.

    Adaptive eighth-order explicit integration to ``t_max`` or until a
    metric coefficient degenerates or the state blows up; the returned
    profile records the outcome in ``status`` and ``end_time``.  phi is
    gauge-normalized to phi(epsilon) = 0.

    A batch of one row: one run of the one-row DOP853 loop
    (:func:`_dop853`, :func:`_alone`) on the closure of
    :func:`_rhs_with_phi`, over the launch leg and, unless the row ends in
    it, the rest of the span (:func:`_integrate`), with the steps and bits
    of ``scipy.integrate.solve_ivp`` restarted at the leg switch.  Raises
    ``ValueError`` for parameters it refuses (a refused series start;
    :class:`AnsatzParams` refuses the rest when built), and
    :class:`IntegrationError` when the step size underflows, the run
    reaches ``MAX_STEPS`` accepted steps short of its end, or an event
    cannot be located.
    """
    [outcome] = _integrate([params])
    return _profile(params, outcome)


# ---------------------------------------------------------------------------
# certification of profiles
# ---------------------------------------------------------------------------

def profile_geometry(profile: SolitonProfile, h: float = 1e-3):
    """Warped geometry carrying a profile's data: the ansatz itself.

    The base patch is dt^2 + a^2 g_{S^k} over the profile span, the fiber
    the unit m-sphere, the warping b(t) and the potential phi(t), all read
    from the stored polynomials of the a, b and phi columns
    (:meth:`SolitonProfile.interpolants`); nothing is derived from the
    profile's diagnostics.
    """
    if profile.b.min() <= 0 or (profile.params.k >= 1 and profile.a.min() <= 0):
        raise GeometryError("profile has nonpositive metric coefficients")
    params = profile.params
    k = params.k
    a_s, b_s, phi_s = profile.interpolants()
    base = radial_profile_base(
        a_s, k, (float(params.epsilon) + 8 * h,
                 float(profile.end_time) - 8 * h),
        label=f"profile-base-k{k}")
    warp = ScalarField(lambda X: b_s(X[:, 0]), "b-warping")
    potential = ScalarField(lambda X: phi_s(X[:, 0]), "phi-potential")
    return WarpedGeometry(base=base, fiber=sphere_patch(params.m), f=warp,
                          phi=potential, lam=params.lam)


def ambient_radial_range(profile: SolitonProfile):
    """``(lo, hi)`` = (max(1.1 t_0, 0.05), 0.95 t_end): the radii of the
    profile span [epsilon, end_time] on which :func:`ambient_geometry` is
    valid."""
    return (max(float(profile.params.epsilon) * 1.1, 0.05),
            float(profile.end_time) * 0.95)


def ambient_geometry(profile: SolitonProfile):
    """``(base, f, phi)``: a profile's base metric, warping and potential in
    ambient Cartesian coordinates on R^{k+1}, where linear group actions
    act (the inputs of :func:`ricciwarp.quotient.certify_quotient`).

    The base is valid on the radii :func:`ambient_radial_range` of the
    profile span; for k = 0 it is the line.
    """
    a_s, b_s, phi_s = profile.interpolants()
    k = profile.params.k
    base = cartesian_profile_base(a_s if k >= 1 else np.ones_like, k,
                                  ambient_radial_range(profile),
                                  label="quotient-base")
    return base, radial_field(b_s, "warping"), radial_field(phi_s, "potential")


# base-angle samples of certify_profile lie within this share of each angle
# range around its middle; fiber samples keep this share from either end
_ANGLE_SPREAD = 0.25
_FIBER_MARGIN = 0.2


def certify_profile(profile: SolitonProfile,
                    h: float = 1e-3,
                    tolerance: float = 1e-5,
                    t_window=(0.2, 5.0),
                    n_base: int = 10,
                    n_product: int = 20,
                    n_fiber: int = 4,
                    seed: int = 0) -> CertificationReport:
    """Certify a profile as a warped soliton structure.

    The geometry from :func:`profile_geometry` is handed to the generic
    certification chain, including the finite-difference soliton residual
    of the full product metric, at sample points whose radial coordinates
    lie in ``t_window``.  Raises :class:`GeometryError` for a profile whose
    ``status`` is not ``completed``: near a degeneration or blow-up its
    polynomials need not keep b (or a) positive.  Raises
    :class:`CertificationWindowError`, before any residual is computed,
    when ``t_window`` and ``h`` leave no room inside the profile span, or
    when the stencils of step ``h`` do not fit between the base-angle and
    fiber samples and the chart boundaries, and ``ValueError`` for a step
    ``h`` that is not finite and positive or, at the samples, not above
    the float resolution (``fd.check_step``).
    """
    check_step(h)
    params = profile.params
    k, m = params.k, params.m
    if profile.status != "completed":
        raise GeometryError(
            f"profile status is '{profile.status}' (ended at t = "
            f"{profile.end_time:g}); only completed profiles are certified")
    # checked before any patch is built: the base chart of
    # profile_geometry needs the span minus 8 h at either end
    span = (float(params.epsilon), float(profile.end_time))
    t_lo = max(t_window[0], span[0] + 16 * h)
    t_hi = min(t_window[1], span[1] - 16 * h)
    if t_hi <= t_lo:
        raise CertificationWindowError(
            f"certification window {tuple(t_window)} with step h={h:g} does "
            f"not fit the profile span [{span[0]:g}, {span[1]:g}] (the "
            f"samples keep 16 h = {16 * h:g} from either end)")
    geom = profile_geometry(profile, h)
    base, fiber = geom.base, geom.fiber
    # the samples keep a share of each base-angle and fiber range from the
    # chart boundary; the curvature stencils need _MARGIN_SECOND h of it
    room = min([(0.5 - _ANGLE_SPREAD) * (hi - lo)
                for lo, hi in base.domain[1:]]
               + [_FIBER_MARGIN * (hi - lo) for lo, hi in fiber.domain])
    if _MARGIN_SECOND * h >= room:
        raise CertificationWindowError(
            f"certification step h={h:g} too large for the sample charts: "
            f"the stencils need {_MARGIN_SECOND} h = {_MARGIN_SECOND * h:g} "
            f"of room from the chart boundary, the base-angle and fiber "
            f"samples keep {room:.6g} (fiber chart '{fiber.label}')")

    rng = np.random.default_rng(seed)

    def base_points(count):
        ts = np.linspace(t_lo, t_hi, count)
        pts = np.empty((count, base.dim))
        pts[:, 0] = ts
        for j in range(1, base.dim):
            lo, hi = base.domain[j]
            mid, span = 0.5 * (lo + hi), _ANGLE_SPREAD * (hi - lo)
            pts[:, j] = mid + span * (2.0 * rng.random(count) - 1.0)
        return pts

    fiber_pts = _interior_points(fiber, n_fiber, rng, _FIBER_MARGIN)
    product_pts = np.hstack([base_points(n_product),
                             _interior_points(fiber, n_product, rng,
                                              _FIBER_MARGIN)])

    return certify_soliton(geom,
                           base_samples=base_points(n_base),
                           fiber_samples=fiber_pts,
                           product_samples=product_pts,
                           h=h,
                           tolerance=tolerance,
                           label=(f"profile(k={k},m={m},lam={params.lam:g},"
                                  f"b0={params.b0:g})"))


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One sweep result: shooting data, outcome, the first-integral
    statistics and the log-slopes of :func:`_log_slopes`."""

    k: int
    m: int
    lam: float
    b0: float
    status: str
    lifetime: float
    mu_mean: float
    mu_spread: float
    slope_a: float
    slope_b: float
    slope_a_mid: float
    slope_b_mid: float


def params_grid(ks, ms, lams, b0s, **common):
    """Cartesian parameter grid in deterministic (k, m, lam, b0) order."""
    out = []
    for k in ks:
        for m in ms:
            for lam in lams:
                for b0 in b0s:
                    out.append(AnsatzParams(k=k, m=m, lam=lam, b0=b0, **common))
    return out


# the names of the log-slopes, in the order of SweepRow and sweep.csv
_SLOPES = ("slope_a", "slope_b", "slope_a_mid", "slope_b_mid")


def _log_slopes(profile: SolitonProfile) -> dict:
    """The local log-slopes ``t y'/y`` of a and b on a profile's grid, by
    name (``_SLOPES``): ``slope_a`` and ``slope_b`` at its last row
    (``end_time``), ``slope_a_mid`` and ``slope_b_mid`` at its middle row
    (t about ``end_time / 2``).

    All are NaN unless the profile is ``completed``, and the a-slopes are
    NaN for k = 0, which has no a.  ``y ~ t^p`` has the slope p at every
    t; a negative end slope says the coefficient is shrinking at
    ``t_max``, and a drift between the middle and end slopes that the
    growth has not settled.  They read grid columns that the diagnostics
    derive anyway.
    """
    slopes = dict.fromkeys(_SLOPES, math.nan)
    if profile.status == "completed":
        t = profile.t
        for suffix, i in (("", t.size - 1), ("_mid", (t.size - 1) // 2)):
            slopes["slope_b" + suffix] = float(
                t[i] * profile.b_prime[i] / profile.b[i])
            if profile.params.k >= 1:
                slopes["slope_a" + suffix] = float(
                    t[i] * profile.a_prime[i] / profile.a[i])
    return slopes


def _sweep_row(params: AnsatzParams, outcome) -> SweepRow:
    """The sweep row of a row's :func:`_integrate` outcome."""
    try:
        prof = _profile(params, outcome)
    except (IntegrationError, GeometryError, ValueError) as exc:
        # one CSV field: whitespace runs (newlines included) become one
        # space and commas semicolons
        reason = " ".join(str(exc).split()).replace(",", ";")
        return SweepRow(params.k, params.m, params.lam, params.b0,
                        f"error:{type(exc).__name__}:{reason}", 0.0,
                        math.nan, math.nan, **dict.fromkeys(_SLOPES, math.nan))
    return SweepRow(params.k, params.m, params.lam, params.b0, prof.status,
                    prof.end_time, prof.mu_mean, prof.mu_spread,
                    **_log_slopes(prof))


# rows of one lockstep batch: bounds the stage tables and run records that
# a sweep holds at once, whatever the grid (cli.MAX_SWEEP_ROWS rows); a row
# of a few hundred steps records about 0.1 MB until it becomes a sweep row
_BATCH_ROWS = 32


def _sweep_rows(param_list) -> list:
    """The sweep rows of ``param_list``, in its order.

    The rows that share a state size (k >= 1, or k = 0) integrate in
    batches of up to ``_BATCH_ROWS`` rows, in the order of their first
    row; each batch's runs become sweep rows before the next batch starts.
    """
    out = [None] * len(param_list)
    groups = {}
    for i, params in enumerate(param_list):
        groups.setdefault(params.k >= 1, []).append(i)
    for idx in groups.values():
        for start in range(0, len(idx), _BATCH_ROWS):
            chunk = idx[start:start + _BATCH_ROWS]
            rows = [param_list[i] for i in chunk]
            for i, params, outcome in zip(chunk, rows, _integrate(rows)):
                out[i] = _sweep_row(params, outcome)
    return out


# the fewest rows a pool process gets.  One process against a 2-process
# pool, start-up included, on k = 1 grids at t_max 10 (wall ms on 2
# cores): 8 rows 48 vs 62, 16 rows 81 vs 82, 24 rows 115 vs 100, 32 rows
# 147 vs 117, 48 rows 222 vs 155.  The pool breaks even near 8 rows a
# process and saves a fifth from 16 on; it starts only where it clearly
# wins
_SHARE_ROWS = 16


def sweep(param_list, parallel: bool = False, workers: int | None = None):
    """Run the grid; rows come back in grid order regardless of mode.

    A row whose shooting raises has the status ``error:<Type>:<message>``,
    the message on one line and without commas, and NaN numbers.  A
    completed row reports the log-slopes of :func:`_log_slopes`; the
    others report NaN slopes.  Rows integrate in lockstep batches
    (:func:`_sweep_rows`, :func:`_dop853`), and a row's numbers have the
    bits of the row shot alone, whatever the other rows of its batch: the
    batch's products are stacked ``np.matmul`` products over the rows'
    own stage tables, which give each row the bits of its ``np.dot``, the
    step-size control runs row by row, and the last row of a batch steps
    on alone with the operations of :func:`shoot`.  So neither the grid
    nor its split into batches and shares changes a row.

    ``parallel`` permits a process pool and ``workers`` caps it (default:
    the CPU count).  The pool has ``min(workers, rows // _SHARE_ROWS)``
    processes, so each gets at least ``_SHARE_ROWS`` rows; below two the
    grid runs serially in the calling process.  Each process integrates
    one share of the grid, every n-th row of n shares, as one batch
    per state size (:func:`_sweep_rows`).
    """
    param_list = list(param_list)
    n_shares = (min(workers or os.cpu_count() or 1,
                    len(param_list) // _SHARE_ROWS) if parallel else 1)
    if n_shares < 2:
        return _sweep_rows(param_list)
    import concurrent.futures as cf
    shares = [param_list[i::n_shares] for i in range(n_shares)]
    out = [None] * len(param_list)
    with cf.ProcessPoolExecutor(max_workers=n_shares) as ex:
        for i, rows in enumerate(ex.map(_sweep_rows, shares)):
            out[i::n_shares] = rows
    return out
