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
the scalar one does, runs row by row on Python floats.

A profile is its integration: the step table of its DOP853 runs, one row
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

``profile.csv`` (schema 3) is the step table in ``%.17g`` text, so it
round-trips bit for bit: 2 + 8n numbers per step, n = 6 state columns
for k >= 1 and 4 for k = 0.  A completed ``t_max = 10`` profile of the
README's classes takes 47 to 96 steps, 53 to 110 KB, where the 2,001-row
grid of schema 2 took 272-277 KB; a profile that ends in a blow-up takes
many short steps, and its file can be larger than its grid was.
Schema 1 and 2 files, which stored a sampled grid, are refused with a
message to re-run ``solve``: reading them would need a second
representation of a profile (a spline fit of the grid) beside this one.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.integrate import DOP853
from scipy.optimize import brentq

from .curvature import _MARGIN_SECOND
from .fd import grid_derivative
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

PROFILE_SCHEMA_VERSION = 3
GRID_COLUMNS = ("t", "a", "a_prime", "b", "b_prime", "phi", "phi_prime")
# the most points of the output grid of a profile (of solve, of each sweep
# row, and of a loaded file, whose params line sets its grid): the grid
# and its diagnostics hold a dozen arrays of this length
MAX_GRID_POINTS = 200_000
_N_COEFFS = 3 + len(DOP853.D)   # rows of a step's dense-output table F

_POSITIVITY_FLOOR = 1e-6   # terminal event threshold for a, b
_EVAL_FLOOR = 1e-7         # clamp inside the stepper so stages stay finite
_BLOWUP_LIMIT = 1e10
_CSV_BLOCK_ROWS = 512


class IntegrationError(GeometryError):
    """The ODE integrator failed (step underflow or internal error)."""


class CertificationWindowError(GeometryError):
    """A certification window or step does not fit the profile span."""


@dataclass(frozen=True)
class AnsatzParams:
    """Shooting data for the rotationally symmetric ansatz.

    ``phi2`` is the free closure coefficient phi''(0)/2 (ignored for k = 0,
    where the even-series start is fully determined).  The default -0.5
    lies in the long-lived branch for the shipped parameter ranges.
    ``rtol`` and ``atol`` are the integrator tolerances; an ``rtol`` below
    100 machine epsilons (about 2.2e-14) is raised to 100 eps, as scipy's
    ``solve_ivp`` does, and the launch segment up to t = 0.1 runs at
    tolerances of at most 1e-13.  ``grid_per_unit`` is the density of the
    output grid in rows per unit of t; at the default 200 the certificate
    residuals and ``mu_spread`` read as at twice the density, while at 100
    the worst residual of some classes doubles.
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
        if self.k < 0:
            raise ValueError("base sphere dimension k must be >= 0")
        if self.m < 1:
            raise ValueError("fiber dimension m must be >= 1")
        if self.b0 <= 0:
            raise ValueError("b0 must be positive")
        if not 0 < self.epsilon < self.t_max:
            raise ValueError("need 0 < epsilon < t_max")
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("integrator tolerances must be positive")
        if self.grid_per_unit < 40:
            raise ValueError("grid_per_unit too coarse for the diagnostics")

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
    the b-series, and the a-slots are meaningless.  Raises when epsilon is
    too large for the truncated series to be trustworthy.
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
    return (eps + a3 * eps ** 3,
            1.0 + 3.0 * a3 * eps ** 2,
            b0 + b2 * eps ** 2,
            2.0 * b2 * eps,
            2.0 * phi2 * eps)


def _rhs_with_phi(params: AnsatzParams):
    """The integrator's right side ``rhs(y)`` for ``params``.

    The one right side of the reduced system.  The state carries phi next
    to it: (a, a', b, b', phi, phi') for k >= 1 and (b, b', phi, phi') for
    k = 0, and ``rhs`` returns the state's derivative, phi' in phi's slot.
    Runge-Kutta stages may probe past a degeneration before the terminal
    event localizes it, so a and b are clamped at ``_EVAL_FLOOR`` as
    ``max(a, floor)`` clamps (a NaN stays NaN) and the right side stays
    evaluable below the event floor.  The system is autonomous, so ``rhs``
    takes no time.  :func:`_dop853` hands it the Python floats of a row of
    ``Y.tolist()``: IEEE arithmetic gives the same bits as on
    ``np.float64`` scalars at a fraction of the per-call cost.  It returns
    a list, which :func:`_dop853` writes into its stage table as it is.
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
    profile's polynomials (:class:`_StepPolynomials`) call it with one
    coefficient row and one ``x`` per time, and :func:`_dop853` for
    locating events.
    """
    y = np.zeros_like(y_old)
    u = 1 - x
    for i, f in enumerate(rows):
        y += f
        y *= x if i % 2 == 0 else u
    return y + y_old


class _StepPolynomials:
    """The stored polynomials of a profile's step table, built once per
    profile: the step ends, and each state column's values at the step
    starts and coefficient rows ``F[-1], ..., F[0]`` as contiguous arrays
    over the steps.

    :meth:`locate` finds each time's step, the one ``OdeSolution`` would
    choose: the first whose end is >= t (``searchsorted(side="left")``),
    so a step end and the junction of two runs go to the earlier step,
    and times outside the span go to the first or last step.
    :meth:`value` is :func:`_horner` there with one coefficient row and
    one ``x`` per time, so a column has the bits of ``solve_ivp``'s dense
    output.
    """

    def __init__(self, profile: "SolitonProfile"):
        self.ends = np.append(profile.t_old[1:], profile.end_time)
        self.t_old, self.h = profile.t_old, profile.h
        rows = profile.F[:, ::-1].T   # column, F[-1] ... F[0], step
        self.columns = {
            name: (np.ascontiguousarray(profile.y_old[:, c]),
                   np.ascontiguousarray(rows[c]))
            for c, name in enumerate(_state_columns(profile.params.k))}

    def locate(self, t):
        """``(idx, x)``: the step of each time and ``(t - t_old) / h``."""
        idx = np.minimum(np.searchsorted(self.ends, t, side="left"),
                         self.ends.size - 1)
        return idx, (t - self.t_old[idx]) / self.h[idx]

    def value(self, name: str, idx, x):
        """Column ``name`` at the located times."""
        y_old, rows = self.columns[name]
        return _horner(rows[:, idx], y_old[idx], x)

    def function(self, name: str):
        """Column ``name`` as a callable of t (an array or a number)."""
        def evaluate(t):
            return self.value(name, *self.locate(np.asarray(t, dtype=float)))
        return evaluate


def _state_columns(k: int):
    """The names of the state columns of a k profile, in its state order."""
    return GRID_COLUMNS[1:] if k >= 1 else GRID_COLUMNS[3:]


def _csv_header(k: int):
    """The header row of a k step table: each step's start ``t`` and state
    there, its size ``h``, then the coefficient rows ``F0`` to ``F6``."""
    names = _state_columns(k)
    return ("t", *names, "h",
            *(f"F{j}.{name}" for j in range(_N_COEFFS) for name in names))


def _check_grid_size(params: AnsatzParams, t_end: float):
    """Raise ``ValueError`` when a profile of ``params`` ending at
    ``t_end`` would derive a grid of more than ``MAX_GRID_POINTS``
    points (``(t_end - epsilon) * grid_per_unit``, the rows but one)."""
    try:
        points = (t_end - params.epsilon) * params.grid_per_unit
    except OverflowError:   # a grid_per_unit beyond the float range
        points = math.inf
    if not points <= MAX_GRID_POINTS:
        raise ValueError(f"output grid too large: (t_end - epsilon) * "
                         f"grid_per_unit = {points:.6g} points with t_end = "
                         f"{t_end:g}, at most {MAX_GRID_POINTS}")


@dataclass
class SolitonProfile:
    """A profile: its parameters, its step table and its outcome.

    The step table of the DOP853 runs from ``params.epsilon`` to
    ``end_time``: step i starts at ``t_old[i]`` with the state
    ``y_old[i]`` (a, a', b, b', phi, phi' for k >= 1, the last four for
    k = 0), has the size ``h[i]`` and the coefficient rows ``F[i]`` of its
    polynomial (see :func:`_horner`), and ends where step i + 1 starts or,
    the last one, at ``end_time``.  Construction refuses (``ValueError``)
    a table that is not one piecewise polynomial over that span: see
    :meth:`_check_steps`.

    The grid columns ``GRID_COLUMNS`` are samples of the polynomials on
    the uniform grid of ``grid_per_unit`` rows per unit of t
    (``a``/``a_prime`` NaN-filled for k = 0), and ``mu``, ``res_tt``,
    ``res_sk`` (NaN for k = 0) and ``res_sm`` are derived from them by
    :func:`_diagnostics`; each is computed on first read and cached
    beside the polynomials, so corrupted coefficients show in them.
    """

    params: AnsatzParams
    t_old: np.ndarray
    h: np.ndarray
    y_old: np.ndarray
    F: np.ndarray
    status: str
    end_time: float
    # not an init field, so a dataclasses.replace copy builds its own
    # polynomials, grid and diagnostics
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        self._check_steps()

    def _check_steps(self):
        """Raise ``ValueError`` unless the step table is one piecewise
        polynomial from epsilon to ``end_time``: at least one step, arrays
        of the shapes of the params' k, finite numbers, ``t`` strictly
        increasing from epsilon, ``h`` positive, each step ending within 4
        ulps of where the next starts, and ``end_time`` in the last step.
        The messages name the columns of :meth:`to_csv`."""
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
        if not t_old[-1] < self.end_time <= ends[-1] + 4 * np.spacing(ends[-1]):
            raise ValueError(f"profile end_time {self.end_time:.17g} does not "
                             f"lie in its last step [{t_old[-1]:.17g}, "
                             f"{ends[-1]:.17g}]")

    def _table(self) -> np.ndarray:
        """The step table as the rows of :meth:`to_csv`: per step t_old,
        y_old, h and F (row by row)."""
        return np.column_stack([self.t_old, self.y_old, self.h,
                                self.F.reshape(len(self.t_old), -1)])

    def _polynomials(self) -> _StepPolynomials:
        if "polynomials" not in self._cache:
            self._cache["polynomials"] = _StepPolynomials(self)
        return self._cache["polynomials"]

    def _sample(self, name: str) -> np.ndarray:
        """A grid column: the stored polynomial sampled on the uniform grid
        of ``grid_per_unit`` rows per unit from epsilon to ``end_time``
        (at least 16 rows); each column is computed on its first read."""
        grid = self._cache.setdefault("grid", {})
        if not grid:
            eps, per_unit = self.params.epsilon, self.params.grid_per_unit
            rows = int(np.ceil((self.end_time - eps) * per_unit)) + 1
            grid["t"] = np.linspace(eps, self.end_time, max(rows, 16))
            grid["steps"] = self._polynomials().locate(grid["t"])
        if name not in grid:
            polys = self._polynomials()
            grid[name] = (polys.value(name, *grid["steps"])
                          if name in polys.columns
                          else np.full_like(grid["t"], np.nan))
        return grid[name]

    t = property(lambda self: self._sample("t"))
    a = property(lambda self: self._sample("a"))
    a_prime = property(lambda self: self._sample("a_prime"))
    b = property(lambda self: self._sample("b"))
    b_prime = property(lambda self: self._sample("b_prime"))
    phi = property(lambda self: self._sample("phi"))
    phi_prime = property(lambda self: self._sample("phi_prime"))

    def _diagnostic(self, i: int) -> np.ndarray:
        if "diagnostics" not in self._cache:
            self._cache["diagnostics"] = _diagnostics(
                self.params, self.t, self.a, self.a_prime, self.b,
                self.b_prime, self.phi_prime)
        return self._cache["diagnostics"][i]

    mu = property(lambda self: self._diagnostic(0))
    res_tt = property(lambda self: self._diagnostic(1))
    res_sk = property(lambda self: self._diagnostic(2))
    res_sm = property(lambda self: self._diagnostic(3))

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

    def interpolants(self):
        """``(a, b, phi)``: the stored polynomials of the a, b and phi
        columns as callables of t (arrays or numbers), built once and
        cached.  They have the bits of the dense output of the runs the
        profile was shot from.  For k = 0 the a-slot is None."""
        if "interpolants" not in self._cache:
            polys = self._polynomials()
            self._cache["interpolants"] = (
                polys.function("a") if "a" in polys.columns else None,
                polys.function("b"), polys.function("phi"))
        return self._cache["interpolants"]

    # -- serialization ------------------------------------------------------

    def to_csv(self, path=None) -> str:
        """Profile as CSV text (written to ``path`` when given).

        Three header lines (schema version, params, status and end time),
        the header row of :func:`_csv_header` and one row per step.
        Numbers carry 17 significant digits so the round trip is exact.
        Rows are formatted a block at a time with one ``%`` operation;
        for Python floats ``%.17g`` is the same text as
        ``format(x, ".17g")``, including ``nan``, ``inf`` and ``-0``.
        """
        header = _csv_header(self.params.k)
        parts = [
            f"# schema_version={PROFILE_SCHEMA_VERSION}\n",
            "# params=" + json.dumps(asdict(self.params), sort_keys=True) + "\n",
            f"# status={self.status} end_time={self.end_time:.17g}\n",
            ",".join(header) + "\n",
        ]
        row = ",".join(["%.17g"] * len(header)) + "\n"
        rows = self._table()
        # blocks bound the transient list of Python floats and strings
        for start in range(0, len(rows), _CSV_BLOCK_ROWS):
            block = rows[start:start + _CSV_BLOCK_ROWS]
            parts.append((row * len(block)) % tuple(block.ravel().tolist()))
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
        missing or bad header line, a schema 1 or 2 file (a sampled grid:
        re-run ``solve``), a grid of more than ``MAX_GRID_POINTS`` points
        (checked before the data rows are read), a header row not of the
        params' k, a data row without one number per column, or a step
        table that construction refuses.
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# schema_version="):
            raise ValueError("not a profile CSV: missing schema_version line")
        version = int(lines[0].split("=", 1)[1])
        if version in (1, 2):
            raise ValueError(
                f"profile schema_version {version} stores a sampled grid, "
                f"which is no longer read; re-run 'solve' to write schema_"
                f"version {PROFILE_SCHEMA_VERSION}, the DOP853 step table")
        if version != PROFILE_SCHEMA_VERSION:
            raise ValueError(f"unsupported profile schema_version {version}")
        if len(lines) < 2 or not lines[1].startswith("# params="):
            raise ValueError("profile CSV missing params line")
        params = _params_from_dict(json.loads(lines[1].split("=", 1)[1]))
        status_line = lines[2] if len(lines) > 2 else ""
        part = status_line[2:].split()
        if (not status_line.startswith("# status=") or len(part) != 2
                or not part[1].startswith("end_time=")):
            raise ValueError("profile CSV has a missing or malformed status line")
        status = part[0].split("=", 1)[1]
        end_time = float(part[1].split("=", 1)[1])
        if not math.isfinite(end_time):
            raise ValueError("profile CSV has a malformed status line: "
                             f"end_time {end_time} is not finite")
        _check_grid_size(params, end_time)
        header = _csv_header(params.k)
        if len(lines) < 4 or tuple(lines[3].split(",")) != header:
            raise ValueError("profile CSV has an unexpected header row for "
                             f"k = {params.k}")
        data = lines[4:]
        try:
            rows = (np.loadtxt(data, delimiter=",", comments=None, ndmin=2)
                    if data else np.empty((0, 0)))
        except ValueError as exc:
            raise ValueError(f"profile CSV has malformed data rows: {exc}") from exc
        if rows.shape[1] != len(header):
            raise ValueError("profile CSV has malformed data rows: expected "
                             f"rows of {len(header)} numbers")
        n = len(_state_columns(params.k))
        return cls(params=params, t_old=rows[:, 0], y_old=rows[:, 1:1 + n],
                   h=rows[:, 1 + n],
                   F=rows[:, 2 + n:].reshape(len(rows), _N_COEFFS, n),
                   status=status, end_time=end_time)


def _params_from_dict(raw) -> AnsatzParams:
    """Inverse of ``dataclasses.asdict`` for a profile's params line.

    Raises ``ValueError`` unless ``raw`` is an object of AnsatzParams
    fields with integer k, m, grid_per_unit and finite numbers otherwise.
    """
    if not isinstance(raw, dict):
        raise ValueError("profile CSV params line is not an object")
    for key, value in raw.items():
        kind = int if key in ("k", "m", "grid_per_unit") else (int, float)
        if (isinstance(value, bool) or not isinstance(value, kind)
                or (isinstance(value, float) and not np.isfinite(value))):
            raise ValueError(f"profile CSV param {key!r} has a bad value {value!r}")
    try:
        return AnsatzParams(**raw)
    except TypeError as exc:
        raise ValueError(f"profile CSV has bad params: {exc}") from exc


def _diagnostics(params: AnsatzParams, t, a, ap, b, bp, phip):
    """A profile's derived series ``(mu, res_tt, res_sk, res_sm)``.

    The first-integral series and the per-equation residual columns, by
    grid finite differences of the state arrays.  b'' is obtained by
    differentiating the b' array; with b'' from the right side the first
    integral collapses to the constant m - 1 identically and the
    conservation check would be vacuous.  The stencils take one step for
    the whole grid, so ``t`` must be uniform: a spacing that differs from
    the mean spacing by more than 1e-9 of it raises ``ValueError``.
    """
    k, m, lam = params.k, params.m, params.lam
    steps = np.diff(t)
    mean = (t[-1] - t[0]) / steps.size
    if np.abs(steps - mean).max() > 1e-9 * abs(mean):
        raise ValueError("profile column t is not uniformly spaced; the "
                         "diagnostics difference it with one step")
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
# along a transverse mode, so the segment up to _LAUNCH_END is integrated
# at a fixed tight tolerance regardless of the requested one
_LAUNCH_END = 0.1
_LAUNCH_TOL = 1e-13


@dataclass
class _Run:
    """One :func:`_dop853` run.

    ``t`` is the start followed by the accepted step ends, the last
    replaced by a terminal event's root; step ``i`` starts at ``t[i]`` and
    carries the dense output polynomial ``t[i]``, ``h[i]``, ``F[i]``,
    ``y_old[i]`` (see :func:`_horner`), and ``y`` is the state at the last
    accepted step's end.  ``status`` is ``solve_ivp``'s: 0 at the end of
    the span, 1 at the terminal event ``event`` (its index), -1 on a
    failed step, which ``message`` names.  ``nfev`` counts the right-side
    calls.
    """

    t: np.ndarray
    h: np.ndarray
    F: np.ndarray
    y_old: np.ndarray
    y: np.ndarray
    nfev: int
    status: int
    event: int | None = None
    message: str | None = None


_EPS = np.finfo(float).eps
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10
_TOO_SMALL_STEP = "Required step size is less than spacing between numbers."


def _check_run(t0, t1, y0):
    """Refuse a run that :func:`_dop853` cannot start, as ``solve_ivp``
    would: ``ValueError`` unless ``t1 > t0`` and ``y0`` is finite."""
    if not t1 > t0:
        raise ValueError(f"integration runs forward only: need t1 > t0, "
                         f"got t0={t0!r}, t1={t1!r}")
    if not np.isfinite(y0).all():
        raise ValueError(
            "All components of the initial state `y0` must be finite.")


def _dop853(funs, t0, t1, y0, rtol, atol, first_step, events):
    """Integrate a batch of rows of ``y' = f(y)`` with DOP853, in lockstep.

    The method of Hairer, Norsett & Wanner, *Solving ODEs I*, II.10, as
    ``solve_ivp(method="DOP853", dense_output=True, events=...)`` runs it
    on each row alone: the operations of scipy's ``DOP853._step_impl``,
    ``rk_step``, ``_estimate_error_norm`` and ``_dense_output_impl`` in
    their order, on the coefficients of ``scipy.integrate.DOP853``, so
    every row's steps, dense output and event roots have ``solve_ivp``'s
    bits.  Row i runs ``y' = funs[i](y)`` from ``t0[i]`` to ``t1[i]`` from
    the state ``y0[i]`` (``y0`` is a rows x n array) at its own
    ``rtol[i]``, ``atol[i]`` and ``first_step[i]``, and keeps its own t,
    step size, accept/reject state and events; an ``rtol`` below 100 eps
    is raised to 100 eps, as scipy does.  ``funs[i]`` maps the Python
    floats of a state to its derivative, a list written into the stage
    table as it is.  Each pass of the loop makes one step attempt for
    every row still running.  ``events(Y)`` gives the values of the
    terminal events (the last axis) of one state or of a stack of states;
    a row's earliest root, located by ``brentq`` on the step's polynomial,
    ends it.  Returns one :class:`_Run` per row, or the exception that
    ``brentq`` raised for it.

    A row's bits do not depend on the other rows.  The stage sums
    ``K^T a``, the error estimates and the dense-output products ``D K``
    of several rows are stacked products, ``np.matmul`` over the rows' own
    stage tables, which give each row the bits of its ``np.dot`` (one
    BLAS call per row; folding the rows into one wide product would not);
    a batch of one row calls ``np.dot``, which costs less.  The rest of a
    step is elementwise IEEE arithmetic, except the step-size control,
    whose ``pow`` an array form need not round as the scalar one does: it
    runs row by row on Python floats.  Floating-point warnings are off
    inside the loop, since the values that a batch computes for its
    rejected rows are discarded.
    """
    M = DOP853
    n_rows, n = y0.shape
    for i in range(n_rows):
        _check_run(t0[i], t1[i], y0[i])
    exponent = -1 / (M.error_estimator_order + 1)
    n_stages, n_extra = M.n_stages, len(M.C_EXTRA)
    t = [float(v) for v in t0]
    t_end = [float(v) for v in t1]
    t_next = t[:]
    h_abs = [float(v) for v in first_step]
    min_step = [0.0] * n_rows
    fresh = [True] * n_rows
    rejected = [False] * n_rows
    nfev = [1] * n_rows
    # the t, h, F and y_old of each running row's accepted steps
    records = {i: ([v], [], [], []) for i, v in enumerate(t)}
    runs = [None] * n_rows
    rtol = np.maximum(np.asarray(rtol, dtype=float), 100 * _EPS)
    atol = np.asarray(atol, dtype=float)
    live = list(range(n_rows))
    K_ext = np.empty((n_rows, n_stages + 1 + n_extra, n))

    def batch():
        """The right side, tolerances, step sizes, products and stage
        views of the rows ``live``, and the shape of their state.

        A batch of one row keeps its row alone: a 1-D state, float
        tolerances and step and ``np.dot`` products, which cost less than
        their stacked forms (a one-row solve integrates about a quarter
        slower as a stack of one).  ``steps(h)`` gives the step sizes as
        the stage sums and the dense-output block take them.  The loop
        reads the rows of any batch through ``reshape(len(live), ...)``.
        """
        if len(live) == 1:
            [f] = [funs[i] for i in live]
            K, dot, shape = K_ext[0], np.dot, (n,)
            tol = float(atol[live[0]]), float(rtol[live[0]])

            def steps(h):
                return h[0], h[0]

            def fun(y):
                return f(y.tolist())

            def norm2(err):
                return [err.dot(err)]
        else:
            row_funs = [funs[i] for i in live]
            K, dot, shape = K_ext, np.matmul, (len(live), n)
            tol = atol[live][:, None], rtol[live][:, None]

            def steps(h):
                H = np.array(h)[:, None]
                return H, H[:, :, None]

            def fun(Y):
                return [f(y) for f, y in zip(row_funs, Y.tolist())]

            def norm2(err):
                return np.matmul(err[:, None, :],
                                 err[:, :, None]).ravel().tolist()

        def stage(s):   # its rows, and the stage table before it as columns
            return K[..., s, :], K[..., :s, :].swapaxes(-1, -2)

        stages = [(*stage(s), a[:s]) for s, a in enumerate(M.A[1:], start=1)]
        extra = [(*stage(s), a[:s])
                 for s, a in enumerate(M.A_EXTRA, start=n_stages + 1)]
        return (fun, tol, steps, dot, norm2, K, shape, stages, extra,
                stage(n_stages), stage(n_stages + 1)[1])

    with np.errstate(all="ignore"):
        (fun, (atol_, rtol_), steps, dot, norm2, K, shape, stages, extra,
         (K_last, K_B), K_E) = batch()
        y = np.array(y0, dtype=float).reshape(shape)
        K[..., 0, :] = fun(y)
        g = events(y).reshape(n_rows, -1).tolist()
        while live:
            # the start of each row's attempt, as in solve_ivp's step loop;
            # a row whose step size underflowed finishes
            h = []
            for j, i in enumerate(live):
                if runs[i] is not None:
                    continue
                if fresh[i]:
                    fresh[i] = rejected[i] = False
                    min_step[i] = 10 * abs(math.nextafter(t[i], math.inf) - t[i])
                    if h_abs[i] < min_step[i]:
                        h_abs[i] = min_step[i]
                elif h_abs[i] < min_step[i]:
                    runs[i] = _finish(records.pop(i), y.reshape(-1, n)[j],
                                      nfev[i], -1, None)
                    continue
                t_new = t[i] + h_abs[i]
                if t_new > t_end[i]:
                    t_new = t_end[i]
                t_next[i] = t_new
                h.append(t_new - t[i])
                h_abs[i] = abs(h[-1])
            if len(h) < len(live):   # rows finished: the batch shrinks
                keep = [j for j, i in enumerate(live) if runs[i] is None]
                live = [live[j] for j in keep]
                if not live:
                    break
                y, K_ext = y[keep], K_ext[keep]
                g = [g[j] for j in keep]
                (fun, (atol_, rtol_), steps, dot, norm2, K, shape, stages,
                 extra, (K_last, K_B), K_E) = batch()
                y = y.reshape(shape)

            H, H_D = steps(h)
            for Ks, K_prev, a in stages:
                Ks[:] = fun(y + dot(K_prev, a) * H)
            y_new = y + H * dot(K_B, M.B)
            K_last[:] = fun(y_new)
            scale = atol_ + np.maximum(np.abs(y), np.abs(y_new)) * rtol_
            err5 = norm2(dot(K_E, M.E5) / scale)
            err3 = norm2(dot(K_E, M.E3) / scale)

            # step-size control, row by row on Python floats
            accepted = []
            for j, i in enumerate(live):
                nfev[i] += n_stages
                # np.linalg.norm's operations on a vector, squared
                err5_norm_2 = math.sqrt(err5[j]) ** 2
                err3_norm_2 = math.sqrt(err3[j]) ** 2
                if err5_norm_2 == 0 and err3_norm_2 == 0:
                    error_norm = 0.0
                else:
                    denom = err5_norm_2 + 0.01 * err3_norm_2
                    error_norm = (abs(h[j]) * err5_norm_2
                                  / math.sqrt(denom * n))
                if error_norm < 1:
                    if error_norm == 0:
                        factor = _MAX_FACTOR
                    else:
                        factor = min(_MAX_FACTOR,
                                     _SAFETY * error_norm ** exponent)
                    if rejected[i]:
                        factor = min(1, factor)
                    h_abs[i] *= factor
                    accepted.append(j)
                else:
                    h_abs[i] *= max(_MIN_FACTOR,
                                    _SAFETY * error_norm ** exponent)
                    rejected[i] = True
            if not accepted:
                continue

            # the dense output and events of the accepted steps
            y_old = y
            for Ks, K_prev, a in extra:
                Ks[:] = fun(y_old + dot(K_prev, a) * H)
            F = np.empty(shape[:-1] + (3 + len(M.D), n))
            delta_y = y_new - y_old
            K_first = K[..., 0, :]
            F[..., 0, :] = delta_y
            F[..., 1, :] = H * K_first - delta_y
            F[..., 2, :] = 2 * delta_y - H * (K_last + K_first)
            F[..., 3:, :] = H_D * dot(M.D, K)
            if len(accepted) == len(live):
                y = y_new
                K_first[:] = K_last
            else:
                y = y.copy()
                y[accepted] = y_new[accepted]
                K_ext[accepted, 0] = K_ext[accepted, n_stages]
            g_old, g = g, events(y).reshape(len(live), -1).tolist()
            # each row's view of the batch
            F, y_old, y_rows = (F.reshape(len(live), -1, n),
                                y_old.reshape(-1, n), y.reshape(-1, n))
            for j in accepted:
                i = live[j]
                nfev[i] += n_extra
                fresh[i] = True
                t_old, t[i] = t[i], t_next[i]
                status = 0 if t[i] >= t_end[i] else None
                event, t_step = None, t[i]
                active = [e for e, (lo, hi) in enumerate(zip(g_old[j], g[j]))
                          if lo <= 0 <= hi or lo >= 0 >= hi]
                if active:
                    try:
                        roots = [brentq(lambda s, e=e: events(_horner(
                                            F[j, ::-1], y_old[j],
                                            (s - t_old) / h[j]))[e],
                                        t_old, t[i], xtol=4 * _EPS,
                                        rtol=4 * _EPS)
                                 for e in active]
                    except (ValueError, RuntimeError) as exc:
                        runs[i] = exc   # this row alone ends
                        del records[i]
                        continue
                    first = np.argsort(roots)[0]
                    status, event, t_step = 1, active[first], roots[first]
                ts, hs, Fs, y_olds = records[i]
                # solve_ivp drops a step whose root is the last end
                if not (len(ts) > 1 and ts[-1] == t_step):
                    ts.append(t_step)
                    hs.append(h[j])
                    Fs.append(F[j])
                    y_olds.append(y_old[j])
                if status is not None:
                    runs[i] = _finish(records.pop(i), y_rows[j], nfev[i],
                                      status, event)
    return runs


def _finish(record, y, nfev, status, event):
    """The :class:`_Run` of a row's record ``(t, h, F, y_old)``."""
    ts, hs, Fs, y_olds = record
    return _Run(t=np.array(ts), h=np.array(hs), F=np.array(Fs),
                y_old=np.array(y_olds), y=y.copy(), nfev=nfev, status=status,
                event=event, message=_TOO_SMALL_STEP if status == -1 else None)


def _events(k):
    """``(events, outcomes)``: the terminal events of the state of a k row
    and the profile status each gives.

    ``events(Y)`` has one column per event, in solve_ivp's order, which
    breaks ties between equal roots: b and (for k >= 1) a reach the
    positivity floor, and the state leaves the blow-up box.  ``Y`` may be
    one state or a rows x n array.
    """
    floors = slice(2, None, -2) if k >= 1 else slice(0, 1)   # (b, a) or b

    def events(Y):
        g = np.empty(Y.shape[:-1] + (3 if k >= 1 else 2,))
        g[..., :-1] = Y[..., floors] - _POSITIVITY_FLOOR
        g[..., -1] = _BLOWUP_LIMIT - np.abs(Y).max(axis=-1)
        return g

    return events, (["hit_b_zero", "hit_a_zero", "blowup"] if k >= 1
                    else ["hit_b_zero", "blowup"])


def _integrate(rows):
    """The DOP853 runs of a batch of ``rows``: one outcome per row.

    ``rows`` are AnsatzParams sharing a state size (all k >= 1 or all
    k = 0), each with its own epsilon, t_max, rtol and atol.  A row's
    outcome is ``(runs, status, t_end)``: ``runs`` holds the :class:`_Run`
    of its launch segment and, unless that run ends early, the one of the
    rest of its span, and the last run's terminal event, if any, gives
    ``status`` and ``t_end``.  A row that cannot run has the exception
    instead: the ``ValueError`` of a refused series start or a non-finite
    start, the ``IntegrationError`` of a step size that underflowed, or
    the error of ``brentq`` locating an event.
    The other rows of the batch run on unaffected; each segment is one
    :func:`_dop853` batch, so a row's runs have the bits of the row
    integrated alone (its stacked ``np.matmul`` products are its
    ``np.dot`` products).
    """
    events, outcomes = _events(rows[0].k)
    results = [None] * len(rows)
    launch, starts = [], []
    for i, p in enumerate(rows):
        try:
            a, ap, b, bp, phip = _series_start(p)
            y0 = np.array([a, ap, b, bp, 0.0, phip] if p.k >= 1
                          else [b, bp, 0.0, phip])
            _check_run(p.epsilon, min(_LAUNCH_END, p.t_max), y0)
        except ValueError as exc:
            results[i] = exc
        else:
            launch.append(i)
            starts.append(y0)

    funs = [_rhs_with_phi(p) for p in rows]

    def segment(idx, t0, t1, y0, rtol, atol):
        # a capped first step keeps the dense output tight where the
        # differentiated diagnostics are most sensitive
        return _dop853([funs[i] for i in idx], t0, t1, np.array(y0), rtol,
                       atol,
                       [min(1e-3, 0.01 * (b - a)) for a, b in zip(t0, t1)],
                       events)

    runs = {}
    if launch:
        t_switch = {i: min(_LAUNCH_END, rows[i].t_max) for i in launch}
        for i, run in zip(launch, segment(
                launch, [rows[i].epsilon for i in launch],
                list(t_switch.values()), starts,
                [min(rows[i].rtol, _LAUNCH_TOL) for i in launch],
                [min(rows[i].atol, _LAUNCH_TOL) for i in launch])):
            runs[i] = [run]
        rest = [i for i in launch if not isinstance(runs[i][0], Exception)
                and runs[i][0].status == 0 and t_switch[i] < rows[i].t_max]
        if rest:
            for i, run in zip(rest, segment(
                    rest, [t_switch[i] for i in rest],
                    [rows[i].t_max for i in rest],
                    [runs[i][0].y for i in rest],
                    [rows[i].rtol for i in rest],
                    [rows[i].atol for i in rest])):
                runs[i].append(run)
    for i, row_runs in runs.items():
        run = row_runs[-1]
        if isinstance(run, Exception):
            results[i] = run
        elif run.status == -1:
            results[i] = IntegrationError(
                f"integrator failed: {_TOO_SMALL_STEP}")
        elif run.status == 1:
            results[i] = (row_runs, outcomes[run.event], float(run.t[-1]))
        else:
            results[i] = (row_runs, "completed", rows[i].t_max)
    return results


def _profile(params: AnsatzParams, outcome) -> SolitonProfile:
    """The profile of a row's :func:`_integrate` outcome: raises the row's
    exception, or stores the steps of its runs as one step table."""
    if isinstance(outcome, Exception):
        raise outcome
    runs, status, t_end = outcome
    return SolitonProfile(
        params=params, t_old=np.concatenate([run.t[:-1] for run in runs]),
        h=np.concatenate([run.h for run in runs]),
        y_old=np.concatenate([run.y_old for run in runs]),
        F=np.concatenate([run.F for run in runs]), status=status,
        end_time=t_end)


def shoot(params: AnsatzParams) -> SolitonProfile:
    """Integrate the reduced system from the series start.

    Adaptive eighth-order explicit integration to ``t_max`` or until a
    metric coefficient degenerates or the state blows up; the returned
    profile records the outcome in ``status`` and ``end_time``.  phi is
    gauge-normalized to phi(epsilon) = 0.

    A batch of one row: the DOP853 loop :func:`_dop853` runs the closure
    of :func:`_rhs_with_phi` on the launch segment and, unless that run
    ends early, on the rest of the span (:func:`_integrate`), with the
    steps and bits of ``scipy.integrate.solve_ivp``.  Raises
    ``ValueError`` for a refused series start and
    :class:`IntegrationError` when the step size underflows.
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
        a_s, k, (float(profile.t[0]) + 8 * h, float(profile.t[-1]) - 8 * h),
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
    fiber samples and the chart boundaries.
    """
    params = profile.params
    k, m = params.k, params.m
    if profile.status != "completed":
        raise GeometryError(
            f"profile status is '{profile.status}' (ended at t = "
            f"{profile.end_time:g}); only completed profiles are certified")
    # checked before any patch is built: the base chart of
    # profile_geometry needs the span minus 8 h at either end
    span = (float(profile.t[0]), float(profile.t[-1]))
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
    """One sweep result: shooting data, outcome, and growth diagnostics."""

    k: int
    m: int
    lam: float
    b0: float
    status: str
    lifetime: float
    mu_mean: float
    mu_spread: float
    exp_a: float
    exp_b: float


def params_grid(ks, ms, lams, b0s, **common):
    """Cartesian parameter grid in deterministic (k, m, lam, b0) order."""
    out = []
    for k in ks:
        for m in ms:
            for lam in lams:
                for b0 in b0s:
                    out.append(AnsatzParams(k=k, m=m, lam=lam, b0=b0, **common))
    return out


def _growth_exponent(t, y):
    """Log-log slope over the last decade of the grid."""
    sel = t >= t[-1] / 10.0
    if sel.sum() < 10 or np.any(y[sel] <= 0):
        return float("nan")
    return float(np.polyfit(np.log(t[sel]), np.log(y[sel]), 1)[0])


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
                        float("nan"), float("nan"), float("nan"), float("nan"))
    if prof.status == "completed":
        exp_a = _growth_exponent(prof.t, prof.a) if params.k >= 1 else float("nan")
        exp_b = _growth_exponent(prof.t, prof.b)
    else:
        exp_a = exp_b = float("nan")
    return SweepRow(params.k, params.m, params.lam, params.b0, prof.status,
                    prof.end_time, prof.mu_mean, prof.mu_spread, exp_a, exp_b)


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


def sweep(param_list, parallel: bool = False, workers: int | None = None):
    """Run the grid; rows come back in grid order regardless of mode.

    A row whose shooting raises has the status ``error:<Type>:<message>``,
    the message on one line and without commas.  Rows integrate in
    lockstep batches (:func:`_sweep_rows`, :func:`_dop853`), and a row's
    numbers have the bits of the row shot alone, whatever the other rows
    of its batch: the batch's products are stacked ``np.matmul`` products
    over the rows' own stage tables, which give each row the bits of its
    ``np.dot``, and the step-size control runs row by row.  So neither the
    grid nor its split into batches and shares changes a row.  The
    parallel pool has
    ``workers`` processes (default: the CPU count), at most one per row:
    each process integrates one share of the grid, every ``workers``-th
    row, as one batch per state size (:func:`_sweep_rows`).
    """
    param_list = list(param_list)
    if not parallel or len(param_list) < 2:
        return _sweep_rows(param_list)
    import concurrent.futures as cf
    # the pool may start all its processes at once, so it gets no more
    # than it has shares
    n_shares = min(workers or os.cpu_count() or 1, len(param_list))
    shares = [param_list[i::n_shares] for i in range(n_shares)]
    out = [None] * len(param_list)
    with cf.ProcessPoolExecutor(max_workers=n_shares) as ex:
        for i, rows in enumerate(ex.map(_sweep_rows, shares)):
            out[i::n_shares] = rows
    return out
