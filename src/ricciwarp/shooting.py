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
integrator's right side ``_rhs_with_phi``, the array diagnostics and the
series start all call the kernel it builds for a row's (k, m, lam).  The
paper's warped first integral, mu = lam b^2 + b (b'' + k (a'/a) b') +
(m-1) b'^2 - b phi' b', is the b-equation read as a defect: mu = m - 1 +
b (b'' - b s_b) term by term, with s_b the kernel's b''/b.  These
equations are
not taken on faith: the test suite assembles the full product metric
from integrated profiles and requires the finite-difference soliton
residual to vanish to discretization accuracy (the closure gate), it
derives the system symbolically from the metric and compares it with the
kernel and the right side, and it checks shot profiles against the
system's scaling and time-reversal symmetries.

Smoothness of the metric across t = 0 forces a(0) = 0, a'(0) = 1,
b'(0) = 0, phi'(0) = 0.  Matching even/odd Taylor series in the system
determines every coefficient up to one genuine shooting degree of
freedom, the half Hessian phi2 = phi''(0)/2: the trace equation
reproduces the sphere-block relation at leading order instead of fixing
phi2.  Profiles with phi2 <= 0 are long lived with slowly growing a, b;
positive phi2 drives finite-time blowup.  The series (``_series``: the
kernel run on :class:`ricciwarp.taylor.Series` and solved order by order)
converges, and a row starts from it at t = min(epsilon, t_conv), where its
tail falls to rounding (``_series_start``, for every k; epsilon 0.1 by
default), with phi gauged to phi(0) = 0.  It is integrated from there in
one span at the row's tolerance, with the DOP853 loop of
:mod:`ricciwarp.dop853`, which has the steps, dense output and event roots
of scipy's ``solve_ivp(method="DOP853")`` and advances a batch of rows in
lockstep, each with the bits it has alone: ``shoot`` is a batch of one row
and ``sweep`` integrates its grid in batches.

A profile is its integration: the step table of its DOP853 run, one row
per accepted step holding the step's start ``t_old``, its size ``h``, the
state ``y_old`` at its start and the 7 rows ``F`` of its dense-output
table.  At ``x = (t - t_old) / h`` the step's polynomial is

    y(t) = y_old + x (F0 + (1-x) (F1 + x (F2 + (1-x) (F3
                 + x (F4 + (1-x) (F5 + x F6))))))

evaluated by Horner's rule (``_horner``).  A step ends where the next one
starts and the last one at ``end_time``.  ``_at`` is the one reader of a
column at given times: the certificate and the quotient check read a, b
and phi through it (``interpolants``), and so do the log-slopes of a
profile's report (``_report``).  The sample columns (``GRID_COLUMNS``)
are the polynomials' values at the fixed fractions ``_SAMPLE_X`` of every
step, derived on first read.  The diagnostics (the
per-equation residual columns, and the first-integral series mu(t) =
m - 1 + b res_sm) are *defects* of the stored solution at those samples:
the exact time derivative of the stored a', b' and phi' polynomials less
the reduced system's a'', b'' and phi'' at the stored state, the standard
backward-error measure of a continuous extension, sampled at fixed points
of each step (W. H. Enright, Appl. Math. Comput., 1989; D. J. Higham, SIAM
J. Numer. Anal., 1989).  They never substitute the right side back in for
a derivative, which would cancel algebraically and report conservation
even for corrupted data.  At both ends of a step the derivative of
DOP853's polynomial is the right side at the stored state, so a defect
read there is exactly that substitution: the samples keep to x in [0.05,
0.95].

``profile.csv`` (schema 8) is the step table, each cell the 16 hex
digits of its float64 bits, so it round-trips bit for bit with no
decimal conversion: 2 + 8n cells per step, n = 6 state columns for
k >= 1 and 4 for k = 0.  The table's first ``t`` is the series start's
time, so reading a profile solves no series.  A completed ``t_max = 10``
profile of the README's classes takes 32 to 42 steps, 28 to 36 KB; a
profile that ends in a blow-up takes many short steps.  Older files are
refused with a message to re-run ``solve``: schemas 1 and 2 stored a
sampled grid, which would need a spline fit beside the polynomials,
schema 3 decimal text, which would need a second reader, schema 4 a
params line with the density of a uniform sample grid, schema 5 one with
two tolerances, fields that :class:`AnsatzParams` does not take, schema
6 no start time, which only a series solve could restore, and schema 7
a status line that also held the start time, a repeat of the table's
first ``t`` that a second status-line reader would have to check.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from functools import cache, cached_property, partial
from types import SimpleNamespace

import numpy as np

from . import dop853, taylor
from .curvature import _MARGIN_SECOND, DEFAULT_STEP
from .dop853 import _N_COEFFS, _dop853, _horner
from .fd import check_step
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

PROFILE_SCHEMA_VERSION = 8
GRID_COLUMNS = ("t", "a", "a_prime", "b", "b_prime", "phi", "phi_prime")
# room for the four header lines of a profile file: the params line of any
# AnsatzParams is under 12,000 characters, since Python prints at most 4,300
# digits of an int by default (k, m) and a finite field is under 1.8e308
_CSV_HEAD_CHARS = 2 ** 16

_POSITIVITY_FLOOR = 1e-6   # terminal event threshold for a, b
_EVAL_FLOOR = 1e-7         # clamp inside the stepper so stages stay finite
_BLOWUP_LIMIT = 1e10
# a profile's status: completed, or the terminal event that ended it
_STATUSES = ("completed", "hit_b_zero", "hit_a_zero", "blowup")
# the step fractions x = (t - t_old) / h at which the diagnostics sample
# every step, away from its ends: a step polynomial's derivative equals the
# right side at its stored ends (k1m2 at lam 0: |mu - (m-1)| <= 2.2e-16 at
# x = 0 and 1 of every step, against up to 9.1e-9 inside them, at x = 0.94)
_SAMPLE_X = np.linspace(0.05, 0.95, 8)


class IntegrationError(GeometryError):
    """The ODE integrator failed (step underflow, ``MAX_STEPS`` reached or
    a failed event location)."""


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


_INT_FIELDS = ("k", "m")


@dataclass(frozen=True)
class AnsatzParams:
    """Shooting data for the rotationally symmetric ansatz.

    ``phi2`` is the free closure coefficient phi''(0)/2 (ignored for k = 0,
    where the even-series start is fully determined).  The default -0.5
    lies in the long-lived branch for the shipped parameter ranges.
    ``epsilon`` is the latest start: a row starts from its series at
    ``min(epsilon, t_conv)``, t_conv where the series tail falls to
    rounding (:func:`_series_start`), which is past the default 0.1 for
    the README's classes at b0 1.  An explicit epsilon below t_conv
    integrates the origin layer at ``tol``, so a smaller epsilon alone
    does not make a row more accurate.  ``tol`` is the integrator's
    relative and absolute tolerance (a step's error is scaled by ``tol (1
    + max |y|)``) from the start on, raised to 100 eps (about 2.2e-14) as
    a relative tolerance, as scipy's ``solve_ivp`` does.  No field bounds
    the work of a run: the integrator stops every run at
    ``dop853.MAX_STEPS`` accepted steps.

    Construction refuses (``ValueError``) a k or m that is not an integer
    or lies beyond the float range, another field that is not a finite
    real (a bool is neither; an integer is named without its digits,
    which may pass Python's limit for converting it to text), values out
    of range and a span shorter than epsilon (``t_max < 2 epsilon``:
    across a few ulps of t the steps and their samples are rounding, and
    the diagnostics meaningless): a config, a file and Python alike.
    """

    k: int
    m: int
    lam: float
    b0: float
    phi2: float = -0.5
    epsilon: float = 0.1
    t_max: float = 10.0
    tol: float = 1e-10

    def __post_init__(self):
        for name, value in vars(self).items():
            kind = "an integer" if name in _INT_FIELDS else "a finite number"
            if not (_is_int if name in _INT_FIELDS else _is_real)(value):
                # an int refused here lies beyond the float range, and its
                # digits may pass Python's limit for converting it to text
                got = ("an integer beyond the float range" if _is_int(value)
                       else repr(value))
                raise ValueError(f"AnsatzParams {name} must be {kind}, got "
                                 f"{got}")
            # the kernel reads k - 1, k, m - 1 and m as floats
            if name in ("k", "m") and not _is_real(value + 1):
                raise ValueError(f"AnsatzParams {name} is beyond the float "
                                 f"range")
        if self.k < 0:
            raise ValueError("base sphere dimension k must be >= 0")
        if self.m < 1:
            raise ValueError("fiber dimension m must be >= 1")
        if self.b0 <= 0:
            raise ValueError("b0 must be positive")
        if not 0 < 2 * self.epsilon <= self.t_max:
            raise ValueError("need 0 < epsilon and 2 epsilon <= t_max")
        if self.tol <= 0:
            raise ValueError("integrator tolerances must be positive")

    @property
    def classification(self) -> str:
        if self.lam > 0:
            return "shrinking"
        if self.lam < 0:
            return "expanding"
        return "steady"


def _reduced_kernel(params: AnsatzParams):
    """The reduced system of ``params``' (k, m, lam): the kernel
    ``kernel(a, a', b, b', phi') = (s_a, s_b, phi'') = (a''/a, b''/b,
    phi'')``, with the row's constants bound once.

    Plain arithmetic, so the same code runs on floats (the ODE right side)
    and on arrays (the sampled diagnostics).  For k = 0 the a-arguments are
    not read and ``s_a`` is 0.
    """
    k, m, lam = params.k, params.m, params.lam

    def kernel(a, ap, b, bp, phip):
        u = bp / b
        s_b = (m - 1) * (1.0 - bp * bp) / (b * b) + phip * u - lam
        if k < 1:
            s_a = 0.0
        else:
            v = ap / a
            s_a = (phip - m * u) * v - lam
            if k > 1:   # the curvature of the base sphere S^k
                s_a = s_a + (k - 1) * (1.0 - ap * ap) / (a * a)
            s_b = s_b - k * v * u
        return s_a, s_b, lam + k * s_a + m * s_b

    return kernel


# the most orders of the series start: order K fixes the coefficients of
# t^(2K+1) in a, t^(2K) in b and t^(2K-1) in phi'.  At b0 1 the ratio of
# consecutive orders per t^2 tends to about 0.45, 0.65 and 1.0 for k1m2, k2m3
# (lambda 0) and k1m3 (lambda -0.1), and 9 orders keep the last order's terms
# at rounding up to t = 0.17, 0.14 and 0.11, past the default epsilon
_SERIES_ORDERS = 9
_SERIES_ROUNDING = 2.0 ** -52   # the size of a last-order term at the start


def _series(params: AnsatzParams):
    """``(alpha, beta, phi, t_conv)``: the Taylor series of the smooth
    closure at t = 0 of ``params``' row, a = t sum(alpha[i] t^(2i)), b =
    sum(beta[i] t^(2i)) and phi = t^2 sum(phi[i] t^(2i)) (alpha empty for
    k = 0), and t_conv, where its tail falls to rounding.

    The closure, a = t + a3 t^3 + ..., b = b0 + b2 t^2 + ... and phi =
    phi2 t^2 + ... (the gauge phi(0) = 0), is a convergent power series
    fixed by (b0, phi2) (J.-H. Eschenburg and M. Y. Wang, J. Geom. Anal.,
    2000; M. Buzano, J. Geom. Phys., 2011); for k = 0 the b-series fixes
    phi2.  Its coefficients are those of :func:`_reduced_kernel` run on
    :class:`ricciwarp.taylor.Series` and solved order by order
    (:func:`ricciwarp.taylor.solve`), so the kernel is the one writing of
    the system, the start included.  A row of b0 < 1 is solved at b0 = 1,
    with lambda b0^2 and phi2 b0^2, and scaled back: the system is
    scale-covariant, and a tiny b0 then overflows a coefficient to inf
    instead of dividing by an underflowed b0^2.  t_conv is the largest t
    at which every term of the last order, of a, a', b, b' and phi' in
    those units, is at most ``_SERIES_ROUNDING``; a row of small
    convergence radius (small b0, large |phi2| or |lambda|) has a t_conv
    smaller in proportion.  The orders stop at the first whose t_conv
    reaches epsilon, or at ``_SERIES_ORDERS``.

    Raises ``ValueError``, since no epsilon can mend either, when an order
    is singular, or when a coefficient is not finite (a tiny b0 overflows
    b2 / b0): each is checked as it is scaled back to the unit length, in
    the order of the series, a_(2i+1), b_(2i), phi_(2i), and the first
    that is not finite is named.
    """
    k, m, lam, b0 = params.k, params.m, params.lam, params.b0
    c = min(b0, 1.0)   # the length the series is solved in units of
    tape = []
    a = taylor.Series(tape, 1, [1.0]) if k >= 1 else None   # t (1 + ...)
    b = taylor.Series(tape, 0, [b0 / c])
    phip = taylor.Series(tape, 1, [])                       # t (2 phi2 + ...)
    ap = a.derivative() if k >= 1 else None
    bp = b.derivative()
    s_a, s_b, phipp = _reduced_kernel(
        SimpleNamespace(k=k, m=m, lam=lam * c * c))(a, ap, b, bp, phip)
    # a'' = a s_a, b'' = b s_b and phi'' = phipp, at t^(2K-1), t^(2K-2) and
    # t^(2K-2) in order K
    leaves = [(b, 0), (phip, -1)]
    equations = [(bp.derivative() - b * s_b, -2),
                 (phip.derivative() - phipp, -2)]
    given = None
    if k >= 1:
        leaves.insert(0, (a, 0))
        equations.insert(0, (ap.derivative() - a * s_a, -1))
        given = {(1, 2): 2.0 * params.phi2 * c * c}   # phi''(0), free
    try:
        for n in taylor.solve(leaves, equations, given):
            # the last order's terms of a, a', b, b' and phi'
            last = [(b.c[n], 2 * n), (2 * n * b.c[n], 2 * n - 1),
                    (phip.c[n - 1], 2 * n - 1)]
            if k >= 1:
                last += [(a.c[n], 2 * n + 1), ((2 * n + 1) * a.c[n], 2 * n)]
            t_conv = min([math.inf] + [(_SERIES_ROUNDING / abs(x)) ** (1 / q)
                                       for x, q in last if x])
            if n == _SERIES_ORDERS or c * t_conv >= params.epsilon:
                break
    except ZeroDivisionError:   # a singular order of non-finite data
        raise ValueError(f"the series of (k, m, lambda, b0) = ({k}, {m}, "
                         f"{lam:g}, {b0:g}) is not finite: no epsilon gives "
                         f"a series start") from None
    # back to the unit length: the coefficients of t^(2i+1) in a, t^(2i)
    # in b and t^(2i+2) in phi scale by c^-2i, c^(1-2i) and c^(-2i-2); as
    # products of 1/c, since a power past the float range raises
    alpha, beta, phi = [], [], []
    odd, even, inv = c, 1.0, 1.0 / c   # c^(1-2i) and c^-2i
    for i in range(n + 1):
        if i:
            odd = even * inv
            even = odd * inv
        # in the order of the series: a_(2i+1), b_(2i), phi_(2i)
        terms = [(alpha, "a", 2 * i + 1, a.c[i] * even)] if k >= 1 else []
        terms.append((beta, "b", 2 * i, b.c[i] * odd))
        if i:
            terms.append((phi, "phi", 2 * i, phip.c[i - 1] * even / (2 * i)))
        for out, name, power, value in terms:
            if not math.isfinite(value):
                raise ValueError(
                    f"the series coefficient {name}{power} = {value} of (k, "
                    f"m, lambda, b0) = ({k}, {m}, {lam:g}, {b0:g}) is not "
                    f"finite: no epsilon gives a series start")
            out.append(value)
    return alpha, beta, phi, c * t_conv


def _series_start(params: AnsatzParams):
    """``(t, state)``: the series start of ``params`` for any k, the state
    (a, a', b, b', phi, phi') for k >= 1 and (b, b', phi, phi') for k = 0
    of the Taylor series :func:`_series` at t = min(epsilon, t_conv),
    where its tail is below rounding.

    Raises ``ValueError`` when a coefficient is not finite (from
    :func:`_series`); when the start is not inside the blow-up box, every
    component below ``_BLOWUP_LIMIT`` in size (a huge b0 starts outside
    the box, where the blow-up event cannot fire); or when its b or (for
    k >= 1) its a is at or below ``_POSITIVITY_FLOOR``: the right side
    clamps them at ``_EVAL_FLOOR`` and the events read them as a
    degeneration, so such a start would integrate another system.  A start
    it returns lies inside the box with a and b above the floor, at a t in
    (0, epsilon].
    """
    alpha, beta, phi, t_conv = _series(params)
    t = min(params.epsilon, t_conv)
    s = t * t
    start = [_power_series(beta, s),
             t * _power_series([2 * i * x for i, x in enumerate(beta)][1:], s),
             s * _power_series(phi, s),
             t * _power_series([(2 * i + 2) * x for i, x in enumerate(phi)],
                               s)]
    if alpha:
        start = [t * _power_series(alpha, s),
                 _power_series([(2 * i + 1) * x for i, x in enumerate(alpha)],
                               s)] + start
    eps = params.epsilon
    if not all(abs(value) < _BLOWUP_LIMIT for value in start):
        raise ValueError(f"epsilon={eps:g}: the series start {start} at "
                         f"t = {t:.6g} is not inside the blow-up box "
                         f"|y| < {_BLOWUP_LIMIT:g}")
    positive = ({"a": start[0], "b": start[2]} if alpha
                else {"b": start[0]})
    if min(positive.values()) <= _POSITIVITY_FLOOR:
        values = ", ".join(f"{name} = {value:.6g}"
                           for name, value in positive.items())
        raise ValueError(f"epsilon={eps:g}: the series start at t = {t:.6g} "
                         f"({values}) is not above the positivity floor "
                         f"{_POSITIVITY_FLOOR:g}, where a profile degenerates")
    return t, start


def _power_series(coefficients, s):
    """``sum(c[i] s^i)`` by Horner's rule."""
    value = 0.0
    for x in reversed(coefficients):
        value = value * s + x
    return value


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
    kernel = _reduced_kernel(params)
    if params.k >= 1:
        def rhs(y):
            a, ap, b, bp, _, phip = y
            a = floor if floor > a else a
            b = floor if floor > b else b
            s_a, s_b, phipp = kernel(a, ap, b, bp, phip)
            return [ap, a * s_a, bp, b * s_b, phip, phipp]
        return rhs

    def rhs(y):
        b, bp, _, phip = y
        b = floor if floor > b else b
        _, s_b, phipp = kernel(None, None, b, bp, phip)
        return [bp, b * s_b, phip, phipp]
    return rhs


def _locate(steps, t):
    """``(idx, x)``: the step of each time of the float array ``t`` in a
    profile's ``_steps`` and ``(t - t_old) / h``, for :func:`_at`.  The
    step ``OdeSolution`` would choose: the first whose end is >= t, so a
    step end goes to the earlier step, and times outside the span go to
    the first or last step.  A step ends where the next starts, so that is
    the count of the later steps' starts below t
    (``searchsorted(side="left")``, which places NaN last)."""
    t_old, h, _ = steps
    idx = np.searchsorted(t_old[1:], t, side="left")
    return idx, (t - t_old.take(idx)) / h.take(idx)


def _evaluate(steps, name: str, idx, x, dt=False):
    """State column ``name`` at the steps ``idx`` and fractions ``x``:
    those that :func:`_locate` gives for :func:`_at`, or those that a
    profile's samples keep.  :func:`_horner` with one coefficient row and
    one ``x`` per time, so a column has the bits of ``solve_ivp``'s dense
    output.  With ``dt``, the pair of the column and its time derivative,
    the polynomials' d/dx over their steps' ``h``.  ``take`` gathers the
    same values as fancy indexing, at half the cost."""
    y_old, F = steps[2][name]
    out = _horner(F.take(idx, axis=1), y_old.take(idx), x, dt)
    return (out[0], out[1] / steps[1].take(idx)) if dt else out


def _at(steps, name: str, t):
    """State column ``name`` of a profile's ``_steps`` at the times ``t``
    (a number or an array, read as floats): the one reader of a column at
    given times, :func:`_evaluate` at the steps that :func:`_locate`
    places them in."""
    return _evaluate(steps, name, *_locate(steps, np.asarray(t, dtype=float)))


def _state_columns(k: int):
    """The names of the state columns of a k profile, in its state order."""
    return GRID_COLUMNS[1:] if k >= 1 else GRID_COLUMNS[3:]


@cache
def _csv_header(k: int):
    """The header row of a k step table: each step's start ``t`` and state
    there, its size ``h``, then the coefficient rows ``F0`` to ``F6``;
    built once per k, since every profile checks its table against it."""
    names = _state_columns(k)
    return ("t", *names, "h",
            *(f"F{j}.{name}" for j in range(_N_COEFFS) for name in names))


def _quiet(get):
    """A cached property that computes ``get(self)`` with numpy's
    floating-point warnings off: the diagnostics of a profile whose states
    are huge overflow to inf or NaN, as the DOP853 loops do, and that is
    no cause for a warning on stderr."""
    def quiet(self):
        with np.errstate(all="ignore"):
            return get(self)
    return cached_property(quiet)


@dataclass
class SolitonProfile:
    """A profile: its parameters, its step table and its outcome.

    ``table`` is the step table of the DOP853 run, one row per step in the
    columns of :func:`_csv_header`, the data rows of :meth:`to_csv`: step
    i starts at ``t_old[i]``, the first at the series start
    ``start_time``, with the state ``y_old[i]`` (a, a', b, b', phi, phi'
    for k >= 1, the last four for k = 0), has the size ``h[i]`` and the
    coefficient rows ``F[i]`` of its polynomial (see :func:`_horner`), and
    ends where step i + 1 starts or, the last one, at ``end_time``.
    ``t_old``, ``y_old``, ``h`` and ``F`` are views of the table's
    columns, ``start_time`` its first ``t``.  Construction refuses
    (``ValueError``) a ``status`` other than those of ``_STATUSES`` and a
    table that is not one piecewise polynomial over that span: see
    :meth:`_check_steps`.

    The sample columns ``GRID_COLUMNS`` are the polynomials' values at
    the fractions ``_SAMPLE_X`` of every step, step by step
    (``a``/``a_prime`` NaN-filled for k = 0): ``len(_SAMPLE_X)`` samples
    a step, so ``dop853.MAX_STEPS`` bounds them.  ``res_tt``, ``res_sk``
    (NaN for k = 0) and ``res_sm`` are their defects there: the time
    derivatives of the phi', a' and b' polynomials less the phi'', a s_a
    and b s_b of one evaluation of :func:`_reduced_kernel` at the
    samples, so corrupted coefficients show in them.  The first integral
    ``mu`` is ``m - 1 + b res_sm``, which is ``lam b^2 + b (b'' + k (a'/a)
    b') + (m-1) b'^2 - b phi' b'`` term by term; with b'' from the right
    side it would collapse to m - 1 identically.  These views, the
    polynomials' arrays and the interpolants are each computed once per
    object, on first read (``functools.cached_property``: b' with its
    derivative, and each residual column apart, so mu, which a sweep row
    reads, computes no a' or phi' derivative); a ``dataclasses.replace``
    copy computes its own.
    """

    params: AnsatzParams
    table: np.ndarray
    status: str
    end_time: float

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise ValueError(f"profile status {self.status!r} is not one of "
                             f"{', '.join(_STATUSES)}")
        self._check_steps()

    # the table's columns (see _csv_header) as views of it; n state columns
    _n = property(lambda self: len(_state_columns(self.params.k)))
    t_old = property(lambda self: self.table[:, 0])
    y_old = property(lambda self: self.table[:, 1:1 + self._n])
    h = property(lambda self: self.table[:, 1 + self._n])
    F = property(lambda self: self.table[:, 2 + self._n:].reshape(
        len(self.table), _N_COEFFS, self._n))
    start_time = property(lambda self: float(self.table[0, 0]))

    def _check_steps(self):
        """Raise ``ValueError`` unless the table is one piecewise
        polynomial from its first ``t``, ``start_time``, to ``end_time``:
        at least one step, the columns of :func:`_csv_header` for the
        params' k, finite numbers, ``t`` strictly increasing from a
        ``start_time`` in (0, epsilon], as every series start is, ``h``
        positive, each step ending within 4 ulps of where the next starts,
        and ``end_time`` in the last step and at most ``t_max``, as every
        shot profile ends.  The messages name the columns of
        :meth:`to_csv`."""
        k, eps = self.params.k, self.params.epsilon
        header, n, shape = _csv_header(k), self._n, np.shape(self.table)
        if len(shape) != 2 or shape[0] < 1 or shape[1] != len(header):
            raise ValueError(
                f"profile step table of a k = {k} profile needs "
                f"{len(header)} columns, t, {n} state values, h and F of "
                f"{_N_COEFFS} x {n} values per step, and at least one step; "
                f"got the shape {shape}")
        t_old, h = self.t_old, self.h
        if not (np.isfinite(t_old).all() and (np.diff(t_old) > 0).all()):
            raise ValueError("profile column t is not finite and strictly "
                             "increasing")
        finite = np.isfinite(self.table).all(axis=0)
        if not finite.all():
            raise ValueError(f"profile column {header[finite.argmin()]} has "
                             "a non-finite value")
        if not (h > 0).all():
            raise ValueError("profile column h is not positive")
        if not 0 < self.start_time <= eps:
            raise ValueError(f"profile start_time {self.start_time:.17g} is "
                             f"not in (0, epsilon = {eps:.17g}]")
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

    @cached_property
    def _steps(self):
        """``(t_old, h, columns)``: the step starts and sizes, and by name
        each state column's ``y_old`` and rows ``F0, ..., F6`` in their
        stored order, contiguous over the steps."""
        F, y_old = self.F.T, self.y_old   # column, F0 ... F6, step
        return (self.t_old, self.h,
                {name: (np.ascontiguousarray(y_old[:, c]),
                        np.ascontiguousarray(F[c]))
                 for c, name in enumerate(_state_columns(self.params.k))})

    @cached_property
    def _samples(self):
        """``(t, idx, x)``: the sample times, at the fractions ``_SAMPLE_X``
        of every step, step by step, and the step of each and ``x = (t -
        t_old) / h`` there, formed from ``t`` as the dense output forms it,
        so that a column has its bits at ``t``.  A terminal event ends a
        profile inside its last step, whose fractions shrink to its part up
        to ``end_time``; a step that ends there, as a completed profile's
        does, keeps them (the factor is exactly 1)."""
        t_old, h, n = self.t_old, self.h, self.t_old.size
        fractions = np.tile(_SAMPLE_X, (n, 1))
        fractions[-1] *= (self.end_time - t_old[-1]) / h[-1]
        idx = np.repeat(np.arange(n), _SAMPLE_X.size)
        start, size = t_old.take(idx), h.take(idx)
        t = start + fractions.ravel() * size
        return t, idx, (t - start) / size

    t = property(lambda self: self._samples[0])

    def _column(self, name: str, dt: bool = False):
        """Column ``name`` at the samples, NaN where k lacks it; with
        ``dt``, the pair of it and its time derivative."""
        if name not in self._steps[2]:
            nan = np.full_like(self.t, np.nan)
            return (nan, nan) if dt else nan
        return _evaluate(self._steps, name, *self._samples[1:], dt=dt)

    a = cached_property(lambda self: self._column("a"))
    a_prime = cached_property(lambda self: self._column("a_prime"))
    b = cached_property(lambda self: self._column("b"))
    # b' and its derivative in one pass: mu reads both, through res_sm
    _b_prime_dt = cached_property(lambda self: self._column("b_prime", True))
    b_prime = property(lambda self: self._b_prime_dt[0])
    phi = cached_property(lambda self: self._column("phi"))
    phi_prime = cached_property(lambda self: self._column("phi_prime"))

    # the defects, each a derivative of a stored polynomial against the
    # reduced system (see _quiet)
    _kernel = _quiet(lambda self: _reduced_kernel(self.params)(
        self.a, self.a_prime, self.b, self.b_prime, self.phi_prime))
    res_tt = _quiet(lambda self: self._column("phi_prime", True)[1]
                    - self._kernel[2])
    res_sk = _quiet(lambda self: self._column("a_prime", True)[1]
                    - self.a * self._kernel[0])
    res_sm = _quiet(lambda self: self._b_prime_dt[1] - self.b * self._kernel[1])
    mu = _quiet(lambda self: self.params.m - 1 + self.b * self.res_sm)
    # the time average of mu: its samples weighted by the spans of their
    # steps, so that the many short steps near an event weigh no more than
    # their time
    mu_mean = _quiet(lambda self: float(np.average(self.mu, weights=np.repeat(
        np.diff(self.t_old, append=self.end_time), _SAMPLE_X.size))))
    mu_spread = _quiet(lambda self: float(self.mu.max() - self.mu.min()))

    @property
    def lam(self) -> float:
        return self.params.lam

    @property
    def classification(self) -> str:
        return self.params.classification

    @cached_property
    def _interpolants(self):
        # partials that hold the step arrays, not the profile: a callable
        # over self, cached in self, would hold each profile in a cycle
        # until the cyclic collector runs
        steps = self._steps
        return tuple(partial(_at, steps, name) if name in steps[2] else None
                     for name in ("a", "b", "phi"))

    def interpolants(self):
        """``(a, b, phi)``: the stored polynomials of the a, b and phi
        columns as callables of t (arrays or numbers), partials of
        :func:`_at`, built once and cached.  They have the bits of the
        dense output of the run the profile was shot from.  For k = 0 the
        a-slot is None."""
        return self._interpolants

    # -- serialization ------------------------------------------------------

    def to_csv(self, path=None) -> str:
        """Profile as CSV text (written to ``path`` when given).

        Three header lines (schema version, params, status and end time),
        the header row of :func:`_csv_header` and the rows of ``table``.  A
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
                  for row in self.table.astype(">f8"))
        text = "".join(parts)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @classmethod
    def from_csv(cls, path) -> "SolitonProfile":
        """Read a profile file written by :meth:`to_csv`.

        Raises ``OSError`` when the file cannot be read and ``ValueError``
        on a malformed or wrong-version profile (see :meth:`parse_csv`), or
        on a file larger than :meth:`to_csv` writes for a table of
        ``dop853.MAX_STEPS`` steps, which it stops reading past that size.
        """
        # a data row takes 17 characters a column, and k >= 1 has the most
        limit = _CSV_HEAD_CHARS + dop853.MAX_STEPS * 17 * len(_csv_header(1))
        with open(path) as fh:
            text = fh.read(limit + 1)
        if len(text) > limit:
            raise ValueError(f"profile file larger than {limit} characters, "
                             f"the most that a table of MAX_STEPS = "
                             f"{dop853.MAX_STEPS} steps takes")
        return cls.parse_csv(text)

    @classmethod
    def parse_csv(cls, text: str) -> "SolitonProfile":
        """Parse profile CSV text written by :meth:`to_csv`.

        Raises ``ValueError`` on a malformed or wrong-version profile: a
        missing or bad header line, a schema version other than
        ``PROFILE_SCHEMA_VERSION`` (re-run ``solve``), a params line that
        is not a JSON object (one nested past the decoder's depth among
        them) of fields that :class:`AnsatzParams` accepts, a header row
        not of the params' k, more data rows than ``dop853.MAX_STEPS``,
        the most steps of a shot profile (before they are decoded), a data
        row that is not one word of 16 lowercase hex digits per column, or
        a status or step table that construction refuses (an unknown
        status, a NaN or inf bit pattern, or an ``end_time`` past
        ``t_max``, among them).
        """
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# schema_version="):
            raise ValueError("not a profile CSV: missing schema_version line")
        version = int(lines[0].split("=", 1)[1])
        if version != PROFILE_SCHEMA_VERSION:
            raise ValueError(
                f"profile schema_version {version} is not read; re-run "
                f"'solve' to write schema_version {PROFILE_SCHEMA_VERSION}, "
                "the DOP853 step table in float64 bit words")
        if len(lines) < 2 or not lines[1].startswith("# params="):
            raise ValueError("profile CSV missing params line")
        try:
            raw = json.loads(lines[1].split("=", 1)[1])
        except RecursionError as exc:
            raise ValueError(f"profile CSV has a malformed params line: "
                             f"{exc}") from exc
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
        if len(data) > dop853.MAX_STEPS:
            raise ValueError(f"profile CSV has {len(data)} data rows, more "
                             f"than the MAX_STEPS = {dop853.MAX_STEPS} steps "
                             f"of any shot profile")
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
        table = np.frombuffer(cells, ">f8").astype(float)
        return cls(params=params, table=table.reshape(len(data), -1),
                   status=status, end_time=end_time)


# the version of the solve_summary.json document
_SUMMARY_SCHEMA_VERSION = 1


def _summary(profile: SolitonProfile) -> dict:
    """The numbers of a profile's ``solve_summary.json``: its
    classification, its :func:`_report` and the largest size of each
    residual column (``sk`` NaN for k = 0) over the samples.  ``np.fmax``
    skips NaN, as ``np.nanmax`` does, but reads the all-NaN ``sk`` column
    of k = 0 as NaN without a warning."""
    return {
        "schema_version": _SUMMARY_SCHEMA_VERSION,
        "classification": profile.classification,
        **_report(profile),
        "reduced_equation_residual_max": {
            name: float(np.fmax.reduce(np.abs(getattr(profile, "res_" + name)),
                                       initial=math.nan))
            for name in ("tt", "sk", "sm")},
    }


def _events(k):
    """``(events, outcomes)``: the terminal events of the state of a k row
    and the profile status each gives.

    ``events(y)`` maps a state ``y``, a list of Python floats, to the list
    of its event values, in solve_ivp's order, which breaks ties between
    equal roots: b and (for k >= 1) a reach the positivity floor, and the
    state leaves the blow-up box.  The blow-up value keeps ``np.max``'s
    NaN rule: ``np.max`` keeps a NaN, Python's ``max`` need not, so a NaN
    component makes it NaN.  :func:`_series_start` refuses a start at or
    below the floor or outside the box, so every event starts positive
    and fires only by falling to zero: no event needs a direction.
    """
    floors = slice(2, None, -2) if k >= 1 else slice(0, 1)   # (b, a) or b

    def events(y):
        top = max(map(abs, y))
        # a NaN component makes the sum NaN; so do +inf and -inf together,
        # whose top is inf either way
        if math.isnan(sum(y)) and any(map(math.isnan, y)):
            top = math.nan
        g = [u - _POSITIVITY_FLOOR for u in y[floors]]
        g.append(_BLOWUP_LIMIT - top)
        return g

    return events, _STATUSES[1:] if k >= 1 else _STATUSES[1::2]


def _integrate(rows):
    """The DOP853 runs of a batch of ``rows``: one outcome per row.

    ``rows`` are AnsatzParams sharing a state size (all k >= 1 or all
    k = 0), each with its own epsilon, t_max and tol.  A row's run is one
    :func:`_dop853` span at ``tol`` from its series start
    (:func:`_series_start`) to t_max.  Its outcome is ``(row, status)``,
    the finished ``dop853._Row`` with its step table ``row.table`` and its
    end ``row.t`` (exactly ``t_max`` when completed), and the status from
    its terminal event, if any; or the exception of a row that cannot
    run: the ``ValueError`` of a refused series start, or, for every row
    that :func:`_dop853` ends with status -1, the ``IntegrationError``
    "integrator failed: " and the row's message, which names a step size
    that underflowed, a run that reached ``MAX_STEPS`` or an event that
    ``brentq`` failed to locate.  A start that ``_series_start`` returns
    lies inside the blow-up box, its a and b above the positivity floor,
    at a t of at most epsilon, below ``t_max``, so :func:`_dop853` accepts
    every row and every event starts positive.  The rows are one
    :func:`_dop853` batch with the one event function of their state size
    (:func:`_events`), each run with the bits of its row integrated alone,
    whatever the other rows do.
    """
    events, outcomes = _events(rows[0].k)
    results = [None] * len(rows)
    started, t0, starts, spans = [], [], [], []
    for i, p in enumerate(rows):
        try:
            t, start = _series_start(p)
        except ValueError as exc:
            results[i] = exc
            continue
        started.append(i)
        t0.append(t)
        starts.append(start)
        # a capped first step keeps the dense output tight where the
        # differentiated diagnostics are most sensitive
        spans.append((p.t_max, p.tol, min(1e-3, 0.01 * (p.t_max - t))))
    if not started:
        return results
    for i, row in zip(started, _dop853(
            [_rhs_with_phi(rows[i]) for i in started], t0, np.array(starts),
            spans, events)):
        if row.status == -1:
            results[i] = IntegrationError(f"integrator failed: {row.message}")
        else:
            results[i] = (row, "completed" if row.status == 0
                          else outcomes[row.event])
    return results


def _profile(params: AnsatzParams, outcome) -> SolitonProfile:
    """The profile of a row's :func:`_integrate` outcome: raises the row's
    exception, or holds the step table of its run, not a copy, and ends
    at the run's end."""
    if isinstance(outcome, Exception):
        raise outcome
    row, status = outcome
    return SolitonProfile(params=params, table=row.table, status=status,
                          end_time=row.t)


def shoot(params: AnsatzParams) -> SolitonProfile:
    """Integrate the reduced system from the series start.

    Adaptive eighth-order explicit integration to ``t_max`` or until a
    metric coefficient degenerates or the state blows up; the returned
    profile records the outcome in ``status`` and ``end_time``, and its
    table starts at the series start, ``start_time``.  phi is
    gauge-normalized to phi(0) = 0: the start's phi is the series' phi at
    ``start_time``, so phi does not depend on where the row starts.

    A batch of one row: one run of the one-row DOP853 loop
    (:func:`ricciwarp.dop853._dop853`) on the closure of
    :func:`_rhs_with_phi` over the span from the series start to t_max
    (:func:`_integrate`), with the steps and bits of
    ``scipy.integrate.solve_ivp`` on that span; the profile's ``table`` is
    the step table that the run stacked as it ended, not a copy.  Raises
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

def profile_geometry(profile: SolitonProfile, h: float = DEFAULT_STEP):
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
        a_s, k, (float(profile.start_time) + 8 * h,
                 float(profile.end_time) - 8 * h),
        label=f"profile-base-k{k}")
    warp = ScalarField(lambda X: b_s(X[:, 0]), "b-warping")
    potential = ScalarField(lambda X: phi_s(X[:, 0]), "phi-potential")
    return WarpedGeometry(base=base, fiber=sphere_patch(params.m), f=warp,
                          phi=potential, lam=params.lam)


def ambient_radial_range(profile: SolitonProfile):
    """``(lo, hi)`` = (max(1.1 t_0, 0.05), 0.95 t_end): the radii of the
    profile span [start_time, end_time] on which :func:`ambient_geometry`
    is valid."""
    return (max(float(profile.start_time) * 1.1, 0.05),
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
                    h: float = DEFAULT_STEP,
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
    polynomials need not keep b (or a) positive.  Raises ``ValueError``
    for every value that does not fit the profile: before any residual is
    computed, when ``t_window`` and ``h`` leave no room inside the profile
    span, or when the stencils of step ``h`` do not fit between the
    base-angle and fiber samples and the chart boundaries; for a step
    ``h`` that is not finite and positive or, at the samples, not above
    the float resolution (``fd.check_step``); and for ``n_base`` below 2
    or ``n_fiber`` or ``n_product`` below 1 (:func:`certify_soliton`).
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
    span = (float(profile.start_time), float(profile.end_time))
    t_lo = max(t_window[0], span[0] + 16 * h)
    t_hi = min(t_window[1], span[1] - 16 * h)
    if t_hi <= t_lo:
        raise ValueError(
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
        raise ValueError(
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
    """One sweep result: the shooting datum (k, m, lam, b0) and the numbers
    of :func:`_report`, which ``solve_summary.json`` reports too, or those
    of an error row (:func:`_sweep_row`)."""

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


# the fields of a row that _report sets: SweepRow's after (k, m, lam, b0)
_REPORT_FIELDS = tuple(f.name for f in fields(SweepRow))[4:]


def _report(profile: SolitonProfile) -> dict:
    """The numbers of a profile that ``solve_summary.json`` and its sweep
    row both report, by name in the order of ``_REPORT_FIELDS``: its
    ``status``, its ``end_time`` as ``lifetime``, the mean and spread of
    its first integral mu, and the local log-slopes ``t y'/y`` of a and b,
    read from the step polynomials of y and y' by :func:`_at`: ``slope_a``
    and ``slope_b`` at ``end_time``, ``slope_a_mid`` and ``slope_b_mid``
    in the middle of the span, at ``(start_time + end_time) / 2``.

    The slopes are NaN unless the profile is ``completed``, and the
    a-slopes are NaN for k = 0, which has no a.  ``y ~ t^p`` has the slope
    p at every t; a negative end slope says the coefficient is shrinking
    at ``t_max``, and a drift between the middle and end slopes that the
    growth has not settled.  The report derives mu, and with it the
    kernel at the samples and ``res_sm``, but not ``res_tt`` or
    ``res_sk``.
    """
    report = {**dict.fromkeys(_REPORT_FIELDS, math.nan),
              "status": profile.status, "lifetime": profile.end_time,
              "mu_mean": profile.mu_mean, "mu_spread": profile.mu_spread}
    if profile.status == "completed":
        steps, end = profile._steps, profile.end_time
        t = np.array([end, 0.5 * (profile.start_time + end)])
        for y in ("a", "b") if profile.params.k >= 1 else ("b",):
            slope = t * _at(steps, y + "_prime", t) / _at(steps, y, t)
            report["slope_" + y] = float(slope[0])
            report["slope_" + y + "_mid"] = float(slope[1])
    return report


def _sweep_row(params: AnsatzParams, outcome) -> SweepRow:
    """The sweep row of a row's :func:`_integrate` outcome: the
    :func:`_report` of its profile or, when :func:`_profile` raises, the
    status ``error:<Type>:<message>``, lifetime 0.0 and NaN numbers."""
    try:
        prof = _profile(params, outcome)
    except (GeometryError, ValueError) as exc:
        # one CSV field: whitespace runs (newlines included) become one
        # space and commas semicolons
        reason = " ".join(str(exc).split()).replace(",", ";")
        report = {**dict.fromkeys(_REPORT_FIELDS, math.nan), "lifetime": 0.0,
                  "status": f"error:{type(exc).__name__}:{reason}"}
    else:
        report = _report(prof)
    return SweepRow(params.k, params.m, params.lam, params.b0, **report)


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


# the fewest rows a process of a parallel sweep gets, so that a grid of 24
# rows or more can start a child and a 16-row grid runs serially.  One
# process against the caller plus one child, start-up included, on k = 1
# grids at t_max 10 (wall ms on 2 cores, medians of 21 alternating calls,
# three runs): 8 rows 44-48 vs 45-47, 16 rows 74-79 vs 61-62, 24 rows
# 104-110 vs 78-82, 32 rows 133-136 vs 94-100.  A child shortens a 24-row
# grid by 23-26%.  8-row shares are not taken: the child wins 14 to 20 of
# 21 calls on the 16-row grid alone, but with 8-row shares the benchmark's
# 16-row grid goes to a child, and its sweep read op_p50_ms 35.3-35.9
# against 31.2-32.3 ms serially (2 pairs) and throughput within its spread
_SHARE_ROWS = 12


def _share_child(conn, rows) -> None:
    """A share process's target: sends ``(True, sweep rows)`` of ``rows``
    over ``conn``, or ``(False, exception)`` if they raise."""
    try:
        reply = (True, _sweep_rows(rows))
    except Exception as exc:
        reply = (False, exc)
    conn.send(reply)


def sweep(param_list, parallel: bool = False, workers: int | None = None):
    """Run the grid; rows come back in grid order regardless of mode.

    A row reports the numbers of its profile that :func:`_report` gives,
    the same numbers as its ``solve_summary.json``: its status and
    lifetime, the mean and spread of mu and, when completed, the
    log-slopes of a and b (NaN otherwise).  A row whose shooting raises
    has the status ``error:<Type>:<message>``, the message on one line and
    without commas, lifetime 0.0 and NaN numbers.  Rows integrate in
    lockstep batches (:func:`_sweep_rows`, :func:`_dop853`), and a row's
    numbers have the bits of the row shot alone, whatever the other rows
    of its batch: the batch's products are stacked ``np.matmul`` products
    over the rows' own stage tables, which give each row the bits of its
    ``np.dot``, the step-size control runs row by row, and the last row of
    a batch steps on alone with the operations of :func:`shoot`.  So
    neither the grid nor its split into batches and shares changes a row.

    ``parallel`` permits processes and ``workers`` caps them, the caller
    among them (default: the CPU count).  A parallel sweep runs in
    ``min(workers, rows // _SHARE_ROWS)`` processes, so each gets at
    least ``_SHARE_ROWS`` (12) rows; below two the grid runs serially in
    the calling process, as every grid of under 24 rows does.  Each
    process integrates one share of the grid, every n-th row of n shares,
    as one batch per state size (:func:`_sweep_rows`): the caller
    integrates share 0 and each other share runs in a daemonic child
    process (:func:`_share_child`) that sends its rows back over a pipe.
    A child's exception is raised again in the caller, a child that ends
    without a reply raises ``ChildProcessError`` (an ``OSError``, so the
    CLI reports an I/O failure), and no child outlives the call.
    """
    param_list = list(param_list)
    n = (min(workers or os.cpu_count() or 1, len(param_list) // _SHARE_ROWS)
         if parallel else 1)
    if n < 2:
        return _sweep_rows(param_list)
    import multiprocessing as mp
    out = [None] * len(param_list)
    children = []                # (read end, process) of shares 1 to n - 1
    try:
        for i in range(1, n):
            recv, send = mp.Pipe(duplex=False)
            child = mp.Process(target=_share_child,
                               args=(send, param_list[i::n]), daemon=True)
            child.start()
            children.append((recv, child))
            # the child now holds the only write end, so a child that ends
            # without a reply ends the read with EOFError
            send.close()
        out[0::n] = _sweep_rows(param_list[0::n])
        for i, (recv, child) in enumerate(children, start=1):
            try:
                ok, reply = recv.recv()
            except EOFError:
                child.join()
                raise ChildProcessError(
                    f"sweep share {i} process exited with code "
                    f"{child.exitcode} before it replied") from None
            if not ok:
                raise reply
            out[i::n] = reply
    finally:
        for recv, child in children:
            recv.close()
            if child.is_alive():
                child.terminate()
            child.join()
    return out
