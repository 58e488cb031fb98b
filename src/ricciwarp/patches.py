"""Coordinate patches, scalar fields, and the standard chart library.

A :class:`MetricPatch` is a single coordinate box together with a smooth
map from chart points to metric component matrices.  Everything downstream
(curvature, warped assembly, certification) consumes patches through this
interface, so any metric that can be evaluated on an array of points plugs
in.

Metrics and scalar fields take batches: ``g: (N, dim) -> (N, dim, dim)``
and ``f: (N, dim) -> (N,)``.  ``MetricPatch.metric`` and
``ScalarField.__call__`` accept one point ``(dim,)`` or a batch
``(N, dim)``, call the callable once on the batch (a single point is a
batch of one) and check the shape of what it returns.  The
finite-difference engine evaluates every stencil point of a check in one
such call.

Charts are single boxes.  Coordinate singularities (sphere poles, the
origin of a polar chart) must lie outside the box; finite-difference
operators additionally require a stencil-width margin from the boundary,
enforced by :meth:`MetricPatch.require_interior`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GeometryError",
    "BoundaryProximityError",
    "DegenerateMetricError",
    "MetricPatch",
    "ScalarField",
    "euclidean_patch",
    "polar_plane_patch",
    "sphere_patch",
    "torus_patch",
    "hyperbolic_patch",
    "radial_profile_base",
    "cartesian_profile_base",
    "quadratic_potential",
    "constant_field",
    "radial_field",
]


def _jsonable(obj):
    """``obj`` with each non-finite float replaced by None."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _strict_json(doc) -> str:
    """A report as strict JSON, indented with sorted keys: a non-finite
    float is written as null, never as the bare ``NaN`` or ``Infinity``
    that a strict parser refuses.  Certificates and the CLI's reports
    all go through it."""
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True,
                      allow_nan=False)


class GeometryError(Exception):
    """Base class for geometric/numeric failures in this package."""


class BoundaryProximityError(GeometryError):
    """A stencil would step outside the chart domain."""


class DegenerateMetricError(GeometryError):
    """The metric is non-invertible or too ill-conditioned at the point."""


def as_points(x):
    """``(X, single)``: ``x`` as an (N, dim) float batch, and whether ``x``
    was a single (dim,) point."""
    x = np.asarray(x, dtype=float)
    return np.atleast_2d(x), x.ndim == 1


def _batch_call(fn, X: np.ndarray, expected: tuple, what: str) -> np.ndarray:
    """``fn(X)`` as a float array of shape ``expected``.

    A callable written for one point fails on a batch or returns the wrong
    shape; either way the ``ValueError`` names ``what`` and the shape
    expected of a batch callable.  On a square batch (N == dim >= 2) such a
    callable can return the batch shape by accident, e.g. ``x[0]``, so the
    first point is also tried as a batch of one.
    """
    try:
        out = np.asarray(fn(X), dtype=float)
    except (ValueError, TypeError, IndexError) as exc:
        raise ValueError(f"{what} failed on a batch of shape {X.shape} "
                         f"(expected to return {expected}): {exc}") from exc
    if out.shape != expected:
        raise ValueError(f"{what} returned shape {out.shape}, expected {expected}")
    if len(X) == X.shape[1] >= 2:
        _batch_call(fn, X[:1], (1,) + expected[1:], what)
    return out


@dataclass(frozen=True)
class MetricPatch:
    """A coordinate chart with smooth metric components.

    Attributes
    ----------
    dim : int
        Chart dimension.
    domain : ndarray, shape (dim, 2)
        Axis-aligned box ``[lo_i, hi_i]`` of valid chart coordinates.
    g : callable
        Map from an (N, dim) batch of chart points to the (N, dim, dim)
        symmetric positive-definite component matrices.
    label : str
        Human-readable name used in reports.
    """

    dim: int
    domain: np.ndarray
    g: Callable[[np.ndarray], np.ndarray]
    label: str = "patch"

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("patch dimension must be >= 1")
        dom = np.asarray(self.domain, dtype=float).reshape(self.dim, 2)
        if not np.all(dom[:, 1] > dom[:, 0]):
            raise ValueError("domain box must have hi > lo on every axis")
        object.__setattr__(self, "domain", dom)

    def metric(self, x) -> np.ndarray:
        """Metric components at ``x`` as a float ndarray.

        One point (dim,) gives a (dim, dim) matrix, a batch (N, dim) gives
        an (N, dim, dim) array.
        """
        X, single = as_points(x)
        G = _batch_call(self.g, X, (len(X), self.dim, self.dim),
                        f"metric of patch '{self.label}'")
        return G[0] if single else G

    def _inside(self, X: np.ndarray, margin: float) -> np.ndarray:
        return np.all((X >= self.domain[:, 0] + margin)
                      & (X <= self.domain[:, 1] - margin), axis=-1)

    def require_interior(self, x, margin: float):
        """Raise :class:`BoundaryProximityError` unless every point keeps the margin.

        ``x`` is one point or a batch; the message names the first point
        that does not keep the margin.
        """
        X = np.atleast_2d(np.asarray(x, dtype=float))
        inside = self._inside(X, margin)
        if not inside.all():
            raise BoundaryProximityError(
                f"point {X[np.argmin(inside)]} is within {margin} of the "
                f"boundary of patch '{self.label}'")

    def center(self) -> np.ndarray:
        return self.domain.mean(axis=1)


@dataclass(frozen=True)
class ScalarField:
    """A smooth real-valued function on a chart, e.g. a warping or potential.

    ``f`` maps an (N, dim) batch of chart points to an (N,) array.
    """

    f: Callable[[np.ndarray], np.ndarray]
    label: str = "field"

    def __call__(self, x) -> float | np.ndarray:
        """A float at one point (dim,), an (N,) array at a batch (N, dim)."""
        X, single = as_points(x)
        v = _batch_call(self.f, X, (len(X),), f"field '{self.label}'")
        return float(v[0]) if single else v


# ---------------------------------------------------------------------------
# chart library
# ---------------------------------------------------------------------------

def _identity_metric(n: int):
    eye = np.eye(n)
    return lambda X: np.repeat(eye[None], len(X), axis=0)


def euclidean_patch(n: int, half_width: float = 2.0, label: str | None = None) -> MetricPatch:
    """Flat R^n in Cartesian coordinates on ``[-half_width, half_width]^n``."""
    dom = np.array([[-half_width, half_width]] * n)
    return MetricPatch(n, dom, _identity_metric(n),
                       label or f"euclidean-{n}d")


def polar_plane_patch(t_range=(0.3, 3.0)) -> MetricPatch:
    """Flat plane in polar coordinates (t, theta): dt^2 + t^2 dtheta^2."""
    dom = np.array([list(t_range), [0.3, 2 * np.pi - 0.3]])

    def g(X):
        G = np.zeros((len(X), 2, 2))
        G[:, 0, 0] = 1.0
        G[:, 1, 1] = X[:, 0] ** 2
        return G

    return MetricPatch(2, dom, g, "polar-plane")


def _round_sphere_components(m: int, radius: float, Y: np.ndarray) -> np.ndarray:
    """Round-sphere components at a batch Y of shape (N, m): (N, m, m)."""
    G = np.zeros((len(Y), m, m))
    s = np.full(len(Y), radius * radius)
    for i in range(m):
        G[:, i, i] = s
        if i < m - 1:
            s = s * np.sin(Y[:, i]) ** 2
    return G


def sphere_patch(m: int, radius: float = 1.0, pad: float = 0.35) -> MetricPatch:
    """Round m-sphere of the given radius in nested spherical coordinates.

    The chart box keeps ``pad`` away from the polar coordinate
    singularities.  Ricci = (m-1)/radius^2 * g everywhere.
    """
    if m < 1:
        raise ValueError("sphere dimension must be >= 1")
    dom = [[pad, np.pi - pad]] * (m - 1) + [[pad, 2 * np.pi - pad]]
    return MetricPatch(m, np.array(dom),
                       lambda Y: _round_sphere_components(m, radius, Y),
                       f"sphere-{m}d-r{radius:g}")


def torus_patch(m: int, half_width: float = np.pi) -> MetricPatch:
    """Flat m-torus chart: identity metric on a periodic box (Ricci = 0)."""
    dom = np.array([[-half_width, half_width]] * m)
    return MetricPatch(m, dom, _identity_metric(m), f"torus-{m}d")


def hyperbolic_patch(m: int, radius: float = 1.0) -> MetricPatch:
    """Hyperbolic m-space, upper half-space chart, Ricci = -(m-1)/radius^2 * g."""
    if m < 2:
        raise ValueError("hyperbolic model needs dimension >= 2")
    dom = np.array([[-1.0, 1.0]] * (m - 1) + [[0.5, 2.0]])
    r2 = radius * radius
    eye = np.eye(m)

    def g(Y):
        return (r2 / Y[:, -1] ** 2)[:, None, None] * eye

    return MetricPatch(m, dom, g, f"hyperbolic-{m}d-r{radius:g}")


def radial_profile_base(a, k: int, t_range, label: str = "radial-base") -> MetricPatch:
    """Base chart dt^2 + a(t)^2 g_{S^k} in coordinates (t, angles).

    ``a`` maps an array of t values to the array of a(t) values, e.g. a
    spline.  For k = 0 the base is the line, the chart is one-dimensional
    and ``a`` is unused.
    """
    if k == 0:
        return MetricPatch(1, np.array([list(t_range)]), _identity_metric(1), label)
    sphere_dom = [[0.35, np.pi - 0.35]] * (k - 1) + [[0.35, 2 * np.pi - 0.35]]
    dom = np.array([list(t_range)] + sphere_dom)

    def g(X):
        G = np.zeros((len(X), 1 + k, 1 + k))
        G[:, 0, 0] = 1.0
        a2 = np.asarray(a(X[:, 0]), dtype=float) ** 2
        G[:, 1:, 1:] = a2[:, None, None] * _round_sphere_components(k, 1.0, X[:, 1:])
        return G

    return MetricPatch(1 + k, dom, g, label)


def cartesian_profile_base(a, k: int, t_range, label: str = "cartesian-base") -> MetricPatch:
    """Same base metric as :func:`radial_profile_base` but in ambient
    Cartesian coordinates on R^{k+1}, where linear isometries act.

    The metric at x is ``P_rad + (a(t)/t)^2 P_tan`` with t = |x|; ``a``
    maps an array of t values to the array of a(t) values.  The domain box
    is the full cube ``[-hi, hi]^{k+1}`` so that rotations keep sample
    points inside; validity is governed by the radial range, and a batch
    with a radius outside ``t_range`` raises, naming the first such radius.
    Intended for isometry and invariance checks, not for stencil
    differentiation near the radial bounds.
    """
    lo, hi = float(t_range[0]), float(t_range[1])
    n = k + 1
    dom = np.array([[-hi, hi]] * n)

    def g(X):
        t = np.linalg.norm(X, axis=1)
        outside = ~((t >= lo) & (t <= hi))
        if outside.any():
            raise GeometryError(
                f"point with radius {t[np.argmax(outside)]:g} outside the radial "
                f"range [{lo:g}, {hi:g}] of '{label}'")
        U = X / t[:, None]
        P_rad = U[:, :, None] * U[:, None, :]
        s = (np.asarray(a(t), dtype=float) / t) ** 2
        return P_rad + s[:, None, None] * (np.eye(n) - P_rad)

    return MetricPatch(n, dom, g, label)


def quadratic_potential(lam: float, label: str | None = None) -> ScalarField:
    """The field (lam/2)|x|^2, whose Hessian is lam * identity on flat charts."""
    return ScalarField(lambda X: 0.5 * lam * np.einsum("ni,ni->n", X, X),
                       label or f"quadratic-{lam:g}")


def constant_field(value: float, label: str | None = None) -> ScalarField:
    return ScalarField(lambda X: np.full(len(X), float(value)),
                       label or f"const-{value:g}")


def radial_field(fn, label: str = "radial") -> ScalarField:
    """Field x -> fn(|x|) on an ambient Cartesian chart; ``fn`` maps an
    array of radii to the array of values, e.g. a spline."""
    return ScalarField(lambda X: fn(np.linalg.norm(X, axis=1)), label)
