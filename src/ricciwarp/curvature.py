"""Curvature operators on coordinate patches by finite differences.

This module is the measurement instrument of the package: Christoffel
symbols, Ricci tensor, Hessian, gradient and Laplacian of scalar fields,
and the gradient-soliton residual Ric + Hess(psi) - lam * g, all computed
from metric evaluations with fourth-order stencils.  No closed form is
assumed anywhere here, which is what lets these routines act as an
independent oracle for the structured formulas elsewhere in the package.

Every operator takes one chart point ``(dim,)`` or a batch ``(N, dim)``
and returns the matching shape.  :func:`metric_jet` differences the
metric once per batch and is the one gate of the step and the ``2h``
stencil margin; its :class:`MetricJet` records the patch, the points and
the step.  The formulas read a jet alone, so operators at the same points
share one and none can take a jet of other points or another step:
:func:`ricci` (which needs ``4h`` of margin) and :func:`field_data`,
which differences a field once at the jet's points into a
:class:`GradientData`.  The public operators compose them.  A batch
costs one call of the patch metric ``g: (N, dim) -> (N, dim, dim)`` per
``fd`` chunk, and one call of a field ``f: (N, dim) -> (N,)`` per chunk
for each field it differences.

Index conventions.  ``christoffel`` returns ``Gamma[i, j, k]`` for
Gamma^i_{jk}; derivative tensors are indexed with the derivative axes
first, e.g. ``dg[c, a, b] = d_c g_{ab}``.  Batched arrays carry the point
index in front.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .fd import check_step, value_jet
from .patches import DegenerateMetricError, MetricPatch, ScalarField, as_points

__all__ = [
    "DEFAULT_STEP",
    "christoffel",
    "ricci_fd",
    "hessian_fd",
    "gradient_laplacian",
    "GradientData",
    "soliton_residual",
    "transform_chart",
]

DEFAULT_STEP = 1e-3
# curvature differencing amplifies metric ill-conditioning; refuse beyond this
CONDITION_LIMIT = 1e10

# interior margins, in stencil steps
_MARGIN_FIRST = 2   # the stencil reach: metric_jet
_MARGIN_SECOND = 4  # ricci, soliton residual


def _inverse_metric(g0: np.ndarray, X: np.ndarray, label: str) -> np.ndarray:
    """Inverses of a batch of metric matrices, each checked at its point."""

    def refuse(bad, problem):
        i = int(np.argmax(bad))
        raise DegenerateMetricError(
            f"metric of '{label}' {problem(i)} at point {X[i]}")

    bad = ~np.isfinite(g0).all(axis=(1, 2))
    if bad.any():
        refuse(bad, lambda i: "is not finite")
    asym = np.abs(g0 - np.swapaxes(g0, 1, 2)).max(axis=(1, 2), initial=0.0)
    bad = asym > 1e-9 * (1.0 + np.abs(g0).max(axis=(1, 2), initial=0.0))
    if bad.any():
        refuse(bad, lambda i: "is not symmetric")
    eigs = np.linalg.eigvalsh(g0)
    lo, hi = eigs[:, 0], eigs[:, -1]
    if np.any(lo <= 0.0):
        refuse(lo <= 0.0, lambda i: "is not positive definite "
               f"(smallest eigenvalue {lo[i]:.2e})")
    if np.any(hi > CONDITION_LIMIT * lo):
        refuse(hi > CONDITION_LIMIT * lo, lambda i: "has condition number "
               f"{hi[i] / lo[i]:.2e} (limit {CONDITION_LIMIT:.0e})")
    return np.linalg.inv(g0)


class MetricJet(NamedTuple):
    """Metric 2-jet and Levi-Civita connection of ``patch`` at a batch of
    N points ``X``, differenced with step ``h``."""

    patch: MetricPatch
    X: np.ndarray       # (N, dim)
    h: float
    g0: np.ndarray      # (N, dim, dim)        g_{ab}
    dg: np.ndarray      # (N, dim, dim, dim)   d_c g_{ab}
    d2g: np.ndarray     # (N, dim, dim, dim, dim)   d_c d_d g_{ab}
    ginv: np.ndarray    # (N, dim, dim)        g^{ab}
    Gamma: np.ndarray   # (N, dim, dim, dim)   Gamma^i_{jk}


def _christoffel_tensor(dg: np.ndarray) -> np.ndarray:
    # T[n,j,k,l] = d_j g_{kl} + d_k g_{jl} - d_l g_{jk}
    return dg + np.transpose(dg, (0, 2, 1, 3)) - np.transpose(dg, (0, 3, 2, 1))


def metric_jet(patch: MetricPatch, x, h: float = DEFAULT_STEP) -> MetricJet:
    """Difference the metric once at a batch of points.

    ``x`` has shape (N, dim) (a single point is taken as a batch of one).
    Raises ``ValueError`` for a step that ``fd.check_step`` refuses at the
    points, :class:`BoundaryProximityError` unless every point keeps the
    stencil reach ``2h`` from the boundary, and
    :class:`DegenerateMetricError` naming the first point where the metric
    is not finite, symmetric, positive definite or well conditioned.
    """
    X, _ = as_points(x)
    check_step(h, X)
    patch.require_interior(X, _MARGIN_FIRST * h)
    g0, dg, d2g = value_jet(patch.metric, X, h)
    ginv = _inverse_metric(g0, X, patch.label)
    Gamma = 0.5 * np.einsum("nil,njkl->nijk", ginv, _christoffel_tensor(dg))
    return MetricJet(patch, X, h, g0, dg, d2g, ginv, Gamma)


def christoffel(patch: MetricPatch, x, h: float = DEFAULT_STEP) -> np.ndarray:
    """Christoffel symbols ``Gamma[i, j, k]`` = Gamma^i_{jk} of the
    Levi-Civita connection, symmetric in (j, k), at ``x``: one point or a
    batch at least ``2h`` inside the domain."""
    X, single = as_points(x)
    Gamma = metric_jet(patch, X, h).Gamma
    return Gamma[0] if single else Gamma


def ricci(jet: MetricJet) -> np.ndarray:
    """Ricci tensor components at the points of a metric jet, (N, dim, dim).

    Uses the coordinate formula
    ``R_{jk} = d_i Gamma^i_{jk} - d_j Gamma^i_{ik}
    + Gamma^i_{ip} Gamma^p_{jk} - Gamma^i_{jp} Gamma^p_{ik}``
    with the Gamma derivatives expanded analytically in terms of first and
    second metric derivatives, so the metric is differenced only once.
    The result is symmetrized before returning; truncation error is
    O(h^4) on smooth metrics, with an O(eps/h^2) rounding floor.  Every
    point of the jet must be at least ``4h`` inside the domain.
    """
    jet.patch.require_interior(jet.X, _MARGIN_SECOND * jet.h)
    dg, d2g, ginv, Gamma = jet.dg, jet.d2g, jet.ginv, jet.Gamma
    # dginv[n,c,i,l] = -g^{ia} d_c g_{ab} g^{bl}
    dginv = -(ginv[:, None] @ dg @ ginv[:, None])
    # dT[n,c,j,k,l] = d_c (d_j g_{kl} + d_k g_{jl} - d_l g_{jk})
    dT = (d2g + np.transpose(d2g, (0, 1, 3, 2, 4))
          - np.transpose(d2g, (0, 1, 4, 3, 2)))
    dGamma = 0.5 * (np.einsum("ncil,njkl->ncijk", dginv, _christoffel_tensor(dg))
                    + np.einsum("nil,ncjkl->ncijk", ginv, dT))
    R = (np.einsum("niijk->njk", dGamma)
         - np.einsum("njiik->njk", dGamma)
         + np.einsum("niip,npjk->njk", Gamma, Gamma)
         - np.einsum("nijp,npik->njk", Gamma, Gamma))
    return 0.5 * (R + np.swapaxes(R, 1, 2))


def ricci_fd(patch: MetricPatch, x, h: float = DEFAULT_STEP) -> np.ndarray:
    """Ricci tensor components by finite differences: :func:`ricci` of the
    :func:`metric_jet` at ``x``, one point or a batch at least ``4h``
    inside the domain."""
    X, single = as_points(x)
    R = ricci(metric_jet(patch, X, h))
    return R[0] if single else R


class GradientData(NamedTuple):
    """Per-point data of a scalar field; at a batch every field carries the
    point index in front."""

    gradient: np.ndarray      # contravariant components g^{-1} du
    laplacian: float          # trace of the Hessian w.r.t. g
    grad_norm_sq: float       # |grad u|^2 = du . g^{-1} du
    value: float              # u itself, from the same stencil call
    differential: np.ndarray  # covariant components du
    hessian: np.ndarray       # covariant Hessian d^2 u - Gamma . du


def field_data(jet: MetricJet, u: ScalarField) -> GradientData:
    """Value, differential, gradient, Hessian, Laplacian and squared
    gradient norm of ``u`` at the points of a metric jet, from one stencil
    call of the field with the jet's step; every entry is batched."""
    u0, du, d2u = value_jet(u, jet.X, jet.h)
    hess = d2u - np.einsum("nijk,ni->njk", jet.Gamma, du)
    return GradientData(gradient=np.einsum("nij,nj->ni", jet.ginv, du),
                        laplacian=np.einsum("nij,nij->n", jet.ginv, hess),
                        grad_norm_sq=np.einsum("ni,nij,nj->n", du, jet.ginv, du),
                        value=u0, differential=du, hessian=hess)


def gradient_laplacian(patch: MetricPatch, u: ScalarField, x,
                       h: float = DEFAULT_STEP) -> GradientData:
    """:func:`field_data` of ``u`` at ``x``, one point or a batch at least
    ``2h`` inside the domain.  At one point the scalars are floats."""
    X, single = as_points(x)
    data = field_data(metric_jet(patch, X, h), u)
    if single:
        return GradientData(*(float(e[0]) if e.ndim == 1 else e[0]
                              for e in data))
    return data


def hessian_fd(patch: MetricPatch, u: ScalarField, x,
               h: float = DEFAULT_STEP) -> np.ndarray:
    """Covariant Hessian of a scalar field: d^2 u - Gamma . du, componentwise.

    The ``hessian`` of :func:`gradient_laplacian`, with the same arguments.
    """
    return gradient_laplacian(patch, u, x, h).hessian


def soliton_residual(patch: MetricPatch, psi: ScalarField, lam: float, x,
                     h: float = DEFAULT_STEP):
    """Gradient-soliton residual Ric + Hess(psi) - lam * g.

    Returns ``(matrix, frobenius_norm)`` at one point, or arrays of shape
    (N, dim, dim) and (N,) at a batch.  The metric is differenced once for
    all three terms.

    The norm is bounded below by the largest of three floors: stencil
    truncation, O(h^4); rounding, O(eps/h^2); and the error of the data
    the metric is built from.  On profiles shot at the default integrator
    tolerances the third floor dominates: on the steady k = 1, m = 2
    profile the worst residual over ``certify_profile``'s samples is
    4.47e-7 to 4.48e-7 for every h from 4e-3 to 5e-4.  Shot at
    tol = 1e-12 the profile reads 1.60e-8, 4.36e-9, 4.41e-9 and
    4.49e-8 at h = 5e-4, 1e-3, 2e-3 and 4e-3: rounding below 1e-3 and
    truncation above 2e-3.
    """
    X, single = as_points(x)
    jet = metric_jet(patch, X, h)
    res = ricci(jet) + field_data(jet, psi).hessian - lam * jet.g0
    norms = np.linalg.norm(res, axis=(1, 2))
    return (res[0], float(norms[0])) if single else (res, norms)


def transform_chart(patch: MetricPatch, A, label: str | None = None) -> MetricPatch:
    """Pull a patch back along the linear chart map y -> A y.

    The new patch carries the metric ``A^T g(A y) A`` on an axis-aligned
    box guaranteed to map into the original domain (an inscribed box
    centered at the preimage of the original center).  The Ricci tensor
    transforms covariantly under this operation, which is what makes it a
    usable consistency check on ``ricci_fd``.
    """
    A = np.asarray(A, dtype=float)
    if A.shape != (patch.dim, patch.dim):
        raise ValueError(f"chart map must be {patch.dim}x{patch.dim}")
    det = np.linalg.det(A)
    if not np.isfinite(det) or abs(det) < 1e-14:
        raise ValueError("chart map must be invertible")
    Ainv = np.linalg.inv(A)

    x0 = patch.center()
    half = 0.5 * (patch.domain[:, 1] - patch.domain[:, 0])
    inradius = float(half.min())
    row_sum = float(np.abs(A).sum(axis=1).max())  # induced sup-norm of A
    rho = 0.999 * inradius / row_sum
    y0 = Ainv @ x0
    dom = np.stack([y0 - rho, y0 + rho], axis=1)

    def g(Y):
        return A.T @ patch.metric(Y @ A.T) @ A

    return MetricPatch(patch.dim, dom, g,
                       label or f"{patch.label}|pullback")
