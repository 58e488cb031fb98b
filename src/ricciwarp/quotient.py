"""Finite isometric group actions and quotient hypothesis certificates.

A warped product descends to a smooth quotient by a finite cyclic group
when the group acts freely and isometrically on the fiber, isometrically
on the base, and leaves the warping and potential functions invariant; the
diagonal action on the product is then free and isometric for the warped
metric.  This module represents such actions by orthogonal generators in
ambient coordinates (the fiber is the unit round sphere S^m in R^{m+1},
the base is R^{k+1} with a rotationally symmetric metric) and certifies
each hypothesis numerically on sample sets.

Freeness is sampled, not proved: the sample sets deterministically include
the fixed-point candidates of every non-identity power (unit eigenvectors
with eigenvalue 1, taken from the powers whose exponent divides the group
order), which for linear actions on spheres makes the sampled check
exhaustive for the shipped action families, plus seeded quasi-random
points.  Certificates record sample counts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .patches import GeometryError, MetricPatch, ScalarField, as_points

__all__ = [
    "GroupAction",
    "QuotientCertificate",
    "make_cyclic_action",
    "is_free",
    "isometry_residual",
    "sphere_isometry_residual",
    "invariance_deviation",
    "certify_quotient",
    "fixed_point_candidates",
    "fiber_sample_set",
    "base_sample_set",
]

CERTIFICATE_SCHEMA_VERSION = 1
_GROUP_LAW_TOL = 1e-12


@dataclass(frozen=True)
class GroupAction:
    """A cyclic group acting on base and fiber by orthogonal generators.

    ``base_generator`` acts on the ambient coordinates R^{k+1} of the base;
    ``fiber_generator`` on the ambient coordinates R^{m+1} of the unit
    fiber sphere.  Construction verifies the group law generator^order = id
    and that the fiber generator preserves the sphere.
    """

    order: int
    base_generator: np.ndarray
    fiber_generator: np.ndarray
    base_samples: np.ndarray    # (N, k+1)
    fiber_samples: np.ndarray   # (M, m+1), unit vectors
    label: str = "cyclic-action"

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("group order must be >= 2")
        for name in ("base_generator", "fiber_generator"):
            M = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, M)
            power = np.linalg.matrix_power(M, self.order)
            err = np.abs(power - np.eye(M.shape[0])).max()
            if err > _GROUP_LAW_TOL:
                raise ValueError(
                    f"{name}^{self.order} deviates from the identity by {err:.2e}")
        object.__setattr__(self, "base_samples",
                           np.atleast_2d(np.asarray(self.base_samples, dtype=float)))
        fs = np.atleast_2d(np.asarray(self.fiber_samples, dtype=float))
        object.__setattr__(self, "fiber_samples", fs)
        norms = np.linalg.norm(fs @ self.fiber_generator.T, axis=1)
        if fs.size and np.abs(norms - np.linalg.norm(fs, axis=1)).max() > _GROUP_LAW_TOL:
            raise ValueError("fiber generator does not preserve the sphere")


def _powers(generator: np.ndarray, count: int):
    """The powers generator^1, ..., generator^count."""
    out, M = [], generator
    for _ in range(count):
        out.append(M)
        M = M @ generator
    return out


def fixed_point_candidates(mat: np.ndarray) -> np.ndarray:
    """Unit vectors spanning the eigenvalue-1 eigenspace of an orthogonal map.

    For a linear action the fixed-point set on the sphere is the unit
    eigenspace, so these points (with their antipodes) witness any failure
    of freeness exactly.
    """
    vals, vecs = np.linalg.eig(np.asarray(mat, dtype=float))
    out = []
    for i in range(vals.size):
        if abs(vals[i] - 1.0) < 1e-9:
            for part in (vecs[:, i].real, vecs[:, i].imag):
                nrm = np.linalg.norm(part)
                if nrm > 1e-9:
                    v = part / nrm
                    out.append(v)
                    out.append(-v)
    return np.array(out) if out else np.zeros((0, mat.shape[0]))


def _rotation_block(p: int, size: int, planes) -> np.ndarray:
    M = np.eye(size)
    c, s = np.cos(2 * np.pi / p), np.sin(2 * np.pi / p)
    for (i, j) in planes:
        M[i, i] = c
        M[j, j] = c
        M[i, j] = -s
        M[j, i] = s
    return M


def fiber_sample_set(generator: np.ndarray, order: int, n_random: int = 64,
                     seed: int = 0) -> np.ndarray:
    """Unit-sphere samples: basis axes, fixed-point candidates, random points.

    In a cyclic group Fix(g^j) = Fix(g^gcd(j, order)), so the candidates of
    the powers g^d with d a proper divisor of the order cover every
    non-identity power.
    """
    q = generator.shape[0]
    pts = [np.eye(q), -np.eye(q)]
    powers = _powers(generator, order - 1)
    for M in (powers[d - 1] for d in range(1, order) if order % d == 0):
        cand = fixed_point_candidates(M)
        if cand.size:
            pts.append(cand)
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n_random, q))
    pts.append(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    return np.vstack(pts)


def base_sample_set(k: int, t_range=(0.5, 2.0), n_random: int = 32,
                    seed: int = 0) -> np.ndarray:
    """Ambient R^{k+1} samples with radii inside ``t_range``."""
    n = k + 1
    lo, hi = t_range
    rng = np.random.default_rng(seed)
    if n == 1:
        radii = lo + (hi - lo) * rng.random(n_random)
        signs = np.where(rng.random(n_random) < 0.5, -1.0, 1.0)
        pts = (signs * radii)[:, None]
        axes = np.array([[lo], [hi], [-lo], [-hi]])
        return np.vstack([axes, pts])
    raw = rng.normal(size=(n_random, n))
    dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    radii = lo + (hi - lo) * rng.random(n_random)
    axes = np.vstack([np.eye(n) * lo, np.eye(n) * hi])
    return np.vstack([axes, dirs * radii[:, None]])


def make_cyclic_action(p: int, k: int, m: int, kind: str,
                       n_samples: int = 64, seed: int = 0,
                       t_range=(0.5, 2.0)) -> GroupAction:
    """Standard order-p actions on the fiber sphere S^m and base R^{k+1}.

    Kinds:

    * ``"hopf"`` -- simultaneous rotation by 2 pi / p in all coordinate
      planes of R^{m+1}; requires odd m, acts freely for every p.
    * ``"antipodal"`` -- the map x -> -x; requires p = 2, free in every
      dimension.
    * ``"axis_rotation"`` -- rotation by 2 pi / p in one coordinate plane
      only.  For m >= 2 this fixes sphere points and is the stock example
      of an action that fails the freeness certificate.

    The base generator is a rotation of order p in the (x1, x2) plane of
    R^{k+1}, which preserves the radial coordinate; for k = 0 only p = 2
    is possible (the reflection).
    """
    if kind == "hopf":
        if m % 2 == 0:
            raise ValueError("the Hopf-type rotation needs odd fiber dimension m")
        planes = [(2 * i, 2 * i + 1) for i in range((m + 1) // 2)]
        fiber_gen = _rotation_block(p, m + 1, planes)
    elif kind == "antipodal":
        if p != 2:
            raise ValueError("the antipodal map generates an order-2 group only")
        fiber_gen = -np.eye(m + 1)
    elif kind == "axis_rotation":
        fiber_gen = _rotation_block(p, m + 1, [(0, 1)])
    else:
        raise ValueError(f"unknown action kind '{kind}'")

    if k == 0:
        if p != 2:
            raise ValueError("an order-p rotation on the line needs p = 2")
        base_gen = -np.eye(1)
    else:
        base_gen = _rotation_block(p, k + 1, [(0, 1)])

    return GroupAction(
        order=p,
        base_generator=base_gen,
        fiber_generator=fiber_gen,
        base_samples=base_sample_set(k, t_range, n_samples // 2, seed + 1),
        fiber_samples=fiber_sample_set(fiber_gen, p, n_samples, seed),
        label=f"Z{p}-{kind}(k={k},m={m})",
    )


def is_free(action: GroupAction, tolerance: float = 1e-6):
    """Sampled freeness of the fiber action.

    Returns ``(free, margin)`` with margin the minimum displacement
    |g^j x - x| over non-identity powers and fiber samples.  A positive
    sampled margin is evidence, not proof; the certificate records the
    sample count.
    """
    margin = np.inf
    for M in _powers(action.fiber_generator, action.order - 1):
        disp = np.linalg.norm(action.fiber_samples @ M.T - action.fiber_samples,
                              axis=1)
        margin = min(margin, float(disp.min()))
    return bool(margin > tolerance), float(margin)


def isometry_residual(mapmat: np.ndarray, patch: MetricPatch, samples) -> float:
    """Max over samples of || A^T g(Ax) A - g(x) ||_F on a chart patch."""
    A = np.asarray(mapmat, dtype=float)
    X, _ = as_points(samples)
    AX = X @ A.T
    inside = patch._inside(AX, 0.0)
    if not inside.all():
        raise GeometryError(
            f"sample {X[np.argmin(inside)]} maps outside the domain of '{patch.label}'")
    res = A.T @ patch.metric(AX) @ A - patch.metric(X)
    return float(np.linalg.norm(res, axis=(1, 2)).max(initial=0.0))


def _tangent_projector(Y: np.ndarray) -> np.ndarray:
    """Projectors onto the tangent spaces of the sphere at a batch Y (N, q)."""
    U = Y / np.linalg.norm(Y, axis=1, keepdims=True)
    return np.eye(Y.shape[1]) - U[:, :, None] * U[:, None, :]


def sphere_isometry_residual(mapmat: np.ndarray, samples) -> float:
    """Pullback residual of the round metric on the unit sphere.

    The induced metric is compared on tangent spaces through the ambient
    projector, so the test is chart free.
    """
    A = np.asarray(mapmat, dtype=float)
    Y, _ = as_points(samples)
    P = _tangent_projector(Y)
    res = P @ (A.T @ _tangent_projector(Y @ A.T) @ A - P) @ P
    return float(np.linalg.norm(res, axis=(1, 2)).max(initial=0.0))


def invariance_deviation(u: ScalarField, mapmat: np.ndarray, samples,
                         power: int = 1) -> float:
    """Max |u(A^j x) - u(x)| over samples and powers j = 1..power."""
    X, _ = as_points(samples)
    u0 = u(X)
    worst = 0.0
    for M in _powers(np.asarray(mapmat, dtype=float), power):
        worst = max(worst, float(np.abs(u(X @ M.T) - u0).max(initial=0.0)))
    return worst


@dataclass
class QuotientCertificate:
    """Hypothesis residuals for a quotient construction."""

    label: str
    order: int
    freeness_margin: float
    base_isometry_residual: float
    fiber_isometry_residual: float
    f_invariance: float
    phi_invariance: float
    diagonal_isometry_residual: float
    diagonal_freeness_margin: float
    n_base_samples: int
    n_fiber_samples: int
    tolerance: float
    freeness_tolerance: float

    @property
    def verdict(self) -> bool:
        residuals = (self.base_isometry_residual, self.fiber_isometry_residual,
                     self.f_invariance, self.phi_invariance,
                     self.diagonal_isometry_residual)
        return (self.freeness_margin > self.freeness_tolerance
                and self.diagonal_freeness_margin > self.freeness_tolerance
                and all(r <= self.tolerance for r in residuals))

    def to_dict(self) -> dict:
        return {**asdict(self), "schema_version": CERTIFICATE_SCHEMA_VERSION,
                "verdict": "pass" if self.verdict else "fail"}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def certify_quotient(action: GroupAction,
                     base_patch: MetricPatch,
                     f: ScalarField,
                     phi: ScalarField,
                     tolerance: float = 1e-10,
                     freeness_tolerance: float = 1e-6) -> QuotientCertificate:
    """Certify the quotient hypotheses for a warped product.

    Bundles the freeness check on the fiber, isometry residuals on both
    factors, invariance of the warping and potential under every group
    power, and two derived checks on the diagonal action: that it is an
    isometry of the ambient form of the warped metric, and that it is
    fixed-point free on sampled product points.

    The base patch must be an ambient-coordinate chart (the generators are
    linear maps of those coordinates); the fiber is the unit round sphere
    carrying the action's fiber generator.
    """
    _, margin = is_free(action, freeness_tolerance)
    base_powers = _powers(action.base_generator, action.order - 1)
    fiber_powers = _powers(action.fiber_generator, action.order - 1)

    base_res = max(isometry_residual(M, base_patch, action.base_samples)
                   for M in base_powers)
    fiber_res = max(sphere_isometry_residual(M, action.fiber_samples)
                    for M in fiber_powers)
    f_dev = invariance_deviation(f, action.base_generator, action.base_samples,
                                 power=action.order - 1)
    phi_dev = invariance_deviation(phi, action.base_generator, action.base_samples,
                                   power=action.order - 1)

    n_pairs = min(len(action.base_samples), len(action.fiber_samples))
    X = action.base_samples[:n_pairs]
    Y = action.fiber_samples[:n_pairs]
    fX = f(X)
    gb = base_patch.metric(X)
    P = _tangent_projector(Y)
    gf = (fX * fX)[:, None, None] * P
    diag_res = 0.0
    diag_margin = np.inf
    for Mb, Mf in zip(base_powers, fiber_powers):
        MX, MY = X @ Mb.T, Y @ Mf.T
        fMX = f(MX)
        gb_pull = Mb.T @ base_patch.metric(MX) @ Mb
        gf_pull = (fMX * fMX)[:, None, None] * (Mf.T @ _tangent_projector(MY) @ Mf)
        block = (np.linalg.norm(gb_pull - gb, axis=(1, 2)) ** 2
                 + np.linalg.norm(P @ (gf_pull - gf) @ P, axis=(1, 2)) ** 2)
        diag_res = max(diag_res, float(np.sqrt(block).max(initial=0.0)))
        disp = np.sqrt(np.linalg.norm(MX - X, axis=1) ** 2
                       + np.linalg.norm(MY - Y, axis=1) ** 2)
        diag_margin = min(diag_margin, float(disp.min(initial=np.inf)))

    return QuotientCertificate(
        label=action.label,
        order=action.order,
        freeness_margin=margin,
        base_isometry_residual=base_res,
        fiber_isometry_residual=fiber_res,
        f_invariance=f_dev,
        phi_invariance=phi_dev,
        diagonal_isometry_residual=diag_res,
        diagonal_freeness_margin=diag_margin,
        n_base_samples=len(action.base_samples),
        n_fiber_samples=len(action.fiber_samples),
        tolerance=tolerance,
        freeness_tolerance=freeness_tolerance,
    )
