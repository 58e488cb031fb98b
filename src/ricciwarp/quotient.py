"""Finite isometric group actions and quotient hypothesis certificates.

A warped product descends to a smooth quotient by a finite cyclic group
when the group acts freely and isometrically on the fiber, isometrically
on the base, and leaves the warping and potential functions invariant; the
diagonal action on the product is then free and isometric for the warped
metric.  This module represents such actions by orthogonal generators in
ambient coordinates (the fiber is the unit round sphere S^m in R^{m+1},
the base is R^{k+1} with a rotationally symmetric metric) and certifies
each hypothesis numerically on sample sets: :func:`certify_quotient`
reads all of them from one pass over the p - 1 non-identity powers, which
evaluates the base metric, warping and potential once at the samples and
once per power.

Freeness is sampled, not proved: the sample sets deterministically include
the fixed-point candidates of every non-identity power (unit eigenvectors
with eigenvalue 1, taken from the powers whose exponent divides the group
order), which for linear actions on spheres makes the sampled check
exhaustive for the shipped action families, plus seeded quasi-random
points.  Certificates record sample counts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .patches import GeometryError, MetricPatch, ScalarField, _strict_json

__all__ = [
    "GroupAction",
    "QuotientCertificate",
    "make_cyclic_action",
    "certify_quotient",
    "fixed_point_candidates",
    "fiber_sample_set",
    "base_sample_set",
]

CERTIFICATE_SCHEMA_VERSION = 1
_GROUP_LAW_TOL = 1e-12
_FREENESS_TOLERANCE = 1e-6   # the least margin of a free action


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


# the default radial range of the base samples
T_RANGE = (0.5, 2.0)


def base_sample_set(k: int, t_range=T_RANGE, n_random: int = 32,
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
                       t_range=T_RANGE) -> GroupAction:
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


def _tangent_projector(Y: np.ndarray) -> np.ndarray:
    """Projectors onto the tangent spaces of the sphere at a batch Y (N, q)."""
    U = Y / np.linalg.norm(Y, axis=1, keepdims=True)
    return np.eye(Y.shape[1]) - U[:, :, None] * U[:, None, :]


@dataclass
class QuotientCertificate:
    """Hypothesis residuals for a quotient construction; its document
    records the fixed ``_FREENESS_TOLERANCE`` as ``freeness_tolerance``."""

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

    @property
    def verdict(self) -> bool:
        residuals = (self.base_isometry_residual, self.fiber_isometry_residual,
                     self.f_invariance, self.phi_invariance,
                     self.diagonal_isometry_residual)
        return (self.freeness_margin > _FREENESS_TOLERANCE
                and self.diagonal_freeness_margin > _FREENESS_TOLERANCE
                and all(r <= self.tolerance for r in residuals))

    def to_dict(self) -> dict:
        return {**asdict(self), "freeness_tolerance": _FREENESS_TOLERANCE,
                "schema_version": CERTIFICATE_SCHEMA_VERSION,
                "verdict": "pass" if self.verdict else "fail"}

    def to_json(self) -> str:
        return _strict_json(self.to_dict())


def certify_quotient(action: GroupAction,
                     base_patch: MetricPatch,
                     f: ScalarField,
                     phi: ScalarField,
                     tolerance: float = 1e-10) -> QuotientCertificate:
    """Certify the quotient hypotheses for a warped product.

    One pass over the non-identity powers g^j = (B^j, F^j), j = 1..p-1,
    of the base and fiber generators.  The base metric g, f and phi are
    evaluated at the base samples X and the sphere's tangent projector P at
    the fiber samples Y once, then at B^j X and F^j Y once per power, and
    every residual is read from those arrays:

    * freeness margin -- min |F^j y - y| over the fiber samples;
    * base and fiber isometry residuals -- max ||(B^j)^T g(B^j x) B^j - g(x)||_F,
      and the same pullback of the round metric compared on tangent spaces
      through P, which keeps the fiber test chart free;
    * f and phi invariance -- max |u(B^j x) - u(x)|;
    * the diagonal action on the first min(#X, #Y) pairs (x, y): its
      residual as an isometry of the ambient form g + f^2 P of the warped
      metric, and its margin as a fixed-point free map.

    A NaN in the metric, f or phi makes the residuals it enters NaN, and a
    NaN residual or margin fails the verdict, which needs every residual at
    most ``tolerance`` and both margins above ``_FREENESS_TOLERANCE``.

    The base patch must be an ambient-coordinate chart (the generators are
    linear maps of those coordinates), and a sample that a power maps
    outside its domain raises :class:`GeometryError`; the fiber is the
    unit round sphere carrying the action's fiber generator.
    """
    X, Y = action.base_samples, action.fiber_samples
    n = min(len(X), len(Y))    # the (x, y) pairs of the diagonal checks
    gX, fX, phiX = base_patch.metric(X), f(X), phi(X)
    P = _tangent_projector(Y)
    gf = (fX[:n] * fX[:n])[:, None, None] * P[:n]
    # per power: freeness margin, base, fiber, f, phi and diagonal
    # residuals, diagonal margin; numpy folds keep a NaN, which fails
    worst = []
    for Mb, Mf in zip(_powers(action.base_generator, action.order - 1),
                      _powers(action.fiber_generator, action.order - 1)):
        MX, MY = X @ Mb.T, Y @ Mf.T
        inside = base_patch._inside(MX, 0.0)
        if not inside.all():
            raise GeometryError(f"sample {X[np.argmin(inside)]} maps outside "
                                f"the domain of '{base_patch.label}'")
        base_dev = np.linalg.norm(Mb.T @ base_patch.metric(MX) @ Mb - gX,
                                  axis=(1, 2))
        fMX = f(MX)
        pull = Mf.T @ _tangent_projector(MY) @ Mf
        disp = np.linalg.norm(MY - Y, axis=1)
        gf_pull = (fMX[:n] * fMX[:n])[:, None, None] * pull[:n]
        block = (base_dev[:n] ** 2
                 + np.linalg.norm(P[:n] @ (gf_pull - gf) @ P[:n], axis=(1, 2)) ** 2)
        diag_disp = np.sqrt(np.linalg.norm(MX[:n] - X[:n], axis=1) ** 2
                            + disp[:n] ** 2)
        worst.append((
            disp.min(),
            base_dev.max(initial=0.0),
            np.linalg.norm(P @ (pull - P) @ P, axis=(1, 2)).max(initial=0.0),
            np.abs(fMX - fX).max(initial=0.0),
            np.abs(phi(MX) - phiX).max(initial=0.0),
            np.sqrt(block).max(initial=0.0),
            diag_disp.min(initial=np.inf)))
    (margin, base_res, fiber_res, f_dev, phi_dev, diag_res,
     diag_margin) = np.array(worst).T

    return QuotientCertificate(
        label=action.label,
        order=action.order,
        freeness_margin=float(margin.min()),
        base_isometry_residual=float(base_res.max()),
        fiber_isometry_residual=float(fiber_res.max()),
        f_invariance=float(f_dev.max()),
        phi_invariance=float(phi_dev.max()),
        diagonal_isometry_residual=float(diag_res.max()),
        diagonal_freeness_margin=float(diag_margin.min()),
        n_base_samples=len(X),
        n_fiber_samples=len(Y),
        tolerance=tolerance,
    )
