"""Warped products: assembly, block Ricci formulas, structure residuals.

Given a base patch (B, g_B), a fiber patch (F, g_F) of dimension m, and a
positive warping function f on B, the warped metric on the product chart is
block diagonal:

    g = g_B  (+)  f(x_B)^2 g_F.

The Ricci tensor of g splits into blocks with the classical closed forms

    HH = Ric_B - (m/f) Hess_B(f)
    HV = 0
    VV = Ric_F - [ f Lap_B(f) + (m-1) |grad_B f|^2 ] g_F

where the VV components are taken against the *unwarped* fiber chart
coordinates (the bracket multiplies g_F, not f^2 g_F; this is the
convention under which the block formula is consistent with the soliton
structure equations below, and it is cross-checked against the
finite-difference oracle in the tests).

A warped gradient soliton with potential lifted from the base requires the
base data (f, phi) to satisfy, for constants lam, c:

    Ric_B + Hess(phi) = lam g_B + (m/f) Hess(f)          (tensor equation)
    2 lam phi - |grad phi|^2 + Lap phi + (m/f) grad phi(f) = c   (scalar)

and these force the pointwise quantity

    mu(x) = lam f^2 + f Lap f + (m-1) |grad f|^2 - f grad phi(f)

to be a spatial constant, which must match the Einstein constant of the
fiber (Ric_F = mu g_F).  ``certify_soliton`` checks the full chain and
finishes with the finite-difference soliton residual of the assembled
metric, which is the end-to-end oracle.  Only lam is an input: c and mu
are measured from the data, so each condition is checked, not assumed.

``base_structure`` evaluates all three base conditions at one base point
or a batch of them.  It takes one metric jet of the base and the field
data of f and phi on it (``curvature.metric_jet``, ``ricci`` and
``field_data``), and every condition reads those.  ``certify_soliton``
calls it once with its whole base sample set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .curvature import (
    DEFAULT_STEP,
    field_data,
    metric_jet,
    ricci,
    soliton_residual,
)
from .patches import (
    GeometryError,
    MetricPatch,
    ScalarField,
    _strict_json,
    as_points,
)

__all__ = [
    "WarpedGeometry",
    "BlockMatrix",
    "assemble_warped",
    "lifted_potential",
    "ricci_closed_form",
    "BaseStructure",
    "base_structure",
    "einstein_check",
    "certify_soliton",
    "CertificationReport",
]

REPORT_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class WarpedGeometry:
    """Base + fiber + warping f + potential phi + soliton constant lam
    (shrinking > 0, steady = 0, expanding < 0)."""

    base: MetricPatch
    fiber: MetricPatch
    f: ScalarField
    phi: ScalarField
    lam: float

    def __post_init__(self):
        samples = _positivity_samples(self.base)
        bad = self.f(samples) <= 0.0
        if bad.any():
            raise GeometryError(
                f"warping function '{self.f.label}' is not positive at "
                f"{samples[np.argmax(bad)]}")

    @property
    def n(self) -> int:
        return self.base.dim

    @property
    def m(self) -> int:
        return self.fiber.dim


def _interior_points(patch: MetricPatch, count: int, rng, margin: float = 0.0):
    """``count`` uniform points of the chart box less ``margin`` of each
    axis's width at either end, from one ``rng.random((count, dim))``."""
    width = patch.domain[:, 1] - patch.domain[:, 0]
    lo = patch.domain[:, 0] + margin * width
    hi = patch.domain[:, 1] - margin * width
    return lo + (hi - lo) * rng.random((count, patch.dim))


def _default_samples(patch: MetricPatch, n: int, seed: int, margin: float):
    """The chart centre and ``n - 1`` seeded interior points."""
    pts = _interior_points(patch, n - 1, np.random.default_rng(seed), margin)
    return np.vstack([patch.center()[None, :], pts])


def _positivity_samples(patch: MetricPatch):
    """The centre, the two extreme corners and 32 seeded points of a chart."""
    return np.vstack([patch.center(), patch.domain[:, 0], patch.domain[:, 1],
                      _interior_points(patch, 32, np.random.default_rng(0))])


@dataclass
class BlockMatrix:
    """Horizontal/vertical block decomposition of a symmetric 2-tensor."""

    hh: np.ndarray  # n x n
    vv: np.ndarray  # m x m
    hv: np.ndarray  # n x m

    def full(self) -> np.ndarray:
        n, m = self.hh.shape[0], self.vv.shape[0]
        M = np.zeros((n + m, n + m))
        M[:n, :n] = self.hh
        M[n:, n:] = self.vv
        M[:n, n:] = self.hv
        M[n:, :n] = self.hv.T
        return M


def assemble_warped(w: WarpedGeometry) -> MetricPatch:
    """The warped metric as a plain patch on the product chart.

    The result feeds directly into the curvature oracle; nothing about the
    warped structure is visible to it.
    """
    n, m = w.n, w.m
    base_g, fiber_g, fwarp = w.base.metric, w.fiber.metric, w.f
    dom = np.vstack([w.base.domain, w.fiber.domain])

    def g(X):
        fv = fwarp(X[:, :n])
        bad = fv <= 0.0
        if bad.any():
            raise GeometryError(
                f"warping '{w.f.label}' is nonpositive at {X[np.argmax(bad), :n]}")
        G = np.zeros((len(X), n + m, n + m))
        G[:, :n, :n] = base_g(X[:, :n])
        G[:, n:, n:] = (fv * fv)[:, None, None] * fiber_g(X[:, n:])
        return G

    return MetricPatch(n + m, dom, g,
                       f"warped({w.base.label},{w.fiber.label};f={w.f.label})")


def lifted_potential(w: WarpedGeometry) -> ScalarField:
    """The base potential phi pulled back to the product chart."""
    n, phi = w.n, w.phi
    return ScalarField(lambda X: phi(X[:, :n]), f"{w.phi.label}|lift")


def ricci_closed_form(w: WarpedGeometry, x, h: float = DEFAULT_STEP) -> BlockMatrix:
    """Blockwise Ricci tensor of the warped metric from the closed forms.

    Base quantities (Ric_B, Hess f, Lap f, |grad f|^2) are evaluated on the
    base patch only; the fiber contributes Ric_F at the fiber point.  The
    mixed block is exactly zero.  Components are chart components of the
    product coordinates, directly comparable with ``ricci_fd`` of
    ``assemble_warped``.
    """
    x = np.asarray(x, dtype=float)
    n, m = w.n, w.m
    xb, xf = x[:n], x[n:]
    jet_b = metric_jet(w.base, xb, h)
    jet_f = metric_jet(w.fiber, xf, h)
    gl = field_data(jet_b, w.f)
    fv = gl.value[0]

    hh = ricci(jet_b)[0] - (m / fv) * gl.hessian[0]
    vv = ricci(jet_f)[0] - (fv * gl.laplacian[0]
                            + (m - 1) * gl.grad_norm_sq[0]) * jet_f.g0[0]
    return BlockMatrix(hh=hh, vv=vv, hv=np.zeros((n, m)))


class BaseStructure(NamedTuple):
    """The base structure conditions at one base point (a matrix and
    floats) or at a batch (arrays with the point index in front)."""

    residual: np.ndarray   # Ric_B + Hess(phi) - lam g_B - (m/f) Hess(f)
    residual_norm: float   # its Frobenius norm
    scalar: float          # 2 lam phi - |grad phi|^2 + Lap phi + (m/f) grad phi(f)
    first_integral: float  # lam f^2 + f Lap f + (m-1)|grad f|^2 - f grad phi(f)


def base_structure(w: WarpedGeometry, x_base, h: float = DEFAULT_STEP) -> BaseStructure:
    """The three base conditions of warped soliton data at base points.

    ``residual`` is the tensor equation's residual; ``scalar`` is a spatial
    constant c along solutions (the additive normalization of phi is free,
    so c is an output of the data); ``first_integral`` is a spatial
    constant that must equal the Einstein constant of the fiber.  One
    :func:`metric_jet` of the base, its :func:`ricci` and the
    :func:`field_data` of each of f and phi on it feed all three.  Raises
    :class:`GeometryError` where f is not positive.
    """
    X, single = as_points(x_base)
    lam, m = w.lam, w.m
    jet = metric_jet(w.base, X, h)
    gl_f = field_data(jet, w.f)
    fv = gl_f.value
    bad = fv <= 0.0
    if bad.any():
        raise GeometryError(
            f"warping '{w.f.label}' is nonpositive at {X[np.argmax(bad)]}")
    gl_phi = field_data(jet, w.phi)
    res = (ricci(jet) + gl_phi.hessian - lam * jet.g0
           - (m / fv)[:, None, None] * gl_f.hessian)
    norms = np.linalg.norm(res, axis=(1, 2))
    # g(grad phi, grad f) as dphi(grad f) and as df(grad phi); the two
    # contractions round differently, and each formula keeps its own
    dphi_of_f = np.einsum("ni,ni->n", gl_phi.differential, gl_f.gradient)
    df_of_phi = np.einsum("ni,ni->n", gl_phi.gradient, gl_f.differential)
    scalar = (2.0 * lam * gl_phi.value - gl_phi.grad_norm_sq + gl_phi.laplacian
              + (m / fv) * df_of_phi)
    mu = (lam * fv * fv + fv * gl_f.laplacian + (m - 1) * gl_f.grad_norm_sq
          - fv * dphi_of_f)
    if single:
        return BaseStructure(res[0], float(norms[0]), float(scalar[0]),
                             float(mu[0]))
    return BaseStructure(res, norms, scalar, mu)


def einstein_check(fiber: MetricPatch, mu: float, samples,
                   h: float = DEFAULT_STEP) -> float:
    """Max over samples of || Ric_F - mu g_F ||_F (0 without samples)."""
    X = np.asarray(samples, dtype=float).reshape(-1, fiber.dim)
    jet = metric_jet(fiber, X, h)
    res = ricci(jet) - mu * jet.g0
    return float(np.linalg.norm(res, axis=(1, 2)).max(initial=0.0))


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

@dataclass
class CertificationReport:
    """Per-check residuals and verdict for a warped soliton candidate."""

    label: str
    tolerance: float
    h: float
    lam: float
    m: int
    mu_mean: float
    mu_spread: float
    c_value: float
    checks: dict = field(default_factory=dict)  # name -> {residual, samples, pass}

    @property
    def verdict(self) -> bool:
        return all(entry["pass"] for entry in self.checks.values())

    def to_dict(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "label": self.label,
            "tolerance": self.tolerance,
            "h": self.h,
            "lambda": self.lam,
            "m": self.m,
            "mu_mean": self.mu_mean,
            "mu_spread": self.mu_spread,
            "c": self.c_value,
            "checks": self.checks,
            "verdict": "pass" if self.verdict else "fail",
        }

    def to_json(self) -> str:
        return _strict_json(self.to_dict())


def certify_soliton(w: WarpedGeometry,
                    base_samples=None,
                    fiber_samples=None,
                    product_samples=None,
                    h: float = DEFAULT_STEP,
                    tolerance: float = 1e-5,
                    label: str | None = None) -> CertificationReport:
    """Run the full certification chain for a warped soliton candidate.

    Checks, in order: the tensor structure equation on the base, constancy
    of the scalar equation's left side about its mean c, spatial constancy
    of the first integral, the Einstein property of the fiber at the first
    integral's mean mu, and finally the finite-difference soliton residual
    of the assembled product metric with the lifted potential.  The
    verdict is pass iff every residual is within the tolerance;
    first-integral spread is compared in the relative form
    spread/(1 + |mu|).  Sample sets not given are the chart centre and
    seeded interior points: 8 on the base, 4 on the fiber and 8 on each
    factor of the product.  Raises ``ValueError`` for fewer than 2 base
    samples: the scalar-equation and first-integral checks compare the
    samples with each other, so one sample would pass them vacuously.
    """
    if base_samples is None:
        base_samples = _default_samples(w.base, 8, 0, 0.05)
    if fiber_samples is None:
        fiber_samples = _default_samples(w.fiber, 4, 1, 0.15)
    if product_samples is None:
        product_samples = np.hstack([_default_samples(w.base, 8, 2, 0.05),
                                     _default_samples(w.fiber, 8, 3, 0.15)])

    checks: dict = {}

    def add(name, residual, n_samples):
        checks[name] = {
            "residual": float(residual),
            "samples": int(n_samples),
            "pass": bool(residual <= tolerance),
        }

    base_samples = np.asarray(base_samples, dtype=float).reshape(-1, w.n)
    product_samples = np.asarray(product_samples, dtype=float).reshape(
        -1, w.n + w.m)
    if len(base_samples) < 2:
        raise ValueError(f"certification needs at least 2 base samples, got "
                         f"{len(base_samples)}: the scalar equation and the "
                         f"first integral compare them with each other")

    base = base_structure(w, base_samples, h)
    add("base_equation", base.residual_norm.max(), len(base_samples))

    c_val = float(base.scalar.mean())
    add("scalar_equation", np.abs(base.scalar - c_val).max(), len(base_samples))

    mus = base.first_integral
    mu_mean = float(mus.mean())
    mu_spread = float(mus.max() - mus.min())
    add("first_integral", mu_spread / (1.0 + abs(mu_mean)), len(base_samples))

    ein_res = einstein_check(w.fiber, mu_mean, fiber_samples, h)
    add("einstein_fiber", ein_res, len(fiber_samples))

    product = assemble_warped(w)
    psi = lifted_potential(w)
    sol_res = soliton_residual(product, psi, w.lam,
                               product_samples, h)[1].max()
    add("soliton_residual", sol_res, len(product_samples))

    return CertificationReport(
        label=label or product.label,
        tolerance=tolerance,
        h=h,
        lam=w.lam,
        m=w.m,
        mu_mean=mu_mean,
        mu_spread=mu_spread,
        c_value=c_val,
        checks=checks,
    )
