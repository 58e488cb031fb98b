"""Fourth-order finite-difference stencils for batched jets.

``value_jet`` differentiates an array-valued function at a batch of chart
points: first derivatives use the 5-point central stencil, pure second
derivatives the matching 5-point stencil, and each mixed second derivative
the two diagonals through the point (8 points per pair),

    f_cd = (16 D(h) - D(2h)) / (48 h^2),
    D(s) = f(+s, +s) - f(+s, -s) - f(-s, +s) + f(-s, -s),

the Richardson extrapolation of the 4-point cross stencil ``D(h) / 4h^2``
in the plane of axes c and d (B. Fornberg, Math. Comp. 51, 1988).  All are
O(h^4) accurate; every stencil stays within 2h of the base point per axis.

The stencils of all derivatives share their points, so each point needs
the function at ``1 + 4 dim + 4 dim (dim - 1)`` unique offsets (17, 37,
65, 101 and 145 at dim 2 to 6).  ``value_jet`` evaluates the function on
all of them for all points in one batch call, ``func: (M, dim) -> (M,) +
S``, split into chunks of at most ``_CHUNK_POINTS`` stencil points so
memory stays bounded for any batch size, and contracts the values with
the stencil weights.
The curvature engine passes ``MetricPatch.metric`` and ``ScalarField``
objects, whose adapters call the batch callable ``g: (N, dim) ->
(N, dim, dim)`` or ``f: (N, dim) -> (N,)`` once per chunk.

This is the package's one stencil engine.  A shot profile's diagnostics
use none: they are defects of its stored step polynomials, each
polynomial's exact derivative against the reduced system
(``ricciwarp.shooting``), read away from the step ends, where that
derivative is the right side at a stored state.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["value_jet", "check_step"]

# central first derivative: sum w_s f(x + s h) / (12 h)
_D1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))
# central second derivative: sum w_s f(x + s h) / (12 h^2), s=0 term included
_D2 = ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0))
# mixed second derivative on the diagonals e_c + sigma e_d, sigma = +-1:
# sum sigma w_s f(x + s h (e_c + sigma e_d)) / (144 h^2)
_DIAG = ((-2, -3.0), (-1, 48.0), (1, 48.0), (2, -3.0))

# stencil points per call of the differentiated function; bounds the memory
# of one call for any batch size
_CHUNK_POINTS = 1 << 15


@lru_cache(maxsize=None)
def _stencil(dim: int):
    """Unique stencil offsets and the weights that contract values on them.

    Returns ``(offsets, w1, w2, (iu, ju))``: offsets of shape (S, dim) with
    the zero offset first; ``w1`` (dim, S) gives the gradient as
    ``w1 @ f / (12 h)`` and ``w2`` (P, S) the Hessian entries at the
    upper-triangle indices ``(iu, ju)`` as ``w2 @ f / (144 h^2)``.  A
    mixed pair's 8 diagonal offsets are its own, so S is
    ``1 + 4 dim + 4 dim (dim - 1)``.
    """
    eye = np.eye(dim, dtype=int)
    iu, ju = np.triu_indices(dim)
    terms = [(c, s * eye[c], w) for c in range(dim) for s, w in _D1]
    for r, (c, d) in enumerate(zip(iu, ju), start=dim):
        if c == d:
            terms += [(r, s * eye[c], 12.0 * w) for s, w in _D2]
        else:
            terms += [(r, s * (eye[c] + sigma * eye[d]), sigma * w)
                      for s, w in _DIAG for sigma in (1, -1)]
    index = {(0,) * dim: 0}
    cols = [index.setdefault(tuple(off), len(index)) for _, off, _ in terms]
    weights = np.zeros((dim + iu.size, len(index)))
    for (r, _, w), col in zip(terms, cols):
        weights[r, col] += w
    offsets = np.array(list(index), dtype=float)
    for arr in (offsets, weights, iu, ju):
        arr.flags.writeable = False
    return offsets, weights[:dim], weights[dim:], (iu, ju)


# a step must exceed this many float spacings of its largest coordinate:
# below one spacing no stencil point leaves its base point and every
# difference is exactly 0 (zero curvature on the round sphere), and a few
# spacings quantize the differences (at h = 1e-17 a k = 1, m = 2 profile's
# soliton residual reads 7.7e16 while first_integral reads exactly 0)
_STEP_FLOOR_ULPS = 2 ** 12


def check_step(h: float, X=()):
    """Refuse a stencil step that is not a finite positive number, or that
    is not above ``_STEP_FLOOR_ULPS`` float spacings of the largest
    coordinate of the points ``X`` it is applied at (of 1 at least)."""
    if not (np.isfinite(h) and h > 0):
        raise ValueError(f"step h must be finite and positive, got {h!r}")
    scale = max(1.0, float(np.abs(X).max(initial=0.0)))
    floor = _STEP_FLOOR_ULPS * np.spacing(scale)
    # an infinite coordinate gives a NaN floor, which passes, for the
    # caller's margin check to refuse
    if h <= floor:
        raise ValueError(
            f"step h={h!r} is below the float resolution of its points: it "
            f"must exceed {floor:.3g}, {_STEP_FLOOR_ULPS} float spacings of "
            f"their largest coordinate {scale:g}")


def value_jet(func, X, h: float):
    """Values, gradients and Hessians of ``func`` at a batch of points.

    ``X`` has shape (N, dim); ``func`` maps an (M, dim) array of points to
    an array of shape (M,) + S for a fixed shape S.  Returns
    ``(f0, grad, hess)`` with shapes ``(N,) + S``, ``(N, dim) + S`` and
    ``(N, dim, dim) + S``; ``hess`` is exactly symmetric in its two
    derivative axes by construction.  ``h`` must pass :func:`check_step`
    at ``X``.
    """
    X = np.asarray(X, dtype=float)
    check_step(h, X)
    if X.ndim != 2:
        raise ValueError(f"value_jet needs points of shape (N, dim), got {X.shape}")
    n, dim = X.shape
    offsets, w1, w2, (iu, ju) = _stencil(dim)
    n_off = offsets.shape[0]
    per_call = max(1, _CHUNK_POINTS // n_off)
    f0 = grad = hess = None
    for lo in range(0, max(n, 1), per_call):  # an empty batch still sets S
        chunk = X[lo:lo + per_call]
        pts = (chunk[:, None, :] + h * offsets[None, :, :]).reshape(-1, dim)
        vals = np.asarray(func(pts), dtype=float)
        shape = vals.shape[1:]
        if f0 is None:
            f0 = np.empty((n,) + shape)
            grad = np.empty((n, dim) + shape)
            hess = np.empty((n, dim, dim) + shape)
        m = len(chunk)
        F = vals.reshape(m, n_off, int(np.prod(shape)))
        sl = slice(lo, lo + m)
        f0[sl] = F[:, 0].reshape((m,) + shape)
        # every stencil's weights sum to zero, so subtracting the centre
        # value is exact in real arithmetic; in floating point it keeps a
        # large constant part of f out of the rounding of the weighted sums
        F = F - F[:, :1]
        grad[sl] = (w1 @ F / (12.0 * h)).reshape((m, dim) + shape)
        packed = (w2 @ F / (144.0 * h * h)).reshape((m, iu.size) + shape)
        hess[sl, iu, ju] = packed
        hess[sl, ju, iu] = packed
    return f0, grad, hess

