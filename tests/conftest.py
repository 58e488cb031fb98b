from dataclasses import replace

import numpy as np
import pytest

from ricciwarp import (
    AnsatzParams,
    MetricPatch,
    WarpedGeometry,
    constant_field,
    quadratic_potential,
    shoot,
    sphere_patch,
)
from ricciwarp import shooting
from ricciwarp.dop853 import _N_COEFFS
from ricciwarp.shooting import (
    _csv_header,
    _evaluate,
    _locate,
    _state_columns,
)


def cylinder_geometry(m: int, b0: float, lam: float | None = None) -> WarpedGeometry:
    """Round cylinder data: base line, fiber unit S^m, f = b0, phi = lam t^2/2.

    With lam = (m-1)/b0^2 this is an exact warped soliton; the scalar
    constant is c = lam and the first integral equals m - 1.
    """
    if lam is None:
        lam = (m - 1) / (b0 * b0)
    base = MetricPatch(1, np.array([[-2.5, 2.5]]),
                       lambda X: np.ones((len(X), 1, 1)), "line")
    return WarpedGeometry(base=base, fiber=sphere_patch(m),
                          f=constant_field(b0, "b0"),
                          phi=quadratic_potential(lam), lam=lam)


def edit_column(profile, column, scale=1.0, shift=0.0, bump=0.0,
                window=(1.5, 2.5)):
    """A copy of ``profile`` with the stored polynomial of one state column
    edited through its step coefficients.

    ``scale`` multiplies the column's ``y_old`` and ``F`` of every step,
    so its whole polynomial; ``shift`` adds a constant to its ``y_old``;
    ``bump`` is added to ``F[1]`` of the steps that overlap ``window``,
    which adds ``bump * x (1 - x)`` to each such step (x = (t - t_old)/h)
    and leaves the step ends where they were.
    """
    header = _csv_header(profile.params.k)
    y = header.index(column)
    F = [header.index(f"F{j}.{column}") for j in range(_N_COEFFS)]
    table = profile.table.copy()
    table[:, y] = scale * table[:, y] + shift
    table[:, F] *= scale
    t_old, h = profile.t_old, profile.h
    table[(t_old < window[1]) & (t_old + h > window[0]), F[1]] += bump
    return replace(profile, table=table)


def _dense(profile, ts):
    """Every state column's stored polynomial at the times ``ts``."""
    steps = profile._steps
    return np.array([_evaluate(steps, name, *_locate(steps, ts))
                     for name in _state_columns(profile.params.k)])


def _run_arrays(row):
    """``(t, h, F, y_old)`` of a finished ``dop853._Row``, read from its
    step table: its start and step ends, the last its end ``row.t``, and
    its steps' sizes, dense-output tables (``F0`` to ``F6`` each) and
    start states."""
    table = row.table
    n = (table.shape[1] - 2) // (1 + _N_COEFFS)
    return (np.append(table[:, 0], row.t), table[:, 1 + n],
            table[:, 2 + n:].reshape(len(table), _N_COEFFS, n),
            table[:, 1:1 + n])


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return (got.shape == want.shape
            and np.array_equal(got.view(np.uint64), want.view(np.uint64)))


# the phi2 of rows whose right side _nan_rhs_for makes NaN: every step is
# rejected until the step size underflows
_UNDERFLOW = -0.123


def _nan_rhs_for(monkeypatch, marker):
    """Patch ``_rhs_with_phi`` so that rows whose phi2 is ``marker`` get a
    NaN right side; the other rows keep theirs."""
    real = shooting._rhs_with_phi

    def patched(params):
        if params.phi2 == marker:
            return lambda y: [np.nan] * len(y)
        return real(params)

    monkeypatch.setattr(shooting, "_rhs_with_phi", patched)


@pytest.fixture(scope="session")
def steady_profile_12():
    return shoot(AnsatzParams(k=1, m=2, lam=0.0, b0=1.0))


@pytest.fixture(scope="session")
def steady_profile_02():
    return shoot(AnsatzParams(k=0, m=2, lam=0.0, b0=1.0))


@pytest.fixture(scope="session")
def cylinder_profile_02():
    """The unit round cylinder R x S^2 shot as a profile: completed to t_max."""
    return shoot(AnsatzParams(k=0, m=2, lam=1.0, b0=1.0))


@pytest.fixture(scope="session")
def steady_profile_23():
    return shoot(AnsatzParams(k=2, m=3, lam=0.0, b0=1.0))


@pytest.fixture(scope="session")
def expanding_profile_12():
    return shoot(AnsatzParams(k=1, m=2, lam=-0.1, b0=1.0))


@pytest.fixture(scope="session")
def steady_profile_13():
    return shoot(AnsatzParams(k=1, m=3, lam=0.0, b0=1.0))
