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
