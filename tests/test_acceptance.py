"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line when its assertions hold (pytest
reports the failure otherwise), and asserts its runtime budget.
"""

import json
import time

import numpy as np
import pytest

from conftest import cylinder_geometry
from ricciwarp import (
    AnsatzParams,
    assemble_warped,
    cartesian_profile_base,
    certify_quotient,
    certify_soliton,
    constant_field,
    lifted_potential,
    make_cyclic_action,
    polar_plane_patch,
    profile_geometry,
    radial_field,
    ricci_closed_form,
    ricci_fd,
    shoot,
    soliton_residual,
    sphere_patch,
    ScalarField,
    WarpedGeometry,
)
from ricciwarp.cli import main

H = 1e-3


def _announce(num, name, t0, budget):
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {num} ({name}): PASS [{elapsed:.1f}s <= {budget}s]")
    assert elapsed <= budget


def _warped_fixtures(steady12, steady23):
    product = WarpedGeometry(base=polar_plane_patch(), fiber=sphere_patch(2),
                             f=constant_field(1.0), phi=constant_field(0.0),
                             lam=0.0)
    cylinder = cylinder_geometry(2, 1.0)
    annulus = WarpedGeometry(base=polar_plane_patch(t_range=(0.5, 2.5)),
                             fiber=sphere_patch(1),
                             f=ScalarField(lambda X: X[:, 0], "t"),
                             phi=constant_field(0.0), lam=0.0)
    return [("product", product), ("cylinder", cylinder),
            ("annulus-warped", annulus),
            ("shot-steady-k1m2", profile_geometry(steady12)),
            ("shot-steady-k2m3", profile_geometry(steady23))]


def test_criterion_1_block_formula_oracle_equivalence(steady_profile_12,
                                                      steady_profile_23):
    """Closed-form Ricci blocks match the finite-difference oracle."""
    t0 = time.time()
    rng = np.random.default_rng(11)
    for name, geom in _warped_fixtures(steady_profile_12, steady_profile_23):
        patch = assemble_warped(geom)
        n = geom.base.dim
        lo = patch.domain[:, 0] + 0.25 * (patch.domain[:, 1] - patch.domain[:, 0])
        hi = patch.domain[:, 1] - 0.25 * (patch.domain[:, 1] - patch.domain[:, 0])
        for _ in range(2):
            x = lo + (hi - lo) * rng.random(patch.dim)
            blocks = ricci_closed_form(geom, x, H)
            oracle = ricci_fd(patch, x, H)
            assert np.linalg.norm(blocks.full() - oracle) <= 1e-5, name
            assert np.abs(oracle[:n, n:]).max() <= 1e-6, name
    _announce(1, "block-formula oracle equivalence, 5 fixtures", t0, 30)


@pytest.mark.parametrize("m", [2, 3])
def test_criterion_2_cylinder_certification_pipeline(m):
    """Cylinder data certify at 1e-8; a 1% lambda error flips the verdict."""
    t0 = time.time()
    lam = 1.0
    b0 = float(np.sqrt((m - 1) / lam))
    good = certify_soliton(cylinder_geometry(m, b0), tolerance=1e-8)
    assert good.verdict
    for entry in good.checks.values():
        assert entry["residual"] <= 1e-8

    bad = certify_soliton(cylinder_geometry(m, b0, lam=1.01 * lam),
                          tolerance=1e-8)
    assert not bad.verdict
    worst = max(entry["residual"] for entry in bad.checks.values())
    assert worst >= 1e-3
    _announce(2, f"cylinder certification m={m}", t0, 5)


def test_criterion_3_first_integral_conservation(steady_profile_12,
                                                 steady_profile_23,
                                                 expanding_profile_12):
    """First-integral spread stays within 1e-6 relative along shot profiles."""
    t0 = time.time()
    for prof in (steady_profile_12, steady_profile_23, expanding_profile_12):
        assert prof.params.rtol == 1e-10 and prof.params.atol == 1e-10
        assert prof.status == "completed" and prof.end_time == 10.0
        assert prof.mu_spread <= 1e-6 * (1 + abs(prof.mu_mean)), prof.params
    _announce(3, "first-integral conservation, 3 profiles", t0, 20)


def test_criterion_4_end_to_end_soliton_residual(steady_profile_12,
                                                 steady_profile_23,
                                                 expanding_profile_12):
    """Assembled product metrics satisfy the soliton equation pointwise."""
    t0 = time.time()
    rng = np.random.default_rng(23)
    for prof in (steady_profile_12, steady_profile_23, expanding_profile_12):
        geom = profile_geometry(prof)
        patch = assemble_warped(geom)
        psi = lifted_potential(geom)
        count = 0
        for t in np.linspace(0.2, 5.0, 20):
            angles_b = geom.base.center()[1:] + 0.2 * (2 * rng.random(geom.base.dim - 1) - 1)
            angles_f = geom.fiber.center() + 0.2 * (2 * rng.random(geom.fiber.dim) - 1)
            x = np.concatenate([[t], angles_b, angles_f])
            _, norm = soliton_residual(patch, psi, prof.lam, x, H)
            assert norm <= 1e-5, (prof.params, t, norm)
            count += 1
        assert count >= 20
    _announce(4, "end-to-end soliton residual, 3 profiles x 20 points", t0, 60)


def test_criterion_5_quotient_certificates(steady_profile_12,
                                           steady_profile_13):
    """Free actions certify; the pole-fixing rotation fails freeness."""
    t0 = time.time()

    def data(prof):
        a_s, b_s, phi_s = prof.interpolants()
        base = cartesian_profile_base(a_s, 1, (0.3, 5.0))
        return base, radial_field(b_s), radial_field(phi_s)

    base2, f2, phi2 = data(steady_profile_12)
    cert = certify_quotient(make_cyclic_action(2, 1, 2, "antipodal"),
                            base2, f2, phi2)
    assert cert.verdict and cert.freeness_margin > 0.1
    for r in (cert.base_isometry_residual, cert.fiber_isometry_residual,
              cert.f_invariance, cert.phi_invariance,
              cert.diagonal_isometry_residual):
        assert r <= 1e-10

    base3, f3, phi3 = data(steady_profile_13)
    cert3 = certify_quotient(make_cyclic_action(3, 1, 3, "hopf"),
                             base3, f3, phi3)
    assert cert3.verdict and cert3.freeness_margin > 0.1
    for r in (cert3.base_isometry_residual, cert3.fiber_isometry_residual,
              cert3.f_invariance, cert3.phi_invariance,
              cert3.diagonal_isometry_residual):
        assert r <= 1e-10

    bad = certify_quotient(make_cyclic_action(2, 1, 2, "axis_rotation"),
                           base2, f2, phi2)
    assert not bad.verdict and bad.freeness_margin == 0.0
    _announce(5, "quotient certificates (antipodal, Hopf, pole-fixing)", t0, 5)


def test_criterion_6_refinement_stability():
    """Halving h divides the sphere Ricci error by >= 3.5; halving epsilon
    and the integrator tolerances moves profiles at t = 1 by <= 1e-7."""
    t0 = time.time()
    p = sphere_patch(2)
    x = np.array([1.0, 1.0])
    errs = [np.linalg.norm(ricci_fd(p, x, h) - p.metric(x))
            for h in (0.05, 0.025)]
    ratio = errs[0] / errs[1]
    assert ratio >= 3.5
    assert np.log2(ratio) >= 1.8

    for (k, m, lam) in ((1, 2, 0.0), (2, 3, 0.0), (1, 2, -0.1)):
        base = dict(k=k, m=m, lam=lam, b0=1.0, t_max=2.0)
        p1 = shoot(AnsatzParams(epsilon=1e-4, rtol=1e-10, atol=1e-10, **base))
        p2 = shoot(AnsatzParams(epsilon=5e-5, rtol=5e-11, atol=5e-11, **base))
        a1, b1, f1 = p1.interpolants()
        a2, b2, f2 = p2.interpolants()
        delta = max(abs(float(a1(1.0)) - float(a2(1.0))),
                    abs(float(b1(1.0)) - float(b2(1.0))),
                    abs(float(f1(1.0)) - float(f2(1.0))))
        assert delta <= 1e-7, (k, m, lam, delta)
    _announce(6, "refinement stability (stencil order, shooting)", t0, 30)


def test_criterion_7_sweep_determinism(tmp_path):
    """A 12-point sweep is byte-identical across runs and execution modes."""
    t0 = time.time()
    grids = {"k": [1], "m": [2, 3], "lambda": [0.0, -0.1],
             "b0": [0.9, 1.0, 1.1], "t_max": 4.0, "rtol": 1e-9, "atol": 1e-9}
    outputs = {}
    for mode in ("serial", "parallel"):
        cfg = {"schema_version": 1,
               "sweep": dict(grids, parallel=(mode == "parallel")),
               "out_dir": str(tmp_path / mode)}
        cfg_path = tmp_path / f"{mode}.json"
        cfg_path.write_text(json.dumps(cfg))
        for run in range(2):
            assert main(["sweep", "--config", str(cfg_path)]) == 0
            data = (tmp_path / mode / "sweep.csv").read_bytes()
            outputs[(mode, run)] = data
        assert outputs[(mode, 0)] == outputs[(mode, 1)]
    assert outputs[("serial", 0)] == outputs[("parallel", 0)]
    n_rows = len(outputs[("serial", 0)].splitlines()) - 2
    assert n_rows == 12
    _announce(7, "sweep determinism, 12-point grid", t0, 60)
