"""CLI workflows: configs, outputs, exit codes, determinism."""

import dataclasses
import itertools
import json
import os
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ricciwarp.cli import (
    MAX_DIMENSION,
    MAX_GROUP_ORDER,
    MAX_SAMPLES,
    MAX_SWEEP_ROWS,
    MAX_WORKERS,
    _ANSATZ,
    main,
)
from conftest import edit_column
from ricciwarp import GeometryError, dop853, shooting
from ricciwarp.quotient import T_RANGE
from ricciwarp.shooting import (
    GRID_COLUMNS,
    AnsatzParams,
    SolitonProfile,
    _csv_header,
)


def write_config(path, extra=None, **blocks):
    cfg = {"schema_version": 1, "out_dir": str(path.parent / "out")}
    cfg.update(blocks)
    if extra:
        cfg.update(extra)
    path.write_text(json.dumps(cfg))
    return cfg


def _start_up_probe(code):
    """The JSON printed by ``code`` in a fresh interpreter that has just
    imported ``ricciwarp`` and ``ricciwarp.cli``."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, ricciwarp, ricciwarp.cli\n"
         + code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_start_up_runs_no_scipy_subpackage():
    # a fresh interpreter that imports the CLI has executed none of scipy's
    # integrate, optimize, sparse or linalg packages, nor scipy.interpolate,
    # whose lazily registered module still resolves BSpline on first access
    loaded, spline_module = _start_up_probe(
        "loaded = sorted(name for name in sys.modules\n"
        "                if name.startswith('scipy.'))\n"
        "spline = sys.modules['scipy.interpolate'].BSpline\n"
        "print(json.dumps([loaded, spline.__module__]))\n")
    for package in ("integrate", "optimize", "sparse", "linalg",
                    "interpolate._bsplines"):
        assert f"scipy.{package}" not in loaded, package
    assert spline_module == "scipy.interpolate._bsplines"


def test_start_up_loads_no_process_machinery():
    # sweep imports multiprocessing only when it starts child processes
    loaded = _start_up_probe("print(json.dumps(sorted(sys.modules)))\n")
    for package in ("multiprocessing", "concurrent.futures"):
        assert not [name for name in loaded
                    if name == package or name.startswith(package + ".")]


def cylinder_solve_block(m=2, lam=0.5, t_max=6.0):
    return {"k": 0, "m": m, "lambda": lam,
            "b0": float(np.sqrt((m - 1) / lam)), "t_max": t_max}


class TestSolve:
    def test_cylinder_constant_b_column(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve=cylinder_solve_block())
        assert main(["solve", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        prof = SolitonProfile.from_csv(str(out / "profile.csv"))
        assert np.abs(prof.b - prof.params.b0).max() < 1e-6
        summary = json.loads((out / "solve_summary.json").read_text())
        assert summary["status"] == "completed"
        assert summary["classification"] == "shrinking"
        assert "config_hash" in summary and "tool_version" in summary
        # k = 0 has no a, and strict JSON writes its NaN slopes as null
        assert summary["slope_a"] is None and summary["slope_a_mid"] is None
        assert abs(summary["slope_b"]) < 1e-6

    def test_flat_config_zero_residual_columns(self, tmp_path):
        cfg_path = tmp_path / "f.json"
        write_config(cfg_path,
                     solve={"k": 1, "m": 1, "lambda": 0.0, "b0": 1.0,
                            "phi2": 0.0, "t_max": 5.0})
        assert main(["solve", "--config", str(cfg_path)]) == 0
        prof = SolitonProfile.from_csv(str(tmp_path / "out" / "profile.csv"))
        assert np.abs(prof.res_tt).max() < 1e-12
        assert np.abs(prof.res_sk).max() < 1e-12
        assert np.abs(prof.res_sm).max() < 1e-12
        # a = t and b = 1: the log-slopes of a are 1 and those of b 0
        summary = json.loads((tmp_path / "out" / "solve_summary.json")
                             .read_text())
        for name, want in (("slope_a", 1.0), ("slope_a_mid", 1.0),
                           ("slope_b", 0.0), ("slope_b_mid", 0.0)):
            assert abs(summary[name] - want) < 1e-6, name

    @pytest.mark.parametrize("t_max", [3, 3.0])
    def test_lifetime_is_a_float_for_any_t_max_literal(self, tmp_path, t_max):
        # an integer t_max passes AnsatzParams; the summary writes the
        # same "lifetime": 3.0 for both literals
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve={"k": 1, "m": 2, "lambda": 0.0,
                                      "b0": 1.0, "t_max": t_max})
        assert main(["solve", "--config", str(cfg_path)]) == 0
        text = (tmp_path / "out" / "solve_summary.json").read_text()
        assert '"lifetime": 3.0,' in text

    def test_invalid_b0_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        write_config(cfg_path, solve={"k": 0, "m": 2, "lambda": 0.5, "b0": -1.0})
        assert main(["solve", "--config", str(cfg_path)]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "u.json"
        write_config(cfg_path, solve=dict(cylinder_solve_block(), typo=1))
        assert main(["solve", "--config", str(cfg_path)]) == 2

    def test_missing_config_file_exits_4(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 4

    def test_invalid_json_exits_4(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text('{"schema_version": 1, "solve": {')
        assert main(["solve", "--config", str(cfg_path)]) == 4
        assert "config is not valid JSON" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("text", [
        b"\xff\xfe{",                                 # not UTF-8
        b"[" * 200_000 + b"]" * 200_000,              # past the decoder's depth
        b"1" * 5000,                                  # past the digit limit
    ], ids=["not-utf-8", "nested", "long-integer"])
    def test_undecodable_config_exits_4(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_bytes(text)
        assert main(["solve", "--config", str(cfg_path)]) == 4
        assert capsys.readouterr().err.startswith(
            "I/O failure: config is not valid JSON: ")
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_wrong_schema_version_exits_2(self, tmp_path):
        cfg_path = tmp_path / "v.json"
        cfg_path.write_text(json.dumps({"schema_version": 99, "solve": {}}))
        assert main(["solve", "--config", str(cfg_path)]) == 2

    def test_out_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve=cylinder_solve_block(t_max=2.0))
        alt = tmp_path / "elsewhere"
        assert main(["solve", "--config", str(cfg_path), "--out", str(alt)]) == 0
        assert (alt / "profile.csv").exists()

    def test_failed_event_location_exits_3(self, tmp_path, capsys,
                                           monkeypatch):
        # brentq refuses the bracket of the hit_a_zero event: a numeric
        # failure, not a traceback
        def refusing(*args, **kwargs):
            raise ValueError("f(a) and f(b) must have different signs")

        monkeypatch.setattr(dop853, "brentq", refusing)
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve={"k": 1, "m": 2, "lambda": 2.0,
                                      "b0": 1.0, "t_max": 3.5})
        assert main(["solve", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: event location failed: "
                              "f(a) and f(b) must have different signs")
        assert not (tmp_path / "out").exists()

    def test_event_location_on_an_overflowed_step_exits_3(self, tmp_path,
                                                          capsys):
        # at tolerances of 1e10 the last step of k1m2 overflows to inf and
        # its polynomial reads NaN, where brentq cannot locate the blow-up
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve={"k": 1, "m": 2, "lambda": 0.0,
                                      "b0": 1.0, "tol": 1e10})
        assert main(["solve", "--config", str(cfg_path)]) == 3
        assert capsys.readouterr().err.startswith(
            "numeric failure: event location failed: The function value at "
            "x=1.211000000000001 is NaN")
        assert not (tmp_path / "out").exists()

    def test_step_cap_exits_3(self, tmp_path, capsys, monkeypatch):
        # a row that needs more than MAX_STEPS accepted steps is a numeric
        # failure with no artifact
        monkeypatch.setattr(dop853, "MAX_STEPS", 20)
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve={"k": 1, "m": 2, "lambda": 0.0,
                                      "b0": 1.0, "t_max": 3.0})
        assert main(["solve", "--config", str(cfg_path)]) == 3
        assert capsys.readouterr().err.startswith(
            "numeric failure: integrator failed: MAX_STEPS = 20 accepted "
            "steps reached at t = ")
        assert not (tmp_path / "out").exists()

    def test_overflowing_diagnostics_warn_nothing(self, tmp_path, capsys):
        # at tol 1e10 the states of k2m2 (lambda 2, b0 0.9) are huge when a
        # degenerates: mu overflows to -inf, written as null, with no
        # floating-point warning on stderr
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve={"k": 2, "m": 2, "lambda": 2.0,
                                      "b0": 0.9, "tol": 1e10})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", "--config", str(cfg_path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out == ("solve: status=hit_a_zero lifetime=3.20399 mu=-inf "
                       "(shrinking)\n")
        doc = json.loads((tmp_path / "out" / "solve_summary.json").read_text())
        for key in ("config_hash", "tool_version"):
            doc.pop(key)
        assert doc == {
            "schema_version": 1, "classification": "shrinking",
            "status": "hit_a_zero", "lifetime": 3.203993043473322,
            "mu_mean": None, "mu_spread": None,
            **dict.fromkeys(("slope_a", "slope_a_mid", "slope_b",
                             "slope_b_mid")),
            "reduced_equation_residual_max": {
                "sk": 1.6187441686521412e+241, "sm": 2.2642258545793616e+252,
                "tt": 1.6765479310633825e+193}}

    def test_failed_summary_writes_nothing(self, tmp_path, capsys,
                                           monkeypatch):
        # the summary, which derives the diagnostics, is made before
        # either file is written: differentiating a stored polynomial fails
        evaluate = shooting._evaluate

        def failing(steps, name, idx, x, dt=False):
            if dt:
                raise GeometryError("diagnostics failed")
            return evaluate(steps, name, idx, x)

        monkeypatch.setattr(shooting, "_evaluate", failing)
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve={"k": 1, "m": 2, "lambda": 0.0,
                                      "b0": 1.0, "t_max": 1.0})
        assert main(["solve", "--config", str(cfg_path)]) == 3
        assert capsys.readouterr().err.startswith(
            "numeric failure: diagnostics failed")
        assert not (tmp_path / "out").exists()


class TestCertify:
    def test_solve_then_certify_roundtrip(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve={"k": 1, "m": 2, "lambda": 0.0,
                                      "b0": 1.0, "t_max": 6.0},
                     certify={"n_base": 6, "n_product": 8})
        assert main(["solve", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"

        # in-memory path: no profile key, certify re-runs the solve block
        assert main(["certify", "--config", str(cfg_path)]) == 0
        mem_doc = json.loads((out / "certification.json").read_text())

        # file path: certify the emitted CSV
        cfg2 = tmp_path / "c2.json"
        write_config(cfg2, solve={"k": 1, "m": 2, "lambda": 0.0,
                                  "b0": 1.0, "t_max": 6.0},
                     certify={"n_base": 6, "n_product": 8,
                              "profile": str(out / "profile.csv")})
        assert main(["certify", "--config", str(cfg2)]) == 0
        file_doc = json.loads((out / "certification.json").read_text())

        # identical verdict and residuals up to the config hash
        file_doc.pop("config_hash"), mem_doc.pop("config_hash")
        assert file_doc == mem_doc
        assert file_doc["verdict"] == "pass"

    def test_certify_perturbed_lambda_fails(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve=cylinder_solve_block(t_max=6.0))
        assert main(["solve", "--config", str(cfg_path)]) == 0
        csv_path = tmp_path / "out" / "profile.csv"
        text = csv_path.read_text()
        tampered = text.replace('"lam": 0.5', '"lam": 0.55')
        assert tampered != text
        bad_path = tmp_path / "bad_profile.csv"
        bad_path.write_text(tampered)
        cfg2 = tmp_path / "c2.json"
        write_config(cfg2, certify={"profile": str(bad_path),
                                    "n_base": 6, "n_product": 6})
        assert main(["certify", "--config", str(cfg2)]) == 2

    def test_reruns_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve={"k": 1, "m": 2, "lambda": 0.0,
                                      "b0": 1.0, "t_max": 3.0},
                     certify={"n_base": 4, "n_product": 5, "seed": 7,
                              "t_window": [0.2, 2.5]})
        assert main(["certify", "--config", str(cfg_path)]) == 0
        report = tmp_path / "out" / "certification.json"
        first = report.read_bytes()
        assert main(["certify", "--config", str(cfg_path)]) == 0
        assert report.read_bytes() == first

    def test_certify_missing_profile_exits_4(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, certify={"profile": str(tmp_path / "none.csv")})
        assert main(["certify", "--config", str(cfg_path)]) == 4

    def test_certify_empty_profile_exits_4(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, certify={"profile": str(empty)})
        assert main(["certify", "--config", str(cfg_path)]) == 4

    # a cell is 16 lowercase hex digits, one per column
    @pytest.mark.parametrize("mutate", [
        lambda rows: rows[:1] + [rows[1] + ",3ff0000000000000" * 3] + rows[2:],
        lambda rows: rows[:1] + [rows[1][:17] + "x" + rows[1][18:]] + rows[2:],
        lambda rows: [],
        lambda rows: _set_cell(rows, 1, 3, "3ff000000000000"),
        lambda rows: _set_cell(rows, 1, 3, "3ff00000000000000"),
        lambda rows: _set_cell(rows, 1, 3, "3ff00000 0000000"),
        lambda rows: _set_cell(rows, 1, 3, "3ff0000-00000000"),
        lambda rows: _set_cell(rows, 1, 3, "3FF0000000000000"),
        lambda rows: _set_cell(rows, 1, 3, "1.5"),
        lambda rows: _set_cell(rows, 1, 3, "nan"),
        lambda rows: rows[:1] + [rows[1].rsplit(",", 1)[0]] + rows[2:],
    ], ids=["ten-columns", "non-numeric-token", "no-data-rows",
            "15-digit-word", "17-digit-word", "space-in-word", "sign-in-word",
            "upper-case-word", "decimal-text", "nan-token", "missing-cell"])
    def test_malformed_profile_rows_exit_4(self, tmp_path, capsys, mutate):
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve=cylinder_solve_block(t_max=1.0))
        assert main(["solve", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "out" / "profile.csv").read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:4] + mutate(lines[4:])) + "\n")
        write_config(cfg_path, certify={"profile": str(bad)})
        assert main(["certify", "--config", str(cfg_path)]) == 4
        assert "malformed data rows" in capsys.readouterr().err
        assert not (tmp_path / "out" / "certification.json").exists()

    def test_step_too_large_for_span_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve={"k": 1, "m": 2, "lambda": 0.0,
                                      "b0": 1.0, "t_max": 3.0},
                     certify={"h": 0.5})
        assert main(["certify", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "h=0.5" in err
        assert not (tmp_path / "out").exists()

    def test_step_below_float_resolution_is_config_error(self, tmp_path,
                                                         capsys):
        # at h = 1e-20 every difference is 0: without the floor certify
        # wrote a passing certificate with every residual 0.0
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve={"k": 1, "m": 2, "lambda": 0.0,
                                      "b0": 1.0, "t_max": 10.0},
                     certify={"h": 1e-20})
        assert main(["certify", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: step h=1e-20 is below the "
                              "float resolution")
        assert not (tmp_path / "out").exists()

    def test_step_too_large_for_fiber_chart_is_config_error(self, tmp_path,
                                                            capsys):
        # h = 0.2 fits the span of a t_max 10 profile, but the stencils
        # (4 h = 0.8) do not fit between the fiber samples and the edge of
        # the unit 2-sphere chart
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve={"k": 1, "m": 2, "lambda": 0.0,
                                      "b0": 1.0, "t_max": 10.0},
                     certify={"h": 0.2})
        assert main(["certify", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "h=0.2" in err
        assert "sphere-2d-r1" in err
        assert not (tmp_path / "out").exists()

    def test_warping_dip_exits_3(self, tmp_path, capsys):
        # this profile blows up at t = 1.95; a profile that is not
        # completed is refused before any geometry is built
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve={"k": 0, "m": 2, "lambda": 0.0,
                                      "b0": 1.0},
                     certify={})
        assert main(["certify", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: profile status is 'blowup'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("column,shift", [("b", -1.5), ("a", -1.0)])
    def test_nonpositive_coefficient_exits_3(self, tmp_path, capsys, column,
                                             shift):
        # a completed file whose a or b column is shifted below zero: the
        # geometry refuses it before any residual is computed
        lines = _solved_profile(tmp_path)
        profile = SolitonProfile.parse_csv("\n".join(lines))
        bad = tmp_path / "bad.csv"
        edit_column(profile, column, shift=shift).to_csv(bad)
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, certify={"profile": str(bad)})
        capsys.readouterr()
        assert main(["certify", "--config", str(cfg_path)]) == 3
        assert capsys.readouterr().err == (
            "numeric failure: profile has nonpositive metric coefficients\n")
        assert not (tmp_path / "out" / "certification.json").exists()

    def test_certify_without_source_exits_2(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, certify={})
        assert main(["certify", "--config", str(cfg_path)]) == 2


class TestQuotient:
    def test_antipodal_example_passes(self, tmp_path):
        cfg_path = tmp_path / "q.json"
        write_config(cfg_path,
                     solve={"k": 1, "m": 2, "lambda": 0.0, "b0": 1.0,
                            "t_max": 6.0},
                     quotient={"p": 2, "k": 1, "m": 2, "kind": "antipodal"})
        assert main(["quotient", "--config", str(cfg_path)]) == 0
        doc = json.loads((tmp_path / "out" / "quotient_certificate.json").read_text())
        assert doc["verdict"] == "pass"
        assert doc["freeness_margin"] > 0.1

    def test_fixed_point_action_fails(self, tmp_path):
        cfg_path = tmp_path / "q.json"
        write_config(cfg_path,
                     solve={"k": 1, "m": 2, "lambda": 0.0, "b0": 1.0,
                            "t_max": 6.0},
                     quotient={"p": 2, "k": 1, "m": 2, "kind": "axis_rotation"})
        assert main(["quotient", "--config", str(cfg_path)]) == 2

    def test_hopf_even_m_config_error(self, tmp_path):
        cfg_path = tmp_path / "q.json"
        write_config(cfg_path,
                     solve={"k": 1, "m": 2, "lambda": 0.0, "b0": 1.0,
                            "t_max": 6.0},
                     quotient={"p": 3, "k": 1, "m": 2, "kind": "hopf"})
        assert main(["quotient", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("t_max,t_range", [
        (2.0, None), (6.0, [0.0, 1.0]), (6.0, [1.0, 5.8]), (6.0, [2.0, 1.0]),
        # 0.95 * 3 is 2.8499999999999996, which :g would print as 2.85
        (3.0, [0.06, 2.85])])
    def test_t_range_outside_radial_range_is_config_error(
            self, tmp_path, capsys, t_max, t_range):
        quotient = {"p": 2, "k": 1, "m": 2, "kind": "antipodal"}
        if t_range is not None:
            quotient["t_range"] = t_range
        cfg_path = tmp_path / "q.json"
        write_config(cfg_path,
                     solve={"k": 1, "m": 2, "lambda": 0.0, "b0": 1.0,
                            "t_max": t_max},
                     quotient=quotient)
        assert main(["quotient", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        valid = f"[0.05, {0.95 * t_max!r}]"
        assert err.startswith("config error:") and valid in err
        lo, hi = t_range or T_RANGE
        assert f"[{lo!r}, {hi!r}]" in err
        assert not (tmp_path / "out").exists()

    def test_unset_keys_take_the_library_defaults(self, tmp_path):
        # a block without the optional keys gives the certificate of the
        # block that spells out the defaults of make_cyclic_action and
        # certify_quotient, whose freeness threshold is a constant
        solve = {"k": 1, "m": 3, "lambda": 0.0, "b0": 1.0, "t_max": 3.0}
        docs = []
        for extra in ({}, {"n_samples": 64, "seed": 0,
                           "t_range": list(T_RANGE), "tolerance": 1e-10}):
            cfg_path = tmp_path / "q.json"
            write_config(cfg_path, solve=solve, quotient={
                "p": 3, "k": 1, "m": 3, "kind": "hopf", **extra})
            assert main(["quotient", "--config", str(cfg_path)]) == 0
            doc = json.loads((tmp_path / "out" / "quotient_certificate.json")
                             .read_text())
            doc.pop("config_hash")
            docs.append(doc)
        assert docs[0] == docs[1]
        assert docs[0]["n_fiber_samples"] > 0
        assert docs[0]["freeness_tolerance"] == 1e-6

    def test_dimension_mismatch_rejected(self, tmp_path):
        cfg_path = tmp_path / "q.json"
        write_config(cfg_path,
                     solve={"k": 1, "m": 2, "lambda": 0.0, "b0": 1.0,
                            "t_max": 6.0},
                     quotient={"p": 3, "k": 1, "m": 3, "kind": "hopf"})
        assert main(["quotient", "--config", str(cfg_path)]) == 2


def _set_cell(rows, row, column, value):
    cells = rows[row].split(",")
    cells[column] = value
    return rows[:row] + [",".join(cells)] + rows[row + 1:]


def _solved_profile(tmp_path, t_max=3.0):
    """Solve k1m2 into ``tmp_path/out``; returns the lines of its
    profile.csv (three header lines, the header row, one row per step)."""
    cfg_path = tmp_path / "c.json"
    write_config(cfg_path, solve={"k": 1, "m": 2, "lambda": 0.0,
                                  "b0": 1.0, "t_max": t_max})
    assert main(["solve", "--config", str(cfg_path)]) == 0
    return (tmp_path / "out" / "profile.csv").read_text().splitlines()


class TestUnfittableProfile:
    """Profiles whose step table is not one piecewise polynomial from
    epsilon to end_time exit 4 and write nothing."""

    @pytest.mark.parametrize("command,block", [
        ("certify", {}),
        ("quotient", {"p": 2, "k": 1, "m": 2, "kind": "antipodal"}),
    ])
    @pytest.mark.parametrize("mutate,reason", [
        # the bit words of NaN and inf decode, and the table refuses them
        (lambda rows: _set_cell(rows, 7, 3, "7ff8000000000000"),
         "column b has a non-finite value"),
        (lambda rows: _set_cell(rows, 7, 5, "7ff0000000000000"),
         "column phi has a non-finite value"),
        (lambda rows: rows[:7] + [rows[8], rows[7]] + rows[9:],
         "column t is not finite and strictly increasing"),
        (lambda rows: [rows[0], rows[-1]], "steps 0 and 1 do not meet"),
        (lambda rows: [rows[0], rows[len(rows) // 2], rows[-1]],
         "steps 0 and 1 do not meet"),
        (lambda rows: rows[::len(rows) // 3][:4], "steps 0 and 1 do not meet"),
        (lambda rows: rows[:5] + rows[6:], "steps 4 and 5 do not meet"),
    ], ids=["nan-in-b", "inf-in-phi", "swapped-t-rows", "two-rows",
            "three-rows", "four-rows", "five-rows"])
    def test_exits_4_without_artifact(self, tmp_path, capsys, command, block,
                                      mutate, reason):
        lines = _solved_profile(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:4] + mutate(lines[4:])) + "\n")
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, **{command: dict(block, profile=str(bad))})
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O failure: ill-formed profile file")
        assert reason in err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "profile.csv", "solve_summary.json"]


    @pytest.mark.parametrize("command,block", [
        ("certify", {}),
        ("quotient", {"p": 2, "k": 1, "m": 2, "kind": "antipodal"}),
    ])
    def test_no_row_count_exits_1(self, tmp_path, capsys, command, block):
        # n step rows spread over the table: every strict part of it exits
        # 4, the whole table gives a verdict
        lines = _solved_profile(tmp_path)
        rows = lines[4:]
        bad = tmp_path / "bad.csv"
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, **{command: dict(block, profile=str(bad))})
        for n in [*range(9), len(rows)]:
            picked = [rows[i * (len(rows) - 1) // max(n - 1, 1)]
                      for i in range(n)]
            bad.write_text("\n".join(lines[:4] + picked) + "\n")
            code = main([command, "--config", str(cfg_path)])
            assert code == 4 if n < len(rows) else code == 0, n
        capsys.readouterr()


def _old_text(profile, version):
    """``profile`` in the text of an old schema: schema 5, the bit words of
    schema 6 under a params line that holds ``rtol`` and ``atol`` in place
    of ``tol``; schema 4, those words under a params line that also holds
    the density ``grid_per_unit`` of a uniform sample grid; or decimal
    (``%.17g``) text, the step table of schema 3, or the sampled grid of
    schema 2, or of schema 1, which also stored mu, res_tt, res_sk and
    res_sm."""
    if version in (4, 5):
        lines = profile.to_csv().splitlines()
        params = json.loads(lines[1].split("=", 1)[1])
        tol = params.pop("tol")
        params.update(rtol=tol, atol=tol,
                      **({"grid_per_unit": 200} if version == 4 else {}))
        lines[:2] = [f"# schema_version={version}",
                     "# params=" + json.dumps(params, sort_keys=True)]
        return "\n".join(lines) + "\n"
    if version == 3:
        names, table = _csv_header(profile.params.k), profile._table()
    else:
        names = GRID_COLUMNS + (("mu", "res_tt", "res_sk", "res_sm")
                                if version == 1 else ())
        table = np.column_stack([getattr(profile, name) for name in names])
    head = profile.to_csv().splitlines()[1:3]
    return "\n".join([f"# schema_version={version}", *head, ",".join(names),
                      *(",".join(f"{x:.17g}" for x in row)
                        for row in table)]) + "\n"


class TestOldProfileSchemas:
    """Schema 1 and 2 files (a sampled grid), schema 3 files (the step
    table in decimal text), schema 4 files (a params line with a grid
    density) and schema 5 files (a params line with rtol and atol) are
    refused with exit 4, a message that names schema 6 and says to re-run
    solve, and no artifact.  The test keeps its id from
    when schema 3 was the one named."""

    @pytest.mark.parametrize("command,block", [
        ("certify", {}),
        ("quotient", {"p": 2, "k": 1, "m": 2, "kind": "antipodal"}),
    ])
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_exits_4_naming_schema_3(self, tmp_path, capsys, command, block,
                                     version):
        _solved_profile(tmp_path)
        profile = SolitonProfile.from_csv(tmp_path / "out" / "profile.csv")
        old = tmp_path / "old.csv"
        old.write_text(_old_text(profile, version))
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, **{command: dict(block, profile=str(old))})
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O failure: ill-formed profile file")
        assert (f"schema_version {version} is not read" in err
                and "re-run 'solve' to write schema_version 6" in err)
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "profile.csv", "solve_summary.json"]


class TestLoadedParams:
    """A profile file's params line passes the checks of AnsatzParams, and
    its sphere dimensions the cap of a config: a number beyond the float
    range or a dimension past MAX_DIMENSION exits 4 and writes nothing."""

    @pytest.mark.parametrize("command,block", [
        ("certify", {}),
        ("quotient", {"p": 2, "k": 1, "m": 2, "kind": "antipodal"}),
    ])
    def test_nested_params_line_exits_4(self, tmp_path, capsys, command,
                                        block):
        # JSON nested past the decoder's depth is a malformed params line
        lines = _solved_profile(tmp_path)
        lines[1] = "# params=" + "[" * 200_000 + "]" * 200_000
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, **{command: dict(block, profile=str(bad))})
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O failure: ill-formed profile file")
        assert "malformed params line" in err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "profile.csv", "solve_summary.json"]

    @pytest.mark.parametrize("command,block", [
        ("certify", {}),
        ("quotient", {"p": 2, "k": 1, "m": 2, "kind": "antipodal"}),
    ])
    @pytest.mark.parametrize("key,value,reason", [
        ("lam", 10 ** 400, "lam must be a finite number"),
        ("b0", 10 ** 400, "b0 must be a finite number"),
        ("k", MAX_DIMENSION + 1, "sphere dimensions k = 7, m = 2"),
        ("m", MAX_DIMENSION + 1, "sphere dimensions k = 1, m = 7"),
        ("k", 10 ** 400, "k is beyond the float range"),
        ("m", 10 ** 400, "m is beyond the float range"),
    ])
    def test_exits_4_without_artifact(self, tmp_path, capsys, command, block,
                                      key, value, reason):
        lines = _solved_profile(tmp_path)
        params = json.loads(lines[1].split("=", 1)[1])
        params[key] = value
        lines[1] = "# params=" + json.dumps(params)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, **{command: dict(block, profile=str(bad))})
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O failure: ill-formed profile file")
        assert reason in err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "profile.csv", "solve_summary.json"]


class TestProfileBounds:
    """A profile is bounded by its own parameters: its series start lies
    above the positivity floor and inside the blow-up box (a config error
    or an error row), its span is at least epsilon, and a file whose
    end_time passes its t_max, or whose status is none that a shot profile
    has, exits 4."""

    @pytest.mark.parametrize("epsilon", [5e-7, 1e-6, 1e-300])
    def test_start_at_the_floor_refused(self, tmp_path, capsys, epsilon):
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve=dict(_SOLVE, epsilon=epsilon),
                     sweep=dict(_SWEEP, epsilon=epsilon))
        assert main(["solve", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "is not above the positivity floor 1e-06" in err
        assert not (tmp_path / "out").exists()
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        [row] = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[2:]
        status = row.split(",")[4]
        assert status.startswith(f"error:ValueError:epsilon={epsilon:g}: ")
        assert "is not above the positivity floor 1e-06" in status

    @pytest.mark.parametrize("b0", [1e10, 1e200])
    def test_start_outside_the_box_refused(self, tmp_path, capsys, b0):
        # a start outside the blow-up box would start the blow-up event
        # at or below zero, where it never fires
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve=dict(_SOLVE, b0=b0),
                     sweep=dict(_SWEEP, b0=[b0]))
        assert main(["solve", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "is not inside the blow-up box" in err
        assert not (tmp_path / "out").exists()
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        [row] = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[2:]
        status = row.split(",")[4]
        assert status.startswith("error:ValueError:")
        assert "is not inside the blow-up box" in status

    def test_span_of_two_epsilon(self, tmp_path):
        # the shortest span accepted is differenced like any other
        span = {"epsilon": 1e-4, "t_max": 2e-4}
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve=dict(_SOLVE, **span),
                     sweep=dict(_SWEEP, **span))
        assert main(["solve", "--config", str(cfg_path)]) == 0
        summary = json.loads((tmp_path / "out" / "solve_summary.json")
                             .read_text())
        assert summary["status"] == "completed"
        assert abs(summary["mu_mean"] - 1.0) < 1e-6
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        [row] = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[2:]
        fields = row.split(",")
        assert fields[4] == "completed"
        assert float(fields[6]) == summary["mu_mean"]

    def test_span_just_past_epsilon(self, tmp_path, capsys):
        # a span shorter than epsilon is refused, solve and sweep alike:
        # across a few ulps of t the steps and their samples are rounding
        span = {"epsilon": 1e-4, "t_max": 1e-4 + 1e-10}
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve=dict(_SOLVE, **span),
                     sweep=dict(_SWEEP, **span))
        for command in ("solve", "sweep"):
            assert main([command, "--config", str(cfg_path)]) == 2
            assert ("need 0 < epsilon and 2 epsilon <= t_max"
                    in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_long_horizon_completes(self, tmp_path):
        # no sample grid caps the span: the steady k1m2 row integrates to
        # t = 10,000 in a few thousand steps, 8 samples each
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve=dict(_SOLVE, t_max=10_000.0))
        assert main(["solve", "--config", str(cfg_path)]) == 0
        summary = json.loads((tmp_path / "out" / "solve_summary.json")
                             .read_text())
        assert (summary["status"], summary["lifetime"]) == ("completed",
                                                            10_000.0)
        assert abs(summary["mu_mean"] - 1.0) < 1e-6

    def test_step_cap_bounds_the_span(self, tmp_path, capsys):
        # the expanding k1m2 row's steps shrink as its horizon grows: it
        # reaches MAX_STEPS long before t = 1e6, a numeric failure with no
        # artifact
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve=dict(_SOLVE, **{"lambda": -0.1,
                                                     "t_max": 1e6}))
        assert main(["solve", "--config", str(cfg_path)]) == 3
        assert capsys.readouterr().err.startswith(
            f"numeric failure: integrator failed: MAX_STEPS = "
            f"{dop853.MAX_STEPS} accepted steps reached at t = ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k,name,value", [(1, "a3", "-inf"),
                                              (0, "phi2", "inf")])
    def test_non_finite_series_coefficient_named(self, tmp_path, capsys, k,
                                                 name, value):
        # b2 / b0 overflows for a tiny b0: no epsilon can mend that, so the
        # message names the coefficient and the row, not the epsilon
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve=dict(_SOLVE, k=k, b0=1e-300))
        assert main(["solve", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == (
            f"config error: the series coefficient {name} = {value} of (k, "
            f"m, lambda, b0) = ({k}, 2, 0, 1e-300) is not finite: no epsilon "
            f"gives a series start\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command,block", [
        ("certify", {}),
        ("quotient", {"p": 2, "k": 1, "m": 2, "kind": "antipodal"}),
    ])
    @pytest.mark.parametrize("line,old,new,reason", [
        (2, "end_time=3", "end_time=3.5", "end_time 3.5 is not at most its "
         "t_max = 3"),
        (2, "end_time=3", "end_time=nan", "end_time nan is not at most"),
        (2, "end_time=3", "end_time=inf", "end_time inf is not at most"),
        (1, '"t_max": 3.0', '"t_max": 2.5', "end_time 3 is not at most its "
         "t_max = 2.5"),
        # certify read an unknown status as a numeric failure (exit 3),
        # and quotient certified the profile
        (2, "status=completed", "status=foo", "profile status 'foo' is not "
         "one of completed, hit_b_zero, hit_a_zero, blowup"),
    ], ids=["end_time-3.5", "end_time-nan", "end_time-inf", "t_max-2.5",
            "status-foo"])
    def test_end_past_t_max_exits_4(self, tmp_path, capsys, command, block,
                                    line, old, new, reason):
        lines = _solved_profile(tmp_path)
        assert old in lines[line]
        lines[line] = lines[line].replace(old, new)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, **{command: dict(block, profile=str(bad))})
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O failure: ill-formed profile file")
        assert reason in err
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "profile.csv", "solve_summary.json"]


class TestDiagnosticsCalls:
    """A solve evaluates the reduced kernel at a profile's samples once and
    differentiates its a', b' and phi' polynomials once each; a sweep row,
    which reads mu = m - 1 + b res_sm alone, evaluates the kernel once and
    differentiates b' alone; a certificate and a quotient, which read only
    the polynomials of a, b and phi, do neither."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        reduced_kernel, evaluate = shooting._reduced_kernel, shooting._evaluate

        def counting_kernel(params):
            kernel = reduced_kernel(params)

            def counted(a, ap, b, bp, phip):
                if isinstance(b, np.ndarray):   # the samples, not a state
                    calls.append(("kernel", params.k, params.b0))
                return kernel(a, ap, b, bp, phip)
            return counted

        def counting_evaluate(steps, name, idx, x, dt=False):
            if dt:
                calls.append(("dt", name))
            return evaluate(steps, name, idx, x, dt)

        monkeypatch.setattr(shooting, "_reduced_kernel", counting_kernel)
        monkeypatch.setattr(shooting, "_evaluate", counting_evaluate)
        return calls

    def test_per_workflow(self, tmp_path, calls):
        cfg_path = tmp_path / "c.json"
        solve = {"k": 1, "m": 2, "lambda": 0.0, "b0": 1.0, "t_max": 3.0}
        write_config(cfg_path, solve=solve, certify={"n_base": 4,
                                                     "n_product": 4})
        assert main(["solve", "--config", str(cfg_path)]) == 0
        assert sorted(calls) == [("dt", "a_prime"), ("dt", "b_prime"),
                                 ("dt", "phi_prime"), ("kernel", 1, 1.0)]
        assert main(["certify", "--config", str(cfg_path)]) == 0
        assert len(calls) == 4
        profile = str(tmp_path / "out" / "profile.csv")
        write_config(cfg_path, certify={"profile": profile, "n_base": 4,
                                        "n_product": 4},
                     quotient={"p": 2, "k": 1, "m": 2, "kind": "antipodal",
                               "profile": profile})
        assert main(["certify", "--config", str(cfg_path)]) == 0
        assert len(calls) == 4
        assert main(["quotient", "--config", str(cfg_path)]) == 0
        assert len(calls) == 4

    def test_one_per_sweep_row(self, tmp_path, calls):
        cfg_path = tmp_path / "s.json"
        write_config(cfg_path, sweep={"k": [0, 1], "m": [2], "lambda": [0.0],
                                      "b0": [0.9, 1.0], "t_max": 2.0})
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert calls == [call for k in (0, 1) for b0 in (0.9, 1.0)
                         for call in (("dt", "b_prime"), ("kernel", k, b0))]


class TestSweep:
    def test_empty_grid_empty_table(self, tmp_path):
        cfg_path = tmp_path / "s.json"
        write_config(cfg_path, sweep={"k": [], "m": [2], "lambda": [0.0],
                                      "b0": [1.0]})
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines == [
            "# schema_version=2",
            "k,m,lambda,b0,status,lifetime,mu_mean,mu_spread,slope_a,slope_b,"
            "slope_a_mid,slope_b_mid"]

    def test_degenerate_row_flagged_exit_zero(self, tmp_path):
        cfg_path = tmp_path / "s.json"
        write_config(cfg_path, sweep={"k": [0], "m": [2], "lambda": [0.5],
                                      "b0": [2.0], "t_max": 5.0})
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[2:]
        assert "hit_b_zero" in rows[0]

    def test_error_row_keeps_the_message(self, tmp_path):
        cfg_path = tmp_path / "s.json"
        write_config(cfg_path, sweep={"k": [1], "m": [2], "lambda": [0.0],
                                      "b0": [1e-5, 1.0], "t_max": 2.0})
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[2:]
        assert len(rows) == 2
        fields = rows[0].split(",")
        assert len(fields) == 12
        assert fields[4] == ("error:ValueError:epsilon=0.0001 too large: "
                             "series tail estimate 1.67e-03 > 1e-8")
        assert rows[1].split(",")[4] == "completed"

    @pytest.mark.parametrize("block,status", [
        ({"k": 1, "m": 2, "lambda": 0.0, "b0": 1.0, "t_max": 3.0},
         "completed"),
        (cylinder_solve_block(t_max=3.0), "completed"),
        ({"k": 1, "m": 2, "lambda": 0.0, "b0": 1.0, "phi2": 0.3}, "blowup"),
    ], ids=["k1m2", "cylinder", "blowup"])
    def test_row_reports_the_solve_summary(self, tmp_path, block, status):
        # the eight numbers that solve_summary.json shares with sweep.csv
        # are those of the row of a one-row sweep of the same params, run
        # serially and on 2 processes: the same floats, a NaN written as
        # null in the JSON and as nan in the CSV
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve=block)
        assert main(["solve", "--config", str(cfg_path)]) == 0
        summary = json.loads((tmp_path / "out" / "solve_summary.json")
                             .read_text())
        assert summary["status"] == status
        grid = {key: [value] if key in ("k", "m", "lambda", "b0") else value
                for key, value in block.items()}
        for mode in ({}, {"parallel": True, "workers": 2}):
            write_config(cfg_path, sweep={**grid, **mode})
            assert main(["sweep", "--config", str(cfg_path)]) == 0
            lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
            header, [line] = lines[1].split(","), lines[2:]
            row = dict(zip(header[4:], line.split(",")[4:]))
            assert len(row) == 8 and row["status"] == status
            numbers = list(row)[1:]
            assert ([row[name] == "nan" for name in numbers]
                    == [summary[name] is None for name in numbers])
            got = [float(row[name]) for name in numbers]
            want = [np.nan if summary[name] is None else summary[name]
                    for name in numbers]
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_reruns_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "s.json"
        write_config(cfg_path, sweep={"k": [1], "m": [2], "lambda": [0.0],
                                      "b0": [0.9, 1.1], "t_max": 2.0,
                                      "tol": 1e-9})
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        first = (tmp_path / "out" / "sweep.csv").read_bytes()
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "sweep.csv").read_bytes() == first


_SOLVE = {"k": 1, "m": 2, "lambda": 0.0, "b0": 1.0, "t_max": 2.0}
_SWEEP = {"k": [1], "m": [2], "lambda": [0.0], "b0": [1.0], "t_max": 2.0}
_QUOTIENT = {"p": 2, "k": 1, "m": 2, "kind": "antipodal"}


class TestConfigValidation:
    """Ill-typed numbers and numbers beyond the resource bounds exit 2
    before any work, and write nothing.  Only the rejection of a large
    sweep or of many processes is run here, never the sweep itself."""

    # a list value has an explicit id, the name pytest gave the case by its
    # position, so that removing a case renames no other
    @pytest.mark.parametrize("command,key,value", [
        ("solve", "lambda", "x"),
        ("solve", "lambda", float("nan")),
        ("solve", "lambda", float("inf")),
        ("solve", "k", 1.5),
        ("solve", "k", True),
        ("solve", "b0", True),
        ("solve", "tol", 0.0),
        pytest.param("solve", "rtol", 1e-10, id="solve-rtol-unknown-key"),
        pytest.param("solve", "atol", 1e-10, id="solve-atol-unknown-key"),
        pytest.param("sweep", "rtol", 1e-10, id="sweep-rtol-unknown-key"),
        pytest.param("sweep", "b0", [1.0, float("nan")],
                     id="sweep-b0-value7"),
        pytest.param("sweep", "m", [2, 2.5], id="sweep-m-value8"),
        ("sweep", "workers", 1.5),
        ("certify", "h", float("inf")),
        ("certify", "tolerance", "1e-5"),
        ("certify", "n_product", 2.5),
        ("certify", "n_base", 0),
        ("certify", "seed", True),
        ("certify", "seed", -1),
        ("quotient", "n_samples", "x"),
        ("quotient", "n_samples", True),
        ("quotient", "tolerance", "x"),
        pytest.param("quotient", "freeness_tolerance", 1e-6,
                     id="quotient-freeness_tolerance-unknown-key"),
        pytest.param("certify", "t_window", [1], id="certify-t_window-value20"),
        ("certify", "t_window", "ab"),
        pytest.param("certify", "t_window", [0.2, "x"],
                     id="certify-t_window-value22"),
        ("quotient", "seed", -1),
        ("certify", "tolerance", float("nan")),
        ("quotient", "tolerance", float("nan")),
        ("certify", "n_fiber", 100_000_000),
        ("certify", "n_base", MAX_SAMPLES + 1),
        ("certify", "n_product", MAX_SAMPLES + 1),
        ("quotient", "n_samples", MAX_SAMPLES + 1),
        ("solve", "t_max", -1.0),
        ("solve", "tol", "1e-10"),
        ("sweep", "tol", float("inf")),
        ("sweep", "workers", MAX_WORKERS + 1),
        ("sweep", "workers", 10 ** 6),
        pytest.param("sweep", "b0", [1.0 + i / MAX_SWEEP_ROWS
                                     for i in range(MAX_SWEEP_ROWS + 1)],
                     id="sweep-b0-value35"),
        pytest.param("sweep", "k", [1, MAX_DIMENSION + 1],
                     id="sweep-k-value36"),
        pytest.param("sweep", "m", [MAX_DIMENSION + 1], id="sweep-m-value37"),
        ("solve", "k", MAX_DIMENSION + 1),
        ("solve", "m", 10 ** 400),
        ("quotient", "p", MAX_GROUP_ORDER + 1),
        ("sweep", "parallel", "false"),
        ("sweep", "parallel", 0),
        ("sweep", "parallel", 1),
        ("sweep", "parallel", None),
        ("certify", "h", 1e-20),
        ("certify", "n_base", 1),
    ])
    def test_bad_number_exits_2_without_artifacts(self, tmp_path, command,
                                                  key, value):
        blocks = {"solve": dict(_SOLVE), "sweep": dict(_SWEEP), "certify": {},
                  "quotient": dict(_QUOTIENT)}
        blocks[command][key] = value
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, **blocks)
        assert main([command, "--config", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_ansatz_keys_are_the_params_fields(self):
        # the solve and sweep keys, 'lambda' as 'lam', are the fields of
        # AnsatzParams: a key it does not take would raise TypeError, a
        # traceback, and a field without a key would be out of reach
        assert ({"lam" if key == "lambda" else key for key in _ANSATZ}
                == {f.name for f in dataclasses.fields(AnsatzParams)})

    @pytest.mark.parametrize("command,edit,reason", [
        ("solve", lambda cfg: cfg.update(solve=[1.0]),
         "config section 'solve' must be an object"),
        ("solve", lambda cfg: cfg.pop("solve"), "config has no 'solve' block"),
        ("quotient", lambda cfg: cfg.pop("quotient"),
         "config has no 'quotient' block"),
        ("sweep", lambda cfg: cfg.pop("sweep"), "config has no 'sweep' block"),
        ("solve", lambda cfg: cfg["solve"].pop("b0"),
         "solve block is missing 'b0'"),
        ("quotient", lambda cfg: cfg["quotient"].pop("kind"),
         "quotient block is missing 'kind'"),
        ("sweep", lambda cfg: cfg["sweep"].pop("lambda"),
         "sweep block needs a list under 'lambda'"),
        ("solve", lambda cfg: cfg.update(out_dir=""),
         "'out_dir' must be a non-empty string"),
        ("solve", lambda cfg: cfg.update(out_dir=7),
         "'out_dir' must be a non-empty string"),
    ], ids=["section-not-object", "no-solve", "no-quotient", "no-sweep",
            "solve-without-b0", "quotient-without-kind",
            "sweep-without-lambda", "empty-out_dir", "out_dir-not-string"])
    def test_incomplete_config_exits_2_without_artifacts(
            self, tmp_path, capsys, command, edit, reason):
        cfg = {"schema_version": 1, "out_dir": str(tmp_path / "out"),
               "solve": dict(_SOLVE), "sweep": dict(_SWEEP),
               "quotient": dict(_QUOTIENT)}
        edit(cfg)
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"config error: {reason}\n"
        assert list(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("command", ["certify", "quotient"])
    @pytest.mark.parametrize("flag,value", [("--tolerance", "1e-3"),
                                            ("--seed", "1")])
    def test_settings_come_from_the_config_alone(self, tmp_path, capsys,
                                                 command, flag, value):
        # the config hash of a report covers every setting behind it: the
        # tolerance and the seed have no flag
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve=dict(_SOLVE), quotient=dict(_QUOTIENT))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg_path), flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestRefusedSeriesStart:
    """A solve block whose series start is refused (epsilon too large for
    the truncated series) is a config error in every command that shoots,
    before any output is written."""

    @pytest.mark.parametrize("command", ["solve", "certify", "quotient"])
    @pytest.mark.parametrize("solve", [
        {"k": 1, "m": 2, "lambda": 0, "b0": 1, "epsilon": 0.01},
        {"k": 1, "m": 2, "lambda": 0, "b0": 1e-5},
        # eps ** 3 overflows: the tail estimate reads inf
        {"k": 1, "m": 2, "lambda": 0, "b0": 1, "epsilon": 1e103,
         "t_max": 1e104},
    ])
    def test_exits_2_without_artifacts(self, tmp_path, capsys, command, solve):
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve=solve, quotient=dict(_QUOTIENT))
        assert main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "too large" in err
        assert not (tmp_path / "out").exists()


class TestQuotientFuzz:
    """Random quotient configs end in a documented exit code, and a config
    error or a numeric or I/O failure writes nothing.  Each example carries
    at most one deliberate flaw: a refused series start (epsilon too large
    or b0 too small) or a radial range past the profile; the action
    arguments are drawn valid (p = 2 for the antipodal map and on the line,
    odd m for Hopf), since their refusals are pinned above and would
    otherwise stop most examples before the shooting."""

    def test_exit_codes_and_artifacts(self, tmp_path, capsys):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        runs = itertools.count()

        @hypothesis.settings(max_examples=30, deadline=None, database=None)
        @hypothesis.given(
            k=st.integers(0, 3), m=st.integers(1, 4),
            lam=st.sampled_from([0.0, -0.5, 0.5]),
            b0=st.sampled_from([1.0, 0.3, 2.0]),
            t_max=st.floats(0.2, 2.0),
            p=st.integers(2, 7),
            kind=st.sampled_from(["hopf", "antipodal", "axis_rotation"]),
            n_samples=st.integers(0, 16), seed=st.integers(0, 3),
            lo=st.sampled_from([0.1, 0.3]),
            flaw=st.sampled_from([None, None, None, "epsilon", "b0",
                                  "t_range"]))
        def run(k, m, lam, b0, t_max, p, kind, n_samples, seed, lo, flaw):
            if kind == "antipodal" or k == 0:
                p = 2
            if kind == "hopf":
                m |= 1
            solve = {"k": k, "m": m, "lambda": lam, "b0": b0, "t_max": t_max}
            # the profile's radial range is [0.05, 0.95 t_end], t_end <= t_max
            t_range = [lo, 0.9 * t_max]
            if flaw == "t_range":
                t_range = [0.02, 0.5] if lo < 0.2 else [lo, 1.2 * t_max]
            elif flaw:
                solve[flaw] = {"epsilon": 0.01, "b0": 1e-5}[flaw]
            work = tmp_path / str(next(runs))
            work.mkdir()
            write_config(work / "q.json", solve=solve, quotient={
                "p": p, "k": k, "m": m, "kind": kind, "n_samples": n_samples,
                "seed": seed, "t_range": t_range})
            code = main(["quotient", "--config", str(work / "q.json")])
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4)
            if code in (3, 4) or err.startswith("config error:"):
                assert not (work / "out").exists()
            else:
                assert (work / "out" / "quotient_certificate.json").exists()

        run()


class TestSolveFuzz:
    """Random solve configs end in a documented exit code, and only a
    successful solve writes its outputs: both of them.  Each example
    carries at most one deliberate flaw, which must be a config error: a
    refused series start (epsilon too large or b0 too small), a span
    shorter than 2 epsilon, or a value of the wrong type under one key."""

    def test_exit_codes_and_artifacts(self, tmp_path, capsys):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        runs = itertools.count()
        keys = ("k", "m", "lambda", "b0", "phi2", "t_max")

        @hypothesis.settings(max_examples=30, deadline=None, database=None)
        @hypothesis.given(
            k=st.integers(0, 3), m=st.integers(1, 4),
            lam=st.floats(-1.0, 1.0), b0=st.floats(0.3, 3.0),
            phi2=st.floats(-1.0, 0.5), t_max=st.floats(0.2, 3.0),
            flaw=st.sampled_from([None, None, None, "epsilon", "b0",
                                  "t_max", "type"]),
            short=st.floats(1e-6, 1.9e-4), key=st.sampled_from(keys),
            wrong=st.sampled_from(["1", True, None, [1]]))
        def run(k, m, lam, b0, phi2, t_max, flaw, short, key, wrong):
            solve = dict(zip(keys, (k, m, lam, b0, phi2, t_max)))
            if flaw == "type":
                solve[key] = wrong
            elif flaw:
                solve[flaw] = {"epsilon": 0.01, "b0": 1e-5,
                               "t_max": short}[flaw]
                if flaw == "b0":   # the circle fiber (m = 1) takes any b0
                    solve["m"] = max(m, 2)
            work = tmp_path / str(next(runs))
            work.mkdir()
            write_config(work / "s.json", solve=solve)
            code = main(["solve", "--config", str(work / "s.json")])
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4)
            outputs = [(work / "out" / name).exists()
                       for name in ("profile.csv", "solve_summary.json")]
            assert outputs == [code == 0] * 2
            if flaw:
                assert code == 2 and err.startswith("config error:")

        run()


class TestSweepFuzz:
    """Random sweep grids of at most 8 rows end in exit 0 or a config
    error; a config error writes nothing, a sweep writes one row per grid
    point, and a parallel sweep writes the serial sweep's bytes (grids
    this small run in the calling process either way: ``sweep`` starts no
    child below 2 * ``_SHARE_ROWS`` rows).  The grids hold refused starts
    (b0 = 1e-5 on a sphere fiber) among their rows; an example may carry
    one flaw: a span shorter than 2 epsilon or a non-boolean ``parallel``
    (config errors), or an epsilon that every row's series refuses (an
    error row each)."""

    def test_exit_codes_and_artifacts(self, tmp_path, capsys):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        runs = itertools.count()

        def pair(values):
            return st.lists(values, min_size=1, max_size=2, unique=True)

        @hypothesis.settings(max_examples=30, deadline=None, database=None)
        @hypothesis.given(
            ks=pair(st.integers(0, 3)), ms=pair(st.integers(1, 4)),
            lam=st.floats(-1.0, 1.0),
            b0s=pair(st.sampled_from([1e-5, 0.5, 1.0, 1.7])),
            t_max=st.floats(0.2, 2.0),
            parallel=st.booleans(), workers=st.sampled_from([None, 1, 2]),
            flaw=st.sampled_from([None, None, None, "t_max", "parallel",
                                  "epsilon"]))
        def run(ks, ms, lam, b0s, t_max, parallel, workers, flaw):
            block = {"k": ks, "m": ms, "lambda": [lam], "b0": b0s,
                     "t_max": t_max, "parallel": parallel}
            if workers is not None:
                block["workers"] = workers
            if flaw:
                block[flaw] = {"t_max": 1.5e-4, "parallel": "false",
                               "epsilon": 0.01}[flaw]
            work = tmp_path / str(next(runs))
            work.mkdir()
            write_config(work / "s.json", sweep=block)
            code = main(["sweep", "--config", str(work / "s.json")])
            err = capsys.readouterr().err
            assert code in (0, 2)
            if code == 2:
                assert err.startswith("config error:")
                assert not (work / "out").exists()
                assert flaw in ("t_max", "parallel")
                return
            text = (work / "out" / "sweep.csv").read_bytes()
            rows = text.decode().splitlines()[2:]
            assert len(rows) == len(ks) * len(ms) * len(b0s)
            if flaw == "epsilon":
                assert all(",error:ValueError:" in row for row in rows)
            if block["parallel"] is True:
                write_config(work / "s.json", sweep=dict(block, parallel=False),
                             extra={"out_dir": str(work / "serial")})
                assert main(["sweep", "--config", str(work / "s.json")]) == 0
                assert (work / "serial" / "sweep.csv").read_bytes() == text

        run()


def _word(x):
    """The profile cell of ``x``: its float64 bits as 16 hex digits."""
    return struct.pack(">d", x).hex()


def _value(word):
    return struct.unpack(">d", bytes.fromhex(word))[0]


class TestCertifyFuzz:
    """Mutated schema-5 profile files and random certify keys within the
    caps end in a documented exit code; a config error or a numeric or
    I/O failure writes nothing, and a verdict writes the certificate and
    no temporary file.  Each example edits at most one part of a shot
    profile file: a cell, a row (dropped, repeated or swapped), a column
    scaled, the text cut short, or a header line (the schema version, a
    params value, the status or end_time); and it may carry one flawed
    certify key (a sample count past ``MAX_SAMPLES``, a step too large or
    a window outside the span)."""

    @pytest.fixture(scope="class")
    def profiles(self, tmp_path_factory):
        out = {}
        for label, solve in {
                "k1m2": {"k": 1, "m": 2, "lambda": 0.0, "b0": 1.0,
                         "t_max": 2.0},
                "k0m2": {"k": 0, "m": 2, "lambda": 0.5,
                         "b0": float(np.sqrt(2.0)), "t_max": 2.0},
                "k2m3": {"k": 2, "m": 3, "lambda": -0.1, "b0": 1.0,
                         "t_max": 1.5}}.items():
            tmp = tmp_path_factory.mktemp(label)
            write_config(tmp / "c.json", solve=solve)
            assert main(["solve", "--config", str(tmp / "c.json")]) == 0
            out[label] = (tmp / "out" / "profile.csv").read_text()
        return out

    def test_exit_codes_and_artifacts(self, tmp_path, capsys, profiles):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        runs = itertools.count()
        params_edits = {"lam": lambda v: 1.05 * v, "k": lambda v: v + 1,
                        "epsilon": lambda v: 2 * v,
                        "t_max": lambda v: 0.5 * v,
                        "b0": lambda v: 10 ** 400}

        @hypothesis.settings(max_examples=40, deadline=None, database=None)
        @hypothesis.given(
            label=st.sampled_from(sorted(profiles)),
            edit=st.sampled_from([None, "cell", "drop", "repeat", "swap",
                                  "scale", "cut", "schema", "params",
                                  "status", "end_time"]),
            row=st.integers(0, 10 ** 6), column=st.integers(0, 10 ** 6),
            # the bit words of nan, inf, -0 and 1e308, then malformed cells
            token=st.sampled_from(["7ff8000000000000", "7ff0000000000000",
                                   "8000000000000000", "7fe1ccf385ebc8a0",
                                   "x", "", "0", "-1", "1.5", "nan",
                                   "3ff000000000000"]),
            key=st.sampled_from(sorted(params_edits)),
            status=st.sampled_from(["blowup", "hit_b_zero", "done"]),
            end_time=st.sampled_from(["nan", "0", "1e300", "1.999", "x"]),
            schema=st.sampled_from(["1", "2", "3", "4", "6", "three"]),
            cut=st.floats(0.0, 1.0),
            n_base=st.integers(1, 4), n_product=st.integers(1, 4),
            n_fiber=st.integers(1, 3), seed=st.integers(0, 5),
            h=st.sampled_from([1e-3, 2e-3, 5e-4]),
            tolerance=st.sampled_from([1e-5, 1e-8, 1.0]),
            flaw=st.sampled_from([None, None, None, "n_product", "h",
                                  "t_window"]))
        def run(label, edit, row, column, token, key, status,
                end_time, schema, cut, n_base, n_product, n_fiber, seed, h,
                tolerance, flaw):
            lines = profiles[label].splitlines()
            head, rows = lines[:4], lines[4:]
            i, j = row % len(rows), column % len(head[3].split(","))
            if edit == "cell":
                rows = _set_cell(rows, i, j, token)
            elif edit == "drop":
                rows = rows[:i] + rows[i + 1:]
            elif edit == "repeat":
                rows = rows[:i + 1] + rows[i:]
            elif edit == "swap" and len(rows) > 1:
                i = min(i, len(rows) - 2)
                rows = rows[:i] + [rows[i + 1], rows[i]] + rows[i + 2:]
            elif edit == "scale":
                rows = [",".join(_word(_value(x) * 1.05) if c == j else x
                                 for c, x in enumerate(r.split(",")))
                        for r in rows]
            elif edit == "schema":
                head[0] = f"# schema_version={schema}"
            elif edit == "params":
                params = json.loads(head[1].split("=", 1)[1])
                params[key] = params_edits[key](params[key])
                head[1] = "# params=" + json.dumps(params, sort_keys=True)
            elif edit == "status":
                head[2] = head[2].replace("status=completed",
                                          f"status={status}")
            elif edit == "end_time":
                head[2] = head[2].split(" end_time=")[0] + f" end_time={end_time}"
            text = "\n".join(head + rows) + "\n"
            if edit == "cut":
                text = text[:int(cut * len(text))]
            block = {"n_base": n_base, "n_product": n_product,
                     "n_fiber": n_fiber, "seed": seed, "h": h,
                     "tolerance": tolerance}
            if flaw:
                block[flaw] = {"n_product": MAX_SAMPLES + 1, "h": 0.5,
                               "t_window": [30.0, 40.0]}[flaw]
            work = tmp_path / str(next(runs))
            work.mkdir()
            (work / "p.csv").write_text(text)
            write_config(work / "c.json",
                         certify=dict(block, profile=str(work / "p.csv")))
            code = main(["certify", "--config", str(work / "c.json")])
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4)
            written = sorted(p.name for p in work.glob("out/*"))
            if code in (3, 4) or err.startswith("config error:"):
                assert written == []
            else:
                assert written == ["certification.json"]
            if edit is None and not flaw:
                # one base sample is refused; more certify the shot profile
                assert (err.startswith("config error:") if n_base == 1
                        else code == 0 or tolerance == 1e-8)

        run()

