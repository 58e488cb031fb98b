"""CLI workflows: configs, outputs, exit codes, determinism."""

import itertools
import json

import numpy as np
import pytest

from ricciwarp.cli import (
    MAX_DIMENSION,
    MAX_GRID_POINTS,
    MAX_GROUP_ORDER,
    MAX_SAMPLES,
    MAX_SWEEP_ROWS,
    MAX_WORKERS,
    main,
)
from ricciwarp import shooting
from ricciwarp.shooting import GRID_COLUMNS, SolitonProfile


def write_config(path, extra=None, **blocks):
    cfg = {"schema_version": 1, "out_dir": str(path.parent / "out")}
    cfg.update(blocks)
    if extra:
        cfg.update(extra)
    path.write_text(json.dumps(cfg))
    return cfg


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

    @pytest.mark.parametrize("mutate", [
        lambda rows: rows[:1] + [rows[1] + ",0,0,0"] + rows[2:],
        lambda rows: rows[:1] + [rows[1].replace(",", ",x", 1)] + rows[2:],
        lambda rows: [],
    ], ids=["ten-columns", "non-numeric-token", "no-data-rows"])
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

    @pytest.mark.parametrize("grid_per_unit", [50, 100, 200, 400, 800])
    def test_warping_dip_exits_3(self, tmp_path, capsys, grid_per_unit):
        # this profile blows up at t = 1.95; a profile that is not
        # completed is refused at every grid before any geometry is built
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, solve={"k": 0, "m": 2, "lambda": 0.0,
                                      "b0": 1.0,
                                      "grid_per_unit": grid_per_unit},
                     certify={})
        assert main(["certify", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: profile status is 'blowup'")
        assert not (tmp_path / "out").exists()

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
        (2.0, None), (6.0, [0.0, 1.0]), (6.0, [1.0, 5.8]), (6.0, [2.0, 1.0])])
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
        valid = f"[0.05, {0.95 * t_max:g}]"
        assert err.startswith("config error:") and valid in err
        lo, hi = t_range or (0.5, 2.0)
        assert f"[{lo:g}, {hi:g}]" in err
        assert not (tmp_path / "out").exists()

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
        (lambda rows: _set_cell(rows, 7, 3, "nan"),
         "column b has a non-finite value"),
        (lambda rows: _set_cell(rows, 7, 5, "inf"),
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


def _grid_text(profile, version):
    """``profile`` in the sampled-grid layout of schema 2, or of schema 1,
    which also stored mu, res_tt, res_sk and res_sm."""
    names = GRID_COLUMNS + (("mu", "res_tt", "res_sk", "res_sm")
                            if version == 1 else ())
    table = np.column_stack([getattr(profile, name) for name in names])
    head = profile.to_csv().splitlines()[1:3]
    return "\n".join([f"# schema_version={version}", *head, ",".join(names),
                      *(",".join(f"{x:.17g}" for x in row)
                        for row in table)]) + "\n"


class TestOldProfileSchemas:
    """Schema 1 and 2 files, a sampled grid, are refused with exit 4, a
    message that names schema 3 and says to re-run solve, and no
    artifact; so is a grid beyond MAX_GRID_POINTS."""

    @pytest.mark.parametrize("command,block", [
        ("certify", {}),
        ("quotient", {"p": 2, "k": 1, "m": 2, "kind": "antipodal"}),
    ])
    @pytest.mark.parametrize("version", [1, 2])
    def test_exits_4_naming_schema_3(self, tmp_path, capsys, command, block,
                                     version):
        _solved_profile(tmp_path)
        profile = SolitonProfile.from_csv(tmp_path / "out" / "profile.csv")
        old = tmp_path / "old.csv"
        old.write_text(_grid_text(profile, version))
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, **{command: dict(block, profile=str(old))})
        capsys.readouterr()
        assert main([command, "--config", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O failure: ill-formed profile file")
        assert (f"schema_version {version} stores a sampled grid" in err
                and "re-run 'solve' to write schema_version 3" in err)
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "profile.csv", "solve_summary.json"]

    @pytest.mark.parametrize("grid_per_unit", [
        int(MAX_GRID_POINTS / 2.9999) + 1, 10 ** 12, 10 ** 400])
    def test_grid_beyond_the_cap_exits_4(self, tmp_path, capsys,
                                         grid_per_unit):
        # the params line sets the grid of a loaded profile: a t_max 3
        # profile at more than a third of the cap per unit is refused
        lines = _solved_profile(tmp_path)
        assert '"grid_per_unit": 200' in lines[1]
        lines[1] = lines[1].replace('"grid_per_unit": 200',
                                    f'"grid_per_unit": {grid_per_unit}')
        big = tmp_path / "big.csv"
        big.write_text("\n".join(lines) + "\n")
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, certify={"profile": str(big)})
        capsys.readouterr()
        assert main(["certify", "--config", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("I/O failure: ill-formed profile file")
        assert "output grid too large" in err
        assert not (tmp_path / "out" / "certification.json").exists()


class TestDiagnosticsCalls:
    """A solve derives a profile's diagnostics once; a certificate and a
    quotient, which read only the polynomials of a, b and phi, never do."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls, diagnostics = [], shooting._diagnostics

        def counting(*args):
            calls.append(args[0])
            return diagnostics(*args)

        monkeypatch.setattr(shooting, "_diagnostics", counting)
        return calls

    def test_per_workflow(self, tmp_path, calls):
        cfg_path = tmp_path / "c.json"
        solve = {"k": 1, "m": 2, "lambda": 0.0, "b0": 1.0, "t_max": 3.0}
        write_config(cfg_path, solve=solve, certify={"n_base": 4,
                                                     "n_product": 4})
        assert main(["solve", "--config", str(cfg_path)]) == 0
        assert len(calls) == 1
        assert main(["certify", "--config", str(cfg_path)]) == 0
        assert len(calls) == 1
        profile = str(tmp_path / "out" / "profile.csv")
        write_config(cfg_path, certify={"profile": profile, "n_base": 4,
                                        "n_product": 4},
                     quotient={"p": 2, "k": 1, "m": 2, "kind": "antipodal",
                               "profile": profile})
        assert main(["certify", "--config", str(cfg_path)]) == 0
        assert len(calls) == 1
        assert main(["quotient", "--config", str(cfg_path)]) == 0
        assert len(calls) == 1

    def test_one_per_sweep_row(self, tmp_path, calls):
        cfg_path = tmp_path / "s.json"
        write_config(cfg_path, sweep={"k": [0, 1], "m": [2], "lambda": [0.0],
                                      "b0": [0.9, 1.0], "t_max": 2.0})
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        assert [(p.k, p.b0) for p in calls] == [
            (0, 0.9), (0, 1.0), (1, 0.9), (1, 1.0)]


class TestSweep:
    def test_empty_grid_empty_table(self, tmp_path):
        cfg_path = tmp_path / "s.json"
        write_config(cfg_path, sweep={"k": [], "m": [2], "lambda": [0.0],
                                      "b0": [1.0]})
        assert main(["sweep", "--config", str(cfg_path)]) == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[1].startswith("k,m,lambda,b0")
        assert len(lines) == 2

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
        assert len(fields) == 10
        assert fields[4] == ("error:ValueError:epsilon=0.0001 too large: "
                             "series tail estimate 1.67e-03 > 1e-8")
        assert rows[1].split(",")[4] == "completed"

    def test_reruns_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "s.json"
        write_config(cfg_path, sweep={"k": [1], "m": [2], "lambda": [0.0],
                                      "b0": [0.9, 1.1], "t_max": 2.0,
                                      "rtol": 1e-9, "atol": 1e-9})
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
    sweep or pool is run here, never the sweep or the pool itself."""

    @pytest.mark.parametrize("command,key,value", [
        ("solve", "lambda", "x"),
        ("solve", "lambda", float("nan")),
        ("solve", "lambda", float("inf")),
        ("solve", "k", 1.5),
        ("solve", "k", True),
        ("solve", "b0", True),
        ("solve", "grid_per_unit", 40.5),
        ("sweep", "b0", [1.0, float("nan")]),
        ("sweep", "m", [2, 2.5]),
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
        ("quotient", "freeness_tolerance", float("nan")),
        ("certify", "t_window", [1]),
        ("certify", "t_window", "ab"),
        ("certify", "t_window", [0.2, "x"]),
        ("certify", "--seed", -1),
        ("certify", "--tolerance", float("nan")),
        ("quotient", "--tolerance", float("nan")),
        ("certify", "n_fiber", 100_000_000),
        ("certify", "n_base", MAX_SAMPLES + 1),
        ("certify", "n_product", MAX_SAMPLES + 1),
        ("quotient", "n_samples", MAX_SAMPLES + 1),
        ("solve", "t_max", 1e9),
        ("solve", "grid_per_unit", 10 ** 6),
        ("sweep", "t_max", 1e9),
        ("sweep", "workers", MAX_WORKERS + 1),
        ("sweep", "workers", 10 ** 6),
        ("sweep", "b0", [1.0 + i / MAX_SWEEP_ROWS
                         for i in range(MAX_SWEEP_ROWS + 1)]),
        ("sweep", "k", [1, MAX_DIMENSION + 1]),
        ("sweep", "m", [MAX_DIMENSION + 1]),
        ("solve", "k", MAX_DIMENSION + 1),
        ("solve", "m", 10 ** 400),
        ("quotient", "p", MAX_GROUP_ORDER + 1),
        ("sweep", "parallel", "false"),
        ("sweep", "parallel", 0),
        ("sweep", "parallel", 1),
        ("sweep", "parallel", None),
        ("solve", "grid_per_unit", 10 ** 400),
        ("sweep", "grid_per_unit", 10 ** 400),
    ])
    def test_bad_number_exits_2_without_artifacts(self, tmp_path, command,
                                                  key, value):
        blocks = {"solve": dict(_SOLVE), "sweep": dict(_SWEEP), "certify": {},
                  "quotient": dict(_QUOTIENT)}
        flags = []
        if key.startswith("--"):
            flags = [key, str(value)]
        else:
            blocks[command][key] = value
        cfg_path = tmp_path / "c.json"
        write_config(cfg_path, **blocks)
        assert main([command, "--config", str(cfg_path), *flags]) == 2
        assert not (tmp_path / "out").exists()


class TestRefusedSeriesStart:
    """A solve block whose series start is refused (epsilon too large for
    the truncated series) is a config error in every command that shoots,
    before any output is written."""

    @pytest.mark.parametrize("command", ["solve", "certify", "quotient"])
    @pytest.mark.parametrize("solve", [
        {"k": 1, "m": 2, "lambda": 0, "b0": 1, "epsilon": 0.01},
        {"k": 1, "m": 2, "lambda": 0, "b0": 1e-5},
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
    or b0 too small), too coarse a grid, or a radial range past the
    profile; the action arguments are drawn valid (p = 2 for the antipodal
    map and on the line, odd m for Hopf), since their refusals are pinned
    above and would otherwise stop most examples before the shooting."""

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
            grid_per_unit=st.sampled_from([100, 64, 40]),
            p=st.integers(2, 7),
            kind=st.sampled_from(["hopf", "antipodal", "axis_rotation"]),
            n_samples=st.integers(0, 16), seed=st.integers(0, 3),
            lo=st.sampled_from([0.1, 0.3]),
            flaw=st.sampled_from([None, None, None, "epsilon", "b0",
                                  "grid_per_unit", "t_range"]))
        def run(k, m, lam, b0, t_max, grid_per_unit, p, kind, n_samples,
                seed, lo, flaw):
            if kind == "antipodal" or k == 0:
                p = 2
            if kind == "hopf":
                m |= 1
            solve = {"k": k, "m": m, "lambda": lam, "b0": b0, "t_max": t_max,
                     "grid_per_unit": grid_per_unit}
            # the profile's radial range is [0.05, 0.95 t_end], t_end <= t_max
            t_range = [lo, 0.9 * t_max]
            if flaw == "t_range":
                t_range = [0.02, 0.5] if lo < 0.2 else [lo, 1.2 * t_max]
            elif flaw:
                solve[flaw] = {"epsilon": 0.01, "b0": 1e-5,
                               "grid_per_unit": 30}[flaw]
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
    refused series start (epsilon too large or b0 too small), too coarse a
    grid, or a value of the wrong type under one key."""

    def test_exit_codes_and_artifacts(self, tmp_path, capsys):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        runs = itertools.count()
        keys = ("k", "m", "lambda", "b0", "phi2", "t_max", "grid_per_unit")

        @hypothesis.settings(max_examples=30, deadline=None, database=None)
        @hypothesis.given(
            k=st.integers(0, 3), m=st.integers(1, 4),
            lam=st.floats(-1.0, 1.0), b0=st.floats(0.3, 3.0),
            phi2=st.floats(-1.0, 0.5), t_max=st.floats(0.2, 3.0),
            grid_per_unit=st.integers(40, 200),
            flaw=st.sampled_from([None, None, None, "epsilon", "b0",
                                  "grid_per_unit", "type"]),
            coarse=st.integers(1, 39), key=st.sampled_from(keys),
            wrong=st.sampled_from(["1", True, None, [1]]))
        def run(k, m, lam, b0, phi2, t_max, grid_per_unit, flaw, coarse,
                key, wrong):
            solve = dict(zip(keys, (k, m, lam, b0, phi2, t_max,
                                    grid_per_unit)))
            if flaw == "type":
                solve[key] = wrong
            elif flaw:
                solve[flaw] = {"epsilon": 0.01, "b0": 1e-5,
                               "grid_per_unit": coarse}[flaw]
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
    point, and a parallel sweep writes the serial sweep's bytes.  The
    grids hold refused starts (b0 = 1e-5 on a sphere fiber) among their
    rows; an example may carry one flaw: a grid below 40 rows per unit or
    a non-boolean ``parallel`` (config errors), or an epsilon that every
    row's series refuses (an error row each)."""

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
            t_max=st.floats(0.2, 2.0), grid_per_unit=st.integers(40, 200),
            parallel=st.booleans(), workers=st.sampled_from([None, 1, 2]),
            flaw=st.sampled_from([None, None, None, "grid_per_unit",
                                  "parallel", "epsilon"]))
        def run(ks, ms, lam, b0s, t_max, grid_per_unit, parallel, workers,
                flaw):
            block = {"k": ks, "m": ms, "lambda": [lam], "b0": b0s,
                     "t_max": t_max, "grid_per_unit": grid_per_unit,
                     "parallel": parallel}
            if workers is not None:
                block["workers"] = workers
            if flaw:
                block[flaw] = {"grid_per_unit": 39, "parallel": "false",
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
                assert flaw in ("grid_per_unit", "parallel")
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


class TestCertifyFuzz:
    """Mutated schema-3 profile files and random certify keys within the
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
                        "grid_per_unit": lambda v: 10 ** 6 * v,
                        "t_max": lambda v: 0.5 * v}

        @hypothesis.settings(max_examples=40, deadline=None, database=None)
        @hypothesis.given(
            label=st.sampled_from(sorted(profiles)),
            edit=st.sampled_from([None, "cell", "drop", "repeat", "swap",
                                  "scale", "cut", "schema", "params",
                                  "status", "end_time"]),
            row=st.integers(0, 10 ** 6), column=st.integers(0, 10 ** 6),
            token=st.sampled_from(["nan", "inf", "-0", "1e308", "x", "",
                                   "0", "-1"]),
            key=st.sampled_from(sorted(params_edits)),
            status=st.sampled_from(["blowup", "hit_b_zero", "done"]),
            end_time=st.sampled_from(["nan", "0", "1e300", "1.999", "x"]),
            schema=st.sampled_from(["1", "2", "4", "three"]),
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
                rows = [",".join(f"{float(x) * (1.05 if c == j else 1):.17g}"
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
                assert code == 0 or tolerance == 1e-8

        run()

