"""The four CLI workloads: config classes, seeded inputs and output checks.

Each workload is a fixed mix of config classes, one op per class per
round.  ``--seed`` draws every input: b0 uniformly from [0.9, 1.1] per
class, and the sampling ``seed`` keys of certify and quotient.  Configs
stay fixed for a run, so every repeat of a class must reproduce the
reference output written in setup byte for byte.

Checks use analytic facts, never recorded floats: the first integral of a
profile equals the Einstein constant m - 1 of the unit fiber sphere, the
tampered-lambda cylinder and the axis rotation (which fixes points of the
fiber sphere) must be refused with exit 2, and a parallel sweep must
write the same bytes as the serial reference.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKERS = 2  # sweep pool size; equals the core count of the reference box

# (label, k, m, lambda): steady, higher-dimensional steady, expanding
SOLVE_CLASSES = (("k1m2", 1, 2, 0.0), ("k2m3", 2, 3, 0.0),
                 ("k1m3", 1, 3, -0.1))

QUOTIENT_CLASSES = (  # (label, p, k, m, kind, profile class, free)
    ("antipodal", 2, 1, 2, "antipodal", "k1m2", True),
    ("hopf", 3, 1, 3, "hopf", "k1m3", True),
    ("axis_rotation", 3, 1, 3, "axis_rotation", "k1m3", False),
)

# sweep grids: ks, ms, lambdas, number of b0 values -> 4, 16 and 48 rows
SWEEP_CLASSES = (
    ("rows4", [1], [2], [0.0, -0.1], 2),
    ("rows16", [1], [2, 3], [0.0, -0.1], 4),
    ("rows48", [1, 2], [2, 3], [0.0, -0.1], 6),
)

MU_TOL = 1e-6         # |mu_mean - (m-1)| and mu_spread / (1 + |mu|)
FREENESS_MARGIN = 0.1
TAMPER = 1.05         # lambda factor of the certify control


@dataclass
class Op:
    """One CLI invocation of a config class, with its output check."""

    label: str
    command: str
    config: str
    out_dir: str
    outputs: tuple
    items: int
    check: Callable[[int, dict], str | None]
    reference_config: str | None = None   # produces the reference outputs
    parallel: bool = False                # runs a worker pool
    reference: dict = field(default_factory=dict)

    def argv(self, config=None):
        return [self.command, "--config", config or self.config,
                "--out", self.out_dir]

    def read_outputs(self) -> dict:
        out = {}
        for name in self.outputs:
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                out[name] = fh.read()
        return out


class Inputs:
    """Writes configs under a work directory; draws values from the seed."""

    def __init__(self, workdir: str, seed: int, smoke: bool):
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.smoke = smoke

    def b0(self) -> float:
        return float(self.rng.uniform(0.9, 1.1))

    def sampling_seed(self) -> int:
        return int(self.rng.integers(0, 2 ** 31))

    def config(self, name: str, **blocks) -> str:
        path = os.path.join(self.workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump({"schema_version": 1, **blocks}, fh, sort_keys=True)
        return path

    def out(self, name: str) -> str:
        return os.path.join(self.workdir, "out-" + name)

    def solve_block(self, k, m, lam, b0) -> dict:
        block = {"k": k, "m": m, "lambda": lam, "b0": b0}
        if self.smoke:
            block["t_max"] = 2.0
        return block


def _fail(cond: bool, reason: str):
    return None if cond else reason


def _solve_check(m: int):
    def check(rc, outputs):
        if rc != 0:
            return f"exit {rc}"
        s = json.loads(outputs["solve_summary.json"])
        mu, spread = s["mu_mean"], s["mu_spread"]
        if s["status"] != "completed":
            return f"status {s['status']}"
        if not abs(mu - (m - 1)) <= MU_TOL:
            return f"mu_mean {mu!r} is not m-1 = {m - 1}"
        return _fail(spread / (1.0 + abs(mu)) <= MU_TOL,
                     f"mu_spread {spread!r} too large")
    return check


def _certify_check(genuine: bool):
    def check(rc, outputs):
        doc = json.loads(outputs["certification.json"])
        if not genuine:
            return _fail(rc == 2 and doc["verdict"] == "fail",
                         f"tampered profile not refused (exit {rc})")
        if rc != 0 or doc["verdict"] != "pass":
            return f"exit {rc}, verdict {doc['verdict']}"
        worst = max(c["residual"] for c in doc["checks"].values())
        return _fail(worst <= doc["tolerance"], f"residual {worst!r}")
    return check


def _quotient_check(free: bool):
    def check(rc, outputs):
        doc = json.loads(outputs["quotient_certificate.json"])
        if not free:
            return _fail(rc == 2 and doc["verdict"] == "fail",
                         f"fixed-point action not refused (exit {rc})")
        if rc != 0 or doc["verdict"] != "pass":
            return f"exit {rc}, verdict {doc['verdict']}"
        return _fail(doc["freeness_margin"] > FREENESS_MARGIN,
                     f"freeness_margin {doc['freeness_margin']!r}")
    return check


def _sweep_check(rows: int):
    def check(rc, outputs):
        if rc != 0:
            return f"exit {rc}"
        lines = outputs["sweep.csv"].decode().splitlines()[2:]
        if len(lines) != rows:
            return f"{len(lines)} rows, expected {rows}"
        errors = [ln for ln in lines if ",error:" in ln]
        return _fail(not errors, f"{len(errors)} error rows")
    return check


def _write_profiles(inp: Inputs, run_cli, classes) -> dict:
    """Solve each class once with the CLI; returns label -> profile path."""
    paths = {}
    for label, k, m, lam in classes:
        cfg = inp.config(f"profile-{label}",
                         solve=inp.solve_block(k, m, lam, inp.b0()))
        out = inp.out(f"profile-{label}")
        rc = run_cli(["solve", "--config", cfg, "--out", out])
        if rc != 0:
            raise RuntimeError(f"solving the {label} input profile exited {rc}")
        paths[label] = os.path.join(out, "profile.csv")
    return paths


def _tampered_cylinder(inp: Inputs, run_cli) -> str:
    """A round cylinder profile whose header claims lambda * TAMPER."""
    b0 = inp.b0()
    block = inp.solve_block(0, 2, 1.0 / (b0 * b0), b0)
    cfg = inp.config("profile-cylinder", solve=block)
    out = inp.out("profile-cylinder")
    rc = run_cli(["solve", "--config", cfg, "--out", out])
    if rc != 0:
        raise RuntimeError(f"solving the cylinder profile exited {rc}")
    with open(os.path.join(out, "profile.csv")) as fh:
        lines = fh.read().split("\n")
    params = json.loads(lines[1].split("=", 1)[1])
    params["lam"] *= TAMPER
    lines[1] = "# params=" + json.dumps(params, sort_keys=True)
    path = os.path.join(inp.workdir, "cylinder-tampered.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))
    return path


def build(workload: str, seed: int, workdir: str, smoke: bool, run_cli) -> list:
    """Write the inputs of a workload and return its ops, one per class.

    ``run_cli(argv) -> exit code`` runs the CLI; certify and quotient use
    it to write their input profiles, so this is part of set-up.
    """
    inp = Inputs(workdir, seed, smoke)
    ops = []
    if workload == "solve":
        for label, k, m, lam in SOLVE_CLASSES:
            cfg = inp.config(label, solve=inp.solve_block(k, m, lam, inp.b0()))
            ops.append(Op(label, "solve", cfg, inp.out(label),
                          ("profile.csv", "solve_summary.json"), 1,
                          _solve_check(m)))
    elif workload == "certify":
        profiles = _write_profiles(inp, run_cli, SOLVE_CLASSES)
        profiles["control"] = _tampered_cylinder(inp, run_cli)
        for label, path in profiles.items():
            block = {"profile": path, "seed": inp.sampling_seed()}
            if smoke:
                block.update(n_base=3, n_product=3, n_fiber=2)
            ops.append(Op(label, "certify",
                          inp.config(label, certify=block), inp.out(label),
                          ("certification.json",), 1,
                          _certify_check(label != "control")))
    elif workload == "quotient":
        needed = {c[5] for c in QUOTIENT_CLASSES}
        profiles = _write_profiles(
            inp, run_cli, [c for c in SOLVE_CLASSES if c[0] in needed])
        for label, p, k, m, kind, prof, free in QUOTIENT_CLASSES:
            block = {"p": p, "k": k, "m": m, "kind": kind,
                     "profile": profiles[prof], "seed": inp.sampling_seed()}
            if smoke:
                block.update(n_samples=16, t_range=[0.5, 1.5])
            ops.append(Op(label, "quotient",
                          inp.config(label, quotient=block), inp.out(label),
                          ("quotient_certificate.json",), 1,
                          _quotient_check(free)))
    elif workload == "sweep":
        for label, ks, ms, lams, n_b0 in SWEEP_CLASSES:
            if smoke:
                n_b0 = 1
            b0s = sorted(inp.b0() for _ in range(n_b0))
            block = {"k": ks, "m": ms, "lambda": lams, "b0": b0s,
                     "parallel": True, "workers": WORKERS}
            if smoke:
                block["t_max"] = 2.0
            rows = len(ks) * len(ms) * len(lams) * n_b0
            serial = inp.config(label + "-serial",
                                sweep=dict(block, parallel=False))
            ops.append(Op(label, "sweep", inp.config(label, sweep=block),
                          inp.out(label), ("sweep.csv",), rows,
                          _sweep_check(rows), reference_config=serial,
                          parallel=True))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
