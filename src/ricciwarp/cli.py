"""Command-line front end: solve / certify / quotient / sweep.

Workflows are driven by a JSON config with one block per subcommand plus
``out_dir`` and ``schema_version``.  Unknown keys are rejected, and the
numbers of the solve, certify and sweep blocks are type-checked: integer
keys take integers, real keys finite numbers, and booleans are neither.  Outputs
are written atomically; CSV numbers carry 17 significant digits and JSON
reports embed the tool version and a hash of the config, so identical
configs give byte-identical outputs.

Exit codes: 0 success/pass, 2 validation or certification failure,
3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .patches import GeometryError, cartesian_profile_base, radial_field
from .quotient import certify_quotient, make_cyclic_action
from .shooting import (
    AnsatzParams,
    IntegrationError,
    SolitonProfile,
    certify_profile,
    params_grid,
    shoot,
    sweep,
)

CONFIG_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigError(Exception):
    pass


_TOP_KEYS = {"schema_version", "solve", "certify", "quotient", "sweep", "out_dir"}
_SOLVE_KEYS = {"k", "m", "lambda", "b0", "phi2", "epsilon", "t_max",
               "rtol", "atol", "grid_per_unit"}
_CERTIFY_KEYS = {"profile", "tolerance", "h", "n_base", "n_product", "n_fiber",
                 "t_window", "seed"}
_QUOTIENT_KEYS = {"p", "k", "m", "kind", "n_samples", "seed", "profile",
                  "tolerance", "freeness_tolerance", "t_range"}
_SWEEP_KEYS = {"k", "m", "lambda", "b0", "phi2", "epsilon", "t_max",
               "rtol", "atol", "grid_per_unit", "parallel", "workers"}


# numeric keys of the solve, certify and sweep blocks; in sweep, the values
# of k, m, lambda and b0 are lists whose elements are checked
_INT_KEYS = {"k", "m", "grid_per_unit", "n_base", "n_product", "n_fiber",
             "workers", "seed"}
_REAL_KEYS = {"lambda", "b0", "phi2", "epsilon", "t_max", "rtol", "atol",
              "h", "tolerance"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _check_numbers(block: dict, where: str):
    """Reject numeric values of the wrong type: bools, non-integers where an
    integer is needed, and anything but a finite number where a real is."""
    for name, value in block.items():
        if name not in _INT_KEYS and name not in _REAL_KEYS:
            continue
        values = value if where == "sweep" and isinstance(value, list) else [value]
        is_valid, kind = ((_is_int, "an integer") if name in _INT_KEYS
                          else (_is_real, "a finite number"))
        for v in values:
            if not is_valid(v):
                raise ConfigError(f"'{name}' in '{where}' must be {kind}, got {v!r}")


def _check_keys(block: dict, allowed: set, where: str):
    if not isinstance(block, dict):
        raise ConfigError(f"config section '{where}' must be an object")
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in '{where}': {sorted(unknown)}")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise OSError(f"config is not valid JSON: {exc}") from exc
    _check_keys(cfg, _TOP_KEYS, "top level")
    version = cfg.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {version!r}")
    for name, keys in (("solve", _SOLVE_KEYS), ("certify", _CERTIFY_KEYS),
                       ("quotient", _QUOTIENT_KEYS), ("sweep", _SWEEP_KEYS)):
        if name in cfg:
            _check_keys(cfg[name], keys, name)
            if name != "quotient":
                _check_numbers(cfg[name], name)
    certify = cfg.get("certify", {})
    _positive(certify, "h", "tolerance", "n_base", "n_product", "n_fiber")
    _positive(cfg.get("sweep", {}), "workers")
    if certify.get("seed", 0) < 0:
        raise ConfigError("'seed' must be nonnegative")
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _jsonable(obj):
    """Replace non-finite floats by None so reports stay strict JSON."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _dump_json(doc: dict) -> str:
    return json.dumps(_jsonable(doc), indent=2, sort_keys=True) + "\n"


def _positive(block: dict, *names):
    for name in names:
        if name in block and not (isinstance(block[name], (int, float))
                                  and block[name] > 0):
            raise ConfigError(f"'{name}' must be a positive number")


def _params_from_block(block: dict) -> AnsatzParams:
    for req in ("k", "m", "lambda", "b0"):
        if req not in block:
            raise ConfigError(f"solve block is missing '{req}'")
    _positive(block, "b0", "epsilon", "t_max", "rtol", "atol")
    kwargs = {
        "k": block["k"], "m": block["m"], "lam": block["lambda"],
        "b0": block["b0"],
    }
    for src, dst in (("phi2", "phi2"), ("epsilon", "epsilon"),
                     ("t_max", "t_max"), ("rtol", "rtol"), ("atol", "atol"),
                     ("grid_per_unit", "grid_per_unit")):
        if src in block:
            kwargs[dst] = block[src]
    try:
        return AnsatzParams(**kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _summary(profile: SolitonProfile, cfg: dict) -> dict:
    interior = slice(2, -2) if profile.t.size > 8 else slice(None)
    res_max = {
        "tt": float(np.nanmax(np.abs(profile.res_tt[interior]))),
        "sk": float(np.nanmax(np.abs(profile.res_sk[interior])))
              if profile.params.k >= 1 else float("nan"),
        "sm": float(np.nanmax(np.abs(profile.res_sm[interior]))),
    }
    return {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "tool_version": __version__,
        "config_hash": config_hash(cfg),
        "classification": profile.classification,
        "status": profile.status,
        "lifetime": profile.end_time,
        "mu_mean": profile.mu_mean,
        "mu_spread": profile.mu_spread,
        "reduced_equation_residual_max": res_max,
    }


def cmd_solve(cfg: dict, out_dir: str) -> int:
    if "solve" not in cfg:
        raise ConfigError("config has no 'solve' block")
    params = _params_from_block(cfg["solve"])
    try:
        profile = shoot(params)
    except IntegrationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "profile.csv"), profile.to_csv())
    _atomic_write(os.path.join(out_dir, "solve_summary.json"),
                  _dump_json(_summary(profile, cfg)))
    print(f"solve: status={profile.status} lifetime={profile.end_time:g} "
          f"mu={profile.mu_mean:.9g} ({profile.classification})")
    return EXIT_OK


def _load_profile_for(cfg: dict, block: dict) -> SolitonProfile:
    if "profile" in block:
        path = block["profile"]
        if not os.path.exists(path):
            raise OSError(f"profile file not found: {path}")
        try:
            return SolitonProfile.from_csv(path)
        except (ValueError, OSError) as exc:
            raise OSError(f"ill-formed profile file {path}: {exc}") from exc
    if "solve" in cfg:
        return shoot(_params_from_block(cfg["solve"]))
    raise ConfigError("no 'profile' path given and no 'solve' block to run")


def cmd_certify(cfg: dict, out_dir: str, tolerance=None, seed=None) -> int:
    block = cfg.get("certify", {})
    profile = _load_profile_for(cfg, block)
    kwargs = {}
    if "tolerance" in block:
        kwargs["tolerance"] = block["tolerance"]
    if tolerance is not None:
        kwargs["tolerance"] = tolerance
    if "h" in block:
        kwargs["h"] = block["h"]
    if "t_window" in block:
        kwargs["t_window"] = tuple(block["t_window"])
    for name in ("n_base", "n_product", "n_fiber"):
        if name in block:
            kwargs[name] = block[name]
    if "seed" in block:
        kwargs["seed"] = block["seed"]
    if seed is not None:
        kwargs["seed"] = seed
    if "tolerance" in kwargs and kwargs["tolerance"] <= 0:
        raise ConfigError("'tolerance' must be positive")
    try:
        report = certify_profile(profile, **kwargs)
    except IntegrationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    doc = report.to_dict()
    doc["tool_version"] = __version__
    doc["config_hash"] = config_hash(cfg)
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "certification.json"),
                  _dump_json(doc))
    print(f"certify: {doc['verdict']} "
          + " ".join(f"{k}={v['residual']:.3e}" for k, v in doc["checks"].items()))
    return EXIT_OK if report.verdict else EXIT_FAIL


def cmd_quotient(cfg: dict, out_dir: str, tolerance=None, seed=None) -> int:
    if "quotient" not in cfg:
        raise ConfigError("config has no 'quotient' block")
    block = cfg["quotient"]
    for req in ("p", "k", "m", "kind"):
        if req not in block:
            raise ConfigError(f"quotient block is missing '{req}'")
    try:
        action = make_cyclic_action(
            p=block["p"], k=block["k"], m=block["m"], kind=block["kind"],
            n_samples=block.get("n_samples", 64),
            seed=seed if seed is not None else block.get("seed", 0),
            t_range=tuple(block.get("t_range", (0.5, 2.0))))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    profile = _load_profile_for(cfg, block)
    if profile.params.k != block["k"] or profile.params.m != block["m"]:
        raise ConfigError(
            f"action dimensions (k={block['k']}, m={block['m']}) do not match "
            f"the profile (k={profile.params.k}, m={profile.params.m})")
    a_s, b_s, phi_s = profile.interpolants()
    t_lo = max(float(profile.t[0]) * 1.1, 0.05)
    t_hi = float(profile.t[-1]) * 0.95
    base = cartesian_profile_base(
        (lambda t: float(a_s(t))) if profile.params.k >= 1 else (lambda t: 1.0),
        profile.params.k, (t_lo, t_hi), label="quotient-base")
    f = radial_field(lambda t: float(b_s(t)), "warping")
    phi = radial_field(lambda t: float(phi_s(t)), "potential")

    tol = tolerance if tolerance is not None else block.get("tolerance", 1e-10)
    if tol <= 0:
        raise ConfigError("'tolerance' must be positive")
    cert = certify_quotient(action, base, f, phi, tolerance=tol,
                            freeness_tolerance=block.get("freeness_tolerance", 1e-6))
    doc = cert.to_dict()
    doc["tool_version"] = __version__
    doc["config_hash"] = config_hash(cfg)
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "quotient_certificate.json"),
                  _dump_json(doc))
    print(f"quotient: {doc['verdict']} freeness_margin={cert.freeness_margin:.6g}")
    return EXIT_OK if cert.verdict else EXIT_FAIL


_SWEEP_HEADER = ("k", "m", "lambda", "b0", "status", "lifetime",
                 "mu_mean", "mu_spread", "exp_a", "exp_b")


def cmd_sweep(cfg: dict, out_dir: str) -> int:
    if "sweep" not in cfg:
        raise ConfigError("config has no 'sweep' block")
    block = cfg["sweep"]
    for req in ("k", "m", "lambda", "b0"):
        if req not in block or not isinstance(block[req], list):
            raise ConfigError(f"sweep block needs a list under '{req}'")
    common = {}
    for src, dst in (("phi2", "phi2"), ("epsilon", "epsilon"), ("t_max", "t_max"),
                     ("rtol", "rtol"), ("atol", "atol"),
                     ("grid_per_unit", "grid_per_unit")):
        if src in block:
            common[dst] = block[src]
    try:
        grid = params_grid(block["k"], block["m"], block["lambda"], block["b0"],
                           **common)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    rows = sweep(grid, parallel=bool(block.get("parallel", False)),
                 workers=block.get("workers"))
    lines = [f"# schema_version={CONFIG_SCHEMA_VERSION}",
             ",".join(_SWEEP_HEADER)]
    for r in rows:
        lines.append(",".join([
            str(r.k), str(r.m), f"{r.lam:.17g}", f"{r.b0:.17g}", r.status,
            f"{r.lifetime:.17g}", f"{r.mu_mean:.17g}", f"{r.mu_spread:.17g}",
            f"{r.exp_a:.17g}", f"{r.exp_b:.17g}"]))
    os.makedirs(out_dir, exist_ok=True)
    _atomic_write(os.path.join(out_dir, "sweep.csv"), "\n".join(lines) + "\n")
    print(f"sweep: {len(rows)} rows")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ricciwarp",
        description="Construct and certify warped gradient Ricci solitons.")
    parser.add_argument("command", choices=["solve", "certify", "quotient", "sweep"])
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="certification tolerance override")
    parser.add_argument("--seed", type=int, default=None,
                        help="sampling seed override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_FAIL

    out_dir = args.out or cfg.get("out_dir", "out")
    if not isinstance(out_dir, str) or not out_dir:
        print("config error: 'out_dir' must be a non-empty string", file=sys.stderr)
        return EXIT_FAIL
    try:
        if args.command == "solve":
            return cmd_solve(cfg, out_dir)
        if args.command == "certify":
            return cmd_certify(cfg, out_dir, args.tolerance, args.seed)
        if args.command == "quotient":
            return cmd_quotient(cfg, out_dir, args.tolerance, args.seed)
        return cmd_sweep(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except IntegrationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GeometryError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
