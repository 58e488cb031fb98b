"""Command-line front end: solve / certify / quotient / sweep.

Workflows are driven by a JSON config with one block per subcommand plus
``out_dir`` and ``schema_version``.  One schema table gives each key of
the four blocks its type and constraint: unknown keys are rejected,
integer keys take integers, real keys finite numbers, booleans are
neither, and the sweep's ``parallel`` takes a boolean.  The config is
the only source of a run's settings (``--out`` only moves the outputs),
and ``AnsatzParams`` checks the shooting parameters of a solve or sweep
block and of a loaded profile alike; the integrator bounds every run by
``dop853.MAX_STEPS`` accepted steps.  Sample counts, the sphere
dimensions (of a loaded profile too), the rows and workers of a sweep
and the quotient group order are capped
(``MAX_SAMPLES``, ``MAX_DIMENSION``, ``MAX_SWEEP_ROWS``, ``MAX_WORKERS``,
``MAX_GROUP_ORDER``), and a certification window or step or a quotient
radial range that does not fit the profile is a config error too.
Outputs are written atomically, ``sweep.csv`` numbers with 17 digits and
``profile.csv`` cells as float64 hex words; JSON reports embed the tool
version and a hash of the config: identical configs give identical bytes.

Exit codes: 0 success/pass, 2 validation or certification failure,
3 numeric failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import math
import operator
import os
import sys

from . import __version__
from .patches import GeometryError, _strict_json
from .quotient import T_RANGE, certify_quotient, make_cyclic_action
from .shooting import (
    AnsatzParams,
    SolitonProfile,
    SweepRow,
    _is_int,
    _is_real,
    _summary,
    ambient_geometry,
    ambient_radial_range,
    certify_profile,
    params_grid,
    shoot,
    sweep,
)

# not used here: bench/tracing.py wraps scipy.interpolate.BSpline.__call__
# and looks the module up in sys.modules, so a traced benchmark run fails
# unless the module is there.  It is registered lazily: its code runs on
# the tracer's first attribute access, and never in an untraced run
# (ROADMAP item 1 removes this with that wrapper)
if "scipy.interpolate" not in sys.modules:
    _spec = importlib.util.find_spec("scipy.interpolate")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules["scipy.interpolate"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules["scipy.interpolate"])

CONFIG_SCHEMA_VERSION = 1
# the version of the sweep.csv table; 2 reports log-slopes in place of the
# growth exponents of 1
SWEEP_SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_FAIL = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


# resource bounds (dop853.MAX_STEPS bounds the steps of every profile, shot
# or loaded, and so its samples and their diagnostics): sample counts (the
# certify oracle holds a stencil of values per sample), the sphere
# dimensions k and m of a block and of a loaded profile (the certify charts
# have 1 + k + m coordinates), rows of a sweep, its processes (a sweep may
# start all of them at once), and the quotient group order p (each of the
# p - 1 powers visits every fiber sample; the samples hold the fixed-point
# candidates of the powers whose exponent divides p, so the certificate
# costs about p times the sample count)
MAX_SAMPLES = 1024
MAX_DIMENSION = 6
MAX_SWEEP_ROWS = 4096
MAX_WORKERS = 64
MAX_GROUP_ORDER = 256


class ConfigError(Exception):
    pass


# value types: integers, finite reals (booleans are neither), strings,
# booleans, and None for a value taken as it is
_INT, _REAL, _STR, _BOOL = ("an integer", "a finite number", "a string",
                            "a boolean")
# the schema: block -> key -> (type, constraint), the constraint one of
# None, "positive", "nonnegative" and "pair" (a list of two of the type)
_ANSATZ = {
    "k": (_INT, "nonnegative"), "m": (_INT, "positive"),
    "lambda": (_REAL, None), "b0": (_REAL, "positive"), "phi2": (_REAL, None),
    "epsilon": (_REAL, "positive"), "t_max": (_REAL, "positive"),
    "tol": (_REAL, "positive"),
}
_SCHEMA = {
    "solve": _ANSATZ,
    "certify": {
        "profile": (_STR, None), "tolerance": (_REAL, "positive"),
        "h": (_REAL, "positive"), "n_base": (_INT, "positive"),
        "n_product": (_INT, "positive"), "n_fiber": (_INT, "positive"),
        "t_window": (_REAL, "pair"), "seed": (_INT, "nonnegative"),
    },
    "quotient": {
        "p": (_INT, "positive"), "k": (_INT, "nonnegative"),
        "m": (_INT, "positive"), "kind": (_STR, None),
        "n_samples": (_INT, "nonnegative"), "seed": (_INT, "nonnegative"),
        "profile": (_STR, None), "tolerance": (_REAL, "positive"),
        "t_range": (_REAL, "pair"),
    },
    "sweep": {**_ANSATZ, "parallel": (_BOOL, None),
              "workers": (_INT, "positive")},
}
# key -> the largest value it takes
_CAPS = {**dict.fromkeys(("n_base", "n_product", "n_fiber", "n_samples"),
                         MAX_SAMPLES),
         "k": MAX_DIMENSION, "m": MAX_DIMENSION, "workers": MAX_WORKERS,
         "p": MAX_GROUP_ORDER}
_TOP = dict.fromkeys(("schema_version", "out_dir", *_SCHEMA), (None, None))
# the shooting datum: the keys that a solve block must hold, and the lists
# of a sweep, whose grid it runs, each element checked by the key's row
_DATUM = ("k", "m", "lambda", "b0")


_IS = {
    _INT: _is_int,
    _REAL: _is_real,
    _STR: lambda v: isinstance(v, str),
    _BOOL: lambda v: isinstance(v, bool),
    None: lambda v: True,
}


def _check_block(block, schema: dict, where: str):
    """Reject unknown keys and values of the wrong type or out of range."""
    if not isinstance(block, dict):
        raise ConfigError(f"config section '{where}' must be an object")
    unknown = set(block) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in '{where}': {sorted(unknown)}")
    for name, value in block.items():
        kind, rule = schema[name]
        values = [value]
        if rule == "pair" or (where == "sweep" and name in _DATUM):
            if not isinstance(value, list) or (rule == "pair" and len(value) != 2):
                raise ConfigError(
                    f"'{name}' in '{where}' must be a list"
                    + (" of two numbers" if rule == "pair" else "")
                    + f", got {value!r}")
            values = value
        for v in values:
            if not _IS[kind](v):
                raise ConfigError(f"'{name}' in '{where}' must be {kind}, got {v!r}")
            if rule in ("positive", "nonnegative") and not (
                    v > 0 if rule == "positive" else v >= 0):
                raise ConfigError(f"'{name}' in '{where}' must be {rule}, got {v!r}")
            if name in _CAPS and v > _CAPS[name]:
                raise ConfigError(f"'{name}' in '{where}' must be at most "
                                  f"{_CAPS[name]}, got {v!r}")


def _ansatz_kwargs(block: dict) -> dict:
    """The AnsatzParams keywords of a solve or sweep block; only 'lambda'
    is renamed."""
    return {("lam" if key == "lambda" else key): value
            for key, value in block.items() if key in _ANSATZ}


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError: bad JSON, text that is not UTF-8 or an integer past
        # Python's digit limit; RecursionError: arrays or objects nested
        # past the decoder's depth
        raise OSError(f"config is not valid JSON: {exc}") from exc
    _check_block(cfg, _TOP, "top level")
    version = cfg.get("schema_version")
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {version!r}")
    for name, schema in _SCHEMA.items():
        if name in cfg:
            _check_block(cfg[name], schema, name)
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _write(out_dir: str, name: str, text: str):
    """Write ``out_dir/name`` atomically."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path + ".tmp", "w") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)


def _dump_json(doc: dict, cfg: dict) -> str:
    """A report as strict JSON, with the tool version and config hash."""
    doc = {**doc, "tool_version": __version__, "config_hash": config_hash(cfg)}
    return _strict_json(doc) + "\n"


def _block(cfg: dict, name: str, required) -> dict:
    """The config's ``name`` block; a config error unless it is there and
    holds the keys ``required``."""
    if name not in cfg:
        raise ConfigError(f"config has no '{name}' block")
    block = cfg[name]
    for key in required:
        if key not in block:
            raise ConfigError(f"{name} block is missing '{key}'")
    return block


def _shoot(cfg: dict) -> SolitonProfile:
    """The profile of the config's solve block; parameters that ``shoot``
    refuses (``ValueError``) are a config error."""
    block = _block(cfg, "solve", _DATUM)
    try:
        return shoot(AnsatzParams(**_ansatz_kwargs(block)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_solve(cfg: dict, out_dir: str) -> int:
    profile = _shoot(cfg)
    # the summary derives the diagnostics, which may fail: nothing is
    # written until it is made
    summary = _dump_json(_summary(profile), cfg)
    _write(out_dir, "profile.csv", profile.to_csv())
    _write(out_dir, "solve_summary.json", summary)
    print(f"solve: status={profile.status} lifetime={profile.end_time:g} "
          f"mu={profile.mu_mean:.9g} ({profile.classification})")
    return EXIT_OK


def _load_profile_for(cfg: dict, block: dict) -> SolitonProfile:
    if "profile" in block:
        path = block["profile"]
        if not os.path.exists(path):
            raise OSError(f"profile file not found: {path}")
        try:
            profile = SolitonProfile.from_csv(path)
            k, m = profile.params.k, profile.params.m
            if max(k, m) > MAX_DIMENSION:
                raise ValueError(f"sphere dimensions k = {k}, m = {m}: at "
                                 f"most {MAX_DIMENSION}")
        except (ValueError, OSError) as exc:
            raise OSError(f"ill-formed profile file {path}: {exc}") from exc
        return profile
    if "solve" in cfg:
        return _shoot(cfg)
    raise ConfigError("no 'profile' path given and no 'solve' block to run")


def cmd_certify(cfg: dict, out_dir: str) -> int:
    block = cfg.get("certify", {})
    profile = _load_profile_for(cfg, block)
    kwargs = {key: value for key, value in block.items() if key != "profile"}
    try:
        report = certify_profile(profile, **kwargs)
    except ValueError as exc:
        # the window and the step are checked against the profile and its
        # samples there; a refusal is an error of the block's values
        raise ConfigError(str(exc)) from exc
    doc = report.to_dict()
    _write(out_dir, "certification.json", _dump_json(doc, cfg))
    print(f"certify: {doc['verdict']} "
          + " ".join(f"{k}={v['residual']:.3e}" for k, v in doc["checks"].items()))
    return EXIT_OK if report.verdict else EXIT_FAIL


def cmd_quotient(cfg: dict, out_dir: str) -> int:
    block = _block(cfg, "quotient", ("p", "k", "m", "kind"))
    t_range = tuple(block.get("t_range", T_RANGE))
    try:
        action = make_cyclic_action(
            p=block["p"], k=block["k"], m=block["m"], kind=block["kind"],
            t_range=t_range,
            **{key: block[key] for key in ("n_samples", "seed")
               if key in block})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    profile = _load_profile_for(cfg, block)
    if profile.params.k != block["k"] or profile.params.m != block["m"]:
        raise ConfigError(
            f"action dimensions (k={block['k']}, m={block['m']}) do not match "
            f"the profile (k={profile.params.k}, m={profile.params.m})")
    valid = ambient_radial_range(profile)
    if not valid[0] <= t_range[0] < t_range[1] <= valid[1]:
        raise ConfigError(
            f"quotient t_range [{t_range[0]!r}, {t_range[1]!r}] is not an "
            f"interval inside the profile's radial range "
            f"[{valid[0]!r}, {valid[1]!r}]")
    base, f, phi = ambient_geometry(profile)

    cert = certify_quotient(action, base, f, phi, **{
        key: block[key] for key in ("tolerance",) if key in block})
    doc = cert.to_dict()
    _write(out_dir, "quotient_certificate.json", _dump_json(doc, cfg))
    print(f"quotient: {doc['verdict']} freeness_margin={cert.freeness_margin:.6g}")
    return EXIT_OK if cert.verdict else EXIT_FAIL


_SWEEP_FIELDS = tuple(f.name for f in dataclasses.fields(SweepRow))
_SWEEP_HEADER = tuple("lambda" if name == "lam" else name
                      for name in _SWEEP_FIELDS)
# a row's values in the header's order; dataclasses.astuple would deep-copy
_sweep_values = operator.attrgetter(*_SWEEP_FIELDS)


def cmd_sweep(cfg: dict, out_dir: str) -> int:
    block = _block(cfg, "sweep", _DATUM)
    rows = math.prod(len(block[key]) for key in _DATUM)
    if rows > MAX_SWEEP_ROWS:
        raise ConfigError(f"sweep grid too large: {rows} rows, at most "
                          f"{MAX_SWEEP_ROWS}")
    common = _ansatz_kwargs({key: value for key, value in block.items()
                             if key not in _DATUM})
    try:
        grid = params_grid(*(block[key] for key in _DATUM), **common)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = sweep(grid, parallel=block.get("parallel", False),
                 workers=block.get("workers"))
    lines = [f"# schema_version={SWEEP_SCHEMA_VERSION}",
             ",".join(_SWEEP_HEADER)]
    for r in rows:
        # .17g writes the small ints k and m as str does
        lines.append(",".join(v if isinstance(v, str) else f"{v:.17g}"
                              for v in _sweep_values(r)))
    _write(out_dir, "sweep.csv", "\n".join(lines) + "\n")
    print(f"sweep: {len(rows)} rows")
    return EXIT_OK


_COMMANDS = {"solve": cmd_solve, "certify": cmd_certify,
             "quotient": cmd_quotient, "sweep": cmd_sweep}

# built once: main() only parses with it
_PARSER = argparse.ArgumentParser(
    prog="ricciwarp",
    description="Construct and certify warped gradient Ricci solitons.")
_PARSER.add_argument("command", choices=_COMMANDS)
_PARSER.add_argument("--config", required=True, help="path to the JSON config")
_PARSER.add_argument("--out", default=None, help="output directory override")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = cfg.get("out_dir", "out") if args.out is None else args.out
        if not isinstance(out_dir, str) or not out_dir:
            source = "'out_dir'" if args.out is None else "--out"
            raise ConfigError(f"{source} must be a non-empty string")
        return _COMMANDS[args.command](cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except GeometryError as exc:  # integrator failures included
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
