"""Benchmark of the four ricciwarp CLI workflows: solve, certify, quotient, sweep.

Usage, from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics.  Set-up (interpreter start,
imports, inputs and reference outputs) is paid once per workload process,
so it is measured apart as ``setup_s``: the time from starting a workload
process to its first timed op, the median over SETUPS processes, the last
of which goes on to the timed run.  ``--trace 1`` runs one traced process
and prints the per-layer metrics.  Times are scaled to the reference
machine speed; see calibration.py and README.md.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs go to a
temporary directory under ``--workdir`` (default ``bench/.work``), which
is removed at the end.  Without ``src/ricciwarp`` in the checkout the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve", "certify", "quotient", "sweep")
SETUPS = 3
TIMEOUT_S = 170.0  # for all workload processes of one run together


class WorkerError(Exception):
    pass


def run_worker(args, phase: str, workdir: str, deadline: float):
    """Start one workload process; returns ``(setup_s, result or None)``."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--phase", phase,
           "--workdir", workdir]
    if args.smoke:
        cmd.append("--smoke")
    if args.spans and phase == "trace":
        cmd += ["--spans", args.spans]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        setup_s = None
        lines = []
        for line in proc.stdout:
            if setup_s is None and line.startswith("READY "):
                # wall time scaled to the reference speed (calibration.py)
                setup_s = (time.perf_counter() - start) * float(line.split()[1])
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or setup_s is None:
        raise WorkerError(f"{phase} process exited with code {code}")
    if phase == "setup":
        return setup_s, None
    if not lines:
        raise WorkerError(f"{phase} process printed no result")
    return setup_s, json.loads(lines[-1])


def summary(name: str, value, unit: str, note: str = "") -> str:
    return f"{name:<48} {value:>14.6g} {unit:<6} {note}".rstrip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", default=os.path.join(HERE, ".work"),
                        help="directory for temporary inputs and outputs")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and two set-ups, for the self-test")
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write the raw spans here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "ricciwarp", "__init__.py")):
        print(f"no ricciwarp sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIMEOUT_S
    os.makedirs(args.workdir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir)
    try:
        if args.trace:
            _, result = run_worker(args, "trace", os.path.join(tmp, "trace"),
                                   deadline)
        else:
            setups = []
            for i in range((2 if args.smoke else SETUPS) - 1):
                setup_s, _ = run_worker(args, "setup",
                                        os.path.join(tmp, f"setup{i}"), deadline)
                setups.append(setup_s)
            setup_s, result = run_worker(args, "measure",
                                         os.path.join(tmp, "measure"), deadline)
            setups.append(setup_s)
            result["metrics"]["setup_s"] = (statistics.median(setups), "s")
    except (WorkerError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not os.listdir(args.workdir):
            os.rmdir(args.workdir)

    attempted, failed = result["attempted"], result["failed"]
    info = result["info"]
    for line in result["failures"]:
        print(f"FAILED {line}")
    for name, (value, unit) in sorted(result["metrics"].items()):
        print(summary(name, value, unit))
    if not args.trace:
        print(summary("fail_ratio", failed / attempted, "ratio",
                      f"({failed} of {attempted} ops)"))
        print(summary("op_tail_ms percentile", info["tail_percentile"], "%",
                      f"({info['ops']} ops)"))
        for name, unit in (("wall_throughput_per_s", "1/s"),
                           ("wall_p50_ms", "ms"), ("wall_tail_ms", "ms")):
            print(summary(name, info[name], unit, "(unscaled wall clock)"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
