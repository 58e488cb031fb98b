"""One workload process: set-up, then a timed or a traced run.

Started by ``run.py``; not meant to be run by hand.  The process imports
ricciwarp from the checkout's ``src/``, writes the workload's inputs and
reference outputs, prints ``READY <speed factor>`` (the end of set-up)
and then:

* ``--phase setup``: exits;
* ``--phase measure``: runs whole rounds of the workload's ops back to
  back (one closed-loop client) until ``--seconds`` have passed, with no
  tracing, and prints the end-to-end figures as one JSON line;
* ``--phase trace``: runs a fixed number of rounds untraced, the same
  rounds traced, and prints the per-layer metrics as one JSON line.
  Fixed round counts keep every counter exactly repeatable.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

import calibration
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_ROUNDS = 3
TAIL_BEYOND = 10  # samples beyond the reported tail percentile


def _import_cli():
    sys.path.insert(0, SRC)
    import ricciwarp.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ricciwarp was imported from {cli.__file__}, "
                          f"not from {SRC}")
    return cli


class Runner:
    """Runs ops through ``ricciwarp.cli.main`` and checks their outputs."""

    def __init__(self, cli):
        self.cli = cli
        self.devnull = open(os.devnull, "w")
        self.attempted = 0
        self.failures: list[str] = []

    def close(self):
        self.devnull.close()

    def run_cli(self, argv) -> int:
        # looked up on every call so that the tracer's wrapper is used
        with contextlib.redirect_stdout(self.devnull):
            return self.cli.main(argv)

    def run(self, op, config=None, tracer=None):
        """Run one op; returns ``(latency_s, passed, outputs)``."""
        for name in op.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(op.out_dir, name))
        span = tracer.open("op", (op.command, op.label)) if tracer else None
        start = time.perf_counter()
        try:
            rc = self.run_cli(op.argv(config))
        except Exception:  # a traceback is a failed op, not a dead benchmark
            rc = None
            reason = traceback.format_exc(limit=3)
        latency = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
        outputs = {}
        if rc is not None:
            try:
                outputs = op.read_outputs()
                reason = op.check(rc, outputs)
            except (OSError, ValueError, KeyError) as exc:
                reason = f"unreadable output: {exc!r}"
            if reason is None and op.reference and outputs != op.reference:
                reason = "output bytes differ from the reference"
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{op.command} {op.label}: {reason}")
        return latency, reason is None, outputs

    def references(self, ops):
        """Write each op's reference outputs.

        An op with a ``reference_config`` (the serial twin of a parallel
        sweep) gets its reference from that config; any other op is run
        once and its outputs become the reference.
        """
        for op in ops:
            if op.reference_config:
                self.run_cli(op.argv(op.reference_config))
                op.reference = op.read_outputs()
            else:
                op.reference = self.run(op)[2]


def _tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(runner, ops, seconds: float) -> dict:
    """Whole rounds (one op of every class) until ``seconds`` have passed.

    Latencies are scaled to the reference speed (see calibration.py); the
    wall-clock figures are reported beside them.  ``op_p50_ms`` is the
    median over classes of each class's median latency: with an even
    number of classes the median of all ops would fall between two classes
    and follow the extremes of both.
    """
    clock = calibration.ScaledClock(all_cpus=any(op.parallel for op in ops))
    wall, scaled, items = [], [], 0
    by_class = {op.label: [] for op in ops}
    deadline = time.perf_counter() + seconds
    while True:
        for op in ops:
            latency, passed, _ = runner.run(op)
            wall.append(latency)
            scaled.append(clock.scale(latency))
            by_class[op.label].append(scaled[-1])
            items += op.items if passed else 0
        if time.perf_counter() >= deadline:
            break
    p50 = statistics.median(statistics.median(v) for v in by_class.values())
    tail, pct = _tail(scaled)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "metrics": {
            "throughput_per_s": (items / sum(scaled), "1/s"),
            "op_p50_ms": (1e3 * p50, "ms"),
            "op_tail_ms": (1e3 * tail, "ms"),
            "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
        },
        "info": {"ops": len(scaled), "tail_percentile": pct,
                 "wall_throughput_per_s": items / sum(wall),
                 "wall_p50_ms": 1e3 * statistics.median(wall),
                 "wall_tail_ms": 1e3 * _tail(wall)[0]},
    }


def trace(runner, ops, rounds: int, spans_path: str | None) -> dict:
    clock = calibration.ScaledClock(all_cpus=any(op.parallel for op in ops))
    for op in ops:  # warm-up, so that both timed passes start warm
        runner.run(op)
    untraced = 0.0
    for _ in range(rounds):
        for op in ops:
            untraced += clock.scale(runner.run(op)[0])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = 0.0
        output_bytes = 0
        for _ in range(rounds):
            for op in ops:
                latency, _, outputs = runner.run(op, tracer=tracer)
                traced += clock.scale(latency)
                output_bytes += sum(len(b) for b in outputs.values())
        for op in ops:
            if op.reference_config:  # serial replay for parallel efficiency
                span = tracer.open("replay", (op.label, workloads.WORKERS))
                runner.run(op, config=op.reference_config)
                tracer.close(span)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, output_bytes)
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    if spans_path:
        tracer.dump(spans_path)
    return {"metrics": metrics, "info": {"spans": len(tracer.names)}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--phase", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    cli = _import_cli()
    kernel_start = calibration.kernel_s()
    os.makedirs(args.workdir, exist_ok=True)
    runner = Runner(cli)
    try:
        ops = workloads.build(args.workload, args.seed, args.workdir,
                              args.smoke, runner.run_cli)
        runner.references(ops)
        # run.py scales the set-up time to the reference speed
        kernel = 0.5 * (kernel_start + calibration.kernel_s())
        print(f"READY {calibration.REFERENCE_S / kernel!r}", flush=True)
        if args.phase == "setup":
            return 0
        if args.phase == "measure":
            result = measure(runner, ops, args.seconds)
        else:
            result = trace(runner, ops, 1 if args.smoke else TRACE_ROUNDS,
                           args.spans)
    finally:
        runner.close()
    result.update(attempted=runner.attempted, failed=len(runner.failures),
                  failures=runner.failures[:20])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
