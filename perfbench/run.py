#!/usr/bin/env python3
"""ptbound benchmark: times the CLI commands people run and checks every output.

    python3 perfbench/run.py --workload {spectra,convergence,phase-diagram}
                             --seed N --seconds S --trace {0,1}

Run from the repository root. It imports the package from ./src, calls
`ptbound.cli.main(argv)` in-process, repeats the workload's round of
commands for about S seconds and prints one JSON object as its last line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1. See
perfbench/README.md.
"""

import os
import sys

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import time
import traceback

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(HERE, "traces")

SETUP_SAMPLES = 7
MIN_ROUNDS = 2


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["spectra", "convergence", "phase-diagram"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def import_program():
    """Import ptbound from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "ptbound", "__init__.py")):
        sys.exit(f"error: no ptbound sources under {SRC}")
    sys.path.insert(0, SRC)
    from ptbound import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: ptbound was imported from {cli.__file__}, not {SRC}")
    return cli


def setup_seconds() -> tuple[float, float]:
    """Median over fresh processes of importing numpy and ptbound plus the
    warm-up calls: (corrected to the reference host speed, as measured)."""
    corrected, raw = [], []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py")],
                             cwd=ROOT, capture_output=True, text=True, timeout=120,
                             check=True).stdout
        seconds, kernel = map(float, out.split()[-2:])
        raw.append(seconds)
        corrected.append(seconds * calibration.REFERENCE_S / kernel)
    return statistics.median(corrected), statistics.median(raw)


class Runner:
    """Runs rounds of a workload's operations and keeps their verdicts."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.argvs = [None] * len(ops)
        self.bodies = [None] * len(ops)  # output of the first round
        self.verdicts = [None] * len(ops)  # None = passed, else the reason
        self.results: dict = {}
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            rc = self.cli.main(argv)
            dt = time.perf_counter() - t0
        return rc, out.getvalue(), dt

    def _check(self, i, rc, body):
        op = self.ops[i]
        try:
            op.check(rc, body, self.results)
            return None
        except Exception as exc:  # a check that crashes is a failed check
            return f"{type(exc).__name__}: {exc}"

    def round(self) -> tuple[list[float], list[float]]:
        """One round; returns each operation's measured time and its time
        corrected to the reference host speed (calibration.py)."""
        raw, corrected = [], []
        gc.collect()
        kernel_before = calibration.kernel_seconds()
        for i, op in enumerate(self.ops):
            self.attempted += 1
            if self.argvs[i] is None:
                try:
                    self.argvs[i] = op.argv(self.results) if callable(op.argv) else op.argv
                except Exception as exc:
                    self.argvs[i] = ["--unresolved--"]
                    self.verdicts[i] = f"argv: {type(exc).__name__}: {exc}"
            try:
                rc, out, dt = self._call(self.argvs[i])
            except Exception:
                rc, out, dt = -1, traceback.format_exc(), 0.0
            gc.collect()
            kernel_after = calibration.kernel_seconds()
            raw.append(dt)
            corrected.append(dt * calibration.REFERENCE_S
                             / (0.5 * (kernel_before + kernel_after)))
            kernel_before = kernel_after
            body = _body(out)
            if self.bodies[i] is None:
                self.bodies[i] = (rc, body)
                if self.verdicts[i] is None:
                    self.verdicts[i] = self._check(i, rc, body)
                verdict = self.verdicts[i]
            elif self.bodies[i] == (rc, body):
                verdict = self.verdicts[i]
            else:
                verdict = "output differs from the first round: " + (
                    self._check(i, rc, body) or "passes its check")
            if verdict is not None:
                if op.known_fault:
                    self.failed += 1
                else:
                    self.correct = False
                    print(f"FAIL {op.name}: {verdict}", file=sys.stderr)
        return raw, corrected


def _body(text: str) -> str:
    """Output without its timestamp line, which differs on every call."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# generated="))


def sum_of_medians(rounds: list[list[float]]) -> float:
    return sum(statistics.median(col) for col in zip(*rounds))


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    import workloads
    import tracing

    workloads.warm_up(cli)
    runner = Runner(cli, workloads.WORKLOADS[args.workload](args.seed))
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, layer_rounds, last_spans = [], [], [], []

    # Peak memory is read after the first round: later rounds only repeat its
    # calls, while heap fragmentation would add a few MB at random.
    peak_mb = None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if tracer is not None and len(plain) > len(traced):
            tracer.install()
            try:
                raw, corrected = runner.round()
            finally:
                tracer.uninstall()
            traced.append((raw, corrected))
            last_spans = tracer.take()
            layer_rounds.append(tracing.layer_metrics(
                last_spans, [c / r if r else 1.0 for r, c in zip(raw, corrected)]))
        else:
            plain.append(runner.round())
        if peak_mb is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        round_s = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        if len(plain) + len(traced) >= MIN_ROUNDS and elapsed + round_s > args.seconds \
                and (tracer is None or traced):
            break

    raw_wall = sum_of_medians([r for r, _ in plain])
    wall = sum_of_medians([c for _, c in plain])
    note = (f"{args.workload} seed {args.seed}: {len(plain)} untraced, "
            f"{len(traced)} traced rounds; wall {raw_wall:.4f} s as measured, "
            f"{wall:.4f} s at reference host speed")
    if tracer is None:
        setup, raw_setup = setup_seconds()
        metrics = {"wall_s": (wall, "s"), "setup_s": (setup, "s"),
                   "peak_mem_mb": (peak_mb, "MB")}
        note += f"; setup {raw_setup:.4f} s as measured, {setup:.4f} s corrected"
    else:
        metrics = {name: (statistics.median(r[name] for r in layer_rounds), unit)
                   for name, unit in tracing.PER_LAYER}
        metrics["trace.overhead_s"] = (
            sum_of_medians([c for _, c in traced]) - wall, "s")
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracing.write_spans(
            os.path.join(TRACE_DIR, f"{args.workload}.jsonl"),
            {"workload": args.workload, "seed": args.seed,
             "round": len(plain) + len(traced) - 1, "nproc": os.cpu_count(),
             "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
            last_spans)
    print(note, file=sys.stderr)

    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
