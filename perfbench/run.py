"""Closed-loop benchmark of the qpursuit command line.

    python3 perfbench/run.py --workload {analyze,reach,play} --seed N --seconds S --trace {0,1}

One client in one process sends one command at a time to the public entry
point qpursuit.cli.main(argv), in-process, on JSON inputs generated from the
seed (see workloads.py), and checks every output against a numpy reference.
The package is imported from src/ next to this directory; nothing is built.

--seconds sizes the run: the untraced run times a fixed number of cycles
that took about that long at the seed commit (workloads.NOMINAL_CYCLE_S).
--trace 0 reports the end-to-end metrics of an untraced run, each time
scaled to the reference machine's speed by hostspeed.py; the raw wall-clock
figures are printed on comment lines.  --trace 1
alternates untraced and traced passes over one fixed cycle of commands and
reports per-layer self time and counts from spans.py, plus the tracing
overhead.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# numpy asks the kernel for transparent huge pages on large arrays.  Whether
# it gets them depends on how fragmented memory is at that moment, and on a
# 2-core VM the n=40 controlled-op build then swings between 1.0 s and 1.7 s
# from one minute to the next.  Never asking keeps runs comparable.  Set
# before numpy is imported, here and in the set-up probes, which inherit it.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
# One client, one thread: OpenBLAS would otherwise start a second thread on
# the second core, and on a VM whose cores are shared with other tenants the
# matrix products of reach and play then measure the host's scheduler.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_PROBES = 7
TAIL_BEYOND = 10

# A fresh interpreter that imports the package and runs the warm-up commands;
# it prints the monotonic clock (system wide on Linux) once it is ready.
PROBE = """
import contextlib, io, json, sys, time
sys.path.insert(0, sys.argv[1])
from qpursuit import cli
with open(sys.argv[2], encoding="utf-8") as fh:
    commands = json.load(fh)
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
print(time.monotonic())
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_cli():
    """qpursuit.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "qpursuit" / "__init__.py").is_file():
        raise FileNotFoundError(f"no qpursuit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from qpursuit import cli
    if Path(cli.__file__).resolve().parent != (SRC / "qpursuit").resolve():
        raise ImportError(f"qpursuit was imported from {cli.__file__}, not {SRC}")
    return cli


class Tally:
    """Latencies and outcomes of the commands of one phase."""

    def __init__(self):
        self.latencies = []
        self.failures = []  # (label, reason, wrong_output)

    @property
    def failed(self):
        return len(self.failures)

    @property
    def wrong(self):
        return sum(1 for _, _, wrong in self.failures if wrong)

    def run(self, cli, cmd, tracer=None, command_id=0):
        """One cli.main call; a failure is a non-zero exit, a missing --out or a failed check."""
        if cmd.out and os.path.exists(cmd.out):
            os.unlink(cmd.out)
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.command = command_id
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(list(cmd.argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error is a failed command, not a benchmark crash
                code = "exception"
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - start
        self.latencies.append(elapsed)
        if code != 0:
            reason, wrong = f"exit {code}: {err.getvalue().strip()[-200:]}", False
        elif cmd.out and not os.path.exists(cmd.out):
            reason, wrong = "exit 0 but no --out file written", False
        else:
            try:
                reason = cmd.check(out.getvalue(), cmd.out)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                reason = f"malformed output: {exc!r}"
            wrong = reason is not None
        if reason is not None:
            self.failures.append((cmd.label, reason, wrong))
        if cmd.out and os.path.exists(cmd.out):
            os.unlink(cmd.out)
        return elapsed


def measure_setup(workdir, warm, speed):
    """Seconds from spawning a fresh interpreter until it could send a timed command.

    Returns the medians of the raw and of the host-speed-scaled probes.
    """
    argv_file = os.path.join(workdir, "warmup-argv.json")
    with open(argv_file, "w", encoding="utf-8") as fh:
        json.dump([cmd.argv for cmd in warm], fh)
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        before = speed.probe()
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", PROBE, str(SRC), argv_file],
                              capture_output=True, text=True, timeout=120, check=True)
        raw.append(float(done.stdout.strip().splitlines()[-1]) - start)
        scaled.append(raw[-1] / ((before + speed.probe()) / 2))
    return statistics.median(raw), statistics.median(scaled)


def tail(latencies):
    """(value, percentile, samples): the highest percentile with TAIL_BEYOND samples above."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def cycle_count(workload, seconds):
    """Cycles that take about `seconds` at the seed commit's speed.

    A fixed count, not a deadline: a deadline would let the machine's speed
    set how many samples a run has, and with it which command the median and
    the tail land on.
    """
    return max(1, round(seconds / workloads.NOMINAL_CYCLE_S[workload]))


def timed_phase(cli, cycles, count, seconds, speed):
    """`count` cycles, round robin over the input pool.

    Returns the tally, the latencies scaled by the host's slowdown around
    each command, the slowdowns probed and the number of cycles run.  Stops
    early, after a whole cycle, once 2x `seconds` have passed, so that a much
    slower program or machine still ends in time.
    """
    tally = Tally()
    slowdowns = [speed.probe()]
    scaled = []
    done = 0
    start = time.perf_counter()
    while done < count and (done == 0 or time.perf_counter() - start < 2 * seconds):
        for cmd in cycles[done % len(cycles)]:
            elapsed = tally.run(cli, cmd)
            slowdowns.append(speed.probe())
            scaled.append(elapsed / ((slowdowns[-2] + slowdowns[-1]) / 2))
        done += 1
    return tally, scaled, slowdowns, done


def warm_up(cli, warm):
    tally = Tally()
    for cmd in warm:
        tally.run(cli, cmd)


def end_to_end(cli, workload, workdir, warm, cycles, seconds):
    speed = hostspeed.HostSpeed()
    raw_setup_s, setup_s = measure_setup(workdir, warm, speed)
    warm_up(cli, warm)
    tally, lat, slowdowns, done = timed_phase(cli, cycles, cycle_count(workload, seconds),
                                              seconds, speed)
    raw = tally.latencies
    tail_s, pct, n = tail(lat)
    attempted = len(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "cmd_per_s": (attempted / sum(lat), "1/s"),
        "cmd_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "cmd_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "pass_ratio": ((attempted - tally.failed) / attempted, "ratio"),
    }
    q = statistics.quantiles(slowdowns, n=4)
    notes = [f"{done} cycles of {len(cycles[0])} commands, pool of {len(cycles)} input sets",
             "cmd_per_s counts the seconds spent inside cli.main",
             f"cmd_tail_ms is p{pct:.1f} of {n} samples ({TAIL_BEYOND} beyond it)",
             f"setup_s is the median of {SETUP_PROBES} fresh-process probes",
             "times are scaled to the reference machine's speed; host slowdown quartiles "
             f"{q[0]:.3f} {q[1]:.3f} {q[2]:.3f}",
             f"raw wall clock: setup_s {raw_setup_s:.4f}, cmd_per_s {len(raw) / sum(raw):.4f}, "
             f"cmd_p50_ms {statistics.median(raw) * 1e3:.2f}, "
             f"cmd_tail_ms {tail(raw)[0] * 1e3:.2f}"]
    return tally, metrics, notes


def traced_pass(cli, cycle):
    tracer = spans.Tracer()
    tally = Tally()
    restore = tracer.install()
    try:
        for i, cmd in enumerate(cycle):
            tally.run(cli, cmd, tracer, i)
    finally:
        restore()
    return tracer, tally


def per_layer(cli, workload, seed, warm, cycle, seconds):
    """Pairs of one untraced and one traced pass over a cycle, until the time is up.

    Which pass of a pair runs first alternates, so drift in the machine's
    speed does not bias the overhead.
    """
    warm_up(cli, warm)
    passes = []  # (untraced s, traced s, summary, untraced tally, traced tally)
    first = None
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        plain = Tally()
        if len(passes) % 2:
            tracer, traced = traced_pass(cli, cycle)
        for cmd in cycle:
            plain.run(cli, cmd)
        if not len(passes) % 2:
            tracer, traced = traced_pass(cli, cycle)
        summary = spans.summarize(tracer.spans)
        summary["cli.failed"] = traced.failed
        passes.append((sum(plain.latencies), sum(traced.latencies), summary, plain, traced))
        first = first or tracer
    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)
    first.write(out_dir / f"spans-{workload}-seed{seed}.jsonl.gz")
    units = spans.metric_units()
    metrics = {}
    for name, unit in units.items():
        if unit == "s":
            value = float(statistics.median(p[2][name] for p in passes))
        else:
            value = passes[0][2][name]  # counts repeat exactly; the first pass stands for all
        metrics[name] = (value, unit)
    overhead = statistics.median(t - u for u, t, *_ in passes)
    metrics["bench.trace_overhead_s"] = (overhead, "s")
    tally = Tally()
    for *_, plain, traced in passes:
        tally.latencies += plain.latencies + traced.latencies
        tally.failures += plain.failures + traced.failures
    notes = [f"{len(passes)} untraced/traced pass pairs over cycle 0 ({len(cycle)} commands)",
             "self_s values are per pass, median over passes; counts are from the first pass",
             f"spans of the first traced pass: {out_dir}/spans-{workload}-seed{seed}.jsonl.gz"]
    return tally, metrics, notes


def main(argv=None):
    args = parse_args(argv)
    try:
        cli = load_cli()
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot load the package: {exc}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        warm, cycles = workloads.build(args.workload, args.seed, workdir)
        if args.trace:
            tally, metrics, notes = per_layer(cli, args.workload, args.seed, warm, cycles[0],
                                              args.seconds)
        else:
            tally, metrics, notes = end_to_end(cli, args.workload, workdir, warm, cycles,
                                               args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in notes:
        print(f"# {line}")
    seen = set()
    for label, reason, wrong in tally.failures:
        if (label, reason) not in seen:
            seen.add((label, reason))
            print(f"# {'WRONG' if wrong else 'failed'}: {label}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": len(tally.latencies),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
