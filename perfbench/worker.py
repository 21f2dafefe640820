"""One workload in one fresh process: set-up, timed rounds, gates, trace.

run.py starts this script with BLAS and OpenMP pinned to one thread.  It
imports stokes_lab from the checkout's src/, calls `stokes_lab.cli.main`
in-process with stdout and stderr captured in memory, and prints a JSON
summary of raw measurements as its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import stokes_lab  # noqa: E402
from stokes_lab import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

PHASE_COLD, PHASE_TIMED, PHASE_TRACED = 0, 1, 2
# rounds whose outputs feed trace_distance.p50, so a seed fixes its value
TRACE_DISTANCE_ROUNDS = 100


def call(argv) -> tuple:
    """Run the CLI once; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is a failed item, not a failed run
            code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def timed_round(items) -> tuple:
    """Run every item of one round; returns (start, end, outputs)."""
    gc.collect()
    start = time.perf_counter()
    outputs = [call(item.argv) for item in items]
    return start, time.perf_counter(), outputs


class Run:
    """Gate bookkeeping for one process: attempts, failures, oracle stats."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.stats: dict = {}
        self.errors: list = []
        self.group_items: dict = {}
        self.distance_marks: list = []  # trace distances recorded after each round

    def gate(self, items, outputs) -> None:
        for item, (code, stdout, _) in zip(items, outputs):
            self.attempted += 1
            group = item.expect.get("group")
            if group is not None:
                self.group_items[group] = self.group_items.get(group, 0) + 1
            failures = self.workload.check(item, code, stdout, self.stats)
            if failures:
                self.failed += 1
                sys.stderr.write(f"gate failed: {' '.join(item.argv)}: {failures[0]}\n")

    def finish(self) -> None:
        for group, message in self.workload.check_run(self.stats):
            # every item of the group fed the failing statistic
            self.failed += self.group_items.get(group, 0)
            sys.stderr.write(f"gate failed: {message}\n")


def run_rounds(workload, run, seed, phase, budget_s, tracer=None) -> tuple:
    """Timed rounds until their total time reaches budget_s (at least one).

    Returns (round times, last round's items and outputs, per-round trace
    analyses when a tracer is given).
    """
    times, analyses, last = [], [], None
    index = 0
    cpus = sorted(os.sched_getaffinity(0))
    while not times or sum(times) < budget_s:
        items = workload.items(seed, phase, index)
        if tracer is not None:
            tracer.reset()
        # Neighbours on the shared host slow one vCPU at a time, for seconds
        # to minutes; alternating rounds over the CPUs keeps a run from
        # sitting on one contended CPU throughout.
        os.sched_setaffinity(0, {cpus[index % len(cpus)]})
        start, end, outputs = timed_round(items)
        if tracer is not None:
            analyses.append(tracing.analyze_round(tracer.spans, start, end))
        times.append(end - start)
        run.gate(items, outputs)
        run.distance_marks.append(len(run.stats.get("trace_distance", ())))
        last = (items, outputs)
        index += 1
    os.sched_setaffinity(0, cpus)
    return times, last, analyses


def traced_phase(workload, run, seed, budget_s) -> dict:
    """Traced rounds: per-round self time means and the first round's counts."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        times, _, rounds = run_rounds(workload, run, seed, PHASE_TRACED, budget_s, tracer)
    finally:
        tracer.uninstall()
    first = rounds[0]["counts"]
    for r in rounds[1:]:
        for key, value in r["counts"].items():
            # output size follows the printed digits; the work itself repeats
            if key != "serialize.dumps.bytes" and value != first[key]:
                run.errors.append(f"traced rounds differ in {key}: {value} != {first[key]}")
    n = len(rounds)
    return {
        "round_s": times,
        "self_s": {name: sum(r["self_s"][name] for r in rounds) / n for name in tracing.LAYERS},
        "other_s": sum(r["other_s"] for r in rounds) / n,
        "counts": first,
        "shots_total": sum(r["counts"]["tomography.simulate_measurement.shots"] for r in rounds),
        "simulate_self_total": sum(r["self_s"]["tomography.simulate_measurement"] for r in rounds),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(stokes_lab.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"stokes_lab imported from {stokes_lab.__file__}, not this checkout\n")
        return 2
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir)
        run = Run(workload)
        cold_items = workload.items(args.seed, PHASE_COLD, 0)
        _, _, cold_outputs = timed_round(cold_items)
        setup_s = time.monotonic() - args.started
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        run.gate(cold_items, cold_outputs)
        first_distance = len(run.stats.get("trace_distance", ()))

        budget = args.seconds / 2 if args.trace else args.seconds
        times, (last_items, last_outputs), _ = run_rounds(workload, run, args.seed, PHASE_TIMED, budget)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        last_distance = run.distance_marks[min(len(times), TRACE_DISTANCE_ROUNDS) - 1]
        distances = run.stats.get("trace_distance", [])[first_distance:last_distance]

        summary = {
            "setup_s": setup_s,
            "round_s": times,
            "items": len(times) * len(last_items),
            "peak_rss_kb": peak_rss_kb,
            "trace_distance_p50": statistics.median(distances) if distances else None,
            "env": {
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": np.__version__,
            },
        }
        if args.trace:
            summary["traced"] = traced_phase(workload, run, args.seed, budget)

        # re-running an argv that was already timed must give the same bytes
        pick = args.seed % len(last_items)
        code, stdout, _ = call(last_items[pick].argv)
        run.attempted += 1
        if code != last_outputs[pick][0] or stdout != last_outputs[pick][1]:
            run.failed += 1
            sys.stderr.write(f"gate failed: re-run of {' '.join(last_items[pick].argv)} changed its output\n")
        run.finish()
        summary.update(attempted=run.attempted, failed=run.failed, errors=run.errors)
        print(json.dumps(summary))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only succeeds once no other worker uses it


if __name__ == "__main__":
    sys.exit(main())
