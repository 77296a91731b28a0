"""Benchmark of the ``momentangle`` command line, run in-process.

    python3 perfbench/run.py --workload sphere --seed 1 --seconds 30 --trace 0

One client, one process, no threads, closed loop: each task is one
``momentangle.cli.main(argv)`` call on inputs generated from ``--seed``,
and the next task starts when the previous verdict is back.  Before every
task the package is imported afresh, untimed, so each task starts from
the state of a new CLI process and no program cache survives between
tasks or passes.  Passes over the workload's fixed task list repeat for
``--seconds``; every report is judged by an oracle that does not import
``momentangle``.  Times are scaled to a reference host speed by
``calibrate.py``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` untraced passes for half of
``--seconds`` are followed by traced passes for the other half, and the
object holds the per-layer metrics.  The lines before it are for people:
every metric by name and unit, and in a traced run the per-task counts.
The exit code is 0 whenever a result was printed, and 2 when the package
sources are not there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibrate
import oracle
import selfcheck
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 1
# Host noise on small shared VMs is large (back-to-back runs of one task
# differ by 20 %), so every reported time is a median over repeats.
SETUP_REPEATS = 15
MIN_PASSES = 2


@dataclass
class Outcome:
    task: dict
    key: tuple          # (pass number, task id): the span task id
    code: object        # exit code, or None when main raised
    text: str
    start: float        # perf_counter() when main was called
    seconds: float
    error: str = ""


def fresh_cli():
    """Import ``momentangle.cli`` as a new process would: every module of
    the package is dropped from ``sys.modules`` and executed again."""
    for name in [n for n in sys.modules
                 if n == "momentangle" or n.startswith("momentangle.")]:
        del sys.modules[name]
    cli = importlib.import_module("momentangle.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"momentangle was imported from {cli.__file__}, "
                          f"not from {SRC}")
    return cli


def setup(workload, seed, workdir):
    """One set-up, timed: import the package, generate and write inputs.
    Returns (start, seconds, files, tasks)."""
    t0 = time.perf_counter()
    fresh_cli()
    files, tasks = workloads.build(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, obj in files.items():
        (workdir / name).write_text(json.dumps(obj))
    return t0, time.perf_counter() - t0, files, tasks


def run_task(task, key, workdir, calibration, trace=None):
    calibration.maybe_sample()
    cli = fresh_cli()
    if trace is not None:
        trace.patch()
        trace.task = key
    gc.collect()
    argv = [str(workdir / a) if a.endswith(".json") else a
            for a in task["argv"]]
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash fails the task
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    if trace is not None:
        trace.task = None
    if err.getvalue() and not error:
        error = err.getvalue().strip()
    return Outcome(task, key, code, out.getvalue(), t0, seconds, error)


def run_passes(tasks, workdir, seconds, calibration, first_pass=0,
               trace=None, min_passes=1):
    """Passes over the task list until the next one would overrun
    ``seconds`` of wall time; at least ``min_passes`` passes.

    A report equal to the first pass's is replaced by that same string,
    so the process's memory does not grow with the number of passes.
    """
    passes = []
    start = time.perf_counter()
    while True:
        number = first_pass + len(passes)
        passes.append([run_task(t, (number, t["id"]), workdir, calibration,
                                trace) for t in tasks])
        for first, o in zip(passes[0], passes[-1]):
            if o.text == first.text:
                o.text = first.text
        elapsed = time.perf_counter() - start
        if (len(passes) >= min_passes
                and elapsed + elapsed / len(passes) > seconds):
            return passes


def wall(start, seconds):
    """The identity scale: wall seconds as measured."""
    return seconds


def pass_seconds(one_pass, scale=wall):
    return sum(scale(o.start, o.seconds) for o in one_pass)


def end_to_end_times(setups, passes, largest, scale):
    """setup_s, pass_s and largest_task_s: medians of times mapped by
    ``scale(start, seconds)``."""
    return {
        "setup_s": statistics.median(scale(start, seconds)
                                     for start, seconds, _, _ in setups),
        "pass_s": statistics.median(pass_seconds(p, scale) for p in passes),
        "largest_task_s": statistics.median(
            scale(o.start, o.seconds) for p in passes for o in p
            if o.task["id"] == largest),
    }


def judge(passes, judge_oracle):
    """(attempted, failed, messages).  A task fails on an exception, an
    exit code other than the oracle's, a report the oracle rejects, or a
    report that differs from the same task's report in the first pass."""
    attempted = failed = 0
    messages = []
    first = {}
    verdicts = {}
    for one_pass in passes:
        for o in one_pass:
            attempted += 1
            errors = [o.error] if o.error else []
            if o.code is not None:
                d = oracle.digest(o.text)
                tid = o.task["id"]
                if first.setdefault(tid, d) != d:
                    errors.append("report differs from the first pass")
                if (tid, o.code, d) not in verdicts:
                    verdicts[tid, o.code, d] = judge_oracle.check(
                        o.task, o.code, o.text)
                errors += verdicts[tid, o.code, d]
            if errors:
                failed += 1
                messages.append(f"{o.key}: " + "; ".join(errors))
    return attempted, failed, messages


def pinned_digests(workload, seed):
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text()).get(workload, {})


def show(metrics):
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:.6g} {unit}")


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "momentangle" / "__init__.py").is_file():
        print(f"error: no momentangle sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{args.seed}"
    calibration = calibrate.Calibration()
    setups = []
    try:
        for _ in range(SETUP_REPEATS):
            calibration.maybe_sample()
            setups.append(setup(args.workload, args.seed, workdir))
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _, _, files, tasks = setups[0]
    print(f"workload {args.workload}, seed {args.seed}, {len(tasks)} tasks "
          f"per pass; nproc {os.cpu_count()}, Python "
          f"{platform.python_version()}")

    problems = selfcheck.generator(args.workload, args.seed)
    judge_oracle = oracle.Oracle(files,
                                 pinned_digests(args.workload, args.seed))
    largest = workloads.LARGEST_TASK[args.workload]

    if args.trace:
        untraced = run_passes(tasks, workdir, args.seconds / 2, calibration)
        trace = tracer.Tracer()
        traced = run_passes(tasks, workdir, args.seconds / 2, calibration,
                            first_pass=len(untraced), trace=trace)
        passes = untraced + traced
    else:
        passes = run_passes(tasks, workdir, args.seconds, calibration,
                            min_passes=MIN_PASSES)
        calibration.sample()
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed, messages = judge(passes, judge_oracle)
    problems += selfcheck.oracle_flags_corruption(judge_oracle, passes[0])

    if args.trace:
        per_pass = [tracer.summarize(trace.spans, trace.counts,
                                     [o.key for o in p]) for p in traced]
        metrics = {name: (statistics.median(m[name][0]
                                            for m, _ in per_pass), unit)
                   for name, (_, unit) in per_pass[0][0].items()}
        metrics["trace.overhead_ratio"] = (
            statistics.median(pass_seconds(p, calibration.scaled)
                              for p in traced)
            / statistics.median(pass_seconds(p, calibration.scaled)
                                for p in untraced) - 1, "ratio")
        problems += selfcheck.self_times_cover_pass(
            per_pass[0][0], pass_seconds(traced[0]))
        print(f"per-task counts, pass {traced[0][0].key[0]}:")
        for o in traced[0]:
            counts = per_pass[0][1].get(o.key, {})
            print(f"  {o.task['id']:28s} " + " ".join(
                f"{k}={v}" for k, v in sorted(counts.items())))
        print(f"passes: {len(untraced)} untraced, {len(traced)} traced")
        WORK.mkdir(parents=True, exist_ok=True)
        trace.write(WORK / f"spans-{args.workload}-{args.seed}.tsv")
    else:
        metrics = {name: (value, "s") for name, value in end_to_end_times(
            setups, passes, largest, calibration.scaled).items()}
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        print(f"passes: {len(passes)}, setups: {SETUP_REPEATS}, kernel "
              f"samples: {len(calibration.samples)}; "
              "wall seconds before scaling: " + ", ".join(
                  f"{k} {v:.4f}" for k, v in end_to_end_times(
                      setups, passes, largest, wall).items()))
    print(f"error_rate {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} tasks failed)")
    show(metrics)
    for message in messages + problems:
        print(f"FAIL {message}", file=sys.stderr)
    print(result_line(not failed and not problems, attempted, failed,
                      metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
