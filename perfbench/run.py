#!/usr/bin/env python3
"""Benchmark of collreg, end to end and layer by layer.

    python3 perfbench/run.py --workload simulate-sitnikov --seed 1 --seconds 20 --trace 0

Workloads (see README.md): simulate-sitnikov, period, verify.  Each run
starts a fresh worker process (worker.py) that drives `collreg.cli.main`,
and checks every operation's output with oracles.py while the worker waits.

Every run starts with one traced operation that is not timed: it takes the
program's lazy imports and caches, and counts the field evaluations.
--trace 0 then runs untraced operations until --seconds of them are
measured, and reports the end-to-end metrics: setup_s (median of SETUPS
process starts), wall_s (median operation), peak_rss_mb (the worker's peak
resident set) and field_evals.  --trace 1 alternates untraced and traced
operations instead, reports the per-layer metrics (medians over the traced
operations of those rounds) and writes the spans to
perfbench/out/trace-<workload>-<seed>.json.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The exit code is nonzero, with no result printed, when the worker
cannot be started or stops answering.
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
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402

SETUPS = 9  # process starts per run; setup_s is their median
RUN_DEADLINE_S = 170.0  # a worker still busy after this is killed and the run fails

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "field_evals": "count"}


def per_layer_units() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


class WorkerError(RuntimeError):
    pass


class Worker:
    """One worker process, spoken to one JSON line at a time."""

    def __init__(self, workload, seed, rundir, deadline, trace_out=None):
        self.deadline = deadline
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--dir", rundir]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        started = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=rundir)
        try:
            self.setup_s = self._read()["ready"] - started
        except BaseException:
            self.kill()
            raise

    def _read(self) -> dict:
        watchdog = threading.Timer(max(self.deadline - time.monotonic(), 0.0), self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            raise WorkerError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> dict:
        reply = self.call("exit")
        self.proc.wait()
        return reply

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Tally:
    """Operations attempted and failed, and whether every checked output held."""

    def __init__(self, workload, spec):
        self.check = oracles.CHECKS[workload]
        self.spec = spec
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, reply: dict) -> dict:
        self.attempted += 1
        if reply.get("error") or reply.get("rc") != 0:
            self.failed += 1
            print(f"operation failed: rc={reply.get('rc')} {reply.get('error') or ''}",
                  file=sys.stderr)
            return reply
        problems = self.check(self.spec.outputs)
        if problems:
            self.failed += 1
            self.correct = False
            print("wrong output: " + "; ".join(problems), file=sys.stderr)
        return reply


def measure(workload, seed, seconds, trace, rundir, trace_out):
    deadline = time.monotonic() + RUN_DEADLINE_S
    spec = workloads.spec(workload, seed, rundir)
    tally = Tally(workload, spec)
    setups = []
    for _ in range(SETUPS - 1):
        w = Worker(workload, seed, rundir, deadline)
        try:
            setups.append(w.setup_s)
            w.close()
        finally:
            w.kill()

    w = Worker(workload, seed, rundir, deadline, trace_out)
    try:
        setups.append(w.setup_s)
        # the first operation is traced and never timed: it takes the program's
        # lazy imports and caches, and its count is the run's field_evals
        first = tally.record(w.call("trace"))
        walls, traced = [], []
        measured = 0.0
        while measured < seconds:  # whole rounds only
            reply = tally.record(w.call("run"))
            walls.append(reply["wall"])
            measured += reply["wall"]
            if trace:
                reply = tally.record(w.call("trace"))
                traced.append(reply)
                measured += reply["wall"]
        peak_kb = w.close()["peak_rss_kb"]
    finally:
        w.kill()

    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": peak_kb / 1024.0,
            "field_evals": first["layers"]["field_evals"],
        }
        units = END_TO_END_UNITS
        note = (f"wall_s: median of {len(walls)} operations after one warm-up; "
                f"setup_s: median of {len(setups)}")
    else:
        units = per_layer_units()
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in units if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                       - statistics.median(walls))
        note = f"{len(traced)} traced and {len(walls)} untraced operations after one warm-up"
    return tally, {name: {"value": metrics[name], "unit": units[name]} for name in units}, note


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="untraced (and traced) operation time to measure")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    trace_out = (os.path.join(outdir, f"trace-{args.workload}-{args.seed}.json")
                 if args.trace else None)
    rundir = tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=outdir)
    try:
        tally, metrics, note = measure(args.workload, args.seed, args.seconds, args.trace,
                                       rundir, trace_out)
    except (WorkerError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark could not run: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {note}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
