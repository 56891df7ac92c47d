"""The process under test: runs one workload's operation on command.

Started by run.py, one process per run, so its peak resident set is its own.
It sets up (imports, input generation, config read and validation), reports
`{"ready": <time.monotonic()>}` and then answers one line per command read
from stdin:

    run    one operation with tracing off -> {"wall", "rc", "error"}
    trace  one operation under the tracer -> the same plus {"layers"}
    exit   -> {"peak_rss_kb"}, after writing the trace file if one was asked for

The program is driven through collreg.cli.main; whatever it prints is kept
off the reply channel.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from collreg import cli  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args()
    reply_channel = sys.stdout

    def reply(obj):
        reply_channel.write(json.dumps(obj) + "\n")
        reply_channel.flush()

    spec = workloads.spec(args.workload, args.seed, args.dir)
    workloads.write_inputs(spec)
    cli.build_parser().parse_args(list(spec.argv))
    if spec.config_path is not None:
        cli.load_run_config(spec.config_path)
    reply({"ready": time.monotonic()})

    tr = tracer.Tracer()
    for line in sys.stdin:
        command = line.strip()
        if command == "run":
            reply(_operation(spec, None))
        elif command == "trace":
            reply(_operation(spec, tr))
        elif command == "exit":
            if args.trace_out:
                tr.dump(args.trace_out, {"workload": args.workload, "seed": args.seed})
            reply({"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return 0
        else:
            reply({"error": f"unknown command {command!r}"})
    return 1


def _operation(spec, tr) -> dict:
    rc, error = None, None
    installed = tr.install() if tr is not None else contextlib.nullcontext()
    with installed, contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(spec.argv))
        except Exception:  # the driver counts the operation as failed
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
    out = {"wall": wall, "rc": rc, "error": error}
    if tr is not None:
        out["layers"] = tr.layers(workloads.VERIFY_CHECKS)
    return out


if __name__ == "__main__":
    sys.exit(main())
