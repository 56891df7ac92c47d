"""Command-line surface: verification, simulation, classification, level sets,
and period computation, with reproducible file outputs.

Run configurations are JSON documents (schema 1; README shows one).  RUNS
has a row for each (problem, chart): the length of its state, the numbers
it reads besides COMMON, and how its regularized Problem is built.  One
check, _check, takes each block (the top level, initial, integrator and
outputs) against its table and refuses, naming the dotted field, a key the
table does not list, a required field left out, and a value its test
rejects.  States: reduced
[Q1, P1]; sitnikov [Q1, Q2, P1, P2], or [q1, q2, p1, p2] in the physical
chart; kepler1d [u, v].  Regularized initial states are projected onto the
energy level by solving for |P1| (sign preserved); states with no real
momentum are refused.  A physical-chart run integrates H with the
Gragg-Bulirsch-Stoer oracle, which alone reads "stop_at_q" and reads no
"integrator" setting.  Every number must be finite (no NaN, no infinity,
no int beyond float range) and not a boolean.  Numeric file output uses
17 significant digits and LF line endings, so a fixed configuration yields
byte-identical data files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import analysis
from .config import MassParams, RingConfig, ring_radius
from .errors import ParameterError, SchemaError, StepFailure
from .integrators import (
    METHODS,
    IntegratorConfig,
    _write_csv,
    integrate,
    integrate_physical_oracle,
    open_regularized_csv,
    write_events_json,
    write_json,
    write_physical_csv,
    write_regularized_csv,
)
from .regularized import Problem

RUN_FAILURES = (ValueError, RuntimeError, OSError, OverflowError)  # a run's own failures


def _is_number(value) -> bool:
    """A finite JSON number: json.load also accepts NaN and +-Infinity, a
    boolean is an int to Python, and an int may lie beyond float range."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:
        return False


def _ring(cfg: dict) -> tuple[MassParams, RingConfig]:
    return MassParams(float(cfg["m"]), float(cfg["epsilon"])), RingConfig.for_count(cfg["N"])


# what a field must be: its test, and the words for it
ANY = (lambda v: True, "anything")
TEXT = (lambda v: isinstance(v, str), "a string")
OBJECT = (lambda v: isinstance(v, dict), "an object")
PATH = (lambda v: isinstance(v, str) and v != "", "a nonempty path")
NUMBER = (_is_number, "a finite number")
COUNT = (lambda v: isinstance(v, int) and _is_number(v), "an integer")
POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive number")
SYMMETRIC = (lambda v: _is_number(v) and v == 0, "0 in the symmetric (reduced) problem")
RING = {"N": COUNT, "m": POSITIVE, "epsilon": NUMBER, "h": NUMBER}

# The keys every run takes (schema is checked first, sweep by --sweep); each
# row of RUNS names the others its run reads.
COMMON = {"schema": ANY, "problem": TEXT, "initial": OBJECT, "integrator": OBJECT,
          "span": NUMBER, "outputs": OBJECT, "sweep": ANY}
# A setting left out takes IntegratorConfig's default.  IntegratorConfig
# checks them too, as MassParams checks RING's m.
INTEGRATOR = {"method": (lambda v: v in METHODS, f"one of {METHODS}"),
              "step": POSITIVE, "newton_tol": POSITIVE}
OUTPUTS = dict.fromkeys(("trajectory", "events", "summary"), PATH)


def _field(block: dict, key: str, kind: tuple, where: str = ""):
    """block[key], refused if it is missing or fails kind's test; where is
    the dotted prefix of the block's fields."""
    test, what = kind
    if key not in block:
        raise SchemaError(f"missing required field {where + key!r}", field=where + key)
    if not test(block[key]):
        raise SchemaError(f"field {where + key!r} must be {what}, got {block[key]!r}",
                          field=where + key)
    return block[key]


def _check(block: dict, fields: dict, where: str, unknown: str, optional=()) -> None:
    """Refuse a key of block that fields does not list (unknown % key names
    it), a field left out that optional does not list, and a value that
    fails its test, each naming the dotted field."""
    for key in block:
        if key not in fields:
            raise SchemaError(f"unknown {unknown % key}; choose from {tuple(fields)}",
                              field=where + key)
    for key, kind in fields.items():
        if key in block or key not in optional:
            _field(block, key, kind, where)


class Run(NamedTuple):
    size: int  # the length of initial.state
    reads: dict  # each number the run reads: key -> what it must be
    build: Callable[[dict], Problem] | None  # the regularized system; None: the oracle's H
    optional: tuple = ()  # the keys of reads that may be left out


# Every run, keyed by (problem, chart).  A physical-chart run accepts and
# validates an "integrator" block that the oracle does not read, so that one
# sweep may mix the charts.
RUNS = {
    ("sitnikov", "regularized"):
        Run(4, RING, lambda c: Problem.sitnikov(float(c["h"]), *_ring(c))),
    ("sitnikov", "physical"):
        Run(4, {**RING, "stop_at_q": NUMBER}, None, optional=("h", "stop_at_q")),
    ("reduced", "regularized"):
        Run(2, {**RING, "epsilon": SYMMETRIC}, lambda c: Problem.reduced(
            float(c["h"]), float(c["m"]), 4.0 * ring_radius(c["N"]))),
    ("kepler1d", "regularized"):
        Run(2, {"mu_grav": POSITIVE, "h": NUMBER},
            lambda c: Problem.kepler1d(float(c["h"]), float(c["mu_grav"]))),
}


def validate_run_config(cfg) -> dict:
    """Check a parsed document against schema 1; returns it with its
    IntegratorConfig attached under "_integrator"."""
    if not isinstance(cfg, dict):
        raise SchemaError("config must be a JSON object")
    if cfg.get("schema") != 1:
        raise SchemaError(f"unsupported schema {cfg.get('schema')!r}", field="schema")
    problem = _field(cfg, "problem", TEXT)
    if problem not in {p for p, _ in RUNS}:
        raise SchemaError(f"unknown problem {problem!r}", field="problem")
    chart = _field(_field(cfg, "initial", OBJECT), "chart", TEXT, "initial.")
    run = RUNS.get((problem, chart))
    if run is None:
        raise SchemaError(f"problem {problem!r} has no {chart!r} chart", field="initial.chart")
    _check(cfg, {**COMMON, **run.reads}, "", f"run setting %r for a {chart} {problem} run",
           ("integrator", "outputs", "sweep") + run.optional)
    state = (lambda s: isinstance(s, list) and len(s) == run.size and all(map(_is_number, s)),
             f"{run.size} finite numbers for problem {problem!r}")
    _check(cfg["initial"], {"chart": TEXT, "state": state}, "initial.", "initial setting %r")
    integ = cfg.get("integrator", {})
    _check(integ, INTEGRATOR, "integrator.", "integrator setting %r", INTEGRATOR)
    _check(cfg.get("outputs", {}), OUTPUTS, "outputs.", "output %r", OUTPUTS)
    # step and newton_tol are floats, as IntegratorConfig's defaults are
    cfg["_integrator"] = IntegratorConfig(
        **{k: v if k == "method" else float(v) for k, v in integ.items()})
    return cfg


def load_run_config(path: str) -> dict:
    """Parse and validate the run-configuration document at path."""
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from exc
    return validate_run_config(cfg)


def _default_outputs(cfg: dict, config_path: str) -> dict:
    """A run's trajectory, events and summary paths: those its outputs name,
    and the others beside config_path.  Two that resolve to one file raise
    SchemaError, as the later output would replace the earlier."""
    stem = os.path.splitext(config_path)[0]
    out = {key: f"{stem}_{key}.{'csv' if key == 'trajectory' else 'json'}" for key in OUTPUTS}
    out.update(cfg.get("outputs", {}))
    files = {}
    for key in OUTPUTS:
        other = files.setdefault(os.path.realpath(out[key]), key)
        if other != key:
            raise SchemaError(f"outputs {other!r} and {key!r} name one file, {out[key]}",
                              field="outputs")
    return out


def _problem(cfg: dict) -> Problem:
    """The regularized system of a validated run configuration."""
    return RUNS[cfg["problem"], cfg["initial"]["chart"]].build(cfg)


def run_simulation(cfg: dict, outputs: dict) -> dict:
    """Execute one validated run configuration; returns the summary dict."""
    icfg: IntegratorConfig = cfg["_integrator"]
    problem = cfg["problem"]
    span = float(cfg["span"])
    state = [float(v) for v in cfg["initial"]["state"]]
    t0 = time.perf_counter()

    if RUNS[problem, cfg["initial"]["chart"]].build is None:  # the physical chart
        params, ring = _ring(cfg)
        stop_at_q = float(cfg["stop_at_q"]) if "stop_at_q" in cfg else None
        traj = integrate_physical_oracle(state, span, params, ring, stop_at_q=stop_at_q)
        write_physical_csv(traj, outputs["trajectory"])
        # H's level; the oracle's first sample is the start itself
        level = float(cfg["h"]) if "h" in cfg else float(traj.invariant[0])
        extras = {}
        escaped = [e.detail for e in traj.events if e.kind == "escape_threshold"]
        if escaped:  # dq/dt of the secondary that reached stop_at_q
            k, mass = (3, params.beta) if escaped[0] == "body 2" else (2, params.alpha)
            extras["terminal_speed"] = float(traj.states[-1][k]) / mass
        extras["energy_drift"] = traj.metadata["energy_drift"]
        extras["initial_energy_mismatch"] = abs(float(traj.invariant[0]) - level)
    else:
        p = _problem(cfg)
        y0 = p.project(state)
        # the CSV is opened before the march, which hands it each block of
        # samples as the level guard passes it
        samples = span / icfg.step + 1.0
        with open_regularized_csv(outputs["trajectory"], len(state), samples) as csv:
            try:
                traj = integrate(p.field, y0, span, icfg, time_scale=p.clock,
                                 invariant=p.gamma, on_block=csv.write)
            except StepFailure as exc:
                # a failed run keeps what it integrated before the failure
                write_regularized_csv(exc.trajectory, outputs["trajectory"], csv)
                write_events_json(exc.trajectory, outputs["events"])
                raise
            write_regularized_csv(traj, outputs["trajectory"], csv)
        level, extras = 0.0, {}  # Gamma's level

    write_events_json(traj, outputs["events"])
    wall = time.perf_counter() - t0
    summary = {
        "schema": 1,
        "problem": problem,
        "samples": len(traj),
        "collisions": len(traj.collision_events()),
        "events": [{"kind": ev.kind, "tau": ev.tau, "t": ev.t} for ev in traj.events],
        "final_invariant_error": abs(float(traj.invariant[-1]) - level),
        "max_invariant_error": float(np.fmax.reduce(np.abs(traj.invariant - level))),
        "tau_end": float(traj.tau[-1]),
        "t_end": float(traj.t[-1]),
        "final_state": [float(v) for v in traj.states[-1]],
        "wall_time_s": wall,
        **extras,
    }
    write_json(summary, outputs["summary"])
    return summary


def _sweep_job(job):
    """Merge, validate and run one sweep entry.

    Returns (summary, None) or (None, message): a job that fails is recorded
    as failed and leaves the other jobs running.
    """
    k, stem, base, override = job
    try:
        if not isinstance(override, dict):
            raise SchemaError("sweep entries must be objects", field=f"sweep[{k}]")
        cfg = validate_run_config({**base, **override, "schema": 1})
        outputs = _default_outputs(cfg, f"{stem}_sweep{k:03d}.json")
        return run_simulation(cfg, outputs), None
    except RUN_FAILURES as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _run_sweep(cfg: dict, config_path: str) -> int:
    sweep = cfg.get("sweep")
    if not isinstance(sweep, list) or not sweep:
        raise SchemaError("--sweep requires a nonempty 'sweep' list", field="sweep")
    stem = os.path.splitext(config_path)[0]
    base = {key: val for key, val in cfg.items()
            if key not in ("sweep", "_integrator", "outputs")}
    jobs = [(k, stem, base, override) for k, override in enumerate(sweep)]
    threads = os.environ.get("COLLREG_THREADS", "0")
    if not re.fullmatch("[0-9]+", threads):
        raise ParameterError(f"COLLREG_THREADS must be a nonnegative integer, got {threads!r}")
    workers = int(threads) or min(len(jobs), os.cpu_count() or 1)
    # the stepping loops are pure Python, so real parallelism needs processes
    from concurrent.futures import ProcessPoolExecutor

    failed = 0
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for k, (summary, error) in enumerate(pool.map(_sweep_job, jobs)):
            if error is None:
                print(f"sweep job {k:03d} done: collisions={summary['collisions']} "
                      f"t_end={summary['t_end']:.6g}")
            else:
                failed += 1
                print(f"sweep job {k:03d} failed: {error}", file=sys.stderr)
    return 3 if failed else 0


def cmd_simulate(args) -> int:
    cfg = load_run_config(args.config)
    if args.sweep:
        return _run_sweep(cfg, args.config)
    outputs = _default_outputs(cfg, args.config)
    try:
        summary = run_simulation(cfg, outputs)
    except StepFailure as exc:
        print(f"integration failed: {exc} (residual {exc.residual:.3e})", file=sys.stderr)
        return 3
    print(json.dumps(summary, indent=1))
    return 0


def cmd_verify(args) -> int:
    from . import verify  # the invariant suite, loaded only by the command that runs it

    report = verify.run_checks(args.filter)
    if args.output:
        write_json(report, args.output)
    print(json.dumps(report, indent=1))
    if not report["all_passed"]:
        failures = [c for c in report["checks"] if not c["passed"]]
        for c in failures[:10]:
            print(
                f"FAILED {c['name']}: measured {c['measured']:.3e} "
                f"vs tolerance {c['tolerance']:.3e} {c.get('detail', '')}",
                file=sys.stderr,
            )
        return 1
    return 0


def cmd_classify(args) -> int:
    oc = analysis.classify(args.h)
    print(oc.kind)
    return 0


def cmd_levelset(args) -> int:
    a = 4.0 * ring_radius(args.N)
    pts = analysis.level_set_sample(
        args.h, args.m, a,
        (-args.qmax, args.qmax), (-args.pmax, args.pmax), args.resolution,
    )
    _write_csv(args.output, "Q1,P1\n", (pts,))
    print(f"{len(pts)} points -> {args.output}")
    return 0


def cmd_period(args) -> int:
    report = analysis.period_report(args.h, args.m, args.N, step=args.step)
    if args.output:
        write_json(report, args.output)
    print(json.dumps(report, indent=1))
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes -1e-1, -1E+2, -inf, -Infinity and -nan
    as negative numbers, not as options, so that a non-finite value reaches
    the domain checks; before Python 3.14 argparse knows only the -1 and -.5
    shapes.  Subparsers are built from the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="collreg",
        description="Collision-regularized dynamics of two secondaries on the "
                    "axis of a rotating N-gon of primaries.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the invariant suite, JSON report, exit 0 iff all pass")
    p.add_argument("--filter", default=None, help="substring filter on check names")
    p.add_argument("--output", default=None, help="also write the report to this path")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="run a configuration file")
    p.add_argument("config", help="path to a run-configuration JSON document")
    p.add_argument("--sweep", action="store_true",
                   help="fan out the config's 'sweep' overrides as independent runs "
                        "(COLLREG_THREADS limits parallelism)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("classify", help="orbit class from the energy")
    p.add_argument("--h", type=float, required=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("levelset", help="sample the reduced level curve into a CSV")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--qmax", type=float, default=4.0)
    p.add_argument("--pmax", type=float, default=3.0)
    p.add_argument("--resolution", type=int, default=201)
    p.add_argument("--output", default="levelset.csv")
    p.set_defaults(fn=cmd_levelset)

    p = sub.add_parser("period", help="period of the symmetric collision orbit, both methods")
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--step", type=float, default=analysis.FLOW_STEP)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_period)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as exc:
        where = f" (field {exc.field})" if exc.field else ""
        print(f"configuration error{where}: {exc}", file=sys.stderr)
        return 2
    except RUN_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
