"""Command-line surface: verification, simulation, classification, level sets,
and period computation, with reproducible file outputs.

Run configurations are JSON documents (schema 1):

    {
      "schema": 1,
      "problem": "reduced" | "sitnikov" | "kepler1d",
      "N": 2, "m": 1e-3, "epsilon": 0.0, "h": -1.0,
      "initial": {"chart": "regularized" | "physical", "state": [...]},
      "integrator": {"method": "implicit_midpoint", "step": 1e-3},
      "span": 100.0,
      "outputs": {"trajectory": "...", "events": "...", "summary": "..."}
    }

State layouts: reduced [Q1, P1]; sitnikov regularized [Q1, Q2, P1, P2];
sitnikov physical [q1, q2, p1, p2]; kepler1d [u, v] with "mu_grav" replacing
the ring parameters.  Regularized initial states are projected onto the
energy level by solving for |P1| (sign preserved); states with no real
momentum are refused.  "integrator" applies to regularized-chart runs
only: a physical-chart run validates the block but integrates with the
Gragg-Bulirsch-Stoer oracle, which none of its settings reaches.  Only
that oracle reads "stop_at_q", so any other run refuses it.  Every number
in a configuration must be finite (no NaN, no infinity) and not a boolean;
the masses m and mu_grav must be positive.  A top-level key outside RUN_KEYS,
like an integrator setting that IntegratorConfig does not take, is refused.
Numeric file output uses 17 significant digits and LF line endings, so a
fixed configuration yields byte-identical data files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import time

import numpy as np

from . import analysis
from .config import MassParams, RingConfig, ring_radius
from .errors import ParameterError, SchemaError, StepFailure
from .integrators import (
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

PROBLEMS = ("sitnikov", "reduced", "kepler1d")
RUN_KEYS = ("schema", "problem", "N", "m", "epsilon", "h", "mu_grav", "initial",
            "integrator", "span", "outputs", "stop_at_q", "sweep")


def _require(cfg: dict, field: str, types, name: str | None = None) -> object:
    name = name or field
    if field not in cfg:
        raise SchemaError(f"missing required field {name!r}", field=name)
    value = cfg[field]
    if not isinstance(value, types) or isinstance(value, bool):
        raise SchemaError(f"field {name!r} has the wrong type: {value!r}", field=name)
    return value


def _is_number(value) -> bool:
    """A finite JSON number: json.load also accepts NaN and +-Infinity, and
    a boolean is an int to Python."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _require_number(cfg: dict, field: str, name: str | None = None) -> float:
    name = name or field
    value = _require(cfg, field, (int, float), name)
    if not _is_number(value):
        raise SchemaError(f"field {name!r} must be a finite number, got {value!r}", field=name)
    return value


def validate_run_config(cfg) -> dict:
    """Check a parsed document against schema 1; returns it with its
    IntegratorConfig attached under "_integrator"."""
    if not isinstance(cfg, dict):
        raise SchemaError("config must be a JSON object")
    if cfg.get("schema") != 1:
        raise SchemaError(f"unsupported schema {cfg.get('schema')!r}", field="schema")
    for key in cfg:
        if key not in RUN_KEYS:
            raise SchemaError(f"unknown run setting {key!r}; choose from {RUN_KEYS}", field=key)
    problem = _require(cfg, "problem", str)
    if problem not in PROBLEMS:
        raise SchemaError(f"unknown problem {problem!r}", field="problem")
    _require_number(cfg, "span")
    initial = _require(cfg, "initial", dict)
    chart = _require(initial, "chart", str)
    if chart not in ("physical", "regularized"):
        raise SchemaError(f"unknown chart {chart!r}", field="initial.chart")
    state = _require(initial, "state", list)
    if problem == "sitnikov":
        want = 4
    else:
        want = 2
        if chart != "regularized":
            raise SchemaError(
                f"problem {problem!r} is integrated in the regularized chart",
                field="initial.chart",
            )
    if len(state) != want or not all(map(_is_number, state)):
        raise SchemaError(
            f"initial.state must be {want} finite numbers for problem {problem!r}",
            field="initial.state",
        )
    if "stop_at_q" in cfg and chart != "physical":
        raise SchemaError("stop_at_q ends only a physical-chart run", field="stop_at_q")
    if problem == "kepler1d":
        numbers = ["mu_grav", "h"]
    else:
        _require(cfg, "N", int)
        numbers = ["m", "epsilon"] + (["h"] if chart == "regularized" or "h" in cfg else [])
    numbers += ["stop_at_q"] if "stop_at_q" in cfg else []
    for name in numbers:
        _require_number(cfg, name)
    for name in ("m", "mu_grav"):
        if name in numbers and not cfg[name] > 0:
            raise SchemaError(f"field {name!r} must be positive, got {cfg[name]!r}", field=name)
    if problem == "reduced" and cfg["epsilon"] != 0:
        raise SchemaError("the reduced problem is the symmetric one; epsilon must be 0",
                          field="epsilon")
    integ = cfg.get("integrator", {})
    if not isinstance(integ, dict):
        raise SchemaError("integrator must be an object", field="integrator")
    known = tuple(f.name for f in dataclasses.fields(IntegratorConfig))
    for key in integ:
        if key not in known:
            raise SchemaError(f"unknown integrator setting {key!r}; choose from {known}",
                              field=f"integrator.{key}")
    settings = dict(integ)  # a setting left out takes IntegratorConfig's default
    for key in ("step", "newton_tol"):
        if key in integ:
            settings[key] = float(_require_number(integ, key, f"integrator.{key}"))
    try:
        cfg["_integrator"] = IntegratorConfig(**settings)
    except Exception as exc:
        raise SchemaError(f"bad integrator settings: {exc}", field="integrator") from exc
    outputs = cfg.get("outputs", {})
    if not isinstance(outputs, dict):
        raise SchemaError("outputs must be an object", field="outputs")
    for key, path in outputs.items():
        if not (isinstance(path, str) and path):
            raise SchemaError(f"output {key!r} must be a nonempty path", field=f"outputs.{key}")
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
    out = dict(cfg.get("outputs", {}))
    out.setdefault("trajectory", stem + "_trajectory.csv")
    out.setdefault("events", stem + "_events.json")
    out.setdefault("summary", stem + "_summary.json")
    files = {}
    for key in ("trajectory", "events", "summary"):
        other = files.setdefault(os.path.realpath(out[key]), key)
        if other != key:
            raise SchemaError(f"outputs {other!r} and {key!r} name one file, {out[key]}",
                              field="outputs")
    return out


def _problem(cfg: dict) -> Problem:
    """The regularized system of a validated run configuration."""
    h = float(cfg["h"])
    if cfg["problem"] == "kepler1d":
        return Problem.kepler1d(h, float(cfg["mu_grav"]))
    N, m = int(cfg["N"]), float(cfg["m"])
    if cfg["problem"] == "reduced":
        return Problem.reduced(h, m, 4.0 * ring_radius(N))
    params = MassParams(m=m, epsilon=float(cfg["epsilon"]))
    return Problem.sitnikov(h, params, RingConfig.for_count(N))


def run_simulation(cfg: dict, outputs: dict) -> dict:
    """Execute one validated run configuration; returns the summary dict."""
    icfg: IntegratorConfig = cfg["_integrator"]
    problem = cfg["problem"]
    span = float(cfg["span"])
    state = [float(v) for v in cfg["initial"]["state"]]
    t0 = time.perf_counter()

    if problem == "sitnikov" and cfg["initial"]["chart"] == "physical":
        params = MassParams(m=float(cfg["m"]), epsilon=float(cfg["epsilon"]))
        ring = RingConfig.for_count(int(cfg["N"]))
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
    except (ValueError, RuntimeError, OSError) as exc:  # schema, domain, step and file failures
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
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
