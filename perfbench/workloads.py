"""Workload inputs, made from the seed alone.

Shared by the driver (which checks the outputs) and the worker (which runs
the program), so both agree on the command line, the parameters and where
each output lands.  Nothing here imports collreg.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("simulate-sitnikov", "period", "verify")

# simulate-sitnikov: the full regularized problem, 1e5 implicit midpoint steps
SITNIKOV = {"N": 2, "m": 1e-3, "epsilon": 0.3, "h": -2.5, "step": 1e-3, "span": 100.0}
# period: the reduced (symmetric) problem
PERIOD = {"h": -1.0, "m": 1e-3, "N": 3}

# the suite as it stands; the verify oracle requires every one of them to run
VERIFY_CHECKS = (
    "symplectic.relative_map",
    "symplectic.euler_roundtrip",
    "symplectic.chart_jacobian",
    "config.ring_radius",
    "config.mass_roundtrip",
    "config.positions_center",
    "physical.axis_invariance",
    "physical.field_gradient",
    "physical.general_equivalence",
    "physical.energy_conservation",
    "regularized.defining_identity",
    "regularized.zero_set",
    "regularized.chart_roundtrip",
    "regularized.collision_regularity",
    "regularized.collision_momentum",
    "regularized.invariant_plane_field",
    "regularized.reflection_symmetry",
    "regularized.field_gradient",
    "regularized.reduced_restriction",
    "regularized.reduced_chain_rule",
    "integrators.step_symplectic",
    "integrators.reversibility",
    "integrators.gamma_conservation",
    "integrators.monotone_clocks",
    "analysis.turning_monotone",
    "analysis.period_agreement",
    "analysis.first_integral",
    "analysis.classify",
    "analysis.level_set",
    "analysis.kepler1d",
)


@dataclass(frozen=True)
class Spec:
    workload: str
    argv: tuple  # arguments to collreg.cli.main
    outputs: dict  # output kind -> path
    config: dict | None = None  # run configuration, for simulate
    config_path: str | None = None


def sitnikov_start(seed: int) -> list:
    """Regularized start (0, 0, P1, 0) with P1 drawn from the seed.

    The program projects |P1| onto the energy level, so the magnitude drawn
    here never reaches the orbit; the sign picks one of two mirror-image
    orbits, z -> (-Q1, Q2, -P1, P2), which is an exact symmetry of Gamma.
    Both therefore cost the same steps and field evaluations, bit for bit.
    Drawing Q2 or P2 as well would change the orbit and the counts, and a
    band wide enough to matter leaves the bound region (|Q2|, |P2| <= 0.2
    at h = -2.5 already reached Q1 ~ 6.3).
    """
    rng = random.Random(seed)
    sign = rng.choice((-1.0, 1.0))
    return [0.0, 0.0, sign * rng.uniform(0.5, 2.0), 0.0]


def spec(workload: str, seed: int, rundir: str) -> Spec:
    """Inputs of one workload; output files go to rundir."""

    def out(name):
        return os.path.join(rundir, name)

    if workload == "simulate-sitnikov":
        p = SITNIKOV
        outputs = {
            "trajectory": out("sitnikov_trajectory.csv"),
            "events": out("sitnikov_events.json"),
            "summary": out("sitnikov_summary.json"),
        }
        config = {
            "schema": 1,
            "problem": "sitnikov",
            "N": p["N"], "m": p["m"], "epsilon": p["epsilon"], "h": p["h"],
            "initial": {"chart": "regularized", "state": sitnikov_start(seed)},
            "integrator": {"method": "implicit_midpoint", "step": p["step"]},
            "span": p["span"],
            "outputs": outputs,
        }
        path = out("sitnikov.json")
        return Spec(workload, ("simulate", path), outputs, config, path)
    if workload == "period":
        p = PERIOD
        outputs = {"report": out("period_report.json")}
        argv = ("period", "--h", repr(p["h"]), "--m", repr(p["m"]), "--N", str(p["N"]),
                "--output", outputs["report"])
        return Spec(workload, argv, outputs)
    if workload == "verify":
        outputs = {"report": out("verify_report.json")}
        return Spec(workload, ("verify", "--output", outputs["report"]), outputs)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def write_inputs(s: Spec) -> None:
    if s.config is not None:
        with open(s.config_path, "w") as fh:
            json.dump(s.config, fh)
