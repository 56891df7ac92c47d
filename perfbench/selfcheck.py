#!/usr/bin/env python3
"""Check of the benchmark's own oracles: each must accept the program's true
output and reject one that is slightly wrong.

    python3 perfbench/selfcheck.py

Runs the program on two small inputs (a simulate-sitnikov span of 40, about
three passages, and a period at a coarser step), feeds every oracle the true
outputs and copies altered by a small amount, and checks the closed form of
Gamma that the simulate oracle uses against the physical Hamiltonian.  Prints
one line per case and exits 1 if any oracle accepts a wrong answer or
rejects a true one.  Takes a few seconds; files go to a temporary directory
under perfbench/out that is removed at the end.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from collreg import cli  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

SHORT_SITNIKOV = dict(workloads.SITNIKOV, span=40.0)
COARSE_STEP = "1e-3"  # period flow step; its error (~1e-7) stays far inside the oracle's 1e-5


class Cases:
    def __init__(self):
        self.bad = 0

    def expect(self, label, problems, reject):
        ok = bool(problems) == reject
        self.bad += not ok
        verdict = "rejected" if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {verdict:8s} {label}"
              + (f": {'; '.join(problems)}" if problems else ""))


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"program exited {rc} on {argv}")


def _altered(src, dst, edit):
    """Copy src to dst, applying edit to its parsed content."""
    if src.endswith(".json"):
        with open(src) as fh:
            data = json.load(fh)
        edit(data)
        with open(dst, "w") as fh:
            json.dump(data, fh)
        return
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(dst, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def simulate_cases(c: Cases, tmp):
    spec = workloads.spec("simulate-sitnikov", 0, tmp)
    config = dict(spec.config, span=SHORT_SITNIKOV["span"])
    with open(spec.config_path, "w") as fh:
        json.dump(config, fh)
    _run(list(spec.argv))
    true = spec.outputs
    c.expect("simulate: true output", oracles.check_simulate(true, SHORT_SITNIKOV), False)

    p = SHORT_SITNIKOV
    h, m, eps = p["h"], p["m"], p["epsilon"]
    r = oracles.ring_radius(p["N"])

    def gamma_of(row):
        return oracles.gamma4(*(float(v) for v in row[2:6]), h, m, eps, r)

    def variant(label, kind, edit):
        outputs = dict(true)
        outputs[kind] = os.path.join(tmp, "altered_" + os.path.basename(true[kind]))
        _altered(true[kind], outputs[kind], edit)
        c.expect("simulate: " + label, oracles.check_simulate(outputs, p), True)

    def nudge_p1(events):
        P1 = events[0]["state"][2]
        events[0]["state"][2] = P1 + math.copysign(1e-5, P1)

    variant("|P1| off by 1e-5 at one passage", "events", nudge_p1)

    def two_passages(events):
        events[:] = [e for e in events if e["kind"] == "collision"][:2]

    def two_in_summary(summary):
        summary["collisions"] = 2

    outputs = dict(true)
    outputs["events"] = os.path.join(tmp, "two_events.json")
    outputs["summary"] = os.path.join(tmp, "two_summary.json")
    _altered(true["events"], outputs["events"], two_passages)
    _altered(true["summary"], outputs["summary"], two_in_summary)
    c.expect("simulate: only two passages", oracles.check_simulate(outputs, p), True)

    variant("one trajectory row missing", "trajectory", lambda rows: rows.pop())

    def p1_row(rows):
        rows[1000][4] = repr(float(rows[1000][4]) + 1e-5)

    variant("P1 off by 1e-5 in one row, gamma column kept", "trajectory", p1_row)

    def off_level(rows):
        k = max(range(1, len(rows)), key=lambda i: abs(float(rows[i][4])))
        rows[k][4] = repr(float(rows[k][4]) + 3e-5 / abs(float(rows[k][4])))
        rows[k][6] = repr(float(gamma_of(rows[k])))

    variant("one row 3e-5 off the level, gamma column consistent", "trajectory", off_level)

    def t_back(rows):
        k = len(rows) // 2
        rows[k][1] = repr(float(rows[k - 1][1]) - 1e-9)

    variant("t steps back once", "trajectory", t_back)

    def tau_repeat(rows):
        k = len(rows) // 2
        rows[k][0] = rows[k - 1][0]

    variant("tau repeats once", "trajectory", tau_repeat)


def period_cases(c: Cases, tmp):
    report = os.path.join(tmp, "period.json")
    p = workloads.PERIOD
    _run(["period", "--h", repr(p["h"]), "--m", repr(p["m"]), "--N", str(p["N"]),
          "--step", COARSE_STEP, "--output", report])
    c.expect("period: true output", oracles.check_period({"report": report}), False)
    for key, factor in (("T_quadrature", 1 + 1e-4), ("T_flow", 1 - 1e-4)):
        altered = os.path.join(tmp, f"period_{key}.json")
        _altered(report, altered, lambda d: d.__setitem__(key, d[key] * factor))
        c.expect(f"period: {key} off by 1e-4", oracles.check_period({"report": altered}), True)


def verify_cases(c: Cases, tmp):
    path = os.path.join(tmp, "verify.json")

    def report(checks, all_passed=True):
        with open(path, "w") as fh:
            json.dump({"schema": 1, "all_passed": all_passed, "checks": checks}, fh)
        return oracles.check_verify({"report": path})

    full = [{"name": n, "passed": True, "measured": 0.0, "tolerance": 1.0}
            for n in workloads.VERIFY_CHECKS]
    c.expect("verify: all checks ran and passed", report(full), False)
    c.expect("verify: one check missing", report(full[1:]), True)
    failing = [dict(full[0], passed=False)] + full[1:]
    c.expect("verify: one check failed", report(failing, all_passed=False), True)
    c.expect("verify: one check failed, all_passed still true", report(failing), True)


def gamma_identity_case(c: Cases):
    """Gamma = g (H o chart - h) with g = 2 mu (1-mu) Q1^2, away from Q1 = 0."""
    rng = random.Random(7)
    worst = 0.0
    for _ in range(500):
        eps = rng.uniform(0.0, 0.9)
        m, h = 1e-3, rng.uniform(-3.0, 1.0)
        r = oracles.ring_radius(rng.randint(2, 8))
        z = (rng.uniform(0.2, 2.5) * rng.choice((-1, 1)), rng.uniform(-2, 2),
             rng.uniform(-2, 2), rng.uniform(-2, 2))
        mu = 0.5 * (1.0 - eps)
        g = 2.0 * mu * (1.0 - mu) * z[0] ** 2
        H = oracles.physical_hamiltonian(*oracles.to_physical(*z, eps), m, eps, r)
        lhs = float(oracles.gamma4(*z, h, m, eps, r))
        worst = max(worst, abs(lhs - g * (H - h)) / max(1.0, abs(lhs)))
    c.expect(f"Gamma closed form against the physical Hamiltonian (worst {worst:.1e})",
             [] if worst <= 1e-12 else [f"relative mismatch {worst:.3e}"], False)


def main() -> int:
    outdir = os.path.join(HERE, "out")
    os.makedirs(outdir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selfcheck-", dir=outdir)
    c = Cases()
    try:
        gamma_identity_case(c)
        simulate_cases(c, tmp)
        period_cases(c, tmp)
        verify_cases(c, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{c.bad} oracle case(s) wrong" if c.bad else "every oracle case held")
    return 1 if c.bad else 0


if __name__ == "__main__":
    sys.exit(main())
