"""Checks of each workload's output, computed apart from the program.

Nothing here imports collreg: the closed forms are written out again from
the mathematics, and the period comes from scipy's QUADPACK on a
substitution the program does not use.  Each check returns a list of
problems; an empty list means the output is accepted.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

from workloads import PERIOD, SITNIKOV, VERIFY_CHECKS

# simulate-sitnikov tolerances, each well above what the program reaches
# (|Gamma| <= 1e-10 and ||P1| - Pc| <= 2e-9 at passages, Gamma oscillation
# 1.6e-6 along the orbit) and below the error a wrong answer would show
GAMMA_AT_PASSAGE_TOL = 1e-8
P1_AT_PASSAGE_TOL = 1e-7
MIN_PASSAGES = 3
OSCILLATION_FACTOR = 10.0  # |Gamma| <= factor * dtau^2: the midpoint rule's bounded oscillation
GAMMA_COLUMN_TOL = 1e-11  # written gamma column against the recomputed one
PERIOD_RTOL = 1e-5
CSV_HEADER = "tau,t,Q1,Q2,P1,P2,gamma"


def ring_radius(N: int) -> float:
    """Radius of the unit-rate relative equilibrium of N primaries of mass 1/N:
    2 N r^3 = sum of 1/sin(pi g / N) over the other primaries, projected."""
    nu = N // 2
    if N % 2:
        s = sum(1.0 / math.sin(math.pi * g / N) for g in range(1, nu + 1))
    else:
        s = 0.5 + sum(1.0 / math.sin(math.pi * g / N) for g in range(1, nu))
    return (s / (2.0 * N)) ** (1.0 / 3.0)


def gamma4(Q1, Q2, P1, P2, h, m, eps, r):
    """Regularized Hamiltonian of the full problem (works on arrays)."""
    mu = 0.5 * (1.0 - eps)
    nu = 1.0 - mu
    q = Q1 * Q1
    a = 2.0 * Q2 + mu * q
    b = 2.0 * Q2 - nu * q
    ring = 4.0 * nu / np.sqrt(a * a + 4.0 * r * r) + 4.0 * mu / np.sqrt(b * b + 4.0 * r * r)
    return (0.5 * (mu * nu * q * P2 * P2 + P1 * P1)
            - 16.0 * (mu * nu) ** 2 * m
            - 2.0 * mu * nu * q * (ring + h))


def physical_hamiltonian(q1, q2, p1, p2, m, eps, r):
    """H = p1^2/2(1+eps) + p2^2/2(1-eps) - V on the axis (selfcheck reference)."""
    v = ((1.0 + eps) / math.sqrt(q1 * q1 + r * r) + (1.0 - eps) / math.sqrt(q2 * q2 + r * r)
         + m * (1.0 - eps * eps) / (q1 - q2))
    return p1 * p1 / (2.0 * (1.0 + eps)) + p2 * p2 / (2.0 * (1.0 - eps)) - v


def to_physical(Q1, Q2, P1, P2, eps):
    """The regularizing chart, regularized -> physical, away from Q1 = 0."""
    mu = 0.5 * (1.0 - eps)
    return (Q2 + 0.5 * mu * Q1 * Q1, Q2 - 0.5 * (1.0 - mu) * Q1 * Q1,
            (1.0 - mu) * P2 + P1 / Q1, mu * P2 - P1 / Q1)


def check_simulate(outputs: dict, p: dict = SITNIKOV) -> list:
    h, m, eps, dtau = p["h"], p["m"], p["epsilon"], p["step"]
    r = ring_radius(p["N"])
    steps = int(round(p["span"] / dtau))
    problems = []

    with open(outputs["events"]) as fh:
        events = json.load(fh)
    with open(outputs["summary"]) as fh:
        summary = json.load(fh)
    passages = [e for e in events if e["kind"] == "collision"]
    if len(passages) < MIN_PASSAGES:
        problems.append(f"{len(passages)} passages, expected at least {MIN_PASSAGES}")
    if summary.get("collisions") != len(passages):
        problems.append(f"summary counts {summary.get('collisions')} collisions, "
                        f"events file {len(passages)}")
    pc = (1.0 - eps * eps) * math.sqrt(2.0 * m)
    for e in passages:
        Q1, Q2, P1, P2 = e["state"]
        g = float(gamma4(Q1, Q2, P1, P2, h, m, eps, r))
        if not abs(g) <= GAMMA_AT_PASSAGE_TOL:
            problems.append(f"Gamma = {g:.3e} at the passage at tau={e['tau']}")
        if not abs(abs(P1) - pc) <= P1_AT_PASSAGE_TOL:
            problems.append(f"|P1| = {abs(P1)!r} at the passage at tau={e['tau']}, "
                            f"level set needs {pc!r}")

    with open(outputs["trajectory"]) as fh:
        header = fh.readline().strip()
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != CSV_HEADER:
        problems.append(f"trajectory header {header!r}")
        return problems
    if rows.shape != (steps + 1, 7):
        problems.append(f"trajectory has shape {rows.shape}, expected ({steps + 1}, 7)")
        return problems
    tau, t = rows[:, 0], rows[:, 1]
    if tau[0] != 0.0 or not abs(tau[-1] - p["span"]) <= 1e-9 * p["span"]:
        problems.append(f"tau runs from {tau[0]} to {tau[-1]}, expected 0 to {p['span']}")
    if not np.all(np.diff(tau) > 0.0):
        problems.append("tau is not strictly increasing")
    if not np.all(np.diff(t) >= 0.0):
        problems.append("t decreases somewhere")
    g_own = gamma4(rows[:, 2], rows[:, 3], rows[:, 4], rows[:, 5], h, m, eps, r)
    bound = OSCILLATION_FACTOR * dtau * dtau
    worst = float(np.max(np.abs(g_own)))
    if not worst <= bound:
        problems.append(f"Gamma reaches {worst:.3e} along the orbit, bound {bound:.1e}")
    mismatch = float(np.max(np.abs(rows[:, 6] - g_own)))
    if not mismatch <= GAMMA_COLUMN_TOL:
        problems.append(f"gamma column differs from Gamma of its row by {mismatch:.3e}")
    return problems


@functools.lru_cache(maxsize=None)
def period_by_quad(h: float, m: float, N: int) -> float:
    """T = 2 * integral_0^qmax dq / p(q), p^2 = h + 2/sqrt(q^2+r^2) + m/(2q).

    QUADPACK's algebraic weight q^(1/2) (qmax-q)^(-1/2) takes both endpoint
    behaviours, leaving sqrt((qmax-q) / (q p^2)), which is smooth on [0, qmax].
    """
    from scipy.integrate import quad
    from scipy.optimize import brentq

    r = ring_radius(N)

    def q_p2(q):  # q * p(q)^2, finite at q = 0
        return q * h + 2.0 * q / math.sqrt(q * q + r * r) + 0.5 * m

    hi = 1.0
    while q_p2(hi) > 0.0:
        hi *= 2.0
    qmax = brentq(q_p2, 0.0, hi, xtol=1e-15, rtol=1e-15)
    # limit of (qmax - q)/(q p^2) at the turning point: 1 / (-(q p^2)'(qmax))
    slope = h + 2.0 * r * r / (qmax * qmax + r * r) ** 1.5

    def smooth(q):
        gap = qmax - q
        if gap <= 1e-10 * qmax:
            return math.sqrt(-1.0 / slope)
        return math.sqrt(gap / q_p2(q))

    val, _ = quad(smooth, 0.0, qmax, weight="alg", wvar=(0.5, -0.5),
                  epsabs=0.0, epsrel=1e-13, limit=500)
    return 2.0 * val


def check_period(outputs: dict, p: dict = PERIOD) -> list:
    with open(outputs["report"]) as fh:
        report = json.load(fh)
    ref = period_by_quad(p["h"], p["m"], p["N"])
    problems = []
    for key in ("T_quadrature", "T_flow"):
        value = report.get(key)
        if not isinstance(value, (int, float)) or not abs(value - ref) <= PERIOD_RTOL * ref:
            problems.append(f"{key} = {value!r}, independent quadrature gives {ref!r}")
    return problems


def check_verify(outputs: dict) -> list:
    with open(outputs["report"]) as fh:
        report = json.load(fh)
    checks = report.get("checks", [])
    problems = []
    if report.get("all_passed") is not True:
        problems.append("all_passed is not true")
    names = [c.get("name") for c in checks]
    missing = [n for n in VERIFY_CHECKS if n not in names]
    if len(checks) != len(VERIFY_CHECKS) or missing:
        problems.append(f"{len(checks)} checks ran, expected {len(VERIFY_CHECKS)}; "
                        f"missing {missing}")
    failed = [c.get("name") for c in checks if c.get("passed") is not True]
    if failed:
        problems.append(f"checks failed: {failed}")
    return problems


CHECKS = {
    "simulate-sitnikov": check_simulate,
    "period": check_period,
    "verify": check_verify,
}
