"""Machine-checkable invariant suite behind `collreg verify`.

Each check returns a record {passed, measured, tolerance, detail}; the runner
names it from CHECKS and aggregates the records into a JSON report.  The
checks mirror the library's mathematical contracts: symplecticity defects,
chart identities, conservation along flows, dual-route agreements
(quadrature vs flow, derived fields vs finite-difference gradients vs the
chain rule), and the one-dimensional validation case.

A check measures the largest of its errors over its samples and passes when
that is below its tolerance; a NaN error fails it, and so does drawing no
sample at all (see _record, where every check's errors are reduced).

The checks that march (MARCHING: they call integrators.integrate or the
physical oracle) take most of the suite's time, and the others are array
work.  run_checks runs the others in one helper process, an
integrators._Helper (the package's one way to fork, shared with the CSV
writer), where integrators._can_fork() allows, and runs the marching ones
itself meanwhile; the helper (_serve) sends each record back as a line of
JSON over a pipe.  Whatever the helper does not deliver (a check that
raised, the rest after it died) runs in the calling process, so the report,
and any exception, is that of running every check here in order.  Marches
stay in the calling process so that a count of field evaluations taken
there covers them all.

Checks are sized to finish in a few seconds each; the pytest acceptance
suite runs the same oracles at full scale.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from . import analysis, config, integrators, physical, regularized, symplectic
from .config import MassParams, RingConfig
from .errors import DomainError, ParameterError

SEED = 20240917


def _record(errors, tolerance, passed=None, detail=None):
    """A check's result from its errors, a number or a list or array of them;
    run_checks puts the check's name in front.  The measured value is the
    largest error, NaN if any is NaN, and infinite if there is none; `passed`
    defaults to measured < tolerance, and a measured value that is not finite
    fails the check whatever `passed` says."""
    errors = np.asarray(errors, dtype=float)
    measured = float(np.max(errors)) if errors.size else math.inf
    if not errors.size:
        detail = f"no samples; {detail}" if detail else "no samples"
    if passed is None:
        passed = measured < tolerance
    rec = {"passed": bool(passed) and math.isfinite(measured), "measured": measured,
           "tolerance": float(tolerance)}
    if detail:
        rec["detail"] = detail
    return rec


def check_relative_map_symplectic():
    rng = np.random.default_rng(SEED)
    return _record([symplectic.symplectic_defect(symplectic.build_relative_map(mu))
                    for mu in rng.uniform(1e-6, 0.5, 100)], 1e-12)


def check_euler_roundtrip():
    rng = np.random.default_rng(SEED + 1)
    errs = []
    for _ in range(100):
        q = rng.uniform(1e-3, 10.0)
        p = rng.uniform(-5.0, 5.0)
        q2, p2 = symplectic.euler_forward(*symplectic.euler_inverse(q, p))
        errs += [abs(q2 - q) / max(abs(q), 1.0), abs(p2 - p) / max(abs(p), 1.0)]
    return _record(errs, 1e-14)


def check_chart_jacobian_defect():
    rng = np.random.default_rng(SEED + 2)
    errs = []
    for eps in (0.0, 0.25, 0.5, 0.9):
        params = MassParams(m=1e-3, epsilon=eps)
        for _ in range(25):
            z = np.array([
                rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0]),
                rng.uniform(-2.0, 2.0),
                rng.uniform(-2.0, 2.0),
                rng.uniform(-2.0, 2.0),
            ])
            jac = symplectic.fd_jacobian(lambda w: regularized.chart_to_physical(w, params), z)
            errs.append(symplectic.symplectic_defect(jac))
    return _record(errs, 1e-6)


def check_ring_radius():
    errs = [abs(config.ring_radius(2) - 0.5), abs(config.ring_radius(3) - 3.0 ** -0.5),
            abs(config.ring_radius(3) - config.bp_radius(3))]
    for N in range(2, 41):
        r = config.ring_radius(N)
        nu = N // 2
        if N % 2 == 1:
            target = sum(1.0 / math.sin(math.pi * g / N) for g in range(1, nu + 1))
        else:
            target = 0.5 + sum(1.0 / math.sin(math.pi * g / N) for g in range(1, nu))
        errs.append(abs(2.0 * N * r**3 - target))
    return _record(errs, 1e-12)


def check_mass_roundtrip():
    # same-order masses: the (m, epsilon) parameterization presumes it, and
    # reconstructing m2 = m(1 - epsilon) necessarily cancels as m2/m1 -> 0
    rng = np.random.default_rng(SEED + 3)
    errs = []
    for _ in range(200):
        m1 = rng.uniform(1e-8, 1.0)
        m2 = rng.uniform(0.1, 1.0) * m1
        p = config.rescale_masses(m1, m2)
        errs += [abs(p.m1 - m1) / m1, abs(p.m2 - m2) / m2]
    return _record(errs, 1e-15)


def check_positions_center():
    rng = np.random.default_rng(SEED + 4)
    errs = []
    for N in range(2, 10):
        ring = RingConfig.for_count(N)
        for phase in rng.uniform(0.0, 2.0 * math.pi, 5):
            pos = config.primary_positions_3d(ring, phase)
            errs.append(np.abs(pos.sum(axis=0)))
    return _record(errs, 1e-13)


def check_axis_invariance():
    rng = np.random.default_rng(SEED + 5)
    errs = []
    for N in range(2, 10):
        ring = RingConfig.for_count(N)
        # 50 heights, 10 phases at each: the draws of one rng.uniform call per height
        z = rng.uniform(-5.0, 5.0, 50)
        phase = rng.uniform(0.0, 2.0 * math.pi, (50, 10))
        a = physical.infinitesimal_accel_3d(z[:, None], ring, phase)
        errs.append(np.abs(a[..., :2]))
    return _record(errs, 1e-13)


def check_field_gradient():
    rng = np.random.default_rng(SEED + 6)
    params = MassParams(m=1e-3, epsilon=0.2)
    ring = RingConfig.for_count(3)
    omega = symplectic.canonical_form(4)
    errs = []
    for _ in range(100):
        q2 = rng.uniform(-2.0, 1.0)
        q1 = q2 + rng.uniform(0.3, 3.0)
        y = np.array([q1, q2, rng.uniform(-2, 2), rng.uniform(-2, 2)])
        grad = symplectic.fd_jacobian(lambda w: physical.hamiltonian(w, params, ring), y)[0]
        errs.append(np.abs(omega @ grad - physical.physical_field(y, params, ring)))
    return _record(errs, 1e-7)


def check_general_equivalence():
    # physical_field against a sum made apart from it: pull(z), the axial
    # component of the N primaries' pull summed body by body in 3-D at a
    # random ring phase a state, and the mutual terms written out
    rng = np.random.default_rng(SEED + 7)
    params = MassParams(m=1e-3, epsilon=0.3)
    a, b = params.alpha, params.beta
    errs = []
    for N in (2, 3, 5, 8):
        ring = RingConfig.for_count(N)
        ys, phase = [], []
        for _ in range(25):
            q2 = rng.uniform(-2.0, 1.0)
            q1 = q2 + rng.uniform(0.3, 3.0)
            ys.append((q1, q2, rng.uniform(-2, 2), rng.uniform(-2, 2)))
            phase.append(rng.uniform(0, 10))
        ys = np.array(ys)
        pull = physical.infinitesimal_accel_3d(ys[:, :2], ring, np.array(phase)[:, None])[..., 2]
        for (q1, q2, p1, p2), (pull1, pull2) in zip(ys.tolist(), pull.tolist()):
            mutual = params.m * a * b / (q1 - q2) ** 2
            want = (p1 / a, p2 / b, a * pull1 - mutual, b * pull2 + mutual)
            errs.append(np.abs(physical.physical_field((q1, q2, p1, p2), params, ring) - want))
    return _record(errs, 1e-13)


def check_energy_conservation():
    params = MassParams(m=1e-3, epsilon=0.0)
    ring = RingConfig.for_count(2)
    q0 = 1.0
    p0 = analysis.momentum_profile(q0, 0.25, params.m, ring.radius)
    traj = integrators.integrate_physical_oracle(
        [q0, -q0, p0, -p0], 1e6, params, ring, stop_at_q=1e3)
    return _record(traj.metadata["energy_drift"], 1e-9)


def check_defining_identity():
    rng = np.random.default_rng(SEED + 8)
    errs = []
    for eps in (0.0, 0.25, 0.5, 0.9):
        params = MassParams(m=1e-3, epsilon=eps)
        for N in (2, 3, 4, 8):
            ring = RingConfig.for_count(N)
            for _ in range(63):
                z = np.array([
                    rng.uniform(0.3, 2.5) * rng.choice([-1.0, 1.0]),
                    rng.uniform(-2.0, 2.0),
                    rng.uniform(-2.0, 2.0),
                    rng.uniform(-2.0, 2.0),
                ])
                h = rng.uniform(-2.0, 1.0)
                g = regularized.time_scale(z, params)
                lhs = regularized.gamma(z, h, params, ring)
                rhs = g * (physical.hamiltonian(
                    regularized.chart_to_physical(z, params), params, ring) - h)
                errs.append(abs(lhs - rhs) / max(1.0, abs(lhs)))
    return _record(errs, 1e-12)


def check_zero_set():
    rng = np.random.default_rng(SEED + 9)
    params = MassParams(m=1e-3, epsilon=0.25)
    ring = RingConfig.for_count(3)
    errs = []
    for _ in range(1000):  # draws; a refused projection is drawn again
        z = np.array([
            rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0]),
            rng.uniform(-1.0, 1.0),
            rng.uniform(-1.0, 1.0),
            rng.uniform(-1.0, 1.0),
        ])
        h = rng.uniform(-2.0, 0.5)
        try:
            zs = regularized.project_to_level(z, h, params, ring)
        except DomainError:
            continue
        errs.append(abs(physical.hamiltonian(
            regularized.chart_to_physical(zs, params), params, ring) - h))
        if len(errs) == 100:
            return _record(errs, 1e-10)
    return _record(errs, 1e-10, passed=False,
                   detail=f"{len(errs)} of 100 states projected in 1000 draws")


def check_chart_roundtrip():
    rng = np.random.default_rng(SEED + 10)
    errs = []
    for eps in (0.0, 0.3, 0.7):
        params = MassParams(m=1e-3, epsilon=eps)
        for _ in range(34):
            q2 = rng.uniform(-2.0, 1.0)
            q1 = q2 + rng.uniform(1e-3, 4.0)
            y = np.array([q1, q2, rng.uniform(-3, 3), rng.uniform(-3, 3)])
            back = regularized.chart_to_physical(
                regularized.chart_to_regularized(y, params), params)
            errs.append(float(np.max(np.abs(back - y))) / max(1.0, float(np.max(np.abs(y)))))
    return _record(errs, 1e-13)


def check_collision_regularity():
    params = MassParams(m=1e-3, epsilon=0.3)
    ring = RingConfig.for_count(3)
    h = -1.0
    qs = np.linspace(-0.05, 0.05, 41)
    errs = []
    for Q2, P1, P2 in ((0.3, 0.05, -0.2), (-0.1, -0.03, 0.4)):
        vals = np.array([
            [regularized.gamma((Q1, Q2, P1, P2), h, params, ring),
             *regularized.regularized_field((Q1, Q2, P1, P2), h, params, ring)]
            for Q1 in qs
        ])
        # interior points against the cubic through their four outer
        # neighbours, whose value midway on the even grid is
        # (4 (y[k-1] + y[k+1]) - y[k-2] - y[k+2]) / 6
        pred = (4.0 * (vals[1:-3] + vals[3:-1]) - vals[:-4] - vals[4:]) / 6.0
        errs.append(np.abs(pred - vals[2:-2]))
    return _record(errs, 1e-8)


def check_collision_momentum():
    rng = np.random.default_rng(SEED + 11)
    errs = []
    for eps in (0.0, 0.3, 0.6):
        params = MassParams(m=1e-3, epsilon=eps)
        ring = RingConfig.for_count(4)
        pc = regularized.collision_momentum(params)
        for _ in range(30):
            z = (0.0, rng.uniform(-2, 2), pc * rng.choice([-1.0, 1.0]), rng.uniform(-2, 2))
            errs.append(abs(regularized.gamma(z, rng.uniform(-2, 1), params, ring)))
    return _record(errs, 1e-14)


def check_invariant_plane_field():
    rng = np.random.default_rng(SEED + 12)
    params = MassParams(m=1e-3, epsilon=0.0)
    ring = RingConfig.for_count(3)
    errs = []
    for _ in range(50):
        z = (rng.uniform(-3, 3), 0.0, rng.uniform(-3, 3), 0.0)
        f = regularized.regularized_field(z, rng.uniform(-2, 1), params, ring)
        errs += [abs(f[1]), abs(f[3])]
    return _record(errs, 0.0, passed=not np.any(errs),
                   detail="Q2' and P2' vanish identically on the symmetric plane")


def check_reflection_symmetry():
    rng = np.random.default_rng(SEED + 13)
    params = MassParams(m=1e-3, epsilon=0.4)
    ring = RingConfig.for_count(5)
    errs = []
    for _ in range(50):
        z = rng.uniform(-2, 2, 4)
        zr = np.array([z[0], z[1], -z[2], -z[3]])
        h = rng.uniform(-2, 1)
        f = regularized.regularized_field(z, h, params, ring)
        fr = regularized.regularized_field(zr, h, params, ring)
        errs.append(np.abs(fr - f * np.array([-1.0, -1.0, 1.0, 1.0])))
    return _record(errs, 0.0, passed=not np.any(errs),
                   detail="momentum flip reverses the flow exactly")


def check_regularized_field_gradient():
    rng = np.random.default_rng(SEED + 14)
    params = MassParams(m=1e-3, epsilon=0.35)
    ring = RingConfig.for_count(3)
    omega = symplectic.canonical_form(4)
    h = -0.7
    errs = []
    for _ in range(100):
        z = rng.uniform(-2, 2, 4)
        grad = symplectic.fd_jacobian(lambda w: regularized.gamma(w, h, params, ring), z)[0]
        errs.append(np.abs(omega @ grad - regularized.regularized_field(z, h, params, ring)))
    return _record(errs, 1e-7)


def check_reduced_restriction():
    rng = np.random.default_rng(SEED + 15)
    params = MassParams(m=1e-3, epsilon=0.0)
    errs = []
    for N in (2, 3, 8):
        ring = RingConfig.for_count(N)
        a = 4.0 * ring.radius
        for _ in range(40):
            Q1, P1 = rng.uniform(-3, 3, 2)
            h = rng.uniform(-2, 1)
            f4 = regularized.regularized_field((Q1, 0.0, P1, 0.0), h, params, ring)
            f2 = regularized.reduced_field((Q1, P1), h, a)
            g4 = regularized.gamma((Q1, 0.0, P1, 0.0), h, params, ring)
            g2 = regularized.gamma_reduced((Q1, P1), h, params.m, a)
            errs += [abs(f4[0] - f2[0]), abs(f4[2] - f2[1]), abs(g4 - g2)]
    return _record(errs, 1e-13)


def check_reduced_chain_rule(field_fn=None):
    """Decisive sign arbitration: the reduced field, pushed through the chart
    q = Q1^2/4, p = P1/Q1, dt = (Q1^2/2) dtau on the level set, must reproduce
    the physical force of the symmetric problem."""
    rng = np.random.default_rng(SEED + 16)
    params = MassParams(m=1e-3, epsilon=0.0)
    ring = RingConfig.for_count(3)
    a = 4.0 * ring.radius
    r = ring.radius
    m = params.m
    h = -1.0
    p = regularized.Problem.reduced(h, m, a)
    if field_fn is None:
        field_fn = p.field
    errs = []
    for _ in range(60):
        Q1 = rng.uniform(0.2, 2.4)
        try:
            P1 = regularized.reduced_level_momentum(Q1, h, m, a) * rng.choice([-1.0, 1.0])
        except DomainError:
            continue
        dQ1, dP1 = field_fn((Q1, P1))
        g = p.clock(Q1)
        q = 0.25 * Q1 * Q1
        pdot_chain = (dP1 / Q1 - P1 * dQ1 / (Q1 * Q1)) / g
        pdot_phys = -q / (q * q + r * r) ** 1.5 - m / (4.0 * q * q)
        errs.append(abs(pdot_chain - pdot_phys))
    return _record(errs, 1e-10)


def check_step_symplectic():
    """The midpoint step's Jacobian, by finite differences, is symplectic at
    50 starts: the draws, in order, of
    np.random.default_rng(SEED + 17).uniform(-2, 2, 2), committed in
    tables.STEP_SYMPLECTIC_STARTS so that the process that runs the marches
    never imports numpy.random."""
    from .tables import STEP_SYMPLECTIC_STARTS

    ring = RingConfig.for_count(2)
    rhs = regularized.Problem.reduced(-1.0, 0.0, 4.0 * ring.radius).field
    cfg = integrators.IntegratorConfig(step=1e-3, newton_tol=1e-15)
    errs = []
    for s0 in STEP_SYMPLECTIC_STARTS:
        jac = symplectic.fd_jacobian(
            lambda w: integrators.integrate(rhs, w, 1e-3, cfg).states[-1], s0, step=1e-6)
        errs.append(symplectic.symplectic_defect(jac))
    return _record(errs, 1e-8)


def check_reversibility():
    params = MassParams(m=1e-3, epsilon=0.25)
    cfg = integrators.IntegratorConfig(step=1e-3, newton_tol=1e-15)
    # reduced system
    p = regularized.Problem.reduced(-1.0, params.m, 4.0 * RingConfig.for_count(2).radius)
    y = p.project((0.7, 1.0))
    fwd = integrators.integrate(p.field, y, 2.0, cfg).states[-1]
    back = integrators.integrate(p.field, (fwd[0], -fwd[1]), 2.0, cfg).states[-1]
    errs = [abs(back[0] - y[0]), abs(back[1] + y[1])]
    # full system
    p = regularized.Problem.sitnikov(-1.0, params, RingConfig.for_count(3))
    z = p.project((0.9, 0.1, 1.0, -0.2))
    fwd = integrators.integrate(p.field, z, 2.0, cfg).states[-1]
    zr = np.array([fwd[0], fwd[1], -fwd[2], -fwd[3]])
    back = integrators.integrate(p.field, zr, 2.0, cfg).states[-1]
    errs.extend(np.abs(back * np.array([1, 1, -1, -1]) - z))
    return _record(errs, 1e-8)


def check_gamma_conservation():
    """Secular drift of the conserved quantity, read at matched phase points
    (the collision passages); the pointwise bounded oscillation of a
    second-order symplectic method is reported separately."""
    m = 1e-3
    p = regularized.Problem.reduced(-1.0, m, 4.0 * RingConfig.for_count(2).radius)
    cfg = integrators.IntegratorConfig(step=1e-3, newton_tol=1e-14)
    # it reads the events and invariant_max alone, so the march keeps no sample
    traj = integrators.integrate(p.field, (0.0, math.sqrt(2.0 * m)), 40.0, cfg,
                                 invariant=p.gamma, on_block=lambda *block: None)
    evs = traj.collision_events()
    if len(evs) < 3:
        return _record(math.inf, 1e-8, detail="too few collision passages")
    g_at = [p.gamma(e.state) for e in evs]
    return _record([abs(v - g_at[0]) for v in g_at], 1e-8,
                   detail=f"bounded oscillation {traj.metadata['invariant_max']:.3e} "
                          f"over {len(evs)} passages")


def check_monotone_clocks():
    """t never decreases and tau always increases, sample to sample, tested
    on each block the march hands over and across the boundary with the one
    before, so that no block is kept.  The march runs under the level guard:
    one that leaves its level raises StepFailure."""
    p = regularized.Problem.reduced(-1.0, 1e-3, 4.0 * RingConfig.for_count(2).radius)
    cfg = integrators.IntegratorConfig(step=1e-3)
    ok, last_tau, last_t = True, -math.inf, -math.inf

    def look(tau, t, states, values):
        nonlocal ok, last_tau, last_t
        ok = ok and bool(np.all(np.diff(t, prepend=last_t) >= 0.0)
                         and np.all(np.diff(tau, prepend=last_tau) > 0.0))
        last_tau, last_t = tau[-1], t[-1]

    integrators.integrate(p.field, (0.0, math.sqrt(2e-3)), 20.0, cfg, time_scale=p.clock,
                          invariant=p.gamma, on_block=look)
    return _record(0.0 if ok else 1.0, 0.5)


def check_turning_monotone():
    ring = RingConfig.for_count(2)
    hs = np.arange(-2.0, -0.05, 0.1)
    qs = [analysis.turning_point(h, 1e-3, ring.radius) for h in hs]
    ok = all(qs[i] < qs[i + 1] for i in range(len(qs) - 1))
    return _record(0.0 if ok else 1.0, 0.5)


def check_period_agreement():
    r = config.ring_radius(3)
    tq = analysis.period(-1.0, 1e-3, r, method="quadrature")
    tf = analysis.period(-1.0, 1e-3, r, method="flow", step=5e-4)
    return _record(abs(tq - tf) / tq, 1e-5)


def check_first_integral():
    ring = RingConfig.for_count(3)
    m, h = 1e-3, -1.0
    p = regularized.Problem.reduced(h, m, 4.0 * ring.radius)
    cfg = integrators.IntegratorConfig(step=2e-5, newton_tol=1e-15)
    traj = integrators.integrate(p.field, p.project((1.0, 1.0)), 1.0, cfg,
                                 record_every=10)
    Q1, P1 = traj.states.T
    kept = ~((Q1 <= 0.3) | (P1 <= 0.05))  # NaN samples kept, to fail the profile
    Q1, P1 = Q1[kept], P1[kept]
    return _record(np.abs(P1 / Q1 - analysis.momentum_profile(0.25 * Q1 * Q1, h, m, ring.radius)),
                   1e-9)


def check_classify():
    ok = (analysis.classify(-0.5).kind == "Periodic"
          and analysis.classify(0.0).kind == "Parabolic"
          and analysis.classify(0.1).kind == "Hyperbolic"
          and analysis.classify(5e-13).kind == "Parabolic")
    ok = ok and abs(analysis.escape_speed(0.25) - 0.5) == 0.0 and analysis.escape_speed(0.0) == 0.0
    return _record(0.0 if ok else 1.0, 0.5)


def check_level_set():
    a = 4.0 * config.ring_radius(3)
    pts = analysis.level_set_sample(-1.0, 1e-3, a, (-4.0, 4.0), (-3.0, 3.0), 161)
    as_set = {(x, y) for x, y in pts}
    sym = all((-x, y) in as_set and (x, -y) in as_set and (-x, -y) in as_set for x, y in as_set)
    # a set that is not mirror-symmetric fails; otherwise the tolerance decides
    return _record([abs(regularized.gamma_reduced(p, -1.0, 1e-3, a)) for p in pts], 1e-10,
                   passed=None if sym else False,
                   detail=f"{len(pts)} points, mirror-symmetric: {sym}")


def check_kepler1d():
    rep = analysis.kepler1d_validation(-0.5, 1.0)
    passed = (rep["energy_relation_residual"] < 1e-9
              and rep["collision_speed_max_dev"] < 1e-8
              and abs(rep["omega_sq_measured"] / rep["omega_sq_expected"] - 1.0) < 1e-6
              and rep["fft_peak_ratio"] > 1e3
              and abs(rep["x_turning_measured"] - rep["x_turning_expected"]) < 1e-5)
    return _record(rep["energy_relation_residual"], 1e-9, passed=passed,
                   detail=f"speed dev {rep['collision_speed_max_dev']:.2e}, "
                          f"omega_sq ratio {rep['omega_sq_measured'] / rep['omega_sq_expected']:.9f}, "
                          f"fft ratio {rep['fft_peak_ratio']:.1e}")


CHECKS = [
    ("symplectic.relative_map", check_relative_map_symplectic),
    ("symplectic.euler_roundtrip", check_euler_roundtrip),
    ("symplectic.chart_jacobian", check_chart_jacobian_defect),
    ("config.ring_radius", check_ring_radius),
    ("config.mass_roundtrip", check_mass_roundtrip),
    ("config.positions_center", check_positions_center),
    ("physical.axis_invariance", check_axis_invariance),
    ("physical.field_gradient", check_field_gradient),
    ("physical.general_equivalence", check_general_equivalence),
    ("physical.energy_conservation", check_energy_conservation),
    ("regularized.defining_identity", check_defining_identity),
    ("regularized.zero_set", check_zero_set),
    ("regularized.chart_roundtrip", check_chart_roundtrip),
    ("regularized.collision_regularity", check_collision_regularity),
    ("regularized.collision_momentum", check_collision_momentum),
    ("regularized.invariant_plane_field", check_invariant_plane_field),
    ("regularized.reflection_symmetry", check_reflection_symmetry),
    ("regularized.field_gradient", check_regularized_field_gradient),
    ("regularized.reduced_restriction", check_reduced_restriction),
    ("regularized.reduced_chain_rule", check_reduced_chain_rule),
    ("integrators.step_symplectic", check_step_symplectic),
    ("integrators.reversibility", check_reversibility),
    ("integrators.gamma_conservation", check_gamma_conservation),
    ("integrators.monotone_clocks", check_monotone_clocks),
    ("analysis.turning_monotone", check_turning_monotone),
    ("analysis.period_agreement", check_period_agreement),
    ("analysis.first_integral", check_first_integral),
    ("analysis.classify", check_classify),
    ("analysis.level_set", check_level_set),
    ("analysis.kepler1d", check_kepler1d),
]


# the checks that march, through integrators.integrate or the physical
# oracle; run_checks keeps them in the calling process
MARCHING = frozenset({
    "physical.energy_conservation",
    "integrators.step_symplectic",
    "integrators.reversibility",
    "integrators.gamma_conservation",
    "integrators.monotone_clocks",
    "analysis.period_agreement",
    "analysis.first_integral",
    "analysis.kepler1d",
})


def _serve(checks, outbox):
    """The helper's loop: run checks, a list of (name, check), and write one
    line of JSON [name, record] to the pipe's write end outbox as each check
    returns, and nothing else anywhere; stop at a check that raises.  JSON
    carries every float exactly (repr, with NaN and Infinity)."""
    with open(outbox, "wb") as out:
        for name, fn in checks:
            out.write(json.dumps([name, fn()]).encode() + b"\n")
            out.flush()


def run_checks(name_filter: str | None = None) -> dict:
    """Run the (optionally filtered) suite; returns the JSON-ready report.

    The checks that do not march run in a helper process (_serve, forked
    by integrators._Helper) while this process runs the ones that do.  A
    check the helper did not deliver runs here, in the order of CHECKS, as
    does every check where no helper is forked; a check that raised in the
    helper raises here in turn.  The report is the same either way.
    """
    selected = [(name, fn) for name, fn in CHECKS if name_filter is None or name_filter in name]
    if not selected:
        raise ParameterError(f"the filter {name_filter!r} selects no check")
    marching = [(name, fn) for name, fn in selected if name in MARCHING]
    aside = [(name, fn) for name, fn in selected if name not in MARCHING]
    records = {}  # name -> record, or the exception its check raised
    if marching and aside:
        inbox, outbox = os.pipe()
        with open(inbox, "rb") as replies:
            try:
                helper = integrators._Helper(lambda: _serve(aside, outbox))
            finally:
                os.close(outbox)  # so that the helper's leaving ends the pipe
            with helper:
                if helper.pid is not None:
                    for name, fn in marching:
                        try:
                            records[name] = fn()
                        except Exception as exc:  # raised below, after any check before it
                            records[name] = exc
                            break
                    # a cut-off last line is not a record
                    lines = replies.read().split(b"\n")[:-1]
                    helper.join()
                    records.update(json.loads(line) for line in lines)
    results = []
    for name, fn in selected:
        rec = records[name] if name in records else fn()
        if isinstance(rec, Exception):
            raise rec
        results.append({"name": name, **rec})
    return {
        "schema": 1,
        "all_passed": all(r["passed"] for r in results),
        "checks": results,
    }
