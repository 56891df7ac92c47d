"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines with their measured values; every tolerance is pinned here.
"""

import math

import numpy as np

from collreg import (
    IntegratorConfig,
    MassParams,
    RingConfig,
    bp_radius,
    build_relative_map,
    canonical_form,
    fd_jacobian,
    hamiltonian,
    infinitesimal_accel_3d,
    integrate,
    integrate_physical_oracle,
    kepler1d_validation,
    level_set_sample,
    period,
    ring_radius,
    symplectic_defect,
)
from collreg.analysis import momentum_profile
from collreg.physical import make_physical_rhs, physical_field
from collreg.regularized import (
    Problem,
    chart_to_physical,
    collision_momentum,
    gamma,
    gamma_reduced,
    project_to_level,
    reduced_field,
    reduced_level_momentum,
    regularized_field,
    time_scale,
)


def report(num, name, passed, detail):
    print(f"criterion {num:2d} [{name}]: {'PASS' if passed else 'FAIL'}  ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


def test_criterion_01_symplecticity_suite():
    rng = np.random.default_rng(1)
    worst_b = max(
        symplectic_defect(build_relative_map(mu)) for mu in rng.uniform(1e-9, 0.5, 100)
    )
    worst_chart = 0.0
    for eps in (0.0, 0.25, 0.5, 0.9):
        params = MassParams(m=1e-3, epsilon=eps)
        for _ in range(25):
            z = np.array([
                rng.uniform(0.1, 3.0) * rng.choice([-1.0, 1.0]),
                rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2),
            ])
            jac = fd_jacobian(lambda w: chart_to_physical(w, params), z, step=1e-6)
            worst_chart = max(worst_chart, symplectic_defect(jac))
    report(1, "symplecticity", worst_b < 1e-12 and worst_chart < 1e-6,
           f"relative-map defect {worst_b:.2e} < 1e-12, chart FD defect {worst_chart:.2e} < 1e-6")


def test_criterion_02_radius_formulas():
    d2 = abs(ring_radius(2) - 0.5)
    d3 = abs(ring_radius(3) - 3.0 ** -0.5)
    dbp = abs(ring_radius(3) - bp_radius(3))
    report(2, "ring radii", d2 < 1e-12 and d3 < 1e-12 and dbp < 1e-12,
           f"r(2) err {d2:.1e}, r(3) err {d3:.1e}, r(3)-csc/2 {dbp:.1e}, all < 1e-12")


def test_criterion_03_axis_invariance():
    rng = np.random.default_rng(3)
    worst = 0.0
    for N in range(2, 10):
        ring = RingConfig.for_count(N)
        for z in rng.uniform(-5.0, 5.0, 50):
            for phase in rng.uniform(0.0, 2.0 * math.pi, 10):
                a = infinitesimal_accel_3d(z, ring, phase)
                worst = max(worst, abs(a[0]), abs(a[1]))
    report(3, "axis invariance", worst < 1e-13,
           f"max transverse accel {worst:.2e} < 1e-13 over N=2..9, 50 z, 10 phases")


def test_criterion_04_defining_identity():
    rng = np.random.default_rng(4)
    worst = 0.0
    for eps in (0.0, 0.25, 0.5, 0.9):
        params = MassParams(m=1e-3, epsilon=eps)
        for N in (2, 3, 4, 8):
            ring = RingConfig.for_count(N)
            for _ in range(1000):
                z = np.array([
                    rng.uniform(0.3, 2.5) * rng.choice([-1.0, 1.0]),
                    rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2),
                ])
                h = rng.uniform(-2.0, 1.0)
                lhs = gamma(z, h, params, ring)
                rhs = time_scale(z, params) * (
                    hamiltonian(chart_to_physical(z, params), params, ring) - h)
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    report(4, "defining identity", worst < 1e-12,
           f"max |Gamma - g(H-h)| {worst:.2e} < 1e-12 over 10^3 states x 4 eps x 4 N")


def test_criterion_05_field_arbitration():
    rng = np.random.default_rng(5)
    params = MassParams(m=1e-3, epsilon=0.0)
    ring = RingConfig.for_count(3)
    a, r, m = 4.0 * ring.radius, ring.radius, params.m
    h = -1.0
    omega = canonical_form(2)
    worst_fd = worst_restrict = worst_chain = 0.0
    for _ in range(100):
        Q1, P1 = rng.uniform(-2.5, 2.5, 2)
        s = np.array([Q1, P1])
        # oracle 1: finite-difference symplectic gradient of gamma_reduced
        step = 1e-6
        grad = np.array([
            (gamma_reduced(s + [step, 0], h, m, a) - gamma_reduced(s - [step, 0], h, m, a)),
            (gamma_reduced(s + [0, step], h, m, a) - gamma_reduced(s - [0, step], h, m, a)),
        ]) / (2 * step)
        worst_fd = max(worst_fd, float(np.max(np.abs(omega @ grad - reduced_field(s, h, a)))))
        # oracle 2: restriction of the full field to the invariant plane
        f4 = regularized_field([Q1, 0.0, P1, 0.0], h, params, ring)
        f2 = reduced_field(s, h, a)
        worst_restrict = max(worst_restrict, abs(f4[0] - f2[0]), abs(f4[2] - f2[1]))
    for _ in range(100):
        # oracle 3: chain rule back to the physical force, on the level set
        Q1 = rng.uniform(0.2, 2.4)
        P1 = reduced_level_momentum(Q1, h, m, a) * rng.choice([-1.0, 1.0])
        dQ1, dP1 = reduced_field([Q1, P1], h, a)
        q = 0.25 * Q1 * Q1
        pdot_chain = (dP1 / Q1 - P1 * dQ1 / (Q1 * Q1)) / (0.5 * Q1 * Q1)
        pdot_phys = -q / (q * q + r * r) ** 1.5 - m / (4.0 * q * q)
        worst_chain = max(worst_chain, abs(pdot_chain - pdot_phys))
    passed = worst_fd < 1e-7 and worst_restrict < 1e-13 and worst_chain < 1e-10
    report(5, "field arbitration", passed,
           f"FD gradient {worst_fd:.2e} < 1e-7, restriction {worst_restrict:.2e} < 1e-13, "
           f"chain rule {worst_chain:.2e} < 1e-10")


def test_criterion_06_collision_transit():
    # reduced run: h=-1, m=1e-3, N=2, dtau=1e-3, 1e5 steps, started at the
    # collision state; the invariant is read at the collision passages
    # (matched phase points), where the symplectic integrator's bounded
    # oscillation cancels and only genuine drift would remain
    ring = RingConfig.for_count(2)
    m, h = 1e-3, -1.0
    a = 4.0 * ring.radius
    rhs = Problem.reduced(h, m, a).field
    cfg = IntegratorConfig(step=1e-3, newton_tol=1e-14)
    traj = integrate(rhs, (0.0, math.sqrt(2.0 * m)), 100.0, cfg,
                     time_scale=lambda Q1: 0.5 * Q1 * Q1,
                     invariant=Problem.reduced(h, m, a).gamma)
    evs = traj.collision_events()
    pc = math.sqrt(2.0 * m)
    drift = max(abs(gamma_reduced(e.state, h, m, a)) for e in evs)
    pdev = max(abs(abs(e.state[1]) - pc) for e in evs)
    ok_reduced = len(evs) >= 10 and drift < 1e-8 and pdev < 1e-6

    # full system at eps=0.3 on a deeper level where both bodies stay bound
    # through repeated bounces
    params = MassParams(m=m, epsilon=0.3)
    h2 = -2.5
    pc2 = collision_momentum(params)
    p4 = Problem.sitnikov(h2, params, ring)
    traj4 = integrate(p4.field, (0.0, 0.0, pc2, 0.0), 100.0, cfg, time_scale=p4.clock)
    evs4 = traj4.collision_events()
    pdev4 = max(abs(abs(e.state[2]) - pc2) for e in evs4)
    ok_full = len(evs4) >= 3 and pdev4 < 1e-6
    report(6, "collision transit", ok_reduced and ok_full,
           f"reduced: {len(evs)} passages, invariant drift {drift:.2e} < 1e-8, "
           f"|P1|-sqrt(2m) {pdev:.2e} < 1e-6 (bounded oscillation "
           f"{traj.metadata['invariant_max']:.2e}); "
           f"eps=0.3: {len(evs4)} passages, |P1|-(1-eps^2)sqrt(2m) {pdev4:.2e} < 1e-6")


def test_criterion_07_cross_chart_equivalence():
    params = MassParams(m=1e-3, epsilon=0.2)
    ring = RingConfig.for_count(3)
    h = -1.0
    z0 = project_to_level([2.2, 0.05, -1.0, 0.1], h, params, ring)
    y0 = chart_to_physical(z0, params)
    oracle = integrate_physical_oracle(y0, 50.0, params, ring)
    t_abort = float(oracle.t[-1])
    aborted = any(e.detail == "proximity_abort" for e in oracle.events)
    # the oracle's steps are long; the states between them come from scipy's
    # DOP853 with its continuous extension, at the oracle's tolerances
    from scipy.integrate import solve_ivp

    rhs = make_physical_rhs(params, ring)
    dense = solve_ivp(lambda _, y: rhs(tuple(y)), (0.0, t_abort), y0, method="DOP853",
                      rtol=1e-12, atol=1e-14, dense_output=True).sol
    p = Problem.sitnikov(h, params, ring)
    traj = integrate(p.field, z0, 6.0, IntegratorConfig(step=1e-4, newton_tol=1e-14),
                     time_scale=p.clock)
    worst, count = 0.0, 0
    for k in range(0, len(traj), 50):
        t = float(traj.t[k])
        if t >= t_abort:
            break
        yq = chart_to_physical(traj.states[k], params)
        yo = dense(t)
        worst = max(worst, abs(yq[0] - yo[0]), abs(yq[1] - yo[1]))
        count += 1
    passed = aborted and count > 300 and worst < 1e-6
    report(7, "cross-chart equivalence", passed,
           f"oracle aborts at t={t_abort:.4f}; positions agree to {worst:.2e} < 1e-6 "
           f"at {count} matched times")


def test_criterion_08_dynamics_proposition():
    ring = RingConfig.for_count(3)
    m = 1e-3
    a = 4.0 * ring.radius
    # h < 0: periodic return after one fictitious-time loop of the double cover
    h = -1.0
    rhs = Problem.reduced(h, m, a).field
    y0 = (0.0, math.sqrt(2.0 * m))
    probe = integrate(rhs, y0, 60.0, IntegratorConfig(step=2e-4, newton_tol=1e-14),
                      stop_after=1)
    tau_loop = 2.0 * probe.collision_events()[0].tau
    closed = integrate(rhs, y0, tau_loop, IntegratorConfig(step=2e-4, newton_tol=1e-14))
    ret = float(np.max(np.abs(closed.states[-1] - np.array(y0))))
    ok_periodic = ret < 1e-6

    # h = 0: parabolic escape, terminal speed below 0.05 and still decreasing
    ring2 = RingConfig.for_count(2)
    p0 = momentum_profile(1.0, 0.0, m, ring2.radius)
    par = integrate_physical_oracle([1.0, -1.0, p0, -p0], 1e6, MassParams(m=m), ring2,
                                    stop_at_q=1e3)
    speeds = par.states[-6:, 2]
    ok_parabolic = speeds[-1] < 0.05 and all(np.diff(speeds) < 0.0)

    # h = 0.25: the momentum profile is a first integral along the run and the
    # terminal speed approaches sqrt(h)
    p0 = momentum_profile(1.0, 0.25, m, ring2.radius)
    hyp = integrate_physical_oracle([1.0, -1.0, p0, -p0], 1e6, MassParams(m=m), ring2,
                                    stop_at_q=1e3)
    dev = max(abs(p - momentum_profile(q, 0.25, m, ring2.radius))
              for q, p in zip(hyp.states[:, 0], hyp.states[:, 2]))
    ok_hyperbolic = dev < 1e-9 and abs(hyp.states[-1][2] - 0.5) / 0.5 < 5e-3
    report(8, "dynamics by energy sign", ok_periodic and ok_parabolic and ok_hyperbolic,
           f"h=-1 return {ret:.2e} < 1e-6; h=0 terminal speed {speeds[-1]:.4f} < 0.05 "
           f"decreasing; h=0.25 profile residual {dev:.2e} < 1e-9, "
           f"p(1e3)={hyp.states[-1][2]:.5f} within 0.5% of 0.5")


def test_criterion_09_period_function():
    r = ring_radius(3)
    worst = 0.0
    vals = []
    for h in (-2.0, -1.0, -0.6):
        tq = period(h, 1e-3, r, method="quadrature")
        tf = period(h, 1e-3, r, method="flow", step=2e-4)
        vals.append((h, tq, tf))
        worst = max(worst, abs(tq - tf) / tq)
    report(9, "period function", worst < 1e-5,
           "max rel diff quadrature vs flow "
           + f"{worst:.2e} < 1e-5 over h in (-2,-1,-0.6): "
           + ", ".join(f"T({h})={tq:.6f}" for h, tq, _ in vals))


def test_criterion_10_invariant_plane():
    params = MassParams(m=1e-3, epsilon=0.0)
    ring = RingConfig.for_count(3)
    h = -1.0
    z0 = project_to_level([1.0, 0.0, 1.0, 0.0], h, params, ring)
    assert z0[1] == 0.0 and z0[3] == 0.0
    p = Problem.sitnikov(h, params, ring)
    traj = integrate(p.field, z0, 100.0, IntegratorConfig(step=1e-3, newton_tol=1e-14),
                     time_scale=p.clock)
    worst = float(np.max(np.abs(traj.states[:, [1, 3]])))
    report(10, "invariant plane", worst < 1e-12,
           f"max(|Q2|,|P2|) = {worst:.2e} < 1e-12 over {len(traj) - 1} steps at eps=0")


def test_criterion_11_reversibility_and_symmetry():
    ring = RingConfig.for_count(2)
    m, h = 1e-3, -1.0
    a = 4.0 * ring.radius
    cfg = IntegratorConfig(step=1e-3, newton_tol=1e-15)
    rhs = Problem.reduced(h, m, a).field
    y0 = (0.0, math.sqrt(2.0 * m))
    fwd = integrate(rhs, y0, 20.0, cfg).states[-1]
    back = integrate(rhs, (fwd[0], -fwd[1]), 20.0, cfg).states[-1]
    rev = max(abs(back[0] - y0[0]), abs(-back[1] - y0[1]))

    params = MassParams(m=m, epsilon=0.25)
    ring3 = RingConfig.for_count(3)
    rhs4 = Problem.sitnikov(h, params, ring3).field
    z0 = project_to_level([0.9, 0.1, 1.0, -0.2], h, params, ring3)
    fwd4 = integrate(rhs4, z0, 5.0, cfg).states[-1]
    back4 = integrate(rhs4, fwd4 * np.array([1, 1, -1, -1]), 5.0, cfg).states[-1]
    rev4 = float(np.max(np.abs(back4 * np.array([1, 1, -1, -1]) - z0)))

    pts = level_set_sample(h, m, a, (-4.0, 4.0), (-3.0, 3.0), 201)
    as_set = {(x, y) for x, y in pts}
    sym = all((-x, y) in as_set and (x, -y) in as_set and (-x, -y) in as_set
              for x, y in as_set)
    passed = rev < 1e-8 and rev4 < 1e-8 and sym and len(pts) > 100
    report(11, "reversibility and symmetry", passed,
           f"momentum-flip roundtrip {rev:.2e} (reduced), {rev4:.2e} (full) < 1e-8; "
           f"level set of {len(pts)} points exactly mirror-symmetric: {sym}")


def test_criterion_12_kepler_1d_validation():
    rep = kepler1d_validation(-0.5, 1.0)
    passed = (rep["energy_relation_residual"] < 1e-9
              and rep["collision_speed_max_dev"] < 1e-8)
    report(12, "1d kepler validation", passed,
           f"energy relation residual {rep['energy_relation_residual']:.2e} < 1e-9; "
           f"transit speed dev from 2 sqrt(mu): {rep['collision_speed_max_dev']:.2e} < 1e-8 "
           f"over {rep['collision_count']} transits")
