import math

import numpy as np
import pytest

from collreg import (
    CollisionError,
    MassParams,
    RingConfig,
    canonical_form,
    hamiltonian,
    infinitesimal_accel_3d,
    integrate_physical_oracle,
    physical_field,
    potential,
)
from collreg.analysis import momentum_profile
from collreg.config import primary_positions_3d
from collreg.errors import ParameterError, StepFailure
from collreg.physical import make_physical_rhs


def test_potential_symmetric_massless_limit():
    ring = RingConfig.for_count(2)
    params = MassParams(m=1e-12, epsilon=0.0)
    q = 0.8
    v = potential([q, -q, 0.0, 0.0], params, ring)
    assert abs(v - 2.0 / math.sqrt(q * q + ring.radius**2)) < 1e-11


def test_potential_direct_value():
    ring = RingConfig.for_count(2)
    params = MassParams(m=1e-3, epsilon=0.0)
    v = potential([1.0, -1.0, 0.0, 0.0], params, ring)
    assert abs(v - (2.0 / math.sqrt(1.25) + 1e-3 / 2.0)) < 1e-15


def test_potential_diverges_at_collision():
    ring = RingConfig.for_count(2)
    params = MassParams(m=1e-3, epsilon=0.0)
    vals = [potential([d / 2.0, -d / 2.0, 0.0, 0.0], params, ring)
            for d in (1e-2, 1e-4, 1e-6)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 1e2


def test_potential_ordering_error():
    ring = RingConfig.for_count(2)
    params = MassParams(m=1e-3, epsilon=0.0)
    with pytest.raises(CollisionError):
        potential([0.0, 0.0, 0.0, 0.0], params, ring)
    with pytest.raises(CollisionError):
        potential([-1.0, 1.0, 0.0, 0.0], params, ring)


def test_hamiltonian_direct_value():
    ring = RingConfig.for_count(2)
    params = MassParams(m=1e-3, epsilon=0.0)
    hval = hamiltonian([1.0, -1.0, 0.0, 0.0], params, ring)
    assert abs(hval - (-2.0 / math.sqrt(1.25) - 5e-4)) < 1e-15


def test_hamiltonian_symmetric_reduction():
    # H(q, -q, p, -p) at eps=0 equals p^2 - 2/sqrt(q^2+r^2) - m/(2q), twice
    # the half-energy of the one-degree-of-freedom symmetric problem
    ring = RingConfig.for_count(3)
    params = MassParams(m=1e-3, epsilon=0.0)
    rng = np.random.default_rng(23)
    for _ in range(25):
        q = rng.uniform(0.05, 4.0)
        p = rng.uniform(-3.0, 3.0)
        expect = p * p - 2.0 / math.sqrt(q * q + ring.radius**2) - params.m / (2.0 * q)
        assert abs(hamiltonian([q, -q, p, -p], params, ring) - expect) < 1e-13


def test_hamiltonian_rest_states():
    ring = RingConfig.for_count(4)
    params = MassParams(m=1e-3, epsilon=0.4)
    y = [0.7, -0.2, 0.0, 0.0]
    assert hamiltonian(y, params, ring) == -potential(y, params, ring)


def test_field_symmetry_and_pair_cancellation():
    ring = RingConfig.for_count(2)
    params = MassParams(m=1e-3, epsilon=0.0)
    f = physical_field([0.9, -0.9, 0.4, -0.4], params, ring)
    assert abs(f[2] + f[3]) < 1e-18  # mutual forces cancel pairwise, ring is odd
    # body at the plane feels no ring force
    f0 = physical_field([0.0 + 1e-300, -1.0, 0.0, 0.0], params, ring)
    assert abs(f0[2] + params.m / 1.0) < 1e-12  # only the mutual term survives


def test_field_sum_is_ring_only():
    ring = RingConfig.for_count(5)
    params = MassParams(m=1e-2, epsilon=0.35)
    rng = np.random.default_rng(29)
    for _ in range(20):
        q2 = rng.uniform(-2.0, 1.0)
        q1 = q2 + rng.uniform(0.1, 3.0)
        y = [q1, q2, rng.uniform(-2, 2), rng.uniform(-2, 2)]
        f = physical_field(y, params, ring)
        r2 = ring.radius**2
        ring_only = (
            -(1 + params.epsilon) * q1 / (q1 * q1 + r2) ** 1.5
            - (1 - params.epsilon) * q2 / (q2 * q2 + r2) ** 1.5
        )
        assert abs((f[2] + f[3]) - ring_only) < 1e-14


def test_field_is_symplectic_gradient():
    ring = RingConfig.for_count(3)
    params = MassParams(m=1e-3, epsilon=0.2)
    omega = canonical_form(4)
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        q2 = rng.uniform(-2.0, 1.0)
        q1 = q2 + rng.uniform(0.3, 3.0)
        y = np.array([q1, q2, rng.uniform(-2, 2), rng.uniform(-2, 2)])
        s = 1e-6
        grad = np.zeros(4)
        for k in range(4):
            e = np.zeros(4)
            e[k] = s
            grad[k] = (hamiltonian(y + e, params, ring)
                       - hamiltonian(y - e, params, ring)) / (2 * s)
        worst = max(worst, float(np.max(np.abs(omega @ grad - physical_field(y, params, ring)))))
    assert worst < 1e-7


def test_accel_3d_closed_form():
    ring = RingConfig.for_count(3)
    a = infinitesimal_accel_3d(1.0, ring)
    # z^2 + r^2 = 4/3 so the axial pull is -(3/4)^(3/2) = -3 sqrt(3) / 8
    assert abs(a[2] + 3.0 * math.sqrt(3.0) / 8.0) < 1e-14
    assert abs(a[0]) < 1e-15 and abs(a[1]) < 1e-15


def test_accel_3d_transverse_cancellation():
    rng = np.random.default_rng(41)
    for N in range(2, 10):
        ring = RingConfig.for_count(N)
        for z in rng.uniform(-5.0, 5.0, 12):
            for phase in rng.uniform(0.0, 2.0 * math.pi, 3):
                a = infinitesimal_accel_3d(z, ring, phase)
                assert abs(a[0]) < 1e-13 and abs(a[1]) < 1e-13
                assert abs(a[2] + z / (z * z + ring.radius**2) ** 1.5) < 1e-13


def _accel_reference(z, ring, phase):
    """The acceleration summed vertex by vertex, one 3-vector at a time."""
    acc = np.zeros(3)
    for pos in primary_positions_3d(ring, phase):
        dv = np.array([0.0, 0.0, z]) - pos
        acc -= ring.primary_mass * dv / np.dot(dv, dv) ** 1.5
    return acc


def test_accel_3d_on_arrays_equals_one_call_per_sample():
    rng = np.random.default_rng(43)
    for N in (2, 3, 7):
        ring = RingConfig.for_count(N)
        z = rng.uniform(-5.0, 5.0, 6)
        phase = rng.uniform(0.0, 2.0 * math.pi, (6, 4))
        got = infinitesimal_accel_3d(z[:, None], ring, phase)
        assert got.shape == (6, 4, 3)
        for i in range(6):
            for j in range(4):
                one = infinitesimal_accel_3d(float(z[i]), ring, float(phase[i, j]))
                assert one.shape == (3,)
                assert got[i, j].tobytes() == one.tobytes()
                # the same sum in another rounding (np.dot and pow, not
                # products and sqrt); the horizontal components cancel to a
                # few ulp of the O(1) vertex terms
                ref = _accel_reference(float(z[i]), ring, float(phase[i, j]))
                assert np.allclose(one, ref, rtol=1e-14, atol=1e-15)
        # one phase for every height, and one height for every phase
        assert infinitesimal_accel_3d(z, ring, 0.5).tobytes() == \
            infinitesimal_accel_3d(z, ring, np.full(6, 0.5)).tobytes()
        assert infinitesimal_accel_3d(1.5, ring, phase).tobytes() == \
            infinitesimal_accel_3d(np.full((6, 4), 1.5), ring, phase).tobytes()


def test_accel_3d_zero_at_center():
    ring = RingConfig.for_count(7)
    assert np.allclose(infinitesimal_accel_3d(0.0, ring, 0.3), 0.0, atol=1e-15)


def test_oracle_energy_conservation_on_escape():
    # hyperbolic run stays far from collision; the energy drift over ~2000
    # time units bounds the oracle's fidelity
    ring = RingConfig.for_count(2)
    params = MassParams(m=1e-3, epsilon=0.0)
    q0 = 1.0
    p0 = momentum_profile(q0, 0.25, params.m, ring.radius)
    traj = integrate_physical_oracle([q0, -q0, p0, -p0], 1e6, params, ring, stop_at_q=1e3)
    assert traj.metadata["energy_drift"] < 1e-9
    assert any(e.kind == "escape_threshold" for e in traj.events)


def _dop853(y0, t_span, params, ring, stop_at_q=None):
    """The physical oracle's run by scipy's DOP853 at the oracle's
    tolerances, its events by scipy's root finder on the dense output:
    (t_end, final state, [(kind, detail)])."""
    from scipy.integrate import solve_ivp

    rhs = make_physical_rhs(params, ring)

    def proximity(_, y):
        return (y[0] - y[1]) - 1e-4

    def escape(_, y):
        return max(y[0], -y[1]) - stop_at_q

    proximity.terminal = escape.terminal = True
    proximity.direction, escape.direction = -1.0, 1.0
    sol = solve_ivp(lambda _, y: rhs(tuple(y)), (0.0, t_span), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14,
                    events=[proximity] + ([escape] if stop_at_q is not None else []))
    assert sol.status == 1
    y = sol.y[:, -1]
    kind = "collision" if len(sol.t_events[0]) else "escape_threshold"
    detail = "proximity_abort" if kind == "collision" else (
        "body 2" if -y[1] > y[0] else None)
    return sol.t[-1], y, [(kind, detail)]


@pytest.mark.parametrize("N, epsilon, h, start, stop_at_q", [
    # collreg verify's escape: both secondaries reach |q| = 1e3 at t ~ 1958
    (2, 0.0, 0.25, None, 1e3),
    # two collision orbits, each ending at the proximity guard at t ~ 1.8
    (3, 0.0, None, [1.0, -1.0, 0.1, -0.1], None),
    (3, 0.3, None, [1.0, -1.0, 0.1, -0.1], None),
], ids=["escape", "collision-eps0", "collision-eps0.3"])
def test_oracle_agrees_with_dop853(N, epsilon, h, start, stop_at_q):
    # the Gragg-Bulirsch-Stoer oracle and scipy's Runge-Kutta pair, at the
    # same tolerances, end their runs at the same event, time and state
    params, ring = MassParams(m=1e-3, epsilon=epsilon), RingConfig.for_count(N)
    if start is None:
        p0 = momentum_profile(1.0, h, params.m, ring.radius)
        start = [1.0, -1.0, p0, -p0]
    traj = integrate_physical_oracle(start, 1e6, params, ring, stop_at_q=stop_at_q)
    t_end, y_end, events = _dop853(start, 1e6, params, ring, stop_at_q)
    assert [(e.kind, e.detail) for e in traj.events] == events
    assert traj.events[0].state == tuple(traj.states[-1]) and traj.events[0].t == traj.t[-1]
    assert abs(traj.t[-1] - t_end) <= 1e-10 * t_end
    assert np.max(np.abs(traj.states[-1] - y_end)) <= 1e-10
    if stop_at_q is not None:
        assert traj.metadata["energy_drift"] < 1e-9


def test_oracle_fails_where_its_field_goes_non_finite(monkeypatch):
    # a field that is NaN from q1 = 5 on fails every step that reaches it:
    # the step shrinks to the spacing of floats, and the run is a StepFailure
    from collreg import integrators, physical

    def make(params, ring):
        rhs = physical.make_physical_rhs(params, ring)
        return lambda y: rhs(y) if y[0] < 5.0 else (math.nan,) * 4

    monkeypatch.setattr(integrators, "make_physical_rhs", make)
    with pytest.raises(StepFailure, match="its step fell below the spacing of floats"):
        integrate_physical_oracle([1.0, -1.0, 1.5, -1.5], 100.0, MassParams(m=1e-3),
                                  RingConfig.for_count(2))


def test_oracle_refuses_a_negative_or_infinite_span():
    params, ring = MassParams(m=1e-3, epsilon=0.0), RingConfig.for_count(2)
    for span in (-1.0, math.inf, math.nan):
        with pytest.raises(ParameterError, match="span must be nonnegative and finite"):
            integrate_physical_oracle([1.0, -1.0, 0.5, -0.5], span, params, ring)
    # a span of 0 is the start alone
    traj = integrate_physical_oracle([1.0, -1.0, 0.5, -0.5], 0.0, params, ring)
    assert traj.t.tolist() == [0.0] and traj.states.tolist() == [[1.0, -1.0, 0.5, -0.5]]


def test_oracle_proximity_abort_on_collision_orbit():
    ring = RingConfig.for_count(2)
    params = MassParams(m=1e-3, epsilon=0.0)
    q0 = 1.0
    p0 = -momentum_profile(q0, -1.0, params.m, ring.radius)  # falling inward
    traj = integrate_physical_oracle(
        [q0, -q0, p0, -p0], 100.0, params, ring)
    aborts = [e for e in traj.events if e.detail == "proximity_abort"]
    assert len(aborts) == 1
    e = aborts[0]
    assert abs((e.state[0] - e.state[1]) - 1e-4) < 1e-10
    # a start already inside the guard is refused before the oracle starts
    with pytest.raises(CollisionError, match="already inside the guard 0.0001"):
        integrate_physical_oracle([5e-5, -4e-5, p0, -p0], 1.0, params, ring)
