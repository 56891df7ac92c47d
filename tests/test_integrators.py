import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collreg import (
    Event,
    IntegratorConfig,
    MassParams,
    ParameterError,
    RingConfig,
    StepFailure,
    Trajectory,
    fd_jacobian,
    integrate,
    symplectic_defect,
)
from collreg import integrators
from collreg.integrators import (
    INVARIANT_LIMIT,
    write_events_json,
    write_physical_csv,
    write_regularized_csv,
)
from collreg.physical import hamiltonian, make_physical_rhs
from collreg.regularized import (
    Problem,
    gamma_reduced,
    gamma,
    project_to_level,
    reduced_level_momentum,
)


def oscillator(y):
    return (y[1], -y[0])


def test_midpoint_conserves_quadratic_invariant():
    # the midpoint rule preserves quadratic first integrals exactly, so the
    # oscillator radius stays at 1 up to solver tolerance
    cfg = IntegratorConfig(step=0.1, newton_tol=1e-15)
    y = np.array([1.0, 0.0])
    for _ in range(500):  # one-step marches: each starts from the Euler guess
        y = integrate(oscillator, y, 0.1, cfg).states[-1]
    assert abs(y[0] ** 2 + y[1] ** 2 - 1.0) < 1e-13


def test_midpoint_second_order_richardson():
    ring = RingConfig.for_count(2)
    rhs = Problem.reduced(-1.0, 1e-3, 4.0 * ring.radius).field
    y0 = (0.9, reduced_level_momentum(0.9, -1.0, 1e-3, 4.0 * ring.radius))
    cfg = lambda s: IntegratorConfig(step=s, newton_tol=1e-15)
    ref = integrate(rhs, y0, 1.0, cfg(1e-5)).states[-1]
    e1 = np.max(np.abs(integrate(rhs, y0, 1.0, cfg(4e-3)).states[-1] - ref))
    e2 = np.max(np.abs(integrate(rhs, y0, 1.0, cfg(2e-3)).states[-1] - ref))
    assert 3.5 < e1 / e2 < 4.5


def test_midpoint_step_failure_carries_residual():
    # the sweeps do not contract and the Newton fallback cannot lower the
    # residual of its first iterate either, whatever its damping
    cfg = IntegratorConfig(step=10.0, newton_tol=1e-16)
    stiff = lambda y: (math.sin(100.0 * y[0]) * 50.0, -50.0 * y[0])
    with pytest.raises(StepFailure, match="midpoint Newton damping underflow") as err:
        integrate(stiff, (1.0, 0.0), 10.0, cfg)
    assert math.isfinite(err.value.residual) and err.value.residual > 0.0
    with pytest.raises(StepFailure) as ref:
        _reference_midpoint(stiff, (1.0, 0.0), 10.0, cfg.newton_tol)
    assert err.value.residual == ref.value.residual


def test_midpoint_newton_fallback_handles_moderately_large_steps():
    # a step too large for the fixed-point contraction still converges via
    # the damped Newton path
    cfg = IntegratorConfig(step=1.9, newton_tol=1e-13)
    y = integrate(oscillator, (1.0, 0.0), 1.9, cfg).states[-1]
    # implicit midpoint of the rotation field is the Cayley rotation map
    th = 1.9
    expect = np.array([1.0 - th * th / 4.0, -th]) / (1.0 + th * th / 4.0)
    assert np.max(np.abs(y - expect)) < 1e-12


def test_one_step_map_is_symplectic():
    ring = RingConfig.for_count(2)
    rhs = Problem.reduced(-1.0, 1e-3, 4.0 * ring.radius).field
    cfg = IntegratorConfig(step=1e-3, newton_tol=1e-15)
    rng = np.random.default_rng(109)
    for _ in range(50):
        s0 = rng.uniform(-2, 2, 2)
        jac = fd_jacobian(lambda w: integrate(rhs, w, 1e-3, cfg).states[-1], s0, step=1e-6)
        assert symplectic_defect(jac) < 1e-8


def test_zero_span_single_sample():
    rhs = Problem.reduced(-1.0, 1e-3, 2.0).field
    traj = integrate(rhs, (0.5, 0.1), 0.0, IntegratorConfig(step=1e-3))
    assert len(traj) == 1
    assert traj.tau[0] == 0.0 and traj.t[0] == 0.0


def test_span_validation():
    p = Problem.reduced(-1.0, 1e-3, 2.0)
    for span in (-1.0, math.nan, math.inf, -math.inf):
        field, calls = _counting(p.field)
        with pytest.raises(ParameterError, match="span must be nonnegative and finite"):
            integrate(field, (0.0, 0.05), span, IntegratorConfig(), invariant=p.gamma)
        assert calls[0] == 0  # refused before the first step


def test_a_span_of_more_steps_than_a_float_counts_is_refused():
    # 1e308 / 1e-3 overflows to inf, which no step count can round to
    p = Problem.reduced(-1.0, 1e-3, 2.0)
    field, calls = _counting(p.field)
    with pytest.raises(ParameterError, match="too many steps"):
        integrate(field, (0.0, 0.05), 1e308, IntegratorConfig(step=1e-3), invariant=p.gamma)
    assert calls[0] == 0


def test_reduced_conservation_run_and_collision_momentum():
    # h=-1, m=1e-3, N=2: start at the collision state and watch the invariant
    # at every collision passage; the bounded in-between oscillation is the
    # second-order symplectic signature and is reported, not zero
    ring = RingConfig.for_count(2)
    m, h = 1e-3, -1.0
    a = 4.0 * ring.radius
    rhs = Problem.reduced(h, m, a).field
    cfg = IntegratorConfig(step=1e-3, newton_tol=1e-14)
    traj = integrate(
        rhs, (0.0, math.sqrt(2.0 * m)), 50.0, cfg,
        time_scale=lambda Q1: 0.5 * Q1 * Q1,
        invariant=Problem.reduced(h, m, a).gamma,
    )
    evs = traj.collision_events()
    assert len(evs) >= 6
    pc = math.sqrt(2.0 * m)
    for e in evs:
        assert abs(gamma_reduced(e.state, h, m, a)) < 1e-8
        assert abs(abs(e.state[1]) - pc) < 1e-6
    assert traj.metadata["invariant_max"] < 1e-5


def test_conservation_drift_from_generic_start():
    # started away from the collision, the invariant read at the passages sits
    # at a constant offset of order dtau^2 (the bounded oscillation sampled at
    # a fixed phase); the drift across passages stays at solver-noise level
    ring = RingConfig.for_count(2)
    m, h = 1e-3, -1.0
    a = 4.0 * ring.radius
    rhs = Problem.reduced(h, m, a).field
    y0 = (1.0, reduced_level_momentum(1.0, h, m, a))
    traj = integrate(rhs, y0, 50.0, IntegratorConfig(step=1e-3, newton_tol=1e-14),
                     time_scale=lambda Q1: 0.5 * Q1 * Q1)
    evs = traj.collision_events()
    assert len(evs) >= 5
    g_at = [gamma_reduced(e.state, h, m, a) for e in evs]
    drift = max(abs(v - g_at[0]) for v in g_at)
    assert drift < 1e-8
    assert abs(g_at[0]) < 1e-5  # the offset itself is the method's O(dtau^2)


def test_event_localization_flatness():
    # P1 is quadratically flat in tau at a crossing (its rate carries a Q1
    # factor), so the interpolated event momentum is far more accurate than
    # the step size suggests
    ring = RingConfig.for_count(2)
    m, h = 1e-3, -1.0
    a = 4.0 * ring.radius
    rhs = Problem.reduced(h, m, a).field
    traj = integrate(rhs, (0.0, math.sqrt(2.0 * m)), 16.0,
                     IntegratorConfig(step=1e-3, newton_tol=1e-14),
                     time_scale=lambda Q1: 0.5 * Q1 * Q1)
    e = traj.collision_events()[0]
    assert abs(e.state[0]) < 1e-12
    assert abs(abs(e.state[1]) - math.sqrt(2.0 * m)) < 1e-9


def test_monotone_clocks():
    ring = RingConfig.for_count(2)
    rhs = Problem.reduced(-1.0, 1e-3, 4.0 * ring.radius).field
    traj = integrate(rhs, (0.0, math.sqrt(2e-3)), 20.0,
                     IntegratorConfig(step=1e-3),
                     time_scale=lambda Q1: 0.5 * Q1 * Q1)
    assert np.all(np.diff(traj.tau) > 0.0)
    assert np.all(np.diff(traj.t) >= 0.0)
    # t really does slow to a crawl near the collision passages
    k = np.argmin(np.abs(traj.states[:, 0]))
    k = min(max(k, 1), len(traj) - 2)
    assert traj.t[k + 1] - traj.t[k - 1] < 1e-5


def test_reversibility_roundtrip():
    ring = RingConfig.for_count(2)
    params = MassParams(m=1e-3, epsilon=0.25)
    cfg = IntegratorConfig(step=1e-3, newton_tol=1e-15)
    # reduced, through a collision passage
    rhs2 = Problem.reduced(-1.0, 1e-3, 4.0 * ring.radius).field
    y0 = (0.0, math.sqrt(2e-3))
    fwd = integrate(rhs2, y0, 10.0, cfg).states[-1]
    back = integrate(rhs2, (fwd[0], -fwd[1]), 10.0, cfg).states[-1]
    assert abs(back[0] - y0[0]) < 1e-8 and abs(-back[1] - y0[1]) < 1e-8
    # full system
    ring3 = RingConfig.for_count(3)
    rhs4 = Problem.sitnikov(-1.0, params, ring3).field
    z0 = project_to_level([0.9, 0.1, 1.0, -0.2], -1.0, params, ring3)
    fwd = integrate(rhs4, z0, 3.0, cfg).states[-1]
    back = integrate(rhs4, [fwd[0], fwd[1], -fwd[2], -fwd[3]], 3.0, cfg).states[-1]
    assert np.max(np.abs(back * np.array([1, 1, -1, -1]) - z0)) < 1e-8


def test_nan_abort_carries_partial_trajectory():
    calls = {"n": 0}

    def souring(y):
        calls["n"] += 1
        if calls["n"] > 40:
            return (float("nan"), 0.0)
        return (y[1], -y[0])

    with pytest.raises(StepFailure) as err:
        integrate(souring, (1.0, 0.0), 1.0, IntegratorConfig(step=1e-2))
    assert err.value.trajectory is not None
    assert len(err.value.trajectory) >= 1
    # a failure before a terminal event keeps the trajectory just the same
    calls["n"] = 0
    with pytest.raises(StepFailure) as err:
        integrate(souring, (1.0, 0.0), 10.0, IntegratorConfig(step=1e-2), stop_after=1)
    part = err.value.trajectory
    assert part is not None and len(part) >= 2 and not part.events


def _collision_run(span, **kwargs):
    ring = RingConfig.for_count(2)
    rhs = Problem.reduced(-1.0, 1e-3, 4.0 * ring.radius).field
    cfg = IntegratorConfig(step=1e-3, newton_tol=1e-14)
    return integrate(rhs, (0.0, math.sqrt(2e-3)), span, cfg,
                     time_scale=lambda Q1: 0.5 * Q1 * Q1, **kwargs)


def test_stop_after_ends_at_the_kth_event():
    full = _collision_run(25.0)
    assert len(full.events) == 3
    for k in (1, 2):
        part = _collision_run(25.0, stop_after=k)
        assert len(part.events) == k
        assert part.events == full.events[:k]
        # the run ends on the step that holds the k-th event, and up to there
        # it is the uncut run
        assert part.tau[-2] < part.events[-1].tau <= part.tau[-1]
        n = len(part)
        assert np.array_equal(part.tau, full.tau[:n])
        assert np.array_equal(part.t, full.t[:n])
        assert np.array_equal(part.states, full.states[:n])
    # without per-step samples only the start and the stopping step remain
    sparse = _collision_run(25.0, stop_after=2, record_every=10**9)
    assert len(sparse) == 2
    assert sparse.tau[-1] == part.tau[-1] and np.array_equal(sparse.states[-1], part.states[-1])
    assert [e.tau for e in sparse.events] == [e.tau for e in part.events]


def test_without_stop_after_the_march_covers_the_span():
    traj = _collision_run(20.0, stop_after=None)
    assert len(traj.events) >= 2 and traj.tau[-1] == 20.0
    assert np.array_equal(traj.tau, np.arange(20001) * 1e-3)
    # every state of the reference march: five Euler-guess steps, then every
    # solve seeded from the five states before the latest, newest first
    rhs = Problem.reduced(-1.0, 1e-3, 4.0 * RingConfig.for_count(2).radius).field
    cfg = IntegratorConfig(step=1e-3, newton_tol=1e-14)
    _, _, states, _, _ = _reference_march(rhs, (0.0, math.sqrt(2e-3)), 20.0, cfg,
                                          lambda Q1: 0.5 * Q1 * Q1, lambda y: 0.0)
    assert np.array_equal(traj.states, np.array(states))


def test_stop_after_validation():
    rhs, calls = _counting(Problem.reduced(-1.0, 1e-3, 2.0).field)
    for kwargs in ({"stop_after": 0}, {"record_every": 0}, {"record_every": -1}):
        with pytest.raises(ParameterError):
            integrate(rhs, (0.5, 0.1), 1.0, IntegratorConfig(step=1e-2), **kwargs)
    assert calls[0] == 0  # refused before the first step


def test_a_step_landing_on_zero_is_one_event():
    # Q1 runs -0.5, -0.25, 0.0, 0.25, 0.5: the step onto 0 is the event, at
    # its end; the step out of 0 is none
    drift = lambda y: (1.0, 0.0)
    cfg = IntegratorConfig(step=0.25)
    traj = integrate(drift, (-0.5, 0.0), 1.0, cfg)
    assert [(e.tau, e.t, e.state) for e in traj.events] == [(0.5, 0.5, (0.0, 0.0))]
    part = integrate(drift, (-0.5, 0.0), 1.0, cfg, stop_after=1)
    assert len(part.events) == 1 and part.tau[-1] == 0.5 and part.states[-1][0] == 0.0
    # a start on 0 is no event
    assert not integrate(drift, (0.0, 0.0), 1.0, cfg).events


def test_a_crossing_is_located_to_adjacent_floats():
    # on random steps through Q1 = 0, the step's Hermite cubic of Q1 is 0 at
    # the s returned, or changes sign between s and a neighbouring float
    rng = np.random.default_rng(29)
    for _ in range(500):
        side = rng.choice((-1.0, 1.0))
        ya, yb = float(side * rng.uniform(0.01, 1.0)), float(-side * rng.uniform(0.01, 1.0))
        fa, fb = (float(v) for v in rng.uniform(-2.0, 2.0, 2))
        dstep = float(rng.uniform(1e-3, 0.5))
        s = integrators._locate_crossing((ya,), (yb,), (fa,), (fb,), dstep)
        signs = {np.sign(integrators._hermite_eval(x, ya, yb, dstep * fa, dstep * fb))
                 for x in (np.nextafter(s, 0.0), s, np.nextafter(s, 1.0))}
        assert 0.0 < s < 1.0 and (0.0 in signs or signs == {-1.0, 1.0})


def test_an_event_is_dated_by_the_clock_of_its_samples():
    # the step onto 0 ends at the event, so both carry the same t
    drift = lambda y: (1.0, 0.0)
    traj = integrate(drift, (-0.5, 0.0), 1.0, IntegratorConfig(step=0.25),
                     time_scale=lambda q: q * q)
    (ev,) = traj.events
    assert ev.tau == traj.tau[2] == 0.5
    assert ev.t == traj.t[2] == 0.0390625
    # each event's t lies between the samples around it
    a = 4.0 * RingConfig.for_count(2).radius
    p = Problem.reduced(-1.0, 1e-3, a)
    traj = integrate(p.field, (0.0, math.sqrt(2e-3)), 40.0, IntegratorConfig(step=1e-3),
                     time_scale=p.clock)
    assert len(traj.events) >= 5
    for ev in traj.events:
        assert traj.t[ev.index] <= ev.t <= traj.t[ev.index + 1]


def test_leaving_the_invariant_level_fails():
    # an anti-damped oscillator: its energy grows like exp(0.1 tau)
    pumped = lambda y: (y[1], -y[0] + 0.1 * y[1])
    energy = lambda y: 0.5 * (y[0] * y[0] + y[1] * y[1]) - 0.5
    with pytest.raises(StepFailure) as err:
        integrate(pumped, (1.0, 0.0), 1.0, IntegratorConfig(step=1e-3), invariant=energy)
    part = err.value.trajectory
    assert part is not None and part.metadata["invariant_max"] > INVARIANT_LIMIT
    # the march stops at the first sample past the limit
    levels = [abs(energy(s)) for s in part.states]
    assert levels[-1] > INVARIANT_LIMIT >= max(levels[:-1])
    # a bounded run on the same clock passes
    integrate(oscillator, (1.0, 0.0), 1.0, IntegratorConfig(step=1e-3), invariant=energy)


# the sample k the guard trips at, the state size n and record_every; the
# 2-D cases that record every sample are named by k alone
@pytest.mark.parametrize("k, n, record_every", [
    pytest.param(k, n, r, id=str(k) if (n, r) == (2, 1) else f"{k}-{n}d-every{r}")
    for n, r in ((2, 1), (2, 3), (4, 1), (4, 3)) for k in (0, 1, 4095, 4096, 4097, 8191)])
def test_the_level_guard_cuts_at_the_first_sample_over_the_limit(k, n, record_every):
    # x' = 1 from 0 at dtau = 1 makes x the step index, and so record_every
    # times the sample index; the invariant leaves its level at sample k, on
    # either side of a block boundary of the guard; sample 0 alone is never
    # tested, so k = 0 trips at sample 1.  Both widths of the march's sample
    # rows are cut
    r = record_every
    invariant = lambda c: np.where(c[0] >= k * r, 0.5, 0.0)
    with pytest.raises(StepFailure) as err:
        integrate(lambda y: (1.0,) + (0.0,) * (n - 1), (0.0,) * n, (k + 5000.0) * r,
                  IntegratorConfig(step=1.0), invariant=invariant, record_every=r)
    cut = max(k, 1)
    assert str(err.value) == (f"|invariant| reached 5.000e-01 at tau={float(cut * r)}, past "
                              f"the limit {INVARIANT_LIMIT:g}: the run has left its level")
    part = err.value.trajectory
    steps = [float(j * r) for j in range(cut + 1)]
    assert len(part) == cut + 1 and part.states.shape == (cut + 1, n)
    assert part.tau.tolist() == part.t.tolist() == part.states[:, 0].tolist() == steps
    assert not part.states[:, 1:].any()
    assert part.invariant.tolist() == [0.5 if x >= k else 0.0 for x in range(cut + 1)]
    assert part.metadata["invariant_max"] == 0.5


@pytest.mark.parametrize("x0, kept", [(-0.0015, 1), (-0.0105, 0)])
def test_the_level_guard_outranks_a_later_failure_in_its_block(x0, kept):
    # v = tau leaves the level at sample 2 (tau = 0.002); the field turns NaN
    # at x = 0.3, a few hundred steps on in the same block of the guard, which
    # runs only when the march has failed.  The run fails as it would with the
    # level checked at every sample: off its level at sample 2, with the
    # collision of step 2 (index 1) kept and that of step 11 (index 10) dropped
    field = lambda y: (1.0, 1.0 if y[0] < 0.3 else math.nan)
    with pytest.raises(StepFailure, match="left its level") as err:
        integrate(field, (x0, 0.0), 1.0, IntegratorConfig(step=1e-3), invariant=lambda c: c[1])
    assert "at tau=0.002," in str(err.value)
    part = err.value.trajectory
    assert len(part) == 3 and part.invariant.tolist() == part.states[:, 1].tolist()
    assert [e.index for e in part.events] == [1] * kept
    # the march's own failure, with no level to leave
    with pytest.raises(StepFailure, match="non-finite"):
        integrate(field, (x0, 0.0), 1.0, IntegratorConfig(step=1e-3))


def _clocked_oscillator(y):
    """An oscillator in (y0, y2), with y1 = tau, a clock that an invariant or
    a failing field can read."""
    return (y[2], 1.0, -y[0], 0.0)


# the midpoint rule turns the oscillator by 2 atan(dtau / 2) a step: from this
# phase y0 changes sign between samples 4095 and 4096, the last step of the
# first block, and then every ~3142 samples
_PHASE = 0.5 * math.pi - 4095.5 * 2.0 * math.atan(0.5e-3)
_ON_CLOCK = (math.cos(_PHASE), 0.0, -math.sin(_PHASE), 0.0)


def _energy(c):
    return 0.5 * (c[0] * c[0] + c[2] * c[2]) - 0.5


@pytest.mark.parametrize("case", ["2d", "4d", "level_guard", "step_failure"])
def test_a_streamed_run_keeps_its_last_block_of_the_unstreamed_run(case):
    # on_block hands each block over and the run then drops it a block
    # later; the blocks add up to the unstreamed run, bit for bit, and the
    # streamed trajectory, returned or raised, is its last block with every
    # event (indices counted from the run's first sample), the run's length
    # and its invariant_max.  The 4-D runs log events on both sides of every
    # block boundary, one in the step that ends the first block; the level
    # guard cuts at sample 13000, in the fourth block, after the march has
    # logged the event at 13520 that the cut drops; the field turns NaN at
    # tau = 11, in the third block
    cfg, kwargs = IntegratorConfig(step=1e-3), {}
    if case == "2d":  # a reduced run, recording every third step
        p = Problem.reduced(-1.0, 1e-3, 4.0 * RingConfig.for_count(2).radius)
        field, y0, span, invariant = p.field, p.project((0.5, -1.0)), 60.0, p.gamma
        kwargs = {"time_scale": p.clock, "record_every": 3}
    else:
        field, y0, span, invariant = _clocked_oscillator, _ON_CLOCK, 25.0, _energy
    if case == "level_guard":
        invariant = lambda c: _energy(c) + np.where(c[1] > 12.9995, 0.5, 0.0)
    elif case == "step_failure":
        field = lambda y: _clocked_oscillator(y) if y[1] < 11.0 else (math.nan,) * 4

    def run(**more):
        try:
            return integrate(field, y0, span, cfg, invariant=invariant, **kwargs, **more), None
        except StepFailure as exc:
            return exc.trajectory, str(exc)

    whole, failure = run()
    blocks = []
    part, streamed_failure = run(on_block=lambda *block: blocks.append(
        [np.array(c) for c in block]))
    assert streamed_failure == failure and (failure is None) == (case in ("2d", "4d"))
    columns = (whole.tau, whole.t, whole.states, whole.invariant)
    for k, c in enumerate(columns):
        assert np.concatenate([b[k] for b in blocks]).tobytes() == c.tobytes()
    assert [len(b[0]) for b in blocks[:-1]] == [integrators.GUARD_BLOCK] * (len(blocks) - 1)
    assert whole.offset == 0 and part.offset == len(whole) - len(blocks[-1][0]) > 0
    assert len(part) == len(whole)
    for k, c in enumerate((part.tau, part.t, part.states, part.invariant)):
        assert c.tobytes() == blocks[-1][k].tobytes() == columns[k][part.offset:].tobytes()
    assert part.events == whole.events
    indices = [e.index for e in whole.events]
    assert len({i // integrators.GUARD_BLOCK for i in indices}) >= 3
    assert case == "2d" or indices[:2] == [953, 4095]
    assert part.metadata == whole.metadata
    assert whole.metadata["invariant_max"] == np.max(np.abs(whole.invariant))
    if case == "level_guard":
        assert len(whole) == 13001 and indices[-1] == 10378
    elif case == "step_failure":
        assert "non-finite" in failure and 10.99 < whole.tau[-1] <= 11.0


def test_a_streamed_march_holds_the_same_memory_whatever_its_span():
    # a streamed march holds at most two blocks of samples: a run four times
    # longer peaks within 0.5 MB of the shorter one, where keeping every
    # sample (40 B on a 2-D march) would cost 2.4 MB more
    import tracemalloc

    p = Problem.reduced(-1.0, 1e-3, 4.0 * RingConfig.for_count(2).radius)
    peaks = []
    for span in (20.0, 80.0):
        tracemalloc.start()
        try:
            traj = integrate(p.field, p.project((0.5, -1.0)), span, IntegratorConfig(step=1e-3),
                             time_scale=p.clock, invariant=p.gamma,
                             on_block=lambda *block: None)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(traj) == 1000 * span + 1
    assert abs(peaks[1] - peaks[0]) < 0.5e6


def _reduced_reference_setup():
    a = 4.0 * RingConfig.for_count(2).radius
    rhs = Problem.reduced(-1.0, 1e-3, a).field
    clock = lambda Q1: 0.5 * Q1 * Q1
    y0 = (0.8, reduced_level_momentum(0.8, -1.0, 1e-3, a))
    traj = integrate(rhs, y0, 2.0, IntegratorConfig(step=1e-4, newton_tol=1e-15),
                     time_scale=clock)
    # the field extended by the clock, so a reference integrates t alongside
    extended = lambda w: (*rhs((w[0], w[1])), clock(w[0]))
    return extended, (*y0, 0.0), traj


def test_integrate_rk4_path_matches_midpoint():
    # the march against a test-local classical RK4 march (dτ = 1e-3) of the
    # field with the clock as an extra component
    extended, w, traj = _reduced_reference_setup()
    d = 1e-3
    for _ in range(2000):
        k1 = extended(w)
        k2 = extended(tuple(w[i] + 0.5 * d * k1[i] for i in range(3)))
        k3 = extended(tuple(w[i] + 0.5 * d * k2[i] for i in range(3)))
        k4 = extended(tuple(w[i] + d * k3[i] for i in range(3)))
        w = tuple(w[i] + d / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
                  for i in range(3))
    assert np.max(np.abs(traj.states[-1] - np.array(w[:2]))) < 1e-7
    assert abs(traj.t[-1] - w[2]) < 1e-6


def test_rk_adaptive_matches_midpoint():
    # the march against scipy's adaptive DOP853 at tight tolerances, with the
    # clock integrated as an extra component
    from scipy.integrate import solve_ivp

    extended, w0, traj = _reduced_reference_setup()
    ref = solve_ivp(lambda _, w: extended(w), (0.0, 2.0), w0,
                    method="DOP853", rtol=1e-12, atol=1e-14)
    assert ref.success
    assert np.max(np.abs(traj.states[-1] - ref.y[:2, -1])) < 1e-7
    assert abs(traj.t[-1] - ref.y[2, -1]) < 1e-6


def test_csv_formats_and_determinism(tmp_path):
    ring = RingConfig.for_count(2)
    params = MassParams(m=1e-3, epsilon=0.0)
    h = -1.0
    a = 4.0 * ring.radius
    rhs = Problem.reduced(h, 1e-3, a).field
    gam = Problem.reduced(h, 1e-3, a).gamma
    traj = integrate(rhs, (0.0, math.sqrt(2e-3)), 1.0,
                     IntegratorConfig(step=1e-3),
                     time_scale=lambda Q1: 0.5 * Q1 * Q1, invariant=gam)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_regularized_csv(traj, p1)
    write_regularized_csv(traj, p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1.startswith(b"tau,t,Q1,Q2,P1,P2,gamma\n")
    assert b"\r" not in b1
    # reduced trajectories embed into the regularized schema with Q2 = P2 = 0
    line = b1.splitlines()[2].split(b",")
    assert line[3] == b"0" and line[5] == b"0"

    ev = tmp_path / "ev.json"
    write_events_json(traj, ev)
    assert ev.read_bytes() == b"[]\n" or b"collision" in ev.read_bytes()

    # physical schema
    from collreg import integrate_physical_oracle
    from collreg.analysis import momentum_profile
    p0 = momentum_profile(1.0, 0.25, params.m, ring.radius)
    tr = integrate_physical_oracle([1.0, -1.0, p0, -p0], 10.0, params, ring)
    pp = tmp_path / "phys.csv"
    write_physical_csv(tr, pp)
    assert pp.read_bytes().startswith(b"t,q1,q2,p1,p2,H\n")


def test_the_invariant_column_holds_one_value_per_sample():
    energy = lambda y: 0.5 * (y[0] * y[0] + y[1] * y[1]) - 0.5
    traj = integrate(oscillator, (1.0, 0.0), 1.0, IntegratorConfig(step=1e-2),
                     invariant=energy, record_every=7)
    assert traj.invariant.tolist() == [energy(tuple(s)) for s in traj.states.tolist()]
    assert traj.metadata["invariant_max"] == max(abs(traj.invariant))
    assert integrate(oscillator, (1.0, 0.0), 1.0, IntegratorConfig(step=1e-2)).invariant is None
    # the physical oracle's column is H at each sample
    from collreg import integrate_physical_oracle
    from collreg.analysis import momentum_profile

    params, ring = MassParams(m=1e-3, epsilon=0.2), RingConfig.for_count(2)
    p0 = momentum_profile(1.0, 0.25, params.m, ring.radius)
    orb = integrate_physical_oracle([1.0, -1.0, p0, -p0], 2.0, params, ring)
    assert orb.invariant.tolist() == [hamiltonian(s, params, ring) for s in orb.states]
    assert orb.metadata["energy_drift"] == abs(orb.invariant[-1] - orb.invariant[0])


def test_writers_refuse_a_trajectory_without_an_invariant(tmp_path):
    traj = Trajectory(tau=np.zeros(2), t=np.zeros(2), states=np.zeros((2, 4)))
    for write in (write_regularized_csv, write_physical_csv):
        with pytest.raises(ParameterError, match="invariant"):
            write(traj, tmp_path / "out.csv")
        assert not (tmp_path / "out.csv").exists()


def test_invalid_method_rejected():
    for method in ("leapfrog", "rk4", "rk_adaptive"):
        with pytest.raises(ParameterError):
            IntegratorConfig(method=method)
    with pytest.raises(ParameterError):
        IntegratorConfig(step=0.0)


def test_the_midpoint_solve_budget_is_no_setting():
    # 9 sweeps after a march's own, then at most 40 Newton iterations
    assert [f.name for f in dataclasses.fields(IntegratorConfig)] == [
        "method", "step", "newton_tol"]
    assert (integrators.SWEEPS, integrators.NEWTON_ITERATIONS) == (9, 40)
    with pytest.raises(TypeError):
        IntegratorConfig(newton_max_iter=50)


# -- the midpoint solve and march against generic references --

def _reference_midpoint(field, y, dstep, tol, guess=None):
    """Generic tuple-comprehension midpoint solve, any state size: the same
    sweeps, stopping test and Newton hand-off as the kernels, started from
    guess, or from the explicit-Euler predictor when guess is None.  The
    first sweep and the 9 after it, then the Newton fallback with its own 40
    iterations."""
    n = len(y)
    if guess is None:
        f0 = field(y)
        yn = tuple(y[k] + dstep * f0[k] for k in range(n))
    else:
        yn = guess
    scale = 1.0 + max(abs(v) for v in y)
    for _ in range(10):
        fm = field(tuple(0.5 * (y[k] + yn[k]) for k in range(n)))
        cand = tuple(y[k] + dstep * fm[k] for k in range(n))
        delta = max(abs(cand[k] - yn[k]) for k in range(n))
        yn = cand
        if delta != delta:
            raise StepFailure("non-finite value", residual=float("nan"))
        if delta <= tol * scale:
            return yn
    return integrators._midpoint_newton(field, y, yn, dstep, tol * scale)


def _counting(field):
    calls = [0]

    def counted(y):
        calls[0] += 1
        return field(y)

    return counted, calls


def _quintic_guess(y, back):
    """6 y - 15 y1 + 20 y2 - 15 y3 + 6 y4 - y5 for back = (y1, ..., y5), in
    the kernels' backward-difference form and operation order."""
    b1, b2, b3, b4, b5 = back
    return tuple(y[k] + (5.0 * ((y[k] - b1[k]) - (b3[k] - b4[k]))
                         - 10.0 * ((b1[k] - b2[k]) - (b2[k] - b3[k])) + (b4[k] - b5[k]))
                 for k in range(len(y)))


def _assert_step_matches_reference(field, y, cfg):
    """A one-step march of integrate, from its Euler guess, against the
    reference solve, in its result and its field evaluations."""
    f_new, n_new = _counting(field)
    f_ref, n_ref = _counting(field)
    y = tuple(map(float, y))
    got = integrate(f_new, y, cfg.step, cfg).states[-1]
    ref = np.array(_reference_midpoint(f_ref, y, cfg.step, cfg.newton_tol))
    assert got.tobytes() == ref.tobytes()
    assert n_new[0] == n_ref[0]


def _reference_march(field, y, span, cfg, clock, invariant, record_every=1, stop_after=None):
    """integrate as a plain loop over state tuples: five Euler-guess solves,
    then every solve seeded by _quintic_guess from the five states before
    the latest; a sign change of Q1 is an event on the step's Hermite
    interpolant, dated by the clock's midpoint rule on each side of it.
    Returns (tau, t, states, invariant column, events) as lists."""
    n_steps = max(int(round(span / cfg.step)), 1)
    dstep = span / n_steps
    march = [tuple(y)]
    taus, ts, states, invs, events = [0.0], [0.0], [march[0]], [invariant(march[0])], []
    t = 0.0
    for i in range(1, n_steps + 1):
        y_prev = march[-1]
        guess = _quintic_guess(y_prev, march[-2:-7:-1]) if i > 5 else None
        y = _reference_midpoint(field, y_prev, dstep, cfg.newton_tol, guess)
        march.append(y)
        if y_prev[0] * y[0] < 0.0 or (y[0] == 0.0 and y_prev[0] != 0.0):
            f_prev, f_next = field(y_prev), field(y)
            s = integrators._locate_crossing(y_prev, y, f_prev, f_next, dstep)
            e = tuple(integrators._hermite_eval(s, y_prev[k], y[k], dstep * f_prev[k],
                                                dstep * f_next[k]) for k in range(len(y)))
            t_e = t + s * dstep * clock(0.5 * (y_prev[0] + e[0]))
            t = t_e + (1.0 - s) * dstep * clock(0.5 * (e[0] + y[0]))
            events.append(Event(len(taus) - 1, "collision", (i - 1 + s) * dstep, t_e, e))
        else:
            t += dstep * clock(0.5 * (y_prev[0] + y[0]))
        stopped = len(events) == stop_after
        if stopped or i % record_every == 0 or i == n_steps:
            taus.append(i * dstep)
            ts.append(t)
            states.append(y)
            invs.append(invariant(y))
            if stopped:
                break
    return taus, ts, states, invs, events


def test_midpoint_kernels_match_the_generic_solve_bit_for_bit():
    rng = np.random.default_rng(71)
    reduced = Problem.reduced(-1.0, 1e-3, 4.0 * RingConfig.for_count(2).radius).field
    full = Problem.sitnikov(-1.0, MassParams(m=1e-3, epsilon=0.25), RingConfig.for_count(3)).field
    for dstep, tol in ((1e-3, 1e-13), (-1e-3, 1e-15), (5e-2, 1e-13)):
        cfg = IntegratorConfig(step=abs(dstep), newton_tol=tol)
        for _ in range(40):
            for field, n in ((reduced, 2), (full, 4)):
                y = rng.uniform(-2.0, 2.0, n)
                if dstep > 0.0:  # a march only steps forward
                    _assert_step_matches_reference(field, y, cfg)
                # the solve a march hands over: its own first sweep from the
                # quintic guess of the five states before y, as a march would
                # hold them, then _solve from the second sweep
                back = tuple(tuple(y - k * dstep * rng.uniform(0.5, 1.5, n))
                             for k in range(1, 6))
                y = tuple(map(float, y))
                guess = _quintic_guess(y, back)
                f_new, n_new = _counting(field)
                f_ref, n_ref = _counting(field)
                fm = f_new(tuple(0.5 * (y[k] + guess[k]) for k in range(n)))
                first = tuple(y[k] + dstep * fm[k] for k in range(n))
                bound = tol * (1.0 + max(abs(v) for v in y))
                got = integrators._solve(f_new, y, first, dstep, bound)
                ref = _reference_midpoint(f_ref, y, dstep, tol, guess)
                assert np.array(got).tobytes() == np.array(ref).tobytes()
                assert n_new[0] == n_ref[0]


def test_the_march_matches_a_reference_march_bit_for_bit():
    a = 4.0 * RingConfig.for_count(2).radius
    reduced = Problem.reduced(-1.0, 1e-3, a)
    full = Problem.sitnikov(-2.5, MassParams(m=1e-3, epsilon=0.3), RingConfig.for_count(2))
    # marches through two collisions each; at dtau = 5e-3 about half of the
    # steps need a second sweep
    cfg = IntegratorConfig(step=5e-3, newton_tol=1e-13)
    runs = ((reduced, (0.0, math.sqrt(2e-3)), 20.0), (full, full.project([0.0, 0.0, 1.0, 0.0]), 25.0))
    for p, y0, span in runs:
        for kwargs in ({}, {"record_every": 3}, {"stop_after": 2}):
            f_new, n_new = _counting(p.field)
            f_ref, n_ref = _counting(p.field)
            traj = integrate(f_new, y0, span, cfg, time_scale=p.clock, invariant=p.gamma,
                             **kwargs)
            taus, ts, states, invs, events = _reference_march(f_ref, y0, span, cfg, p.clock,
                                                              p.gamma, **kwargs)
            assert traj.tau.tobytes() == np.array(taus).tobytes()
            assert traj.t.tobytes() == np.array(ts).tobytes()
            assert traj.states.tobytes() == np.array(states).tobytes()
            assert traj.invariant.tobytes() == np.array(invs).tobytes()
            assert traj.events == events and len(events) == 2
            assert n_new[0] == n_ref[0]
            if not kwargs:
                assert traj.tau[-1] == span and len(traj) == round(span / 5e-3) + 1


def test_a_lone_step_fails_on_a_non_finite_state():
    # a one-step march: the first sweep's max() keeps its first argument
    # against a NaN in a later component, so only the march's finiteness
    # test catches it
    for n in (2, 4):
        field = lambda y: (1.0, *[0.0] * (n - 2), math.nan)
        with pytest.raises(StepFailure, match=r"non-finite at step 1 \(tau=0.001\)"):
            integrate(field, (1.0,) + (0.0,) * (n - 1), 1e-3, IntegratorConfig(step=1e-3))


def test_a_nan_the_first_sweep_lets_through_fails_the_step():
    # x' = 1 and a last component that turns NaN once the midpoint passes
    # x = -0.85: max() keeps its first argument against a NaN, so the first
    # sweep's stopping test passes, and only the march's finiteness test
    # fails the step, the one from x = -0.85 to -0.84
    for n in (2, 4):
        field = lambda y: (1.0, *[0.0] * (n - 2), y[0] ** 4 if y[0] < -0.85 else math.nan)
        with pytest.raises(StepFailure, match="state became non-finite at step 16") as err:
            integrate(field, (-1.0,) + (0.0,) * (n - 1), 1.0, IntegratorConfig(step=1e-2))
        part = err.value.trajectory
        assert len(part) == 16 and np.all(np.isfinite(part.states))


def test_midpoint_kernels_match_the_generic_solve_through_the_newton_fallback(monkeypatch):
    newton = integrators._midpoint_newton
    entered = [0]

    def watched(*args):
        entered[0] += 1
        return newton(*args)

    monkeypatch.setattr(integrators, "_midpoint_newton", watched)
    # a step of 1.9 on a rotation contracts the sweeps by only 0.95
    rotation4 = lambda y: (y[2], y[3], -y[0], -y[1])
    cfg = IntegratorConfig(step=1.9, newton_tol=1e-13)
    _assert_step_matches_reference(oscillator, (1.0, 0.0), cfg)
    _assert_step_matches_reference(rotation4, (1.0, -0.5, 0.0, 0.25), cfg)
    assert entered[0] == 4  # kernel and reference, in each size
    # a stiff component that Newton cannot settle either: both paths hand
    # over, and fail with the same residual
    stiff2 = lambda y: (50.0 * math.sin(100.0 * y[0]), -50.0 * y[0])
    stiff4 = lambda y: (50.0 * math.sin(100.0 * y[0]), y[3], -50.0 * y[0], -y[1])
    cfg = IntegratorConfig(step=1.9)
    for field, y in ((stiff2, (1.0, 0.0)), (stiff4, (1.0, -0.5, 0.0, 0.25))):
        with pytest.raises(StepFailure, match="midpoint Newton damping underflow") as got:
            integrate(field, y, 1.9, cfg)
        with pytest.raises(StepFailure) as ref:
            _reference_midpoint(field, y, 1.9, cfg.newton_tol)
        assert got.value.residual == ref.value.residual > 0.0
    assert entered[0] == 8


def test_midpoint_takes_only_2d_and_4d_states():
    for n in (1, 3, 5):
        field, calls = _counting(lambda y: tuple(0.0 for _ in y))
        with pytest.raises(ParameterError, match=f"takes 2-D or 4-D states, got {n}-D"):
            integrate(field, (1.0,) * n, 1.0, IntegratorConfig(step=0.1))
        assert calls[0] == 0  # refused before the first step


@pytest.mark.parametrize("n", [2, 4])
def test_the_march_is_generated_from_the_template(n):
    import inspect
    import re

    march = integrators._MARCHES[n]
    code = march.__code__
    assert code.co_filename == f"<march{n}>"
    source = inspect.getsource(march)
    fast = re.search(r"if not \((.*)\):", source)[1]
    assert fast == " and ".join(f"-tol <= c{k} - a{k} <= tol" for k in range(n))
    # every global and attribute the hot loop looks up; a template edit that
    # adds one shows here
    assert set(code.co_names) == {
        "range", "max", "abs", "len", "_ROWS", "pack", "size", "GUARD_BLOCK", "append",
        "_solve", "_event", "_midpoint_nan", "_non_finite",
    }


@pytest.mark.parametrize("n", [2, 4])
def test_a_march_step_builds_no_tuple_but_the_states_it_passes_on(n):
    # the states passed to the field (the Euler guess's and the sweep's),
    # to _solve and to _event; the differences and the state are handed on
    # one store at a time, with no tuple built and unpacked
    import dis

    built = [ins for ins in dis.get_instructions(integrators._MARCHES[n].__code__)
             if ins.opname == "BUILD_TUPLE"]
    assert [ins.arg for ins in built] == [n] * 6


def test_a_traceback_through_the_march_shows_the_template_line():
    import traceback

    def failing(y):
        raise ZeroDivisionError("in the field")

    with pytest.raises(ZeroDivisionError) as info:
        integrate(failing, (1.0, 0.0, 0.5, 0.0), 1.0, IntegratorConfig(step=0.1))
    frames = [f for f in traceback.extract_tb(info.value.__traceback__)
              if f.filename == "<march4>"]
    assert len(frames) == 1
    assert frames[0].name == "_march4"
    assert frames[0].line == "f0, f1, f2, f3 = field((y0, y1, y2, y3))"


def test_field_evaluation_counts_are_pinned():
    # exact counts of the midpoint march with its extrapolated predictor:
    # a kernel change that spends more evaluations per step fails here
    cfg = IntegratorConfig(step=1e-3)
    h, m = -1.0, 1e-3
    a = 4.0 * RingConfig.for_count(3).radius
    rhs, calls = _counting(Problem.reduced(h, m, a).field)
    traj = integrate(rhs, (0.0, reduced_level_momentum(0.0, h, m, a)), 2.0, cfg,
                     time_scale=lambda Q1: 0.5 * Q1 * Q1,
                     invariant=Problem.reduced(h, m, a).gamma)
    assert len(traj) == 2001 and calls[0] == 2015
    # the full problem from the start of the simulate-sitnikov benchmark
    params, ring, h = MassParams(m=1e-3, epsilon=0.3), RingConfig.for_count(2), -2.5
    p = Problem.sitnikov(h, params, ring)
    rhs, calls = _counting(p.field)
    traj = integrate(rhs, p.project([0.0, 0.0, 1.0, 0.0]), 2.0, cfg,
                     time_scale=p.clock, invariant=p.gamma)
    assert len(traj) == 2001 and calls[0] == 2015


def test_steps_seeded_from_history_take_one_evaluation_on_quintic_iterates():
    # x' = 1, v' = x^4 from (-1, 0): x_n is linear in n and the midpoint
    # rule makes v_n a polynomial of degree 5 in n, which the quintic
    # extrapolation reproduces, so every step after the five Euler-guess
    # steps passes the stopping test at its first sweep, its one evaluation.
    # The marches over 2.0 and 4.0 each cross x = 0 once, at about step 100,
    # and logging that collision costs two more evaluations: 195 steps plus 2
    field, calls = _counting(lambda y: (1.0, y[0] ** 4))
    counts = {}
    for span in (0.05, 2.0, 4.0):
        calls[0] = 0
        integrate(field, (-1.0, 0.0), span, IntegratorConfig(step=1e-2))
        counts[span] = calls[0]
    assert counts[2.0] - counts[0.05] == 197
    assert counts[4.0] - counts[2.0] == 200


def test_a_first_sweep_change_within_the_scaled_bound_ends_the_step():
    # x' = 1, v' = x^4 from v = 1e4, so the quintic guess is exact but for
    # rounding at ulp(1e4) ~ 1.8e-12: many first-sweep changes exceed the
    # bare newton_tol 1e-13 yet lie within tol * (1 + max|y|) ~ 1e-9, and
    # each such step must end at its first sweep all the same
    cfg = IntegratorConfig(step=1e-2)
    tol = cfg.newton_tol
    for n in (2, 4):
        field = lambda y: (1.0, *[0.0] * (n - 2), y[0] ** 4)
        y0 = (-1.0,) + (0.0,) * (n - 2) + (1e4,)
        clock = lambda Q1: 1.0 + Q1 * Q1
        invariant = lambda y: 0.0 * y[0]
        f_new, n_new = _counting(field)
        traj = integrate(f_new, y0, 2.0, cfg, time_scale=clock, invariant=invariant)
        taus, ts, states, invs, events = _reference_march(field, y0, 2.0, cfg, clock, invariant)
        assert traj.tau.tobytes() == np.array(taus).tobytes()
        assert traj.t.tobytes() == np.array(ts).tobytes()
        assert traj.states.tobytes() == np.array(states).tobytes()
        assert traj.invariant.tobytes() == np.array(invs).tobytes()
        assert traj.events == events and len(events) == 1
        # after the five Euler-guess steps (the march over 0.05), one
        # evaluation a step for 195 steps, and two for the event
        n_march = n_new[0]
        n_new[0] = 0
        integrate(f_new, y0, 0.05, cfg)
        assert n_march - n_new[0] == 195 + 2
        # the first sweeps the march took, from the reference states
        window = 0
        for i in range(6, len(states)):
            y = states[i - 1]
            guess = _quintic_guess(y, [states[i - j] for j in range(2, 7)])
            fm = field(tuple(0.5 * (y[k] + guess[k]) for k in range(n)))
            change = max(abs(y[k] + 1e-2 * fm[k] - guess[k]) for k in range(n))
            assert change <= tol * (1.0 + max(map(abs, y)))
            window += change > tol
        assert window > 50


def test_extrapolated_march_stays_with_the_euler_guess_march():
    # the predictor only changes where the solve starts: the march agrees
    # with one of single Euler-guess steps to the solver tolerance
    cfg = IntegratorConfig(step=1e-3)
    a = 4.0 * RingConfig.for_count(3).radius
    params, ring, h = MassParams(m=1e-3, epsilon=0.3), RingConfig.for_count(2), -2.5
    starts = (
        (Problem.reduced(-1.0, 1e-3, a).field, (0.0, reduced_level_momentum(0.0, -1.0, 1e-3, a))),
        (Problem.sitnikov(h, params, ring).field,
         project_to_level([0.0, 0.0, 1.0, 0.0], h, params, ring)),
    )
    for field, y0 in starts:
        traj = integrate(field, y0, 2.0, cfg)
        y = tuple(map(float, y0))
        euler = [y]
        for _ in range(2000):
            y = _reference_midpoint(field, y, 1e-3, cfg.newton_tol)
            euler.append(y)
        assert len(traj) == 2001
        assert np.max(np.abs(traj.states - np.array(euler))) < 1e-10


def test_mirrored_start_gives_the_mirrored_march():
    # z -> (-Q1, Q2, -P1, P2) is an exact symmetry of Gamma and its field, and
    # the extrapolation commutes with it, so the two seed signs of the
    # simulate-sitnikov benchmark march as mirror images at the same cost
    params, ring, h = MassParams(m=1e-3, epsilon=0.3), RingConfig.for_count(2), -2.5
    p = Problem.sitnikov(h, params, ring)
    runs = []
    for sign in (1.0, -1.0):
        rhs, calls = _counting(p.field)
        traj = integrate(rhs, p.project([0.0, 0.0, sign, 0.0]), 15.0,
                         IntegratorConfig(step=1e-3), time_scale=p.clock, invariant=p.gamma)
        runs.append((traj, calls[0]))
    (plus, n_plus), (minus, n_minus) = runs
    mirror = np.array([-1.0, 1.0, -1.0, 1.0])
    assert n_plus == n_minus
    assert np.array_equal(minus.states, plus.states * mirror)
    assert np.array_equal(minus.tau, plus.tau) and np.array_equal(minus.t, plus.t)
    assert len(plus.events) >= 1 and len(minus.events) == len(plus.events)
    for e, f in zip(plus.events, minus.events):
        assert (f.index, f.tau, f.t) == (e.index, e.tau, e.t)
        assert np.array_equal(np.array(f.state), np.array(e.state) * mirror)


def test_newton_fallback_and_step_failure_are_reached_through_the_march(monkeypatch):
    newton = integrators._midpoint_newton
    entered = [0]

    def watched(*args):
        entered[0] += 1
        return newton(*args)

    monkeypatch.setattr(integrators, "_midpoint_newton", watched)
    # a step of 1.9 on a rotation contracts the sweeps by only 0.95, so every
    # step, the extrapolated ones after the fifth too, hands over to Newton;
    # each lands on the Cayley rotation of the step before
    th = 1.9
    traj = integrate(oscillator, (1.0, 0.0), 8 * th,
                     IntegratorConfig(step=th, newton_tol=1e-13))
    assert entered[0] == 8
    c, s = (1.0 - th * th / 4.0) / (1.0 + th * th / 4.0), th / (1.0 + th * th / 4.0)
    y = np.array([1.0, 0.0])
    for k in range(9):
        assert np.max(np.abs(traj.states[k] - y)) < 1e-12
        y = np.array([c * y[0] + s * y[1], -s * y[0] + c * y[1]])
    # x' = s below s = 5 and stiff above it, with s the clock component: the
    # five Euler-guess steps converge in two sweeps, the sixth, the first
    # seeded from history, hands over to Newton, which cannot lower its
    # residual, and fails with the residual of its last accepted iterate
    stiffening = lambda y: (y[1] if y[1] < 5.0 else 50.0 * math.sin(100.0 * y[0]), 1.0)
    cfg = IntegratorConfig(step=1.0)
    with pytest.raises(StepFailure, match="midpoint Newton damping underflow") as err:
        integrate(stiffening, (1.0, 0.0), 8.0, cfg)
    part = err.value.trajectory
    assert part is not None and len(part) == 6
    y, *back = (tuple(part.states[k]) for k in (5, 4, 3, 2, 1, 0))
    guess = _quintic_guess(y, back)
    with pytest.raises(StepFailure) as ref:
        _reference_midpoint(stiffening, y, 1.0, cfg.newton_tol, guess)
    assert err.value.residual == ref.value.residual > 0.0


# -- the chunked CSV writers against a row-by-row %.17g reference --

def _reference_regularized_csv(traj, gamma_fn) -> bytes:
    lines = ["tau,t,Q1,Q2,P1,P2,gamma\n"]
    for k in range(len(traj)):
        s = traj.states[k]
        z = (s[0], 0.0, s[1], 0.0) if len(s) == 2 else tuple(s)
        row = (traj.tau[k], traj.t[k], *z, gamma_fn(s))
        lines.append(",".join("%.17g" % v for v in row) + "\n")
    return "".join(lines).encode()


def _reference_physical_csv(traj, params, ring) -> bytes:
    lines = ["t,q1,q2,p1,p2,H\n"]
    for k in range(len(traj)):
        s = traj.states[k]
        row = (traj.t[k], *s, hamiltonian(s, params, ring))
        lines.append(",".join("%.17g" % v for v in row) + "\n")
    return "".join(lines).encode()


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_regularized_csv_matches_the_row_by_row_reference(tmp_path, forks):
    path = tmp_path / "traj.csv"
    # 2-D: a reduced run through a collision
    ring = RingConfig.for_count(2)
    h, m, a = -1.0, 1e-3, 4.0 * ring.radius
    gam = Problem.reduced(h, m, a).gamma
    traj = integrate(Problem.reduced(h, m, a).field, (0.0, math.sqrt(2.0 * m)), 3.0,
                     IntegratorConfig(step=1e-3), time_scale=lambda Q1: 0.5 * Q1 * Q1,
                     invariant=gam)
    write_regularized_csv(traj, path)
    assert path.read_bytes() == _reference_regularized_csv(traj, gam)
    # 4-D, longer than one chunk of the writer
    params, h = MassParams(m=1e-3, epsilon=0.3), -2.5
    p = Problem.sitnikov(h, params, ring)
    gam = p.gamma
    traj = integrate(p.field, p.project([0.0, 0.0, -1.0, 0.0]), 6.0,
                     IntegratorConfig(step=1e-3), time_scale=p.clock, invariant=gam)
    assert len(traj) > integrators.GUARD_BLOCK + 1
    write_regularized_csv(traj, path)
    assert path.read_bytes() == _reference_regularized_csv(traj, gam)
    # 4-D, two blocks and more, written after the fact: with no march to
    # overlap, this process formats every block and forks no helper
    traj = integrate(p.field, p.project([0.0, 0.0, -1.0, 0.0]), 10.0,
                     IntegratorConfig(step=1e-3), time_scale=p.clock, invariant=gam)
    write_regularized_csv(traj, path)
    assert path.read_bytes() == _reference_regularized_csv(traj, gam)
    assert forks == []
    # the partial trajectory a failed run carries
    pumped = lambda y: (y[1], -y[0] + 0.1 * y[1])
    energy = lambda y: 0.5 * (y[0] * y[0] + y[1] * y[1]) - 0.5
    with pytest.raises(StepFailure) as err:
        integrate(pumped, (1.0, 0.0), 1.0, IntegratorConfig(step=1e-3), invariant=energy)
    write_regularized_csv(err.value.trajectory, path)
    assert path.read_bytes() == _reference_regularized_csv(err.value.trajectory, energy)


def _write_blocks(traj, path):
    """Hand traj to a writer opened on path for a run, block by block as a
    march would, and finish it."""
    with integrators.open_regularized_csv(path, traj.states.shape[1], len(traj)) as csv:
        for a in range(0, len(traj), integrators.GUARD_BLOCK):
            csv.write(*(c[a:a + integrators.GUARD_BLOCK]
                        for c in (traj.tau, traj.t, traj.states, traj.invariant)))
        write_regularized_csv(traj, path, csv)


def test_a_failing_csv_helper_fails_the_write_and_leaves_no_process(tmp_path, monkeypatch,
                                                                    forks):
    rows = 2 * integrators.GUARD_BLOCK
    traj = Trajectory(tau=np.arange(rows, dtype=float), t=np.arange(rows, dtype=float),
                      states=np.ones((rows, 2)), invariant=np.zeros(rows))
    parent = os.getpid()
    fmt = integrators._format

    def format_rows(*args):
        if os.getpid() != parent:
            raise OSError("no space left for the helper's rows")
        return fmt(*args)

    # a failed write leaves no file, not even the one it replaced
    (tmp_path / "t.csv").write_text("an earlier run's rows\n")
    monkeypatch.setattr(integrators, "_format", format_rows)
    with pytest.raises(OSError, match="helper process exited with code 1"):
        _write_blocks(traj, tmp_path / "t.csv")
    assert len(forks) == 1 and _no_child_left() and not (tmp_path / "t.csv").exists()
    # a failure on this side, with the helper at work, stops the helper too
    monkeypatch.setattr(integrators, "_format", fmt)
    written = integrators._CsvWriter.write

    def write_once(csv, *columns):
        if csv._rows:
            raise OSError("no space left for the caller's rows")
        written(csv, *columns)

    monkeypatch.setattr(integrators._CsvWriter, "write", write_once)
    with pytest.raises(OSError, match="the caller's rows"):
        _write_blocks(traj, tmp_path / "t.csv")
    assert len(forks) == 2 and _no_child_left() and not (tmp_path / "t.csv").exists()
    monkeypatch.setattr(integrators._CsvWriter, "write", written)
    with pytest.raises(FileNotFoundError):
        _write_blocks(traj, tmp_path / "missing" / "t.csv")
    assert len(forks) == 2 and _no_child_left()


def test_with_a_helper_the_run_formats_no_block(tmp_path, monkeypatch, forks):
    # the helper formats every block the march hands over, the last one too;
    # the run's process only waits for it.  The helper dwells on its first
    # block, so the march ends with blocks it has not reached
    import time

    parent, fmt = os.getpid(), integrators._format
    dwell = [0.5]  # seconds, on the first block only

    def format_rows(*args):
        if os.getpid() == parent:
            raise AssertionError("the run's process formatted a block")
        if dwell:
            time.sleep(dwell.pop())
        return fmt(*args)

    monkeypatch.setattr(integrators, "_format", format_rows)
    p = Problem.sitnikov(-2.5, MassParams(m=1e-3, epsilon=0.3), RingConfig.for_count(2))
    path = tmp_path / "traj.csv"
    with integrators.open_regularized_csv(path, 4, 10001) as csv:
        traj = integrate(p.field, p.project([0.0, 0.0, -1.0, 0.0]), 10.0,
                         IntegratorConfig(step=1e-3), time_scale=p.clock, invariant=p.gamma,
                         on_block=csv.write)
        write_regularized_csv(traj, path, csv)
    assert len(forks) == 1 and _no_child_left()
    # the streamed run kept only its last block: the reference is the same
    # march's, run without on_block
    whole = integrate(p.field, p.project([0.0, 0.0, -1.0, 0.0]), 10.0,
                      IntegratorConfig(step=1e-3), time_scale=p.clock, invariant=p.gamma)
    assert path.read_bytes() == _reference_regularized_csv(whole, p.gamma)


@pytest.mark.parametrize("helper", [True, False])
def test_a_csv_fed_by_the_march_matches_the_row_by_row_reference(tmp_path, monkeypatch,
                                                                  forks, helper):
    # integrate hands the writer each block as the level guard passes it;
    # with a helper or without, the file is the one written after the march
    if not helper:
        monkeypatch.setattr(integrators, "_can_fork", lambda: False)
    p = Problem.sitnikov(-2.5, MassParams(m=1e-3, epsilon=0.3), RingConfig.for_count(2))
    path = tmp_path / "traj.csv"
    with integrators.open_regularized_csv(path, 4, 10001) as csv:
        traj = integrate(p.field, p.project([0.0, 0.0, -1.0, 0.0]), 10.0,
                         IntegratorConfig(step=1e-3), time_scale=p.clock, invariant=p.gamma,
                         on_block=csv.write)
        write_regularized_csv(traj, path, csv)
    assert len(forks) == helper and _no_child_left()
    # the streamed run kept only its last block, and its CSV is written: it
    # cannot be written again after the fact
    with pytest.raises(ParameterError, match="holds 1809 of the 10001 samples"):
        write_regularized_csv(traj, tmp_path / "again.csv")
    assert not (tmp_path / "again.csv").exists()
    traj = integrate(p.field, p.project([0.0, 0.0, -1.0, 0.0]), 10.0,
                     IntegratorConfig(step=1e-3), time_scale=p.clock, invariant=p.gamma)
    assert path.read_bytes() == _reference_regularized_csv(traj, p.gamma)
    # a writer handed other rows than the trajectory's refuses to finish, and
    # one given another path than its own refuses to write it; neither leaves
    # a file
    blocks = [[c[a:a + 4096] for c in (traj.tau, traj.t, traj.states, traj.invariant)]
              for a in range(0, len(traj), 4096)]
    with pytest.raises(ValueError, match="10000 rows was handed 10001"):
        with integrators.open_regularized_csv(path, 4, len(traj)) as csv:
            for block in blocks:
                csv.write(*block)
            csv.finish(len(traj) - 1)
    with pytest.raises(ValueError, match="was given to write"):
        with integrators.open_regularized_csv(path, 4, len(traj)) as csv:
            for block in blocks:
                csv.write(*block)
            write_regularized_csv(traj, tmp_path / "other.csv", csv)
    assert _no_child_left() and not path.exists() and not (tmp_path / "other.csv").exists()
    # an unfinished writer removes only the file it made: not one put at its
    # path since
    with integrators.open_regularized_csv(path, 4, len(traj)) as csv:
        csv.write(*blocks[0])
        (tmp_path / "moved.csv").write_text("another file\n")
        os.replace(tmp_path / "moved.csv", path)
    assert _no_child_left() and path.read_text() == "another file\n"
    with pytest.raises(ParameterError, match="no invariant"):
        integrate(p.field, p.project([0.0, 0.0, -1.0, 0.0]), 1.0, IntegratorConfig(),
                  on_block=print)


@pytest.mark.parametrize("problem", ["reduced", "kepler1d"])
def test_a_2d_csv_streamed_through_the_helper_matches_the_row_by_row_reference(
        tmp_path, monkeypatch, forks, problem):
    # 20001 samples of a 2-D state, enough for a helper: it is sent rows of
    # (tau, t, Q1, 0, P1, 0, gamma), with the zero columns the writer puts in,
    # and writes the bytes that the run's own process writes without it
    if problem == "reduced":
        p, y0 = Problem.reduced(-1.0, 1e-3, 4.0 * RingConfig.for_count(2).radius), (0.5, -1.0)
    else:
        p, y0 = Problem.kepler1d(-0.5, 1.0), (0.0, 1.0)
    written = []
    for helper in (True, False):
        if not helper:
            monkeypatch.setattr(integrators, "_can_fork", lambda: False)
        path = tmp_path / f"{helper}.csv"
        with integrators.open_regularized_csv(path, 2, 20001) as csv:
            traj = integrate(p.field, p.project(y0), 20.0, IntegratorConfig(step=1e-3),
                             time_scale=p.clock, invariant=p.gamma, on_block=csv.write)
            write_regularized_csv(traj, path, csv)
        assert len(traj) == 20001 and len(forks) == 1 and _no_child_left()
        written.append(path.read_bytes())
    whole = integrate(p.field, p.project(y0), 20.0, IntegratorConfig(step=1e-3),
                      time_scale=p.clock, invariant=p.gamma)
    assert written[0] == written[1] == _reference_regularized_csv(whole, p.gamma)


def test_the_csv_writer_does_not_wait_on_a_helper_within_its_pipe(tmp_path):
    # with the helper stopped, 3 * GUARD_BLOCK one-row blocks send 96 KiB:
    # more than a pipe holds by default (64 KiB on Linux), less than the
    # 1 MiB the writer gives its pipe, so no write waits; finish delivers
    # the rows once the helper runs again.  A write that waited would wait
    # for good, so an alarm fails the test after 30 s
    import fcntl
    import signal

    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("the writer cannot resize its pipe here")

    def waited(*_):
        raise TimeoutError("the CSV writer waited on its stopped helper")

    path = tmp_path / "rows.csv"
    values = np.arange(3 * integrators.GUARD_BLOCK, dtype=float) / 3.0
    alarm = signal.signal(signal.SIGALRM, waited)
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    try:
        with integrators._CsvWriter(path, "x\n", len(values)) as csv:
            assert csv._helper is None  # forked at the first write
            csv.write(values[:1])
            os.kill(csv._helper.pid, signal.SIGSTOP)
            try:
                for v in values[1:]:
                    csv.write(np.array([v]))
            finally:
                os.kill(csv._helper.pid, signal.SIGCONT)
            csv.finish(len(values))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, alarm)
    assert _no_child_left()
    assert path.read_bytes() == ("x\n" + "".join("%.17g\n" % v for v in values)).encode()


def _run_after_importing_the_cli(check) -> int:
    """The exit code of a fresh interpreter that imports collreg.cli, then
    exits with the truth of the expression check."""
    import subprocess
    import sys

    import collreg

    src = os.path.dirname(os.path.dirname(collreg.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = f"import sys, collreg.cli; sys.exit({check})"
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                          stdout=subprocess.DEVNULL).returncode


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # a process's set-up does not pay for it: the CSV writer forks its helper
    # with os.fork, and reads a daemon flag only where multiprocessing is loaded
    assert _run_after_importing_the_cli("'multiprocessing' in sys.modules") == 0


def test_importing_the_cli_builds_no_format_tables():
    # the CSV formatter's module, and its tables, are loaded at the first
    # block formatted; the tables take neither fractions nor decimal
    assert _run_after_importing_the_cli(
        "'collreg.floatfmt' in sys.modules or 'fractions' in sys.modules"
        " or 'decimal' in sys.modules") == 0
    assert _run_after_importing_the_cli(
        "b''.join(collreg.integrators._format([[0.5]])) != b'0.5\\n'"
        " or 'fractions' in sys.modules or 'decimal' in sys.modules") == 0


def test_importing_the_cli_loads_no_constant_tables():
    # the tables of the period quadrature and of verify load at their first use
    assert _run_after_importing_the_cli("'collreg.tables' in sys.modules") == 0


def test_verify_and_period_load_neither_numpy_random_nor_numpy_polynomial():
    # their constants (step_symplectic's starts, the Gauss-Legendre rules) are
    # committed tables; verify's own draws run in its forked helper
    assert _run_after_importing_the_cli(
        "not collreg.integrators._can_fork() or collreg.cli.main(['verify']) != 0"
        " or 'numpy.random' in sys.modules or 'numpy.polynomial' in sys.modules") == 0
    assert _run_after_importing_the_cli(
        "collreg.cli.main(['period', '--h', '-1', '--m', '1e-3', '--N', '3']) != 0"
        " or 'numpy.polynomial' in sys.modules or 'collreg.tables' not in sys.modules"
        ) == 0


# -- _format against '%.17g' % v, the bytes of every CSV of the package --

def _percent_rows(values) -> bytes:
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in values.tolist()).encode()


def _format_edges() -> np.ndarray:
    inf = math.inf
    powers = [float(f"1e{p}") for p in range(-40, 41)]
    switch = [1e-5, 1e-4, 1e16, 1e17]  # where %g changes notation
    near = [x for v in powers + switch
            for x in (np.nextafter(np.nextafter(v, 0.0), 0.0), np.nextafter(v, 0.0), v,
                      np.nextafter(v, inf), np.nextafter(np.nextafter(v, inf), inf))]
    integers = ([float(2 ** j + d) for j in range(64) for d in (-1, 0, 1)]
                + np.random.default_rng(7).integers(0, 2 ** 63, 1000).astype(float).tolist())
    # m / 2^j with m odd has j decimals after the point: with 18 - j digits
    # before it, or with j - 18 zeros after it, v's 18th and last
    # significant digit is 5, a tie of %.17g
    rng = np.random.default_rng(8)
    ties = []
    for j in range(3, 24):
        lo, hi = (10 ** (17 - j) * 2 ** j, 10 ** (18 - j) * 2 ** j) if j <= 17 else (
            2 ** j // 10 ** (j - 17), 2 ** j // 10 ** (j - 18))
        ties += [(int(m) | 1) / 2 ** j for m in rng.integers(lo, hi, 50)]
    for v in ties:
        digits = ("%.30e" % v).split("e")[0].replace(".", "")
        assert digits[17] == "5" and set(digits[18:]) == {"0"}, v
    edges = [0.0, 5e-324, 2.2250738585072009e-308, 1.7976931348623157e308, inf, math.nan,
             *near, *integers, *ties]
    return np.array(edges + [-v for v in edges])


def test_format_matches_percent_on_edges():
    values = _format_edges()
    assert b"".join(integrators._format(values[:, None])) == _percent_rows(values[:, None])


def test_format_matches_percent_on_random_bit_patterns():
    # every 64-bit pattern is a float: NaNs, infinities and subnormals come
    # with the rest, in rows of 7 fields as the regularized CSV's
    bits = np.random.default_rng(5).integers(0, 2 ** 64, 2 ** 18, dtype=np.uint64)
    bits[:4] = [0x7FF0000000000000, 0xFFF0000000000000, 0xFFF8000000000001, 1]
    values = bits.view(float)[:7 * (len(bits) // 7)].reshape(-1, 7)
    assert np.isnan(values).any() and np.isinf(values).any()
    assert ((np.abs(values) < 2.2250738585072014e-308) & (values != 0.0)).any()
    assert b"".join(integrators._format(values)) == _percent_rows(values)


@given(st.lists(st.floats(), min_size=1, max_size=40), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_format_matches_percent_on_any_floats(floats, cols):
    values = np.array(floats + [0.0] * (-len(floats) % cols)).reshape(-1, cols)
    assert b"".join(integrators._format(values)) == _percent_rows(values)


def test_the_oracle_step_is_extrapolated_in_h_squared():
    # one Gragg-Bulirsch-Stoer step on y' = y: halving the step from 4 to 2
    # divides its error by about 2^14; a tableau extrapolating in h instead
    # of h^2 divides it by about 2^7
    errs = [abs(integrators._gbs_step(lambda y: y, (1.0,), (1.0,), step)[0][0] - math.exp(step))
            for step in (4.0, 2.0)]
    assert errs[0] > 2 ** 12 * errs[1]


def test_physical_csv_matches_the_row_by_row_reference(tmp_path):
    from scipy.integrate import solve_ivp

    from collreg.analysis import momentum_profile

    params, ring = MassParams(m=1e-3, epsilon=0.2), RingConfig.for_count(2)
    p0 = momentum_profile(1.0, 0.25, params.m, ring.radius)
    rhs = make_physical_rhs(params, ring)
    # 5000 rows of a physical orbit: longer than one chunk of the writer
    t = np.linspace(0.0, 10.0, 5000)
    states = solve_ivp(lambda _, y: rhs(tuple(y)), (0.0, 10.0), [1.0, -1.0, p0, -p0],
                       method="DOP853", rtol=1e-12, atol=1e-14, t_eval=t).y.T
    traj = Trajectory(tau=t, t=t, states=states,
                      invariant=np.array([hamiltonian(s, params, ring) for s in states]))
    path = tmp_path / "phys.csv"
    write_physical_csv(traj, path)
    assert path.read_bytes() == _reference_physical_csv(traj, params, ring)


# -- the helper process, the one way the package forks -----------------------

def _raise_in_helper():
    raise RuntimeError("the helper's serve broke")


def test_a_helper_exits_0_when_serve_returns_and_1_when_it_raises():
    assert integrators._Helper(lambda: None).join() == 0
    assert integrators._Helper(_raise_in_helper).join() == 1
    assert _no_child_left()


def test_a_helper_forks_nothing_where_it_may_not(monkeypatch):
    served = []
    monkeypatch.setattr(integrators, "_can_fork", lambda: False)
    with integrators._Helper(lambda: served.append(os.getpid())) as helper:
        assert helper.pid is None
    assert served == [] and _no_child_left()


def test_closing_a_helper_kills_and_reaps_it():
    import time

    helper = integrators._Helper(lambda: time.sleep(60))
    pid = helper.pid
    assert pid is not None
    t0 = time.monotonic()
    helper.close()
    assert time.monotonic() - t0 < 10 and helper.pid is None
    with pytest.raises(ProcessLookupError):  # killed and reaped: the pid is gone
        os.kill(pid, 0)


def test_a_helper_flushes_no_stdio_buffer_it_inherited():
    # stdout is a buffered pipe, so "once" is still in the buffer at the
    # fork; a helper that left by sys.exit would flush it a second time
    import subprocess
    import sys

    import collreg

    src = os.path.dirname(os.path.dirname(collreg.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code = ("import sys; from collreg import integrators; sys.stdout.write('once'); "
            "helper = integrators._Helper(lambda: None); "
            "sys.exit(3 if helper.pid is None else helper.join())")
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         timeout=60)
    assert (run.returncode, run.stdout) == (0, b"once")


def test_only_the_helper_forks_kills_or_reaps_processes():
    # every helper process goes through integrators._Helper, which leaves by
    # os._exit and is killed and reaped on the way out
    import ast
    import pathlib

    calls = {"fork", "kill", "waitpid"}
    outside, inside = [], set()
    for path in sorted(pathlib.Path(integrators.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        helper = {id(node) for cls in ast.walk(tree)
                  if isinstance(cls, ast.ClassDef) and cls.name == "_Helper"
                  and path.name == "integrators.py" for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                outside += [f"{path.name}:{node.lineno} from os import {a.name}"
                            for a in node.names if a.name in calls]
            elif (isinstance(node, ast.Attribute) and node.attr in calls
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                if id(node) in helper:
                    inside.add(node.attr)
                else:
                    outside.append(f"{path.name}:{node.lineno} os.{node.attr}")
    assert outside == [] and inside == calls
