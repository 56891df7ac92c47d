import math

import numpy as np
import pytest

from collreg import (
    AccuracyError,
    DomainError,
    IntegratorConfig,
    MassParams,
    RingConfig,
    classify,
    escape_speed,
    integrate,
    kepler1d_validation,
    level_set_sample,
    momentum_profile,
    period,
    period_report,
    ring_radius,
    turning_point,
)
from collreg import analysis
from collreg.analysis import _blackman_harris, momentum_radicand
from collreg.regularized import Problem, gamma_reduced, reduced_level_momentum


def test_classify_cases():
    assert classify(-0.5).kind == "Periodic"
    assert classify(0.0).kind == "Parabolic"
    assert classify(0.1).kind == "Hyperbolic"
    # the band |h| <= 1e-12 only relabels the measure-zero boundary
    assert classify(5e-13).kind == "Parabolic"
    assert [classify(h).kind for h in (-2e-12, -1e-12, 1e-12, 2e-12)] == [
        "Periodic", "Parabolic", "Parabolic", "Hyperbolic"]


def test_escape_speed():
    assert escape_speed(0.25) == 0.5
    assert escape_speed(0.0) == 0.0
    with pytest.raises(DomainError):
        escape_speed(-1.0)


def test_momentum_profile_limits():
    r = ring_radius(2)
    m, h = 1e-3, 0.25
    prev = None
    for q in (10.0, 100.0, 1000.0, 10000.0):
        p = momentum_profile(q, h, m, r)
        assert p > math.sqrt(h)
        if prev is not None:
            assert p < prev  # approaches sqrt(h) monotonically from above
        prev = p
    # small-q divergence like sqrt(m/(2q))
    for q in (1e-8, 1e-10):
        ratio = momentum_profile(q, h, m, r) / math.sqrt(m / (2.0 * q))
        assert abs(ratio - 1.0) < 1e-3


def test_momentum_profile_errors():
    r = ring_radius(2)
    with pytest.raises(DomainError):
        momentum_profile(-1.0, 0.0, 1e-3, r)
    qmax = turning_point(-1.0, 1e-3, r)
    with pytest.raises(DomainError):
        momentum_profile(qmax * 1.5, -1.0, 1e-3, r)


def test_momentum_profile_on_arrays_is_the_profile_of_each_float():
    r = ring_radius(3)
    qmax = turning_point(-1.0, 1e-3, r)
    q = np.concatenate([np.geomspace(1e-9, 1e-3, 500), np.linspace(1e-3, qmax, 2001)[:-1]])
    for fn in (momentum_radicand, momentum_profile):
        one = [fn(x, -1.0, 1e-3, r) for x in q.tolist()]
        assert all(type(v) is float for v in one)  # floats in, floats out
        assert fn(q, -1.0, 1e-3, r).tobytes() == np.array(one).tobytes()
        assert fn(q.reshape(50, -1), -1.0, 1e-3, r).tobytes() == np.array(one).tobytes()
    # the first q without a p raises the error a call with it alone raises
    for bad in ([0.5, qmax * 1.5, -1.0], [0.5, -1.0, qmax * 1.5], [0.5, math.nan, -1.0]):
        with pytest.raises(DomainError) as alone:
            for x in bad:
                momentum_profile(np.float64(x), -1.0, 1e-3, r)
        with pytest.raises(DomainError) as at_once:
            momentum_profile(np.array(bad), -1.0, 1e-3, r)
        assert str(at_once.value) == str(alone.value)


def test_turning_point_massless_closed_form():
    r = ring_radius(2)
    for h in (-1.0, -0.7, -2.5):
        expect = math.sqrt(4.0 / h**2 - r * r)
        assert abs(turning_point(h, 0.0, r) - expect) < 1e-12
    assert abs(turning_point(-1.0, 0.0, r) - math.sqrt(3.75)) < 1e-12


def test_turning_point_massless_shrinks_to_zero():
    r = ring_radius(2)
    # as h approaches -2/r from below the admissible interval collapses
    h = -2.0 / r * (1.0 - 1e-8)
    assert turning_point(h, 0.0, r) < 1e-3


def test_turning_point_residual_and_monotonicity():
    r = ring_radius(2)
    qmax = turning_point(-1.0, 1e-3, r)
    # the radicand (p^2) vanishes at the root to near machine precision;
    # |p| itself is then at the sqrt(eps) scale, which is what any double
    # precision root can deliver
    assert abs(momentum_radicand(qmax, -1.0, 1e-3, r)) < 1e-13
    hs = np.arange(-2.0, -0.05, 0.1)
    qs = [turning_point(h, 1e-3, r) for h in hs]
    assert all(a < b for a, b in zip(qs, qs[1:]))


def test_turning_point_domain():
    # m < 0: the radicand rises from -inf at q = 0, so its first sign change
    # is an inner zero, not the turning point
    for h, m in ((0.0, 1e-3), (math.nan, 1e-3), (-math.inf, 1e-3), (-1.0, math.inf),
                 (-1.0, math.nan), (-1.0, -1e-3)):
        with pytest.raises(DomainError):
            turning_point(h, m, ring_radius(3))


@pytest.mark.parametrize("n", [analysis.NODES, 2 * analysis.NODES])
def test_the_committed_gauss_rules_are_leggauss_bit_for_bit(n):
    x, w = analysis._gauss_nodes(n)
    xl, wl = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(x, xl) and np.array_equal(w, wl)


def test_period_methods_agree():
    r = ring_radius(3)
    for h in (-2.0, -1.0, -0.6):
        tq = period(h, 1e-3, r, method="quadrature")
        tf = period(h, 1e-3, r, method="flow", step=2e-4)
        assert tq > 0.0 and tf > 0.0
        assert abs(tq - tf) / tq < 1e-5


def test_period_report_contents():
    rep = period_report(-1.0, 1e-3, 3, step=5e-4)
    assert set(rep) == {"h", "m", "N", "T_quadrature", "T_flow", "tau_period"}
    assert abs(rep["T_quadrature"] - rep["T_flow"]) / rep["T_quadrature"] < 1e-5
    # fictitious-time period covers two collision passages of the double cover
    assert rep["tau_period"] > 2.0 * rep["T_flow"] / 3.0


def test_period_report_pinned():
    # the flow stops at its first return; the figures are those of the
    # extrapolated-predictor march, to the last bits
    rep = period_report(-1.0, 1e-3, 3)
    assert abs(rep["T_flow"] - 6.771511137654418) <= 1e-13 * 6.771511137654418
    assert abs(rep["tau_period"] - 16.416991896999463) <= 1e-13 * 16.416991896999463


def test_period_small_mass_continuity():
    # the collision orbit's period approaches the massless improper integral
    r = ring_radius(3)
    t0 = period(-1.0, 0.0, r, method="quadrature")
    gaps = []
    for m in (1e-6, 1e-8):
        gaps.append(abs(period(-1.0, m, r, method="quadrature") - t0))
    assert gaps[0] < 2e-3
    assert gaps[1] < gaps[0]


def test_period_domain_and_methods():
    r = ring_radius(3)
    with pytest.raises(DomainError):
        period(0.1, 1e-3, r)
    with pytest.raises(DomainError):
        period(-1.0, 0.0, r, method="flow")
    for h, m in ((-1.0, -1e-3), (-math.inf, 1e-3), (-1.0, math.inf)):
        for method in ("quadrature", "flow"):
            with pytest.raises(DomainError):
                period(h, m, r, method=method)
    with pytest.raises(ValueError):
        period(-1.0, 1e-3, r, method="simpson")


def _no_march(*args, **kwargs):
    raise AssertionError("the period flow started")


def test_a_return_past_the_tau_cap_is_refused_before_the_march(monkeypatch):
    # at h = -1e-9 the half loop takes at least 4 sqrt(qmax) / sqrt(8 + 2m),
    # about 63246 in tau, past the flow's cap of 51200
    monkeypatch.setattr(analysis, "integrate", _no_march)
    with pytest.raises(AccuracyError, match="no collision return found"):
        period(-1e-9, 1e-3, ring_radius(3), method="flow")
    with pytest.raises(AccuracyError, match="no collision return found"):
        period_report(-1e-9, 1e-3, 3)


def test_a_return_past_the_step_budget_is_refused_before_the_march(monkeypatch):
    # at h = -1e-8 the half loop takes at least 20000 in tau: under the cap,
    # but 1e8 steps of the default 2e-4
    monkeypatch.setattr(analysis, "integrate", _no_march)
    with pytest.raises(AccuracyError, match="budget of 10000000 steps"):
        period(-1e-8, 1e-3, ring_radius(3), method="flow")
    # at a step of 0.01 the h = -1e-9 return fits the budget and the cap refuses it
    with pytest.raises(AccuracyError, match="within tau span"):
        period(-1e-9, 1e-3, ring_radius(3), method="flow", step=0.01)


def test_level_set_symmetry_and_residual():
    a = 4.0 * ring_radius(3)
    pts = level_set_sample(-1.0, 1e-3, a, (-4.0, 4.0), (-3.0, 3.0), 201)
    assert len(pts) > 100
    for Q1, P1 in pts:
        assert abs(gamma_reduced((Q1, P1), -1.0, 1e-3, a)) < 1e-10
    as_set = {(x, y) for x, y in pts}
    for x, y in as_set:
        assert (-x, y) in as_set and (x, -y) in as_set and (-x, -y) in as_set


def test_level_set_bounded_when_h_negative():
    a = 4.0 * ring_radius(3)
    pts = level_set_sample(-1.0, 1e-3, a, (-8.0, 8.0), (-4.0, 4.0), 201)
    # gamma_reduced = 0 forces P1^2/2 = m + 4 Q1^2/sqrt(Q1^4+a^2) + h Q1^2/2,
    # which goes negative for large |Q1| at h < 0: the curve is bounded
    assert np.max(np.abs(pts[:, 0])) < 3.5
    assert np.max(np.abs(pts[:, 1])) < 3.0


def test_level_set_unbounded_when_h_positive():
    a = 4.0 * ring_radius(3)
    for window in (4.0, 8.0, 16.0):
        pts = level_set_sample(0.5, 1e-3, a, (-window, window), (-2.0 * window, 2.0 * window), 101)
        assert np.max(np.abs(pts[:, 0])) > 0.95 * window  # exits any finite grid


def test_level_set_empty_is_not_an_error():
    a = 4.0 * ring_radius(3)
    pts = level_set_sample(-1.0, 1e-3, a, (3.0, 4.0), (2.0, 3.0), 41)
    assert pts.shape == (0, 2)


@pytest.mark.parametrize("q1_range, p1_range, name", [
    ((0.0, 0.0), (-3.0, 3.0), "Q1"), ((-0.0, 0.0), (-3.0, 3.0), "Q1"),
    ((1.0, 1.0), (-3.0, 3.0), "Q1"), ((-4.0, 4.0), (2.0, 2.0), "P1"),
])
def test_level_set_refuses_a_range_with_equal_ends(q1_range, p1_range, name):
    a = 4.0 * ring_radius(3)
    with pytest.raises(DomainError, match=f"needs a {name} range with two distinct ends"):
        level_set_sample(-1.0, 1e-3, a, q1_range, p1_range, 21)


def test_first_integral_along_regularized_flow():
    ring = RingConfig.for_count(3)
    m, h = 1e-3, -1.0
    a = 4.0 * ring.radius
    rhs = Problem.reduced(h, m, a).field
    y0 = (1.0, reduced_level_momentum(1.0, h, m, a))
    traj = integrate(rhs, y0, 1.0, IntegratorConfig(step=2e-5, newton_tol=1e-15),
                     record_every=10)
    worst = 0.0
    for Q1, P1 in traj.states:
        if Q1 <= 0.3 or P1 <= 0.05:
            continue
        q = 0.25 * Q1 * Q1
        worst = max(worst, abs(P1 / Q1 - momentum_profile(q, h, m, ring.radius)))
    assert worst < 1e-9


def test_kepler1d_report():
    rep = kepler1d_validation(-0.5, 1.0)
    assert rep["energy_relation_residual"] < 1e-9
    assert rep["collision_count"] >= 10
    assert rep["collision_speed_max_dev"] < 1e-8  # |v| = 2 sqrt(mu) at transit
    assert abs(rep["x_turning_measured"] - rep["x_turning_expected"]) < 1e-5
    assert rep["x_turning_expected"] == 1.0 / 0.5  # mu/|h|
    # tau-frequency of the oscillation: omega^2 = 2|h|
    assert rep["omega_sq_expected"] == 1.0
    assert abs(rep["omega_sq_measured"] / rep["omega_sq_expected"] - 1.0) < 1e-6
    assert rep["fft_peak_ratio"] > 1e3


def test_kepler1d_other_level():
    rep = kepler1d_validation(-1.25, 2.0)
    assert rep["energy_relation_residual"] < 1e-9
    assert abs(rep["collision_speed_expected"] - 2.0 * math.sqrt(2.0)) < 1e-15
    assert rep["collision_speed_max_dev"] < 1e-8
    assert abs(rep["omega_sq_measured"] - 2.5) < 2.5e-6


@pytest.mark.parametrize("h, mu", [(-0.5, 1.0), (-1.25, 2.0)])
def test_kepler1d_fft_length_has_only_small_prime_factors(h, mu):
    # numpy's FFT takes a length with a prime factor above 7 through its slow
    # path; the run takes no more steps than a step of 5e-4 would
    rep = kepler1d_validation(h, mu)
    span = 8 * 2.0 * math.pi / math.sqrt(-2.0 * h)
    rest = rep["samples"]
    for prime in (2, 3, 5, 7):
        while rest % prime == 0:
            rest //= prime
    assert rest == 1
    assert rep["samples"] <= round(span / 5e-4) + 1
    if h == -0.5:
        assert rep["samples"] == 100352 == 2**11 * 7**2


def _kepler1d_reference(h, mu):
    """The kepler1d report computed from the whole trajectory: a march with
    no on_block, Gamma on every state at once, and the window applied as a
    product."""
    p = Problem.kepler1d(h, mu)
    span = 8 * 2.0 * math.pi / math.sqrt(-2.0 * h)
    v0 = 2.0 * math.sqrt(mu)
    n_steps = analysis._smooth_count(round(span / 5e-4) + 1) - 1
    traj = integrate(p.field, (0.0, v0), span, IntegratorConfig(step=span / n_steps))
    us = traj.states[:, 0]
    events = traj.collision_events()
    speeds = [abs(e.state[1]) for e in events]
    spec = np.abs(np.fft.rfft(us * _blackman_harris(len(us))))
    spec[0] = 0.0
    peak = int(np.argmax(spec))
    side = np.concatenate([spec[:max(peak - 5, 0)], spec[peak + 6:]])
    return {
        "h": h,
        "mu_grav": mu,
        "energy_relation_residual": float(np.max(np.abs(p.gamma(traj.states.T)))),
        "collision_count": len(speeds),
        "collision_speed_expected": v0,
        "collision_speed_max_dev": float(np.max(np.abs(np.subtract(speeds, v0)))),
        "x_turning_measured": 0.5 * float(np.max(us)) ** 2,
        "x_turning_expected": mu / abs(h),
        "omega_sq_measured": (math.pi / float(np.mean(np.diff([e.tau for e in events])))) ** 2,
        "omega_sq_expected": -2.0 * h,
        "fft_peak_ratio": float(spec[peak] / np.max(side)),
        "samples": len(traj),
    }


@pytest.mark.parametrize("h, mu", [(-0.5, 1.0), (-1.25, 2.0)])
def test_the_streamed_kepler1d_report_is_the_whole_trajectorys_bit_for_bit(h, mu):
    # the march hands its samples over a block at a time and the report keeps
    # u alone; every field is the float the whole trajectory gives
    rep = kepler1d_validation(h, mu)
    ref = _kepler1d_reference(h, mu)
    assert list(rep) == list(ref)
    for key in ref:
        assert type(rep[key]) is type(ref[key]), key
        assert np.array(rep[key]).tobytes() == np.array(ref[key]).tobytes(), key


def test_fft_window_is_scipys_blackman_harris():
    # built in numpy so that the kepler1d report needs no scipy.signal
    windows = pytest.importorskip("scipy.signal.windows")
    for M in (2, 7, 100531):
        assert _blackman_harris(M).tobytes() == windows.blackmanharris(M).tobytes()


def test_kepler1d_domain():
    with pytest.raises(DomainError):
        kepler1d_validation(0.5, 1.0)
    with pytest.raises(ValueError):
        kepler1d_validation(-0.5, -1.0)
