"""Orbit classification, turning points, periods, level sets, and the
one-dimensional gravitational validation case.

Everything here concerns the symmetric problem (eps = 0, both bodies mirror
images through the ring plane), whose single degree of freedom makes each
quantity computable two independent ways: by quadrature in the physical chart
and by following the regularized flow through collisions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import ring_radius
from .errors import AccuracyError, DomainError, ParameterError
from .integrators import IntegratorConfig, _bisect, integrate
from .regularized import Problem

__all__ = [
    "OrbitClass",
    "classify",
    "escape_speed",
    "momentum_radicand",
    "momentum_profile",
    "turning_point",
    "period",
    "period_report",
    "level_set_sample",
    "kepler1d_validation",
]


# Half width of the band around h = 0 that classify labels Parabolic.
PARABOLIC_BAND = 1e-12
# Gauss-Legendre nodes of the period quadrature, checked against twice as many.
NODES = 128
# Step in tau of the period's flow method.
FLOW_STEP = 2e-4


@dataclass(frozen=True)
class OrbitClass:
    kind: str  # "Periodic" | "Parabolic" | "Hyperbolic"
    h: float


def classify(h: float) -> OrbitClass:
    """Sign of the energy decides the fate of the symmetric problem:
    bounded collision-bounce motion, parabolic escape, or hyperbolic escape.

    The band |h| <= PARABOLIC_BAND is labeled Parabolic because exact
    parabolicity is measure zero; it only relabels that boundary.  A NaN or
    infinite h is no energy of an orbit and raises DomainError.
    """
    if not math.isfinite(h):
        raise DomainError(f"the energy h is {h}; no orbit class")
    if h < -PARABOLIC_BAND:
        kind = "Periodic"
    elif h > PARABOLIC_BAND:
        kind = "Hyperbolic"
    else:
        kind = "Parabolic"
    return OrbitClass(kind=kind, h=h)


def escape_speed(h: float) -> float:
    """Terminal speed sqrt(h) of an unbounded symmetric orbit."""
    if h < 0.0:
        raise DomainError(f"bounded motion (h={h} < 0) has no escape speed")
    return math.sqrt(h)


def momentum_radicand(q, h: float, m: float, r: float):
    """p^2 along the symmetric orbit of energy h at separation coordinate q > 0.

    q may be an array of separations, giving the array of their radicands,
    bit for bit the floats a call with each would give (np.sqrt is correctly
    rounded, as math.sqrt is); any other q is taken as a float.
    """
    sqrt = np.sqrt if isinstance(q, np.ndarray) else math.sqrt
    return h + 2.0 / sqrt(q * q + r * r) + m / (2.0 * q)


def momentum_profile(q, h: float, m: float, r: float):
    """Positive branch of the first integral: p(q) = sqrt(h + 2/sqrt(q^2+r^2) + m/(2q)).

    q may be an array: the result is then the array of p at each q, bit for
    bit, and the first q that has no p raises the DomainError a call with
    that q alone raises.
    """
    if isinstance(q, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):  # tested just below
            rad = momentum_radicand(q, h, m, r)
        bad = ~(q > 0.0) | (rad < 0.0)
        if np.any(bad):
            momentum_profile(q.flat[np.argmax(bad)], h, m, r)  # raises
        return np.sqrt(rad)
    if not q > 0.0:
        raise DomainError(f"profile needs q > 0, got {q}")
    rad = momentum_radicand(q, h, m, r)
    if rad < 0.0:
        raise DomainError(f"q={q} lies beyond the turning point (p^2 = {rad} < 0)")
    return math.sqrt(rad)


def turning_point(h: float, m: float, r: float) -> float:
    """Unique q > 0 where the radicand vanishes, for finite h < 0 and m >= 0.

    The radicand is then strictly decreasing in q, so bisecting its
    sign-change bracket down to adjacent floats finds it; monotone increasing
    in h.  A negative m would make the radicand rise from -inf at q = 0.
    """
    if not (math.isfinite(h) and math.isfinite(m)):
        raise DomainError(f"the turning point needs a finite h and m, got h={h}, m={m}")
    if h >= 0.0:
        raise DomainError(f"turning point exists only for h < 0, got h={h}")
    if m < 0.0:
        raise DomainError(f"the turning point needs m >= 0, got m={m}")
    lo = 1e-300 if m > 0.0 else 1e-12
    if m == 0.0 and momentum_radicand(lo, h, m, r) <= 0.0:
        raise DomainError(f"no admissible region at h={h} with m=0 and r={r}")
    hi = 1.0
    while momentum_radicand(hi, h, m, r) > 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise DomainError(f"radicand does not change sign below q=1e12 at h={h}")
    return _bisect(lambda q: momentum_radicand(q, h, m, r), lo, hi,
                   momentum_radicand(lo, h, m, r))


@lru_cache(maxsize=2)
def _gauss_nodes(n: int):
    """Gauss-Legendre nodes and weights of order n = NODES or 2 * NODES on
    [-1, 1]: numpy's leggauss(n) bit for bit, mirrored from the positive half
    committed in tables.GAUSS_HALVES, so no eigenvalue solve runs; cached,
    since each period needs n and 2n."""
    from .tables import GAUSS_HALVES

    x, w = (np.array(half) for half in GAUSS_HALVES[n])
    return np.concatenate((-x[::-1], x)), np.concatenate((w[::-1], w))


def _period_quadrature(h: float, m: float, r: float) -> float:
    """T = 2 * integral_0^qmax dq / p(q) after q = qmax sin^2(theta).

    The substitution clusters Gauss-Legendre nodes quadratically at both ends,
    which tames the 1/sqrt(q) start (for m > 0), the sqrt(qmax - q) top, and
    the O(sqrt(m)) boundary layer where the mutual term hands over to the ring
    term.  Raises AccuracyError when 2 * NODES nodes move the answer of NODES.
    """
    qmax = turning_point(h, m, r)
    x, w = _gauss_nodes(NODES)

    # p^2 = (qmax - q) S(q) with h eliminated through p(qmax) = 0, so that
    # the factor vanishing at the top is exact instead of a difference of
    # O(1) terms that an ulp of qmax upsets:
    # S = 2 (qmax + q) / (s_q s_max (s_q + s_max)) + m / (2 q qmax), s_x = sqrt(x^2 + r^2)
    s_max = math.sqrt(qmax * qmax + r * r)

    def total(xs, ws):
        acc = 0.0
        for xv, wv in zip(xs, ws):
            s = math.sin(0.25 * math.pi * (xv + 1.0))
            q = qmax * s * s
            s_q = math.sqrt(q * q + r * r)
            S = 2.0 * (qmax + q) / (s_q * s_max * (s_q + s_max)) + m / (2.0 * q * qmax)
            acc += wv * s / math.sqrt(S)
        # dq / p = 2 sqrt(qmax) sin(theta) / sqrt(S) dtheta and
        # dtheta = (pi/4) dx, so T = 2 * (pi/4) * 2 sqrt(qmax) * acc
        return math.pi * math.sqrt(qmax) * acc

    value = total(x, w)
    x2, w2 = _gauss_nodes(2 * NODES)
    check = total(x2, w2)
    if abs(check - value) > 1e-8 * max(1.0, abs(value)):
        raise AccuracyError(
            f"period quadrature not converged at {NODES} nodes "
            f"(refinement moved it by {abs(check - value):.3e})"
        )
    return check


# Longest fictitious time the flow method follows before giving up on a return.
_PERIOD_TAU_CAP = 50.0 * 4.0**5
# Most steps the flow method may need before it gives up without marching.
# The half loop takes at least about 2/sqrt(|h|) in tau near h = 0, so at the
# default step FLOW_STEP the budget admits |h| down to about 1e-6.
_PERIOD_STEP_BUDGET = 10**7


def _period_flow(h: float, m: float, r: float, step: float):
    """Follow the reduced regularized flow from one collision to the next.

    Returns (T, tau_half): the physical time between consecutive collisions
    (one full bounce of the separation, which is the physical period) and the
    fictitious time between them (half of the closed double-cover loop).  The
    march stops at the first return and keeps no samples in between.

    On Gamma = 0, P1^2 = 2m + 8 Q1^2/sqrt(Q1^4 + a^2) + h Q1^2 < 2m + 8, and
    Q1 runs from 0 to 2 sqrt(qmax) and back, so tau_half is at least
    4 sqrt(qmax) / sqrt(8 + 2m); when that lower bound is past the cap, or
    needs more than _PERIOD_STEP_BUDGET steps, the return is refused before
    any march.
    """
    tau_min = 4.0 * math.sqrt(turning_point(h, m, r)) / math.sqrt(8.0 + 2.0 * m)
    if tau_min / step > _PERIOD_STEP_BUDGET:
        raise AccuracyError(
            f"no collision return found within the budget of {_PERIOD_STEP_BUDGET} steps "
            f"of {step} at h={h}: the half loop needs at least {tau_min / step:.3g}"
        )
    if tau_min <= _PERIOD_TAU_CAP:
        p = Problem.reduced(h, m, 4.0 * r)
        cfg = IntegratorConfig(method="implicit_midpoint", step=step)
        y0 = (0.0, math.sqrt(2.0 * m))
        traj = integrate(p.field, y0, _PERIOD_TAU_CAP, cfg, time_scale=p.clock,
                         record_every=sys.maxsize, stop_after=1)
        if traj.events:
            ev = traj.events[0]
            return ev.t, ev.tau
    raise AccuracyError(
        f"no collision return found within tau span {_PERIOD_TAU_CAP} at h={h}"
    )


def period(h: float, m: float, r: float, method: str = "quadrature",
           step: float = FLOW_STEP) -> float:
    """Physical-time period of the symmetric collision orbit at energy h < 0.

    quadrature: 2 * integral of dq/p with the endpoint-taming substitution.
    flow: fictitious-time integration of the regularized system from collision
    to collision, reading the physical period off the dual clock.
    """
    _check_period_inputs(h, m, step if method == "flow" else None)
    if method == "quadrature":
        return _period_quadrature(h, m, r)
    if method == "flow":
        return _period_flow(h, m, r, step)[0]
    raise ParameterError(f"unknown period method {method!r}")


def _check_period_inputs(h: float, m: float, flow_step: float | None) -> None:
    """Refuse a non-finite h or m, an energy with no periodic orbit, and for
    the flow method (flow_step not None) a mass with no collision to start
    from or a step that is not positive and finite; a parabolic or hyperbolic
    orbit, or the rest point at m = 0, would never return."""
    if not (math.isfinite(h) and math.isfinite(m)):
        raise DomainError(f"the period needs a finite h and m, got h={h}, m={m}")
    if not h < 0.0:
        raise DomainError(f"periodic orbits require h < 0, got h={h}")
    if flow_step is not None and not m > 0.0:
        raise DomainError(f"the flow method starts at a collision and needs m > 0, got m={m}")
    if flow_step is not None and not 0.0 < flow_step < math.inf:
        raise ParameterError(f"step must be positive and finite, got {flow_step}")


def period_report(h: float, m: float, N: int, step: float = FLOW_STEP) -> dict:
    """Both period computations plus the fictitious-time period of the full
    closed orbit (two collision passages in the double cover).  Refuses
    h >= 0 and m <= 0 before any work, as period does."""
    _check_period_inputs(h, m, step)
    r = ring_radius(N)
    T_flow, tau_half = _period_flow(h, m, r, step)
    return {
        "h": h,
        "m": m,
        "N": N,
        "T_quadrature": _period_quadrature(h, m, r),
        "T_flow": T_flow,
        "tau_period": 2.0 * tau_half,
    }


def _mirror_linspace(lo: float, hi: float, n: int) -> np.ndarray:
    """linspace that is bitwise symmetric under negation when lo == -hi.

    Plain linspace accumulates rounding asymmetrically; building the negative
    half by negating the positive half keeps mirrored grid lines (and hence
    mirrored scan brackets) exact.  Symmetric ranges get an odd point count.
    """
    if lo != -hi:
        return np.linspace(lo, hi, n)
    half = np.linspace(0.0, hi, n // 2 + 1)
    return np.concatenate([-half[:0:-1], half])


def level_set_sample(h: float, m: float, a: float, q1_range: tuple, p1_range: tuple,
                     resolution: int) -> np.ndarray:
    """Points on the reduced level curve gamma_reduced = 0 inside a grid window.

    Each grid line is scanned for sign changes and every bracket is polished
    by bisection; bisection (rather than an open method) keeps mirrored
    brackets bitwise mirrored, so the output inherits the exact evenness of
    the curve in both Q1 and P1.  Every returned point satisfies
    |gamma_reduced| < 1e-10.  An empty intersection returns an empty array.
    """
    if resolution < 2:
        raise ParameterError(f"resolution must be at least 2, got {resolution}")
    if not (math.isfinite(h) and math.isfinite(m)):
        raise DomainError(f"the level set needs a finite h and m, got h={h}, m={m}")
    if not all(map(math.isfinite, (*q1_range, *p1_range))):
        raise DomainError(f"the level set needs a finite grid window, got Q1 range "
                          f"{q1_range} and P1 range {p1_range}")
    for name, (lo, hi) in (("Q1", q1_range), ("P1", p1_range)):
        if lo == hi:
            raise DomainError(f"the level set needs a {name} range with two distinct ends, "
                              f"got {name} range {(lo, hi)}")
    gam = Problem.reduced(h, m, a).gamma
    q_grid = _mirror_linspace(q1_range[0], q1_range[1], resolution)
    p_grid = _mirror_linspace(p1_range[0], p1_range[1], resolution)
    pts = []
    # along Q1 on every P1 grid line, then along P1 on every Q1 grid line;
    # point(x, c) is the state at x along the scan on the line at c.  Each
    # line is evaluated as one column, with the bits of a call per point
    for along, across, point in ((q_grid, p_grid, lambda x, c: (x, c)),
                                 (p_grid, q_grid, lambda x, c: (c, x))):
        xs = along.tolist()
        for c in across.tolist():
            vals = gam(point(along, c))
            for k in np.flatnonzero(vals[:-1] * vals[1:] < 0.0).tolist():
                root = _bisect(lambda x: gam(point(x, c)), xs[k], xs[k + 1], float(vals[k]))
                if abs(gam(point(root, c))) < 1e-10:
                    pts.append(point(root, c))
    if not pts:
        return np.empty((0, 2))
    return np.array(sorted(pts))


def kepler1d_validation(h: float, mu_grav: float) -> dict:
    """Validation on the one-dimensional two-body collision problem.

    The square-root chart x = u^2/2, y = v/u with dt = u^2 dtau turns the
    energy-h motion under H = y^2/2 - mu/x into the regular quadratic system
    generated by G = v^2/2 - h u^2 - 2 mu, i.e. a harmonic oscillation of
    u with omega^2 = 2|h| when h < 0, whose zero set is the energy relation

        mu = v^2/4 - (h/2) u^2.

    The report carries the measured residual of that relation along an
    integrated orbit, the collision-transit speed against |v| = 2 sqrt(mu),
    the turning point of x against mu/|h|, the measured oscillation frequency,
    and an FFT purity ratio of u(tau), over 8 periods of u.  The report's
    samples is the largest count at or below that of a step of 5e-4 with no
    prime factor above 7, a length numpy's FFT takes on its fast path: at
    h = -0.5, 100352 = 2^11 * 7^2 samples (steps of 5.009e-4), where 5e-4
    would give 100532 = 2^2 * 41 * 613 and Bluestein's slow path.

    The march streams its samples (integrate's on_block) and the report
    keeps u alone, one column.  It runs under integrate's level guard, so
    an orbit that leaves the energy relation (|residual| past
    integrators.INVARIANT_LIMIT) raises StepFailure instead of a report.
    """
    if h >= 0.0:
        raise DomainError(f"validation case is the bounded one, needs h < 0, got {h}")
    if not mu_grav > 0.0:
        raise ParameterError(f"gravitational parameter must be positive, got {mu_grav}")

    p = Problem.kepler1d(h, mu_grav)
    omega_sq = -2.0 * h
    period_tau = 2.0 * math.pi / math.sqrt(omega_sq)
    span = 8 * period_tau
    v0 = 2.0 * math.sqrt(mu_grav)
    n_steps = _smooth_count(round(span / 5e-4) + 1) - 1
    cfg = IntegratorConfig(method="implicit_midpoint", step=span / n_steps)
    # the march hands its samples over a block at a time and drops each a
    # block later: u goes into one column, and the residual is the
    # NaN-propagating max of each block's, the bits of np.max over them all
    us = np.empty(n_steps + 1)
    filled, residual = 0, 0.0

    def take(tau, t, states, values):
        nonlocal filled, residual
        us[filled:filled + len(values)] = states[:, 0]
        filled += len(values)
        residual = np.maximum(residual, np.max(np.abs(values)))

    traj = integrate(p.field, (0.0, v0), span, cfg, invariant=p.gamma, on_block=take)

    speeds = [abs(e.state[1]) for e in traj.collision_events()]
    speed_dev = np.max(np.abs(np.subtract(speeds, v0))) if speeds else float("nan")

    x_meas = 0.5 * float(np.max(us)) ** 2
    x_expect = mu_grav / abs(h)

    crossings = [e.tau for e in traj.collision_events()]
    if len(crossings) >= 2:
        gaps = np.diff(crossings)
        omega_meas_sq = (math.pi / float(np.mean(gaps))) ** 2
    else:
        omega_meas_sq = float("nan")

    us *= _blackman_harris(len(us))
    spec = np.abs(np.fft.rfft(us))
    spec[0] = 0.0
    peak = int(np.argmax(spec))
    lobe = 5  # main-lobe half width of the 4-term window, in bins
    side = np.concatenate([spec[: max(peak - lobe, 0)], spec[peak + lobe + 1:]])
    ratio = float(spec[peak] / np.max(side)) if side.size and np.max(side) > 0 else float("inf")

    return {
        "h": h,
        "mu_grav": mu_grav,
        "energy_relation_residual": float(residual),
        "collision_count": len(speeds),
        "collision_speed_expected": v0,
        "collision_speed_max_dev": float(speed_dev),
        "x_turning_measured": x_meas,
        "x_turning_expected": x_expect,
        "omega_sq_measured": omega_meas_sq,
        "omega_sq_expected": omega_sq,
        "fft_peak_ratio": ratio,
        "samples": len(traj),
    }


def _smooth_count(n: int) -> int:
    """The largest count at or below n >= 1 whose prime factors are all at
    most 7."""
    for count in range(n, 0, -1):
        rest = count
        for prime in (2, 3, 5, 7):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return count


def _blackman_harris(M: int) -> np.ndarray:
    """Symmetric 4-term Blackman-Harris window of M >= 2 points, built as
    scipy.signal.windows.blackmanharris builds it (bit for bit), without
    importing scipy.signal."""
    fac = np.linspace(-math.pi, math.pi, M)
    w = np.zeros(M)
    term = np.empty(M)  # a * cos(k * fac), one scratch array for every k
    for k, a in enumerate((0.35875, 0.48829, 0.14128, 0.01168)):
        np.multiply(k, fac, out=term)
        np.cos(term, out=term)
        term *= a
        w += term
    return w
