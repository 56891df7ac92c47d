"""Collision-regularizing chart, fictitious time, and the regular Hamiltonians.

With mu = (1 - eps)/2 the chart is rho = B^-1 o E, the symplectic module's
two maps: the Euler map E = euler_forward, (Q1, P1) -> (Q1^2/2, P1/Q1), then
the inverse of B = build_relative_map(mu), which sends (q1, q2) to the
separation and the weighted centre.  Written out, rho maps (Q1, Q2, P1, P2) to

    q1 = Q2 + (mu/2) Q1^2          p1 = (1-mu) P2 + P1/Q1
    q2 = Q2 - ((1-mu)/2) Q1^2      p2 = mu P2 - P1/Q1

so the separation is q1 - q2 = Q1^2/2 >= 0 and Q1 runs over the whole real
line: the two half-lines form a double cover of the separation and binary
collisions become transversal Q1 = 0 crossings.  Physical time accumulates as

    dt/dtau = 2 mu (1-mu) Q1^2  (= (1 - eps^2)/2 * Q1^2),

which freezes exactly at collision.  On a fixed energy level h the flow in
fictitious time tau is generated by the globally regular Hamiltonian

    Gamma(z; h) = (1/2) (mu(1-mu) P2^2 Q1^2 + P1^2) - 16 mu^2 (1-mu)^2 m
                  - 2 mu (1-mu) Q1^2 [ 4(1-mu)/sqrt((2Q2 + mu Q1^2)^2 + 4r^2)
                                     + 4 mu  /sqrt((2Q2 - (1-mu) Q1^2)^2 + 4r^2)
                                     + h ],

which satisfies Gamma = g * (H o rho - h) away from Q1 = 0, with g the time
scale above.  All vector fields below are hand-derived symplectic gradients
of Gamma (resp. of its reduced restriction), and every derivative is
cross-checked in the test suite three independent ways: by finite
differences, by restriction of the full field, and by the chain rule against
the physical field.  Sign conventions live or die by those oracles, nothing
else.

Problem bundles a system's field, Gamma, clock and level projection; its
constructors are the one place where each system is wired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .config import MassParams, RingConfig
from .errors import DomainError
from .symplectic import (build_relative_map, canonical_form, euler_forward, euler_inverse,
                         euler_jacobian)

__all__ = [
    "Problem",
    "chart_to_physical",
    "collision_positions",
    "chart_to_regularized",
    "chart_jacobian",
    "time_scale",
    "gamma",
    "gamma_reduced",
    "regularized_field",
    "reduced_field",
    "collision_momentum",
    "project_to_level",
    "reduced_level_momentum",
]


def chart_to_physical(z, params: MassParams) -> np.ndarray:
    """Map a regularized state to (q1, q2, p1, p2): B^-1 after the Euler map.

    The momentum components carry P1/Q1 and are genuinely singular at Q1 = 0;
    use collision_positions for the (well-defined) positions there.
    """
    Q1, Q2, P1, P2 = _finite_state(z, "chart_to_physical")
    x, px = euler_forward(Q1, P1)
    return _relative_inverse(params.mu) @ np.array([x, Q2, px, P2])


def collision_positions(z, params: MassParams) -> tuple[float, float]:
    """Positions-only part of the chart, B^-1's position block on the Euler
    map's (Q1^2/2, Q2), defined at Q1 = 0, where both bodies sit at Q2."""
    Q1, Q2 = float(z[0]), float(z[1])
    q1, q2 = _relative_inverse(params.mu)[:2, :2] @ (0.5 * Q1 * Q1, Q2)
    return float(q1), float(q2)


def chart_to_regularized(y, params: MassParams) -> np.ndarray:
    """Inverse chart on q1 > q2: B, then the Euler map's positive branch
    Q1 = +sqrt(2(q1-q2))."""
    y = np.array(_finite_state(y, "chart_to_regularized"))
    x, X, px, P2 = build_relative_map(params.mu) @ y
    Q1, P1 = euler_inverse(x, px)
    return np.array([Q1, X, P1, P2])


def chart_jacobian(z, params: MassParams) -> np.ndarray:
    """Exact Jacobian of chart_to_physical, rows ordered (q1, q2, p1, p2)."""
    Q1, _, P1, _ = (float(v) for v in z)
    euler = np.eye(4)
    euler[np.ix_((0, 2), (0, 2))] = euler_jacobian(Q1, P1)
    return _relative_inverse(params.mu) @ euler


def _finite_state(state, name: str) -> tuple:
    """state as a tuple of floats, or DomainError naming it if a component is
    NaN or infinite: B's and B^-1's zero entries would turn an infinity into
    NaN in the other components of the product."""
    state = tuple(float(v) for v in state)
    if not all(map(math.isfinite, state)):
        raise DomainError(f"{name} needs a finite state, got {list(state)}")
    return state


_OMEGA = canonical_form(4)


@lru_cache(maxsize=16)
def _relative_inverse(mu: float) -> np.ndarray:
    """B^-1 = -Omega B^T Omega for B = build_relative_map(mu): exact, since
    Omega only moves entries and flips their signs.  Cached per mu, since
    every chart call needs it, and read-only, since every caller shares it."""
    inv = -_OMEGA @ build_relative_map(mu).T @ _OMEGA
    inv.flags.writeable = False
    return inv


def time_scale(z, params: MassParams) -> float:
    """dt/dtau = 2 mu (1-mu) Q1^2; vanishes exactly at collision."""
    Q1, mu = float(z[0]), params.mu
    return 2.0 * mu * (1.0 - mu) * Q1 * Q1


def gamma(z, h: float, params: MassParams, ring: RingConfig) -> float:
    """Regularized Hamiltonian on the level h; finite for every state,
    including the collision set Q1 = 0."""
    return Problem.sitnikov(h, params, ring).gamma(tuple(float(v) for v in z))


def gamma_reduced(s, h: float, m: float, a: float) -> float:
    """One-degree-of-freedom Hamiltonian of the symmetric problem (eps = 0,
    Q2 = P2 = 0), with a = 4 * ring radius:

        G~ = P1^2/2 - 4 Q1^2 (1/sqrt(Q1^4 + a^2) + h/8) - m
    """
    return Problem.reduced(h, m, a).gamma((float(s[0]), float(s[1])))


def regularized_field(z, h: float, params: MassParams, ring: RingConfig) -> np.ndarray:
    """dz/dtau for the full regularized system (see Problem.sitnikov)."""
    return np.array(Problem.sitnikov(h, params, ring).field(tuple(float(v) for v in z)))


def reduced_field(s, h: float, a: float) -> np.ndarray:
    """ds/dtau for the reduced system (see Problem.reduced); the mass enters
    only Gamma and the projection."""
    return np.array(Problem.reduced(h, 0.0, a).field((float(s[0]), float(s[1]))))


def collision_momentum(params: MassParams) -> float:
    """|P1| forced at any Q1 = 0 point of the level set Gamma = 0:
    (1 - eps^2) * sqrt(2m), independent of Q2 and P2."""
    e = params.epsilon
    return (1.0 - e * e) * math.sqrt(2.0 * params.m)


def reduced_level_momentum(Q1: float, h: float, m: float, a: float) -> float:
    """Nonnegative P1 with gamma_reduced((Q1, P1)) = 0, if it exists."""
    q = Q1 * Q1
    p1sq = 2.0 * m + 8.0 * q / math.sqrt(q * q + a * a) + h * q
    if p1sq < 0.0:
        raise DomainError(
            f"no real momentum on the level h={h} at Q1={Q1}: P1^2 would be {p1sq}"
        )
    return math.sqrt(p1sq)


def project_to_level(z, h: float, params: MassParams, ring: RingConfig) -> np.ndarray:
    """Adjust |P1| so the state lies on Gamma = 0, keeping its sign.

    The given (Q1, Q2, P2) are held fixed; refuses when no real P1 exists.
    A zero input momentum projects onto the nonnegative branch.
    """
    return Problem.sitnikov(h, params, ring).project(z)


def _sqrt(x):
    """math.sqrt for a float, numpy's for a column of them: both round
    correctly, so a Gamma gives the same bits on a state and on columns."""
    return math.sqrt(x) if x.__class__ is float else np.sqrt(x)


def _signed(mag: float, p: float) -> float:
    """mag with the sign of p; the nonnegative branch when p is zero."""
    return math.copysign(mag, p) if p != 0.0 else mag


@dataclass(frozen=True)
class Problem:
    """One regularized system, wired in one place.

    field(z) -> dz/dtau takes the state as a sequence of floats.  gamma(z)
    takes it so too, or as columns, one array a component (a 2-D array of
    shape (n, k) for k states), and then gives the k values, bit for bit
    the ones it gives state by state: its squares are products and its roots
    correctly rounded, never a libm pow.  clock(Q1) -> dt/dtau reads Q1
    alone, as every clock here does; project(z) solves Gamma = 0 for |P1|
    (the momentum paired with Q1), keeping its sign, and raises DomainError
    where the level has no real momentum.

    Each constructor writes its field and clock as straight-line defs: the
    field unpacks its state into names, assigns, and returns one expression
    a component; the clock returns one expression of Q1; both read nothing
    but their argument, their own names and the constructor's constants.
    integrate's march writes those bodies out in place of the calls
    (integrators._MARCH), with the same operations in the same order, so a
    new constructor's field and clock keep that shape.
    """

    field: Callable
    gamma: Callable
    clock: Callable
    project: Callable

    @classmethod
    def sitnikov(cls, h: float, params: MassParams, ring: RingConfig) -> "Problem":
        """The full system, state (Q1, Q2, P1, P2), on the energy level h.  Its
        field, the symplectic gradient of Gamma with closed-form partials, is
        regular through Q1 = 0, where it collapses to (P1, 0, 0, 0)."""
        mu = params.mu
        omu = 1.0 - mu
        r4 = 4.0 * ring.radius**2
        c_omu = 4.0 * omu
        c_mu = 4.0 * mu
        momu = mu * omu
        momu8 = 8.0 * momu
        neg_momu = -momu
        W = 2.0 * mu * omu
        offset = 16.0 * mu * mu * omu * omu * params.m
        pc_sq = 32.0 * (mu * omu) ** 2 * params.m  # |P1|^2 at Q1 = 0
        sqrt = math.sqrt

        def field(z):
            # the products and constants are formed once, in the order and
            # rounding of the closed forms, so the bits are theirs
            Q1, Q2, P1, P2 = z
            q1sq = Q1 * Q1
            A = 2.0 * Q2 + mu * q1sq
            B = 2.0 * Q2 - omu * q1sq
            DA = A * A + r4
            DB = B * B + r4
            sA = sqrt(DA)
            sB = sqrt(DB)
            DsA = DA * sA
            DsB = DB * sB
            U = c_omu / sA + c_mu / sB
            dU_dQ1 = momu8 * Q1 * (B / DsB - A / DsA)
            dU_dQ2 = -8.0 * (omu * A / DsA + mu * B / DsB)
            return (
                P1,
                momu * q1sq * P2,
                neg_momu * P2 * P2 * Q1 + W * (2.0 * Q1 * (U + h) + q1sq * dU_dQ1),
                W * q1sq * dU_dQ2,
            )

        def bracket(q1sq, Q2):
            """U + h, the potential's bracket in Gamma, at Q1^2 and Q2."""
            A = 2.0 * Q2 + mu * q1sq
            B = 2.0 * Q2 - omu * q1sq
            return c_omu / _sqrt(A * A + r4) + c_mu / _sqrt(B * B + r4) + h

        def gam(z):
            Q1, Q2, P1, P2 = z
            q1sq = Q1 * Q1
            return 0.5 * (momu * P2 * P2 * q1sq + P1 * P1) - offset - W * q1sq * bracket(q1sq, Q2)

        def clock(Q1):
            return W * Q1 * Q1

        def project(z):
            Q1, Q2, P1, P2 = (float(v) for v in z)
            q1sq = Q1 * Q1
            p1sq = pc_sq + c_mu * omu * q1sq * bracket(q1sq, Q2) - momu * P2 * P2 * q1sq
            if p1sq < 0.0:
                raise DomainError(
                    f"no real momentum on the level h={h} at (Q1={Q1}, Q2={Q2}, P2={P2})"
                )
            return np.array([Q1, Q2, _signed(math.sqrt(p1sq), P1), P2])

        return cls(field, gam, clock, project)

    @classmethod
    def reduced(cls, h: float, m: float, a: float) -> "Problem":
        """The symmetric system, state (Q1, P1), with a = 4 * ring radius, the
        clock dt/dtau = Q1^2/2 and the field

            Q1' = P1,   P1' = 8 Q1 (a^2/(Q1^4 + a^2)^(3/2) + h/8),

        whose sign of P1' the verification suite confirms twice, as the
        symplectic gradient of gamma_reduced and by the chain rule from the
        physical force; a flipped sign fails both."""
        if not a > 0.0:
            raise DomainError(f"need a > 0, got {a}")
        asq = a * a
        h8 = h / 8.0
        sqrt = math.sqrt

        def field(s):
            Q1, P1 = s
            d = Q1 * Q1 * Q1 * Q1 + asq
            return (P1, 8.0 * Q1 * (asq / (d * sqrt(d)) + h8))

        def gam(s):
            Q1, P1 = s
            q = Q1 * Q1
            return 0.5 * P1 * P1 - 4.0 * q * (1.0 / _sqrt(q * q + asq) + h8) - m

        def clock(Q1):
            return 0.5 * Q1 * Q1

        def project(s):
            Q1 = float(s[0])
            return (Q1, _signed(reduced_level_momentum(Q1, h, m, a), float(s[1])))

        return cls(field, gam, clock, project)

    @classmethod
    def kepler1d(cls, h: float, mu_grav: float) -> "Problem":
        """The one-dimensional two-body problem, state (u, v), in the chart
        x = u^2/2, y = v/u, dt = u^2 dtau: the field (v, 2 h u) of
        v^2/2 - h u^2 - 2 mu_grav, and as gamma the energy relation
        v^2/4 - (h/2) u^2 - mu_grav."""
        two_h = 2.0 * h

        def field(s):
            u, v = s
            return (v, two_h * u)

        def gam(s):
            u, v = s
            return 0.25 * (v * v) - 0.5 * h * (u * u) - mu_grav

        def clock(u):
            return u * u

        def project(s):
            u = float(s[0])
            vsq = 4.0 * (mu_grav + 0.5 * h * u ** 2)
            if vsq < 0.0:
                raise DomainError(f"no real momentum on the level h={h} at u={u}")
            return (u, _signed(math.sqrt(vsq), float(s[1])))

        return cls(field, gam, clock, project)
