"""Problem parameterization: secondary masses and the rotating ring of primaries.

Units: G = 1, each of the N primaries has mass 1/N, and the ring rotates with
unit angular velocity when the radius is computed.  The subsequent rescaling
of time by the mean secondary mass changes the angular velocity but leaves the
rectilinear axis dynamics depending on the ring only through its radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "MassParams",
    "RingConfig",
    "rescale_masses",
    "ring_radius",
    "bp_radius",
    "primary_positions_3d",
]


@dataclass(frozen=True)
class MassParams:
    """Mean mass m and asymmetry epsilon of the two secondaries.

    m = (m1 + m2)/2 and epsilon = (m1 - m2)/(m1 + m2); after the t -> m t
    rescaling the kinetic matrix carries the reduced masses alpha = 1 + epsilon
    and beta = 1 - epsilon.  epsilon = 1 (a massless second body) degenerates
    the collision time rescaling and is rejected.
    """

    m: float
    epsilon: float = 0.0

    def __post_init__(self):
        if not self.m > 0.0:
            raise ParameterError(f"mean mass must be positive, got {self.m}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ParameterError(f"epsilon must lie in [0, 1), got {self.epsilon}")

    @property
    def mu(self) -> float:
        return (1.0 - self.epsilon) / 2.0

    @property
    def alpha(self) -> float:
        return 1.0 + self.epsilon

    @property
    def beta(self) -> float:
        return 1.0 - self.epsilon

    @property
    def m1(self) -> float:
        return self.m * (1.0 + self.epsilon)

    @property
    def m2(self) -> float:
        return self.m * (1.0 - self.epsilon)


def rescale_masses(m1: float, m2: float) -> MassParams:
    """Mean/asymmetry parameters from the individual secondary masses.

    Requires 0 < m2 <= m1; the swap symmetry of the two bodies fixes
    epsilon >= 0.
    """
    if not (m1 > 0.0 and m2 > 0.0):
        raise ParameterError(f"masses must be positive, got m1={m1}, m2={m2}")
    if m2 > m1:
        raise ParameterError(f"expected m2 <= m1, got m1={m1}, m2={m2}")
    total = m1 + m2
    return MassParams(m=total / 2.0, epsilon=(m1 - m2) / total)


def ring_radius(N: int) -> float:
    """Radius of the unit-angular-velocity relative equilibrium of N primaries
    of mass 1/N on a regular N-gon.

    With nu = floor(N/2),

        N odd:  r^3 = (1/2N) * sum_{g=1}^{nu} 1/sin(pi g / N)
        N even: r^3 = (1/2N) * (1/2 + sum_{g=1}^{nu-1} 1/sin(pi g / N))
    """
    if N < 2:
        raise ParameterError(f"need at least two primaries, got N={N}")
    # summed from a generator, not a list: N = 3e7 would hold 1.5e7 floats
    terms = (1.0 / math.sin(math.pi * g / N) for g in range(1, (N + 1) // 2))
    cube = ((0.0 if N % 2 else 0.5) + sum(terms)) / (2.0 * N)
    return cube ** (1.0 / 3.0)


def bp_radius(N: int) -> float:
    """Comparison radius r = csc(pi/N)/2 quoted for N-gon relative equilibria
    in earlier work on the one-secondary problem.

    Agrees with ring_radius at N = 3 but is a distinct formula; provided for
    cross-checks only and never fed into the dynamics.
    """
    if N < 2:
        raise ParameterError(f"need at least two primaries, got N={N}")
    return 0.5 / math.sin(math.pi / N)


@dataclass(frozen=True)
class RingConfig:
    """Regular N-gon of primaries in the horizontal plane, centered at the origin."""

    N: int
    radius: float

    def __post_init__(self):
        if self.N < 2:
            raise ParameterError(f"need at least two primaries, got N={self.N}")
        if not self.radius > 0.0:
            raise ParameterError(f"radius must be positive, got {self.radius}")

    @classmethod
    def for_count(cls, N: int) -> "RingConfig":
        return cls(N=N, radius=ring_radius(N))

    @property
    def primary_mass(self) -> float:
        return 1.0 / self.N


def primary_positions_3d(ring: RingConfig, phase=0.0) -> np.ndarray:
    """(N, 3) vertex positions at a given rotation phase; all at height z = 0.
    An array of phases gives an array of them, of shape phase.shape + (N, 3)."""
    ang = 2.0 * math.pi * np.arange(ring.N) / ring.N + np.expand_dims(phase, -1)
    return np.stack(
        [ring.radius * np.cos(ang), ring.radius * np.sin(ang), np.zeros_like(ang)], axis=-1
    )

