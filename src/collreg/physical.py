"""Dynamics of the two secondaries in the physical chart.

State layout: y = (q1, q2, p1, p2) with q1 > q2 strictly; the hyperplane
q1 == q2 is the binary-collision set where the potential and the field blow
up.  Masses follow the MassParams normalization, so the kinetic matrix is
diag(1+eps, 1-eps) and the mutual attraction carries the factor m(1-eps^2).
"""

from __future__ import annotations

import math

import numpy as np

from .config import MassParams, RingConfig, primary_positions_3d
from .errors import CollisionError

__all__ = [
    "potential",
    "hamiltonian",
    "physical_field",
    "make_physical_rhs",
    "infinitesimal_accel_3d",
]


def _check_ordering(q1: float, q2: float):
    if not q1 > q2:
        raise CollisionError(f"physical chart requires q1 > q2, got q1={q1}, q2={q2}")


def potential(y, params: MassParams, ring: RingConfig) -> float:
    """Force function of the axis problem (sign convention H = T - V):

    V = (1+eps)/sqrt(q1^2 + r^2) + (1-eps)/sqrt(q2^2 + r^2) + m(1-eps^2)/(q1 - q2)
    """
    q1, q2 = float(y[0]), float(y[1])
    _check_ordering(q1, q2)
    e, m, r = params.epsilon, params.m, ring.radius
    return (
        (1.0 + e) / math.sqrt(q1 * q1 + r * r)
        + (1.0 - e) / math.sqrt(q2 * q2 + r * r)
        + m * (1.0 - e * e) / (q1 - q2)
    )


def hamiltonian(y, params: MassParams, ring: RingConfig) -> float:
    """H = p1^2/(2(1+eps)) + p2^2/(2(1-eps)) - V(q1, q2)."""
    p1, p2 = float(y[2]), float(y[3])
    e = params.epsilon
    kinetic = p1 * p1 / (2.0 * (1.0 + e)) + p2 * p2 / (2.0 * (1.0 - e))
    return kinetic - potential(y, params, ring)


def physical_field(y, params: MassParams, ring: RingConfig) -> np.ndarray:
    """Hamiltonian vector field in the physical chart.

    The mutual terms are equal and opposite on the two bodies, so
    dp1/dt + dp2/dt reduces to the ring attraction alone.
    """
    q1, q2 = float(y[0]), float(y[1])
    _check_ordering(q1, q2)
    return np.array(make_physical_rhs(params, ring)(y))


def make_physical_rhs(params: MassParams, ring: RingConfig):
    """Scalar fast path for integrators: y -> (dq1, dq2, dp1, dp2) as a tuple."""
    e, m, r2 = params.epsilon, params.m, ring.radius**2
    a, b = 1.0 + e, 1.0 - e
    mab = m * a * b

    def rhs(y):
        q1, q2, p1, p2 = y
        d = q1 - q2
        mutual = mab / (d * d)
        return (
            p1 / a,
            p2 / b,
            -a * q1 / (q1 * q1 + r2) ** 1.5 - mutual,
            -b * q2 / (q2 * q2 + r2) ** 1.5 + mutual,
        )

    return rhs


def infinitesimal_accel_3d(z, ring: RingConfig, phase=0.0) -> np.ndarray:
    """Full 3-D Newtonian acceleration on a test particle at (0, 0, z) from the
    N ring primaries at the given rotation phase.

    The horizontal components cancel by the N-fold symmetry; the axial one is
    -z/(z^2 + r^2)^(3/2).  z and phase may be arrays: they broadcast against
    each other, and the result has their shape plus a last axis of the 3
    components ((3,) for two floats), bit for bit the values of one call per
    pair, since the powers are taken as d^2 * sqrt(d^2), correctly rounded
    on arrays and floats alike.
    """
    pos = primary_positions_3d(ring, phase)
    # the separation x - pos[k] of every vertex k, one array a component
    dv = (0.0 - pos[..., 0], 0.0 - pos[..., 1], np.expand_dims(z, -1) - pos[..., 2])
    d2 = dv[0] * dv[0] + dv[1] * dv[1] + dv[2] * dv[2]
    d3 = d2 * np.sqrt(d2)
    acc = (0.0, 0.0, 0.0)
    for k in range(ring.N):
        acc = tuple(a - ring.primary_mass * c[..., k] / d3[..., k] for a, c in zip(acc, dv))
    return np.stack(np.broadcast_arrays(*acc), axis=-1)
