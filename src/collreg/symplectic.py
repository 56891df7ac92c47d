"""Linear and nonlinear symplecticity machinery.

Every symplecticity statement in this package uses a single convention:
states are ordered as (q_1, ..., q_n, p_1, ..., p_n) and the canonical
form is the block matrix

    Omega = [[ 0,  I_n],
             [-I_n, 0 ]].

A map is symplectic iff its Jacobian M satisfies M^T Omega M = Omega; the
numerical figure of merit is the max-norm defect of that identity.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import CollisionError, DomainError, ParameterError

__all__ = [
    "canonical_form",
    "symplectic_defect",
    "build_relative_map",
    "euler_forward",
    "euler_inverse",
    "euler_jacobian",
    "fd_jacobian",
]


def canonical_form(dim: int) -> np.ndarray:
    """Canonical symplectic matrix Omega for an even phase-space dimension."""
    if dim <= 0 or dim % 2 != 0:
        raise DomainError(f"phase-space dimension must be even and positive, got {dim}")
    n = dim // 2
    omega = np.zeros((dim, dim))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    return omega


def symplectic_defect(mat: np.ndarray) -> float:
    """Max-norm of M^T Omega M - Omega; zero iff M is symplectic."""
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {mat.shape}")
    omega = canonical_form(mat.shape[0])
    return float(np.max(np.abs(mat.T @ omega @ mat - omega)))


def build_relative_map(mu: float) -> np.ndarray:
    """4x4 symplectic matrix sending the two-body axis coordinates to
    relative/weighted-center coordinates.

    Under (q1, q2, p1, p2) ordering the position block maps
    (q1, q2) -> (q1 - q2, (1-mu) q1 + mu q2) and the momentum block maps
    (p1, p2) -> (mu p1 - (1-mu) p2, p1 + p2).
    """
    if not 0.0 < mu <= 0.5:
        raise ParameterError(f"mu must lie in (0, 1/2], got {mu}")
    return np.array(
        [
            [1.0, -1.0, 0.0, 0.0],
            [1.0 - mu, mu, 0.0, 0.0],
            [0.0, 0.0, mu, -(1.0 - mu)],
            [0.0, 0.0, 1.0, 1.0],
        ]
    )


def euler_forward(Q: float, P: float) -> tuple[float, float]:
    """Square-root collision map (Q, P) -> (Q^2/2, P/Q).

    Undefined at Q = 0 (the collision point): the momentum part divides by Q.
    Both branches Q and -Q land on the same (q, p) with opposite p sign.
    """
    if Q == 0.0:
        raise CollisionError("map undefined at the collision point Q = 0")
    return 0.5 * Q * Q, P / Q


def euler_inverse(q: float, p: float) -> tuple[float, float]:
    """Positive branch of the inverse collision map: Q = +sqrt(2q), P = p*Q."""
    if not q > 0.0:
        raise DomainError(f"euler_inverse needs q > 0, got q={q}")
    Q = math.sqrt(2.0 * q)
    return Q, p * Q


def euler_jacobian(Q: float, P: float) -> np.ndarray:
    """Exact Jacobian of euler_forward, [[Q, 0], [-P/Q^2, 1/Q]]; det = 1."""
    if Q == 0.0:
        raise CollisionError("map undefined at the collision point Q = 0")
    return np.array([[Q, 0.0], [-P / (Q * Q), 1.0 / Q]])


def fd_jacobian(func: Callable[[np.ndarray], np.ndarray], x, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of a state-to-state map.

    Entry error is O(step^2) in the truncation-dominated regime; the default
    step balances truncation against cancellation for O(1) states.  A map
    that fails at a probe point raises DomainError naming the coordinate.
    """
    if step <= 0.0:
        raise ParameterError(f"step must be positive, got {step}")
    x = np.asarray(x, dtype=float)
    n = x.size
    cols = []
    for k in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[k] += step
        xm[k] -= step
        try:
            fp = np.asarray(func(xp), dtype=float)
            fm = np.asarray(func(xm), dtype=float)
        except Exception as exc:
            raise DomainError(
                f"map evaluation failed while probing coordinate {k} at x[{k}]={x[k]!r}: {exc}"
            ) from exc
        # divide by the step actually realized in floating point, not the
        # nominal one; this removes the probe-rounding bias entirely
        cols.append((fp - fm) / (xp[k] - xm[k]))
    return np.column_stack(cols)
