import math

import numpy as np
import pytest

from collreg import (
    CollisionError,
    DomainError,
    MassParams,
    build_relative_map,
    canonical_form,
    euler_forward,
    euler_inverse,
    euler_jacobian,
    fd_jacobian,
    symplectic_defect,
)
from collreg.regularized import chart_to_physical


def test_canonical_form_layout():
    omega = canonical_form(4)
    expect = np.array([
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [-1, 0, 0, 0],
        [0, -1, 0, 0],
    ], dtype=float)
    assert np.array_equal(omega, expect)


def test_canonical_form_rejects_odd_dim():
    with pytest.raises(DomainError):
        canonical_form(3)
    with pytest.raises(DomainError):
        canonical_form(0)


def test_defect_identity_is_zero():
    assert symplectic_defect(np.eye(4)) == 0.0


def test_defect_doubled_identity():
    # M = 2I gives M^T Omega M = 4 Omega, so the defect is the max entry of 3 Omega
    assert symplectic_defect(2.0 * np.eye(4)) == 3.0


def test_defect_rejects_odd_dim():
    with pytest.raises(DomainError):
        symplectic_defect(np.eye(3))


def test_relative_map_is_symplectic_at_sample_value():
    assert symplectic_defect(build_relative_map(0.3)) < 1e-12


def test_relative_map_half_layout():
    expect = np.array([
        [1.0, -1.0, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, -0.5],
        [0.0, 0.0, 1.0, 1.0],
    ])
    assert np.array_equal(build_relative_map(0.5), expect)


def test_relative_map_determinant_and_defect():
    rng = np.random.default_rng(7)
    for mu in rng.uniform(1e-9, 0.5, 100):
        mat = build_relative_map(mu)
        # det = (mu + (1-mu))^2 = 1 by direct block expansion
        assert abs(np.linalg.det(mat) - 1.0) < 1e-12
        assert symplectic_defect(mat) < 1e-12


def test_relative_map_range_errors():
    for bad in (0.0, -0.1, 0.50001, 1.0):
        with pytest.raises(ValueError):
            build_relative_map(bad)


def test_euler_forward_values():
    assert euler_forward(2.0, 3.0) == (2.0, 1.5)
    assert euler_forward(1.0, 0.0) == (0.5, 0.0)
    # double cover: the negative branch lands on the same base point
    assert euler_forward(-2.0, 3.0) == (2.0, -1.5)


def test_euler_forward_collision_point():
    with pytest.raises(CollisionError):
        euler_forward(0.0, 1.0)


def test_euler_inverse_values():
    assert euler_inverse(8.0, 1.0) == (4.0, 4.0)
    assert euler_inverse(0.5, 0.0) == (1.0, 0.0)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            euler_inverse(bad, 1.0)


def test_euler_roundtrips():
    rng = np.random.default_rng(11)
    for _ in range(100):
        q = rng.uniform(1e-6, 50.0)
        p = rng.uniform(-10.0, 10.0)
        q2, p2 = euler_forward(*euler_inverse(q, p))
        assert abs(q2 - q) <= 1e-14 * max(1.0, abs(q))
        assert abs(p2 - p) <= 1e-14 * max(1.0, abs(p))
    for _ in range(100):
        Q = rng.uniform(1e-3, 10.0)  # restricted to the positive branch
        P = rng.uniform(-10.0, 10.0)
        Q2, P2 = euler_inverse(*euler_forward(Q, P))
        assert abs(Q2 - Q) <= 1e-14 * max(1.0, abs(Q))
        assert abs(P2 - P) <= 1e-14 * max(1.0, abs(P))


def test_euler_jacobian_unit_determinant():
    rng = np.random.default_rng(13)
    for _ in range(50):
        Q = rng.uniform(0.05, 5.0) * rng.choice([-1.0, 1.0])
        P = rng.uniform(-5.0, 5.0)
        jac = euler_jacobian(Q, P)
        assert abs(np.linalg.det(jac) - 1.0) < 1e-14
        assert symplectic_defect(jac) < 1e-14


def test_euler_jacobian_matches_finite_differences():
    def fwd(v):
        return np.array(euler_forward(v[0], v[1]))

    x = np.array([1.7, -0.9])
    assert np.max(np.abs(fd_jacobian(fwd, x) - euler_jacobian(*x))) < 1e-9


def test_fd_jacobian_identity_and_linear():
    x = np.array([0.3, -1.2, 2.0, 0.7])
    assert np.max(np.abs(fd_jacobian(lambda v: v, x) - np.eye(4))) < 1e-12
    rng = np.random.default_rng(17)
    mat = rng.normal(size=(4, 4))
    assert np.max(np.abs(fd_jacobian(lambda v: mat @ v, x) - mat)) < 1e-9


def test_fd_jacobian_reports_offending_coordinate():
    def partial(v):
        if v[1] < 0.0:
            raise ValueError("negative branch")
        return v

    with pytest.raises(DomainError, match="coordinate 1"):
        fd_jacobian(partial, np.array([1.0, 1e-8]), step=1e-6)


def test_fd_jacobian_step_validation():
    with pytest.raises(ValueError):
        fd_jacobian(lambda v: v, np.zeros(2), step=0.0)


def test_chart_jacobian_defect_via_fd():
    params = MassParams(m=1e-3, epsilon=0.3)
    z = np.array([1.3, 0.2, 0.7, -0.4])
    jac = fd_jacobian(lambda w: chart_to_physical(w, params), z, step=1e-6)
    assert symplectic_defect(jac) < 1e-6
