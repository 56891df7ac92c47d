import math

import numpy as np
import pytest

from collreg import (
    CollisionError,
    DomainError,
    MassParams,
    Problem,
    RingConfig,
    canonical_form,
    chart_to_physical,
    chart_to_regularized,
    collision_momentum,
    collision_positions,
    gamma,
    gamma_reduced,
    hamiltonian,
    project_to_level,
    reduced_field,
    regularized_field,
    symplectic_defect,
    time_scale,
)
from collreg.physical import make_physical_rhs
from collreg.regularized import (
    chart_jacobian,
    reduced_level_momentum,
)


def params_ring(eps=0.0, N=2, m=1e-3):
    return MassParams(m=m, epsilon=eps), RingConfig.for_count(N)


def test_chart_forward_symmetric_example():
    params, _ = params_ring()
    y = chart_to_physical([2.0, 0.0, 1.0, 0.0], params)
    assert np.allclose(y, [1.0, -1.0, 0.5, -0.5], atol=1e-16)


def test_chart_forward_asymmetric_example():
    params = MassParams(m=1e-3, epsilon=0.5)  # mu = 0.25
    y = chart_to_physical([2.0, 0.0, 0.0, 1.0], params)
    assert np.allclose(y, [0.5, -1.5, 0.75, 0.25], atol=1e-16)


def test_chart_separation_identity():
    rng = np.random.default_rng(43)
    params = MassParams(m=1e-3, epsilon=0.37)
    for _ in range(50):
        z = rng.uniform(-3, 3, 4)
        if abs(z[0]) < 1e-3:
            continue
        y = chart_to_physical(z, params)
        assert abs((y[0] - y[1]) - 0.5 * z[0] ** 2) < 1e-14


def test_chart_collision_point():
    params, _ = params_ring()
    with pytest.raises(CollisionError):
        chart_to_physical([0.0, 0.3, 0.1, 0.2], params)
    q1, q2 = collision_positions([0.0, 0.3, 0.1, 0.2], params)
    assert q1 == 0.3 and q2 == 0.3


def test_chart_inverse_example():
    params, _ = params_ring()
    z = chart_to_regularized([1.0, -1.0, 0.5, -0.5], params)
    assert np.allclose(z, [2.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_chart_inverse_symmetric_lands_on_invariant_plane():
    params, _ = params_ring()
    rng = np.random.default_rng(47)
    for _ in range(30):
        q = rng.uniform(0.01, 3.0)
        p = rng.uniform(-3.0, 3.0)
        z = chart_to_regularized([q, -q, p, -p], params)
        assert z[1] == 0.0 and z[3] == 0.0


def test_chart_roundtrip():
    rng = np.random.default_rng(53)
    for eps in (0.0, 0.3, 0.7, 0.9):
        params = MassParams(m=1e-3, epsilon=eps)
        for _ in range(25):
            q2 = rng.uniform(-2.0, 1.0)
            q1 = q2 + rng.uniform(1e-3, 4.0)
            y = np.array([q1, q2, rng.uniform(-3, 3), rng.uniform(-3, 3)])
            back = chart_to_physical(chart_to_regularized(y, params), params)
            assert np.max(np.abs(back - y)) < 1e-13 * max(1.0, np.max(np.abs(y)))


def test_chart_inverse_rejects_ordering():
    params, _ = params_ring()
    for q1 in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            chart_to_regularized([q1, 0.0, 0.0, 0.0], params)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("k", [1, 3])  # a position, a momentum
def test_the_chart_maps_refuse_a_non_finite_state(bad, k):
    # refused before the product with B, whose zero entries would otherwise
    # spread the value over the other components with a RuntimeWarning
    params, _ = params_ring(eps=0.3)
    state = [1.0, 0.0, 0.5, 0.25]
    state[k] = bad
    for chart in (chart_to_physical, chart_to_regularized):
        with pytest.raises(DomainError,
                           match=rf"^{chart.__name__} needs a finite state, got \[1\.0, "):
            chart(state, params)


def test_the_cached_relative_inverse_is_read_only():
    from collreg import build_relative_map, regularized

    params, _ = params_ring(eps=0.3)
    inv = regularized._relative_inverse(params.mu)
    assert inv is regularized._relative_inverse(params.mu)
    assert np.array_equal(inv @ build_relative_map(params.mu), np.eye(4))
    with pytest.raises(ValueError, match="read-only"):
        inv[0, 0] = 2.0
    # the chart maps hand back arrays of their own, not the cached matrix
    z = [0.8, -0.3, 1.1, 0.6]
    for out in (chart_to_physical(z, params), chart_jacobian(z, params)):
        out[0] = 7.0
    assert np.array_equal(inv @ build_relative_map(params.mu), np.eye(4))


def test_chart_jacobian_exact_vs_fd():
    from collreg import fd_jacobian

    params = MassParams(m=1e-3, epsilon=0.45)
    z = np.array([0.8, -0.3, 1.1, 0.6])
    jac_fd = fd_jacobian(lambda w: chart_to_physical(w, params), z)
    assert np.max(np.abs(jac_fd - chart_jacobian(z, params))) < 1e-8


@pytest.mark.parametrize("eps", [0.0, 0.3, 0.9])
def test_chart_jacobian_is_symplectic(eps):
    # the exact Jacobian of rho = B^-1 o Euler; |Q1| >= 0.5 keeps the P1/Q1^2
    # entry, and with it the defect's own rounding, of order one
    params = MassParams(m=1e-3, epsilon=eps)
    rng = np.random.default_rng(61)
    for _ in range(50):
        z = rng.uniform(-3.0, 3.0, 4)
        z[0] = rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 3.0)
        assert symplectic_defect(chart_jacobian(z, params)) < 1e-14


def test_time_scale_values():
    params, _ = params_ring(eps=0.0)
    assert time_scale([0.0, 1.0, 2.0, 3.0], params) == 0.0
    assert time_scale([2.0, 0.0, 0.0, 0.0], params) == 2.0


def test_time_scale_two_algebraic_forms():
    # 2 mu (1-mu) Q1^2 against ((1-eps^2)/2) Q1^2: identical algebraically,
    # so the two evaluation orders may differ only by a few last-place
    # roundings of the coefficient
    rng = np.random.default_rng(59)
    for _ in range(500):
        eps = rng.uniform(0.0, 0.999)
        params = MassParams(m=1e-3, epsilon=eps)
        Q1 = rng.uniform(-3.0, 3.0)
        a = time_scale([Q1, 0, 0, 0], params)
        b = 0.5 * (1.0 - eps * eps) * Q1 * Q1
        if b != 0.0:
            # near eps = 1 the 1 - eps^2 form cancels; 2 mu (1-mu) does not
            tol = 1e-15 + 4e-16 / (1.0 - eps * eps)
            assert abs(a - b) / abs(b) < tol


def test_gamma_matches_reduced_on_invariant_plane():
    rng = np.random.default_rng(61)
    for N in (2, 3, 5, 8):
        params, ring = params_ring(eps=0.0, N=N)
        a = 4.0 * ring.radius
        for _ in range(25):
            Q1, P1 = rng.uniform(-3, 3, 2)
            h = rng.uniform(-2.0, 1.0)
            m = rng.uniform(1e-6, 1e-2)
            pars = MassParams(m=m, epsilon=0.0)
            g4 = gamma([Q1, 0.0, P1, 0.0], h, pars, ring)
            g2 = gamma_reduced([Q1, P1], h, m, a)
            assert abs(g4 - g2) < 1e-13


def test_gamma_collision_points_on_level():
    # at Q1 = 0 the level condition collapses to P1^2/2 = (1-eps^2)^2 m,
    # independently of Q2 and P2
    rng = np.random.default_rng(67)
    for eps in (0.0, 0.3, 0.9):
        params, ring = params_ring(eps=eps, N=3)
        pc = collision_momentum(params)
        assert abs(pc - (1.0 - eps * eps) * math.sqrt(2.0 * params.m)) < 1e-18
        for _ in range(20):
            z = [0.0, rng.uniform(-3, 3), pc * rng.choice([-1, 1]), rng.uniform(-3, 3)]
            assert abs(gamma(z, rng.uniform(-2, 1), params, ring)) < 1e-14


def test_gamma_defining_identity():
    rng = np.random.default_rng(71)
    for eps in (0.0, 0.25, 0.5, 0.9):
        params = MassParams(m=1e-3, epsilon=eps)
        for N in (2, 3, 4, 8):
            ring = RingConfig.for_count(N)
            for _ in range(60):
                z = np.array([
                    rng.uniform(0.3, 2.5) * rng.choice([-1.0, 1.0]),
                    rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2),
                ])
                h = rng.uniform(-2.0, 1.0)
                lhs = gamma(z, h, params, ring)
                rhs = time_scale(z, params) * (
                    hamiltonian(chart_to_physical(z, params), params, ring) - h)
                assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_gamma_zero_set_matches_energy_level():
    rng = np.random.default_rng(73)
    params, ring = params_ring(eps=0.25, N=3)
    done = 0
    while done < 60:
        z = [rng.uniform(0.3, 2.0) * rng.choice([-1, 1]),
             rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)]
        h = rng.uniform(-2.0, 0.5)
        try:
            zs = project_to_level(z, h, params, ring)
        except DomainError:
            continue
        done += 1
        assert abs(gamma(zs, h, params, ring)) < 1e-12
        assert abs(hamiltonian(chart_to_physical(zs, params), params, ring) - h) < 1e-10


def test_project_to_level_refusal():
    params, ring = params_ring(eps=0.0, N=2)
    # enormous P2 kinetic share leaves no room for any real P1
    with pytest.raises(DomainError):
        project_to_level([1.0, 0.0, 1.0, 100.0], -1.0, params, ring)


def test_gamma_reduced_values():
    assert abs(gamma_reduced([1.0, 0.0], 0.0, 0.0, 2.0) + 4.0 / math.sqrt(5.0)) < 1e-15
    m = 1e-3
    assert abs(gamma_reduced([0.0, math.sqrt(2.0 * m)], -1.0, m, 2.0)) < 1e-18


def test_regularized_field_at_collision_set():
    params, ring = params_ring(eps=0.3, N=3)
    rng = np.random.default_rng(79)
    for _ in range(20):
        z = [0.0, rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)]
        f = regularized_field(z, rng.uniform(-2, 1), params, ring)
        assert f[0] == z[2] and f[1] == 0.0 and f[2] == 0.0 and f[3] == 0.0


def test_regularized_field_is_symplectic_gradient():
    rng = np.random.default_rng(83)
    params, ring = params_ring(eps=0.35, N=3)
    omega = canonical_form(4)
    h = -0.7
    for _ in range(100):
        z = rng.uniform(-2, 2, 4)
        s = 1e-6
        grad = np.zeros(4)
        for k in range(4):
            e = np.zeros(4)
            e[k] = s
            grad[k] = (gamma(z + e, h, params, ring) - gamma(z - e, h, params, ring)) / (2 * s)
        f = regularized_field(z, h, params, ring)
        assert np.max(np.abs(omega @ grad - f)) < 1e-7


def test_flow_equivalence_through_chart():
    # on the level set, the chart pushforward of the regularized field divided
    # by the time scale is the physical field at the image point
    rng = np.random.default_rng(89)
    params, ring = params_ring(eps=0.2, N=3)
    h = -1.0
    phys = make_physical_rhs(params, ring)
    done = 0
    while done < 50:
        z = [rng.uniform(0.4, 2.0) * rng.choice([-1, 1]),
             rng.uniform(-0.5, 0.5), rng.uniform(-1, 1), rng.uniform(-0.5, 0.5)]
        try:
            zs = project_to_level(z, h, params, ring)
        except DomainError:
            continue
        done += 1
        f_reg = regularized_field(zs, h, params, ring)
        push = chart_jacobian(zs, params) @ f_reg / time_scale(zs, params)
        f_phys = np.array(phys(chart_to_physical(zs, params)))
        assert np.max(np.abs(push - f_phys)) < 1e-9


def test_reduced_field_values_and_restriction():
    rng = np.random.default_rng(97)
    params, ring = params_ring(eps=0.0, N=2)
    a = 4.0 * ring.radius
    f = reduced_field([0.0, 0.7], -1.0, a)
    assert f[0] == 0.7 and f[1] == 0.0
    for _ in range(50):
        Q1, P1 = rng.uniform(-3, 3, 2)
        h = rng.uniform(-2, 1)
        f2 = reduced_field([Q1, P1], h, a)
        f4 = regularized_field([Q1, 0.0, P1, 0.0], h, params, ring)
        assert abs(f4[0] - f2[0]) < 1e-13 and abs(f4[2] - f2[1]) < 1e-13


def test_reduced_field_chain_rule_sign_arbitration():
    # decisive check of the sign of P1': push the reduced motion through
    # q = Q1^2/4, p = P1/Q1, dt = (Q1^2/2) dtau on the level set and compare
    # with the physical force; the positive-sign derivative is the one that
    # reproduces it
    rng = np.random.default_rng(101)
    params, ring = params_ring(eps=0.0, N=3)
    a, r, m = 4.0 * ring.radius, ring.radius, params.m
    h = -1.0
    for _ in range(60):
        Q1 = rng.uniform(0.2, 2.4)
        P1 = reduced_level_momentum(Q1, h, m, a) * rng.choice([-1.0, 1.0])
        dQ1, dP1 = reduced_field([Q1, P1], h, a)
        q = 0.25 * Q1 * Q1
        pdot_chain = (dP1 / Q1 - P1 * dQ1 / (Q1 * Q1)) / (0.5 * Q1 * Q1)
        pdot_phys = -q / (q * q + r * r) ** 1.5 - m / (4.0 * q * q)
        assert abs(pdot_chain - pdot_phys) < 1e-10
        # and the opposite-sign variant fails the same oracle
        dP1_flipped = -dP1
        pdot_bad = (dP1_flipped / Q1 - P1 * dQ1 / (Q1 * Q1)) / (0.5 * Q1 * Q1)
        assert abs(pdot_bad - pdot_phys) > 1e-4


def test_regularity_across_collision():
    # gamma and the field are finite and smooth across Q1 = 0: every interior
    # grid value agrees with the cubic through its four outer neighbours
    params, ring = params_ring(eps=0.3, N=3)
    h = -1.0
    qs = np.linspace(-0.05, 0.05, 41)
    for Q2, P1, P2 in ((0.3, 0.05, -0.2), (-0.4, -0.03, 0.35)):
        vals = np.array([
            [gamma((Q1, Q2, P1, P2), h, params, ring),
             *regularized_field((Q1, Q2, P1, P2), h, params, ring)]
            for Q1 in qs
        ])
        assert np.all(np.isfinite(vals))
        for j in range(vals.shape[1]):
            for k in range(2, len(qs) - 2):
                xs = np.array([qs[k - 2], qs[k - 1], qs[k + 1], qs[k + 2]])
                ys = vals[[k - 2, k - 1, k + 1, k + 2], j]
                pred = np.polyval(np.polyfit(xs, ys, 3), qs[k])
                assert abs(pred - vals[k, j]) < 1e-8


def test_invariant_plane_field_vanishes():
    params, ring = params_ring(eps=0.0, N=3)
    rng = np.random.default_rng(103)
    for _ in range(50):
        z = [rng.uniform(-3, 3), 0.0, rng.uniform(-3, 3), 0.0]
        f = regularized_field(z, rng.uniform(-2, 1), params, ring)
        assert f[1] == 0.0 and f[3] == 0.0


def test_reflection_symmetry_of_field():
    # (Q, P, tau) -> (Q, -P, -tau) maps solutions to solutions: the Q-rates
    # are odd and the P-rates even under momentum flip, exactly
    rng = np.random.default_rng(107)
    params, ring = params_ring(eps=0.4, N=5)
    for _ in range(50):
        z = rng.uniform(-2, 2, 4)
        h = rng.uniform(-2, 1)
        f = regularized_field(z, h, params, ring)
        fr = regularized_field([z[0], z[1], -z[2], -z[3]], h, params, ring)
        assert fr[0] == -f[0] and fr[1] == -f[1] and fr[2] == f[2] and fr[3] == f[3]


def _reference_gamma(z, h, params, ring):
    """Gamma written out in one expression, every factor taken per call."""
    Q1, Q2, P1, P2 = (float(v) for v in z)
    mu, m, r = params.mu, params.m, ring.radius
    omu = 1.0 - mu
    q1sq = Q1 * Q1
    A = 2.0 * Q2 + mu * q1sq
    B = 2.0 * Q2 - omu * q1sq
    bracket = (
        4.0 * omu / math.sqrt(A * A + 4.0 * r * r)
        + 4.0 * mu / math.sqrt(B * B + 4.0 * r * r)
        + h
    )
    return (
        0.5 * (mu * omu * P2 * P2 * q1sq + P1 * P1)
        - 16.0 * mu * mu * omu * omu * m
        - 2.0 * mu * omu * q1sq * bracket
    )


def test_make_gamma_is_gamma_bit_for_bit():
    # the writers and the level guard use the closure; hoisting the
    # state-free factors must not move a bit
    rng = np.random.default_rng(4)
    for eps, N, h in ((0.3, 2, -2.5), (0.0, 3, -1.0), (0.7, 5, 0.4)):
        params, ring = params_ring(eps=eps, N=N)
        gam = Problem.sitnikov(h, params, ring).gamma
        for _ in range(200):
            z = rng.uniform(-3.0, 3.0, 4)
            ref = _reference_gamma(z, h, params, ring)
            assert gam(z.tolist()) == ref and gamma(z, h, params, ring) == ref


def test_make_time_scale_is_time_scale_bit_for_bit():
    # the simulate clock uses the closure; computing 2 mu (1-mu) once must
    # not move a bit against the written-out formula
    rng = np.random.default_rng(5)
    for eps in (0.0, 0.3, 0.7, 0.999):
        params = MassParams(m=1e-3, epsilon=eps)
        clock = Problem.sitnikov(-1.0, params, RingConfig.for_count(3)).clock
        mu = params.mu
        for _ in range(200):
            z = rng.uniform(-3.0, 3.0, 4)
            Q1 = float(z[0])
            ref = 2.0 * mu * (1.0 - mu) * Q1 * Q1
            assert clock(Q1) == ref and time_scale(z, params) == ref


def test_reduced_problem_gamma_is_gamma_reduced_bit_for_bit():
    rng = np.random.default_rng(6)
    for h, m, N in ((-1.0, 1e-3, 2), (-0.3, 0.02, 3), (0.4, 1e-5, 7)):
        a = 4.0 * RingConfig.for_count(N).radius
        gam = Problem.reduced(h, m, a).gamma
        for _ in range(200):
            s = rng.uniform(-3.0, 3.0, 2)
            assert gam(s.tolist()) == gamma_reduced(s, h, m, a)


def test_problem_projection_keeps_the_sign_and_lands_on_the_level():
    params, ring = params_ring(eps=0.3, N=3)
    a = 4.0 * ring.radius
    cases = (
        (Problem.sitnikov(-1.0, params, ring), [0.7, 0.1, 0.0, -0.2]),
        (Problem.reduced(-1.0, 1e-3, a), [0.7, 0.0]),
        (Problem.kepler1d(-0.5, 1.0), [0.7, 0.0]),
    )
    for p, z in cases:
        k = len(z) // 2  # P1 follows the positions
        up = p.project(z)  # a zero momentum projects onto the nonnegative branch
        z[k] = -3.0
        down = p.project(z)
        assert up[k] > 0.0 and down[k] == -up[k]
        assert abs(p.gamma(up)) < 1e-13 and abs(p.gamma(down)) < 1e-13
        assert p.clock(0.0) == 0.0 and p.clock(-up[0]) == p.clock(up[0]) > 0.0
        # beyond the turning point the level has no real momentum
        z[0] = 5.0
        with pytest.raises(DomainError):
            p.project(z)


def test_gamma_on_columns_is_gamma_on_states_bit_for_bit():
    # integrate evaluates each Problem's gamma on blocks of columns; every
    # value must be the one the state alone gives, on Q1 = 0 too.  Squares
    # written as ** 2 would fail here: a float's ** calls libm pow, which
    # misrounds about 1 square in 1000 against numpy's product
    rng = np.random.default_rng(8)
    params, ring = params_ring(eps=0.3, N=3)
    cases = ((Problem.sitnikov(-2.5, params, ring), 4),
             (Problem.reduced(-1.0, 1e-3, 4.0 * ring.radius), 2),
             (Problem.kepler1d(-0.5, 1.0), 2))
    for p, n in cases:
        states = rng.uniform(-3.0, 3.0, (20000, n))
        states[::10, 0] = 0.0
        values = p.gamma(states.T)
        assert isinstance(values, np.ndarray) and values.shape == (20000,)
        assert values.tolist() == [p.gamma(tuple(z)) for z in states.tolist()]
    # the per-state functions still give a Python float
    assert type(gamma([0.5, 0.1, -1.0, 0.2], -2.5, params, ring)) is float
    assert type(gamma_reduced(np.array([0.5, -1.0]), -1.0, 1e-3, 2.0)) is float
