import math
import time

import numpy as np
import pytest

from collreg import (
    MassParams,
    ParameterError,
    RingConfig,
    bp_radius,
    primary_positions_3d,
    rescale_masses,
    ring_radius,
)


def test_rescale_equal_masses():
    p = rescale_masses(1.0, 1.0)
    assert p.m == 1.0 and p.epsilon == 0.0


def test_rescale_three_to_one():
    p = rescale_masses(3.0, 1.0)
    assert p.m == 2.0 and p.epsilon == 0.5
    assert p.alpha == 1.5 and p.beta == 0.5 and p.mu == 0.25


def test_rescale_roundtrip_same_order_masses():
    rng = np.random.default_rng(3)
    for _ in range(300):
        m1 = rng.uniform(1e-9, 1.0)
        m2 = m1 * rng.uniform(0.1, 1.0)
        p = rescale_masses(m1, m2)
        assert abs(p.m1 - m1) <= 1e-15 * m1
        assert abs(p.m2 - m2) <= 1e-15 * m2


def test_rescale_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        rescale_masses(1.0, 2.0)  # ordering fixes epsilon >= 0
    with pytest.raises(ParameterError):
        rescale_masses(-1.0, -2.0)
    with pytest.raises(ParameterError):
        rescale_masses(1.0, 0.0)


def test_mass_params_domain():
    with pytest.raises(ParameterError):
        MassParams(m=0.0)
    with pytest.raises(ParameterError):
        MassParams(m=1e-3, epsilon=1.0)  # massless second body degenerates dt/dtau
    with pytest.raises(ParameterError):
        MassParams(m=1e-3, epsilon=-0.1)
    p = MassParams(m=1e-3, epsilon=0.25)
    assert p.mu == (1.0 - 0.25) / 2.0


def test_ring_radius_closed_forms():
    # N=2: empty sum, r^3 = (1/4)(1/2) = 1/8
    assert abs(ring_radius(2) - 0.5) < 1e-15
    # N=3: r^3 = (1/6)(2/sqrt(3)) = 3^(-3/2)
    assert abs(ring_radius(3) - 3.0 ** -0.5) < 1e-12
    # N=4: r^3 = (1/8)(1/2 + sqrt(2))
    assert abs(ring_radius(4) - ((0.5 + math.sqrt(2.0)) / 8.0) ** (1.0 / 3.0)) < 1e-15
    assert abs(ring_radius(4) - 0.6208) < 5e-5


def test_ring_radius_parity_relation():
    for N in range(2, 60):
        r = ring_radius(N)
        nu = N // 2
        if N % 2 == 1:
            target = sum(1.0 / math.sin(math.pi * g / N) for g in range(1, nu + 1))
        else:
            target = 0.5 + sum(1.0 / math.sin(math.pi * g / N) for g in range(1, nu))
        assert abs(2.0 * N * r**3 - target) < 1e-12


def test_ring_radius_holds_no_list_of_its_terms():
    # the N/2 terms are summed as they come: a list of them would peak at
    # about 16 MB for N = 10**6
    import tracemalloc

    tracemalloc.start()
    try:
        ring_radius(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_ring_radius_rejects_small_n():
    with pytest.raises(ParameterError):
        ring_radius(1)


@pytest.mark.parametrize("N", [10**7 + 1, 10**400], ids=["10**7+1", "10**400"])
def test_ring_radius_refuses_more_primaries_than_it_can_sum_at_once(N):
    # the sum has N/2 terms, about a second's worth just past the cap, and
    # 10**400 overflows a float; the message names N without its digits
    start = time.perf_counter()
    with pytest.raises(ParameterError, match=f"at most 10000000 primaries, got an N of "
                                              f"{len(str(N))} digits"):
        ring_radius(N)
    assert time.perf_counter() - start < 0.1


def test_bp_radius_values():
    assert abs(bp_radius(3) - 1.0 / math.sqrt(3.0)) < 1e-15
    assert bp_radius(2) == 0.5
    assert abs(bp_radius(6) - 1.0) < 1e-15
    # the two radius formulas coincide at N=3 and only there among small N
    assert abs(ring_radius(3) - bp_radius(3)) < 1e-12
    assert abs(ring_radius(4) - bp_radius(4)) > 1e-2


def test_primary_positions_two_body():
    ring = RingConfig(N=2, radius=0.5)
    pos = primary_positions_3d(ring, phase=0.0)
    assert np.allclose(pos, [[0.5, 0.0, 0.0], [-0.5, 0.0, 0.0]], atol=1e-16)


def test_primary_positions_geometry():
    rng = np.random.default_rng(5)
    for N in (2, 3, 5, 8):
        ring = RingConfig.for_count(N)
        for phase in rng.uniform(0.0, 7.0, 4):
            pos = primary_positions_3d(ring, phase)
            assert np.allclose(np.linalg.norm(pos, axis=1), ring.radius, atol=1e-14)
            assert np.max(np.abs(pos.sum(axis=0))) < 1e-13
            # rotation by 2 pi / N permutes the vertex set
            rot = primary_positions_3d(ring, phase + 2.0 * math.pi / N)
            as_sorted = np.sort(pos.round(12), axis=0)
            rot_sorted = np.sort(rot.round(12), axis=0)
            assert np.allclose(as_sorted, rot_sorted, atol=1e-10)
