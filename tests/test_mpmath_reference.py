"""The symmetric orbit's turning point and quadrature period against an
independent high-precision reference: the same radicand evaluated in
mpmath, its root found by mpmath's bracketed solver, and the period
integral done by tanh-sinh quadrature.  Skipped when mpmath is not
installed.
"""

import pytest

from collreg import period, ring_radius, turning_point

mp = pytest.importorskip("mpmath")


def _radicand(h, m, r):
    H, M, R = mp.mpf(h), mp.mpf(m), mp.mpf(r)
    return lambda q: H + 2 / mp.sqrt(q * q + R * R) + M / (2 * q)


def _reference_turning_point(h, m, r):
    # p^2 < h + (2 + m/2)/q, so the radicand is negative past (2 + m)/|h|
    return mp.findroot(_radicand(h, m, r), (mp.mpf("1e-30"), (2 + mp.mpf(m)) / abs(mp.mpf(h))),
                       solver="anderson")


@pytest.mark.parametrize("N", [2, 3, 5])
@pytest.mark.parametrize("m", [1e-3, 1e-6, 0.0])
def test_turning_point_matches_mpmath(N, m):
    r = ring_radius(N)
    with mp.workdps(40):
        for h in (-3.0, -2.6, -2.4, -1.0, -0.2):
            ref = _reference_turning_point(h, m, r)
            q = turning_point(h, m, r)
            assert abs(q - ref) <= 3e-15 * ref, (h, q, ref)


@pytest.mark.parametrize("N, h", [(3, -1.0), (3, -2.0), (5, -0.3), (2, -0.5), (5, -1.5)])
def test_quadrature_period_matches_mpmath(N, h):
    # the integrand factors p^2 = (qmax - q) S(q) exactly, so an ulp of the
    # turning point moves the period by O(1e-16) relative, and rounding in the
    # node sum sets the floor
    m, r = 1e-3, ring_radius(N)
    with mp.workdps(30):
        f = _radicand(h, m, r)
        qmax = _reference_turning_point(h, m, r)
        # split at the mutual term's boundary layer, q ~ m r / 4
        cuts = [0, mp.mpf(m) * r / 4, 10 * mp.mpf(m) * r, qmax / 2, qmax]
        ref = 2 * mp.quad(lambda q: 1 / mp.sqrt(f(q)), cuts)
    tq = period(h, m, r, method="quadrature")
    assert abs(tq - ref) <= 2e-15 * ref, (tq, ref)
