import math

import numpy as np
import pytest

from sltwist.catenoid import (CatenoidParams, catenoid_flow, catenoid_lifetime,
                              lifetime_routes, unit_profile,
                              verify_catenoid_symmetry)


def test_explicit_degree_two_profile():
    for t in (-1.3, 0.0, 0.7, 2.0):
        expected = (math.exp(t) + 1j * math.exp(-t)) / math.sqrt(2.0)
        assert abs(unit_profile(2, t) - expected) < 1e-15


def test_initial_condition_degree_three():
    w = catenoid_flow(CatenoidParams(3, 1.0), 0.0)
    assert abs(w - np.exp(1j * math.pi / 6.0)) < 1e-15


def test_conserved_quantity_along_flow():
    w = catenoid_flow(CatenoidParams(3, 1.0), 0.5)
    assert abs((w**3).imag - 1.0) < 1e-10


def test_lifetime_routes_agree():
    by_quad, by_beta = lifetime_routes(3)
    assert abs(by_quad - 1.21430) < 1e-4          # coarse location
    assert abs(by_quad - by_beta) < 1e-10
    q4, b4 = lifetime_routes(4)
    assert q4 > 0 and abs(q4 - b4) < 1e-10


def test_lifetime_decreasing_in_degree():
    vals = [catenoid_lifetime(n) for n in range(3, 13)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_lifetime_requires_degree_three():
    with pytest.raises(ValueError):
        catenoid_lifetime(2)


def test_flow_outside_lifetime_raises():
    T1 = catenoid_lifetime(3)
    with pytest.raises(ValueError):
        unit_profile(3, 1.001 * T1)


def test_reflection_symmetry_residual():
    assert verify_catenoid_symmetry(3) < 1e-9
    assert verify_catenoid_symmetry(2) < 1e-9


def test_reflection_symmetry_fixed_point():
    w0 = unit_profile(3, 0.0)
    assert abs(w0 - np.exp(1j * math.pi / 3.0) * np.conj(w0)) < 1e-15


def test_scaling_family_against_direct_integration():
    for lam in (0.04, 0.5):
        params = CatenoidParams(3, lam)
        ts = np.linspace(-0.3, 0.3, 7)
        scaled = catenoid_flow(params, ts)
        direct = catenoid_flow(params, ts, direct=True)
        assert float(np.max(np.abs(scaled - direct))) < 1e-10


def test_radius_energy_relation():
    lam = 0.7
    params = CatenoidParams(4, lam)
    for t in np.linspace(-0.5, 0.5, 21):
        w = catenoid_flow(params, t)
        y = abs(w) ** 2
        # the scaled flow solves the same field, so y' = 2 Re(conj(w)^n)
        ydot = 2.0 * (np.conj(w) ** 4).real
        assert abs(ydot**2 - 4.0 * (y**4 - lam**2)) < 1e-9


def test_degree_two_scaling_keeps_time():
    lam = 2.0
    params = CatenoidParams(2, lam)
    t = 0.9
    expected = math.sqrt(lam) * unit_profile(2, t)
    assert abs(catenoid_flow(params, t) - expected) < 1e-12


def test_unit_trajectory_cache_stays_bounded():
    # every call past 0.995 T_1 asks for its own span; the cache keeps at most 8
    from sltwist.catenoid import _unit_trajectory

    _unit_trajectory.cache_clear()
    T1 = catenoid_lifetime(3)
    ts = np.linspace(0.9955, 0.9984, 30) * T1
    first = unit_profile(3, ts[0])
    for t in ts:
        unit_profile(3, t)
    assert _unit_trajectory.cache_info().currsize <= 8
    assert unit_profile(3, ts[0]) == first      # rebuilt after eviction, same bits


@pytest.mark.parametrize("n", range(3, 9))
def test_unit_trajectory_conserves_im_w_n(n):
    # the drift of Im(w^n) = 1 over the accepted steps out to 0.995 T_1
    from sltwist.catenoid import _LIFETIME_FRACTION, _unit_trajectory

    traj = _unit_trajectory(n, _LIFETIME_FRACTION * catenoid_lifetime(n))
    drift = max(abs((complex(re, im) ** n).imag - 1.0) for re, im in traj.states.tolist())
    assert drift < 1e-8
