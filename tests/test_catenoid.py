import math

import numpy as np
import pytest

from sltwist.catenoid import (catenoid_lifetime, lifetime_routes, unit_profile,
                              verify_catenoid_symmetry)


def test_explicit_degree_two_profile():
    ts = [-1.3, 0.0, 0.7, 2.0]
    for t, w in zip(ts, unit_profile(2, np.array(ts))):
        expected = (math.exp(t) + 1j * math.exp(-t)) / math.sqrt(2.0)
        assert abs(w - expected) < 1e-15


def test_initial_condition_degree_three():
    (w,) = unit_profile(3, np.array([0.0]))
    assert abs(w - np.exp(1j * math.pi / 6.0)) < 1e-15


def test_conserved_quantity_along_flow():
    (w,) = unit_profile(3, np.array([0.5]))
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
        unit_profile(3, np.array([1.001 * T1]))


def test_reflection_symmetry_residual():
    assert verify_catenoid_symmetry(3) < 1e-9
    assert verify_catenoid_symmetry(2) < 1e-9


def test_reflection_symmetry_fixed_point():
    (w0,) = unit_profile(3, np.array([0.0]))
    assert abs(w0 - np.exp(1j * math.pi / 3.0) * np.conj(w0)) < 1e-15


def test_radius_energy_relation():
    w = unit_profile(4, np.linspace(-0.5, 0.5, 21))
    y = abs(w) ** 2
    # the profile solves w' = conj(w)^3, so y' = 2 Re(conj(w)^4) and Im(w^4) = 1
    ydot = 2.0 * (np.conj(w) ** 4).real
    assert np.max(np.abs(ydot**2 - 4.0 * (y**4 - 1.0))) < 1e-9


def test_unit_profile_reads_grow_one_trajectory(monkeypatch):
    # reads at growing |t|, on both sides and out to 0.9984 T_1, step on the one
    # trajectory of degree 3: one integration, and every read has the bits of a
    # trajectory first read there
    import sltwist.catenoid as catenoid

    catenoid._unit_trajectory.cache_clear()
    calls, integrate = [], catenoid.integrate
    monkeypatch.setattr(catenoid, "integrate",
                        lambda *args, **kwargs: calls.append(args) or integrate(*args, **kwargs))
    T1 = catenoid_lifetime(3)
    ts = [sign * f * T1 for f in np.linspace(0.5, 0.9984, 6) for sign in (1.0, -1.0)]
    grown = [unit_profile(3, np.array([t])) for t in ts]
    traj = catenoid._unit_trajectory(3)
    assert len(calls) == 1 and traj.time_grid[0] <= ts[-1] and ts[-2] <= traj.time_grid[-1]
    for t, value in zip(ts, grown):
        catenoid._unit_trajectory.cache_clear()
        assert np.array_equal(unit_profile(3, np.array([t])), value)
    assert len(calls) == 1 + len(ts)


@pytest.mark.parametrize("n", range(3, 9))
def test_unit_trajectory_conserves_im_w_n(n):
    # the drift of Im(w^n) = 1 over the accepted steps out to 0.995 T_1
    from sltwist.catenoid import _unit_trajectory

    reach = 0.995 * catenoid_lifetime(n)
    _, states = _unit_trajectory(n).steps(-reach, reach)
    drift = max(abs((complex(re, im) ** n).imag - 1.0) for re, im in states.tolist())
    assert drift < 1e-8
