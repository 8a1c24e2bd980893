import math

import numpy as np
import pytest

from sltwist.ode_engine import (EventError, IntegrationError, Tolerances,
                                integrate, locate_event)
from sltwist.periods import partial_periods_quadrature
from sltwist.twisted_curve import AdmissiblePair, TwistParam, initial_state, tau_max


def twisted_field(p, q):
    def rhs(t, s):
        w1 = complex(s[0], s[1])
        w2 = complex(s[2], s[3])
        d1 = w1.conjugate() ** (p - 1) * w2.conjugate() ** q
        d2 = -(w1.conjugate() ** p) * w2.conjugate() ** (q - 1)
        return (d1.real, d1.imag, d2.real, d2.imag)

    return rhs


def test_zero_field_constant():
    traj = integrate(lambda t, s: [0.0, 0.0], [3.0, -1.5], (0.0, 1.0))
    assert np.allclose(traj(1.0), [3.0, -1.5], atol=0)


def test_exponential_endpoint():
    traj = integrate(lambda t, s: [s[0]], [1.0], (0.0, 1.0))
    assert abs(traj(1.0)[0] - math.e) < 1e-10


def test_twisted_field_stays_on_sphere():
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    s0 = initial_state(param).as_real()
    traj = integrate(twisted_field(1, 2), s0, (0.0, 20.0))
    ts = np.linspace(0.0, 20.0, 500)
    norms = [np.dot(traj(t), traj(t)) for t in ts]
    assert max(abs(v - 1.0) for v in norms) < 1e-10


def test_locate_event_linear():
    traj = integrate(lambda t, s: [1.0], [0.0], (0.0, 1.0))
    t = locate_event(traj, lambda t, s: t - 0.5, (0.0, 1.0))
    assert abs(t - 0.5) < 1e-13


def test_locate_event_ydot_matches_quadrature():
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    p_est, _ = partial_periods_quadrature(param)
    s0 = initial_state(param).as_real()
    traj = integrate(twisted_field(1, 2), s0, (0.0, 1.6 * p_est))

    def g(t, s):
        return -2.0 * ((s[0] + 1j * s[1]) * (s[2] + 1j * s[3]) ** 2).real

    t_star = locate_event(traj, g, (0.4 * p_est, 1.5 * p_est))
    assert abs(t_star - p_est) < 1e-8


def test_locate_event_y_level():
    param = TwistParam(AdmissiblePair(1, 2), 0.05)
    p_est, _ = partial_periods_quadrature(param)
    s0 = initial_state(param).as_real()
    traj = integrate(twisted_field(1, 2), s0, (0.0, p_est))

    def g(t, s):
        return s[2] ** 2 + s[3] ** 2 - 2.0 / 3.0

    t_star = locate_event(traj, g, (1e-4, 0.99 * p_est))
    y = traj(t_star)[2] ** 2 + traj(t_star)[3] ** 2
    assert abs(y - 2.0 / 3.0) < 1e-10


def test_no_sign_change_raises():
    traj = integrate(lambda t, s: [1.0], [0.0], (0.0, 1.0))
    with pytest.raises(EventError):
        locate_event(traj, lambda t, s: 1.0 + t, (0.0, 1.0))


def test_tolerance_tightening_consistency():
    field = twisted_field(2, 3)
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    s0 = initial_state(param).as_real()
    loose = Tolerances(abs_tol=1e-10, rel_tol=1e-10, event_tol=1e-11)
    tight = Tolerances(abs_tol=1e-11, rel_tol=1e-11, event_tol=1e-12)
    end_a = integrate(field, s0, (0.0, 10.0), loose)(10.0)
    end_b = integrate(field, s0, (0.0, 10.0), tight)(10.0)
    assert np.max(np.abs(end_a - end_b)) < 10 * loose.abs_tol


def test_backward_integration_returns_start():
    field = twisted_field(1, 2)
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    s0 = initial_state(param).as_real()
    tol = Tolerances()
    fwd = integrate(field, s0, (0.0, 5.0), tol)
    back = integrate(field, fwd(5.0), (5.0, 0.0), tol)
    assert np.max(np.abs(back(0.0) - s0)) < 10 * tol.abs_tol


def test_interpolant_reproduces_grid_states():
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    s0 = initial_state(param).as_real()
    tol = Tolerances()
    traj = integrate(twisted_field(2, 3), s0, (0.0, 8.0), tol)
    gap = max(float(np.max(np.abs(traj(t) - s)))
              for t, s in zip(traj.time_grid, traj.states))
    assert gap <= tol.abs_tol


def test_drift_recording():
    field = twisted_field(1, 2)
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    s0 = initial_state(param).as_real()
    inv = {"norm": (lambda s: float(np.dot(s, s)), 1.0)}
    traj = integrate(field, s0, (0.0, 10.0), invariants=inv)
    assert 0.0 <= traj.drift["norm"] < 1e-10


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(abs_tol=-1.0)
    with pytest.raises(ValueError):
        Tolerances(event_tol=1e-3, abs_tol=1e-6)


def test_blowup_reports_last_time():
    with pytest.raises(IntegrationError) as err:
        integrate(lambda t, s: [s[0] ** 2], [1.0], (0.0, 2.0))
    assert err.value.last_time is not None
    assert err.value.last_time <= 2.0


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (3, 4)])
def test_two_sided_trajectory_equals_one_sided_runs(p, q):
    # one integration anchored inside the span is the forward and the
    # backward run from the anchor, bit for bit, and costs their steps
    pair = AdmissiblePair(p, q)
    s0 = initial_state(TwistParam(pair, 0.3 * tau_max(pair))).as_real()
    field = twisted_field(p, q)
    inv = {"norm": (lambda s: float(np.dot(s, s)), 1.0)}
    both = integrate(field, s0, (-6.0, 8.0), invariants=inv, t0=0.0)
    fwd = integrate(field, s0, (0.0, 8.0), invariants=inv)
    bwd = integrate(field, s0, (0.0, -6.0), invariants=inv)
    for side, ts in ((fwd, np.linspace(0.0, 8.0, 200)), (bwd, np.linspace(-6.0, 0.0, 200))):
        assert np.array_equal(both(ts), side(ts))
        assert all(np.array_equal(both(t), side(t)) for t in ts[::20])
    assert np.array_equal(both.time_grid, np.concatenate([bwd.time_grid, fwd.time_grid[1:]]))
    assert both.drift["norm"] == max(fwd.drift["norm"], bwd.drift["norm"])
    for t in (2.5, 7.9):
        assert np.array_equal(both.endpoint(t), fwd.endpoint(t))
        assert np.array_equal(both.endpoint(-0.75 * t), bwd.endpoint(-0.75 * t))
    steps = len(fwd.time_grid) - 1 + len(bwd.time_grid) - 1
    assert len(both.time_grid) - 1 == steps
    assert (both.time_grid[0], both.t0, both.time_grid[-1]) == (-6.0, 0.0, 8.0)


def test_anchor_and_reads_outside_span_rejected():
    with pytest.raises(ValueError):
        integrate(lambda t, s: [1.0], [0.0], (0.0, 1.0), t0=2.0)
    traj = integrate(lambda t, s: [1.0], [0.0], (-1.0, 1.0), t0=0.0)
    for read in (lambda: traj(1.5), lambda: traj(np.array([-1.5, 0.0])),
                 lambda: traj.endpoint(0.0), lambda: traj.endpoint(-2.0),
                 lambda: locate_event(traj, lambda t, s: t - 0.5, (0.0, 2.0))):
        with pytest.raises(ValueError):
            read()
