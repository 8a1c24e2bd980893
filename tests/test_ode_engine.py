import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_dop853

from sltwist import ode_engine
from sltwist.catenoid import _profile_field, _unit_trajectory, catenoid_lifetime
from sltwist.ode_engine import (EventError, IntegrationError, Tolerances,
                                integrate, locate_event)
from sltwist.periods import partial_periods_quadrature
from sltwist.twisted_curve import (AdmissiblePair, TwistParam, TwistTrajectory, _field,
                                   initial_state, tau_max)


_PAIRS_N8 = [(p, q) for p in range(1, 5) for q in range(max(p, 2), 9 - p)]


def twisted_field(p, q, linearised=False):
    """The curve system in CPython complex arithmetic, the hand-written
    reference of the generated ``_field``; a (dim, N) array of states is
    evaluated one column at a time, in Python floats."""
    n = p + q

    def rhs(s):
        if np.ndim(s[0]):
            return np.array([rhs(col) for col in np.transpose(s).tolist()]).T
        w1 = complex(s[0], s[1])
        w2 = complex(s[2], s[3])
        d1 = w1.conjugate() ** (p - 1) * w2.conjugate() ** q
        d2 = -(w1.conjugate() ** p) * w2.conjugate() ** (q - 1)
        if linearised:
            y = w2.real * w2.real + w2.imag * w2.imag
            return (d1.real, d1.imag, d2.real, d2.imag,
                    s[5], -2.0 * n * (y ** (q - 1) * (1.0 - y) ** (p - 1)) * s[4])
        return (d1.real, d1.imag, d2.real, d2.imag)

    return rhs


def profile_field(n):
    """The catenoid profile field w' = conj(w)^(n-1) in CPython complex arithmetic."""
    def rhs(s):
        d = complex(s[0], -s[1]) ** (n - 1)
        return (d.real, d.imag)

    return rhs


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _at(traj, t):
    """The state at the one time t, read as a one-element batch."""
    return traj(np.array([t]))[:, 0]


def test_zero_field_constant():
    traj = integrate(lambda s: [0.0, 0.0], [3.0, -1.5], (0.0, 1.0), Tolerances(), mirror=None)
    assert np.allclose(_at(traj, 1.0), [3.0, -1.5], atol=0)


def test_exponential_endpoint():
    traj = integrate(lambda s: [s[0]], [1.0], (0.0, 1.0), Tolerances(), mirror=None)
    assert abs(_at(traj, 1.0)[0] - math.e) < 1e-10


def test_twisted_field_stays_on_sphere():
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    s0 = initial_state(param)
    traj = integrate(twisted_field(1, 2), s0, (0.0, 20.0), Tolerances(), mirror=None)
    ts = np.linspace(0.0, 20.0, 500)
    norms = [np.dot(s, s) for s in traj(ts).T]
    assert max(abs(v - 1.0) for v in norms) < 1e-10


def test_locate_event_linear():
    traj = integrate(lambda s: [1.0], [0.0], (0.0, 1.0), Tolerances(), mirror=None)
    t = locate_event(traj, lambda s: s[0] - 0.5, lambda s: 1.0, 0.7, (0.0, 1.0))
    assert abs(t - 0.5) < 1e-13


def test_locate_event_ydot_matches_quadrature():
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    p_est, _ = partial_periods_quadrature(param)
    s0 = initial_state(param)
    traj = integrate(twisted_field(1, 2), s0, (0.0, 1.6 * p_est), Tolerances(), mirror=None)

    def g(s):
        return -2.0 * ((s[0] + 1j * s[1]) * (s[2] + 1j * s[3]) ** 2).real

    def g_prime(s):                  # y'' = 2 f'(y), f'(y) = y (2 - 3 y) for (1, 2)
        y = s[2] ** 2 + s[3] ** 2
        return 2.0 * y * (2.0 - 3.0 * y)

    t_star = locate_event(traj, g, g_prime, 0.95 * p_est, (0.4 * p_est, 1.5 * p_est))
    assert abs(t_star - p_est) < 1e-8


def test_locate_event_y_level():
    param = TwistParam(AdmissiblePair(1, 2), 0.05)
    p_est, _ = partial_periods_quadrature(param)
    s0 = initial_state(param)
    traj = integrate(twisted_field(1, 2), s0, (0.0, p_est), Tolerances(), mirror=None)

    def g(s):
        return s[2] ** 2 + s[3] ** 2 - 2.0 / 3.0

    def g_prime(s):                  # y'
        return -2.0 * ((s[0] + 1j * s[1]) * (s[2] + 1j * s[3]) ** 2).real

    t_star = locate_event(traj, g, g_prime, 0.5 * p_est, (1e-4, 0.99 * p_est))
    s = _at(traj, t_star)
    y = s[2] ** 2 + s[3] ** 2
    assert abs(y - 2.0 / 3.0) < 1e-10


def test_no_sign_change_raises():
    # g has no zero in the bracket: the first Newton iterate leaves it
    traj = integrate(lambda s: [1.0], [0.0], (0.0, 1.0), Tolerances(), mirror=None)
    with pytest.raises(EventError, match="left the bracket"):
        locate_event(traj, lambda s: 1.0 + s[0], lambda s: 1.0, 0.5, (0.0, 1.0))


def test_newton_without_convergence_raises():
    # Newton on u^3 - 2u + 2 cycles between u = 0 and 1 exactly; u = x - 1 = t - 1
    # keeps the iterates off the anchor 0, which has no endpoint
    traj = integrate(lambda s: [1.0], [0.0], (0.0, 3.0), Tolerances(), mirror=None)
    with pytest.raises(EventError, match="did not converge"):
        locate_event(traj, lambda s: (s[0] - 1.0) ** 3 - 2.0 * (s[0] - 1.0) + 2.0,
                     lambda s: 3.0 * (s[0] - 1.0) ** 2 - 2.0, 1.0, (0.5, 2.5))


def test_tolerance_tightening_consistency():
    field = twisted_field(2, 3)
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    s0 = initial_state(param)
    loose, tight = Tolerances(1e-10), Tolerances(1e-11)
    end_a = _at(integrate(field, s0, (0.0, 10.0), loose, mirror=None), 10.0)
    end_b = _at(integrate(field, s0, (0.0, 10.0), tight, mirror=None), 10.0)
    assert np.max(np.abs(end_a - end_b)) < 10 * loose.tol


def test_backward_integration_returns_start():
    field = twisted_field(1, 2)
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    s0 = initial_state(param)
    tol = Tolerances()
    fwd = integrate(field, s0, (0.0, 5.0), tol, mirror=None)
    back = integrate(field, _at(fwd, 5.0), (-5.0, 0.0), tol, mirror=None)
    assert np.max(np.abs(_at(back, -5.0) - s0)) < 10 * tol.tol


def test_interpolant_reproduces_grid_states():
    # both sides of the anchor: forward segments end at a node (x = 1),
    # backward ones start there (x = 0); a one-element read equals the batch read
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    s0 = initial_state(param)
    traj = integrate(twisted_field(2, 3), s0, (-5.0, 8.0), Tolerances(), mirror=None)
    reads = traj(traj.time_grid)
    assert np.max(np.abs(reads.T - traj.states)) <= 1e-14
    assert all(np.array_equal(_at(traj, t), reads[:, j]) for j, t in enumerate(traj.time_grid))


def test_tolerances_validation():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            Tolerances(bad)
    # event_tol = tol / 10 is each preset's former literal, bit for bit
    from sltwist.cli import TOL_PRESETS

    events = [TOL_PRESETS[name].event_tol for name in ("fast", "standard", "strict")]
    assert _bits(events).tolist() == _bits([1e-10, 1e-13, 5e-14]).tolist()


def test_blowup_reports_last_time():
    # y' = y^2, y(0) = 1 blows up at t = 1; the steps underflow where the
    # discrete solution does, 1.5e-13 past it (solve_ivp stops at the same time)
    with pytest.raises(IntegrationError) as err:
        integrate(lambda s: [s[0] ** 2], [1.0], (0.0, 2.0), Tolerances(), mirror=None)
    assert 0.9 <= err.value.last_time <= 1.0 + 1e-12
    assert repr(err.value.last_time) in str(err.value) and "step size" in str(err.value)
    # a read that grows a trajectory into the blowup raises the same, and leaves
    # the trajectory as it was: later reads before t = 1 are a fresh one's
    traj = integrate(lambda s: [s[0] ** 2], [1.0], (0.0, 0.5), Tolerances(), mirror=None)
    with pytest.raises(IntegrationError, match="step size"):
        traj(np.array([2.0]))
    fresh = integrate(lambda s: [s[0] ** 2], [1.0], (0.0, 0.5), Tolerances(), mirror=None)
    assert np.array_equal(_at(traj, 0.99), _at(fresh, 0.99))
    assert np.array_equal(traj.time_grid, fresh.time_grid)


def test_non_finite_field_reports_last_accepted_time():
    def field(s):
        return [math.nan if s[0] > 0.5 else 1.0]

    with pytest.raises(IntegrationError) as err:
        integrate(field, [0.0], (0.0, 1.0), Tolerances(), mirror=None)
    assert 0.0 < err.value.last_time <= 0.5
    assert repr(err.value.last_time) in str(err.value) and "non-finite" in str(err.value)
    with pytest.raises(IntegrationError) as err:
        integrate(lambda s: [math.nan], [0.0], (0.0, 1.0), Tolerances(), mirror=None)
    assert err.value.last_time == 0.0


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (3, 4)])
def test_two_sided_trajectory_equals_one_sided_runs(p, q):
    # one integration anchored inside the span is the forward and the
    # backward run from the anchor, bit for bit, and costs their steps
    pair = AdmissiblePair(p, q)
    s0 = initial_state(TwistParam(pair, 0.3 * tau_max(pair)))
    field = twisted_field(p, q)
    both = integrate(field, s0, (-6.0, 8.0), Tolerances(), mirror=None)
    fwd = integrate(field, s0, (0.0, 8.0), Tolerances(), mirror=None)
    bwd = integrate(field, s0, (-6.0, 0.0), Tolerances(), mirror=None)
    for side, ts in ((fwd, np.linspace(0.0, 8.0, 200)), (bwd, np.linspace(-6.0, 0.0, 200))):
        assert np.array_equal(both(ts), side(ts))
        assert all(np.array_equal(_at(both, t), _at(side, t)) for t in ts[::20])
    assert np.array_equal(both.time_grid, np.concatenate([bwd.time_grid, fwd.time_grid[1:]]))
    for t in (2.5, 7.9):
        assert np.array_equal(both.endpoint(t), fwd.endpoint(t))
        assert np.array_equal(both.endpoint(-0.75 * t), bwd.endpoint(-0.75 * t))
    steps = len(fwd.time_grid) - 1 + len(bwd.time_grid) - 1
    assert len(both.time_grid) - 1 == steps
    # each side stops at its first step at or past its end of the span
    grid = both.time_grid
    assert grid[0] <= -6.0 < grid[1] and grid[-2] < 8.0 <= grid[-1]


def _first(traj, nodes):
    """Times and states of ``traj`` up to its node ``nodes - 1``, and its reads at
    those nodes, at the midpoints between them and at 0.0 and -0.0."""
    grid = traj.time_grid[:nodes]
    return (grid, traj.states[:nodes], traj(grid), traj((grid[1:] + grid[:-1]) / 2),
            traj(np.array([0.0, -0.0])))


def _assert_backward_half_is_the_backward_run(traj, atol_scale):
    """The part of ``traj`` before its anchor 0 equals a run over (lo, 0) from the
    anchor's state by value, array for array and read for read, and so do
    endpoints read there."""
    lo, i0 = traj.time_grid[0], np.searchsorted(traj.time_grid, 0.0)
    run = integrate(traj.field, traj.states[i0], (lo, 0.0), traj.tol, atol_scale, mirror=None)
    assert len(run.time_grid) == i0 + 1
    for got, want in zip(_first(traj, i0 + 1), _first(run, i0 + 1)):
        assert np.array_equal(got, want)
    for t in (0.999 * lo, 0.61 * lo, 0.2 * lo, 1e-3 * lo, run.time_grid[1]):
        assert np.array_equal(traj.endpoint(t), run.endpoint(t))


def _stepped_legs(calls):
    """The (start, direction) of each leg of ``leg_calls`` that stores its steps; a
    leg that keeps nothing (its buffers are None), an endpoint's, is not counted."""
    return [(c["t"], c["direction"]) for c in calls if c["ts"] is not None]


def test_a_reversible_system_steps_its_forward_half_only(leg_calls):
    # x'' = -x is reversed by (x, v) -> (x, -v), which fixes (1, 0): one leg is
    # stepped and the other side is its mirror image
    def field(s):
        return s[1], -s[0]

    traj = integrate(field, [1.0, 0.0], (-7.0, 7.0), Tolerances(), mirror=[1.0, -1.0])
    assert _stepped_legs(leg_calls) == [(0.0, 1.0)]
    assert np.array_equal(traj.time_grid, -traj.time_grid[::-1])
    assert np.array_equal(traj.states, traj.states[::-1] * [1.0, -1.0])
    mid = len(traj.time_grid) // 2                  # the anchor keeps its bits
    assert np.array_equal(_bits(traj.time_grid[mid]), _bits(0.0))
    assert np.array_equal(_bits(traj.states[mid]), _bits([1.0, 0.0]))
    assert np.array_equal(_bits(_at(traj, 0.0)), _bits([1.0, 0.0]))
    _assert_backward_half_is_the_backward_run(traj, 1.0)
    # a span not symmetric about 0 steps the forward side alone too, as far as
    # either end reaches, and mirrors all of it: a plain run read back as far
    # as the forward side reaches has its arrays and its reads
    for span in ((-7.0, 6.0), (-1.0, 3.0)):
        leg_calls.clear()
        mirrored = integrate(field, [1.0, 0.0], span, Tolerances(), mirror=[1.0, -1.0])
        assert [d for _, d in _stepped_legs(leg_calls)] == [1.0]
        end = mirrored.time_grid[-1]
        assert mirrored.time_grid[-2] < max(span[1], -span[0]) <= end
        assert np.array_equal(_bits(mirrored.time_grid[0]), _bits(-end))
        plain = integrate(field, [1.0, 0.0], span, Tolerances(), mirror=None)
        plain(np.array([-end, end]))
        assert len(mirrored.time_grid) == len(plain.time_grid)
        _assert_backward_half_is_the_backward_run(mirrored, 1.0)
        for got, want in zip(_first(mirrored, len(plain.time_grid)),
                             _first(plain, len(plain.time_grid))):
            assert np.array_equal(_bits(got), _bits(want))


def test_a_mirror_must_be_a_sign_vector_that_fixes_the_initial_state():
    def field(s):
        return s[1], -s[0]

    for mirror in ([1.0], [1.0, 0.5], [-1.0, 1.0], [1.0, -1.0, 1.0]):
        with pytest.raises(ValueError, match="fixes the initial state"):
            integrate(field, [1.0, 0.0], (-1.0, 1.0), Tolerances(), mirror=mirror)
    integrate(field, [1.0, -0.0], (-1.0, 1.0), Tolerances(), mirror=[1.0, -1.0])   # by value


def test_a_mirrored_side_is_kept_until_the_forward_side_grows():
    # backward reads with no growth between them share one read-only (T, Y, key);
    # after a growth the side is mirrored again, bit for bit a fresh mirror
    curve = TwistTrajectory(TwistParam(AdmissiblePair(1, 3), 0.05), Tolerances())
    traj, y0 = curve.trajectory, initial_state(curve.param)
    traj(np.array([-3.0]))
    first = traj._stepped(-1.0)
    traj(np.array([-1.0, 2.0]))
    assert all(a is b for a, b in zip(first, traj._stepped(-1.0), strict=True))
    assert not any(a.flags.writeable for a in first)
    traj(np.array([-40.0]))
    T, Y, key = traj._stepped(-1.0)
    fwd = traj._sides[1.0]
    fresh_T, fresh_Y = 0.0 - fwd.T, fwd.Y * traj._mirror
    fresh_Y[0] = y0
    assert len(T) > len(first[0])
    for got, want in ((T, fresh_T), (Y, fresh_Y), (key, -fresh_T)):
        assert _bits(got).tobytes() == _bits(want).tobytes()


_MIRROR_CASES = [(q, sign * tau, preset) for q in range(2, 8)
                 for tau in (1e-6, 1e-3, 0.3 * tau_max(AdmissiblePair(1, q)))
                 for sign in (1.0, -1.0) for preset in ("standard", "strict")]


@pytest.mark.parametrize("q,tau,preset", _MIRROR_CASES)
def test_p1_backward_half_is_the_backward_run(q, tau, preset):
    # p = 1 mirrors the backward half of the curve and of (w, Q, Q') from the
    # forward one: every array equals a separate backward run's by value
    from sltwist.cli import TOL_PRESETS

    param = TwistParam(AdmissiblePair(1, q), tau)
    curve = TwistTrajectory(param, TOL_PRESETS[preset])
    traj = curve.trajectory
    curve.w(np.array([-2.0, 2.0]) * curve.period.p_tau)
    assert np.array_equal(_bits(traj.states[np.searchsorted(traj.time_grid, 0.0)]),
                          _bits(initial_state(param)))
    _assert_backward_half_is_the_backward_run(traj, np.array(traj.atol) / traj.tol.tol)
    _assert_backward_half_is_the_backward_run(curve.Q, 1.0)


_MIXED_CASES = [(1, q, f) for q in range(2, 8) for f in (0.3, 1e-3, -0.3)] + [
    (2, 3, 0.3), (2, 3, -0.3), (3, 4, 1e-3), (2, 5, 0.3)]


@pytest.mark.parametrize("p,q,frac", _MIXED_CASES,
                         ids=[f"{q}-{f}" if p == 1 else f"{p}-{q}-{f}" for p, q, f in _MIXED_CASES])
def test_p1_mirrored_reads_equal_a_run_stepped_on_both_sides(p, q, frac):
    # the curve and (w, Q, Q') of p = 1 read their backward half through R from
    # the forward one, bit for bit what the same system stepped on both sides
    # without a mirror reads: at 0.0 and -0.0, at the backward nodes and over a
    # grid, once both sides have been read.  p >= 2 steps both sides itself.
    # Either way a read that mixes the sides, one pass per side, is the loop
    # of its one-time reads
    pair = AdmissiblePair(p, q)
    curve = TwistTrajectory(TwistParam(pair, frac * tau_max(pair)), Tolerances())
    for mirrored in (curve.trajectory, curve.Q):
        assert list(mirrored._sides) == ([1.0] if p == 1 else [1.0, -1.0])
        plain = ode_engine.Trajectory(mirrored.field, mirrored.endpoint(0.0), mirrored.tol,
                                      mirrored.atol, None)
        grid = np.linspace(-5.0, 5.0, 101)
        for traj in (mirrored, plain):
            traj(grid)
        nodes = mirrored.time_grid[mirrored.time_grid < 0.0]
        mixed = np.concatenate([[0.0, -0.0], nodes, grid])
        for ts in ([0.0], [-0.0], nodes, grid, mixed):
            assert np.array_equal(_bits(mirrored(np.array(ts))), _bits(plain(np.array(ts))))
        assert np.array_equal(_bits(nodes), _bits(plain.time_grid[plain.time_grid < 0.0]))
        loop = np.stack([mirrored(np.array([t]))[:, 0] for t in mixed], axis=1)
        assert np.array_equal(_bits(mirrored(mixed)), _bits(loop))


def _landed_endpoint(traj, t):
    """The state at t stepped by the plain loop of :func:`_reference_steps` from the
    last accepted step between the anchor and t, landing on t."""
    forward = t > 0.0
    k = np.searchsorted(traj.time_grid, t, side="left" if forward else "right") - forward
    return _reference_steps(traj.field, traj.states[k], float(traj.time_grid[k]), t, traj.tol,
                            traj.atol, land=True)[1][-1]


def _assert_endpoints_equal_landed_runs(traj, ts, monkeypatch):
    want = [_landed_endpoint(traj, t) for t in ts]

    def forbidden(*args, **kwargs):
        raise AssertionError("an endpoint ran integrate or the dense-output stages")

    with monkeypatch.context() as m:
        m.setattr(ode_engine, "integrate", forbidden)
        m.setattr(ode_engine, "_dense", forbidden)
        got = [traj.endpoint(t) for t in ts]
    for a, b in zip(got, want):
        assert np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("frac", [0.3, -0.3, 1e-4, -1e-4])
@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (1, 6)])
def test_endpoint_is_an_integrate_run_bit_for_bit(p, q, frac, monkeypatch):
    # the step loop alone from the last accepted step: the same initial-step
    # probe and the same steps as a whole run landing on t, on both sides of
    # the anchor, on the curve (with its per-component atol) and on (w, Q, Q')
    pair = AdmissiblePair(p, q)
    param = TwistParam(pair, frac * tau_max(pair))
    curve = TwistTrajectory(param, Tolerances())
    traj = curve.trajectory
    traj(np.array([-3.0, 4.0]))
    ts = [-2.9, -1.3, -0.01, 0.01, 1.7, 3.95, traj.time_grid[1], traj.time_grid[-2]]
    _assert_endpoints_equal_landed_runs(traj, ts, monkeypatch)
    lin, p_tau = curve.Q, curve.period.p_tau
    ts = [f * p_tau for f in (-2.0, -0.4, 0.3, 1.2)]
    _assert_endpoints_equal_landed_runs(lin, ts, monkeypatch)


def _assert_endpoint_at_zero_is_the_anchor(traj, y0):
    want, grid = _bits(np.array(y0, dtype=float)), traj.time_grid.copy()
    zero = traj.endpoint(0.0)
    assert np.array_equal(_bits(zero), want)
    zero[:] = np.nan                                # a copy: the anchor keeps its bits
    assert np.array_equal(_bits(traj.endpoint(0.0)), want)
    assert np.array_equal(traj.time_grid, grid)     # and nothing is stepped


@pytest.mark.parametrize("p,q,tau,reads", [
    (1, 3, 0.05, [-2.0, 3.0]),          # the backward half mirrored
    (1, 2, 0.0, [0.5, 2.0]),            # read forward only, from Im w1 = -0.0
    (2, 3, -0.05, [-2.0, 3.0]),
    (None, None, None, [-1.0, 1.5]),    # x' = 1 from -0.0
])
def test_endpoint_at_zero_is_the_anchor_bit_for_bit(p, q, tau, reads):
    # the state integrate received, signed zeros included, which a dense read
    # at 0 returns too, where the dense output need not keep a zero's sign
    if p is None:
        y0 = np.array([-0.0])
        traj = integrate(lambda s: [1.0], y0, (0.0, 0.0), Tolerances(), mirror=None)
    else:
        param = TwistParam(AdmissiblePair(p, q), tau)
        y0, traj = initial_state(param), TwistTrajectory(param, Tolerances()).trajectory
    _assert_endpoint_at_zero_is_the_anchor(traj, y0)
    for t in reads:
        traj(np.array([t]))
        _assert_endpoint_at_zero_is_the_anchor(traj, y0)
    assert np.array_equal(_bits(_at(traj, 0.0)), _bits(y0))


_ZERO_READS = [[0.0], [-0.0], [-1.5, 0.0, 2.0, -0.0], [0.0, -0.7, -0.0, 0.3], [-0.0], [0.0]]


@pytest.mark.parametrize("case", ["fresh", "mirrored", "forward only", "p >= 2", "Q", "catenoid"])
def test_a_dense_read_at_zero_is_the_anchor_bit_for_bit(case):
    # 0.0 and -0.0 read the state integrate received, signed zeros included,
    # as endpoint(0.0) does, alone or among times of either sign, before
    # anything is stepped and after either side is; a landed read as well
    reads, scale = _ZERO_READS, 1.0
    if case == "fresh":                             # x' = 1 from -0.0
        y0 = np.array([-0.0])
        traj = integrate(lambda s: [1.0], y0, (0.0, 0.0), Tolerances(), mirror=None)
    elif case == "catenoid":
        traj, scale = _unit_trajectory(4), 0.2 * catenoid_lifetime(4)
        w0 = np.exp(1j * math.pi / 8)                # as the profile starts
        y0 = np.array([w0.real, w0.imag])
    else:
        p, q, tau = {"mirrored": (1, 3, 0.05), "forward only": (1, 2, 0.0),
                     "p >= 2": (2, 3, -0.05), "Q": (1, 3, -0.05)}[case]
        curve = TwistTrajectory(TwistParam(AdmissiblePair(p, q), tau), Tolerances())
        traj, y0 = curve.trajectory, initial_state(curve.param)
        if case == "forward only":                  # unmirrored, Im w1 = -0.0
            reads = [[t for t in ts if t >= 0.0] for ts in reads]
        elif case == "Q":
            traj, y0 = curve.Q, curve.Q.endpoint(0.0)
    want = _bits(y0)
    for ts in reads:
        ts = scale * np.array(ts)
        for read in (traj, traj.landed):
            zero = read(ts)[:, ts == 0.0]
            assert zero.shape[1] and all(np.array_equal(_bits(z), want) for z in zero.T), ts


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("p,q,tau", [(1, 3, 0.05), (2, 3, 0.05)])
def test_a_read_refuses_a_time_that_is_not_finite(p, q, tau, t):
    # refused before anything is stepped; unrefused, nan read the last node and
    # an infinite time stepped on without end
    curve = TwistTrajectory(TwistParam(AdmissiblePair(p, q), tau), Tolerances())
    traj = curve.trajectory
    traj(np.array([-3.0, 3.0]))
    grid, text = traj.time_grid.copy(), re.escape(f"time {t} is not finite")
    with pytest.raises(ValueError, match=text):
        traj.endpoint(t)
    for read in (traj, curve.w, lambda ts: traj.steps(*ts), traj.landed):
        with pytest.raises(ValueError, match=text):
            read(np.array([1.0, t]))
    assert np.array_equal(traj.time_grid, grid)


@pytest.mark.parametrize("p,q,tau", [(1, 2, 0.1), (1, 3, -0.05), (1, 6, 1e-4)])
def test_a_mirrored_backward_landed_read_is_the_forward_one_reflected(p, q, tau):
    # landed(-t) is R landed(t) bit for bit, alone, in one batch of both signs,
    # inside the stored steps and past them, and after either is read; and so is
    # endpoint(-t), which no CLI call reads on a mirrored side
    curve = TwistTrajectory(TwistParam(AdmissiblePair(p, q), tau), Tolerances())
    traj, p_tau = curve.trajectory, curve.period.p_tau
    R = traj._mirror[:, None]
    ts = p_tau * np.array([0.3, 1.0, 2.0, 5.5, 11.0])
    forward = traj.landed(ts)
    assert traj.landed(-ts).tobytes() == (R * forward).tobytes()
    both = traj.landed(np.concatenate([-ts[::-1], ts]))
    assert both.tobytes() == np.concatenate([R * forward[:, ::-1], forward], axis=1).tobytes()
    for t, col in zip(ts, forward.T):
        assert traj.landed(np.array([-t]))[:, 0].tobytes() == (R[:, 0] * col).tobytes()
    for t in ts[::-1]:
        assert traj.endpoint(-t).tobytes() == (R[:, 0] * traj.endpoint(t)).tobytes()


@pytest.mark.parametrize("p,q,tau", [(1, 3, 0.05), (1, 2, -0.1), (2, 3, -0.05)])
def test_endpoint_and_landed_land_from_the_same_node(p, q, tau, leg_calls):
    # on a grown side an endpoint is one leg, which keeps nothing, landing on t
    # from the side's last node before t; a landed read's leg starts from the same
    # node, and only their first tries differ: scipy's initial step for endpoint,
    # 2 |t - t_k| for landed.  A mirrored trajectory lands a backward t forward
    curve = TwistTrajectory(TwistParam(AdmissiblePair(p, q), tau), Tolerances())
    traj = curve.trajectory
    traj(np.array([-6.0, 6.0]))
    grid = traj.time_grid.copy()
    for t in (-5.9, -2.3, -1e-3, 1e-3, 0.4, 5.2, float(grid[2]), float(grid[-3])):
        leg_calls.clear()
        end = traj.endpoint(t)
        (leg,) = leg_calls
        landed = traj.landed(np.array([t]))
        assert np.array_equal(traj.time_grid, grid)         # nothing was stepped
        assert len(leg_calls) == 2
        land = leg_calls[1]
        assert all(c["land"] and c["ts"] is None and c["t1"] == abs(t) * c["direction"]
                   for c in leg_calls)
        for key in ("t", "direction", "y", "f", "atol", "rtol"):
            assert leg[key] == land[key], key
        side, d, t_k = traj._sides[leg["direction"]], leg["direction"], leg["t"]
        k = int(np.flatnonzero(side.T == t_k)[0])
        assert d * side.T[k] < abs(t) <= d * side.T[k + 1]
        assert leg["y"] == tuple(side.Y[k].tolist())
        span = abs(t) - d * t_k
        assert leg["h_abs"] == ode_engine._initial_step(traj.field, leg["y"], leg["f"], span,
                                                        d, traj.atol, traj._rtol)
        assert land["h_abs"] == 2.0 * span
        sign = traj._mirror if t < 0.0 and traj._mirror is not None else 1.0
        assert end.tobytes() == (sign * np.array(leg["return"][1])).tobytes()
        assert landed[:, 0].tobytes() == (sign * np.array(land["return"][1])).tobytes()


def test_anchor_rejected_and_reads_past_the_extent_grow():
    with pytest.raises(TypeError):                  # the mirror is required, if None
        integrate(lambda s: [1.0], [0.0], (0.0, 1.0), Tolerances())
    traj = integrate(lambda s: [1.0], [0.0], (-1.0, 1.0), Tolerances(), mirror=None)
    _assert_endpoint_at_zero_is_the_anchor(traj, [0.0])
    # x' = 1 from 0: reads past either end step that side on, and read x = t
    assert abs(_at(traj, 1.5)[0] - 1.5) <= 1e-14
    assert np.allclose(traj(np.array([-1.5, 0.0])), [[-1.5, 0.0]], rtol=0.0, atol=1e-14)
    assert abs(traj.endpoint(-2.0)[0] + 2.0) <= 1e-14
    event = locate_event(traj, lambda s: s[0] - 0.5, lambda s: 1.0, 2.5, (0.0, 3.0))
    assert abs(event - 0.5) <= 1e-14
    assert traj.time_grid[0] <= -2.0 and traj.time_grid[-1] >= 2.5


@pytest.mark.parametrize("mirror", [None, [1.0, -1.0]])
def test_a_field_is_handed_the_state_alone(mirror):
    # x'' = -x as a one-parameter field: the steps, the initial-step probe, the
    # dense stages, an endpoint's leg and a mirrored run each hand it one state
    # of 2 components, a tuple of floats or arrays, and never a time
    sizes = []

    def field(s):
        sizes.append(len(s))
        return s[1], -s[0]

    traj = integrate(field, [1.0, 0.0], (0.0, 0.0), Tolerances(), mirror=mirror)
    ts = np.linspace(-3.0, 3.0, 7)
    assert np.max(np.abs(traj(ts)[0] - np.cos(ts))) < 1e-10
    assert abs(traj.endpoint(-4.5)[0] - math.cos(4.5)) < 1e-10
    times, _ = traj.steps(-5.0, 5.0)
    assert times[0] <= -5.0 and times[-1] >= 5.0
    traj(times)                                     # the dense stages of every step
    assert all(side.F.shape[2] == len(side.ts) - 1 for side in traj._sides.values())
    assert sizes and set(sizes) == {2}


@pytest.mark.parametrize("mirror", [None, [-1.0]])
@pytest.mark.parametrize("span", [(0.5, 1.0), (-1.0, -0.5)])
def test_a_span_without_the_anchor_steps_the_side_it_reaches(span, mirror, leg_calls):
    # x' = 1 from 0 (reversed by -1, which fixes 0): a span on one side of the
    # anchor steps that side alone, or with a mirror the forward side, and x = t
    traj = integrate(lambda s: [1.0], [0.0], span, Tolerances(), mirror=mirror)
    side = math.copysign(1.0, span[0])
    assert [d for _, d in _stepped_legs(leg_calls)] == [1.0 if mirror else side]
    far = span[1] if side > 0 else span[0]
    assert traj.time_grid[0] <= min(far, 0.0) and traj.time_grid[-1] >= max(far, 0.0)
    if mirror is None:
        assert traj.time_grid[0 if side > 0 else -1] == 0.0
    ts = np.linspace(*span, 5)
    assert np.allclose(traj(ts)[0], ts, rtol=0.0, atol=1e-14)
    assert abs(traj.endpoint(far)[0] - far) <= 1e-14


def test_locate_event_hands_g_and_g_prime_the_state_alone():
    # each Newton iterate reads one integrated endpoint, and g and g_prime each
    # get that state alone, never the time
    traj = integrate(lambda s: [1.0], [0.0], (0.0, 1.0), Tolerances(), mirror=None)
    seen = []

    def g(s):
        seen.append(("g", s))
        return s[0] - 0.5

    def g_prime(s):
        seen.append(("g_prime", s))
        return 1.0

    assert abs(locate_event(traj, g, g_prime, 0.7, (0.0, 1.0)) - 0.5) < 1e-13
    assert seen and [name for name, _ in seen] == ["g", "g_prime"] * (len(seen) // 2)
    for (_, a), (_, b) in zip(seen[::2], seen[1::2]):
        assert a is b and a.shape == (1,)


def _arrays(traj):
    """``time_grid`` and ``states``, then each stepped side's times, states and
    dense coefficients over all its steps, in stepping order."""
    sides = [traj._sides[d] for d in sorted(traj._sides)]
    return [traj.time_grid, traj.states,
            *(a for side in sides for a in (side.T, side.Y, side.coefficients(traj.field)))]


_GROWTH_CASES = [(p, q, sign * frac) for p, q in [(1, 2), (1, 5), (2, 2), (2, 3), (3, 4), (2, 5)]
                 for frac in (0.3, 1e-3) for sign in (1.0, -1.0)]


@pytest.mark.parametrize("p,q,frac", _GROWTH_CASES)
def test_a_trajectory_grown_in_pieces_is_one_run_to_its_extent(p, q, frac):
    # endpoints and dense reads in increasing pieces, each past the last on both
    # sides, step each side on from its last accepted step (p = 1 mirrors its
    # backward side): a curve read at the final extent first has the same
    # steps, dense output and endpoints, bit for bit
    pair = AdmissiblePair(p, q)
    param = TwistParam(pair, frac * tau_max(pair))
    pieces, whole = (TwistTrajectory(param, Tolerances()).trajectory for _ in range(2))
    extents = [(-1e-3, 2e-3), (-0.1, 0.2), (-2.9, 3.1), (-6.0, 8.5)]
    reads = []
    for lo, hi in extents:
        reads += [pieces.endpoint(1.1 * hi), pieces.endpoint(1.1 * lo),
                  pieces(np.linspace(lo, hi, 7))]
    whole(np.array([1.1 * extents[-1][0], 1.1 * extents[-1][1]]))
    for got, want in zip(_arrays(pieces), _arrays(whole), strict=True):
        assert np.array_equal(_bits(got), _bits(want))
    again = []
    for lo, hi in extents:
        again += [whole.endpoint(1.1 * hi), whole.endpoint(1.1 * lo),
                  whole(np.linspace(lo, hi, 7))]
    for a, b in zip(reads, again):
        assert np.array_equal(_bits(a), _bits(b))


# -- the owned DOP853 against scipy's solve_ivp, the second route ----------

def test_tableau_literals_are_scipys_bit_for_bit():
    n = scipy_dop853.N_STAGES
    for s in range(1, 16):
        assert np.array_equal(ode_engine._A[s], scipy_dop853.A[s, :s])
    assert np.array_equal(ode_engine._A[n], scipy_dop853.B)
    assert np.array_equal(ode_engine._E5, scipy_dop853.E5)
    assert np.array_equal(ode_engine._E3, scipy_dop853.E3)
    assert np.array_equal(ode_engine._D, scipy_dop853.D)
    # the compiled leg carries each coefficient it uses as a literal; the
    # dense-output stages 13-15 read rows 13-15 of _A, pinned above; no stage
    # time is formed, so the nodes C are not used
    consts = set(ode_engine._leg(2).__code__.co_consts)
    used = [*scipy_dop853.A[1:n + 1].ravel(),
            *scipy_dop853.E5, *scipy_dop853.E3]
    assert {float(v) for v in used if v} <= consts


# -- the generated fields and the one-pass dense stages ----------------------

@pytest.mark.parametrize("p,q", _PAIRS_N8)
def test_generated_field_is_the_complex_formula_bit_for_bit(p, q):
    rng = np.random.default_rng(10 * p + q)
    states = rng.uniform(-1.5, 1.5, (4, 400)) * 10.0 ** rng.uniform(-2, 0.5, (4, 400))
    ours, ref = _field(p, q), twisted_field(p, q)
    assert np.array_equal(_bits(ours(states)), _bits(ref(states)))
    for col in states.T[:100].tolist():
        assert np.array_equal(_bits(ours(tuple(col))), _bits(ref(tuple(col))))
    # the linearised field on scalars; on arrays numpy's ** may differ in the last bit
    ours, ref = _field(p, q, linearised=True), twisted_field(p, q, linearised=True)
    for col in rng.uniform(-1.0, 1.0, (100, 6)).tolist():
        assert np.array_equal(_bits(ours(tuple(col))), _bits(ref(tuple(col))))


@pytest.mark.parametrize("n", range(3, 9))
def test_generated_profile_field_is_the_complex_formula_bit_for_bit(n):
    states = np.random.default_rng(n).uniform(-1.5, 1.5, (2, 400))
    ours, ref = _profile_field(n), profile_field(n)
    reference = [ref(tuple(col)) for col in states.T.tolist()]
    assert np.array_equal(_bits(ours(states)), _bits(np.transpose(reference)))
    for col, want in zip(states.T.tolist(), reference):
        assert np.array_equal(_bits(ours(tuple(col))), _bits(want))


def _column_sum(terms):
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _stage_state(s, h, y, k):
    """The state stage s of a step of size h from y reads, in Python floats:
    row s of ``_A`` times the stages before it, summed in column order, times
    h, plus y."""
    return tuple(y[i] + _column_sum([w * k[j][i] for j, w in enumerate(ode_engine._A[s]) if w])
                 * h for i in range(len(y)))


def _scalar_stages(field, h, y, f, last):
    """Stages 0..last of one step, one field call on a tuple of floats each."""
    k = [tuple(f)]
    for s in range(1, last + 1):
        k.append(tuple(field(_stage_state(s, h, y, k))))
    return k


def _scalar_dense_rows(field, T, Y):
    """Rows 3-6 of the dense coefficients of a side's steps, the nodes T and Y,
    rebuilt one step at a time, every stage 1-15 in Python floats from ``_A``:
    (steps, 4, dim)."""
    kept, H = ode_engine._KEPT, np.diff(T)
    K = []
    for h, y in zip(H.tolist(), Y[:-1].tolist()):
        k = _scalar_stages(field, h, y, field(tuple(y)), 15)
        K.append([k[s] for s in kept])
    return H[:, None, None] * np.einsum("ij,sjd->sid", ode_engine._D[:, kept], np.array(K))


def _curve_trajectory(p, q):
    pair = AdmissiblePair(p, q)
    s0 = initial_state(TwistParam(pair, 0.2 * tau_max(pair)))
    return integrate(_field(p, q), s0, (-4.0, 6.0), Tolerances(), mirror=None)


def _profile_trajectory(n):
    w0, half = np.exp(1j * math.pi / (2 * n)), 0.9 * catenoid_lifetime(n)
    return integrate(_profile_field(n), [w0.real, w0.imag], (-half, half), Tolerances(),
                     mirror=None)


@pytest.mark.parametrize("build", [
    lambda: _curve_trajectory(2, 3), lambda: _curve_trajectory(1, 6),
    lambda: _profile_trajectory(4),
    # a field that ignores its state returns floats, broadcast over the steps
    lambda: integrate(lambda s: [0.5, -0.25], [1.0, 2.0], (-3.0, 4.0), Tolerances(), mirror=None),
], ids=["(2,3)", "(1,6)", "catenoid n=4", "constant"])
def test_one_pass_dense_stages_equal_scalar_steps(build):
    traj = build()
    assert sorted(traj._sides) == [-1.0, 1.0]
    for side in traj._sides.values():
        T, Y = side.T, side.Y
        assert len(T) > 1
        F = side.coefficients(traj.field).transpose(2, 0, 1)
        assert np.array_equal(_bits(F[:, 3:]), _bits(_scalar_dense_rows(traj.field, T, Y)))


def _reference_steps(field, y0, t0, t1, tol, atol, land):
    """One run of scipy's step control from t0 as a plain Python loop over
    :func:`_scalar_stages`, to its first step at or past t1, or with ``land``
    its last step clipped to end on t1: the times, states and stages (0, 5-12,
    then zeros) of a leg's buffers, and the run's rejections."""
    dim, kept = len(y0), ode_engine._KEPT[:9]
    rtol = max(tol.tol, 100 * np.finfo(float).eps)
    direction = 1.0 if t1 > t0 else -1.0
    y = tuple(y0.tolist())
    f = tuple(field(y))
    h_abs = ode_engine._initial_step(field, y, f, abs(t1 - t0) if land else math.inf,
                                     direction, atol, rtol)
    t, ts, ys, ks, rejections = t0, [t0], [y], [], 0
    while direction * (t - t1) < 0:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            assert h_abs >= min_step
            t_new = t + h_abs * direction
            if land and direction * (t_new - t1) > 0:
                t_new = t1
            h = t_new - t
            h_abs = abs(h)
            k = _scalar_stages(field, h, y, f, 11)
            y_new = _stage_state(12, h, y, k)
            k.append(tuple(field(y_new)))
            e5, e3 = ([_column_sum([w * k[j][i] for j, w in enumerate(weights) if w])
                       / (atol[i] + max(abs(y[i]), abs(y_new[i])) * rtol) for i in range(dim)]
                      for weights in (ode_engine._E5, ode_engine._E3))
            e5, e3 = _column_sum([e * e for e in e5]), _column_sum([e * e for e in e3])
            err = h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * dim) if e5 or e3 else 0.0
            assert math.isfinite(err)
            if err < 1:
                factor = 10.0 if err == 0 else min(10.0, 0.9 * err ** -0.125)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
            rejections += 1
        ks.append([k[s] for s in kept] + [(0.0,) * dim] * 3)
        t, y, f = t_new, y_new, k[12]
        ts.append(t)
        ys.append(y)
    return np.array(ts), np.array(ys), np.array(ks), rejections


def test_generated_leg_equals_plain_python_steps():
    # the (1,6) curve at small tau, whose steps are rejected now and then, run on
    # both sides without a mirror: the plain loop's steps, states and dense
    # coefficients on each side
    pair = AdmissiblePair(1, 6)
    param = TwistParam(pair, 1e-5 * tau_max(pair))
    curve = TwistTrajectory(param, Tolerances())
    hi, scale = 2.0 * curve.period.p_tau, np.array(curve.trajectory.atol) / Tolerances().tol
    traj = integrate(_field(1, 6), initial_state(param), (-0.5 * hi, hi), Tolerances(),
                     scale, mirror=None)
    y0, rejections, sides = traj.states[traj.time_grid == 0.0][0], 0, []
    for t1 in (traj.time_grid[-1], traj.time_grid[0]):
        T, Y, K, rejected = _reference_steps(traj.field, y0, 0.0, float(t1), traj.tol, traj.atol,
                                             land=False)
        sides.append((T, Y, ode_engine._dense(traj.field, T, Y, K)))
        rejections += rejected
    (Tf, Yf, Ff), (Tb, Yb, Fb) = sides
    assert rejections >= 1
    assert np.array_equal(_bits(traj.time_grid), _bits(np.concatenate([Tb[::-1], Tf[1:]])))
    assert np.array_equal(_bits(traj.states), _bits(np.concatenate([Yb[::-1], Yf[1:]])))
    for got, want in zip(_arrays(traj)[2:], (Tb, Yb, Fb.transpose(1, 2, 0), Tf, Yf,
                                             Ff.transpose(1, 2, 0)), strict=True):
        assert np.array_equal(_bits(got), _bits(want))


def _reference_case(field, y0, span, tol=Tolerances(), atol_scale=1.0):
    """Our trajectory and solve_ivp's DOP853 run over the same span; ours ends at
    its first step past the span, and its endpoint lands on the span's end."""
    ours = integrate(field, y0, span, tol, atol_scale, mirror=None)
    ref = solve_ivp(lambda t, y: field(y), span, y0, method="DOP853", rtol=tol.tol,
                    atol=tol.tol * np.asarray(atol_scale), dense_output=True)
    assert ref.success
    steps, ref_steps = len(ours.time_grid) - 1, len(ref.t) - 1
    assert abs(steps - ref_steps) <= max(2, 0.01 * ref_steps)
    end = ours.endpoint(span[1])
    assert np.max(np.abs(end - ref.y[:, -1])) <= 1e-11
    ts = np.linspace(*span, 200)
    if np.max(np.abs(ours(ts) - ref.sol(ts))) > 1e-10:
        # both interpolants are off by more than that: compare their errors
        # against a run at 10 times tighter tolerances
        tight = solve_ivp(lambda t, y: field(y), span, y0, method="DOP853", rtol=tol.tol / 10,
                          atol=tol.tol / 10 * np.asarray(atol_scale), dense_output=True)
        ours_err, ref_err = (np.max(np.abs(y - tight.sol(ts))) for y in (ours(ts), ref.sol(ts)))
        assert ours_err <= 3 * ref_err
    return ours


@pytest.mark.parametrize("p,q", _PAIRS_N8)
@pytest.mark.parametrize("frac", [1e-5, 0.1, 0.5, 0.9])
def test_curve_matches_solve_ivp(p, q, frac):
    pair = AdmissiblePair(p, q)
    param = TwistParam(pair, frac * tau_max(pair))
    p_tau, _ = partial_periods_quadrature(param)
    shrink = min(1.0, (2.0 * param.tau) ** (2.0 / p))
    _reference_case(_field(p, q), initial_state(param), (0.0, 2.2 * p_tau),
                    atol_scale=np.array([shrink, shrink, 1.0, 1.0]))


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (3, 4)])
def test_linearised_field_matches_solve_ivp(p, q):
    pair = AdmissiblePair(p, q)
    param = TwistParam(pair, 0.3 * tau_max(pair))
    p_tau, _ = partial_periods_quadrature(param)
    y0 = np.concatenate([initial_state(param), [1.0, 0.0]])
    _reference_case(_field(p, q, linearised=True), y0, (0.0, 2.2 * p_tau))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_catenoid_field_matches_solve_ivp(n):
    w0 = np.exp(1j * math.pi / (2 * n))
    span = (0.0, -0.99 * catenoid_lifetime(n))
    _reference_case(_profile_field(n), [w0.real, w0.imag], span)

