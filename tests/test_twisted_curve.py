import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from sltwist.ode_engine import Tolerances, integrate
from sltwist.periods import period_ode
from sltwist.twisted_curve import (AdmissiblePair, TwistParam, SphereState, _field, _w,
                                   f_poly, f_prime, initial_state, solve_w, tau_max,
                                   y_extrema)

PAIRS = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


def test_admissible_pair_validation():
    with pytest.raises(ValueError):
        AdmissiblePair(2, 1)
    with pytest.raises(ValueError):
        AdmissiblePair(1, 1)
    with pytest.raises(ValueError):
        AdmissiblePair(0, 2)
    assert AdmissiblePair(1, 2).n == 3


def test_tau_max_values():
    assert abs(tau_max(AdmissiblePair(1, 2)) - 0.1924500897298752) < 1e-15
    assert tau_max(AdmissiblePair(2, 2)) == 0.125


@pytest.mark.parametrize("p,q", PAIRS)
def test_f_peak_equals_tau_max(p, q):
    pair = AdmissiblePair(p, q)
    assert abs(f_poly(pair, q / pair.n) - 4 * tau_max(pair) ** 2) < 1e-14


def test_f_values():
    pair = AdmissiblePair(1, 2)
    assert abs(f_poly(pair, 2.0 / 3.0) - 4.0 / 27.0) < 1e-16
    assert f_poly(pair, 0.0) == 0.0
    assert f_poly(pair, 1.0) == 0.0
    assert abs(f_poly(AdmissiblePair(2, 3), 0.5) - 0.03125) < 1e-17


@settings(max_examples=60, deadline=None)
@given(hs.sampled_from(PAIRS), hs.floats(min_value=0.02, max_value=0.98))
def test_f_prime_matches_finite_difference(pq, y):
    pair = AdmissiblePair(*pq)
    h = 1e-6
    fd = (f_poly(pair, y + h) - f_poly(pair, y - h)) / (2 * h)
    exact = f_prime(pair, y)
    assert abs(exact - fd) <= 1e-7 * max(1.0, abs(fd))


def test_y_extrema_against_bisection_oracle():
    pair = AdmissiblePair(1, 2)
    param = TwistParam(pair, tau_max(pair) / 2)
    y_min, y_max = y_extrema(param)
    # independent oracle: plain bisection on f(y) - 4 tau^2 = y^2(1-y) - 1/27
    def g(y):
        return y * y * (1 - y) - 1.0 / 27.0

    def bisect(a, b):
        for _ in range(200):
            m = 0.5 * (a + b)
            if g(a) * g(m) <= 0:
                b = m
            else:
                a = m
        return 0.5 * (a + b)

    assert abs(y_min - bisect(1e-8, 2.0 / 3.0)) < 1e-12
    assert abs(y_max - bisect(2.0 / 3.0, 1.0 - 1e-8)) < 1e-12
    assert 0.21 < y_min < 0.22 and 0.95 < y_max < 0.97


def test_y_extrema_symmetric_pair_sums_to_one():
    for tau in (0.01, 0.05, 0.1):
        y_min, y_max = y_extrema(TwistParam(AdmissiblePair(2, 2), tau))
        assert abs(y_min + y_max - 1.0) < 1e-10


def test_y_extrema_small_tau_asymptotics():
    y_min, _ = y_extrema(TwistParam(AdmissiblePair(1, 2), 1e-4))
    assert 0.9 < y_min / (2e-4) < 1.1


def test_y_extrema_rejects_degenerate_tau():
    pair = AdmissiblePair(1, 2)
    with pytest.raises(ValueError):
        y_extrema(TwistParam(pair, 0.0))
    with pytest.raises(ValueError):
        y_extrema(TwistParam(pair, tau_max(pair)))


def test_extrema_of_an_array_name_its_first_bad_tau():
    from sltwist.twisted_curve import _extrema

    pair = AdmissiblePair(1, 2)
    tm = tau_max(pair)
    for taus, message in [([0.1, 0.0, 2 * tm], "tau = 0"),
                          ([0.1, -2 * tm, 0.0], f"|tau|={2 * tm} exceeds tau_max"),
                          ([0.1, tm, 0.0], "too close to tau_max"),
                          ([0.1, math.nan], "tau is NaN")]:
        with pytest.raises(ValueError, match=message.replace("|", r"\|")):
            _extrema(pair, taus)
    y_min, y_max = _extrema(pair, [0.1, -0.1, 0.05])
    one = [y_extrema(TwistParam(pair, t)) for t in (0.1, 0.1, 0.05)]
    assert np.allclose(np.transpose(one), [y_min, y_max], rtol=4e-16, atol=0)


def test_y_extrema_cache_stays_bounded():
    # one curve asks for its extrema from several routes; the cache keeps at most 64
    y_extrema.cache_clear()
    pair = AdmissiblePair(2, 3)
    taus = np.linspace(0.01, 0.9, 100) * tau_max(pair)
    first = y_extrema(TwistParam(pair, taus[0]))
    for t in taus:
        y_extrema(TwistParam(pair, t))
    assert y_extrema.cache_info().currsize <= 64
    assert y_extrema(TwistParam(pair, taus[0])) == first     # rebuilt after eviction, same bits


def test_initial_state_values():
    s = initial_state(TwistParam(AdmissiblePair(2, 2), 0.0))
    assert abs(s.w1 - math.sqrt(0.5)) < 1e-15 and abs(s.w2 - math.sqrt(0.5)) < 1e-15

    pair = AdmissiblePair(1, 2)
    s = initial_state(TwistParam(pair, tau_max(pair)))
    assert abs(s.w1 - (-1j) * math.sqrt(1.0 / 3.0)) < 1e-12
    assert abs(s.w2 - math.sqrt(2.0 / 3.0)) < 1e-12

    s = initial_state(TwistParam(AdmissiblePair(2, 3), 0.05))
    assert abs((s.w1**2 * s.w2**3).imag + 0.1) < 1e-12


@pytest.mark.parametrize("p,q,tau", [(1, 2, 0.1), (2, 3, 0.07), (3, 3, 0.01)])
def test_initial_state_conserved_label(p, q, tau):
    s = initial_state(TwistParam(AdmissiblePair(p, q), tau))
    assert abs((s.w1**p * s.w2**q).imag + 2 * tau) < 1e-12


def test_sphere_state_validates_norm():
    with pytest.raises(ValueError):
        SphereState(w1=1.0, w2=0.5)


def test_solve_w_real_slice_at_zero_twist():
    traj = solve_w(TwistParam(AdmissiblePair(2, 2), 0.0), (-3.0, 3.0))
    for t in np.linspace(-3.0, 3.0, 40):
        w1, w2 = traj.w(t)
        assert abs(w1.imag) < 1e-10 and abs(w2.imag) < 1e-10


def test_solve_w_p1_zero_twist_sign_convention():
    traj = solve_w(TwistParam(AdmissiblePair(1, 2), 0.0), (-2.0, 2.0))
    w1_neg, _ = traj.w(-1.0)
    w1_pos, _ = traj.w(1.0)
    assert w1_neg.imag == 0.0 and w1_pos.imag == 0.0
    assert w1_neg.real < 0 < w1_pos.real
    assert abs(traj.y(0.0) - 1.0) < 1e-12


def test_solve_w_extreme_twist_constant_radius():
    pair = AdmissiblePair(1, 2)
    traj = solve_w(TwistParam(pair, tau_max(pair)), (0.0, 10.0))
    for t in np.linspace(0.0, 10.0, 60):
        assert abs(traj.y(t) - 2.0 / 3.0) < 1e-10


def test_solve_w_energy_equation_pointwise():
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    traj = solve_w(param, (0.0, 12.0))
    for t in np.linspace(0.0, 12.0, 200):
        y = traj.y(t)
        res = traj.ydot(t) ** 2 - 4.0 * f_poly(param.pair, y) + 16.0 * param.tau**2
        assert abs(res) < 1e-8


@pytest.mark.parametrize("p,q,tau", [(1, 2, 0.1), (2, 3, 0.05), (2, 2, 0.06)])
def test_solve_w_conserved_drift(p, q, tau):
    param = TwistParam(AdmissiblePair(p, q), tau)
    traj = solve_w(param, (-20.0, 20.0))
    assert traj.drift["I1"] < 1e-9
    assert traj.drift["I2"] < 1e-9


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (3, 3), (1, 6), (4, 4), (2, 5), (1, 3)])
def test_drift_is_computed_on_first_read_as_the_invariants_were(p, q, sign):
    # the per-state I1 and I2 of the invariants hook integrate used to take,
    # each against its reference over the accepted steps
    from sltwist.twisted_curve import _twist

    pair = AdmissiblePair(p, q)
    tau = sign * 0.3 * tau_max(pair)
    traj = solve_w(TwistParam(pair, tau), (-5.0, 6.0))
    assert "drift" not in traj.__dict__
    inv = {"I1": (lambda s: s[0] ** 2 + s[1] ** 2 + s[2] ** 2 + s[3] ** 2, 1.0),
           "I2": (lambda s: _twist(pair, complex(s[0], s[1]), complex(s[2], s[3])).imag,
                  -2.0 * tau)}
    states = traj.trajectory.states.tolist()
    want = {name: float(np.max(np.abs(np.array([fn(s) for s in states]) - ref)))
            for name, (fn, ref) in inv.items()}
    drift = traj.drift
    assert "drift" in traj.__dict__ and traj.drift is drift
    assert list(drift.items()) == list(want.items())   # maxima of |.| >= 0: == is bitwise


def test_solve_w_second_derivative_matches_force():
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    traj = solve_w(param, (0.0, 6.0))
    h = 1e-3
    for t in np.linspace(0.5, 5.5, 25):
        ydd = (-traj.y(t + 2 * h) + 16 * traj.y(t + h) - 30 * traj.y(t)
               + 16 * traj.y(t - h) - traj.y(t - 2 * h)) / (12 * h**2)
        assert abs(ydd - 2.0 * f_prime(param.pair, traj.y(t))) < 1e-7


def test_solve_w_range_of_y():
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    y_min, y_max = y_extrema(param)
    traj = solve_w(param, (-10.0, 10.0))
    ys = [traj.y(t) for t in np.linspace(-10.0, 10.0, 300)]
    assert min(ys) > y_min - 1e-9 and max(ys) < y_max + 1e-9


def test_solve_w_initial_conditions_of_y():
    p23 = TwistParam(AdmissiblePair(2, 3), 0.05)
    traj = solve_w(p23, (0.0, 1.0))
    assert abs(traj.y(0.0) - 3.0 / 5.0) < 1e-10
    expected = -4.0 * math.sqrt(tau_max(p23.pair) ** 2 - 0.05**2)
    assert abs(traj.ydot(0.0) - expected) < 1e-10

    p12 = TwistParam(AdmissiblePair(1, 2), 0.1)
    traj = solve_w(p12, (0.0, 1.0))
    _, y_max = y_extrema(p12)
    assert abs(traj.y(0.0) - y_max) < 1e-10
    assert abs(traj.ydot(0.0)) < 1e-10


# The -tau curve is integrated from its own initial state, and the integrator
# commutes with conjugation bit for bit: every read is the exact conjugate.
@pytest.mark.parametrize("frac", [0.3, 1e-4])
@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (3, 3), (1, 6), (4, 4), (2, 5), (1, 3)])
def test_negative_twist_is_exact_conjugate(p, q, frac):
    pair = AdmissiblePair(p, q)
    plus, minus = (TwistParam(pair, sign * frac * tau_max(pair)) for sign in (1.0, -1.0))
    a, b = solve_w(plus, (-2.0, 3.0)), solve_w(minus, (-2.0, 3.0))
    conj = np.array([1.0, -1.0, 1.0, -1.0])
    assert np.array_equal(b.trajectory.time_grid, a.trajectory.time_grid)
    assert np.array_equal(b.trajectory.states, a.trajectory.states * conj)
    assert b.drift == a.drift
    ts = np.linspace(-2.0, 3.0, 41)
    for psi_b, psi_a in zip(b.psi(ts), a.psi(ts)):
        assert np.array_equal(psi_b, -psi_a)
    t = 2.345
    assert t not in a.trajectory.time_grid
    assert np.array_equal(b.trajectory.endpoint(t), a.trajectory.endpoint(t) * conj)
    da, db = period_ode(plus), period_ode(minus)
    assert db == replace(da, pthat=-da.pthat, psi1_2p=-da.psi1_2p, psi2_2p=-da.psi2_2p)


@pytest.mark.parametrize("p,q,tau", [(1, 2, 0.1), (2, 3, 0.07)])
def test_solve_w_atol_scale_agrees_with_unscaled_integration(p, q, tau):
    # solve_w scales the absolute tolerance of w1 by about |w1|^2 at small tau; a
    # plain integration without the scale takes other steps to the same curve
    param = TwistParam(AdmissiblePair(p, q), tau)
    ts = np.linspace(0.0, 2.0, 50)
    scaled = solve_w(param, (0.0, 2.0))
    plain = integrate(_field(p, q), initial_state(param).as_real(), (0.0, 2.0), Tolerances(),
                      t0=0.0)
    assert scaled.trajectory.atol != plain.atol
    assert np.max(np.abs(_w(plain(ts)) - np.array(scaled.w(ts)))) < 1e-9


@pytest.mark.parametrize("span", [(-1.0, 0.0), (0.0, 1.0)])
@pytest.mark.parametrize("p,q,tau", [(1, 2, 0.1), (2, 3, -0.05)])
def test_time_zero_readable_on_one_sided_span(span, p, q, tau):
    # t = 0 is the initial state of whichever piece was integrated
    param = TwistParam(AdmissiblePair(p, q), tau)
    traj = solve_w(param, span)
    s0 = initial_state(param)
    assert np.allclose(traj.state(0.0), s0.as_real(), rtol=0.0, atol=1e-15)
    assert traj.w(0.0) == (complex(traj.state(0.0)[0], traj.state(0.0)[1]),
                           complex(traj.state(0.0)[2], traj.state(0.0)[3]))
    assert abs(traj.w(0.0)[1] - s0.w2) <= 1e-15
    assert np.allclose(traj.psi(0.0), 0.0, rtol=0.0, atol=1e-15)
    psi1, psi2 = traj.psi(np.array([0.0, span[0] + span[1]]))
    assert (psi1[0], psi2[0]) == traj.psi(0.0)


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (3, 4)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_two_sided_curve_reads_as_its_one_sided_spans(p, q, sign):
    # psi is lifted outward from 0 on each side, so a span on both sides
    # of 0 reads w and psi exactly as the two one-sided spans do; the
    # spans are long enough for arg w2 to wrap on each side
    pair = AdmissiblePair(p, q)
    param = TwistParam(pair, sign * 0.3 * tau_max(pair))
    both = solve_w(param, (-25.0, 30.0))
    fwd, bwd = solve_w(param, (0.0, 30.0)), solve_w(param, (-25.0, 0.0))
    for side, ts in ((fwd, np.linspace(0.0, 30.0, 150)), (bwd, np.linspace(-25.0, 0.0, 150))):
        for a, b in zip(both.psi(ts) + both.w(ts), side.psi(ts) + side.w(ts)):
            assert np.array_equal(a, b)
    assert both.drift == {k: max(fwd.drift[k], bwd.drift[k]) for k in fwd.drift}


@pytest.mark.parametrize("p,q,tau", [(1, 2, 0.1), (1, 2, -0.1), (1, 3, -1e-3), (1, 2, 0.0),
                                     (2, 3, 0.05), (2, 3, -0.05), (3, 4, -0.02), (2, 3, 0.0)])
def test_state_readers_equal_the_expressions_they_replace(p, q, tau):
    # bit for bit, on the 4-component curve and the 6-component (w, Q, Q')
    # states, at dense reads and grid nodes; at zero twist Im w stays +-0,
    # and _w keeps the sign of each zero (re + 1j im would not)
    from sltwist.curve import Curve
    from sltwist.twisted_curve import _w, _y, _ydot

    pair = AdmissiblePair(p, q)
    curve = Curve(TwistParam(pair, tau))
    traj = curve.traj(-3.0, 3.0)
    ts = np.concatenate([np.linspace(-3.0, 3.0, 61), [0.0, -0.0]])
    states = [traj.trajectory(ts), traj.trajectory.states.T, traj.trajectory.states[9]]
    if tau:
        lin = curve.Q.trajectory
        states += [lin(ts), lin.states.T, lin(0.5)]
        assert curve.Q.y(ts).tobytes() == (lin(ts)[2] ** 2 + lin(ts)[3] ** 2).tobytes()
    elif p == 1:                # w1(0) = -0j
        assert np.signbit(traj.trajectory.states[:, 1::2]).any()
    for s in states:
        w = np.empty((2,) + s.shape[1:], dtype=complex)
        w.real, w.imag = s[0:4:2], s[1:4:2]
        assert _w(s).tobytes() == w.tobytes()
        assert np.asarray(_y(s)).tobytes() == np.asarray(s[2] ** 2 + s[3] ** 2).tobytes()
        assert (np.asarray(_ydot(pair, s)).tobytes()
                == np.asarray(-2.0 * (w[0] ** p * w[1] ** q).real).tobytes())
    four = traj.trajectory(ts)
    assert np.array(traj.w(ts)).tobytes() == _w(four).tobytes()
    assert traj.y(ts).tobytes() == (four[2] ** 2 + four[3] ** 2).tobytes()


@pytest.mark.parametrize("which", ["partial_periods_quadrature", "solve_Q",
                                   "symmetry_residuals"])
@pytest.mark.parametrize("p,q", [(1, 2), (2, 3)])
def test_tau_domain_is_refused_once_by_the_extrema(which, p, q):
    # tau = 0 and |tau| within the margin of tau_max reach y_extrema's refusal
    import sltwist.geometry as geo
    from sltwist.curve import Curve
    from sltwist.periods import partial_periods_quadrature
    from sltwist.variation import solve_Q

    pair = AdmissiblePair(p, q)
    call = {"partial_periods_quadrature": lambda c: partial_periods_quadrature(c.param),
            "solve_Q": solve_Q, "symmetry_residuals": geo.symmetry_residuals}[which]
    for tau, message in [(0.0, "tau = 0"), (-0.0, "tau = 0"),
                         (tau_max(pair) * (1 - 1e-11), "too close to tau_max"),
                         (-tau_max(pair), "too close to tau_max")]:
        with pytest.raises(ValueError, match=message):
            call(Curve(TwistParam(pair, tau)))
