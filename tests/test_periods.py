import math

import numpy as np
import pytest

from sltwist.curve import Curve
from sltwist.periods import (partial_periods_quadrature, period_ode,
                             pthat_quadrature, pthat_quadrature_psi2)
from sltwist.twisted_curve import AdmissiblePair, TwistParam, solve_w, tau_max

PAIRS = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


@pytest.mark.parametrize("p,q", PAIRS)
@pytest.mark.parametrize("frac", [0.01, 0.3, 0.95])
def test_dual_route_periods_agree(p, q, frac):
    pair = AdmissiblePair(p, q)
    tau = max(frac * tau_max(pair), 1e-3)
    param = TwistParam(pair, tau)
    qp, qm = partial_periods_quadrature(param)
    data = period_ode(param)
    assert abs(qp - data.p_plus) < 1e-8
    assert abs(qm - data.p_minus) < 1e-8
    assert abs(qp + qm - data.p_tau) < 1e-8


def test_partial_period_sum_and_p1_convention():
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    data = period_ode(param)
    assert abs(data.p_tau - data.p_plus - data.p_minus) < 1e-10
    p1 = period_ode(TwistParam(AdmissiblePair(1, 2), 0.1))
    assert p1.p_minus == 0.0


def test_equal_partial_periods_for_symmetric_pair():
    data = period_ode(TwistParam(AdmissiblePair(2, 2), 0.05))
    assert abs(data.p_plus - data.p_minus) < 1e-9


def test_period_approaches_extreme_twist_limit():
    pair = AdmissiblePair(1, 2)
    tm = tau_max(pair)
    data = period_ode(TwistParam(pair, 0.999 * tm))
    assert abs(2.0 * data.p_tau - math.pi) / math.pi < 0.01


def test_angular_period_extreme_twist_limit():
    # the measured limit selects pi sqrt(pq/(2n)) over pi sqrt(2pq/n)
    pair = AdmissiblePair(1, 2)
    tm = tau_max(pair)
    phat = period_ode(TwistParam(pair, 0.9995 * tm)).pthat
    small = math.pi * math.sqrt(1.0 * 2.0 / (2.0 * 3.0))
    large = math.pi * math.sqrt(2.0 * 1.0 * 2.0 / 3.0)
    assert abs(phat - small) < 1e-3
    assert abs(phat - large) > 1.5


def test_psi_combination_vanishes_over_period():
    for (p, q), tau in [((1, 2), 0.1), ((2, 3), 0.05), ((2, 2), 0.06)]:
        data = period_ode(TwistParam(AdmissiblePair(p, q), tau))
        assert abs(p * data.psi1_2p + q * data.psi2_2p) < 1e-9


def test_angular_period_from_both_angles():
    for (p, q), tau in [((1, 2), 0.1), ((2, 3), 0.05)]:
        param = TwistParam(AdmissiblePair(p, q), tau)
        data = period_ode(param)
        from_psi2 = -0.5 * q * data.psi2_2p
        assert abs(from_psi2 - data.pthat) < 1e-9
        assert abs(pthat_quadrature_psi2(param) - pthat_quadrature(param)) < 1e-9


def test_quadrature_and_ode_angular_period_agree():
    for (p, q), tau in [((1, 2), 0.1), ((2, 3), 0.05), ((3, 3), 0.03)]:
        param = TwistParam(AdmissiblePair(p, q), tau)
        assert abs(pthat_quadrature(param) - period_ode(param).pthat) < 1e-8


def test_half_period_angle_doubling_p1():
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    data = period_ode(param)
    traj = solve_w(param, (0.0, 2.0 * data.p_tau))
    psi1_half, _ = traj.psi(data.p_tau)
    assert abs(data.psi1_2p - 2.0 * psi1_half) < 1e-9


def test_angles_are_monotone():
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    traj = solve_w(param, (0.0, 8.0))
    ts = np.linspace(0.0, 8.0, 60)
    psi1 = [traj.psi(t)[0] for t in ts]
    psi2 = [traj.psi(t)[1] for t in ts]
    assert all(b >= a - 1e-12 for a, b in zip(psi1, psi1[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(psi2, psi2[1:]))


@pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 2), (2, 3)])
@pytest.mark.parametrize("tau", [1e-3, 1e-4, 1e-5, 1e-6])
def test_small_twist_angles_from_w(p, q, tau):
    # the psi2 side of the angular period read off arg w matches its
    # quadrature, and the period integration stays short at small tau
    param = TwistParam(AdmissiblePair(p, q), tau)
    curve = Curve(param)
    data = curve.period
    assert abs(-0.5 * q * data.psi2_2p - pthat_quadrature_psi2(param)) <= 1e-10
    steps = len(curve.traj(0.0, 0.0).trajectory.time_grid) - 1
    assert steps <= 1000


def test_angular_period_increasing_in_small_tau():
    for p, q in PAIRS:
        pair = AdmissiblePair(p, q)
        taus = tau_max(pair) * np.geomspace(1e-3, 0.9, 8)
        vals = [pthat_quadrature(TwistParam(pair, t)) for t in taus]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_angular_period_exceeds_quarter_turn():
    data = period_ode(TwistParam(AdmissiblePair(1, 2), 0.01))
    assert data.pthat > math.pi / 2.0
    assert data.pthat - math.pi / 2.0 < 0.15


def test_psi_constraint_anchor_point():
    # at t = 0 (p = 1) y is maximal, so Psi = 0 and sqrt(f) = 2 tau exactly
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    traj = solve_w(param, (0.0, 0.5))
    from sltwist.twisted_curve import f_poly

    y0 = traj.y(0.0)
    assert abs(math.sqrt(f_poly(param.pair, y0)) - 2.0 * param.tau) < 1e-10
    psi1, psi2 = traj.psi(0.0)
    assert psi1 == 0.0 and psi2 == 0.0


def test_degenerate_tau_rejected():
    pair = AdmissiblePair(1, 2)
    with pytest.raises(ValueError):
        partial_periods_quadrature(TwistParam(pair, 0.0))
    with pytest.raises(ValueError):
        partial_periods_quadrature(TwistParam(pair, tau_max(pair)))


@pytest.mark.parametrize("q", [2, 3, 5, 6])
def test_p1_period_event_at_the_maximum_keeps_pthat_digits(q):
    # p = 1 reads psi1 at 2 p_tau, a maximum of y where psi1' ~ 1/(2 tau); the
    # event there is well conditioned, while the minimum at p_tau (y'' ~ 2q
    # y_min^(q-1)) moved by state errors of 1e-15 took pthat 1e-11 off
    from sltwist.ode_engine import Tolerances
    from sltwist.variation import dpthat_dtau_cross_check

    pair = AdmissiblePair(1, q)
    for frac in (0.02, 0.05, 0.1, 0.2):
        param = TwistParam(pair, frac * tau_max(pair))
        assert abs(period_ode(param).pthat - pthat_quadrature_psi2(param)) <= 2e-12
        assert dpthat_dtau_cross_check(Curve(param, Tolerances()))["rel_err"] <= 1e-7
