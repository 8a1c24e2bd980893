import math

import numpy as np
import pytest

from sltwist.curve import Curve
from sltwist.periods import period_ode
from sltwist.twisted_curve import AdmissiblePair, TwistParam, tau_max
from sltwist.variation import (asymptotic_constants, check_asymptotics,
                               dpthat_dtau, dpthat_dtau_cross_check, solve_Q,
                               time_scale)

PAIRS = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


def test_wronskian_is_one_along_solution():
    for (p, q), tau in [((1, 2), 0.1), ((2, 3), 0.05), ((2, 2), 0.06)]:
        sol = solve_Q(Curve(TwistParam(AdmissiblePair(p, q), tau)))
        assert sol.wronskian_drift < 1e-8
        ts = np.linspace(-2.0 * sol.period.p_tau, 2.0 * sol.period.p_tau, 50)
        assert max(abs(sol.wronskian(t) - 1.0) for t in ts) < 1e-8


def test_companion_initial_conditions():
    pair = AdmissiblePair(2, 2)
    tau = 0.06
    sol = solve_Q(Curve(TwistParam(pair, tau)))
    expected = -1.0 / (4.0 * pair.n * math.sqrt(tau_max(pair) ** 2 - tau**2))
    assert abs(sol.Q(0.0) - expected) < 1e-12
    assert abs(sol.Qdot(0.0)) < 1e-14
    assert sol.p_star == 0.0


def test_anchor_time_for_degenerate_first_factor():
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    sol = solve_Q(Curve(param))
    assert 0.0 < sol.p_star < sol.period.p_tau
    assert abs(sol.y(sol.p_star) - 2.0 / 3.0) < 1e-10


def test_radius_combination_solves_linearised_equation():
    # q - n y has a vanishing Wronskian with itself: check it satisfies
    # the same second-order equation via finite differences of y
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    pair = param.pair
    from sltwist.twisted_curve import solve_w

    traj = solve_w(param, (0.0, 5.0))
    h = 1e-3
    for t in np.linspace(0.5, 4.5, 20):
        phi = lambda s: pair.q - pair.n * traj.y(s)
        phidd = (-phi(t + 2 * h) + 16 * phi(t + h) - 30 * phi(t)
                 + 16 * phi(t - h) - phi(t - 2 * h)) / (12 * h**2)
        y = traj.y(t)
        wdot2 = y ** (pair.q - 1) * (1.0 - y) ** (pair.p - 1)
        assert abs(phidd + 2.0 * pair.n * wdot2 * phi(t)) < 1e-7


@pytest.mark.parametrize("p,q", PAIRS)
def test_derivative_formula_matches_finite_differences(p, q):
    pair = AdmissiblePair(p, q)
    param = TwistParam(pair, 0.5 * tau_max(pair))
    res = dpthat_dtau_cross_check(Curve(param))
    assert res["rel_err"] < 1e-6


def test_cross_check_refuses_step_reaching_zero_twist():
    for tau in (1e-6, -1e-6, 5e-7):
        with pytest.raises(ValueError, match=r"h = 1e-06 .* tau = ") as info:
            dpthat_dtau_cross_check(Curve(TwistParam(AdmissiblePair(2, 3), tau)))
        assert "diverges" not in str(info.value)


def test_derivative_positive_in_monotone_window():
    assert dpthat_dtau(Curve(TwistParam(AdmissiblePair(2, 3), 0.05))) > 0.0


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3)])
@pytest.mark.parametrize("frac", [0.1, 0.9])
def test_derivative_formula_across_twist_range(p, q, frac):
    pair = AdmissiblePair(p, q)
    res = dpthat_dtau_cross_check(Curve(TwistParam(pair, frac * tau_max(pair))))
    assert res["rel_err"] < 1e-6


def test_neck_constants():
    assert asymptotic_constants(2) == 0.5
    assert abs(asymptotic_constants(3) - 0.9638) < 1e-4
    # cross-route: 4^(1/k-1) * 2 * lifetime
    from sltwist.catenoid import catenoid_lifetime

    for k in (3, 4, 5):
        expected = 4.0 ** (-1.0 + 1.0 / k) * 2.0 * catenoid_lifetime(k)
        assert abs(asymptotic_constants(k) - expected) < 1e-14


def test_time_scales():
    assert abs(time_scale(2, 1e-3) - math.log(1000.0)) < 1e-12
    assert abs(time_scale(3, 1e-3) - 1e-3 ** (-1.0 / 3.0)) < 1e-12
    with pytest.raises(ValueError):
        time_scale(3, 2.0)


def test_extrema_laws_tight_at_small_tau():
    reports = check_asymptotics(AdmissiblePair(1, 3), [1e-4], "ymin")
    assert 0.9 < reports[0].ratio < 1.1
    reports = check_asymptotics(AdmissiblePair(2, 3), [1e-2, 1e-4], "ymax_gap")
    assert abs(reports[1].ratio - 1.0) < abs(reports[0].ratio - 1.0)
    assert 0.95 < reports[1].ratio < 1.05


def test_partial_period_laws_converge():
    for (p, q) in [(2, 2), (2, 3), (3, 3)]:
        pair = AdmissiblePair(p, q)
        for law in ("pt_plus", "pt_minus"):
            r = check_asymptotics(pair, [1e-2, 1e-4], law)
            assert abs(r[1].ratio - 1.0) < abs(r[0].ratio - 1.0)
            assert 0.85 < r[1].ratio < 1.15


def test_pt_minus_rejected_for_degenerate_first_factor():
    with pytest.raises(ValueError):
        check_asymptotics(AdmissiblePair(1, 2), [1e-3], "pt_minus")


def test_total_period_law_logarithmic_pair():
    # measured: p_tau = 0.5 log(4/tau) + o(1), so against 0.5 log(1/tau)
    # the ratio exceeds 1 by log(4)/log(1/tau): 1.3013 at 1e-2, 1.1505 at 1e-4
    r = check_asymptotics(AdmissiblePair(1, 2), [1e-2, 1e-4], "pt")
    assert abs(r[0].ratio - 1.3013) < 5e-4
    assert abs(r[1].ratio - 1.1505) < 5e-4
    assert abs(r[1].ratio - 1.0) < abs(r[0].ratio - 1.0)


def test_total_period_law_symmetric_pair():
    r = check_asymptotics(AdmissiblePair(2, 2), [1e-4], "pt")
    assert 0.99 < r[0].ratio < 1.01


@pytest.mark.xfail(strict=True, reason=(
    "quoted leading-order law for the angular-period excess: the measured "
    "ratio tends to q/2 (not 1) for q > 2 and converges only "
    "logarithmically for q = 2; see decisions ledger"))
def test_angular_period_excess_law_as_stated():
    for (p, q) in PAIRS:
        r = check_asymptotics(AdmissiblePair(p, q), [1e-2, 1e-4], "pthat_excess")
        assert 0.85 < r[1].ratio < 1.15
        assert abs(r[1].ratio - 1.0) < abs(r[0].ratio - 1.0)


def test_angular_period_excess_measured_behaviour():
    # frozen measured ratios documenting the actual convergence targets
    r12 = check_asymptotics(AdmissiblePair(1, 2), [1e-2, 1e-4], "pthat_excess")
    assert abs(r12[0].ratio - 0.6665) < 5e-4
    assert abs(r12[1].ratio - 0.8113) < 5e-4
    r13 = check_asymptotics(AdmissiblePair(1, 3), [1e-4], "pthat_excess")
    assert abs(r13[0].ratio - 1.4968) < 5e-4      # tends to q/2 = 3/2
    r33 = check_asymptotics(AdmissiblePair(3, 3), [1e-4], "pthat_excess")
    assert abs(r33[0].ratio - 1.4968) < 5e-4


@pytest.mark.xfail(strict=True, reason=(
    "quoted derivative law d(pthat)/dtau ~ (4p/q) p_tau converges only "
    "logarithmically for q = 2: measured ratio 0.64 at tau = 1e-3"))
def test_derivative_leading_order_at_small_tau():
    param = TwistParam(AdmissiblePair(1, 2), 1e-3)
    data = period_ode(param)
    value = dpthat_dtau(Curve(param))
    ratio = value / (4.0 * param.pair.p / param.pair.q * data.p_tau)
    assert 0.9 < ratio < 1.1


def test_derivative_small_tau_measured():
    param = TwistParam(AdmissiblePair(1, 2), 1e-3)
    data = period_ode(param)
    ratio = dpthat_dtau(Curve(param)) / (2.0 * data.p_tau)
    assert abs(ratio - 0.638) < 5e-3      # approaches 1 from below with 1/log
