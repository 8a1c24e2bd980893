import math

import numpy as np
import pytest

from sltwist import variation
from sltwist.ode_engine import Tolerances
from sltwist.periods import _branch_halves
from sltwist.twisted_curve import (AdmissiblePair, TwistParam, TwistTrajectory, _y, _ydot,
                                   tau_max, y_extrema)
from sltwist.variation import (asymptotic_constants, check_asymptotics,
                               dpthat_dtau, dpthat_dtau_cross_check, solve_Q,
                               time_scale, wronskian_drift)

PAIRS = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


def _curve(param):
    """The curve at the standard tolerance."""
    return TwistTrajectory(param, Tolerances())


def _law(pair, taus, law):
    """The rows of one law in ``check_asymptotics``'s reports, in tau order."""
    return [r for r in check_asymptotics(pair, taus) if r.law_id == law]


def _wronskian(pair, s):
    """(q - n y) Q' + n y' Q of (w, Q, Q') states."""
    return (pair.q - pair.n * _y(s)) * s[5] + pair.n * _ydot(pair, s) * s[4]


def test_wronskian_is_one_along_solution():
    for (p, q), tau in [((1, 2), 0.1), ((2, 3), 0.05), ((2, 2), 0.06)]:
        pair = AdmissiblePair(p, q)
        curve = _curve(TwistParam(pair, tau))
        lin, p_tau = curve.Q, curve.period.p_tau
        grid = np.linspace(-2.0 * p_tau, 2.0 * p_tau, 101)
        assert wronskian_drift(curve) == float(np.max(np.abs(_wronskian(pair, lin(grid)) - 1.0)))
        assert wronskian_drift(curve) < 1e-8
        ts = np.linspace(-2.0 * p_tau, 2.0 * p_tau, 50)
        assert np.max(np.abs(_wronskian(pair, lin(ts)) - 1.0)) < 1e-8


def test_companion_initial_conditions():
    # p > 1: the curve starts at y = q/n, and (Q, Q')(0) = (1/(n y'(0)), 0)
    pair = AdmissiblePair(2, 2)
    tau = 0.06
    lin = solve_Q(_curve(TwistParam(pair, tau)))
    expected = -1.0 / (4.0 * pair.n * math.sqrt(tau_max(pair) ** 2 - tau**2))
    s0 = lin(np.array([0.0]))[:, 0]
    assert abs(s0[4] - expected) < 1e-12
    assert abs(s0[5]) < 1e-14
    assert abs(_wronskian(pair, s0) - 1.0) < 1e-14


def test_anchor_time_for_degenerate_first_factor():
    # p = 1: the curve starts at y_max, where y'(0) = 0, and (Q, Q')(0) = (0, 1/(q - n y(0)))
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    curve = _curve(param)
    lin = curve.Q
    _, y_max = y_extrema(param)
    s0 = lin(np.array([0.0]))[:, 0]
    assert s0[4] == 0.0
    assert abs(s0[5] * (2.0 - 3.0 * y_max) - 1.0) < 1e-14
    assert abs(_wronskian(param.pair, s0) - 1.0) < 1e-14
    assert wronskian_drift(curve) < 1e-8


def test_radius_combination_solves_linearised_equation():
    # q - n y has a vanishing Wronskian with itself: check it satisfies
    # the same second-order equation via finite differences of y
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    pair = param.pair
    traj = TwistTrajectory(param, Tolerances())
    h = 1e-3
    t = np.linspace(0.5, 4.5, 20)

    def phi(s):
        return pair.q - pair.n * traj.y(s)

    phidd = (-phi(t + 2 * h) + 16 * phi(t + h) - 30 * phi(t)
             + 16 * phi(t - h) - phi(t - 2 * h)) / (12 * h**2)
    y = traj.y(t)
    wdot2 = y ** (pair.q - 1) * (1.0 - y) ** (pair.p - 1)
    assert np.max(np.abs(phidd + 2.0 * pair.n * wdot2 * phi(t))) < 1e-7


@pytest.mark.parametrize("p,q", PAIRS)
def test_derivative_formula_matches_finite_differences(p, q):
    pair = AdmissiblePair(p, q)
    param = TwistParam(pair, 0.5 * tau_max(pair))
    res = dpthat_dtau_cross_check(_curve(param))
    assert res["rel_err"] < 1e-6


def test_cross_check_passes_at_tiny_twist():
    # the step h = 1e-2 |tau| keeps every neighbour on the side of tau
    for tau in (1e-6, -1e-6, 5e-7):
        res = dpthat_dtau_cross_check(_curve(TwistParam(AdmissiblePair(2, 3), tau)))
        assert res["rel_err"] <= 1e-6


def _sweep(taus):
    for p, q in [(1, 2), (1, 3), (1, 6), (2, 2), (2, 3), (3, 3), (4, 4)]:
        for tau in taus:
            yield pytest.param(p, q, tau, id=f"{p}{q}-{tau}")


@pytest.mark.parametrize("p,q,tau", _sweep([1e-4, 1e-5, 1e-6, "0.9999tau_max"]))
def test_cross_check_at_small_twist_and_near_tau_max(p, q, tau, monkeypatch):
    # at both signs, and every mutation of a relative 1e-5 fails the row where it passes:
    # the formula, or every quadrature value
    pair = AdmissiblePair(p, q)
    if tau == "0.9999tau_max":
        tau = 0.9999 * tau_max(pair)
    for sign in (1.0, -1.0):
        curve = _curve(TwistParam(pair, sign * tau))
        assert dpthat_dtau_cross_check(curve)["rel_err"] <= 1e-6
        with monkeypatch.context() as m:
            m.setattr(variation, "dpthat_dtau", lambda c: (1.0 + 1e-5) * dpthat_dtau(c))
            assert dpthat_dtau_cross_check(curve)["rel_err"] > 1e-6
        with monkeypatch.context() as m:
            m.setattr(variation, "_branch_halves",
                      lambda *args: (1.0 + 1e-5) * _branch_halves(*args))
            assert dpthat_dtau_cross_check(curve)["rel_err"] > 1e-6


def test_derivative_positive_in_monotone_window():
    assert dpthat_dtau(_curve(TwistParam(AdmissiblePair(2, 3), 0.05))) > 0.0


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3)])
@pytest.mark.parametrize("frac", [0.1, 0.9])
def test_derivative_formula_across_twist_range(p, q, frac):
    pair = AdmissiblePair(p, q)
    res = dpthat_dtau_cross_check(_curve(TwistParam(pair, frac * tau_max(pair))))
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
    reports = _law(AdmissiblePair(1, 3), [1e-4], "ymin")
    assert 0.9 < reports[0].ratio < 1.1
    reports = _law(AdmissiblePair(2, 3), [1e-2, 1e-4], "ymax_gap")
    assert abs(reports[1].ratio - 1.0) < abs(reports[0].ratio - 1.0)
    assert 0.95 < reports[1].ratio < 1.05


def test_partial_period_laws_converge():
    for (p, q) in [(2, 2), (2, 3), (3, 3)]:
        pair = AdmissiblePair(p, q)
        for law in ("pt_plus", "pt_minus"):
            r = _law(pair, [1e-2, 1e-4], law)
            assert abs(r[1].ratio - 1.0) < abs(r[0].ratio - 1.0)
            assert 0.85 < r[1].ratio < 1.15


def test_laws_reported_per_tau_in_order():
    # p = 1 has no first-factor half-period, so no pt_minus row
    six = ["pt_plus", "pt_minus", "pt", "pthat_excess", "ymin", "ymax_gap"]
    assert list(variation.ASYMPTOTIC_LAWS) == six
    taus = [1e-2, 1e-3, 1e-4]
    for (p, q) in PAIRS:
        reports = check_asymptotics(AdmissiblePair(p, q), taus)
        laws = six if p > 1 else [law for law in six if law != "pt_minus"]
        assert len(reports) == len(laws) * len(taus)
        for tau in taus:
            assert [r.law_id for r in reports if r.tau == tau] == laws


def test_total_period_law_logarithmic_pair():
    # measured: p_tau = 0.5 log(4/tau) + o(1), so against 0.5 log(1/tau)
    # the ratio exceeds 1 by log(4)/log(1/tau): 1.3013 at 1e-2, 1.1505 at 1e-4
    r = _law(AdmissiblePair(1, 2), [1e-2, 1e-4], "pt")
    assert abs(r[0].ratio - 1.3013) < 5e-4
    assert abs(r[1].ratio - 1.1505) < 5e-4
    assert abs(r[1].ratio - 1.0) < abs(r[0].ratio - 1.0)


def test_total_period_law_symmetric_pair():
    r = _law(AdmissiblePair(2, 2), [1e-4], "pt")
    assert 0.99 < r[0].ratio < 1.01


@pytest.mark.xfail(strict=True, reason=(
    "quoted leading-order law for the angular-period excess: the measured "
    "ratio tends to q/2 (not 1) for q > 2 (1.5000 for (3,3), 2.0000 for (2,4) "
    "and (4,4), 3.0000 for (2,6) at tau = 1e-16) and converges only "
    "logarithmically for q = 2 ((2,2): 0.957, 0.964, 0.969 at 1e-10, 1e-12, "
    "1e-14); see decisions ledger"))
def test_angular_period_excess_law_as_stated():
    for (p, q) in PAIRS:
        r = _law(AdmissiblePair(p, q), [1e-2, 1e-4], "pthat_excess")
        assert 0.85 < r[1].ratio < 1.15
        assert abs(r[1].ratio - 1.0) < abs(r[0].ratio - 1.0)


def test_angular_period_excess_measured_behaviour():
    # frozen measured ratios documenting the actual convergence targets
    r12 = _law(AdmissiblePair(1, 2), [1e-2, 1e-4], "pthat_excess")
    assert abs(r12[0].ratio - 0.6665) < 5e-4
    assert abs(r12[1].ratio - 0.8113) < 5e-4
    r13 = _law(AdmissiblePair(1, 3), [1e-4], "pthat_excess")
    assert abs(r13[0].ratio - 1.4968) < 5e-4      # tends to q/2 = 3/2
    r33 = _law(AdmissiblePair(3, 3), [1e-4], "pthat_excess")
    assert abs(r33[0].ratio - 1.4968) < 5e-4
    # far below 1e-4, where both sides of the excess still agree
    r22 = _law(AdmissiblePair(2, 2), [1e-12], "pthat_excess")
    assert abs(r22[0].ratio - 0.9638) < 5e-4
    r27 = _law(AdmissiblePair(2, 7), [1e-30], "pthat_excess")
    assert abs(r27[0].ratio - 3.5002) < 5e-4      # tends to q/2 = 7/2


@pytest.mark.xfail(strict=True, reason=(
    "quoted derivative law d(pthat)/dtau ~ (4p/q) p_tau converges only "
    "logarithmically for q = 2: measured ratio 0.64 at tau = 1e-3"))
def test_derivative_leading_order_at_small_tau():
    param = TwistParam(AdmissiblePair(1, 2), 1e-3)
    data = _curve(param).period
    value = dpthat_dtau(_curve(param))
    ratio = value / (4.0 * param.pair.p / param.pair.q * data.p_tau)
    assert 0.9 < ratio < 1.1


def test_derivative_small_tau_measured():
    param = TwistParam(AdmissiblePair(1, 2), 1e-3)
    data = _curve(param).period
    ratio = dpthat_dtau(_curve(param)) / (2.0 * data.p_tau)
    assert abs(ratio - 0.638) < 5e-3      # approaches 1 from below with 1/log
