import math

import numpy as np
import pytest

from sltwist.ode_engine import Tolerances
from sltwist.periods import (_branch_halves, angular_periods, branch_integral,
                             partial_periods_quadrature, period_ode, pthat_quadrature,
                             pthat_quadrature_psi2)
from sltwist.twisted_curve import AdmissiblePair, TwistParam, TwistTrajectory, _extrema, tau_max

PAIRS = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


def _curve(param):
    """The curve at the standard tolerance."""
    return TwistTrajectory(param, Tolerances())


def test_branch_halves_refuse_a_sum_that_is_not_finite():
    # a root past q/n leaves its half no length: the sum is NaN, and its tau is named
    pair = AdmissiblePair(2, 3)
    taus = [0.01, -0.02, 0.03]
    gaps = _extrema(pair, taus)
    gaps[0, 1] = 0.7
    message = r"^the branch quadrature at \|tau\|=0.02 is not finite$"
    with pytest.raises(ArithmeticError, match=message):
        _branch_halves(pair, taus, gaps, (0,))


@pytest.mark.parametrize("p,q", PAIRS)
@pytest.mark.parametrize("frac", [0.01, 0.3, 0.95])
def test_dual_route_periods_agree(p, q, frac):
    pair = AdmissiblePair(p, q)
    tau = max(frac * tau_max(pair), 1e-3)
    param = TwistParam(pair, tau)
    qp, qm = partial_periods_quadrature(param)
    data = _curve(param).period
    assert abs(qp - data.p_plus) < 1e-8
    assert abs(qm - data.p_minus) < 1e-8
    assert abs(qp + qm - data.p_tau) < 1e-8


def test_partial_period_sum_and_p1_convention():
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    data = _curve(param).period
    assert abs(data.p_tau - data.p_plus - data.p_minus) < 1e-10
    p1 = _curve(TwistParam(AdmissiblePair(1, 2), 0.1)).period
    assert p1.p_minus == 0.0


def test_equal_partial_periods_for_symmetric_pair():
    data = _curve(TwistParam(AdmissiblePair(2, 2), 0.05)).period
    assert abs(data.p_plus - data.p_minus) < 1e-9


def test_period_approaches_extreme_twist_limit():
    pair = AdmissiblePair(1, 2)
    tm = tau_max(pair)
    data = _curve(TwistParam(pair, 0.999 * tm)).period
    assert abs(2.0 * data.p_tau - math.pi) / math.pi < 0.01


def test_angular_period_extreme_twist_limit():
    # the measured limit selects pi sqrt(pq/(2n)) over pi sqrt(2pq/n)
    pair = AdmissiblePair(1, 2)
    tm = tau_max(pair)
    phat = _curve(TwistParam(pair, 0.9995 * tm)).period.pthat
    small = math.pi * math.sqrt(1.0 * 2.0 / (2.0 * 3.0))
    large = math.pi * math.sqrt(2.0 * 1.0 * 2.0 / 3.0)
    assert abs(phat - small) < 1e-3
    assert abs(phat - large) > 1.5


def test_psi_combination_vanishes_over_period():
    for (p, q), tau in [((1, 2), 0.1), ((2, 3), 0.05), ((2, 2), 0.06)]:
        data = _curve(TwistParam(AdmissiblePair(p, q), tau)).period
        assert abs(p * data.psi1_2p + q * data.psi2_2p) < 1e-9


def test_angular_period_from_both_angles():
    for (p, q), tau in [((1, 2), 0.1), ((2, 3), 0.05)]:
        param = TwistParam(AdmissiblePair(p, q), tau)
        data = _curve(param).period
        from_psi2 = -0.5 * q * data.psi2_2p
        assert abs(from_psi2 - data.pthat) < 1e-9
        assert abs(pthat_quadrature_psi2(param) - pthat_quadrature(param)) < 1e-9


def test_quadrature_and_ode_angular_period_agree():
    for (p, q), tau in [((1, 2), 0.1), ((2, 3), 0.05), ((3, 3), 0.03)]:
        param = TwistParam(AdmissiblePair(p, q), tau)
        assert abs(pthat_quadrature(param) - _curve(param).period.pthat) < 1e-8


def test_half_period_angle_doubling_p1():
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    data = _curve(param).period
    traj = TwistTrajectory(param, Tolerances())
    (psi1_half,), _ = traj.psi(np.array([data.p_tau]))
    assert abs(data.psi1_2p - 2.0 * psi1_half) < 1e-9


def test_angles_are_monotone():
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    traj = TwistTrajectory(param, Tolerances())
    ts = np.linspace(0.0, 8.0, 60)
    psi1, psi2 = traj.psi(ts)
    assert all(b >= a - 1e-12 for a, b in zip(psi1, psi1[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(psi2, psi2[1:]))


@pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 2), (2, 3)])
@pytest.mark.parametrize("tau", [1e-3, 1e-4, 1e-5, 1e-6])
def test_small_twist_angles_from_w(p, q, tau):
    # the psi2 side of the angular period read off arg w matches its
    # quadrature, and the period integration stays short at small tau
    param = TwistParam(AdmissiblePair(p, q), tau)
    curve = _curve(param)
    data = curve.period
    assert abs(-0.5 * q * data.psi2_2p - pthat_quadrature_psi2(param)) <= 1e-10
    steps = len(curve.trajectory.time_grid) - 1
    assert steps <= 1000


def test_angular_period_increasing_in_small_tau():
    for p, q in PAIRS:
        pair = AdmissiblePair(p, q)
        taus = tau_max(pair) * np.geomspace(1e-3, 0.9, 8)
        vals = [pthat_quadrature(TwistParam(pair, t)) for t in taus]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_angular_period_exceeds_quarter_turn():
    data = _curve(TwistParam(AdmissiblePair(1, 2), 0.01)).period
    assert data.pthat > math.pi / 2.0
    assert data.pthat - math.pi / 2.0 < 0.15


def test_psi_constraint_anchor_point():
    # at t = 0 (p = 1) y is maximal, so Psi = 0 and sqrt(f) = 2 tau exactly
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    traj = TwistTrajectory(param, Tolerances())
    from sltwist.twisted_curve import f_poly

    zero = np.array([0.0])
    y0 = traj.y(zero)[0]
    assert abs(math.sqrt(f_poly(param.pair, y0)) - 2.0 * param.tau) < 1e-10
    (psi1,), (psi2,) = traj.psi(zero)
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
    # y_min^(q-1)) moved by state errors of 1e-15 took pthat 1e-11 off; the
    # integrated pthat keeps its derivative too: central differences of two more
    # integrated curves at tau +/- h against the exact formula
    from sltwist.variation import dpthat_dtau

    pair = AdmissiblePair(1, q)
    for frac in (0.02, 0.05, 0.1, 0.2):
        param = TwistParam(pair, frac * tau_max(pair))
        curve = _curve(param)
        assert abs(curve.period.pthat - pthat_quadrature_psi2(param)) <= 2e-12
        h = max(1e-6, 1e-4 * param.tau)
        fd = (_curve(TwistParam(pair, param.tau + h)).period.pthat
              - _curve(TwistParam(pair, param.tau - h)).period.pthat) / (2.0 * h)
        assert abs(dpthat_dtau(curve) - fd) <= 1e-7 * abs(fd)


@pytest.mark.parametrize("scale", [1 + 1e-6, 1 + 1e-3])
def test_ode_route_does_not_follow_its_seed(scale, monkeypatch):
    # the quadrature's estimates only seed Newton on the integrated states, so
    # scaled estimates give the same p_tau and pthat; an event time may end on a
    # neighbouring float, as Newton's last step can alternate between two
    import sltwist.periods as periods

    quadrature = periods.partial_periods_quadrature
    cases = [((2, 3), 0.3), ((1, 2), 0.3), ((3, 4), 1e-3), ((1, 6), 1e-3), ((2, 2), 0.9)]
    params = [TwistParam(AdmissiblePair(p, q), frac * tau_max(AdmissiblePair(p, q)))
              for (p, q), frac in cases]
    exact = [_curve(param).period for param in params]
    monkeypatch.setattr(periods, "partial_periods_quadrature",
                        lambda param: tuple(scale * e for e in quadrature(param)))
    for param, data in zip(params, exact):
        seeded = _curve(param).period
        assert (seeded.p_tau, seeded.pthat) == (data.p_tau, data.pthat), param
        for a, b in ((seeded.p_plus, data.p_plus), (seeded.p_minus, data.p_minus)):
            assert abs(a - b) <= 4 * np.spacing(b), (param, a, b)


@pytest.mark.parametrize("p,q", [(3, 3), (3, 4), (3, 5), (4, 4)])
@pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
def test_periods_exit_zero_near_tau_max(p, q, k, capsys):
    # at (1 - 10^-k) tau_max the extrema are flat (y'' = 2 f'(y) is small) and y'
    # sits at its rounding floor there, so Newton's steps stall above the step
    # stop: the locator stops at that floor instead of running out of steps
    import json

    from sltwist.cli import main

    tau = (1.0 - 10.0 ** -k) * tau_max(AdmissiblePair(p, q))
    assert main(["periods", "--p", str(p), "--q", str(q), "--tau", repr(tau), "--json"]) == 0
    assert float(json.loads(capsys.readouterr().out)["route_gap_p_tau"]) <= 1e-8


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3)])
def test_partial_periods_are_evaluated_once_per_period_ode_and_neck(p, q):
    # the quadrature's partial periods seed the events of period_ode, whose
    # periods place the neck's waist: the memo of the route integrals evaluates
    # them once for both
    from sltwist.geometry import neck_rescale

    branch_integral.cache_clear()
    curve = _curve(TwistParam(AdmissiblePair(p, q), 1e-3))
    period_ode(curve)
    assert branch_integral.cache_info().misses == 1
    neck_rescale(curve, 1, None)
    assert branch_integral.cache_info().misses == 1


@pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (1, 6), (2, 2), (2, 3), (3, 3), (4, 4)])
def test_a_batched_quadrature_has_each_taus_bits(p, q):
    # each tau's row is summed on its own, so the scan over many taus and the
    # Brent step at one read the same number at the same tau
    pair = AdmissiblePair(p, q)
    rng = np.random.default_rng(p * 10 + q)
    taus = np.exp(rng.uniform(math.log(1e-6), math.log(0.99 * tau_max(pair)), 50))
    every = _branch_halves(pair, taus, _extrema(pair, taus), (0, 1, 2))
    times, psi1, psi2 = every.sum(axis=1)
    # a row asked for alone, or in another order, is evaluated with the same bits
    alone = _branch_halves(pair, taus, _extrema(pair, taus), (2, 0))
    assert alone.tobytes() == every[[2, 0]].tobytes()
    for i, tau in enumerate(taus):
        param = TwistParam(pair, float(tau))
        assert (2.0 * p * tau * psi1[i]).hex() == pthat_quadrature(param).hex(), tau
        assert (2.0 * q * tau * psi2[i]).hex() == pthat_quadrature_psi2(param).hex(), tau
        assert times[i].hex() == sum(partial_periods_quadrature(param)).hex(), tau
    assert angular_periods(pair, taus).tobytes() == (2.0 * p * taus * psi1).tobytes()
