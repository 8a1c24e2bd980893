import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from sltwist.closure import (BracketingError, RationalTarget,
                             find_tau_for_angular_period,
                             half_period_classification, k0_from_target,
                             necklace, necklace_scaling_ratio, verify_closed)
from sltwist.curve import Curve
from sltwist.periods import period_ode
from sltwist.twisted_curve import AdmissiblePair, TwistParam, solve_w


def test_rational_target_validation():
    with pytest.raises(ValueError):
        RationalTarget(2, 4)
    with pytest.raises(ValueError):
        RationalTarget(-1, 3)
    assert RationalTarget(4, 7).angle == 4 * math.pi / 7


def test_rotation_order_examples():
    assert k0_from_target(AdmissiblePair(1, 2), RationalTarget(4, 7)) == 7
    assert k0_from_target(AdmissiblePair(1, 2), RationalTarget(1, 2)) == 4
    for (p, q) in [(1, 2), (2, 3), (2, 2)]:
        L = math.lcm(p, q)
        assert k0_from_target(AdmissiblePair(p, q), RationalTarget(L, 1)) == 1


@settings(max_examples=100, deadline=None)
@given(hs.integers(1, 60), hs.integers(1, 60),
       hs.sampled_from([(1, 2), (2, 3), (2, 2), (3, 3)]))
def test_rotation_order_against_brute_force(a, b, pq):
    frac = Fraction(a, b)
    target = RationalTarget(frac.numerator, frac.denominator)
    pair = AdmissiblePair(*pq)
    k0 = k0_from_target(pair, target)
    L = math.lcm(*pq)
    brute = next(k for k in range(1, 10**4 + 1)
                 if (k * frac) % L == 0)
    assert k0 == brute


def test_find_tau_realises_rational_target():
    pair = AdmissiblePair(1, 2)
    target = RationalTarget(4, 7)
    tau = find_tau_for_angular_period(pair, target)
    data = period_ode(TwistParam(pair, tau))
    assert abs(data.pthat - target.angle) <= 1e-10


def test_quarter_turn_unattainable():
    # the angular period stays strictly above pi/2 for tau > 0
    with pytest.raises(BracketingError):
        find_tau_for_angular_period(AdmissiblePair(1, 2), RationalTarget(1, 2))


def test_necklace_smallest_cases():
    pair = AdmissiblePair(1, 2)
    tau, k0 = necklace(pair, 2)
    assert k0 == 7
    data = period_ode(TwistParam(pair, tau))
    assert abs(data.pthat - 4 * math.pi / 7) <= 1e-10
    check = verify_closed(Curve(TwistParam(pair, tau)), k0, samples=20)
    assert check.closure_residual <= 1e-7
    assert check.rotation_residual <= 1e-8


def test_necklace_symmetric_pair():
    pair = AdmissiblePair(2, 2)
    tau, k0 = necklace(pair, 3)
    assert k0 == 11
    data = period_ode(TwistParam(pair, tau))
    assert abs(data.pthat - 6 * math.pi / 11) <= 1e-10


def test_necklace_four_dimensional():
    pair = AdmissiblePair(1, 3)
    tau, k0 = necklace(pair, 2)
    assert k0 == 11
    data = period_ode(TwistParam(pair, tau))
    assert abs(data.pthat - 6 * math.pi / 11) <= 1e-10


def test_necklace_rejects_asymmetric_pair():
    with pytest.raises(ValueError):
        necklace(AdmissiblePair(2, 3), 2)


def test_necklace_scaling_order_of_magnitude():
    pair = AdmissiblePair(1, 2)
    tau, _ = necklace(pair, 25)
    ratio = necklace_scaling_ratio(pair, 25, tau)
    assert 0.2 < ratio < 5.0


def test_classification_odd_order():
    report = half_period_classification(AdmissiblePair(1, 2), RationalTarget(4, 7))
    assert report.k0 == 7
    assert report.half_period_type is None
    assert report.topology == "product S^1 x S^1"
    assert "14 p_tau" in report.per_generator


def test_classification_even_order_p1():
    # (1,2): n = 3 odd, so even order gives the antipodal quotient
    report = half_period_classification(AdmissiblePair(1, 2), RationalTarget(5, 9))
    assert report.k0 == 18
    assert report.half_period_type == (0, 1)
    assert report.topology == "Z2-quotient"
    assert "(-Id)" in report.per_generator


def test_classification_even_order_p_gt_1():
    report = half_period_classification(AdmissiblePair(2, 3), RationalTarget(3, 5))
    assert report.k0 == 10
    assert report.half_period_type == (1, 0)
    assert report.topology == "Z2-quotient"


def test_classification_even_order_even_dimension():
    # (1,3): n = 4 even; even order but no strict half-periods
    report = half_period_classification(AdmissiblePair(1, 3), RationalTarget(5, 6))
    assert report.k0 % 2 == 0
    assert report.half_period_type is None
    assert report.topology.startswith("product")


@settings(max_examples=50, deadline=None)
@given(hs.integers(1, 40), hs.integers(1, 40),
       hs.sampled_from([(1, 2), (2, 3), (2, 2), (3, 3), (1, 3)]))
def test_half_period_parity_invariant(a, b, pq):
    frac = Fraction(a, b)
    target = RationalTarget(frac.numerator, frac.denominator)
    pair = AdmissiblePair(*pq)
    report = half_period_classification(pair, target)
    if report.half_period_type is not None:
        j, k = report.half_period_type
        assert (j * pair.p + k * pair.q) % 2 == 0
        assert report.k0 % 2 == 0


def test_strict_half_period_relation():
    # even order for (2,3): after k0 half-periods the curve returns up to
    # the sign flip on the first block, and fully after 2 k0
    pair = AdmissiblePair(2, 3)
    target = RationalTarget(3, 5)
    tau = find_tau_for_angular_period(pair, target)
    param = TwistParam(pair, tau)
    data = period_ode(param)
    k0 = 10
    traj = solve_w(param, (0.0, (2 * k0 + 2) * data.p_tau))
    half = max(
        max(abs(traj.w(t + k0 * data.p_tau)[0] + traj.w(t)[0]),
            abs(traj.w(t + k0 * data.p_tau)[1] - traj.w(t)[1]))
        for t in np.linspace(0.0, data.p_tau, 12))
    full = max(
        max(abs(traj.w(t + 2 * k0 * data.p_tau)[0] - traj.w(t)[0]),
            abs(traj.w(t + 2 * k0 * data.p_tau)[1] - traj.w(t)[1]))
        for t in np.linspace(0.0, data.p_tau, 12))
    assert half <= 1e-7
    assert full <= 1e-7


def test_closed_curve_injective_within_period():
    # no self-intersections inside one closed period on a fine scan
    from scipy.spatial import cKDTree

    pair = AdmissiblePair(1, 2)
    tau, k0 = necklace(pair, 2)
    param = TwistParam(pair, tau)
    data = period_ode(param)
    T = 2 * k0 * data.p_tau
    traj = solve_w(param, (0.0, T))
    ts = np.arange(0.0, T, 1e-3)
    pts = np.array([traj.state(t)[:4] for t in ts])
    tree = cKDTree(pts)
    pairs = tree.query_pairs(r=1e-6, output_type="ndarray")
    for i, j in pairs:
        dt = abs(ts[i] - ts[j])
        assert min(dt % T, T - dt % T) < 1e-2
