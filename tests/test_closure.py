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
from sltwist.ode_engine import Tolerances
from sltwist.twisted_curve import AdmissiblePair


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
    curve = find_tau_for_angular_period(pair, target, Tolerances())
    assert abs(curve.period.pthat - target.angle) <= 1e-10


def test_quarter_turn_unattainable():
    # the angular period stays strictly above pi/2 for tau > 0
    with pytest.raises(BracketingError):
        find_tau_for_angular_period(AdmissiblePair(1, 2), RationalTarget(1, 2), Tolerances())


def test_necklace_smallest_cases():
    pair = AdmissiblePair(1, 2)
    curve, k0 = necklace(pair, 2, Tolerances())
    assert k0 == 7
    assert abs(curve.period.pthat - 4 * math.pi / 7) <= 1e-10
    check = verify_closed(curve, k0, samples=20)
    assert check.closure_residual <= 1e-7
    assert check.rotation_residual <= 1e-8


def test_each_integrated_closure_try_reads_one_period(monkeypatch):
    # necklace (2,2) m = 1 (k0 = 3) refines its tau on the integrated route: each
    # curve tried is stepped only as far as its period is read, one period and a
    # step each side, and only the curve returned grows to its closing span, as
    # its closure check reads it
    import sltwist.twisted_curve as twisted_curve
    from sltwist.periods import partial_periods_quadrature

    tries, solve_w = [], twisted_curve.solve_w

    def recording(param, *args):
        tries.append((param, solve_w(param, *args)))
        return tries[-1][1]

    monkeypatch.setattr(twisted_curve, "solve_w", recording)
    curve, k0 = necklace(AdmissiblePair(2, 2), 1, Tolerances())
    verify_closed(curve, k0, 20)
    assert k0 == 3 and len(tries) == 4
    assert sum(traj is curve.trajectory for _, traj in tries) == 1
    for param, traj in tries:
        period = 2.0 * sum(partial_periods_quadrature(param)) * (1.0 + 1e-6)
        grid = traj.time_grid
        if traj is curve.trajectory:
            assert grid[-1] >= 2 * k0 * curve.period.p_tau
        else:
            assert -period <= grid[1] and grid[-2] <= period


def test_necklace_symmetric_pair():
    pair = AdmissiblePair(2, 2)
    curve, k0 = necklace(pair, 3, Tolerances())
    assert k0 == 11
    assert abs(curve.period.pthat - 6 * math.pi / 11) <= 1e-10


def test_necklace_four_dimensional():
    pair = AdmissiblePair(1, 3)
    curve, k0 = necklace(pair, 2, Tolerances())
    assert k0 == 11
    assert abs(curve.period.pthat - 6 * math.pi / 11) <= 1e-10


def test_necklace_rejects_asymmetric_pair():
    with pytest.raises(ValueError):
        necklace(AdmissiblePair(2, 3), 2, Tolerances())


def test_necklace_scaling_order_of_magnitude():
    pair = AdmissiblePair(1, 2)
    curve, _ = necklace(pair, 25, Tolerances())
    ratio = necklace_scaling_ratio(pair, 25, curve.param.tau)
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
    curve = find_tau_for_angular_period(pair, target, Tolerances())
    data, traj = curve.period, curve
    k0 = 10
    ts = np.linspace(0.0, data.p_tau, 12)
    w, w_half, w_full = (traj.w(ts + k * data.p_tau) for k in (0, k0, 2 * k0))
    half = max(np.max(np.abs(w_half[0] + w[0])), np.max(np.abs(w_half[1] - w[1])))
    full = np.max(np.abs(w_full - w))
    assert half <= 1e-7
    assert full <= 1e-7


def test_closed_curve_injective_within_period():
    # no self-intersections inside one closed period on a fine scan
    from scipy.spatial import cKDTree

    pair = AdmissiblePair(1, 2)
    curve, k0 = necklace(pair, 2, Tolerances())
    data, traj = curve.period, curve
    T = 2 * k0 * data.p_tau
    ts = np.arange(0.0, T, 1e-3)
    pts = traj.state(ts).T
    tree = cKDTree(pts)
    pairs = tree.query_pairs(r=1e-6, output_type="ndarray")
    for i, j in pairs:
        dt = abs(ts[i] - ts[j])
        assert min(dt % T, T - dt % T) < 1e-2
