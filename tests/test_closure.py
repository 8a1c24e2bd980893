import math
import re
import tracemalloc
import types
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import sltwist.closure as closure
from sltwist.cli import main
from sltwist.closure import (BracketingError, RationalTarget,
                             find_tau_for_angular_period,
                             half_period_classification, k0_from_target,
                             necklace, necklace_scaling_ratio, verify_closed)
import sltwist.ode_engine as ode_engine
from sltwist.ode_engine import Tolerances
from sltwist.twisted_curve import AdmissiblePair, TwistParam, TwistTrajectory, _w


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
    # step each side, and only the curve returned grows, to the two periods its
    # closure check reads densely: its closing window is landed on unstored
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
            assert 4 * curve.period.p_tau <= grid[-1] < 2 * k0 * curve.period.p_tau
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


def test_necklace_refuses_m_below_one(capsys):
    assert main(["necklace", "--p", "1", "--q", "2", "--m", "0"]) == 2
    assert capsys.readouterr() == ("", "error: m must be a positive integer\n")


def test_several_brackets_warn_and_the_first_is_used(monkeypatch):
    # a second sign change at the top of the scan: the target's own bracket comes first
    pair, target = AdmissiblePair(1, 2), RationalTarget(4, 7)
    scan = closure.angular_periods

    def with_a_second_crossing(pair, taus):
        vals = scan(pair, taus)
        vals[-1] = 2.0 * target.angle - vals[-2]
        return vals

    monkeypatch.setattr(closure, "angular_periods", with_a_second_crossing)
    with pytest.warns(UserWarning, match="^2 brackets found for target 4/7; using the first$"):
        curve = find_tau_for_angular_period(pair, target, Tolerances())
    assert abs(curve.period.pthat - target.angle) <= 1e-10


def test_the_integrated_refinement_grows_its_bracket(monkeypatch):
    # a quadrature slope 20x too steep makes the first bracket about the quadrature
    # root reach half way to the integrated root: it grows 4x once and brackets
    import sltwist.twisted_curve as twisted_curve

    pair, target = AdmissiblePair(2, 2), RationalTarget(2, 3)      # necklace m = 1
    quad, tried, solve_w = closure.pthat_quadrature, [], twisted_curve.solve_w
    monkeypatch.setattr(closure, "pthat_quadrature",
                        lambda param: target.angle + 20.0 * (quad(param) - target.angle))
    monkeypatch.setattr(twisted_curve, "solve_w",
                        lambda param, *args: tried.append(param.tau) or solve_w(param, *args))
    curve = find_tau_for_angular_period(pair, target, Tolerances())
    tau0, a1, b1, a2, b2 = tried[:5]
    assert a1 < tau0 < b1 and a2 < a1 and b1 < b2
    assert b2 - a2 == pytest.approx(4.0 * (b1 - a1), rel=1e-6)
    assert abs(curve.period.pthat - target.angle) <= 1e-12


def test_an_integrated_refinement_that_never_brackets_is_refused(monkeypatch):
    # integrated angular periods that never reach the target: 40 growths, then refused
    target = RationalTarget(2, 3)
    flat = types.SimpleNamespace(period=types.SimpleNamespace(pthat=target.angle + 1e-9))
    monkeypatch.setattr(closure, "TwistTrajectory", lambda param, tol: flat)
    with pytest.raises(BracketingError,
                       match="integrated-route refinement failed to bracket the target near tau="):
        find_tau_for_angular_period(AdmissiblePair(2, 2), target, Tolerances())


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


def _branchy_classification(pair, target):
    """The classification as it was written before its one-pass rule, a branch per
    case, the reference for the table below; its branch for k0 above K0_CAP, which
    reported a non-closing curve with no k0, is left out (see the test after it)."""
    from sltwist.closure import ClosureReport

    p, q, n = pair.p, pair.q, pair.n
    k0 = k0_from_target(pair, target)
    product = (f"S^1 x S^{p - 1} x S^{q - 1}" if p > 1 else f"S^1 x S^{n - 2}")
    if k0 % 2 == 1:
        return ClosureReport(k0=k0, per_generator=f"T[{2 * k0} p_tau]",
                             half_period_type=None, topology=f"product {product}")
    if p == 1:
        if n % 2 == 1:
            return ClosureReport(
                k0=k0, per_generator=f"T[{k0} p_tau] o (-Id)",
                half_period_type=(0, 1), topology="Z2-quotient")
        return ClosureReport(k0=k0, per_generator=f"T[{2 * k0} p_tau]",
                             half_period_type=None, topology=f"product {product}")
    h = math.gcd(p, q)
    jk = ((q // h) % 2, (p // h) % 2)
    if n % 2 == 1:
        return ClosureReport(
            k0=k0,
            per_generator=f"T[{k0} p_tau] o ((-1)^{jk[0]} Id, (-1)^{jk[1]} Id)",
            half_period_type=jk, topology="Z2-quotient")
    return ClosureReport(k0=k0, per_generator=f"T[{2 * k0} p_tau]",
                         half_period_type=jk, topology=f"product {product}")


def test_classification_table_equals_the_branch_per_case_rule():
    # every pair with n <= 10, every target a/b in lowest terms with b <= 40 and
    # 1/2 < a/b < 2: each field as the reference gives it
    pairs = [AdmissiblePair(p, q) for p in range(1, 6) for q in range(max(p, 2), 11 - p)]
    targets = [RationalTarget(a, b) for b in range(1, 41) for a in range(b // 2 + 1, 2 * b)
               if math.gcd(a, b) == 1]
    seen = set()
    for pair in pairs:
        for target in targets:
            got = half_period_classification(pair, target)
            assert got == _branchy_classification(pair, target), (pair, target)
            seen.add((pair.p > 1, got.k0 % 2, pair.n % 2))
    assert len(pairs) * len(targets) > 17000 and len(seen) == 8      # every branch


def test_classification_of_an_order_above_the_cap_is_finite():
    # every rational target closes: the cap bounds the search (which refuses it,
    # see test_closure_refuses_order_above_cap_before_search), not the classification
    report = half_period_classification(AdmissiblePair(1, 2), RationalTarget(550001, 1000000))
    assert report.k0 == 2000000
    assert report.half_period_type == (0, 1)
    assert report.topology == "Z2-quotient"
    assert report.per_generator == "T[2000000 p_tau] o (-Id)"


def test_necklace_targets_are_in_lowest_terms_with_order_2km_minus_1(monkeypatch):
    # k = n - 1 for p = 1 and k = p for p = q; the search is not run
    import sltwist.closure as closure

    monkeypatch.setattr(closure, "find_tau_for_angular_period",
                        lambda pair, target, tol: target)
    families = [(AdmissiblePair(1, q), q) for q in range(2, 10)]
    families += [(AdmissiblePair(p, p), p) for p in range(2, 6)]
    for pair, k in families:
        for m in range(1, 10**4 + 1):
            target, k0 = necklace(pair, m, Tolerances())
            assert (target.numerator, target.denominator, k0) == (k * m, 2 * k * m - 1,
                                                                   2 * k * m - 1)
            assert math.gcd(target.numerator, target.denominator) == 1
            assert k0_from_target(pair, target) == k0


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


@pytest.mark.parametrize("pq,ab,k0,holds", [
    ((1, 2), (5, 9), 18, (0, 1)),       # n odd: Z2-quotient
    ((2, 2), (3, 5), 10, (1, 1)),
    ((1, 3), (7, 12), 36, (1, 1)),      # p = 1, n even: -Id holds, type None
    ((1, 3), (4, 7), 21, None),         # odd k0: no sign holds
])
def test_the_half_period_type_is_the_sign_the_link_takes_after_k0_half_periods(pq, ab, k0,
                                                                                holds):
    # w(s + k0 p_tau / 2) = D w(s - k0 p_tau / 2), D = ((-1)^j Id, (-1)^k Id), read
    # for each sign pattern (j, k) at 20 times s of [-p_tau, p_tau]
    pair, target = AdmissiblePair(*pq), RationalTarget(*ab)
    report = half_period_classification(pair, target)
    curve = find_tau_for_angular_period(pair, target, Tolerances())
    p_tau = curve.period.p_tau
    s = np.linspace(-p_tau, p_tau, 20)
    w = _w(curve.trajectory.landed(np.concatenate([s + 0.5 * k0 * p_tau, s - 0.5 * k0 * p_tau])))
    gaps = {(j, k): np.max(np.abs(w[:, :20] - np.array([[(-1) ** j], [(-1) ** k]]) * w[:, 20:]))
            for j in (0, 1) for k in (0, 1)}
    assert report.k0 == k0
    assert [jk for jk, gap in gaps.items() if gap <= 1e-8] == ([holds] if holds else [])
    assert all(gap >= 0.1 for jk, gap in gaps.items() if jk != holds)
    # a sign on w1 for p = 1 is no half-period: the first factor is the point 1
    assert report.half_period_type == (holds if pq[0] > 1 or pair.n % 2 else None)


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


# -- the closure window, landed on from the curve's run continued unstored --

def _window(curve, k0, samples=20):
    """verify_closed's closure window, centred on the anchor: the samples times s
    of [-p_tau, p_tau] at s + T/2, then at s - T/2, for T = 2 k0 p_tau."""
    p_tau = curve.period.p_tau
    s = np.linspace(-p_tau, p_tau, samples)
    return np.concatenate([s + k0 * p_tau, s - k0 * p_tau])


def _fresh(curve):
    """The curve of ``curve``'s tau and tol, nothing stepped."""
    return TwistTrajectory(curve.param, curve.tol).trajectory


def _snapshot(side):
    return (side.T.tobytes(), side.Y.tobytes(), side.F.tobytes(), bytes(side.ts),
            bytes(side.ys), bytes(side.ks), side.y, side.f, side.h_abs)


def _unlanded_legs(calls):
    """The (store, start, direction, end) of each leg of ``leg_calls`` not landing
    on its time; a leg stores when it is handed buffers, and keeps nothing when
    they are None."""
    return [(c["ts"] is not None, c["t"], c["direction"], c["return"][3])
            for c in calls if not c["land"]]


def test_one_leg_is_compiled_per_state_dimension(capsys):
    # verify steps the curve (4 components) and (w, Q, Q') (6), reads endpoints
    # and lands on times; closure also continues the run unstored: one compiled
    # leg serves stored and unstored runs of a dimension alike
    ode_engine._leg.cache_clear()
    assert main(["verify", "--p", "2", "--q", "3", "--tau", "0.05"]) == 0
    assert main(["closure", "--p", "1", "--q", "2", "--target", "4/7"]) == 0
    assert ode_engine._leg.cache_info().currsize == 2     # dimensions 4 and 6


@pytest.mark.parametrize("pq,m", [((1, 2), 2), ((1, 3), 1), ((2, 2), 1)])
def test_a_landed_batch_is_a_loop_of_one_time_reads(pq, m):
    curve, k0 = necklace(AdmissiblePair(*pq), m, Tolerances())
    ts = _window(curve, k0)
    batch = curve.trajectory.landed(ts)
    assert batch.shape == (4, len(ts))
    for i, t in enumerate(ts):
        assert curve.trajectory.landed(np.array([t])).tobytes() == batch[:, i:i + 1].tobytes()


def test_landed_bits_do_not_depend_on_earlier_reads():
    # nothing read, the period read, dense reads inside the gaps between the
    # stored steps and the window, and past the window, on both sides (for p = 1
    # mirrored): the same canonical nodes, stored or continued unstored, and the
    # same bits
    for pq in ((1, 2), (2, 2)):
        curve, k0 = necklace(AdmissiblePair(*pq), 2, Tolerances())
        ts = _window(curve, k0)
        near, far = np.abs(ts).min(), np.abs(ts).max()
        want = _fresh(curve).landed(ts)
        gap, past = _fresh(curve), _fresh(curve)
        gap(np.array([-0.5 * near, 0.5 * near]))
        past(np.array([-far - 1.0, far + 1.0]))
        assert -past.time_grid[0] > far and past.time_grid[-1] > far
        assert -gap.time_grid[0] < near and gap.time_grid[-1] < near
        for traj in (curve.trajectory, gap, past):
            assert traj.landed(ts).tobytes() == want.tobytes()


def test_landed_leaves_the_side_as_it_was():
    # times inside the stored steps and past them on both sides, on the necklace
    # and on its curve with nothing stepped: no step, array, F or resume state is
    # added to either side (side -1.0 too; for p = 1 the forward side alone, read
    # for both)
    for pq, m in (((2, 2), 1), ((1, 2), 2)):
        curve, k0 = necklace(AdmissiblePair(*pq), m, Tolerances())
        p_tau = curve.period.p_tau
        near = np.array([0.1, 0.5 * p_tau, 2.0 * p_tau])
        ts = np.concatenate([near, -near, _window(curve, k0)])
        for traj in (curve.trajectory, _fresh(curve)):
            assert sorted(traj._sides) == ([1.0] if pq[0] == 1 else [-1.0, 1.0])
            before = {d: _snapshot(side) for d, side in traj._sides.items()}
            traj.landed(ts)
            assert {d: _snapshot(side) for d, side in traj._sides.items()} == before


@pytest.mark.parametrize("k0", [1, 2])
def test_a_window_inside_the_stored_steps_is_landed_from_them(k0, leg_calls):
    # the window read from stored steps has the bits of the runs continued past
    # them; with k0 = 1 verify_closed's own dense reads store its forward half
    curve = TwistTrajectory(TwistParam(AdmissiblePair(2, 3), 0.05), Tolerances())
    ts = _window(curve, k0)
    want = _fresh(curve).landed(ts)
    traj = curve.trajectory
    if k0 == 1:
        verify_closed(curve, k0, 20)
        assert ts.max() <= traj.time_grid[-1]
    traj(np.array([ts.min(), ts.max()]))
    leg_calls.clear()
    assert traj.time_grid[0] <= ts.min() and ts.max() <= traj.time_grid[-1]
    assert traj.landed(ts).tobytes() == want.tobytes()
    assert _unlanded_legs(leg_calls) == []
    ends = np.stack([traj.endpoint(t) for t in ts], axis=1)
    assert np.max(np.abs(want - ends)) <= 10 * curve.tol.tol


def test_a_window_past_the_stored_steps_continues_the_run_unstored(leg_calls):
    # each stepped side's run is continued once per call, from the side's last
    # node, through its times in order of |t| whatever their order in the call:
    # each unstored leg starts where the one before it on its side ended.  A
    # mirrored (p = 1) trajectory steps its forward side alone
    for pq in ((1, 2), (2, 2)):
        curve, k0 = necklace(AdmissiblePair(*pq), 2, Tolerances())
        traj, ts = curve.trajectory, _window(curve, k0)
        ends = {d: side.ts[-1] for d, side in traj._sides.items()}
        leg_calls.clear()
        for _ in range(2):
            traj.landed(ts[::-1])
            legs = _unlanded_legs(leg_calls)
            assert legs and all(not store for store, *_ in legs)
            assert {d for _, _, d, _ in legs} == set(ends)
            for d, end in ends.items():
                chain = [(start, reached) for _, start, way, reached in legs if way == d]
                assert chain[0][0] == end
                assert all(b[0] == a[1] for a, b in zip(chain, chain[1:]))
            leg_calls.clear()


@pytest.mark.parametrize("ts,text", [([math.nan], "time nan is not finite"),
                                     ([0.5, math.inf], "time inf is not finite"),
                                     ([-math.inf, -0.5], "time -inf is not finite"),
                                     ([[0.5, 1.0]], "not of shape (1, 2)")],
                         ids=["nan", "inf", "-inf", "2-d"])
@pytest.mark.parametrize("tau", [0.1, -0.1, 0.0])
def test_landed_refuses_times_not_finite_or_not_1d(ts, text, tau):
    # refused before anything is stepped, on a mirrored (tau != 0) and an
    # unmirrored curve
    traj = TwistTrajectory(TwistParam(AdmissiblePair(1, 2), tau), Tolerances()).trajectory
    grid = traj.time_grid.copy()
    with pytest.raises(ValueError, match=re.escape(text)):
        traj.landed(np.array(ts))
    assert np.array_equal(traj.time_grid, grid)


@pytest.mark.parametrize("pq,m", [((1, 2), 8), ((2, 2), 2)])
def test_the_centred_window_sees_a_curve_that_does_not_close(pq, m):
    # tau moved off the necklace's closing tau by delta = 1e-6 tau (1.4e-8 for
    # (1,2) m = 8, 1.9e-8 for (2,2) m = 2): w(s + T/2) - w(s - T/2) is
    # (Mhat_{2 k0 pthat} - Id) w(s - T/2), which the residual reads within a factor
    # 2 (2.26e-6 and 1.04e-6 predicted), far past the 1e-7 limit
    from sltwist.geometry.symmetry import mhat

    pair = AdmissiblePair(*pq)
    closed, k0 = necklace(pair, m, Tolerances())
    assert verify_closed(closed, k0, 20).closure_residual <= 1e-8
    curve = TwistTrajectory(TwistParam(pair, closed.param.tau * (1.0 + 1e-6)), Tolerances())
    data = curve.period
    ts = np.linspace(0.0, 2.0 * data.p_tau, 200)
    turn = mhat(pair, 2.0 * k0 * data.pthat)[:, None] - 1.0
    predicted = np.max(np.abs(turn * curve.w(ts)))
    residual = verify_closed(curve, k0, 20).closure_residual
    assert predicted / 2 <= residual <= 2 * predicted
    assert residual > 1e-7


@pytest.mark.parametrize("pq,m", [((1, 2), 4), ((1, 3), 2), ((2, 2), 3)])
def test_landed_is_the_endpoint_to_the_tolerance_on_necklaces(pq, m):
    # on both sides of the centred window: for p = 1 the backward half mirrored,
    # for p = q the backward side's own run, continued past its stored steps
    curve, k0 = necklace(AdmissiblePair(*pq), m, Tolerances())
    ts = _window(curve, k0)
    got = curve.trajectory.landed(ts)
    ends = np.stack([curve.trajectory.endpoint(t) for t in ts], axis=1)
    assert np.max(np.abs(got - ends)) <= 10 * curve.tol.tol


def test_verify_closed_runs_in_memory_independent_of_k0():
    # (1,2) m = 8 closes after k0 = 31 half-periods, about 1,400 steps, which a
    # stored run holds at about 1 kB each (1.5 MB traced): the closure window is
    # landed on from a run that stores none of them (80 kB traced).  Tracing
    # slows the steps about tenfold, so the bound is checked here, not at m = 128
    import sltwist.geometry.symmetry  # noqa: F401  (verify_closed's import, untraced)

    curve, k0 = necklace(AdmissiblePair(1, 2), 8, Tolerances())
    tracemalloc.start()
    try:
        check = verify_closed(curve, k0, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert check.closure_residual <= 1e-8
    assert peak < 5e5, peak
