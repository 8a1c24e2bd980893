"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints one PASS/FAIL line (visible with pytest -s or in the
captured output).  Criterion 6 splits in two: the partial-period and
extremum laws pass as stated; the angular-period-excess law is kept at
its stated tolerance in a strict xfail because the measured ratios
converge to q/2 (not 1) for q > 2 - see the decisions ledger.
"""

import math
import time

import numpy as np
import pytest

import sltwist.geometry as geo
from sltwist.closure import (RationalTarget, find_tau_for_angular_period,
                             half_period_classification, necklace,
                             verify_closed)
from sltwist.catenoid import lifetime_routes, verify_catenoid_symmetry
from sltwist.curve import Curve
from sltwist.periods import partial_periods_quadrature, period_ode
from sltwist.twisted_curve import (AdmissiblePair, TwistParam, f_poly, solve_w,
                                   tau_max)
from sltwist.variation import (check_asymptotics, dpthat_dtau_cross_check,
                               solve_Q)

PAIRS = [(1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
FRACTIONS = [0.1, 0.5, 0.9]


def report(num, name, ok, detail=""):
    print(f"criterion {num:>2} ({name}): {'PASS' if ok else 'FAIL'}  {detail}")


@pytest.fixture(scope="module")
def case_matrix():
    """Period data and trajectories over the five pairs and three tau fractions."""
    cases = {}
    for p, q in PAIRS:
        pair = AdmissiblePair(p, q)
        for frac in FRACTIONS:
            param = TwistParam(pair, frac * tau_max(pair))
            cases[(p, q, frac)] = (param, period_ode(param))
    return cases


def test_criterion_01_conservation(case_matrix):
    t0 = time.perf_counter()
    worst = 0.0
    for (p, q, frac), (param, data) in case_matrix.items():
        traj = solve_w(param, (-10.0 * data.p_tau, 10.0 * data.p_tau))
        worst = max(worst, traj.drift["I1"], traj.drift["I2"])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, "conservation", ok, f"worst drift {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_02_energy_equation(case_matrix):
    worst = 0.0
    for (p, q, frac), (param, data) in case_matrix.items():
        traj = solve_w(param, (-10.0 * data.p_tau, 10.0 * data.p_tau))
        ts = np.linspace(-10.0 * data.p_tau, 10.0 * data.p_tau, 400)
        for t in ts:
            res = abs(traj.ydot(t) ** 2 - 4.0 * f_poly(param.pair, traj.y(t))
                      + 16.0 * param.tau**2)
            worst = max(worst, res)
    ok = worst <= 1e-8
    report(2, "energy equation", ok, f"worst residual {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_03_dual_route_periods(case_matrix):
    t0 = time.perf_counter()
    worst = 0.0
    for (p, q, frac), (param, data) in case_matrix.items():
        qp, qm = partial_periods_quadrature(param)
        worst = max(worst, abs(qp - data.p_plus), abs(qm - data.p_minus),
                    abs(qp + qm - data.p_tau))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    report(3, "dual-route periods", ok, f"worst gap {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_04_wronskian(case_matrix):
    worst = 0.0
    for (p, q, frac), (param, data) in case_matrix.items():
        sol = solve_Q(Curve(param))
        ts = np.linspace(-2.0 * data.p_tau, 2.0 * data.p_tau, 50)
        worst = max(worst, max(abs(sol.wronskian(t) - 1.0) for t in ts))
    ok = worst <= 1e-8
    report(4, "Wronskian", ok, f"worst |W-1| {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_05_derivative_formula():
    t0 = time.perf_counter()
    worst = 0.0
    for p, q in PAIRS:
        pair = AdmissiblePair(p, q)
        res = dpthat_dtau_cross_check(Curve(TwistParam(pair, 0.5 * tau_max(pair))))
        worst = max(worst, res["rel_err"])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    report(5, "exact derivative formula", ok, f"worst rel {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_criterion_06_small_tau_asymptotics():
    rows = []
    for p, q in PAIRS:
        pair = AdmissiblePair(p, q)
        laws = ["ymin", "ymax_gap"] + (["pt_plus", "pt_minus"] if p > 1 else [])
        for law in laws:
            r = check_asymptotics(pair, [1e-2, 1e-4], law)
            rows.append((p, q, law, r[0].ratio, r[1].ratio))
    bad = [(p, q, law, r4) for p, q, law, r2, r4 in rows
           if not 0.85 <= r4 <= 1.15]
    trend_bad = [(p, q, law) for p, q, law, r2, r4 in rows
                 if abs(r4 - 1.0) > abs(r2 - 1.0)]
    ok = not bad and not trend_bad
    report(6, "small-tau asymptotics", ok,
           f"{len(rows)} law/pair cells, band violations {bad}, trend {trend_bad}")
    assert not bad
    assert not trend_bad


@pytest.mark.xfail(strict=True, reason=(
    "the angular-period-excess law (pthat - pi/2) ~ (4p/q) tau p_tau fails "
    "as stated: measured ratios tend to q/2 for q > 2 (1.50 for (1,3)/(3,3), "
    "1.60 for (2,3)) and converge only logarithmically for q = 2 (0.81 for "
    "(1,2) at tau = 1e-4); integrating the derivative law reproduces these "
    "measurements, so the stated band cannot be met - see decisions ledger"))
def test_criterion_06_angular_period_excess():
    bad = []
    for p, q in PAIRS:
        pair = AdmissiblePair(p, q)
        r = check_asymptotics(pair, [1e-2, 1e-4], "pthat_excess")
        if not 0.85 <= r[1].ratio <= 1.15:
            bad.append((p, q, round(r[1].ratio, 4)))
        if abs(r[1].ratio - 1.0) > abs(r[0].ratio - 1.0):
            bad.append((p, q, "trend"))
    report(6, "angular-period excess law", not bad, f"violations {bad}")
    assert not bad


def test_criterion_07_extreme_twist_limits():
    pair = AdmissiblePair(1, 2)
    tm = tau_max(pair)
    data = period_ode(TwistParam(pair, 0.999 * tm))
    period_gap = abs(2.0 * data.p_tau - math.pi) / math.pi
    # measured angular-period limit vs the two closed-form candidates
    phat = period_ode(TwistParam(pair, 0.9995 * tm)).pthat
    cand_small = math.pi * math.sqrt(1 * 2 / (2.0 * 3))    # pi sqrt(pq/2n)
    cand_large = math.pi * math.sqrt(2.0 * 1 * 2 / 3)      # pi sqrt(2pq/n)
    matches_small = abs(phat - cand_small) < 1e-3
    apart_large = abs(phat - cand_large) > 1.5
    ok = period_gap < 0.01 and matches_small and apart_large
    report(7, "extreme-twist limits", ok,
           f"2p_tau/pi-1 = {period_gap:.2e}; limit {phat:.6f} matches "
           f"pi*sqrt(pq/2n) = {cand_small:.6f}, not pi*sqrt(2pq/n) = {cand_large:.6f}")
    assert period_gap < 0.01
    assert matches_small and apart_large


def test_criterion_08_torque():
    t0 = time.perf_counter()
    worst_diag = 0.0
    worst_off = 0.0
    worst_merid = 0.0
    for p, q in PAIRS:
        pair = AdmissiblePair(p, q)
        param = TwistParam(pair, 0.5 * tau_max(pair))
        tg = geo.t_generator(pair)
        a = geo.torque(Curve(param), tg, meridian_t=0.3)
        b = geo.torque(Curve(param), tg, meridian_t=1.1)
        worst_diag = max(worst_diag, a.abs_error)
        worst_merid = max(worst_merid, abs(a.numeric - b.numeric))
        for K in geo.su_basis(pair.n):
            if not K.diagonal().any():
                rep = geo.torque(Curve(param), K, meridian_t=0.3)
                worst_off = max(worst_off, abs(rep.numeric))
    special = geo.torque(Curve(TwistParam(AdmissiblePair(1, 2), 0.1)),
                         geo.t_generator(AdmissiblePair(1, 2)))
    special_gap = abs(special.numeric - 0.6 * math.pi)
    elapsed = time.perf_counter() - t0
    ok = (worst_diag <= 1e-8 and worst_off <= 1e-10
          and worst_merid <= 1e-8 and special_gap <= 1e-8 and elapsed < 20.0)
    report(8, "torque", ok,
           f"diag {worst_diag:.2e}, off {worst_off:.2e}, meridian {worst_merid:.2e}, "
           f"(1,2) value gap {special_gap:.2e}, {elapsed:.1f}s")
    assert worst_diag <= 1e-8
    assert worst_off <= 1e-10
    assert worst_merid <= 1e-8
    assert special_gap <= 1e-8
    assert elapsed < 20.0


def test_criterion_09_closure_and_necklaces():
    t0 = time.perf_counter()
    pair12 = AdmissiblePair(1, 2)
    curve12, k0 = necklace(pair12, 2)
    assert k0 == 7
    gap12 = abs(curve12.period.pthat - 4 * math.pi / 7)
    check12 = verify_closed(curve12, k0, samples=20)

    pair22 = AdmissiblePair(2, 2)
    results22 = []
    for m, expect_k0, num, den in ((2, 7, 4, 7), (3, 11, 6, 11)):
        curve_m, k0_m = necklace(pair22, m)
        assert k0_m == expect_k0
        gap = abs(curve_m.period.pthat - num * math.pi / den)
        chk = verify_closed(curve_m, k0_m, samples=20)
        results22.append((gap, chk.closure_residual))

    targets = [(5, 9), (6, 11), (7, 13), (8, 15), (9, 17),
               (10, 19), (11, 21), (12, 23), (13, 25), (9, 16)]
    taus = []
    worst_target_gap = 0.0
    for a, b in targets:
        tgt = RationalTarget(a, b)
        curve_t = find_tau_for_angular_period(pair12, tgt)
        taus.append(curve_t.param.tau)
        worst_target_gap = max(worst_target_gap, abs(curve_t.period.pthat - tgt.angle))
    distinct = len(set(round(t, 13) for t in taus)) == len(targets)
    elapsed = time.perf_counter() - t0

    ok = (gap12 <= 1e-10 and check12.closure_residual <= 1e-7
          and all(g <= 1e-10 and r <= 1e-7 for g, r in results22)
          and worst_target_gap <= 1e-10 and distinct and elapsed < 120.0)
    report(9, "closure/necklaces", ok,
           f"(1,2) gap {gap12:.1e} res {check12.closure_residual:.1e}; "
           f"(2,2) {results22}; ten targets gap {worst_target_gap:.1e}, "
           f"distinct {distinct}, {elapsed:.0f}s")
    assert gap12 <= 1e-10
    assert check12.closure_residual <= 1e-7
    for g, r in results22:
        assert g <= 1e-10 and r <= 1e-7
    assert worst_target_gap <= 1e-10
    assert distinct
    assert elapsed < 120.0


def test_criterion_10_symmetry_residuals(case_matrix):
    worst = 0.0
    worst_key = None
    for (p, q, frac), (param, data) in case_matrix.items():
        res = geo.symmetry_residuals(Curve(param))
        for key, val in res.items():
            if val > worst:
                worst, worst_key = val, (p, q, frac, key)
    ok = worst <= 1e-8
    report(10, "symmetry residuals", ok, f"worst {worst:.2e} at {worst_key}")
    assert worst <= 1e-8


def test_criterion_11_catenoid():
    by_quad, by_beta = lifetime_routes(3)
    route_gap = abs(by_quad - by_beta)
    location = abs(by_quad - 1.2143)
    sym = verify_catenoid_symmetry(3)
    ok = route_gap <= 1e-10 and location < 1e-4 and sym <= 1e-9
    report(11, "catenoid", ok,
           f"T1(3) = {by_quad:.6f}, route gap {route_gap:.1e}, symmetry {sym:.1e}")
    assert route_gap <= 1e-10
    assert location < 1e-4
    assert sym <= 1e-9


def test_criterion_12_neck_scaling():
    pair = AdmissiblePair(1, 2)
    c1 = geo.neck_rescale(Curve(TwistParam(pair, 1e-3)), 1, 2.0)
    c2 = geo.neck_rescale(Curve(TwistParam(pair, 2.5e-4)), 1, 2.0)
    err_ratio = c1.max_error / c2.max_error
    beta_ratio = c1.beta / c2.beta
    factor = max(err_ratio / beta_ratio, beta_ratio / err_ratio)
    ok = factor <= 2.0
    report(12, "neck scaling", ok,
           f"error ratio {err_ratio:.3f} vs beta ratio {beta_ratio:.3f} "
           f"(factor {factor:.3f})")
    assert factor <= 2.0


def test_criterion_13_half_period_parity():
    pair = AdmissiblePair(2, 3)
    target = RationalTarget(3, 5)
    rep = half_period_classification(pair, target)
    assert rep.k0 == 10 and rep.k0 % 2 == 0
    assert rep.half_period_type == (1, 0)
    curve = find_tau_for_angular_period(pair, target)
    param, data = curve.param, curve.period
    traj = solve_w(param, (0.0, (rep.k0 + 1) * data.p_tau))
    worst = 0.0
    for t in np.linspace(0.0, data.p_tau, 12):
        a1, a2 = traj.w(t)
        b1, b2 = traj.w(t + rep.k0 * data.p_tau)
        worst = max(worst, abs(b1 + a1), abs(b2 - a2))   # rho_(1,0) = (-1, +1)
    ok = worst <= 1e-7
    report(13, "half-period parity", ok,
           f"type {rep.half_period_type}, residual {worst:.2e}")
    assert worst <= 1e-7
