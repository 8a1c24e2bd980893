import math

import numpy as np
import pytest

import sltwist.geometry as geo
from sltwist.curve import Curve
from sltwist.periods import period_ode
from sltwist.twisted_curve import AdmissiblePair, TwistParam, tau_max, y_extrema


# -- sphere quadrature calibration ---------------------------------------------


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6])
def test_quadrature_volume_and_component_averages(m):
    pts, wts = geo.sphere_quadrature(m)
    vol = geo.sphere_volume(m)
    assert abs(float(wts.sum()) - vol) < 1e-12 * max(vol, 1.0)
    for i in range(m + 1):
        avg = float(np.sum(wts * pts[:, i] ** 2))
        assert abs(avg - vol / (m + 1)) < 1e-12
        quartic = float(np.sum(wts * pts[:, i] ** 4))
        assert abs(quartic - 3.0 * vol / ((m + 1) * (m + 3))) < 1e-12
    # odd moments vanish
    for i in range(m + 1):
        assert abs(float(np.sum(wts * pts[:, i]))) < 1e-12


def test_circle_nodes_are_exactly_symmetric():
    for order in (6, 8, 24):
        pts, _ = geo.sphere_quadrature(1, order)
        k = np.arange(order)
        assert np.array_equal(pts[-k % order], pts * [1.0, -1.0])
        assert np.array_equal(pts[(order // 2 - k) % order], pts * [-1.0, 1.0])
    assert np.array_equal(geo.sphere_quadrature(1, 4)[0],
                          [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


def test_polar_layer_matches_loop_reference():
    from sltwist.geometry.torque import _gegenbauer_rule

    m, order = 3, 8
    sub_pts, sub_wts = geo.sphere_quadrature(m - 1, order)
    u, wu = _gegenbauer_rule(order // 2 + 4, (m - 2) / 2.0)
    ref_pts, ref_wts = [], []
    for ui, wi in zip(u, wu):
        s = math.sqrt(max(1.0 - ui * ui, 0.0))
        for pt, w in zip(sub_pts, sub_wts):
            ref_pts.append(np.concatenate([[ui], s * pt]))
            ref_wts.append(wi * w)
    pts, wts = geo.sphere_quadrature(m, order)
    assert np.array_equal(pts, np.array(ref_pts))
    assert np.array_equal(wts, np.array(ref_wts))


def test_meridian_node_count_bounded_through_n8():
    from sltwist.geometry.torque import _meridian_nodes

    for n in range(3, 9):
        for p in range(1, n // 2 + 1):
            assert len(_meridian_nodes(p, n - p, 8)[1]) <= 3 * 10**5, (p, n - p)


def test_cached_rules_are_read_only_and_bounded():
    from sltwist.geometry.torque import _meridian_nodes

    for cached in (geo.sphere_quadrature, _meridian_nodes):
        assert cached.cache_info().maxsize is not None
    for arr in (*geo.sphere_quadrature(3), *_meridian_nodes(2, 3, 8)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    for order in range(4, 4 + 4 * geo.sphere_quadrature.cache_info().maxsize, 2):
        geo.sphere_quadrature(1, order)         # circle rules: order nodes each
    info = geo.sphere_quadrature.cache_info()
    assert info.currsize <= info.maxsize


# -- torques -------------------------------------------------------------------


def test_generator_flux_value():
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    rep = geo.torque(Curve(param), geo.t_generator(param.pair))
    assert abs(rep.numeric - 0.6 * math.pi) < 1e-8
    assert rep.abs_error < 1e-8


def test_generator_flux_closed_forms():
    p22 = TwistParam(AdmissiblePair(2, 2), 0.05)
    rep = geo.torque(Curve(p22), geo.t_generator(p22.pair))
    expected = 2 * 0.05 * (4.0 / 4.0) * (2 * math.pi) ** 2
    assert abs(rep.closed_form - expected) < 1e-14
    assert rep.abs_error < 1e-8
    p13 = TwistParam(AdmissiblePair(1, 3), 0.05)
    rep13 = geo.torque(Curve(p13), geo.t_generator(p13.pair))
    expected13 = 2 * 0.05 * (4.0 / 3.0) * geo.sphere_volume(2)
    assert abs(rep13.closed_form - expected13) < 1e-14
    assert rep13.abs_error < 1e-8


@pytest.mark.parametrize("p,q,tau", [(1, 2, 0.1), (2, 3, 0.05)])
def test_all_off_diagonal_fluxes_vanish(p, q, tau):
    param = TwistParam(AdmissiblePair(p, q), tau)
    for element in geo.su_basis(p + q):
        if element.kind == "diagonal":
            continue
        rep = geo.torque(Curve(param), element, meridian_t=0.4)
        assert abs(rep.numeric) < 1e-10, element


def test_flux_is_meridian_independent():
    param = TwistParam(AdmissiblePair(2, 2), 0.05)
    tg = geo.t_generator(param.pair)
    a = geo.torque(Curve(param), tg, meridian_t=0.3)
    b = geo.torque(Curve(param), tg, meridian_t=1.1)
    assert abs(a.numeric - b.numeric) < 1e-8


def test_flux_linear_in_twist():
    pair = AdmissiblePair(2, 3)
    tg = geo.t_generator(pair)
    f1 = geo.torque(Curve(TwistParam(pair, 0.04)), tg).numeric
    f2 = geo.torque(Curve(TwistParam(pair, 0.08)), tg).numeric
    assert abs(f2 / f1 - 2.0) < 1e-8


def test_general_diagonal_direction():
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    el = geo.diagonal_basis_element((1.0, 2.0, -0.5, -1.5, -1.0))
    rep = geo.torque(Curve(param), el, meridian_t=0.7)
    assert rep.abs_error < 1e-8
    expected = 2 * 0.05 * ((1.0 + 2.0) / 2 - (-3.0) / 3) * (2 * math.pi) * geo.sphere_volume(2)
    assert abs(rep.closed_form - expected) < 1e-12


def _flux_elements(n):
    return [geo.SuBasisElement(kind="rotation", indices=(0, n - 1)),
            geo.SuBasisElement(kind="symmetric", indices=(0, 1))]


@pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 2), (1, 4), (2, 3)])
def test_default_order_flux_matches_order_24(p, q):
    pair = AdmissiblePair(p, q)
    param = TwistParam(pair, 0.5 * tau_max(pair))
    for element in [geo.t_generator(pair)] + _flux_elements(pair.n):
        for t in (0.3, 1.1):
            low = geo.torque(Curve(param), element, meridian_t=t).numeric
            high = geo.torque(Curve(param), element, meridian_t=t, order=24).numeric
            assert abs(low - high) <= 1e-13, (element, t)


@pytest.mark.parametrize("p,q", [(1, 7), (2, 6), (3, 5), (4, 4)])
def test_torque_n8(p, q):
    pair = AdmissiblePair(p, q)
    param = TwistParam(pair, 0.5 * tau_max(pair))
    tg = geo.t_generator(pair)
    a = geo.torque(Curve(param), tg, meridian_t=0.3)
    b = geo.torque(Curve(param), tg, meridian_t=1.1)
    assert a.abs_error <= 1e-8
    assert abs(a.numeric - b.numeric) <= 1e-8
    off = geo.torque(Curve(param), _flux_elements(pair.n)[0], meridian_t=0.3)
    assert abs(off.numeric) <= 1e-10


def test_traceless_validation():
    with pytest.raises(ValueError):
        geo.diagonal_basis_element((1.0, 1.0, -1.0))


# -- symmetry relations ----------------------------------------------------------


def test_symmetry_residuals_p1():
    res = geo.symmetry_residuals(Curve(TwistParam(AdmissiblePair(1, 2), 0.1)))
    for key, val in res.items():
        assert val < 1e-8, (key, val)
    assert {"translation", "reflection", "reflection_ptau",
            "det_rotation", "omega_reflection"} <= set(res)


def test_symmetry_residuals_p_gt_1():
    res = geo.symmetry_residuals(Curve(TwistParam(AdmissiblePair(2, 3), 0.05)))
    for key, val in res.items():
        assert val < 1e-8, (key, val)
    assert {"reflection_plus", "reflection_minus"} <= set(res)


def test_symmetry_residuals_exchange():
    res = geo.symmetry_residuals(Curve(TwistParam(AdmissiblePair(2, 2), 0.06)))
    for key, val in res.items():
        assert val < 1e-8, (key, val)
    assert {"exchange", "omega_reflection"} <= set(res)


def test_rotation_determinants():
    assert geo.rotation_determinant_residual(AdmissiblePair(2, 3)) < 1e-12
    assert geo.rotation_determinant_residual(AdmissiblePair(1, 2)) < 1e-12


# -- waists, bulges, spheres ------------------------------------------------------


def test_waist_positions_p1():
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    data = period_ode(param)
    ws, bs = geo.waists_and_bulges(Curve(param), (-3 * data.p_tau, 3 * data.p_tau))
    ts = sorted(w.t for w in ws if abs(w.t) <= 3.5 * data.p_tau)
    expected = [k * data.p_tau for k in (-3, -1, 1, 3)]
    assert all(any(abs(t - e) < 1e-12 for t in ts) for e in expected)
    assert all(w.kind == 2 for w in ws)
    assert all(abs(b.t_hi - b.t_lo - 2 * data.p_tau) < 1e-12 for b in bs)


def test_waists_alternate_for_p_gt_1():
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    data = period_ode(param)
    ws, _ = geo.waists_and_bulges(Curve(param), (-2 * data.p_tau, 4 * data.p_tau))
    kinds = [w.kind for w in sorted(ws, key=lambda w: w.t)]
    assert all(a != b for a, b in zip(kinds, kinds[1:]))


def test_waist_radii_match_extrema():
    from sltwist.twisted_curve import solve_w

    param = TwistParam(AdmissiblePair(2, 2), 0.06)
    data = period_ode(param)
    y_min, y_max = y_extrema(param)
    ws, _ = geo.waists_and_bulges(Curve(param), (0.0, 2 * data.p_tau))
    traj = solve_w(param, (-2 * data.p_tau, 3 * data.p_tau))
    for w in ws:
        if -2 * data.p_tau < w.t < 3 * data.p_tau:
            y = traj.y(w.t)
            if w.kind == 2:
                assert abs(y - y_min) < 1e-9
            else:
                assert abs(y - (1.0 - y_min)) < 1e-9   # p = q symmetry


def _per_p_waists_and_bulges(curve, window):
    """waists_and_bulges as written before the closed-form waist: one branch per p.
    The reference of the test below."""
    from sltwist.geometry.spheres import Bulge, Waist

    pair, data = curve.param.pair, curve.period
    t_lo, t_hi = float(window[0]), float(window[1])
    ptau = data.p_tau
    waists, bulges = [], []
    if pair.p == 1:
        k_lo = math.floor((t_lo / ptau + 1.0) / 2.0) - 1
        k_hi = math.ceil((t_hi / ptau + 1.0) / 2.0) + 1
        for k in range(k_lo, k_hi + 1):
            t = (2 * k - 1) * ptau
            if t_lo - 2 * ptau <= t <= t_hi + 2 * ptau:
                waists.append(Waist(index=k, t=t, kind=2))
        for k in range(k_lo, k_hi):
            lo, hi = (2 * k - 1) * ptau, (2 * k + 1) * ptau
            if hi >= t_lo and lo <= t_hi:
                bulges.append(Bulge(index=k, t_lo=lo, t_hi=hi))
    else:
        l_lo = math.floor(t_lo / (2 * ptau)) - 1
        l_hi = math.ceil(t_hi / (2 * ptau)) + 1
        for l in range(l_lo, l_hi + 1):
            t1 = 2 * l * ptau - data.p_minus
            t2 = 2 * l * ptau + data.p_plus
            if t_lo - 2 * ptau <= t1 <= t_hi + 2 * ptau:
                waists.append(Waist(index=2 * l, t=t1, kind=1))
            if t_lo - 2 * ptau <= t2 <= t_hi + 2 * ptau:
                waists.append(Waist(index=2 * l + 1, t=t2, kind=2))
        waists.sort(key=lambda w: w.t)
        for a, b in zip(waists, waists[1:]):
            if b.t >= t_lo and a.t <= t_hi:
                bulges.append(Bulge(index=a.index, t_lo=a.t, t_hi=b.t))
    return waists, bulges


def test_closed_form_waists_equal_the_per_p_enumeration():
    # 7 pairs x 45 offsets x 13 lengths = 4095 windows, with edges on
    # multiples of p_tau / 2, where waists sit exactly 2 p_tau outside them
    windows = 0
    for p, q in [(1, 2), (1, 3), (1, 6), (2, 2), (2, 3), (3, 3), (3, 4)]:
        pair = AdmissiblePair(p, q)
        curve = Curve(TwistParam(pair, 0.3 * tau_max(pair)))
        ptau = curve.period.p_tau
        for offset in np.arange(-11.0, 11.25, 0.5):
            for length in np.arange(0.0, 6.25, 0.5):
                window = (offset * ptau, (offset + length) * ptau)
                assert geo.waists_and_bulges(curve, window) == \
                    _per_p_waists_and_bulges(curve, window), (p, q, window)
                windows += 1
    assert windows >= 4000


def test_standard_sphere_is_identity_frame():
    param = TwistParam(AdmissiblePair(1, 2), 0.01)
    sph = geo.approximating_spheres(Curve(param), [0])[0]
    assert np.allclose(sph.frame, np.eye(6), atol=0)
    assert len(sph.marked_set["points"]) == 2


def test_bulge_distance_linear_in_twist():
    pair = AdmissiblePair(1, 2)
    d3 = geo.bulge_sphere_distance(Curve(TwistParam(pair, 1e-3)), 0, 2.0)
    d4 = geo.bulge_sphere_distance(Curve(TwistParam(pair, 1e-4)), 0, 2.0)
    c3, c4 = d3 / 1e-3, d4 / 1e-4
    assert d3 < 10 * 1e-3
    assert 0.5 < c3 / c4 < 2.0          # stable constant over a tau decade


def test_next_sphere_frame_limit():
    pair = AdmissiblePair(1, 2)
    param = TwistParam(pair, 1e-4)
    data = period_ode(param)
    sph = geo.approximating_spheres(Curve(param), [1])[0]
    U = np.diag([-1.0 + 0j, np.exp(-1j * math.pi / 2), np.exp(-1j * math.pi / 2)])
    A, B = U.real, U.imag
    frame_limit = np.block([[A, -B], [B, A]])
    assert float(np.max(np.abs(sph.frame - frame_limit))) < 5e-3


def test_orthogonal_frames():
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    for sph in geo.approximating_spheres(Curve(param), range(-2, 3)):
        assert np.allclose(sph.frame @ sph.frame.T, np.eye(10), atol=1e-12)
