import importlib
import itertools
import math

import numpy as np
import pytest

import sltwist.geometry as geo
from sltwist.ode_engine import Tolerances
from sltwist.twisted_curve import AdmissiblePair, TwistParam, TwistTrajectory, tau_max, y_extrema

_TORQUE = importlib.import_module("sltwist.geometry.torque")    # geo.torque is the function


def _curve(param):
    """The curve at the standard tolerance."""
    return TwistTrajectory(param, Tolerances())


# -- sphere quadrature calibration ---------------------------------------------


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6])
def test_quadrature_volume_and_component_averages(m):
    pts, wts = geo.sphere_quadrature(m, 8)
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
    from sltwist.geometry.torque import _gegenbauer_rule, _layer_nodes

    m, order = 3, 8
    sub_pts, sub_wts = geo.sphere_quadrature(m - 1, order)
    u, wu = _gegenbauer_rule(_layer_nodes(order), (m - 2) / 2.0)
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
    for n in range(3, 9):
        for p in range(1, n // 2 + 1):
            # 256: the n = 8 count of (2,6), (3,5) and (4,4)
            assert len(_TORQUE._meridian_nodes(p, n - p, _TORQUE._ORDER)[1]) <= 256, (p, n - p)


def _sphere_moment(alpha):
    """Closed-form integral over S^m of prod x_i^alpha_i, m + 1 = len(alpha)."""
    if any(a % 2 for a in alpha):
        return 0.0
    b = [(a + 1) / 2.0 for a in alpha]
    return 2.0 * math.prod(math.gamma(x) for x in b) / math.gamma(sum(b))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("order", [3, 4, 5, 6, 8])
def test_rule_has_ceil_half_order_nodes_per_layer_and_its_degree(m, order):
    # a k-node Gauss layer is exact through degree 2k - 1, so ceil(order / 2)
    # nodes keep every degree below order; order // 2 fails at odd orders
    pts, wts = geo.sphere_quadrature(m, order)
    if m >= 2:
        assert len(wts) == order * ((order + 1) // 2) ** (m - 1)
    powers = pts ** np.arange(order)[:, None, None]        # powers[k] = pts ** k
    for degree in range(order):
        for factors in itertools.combinations_with_replacement(range(m + 1), degree):
            alpha = np.bincount(factors, minlength=m + 1)
            value = float(wts @ np.prod(powers[alpha, :, np.arange(m + 1)], axis=0))
            assert abs(value - _sphere_moment(alpha)) <= 1e-12, alpha


def test_cached_rules_are_read_only_and_bounded():
    from sltwist.geometry.torque import _meridian_nodes

    for cached in (geo.sphere_quadrature, _meridian_nodes):
        assert cached.cache_info().maxsize is not None
    for arr in (*geo.sphere_quadrature(3, 8), *_meridian_nodes(2, 3, 8)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    for order in range(4, 4 + 4 * geo.sphere_quadrature.cache_info().maxsize, 2):
        geo.sphere_quadrature(1, order)         # circle rules: order nodes each
    info = geo.sphere_quadrature.cache_info()
    assert info.currsize <= info.maxsize


# -- torques -------------------------------------------------------------------


def test_generator_flux_value():
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    (rep,) = geo.torque(_curve(param), [geo.t_generator(param.pair)])
    assert abs(rep.numeric - 0.6 * math.pi) < 1e-8
    assert rep.abs_error < 1e-8


def test_generator_flux_closed_forms():
    p22 = TwistParam(AdmissiblePair(2, 2), 0.05)
    (rep,) = geo.torque(_curve(p22), [geo.t_generator(p22.pair)])
    expected = 2 * 0.05 * (4.0 / 4.0) * (2 * math.pi) ** 2
    assert abs(rep.closed_form - expected) < 1e-14
    assert rep.abs_error < 1e-8
    p13 = TwistParam(AdmissiblePair(1, 3), 0.05)
    (rep13,) = geo.torque(_curve(p13), [geo.t_generator(p13.pair)])
    expected13 = 2 * 0.05 * (4.0 / 3.0) * geo.sphere_volume(2)
    assert abs(rep13.closed_form - expected13) < 1e-14
    assert rep13.abs_error < 1e-8


@pytest.mark.parametrize("p,q,tau", [(1, 2, 0.1), (2, 3, 0.05)])
def test_all_off_diagonal_fluxes_vanish(p, q, tau):
    param = TwistParam(AdmissiblePair(p, q), tau)
    curve = _curve(param)
    for K in geo.su_basis(p + q):
        if K.diagonal().any():
            continue
        (rep,) = geo.torque(curve, [K], meridian_t=0.4)
        assert abs(rep.numeric) < 1e-10, K
        assert rep.closed_form == 0.0


def test_flux_is_meridian_independent():
    param = TwistParam(AdmissiblePair(2, 2), 0.05)
    tg = geo.t_generator(param.pair)
    curve = _curve(param)
    (a,) = geo.torque(curve, [tg], meridian_t=0.3)
    (b,) = geo.torque(curve, [tg], meridian_t=1.1)
    assert abs(a.numeric - b.numeric) < 1e-8


def test_flux_linear_in_twist():
    pair = AdmissiblePair(2, 3)
    tg = geo.t_generator(pair)
    f1, f2 = (geo.torque(_curve(TwistParam(pair, tau)), [tg])[0].numeric
              for tau in (0.04, 0.08))
    assert abs(f2 / f1 - 2.0) < 1e-8


def test_general_diagonal_direction():
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    K = np.diag(1j * np.array((1.0, 2.0, -0.5, -1.5, -1.0)))
    (rep,) = geo.torque(_curve(param), [K], meridian_t=0.7)
    assert rep.abs_error < 1e-8
    expected = 2 * 0.05 * ((1.0 + 2.0) / 2 - (-3.0) / 3) * (2 * math.pi) * geo.sphere_volume(2)
    assert abs(rep.closed_form - expected) < 1e-12


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (3, 3)])
def test_general_direction_matches_closed_form(p, q):
    # a random real combination of the whole basis: diagonal and off-diagonal at once
    n = p + q
    param = TwistParam(AdmissiblePair(p, q), 0.5 * tau_max(AdmissiblePair(p, q)))
    coeffs = np.random.default_rng(n).standard_normal(n * n - 1)
    K = sum(c * B for c, B in zip(coeffs, geo.su_basis(n)))
    (rep,) = geo.torque(_curve(param), [K], meridian_t=0.4)
    assert rep.abs_error <= 1e-8
    assert rep.closed_form != 0.0


def _flux_elements(n):
    S = np.zeros((n, n), dtype=complex)
    S[0, 1] = S[1, 0] = 1j
    return [geo.rotation_generator(n, 0, n - 1), S]


@pytest.mark.parametrize("p,q", [(p, n - p) for n in range(3, 7) for p in range(1, n // 2 + 1)])
def test_default_order_flux_matches_order_24(p, q, monkeypatch):
    pair = AdmissiblePair(p, q)
    param = TwistParam(pair, 0.5 * tau_max(pair))
    curve = _curve(param)
    elements = [geo.t_generator(pair)] + _flux_elements(pair.n)
    for t in (0.3, 1.1):        # one meridian per (t, order) for every element
        low = geo.torque(curve, elements, meridian_t=t)
        with monkeypatch.context() as m:
            m.setattr(_TORQUE, "_ORDER", 24)
            high = geo.torque(curve, elements, meridian_t=t)
        for element, a, b in zip(elements, low, high, strict=True):
            assert abs(a.numeric - b.numeric) <= 1e-13, (element, t)


def _four_directions(pair):
    """The t-generator, R_{0,n-1}, i S_01 and a random combination of su_basis(n)."""
    n = pair.n
    coeffs = np.random.default_rng(n).standard_normal(n * n - 1)
    return [geo.t_generator(pair), *_flux_elements(n),
            sum(c * B for c, B in zip(coeffs, geo.su_basis(n)))]


@pytest.mark.parametrize("p,q", [(p, n - p) for n in (6, 7, 8) for p in range(1, n // 2 + 1)])
def test_default_order_flux_matches_order_8(p, q, monkeypatch):
    # order 24 stops at n = 6, where a meridian has up to 82,944 nodes (S^m has
    # 24 * 12^(m - 1)); at n = 7 it would have up to 995,328, so n = 6 to 8 check
    # against order 8, twice the default
    pair = AdmissiblePair(p, q)
    for sign in (1.0, -1.0):
        curve = _curve(TwistParam(pair, sign * 0.5 * tau_max(pair)))
        directions = _four_directions(pair)
        low = geo.torque(curve, directions, meridian_t=0.3)
        with monkeypatch.context() as m:
            m.setattr(_TORQUE, "_ORDER", 8)
            high = geo.torque(curve, directions, meridian_t=0.3)
        for K, a, b in zip(directions, low, high, strict=True):
            assert abs(a.numeric - b.numeric) <= 1e-13, (sign, K)


@pytest.mark.parametrize("p,q", [(p, n - p) for n in range(3, 9) for p in range(1, n // 2 + 1)])
def test_default_order_off_diagonal_flux_is_exactly_zero(p, q):
    pair = AdmissiblePair(p, q)
    K = geo.rotation_generator(pair.n, 0, pair.n - 1)       # verify's off-diagonal row
    for sign in (1.0, -1.0):
        curve = _curve(TwistParam(pair, sign * 0.5 * tau_max(pair)))
        for t in (0.3, 1.1):
            assert geo.torque(curve, [K], meridian_t=t)[0].numeric == 0.0, (sign, t)


@pytest.mark.parametrize("p,q", [(1, 7), (2, 6), (3, 5), (4, 4)])
def test_torque_n8(p, q):
    pair = AdmissiblePair(p, q)
    param = TwistParam(pair, 0.5 * tau_max(pair))
    tg = geo.t_generator(pair)
    curve = _curve(param)
    (a,) = geo.torque(curve, [tg], meridian_t=0.3)
    (b,) = geo.torque(curve, [tg], meridian_t=1.1)
    assert a.abs_error <= 1e-8
    assert abs(a.numeric - b.numeric) <= 1e-8
    (off,) = geo.torque(curve, _flux_elements(pair.n)[:1], meridian_t=0.3)
    assert abs(off.numeric) <= 1e-10


@pytest.mark.parametrize("p,q,tau", [(1, 2, -0.027), (2, 3, -0.036), (2, 2, 0.05), (3, 4, 0.01)])
def test_flux_does_not_depend_on_where_the_span_ends(p, q, tau):
    # the meridian state is an integrated endpoint, the same wherever the curve's
    # extent ends when it is read; the dense output inside a step was 1e-13 to
    # 1e-12 off it
    param = TwistParam(AdmissiblePair(p, q), tau)
    K = geo.t_generator(param.pair)

    def flux(extent):
        curve = _curve(param)
        curve.w(np.array(extent))               # integrated to the extent first
        return geo.torque(curve, [K], meridian_t=0.3)[0].numeric

    assert len({flux(extent) for extent in ((0.0, 0.3), (0.0, 1.1), (-2.0, 5.0))}) == 1


def test_traceless_validation():
    curve = _curve(TwistParam(AdmissiblePair(1, 2), 0.1))
    with pytest.raises(ValueError, match="traceless"):
        geo.torque(curve, [1j * np.diag([1.0, 1.0, -1.0])])


def test_torque_refuses_wrong_shape_and_non_anti_hermitian():
    curve = _curve(TwistParam(AdmissiblePair(1, 2), 0.1))
    with pytest.raises(ValueError, match="3 x 3"):
        geo.torque(curve, [geo.t_generator(AdmissiblePair(2, 2))])
    with pytest.raises(ValueError, match="anti-Hermitian"):
        geo.torque(curve, [-1j * geo.rotation_generator(3, 0, 2)])     # Hermitian
    with pytest.raises(ValueError, match="anti-Hermitian"):
        geo.torque(curve, [np.diag([1.0, 0.0, -1.0])])                # real diagonal
    with pytest.raises(ValueError, match="stack"):                   # one direction, unstacked
        geo.torque(curve, geo.t_generator(AdmissiblePair(1, 2)))


def test_rotation_generator_refuses_equal_or_out_of_range_indices():
    # R_11 would be -E_11, not in su(3); j = -1 would wrap round to R_02
    for i, j in [(1, 1), (0, -1), (-1, 2), (0, 3), (3, 0)]:
        with pytest.raises(ValueError, match="R_ij"):
            geo.rotation_generator(3, i, j)
    for i, j in [(0, 1), (2, 0), (1, 2)]:
        K = geo.rotation_generator(3, i, j)
        assert np.array_equal(K, -K.conj().T) and K.trace() == 0


# -- symmetry relations ----------------------------------------------------------


def test_symmetry_residuals_p1():
    res = geo.symmetry_residuals(_curve(TwistParam(AdmissiblePair(1, 2), 0.1)))
    for key, val in res.items():
        assert val < 1e-8, (key, val)
        assert type(val) is float, key      # a numpy float64 gives verify a numpy bool
    assert {"translation", "reflection", "reflection_ptau",
            "det_rotation", "omega_reflection"} <= set(res)


def test_p1_reflection_row_fails_a_mirror_that_is_not_the_reflection(monkeypatch, capsys):
    # the backward half of a p = 1 curve is the forward half mirrored by
    # twisted_curve._REVERSAL, so verify's reflection row compares that sign
    # vector with reflection_phases' D = (-1, 1): a mirror that still fixes the
    # initial state but leaves Im w2 unflipped fails it
    import json

    import sltwist.twisted_curve as twisted_curve
    from sltwist.cli import main

    def reflection_row():
        main(["verify", "--p", "1", "--q", "3", "--tau", "0.013", "--json"])
        return json.loads(capsys.readouterr().out)["checks"]["symmetry reflection"]

    assert reflection_row()["pass"]
    monkeypatch.setattr(twisted_curve, "_REVERSAL", (-1.0, 1.0, 1.0, 1.0))
    row = reflection_row()
    assert not row["pass"] and float(row["value"]) > 0.1


def test_symmetry_residuals_p_gt_1():
    res = geo.symmetry_residuals(_curve(TwistParam(AdmissiblePair(2, 3), 0.05)))
    for key, val in res.items():
        assert val < 1e-8, (key, val)
        assert type(val) is float, key      # a numpy float64 gives verify a numpy bool
    assert {"reflection_plus", "reflection_minus"} <= set(res)


def test_symmetry_residuals_exchange():
    res = geo.symmetry_residuals(_curve(TwistParam(AdmissiblePair(2, 2), 0.06)))
    for key, val in res.items():
        assert val < 1e-8, (key, val)
        assert type(val) is float, key      # a numpy float64 gives verify a numpy bool
    assert {"exchange", "omega_reflection"} <= set(res)


def test_rotation_determinants():
    assert geo.rotation_determinant_residual(AdmissiblePair(2, 3)) < 1e-12
    assert geo.rotation_determinant_residual(AdmissiblePair(1, 2)) < 1e-12


@pytest.mark.parametrize("p,q", [(1, 2), (2, 5), (3, 4), (4, 4)])
def test_omega_residual_is_the_reflection_determinant_error(p, q):
    # a reflection with det D = -e^{i eps}: the residual is |det D + 1| = 2 sin(eps/2),
    # whatever the volume of the random frames, and fails verify's 1e-8
    from sltwist.geometry.symmetry import _omega_residual

    eps = 1e-6
    d = np.array([np.exp(1j * (math.pi + eps) / p), 1.0])
    res = _omega_residual(AdmissiblePair(p, q), d)
    assert abs(res - eps) <= 0.01 * eps
    assert res > 1e-8


def test_reflection_phases_refuse_an_unknown_side():
    for p, q in [(1, 2), (2, 3)]:
        curve = _curve(TwistParam(AdmissiblePair(p, q), 0.05))
        assert geo.reflection_phases(curve, "+").shape == (2,)
        for side in ["plus", "", "+-", "-1"]:
            with pytest.raises(ValueError, match="side"):
                geo.reflection_phases(curve, side)


# -- waists, bulges, spheres ------------------------------------------------------


def test_waist_positions_p1():
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    data = _curve(param).period
    ws, bs = geo.waists_and_bulges(_curve(param), (-3 * data.p_tau, 3 * data.p_tau))
    ts = sorted(w.t for w in ws if abs(w.t) <= 3.5 * data.p_tau)
    expected = [k * data.p_tau for k in (-3, -1, 1, 3)]
    assert all(any(abs(t - e) < 1e-12 for t in ts) for e in expected)
    assert all(w.kind == 2 for w in ws)
    assert all(abs(b.t_hi - b.t_lo - 2 * data.p_tau) < 1e-12 for b in bs)


def test_waists_alternate_for_p_gt_1():
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    data = _curve(param).period
    ws, _ = geo.waists_and_bulges(_curve(param), (-2 * data.p_tau, 4 * data.p_tau))
    kinds = [w.kind for w in sorted(ws, key=lambda w: w.t)]
    assert all(a != b for a, b in zip(kinds, kinds[1:]))


def test_waist_radii_match_extrema():
    param = TwistParam(AdmissiblePair(2, 2), 0.06)
    data = _curve(param).period
    y_min, y_max = y_extrema(param)
    ws, _ = geo.waists_and_bulges(_curve(param), (0.0, 2 * data.p_tau))
    traj = TwistTrajectory(param, Tolerances())
    for w in ws:
        if -2 * data.p_tau < w.t < 3 * data.p_tau:
            (y,) = traj.y(np.array([w.t]))
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
        curve = _curve(TwistParam(pair, 0.3 * tau_max(pair)))
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
    sph = geo.approximating_spheres(_curve(param), [0])[0]
    assert np.array_equal(sph.phases, np.ones(3))
    assert len(sph.marked_set["points"]) == 2


def test_bulge_distance_linear_in_twist():
    pair = AdmissiblePair(1, 2)
    d3 = geo.bulge_sphere_distance(_curve(TwistParam(pair, 1e-3)), 0, 2.0)
    d4 = geo.bulge_sphere_distance(_curve(TwistParam(pair, 1e-4)), 0, 2.0)
    c3, c4 = d3 / 1e-3, d4 / 1e-4
    assert d3 < 10 * 1e-3
    assert 0.5 < c3 / c4 < 2.0          # stable constant over a tau decade


@pytest.mark.parametrize("p,q", [(2, 3), (2, 2)])
def test_bulge_distance_linear_in_twist_for_both_kinds_of_bulge(p, q):
    # odd bulges are positioned through the reflection phases, even ones without
    for k in range(-1, 3):
        d3, d4 = (geo.bulge_sphere_distance(_curve(TwistParam(AdmissiblePair(p, q), tau)), k, 0.5)
                  for tau in (1e-3, 1e-4))
        assert d3 < 10 * 1e-3, k
        assert 0.5 < (d3 / 1e-3) / (d4 / 1e-4) < 2.0, k


def test_next_sphere_frame_limit():
    pair = AdmissiblePair(1, 2)
    param = TwistParam(pair, 1e-4)
    data = _curve(param).period
    sph = geo.approximating_spheres(_curve(param), [1])[0]
    limit = np.array([-1.0 + 0j, np.exp(-1j * math.pi / 2), np.exp(-1j * math.pi / 2)])
    gap = sph.phases - limit
    assert max(np.max(np.abs(gap.real)), np.max(np.abs(gap.imag))) < 5e-3


def test_orthogonal_frames():
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    for sph in geo.approximating_spheres(_curve(param), range(-2, 3)):
        assert np.allclose(np.abs(sph.phases) ** 2, 1.0, atol=1e-12)


def _both_kinds_of_sphere():
    # for p > 1 even bulges are positioned holomorphically (bulge 2: a nontrivial
    # rotation, bulge 0 has none) and odd ones antiholomorphically
    spheres = geo.approximating_spheres(_curve(TwistParam(AdmissiblePair(2, 3), 0.05)), [2, 1])
    assert [s.antiholomorphic for s in spheres] == [False, True]
    return spheres


@pytest.mark.parametrize("which", [0, 1])
def test_sphere_distance_on_and_off_the_positioned_equator(which):
    sph = _both_kinds_of_sphere()[which]
    U = np.diag(sph.phases)                 # the matrix route of the positioning map
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.standard_normal(5)
        x /= np.linalg.norm(x)
        # a real point is its own conjugate: z -> U z and z -> U conj(z) agree on it
        assert geo.sphere_distance(sph, U @ x) <= 1e-15
        assert geo.sphere_distance(sph, U @ np.conj(x)) <= 1e-15
        # off along the normals x (radial) and i y (y real): distance hypot(r, s)
        y = rng.standard_normal(5)
        r, s = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        z = U @ ((1.0 + r) * x + 1j * s * (y / np.linalg.norm(y)))
        assert geo.sphere_distance(sph, z) == pytest.approx(math.hypot(r, s), abs=1e-15)


def test_stacked_sphere_distance_equals_the_per_point_values():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((4, 7, 5)) + 1j * rng.standard_normal((4, 7, 5))
    for sph in _both_kinds_of_sphere():
        stacked = geo.sphere_distance(sph, z)
        assert stacked.shape == (4, 7)
        assert np.array_equal(stacked, [[geo.sphere_distance(sph, zz) for zz in row]
                                        for row in z])
