import json
import math

import numpy as np
import pytest

import sltwist.geometry as geo
from sltwist.curve import Curve
from sltwist.periods import PeriodData, period_ode
from sltwist.twisted_curve import AdmissiblePair, TwistParam, solve_w, y_extrema


# -- neck rescaling --------------------------------------------------------------


def test_neck_waist_radius_is_beta():
    param = TwistParam(AdmissiblePair(1, 2), 1e-3)
    comp = geo.neck_rescale(Curve(param), 1, 2.0)
    assert abs(comp.beta - math.sqrt(y_extrema(param)[0])) < 1e-12
    assert comp.catenoid_degree == 2
    assert comp.waist_kind == 2


def test_neck_error_small_and_beta_scaled():
    # the comparison error scales linearly in beta across a factor-4 tau step
    c1 = geo.neck_rescale(Curve(TwistParam(AdmissiblePair(1, 2), 1e-3)), 1, 2.0)
    c2 = geo.neck_rescale(Curve(TwistParam(AdmissiblePair(1, 2), 2.5e-4)), 1, 2.0)
    assert c1.max_error < 0.1          # measured 0.073 at tau = 1e-3, window 2
    err_ratio = c1.max_error / c2.max_error
    beta_ratio = c1.beta / c2.beta
    assert err_ratio / beta_ratio < 2.0
    assert beta_ratio / err_ratio < 2.0


def test_neck_second_factor_model_for_2_3():
    param = TwistParam(AdmissiblePair(2, 3), 1e-4)
    comp = geo.neck_rescale(Curve(param), 1, 0.6)
    assert comp.waist_kind == 2
    assert comp.catenoid_degree == 3      # degree-q catenoid profile
    assert comp.max_error < 0.12


def test_neck_first_factor_model_for_2_3():
    param = TwistParam(AdmissiblePair(2, 3), 1e-4)
    comp = geo.neck_rescale(Curve(param), 0, 2.0)
    assert comp.waist_kind == 1
    assert comp.catenoid_degree == 2      # degree-p catenoid (infinite lifetime)
    assert abs(comp.beta - math.sqrt(1.0 - y_extrema(param)[1])) < 1e-12


@pytest.mark.parametrize("p,q,tau", [(1, 2, 1e-3), (2, 3, 1e-3), (2, 2, 1e-3), (2, 2, 1e-4)])
def test_neck_at_negative_tau_models_the_conjugate_catenoid(p, q, tau):
    # the -tau curve is the conjugate of the +tau one, and so is its neck model
    plus = geo.neck_rescale(Curve(TwistParam(AdmissiblePair(p, q), tau)), 1)
    minus = geo.neck_rescale(Curve(TwistParam(AdmissiblePair(p, q), -tau)), 1)
    assert abs(minus.max_error - plus.max_error) <= 1e-12
    assert np.allclose(minus.rescale_frame, plus.rescale_frame.conj(), rtol=0, atol=1e-15)
    if (p, q, tau) != (2, 2, 1e-3):         # +tau itself measures 0.142 there
        assert minus.max_error < 0.1


def test_neck_window_beyond_lifetime_rejected():
    param = TwistParam(AdmissiblePair(2, 3), 1e-3)
    with pytest.raises(ValueError):
        geo.neck_rescale(Curve(param), 1, 1.3)   # degree-3 lifetime is ~1.2143


def test_neck_frame_is_unitary():
    comp = geo.neck_rescale(Curve(TwistParam(AdmissiblePair(1, 2), 1e-3)), 1, 1.0)
    U = comp.rescale_frame
    assert np.allclose(U @ U.conj().T, np.eye(3), atol=1e-14)


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3)])
def test_neck_resolves_every_waist_at_its_closed_form_time(p, q):
    # waist k is at (2k - 1) p_tau for p = 1 (k = 6 was once "not found"); for
    # p > 1 at 2l p_tau - p_minus (k = 2l) or 2l p_tau + p_plus (k = 2l + 1)
    curve = Curve(TwistParam(AdmissiblePair(p, q), 0.05))
    data = curve.period
    y_min, y_max = y_extrema(curve.param)
    traj = curve.traj(-18.0 * data.p_tau, 18.0 * data.p_tau)
    for k in range(-8, 9):
        l, odd = divmod(k, 2)
        if p == 1:
            t, kind = (2 * k - 1) * data.p_tau, 2
        else:
            t, kind = (2 * l * data.p_tau + data.p_plus, 2) if odd else \
                (2 * l * data.p_tau - data.p_minus, 1)
        comp = geo.neck_rescale(curve, k)
        assert (comp.waist_index, comp.waist_kind) == (k, kind)
        assert comp.catenoid_degree == (q if kind == 2 else p)
        # the frame's unrotated block is the unit phase of that factor at t
        w1, w2 = traj.w(t)
        unrotated = comp.rescale_frame[0, 0] if kind == 2 else comp.rescale_frame[-1, -1]
        assert unrotated == (abs(w1) / w1 if kind == 2 else abs(w2) / w2)
        assert abs(traj.y(t) - (y_min if kind == 2 else y_max)) < 1e-9


# -- export ----------------------------------------------------------------------


def test_trajectory_csv_schema(tmp_path):
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    traj = solve_w(param, (-1.0, 1.0))
    ts = np.linspace(-1, 1, 7)
    path = geo.trajectory_csv(traj, ts, tmp_path / "w.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "t,re_w1,im_w1,re_w2,im_w2"
    assert len(lines) == 8
    w1, w2 = traj.w(ts)
    assert lines[1:] == [",".join(geo.format_float(v) for v in (t, a.real, a.imag, b.real, b.imag))
                         for t, a, b in zip(ts, w1, w2)]


EDGE_VALUES = [0.0, -0.0, 5e-324, 1e308, -1e-300, 2.0, 0.1, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("shape", [(10, 1), (7, 3), (2, 5), (1, 5), (1, 1)])
def test_block_matches_format_float_per_number(shape):
    from sltwist.geometry.export import _block

    rng = np.random.default_rng(sum(shape))
    rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    rows.flat[:len(EDGE_VALUES)] = EDGE_VALUES[:rows.size]    # all of them in the wider blocks
    reference = "\n".join(",".join(geo.format_float(v) for v in row) for row in rows)
    assert _block(",".join(["%.17g"] * shape[1]), rows) == reference
    assert _block("v" + " %.17g" * shape[1], rows) == "\n".join(
        "v " + line.replace(",", " ") for line in reference.splitlines())


class _EdgeTrajectory:
    """Stands in for a trajectory: w1 = (t reversed) + i t, w2 = 0.1 + i nan."""

    def w(self, ts):
        w1 = np.zeros(len(ts), dtype=complex)
        w1.real, w1.imag = ts[::-1], ts
        return w1, np.full(len(ts), complex(0.1, math.nan))


def test_trajectory_csv_edge_values_and_empty(tmp_path):
    ts = np.array(EDGE_VALUES[:7])
    path = geo.trajectory_csv(_EdgeTrajectory(), ts, tmp_path / "edge.csv")
    w1, w2 = _EdgeTrajectory().w(ts)
    rows = [",".join(geo.format_float(v) for v in (t, a.real, a.imag, b.real, b.imag))
            for t, a, b in zip(ts, w1, w2)]
    assert path.read_text() == "\n".join(["t,re_w1,im_w1,re_w2,im_w2", *rows]) + "\n"
    # no rows: the header line alone, no blank line after it
    empty = geo.trajectory_csv(_EdgeTrajectory(), [], tmp_path / "empty.csv")
    assert empty.read_bytes() == b"t,re_w1,im_w1,re_w2,im_w2\n"


@pytest.mark.parametrize("nt,na", [(2, 3), (3, 5), (12, 12)])
def test_obj_faces_are_the_wrapped_quads(nt, na, tmp_path):
    sampler = geo.immersion_sampler(Curve(TwistParam(AdmissiblePair(1, 2), 0.1)), (-1.0, 1.0))
    lines = geo.export(sampler, (nt, na), "obj", tmp_path / "m.obj").read_text().splitlines()
    quads = [(i * na + j + 1, i * na + (j + 1) % na + 1,
              (i + 1) * na + (j + 1) % na + 1, (i + 1) * na + j + 1)
             for i in range(nt - 1) for j in range(na)]
    assert lines[1 + nt * na:] == ["f %d %d %d %d" % quad for quad in quads]


def test_period_report_roundtrip_bit_exact():
    data = period_ode(TwistParam(AdmissiblePair(2, 3), 0.05))
    text = geo.report_to_json(data, kind="PeriodData")
    back = geo.report_from_json(text, PeriodData, kind="PeriodData")
    assert back == data


def test_json_deterministic():
    data = period_ode(TwistParam(AdmissiblePair(1, 2), 0.1))
    assert geo.report_to_json(data) == geo.report_to_json(data)


def test_obj_export_valid_mesh(tmp_path):
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    sampler = geo.immersion_sampler(Curve(param), (-2.0, 2.0))
    path = geo.export(sampler, (20, 16), "obj", tmp_path / "neck.obj")
    verts, faces = geo.validate_obj(path)
    assert verts == 20 * 16
    assert faces == 19 * 16
    lines = path.read_text().splitlines()
    assert lines[0] == "# projection: Re z1, Re z2, Re z3"
    first = sampler(np.array([[-2.0, 0.0]]))[0, :3].real
    assert lines[1] == "v " + " ".join(geo.format_float(x) for x in first)


def test_obj_export_rejects_wrong_shape(tmp_path):
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    sampler = geo.immersion_sampler(Curve(param), (-1.0, 1.0))
    with pytest.raises(ValueError):
        geo.export(sampler, (8, 8), "obj", tmp_path / "bad.obj")


def test_csv_grid_export(tmp_path):
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    sampler = geo.immersion_sampler(Curve(param), (-1.0, 1.0))
    path = geo.export(sampler, (5, 6), "csv", tmp_path / "grid.csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 5 * 6
    assert lines[0].split(",")[:2] == ["u0", "u1"]
    # deterministic bytes on re-export
    path2 = geo.export(sampler, (5, 6), "csv", tmp_path / "grid2.csv")
    assert path.read_bytes() == path2.read_bytes()


def test_export_unknown_format(tmp_path):
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    sampler = geo.immersion_sampler(Curve(param), (-1.0, 1.0))
    with pytest.raises(ValueError):
        geo.export(sampler, (4, 4), "stl", tmp_path / "x.stl")
