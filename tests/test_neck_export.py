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


def test_neck_window_beyond_lifetime_rejected():
    param = TwistParam(AdmissiblePair(2, 3), 1e-3)
    with pytest.raises(ValueError):
        geo.neck_rescale(Curve(param), 1, 1.3)   # degree-3 lifetime is ~1.2143


def test_neck_frame_is_unitary():
    comp = geo.neck_rescale(Curve(TwistParam(AdmissiblePair(1, 2), 1e-3)), 1, 1.0)
    U = comp.rescale_frame
    assert np.allclose(U @ U.conj().T, np.eye(3), atol=1e-14)


# -- export ----------------------------------------------------------------------


def test_trajectory_csv_schema(tmp_path):
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    traj = solve_w(param, (-1.0, 1.0))
    path = geo.trajectory_csv(param, traj, np.linspace(-1, 1, 7), tmp_path / "w.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "t,re_w1,im_w1,re_w2,im_w2"
    assert len(lines) == 8
    row = [float(x) for x in lines[1].split(",")]
    w1, w2 = traj.w(row[0])
    assert abs(complex(row[1], row[2]) - w1) < 1e-16


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
    assert path.read_text().startswith("# projection: Re z1, Re z2, Re z3")


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
