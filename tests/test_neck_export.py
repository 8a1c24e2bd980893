import importlib
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
    assert comp.max_error < 0.1


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("tau", [1e-3, -1e-3])
def test_neck_waist_kinds_agree_under_exchange(p, tau):
    # for p = q, w1(-t) = w2(t) maps waist 0 (kind 1) onto waist 1 (kind 2)
    curve = Curve(TwistParam(AdmissiblePair(p, p), tau))
    first, second = geo.neck_rescale(curve, 0), geo.neck_rescale(curve, 1)
    assert (first.waist_kind, second.waist_kind) == (1, 2)
    assert abs(first.max_error - second.max_error) <= 1e-9


@pytest.mark.parametrize("p,q,tau", [(1, 2, 1e-3), (2, 3, 1e-3), (2, 2, 1e-3), (2, 2, 1e-4)])
def test_neck_at_negative_tau_models_the_conjugate_catenoid(p, q, tau):
    # the -tau curve is the conjugate of the +tau one, and so is its neck model
    plus = geo.neck_rescale(Curve(TwistParam(AdmissiblePair(p, q), tau)), 1)
    minus = geo.neck_rescale(Curve(TwistParam(AdmissiblePair(p, q), -tau)), 1)
    assert abs(minus.max_error - plus.max_error) <= 1e-12
    assert np.allclose(minus.rescale_phases, plus.rescale_phases.conj(), rtol=0, atol=1e-15)
    if (p, q, tau) != (2, 2, 1e-3):         # +tau itself measures 0.142 there
        assert minus.max_error < 0.1


def test_neck_window_beyond_lifetime_rejected():
    param = TwistParam(AdmissiblePair(2, 3), 1e-3)
    with pytest.raises(ValueError):
        geo.neck_rescale(Curve(param), 1, 1.3)   # degree-3 lifetime is ~1.2143


def test_neck_frame_is_unitary():
    comp = geo.neck_rescale(Curve(TwistParam(AdmissiblePair(1, 2), 1e-3)), 1, 1.0)
    assert comp.rescale_phases.shape == (3,)
    assert np.allclose(np.abs(comp.rescale_phases) ** 2, 1.0, atol=1e-14)


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
        # the unrotated block's phase is the unit phase of that factor at t
        w1, w2 = traj.w(t)
        unrotated = comp.rescale_phases[0] if kind == 2 else comp.rescale_phases[-1]
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
def test_block_matches_format_float_per_number(shape, tmp_path, monkeypatch):
    export_module = importlib.import_module("sltwist.geometry.export")   # not geo.export

    monkeypatch.setattr(export_module, "_BLOCK_ROWS", 3)    # whole and partial blocks
    rng = np.random.default_rng(sum(shape))
    rows = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    rows.flat[:len(EDGE_VALUES)] = EDGE_VALUES[:rows.size]    # all of them in the wider blocks
    reference = [",".join(geo.format_float(v) for v in row) for row in rows]
    path = export_module._write(tmp_path / "b.txt", "header",
                                (",".join(["%.17g"] * shape[1]), len(rows), lambda i, j: rows[i:j]),
                                ("v" + " %.17g" * shape[1], len(rows), lambda i, j: rows[i:j]))
    assert path.read_text() == "\n".join(
        ["header", *reference, *("v " + line.replace(",", " ") for line in reference)]) + "\n"


def test_exports_in_blocks_of_three_rows_match_row_by_row_files(tmp_path, monkeypatch):
    # numbers from one evaluation of the whole grid, each line formatted on its own
    export_module = importlib.import_module("sltwist.geometry.export")   # not geo.export

    monkeypatch.setattr(export_module, "_BLOCK_ROWS", 3)

    def lines(rows):
        return [",".join(geo.format_float(v) for v in row) for row in rows]

    traj = solve_w(TwistParam(AdmissiblePair(2, 3), 0.05), (-1.0, 1.0))
    ts = np.linspace(-1.0, 1.0, 16)
    w1, w2 = traj.w(ts)
    path = geo.trajectory_csv(traj, ts, tmp_path / "w.csv")
    rows = np.column_stack([ts, w1.real, w1.imag, w2.real, w2.imag])
    assert path.read_bytes() == "\n".join(["t,re_w1,im_w1,re_w2,im_w2", *lines(rows)]).encode() + b"\n"

    counts = (4, 3, 2, 5)           # a 4-parameter sampler, 120 rows
    sampler = geo.immersion_sampler(Curve(TwistParam(AdmissiblePair(2, 3), 0.05)), (-1.0, 1.0))
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(sampler.box, counts)]
    u = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
    z = sampler(u)
    header = "u0,u1,u2,u3," + ",".join(f"{part}_z{j}" for j in range(1, 6) for part in ("re", "im"))
    rows = np.concatenate([u, np.stack([z.real, z.imag], axis=-1).reshape(len(u), -1)], axis=1)
    path = geo.export(sampler, counts, "csv", tmp_path / "g.csv")
    assert path.read_bytes() == "\n".join([header, *lines(rows)]).encode() + b"\n"

    nt, na = 4, 5
    sampler = geo.immersion_sampler(Curve(TwistParam(AdmissiblePair(1, 2), 0.1)), (-1.0, 1.0))
    (t_lo, t_hi), (a_lo, a_hi) = sampler.box
    grid = [(t, a_lo + (a_hi - a_lo) * j / na) for t in np.linspace(t_lo, t_hi, nt)
            for j in range(na)]
    verts = sampler(np.array(grid))[:, :3].real
    faces = ["f %d %d %d %d" % (i * na + j + 1, i * na + (j + 1) % na + 1,
                                (i + 1) * na + (j + 1) % na + 1, (i + 1) * na + j + 1)
             for i in range(nt - 1) for j in range(na)]
    path = geo.export(sampler, (nt, na), "obj", tmp_path / "m.obj")
    expected = ["# projection: Re z1, Re z2, Re z3",
                *("v " + line.replace(",", " ") for line in lines(verts)), *faces]
    assert path.read_bytes() == "\n".join(expected).encode() + b"\n"


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
