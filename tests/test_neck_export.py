import importlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import sltwist.geometry as geo
from sltwist.ode_engine import Tolerances
from sltwist.periods import PeriodData
from sltwist.twisted_curve import AdmissiblePair, TwistParam, TwistTrajectory, y_extrema


# -- neck rescaling --------------------------------------------------------------


def _neck(param, waist, b=None):
    """neck_rescale at ``waist``."""
    return geo.neck_rescale(TwistTrajectory(param, Tolerances()), waist, b)


def _sampler(param, t_range):
    """The immersion over the chart times t_range."""
    return geo.immersion_sampler(TwistTrajectory(param, Tolerances()), t_range)


def test_neck_waist_radius_is_beta():
    param = TwistParam(AdmissiblePair(1, 2), 1e-3)
    comp = _neck(param, 1, 2.0)
    assert abs(comp.beta - math.sqrt(y_extrema(param)[0])) < 1e-12
    assert comp.catenoid_degree == 2
    assert comp.waist_kind == 2


def test_neck_error_small_and_beta_scaled():
    # the comparison error scales linearly in beta across a factor-4 tau step
    c1 = _neck(TwistParam(AdmissiblePair(1, 2), 1e-3), 1, 2.0)
    c2 = _neck(TwistParam(AdmissiblePair(1, 2), 2.5e-4), 1, 2.0)
    assert c1.max_error < 0.1          # measured 0.073 at tau = 1e-3, window 2
    err_ratio = c1.max_error / c2.max_error
    beta_ratio = c1.beta / c2.beta
    assert err_ratio / beta_ratio < 2.0
    assert beta_ratio / err_ratio < 2.0


def test_neck_second_factor_model_for_2_3():
    param = TwistParam(AdmissiblePair(2, 3), 1e-4)
    comp = _neck(param, 1, 0.6)
    assert comp.waist_kind == 2
    assert comp.catenoid_degree == 3      # degree-q catenoid profile
    assert comp.max_error < 0.12


def test_neck_first_factor_model_for_2_3():
    param = TwistParam(AdmissiblePair(2, 3), 1e-4)
    comp = _neck(param, 0, 2.0)
    assert comp.waist_kind == 1
    assert comp.catenoid_degree == 2      # degree-p catenoid (infinite lifetime)
    assert abs(comp.beta - math.sqrt(1.0 - y_extrema(param)[1])) < 1e-12
    assert comp.max_error < 0.1


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("tau", [1e-3, -1e-3])
def test_neck_waist_kinds_agree_under_exchange(p, tau):
    # for p = q, w1(-t) = w2(t) maps waist 0 (kind 1) onto waist 1 (kind 2)
    param = TwistParam(AdmissiblePair(p, p), tau)
    curve = TwistTrajectory(param, Tolerances())
    first, second = geo.neck_rescale(curve, 0, None), geo.neck_rescale(curve, 1, None)
    assert (first.waist_kind, second.waist_kind) == (1, 2)
    assert abs(first.max_error - second.max_error) <= 1e-9


@pytest.mark.parametrize("p,q,tau", [(1, 2, 1e-3), (2, 3, 1e-3), (2, 2, 1e-3), (2, 2, 1e-4)])
def test_neck_at_negative_tau_models_the_conjugate_catenoid(p, q, tau):
    # the -tau curve is the conjugate of the +tau one, and so is its neck model
    plus = _neck(TwistParam(AdmissiblePair(p, q), tau), 1)
    minus = _neck(TwistParam(AdmissiblePair(p, q), -tau), 1)
    assert abs(minus.max_error - plus.max_error) <= 1e-12
    assert np.allclose(minus.rescale_phases, plus.rescale_phases.conj(), rtol=0, atol=1e-15)
    if (p, q, tau) != (2, 2, 1e-3):         # +tau itself measures 0.142 there
        assert minus.max_error < 0.1


def test_neck_window_beyond_lifetime_rejected():
    param = TwistParam(AdmissiblePair(2, 3), 1e-3)
    with pytest.raises(ValueError, match="exceeds the degree-3 catenoid lifetime"):
        _neck(param, 1, 1.3)                                # degree-3 lifetime is ~1.2143


def test_neck_frame_is_unitary():
    comp = _neck(TwistParam(AdmissiblePair(1, 2), 1e-3), 1, 1.0)
    assert comp.rescale_phases.shape == (3,)
    assert np.allclose(np.abs(comp.rescale_phases) ** 2, 1.0, atol=1e-14)


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3)])
def test_neck_resolves_every_waist_at_its_closed_form_time(p, q):
    # waist k is at (2k - 1) p_tau for p = 1 (k = 6 was once "not found"); for
    # p > 1 at 2l p_tau - p_minus (k = 2l) or 2l p_tau + p_plus (k = 2l + 1)
    param = TwistParam(AdmissiblePair(p, q), 0.05)
    curve = TwistTrajectory(param, Tolerances())
    data, traj = curve.period, curve
    y_min, y_max = y_extrema(param)
    for k in range(-8, 9):
        l, odd = divmod(k, 2)
        if p == 1:
            t, kind = (2 * k - 1) * data.p_tau, 2
        else:
            t, kind = (2 * l * data.p_tau + data.p_plus, 2) if odd else \
                (2 * l * data.p_tau - data.p_minus, 1)
        comp = geo.neck_rescale(curve, k, None)
        assert (comp.waist_index, comp.waist_kind) == (k, kind)
        assert comp.catenoid_degree == (q if kind == 2 else p)
        # the unrotated block's phase is the unit phase of that factor at t
        w1, w2 = traj.w(np.array([t]))[:, 0].tolist()
        unrotated = comp.rescale_phases[0] if kind == 2 else comp.rescale_phases[-1]
        assert unrotated == (abs(w1) / w1 if kind == 2 else abs(w2) / w2)
        assert abs(traj.y(np.array([t]))[0] - (y_min if kind == 2 else y_max)) < 1e-9


# -- export ----------------------------------------------------------------------


def test_trajectory_csv_schema(tmp_path):
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    traj = TwistTrajectory(param, Tolerances())
    ts = np.linspace(-1, 1, 7)
    path = geo.trajectory_csv(traj, 1.0, 7, tmp_path / "w.csv")
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


def _written(path, line, rows):
    """The lines ``_write`` writes for rows under the template ``line``, header left out."""
    export_module = importlib.import_module("sltwist.geometry.export")   # not geo.export
    export_module._write(path, "header", (line, len(rows), lambda i, j: rows[i:j]))
    return path.read_text().splitlines()[1:]


def _format_lines(rows, cols):
    numbers = [geo.format_float(v) for v in rows.ravel().tolist()]
    return [",".join(numbers[i:i + cols]) for i in range(0, len(numbers), cols)]


def test_kernel_matches_format_float_on_a_million_numbers(tmp_path):
    rng = np.random.default_rng(50)
    binades = rng.integers(0, 2 ** 52, (2047, 300), dtype=np.uint64)
    binades |= np.arange(2047, dtype=np.uint64)[:, None] << np.uint64(52)  # every exponent
    binades |= rng.integers(0, 2, binades.shape, dtype=np.uint64) << np.uint64(63)
    tens = []
    for e in range(-323, 309):                      # 10^e and 1-3 ulps either side
        ten = float(f"1e{e}")
        for way in (-math.inf, math.inf):
            near = ten
            for _ in range(3):
                near = math.nextafter(near, way)
                tens.append(near)
        tens.append(ten)
    traps = [
        9.9999999999999998e-20, 9.9999999999999996e+27,    # P below 10^16 rounds up to it
        78202452810693760.0, 1200.0, 10.0,                  # integer zeros are kept
        1 + 2 ** -17, 1537200913105609.75, 0.5, 2.5,        # exact ties, half-even
    ]
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
                math.inf, -math.inf, math.nan, 1e250, 1e-250]
    values = np.concatenate([
        binades.view(float).ravel(),
        tens, traps, specials, np.negative(traps),
        1e16 + 2.0 * np.arange(-500, 500), 1e17 + 16.0 * np.arange(-500, 500),
        rng.integers(0, 2 ** 52, 2000, dtype=np.uint64).view(float),      # subnormals
        rng.standard_normal(380_000) * 10.0 ** rng.integers(-6, 4, 380_000),
    ])
    rows = values[:len(values) // 5 * 5].reshape(-1, 5)
    assert rows.size >= 10 ** 6
    assert _written(tmp_path / "m.csv", ",".join(["%.17g"] * 5), rows) == _format_lines(rows, 5)


@settings(max_examples=200, deadline=None)
@given(values=hs.lists(hs.floats(width=64), min_size=1, max_size=40),
       cols=hs.sampled_from([1, 3]))
def test_kernel_matches_format_float_on_any_floats(values, cols, tmp_path_factory):
    rows = np.array(values * cols).reshape(-1, cols)
    path = tmp_path_factory.getbasetemp() / "any.csv"
    assert _written(path, ",".join(["%.17g"] * cols), rows) == _format_lines(rows, cols)


def test_face_indices_match_percent_d_up_to_ten_to_the_ten(tmp_path):
    rng = np.random.default_rng(10)
    edges = [0, 1, 9, 10, 9999, 10 ** 4, 99_999_999, 10 ** 8, 10 ** 10 - 1, 10 ** 10, -1, -10 ** 9]
    for high in (10, 10 ** 5, 10 ** 10):
        faces = np.concatenate([edges, rng.integers(1, high + 1, 4000)]).reshape(-1, 4)
        lines = _written(tmp_path / "f.obj", "f %d %d %d %d", faces)
        assert lines == ["f %d %d %d %d" % tuple(face) for face in faces.tolist()]


def test_curve_samples_take_the_fast_path(tmp_path, monkeypatch):
    # a kernel that formatted every number by format_float would write the same
    # bytes: count the numbers it leaves to format_float on curve samples
    export_module = importlib.import_module("sltwist.geometry.export")   # not geo.export
    left = []

    def counting(x):
        left.append(x)
        return geo.format_float(x)

    monkeypatch.setattr(export_module, "format_float", counting)
    traj = TwistTrajectory(TwistParam(AdmissiblePair(2, 3), 0.05), Tolerances())
    ts = np.linspace(-5.0, 5.0, 20_001)
    path = geo.trajectory_csv(traj, 5.0, 20_001, tmp_path / "w.csv")
    w1, w2 = traj.w(ts)
    rows = np.column_stack([ts, w1.real, w1.imag, w2.real, w2.imag])
    assert path.read_text().splitlines()[1:] == _format_lines(rows, 5)
    assert 0 < len(left) <= rows.size // 10 ** 4       # t = 0 is one of them
    assert 0.0 in left


def test_exports_in_blocks_of_three_rows_match_row_by_row_files(tmp_path, monkeypatch):
    # numbers from one evaluation of the whole grid, each line formatted on its own
    export_module = importlib.import_module("sltwist.geometry.export")   # not geo.export

    monkeypatch.setattr(export_module, "_BLOCK_ROWS", 3)

    def lines(rows):
        return [",".join(geo.format_float(v) for v in row) for row in rows]

    traj = TwistTrajectory(TwistParam(AdmissiblePair(2, 3), 0.05), Tolerances())
    ts = np.linspace(-1.0, 1.0, 16)
    w1, w2 = traj.w(ts)
    path = geo.trajectory_csv(traj, 1.0, 16, tmp_path / "w.csv")
    rows = np.column_stack([ts, w1.real, w1.imag, w2.real, w2.imag])
    assert path.read_bytes() == "\n".join(["t,re_w1,im_w1,re_w2,im_w2", *lines(rows)]).encode() + b"\n"

    nt, na = 4, 5
    sampler = _sampler(TwistParam(AdmissiblePair(1, 2), 0.1), (-1.0, 1.0))
    (t_lo, t_hi), (a_lo, a_hi) = sampler.box
    grid = [(t, a_lo + (a_hi - a_lo) * j / na) for t in np.linspace(t_lo, t_hi, nt)
            for j in range(na)]
    verts = sampler(np.array(grid))[:, :3].real
    faces = ["f %d %d %d %d" % (i * na + j + 1, i * na + (j + 1) % na + 1,
                                (i + 1) * na + (j + 1) % na + 1, (i + 1) * na + j + 1)
             for i in range(nt - 1) for j in range(na)]
    path = geo.export(sampler, (nt, na), tmp_path / "m.obj")
    expected = ["# projection: Re z1, Re z2, Re z3",
                *("v " + line.replace(",", " ") for line in lines(verts)), *faces]
    assert path.read_bytes() == "\n".join(expected).encode() + b"\n"


class _EdgeTrajectory:
    """Stands in for a trajectory: on each read, w1 = v + i (v reversed) for v the
    first len(t) of EDGE_VALUES, and w2 = 0.1 + i nan."""

    def w(self, ts):
        v = np.array(EDGE_VALUES[:len(ts)])
        w1 = np.zeros(len(ts), dtype=complex)
        w1.real, w1.imag = v, v[::-1]
        return w1, np.full(len(ts), complex(0.1, math.nan))


def test_trajectory_csv_edge_values_and_empty(tmp_path):
    ts = np.linspace(-1.0, 1.0, len(EDGE_VALUES))
    path = geo.trajectory_csv(_EdgeTrajectory(), 1.0, len(EDGE_VALUES), tmp_path / "edge.csv")
    w1, w2 = _EdgeTrajectory().w(ts)
    rows = [",".join(geo.format_float(v) for v in (t, a.real, a.imag, b.real, b.imag))
            for t, a, b in zip(ts, w1, w2)]
    assert path.read_text() == "\n".join(["t,re_w1,im_w1,re_w2,im_w2", *rows]) + "\n"
    # no rows: the header line alone, no blank line after it
    empty = geo.trajectory_csv(_EdgeTrajectory(), 1.0, 0, tmp_path / "empty.csv")
    assert empty.read_bytes() == b"t,re_w1,im_w1,re_w2,im_w2\n"


class _RecordingTrajectory:
    """Stands in for a trajectory: keeps each array of times w is read at."""

    def __init__(self):
        self.reads = []

    def w(self, ts):
        self.reads.append(ts.copy())
        zero = np.zeros(len(ts), dtype=complex)
        return zero, zero


@pytest.mark.parametrize("samples,block_rows", [
    (0, 3), (1, 3), (2, 3), (3, 3), (7, 3), (4095, None), (4096, None), (4097, None),
    (8193, None),
])
def test_csv_times_are_linspace_bit_for_bit(samples, block_rows, tmp_path, monkeypatch):
    # the writer makes each block's times; together they are linspace's, in whole
    # and partial blocks.  (samples - 1) step - half_window is not half_window for
    # the first window at 7 samples and the second at 4095, so the last time is set
    # apart; the third, the smallest double, has a step that underflows to 0 from
    # 7 samples on
    export_module = importlib.import_module("sltwist.geometry.export")   # not geo.export
    if block_rows:
        monkeypatch.setattr(export_module, "_BLOCK_ROWS", block_rows)
    blocks = range(0, samples, export_module._BLOCK_ROWS)
    for half_window in (7.3, 3.998799918541783, 5e-324):
        traj = _RecordingTrajectory()
        path = geo.trajectory_csv(traj, half_window, samples, tmp_path / "t.csv")
        ts = np.concatenate(traj.reads) if traj.reads else np.zeros(0)
        assert ts.tobytes() == np.linspace(-half_window, half_window, samples).tobytes()
        assert [len(t) for t in traj.reads] == [
            min(export_module._BLOCK_ROWS, samples - i) for i in blocks]
        if samples == 0:        # the header line alone
            assert path.read_bytes() == b"t,re_w1,im_w1,re_w2,im_w2\n"


@pytest.mark.parametrize("nt,na", [(2, 3), (3, 5), (12, 12)])
def test_obj_faces_are_the_wrapped_quads(nt, na, tmp_path):
    sampler = _sampler(TwistParam(AdmissiblePair(1, 2), 0.1), (-1.0, 1.0))
    lines = geo.export(sampler, (nt, na), tmp_path / "m.obj").read_text().splitlines()
    quads = [(i * na + j + 1, i * na + (j + 1) % na + 1,
              (i + 1) * na + (j + 1) % na + 1, (i + 1) * na + j + 1)
             for i in range(nt - 1) for j in range(na)]
    assert lines[1 + nt * na:] == ["f %d %d %d %d" % quad for quad in quads]


@pytest.mark.parametrize("nt,na", [(3, 2), (2, 1)])
def test_obj_export_refuses_fewer_than_3_angular_points(nt, na, tmp_path):
    sampler = _sampler(TwistParam(AdmissiblePair(1, 2), 0.1), (-1.0, 1.0))
    with pytest.raises(ValueError, match=f"at least 3 angular points, got {na}$"):
        geo.export(sampler, (nt, na), tmp_path / "m.obj")
    assert not (tmp_path / "m.obj").exists()


def test_period_report_roundtrip_bit_exact():
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    data = TwistTrajectory(param, Tolerances()).period
    text = geo.report_to_json(data, kind="PeriodData")
    back = geo.report_from_json(text, PeriodData, kind="PeriodData")
    assert back == data


def test_json_deterministic():
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    data = TwistTrajectory(param, Tolerances()).period
    assert geo.report_to_json(data) == geo.report_to_json(data)


def test_obj_export_valid_mesh(tmp_path):
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    sampler = _sampler(param, (-2.0, 2.0))
    path = geo.export(sampler, (20, 16), tmp_path / "neck.obj")
    verts, faces = geo.validate_obj(path)
    assert verts == 20 * 16
    assert faces == 19 * 16
    lines = path.read_text().splitlines()
    assert lines[0] == "# projection: Re z1, Re z2, Re z3"
    first = sampler(np.array([[-2.0, 0.0]]))[0, :3].real
    assert lines[1] == "v " + " ".join(geo.format_float(x) for x in first)


def test_obj_export_rejects_wrong_shape(tmp_path):
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    sampler = _sampler(param, (-1.0, 1.0))
    with pytest.raises(ValueError):
        geo.export(sampler, (8, 8), tmp_path / "bad.obj")
