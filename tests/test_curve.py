"""One object per twisted curve, TwistTrajectory: one integration per (pair, tau, tol),
made by one solve_w call, and array sampling."""

import re
import sys
import weakref

import numpy as np
import pytest

import sltwist.ode_engine as ode_engine
import sltwist.periods as periods
import sltwist.twisted_curve as twisted_curve
from sltwist.cli import main
from sltwist.geometry.export import format_float
from sltwist.geometry.immersion import Sampler
from sltwist.ode_engine import Tolerances
from sltwist.periods import branch_integral
from sltwist.twisted_curve import AdmissiblePair, TwistParam, TwistTrajectory, _field, _w
from sltwist.variation import dpthat_dtau_cross_check


def _curve(param):
    """The curve of ``param`` at the standard tolerance."""
    return TwistTrajectory(param, Tolerances())


def _rebind_everywhere(monkeypatch, original, replacement):
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("sltwist"):
            for name, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, name, replacement)


def test_verify_integrates_each_curve_once(monkeypatch, capsys):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs["span"])
        return original(*args, **kwargs)

    original = ode_engine.integrate
    _rebind_everywhere(monkeypatch, original, counting)
    assert main(["verify", "--p", "2", "--q", "2", "--tau", "0.06"]) == 0
    assert len(calls) == 2              # the curve and its linearisation


def test_verify_builds_the_initial_state_once(monkeypatch, capsys):
    # w(0) is the curve's anchor: solve_Q and the checks read it off the trajectory
    calls = []

    def counting(param):
        calls.append(param)
        return original(param)

    original = twisted_curve.initial_state
    _rebind_everywhere(monkeypatch, original, counting)
    assert main(["verify", "--p", "2", "--q", "3", "--tau", "0.05"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv,legs", [
    ("verify --p 1 --q 3 --tau 0.05", 2),
    ("verify --p 2 --q 3 --tau 0.05", 4),
])
def test_verify_steps_a_p1_curve_forward_only(leg_calls, capsys, argv, legs):
    # the curve and (w, Q, Q') are read on both sides of 0; for p = 1 each steps
    # its forward side and mirrors the backward side from it, for p >= 2 (t = 0
    # is no extremum of y) each steps both.  legs counts the (field, direction)
    # pairs stepped, each run starting at 0, legs that keep nothing (their
    # buffers are None: endpoints) aside
    assert main(argv.split()) == 0
    starts = {(c["fun"], c["direction"]): c["t"] for c in reversed(leg_calls)
              if c["ts"] is not None}                    # each pair's first leg
    assert len(starts) == legs
    assert all(t0 == 0.0 for t0 in starts.values())


def test_a_real_p1_curve_is_not_mirrored(tmp_path, capsys):
    # at tau = 0 w stays real, and a mirrored Im w2 would be -0.0: both halves are
    # stepped, and each CSV row is the one a one-sided curve writes, byte for byte
    param = TwistParam(AdmissiblePair(1, 2), 0.0)
    assert main(["solve", "--p", "1", "--q", "2", "--tau", "0", "--samples", "301",
                 "--out", str(tmp_path / "z.csv")]) == 0
    ts = np.linspace(-5.0, 5.0, 301)
    halves = []
    for side in (ts <= 0.0, ts > 0.0):      # each read off a curve of its own
        w1, w2 = TwistTrajectory(param, Tolerances()).w(ts[side])
        halves.append([",".join(format_float(v) for v in (t, a.real, a.imag, b.real, b.imag))
                       .encode() + b"\n" for t, a, b in zip(ts[side], w1, w2)])
    bwd, fwd = halves
    header = b"t,re_w1,im_w1,re_w2,im_w2\n"
    assert (tmp_path / "z.csv").read_bytes() == b"".join([header, *bwd, *fwd])
    assert len(bwd) == 151 and all(row.endswith(b",0\n") for row in bwd)     # Im w2


@pytest.mark.parametrize("argv,linearised", [
    ("solve --p 2 --q 3 --tau 0.05", 0),
    ("solve --p 2 --q 3 --tau 0.05 --window 3", 0),
    ("periods --p 2 --q 3 --tau 0.05", 0),
    ("torque --p 2 --q 3 --tau 0.05", 0),
    ("neck --p 2 --q 3 --tau 0.001", 0),
    ("neck --p 3 --q 3 --tau 0.001 --waist 0", 0),
    ("neck --p 2 --q 2 --tau 0.001 --waist 3", 0),
    ("neck --p 1 --q 2 --tau 0.05 --waist 6", 0),
    ("export --p 2 --q 3 --tau 0.05 --format csv", 0),
    ("export --p 1 --q 2 --tau 0.1 --format json", 0),
    ("export --p 1 --q 2 --tau 0.1 --format obj", 0),
    ("necklace --p 1 --q 2 --m 8", 0),
    ("closure --p 2 --q 3 --target 3/5", 0),
    ("verify --p 2 --q 3 --tau 0.05", 1),
])
def test_each_subcommand_integrates_each_curve_once(monkeypatch, capsys, tmp_path, argv,
                                                    linearised):
    # one integration of the curve system per distinct tau (initial state), each
    # made by one solve_w call, and Q's own for verify: no read re-integrates a
    # curve over a wider span (the neck's degree-3 catenoid profile integrates a
    # system of its own).  The quadrature's route integrals are evaluated once per
    # distinct tau they are asked for, whichever routes ask
    p, q = (int(v) for v in argv.split()[2:5:2])
    curve_states, others, solves, inside, asked = [], [], [], [], []

    def counting(field, state0, *args, **kwargs):
        if field is _field(p, q):
            curve_states.append((tuple(state0), len(solves), len(inside)))
        else:
            others.append(tuple(state0))
        return original(field, state0, *args, **kwargs)

    def solving(*args, **kwargs):
        solves.append(args[0].tau)
        inside.append(True)
        try:
            return original_solve_w(*args, **kwargs)
        finally:
            inside.pop()

    def asking(param):
        asked.append(param.tau)
        return branch_integral(param)

    original, original_solve_w = ode_engine.integrate, twisted_curve.solve_w
    _rebind_everywhere(monkeypatch, original, counting)
    _rebind_everywhere(monkeypatch, original_solve_w, solving)
    _rebind_everywhere(monkeypatch, branch_integral, asking)
    branch_integral.cache_clear()
    out = ["--out", str(tmp_path / "x")] if argv.startswith("export") else []
    assert main(argv.split() + out) == 0
    states = [s for s, _, _ in curve_states]
    assert curve_states and len(states) == len(set(states))
    # the k-th integration is made inside the k-th solve_w call, and no call makes two
    assert [(n, depth) for _, n, depth in curve_states] == [
        (k + 1, 1) for k in range(len(curve_states))]
    assert len(solves) == len(curve_states)
    assert sum(len(s) == 6 for s in others) == linearised
    assert branch_integral.cache_info().misses == len(set(asked))


def test_verify_reads_the_curve_and_samplers_a_counted_number_of_times(monkeypatch, capsys):
    # each check reads its points in one array pass: the energy row and the
    # symmetry relations read the curve once each, the Legendrian row makes one
    # product sampler call (two factor calls inside), and the torque rows share
    # one meridian.  Before the checks were batched this command made 38
    # Trajectory and 75 Sampler calls; a row that splits its reads again shows here
    calls = {"trajectory": 0, "sampler": 0}

    def counted(key, call):
        def counting(self, *args, **kwargs):
            calls[key] += 1
            return call(self, *args, **kwargs)
        return counting

    monkeypatch.setattr(ode_engine.Trajectory, "__call__",
                        counted("trajectory", ode_engine.Trajectory.__call__))
    monkeypatch.setattr(Sampler, "__call__", counted("sampler", Sampler.__call__))
    assert main(["verify", "--p", "3", "--q", "4", "--tau", "0.01"]) == 0
    assert calls["trajectory"] <= 8 and calls["sampler"] <= 3, calls


@pytest.mark.parametrize("argv,taus", [
    ("verify --p 2 --q 3 --tau 0.05", {0.05}),
    ("periods --p 1 --q 2 --tau 0.1", {0.1}),
    ("asymptotics --p 2 --q 3 --tau-list 1e-2,1e-3,1e-4", {1e-2, 1e-3, 1e-4}),
])
def test_each_tau_evaluates_the_quadrature_rule_once(monkeypatch, capsys, argv, taus):
    # time, psi1 and psi2 of a tau come from one evaluation of the rule, held by
    # branch_integral's memo: the period, both angular periods and the span all
    # read it (verify's derivative row evaluates its four taus in one batch)
    one_tau = []

    def counting(pair, ts, gaps, rows):
        if np.ndim(ts) == 0:
            one_tau.append(ts)
        return original(pair, ts, gaps, rows)

    original = periods._branch_halves
    _rebind_everywhere(monkeypatch, original, counting)
    branch_integral.cache_clear()
    assert main(argv.split()) == 0
    assert sorted(one_tau) == sorted(taus)


def test_cross_check_integrates_nothing(monkeypatch):
    curve = _curve(TwistParam(AdmissiblePair(2, 3), 1e-5))
    curve.Q                     # the linearisation reads the period: both before the refusal

    def refusing(*args, **kwargs):
        raise AssertionError("integrate called")

    _rebind_everywhere(monkeypatch, ode_engine.integrate, refusing)
    assert dpthat_dtau_cross_check(curve)["rel_err"] <= 1e-6


def test_curve_lives_only_for_the_call(monkeypatch, capsys):
    refs = []
    init = TwistTrajectory.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append((self.param.tau, weakref.ref(self)))

    monkeypatch.setattr(TwistTrajectory, "__init__", recording)
    assert main(["verify", "--p", "1", "--q", "2", "--tau", "0.1"]) == 0
    assert [tau for tau, _ in refs] == [0.1]
    assert all(ref() is None for _, ref in refs)


def test_curve_computes_each_piece_once(monkeypatch):
    curve = _curve(TwistParam(AdmissiblePair(2, 3), 0.05))
    assert curve.period is curve.period
    assert curve.trajectory is curve.trajectory
    assert curve.Q is curve.Q
    # a read past the extent grows the same trajectory, integrates nothing, and
    # reads the bits of a curve first read there
    traj = curve.trajectory
    lo, hi = traj.time_grid[0], traj.time_grid[-1]
    reads = [np.array([hi + 1.0]), np.array([lo - 1.0]), np.array([0.0, hi + 7.0])]
    fresh = [_curve(curve.param).w(t) for t in reads]
    end = _curve(curve.param).trajectory.endpoint(hi + 9.0)

    def refusing(*args, **kwargs):
        raise AssertionError("integrate called")

    _rebind_everywhere(monkeypatch, ode_engine.integrate, refusing)
    for t, want in zip(reads, fresh):
        assert np.array_equal(curve.w(t), want)
    assert np.array_equal(curve.trajectory.endpoint(hi + 9.0), end)
    assert curve.trajectory is traj and traj.time_grid[0] < lo - 1.0 < hi + 9.0 < traj.time_grid[-1]


@pytest.mark.parametrize("tau", [0.05, -0.05, 0.0])
@pytest.mark.parametrize("p,q", [(1, 2), (2, 3)])
def test_array_accessors_equal_scalar_ones_bitwise(p, q, tau):
    traj = TwistTrajectory(TwistParam(AdmissiblePair(p, q), tau), Tolerances())
    # a one-element read is the same time's column of a batch read, bit for bit
    ts = np.concatenate([np.linspace(-2.5, 3.0, 37), [0.0]])
    undefined = p == 1 and tau == 0.0        # w1 passes through 0 at t = 0
    if undefined:
        for t in (ts, np.array([0.5])):
            with pytest.raises(ValueError, match="psi is undefined at tau = 0 for p = 1"):
                traj.psi(t)
    readers = [traj.w, traj.state, traj.y, traj.ydot] + ([] if undefined else [traj.psi])
    batches = [np.asarray(read(ts)) for read in readers]
    for i, t in enumerate(ts):
        for read, batch in zip(readers, batches):
            assert np.asarray(read(np.array([t]))).tobytes() == batch[..., i:i + 1].tobytes()
    assert traj.w(np.array([0.5])).shape == (2, 1) and traj.y(np.array([0.5])).shape == (1,)


@pytest.mark.parametrize("t", [0.5, np.float64(0.5), np.array(0.5), np.array([[0.5, 1.0]])])
def test_a_time_is_read_as_a_1d_array_only(t):
    # every reader of a curve or of the catenoid profile hands its times to
    # Trajectory.__call__, which refuses any other shape, naming it
    from sltwist.catenoid import unit_profile

    curve = _curve(TwistParam(AdmissiblePair(2, 3), 0.05))
    readers = [curve.trajectory, curve.state, curve.w, curve.y, curve.ydot, curve.psi,
               lambda t: unit_profile(3, t)]
    for read in readers:
        with pytest.raises(ValueError, match=re.escape(f"not of shape {np.shape(t)}")):
            read(t)


@pytest.mark.parametrize("p,q,tau", [(1, 3, 0.05), (2, 3, -0.05), (2, 2, 0.0)])
def test_an_empty_read_is_dim_by_0(p, q, tau):
    # as a landed read is, on a curve with nothing stepped and on one stepped on
    # both sides (for p = 1 the backward side mirrored); nothing is stepped
    curve = _curve(TwistParam(AdmissiblePair(p, q), tau))
    empty = np.array([])
    for reads in ([], [-2.0, 3.0]):
        curve.trajectory(np.array(reads))
        grid = curve.trajectory.time_grid
        assert curve.trajectory(empty).shape == curve.trajectory.landed(empty).shape == (4, 0)
        w = curve.w(empty)
        assert w.shape == (2, 0) and w.dtype == complex
        assert [psi.shape for psi in curve.psi(empty)] == [(0,), (0,)]
        assert np.array_equal(curve.trajectory.time_grid, grid)


@pytest.mark.parametrize("p,q,tau", [(1, 2, 0.1), (2, 2, -0.06)])
def test_array_residuals_match_point_by_point_loops(p, q, tau):
    import sltwist.geometry as geo
    from sltwist.closure import verify_closed

    param = TwistParam(AdmissiblePair(p, q), tau)
    curve = TwistTrajectory(param, Tolerances())
    data, traj = curve.period, curve
    M = np.diag(geo.mhat(curve.param.pair, 2.0 * data.pthat))

    def w(t):                       # one time, read as a one-element batch
        return traj.w(np.array([t]))[:, 0]

    def landed(t):                  # one time, landed on alone
        return _w(curve.trajectory.landed(np.array([t])))[:, 0]

    translation = max(np.max(np.abs(w(t + 2.0 * data.p_tau) - M @ w(t)))
                      for t in np.linspace(-0.5 * data.p_tau, 0.5 * data.p_tau, 40))
    closure = max(np.max(np.abs(landed(s + data.p_tau) - landed(s - data.p_tau)))
                  for s in np.linspace(-data.p_tau, data.p_tau, 20))     # centred, k0 = 1
    assert geo.symmetry_residuals(curve)["translation"] == pytest.approx(translation, abs=1e-15)
    assert verify_closed(curve, 1, 20).closure_residual == pytest.approx(closure, abs=1e-15)
