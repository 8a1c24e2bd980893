"""The per-call Curve context: one integration per (pair, tau, tol), array sampling."""

import sys
import weakref

import numpy as np
import pytest

import sltwist.ode_engine as ode_engine
import sltwist.periods as periods
from sltwist.cli import main
from sltwist.curve import Curve
from sltwist.twisted_curve import AdmissiblePair, TwistParam, solve_w, tau_max

PAIRS_N5 = [(1, 2), (1, 3), (2, 2), (1, 4), (2, 3)]


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
    assert len(calls) <= 6


def test_curve_lives_only_for_the_call(monkeypatch, capsys):
    refs = []
    init = Curve.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append((self.param.tau, weakref.ref(self)))

    monkeypatch.setattr(Curve, "__init__", recording)
    assert main(["verify", "--p", "1", "--q", "2", "--tau", "0.1"]) == 0
    # the call's own curve, plus the fresh tau +/- h neighbours of the
    # finite-difference check
    assert [tau for tau, _ in refs].count(0.1) == 1
    assert all(ref() is None for _, ref in refs)


def test_curve_computes_each_piece_once():
    curve = Curve(TwistParam(AdmissiblePair(2, 3), 0.05))
    assert curve.period is curve.period
    traj = curve.traj(-curve.period.p_tau, curve.period.p_tau)
    assert curve.traj(0.0, 0.5 * curve.period.p_tau) is traj
    wider = curve.traj(0.0, 3.0 * curve.period.p_tau)
    assert wider is not traj and wider.t_lo <= traj.t_lo
    assert curve.Q is curve.Q and curve.Q.period is curve.period


@pytest.mark.parametrize("tau", [0.05, -0.05, 0.0])
@pytest.mark.parametrize("p,q", [(1, 2), (2, 3)])
def test_array_accessors_equal_scalar_ones_bitwise(p, q, tau):
    traj = solve_w(TwistParam(AdmissiblePair(p, q), tau), (-2.5, 3.0))
    ts = np.concatenate([np.linspace(-2.5, 3.0, 37), [0.0]])
    w1, w2 = traj.w(ts)
    undefined = p == 1 and tau == 0.0        # w1 passes through 0 at t = 0
    if undefined:
        for t in (ts, 0.5):
            with pytest.raises(ValueError, match="psi is undefined at tau = 0 for p = 1"):
                traj.psi(t)
    else:
        psi1, psi2 = traj.psi(ts)
    states, ys, ydots = traj.state(ts), traj.y(ts), traj.ydot(ts)
    for i, t in enumerate(ts):
        assert traj.w(t) == (w1[i], w2[i])
        assert undefined or traj.psi(t) == (psi1[i], psi2[i])
        assert traj.y(t) == ys[i] and traj.ydot(t) == ydots[i]
        assert np.array_equal(traj.state(t), states[:, i])
    assert isinstance(traj.w(0.5)[0], complex) and isinstance(traj.y(0.5), float)


def _scalar_scan(h, ta, tb, n=400):
    """The 400-point scan one point at a time, as a reference."""
    ts = np.linspace(ta, tb, n)
    vals = [h(t) for t in ts]
    if vals[0] == 0.0:
        return ta, ta
    for i in range(1, n):
        if vals[i] == 0.0 or np.sign(vals[i]) != np.sign(vals[0]):
            return ts[i - 1], ts[i]
    raise AssertionError("no sign change")


@pytest.mark.parametrize("p,q", PAIRS_N5)
def test_vectorised_grid_bracket_matches_scalar_scan(p, q, monkeypatch):
    events = []
    locate = periods.locate_event

    def recording(traj, g, bracket, g_prime=None):
        events.append((traj, g, bracket))
        return locate(traj, g, bracket, g_prime)

    monkeypatch.setattr(periods, "locate_event", recording)
    pair = AdmissiblePair(p, q)
    for frac in (0.1, 0.5, 0.9):
        periods.period_ode(TwistParam(pair, frac * tau_max(pair)))
    assert len(events) == 3 * (2 if p > 1 else 1)
    for traj, g, (ta, tb) in events:
        vectorised = ode_engine._grid_bracket(lambda ts: g(ts, traj(ts)), ta, tb)
        assert vectorised == _scalar_scan(lambda t: g(t, traj(t)), ta, tb)


@pytest.mark.parametrize("p,q,tau", [(1, 2, 0.1), (2, 2, -0.06)])
def test_array_residuals_match_point_by_point_loops(p, q, tau):
    import sltwist.geometry as geo
    from sltwist.closure import verify_closed

    curve = Curve(TwistParam(AdmissiblePair(p, q), tau))
    data = curve.period
    traj = curve.traj(-2.2 * data.p_tau, 4.0 * data.p_tau + 1e-6)   # all that is read below
    M = np.diag(geo.mhat(curve.param.pair, 2.0 * data.pthat))
    translation = max(np.max(np.abs(np.array(traj.w(t + 2.0 * data.p_tau))
                                    - M @ np.array(traj.w(t))))
                      for t in np.linspace(-0.5 * data.p_tau, 0.5 * data.p_tau, 40))
    closure = max(np.max(np.abs(np.array(traj.w(t + 2.0 * data.p_tau)) - np.array(traj.w(t))))
                  for t in np.linspace(0.0, 2.0 * data.p_tau, 20))
    assert geo.symmetry_residuals(curve)["translation"] == pytest.approx(translation, abs=1e-15)
    assert verify_closed(curve, 1).closure_residual == pytest.approx(closure, abs=1e-15)
