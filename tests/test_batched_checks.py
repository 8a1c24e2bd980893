"""verify's checks evaluate their points in one array pass each; the loops they
replaced are kept here as references, and each batch must equal its loop bit
for bit: the finite-difference tangents direction by direction, the drift state
by state in CPython arithmetic, the symmetry relations one read per time set,
and the flux one meridian per direction.  The functions of a curve state give
a state read alone the bits it gets in a batch."""

import numpy as np
import pytest

import sltwist.geometry as geo
import sltwist.ode_engine as ode_engine
from sltwist.geometry.immersion import _FD_STEP, _cone, _frame
from sltwist.geometry.symmetry import _omega_residual, rotation_determinant_residual
from sltwist.geometry.torque import _meridian_nodes
from sltwist.ode_engine import Tolerances
from sltwist.twisted_curve import (AdmissiblePair, TwistParam, TwistTrajectory, _invariants, _w,
                                   _y, _ydot, f_poly, f_prime, initial_state, tau_max, velocity)

PAIRS = [(1, 2), (2, 2), (2, 3), (3, 4), (3, 5), (4, 4), (1, 7)]
CASES = [(p, q, sign * frac) for p, q in PAIRS for frac in (0.3, 1e-3) for sign in (1.0, -1.0)]


def _bits(value):
    return np.asarray(value, dtype=float).view(np.int64)


def _case(p, q, frac):
    """The curve at ``frac`` tau_max and verify's immersion sampler over +-0.8 p_tau."""
    pair = AdmissiblePair(p, q)
    curve = TwistTrajectory(TwistParam(pair, frac * tau_max(pair)), Tolerances())
    box = (-0.8 * curve.period.p_tau, 0.8 * curve.period.p_tau)
    return curve, geo.immersion_sampler(curve, box)


# -- references: the loops the batches replaced ----------------------------------


def _tangents_reference(sampler, u):
    """Tangents (..., m, dim), one chart direction and one sampler call per offset."""
    cols = []
    for e in _FD_STEP * np.eye(sampler.dim):
        cols.append((-sampler(u + 2 * e) + 8 * sampler(u + e)
                     - 8 * sampler(u - e) + sampler(u - 2 * e)) / (12 * _FD_STEP))
    return np.stack(cols, axis=-1)


def _legendrian_reference(sampler, count, seed):
    u = sampler.sample_points(count, seed)
    z = sampler(u)[..., None, :]
    T = np.ascontiguousarray(np.swapaxes(_tangents_reference(sampler, u), -1, -2))
    nrm = np.sqrt(np.sum(T.real**2 + T.imag**2, axis=-1))
    ok = nrm > 0
    return float(np.max(np.abs(geo.contact_pairing(z, T))[ok] / nrm[ok], initial=0.0))


def _phase_reference(sampler, u):
    z, T = sampler(u), _tangents_reference(sampler, u)
    det = np.linalg.det(np.column_stack([z, T]))
    return complex(det / abs(det))


def _drift_reference(curve, window):
    """I1 and I2 state by state over +-window, in CPython float and complex arithmetic."""
    pair, states = curve.param.pair, curve.trajectory.steps(-window, window)[1].tolist()
    i1 = np.array([s[0] ** 2 + s[1] ** 2 + s[2] ** 2 + s[3] ** 2 for s in states])
    i2 = np.array([(complex(s[0], s[1]) ** pair.p * complex(s[2], s[3]) ** pair.q).imag
                   for s in states])
    return i1, i2, {"I1": float(np.max(np.abs(i1 - 1.0))),
                    "I2": float(np.max(np.abs(i2 + 2.0 * curve.param.tau)))}


def _assert_drift_equals_its_loop(curve, window):
    i1, i2, drift = _drift_reference(curve, window)
    batch = _invariants(curve.param.pair, curve.trajectory.steps(-window, window)[1].T)
    assert np.array_equal(batch[0], i1) and np.array_equal(batch[1], i2)
    assert curve.drift(window) == drift


def _symmetry_reference(curve):
    """The relations with one curve read per time set, the matrices one at a time."""
    pair, data = curve.param.pair, curve.period
    p, q, ptau = pair.p, pair.q, data.p_tau
    M = geo.mhat(pair, 2.0 * data.pthat)[:, None]

    def w(t):
        return np.array(curve.w(t))

    def gap(a, b):
        return float(np.max(np.abs(a - b)))

    out = {}
    ts = np.linspace(-0.5 * ptau, 0.5 * ptau, 40)
    out["translation"] = gap(w(ts + 2.0 * ptau), M * w(ts))
    Dp = geo.reflection_phases(curve, "+")
    if p == 1:
        ts = np.linspace(0.0, 1.4 * ptau, 40)
        refl = Dp[:, None] * np.conj(w(ts))
        out["reflection"] = gap(w(-ts), refl)
        out["reflection_ptau"] = gap(w(2.0 * ptau - ts), M * refl)
    else:
        Dm = geo.reflection_phases(curve, "-")
        ts = np.linspace(-0.9 * ptau, 0.9 * ptau, 40)
        conj = np.conj(w(ts))
        out["reflection_plus"] = gap(w(2.0 * data.p_plus - ts), Dp[:, None] * conj)
        out["reflection_minus"] = gap(w(-2.0 * data.p_minus - ts), Dm[:, None] * conj)
        if p == q:
            ts = np.linspace(0.0, 1.5 * ptau, 40)
            out["exchange"] = gap(w(-ts), w(ts)[::-1])
    out["det_rotation"] = _rotation_det_reference(pair)
    out["omega_reflection"] = _omega_reference(pair, Dp)
    return out


def _rotation_det_reference(pair):
    rng = np.random.default_rng(0)
    res = 0.0
    for _ in range(20):
        x = float(rng.uniform(-20.0, 20.0))
        res = max(res, abs(np.linalg.det(np.diag(geo.ttilde(pair, x))) - 1.0))
    return float(res)


def _omega_reference(pair, d):
    D = np.diag(np.repeat(d, [pair.p, pair.q]))
    rng = np.random.default_rng(1)
    res = 0.0
    for _ in range(10):
        V = rng.standard_normal((pair.n, pair.n)) + 1j * rng.standard_normal((pair.n, pair.n))
        det_v = np.linalg.det(V)
        res = max(res, abs(np.linalg.det(D @ np.conj(V)) + np.conj(det_v)) / abs(det_v))
    return float(res)


def _torque_reference(curve, K, meridian_t):
    """The flux of one direction over a meridian built for it alone."""
    pair = curve.param.pair
    p, q = pair.p, pair.q
    state = (curve.trajectory.endpoint(meridian_t) if meridian_t != 0.0
             else initial_state(curve.param))
    w1, w2 = _w(state).tolist()
    d1, d2 = velocity(pair, w1, w2)
    sigma, wts = _meridian_nodes(p, q, 4)
    X = _cone(w1, w2, sigma[:, :p], sigma[:, p:])
    dX = _cone(d1, d2, sigma[:, :p], sigma[:, p:])
    KX = X @ K.T
    pairing = np.sum(KX.real * dX.real + KX.imag * dX.imag, axis=1)
    speed = np.sqrt(np.sum(dX.real**2 + dX.imag**2, axis=1))
    density = abs(w1) ** (p - 1) * abs(w2) ** (q - 1)
    return float(np.sum(wts * pairing / speed) * density)


# -- the batches against them ----------------------------------------------------


@pytest.mark.parametrize("p,q,frac", CASES)
def test_batched_checks_equal_their_loops(p, q, frac):
    curve, sampler = _case(p, q, frac)
    # (a) one sampler call per frame
    u = sampler.sample_points(20, seed=5)
    z, T = _frame(sampler, u)
    assert np.array_equal(z, sampler(u))
    assert np.array_equal(np.swapaxes(T, -1, -2), _tangents_reference(sampler, u))
    assert geo.legendrian_residual(sampler, 100) == _legendrian_reference(sampler, 100, 0)
    # (b) the drift over the state arrays
    _assert_drift_equals_its_loop(curve, 10.0 * curve.period.p_tau)
    # (c) one read for every time set, stacked determinants
    assert geo.symmetry_residuals(curve) == _symmetry_reference(curve)
    # (d) one meridian for every direction
    n = p + q
    coeffs = np.random.default_rng(n).standard_normal(n * n - 1)
    Ks = [geo.t_generator(curve.param.pair), geo.rotation_generator(n, 0, n - 1),
          sum(c * B for c, B in zip(coeffs, geo.su_basis(n)))]
    for t in (0.0, 0.3):
        reports = geo.torque(curve, Ks, meridian_t=t)
        assert [r.numeric for r in reports] == [_torque_reference(curve, K, t) for K in Ks]
        assert reports == [geo.torque(curve, [K], meridian_t=t)[0] for K in Ks]


@pytest.mark.parametrize("p,q", [(1, 2), (2, 3), (3, 4)])
def test_drift_at_tau_zero_equals_its_loop(p, q):
    curve = TwistTrajectory(TwistParam(AdmissiblePair(p, q), 0.0), Tolerances())
    _assert_drift_equals_its_loop(curve, 3.0)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 4), (1, 7)])
def test_state_functions_read_a_state_alone_as_in_the_batch(p, q, sign):
    # events and Q's initial state read one state; the energy, Wronskian and psi
    # rows read arrays of them.  Over dense reads, nodes, 0.0 and -0.0, of w and
    # of (w, Q, Q'), and psi over the same times
    pair = AdmissiblePair(p, q)
    curve = TwistTrajectory(TwistParam(pair, sign * 0.3 * tau_max(pair)), Tolerances())
    ts = np.concatenate([np.linspace(-3.0, 3.0, 61), [0.0, -0.0]])
    reads = [_y, lambda s: _ydot(pair, s), lambda s: f_poly(pair, _y(s)),
             lambda s: f_prime(pair, _y(s)), lambda s: _invariants(pair, s[:4])]
    for s in (curve.state(ts), curve.trajectory.states.T, curve.Q(ts), curve.Q.states.T):
        for read in reads:
            assert np.array_equal(_bits(read(s)), _bits(np.stack([read(c) for c in s.T], -1)))
    ts = np.concatenate([ts, curve.trajectory.time_grid])
    alone = np.stack([np.concatenate(curve.psi(ts[j:j + 1])) for j in range(len(ts))], -1)
    assert np.array_equal(_bits(curve.psi(ts)), _bits(alone))


@pytest.mark.parametrize("p,q", PAIRS)
def test_matrix_checks_equal_their_loops(p, q):
    # a reflection phase pair of no cylinder, beside the ones the cases above use
    pair = AdmissiblePair(p, q)
    assert rotation_determinant_residual(pair) == _rotation_det_reference(pair)
    d = np.exp(1j * np.array([0.3, -1.1]))
    assert _omega_residual(pair, d) == _omega_reference(pair, d)


def test_equatorial_factor_and_phase_frames_equal_their_loops():
    eq = geo.equatorial_factor(4)
    u = eq.sample_points(5, seed=2)
    z, T = _frame(eq, u)
    assert np.array_equal(z, eq(u))
    assert np.array_equal(np.swapaxes(T, -1, -2), _tangents_reference(eq, u))
    assert geo.legendrian_residual(eq, 5) == _legendrian_reference(eq, 5, 0)
    curve, sampler = _case(2, 3, 0.3)
    for ui in sampler.sample_points(5, seed=4):
        assert geo.lagrangian_phase(sampler, ui) == _phase_reference(sampler, ui)
    for ui in u:
        assert geo.lagrangian_phase(eq, ui) == _phase_reference(eq, ui)


@pytest.mark.parametrize("p,q,tau", [(1, 2, 0.0), (1, 3, 0.05), (2, 3, -0.05), (3, 4, 0.01)])
def test_meridian_zero_and_reflection_phases_read_the_anchor(p, q, tau, monkeypatch):
    # w(0) is the trajectory's anchor, read with no dense output: the flux at
    # meridian 0 is the one over a meridian built on initial_state, bit for bit
    curve = TwistTrajectory(TwistParam(AdmissiblePair(p, q), tau), Tolerances())
    if tau:
        assert curve.period.p_tau > 0.0             # its reads made before the patch

    def refusing(self, t):
        raise AssertionError("a dense read of the trajectory")

    monkeypatch.setattr(ode_engine.Trajectory, "__call__", refusing)
    n = p + q
    for K in (geo.t_generator(curve.param.pair), geo.rotation_generator(n, 0, n - 1)):
        assert np.array_equal(_bits(geo.torque(curve, [K])[0].numeric),
                              _bits(_torque_reference(curve, K, 0.0)))
    if tau:
        for side in "+-":
            assert np.all(np.isfinite(geo.reflection_phases(curve, side)))
