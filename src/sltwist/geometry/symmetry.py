"""Discrete symmetry relations of the twisted curves and their matrices.

The one-period translation acts by the diagonal rotation
Mhat_x = diag(e^{ix/p}, e^{-ix/q}); reflections act antiholomorphically
with phases read off arg w.  All relations are verified
by comparing independently integrated trajectory values, never by
construction.
"""

from __future__ import annotations

import numpy as np

from ..curve import Curve
from ..twisted_curve import alpha_tau, tau_max

__all__ = [
    "mhat", "ttilde", "reflection_matrix", "symmetry_residuals",
    "rotation_determinant_residual", "holomorphic_volume_reflection_residual",
]


def mhat(pair, x: float) -> np.ndarray:
    """Diagonal rotation diag(e^{ix/p}, e^{-ix/q}) acting on (w1, w2)."""
    return np.diag([np.exp(1j * x / pair.p), np.exp(-1j * x / pair.q)])


def ttilde(pair, x: float) -> np.ndarray:
    """Block rotation diag(e^{ix/p} Id_p, e^{-ix/q} Id_q) in SU(n)."""
    phases = [np.exp(1j * x / pair.p)] * pair.p + [np.exp(-1j * x / pair.q)] * pair.q
    return np.diag(phases)


def reflection_matrix(curve: Curve, side: str = "+") -> np.ndarray:
    """Diagonal phase factor D of the antiholomorphic reflection w -> D conj(w).

    p = 1: D = diag(-1, 1).  p > 1: D has entries
    e^{i alpha/p + i psi1(2 p+-)} and e^{i alpha/q + i psi2(2 p+-)}
    with e^{i psi} = (w/|w|) / (w(0)/|w(0)|) at an integration endpoint
    on the trajectory.
    """
    param = curve.param
    pair = param.pair
    if pair.p == 1:
        return np.diag([-1.0 + 0.0j, 1.0 + 0.0j])
    a = alpha_tau(param)
    data = curve.period
    t_ref = 2.0 * data.p_plus if side == "+" else -2.0 * data.p_minus
    traj = curve.traj(t_ref, t_ref)
    s = traj.trajectory.endpoint(t_ref)
    w, w0 = s[0::2] + 1j * s[1::2], np.array(traj.w(0.0))
    return np.diag(np.exp(1j * a / np.array([pair.p, pair.q])) * (w / abs(w)) / (w0 / abs(w0)))


def rotation_determinant_residual(pair) -> float:
    """max |det_C - 1| of the block rotations Ttilde_x at 20 random x in [-20, 20]."""
    rng = np.random.default_rng(0)
    res = 0.0
    for _ in range(20):
        x = float(rng.uniform(-20.0, 20.0))
        res = max(res, abs(np.linalg.det(ttilde(pair, x)) - 1.0))
    return res


def holomorphic_volume_reflection_residual(curve: Curve) -> float:
    """Residual of pulling the holomorphic volume form back to -conj.

    An antiholomorphic reflection A(z) = D conj(z) satisfies
    A* Omega = det(D) conj(Omega) on frames; the reflections of the
    invariant cylinders have det(D) = -1.  Evaluates
    |det_C([A v_1 ... A v_n]) + conj(det_C([v_1 ... v_n]))| on 10 random
    complex frames.
    """
    return _omega_residual(curve.param.pair, reflection_matrix(curve, "+"))


def _omega_residual(pair, small: np.ndarray) -> float:
    """The residual above for the "+" reflection factor ``small`` (2 x 2)."""
    n = pair.n
    D = np.diag([small[0, 0]] * pair.p + [small[1, 1]] * pair.q)
    rng = np.random.default_rng(1)
    res = 0.0
    for _ in range(10):
        V = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        AV = D @ np.conj(V)
        res = max(res, abs(np.linalg.det(AV) + np.conj(np.linalg.det(V))))
    return res


def symmetry_residuals(curve: Curve) -> dict[str, float]:
    """Pointwise residuals of the discrete symmetry relations, each at 40 times.

    Keys: 'translation' for w(t + 2 p_tau) = Mhat_{2 pthat} w(t); the
    reflection relations ('reflection', 'reflection_ptau' for p = 1;
    'reflection_plus', 'reflection_minus' for p > 1); 'exchange' for the
    p = q swap w1(-t) = w2(t); 'det_rotation' and 'omega_reflection' for
    the matrix-level checks.  Accepts both signs of tau.
    """
    param = curve.param
    pair, tau = param.pair, param.tau
    if not 0.0 < abs(tau) < tau_max(pair):
        raise ValueError("symmetry check requires 0 < |tau| < tau_max")
    data = curve.period
    p, q = pair.p, pair.q
    ptau, phat = data.p_tau, data.pthat
    samples = 40
    traj = curve.traj(-2.2 * ptau, 3.2 * ptau)
    M = np.diag(mhat(pair, 2.0 * phat))[:, None]

    def w(t):
        return np.array(traj.w(t))           # 2 x len

    def gap(a, b) -> float:
        return float(np.max(np.abs(a - b)))

    out: dict[str, float] = {}
    ts = np.linspace(-0.5 * ptau, 0.5 * ptau, samples)
    out["translation"] = gap(w(ts + 2.0 * ptau), M * w(ts))

    Dp = reflection_matrix(curve, "+")
    if p == 1:
        C = np.diag(Dp)[:, None]
        ts = np.linspace(0.0, 1.4 * ptau, samples)
        refl = C * np.conj(w(ts))
        out["reflection"] = gap(w(-ts), refl)
        out["reflection_ptau"] = gap(w(2.0 * ptau - ts), M * refl)
    else:
        Cp = np.diag(Dp)[:, None]
        Cm = np.diag(reflection_matrix(curve, "-"))[:, None]
        ts = np.linspace(-0.9 * ptau, 0.9 * ptau, samples)
        conj = np.conj(w(ts))
        out["reflection_plus"] = gap(w(2.0 * data.p_plus - ts), Cp * conj)
        out["reflection_minus"] = gap(w(-2.0 * data.p_minus - ts), Cm * conj)
        if p == q:
            ts = np.linspace(0.0, 1.5 * ptau, samples)
            out["exchange"] = gap(w(-ts), w(ts)[::-1])

    out["det_rotation"] = rotation_determinant_residual(pair)
    out["omega_reflection"] = _omega_residual(pair, Dp)
    return out
