"""Discrete symmetry relations of the twisted curves and their phases.

Every symmetry here is diagonal, so each is represented by its diagonal:
the one-period translation acts on (w1, w2) by the phases
Mhat_x = (e^{ix/p}, e^{-ix/q}), and the reflections act
antiholomorphically, w -> D conj(w), with the phases D read off arg w.
The relations are verified by comparing integrated trajectory values, with
one exception made by construction: for p = 1 the backward half of the
curve is its forward half mirrored by ``twisted_curve._REVERSAL``, so the
'reflection' row w(-t) = D conj(w(t)) checks only that this sign vector is
the reflection whose phases :func:`reflection_phases` writes down apart,
D = (-1, 1).  It reads 0, and a mirror that is some other reflection fails it.
"""

from __future__ import annotations

import numpy as np

from ..twisted_curve import TwistTrajectory, _w, alpha_tau

__all__ = [
    "mhat", "ttilde", "reflection_phases", "symmetry_residuals",
    "rotation_determinant_residual",
]


def _blocks(pair, a, b) -> np.ndarray:
    """The diagonal of diag(a Id_p, b Id_q): a p times, then b q times."""
    return np.repeat([a, b], [pair.p, pair.q])


def mhat(pair, x: float) -> np.ndarray:
    """Phases (e^{ix/p}, e^{-ix/q}) of the diagonal rotation of (w1, w2)."""
    return np.array([np.exp(1j * x / pair.p), np.exp(-1j * x / pair.q)])


def ttilde(pair, x: float) -> np.ndarray:
    """Diagonal of the block rotation diag(e^{ix/p} Id_p, e^{-ix/q} Id_q) in SU(n)."""
    return _blocks(pair, *mhat(pair, x))


def reflection_phases(curve: TwistTrajectory, side: str) -> np.ndarray:
    """Phases D = (d1, d2) of the antiholomorphic reflection w -> D conj(w).

    ``side`` is "+" or "-".  p = 1: D = (-1, 1), on either side.  p > 1:
    D = (e^{i alpha/p + i psi1(2 p+-)}, e^{i alpha/q + i psi2(2 p+-)})
    with e^{i psi} = (w/|w|) / (w(0)/|w(0)|) at an integration endpoint
    on the trajectory.
    """
    if side not in ("+", "-"):
        raise ValueError(f"side must be '+' or '-', not {side!r}")
    param = curve.param
    pair = param.pair
    if pair.p == 1:
        return np.array([-1.0 + 0.0j, 1.0 + 0.0j])
    a = alpha_tau(param)
    data = curve.period
    t_ref = 2.0 * data.p_plus if side == "+" else -2.0 * data.p_minus
    w, w0 = _w(curve.trajectory.endpoint(t_ref)), np.array(curve.w(0.0))
    return np.exp(1j * a / np.array([pair.p, pair.q])) * (w / abs(w)) / (w0 / abs(w0))


def rotation_determinant_residual(pair) -> float:
    """max |det_C - 1| of the n x n block rotations Ttilde_x at 20 random x in [-20, 20]."""
    rng = np.random.default_rng(0)
    res = 0.0
    for _ in range(20):
        x = float(rng.uniform(-20.0, 20.0))
        # det of the matrix, a route of its own, not the product of the phases
        res = max(res, abs(np.linalg.det(np.diag(ttilde(pair, x))) - 1.0))
    return float(res)


def _omega_residual(pair, d: np.ndarray) -> float:
    """Residual of pulling the holomorphic volume form back to -conj.

    An antiholomorphic reflection A(z) = D conj(z), D = diag(d1 Id_p, d2 Id_q)
    from the phases ``d`` = (d1, d2), satisfies A* Omega = det(D) conj(Omega)
    on frames; the reflections of the invariant cylinders have det(D) = -1.
    Evaluates the max of |det_C(A V) + conj(det_C(V))| / |det_C(V)|, which
    is |det D + 1|, over 10 random complex Gaussian frames V; dividing by
    |det V| keeps the frames' random volume out of the residual.
    """
    n = pair.n
    D = np.diag(_blocks(pair, *d))
    rng = np.random.default_rng(1)
    res = 0.0
    for _ in range(10):
        V = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        det_v = np.linalg.det(V)
        res = max(res, abs(np.linalg.det(D @ np.conj(V)) + np.conj(det_v)) / abs(det_v))
    return float(res)


def symmetry_residuals(curve: TwistTrajectory) -> dict[str, float]:
    """Pointwise residuals of the discrete symmetry relations, each at 40 times.

    Keys: 'translation' for w(t + 2 p_tau) = Mhat_{2 pthat} w(t); the
    reflection relations ('reflection', 'reflection_ptau' for p = 1;
    'reflection_plus', 'reflection_minus' for p > 1); 'exchange' for the
    p = q swap w1(-t) = w2(t); 'det_rotation' and 'omega_reflection' for
    the checks on the n x n matrices.  Accepts both signs of tau.
    """
    pair, data = curve.param.pair, curve.period
    p, q = pair.p, pair.q
    ptau, phat = data.p_tau, data.pthat
    samples = 40
    M = mhat(pair, 2.0 * phat)[:, None]

    def w(t):
        return np.array(curve.w(t))     # 2 x len

    def gap(a, b) -> float:
        return float(np.max(np.abs(a - b)))

    out: dict[str, float] = {}
    ts = np.linspace(-0.5 * ptau, 0.5 * ptau, samples)
    out["translation"] = gap(w(ts + 2.0 * ptau), M * w(ts))

    Dp = reflection_phases(curve, "+")
    if p == 1:
        ts = np.linspace(0.0, 1.4 * ptau, samples)
        refl = Dp[:, None] * np.conj(w(ts))
        out["reflection"] = gap(w(-ts), refl)
        out["reflection_ptau"] = gap(w(2.0 * ptau - ts), M * refl)
    else:
        Dm = reflection_phases(curve, "-")
        ts = np.linspace(-0.9 * ptau, 0.9 * ptau, samples)
        conj = np.conj(w(ts))
        out["reflection_plus"] = gap(w(2.0 * data.p_plus - ts), Dp[:, None] * conj)
        out["reflection_minus"] = gap(w(-2.0 * data.p_minus - ts), Dm[:, None] * conj)
        if p == q:
            ts = np.linspace(0.0, 1.5 * ptau, samples)
            out["exchange"] = gap(w(-ts), w(ts)[::-1])

    out["det_rotation"] = rotation_determinant_residual(pair)
    out["omega_reflection"] = _omega_residual(pair, Dp)
    return out
