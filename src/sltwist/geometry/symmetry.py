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
    with e^{i psi} = (w/|w|) / (w(0)/|w(0)|), w at an integration endpoint
    on the trajectory and w(0) its anchor.
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
    w, w0 = _w(curve.trajectory.endpoint(t_ref)), _w(curve.trajectory.endpoint(0.0))
    return np.exp(1j * a / np.array([pair.p, pair.q])) * (w / abs(w)) / (w0 / abs(w0))


def _cabs(z) -> np.ndarray:
    """|z| of a complex array as a complex scalar's abs gives it (hypot), bit for bit:
    numpy's vectorised complex abs differs from it in the last bit now and then."""
    return np.hypot(z.real, z.imag)


def rotation_determinant_residual(pair) -> float:
    """max |det_C - 1| of the n x n block rotations Ttilde_x at 20 random x in [-20, 20]."""
    xs = np.random.default_rng(0).uniform(-20.0, 20.0, 20)
    # det of the matrices, a route of its own, not the product of the phases
    T = np.stack([np.diag(ttilde(pair, x)) for x in xs.tolist()])
    return float(np.max(_cabs(np.linalg.det(T) - 1.0)))


def _omega_residual(pair, d: np.ndarray) -> float:
    """Residual of pulling the holomorphic volume form back to -conj.

    An antiholomorphic reflection A(z) = D conj(z), D = diag(d1 Id_p, d2 Id_q)
    from the phases ``d`` = (d1, d2), satisfies A* Omega = det(D) conj(Omega)
    on frames; the reflections of the invariant cylinders have det(D) = -1.
    Evaluates the max of |det_C(A V) + conj(det_C(V))| / |det_C(V)|, which
    is |det D + 1|, over 10 random complex Gaussian frames V, each drawn real
    part first; dividing by |det V| keeps the frames' random volume out of
    the residual.
    """
    n = pair.n
    D = np.diag(_blocks(pair, *d))
    g = np.random.default_rng(1).standard_normal((10, 2, n, n))
    V = g[:, 0] + 1j * g[:, 1]
    det_v = np.linalg.det(V)
    return float(np.max(_cabs(np.linalg.det(D @ np.conj(V)) + np.conj(det_v)) / _cabs(det_v)))


def symmetry_residuals(curve: TwistTrajectory) -> dict[str, float]:
    """Pointwise residuals of the discrete symmetry relations, each at 40 times.

    Keys: 'translation' for w(t + 2 p_tau) = Mhat_{2 pthat} w(t); the
    reflection relations ('reflection', 'reflection_ptau' for p = 1;
    'reflection_plus', 'reflection_minus' for p > 1); 'exchange' for the
    p = q swap w1(-t) = w2(t); 'det_rotation' and 'omega_reflection' for
    the checks on the n x n matrices.  Accepts both signs of tau.  Every
    time set of the relations is read off the curve in one call.
    """
    pair, data = curve.param.pair, curve.period
    p, q = pair.p, pair.q
    ptau, phat = data.p_tau, data.pthat
    samples = 40
    M = mhat(pair, 2.0 * phat)[:, None]

    def gap(a, b) -> float:
        return float(np.max(np.abs(a - b)))

    # the time sets, 40 times each: translation, then the reflections' own
    half = np.linspace(-0.5 * ptau, 0.5 * ptau, samples)
    if p == 1:
        ts = np.linspace(0.0, 1.4 * ptau, samples)
        sets = [half + 2.0 * ptau, half, ts, -ts, 2.0 * ptau - ts]
    else:
        ts = np.linspace(-0.9 * ptau, 0.9 * ptau, samples)
        sets = [half + 2.0 * ptau, half, ts, 2.0 * data.p_plus - ts, -2.0 * data.p_minus - ts]
        if p == q:
            ex = np.linspace(0.0, 1.5 * ptau, samples)
            sets += [-ex, ex]
    w = curve.w(np.concatenate(sets)).reshape(2, len(sets), samples).swapaxes(0, 1)

    out: dict[str, float] = {"translation": gap(w[0], M * w[1])}
    Dp = reflection_phases(curve, "+")
    conj = np.conj(w[2])
    if p == 1:
        refl = Dp[:, None] * conj
        out["reflection"] = gap(w[3], refl)
        out["reflection_ptau"] = gap(w[4], M * refl)
    else:
        Dm = reflection_phases(curve, "-")
        out["reflection_plus"] = gap(w[3], Dp[:, None] * conj)
        out["reflection_minus"] = gap(w[4], Dm[:, None] * conj)
        if p == q:
            out["exchange"] = gap(w[5], w[6][::-1])

    out["det_rotation"] = rotation_determinant_residual(pair)
    out["omega_reflection"] = _omega_residual(pair, Dp)
    return out
