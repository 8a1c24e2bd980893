"""Killing-field fluxes through meridians of the invariant cylinders.

The flux of the Killing field K X of a direction K of su(n), an n x n
matrix, through a meridian is homologically invariant for a minimal
immersion and linear in K and in the conserved label tau; it reads only
K's diagonal, so it is zero on every off-diagonal direction.
On a meridian X = (sigma1 w1, sigma2 w2) with unit vectors sigma1 in S^(p-1)
and sigma2 in S^(q-1), the integrand K X . dX / |dX| is quadratic in sigma,
because |dX|^2 = |d1|^2 |sigma1|^2 + |d2|^2 |sigma2|^2 = |d1|^2 + |d2|^2 is
constant.  Any product sphere rule exact through degree 2 on each factor
therefore gives the exact flux.  `torque`'s default rule, order 4, is the
smallest order that does so and whose circle keeps both reflections
x -> -x and y -> -y (order 3 has no node at -x for its node x): the
flux of R_{0,n-1}, the off-diagonal direction `verify` checks, then sums
to exactly 0.0 at every pair through n = 8, as at order 8, while order 3
leaves it up to 1.0e-16 off zero at 2 of those 15 pairs and order 6 up
to 3.1e-16 at 14.  At n = 8 a meridian has 128 to 256 nodes, against
8,192 to 16,384 at order 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..twisted_curve import TwistParam, TwistTrajectory, _w, velocity
from .immersion import _cone

__all__ = [
    "TorqueReport", "sphere_volume", "sphere_quadrature", "t_generator",
    "rotation_generator", "su_basis", "torque", "torque_closed_form",
]


def sphere_volume(m: int) -> float:
    """Volume (m-dimensional measure) of the unit sphere S^m."""
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def _gegenbauer_rule(k: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """k-point Gauss rule for the weight (1 - u^2)^a on [-1, 1], a > -1/2.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    symmetric recurrence (zero diagonal, off-diagonal sqrt(j (j + 2a) /
    ((2j + 2a)^2 - 1))), the weights mu0 times the squared first eigenvector
    components, mu0 = sqrt(pi) Gamma(a + 1) / Gamma(a + 3/2) the total mass.
    Nodes are made exactly odd and weights exactly even, as scipy's
    ``roots_jacobi`` makes them, and the weights sum to mu0.
    """
    j = np.arange(1, k)
    off = np.sqrt(j * (j + 2 * a) / ((2 * j + 2 * a) ** 2 - 1.0))
    u, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    w = v[0] ** 2
    u, w = (u - u[::-1]) / 2, (w + w[::-1]) / 2
    return u, w * (math.sqrt(math.pi) * math.gamma(a + 1) / math.gamma(a + 1.5) / w.sum())


def _frozen(*arrays) -> tuple[np.ndarray, ...]:
    """The arrays, read-only: a cached rule is shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _layer_nodes(order: int) -> int:
    """Gauss nodes per polar layer of the order-`order` rule: ceil(order / 2)."""
    return (order + 1) // 2


@lru_cache(maxsize=16)
def sphere_quadrature(m: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (N x (m+1)) and weights integrating polynomials on S^m exactly.

    Polar layers use Gauss-Jacobi rules in u = cos(theta) with weight
    (1-u^2)^((m-i-1)/2), absorbing the sine factors of the volume element
    exactly; the azimuthal circle uses the uniform rule on `order` nodes,
    rotated from the first quadrant so that its reflections hold exactly
    (sin(pi) is 0, not 1.2e-16).  The product is exact for every
    polynomial of degree < order: a monomial u^a s^b P(sigma) of it, with
    s = sqrt(1 - u^2) and P of degree b on S^(m-1), is integrated exactly
    in sigma by the sub-rule and is zero there unless b is even, which
    leaves u^a (1 - u^2)^(b/2) of degree a + b < order against the
    layer's weight.  A k-node Gauss rule is exact through degree 2k - 1,
    so k = ceil(order / 2) nodes suffice: order 4 gives S^m
    4 * 2^(m-1) nodes.
    """
    if m == 0:
        return _frozen(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    if m == 1:
        quad, rho = np.divmod(4 * np.arange(order), order)
        step = 0.5 * math.pi / order
        z = np.array([1, 1j, -1, -1j])[quad] * (np.sin((order - rho) * step)
                                                + 1j * np.sin(rho * step))
        return _frozen(np.stack([z.real, z.imag], axis=1), np.full(order, 2.0 * math.pi / order))
    a = (m - 2) / 2.0
    u, wu = _gegenbauer_rule(_layer_nodes(order), a)
    sub_pts, sub_wts = sphere_quadrature(m - 1, order)
    s = np.sqrt(np.maximum(1.0 - u * u, 0.0))
    pts = np.hstack([np.repeat(u, len(sub_wts))[:, None],
                     (s[:, None, None] * sub_pts).reshape(-1, m)])
    return _frozen(pts, np.outer(wu, sub_wts).ravel())


def t_generator(pair) -> np.ndarray:
    """Generator of the diagonal rotation family: i diag(1/p,...,-1/q,...)."""
    return np.diag(1j * np.array((1.0 / pair.p,) * pair.p + (-1.0 / pair.q,) * pair.q))


def rotation_generator(n: int, i: int, j: int) -> np.ndarray:
    """R_ij in su(n): the rotation taking e_i towards e_j, for i != j in [0, n)."""
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"R_ij needs i != j in [0, {n}), not i = {i}, j = {j}")
    K = np.zeros((n, n), dtype=complex)
    K[j, i], K[i, j] = 1.0, -1.0
    return K


def su_basis(n: int) -> list[np.ndarray]:
    """A full basis of su(n): n-1 diagonal plus all R_ij and i S_ij."""
    e = np.eye(n)
    out = [np.diag(1j * (e[i] - e[i + 1])) for i in range(n - 1)]
    for i in range(n):
        for j in range(i + 1, n):
            S = np.zeros((n, n), dtype=complex)
            S[i, j] = S[j, i] = 1j
            out += [rotation_generator(n, i, j), S]
    return out


@dataclass(frozen=True)
class TorqueReport:
    """Numeric vs closed-form meridian flux of one su(n) direction."""

    meridian_t: float
    numeric: float
    closed_form: float
    abs_error: float


def torque_closed_form(param: TwistParam, K: np.ndarray) -> float:
    """Flux predicted by the invariant-theory formula, a linear functional of K.

    Only the diagonal i diag(lam, mu) of K contributes: 2 tau (mean lam -
    mean mu) Vol(S^(p-1)) Vol(S^(q-1)) for p > 1 and 2 tau (lam - mean mu)
    Vol(S^(q-1)) for p = 1, so every off-diagonal direction gives zero.
    """
    p, q = param.pair.p, param.pair.q
    lam = K.diagonal().imag.tolist()
    flux = 2.0 * param.tau * (sum(lam[:p]) / p - sum(lam[p:]) / q)
    if p > 1:                           # for p = 1 the first factor is the point 1
        flux *= sphere_volume(p - 1)
    return flux * sphere_volume(q - 1) + 0.0       # + 0.0: a zero flux is +0


@lru_cache(maxsize=4)
def _meridian_nodes(p: int, q: int, order: int):
    """Unit-sphere node blocks (sigma1 | sigma2), product weights; sigma1 = 1 if p = 1."""
    pts1, wts1 = (np.ones((1, 1)), np.ones(1)) if p == 1 else sphere_quadrature(p - 1, order)
    pts2, wts2 = sphere_quadrature(q - 1, order)
    blocks = np.hstack([np.repeat(pts1, len(wts2), axis=0), np.tile(pts2, (len(wts1), 1))])
    return _frozen(blocks, np.outer(wts1, wts2).ravel())


def torque(curve: TwistTrajectory, K: np.ndarray, meridian_t: float = 0.0,
           order: int = 4) -> list[TorqueReport]:
    """Numeric flux of K in su(n) (to 1e-12) through the meridian at time meridian_t.

    Integrates (K X . dX/dt / |dX/dt|) against the induced meridian
    volume |w1|^(p-1) |w2|^(q-1) dv dv by product sphere quadrature; w is
    read off the integrated endpoint at meridian_t, not the dense output, and
    at meridian 0 it is the curve's anchor, its initial state.
    ``K`` is a k x n x n stack of directions, which gives a list of k
    :class:`TorqueReport`, each integrated over one meridian, built once.
    """
    param = curve.param
    pair = param.pair
    p, q, n = pair.p, pair.q, pair.n
    Ks = np.asarray(K)
    if (Ks.ndim != 3 or Ks.shape[1:] != (n, n)
            or np.abs(Ks + Ks.conj().swapaxes(-1, -2)).max() > 1e-12
            or np.abs(np.trace(Ks, axis1=-2, axis2=-1)).max() > 1e-12):
        raise ValueError(f"K must be a stack of anti-Hermitian traceless {n} x {n} matrices")
    w1, w2 = _w(curve.trajectory.endpoint(meridian_t)).tolist()
    d1, d2 = velocity(pair, w1, w2)
    sigma, wts = _meridian_nodes(p, q, order)
    X = _cone(w1, w2, sigma[:, :p], sigma[:, p:])       # (N, n) complex meridian points
    dX = _cone(d1, d2, sigma[:, :p], sigma[:, p:])
    speed = np.sqrt(np.sum(dX.real**2 + dX.imag**2, axis=1))
    density = abs(w1) ** (p - 1) * abs(w2) ** (q - 1)
    reports = []
    for k in Ks:
        KX = X @ k.T
        pairing = np.sum(KX.real * dX.real + KX.imag * dX.imag, axis=1)
        total = float(np.sum(wts * pairing / speed) * density)
        closed = torque_closed_form(param, k)
        reports.append(TorqueReport(meridian_t=float(meridian_t),
                                    numeric=total, closed_form=float(closed),
                                    abs_error=float(abs(total - closed))))
    return reports
