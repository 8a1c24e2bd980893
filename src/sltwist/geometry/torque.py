"""Killing-field fluxes through meridians of the invariant cylinders.

The flux of a Killing field k through a meridian is homologically
invariant for a minimal immersion, linear in the conserved label tau on
diagonal directions of su(n), and zero on every off-diagonal direction.
On a meridian X = (sigma1 w1, sigma2 w2) with unit vectors sigma1 in S^(p-1)
and sigma2 in S^(q-1), the integrand K X . dX / |dX| is quadratic in sigma,
because |dX|^2 = |d1|^2 |sigma1|^2 + |d2|^2 |sigma2|^2 = |d1|^2 + |d2|^2 is
constant.  Any product sphere rule exact through degree 2 on each factor
therefore gives the exact flux; the default rule (order 8) is exact
through degree 7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..curve import Curve
from ..twisted_curve import TwistParam, velocity
from .immersion import _cone

__all__ = [
    "SuBasisElement", "TorqueReport", "sphere_volume", "sphere_quadrature",
    "su_matrix", "t_generator", "diagonal_basis_element", "torque",
    "torque_closed_form", "su_basis",
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


@lru_cache(maxsize=16)
def sphere_quadrature(m: int, order: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (N x (m+1)) and weights integrating polynomials on S^m exactly.

    Polar layers use Gauss-Jacobi rules in u = cos(theta) with weight
    (1-u^2)^((m-i-1)/2), absorbing the sine factors of the volume element
    exactly; the azimuthal circle uses the uniform rule on `order` nodes,
    rotated from the first quadrant so that its reflections hold exactly
    (sin(pi) is 0, not 1.2e-16).  The product is exact for every
    polynomial of degree < order: the default order 8 covers the
    quadratic integrand of :func:`torque` (|dX| is constant on a
    meridian) and degree-4 moments, in 8^m nodes.
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
    u, wu = _gegenbauer_rule(order // 2 + 4, a)
    sub_pts, sub_wts = sphere_quadrature(m - 1, order)
    s = np.sqrt(np.maximum(1.0 - u * u, 0.0))
    pts = np.hstack([np.repeat(u, len(sub_wts))[:, None],
                     (s[:, None, None] * sub_pts).reshape(-1, m)])
    return _frozen(pts, np.outer(wu, sub_wts).ravel())


@dataclass(frozen=True)
class SuBasisElement:
    """A direction in su(n): traceless diagonal, rotation, or i*symmetric."""

    kind: str                              # 'diagonal' | 'rotation' | 'symmetric'
    entries: tuple | None = None           # diagonal entries (imaginary parts)
    indices: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind == "diagonal":
            if self.entries is None:
                raise ValueError("diagonal element needs entries")
            if abs(sum(self.entries)) > 1e-12:
                raise ValueError("diagonal entries must sum to zero (traceless)")
        elif self.kind in ("rotation", "symmetric"):
            if self.indices is None or self.indices[0] == self.indices[1]:
                raise ValueError(f"{self.kind} element needs distinct indices")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")


def su_matrix(element: SuBasisElement, n: int) -> np.ndarray:
    """The complex n x n matrix of the basis element."""
    K = np.zeros((n, n), dtype=complex)
    if element.kind == "diagonal":
        if len(element.entries) != n:
            raise ValueError("diagonal length must equal n")
        np.fill_diagonal(K, 1j * np.asarray(element.entries, dtype=float))
    elif element.kind == "rotation":
        i, j = element.indices
        K[j, i] = 1.0
        K[i, j] = -1.0
    else:
        i, j = element.indices
        K[j, i] = 1j
        K[i, j] = 1j
    return K


def t_generator(pair) -> SuBasisElement:
    """Generator of the diagonal rotation family: i diag(1/p,...,-1/q,...)."""
    return SuBasisElement(kind="diagonal",
                          entries=(1.0 / pair.p,) * pair.p + (-1.0 / pair.q,) * pair.q)


def diagonal_basis_element(entries) -> SuBasisElement:
    return SuBasisElement(kind="diagonal", entries=tuple(entries))


def su_basis(n: int) -> list[SuBasisElement]:
    """A full basis of su(n): n-1 diagonal plus all R_ij and i S_ij."""
    out = []
    for i in range(n - 1):
        e = [0.0] * n
        e[i], e[i + 1] = 1.0, -1.0
        out.append(SuBasisElement(kind="diagonal", entries=tuple(e)))
    for i in range(n):
        for j in range(i + 1, n):
            out.append(SuBasisElement(kind="rotation", indices=(i, j)))
            out.append(SuBasisElement(kind="symmetric", indices=(i, j)))
    return out


@dataclass(frozen=True)
class TorqueReport:
    """Numeric vs closed-form meridian flux of one su(n) direction."""

    basis: SuBasisElement
    meridian_t: float
    numeric: float
    closed_form: float
    abs_error: float


def torque_closed_form(param: TwistParam, element: SuBasisElement) -> float:
    """Flux predicted by the invariant-theory formula.

    Diagonal i diag(lam, mu): 2 tau (mean lam - mean mu) Vol Vol for
    p > 1 and 2 tau (lam - mean mu) Vol(S^(n-2)) for p = 1; zero on
    off-diagonal directions.
    """
    pair, tau = param.pair, param.tau
    p, q, n = pair.p, pair.q, pair.n
    if element.kind != "diagonal":
        return 0.0
    lam = element.entries[:p]
    mu = element.entries[p:]
    mean_gap = sum(lam) / p - sum(mu) / q
    if p == 1:
        return 2.0 * tau * mean_gap * sphere_volume(n - 2)
    return 2.0 * tau * mean_gap * sphere_volume(p - 1) * sphere_volume(q - 1)


@lru_cache(maxsize=4)
def _meridian_nodes(p: int, q: int, order: int):
    """Unit-sphere node blocks (sigma1 | sigma2), product weights; sigma1 = 1 if p = 1."""
    pts1, wts1 = (np.ones((1, 1)), np.ones(1)) if p == 1 else sphere_quadrature(p - 1, order)
    pts2, wts2 = sphere_quadrature(q - 1, order)
    blocks = np.hstack([np.repeat(pts1, len(wts2), axis=0), np.tile(pts2, (len(wts1), 1))])
    return _frozen(blocks, np.outer(wts1, wts2).ravel())


def torque(curve: Curve, element: SuBasisElement, meridian_t: float = 0.0,
           order: int = 8) -> TorqueReport:
    """Numeric k-flux through the meridian at parameter time meridian_t.

    Integrates (K X . dX/dt / |dX/dt|) against the induced meridian
    volume |w1|^(p-1) |w2|^(q-1) dv dv by product sphere quadrature.
    """
    param = curve.param
    pair = param.pair
    p, q, n = pair.p, pair.q, pair.n
    traj = curve.traj(meridian_t - 1e-6, meridian_t + 1e-6)
    w1, w2 = traj.w(meridian_t)
    d1, d2 = velocity(pair, w1, w2)
    K = su_matrix(element, n)
    sigma, wts = _meridian_nodes(p, q, order)
    X = _cone(w1, w2, sigma[:, :p], sigma[:, p:])       # (N, n) complex meridian points
    dX = _cone(d1, d2, sigma[:, :p], sigma[:, p:])
    KX = X @ K.T
    pairing = np.sum(KX.real * dX.real + KX.imag * dX.imag, axis=1)
    speed = np.sqrt(np.sum(dX.real**2 + dX.imag**2, axis=1))
    density = abs(w1) ** (p - 1) * abs(w2) ** (q - 1)
    total = float(np.sum(wts * pairing / speed) * density)
    closed = torque_closed_form(param, element)
    return TorqueReport(basis=element, meridian_t=float(meridian_t),
                        numeric=total, closed_form=float(closed),
                        abs_error=float(abs(total - closed)))
