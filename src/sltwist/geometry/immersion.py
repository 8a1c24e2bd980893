"""Immersions built from twisting curves, and their Legendrian/phase checks.

A sampler is a chart map u -> point of S^{2m-1} subset C^m together with
its parameter dimension; tangent vectors are taken by fourth-order
central differences in the chart, so every check here is independent of
the closed-form derivatives used elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..curve import Curve
from ..twisted_curve import velocity

__all__ = [
    "ImmersionPoint", "Sampler", "CurveSampler", "immerse",
    "immersion_sampler", "equatorial_factor", "point_factor",
    "equatorial_circle_curve", "twist_curve_sampler",
    "legendrian_residual", "lagrangian_phase", "twisted_product",
    "contact_pairing",
]


@dataclass(frozen=True)
class ImmersionPoint:
    """A point of the immersion together with its domain coordinates."""

    coords: np.ndarray                      # complex n-vector, unit norm
    domain: tuple

    def __post_init__(self):
        r = float(np.sum(np.abs(self.coords) ** 2))
        if abs(r - 1.0) > 1e-10:
            raise ValueError(f"|coords|^2 = {r} is not 1 within 1e-10")


class Sampler:
    """Chart map u in R^dim -> point in C^m, optionally with known phase.

    Batched: ``u`` of shape (..., dim) maps to points of shape (..., m),
    so one call evaluates a whole sample of chart points.
    """

    def __init__(self, fn, dim: int, m: int, box, name: str, phase=None):
        self._fn = fn
        self.dim = dim
        self.m = m
        # chart box: sampling stays inside (used to dodge chart poles)
        self.box = box
        self._phase = phase
        self.name = name

    def __call__(self, u) -> np.ndarray:
        return np.asarray(self._fn(np.atleast_1d(np.asarray(u, dtype=float))),
                          dtype=complex)

    def phase(self, u) -> complex:
        if self._phase is None:
            raise ValueError(f"sampler {self.name!r} has no analytic phase")
        return self._phase(np.atleast_1d(np.asarray(u, dtype=float)))

    def sample_points(self, count: int, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        span = hi - lo
        # stay away from chart edges where polar charts degenerate
        return lo + span * (0.05 + 0.9 * rng.random((count, self.dim)))


class CurveSampler:
    """A curve t -> (w1, w2) in S^3 with analytic derivative and phase."""

    def __init__(self, fn, dfn, name: str):
        self._fn = fn
        self._dfn = dfn
        self.name = name

    def __call__(self, t: float) -> tuple[complex, complex]:
        return self._fn(float(t))

    def derivative(self, t: float) -> tuple[complex, complex]:
        return self._dfn(float(t))

    def phase(self, t: float) -> complex:
        w1, w2 = self(t)
        d1, d2 = self.derivative(t)
        num = w1 * d2 - d1 * w2
        speed = math.sqrt(abs(d1) ** 2 + abs(d2) ** 2)
        return num / speed


# -- spherical charts --------------------------------------------------------


def _chart_point(m: int, u: np.ndarray) -> np.ndarray:
    """Points of the real unit sphere S^m from polar chart angles u[..., :m]."""
    if m == 0:
        return np.ones(u.shape[:-1] + (1,))
    c, s = np.cos(u[..., 0]), np.sin(u[..., 0])
    if m == 2:
        return np.stack([s * np.cos(u[..., 1]), s * np.sin(u[..., 1]), c], axis=-1)
    # general polar recursion
    return np.concatenate([c[..., None], s[..., None] * _chart_point(m - 1, u[..., 1:])],
                          axis=-1)


def _chart_box(m: int):
    if m == 0:
        return []
    return [(0.1, math.pi - 0.1)] * (m - 1) + [(0.0, 2.0 * math.pi)]


def equatorial_factor(m: int) -> Sampler:
    """The standard real equator S^{m-1} in C^m, special Legendrian.

    Oriented so the Lagrangian phase is identically 1.
    """
    if m < 1:
        raise ValueError("ambient complex dimension must be >= 1")
    if m == 1:
        return point_factor()
    return Sampler(lambda u: _chart_point(m - 1, u).astype(complex),
                   dim=m - 2 + 1, m=m, box=_chart_box(m - 1),
                   phase=lambda u: 1.0 + 0.0j, name=f"equator S^{m-1}")


def point_factor() -> Sampler:
    """Degenerate zero-dimensional factor: the point 1 in S^1 subset C."""
    return Sampler(lambda u: np.ones(u.shape[:-1] + (1,), dtype=complex), dim=0, m=1, box=[],
                   phase=lambda u: 1.0 + 0.0j, name="point factor")


def equatorial_circle_curve() -> CurveSampler:
    """The equatorial twisting curve w(t) = (cos t, sin t)."""
    return CurveSampler(lambda t: (complex(math.cos(t)), complex(math.sin(t))),
                        lambda t: (complex(-math.sin(t)), complex(math.cos(t))),
                        name="equatorial circle")


def twist_curve_sampler(curve: Curve, t_span=(-5.0, 5.0)) -> CurveSampler:
    """The integrated twisted curve as a sampler with analytic tangents."""
    traj = curve.traj(*t_span)
    pair = curve.param.pair
    return CurveSampler(traj.w, lambda t: velocity(pair, *traj.w(t)),
                        name=f"twist curve ({pair.p},{pair.q}) tau={curve.param.tau}")


# -- the invariant immersion --------------------------------------------------


def immerse(curve: Curve, t: float, sigma1=None, sigma2=None) -> ImmersionPoint:
    """Point (w1 sigma1, w2 sigma2) of the invariant Legendrian cylinder.

    For p = 1 the first factor degenerates: pass sigma1 = None and a unit
    (n-1)-vector sigma2.
    """
    pair = curve.param.pair
    traj = curve.traj(t - 1e-9, t + 1e-9)
    w1, w2 = traj.w(t)
    if pair.p == 1:
        if sigma1 is not None:
            raise ValueError("p = 1 has no first sphere factor")
        s2 = np.asarray(sigma2, dtype=float)
        if abs(np.dot(s2, s2) - 1.0) > 1e-12 or s2.shape != (pair.n - 1,):
            raise ValueError("sigma2 must be a unit (n-1)-vector")
        coords = np.concatenate([[w1], w2 * s2])
        return ImmersionPoint(coords=coords, domain=(t, None, tuple(s2)))
    s1 = np.asarray(sigma1, dtype=float)
    s2 = np.asarray(sigma2, dtype=float)
    if s1.shape != (pair.p,) or abs(np.dot(s1, s1) - 1.0) > 1e-12:
        raise ValueError("sigma1 must be a unit p-vector")
    if s2.shape != (pair.q,) or abs(np.dot(s2, s2) - 1.0) > 1e-12:
        raise ValueError("sigma2 must be a unit q-vector")
    coords = np.concatenate([w1 * s1, w2 * s2])
    return ImmersionPoint(coords=coords, domain=(t, tuple(s1), tuple(s2)))


def immersion_sampler(curve: Curve, t_range=(-2.0, 2.0)) -> Sampler:
    """Chart sampler (t, angles) -> X_tau; for p = 1 the first factor is the point 1."""
    pair = curve.param.pair
    p, q = pair.p, pair.q
    traj = curve.traj(t_range[0] - 0.05, t_range[1] + 0.05)
    box = [tuple(t_range)] + _chart_box(p - 1) + _chart_box(q - 1)

    def fn(u):
        w1, w2 = traj.w(u[..., 0])
        s1 = _chart_point(p - 1, u[..., 1:p])
        s2 = _chart_point(q - 1, u[..., p:])
        return np.concatenate([np.asarray(w1)[..., None] * s1,
                               np.asarray(w2)[..., None] * s2], axis=-1)

    return Sampler(fn, dim=1 + (p - 1) + (q - 1), m=pair.n, box=box,
                   name=f"cylinder ({p},{q})")


# -- differential checks -------------------------------------------------------

_FD_STEP = 1e-3


def _tangents(sampler: Sampler, u: np.ndarray) -> np.ndarray:
    """Fourth-order central-difference tangents along each chart direction.

    Chart points u of shape (..., dim) give tangents of shape (..., m, dim).
    """
    cols = []
    for e in _FD_STEP * np.eye(sampler.dim):
        cols.append((-sampler(u + 2 * e) + 8 * sampler(u + e)
                     - 8 * sampler(u - e) + sampler(u - 2 * e)) / (12 * _FD_STEP))
    return np.stack(cols, axis=-1)


def contact_pairing(point: np.ndarray, tangent: np.ndarray):
    """The contact form of the sphere applied to a tangent vector.

    gamma_z(v) = sum_j x_j dy_j - y_j dx_j = Im <conj(z), v>, summed over
    the last axis, so stacks of points and tangents pair elementwise.
    """
    return np.imag(np.sum(np.conj(point) * tangent, axis=-1))


def legendrian_residual(sampler: Sampler, sample_count: int = 200,
                        seed: int = 0) -> float:
    """max |gamma(tangent)| / |tangent| over finite-difference tangents."""
    if sampler.dim == 0:
        return 0.0
    u = sampler.sample_points(sample_count, seed)
    z = sampler(u)[..., None, :]                          # (N, 1, m)
    # (N, dim, m), contiguous in m: each pairing, a near-cancelling sum,
    # is then added up in the order of a one-point sum
    T = np.ascontiguousarray(np.swapaxes(_tangents(sampler, u), -1, -2))
    nrm = np.sqrt(np.sum(T.real**2 + T.imag**2, axis=-1))
    ok = nrm > 0
    return float(np.max(np.abs(contact_pairing(z, T))[ok] / nrm[ok], initial=0.0))


def lagrangian_phase(sampler: Sampler, u) -> complex:
    """Phase of the Lagrangian cone over the sampler at chart point u.

    det_C of the frame [X, tangents] is invariant in phase under
    orientation-preserving changes of the tangent basis, so the chart
    ordering fixes the orientation.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    z = sampler(u)
    T = _tangents(sampler, u)
    M = np.column_stack([z, T])
    det = np.linalg.det(M)
    if det == 0:
        raise ArithmeticError("degenerate frame: sampler is not an immersion here")
    return complex(det / abs(det))


def twisted_product(factor1: Sampler, factor2: Sampler, curve: CurveSampler,
                    t_samples=None) -> tuple[Sampler, float]:
    """Product sampler (w1 X1, w2 X2) and its phase-relation residual.

    The measured phase (frame determinant with finite-difference
    tangents) is compared against

        (-1)^(p-1) phase(X1) phase(X2) phase(w)
                  * exp(i (p-1) arg w1 + i (q-1) arg w2),

    with p, q the ambient complex dimensions of the factors.  The
    residual is the max |measured - predicted| over 5 random factor points per t.
    """
    p, q = factor1.m, factor2.m
    d1, d2 = factor1.dim, factor2.dim

    def fn(u):
        t = u[..., 0]
        w = np.array([curve(s) for s in t.ravel()]).reshape(t.shape + (2,))
        x1 = factor1(u[..., 1:1 + d1])
        x2 = factor2(u[..., 1 + d1:])
        return np.concatenate([w[..., :1] * x1, w[..., 1:] * x2], axis=-1)

    box = [(-1.0, 1.0)] + list(factor1.box) + list(factor2.box)
    prod = Sampler(fn, dim=1 + d1 + d2, m=p + q, box=box,
                   name=f"{factor1.name} *w* {factor2.name}")

    if t_samples is None:
        t_samples = np.linspace(-0.8, 0.8, 5)
    rng = np.random.default_rng(0)
    residual = 0.0
    for t in t_samples:
        for _ in range(5):
            u = prod.sample_points(1, seed=int(rng.integers(1 << 30)))[0]
            u[0] = t
            w1, w2 = curve(t)
            measured = lagrangian_phase(prod, u)
            predicted = ((-1) ** (p - 1)
                         * factor1.phase(u[1:1 + d1])
                         * factor2.phase(u[1 + d1:])
                         * curve.phase(t)
                         * np.exp(1j * ((p - 1) * np.angle(w1)
                                        + (q - 1) * np.angle(w2))))
            residual = max(residual, abs(measured - predicted))
    return prod, float(residual)
