"""Immersions built from twisting curves, and their Legendrian/phase checks.

Every invariant cone is a twisted product (w1 X1, w2 X2) of special
Legendrian factors X1 in S^(2p-1), X2 in S^(2q-1) and a twisting curve
(w1, w2) in S^3: :func:`twisted_product` builds it, with :func:`_cone` as
its point map, and the invariant cylinder is the product of two equators.

A sampler is a chart map u -> point of S^{2m-1} subset C^m together with
its parameter dimension; tangent vectors are taken by fourth-order
central differences in the chart, so every check here is independent of
the closed-form derivatives used elsewhere.  The four offsets u +- e,
u +- 2e of every chart direction e and the base point u go into one
sampler call, and a twisted product reads its curve once, at all of
their times.
"""

from __future__ import annotations

import math

import numpy as np

from ..twisted_curve import TwistTrajectory, velocity


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

    def sample_points(self, count: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        span = hi - lo
        # stay away from chart edges where polar charts degenerate
        return lo + span * (0.05 + 0.9 * rng.random((count, self.dim)))


class CurveSampler:
    """A curve t -> (w1, w2) in S^3, read at a 1-d array of times, with
    analytic derivative and phase at one time."""

    def __init__(self, fn, dfn, name: str):
        self._fn = fn
        self._dfn = dfn
        self.name = name

    def __call__(self, t):
        return self._fn(t)

    def derivative(self, t: float) -> tuple[complex, complex]:
        return self._dfn(t)

    def phase(self, t: float) -> complex:
        w1, w2 = np.asarray(self(np.array([t])))[:, 0]
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
    return [(0.1, math.pi - 0.1)] * (m - 1) + [(0.0, 2.0 * math.pi)]


def equatorial_factor(m: int) -> Sampler:
    """The standard real equator S^{m-1} in C^m, special Legendrian.

    Oriented so the Lagrangian phase is identically 1.  For m = 1 it is
    the zero-dimensional factor, the point 1 in S^1 subset C.
    """
    if m < 1:
        raise ValueError("ambient complex dimension must be >= 1")
    if m == 1:
        return Sampler(lambda u: np.ones(u.shape[:-1] + (1,), dtype=complex), dim=0, m=1,
                       box=[], phase=lambda u: 1.0 + 0.0j, name="point factor")
    return Sampler(lambda u: _chart_point(m - 1, u).astype(complex),
                   dim=m - 2 + 1, m=m, box=_chart_box(m - 1),
                   phase=lambda u: 1.0 + 0.0j, name=f"equator S^{m-1}")


def twist_curve_sampler(curve: TwistTrajectory) -> CurveSampler:
    """The integrated twisted curve as a sampler with analytic tangents."""
    pair = curve.param.pair
    return CurveSampler(curve.w,
                        lambda t: velocity(pair, *curve.w(np.array([t]))[:, 0].tolist()),
                        name=f"twist curve ({pair.p},{pair.q}) tau={curve.param.tau}")


# -- the invariant immersion --------------------------------------------------


def _cone(w1, w2, x1, x2) -> np.ndarray:
    """The point (w1 x1, w2 x2) of the twisted product, over the leading axes."""
    return np.concatenate([np.asarray(w1)[..., None] * x1,
                           np.asarray(w2)[..., None] * x2], axis=-1)


def twisted_product(factor1: Sampler, factor2: Sampler, curve: CurveSampler,
                    t_range) -> Sampler:
    """The twisted product (w1 X1, w2 X2): chart (t, u1, u2), t in ``t_range``."""
    d1 = factor1.dim

    def fn(u):
        t = u[..., 0]
        w1, w2 = curve(t.ravel())       # one read of the curve, at 1-d times
        return _cone(np.reshape(w1, t.shape), np.reshape(w2, t.shape),
                     factor1(u[..., 1:1 + d1]), factor2(u[..., 1 + d1:]))

    return Sampler(fn, dim=1 + d1 + factor2.dim, m=factor1.m + factor2.m,
                   box=[tuple(t_range)] + factor1.box + factor2.box,
                   name=f"{factor1.name} *w* {factor2.name}")


def immersion_sampler(curve: TwistTrajectory, t_range) -> Sampler:
    """Chart sampler (t, angles) -> X_tau; for p = 1 the first factor is the point 1."""
    pair = curve.param.pair
    return twisted_product(equatorial_factor(pair.p), equatorial_factor(pair.q),
                           twist_curve_sampler(curve), t_range)


# -- differential checks -------------------------------------------------------

_FD_STEP = 1e-3


def _frame(sampler: Sampler, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Points and fourth-order central-difference tangents from one sampler call.

    Chart points u of shape (..., dim) give the points (..., m) and the
    tangents (..., dim, m), one row per chart direction.
    """
    dim = sampler.dim
    e = _FD_STEP * np.eye(dim)
    offsets = np.concatenate([2 * e, e, -e, -2 * e])[:, None]          # (4 dim, 1, dim)
    flat = u.reshape(1, -1, dim)
    batch = sampler(np.concatenate([flat, flat + offsets]).reshape((1 + 4 * dim,) + u.shape))
    f = batch[1:].reshape((4, dim) + batch.shape[1:])
    T = (-f[0] + 8 * f[1] - 8 * f[2] + f[3]) / (12 * _FD_STEP)        # (dim, ..., m)
    return batch[0], np.moveaxis(T, 0, -2)


def contact_pairing(point: np.ndarray, tangent: np.ndarray):
    """The contact form of the sphere applied to a tangent vector.

    gamma_z(v) = sum_j x_j dy_j - y_j dx_j = Im <conj(z), v>, summed over
    the last axis, so stacks of points and tangents pair elementwise.
    """
    return np.imag(np.sum(np.conj(point) * tangent, axis=-1))


def legendrian_residual(sampler: Sampler, sample_count: int) -> float:
    """max |gamma(tangent)| / |tangent| over finite-difference tangents at
    sample_count chart points drawn with seed 0."""
    if sampler.dim == 0:
        return 0.0
    z, T = _frame(sampler, sampler.sample_points(sample_count, 0))
    z = z[..., None, :]                                   # (N, 1, m)
    # (N, dim, m), contiguous in m: each pairing, a near-cancelling sum,
    # is then added up in the order of a one-point sum
    T = np.ascontiguousarray(T)
    nrm = np.sqrt(np.sum(T.real**2 + T.imag**2, axis=-1))
    ok = nrm > 0
    return float(np.max(np.abs(contact_pairing(z, T))[ok] / nrm[ok], initial=0.0))


def lagrangian_phase(sampler: Sampler, u) -> complex:
    """Phase of the Lagrangian cone over the sampler at chart point u.

    det_C of the frame [X, tangents] is invariant in phase under
    orientation-preserving changes of the tangent basis, so the chart
    ordering fixes the orientation.
    """
    z, T = _frame(sampler, np.atleast_1d(np.asarray(u, dtype=float)))
    M = np.column_stack([z, T.T])
    det = np.linalg.det(M)
    if det == 0:
        raise ArithmeticError("degenerate frame: sampler is not an immersion here")
    return complex(det / abs(det))


def phase_relation_residual(factor1: Sampler, factor2: Sampler, curve: CurveSampler,
                            t_samples) -> float:
    """Residual of the phase relation of the twisted product at the times t_samples.

    The measured phase (frame determinant with finite-difference
    tangents) is compared against

        (-1)^(p-1) phase(X1) phase(X2) phase(w)
                  * exp(i (p-1) arg w1 + i (q-1) arg w2),

    with p, q the ambient complex dimensions of the factors.  The
    residual is the max |measured - predicted| over 5 random factor points per t.
    """
    p, q = factor1.m, factor2.m
    d1 = factor1.dim
    prod = twisted_product(factor1, factor2, curve, (min(t_samples), max(t_samples)))
    rng = np.random.default_rng(0)
    residual = 0.0
    ts = np.asarray(t_samples, dtype=float)
    for t, (w1, w2) in zip(ts, np.asarray(curve(ts)).T):
        for _ in range(5):
            u = prod.sample_points(1, seed=int(rng.integers(1 << 30)))[0]
            u[0] = t
            measured = lagrangian_phase(prod, u)
            predicted = ((-1) ** (p - 1)
                         * factor1.phase(u[1:1 + d1])
                         * factor2.phase(u[1 + d1:])
                         * curve.phase(t)
                         * np.exp(1j * ((p - 1) * np.angle(w1)
                                        + (q - 1) * np.angle(w2))))
            residual = max(residual, abs(measured - predicted))
    return float(residual)
