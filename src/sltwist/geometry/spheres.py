"""Waists, bulges and the equatorial spheres that bulges approximate.

Between consecutive minima of a sphere-factor radius the cylinder bulges
out; as tau -> 0 each bulge image hugs an equatorial special Legendrian
sphere obtained from the standard one by the accumulated diagonal
rotation (and, on odd bulges for p > 1, one antiholomorphic reflection).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..curve import Curve
from .symmetry import reflection_matrix, ttilde

__all__ = [
    "Waist", "Bulge", "MarkedSphere", "waists_and_bulges",
    "approximating_spheres", "sphere_distance", "bulge_sphere_distance",
]


@dataclass(frozen=True)
class Waist:
    """Meridian where one sphere-factor radius is minimal."""

    index: int
    t: float
    kind: int      # 1: first factor minimal (p > 1 only); 2: second factor


@dataclass(frozen=True)
class Bulge:
    """Component between the waists W[k] and W[k+1]."""

    index: int
    t_lo: float
    t_hi: float


@dataclass(frozen=True)
class MarkedSphere:
    """Equatorial sphere with marked set, positioned by a real-orthogonal frame.

    ``frame`` is the 2n x 2n real matrix of the (anti)unitary positioning
    map in stacked coordinates (Re z; Im z); ``antiholomorphic`` records
    whether it conjugates.  Index 0 is the standard real equator with the
    identity frame.
    """

    index: int
    frame: np.ndarray
    marked_set: dict
    antiholomorphic: bool = False


def _real_rep(U: np.ndarray, conjugates: bool) -> np.ndarray:
    """Real 2n x 2n matrix of z -> U z or z -> U conj(z) in stacked coords."""
    A, B = U.real, U.imag
    if not conjugates:
        return np.block([[A, -B], [B, A]])
    return np.block([[A, B], [B, -A]])


def waists_and_bulges(curve: Curve, window) -> tuple[list[Waist], list[Bulge]]:
    """All waists and bulges whose parameter times meet the window.

    p = 1: waists at (2k-1) p_tau, all of kind 2.  p > 1: kind-1 waists
    at 2l p_tau - p_minus and kind-2 waists at 2l p_tau + p_plus,
    alternating.
    """
    pair, data = curve.param.pair, curve.period
    t_lo, t_hi = float(window[0]), float(window[1])
    ptau = data.p_tau
    waists: list[Waist] = []
    bulges: list[Bulge] = []
    if pair.p == 1:
        k_lo = math.floor((t_lo / ptau + 1.0) / 2.0) - 1
        k_hi = math.ceil((t_hi / ptau + 1.0) / 2.0) + 1
        for k in range(k_lo, k_hi + 1):
            t = (2 * k - 1) * ptau
            if t_lo - 2 * ptau <= t <= t_hi + 2 * ptau:
                waists.append(Waist(index=k, t=t, kind=2))
        for k in range(k_lo, k_hi):
            lo, hi = (2 * k - 1) * ptau, (2 * k + 1) * ptau
            if hi >= t_lo and lo <= t_hi:
                bulges.append(Bulge(index=k, t_lo=lo, t_hi=hi))
    else:
        l_lo = math.floor(t_lo / (2 * ptau)) - 1
        l_hi = math.ceil(t_hi / (2 * ptau)) + 1
        for l in range(l_lo, l_hi + 1):
            t1 = 2 * l * ptau - data.p_minus
            t2 = 2 * l * ptau + data.p_plus
            if t_lo - 2 * ptau <= t1 <= t_hi + 2 * ptau:
                waists.append(Waist(index=2 * l, t=t1, kind=1))
            if t_lo - 2 * ptau <= t2 <= t_hi + 2 * ptau:
                waists.append(Waist(index=2 * l + 1, t=t2, kind=2))
        waists.sort(key=lambda w: w.t)
        for a, b in zip(waists, waists[1:]):
            if b.t >= t_lo and a.t <= t_hi:
                bulges.append(Bulge(index=a.index, t_lo=a.t, t_hi=b.t))
    return waists, bulges


def _marked_set(pair, frame: np.ndarray) -> dict:
    n = pair.n
    e1 = np.zeros(2 * n)
    e1[0] = 1.0
    if pair.p == 1:
        plus = frame @ e1
        return {"points": (plus[:n] + 1j * plus[n:],
                           -(plus[:n] + 1j * plus[n:]))}
    return {"subspheres": (f"frame . (S^{pair.p - 1} x 0)",
                           f"frame . (0 x S^{pair.q - 1})")}


def approximating_spheres(curve: Curve, k_range) -> list[MarkedSphere]:
    """The marked equatorial spheres approximating the requested bulges.

    p = 1: frame(k) = Ttilde(2 k pthat).  p > 1: even bulges get
    Ttilde(2 l pthat), odd bulges get Ttilde(2 l pthat) composed with
    the antiholomorphic reflection across the kind-2 waist.
    """
    pair, data = curve.param.pair, curve.period
    out = []
    for k in k_range:
        if pair.p == 1:
            U = ttilde(pair, 2.0 * k * data.pthat)
            frame = _real_rep(U, conjugates=False)
            anti = False
        else:
            l, odd = divmod(k, 2)
            U = ttilde(pair, 2.0 * l * data.pthat)
            if odd:
                small = reflection_matrix(curve, "+")
                D = np.diag([small[0, 0]] * pair.p + [small[1, 1]] * pair.q)
                frame = _real_rep(U @ D, conjugates=True)
                anti = True
            else:
                frame = _real_rep(U, conjugates=False)
                anti = False
        if not np.allclose(frame @ frame.T, np.eye(2 * pair.n), atol=1e-12):
            raise AssertionError(f"frame for bulge {k} is not orthogonal")
        out.append(MarkedSphere(index=k, frame=frame,
                                marked_set=_marked_set(pair, frame),
                                antiholomorphic=anti))
    return out


def sphere_distance(sphere: MarkedSphere, z: np.ndarray) -> float:
    """Euclidean distance from z in C^n to the positioned real equator."""
    n = len(z)
    stacked = np.concatenate([np.real(z), np.imag(z)])
    u = sphere.frame.T @ stacked
    re, im = u[:n], u[n:]
    return float(math.sqrt(np.dot(im, im) + (np.linalg.norm(re) - 1.0) ** 2))


def bulge_sphere_distance(curve: Curve, k: int, b: float,
                          t_points: int = 40, mer_points: int = 24) -> float:
    """max distance from the k-th almost spherical region to its sphere.

    The region is the core [-b, b] of the k-th bulge (translated, and
    reflected for odd k when p > 1); the distance is sampled over a
    parameter grid of the immersion.
    """
    pair, data = curve.param.pair, curve.period
    sphere = approximating_spheres(curve, [k])[0]
    if pair.p == 1:
        center = 2.0 * k * data.p_tau
    else:
        l, odd = divmod(k, 2)
        center = 2 * l * data.p_tau + (2 * data.p_plus if odd else 0.0)
    ts = np.linspace(center - b, center + b, t_points)
    w1, w2 = curve.traj(ts.min() - 1e-6, ts.max() + 1e-6).w(ts)
    angles = np.linspace(0.0, 2.0 * math.pi, mer_points, endpoint=False)
    ring = np.zeros((mer_points, pair.n))       # meridian directions of the second factor
    ring[:, pair.p] = np.cos(angles)
    ring[:, pair.p + 1 if pair.p == 1 else -1] = np.sin(angles)
    z = w1[:, None, None] * np.eye(pair.n)[0] + w2[:, None, None] * ring
    return max(sphere_distance(sphere, zz) for zz in z.reshape(-1, pair.n))
