"""Waists, bulges and the equatorial spheres that bulges approximate.

Between consecutive minima of a sphere-factor radius the cylinder bulges
out; as tau -> 0 each bulge image hugs an equatorial special Legendrian
sphere obtained from the standard one by the accumulated diagonal
rotation (and, on odd bulges for p > 1, one antiholomorphic reflection);
both are diagonal, so a sphere is positioned by n unit phases.

Waist k sits at a closed-form time (:func:`_waist`): (2k - 1) p_tau, where
the second factor is minimal, for p = 1; for p > 1, with k = 2l or 2l + 1,
2l p_tau - p_minus (first factor minimal) or 2l p_tau + p_plus (second).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..curve import Curve
from .immersion import _cone
from .symmetry import _blocks, reflection_phases, ttilde

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
    """Equatorial sphere with marked set, positioned by n unit phases.

    The real unit sphere is moved by z -> diag(phases) z, or by
    z -> diag(phases) conj(z) when ``antiholomorphic``; as a real point is
    its own conjugate, both give the same sphere, and ``antiholomorphic``
    only records which map the bulge follows.  Index 0 is the standard
    real equator, every phase 1.
    """

    index: int
    phases: np.ndarray
    marked_set: dict
    antiholomorphic: bool


def _waist(data, pair, k: int) -> Waist:
    """Waist k of the curve with period data ``data``, at its closed-form time."""
    if pair.p == 1:
        return Waist(index=k, t=(2 * k - 1) * data.p_tau, kind=2)
    l, odd = divmod(k, 2)
    if odd:
        return Waist(index=k, t=2 * l * data.p_tau + data.p_plus, kind=2)
    return Waist(index=k, t=2 * l * data.p_tau - data.p_minus, kind=1)


def waists_and_bulges(curve: Curve, window) -> tuple[list[Waist], list[Bulge]]:
    """The waists within 2 p_tau of the window and the bulges that meet it.

    Waist times are those of :func:`_waist`, alternating in kind for p > 1;
    bulge k lies between waists k and k + 1.
    """
    pair, data = curve.param.pair, curve.period
    t_lo, t_hi = float(window[0]), float(window[1])
    ptau = data.p_tau
    k_max = math.ceil(max(abs(t_lo), abs(t_hi)) / ptau) + 4
    every = [_waist(data, pair, k) for k in range(-k_max, k_max + 1)]
    waists = [w for w in every if t_lo - 2 * ptau <= w.t <= t_hi + 2 * ptau]
    bulges = [Bulge(index=a.index, t_lo=a.t, t_hi=b.t)
              for a, b in zip(every, every[1:]) if b.t >= t_lo and a.t <= t_hi]
    return waists, bulges


def _marked_set(pair, phases: np.ndarray) -> dict:
    if pair.p == 1:
        plus = phases[0] * np.eye(pair.n)[0]
        return {"points": (plus, -plus)}
    return {"subspheres": (f"diag(phases) . (S^{pair.p - 1} x 0)",
                           f"diag(phases) . (0 x S^{pair.q - 1})")}


def approximating_spheres(curve: Curve, k_range) -> list[MarkedSphere]:
    """The marked equatorial spheres approximating the requested bulges.

    p = 1: phases(k) = Ttilde(2 k pthat).  p > 1: even bulges get
    Ttilde(2 l pthat), odd bulges get Ttilde(2 l pthat) times the phases
    D of the antiholomorphic reflection across the kind-2 waist.
    """
    pair, data = curve.param.pair, curve.period
    out = []
    for k in k_range:
        l, anti = (k, False) if pair.p == 1 else (k // 2, k % 2 == 1)
        phases = ttilde(pair, 2.0 * l * data.pthat)
        if anti:
            phases = phases * _blocks(pair, *reflection_phases(curve, "+"))
        out.append(MarkedSphere(index=k, phases=phases,
                                marked_set=_marked_set(pair, phases),
                                antiholomorphic=anti))
    return out


def sphere_distance(sphere: MarkedSphere, z: np.ndarray) -> float | np.ndarray:
    """Euclidean distance from z in C^n to the positioned real equator.

    ``z`` is one point, or a stack of points along its last axis; the
    result is a float, or an array of the stack's shape.  With
    u = conj(phases) z the distance is sqrt(|Im u|^2 + (|Re u| - 1)^2).
    """
    u = np.conj(sphere.phases) * z
    re, im = u.real, u.imag
    return np.sqrt(np.sum(im * im, axis=-1) + (np.linalg.norm(re, axis=-1) - 1.0) ** 2)


def bulge_sphere_distance(curve: Curve, k: int, b: float) -> float:
    """max distance from the k-th almost spherical region to its sphere.

    The region is the core [-b, b] of the k-th bulge (translated, and
    reflected for odd k when p > 1); the distance is sampled over a
    40 x 24 grid of times and meridian angles of the immersion.
    """
    t_points, mer_points = 40, 24
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
    sigma1 = np.broadcast_to(np.eye(pair.p)[0], (mer_points, pair.p))   # (w1 e_1, w2 sigma2)
    sigma2 = np.zeros((mer_points, pair.q))
    sigma2[:, 0] = np.cos(angles)
    sigma2[:, 1 if pair.p == 1 else -1] = np.sin(angles)
    z = _cone(w1[:, None], w2[:, None], sigma1, sigma2)
    return float(np.max(sphere_distance(sphere, z)))
