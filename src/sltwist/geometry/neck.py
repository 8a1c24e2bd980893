"""Rescaled neck profiles against the planar catenoid model.

Magnifying the immersion by 1/beta about a waist (beta = the minimal
sphere-factor radius) and rescaling time by beta^(2-k) turns the shrinking
factor into the unit catenoid profile of degree k up to O(beta); the
comparison error over a fixed window is the measured deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..catenoid import catenoid_lifetime, unit_profile
from ..curve import Curve
from .spheres import Waist, waists_and_bulges

__all__ = ["NeckComparison", "neck_rescale"]


@dataclass(frozen=True)
class NeckComparison:
    """Rescaled profile vs unit catenoid over the window [-b, b]."""

    beta: float
    rescale_frame: np.ndarray      # unitary n x n repositioning matrix
    max_error: float
    window: float
    waist_index: int
    waist_kind: int
    catenoid_degree: int


def neck_rescale(curve: Curve, waist_index: int, b: float,
                 grid_points: int = 81) -> NeckComparison:
    """Compare the rescaled neck at a waist with the unit catenoid.

    Kind-2 waists (second factor minimal) rescale onto the degree-q unit
    profile through z2(s) = e^{i pi/2q} w2(beta^(2-q) s + t_w) / w2(t_w)
    with beta = sqrt(y_min); kind-1 waists use the mirrored formula with
    p in place of q and beta = sqrt(1 - y_max).  The window must stay
    below the catenoid lifetime of that degree.
    """
    pair, data = curve.param.pair, curve.period
    p, q = pair.p, pair.q
    waists, _ = waists_and_bulges(curve, (-(abs(waist_index) + 2) * data.p_tau,
                                          (abs(waist_index) + 2) * data.p_tau))
    match = [w for w in waists if w.index == waist_index]
    if not match:
        raise ValueError(f"waist index {waist_index} not found")
    waist: Waist = match[0]
    degree = q if waist.kind == 2 else p
    if degree >= 3 and b >= catenoid_lifetime(degree):
        raise ValueError(
            f"window {b} exceeds the degree-{degree} catenoid lifetime")
    if degree < 2:
        raise ValueError("kind-1 necks need p >= 2")
    y_min, y_max = curve.extrema
    beta = math.sqrt(y_min) if waist.kind == 2 else math.sqrt(1.0 - y_max)
    scale = beta ** (2 - degree)
    t_w = waist.t
    traj = curve.traj(t_w - scale * b - 1e-6, t_w + scale * b + 1e-6)
    w1_w, w2_w = traj.w(t_w)
    phase = np.exp(1j * math.pi / (2 * degree))
    if waist.kind == 2:
        frame = np.diag([abs(w1_w) / w1_w] * p + [phase * abs(w2_w) / w2_w] * q)
    else:
        frame = np.diag([phase * abs(w1_w) / w1_w] * p + [abs(w2_w) / w2_w] * q)
    ts = np.linspace(-b, b, grid_points)
    model = unit_profile(degree, ts)
    w1, w2 = traj.w(t_w + scale * ts)
    z = phase * (w2 / w2_w if waist.kind == 2 else w1 / w1_w)
    err = np.max(np.abs(z - model))
    return NeckComparison(beta=float(beta), rescale_frame=frame,
                          max_error=float(err), window=float(b),
                          waist_index=waist_index, waist_kind=waist.kind,
                          catenoid_degree=degree)
