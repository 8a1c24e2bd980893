"""Rescaled neck profiles against the planar catenoid model.

Magnifying the immersion by 1/beta about a waist (beta = the minimal
sphere-factor radius) and rescaling time by beta^(2-k) turns the shrinking
factor into the unit catenoid profile of degree k up to O(beta); the
comparison error over a fixed window is the measured deviation.  Waist k
sits at (2k - 1) p_tau for p = 1; for p > 1, with k = 2l or 2l + 1, at
2l p_tau - p_minus (first factor minimal) or 2l p_tau + p_plus (second).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..catenoid import catenoid_lifetime, unit_profile
from ..curve import Curve
from ..twisted_curve import y_extrema
from .spheres import _waist
from .symmetry import _blocks

__all__ = ["NeckComparison", "neck_rescale"]


@dataclass(frozen=True)
class NeckComparison:
    """Rescaled profile vs unit catenoid over the window [-b, b]."""

    beta: float
    rescale_phases: np.ndarray     # n unit phases, the diagonal repositioning map
    max_error: float
    window: float
    waist_index: int
    waist_kind: int
    catenoid_degree: int


def neck_rescale(curve: Curve, waist_index: int, b: float | None = None) -> NeckComparison:
    """Compare the rescaled neck at a waist with the unit catenoid.

    Kind-2 waists (second factor minimal) rescale onto the degree-q unit
    profile through z2(s) = e^{i pi/2q} w2(beta^(2-q) s + t_w) / w2(t_w)
    with beta = sqrt(y_min); kind-1 waists use the mirrored formula with
    p in place of q, beta = sqrt(1 - y_max) and time run backwards
    (t_w - beta^(2-p) s), as w1' has the opposite sign of w2'; for p = q,
    w1(-t) = w2(t) maps one kind onto the other.  For tau < 0 the curve is
    the conjugate of the tau > 0 one, and so are the phase e^{-i pi/2k},
    the rescale phases and the model profile.  The window must stay below the
    catenoid lifetime of that degree; by default it is 2.0 for degree 2
    and half the lifetime T_1 for degree >= 3.  The error is sampled at 81 times.
    ``rescale_phases``, the diagonal of the repositioning map, turn each factor
    at the waist to the positive real axis, the shrinking one then by e^{i pi/2k}.
    """
    pair = curve.param.pair
    waist = _waist(curve.period, pair, waist_index)
    degree = pair.q if waist.kind == 2 else pair.p
    if b is None:
        b = 2.0 if degree < 3 else 0.5 * catenoid_lifetime(degree)
    if degree >= 3 and b >= catenoid_lifetime(degree):
        raise ValueError(
            f"window {b} exceeds the degree-{degree} catenoid lifetime")
    y_min, y_max = y_extrema(curve.param)
    beta = math.sqrt(y_min) if waist.kind == 2 else math.sqrt(1.0 - y_max)
    scale = beta ** (2 - degree)
    t_w = waist.t
    traj = curve.traj(t_w - scale * b - 1e-6, t_w + scale * b + 1e-6)
    w1_w, w2_w = traj.w(t_w)
    negative = curve.param.tau < 0.0
    phase = np.exp((-1j if negative else 1j) * math.pi / (2 * degree))
    if waist.kind == 2:
        phases = _blocks(pair, abs(w1_w) / w1_w, phase * abs(w2_w) / w2_w)
    else:
        phases = _blocks(pair, phase * abs(w1_w) / w1_w, abs(w2_w) / w2_w)
    ts = np.linspace(-b, b, 81)
    model = unit_profile(degree, ts)
    if negative:
        model = np.conj(model)
    w1, w2 = traj.w(t_w + (1.0 if waist.kind == 2 else -1.0) * scale * ts)
    z = phase * (w2 / w2_w if waist.kind == 2 else w1 / w1_w)
    err = np.max(np.abs(z - model))
    return NeckComparison(beta=float(beta), rescale_phases=phases,
                          max_error=float(err), window=float(b),
                          waist_index=waist_index, waist_kind=waist.kind,
                          catenoid_degree=degree)
