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
from ..twisted_curve import TwistTrajectory, _gaps
from .spheres import _waist
from .symmetry import _blocks

_E_MAX = math.log(np.finfo(float).max)      # the largest b whose e^b is finite


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


def neck_rescale(curve: TwistTrajectory, waist_index: int, b: float | None) -> NeckComparison:
    """Compare the rescaled neck at a waist with the unit catenoid.

    A waist of kind j + 1 has its factor w_{j+1} minimal, and j picks the
    degree, beta, phases, time direction and z.  Kind 2 (j = 1) rescales onto
    the degree-q unit profile through z(s) = e^{i pi/2q} w2(beta^(2-q) s +
    t_w) / w2(t_w) with beta = sqrt(y_min); kind 1 (j = 0) is kind 2 with p
    and q exchanged and time reversed, beta = sqrt(1 - y_max), as w1' has the
    opposite sign of w2'; for p = q, w1(-t) = w2(t) maps one kind onto the
    other.  For tau < 0 the curve is the conjugate of the tau > 0 one, and so
    are the phase e^{-i pi/2k}, the rescale phases and the model profile.  The
    window must stay below the catenoid lifetime of degree >= 3, and at degree
    2 at or below 709.78, past which e^b overflows; a window b of None is 2.0
    for degree 2 and half the lifetime T_1 for degree >= 3.  The error is
    sampled at 81 times.  ``rescale_phases``, the diagonal of the
    repositioning map, turn each factor at the waist to the positive real
    axis, the shrinking one then by e^{i pi/2k}.
    """
    pair, data = curve.param.pair, curve.period
    waist = _waist(pair, data.p_plus, data.p_minus, waist_index)
    j = waist.kind - 1                      # the shrinking factor w_{j+1}
    degree = (pair.p, pair.q)[j]
    if b is None:
        b = 2.0 if degree < 3 else 0.5 * catenoid_lifetime(degree)
    if degree >= 3 and b >= catenoid_lifetime(degree):
        raise ValueError(f"window {b} exceeds the degree-{degree} catenoid lifetime")
    if degree == 2 and b > _E_MAX:
        raise ValueError(f"window {b} exceeds {_E_MAX}, past which the degree-2 "
                         "profile's e^b overflows")
    beta = math.sqrt(_gaps(curve.param)[1 - j])      # sqrt(1 - y_max), sqrt(y_min)
    w_w = curve.w(np.array([waist.t]))[:, 0].tolist()
    negative = curve.param.tau < 0.0
    phase = np.exp((-1j if negative else 1j) * math.pi / (2 * degree))
    units = [abs(w) / w for w in w_w]
    units[j] = phase * abs(w_w[j]) / w_w[j]
    phases = _blocks(pair, *units)
    ts = np.linspace(-b, b, 81)
    model = unit_profile(degree, ts)
    if negative:
        model = np.conj(model)
    z = phase * (curve.w(waist.t + (-1.0, 1.0)[j] * beta ** (2 - degree) * ts)[j] / w_w[j])
    err = np.max(np.abs(z - model))
    return NeckComparison(beta=float(beta), rescale_phases=phases,
                          max_error=float(err), window=float(b),
                          waist_index=waist_index, waist_kind=waist.kind,
                          catenoid_degree=degree)
