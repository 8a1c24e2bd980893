"""Rotationally invariant linearisation and small-tau asymptotic laws.

The scalar linearised equation along the curve is

    phi'' = -2 n |w'|^2 phi,      |w'|^2 = y^(q-1) (1-y)^(p-1),

with the closed-form solution q - n y.  The companion solution Q is
normalised so that the Wronskian (q - n y) Q' + n y' Q is identically 1;
the derivative of the angular period with respect to tau is then read
off the values of Q at the extrema of y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catenoid import catenoid_lifetime
from .ode_engine import Trajectory, integrate
# variation.period_ode stays a name of this module: perfbench's tracer looks it up here
from .periods import (_branch_halves, partial_periods_quadrature, period_ode,  # noqa: F401
                      pthat_quadrature, pthat_quadrature_psi2)
from .twisted_curve import (TwistParam, TwistTrajectory, _extrema, _field, _gaps, _mirror, _y,
                            _ydot, tau_max)


def solve_Q(curve: TwistTrajectory) -> Trajectory:
    """(w, Q, Q') of ``curve`` integrated on [-2.2 p_tau, 2.2 p_tau] from t = 0.

    Q rides as two extra components (Q, Q') on the curve system so that every
    quantity shares one error control.  w(0) is the curve's anchor,
    ``trajectory.endpoint(0.0)``, and (Q, Q')(0) = (1/(n y'(0)), 0) for p > 1,
    or (0, 1/(q - n y(0))) for p = 1, where the curve starts at y_max with
    y'(0) = 0: the Wronskian is 1, and Q is fixed up to adding q - n y, which
    cancels in :func:`dpthat_dtau`.
    For p = 1 the backward half is mirrored as the curve's is, with Q odd and
    Q' even, since Q(0) = 0.
    """
    param, tol = curve.param, curve.tol
    pair = param.pair
    p, q, n = pair.p, pair.q, pair.n
    w0 = curve.trajectory.endpoint(0.0)
    Q0 = [1.0 / (n * _ydot(pair, w0)), 0.0] if p > 1 else [0.0, 1.0 / (q - n * _y(w0))]
    # stepped at once, not on read: perfbench counts integrate's steps when it
    # returns, and this first extent is the only one it sees
    hi = 2.2 * curve.period.p_tau
    w_mirror = _mirror(param)
    mirror = None if w_mirror is None else (*w_mirror, -1.0, 1.0)    # p = 1: Q odd, Q' even
    return integrate(_field(p, q, linearised=True), np.concatenate([w0, Q0]), (-hi, hi), tol,
                     mirror=mirror)


def wronskian_drift(curve: TwistTrajectory) -> float:
    """max |(q - n y) Q' + n y' Q - 1| on ``curve.Q`` at 101 times of [-2 p_tau, 2 p_tau]."""
    pair, p_tau = curve.param.pair, curve.period.p_tau
    s = curve.Q(np.linspace(-2.0 * p_tau, 2.0 * p_tau, 101))
    wronskian = (pair.q - pair.n * _y(s)) * s[5] + pair.n * _ydot(pair, s) * s[4]
    return float(np.max(np.abs(wronskian - 1.0)))


def dpthat_dtau(curve: TwistTrajectory) -> float:
    """Exact derivative of the angular period with respect to tau,

    4 p q [Q(p+)/(q - n y(p+)) - Q(-p-)/(q - n y(-p-))];

    for p = 1, p+ = p_tau and p- = 0 (:class:`PeriodData`), and 4 p q = 4(n-1).
    """
    pair, data, lin = curve.param.pair, curve.period, curve.Q
    q, n = pair.q, pair.n
    s = lin([data.p_plus, -data.p_minus])
    hi, lo = s[4] / (q - n * _y(s))
    return float(4.0 * pair.p * q * (hi - lo))


def dpthat_dtau_cross_check(curve: TwistTrajectory) -> dict:
    """Formula value vs a Richardson difference of the quadrature angular period.

    P = q int 2 tau / y (the psi2 side, which keeps its digits at small tau
    for p = 1) at tau +/- h and tau +/- h/2 in one quadrature, h = 1e-2
    min(|tau|, tau_max - |tau|), gives fd = (8 (P(tau + h/2) - P(tau - h/2))
    - (P(tau + h) - P(tau - h))) / (6 h), truncated at order h^4: nothing is
    integrated.  The relative gap is ``rel_err``; ``verify`` holds it to 1e-6.
    """
    pair, tau = curve.param.pair, curve.param.tau
    value = dpthat_dtau(curve)
    h = 1e-2 * min(abs(tau), tau_max(pair) - abs(tau))
    taus = tau + h * np.array([1.0, -1.0, 0.5, -0.5])
    (lo, hi), = _branch_halves(pair, taus, _extrema(pair, taus), (2,))
    up, dn, half_up, half_dn = 2.0 * pair.q * taus * (lo + hi)
    fd = float((8.0 * (half_up - half_dn) - (up - dn)) / (6.0 * h))
    rel = abs(value - fd) / max(abs(fd), 1e-300)
    return {"formula": value, "finite_difference": fd, "rel_err": rel}


# ---------------------------------------------------------------------------
# asymptotic laws


def asymptotic_constants(k: int) -> float:
    """Neck-scale constant b_k.

    For k > 2, b_k = 4^(1/k - 1) * int_1^inf dz / sqrt(z^k - 1), i.e.
    4^(1/k - 1) times twice the unit-profile lifetime, cross-checked
    against the Beta closed form inside :func:`catenoid_lifetime`.
    b_2 = 1/2 = 4^(1/2 - 1): the divergent integral is replaced by the
    logarithmic time scale with unit coefficient, and the measured
    periods converge to b_2 T_2 only with this prefactor.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k == 2:
        return 0.5
    return 4.0 ** (-1.0 + 1.0 / k) * 2.0 * catenoid_lifetime(k)


def time_scale(k: int, tau: float) -> float:
    """T_k(tau): tau^(2/k - 1) for k > 2, log(1/tau) for k = 2."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0, 1)")
    if k == 2:
        return math.log(1.0 / tau)
    return tau ** (-1.0 + 2.0 / k)


@dataclass(frozen=True)
class AsymptoticsReport:
    """Measured quantity vs leading-order prediction at one tau."""

    tau: float
    measured: float
    predicted: float
    ratio: float
    law_id: str


ASYMPTOTIC_LAWS = ("pt_plus", "pt_minus", "pt", "pthat_excess", "ymin", "ymax_gap")


def _law_values(pair, tau: float, law_id: str) -> tuple[float, float]:
    p, q = pair.p, pair.q
    param = TwistParam(pair, tau)
    if law_id == "ymin":
        return _gaps(param)[0], (2.0 * tau) ** (2.0 / q)
    if law_id == "ymax_gap":
        return _gaps(param)[1], (2.0 * tau) ** (2.0 / p)
    pp, pm = partial_periods_quadrature(param)
    if law_id == "pt_plus":
        return pp, asymptotic_constants(q) * time_scale(q, tau)
    if law_id == "pt_minus":
        return pm, asymptotic_constants(p) * time_scale(p, tau)
    if law_id == "pt":
        mult = 2.0 if p == q else 1.0
        return pp + pm, mult * asymptotic_constants(q) * time_scale(q, tau)
    excess = pthat_quadrature(param) - math.pi / 2.0            # below 1e-12 it is roundoff
    excess2 = pthat_quadrature_psi2(param) - math.pi / 2.0      # p < q: the milder pole
    if excess < 1e-12 or excess2 <= 0.0 or (p != q and abs(excess - excess2) > 1e-2 * excess2):
        raise ArithmeticError(f"at |tau|={abs(tau)} the excess pthat - pi/2 = {excess:.3g} "
                              f"(psi2 side {excess2:.3g}) is not resolved")
    return excess, (4.0 * p / q) * tau * (pp + pm)


def check_asymptotics(pair, tau_list) -> list[AsymptoticsReport]:
    """Ratio measured/predicted for each law that applies to the pair (all
    but ``pt_minus`` for p = 1), law by law, then tau by tau.

    The reports are observational: the caller decides what trend or
    band to demand of the ratios.
    """
    laws = [l for l in ASYMPTOTIC_LAWS if not (l == "pt_minus" and pair.p == 1)]
    out = []
    for law in laws:
        for tau in tau_list:
            measured, predicted = _law_values(pair, float(tau), law)
            out.append(AsymptoticsReport(
                tau=float(tau), measured=float(measured),
                predicted=float(predicted),
                ratio=float(measured / predicted), law_id=law))
    return out
