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
from .curve import Curve
from .ode_engine import Trajectory, integrate, locate_event
from .periods import PeriodData, partial_periods_quadrature, period_ode, pthat_quadrature
from .twisted_curve import TwistParam, _field, _ydot, tau_max, y_extrema

__all__ = [
    "LinearisedSolution", "AsymptoticsReport", "solve_Q", "dpthat_dtau",
    "dpthat_dtau_cross_check", "asymptotic_constants", "time_scale",
    "check_asymptotics", "ASYMPTOTIC_LAWS",
]


@dataclass
class LinearisedSolution:
    """The normalised companion solution Q of the linearised equation.

    ``Q`` and ``Qdot`` are callables on [-2 p_tau, 2 p_tau].  ``p_star``
    is the anchor time (the unique t in (0, p_tau) with y = q/n) for
    p = 1, or 0 for p > 1.  ``wronskian_drift`` is the measured maximum
    of |(q - ny) Q' + n y' Q - 1| over the covered interval.  ``trajectory``
    holds (w, Q, Q'), integrated both ways from ``p_star``.
    """

    param: TwistParam
    period: PeriodData
    p_star: float
    wronskian_drift: float
    trajectory: Trajectory

    def Q(self, t):
        return self.trajectory(t)[4]

    def Qdot(self, t):
        return self.trajectory(t)[5]

    def y(self, t):
        s = self.trajectory(t)
        return s[2] ** 2 + s[3] ** 2

    def ydot(self, t):
        return _ydot(self.param.pair, self.trajectory(t))

    def wronskian(self, t):
        n, q = self.param.pair.n, self.param.pair.q
        return (q - n * self.y(t)) * self.Qdot(t) + n * self.ydot(t) * self.Q(t)


def solve_Q(curve: Curve) -> LinearisedSolution:
    """Integrate Q along ``curve`` on [-2.2 p_tau, 2.2 p_tau], anchored at y = q/n.

    Q rides as two extra components (Q, Q') on the curve system so that
    every quantity shares one error control.  Initial data: n y'(t0)
    Q(t0) = 1 and Q'(t0) = 0 at t0 = p_star (p = 1) or t0 = 0 (p > 1).
    The period, the anchor state and the tolerances are the curve's own.
    """
    param, tol = curve.param, curve.tol
    pair, tau = param.pair, param.tau
    if not 0.0 < abs(tau) < tau_max(pair) * (1 - 1e-10):
        raise ValueError("solve_Q requires 0 < |tau| < tau_max")
    p, q, n = pair.p, pair.q, pair.n
    data = curve.period
    base = curve.traj(0.0, 1.05 * data.p_tau)
    if p == 1:
        def g(t, s):
            return (s[2] ** 2 + s[3] ** 2) - q / n

        p_star = locate_event(base.trajectory, g, (1e-6, data.p_tau))
    else:
        p_star = 0.0
    state0 = np.concatenate([base.state(p_star), [1.0 / (n * base.ydot(p_star)), 0.0]])
    hi = 2.2 * data.p_tau
    traj = integrate(_field(p, q, linearised=True), state0, (-hi, hi), tol, t0=p_star)
    sol = LinearisedSolution(param=param, period=data, p_star=p_star,
                             wronskian_drift=0.0, trajectory=traj)
    ts = np.linspace(-2.0 * data.p_tau, 2.0 * data.p_tau, 101)
    sol.wronskian_drift = float(np.max(np.abs(sol.wronskian(ts) - 1.0)))
    return sol


def dpthat_dtau(curve: Curve) -> float:
    """Exact derivative of the angular period with respect to tau.

    p = 1: 4(n-1) [Q(p_tau)/(q - n y(p_tau)) - Q(0)/(q - n y(0))];
    p > 1: 4 p q [Q(p+)/(q - n y(p+)) - Q(-p-)/(q - n y(-p-))].
    """
    solution = curve.Q
    pair = curve.param.pair
    p, q, n = pair.p, pair.q, pair.n
    data = solution.period
    if p == 1:
        t_hi, t_lo = data.p_tau, 0.0
        factor = 4.0 * (n - 1)
    else:
        t_hi, t_lo = data.p_plus, -data.p_minus
        factor = 4.0 * p * q
    hi = solution.Q(t_hi) / (q - n * solution.y(t_hi))
    lo = solution.Q(t_lo) / (q - n * solution.y(t_lo))
    return float(factor * (hi - lo))


def dpthat_dtau_cross_check(curve: Curve) -> dict:
    """Formula value vs central finite differences of the angular period.

    The step h = max(1e-6, 1e-4 |tau|) balances truncation against the
    achievable accuracy of the period computation.  The neighbours
    tau +/- h are fresh curves at the same tolerance.  The relative gap
    is returned as ``rel_err``; judging it is the caller's (``verify``
    holds it to 1e-6).  A step that reaches tau = 0 from either side
    raises ValueError.
    """
    param, tol = curve.param, curve.tol
    tau = param.tau
    h = max(1e-6, 1e-4 * abs(tau))
    if abs(tau) <= h:
        raise ValueError(f"finite-difference step h = {h} reaches 0 from tau = {tau}")
    value = dpthat_dtau(curve)
    up = period_ode(TwistParam(param.pair, tau + h), tol).pthat
    dn = period_ode(TwistParam(param.pair, tau - h), tol).pthat
    fd = (up - dn) / (2.0 * h)
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
        y_min, _ = y_extrema(param)
        return y_min, (2.0 * tau) ** (2.0 / q)
    if law_id == "ymax_gap":
        _, y_max = y_extrema(param)
        return 1.0 - y_max, (2.0 * tau) ** (2.0 / p)
    pp, pm = partial_periods_quadrature(param)
    if law_id == "pt_plus":
        return pp, asymptotic_constants(q) * time_scale(q, tau)
    if law_id == "pt_minus":
        if p == 1:
            raise ValueError("pt_minus law applies only to p > 1")
        return pm, asymptotic_constants(p) * time_scale(p, tau)
    if law_id == "pt":
        mult = 2.0 if p == q else 1.0
        return pp + pm, mult * asymptotic_constants(q) * time_scale(q, tau)
    if law_id == "pthat_excess":
        phat = pthat_quadrature(param)
        return phat - math.pi / 2.0, (4.0 * p / q) * tau * (pp + pm)
    raise ValueError(f"unknown law {law_id!r}; choose from {ASYMPTOTIC_LAWS}")


def check_asymptotics(pair, tau_list, law_id: str | None = None) -> list[AsymptoticsReport]:
    """Ratio measured/predicted for each tau and each requested law.

    With law_id None, all laws applicable to the pair are evaluated.
    The reports are observational: the caller decides what trend or
    band to demand of the ratios.
    """
    laws = [law_id] if law_id else [
        l for l in ASYMPTOTIC_LAWS if not (l == "pt_minus" and pair.p == 1)]
    out = []
    for law in laws:
        for tau in tau_list:
            measured, predicted = _law_values(pair, float(tau), law)
            out.append(AsymptoticsReport(
                tau=float(tau), measured=float(measured),
                predicted=float(predicted),
                ratio=float(measured / predicted), law_id=law))
    return out
