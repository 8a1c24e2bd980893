"""Periods, partial periods and the angular period, each by two routes.

Route one is singular quadrature of the energy-level integrals

    p+ = int_{y_min}^{q/n} dy / (2 sqrt(f(y) - 4 tau^2)),
    p- = int_{q/n}^{y_max} dy / (2 sqrt(f(y) - 4 tau^2)),

with the square-root endpoint singularities removed by the substitution
y = y_end +/- s^2 (the radicand divided by s^2 is then a polynomial in
s^2, evaluated by the exact Taylor expansion of f about the root, so
there is no cancellation at the endpoint).  Then s = a sinh(u), with a^2
the smaller of the branch length and the root's distance from 0 or 1
(the pole of the angle weight 1/y or 1/(1 - y)), and one 64-node
Gauss-Legendre rule in u sums both halves for an array of tau at once.
A weight h is called as h(y, 1 - y), with 1 - y = (1 - y_end) -/+ s^2.
Route two locates the extrema of y along the integrated curve as events
and reads the angles psi_i off arg w on the same trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import Curve
from .ode_engine import Tolerances, locate_event
from .twisted_curve import (AdmissiblePair, TwistParam, _extrema, _y, _ydot, f_prime,
                            f_taylor_coeffs, y_extrema)

__all__ = [
    "PeriodData", "partial_periods_quadrature", "pthat_quadrature", "angular_periods",
    "branch_integral", "period_ode",
]


def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 64-point Gauss-Legendre rule on [0, 1]: Newton on
    the Legendre recurrence in t = 1 - |x| keeps the outer weights to rounding
    (``leggauss`` is off by 1e-12 there)."""
    n = 64
    t = 2.0 * np.sin(0.5 * np.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5)) ** 2
    for _ in range(10):
        p, d = 1.0 - t, -t              # P_k(1 - t) and P_k - P_(k-1), up to k = n
        for k in range(2, n + 1):
            d = ((k - 1) * d - (2 * k - 1) * t * p) / k
            p = p + d
        dp = n * (p - d - (1.0 - t) * p) / (t * (2.0 - t))     # P_n' at x = 1 - t
        t = t + p / dp
    w = 1.0 / (t * (2.0 - t) * dp * dp)
    return np.concatenate([0.5 * t, 1.0 - 0.5 * t]), np.concatenate([w, w])


_NODES, _WEIGHTS = _gauss_legendre()


@dataclass(frozen=True)
class PeriodData:
    """Half-period of y, its split at the extrema, and the angle data.

    p_tau = p_plus + p_minus; pthat = (p/2) psi1(2 p_tau).  For p = 1 the
    convention is p_plus = p_tau, p_minus = 0 (y starts at its maximum).
    """

    p_plus: float
    p_minus: float
    p_tau: float
    pthat: float
    psi1_2p: float
    psi2_2p: float


def _branch_halves(pair: AdmissiblePair, taus, extrema, h) -> tuple[np.ndarray, np.ndarray]:
    """int h(y, 1 - y) dy / (2 sqrt(f(y) - 4 tau^2)) over [y_min, q/n] and
    [q/n, y_max] for each tau, by the rule of the module docstring; ``extrema``
    is (y_min, y_max) of ``taus``, two arrays over tau or two floats for one
    tau.  A sum that is not finite is refused, naming its tau."""
    y0 = np.reshape(extrema, (2, -1, 1))
    sign = np.array([1.0, -1.0])[:, None, None]     # y = y_min + s^2 and y = y_max - s^2
    # a G that rounds below 0 turns the sum NaN: the refusal below names its tau
    with np.errstate(divide="ignore", invalid="ignore"):
        length = sign * (pair.q / pair.n - y0)
        a = np.sqrt(np.minimum(np.where(sign > 0, y0, 1.0 - y0), length))
        span = np.arcsinh(np.sqrt(length) / a)
        u = span * _NODES
        s2 = (a * np.sinh(u)) ** 2
        c = f_taylor_coeffs(pair, y0) * sign ** np.arange(1, pair.n + 1)[:, None, None, None]
        G = c[-1]
        for ck in c[-2::-1]:
            G = G * s2 + ck         # f(y0 + sign s^2) - f(y0) = s^2 G, positive inside
        g = h(y0 + sign * s2, (1.0 - y0) - sign * s2) * np.cosh(u) / np.sqrt(G)
        lo, hi = (a * span * g) @ _WEIGHTS
    finite = np.isfinite(lo + hi)
    if not finite.all():
        tau = abs(np.ravel(taus)[np.argmin(finite)])
        raise ArithmeticError(f"the branch quadrature at |tau|={tau} is not finite")
    return lo, hi


def branch_integral(param: TwistParam, h) -> float:
    """int_{y_min}^{y_max} h(y, 1 - y) dy / (2 sqrt(f(y) - 4 tau^2)), h taking arrays.

    This is the integral of h(y(t)) dt over one monotone branch of y.
    """
    (lo,), (hi,) = _branch_halves(param.pair, param.tau, y_extrema(param), h)
    return float(lo + hi)


def partial_periods_quadrature(param: TwistParam) -> tuple[float, float]:
    """(p_plus, p_minus) by singular quadrature.

    For p = 1 returns (p_tau, 0.0): the partial split is a p > 1 notion
    and the whole branch integral is the half-period.  tau = 0 and |tau| at
    tau_max are refused by :func:`y_extrema`.
    """
    pair = param.pair
    (p_plus,), (p_minus,) = _branch_halves(pair, param.tau, y_extrema(param),
                                           lambda y, one_minus_y: 1.0)
    return (float(p_plus + p_minus), 0.0) if pair.p == 1 else (float(p_plus), float(p_minus))


def _psi1_weight(y, one_minus_y):
    return 1.0 / one_minus_y


def angular_periods(pair: AdmissiblePair, taus) -> np.ndarray:
    """pthat by quadrature for each tau of an array: p * int 2 tau/(1 - y)."""
    lo, hi = _branch_halves(pair, taus, _extrema(pair, taus), _psi1_weight)
    return 2.0 * pair.p * np.asarray(taus, dtype=float) * (lo + hi)


def pthat_quadrature(param: TwistParam) -> float:
    """Angular period by quadrature: p * (change of psi1 over one branch)."""
    p, tau = param.pair.p, param.tau
    return 2.0 * p * tau * branch_integral(param, _psi1_weight)


def pthat_quadrature_psi2(param: TwistParam) -> float:
    """Angular period from the psi2 side: q * int 2 tau / y.

    Equal to :func:`pthat_quadrature` because p psi1 + q psi2 vanishes
    over a full period.
    """
    q, tau = param.pair.q, param.tau
    return 2.0 * q * tau * branch_integral(param, lambda y, one_minus_y: 1.0 / y)


def period_ode(param: TwistParam, tol: Tolerances = Tolerances(),
               curve: Curve | None = None) -> PeriodData:
    """Period data from extremum events on the integrated curve.

    The events are the zeros of y' = -2 Re(w1^p w2^q), located on the
    dense output; the angles psi_i at 2 p_tau are read off arg w there
    (:meth:`TwistTrajectory.psi`).  For p = 1, 2 p_tau is a maximum of y,
    where psi1' = 2 tau/(1 - y) is about 1/(2 tau); the event located is
    that maximum, with a Newton polish through y'' = 2 f'(y) on the
    integrated state, and p_tau is half its time (at the minimum, y'' is
    only 2 q y_min^(q-1), so a state error moves the event that much more).
    The trajectory is read off ``curve`` (a new Curve of (param, tol) by default).
    """
    pair = param.pair
    if curve is None:
        curve = Curve(param, tol)
    p_est_plus, p_est_minus = partial_periods_quadrature(param)
    p_est = p_est_plus + p_est_minus
    fwd = 2.0 * p_est * (1.0 + 1e-6) + 1e-3
    bwd = -(1.5 * p_est_minus + 1e-3) if pair.p > 1 else 0.0
    traj = curve.traj(bwd, fwd)

    def g(t, s):
        return _ydot(pair, s)

    def g_prime(t, s):
        return 2.0 * f_prime(pair, _y(s))

    if pair.p > 1:
        p_plus = locate_event(traj.trajectory, g, (0.5 * p_est_plus, 1.5 * p_est_plus))
        p_minus = -locate_event(traj.trajectory, g, (-0.5 * p_est_minus, -1.5 * p_est_minus))
    else:
        p_plus = 0.5 * locate_event(traj.trajectory, g, (1.5 * p_est, fwd), g_prime)
        p_minus = 0.0
    p_tau = p_plus + p_minus
    psi1_2p, psi2_2p = traj.psi(2.0 * p_tau)
    pthat = 0.5 * pair.p * psi1_2p
    return PeriodData(p_plus=float(p_plus), p_minus=float(p_minus),
                      p_tau=float(p_tau), pthat=float(pthat),
                      psi1_2p=float(psi1_2p), psi2_2p=float(psi2_2p))
