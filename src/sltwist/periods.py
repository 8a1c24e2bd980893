"""Periods, partial periods and the angular period, each by two routes.

Route one is singular quadrature of the energy-level integrals

    p+ = int_{y_min}^{q/n} dy / (2 sqrt(f(y) - 4 tau^2)),
    p- = int_{q/n}^{y_max} dy / (2 sqrt(f(y) - 4 tau^2)),

with the square-root endpoint singularities removed by u = s^2, the
distance of y from its root.  Each root is held as its distance r from 0
(y_min) or 1 (1 - y_max), so both halves are one formula: the radicand over
s^2 is a polynomial in u from the factors (r + u)^a ((1 - r) - u)^b of f,
with no cancellation at the root.  Then s = d sinh(v), with d^2 the smaller
of the branch length and r (the pole of the angle weight 1/y or 1/(1 - y)),
and one 64-node Gauss-Legendre rule in v sums both halves for an array of
tau at once.  One evaluation gives the three route integrals of a tau, with
the weights 1, 1/(1 - y) and 1/y (time, psi1 and psi2), where
(y, 1 - y) = (r + u, (1 - r) - u) on y_min's half and the pair swapped on
y_max's; :func:`branch_integral` holds them for 64 taus, and every one-tau
read goes through it.
Route two locates the extrema of y along the integrated curve as events
and reads the angles psi_i off arg w on the same trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ode_engine import locate_event
from .twisted_curve import (AdmissiblePair, TwistParam, TwistTrajectory, _extrema, _gaps, _y,
                            _ydot, f_prime, f_taylor_coeffs)


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


def _branch_halves(pair: AdmissiblePair, taus, gaps, rows) -> np.ndarray:
    """The route integrals int w(y) dy / (2 sqrt(f(y) - 4 tau^2)) over [y_min, q/n]
    and [q/n, y_max] for each tau, by the rule of the module docstring, as one
    (len(rows), 2, len(taus)) array: on axis 0 the weights of ``rows`` among
    w = 1, 1/(1 - y) and 1/y (rows 0, 1 and 2: time, psi1 and psi2 over 2 tau),
    the halves on axis 1; only those weights are evaluated.  ``gaps`` is
    (y_min, 1 - y_max) of ``taus``, two arrays over tau or two floats for one
    tau.  Each tau's row is summed by its own product with the rule, so it has
    the same bits in any batch and whatever other rows are asked for.  A sum
    that is not finite is refused, naming its tau."""
    p, q, n = pair.p, pair.q, pair.n
    r = np.reshape(gaps, (2, -1, 1))
    c = np.stack([f_taylor_coeffs(q, p, r[0]), f_taylor_coeffs(p, q, r[1])], axis=1)
    # a G that rounds below 0 turns the sum NaN: the refusal below names its tau
    with np.errstate(divide="ignore", invalid="ignore"):
        length = np.array([q, p]).reshape(2, 1, 1) / n - r     # from the root to q/n
        d = np.sqrt(np.minimum(r, length))
        span = np.arcsinh(np.sqrt(length) / d)
        v = span * _NODES
        s2 = (d * np.sinh(v)) ** 2
        G = c[-1]
        for ck in c[-2::-1]:
            G = G * s2 + ck         # f(y) - 4 tau^2 = s^2 G, positive inside
        scale, cosh, root = d * span, np.cosh(v), np.sqrt(G)
        del v, G

        def near(h):        # y on y_min's half (h = 0), 1 - y on y_max's (h = 1)
            return r[h] + s2[h]

        def far(h):         # 1 - y on y_min's half, y on y_max's
            return (1.0 - r[h]) - s2[h]

        weight = {0: lambda: 1.0, 1: lambda: 1.0 / np.stack([far(0), near(1)]),
                  2: lambda: 1.0 / np.stack([near(0), far(1)])}
        out = np.empty((len(rows), *s2.shape[:2]))
        for i, row in enumerate(rows):
            out[i] = ((scale * (weight[row]() * cosh / root))[..., None, :] @ _WEIGHTS)[..., 0]
    finite = np.isfinite(out).all(axis=(0, 1))
    if not finite.all():
        tau = abs(np.ravel(taus)[np.argmin(finite)])
        raise ArithmeticError(f"the branch quadrature at |tau|={tau} is not finite")
    return out


@lru_cache(maxsize=64)     # a curve's Newton seeds and route gaps ask for the same tau
def branch_integral(param: TwistParam) -> tuple[tuple[float, float], ...]:
    """The (3, 2) row of :func:`_branch_halves` for one tau, as tuples of floats:
    (p_plus, p_minus) by time, then the psi1 and psi2 integrals of the two halves.

    Each is the integral of its weight w(y(t)) dt over one monotone half-branch of y.
    """
    halves = _branch_halves(param.pair, param.tau, _gaps(param), (0, 1, 2))
    return tuple(map(tuple, halves[..., 0].tolist()))


def partial_periods_quadrature(param: TwistParam) -> tuple[float, float]:
    """(p_plus, p_minus) by singular quadrature.

    For p = 1 returns (p_tau, 0.0): the partial split is a p > 1 notion
    and the whole branch integral is the half-period.  tau = 0 and |tau| at
    tau_max are refused by :func:`_extrema`.
    """
    p_plus, p_minus = branch_integral(param)[0]
    return (p_plus + p_minus, 0.0) if param.pair.p == 1 else (p_plus, p_minus)


def angular_periods(pair: AdmissiblePair, taus) -> np.ndarray:
    """pthat by quadrature for each tau of an array: p * int 2 tau/(1 - y)."""
    (lo, hi), = _branch_halves(pair, taus, _extrema(pair, taus), (1,))
    return 2.0 * pair.p * np.asarray(taus, dtype=float) * (lo + hi)


def pthat_quadrature(param: TwistParam) -> float:
    """Angular period by quadrature: p * (change of psi1 over one branch)."""
    return 2.0 * param.pair.p * param.tau * sum(branch_integral(param)[1])


def pthat_quadrature_psi2(param: TwistParam) -> float:
    """Angular period from the psi2 side: q * int 2 tau / y.

    Equal to :func:`pthat_quadrature` because p psi1 + q psi2 vanishes
    over a full period.
    """
    return 2.0 * param.pair.q * param.tau * sum(branch_integral(param)[2])


def period_ode(curve: TwistTrajectory) -> PeriodData:
    """Period data from extremum events on the integrated curve.

    The events are the zeros of y' = -2 Re(w1^p w2^q), located by Newton's
    method through y'' = 2 f'(y) on integrated endpoints, seeded by the
    quadrature's estimates; the angles psi_i at 2 p_tau are read off arg w at
    the integrated endpoint there (the dense output is less accurate), by the
    lift of :meth:`TwistTrajectory.psi`.  For p = 1, 2 p_tau is a maximum
    of y, where psi1' = 2 tau/(1 - y) is about 1/(2 tau); the event located
    is that maximum, and p_tau is half its time (at the minimum, y'' is only
    2 q y_min^(q-1), so a state error moves the event that much more).
    """
    param = curve.param
    pair = param.pair
    p_est_plus, p_est_minus = partial_periods_quadrature(param)
    p_est = p_est_plus + p_est_minus
    traj = curve.trajectory

    def g(s):
        return _ydot(pair, s)

    def g_prime(s):
        return 2.0 * f_prime(pair, _y(s))

    if pair.p > 1:
        p_plus = locate_event(traj, g, g_prime, p_est_plus, (0.5 * p_est_plus, 1.5 * p_est_plus))
        p_minus = -locate_event(traj, g, g_prime, -p_est_minus,
                                (-0.5 * p_est_minus, -1.5 * p_est_minus))
    else:
        p_plus = 0.5 * locate_event(traj, g, g_prime, 2.0 * p_est, (1.5 * p_est, 2.5 * p_est))
        p_minus = 0.0
    p_tau = p_plus + p_minus
    t_end = np.array([2.0 * p_tau])
    (psi1_2p,), (psi2_2p,) = curve._lift(t_end, traj.endpoint(t_end[0])[:, None])
    return PeriodData(p_plus=float(p_plus), p_minus=float(p_minus),
                      p_tau=float(p_tau), pthat=float(0.5 * pair.p * psi1_2p),
                      psi1_2p=float(psi1_2p), psi2_2p=float(psi2_2p))
