"""Closure analysis: which curves close up, after how many periods, onto what.

A curve closes iff its angular period is a rational multiple of pi.
Rationality is never inferred from floating point: the solver only ever
hunts for the tau that realises an exact rational target a/b * pi, and
the rotational order k0 then comes from integer arithmetic alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ode_engine import Tolerances, brent
# closure.period_ode stays a name of this module: perfbench's tracer looks it up here
from .periods import angular_periods, period_ode, pthat_quadrature  # noqa: F401
from .twisted_curve import AdmissiblePair, TwistParam, TwistTrajectory, _w, tau_max

_SCAN_POINTS = 200
K0_CAP = 10**6           # the search refuses a larger rotational order


class BracketingError(ArithmeticError):
    """The target angular period is not bracketed by the scan."""


@dataclass(frozen=True)
class RationalTarget:
    """Target angular period (numerator/denominator) * pi, in lowest terms."""

    numerator: int
    denominator: int

    def __post_init__(self):
        if self.numerator <= 0 or self.denominator <= 0:
            raise ValueError("numerator and denominator must be positive")
        if math.gcd(self.numerator, self.denominator) != 1:
            raise ValueError("target fraction must be in lowest terms")

    @property
    def angle(self) -> float:
        return self.numerator * math.pi / self.denominator


@dataclass(frozen=True)
class ClosureReport:
    """Rotational order, period-lattice generator and quotient topology.

    ``half_period_type`` (j, k) names a half-period of the link, w(t + k0 p_tau) =
    D w(t) with D = ((-1)^j Id, (-1)^k Id), a sign on each sphere factor.  For p = 1
    the first factor is the point 1, which cannot absorb -1: with n even the curve's
    -Id is a symmetry of the curve, not a half-period, so the type is None.
    """

    k0: int                             # finite; the search refuses one above K0_CAP
    per_generator: str
    half_period_type: tuple[int, int] | None
    topology: str


@dataclass(frozen=True)
class ClosedCurveCheck:
    """Residuals of the closure relation and of the one-period rotation."""

    closure_residual: float
    rotation_residual: float


def k0_from_target(pair: AdmissiblePair, target: RationalTarget) -> int:
    """Smallest k > 0 with k * (a/b) * pi in pi * lcm(p, q) * Z.

    Exact integer arithmetic: k0 = lcm(p,q) b / gcd(a, lcm(p,q) b).
    """
    L = math.lcm(pair.p, pair.q)
    a, b = target.numerator, target.denominator
    return L * b // math.gcd(a, L * b)


def scan_brackets(pair: AdmissiblePair, target: RationalTarget) -> list[tuple[float, float]]:
    """All sign-change brackets of pthat(tau) - target on a geometric grid.

    The grid is geometric in tau over [1e-5, 0.999] * tau_max, which
    concentrates points where pthat varies logarithmically slowly (small
    tau), and is evaluated by one call of :func:`angular_periods`.  The
    attainable range is not assumed monotone: every bracket is reported.
    """
    tm = tau_max(pair)
    taus = np.geomspace(1e-5 * tm, 0.999 * tm, _SCAN_POINTS)
    vals = angular_periods(pair, taus) - target.angle
    out = []
    for i in range(len(taus) - 1):
        if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0:
            out.append((float(taus[i]), float(taus[i + 1])))
    return out


def find_tau_for_angular_period(pair: AdmissiblePair, target: RationalTarget,
                                tol: Tolerances) -> TwistTrajectory:
    """The curve at ``tol`` whose angular period equals the rational target.

    A rotational order k0 above ``K0_CAP`` is refused first.  Then Brent on the
    quadrature route in the first bracket of :func:`scan_brackets` (a warning if
    there are more, BracketingError if none).  The integrated (event-located)
    angular period of the curve at that root is accepted if it is within 1e-12 of
    the target; otherwise Brent on it, with xtol 1e-16, in a bracket grown about
    the root until it changes sign.  Each curve tried is integrated only as far
    as its period is read; the one returned, whose period was checked, is grown
    by :func:`verify_closed`'s dense reads to two periods, and its closure window
    is landed on without storing the run there.
    """
    k0 = k0_from_target(pair, target)
    if k0 > K0_CAP:
        raise ValueError(f"rotational order k0 = {k0} is above the cap {K0_CAP}: "
                         "closure cannot be verified")
    angle = target.angle
    brackets = scan_brackets(pair, target)
    if not brackets:
        raise BracketingError(
            f"target {target.numerator}pi/{target.denominator} not bracketed: "
            "outside the attainable angular-period range")
    if len(brackets) > 1:
        warnings.warn(f"{len(brackets)} brackets found for target "
                      f"{target.numerator}/{target.denominator}; using the first")
    lo, hi = brackets[0]

    def g_quad(t):
        return pthat_quadrature(TwistParam(pair, t)) - angle

    tau0 = brent(g_quad, lo, hi, 1e-16)

    curves: dict[float, TwistTrajectory] = {}       # by tau, for this call only

    def g_ode(t):
        if t not in curves:
            curves[t] = TwistTrajectory(TwistParam(pair, t), tol)
        return curves[t].period.pthat - angle

    err = g_ode(tau0)
    if abs(err) <= 1e-12:
        return curves[tau0]
    # quadrature and integrated routes differ by ~1e-11; a tiny bracket
    # around the quadrature root contains the integrated root
    tm = tau_max(pair)
    slope = max(abs(g_quad(tau0 + 1e-7) - g_quad(tau0 - 1e-7)) / 2e-7, 1e-300)
    delta = max(10.0 * abs(err) / slope, 1e-14)
    for _ in range(40):
        a = max(tau0 - delta, 1e-6 * tm)
        b = min(tau0 + delta, tm * (1.0 - 1e-9))
        if g_ode(a) * g_ode(b) <= 0.0:
            break
        delta *= 4.0
    else:
        raise BracketingError(
            f"integrated-route refinement failed to bracket the target near tau={tau0}")
    return curves[brent(g_ode, a, b, 1e-16)]


def verify_closed(curve: TwistTrajectory, k0: int, samples: int) -> ClosedCurveCheck:
    """Closure and one-period rotation residuals, each at ``samples`` times.

    closure_residual: max of |w(s + T/2) - w(s - T/2)| over s in [-p_tau, p_tau],
    T = 2 k0 p_tau the closing period: the closure relation over a window centred
    on the anchor, so that no read is farther from it than T/2 + p_tau.  Both
    halves are landed on in one call (:meth:`Trajectory.landed`), from each side's
    run continued past its stored steps without storing it, so memory does not
    grow with k0; for p = 1 the backward half is the forward one mirrored.
    rotation_residual: max of |w(t + 2 p_tau) - Mhat_{2 pthat} w(t)| over t in
    [0, 2 p_tau], with Mhat the phases (e^{2i pthat/p}, e^{-2i pthat/q}) of the
    diagonal rotation; w(t) and w(t + 2 p_tau) are dense reads of the stored curve.
    """
    from .geometry.symmetry import mhat     # keeps geometry out of `import sltwist`

    pair, data = curve.param.pair, curve.period
    m = mhat(pair, 2.0 * data.pthat)[:, None]
    ts = np.linspace(0.0, 2.0 * data.p_tau, samples)
    a = curve.w(ts)
    rotation = np.max(np.abs(curve.w(ts + 2.0 * data.p_tau) - m * a))
    half, s = k0 * data.p_tau, np.linspace(-data.p_tau, data.p_tau, samples)   # T/2
    ends = _w(curve.trajectory.landed(np.concatenate([s + half, s - half])))
    closure = np.max(np.abs(ends[:, :samples] - ends[:, samples:]))
    return ClosedCurveCheck(closure_residual=float(closure),
                            rotation_residual=float(rotation))


def half_period_classification(pair: AdmissiblePair,
                               target: RationalTarget) -> ClosureReport:
    """Strict-half-period type and quotient topology for a rational target.

    k0 odd: no strict half-periods, the quotient is the product
    S^1 x S^(p-1) x S^(q-1) (p > 1) or S^1 x S^(n-2) (p = 1) with
    generator the translation by 2 k0 p_tau.  k0 even: for p > 1 the
    type is (q/h mod 2, p/h mod 2) with h = gcd(p, q); for p = 1 strict
    half-periods exist only when n is odd (type (0,1); :class:`ClosureReport`
    says why).  The quotient is a Z2-quotient exactly when k0 is even and n
    is odd.  A k0 above ``K0_CAP`` is classified as any other; the search refuses it.
    """
    p, q, n = pair.p, pair.q, pair.n
    k0 = k0_from_target(pair, target)
    even, h = k0 % 2 == 0, math.gcd(p, q)
    # for p = 1 the rule gives (0, 1) exactly when n is odd
    jk = ((q // h) % 2, (p // h) % 2) if even and (p > 1 or n % 2) else None
    if even and n % 2:
        flip = "(-Id)" if p == 1 else f"((-1)^{jk[0]} Id, (-1)^{jk[1]} Id)"
        return ClosureReport(k0=k0, per_generator=f"T[{k0} p_tau] o {flip}",
                             half_period_type=jk, topology="Z2-quotient")
    product = f"S^1 x S^{p - 1} x S^{q - 1}" if p > 1 else f"S^1 x S^{n - 2}"
    return ClosureReport(k0=k0, per_generator=f"T[{2 * k0} p_tau]",
                         half_period_type=jk, topology=f"product {product}")


def _necklace_index(pair: AdmissiblePair) -> int:
    """The family index k of a necklace pair: n - 1 for p = 1, p for p = q."""
    if pair.p == 1:
        return pair.n - 1
    if pair.p == pair.q:
        return pair.p
    raise ValueError("necklace construction requires p = 1 or p = q")


def necklace_target(pair: AdmissiblePair, m: int) -> RationalTarget:
    """(km / (2km - 1)) pi, the angular period of the m-th necklace; m >= 1.

    k is the family index, n - 1 for p = 1 and p for p = q.  In lowest terms, as a
    common divisor divides 2km - (2km - 1) = 1; as lcm(p, q) = k in both families,
    :func:`k0_from_target` gives k(2km - 1) / gcd(km, k(2km - 1)) = 2km - 1, odd.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    km = _necklace_index(pair) * m
    return RationalTarget(km, 2 * km - 1)


def necklace(pair: AdmissiblePair, m: int, tol: Tolerances) -> tuple[TwistTrajectory, int]:
    """Closed curve with odd rotational order from the small-tau window.

    Returns (curve, k0): the curve of :func:`find_tau_for_angular_period` at
    :func:`necklace_target`, and its order 2km - 1 by :func:`k0_from_target`.
    """
    target = necklace_target(pair, m)
    return find_tau_for_angular_period(pair, target, tol=tol), k0_from_target(pair, target)


def necklace_scaling_ratio(pair: AdmissiblePair, m: int, tau: float) -> float:
    """m against its leading-order prediction from the found tau.

    Prediction: m ~ c/(tau T_k(tau)) with k the family index of
    :func:`necklace_target`, c = pi/(16 k b_k) for p = 1 (k = n-1) and
    c = pi/(32 k b_k) for p = q (k = p).  Leading order only; useful as an
    order-of-magnitude diagnostic.
    """
    from .variation import asymptotic_constants, time_scale

    k = _necklace_index(pair)
    c = math.pi / ((16.0 if pair.p == 1 else 32.0) * k * asymptotic_constants(k))
    return m / (c / (tau * time_scale(k, tau)))
