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

from .curve import Curve
from .ode_engine import Tolerances, brent
# closure.period_ode stays a name of this module: perfbench's tracer looks it up here
from .periods import angular_periods, period_ode, pthat_quadrature  # noqa: F401
from .twisted_curve import AdmissiblePair, TwistParam, tau_max

__all__ = [
    "BracketingError", "RationalTarget", "ClosureReport", "ClosedCurveCheck", "K0_CAP",
    "k0_from_target", "find_tau_for_angular_period", "scan_brackets", "verify_closed",
    "half_period_classification", "necklace", "necklace_scaling_ratio",
]

_SCAN_POINTS = 200
K0_CAP = 10**6           # larger rotational orders are reported as non-closing


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
    """Rotational order, period-lattice generator and quotient topology."""

    k0: int | None                      # None encodes infinite order
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
                                tol: Tolerances = Tolerances()) -> Curve:
    """The curve at ``tol`` whose angular period equals the rational target.

    Brent on the quadrature route in the first bracket of :func:`scan_brackets`
    (a warning if there are more, BracketingError if none), then Brent on the
    integrated (event-located) angular period to |pthat_ode - target| <= 1e-10.
    The curve returned is the one whose period was checked, with its trajectory.
    """
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

    curves: dict[float, Curve] = {}       # by tau, for this call only

    def g_ode(t):
        if t not in curves:
            curves[t] = Curve(TwistParam(pair, t), tol)
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


def verify_closed(curve: Curve, k0: int, samples: int = 20) -> ClosedCurveCheck:
    """Closure and one-period rotation residuals over a long integration.

    closure_residual: max over samples of |w(t + 2 k0 p_tau) - w(t)|.
    rotation_residual: max of |w(t + 2 p_tau) - Mhat_{2 pthat} w(t)| with
    Mhat the phases (e^{2i pthat/p}, e^{-2i pthat/q}) of the diagonal rotation.
    """
    from .geometry.symmetry import mhat     # keeps geometry out of `import sltwist`

    pair, data = curve.param.pair, curve.period
    T = 2.0 * k0 * data.p_tau
    traj = curve.traj(0.0, T + 2.0 * data.p_tau + 1e-6)
    m = mhat(pair, 2.0 * data.pthat)[:, None]
    ts = np.linspace(0.0, 2.0 * data.p_tau, samples)
    a = np.array(traj.w(ts))
    closure = np.max(np.abs(np.array(traj.w(ts + T)) - a))
    rotation = np.max(np.abs(np.array(traj.w(ts + 2.0 * data.p_tau)) - m * a))
    return ClosedCurveCheck(closure_residual=float(closure),
                            rotation_residual=float(rotation))


def half_period_classification(pair: AdmissiblePair,
                               target: RationalTarget) -> ClosureReport:
    """Strict-half-period type and quotient topology for a rational target.

    k0 odd: no strict half-periods, the quotient is the product
    S^1 x S^(p-1) x S^(q-1) (p > 1) or S^1 x S^(n-2) (p = 1) with
    generator the translation by 2 k0 p_tau.  k0 even: for p > 1 the
    type is (q/h mod 2, p/h mod 2) with h = gcd(p, q); for p = 1 strict
    half-periods exist only when n is odd (type (0,1)).  The quotient is
    a Z2-quotient exactly when k0 is even and n is odd.
    """
    p, q, n = pair.p, pair.q, pair.n
    k0 = k0_from_target(pair, target)
    if k0 > K0_CAP:
        return ClosureReport(k0=None, per_generator="none (order above cap)",
                             half_period_type=None, topology="non-closing")
    product = (f"S^1 x S^{p - 1} x S^{q - 1}" if p > 1 else f"S^1 x S^{n - 2}")
    if k0 % 2 == 1:
        return ClosureReport(k0=k0, per_generator=f"T[{2 * k0} p_tau]",
                             half_period_type=None, topology=f"product {product}")
    if p == 1:
        if n % 2 == 1:
            return ClosureReport(
                k0=k0, per_generator=f"T[{k0} p_tau] o (-Id)",
                half_period_type=(0, 1), topology="Z2-quotient")
        return ClosureReport(k0=k0, per_generator=f"T[{2 * k0} p_tau]",
                             half_period_type=None, topology=f"product {product}")
    h = math.gcd(p, q)
    jk = ((q // h) % 2, (p // h) % 2)
    if (jk[0] * p + jk[1] * q) % 2 != 0:
        raise AssertionError(f"half-period type {jk} violates parity for ({p},{q})")
    if n % 2 == 1:
        return ClosureReport(
            k0=k0,
            per_generator=f"T[{k0} p_tau] o ((-1)^{jk[0]} Id, (-1)^{jk[1]} Id)",
            half_period_type=jk, topology="Z2-quotient")
    return ClosureReport(k0=k0, per_generator=f"T[{2 * k0} p_tau]",
                         half_period_type=jk, topology=f"product {product}")


def necklace(pair: AdmissiblePair, m: int,
             tol: Tolerances = Tolerances()) -> tuple[Curve, int]:
    """Closed curve with odd rotational order from the small-tau window.

    p = 1: target ((n-1)m / (2(n-1)m - 1)) pi, k0 = 2(n-1)m - 1;
    p = q: target (pm / (2pm - 1)) pi, k0 = 2pm - 1.  Returns (curve, k0)
    with the curve of :func:`find_tau_for_angular_period`;
    raises if the target is not bracketed by the angular-period scan.
    """
    p, q, n = pair.p, pair.q, pair.n
    if m < 1:
        raise ValueError("m must be a positive integer")
    if p == 1:
        a, b = (n - 1) * m, 2 * (n - 1) * m - 1
    elif p == q:
        a, b = p * m, 2 * p * m - 1
    else:
        raise ValueError("necklace construction requires p = 1 or p = q")
    g = math.gcd(a, b)
    target = RationalTarget(a // g, b // g)
    k0 = 2 * (n - 1) * m - 1 if p == 1 else 2 * p * m - 1
    k0_check = k0_from_target(pair, target)
    if k0_check != k0:
        raise AssertionError(f"integer k0 routes disagree: {k0} vs {k0_check}")
    return find_tau_for_angular_period(pair, target, tol=tol), k0


def necklace_scaling_ratio(pair: AdmissiblePair, m: int, tau: float) -> float:
    """m against its leading-order prediction from the found tau.

    Prediction: m ~ c/(tau T_k(tau)) with c = pi/(16(n-1) b_{n-1}) for
    p = 1 (k = n-1) and c = pi/(32 p b_p) for p = q (k = p).  Leading
    order only; useful as an order-of-magnitude diagnostic.
    """
    from .variation import asymptotic_constants, time_scale

    p, n = pair.p, pair.n
    if p == 1:
        k = n - 1
        c = math.pi / (16.0 * (n - 1) * asymptotic_constants(k))
    elif p == pair.q:
        k = p
        c = math.pi / (32.0 * p * asymptotic_constants(k))
    else:
        raise ValueError("scaling ratio defined for p = 1 or p = q only")
    return m / (c / (tau * time_scale(k, tau)))
