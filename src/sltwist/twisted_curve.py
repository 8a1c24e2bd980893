"""The twisted special Legendrian curve system on S^3.

For an admissible integer pair (p, q), n = p + q, the curves solve

    w1' =  conj(w1)^(p-1) conj(w2)^q,
    w2' = -conj(w1)^p conj(w2)^(q-1),

with the two conserved quantities I1 = |w|^2 and I2 = Im(w1^p w2^q).
The canonical one-parameter family is labelled by tau = -I2/2 with
|tau| <= tau_max(p, q); conjugation maps the tau member to the -tau
member.  The field is written once, in :func:`_field`, and w1^p w2^q
once, in :func:`_twist`.  The radius function y = |w2|^2 obeys

    y'^2 = 4 (f(y) - 4 tau^2),      f(y) = y^q (1 - y)^p,

which drives everything else in the package: periods, angles, closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Polynomial

from .ode_engine import Tolerances, integrate

__all__ = [
    "AdmissiblePair", "TwistParam", "SphereState", "TwistTrajectory",
    "tau_max", "alpha_tau", "f_poly", "f_prime", "f_taylor_coeffs",
    "y_extrema", "initial_state", "velocity", "solve_w", "conjugate_family_check",
]

# tau this close to tau_max is treated as the constant-y solution; the two
# roots of f(y) = 4 tau^2 coalesce and refining them is meaningless.
_TAU_MAX_MARGIN = 1e-10
_UPPER_ROW = np.array([[0.0], [1.0]])      # marks the y_max row of _extrema


@dataclass(frozen=True)
class AdmissiblePair:
    """Integer pair (p, q) with 1 <= p <= q and q >= 2."""

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise TypeError("p and q must be integers")
        if not (1 <= self.p <= self.q and self.q >= 2):
            raise ValueError(f"pair ({self.p},{self.q}) is not admissible")

    @property
    def n(self) -> int:
        return self.p + self.q


@dataclass(frozen=True)
class TwistParam:
    """An admissible pair together with the conserved label tau."""

    pair: AdmissiblePair
    tau: float

    def __post_init__(self):
        tm = tau_max(self.pair)
        if math.isnan(self.tau):
            raise ValueError("tau is NaN")
        if abs(self.tau) > tm * (1 + 1e-12):
            raise ValueError(f"|tau|={abs(self.tau)} exceeds tau_max={tm}")

    @property
    def tau_max(self) -> float:
        return tau_max(self.pair)


@dataclass(frozen=True)
class SphereState:
    """A point (w1, w2) on the unit 3-sphere in C^2."""

    w1: complex
    w2: complex

    def __post_init__(self):
        r = abs(self.w1) ** 2 + abs(self.w2) ** 2
        if abs(r - 1.0) > 1e-10:
            raise ValueError(f"|w|^2 = {r} is not 1 within 1e-10")

    @property
    def y(self) -> float:
        return abs(self.w2) ** 2

    def as_real(self) -> np.ndarray:
        return np.array([self.w1.real, self.w1.imag, self.w2.real, self.w2.imag])


def tau_max(pair: AdmissiblePair) -> float:
    """Extreme value of |Im(w1^p w2^q)| / 2 on the unit sphere."""
    p, q, n = pair.p, pair.q, pair.n
    return 0.5 * math.sqrt(p**p * q**q / n**n)


def alpha_tau(param: TwistParam) -> float:
    """Phase angle arcsin(-tau/tau_max) in [-pi/2, pi/2]."""
    return math.asin(max(-1.0, min(1.0, -param.tau / tau_max(param.pair))))


def f_poly(pair: AdmissiblePair, y):
    """f(y) = y^q (1-y)^p."""
    y = np.asarray(y, dtype=float) if np.ndim(y) else float(y)
    return y**pair.q * (1.0 - y) ** pair.p


def f_prime(pair: AdmissiblePair, y):
    """f'(y) = y^(q-1) (1-y)^(p-1) (q - n y)."""
    y = np.asarray(y, dtype=float) if np.ndim(y) else float(y)
    return y ** (pair.q - 1) * (1.0 - y) ** (pair.p - 1) * (pair.q - pair.n * y)


@lru_cache(maxsize=None)
def _f_derivative_polys(p: int, q: int):
    f = Polynomial([0.0] * q + [1.0]) * Polynomial([1.0, -1.0]) ** p
    return tuple(f.deriv(k) for k in range(1, p + q + 1))


def f_taylor_coeffs(pair: AdmissiblePair, y0) -> np.ndarray:
    """Coefficients c_k = f^(k)(y0)/k! for k = 1..n, along axis 0 for an array y0.

    Since f is a degree-n polynomial, f(y0+d) - f(y0) = sum_k c_k d^k
    exactly; this is how differences of f are evaluated near its roots
    without catastrophic cancellation.
    """
    derivs = _f_derivative_polys(pair.p, pair.q)
    return np.array([d(y0) / math.factorial(k + 1) for k, d in enumerate(derivs)])


def _extrema(pair: AdmissiblePair, taus) -> tuple[np.ndarray, np.ndarray]:
    """(y_min, y_max) for each tau of an array: the two roots of f(y) = 4 tau^2
    in (0, 1), bracketing q/n.

    Refuses |tau| above tau_max, within a relative 1e-10 of it (coalescing
    roots), tau = 0 (double roots at the endpoints) and NaN, naming the
    first such tau.  Both roots of every tau come from one Newton iteration on
    h(y) = ln(f(y) / 4 tau^2), which is concave, started where h < 0 outside
    each root, so the iterates move monotonically towards it.  A root is done
    when its next step reverses direction or stops shrinking relative to y
    (y_min) or 1 - y (y_max): that is the Newton step in ln y or ln(1 - y),
    which shrinks from the first step, while the step in y itself first
    grows near 0 and 1.
    """
    p, q, n = pair.p, pair.q, pair.n
    tau = np.abs(np.asarray(taus, dtype=float))
    tm = tau_max(pair)
    bad = ~(tau > 0.0) | (tau >= tm * (1 - _TAU_MAX_MARGIN))
    if bad.any():
        t = tau[np.argmax(bad)]
        if math.isnan(t):
            raise ValueError("tau is NaN")
        if t > tm * (1 + 1e-12):
            raise ValueError(f"|tau|={t} exceeds tau_max={tm}")
        if t == 0.0:
            raise ValueError("tau = 0: f(y) = 0 has no interior double root to split")
        raise ValueError("|tau| too close to tau_max: extrema coalesce at q/n")
    target = 4.0 * tau * tau
    # Starts from the leading-order root asymptotics, moved 4x outward to
    # guarantee h < 0; the while-loops only fire very close to tau_max.
    lo = np.minimum((2.0 * tau) ** (2.0 / q) / 4.0, 0.5 * q / n)
    while (inside := f_poly(pair, lo) >= target).any():
        lo = np.where(inside, 0.5 * lo, lo)
    hi = 1.0 - np.minimum((2.0 * tau) ** (2.0 / p) / 4.0, 0.5 * p / n)
    while (inside := f_poly(pair, hi) >= target).any():
        hi = np.where(inside, 1.0 - 0.5 * (1.0 - hi), hi)
    y = np.stack([lo, hi])
    last = np.full(y.shape, np.inf)
    while True:
        e = 1.0 - y
        dy = np.log(target / (y**q * e**p)) / (q / y - p / e)
        rel = dy / (y - _UPPER_ROW)             # dy / y and dy / -(1 - y): > 0 ahead
        go = (0.0 < rel) & (rel < last)         # a stopped root keeps its y, so stays stopped
        if not go.any():
            return y[0], y[1]
        y = y + dy * go
        last = np.where(go, rel, last)


@lru_cache(maxsize=64)     # one curve asks for its extrema from several routes
def y_extrema(param: TwistParam) -> tuple[float, float]:
    """The two roots of f(y) = 4 tau^2 in (0, 1), bracketing q/n (see :func:`_extrema`)."""
    (y_min,), (y_max,) = _extrema(param.pair, [param.tau])
    return float(y_min), float(y_max)


def initial_state(param: TwistParam) -> SphereState:
    """Canonical initial condition of the family.

    p > 1: (sqrt(p/n) e^{i a/2p}, sqrt(q/n) e^{i a/2q}) with
    a = arcsin(-tau/tau_max); p = 1: the point y = y_max, as
    w1 = -2 i tau / y_max^(q/2) and w2 = sqrt(1 - |w1|^2).
    Either way Im(w1^p w2^q) = -2 tau; for p = 1 this and |w|^2 = 1 hold
    to rounding even where 1 - y_max ~ 4 tau^2 is below the spacing of
    doubles near 1, because the small |w1| is never taken from 1 - y_max.
    """
    pair, tau = param.pair, param.tau
    p, q, n = pair.p, pair.q, pair.n
    if p > 1:
        a = alpha_tau(param)
        return SphereState(
            w1=math.sqrt(p / n) * np.exp(1j * a / (2 * p)),
            w2=math.sqrt(q / n) * np.exp(1j * a / (2 * q)),
        )
    tm = tau_max(pair)
    if tau == 0.0 or abs(tau) >= tm * (1 - _TAU_MAX_MARGIN):
        y_max = 1.0 if tau == 0.0 else q / n
    else:
        _, y_max = y_extrema(param)
    w1 = -2j * tau / y_max ** (q / 2)
    return SphereState(w1=w1, w2=math.sqrt(1.0 - abs(w1) ** 2))


# ---------------------------------------------------------------------------
# the integrated curve


def _field(p: int, q: int, linearised: bool = False):
    """Right-hand side for the real 4-vector w = (w1, w2); with ``linearised``
    for the 6-vector that appends (Q, Q') of the linearised equation
    Q'' = -2 n |w'|^2 Q.  tau enters only through the initial state."""
    n = p + q

    def rhs(t, s):
        w1 = complex(s[0], s[1])
        w2 = complex(s[2], s[3])
        c1 = w1.conjugate() ** (p - 1) * w2.conjugate() ** q
        c2 = -(w1.conjugate() ** p) * w2.conjugate() ** (q - 1)
        if linearised:
            y = w2.real * w2.real + w2.imag * w2.imag
            return (c1.real, c1.imag, c2.real, c2.imag,
                    s[5], -2.0 * n * (y ** (q - 1) * (1.0 - y) ** (p - 1)) * s[4])
        return (c1.real, c1.imag, c2.real, c2.imag)

    return rhs


def velocity(pair: AdmissiblePair, w1: complex, w2: complex) -> tuple[complex, complex]:
    """(w1', w2') at the point (w1, w2): the field of :func:`_field`, bit for bit."""
    c = _field(pair.p, pair.q)(0.0, (w1.real, w1.imag, w2.real, w2.imag))
    return complex(c[0], c[1]), complex(c[2], c[3])


def _twist(pair: AdmissiblePair, w1, w2):
    """w1^p w2^q, of complex numbers or arrays; its imaginary part is I2 = -2 tau."""
    return w1 ** pair.p * w2 ** pair.q


def _ydot(pair: AdmissiblePair, s):
    """y' = -2 Re(w1^p w2^q) of real states (Re w1, Im w1, Re w2, Im w2, ...) on axis 0."""
    w = np.empty((2,) + np.shape(s)[1:], dtype=complex)
    w.real, w.imag = s[0:4:2], s[1:4:2]
    return -2.0 * _twist(pair, w[0], w[1]).real


class TwistTrajectory:
    """Dense solution of the curve system over an interval containing 0.

    The integrated state is w alone, held as one :class:`Trajectory`
    anchored at 0 (``trajectory``) and integrated from
    :func:`initial_state` for either sign of tau.  Accessors return the
    curve w(t) = (w1, w2), the radius y = |w2|^2 and its derivative, and
    the accumulated angles (psi1, psi2) with psi(0) = 0, read off arg w.
    The -tau curve is the exact conjugate of the tau curve: the initial
    states are conjugate, and the integrator commutes with conjugation
    bit for bit (its tableau is real, rounding is symmetric in sign and
    step control reads only |state|).  For tau = 0 the real initial state
    keeps w real.  At small tau the first factor shrinks to
    |w1|^2 = 1 - y_max, about (2 |tau|)^(2/p); its absolute tolerance is
    scaled by that much so that arg w1 keeps the digits of arg w2.
    """

    def __init__(self, param: TwistParam, t_span, tol: Tolerances):
        self.param = param
        self.tol = tol
        lo = min(0.0, float(t_span[0]))
        hi = max(0.0, float(t_span[1]))
        self.t_lo, self.t_hi = lo, hi
        pair, tau = param.pair, param.tau
        shrink = min(1.0, (2.0 * abs(tau)) ** (2.0 / pair.p)) if tau else 1.0
        scale = np.array([shrink, shrink, 1.0, 1.0])

        inv = {"I1": (lambda s: s[0] ** 2 + s[1] ** 2 + s[2] ** 2 + s[3] ** 2, 1.0),
               "I2": (lambda s: _twist(pair, complex(s[0], s[1]), complex(s[2], s[3])).imag,
                      -2.0 * tau)}
        self.trajectory = integrate(_field(pair.p, pair.q), initial_state(param).as_real(),
                                    (lo, hi), tol, inv, scale, t0=0.0)
        self.drift = self.trajectory.drift

    # -- state access: scalar t gives scalars, an array of times gives arrays --

    def _states(self, t) -> np.ndarray:
        """Real 4 x len states at the times t."""
        return self.trajectory(np.atleast_1d(np.asarray(t, dtype=float)))

    def state(self, t) -> np.ndarray:
        """Real 4-vector (Re w1, Im w1, Re w2, Im w2); 4 x len for arrays."""
        s = self._states(t)
        return s if np.ndim(t) else s[:, 0]

    def w(self, t):
        """(w1, w2): two complex numbers, or two complex arrays."""
        s = self._states(t)
        w = np.empty((2, s.shape[1]), dtype=complex)
        w.real, w.imag = s[0::2], s[1::2]
        return tuple(w) if np.ndim(t) else tuple(w[:, 0].tolist())

    def y(self, t):
        s = self._states(t)
        y = s[2] ** 2 + s[3] ** 2
        return y if np.ndim(t) else float(y[0])

    def ydot(self, t):
        ydot = _ydot(self.param.pair, self._states(t))
        return ydot if np.ndim(t) else float(ydot[0])

    def psi(self, t):
        """Accumulated angles (psi1, psi2) with psi(0) = 0, read off arg w.

        psi2 lifts arg w2 over the accepted steps, outward from 0 on each
        side: |psi2'| = 2|tau|/y is at most (2|tau|)^(1-2/q), so no step
        turns w2 by pi.  Psi = p psi1 + q psi2 is the principal arg of
        w1^p w2^q against its value at 0; both lie on the line
        Im = -2 tau, so Psi needs no lift.  Then psi1 = (Psi - q psi2)/p.
        """
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        pair = self.param.pair
        p, q = pair.p, pair.q
        s = self.trajectory(ts)
        w1, w2 = s[0] + 1j * s[1], s[2] + 1j * s[3]
        grid, states = self.trajectory.time_grid, self.trajectory.states
        i0 = np.searchsorted(grid, 0.0)
        nodes = states[:, 2] + 1j * states[:, 3]
        lift = np.empty(len(grid))
        lift[i0:] = np.unwrap(np.angle(nodes[i0:] / nodes[i0]))
        lift[i0::-1] = np.unwrap(np.angle(nodes[i0::-1] / nodes[i0]))
        # the last node from 0 towards each t
        k = np.where(ts >= 0.0, np.searchsorted(grid, ts, side="right") - 1,
                     np.searchsorted(grid, ts))
        psi2 = lift[k] + np.angle(w2 / nodes[k])
        z0 = _twist(pair, complex(*states[i0, :2]), complex(*states[i0, 2:]))
        Psi = np.angle(_twist(pair, w1, w2) * np.conj(z0))
        psi1 = (Psi - q * psi2) / p
        return (psi1, psi2) if np.ndim(t) else (float(psi1[0]), float(psi2[0]))


def solve_w(param: TwistParam, t_span, tol: Tolerances = Tolerances()) -> TwistTrajectory:
    """Integrate the canonical curve over an interval containing 0."""
    return TwistTrajectory(param, t_span, tol)


def conjugate_family_check(param: TwistParam) -> float:
    """max |w_{-tau}(t) - conj(w_tau(t))| at 50 times in [0, 2], standard tolerances.

    The |tau| member comes from :func:`solve_w`; the -|tau| member is
    integrated by a plain :func:`integrate` call without solve_w's
    absolute-tolerance scale, so it takes different steps and the two
    sides are independent integrations.  At tau = 0 both are real.
    """
    pair, tau, tol = param.pair, abs(param.tau), Tolerances()
    ts = np.linspace(0.0, 2.0, 50)
    plus = np.array(solve_w(TwistParam(pair, tau), (0.0, 2.0), tol).w(ts))
    s = integrate(_field(pair.p, pair.q), initial_state(TwistParam(pair, -tau)).as_real(),
                  (0.0, 2.0), tol)(ts)
    return float(np.max(np.abs(s[0::2] + 1j * s[1::2] - np.conj(plus))))
