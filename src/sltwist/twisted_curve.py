"""The twisted special Legendrian curve system on S^3.

For an admissible integer pair (p, q), n = p + q, the curves solve

    w1' =  conj(w1)^(p-1) conj(w2)^q,
    w2' = -conj(w1)^p conj(w2)^(q-1),

with the two conserved quantities I1 = |w|^2 and I2 = Im(w1^p w2^q).
The canonical one-parameter family is labelled by tau = -I2/2 with
|tau| <= tau_max(p, q); conjugation maps the tau member to the -tau
member.  The field is written once, in :func:`_field`, and w1^p w2^q
once, in :func:`_twist`, both as real arithmetic with CPython's complex bits;
powers of y and squares of w are libm's ``pow`` (``np.float_power``), as
Python's ``**`` is (but in Q's coefficient, see :func:`_field`).  So a
function of curve states gives each state the bits it gives that state read
alone.  The radius function y = |w2|^2 obeys

    y'^2 = 4 (f(y) - 4 tau^2),      f(y) = y^q (1 - y)^p,

which drives everything else in the package: periods, angles, closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .ode_engine import Tolerances, Trajectory, integrate

# tau this close to tau_max is treated as the constant-y solution; the two
# roots of f(y) = 4 tau^2 coalesce and refining them is meaningless.
_TAU_MAX_MARGIN = 1e-10

# p = 1: t -> -t with w -> (-conj w1, conj w2) reverses the field and fixes
# the initial state at y_max, as signs of (Re w1, Im w1, Re w2, Im w2).  The
# reflection phases D = (-1, 1) of geometry.symmetry say the same, written apart.
_REVERSAL = (-1.0, 1.0, 1.0, -1.0)


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


def tau_max(pair: AdmissiblePair) -> float:
    """Extreme value of |Im(w1^p w2^q)| / 2 on the unit sphere."""
    p, q, n = pair.p, pair.q, pair.n
    return 0.5 * math.sqrt(p**p * q**q / n**n)


def alpha_tau(param: TwistParam) -> float:
    """Phase angle arcsin(-tau/tau_max) in [-pi/2, pi/2]."""
    return math.asin(max(-1.0, min(1.0, -param.tau / tau_max(param.pair))))


def f_poly(pair: AdmissiblePair, y):
    """f(y) = y^q (1-y)^p of a float or an array, by libm's ``pow`` (module docstring)."""
    return np.float_power(y, pair.q) * np.float_power(1.0 - y, pair.p)


def f_prime(pair: AdmissiblePair, y):
    """f'(y) = y^(q-1) (1-y)^(p-1) (q - n y), its powers as in :func:`f_poly`."""
    return (np.float_power(y, pair.q - 1) * np.float_power(1.0 - y, pair.p - 1)
            * (pair.q - pair.n * y))


def f_taylor_coeffs(a: int, b: int, r) -> np.ndarray:
    """c_k, k = 1..a+b, of (r + u)^a ((1 - r) - u)^b - r^a (1 - r)^b = sum_k c_k u^k,
    along axis 0 for an array r: f about y = r with (a, b) = (q, p), or about
    1 - y = r with (a, b) = (p, q).  Multiplied out factor by factor, so a
    root's distance r from 0 or 1 keeps its digits, and so do differences of f
    near its roots."""
    r = np.asarray(r, dtype=float)
    c = np.zeros((a + b + 1,) + r.shape)
    c[0] = 1.0
    for k, (x, du) in enumerate([(r, 1.0)] * a + [(1.0 - r, -1.0)] * b):
        c[1:k + 2] = x * c[1:k + 2] + du * c[:k + 1]        # times (x + du u)
        c[0] = x * c[0]
    return c[1:]


def _extrema(pair: AdmissiblePair, taus) -> np.ndarray:
    """(y_min, 1 - y_max) for each tau of an array, as two rows: the roots of
    f(y) = 4 tau^2 as their distances r from 0 and from 1, both solving
    r^a (1 - r)^b = 4 tau^2 in (0, a/n), with (a, b) = (q, p) and (p, q).

    Refuses |tau| above tau_max, within a relative 1e-10 of it (coalescing
    roots), tau = 0 (double roots at the endpoints), NaN, and, as too small,
    a tau whose Newton start r^a (1 - r)^b is below the smallest normal
    double, naming the first such tau.  1 - y_max keeps its digits as a
    distance where y_max itself rounds to 1 (p = 1 below about tau = 5e-9;
    :func:`initial_state` refuses such a tau).  Both roots come from one Newton
    iteration on the concave h(r) = ln(r^a (1 - r)^b / 4 tau^2), started below
    the root where h < 0, so r and r^a (1 - r)^b rise monotonically to the root
    and every logarithm keeps its digits.  A root is done when its next step
    reverses or stops shrinking relative to r: that is the Newton step in ln r,
    which shrinks from the first step, while the step in r itself first grows.
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
    a = np.array([[q], [p]], dtype=float)      # y_min's row, then 1 - y_max's
    b = n - a
    low = np.array([[True], [False]])

    # r^a e^b as y^q (1 - y)^p by numpy's int **, where f_poly takes np.float_power: the
    # two can differ in the last bit, so F in float_power would move every root's bits
    def F(r, e):
        return np.where(low, r, e) ** q * np.where(low, e, r) ** p

    # the leading order r ~ (2 tau)^(2/a), 4x nearer 0: r^a (1 - r)^b <= 4 tau^2 / 4^a, so h < 0
    r = np.stack([np.minimum((2.0 * tau) ** (2.0 / k) / 4.0, 0.5 * k / n) for k in (q, p)])
    small = (F(r, 1.0 - r) < np.finfo(float).tiny).any(axis=0)
    if small.any():
        raise ValueError(f"|tau|={tau[np.argmax(small)]} is too small: the Newton start "
                         "of the extrema of y is below the smallest normal double")
    target = 4.0 * tau * tau
    last = np.full(r.shape, np.inf)
    while True:
        e = 1.0 - r
        dr = np.log(target / F(r, e)) / (a / r - b / e)
        rel = dr / r                        # the step in ln r: > 0 ahead
        go = (0.0 < rel) & (rel < last)     # a stopped root keeps its r, so stays stopped
        if not go.any():
            break
        r = r + dr * go
        last = np.where(go, rel, last)
    return r


@lru_cache(maxsize=64)     # one curve asks for its extrema from several routes
def _gaps(param: TwistParam) -> tuple[float, float]:
    """(y_min, 1 - y_max) of one tau (see :func:`_extrema`)."""
    (r0,), (r1,) = _extrema(param.pair, [param.tau])
    return float(r0), float(r1)


def y_extrema(param: TwistParam) -> tuple[float, float]:
    """The two roots of f(y) = 4 tau^2 in (0, 1), bracketing q/n (see :func:`_extrema`)."""
    y_min, gap = _gaps(param)
    return y_min, 1.0 - gap


def initial_state(param: TwistParam) -> np.ndarray:
    """Canonical initial condition of the family, the float 4-vector
    (Re w1, Im w1, Re w2, Im w2) that :func:`integrate` takes.

    p > 1: (sqrt(p/n) e^{i a/2p}, sqrt(q/n) e^{i a/2q}) with
    a = arcsin(-tau/tau_max); p = 1: the point y = y_max, as
    w1 = -2 i tau / y_max^(q/2) and w2 = sqrt(1 - |w1|^2).
    Either way Im(w1^p w2^q) = -2 tau; for p = 1 this and |w|^2 = 1 hold
    to rounding, because the small |w1| is never taken from 1 - y_max.

    Refuses a p = 1 tau whose y_max rounds to 1 (below about tau = 5e-9),
    naming it: the quadrature holds 1 - y_max as a distance, but a curve
    integrated from there cannot place its events at y_max (one ulp of t
    is worth ulp(t)/(2 tau) of psi1) and its step control has no bound.
    """
    pair, tau = param.pair, param.tau
    p, q, n = pair.p, pair.q, pair.n
    if p > 1:
        a = alpha_tau(param)
        w1 = math.sqrt(p / n) * np.exp(1j * a / (2 * p))
        w2 = math.sqrt(q / n) * np.exp(1j * a / (2 * q))
        return np.array([w1.real, w1.imag, w2.real, w2.imag])
    tm = tau_max(pair)
    if tau == 0.0 or abs(tau) >= tm * (1 - _TAU_MAX_MARGIN):
        y_max = 1.0 if tau == 0.0 else q / n
    else:
        _, y_max = y_extrema(param)
        if not y_max < 1.0:
            raise ValueError(f"|tau|={abs(tau)} is too small: 1 - y_max is not resolved "
                             "next to 1 in double precision")
    w1 = -2j * tau / y_max ** (q / 2)
    return np.array([w1.real, w1.imag, math.sqrt(1.0 - abs(w1) ** 2), 0.0])


# ---------------------------------------------------------------------------
# the integrated curve


def _cprod(out: str, a: str, b: str) -> str:
    """Source of ``out = a b``, complex numbers held as ``{x}r, {x}i``: CPython's ``c_prod``."""
    return f"{out}r, {out}i = {a}r * {b}r - {a}i * {b}i, {a}r * {b}i + {a}i * {b}r"


def _cpow_source(z: str, exponents) -> list[str]:
    """Source setting ``{z}{k}r, {z}{k}i`` to z^k, z = ``{z}1r + i {z}1i``, for each
    k >= 1 of exponents, multiplied as CPython's ``complex ** k`` for a small k:
    binary powering from the lowest bit (``c_powu`` minus its leading ``1 *``),
    each product a ``c_prod``; squarings and partial products are shared."""
    top = max(exponents).bit_length()
    lines = [_cprod(f"{z}{2 << j}", f"{z}{1 << j}", f"{z}{1 << j}") for j in range(top - 1)]
    for k in exponents:
        bits = [1 << j for j in range(top) if k >> j & 1]
        lines += [_cprod(f"{z}{sum(bits[:j + 1])}", f"{z}{sum(bits[:j])}", f"{z}{bits[j]}")
                  for j in range(1, len(bits))]
    return list(dict.fromkeys(lines))           # a product two powers share, once


def _compiled(label: str, body: list[str]):
    """``rhs(s)`` compiled from its body lines."""
    scope = {}
    exec(compile("\n".join(["def rhs(s):", *("    " + line for line in body)]),
                 f"<{label}>", "exec"), scope)
    return scope["rhs"]


@lru_cache(maxsize=None)
def _field(p: int, q: int, linearised: bool = False):
    """Right-hand side for the real 4-vector w = (w1, w2); with ``linearised``
    for the 6-vector that appends (Q, Q') of the linearised equation
    Q'' = -2 n |w'|^2 Q.  tau enters only through the initial state.

    Generated once per key as straight-line real arithmetic that takes a tuple
    of floats or a (dim, N) array.  Its powers multiply as in :func:`_cpow_source`,
    so it is CPython's complex formula bit for bit.  Q's y^(q-1) (1-y)^(p-1)
    keeps ``**``, numpy's power on arrays, which may differ in the last bit:
    ``np.float_power`` costs a numpy call per scalar stage, and products move every Q bit.
    """
    # a = conj(w1), b = conj(w2); w1' = c = a^(p-1) b^q and w2' = d = -a^p b^(q-1)
    c1 = _cprod("c", f"a{p - 1}", f"b{q}") if p > 1 else f"cr, ci = b{q}r, b{q}i"
    body = [f"a1r, a1i, b1r, b1i{', Q, dQ' * linearised} = s", "a1i, b1i = -a1i, -b1i",
            *_cpow_source("a", [k for k in (p - 1, p) if k]), *_cpow_source("b", [q - 1, q]),
            c1, _cprod("d", f"-a{p}", f"b{q - 1}"),
            "return (cr, ci, dr, di)"]
    if linearised:
        body[-1:] = ["y = b1r * b1r + b1i * b1i", "return (cr, ci, dr, di, dQ, "
                     f"{-2.0 * (p + q)!r} * (y ** {q - 1} * (1.0 - y) ** {p - 1}) * Q)"]
    return _compiled(f"curve field p={p} q={q}{' linearised' * linearised}", body)


@lru_cache(maxsize=None)
def _twist(p: int, q: int):
    """``rhs(s)`` giving (Re, Im) of w1^p w2^q, Im = I2 = -2 tau, of the real state s,
    floats or (4, N) arrays: CPython's ``w1 ** p * w2 ** q`` bit for bit, which
    numpy's complex power on arrays is not in about a third of the values."""
    return _compiled(f"twist p={p} q={q}", [
        "a1r, a1i, b1r, b1i = s", *_cpow_source("a", [p]), *_cpow_source("b", [q]),
        _cprod("z", f"a{p}", f"b{q}"), "return zr, zi"])


def _invariants(pair: AdmissiblePair, s) -> tuple[np.ndarray, np.ndarray]:
    """(I1, I2) of real (4, N) states, each number the one CPython's float and complex
    arithmetic gives: I1's squares are libm's pow(x, 2) (``np.float_power``), as
    Python's ``x ** 2`` is, where numpy's ``x ** 2`` is x * x and differs in the
    last bit now and then; I2 is the imaginary part of :func:`_twist`."""
    sq = np.float_power(s, 2.0)
    return sq[0] + sq[1] + sq[2] + sq[3], _twist(pair.p, pair.q)(s)[1]


def velocity(pair: AdmissiblePair, w1: complex, w2: complex) -> tuple[complex, complex]:
    """(w1', w2') at the point (w1, w2): the field of :func:`_field`, bit for bit."""
    c = _field(pair.p, pair.q)((w1.real, w1.imag, w2.real, w2.imag))
    return complex(c[0], c[1]), complex(c[2], c[3])


def _w(s) -> np.ndarray:
    """(w1, w2) of real states (Re w1, Im w1, Re w2, Im w2, ...) on axis 0, as one
    complex array of two rows; each component keeps its bits, signed zeros included."""
    w = np.empty((2,) + np.shape(s)[1:], dtype=complex)
    w.real, w.imag = s[0:4:2], s[1:4:2]
    return w


def _y(s):
    """y = |w2|^2 of real states on axis 0, its squares as in :func:`_invariants`."""
    return np.float_power(s[2], 2.0) + np.float_power(s[3], 2.0)


def _ydot(pair: AdmissiblePair, s):
    """y' = -2 Re(w1^p w2^q) of real states on axis 0, w first (:func:`_twist`)."""
    return -2.0 * _twist(pair.p, pair.q)(s[:4])[0]


class TwistTrajectory:
    """One twisted curve: the curve of ``param`` at ``tol``, and what is computed
    along it, each on first use.

    A caller that needs several quantities of one curve (a CLI subcommand, a
    test) builds it once per (param, tol) and hands it on; each piece
    (``trajectory``, ``period``, ``Q``) is computed once and held for the
    object's lifetime only.  ``Q`` is the (w, Q, Q') trajectory of
    :func:`variation.solve_Q`.  What outlives a call is held by module-level
    caches: ``_gaps`` keeps the extrema of 64 taus, ``periods.branch_integral``
    the quadrature's route integrals of 64 taus and ``catenoid._unit_trajectory``
    one catenoid-profile trajectory per degree.

    The integrated state is w alone, one :class:`Trajectory` from :func:`solve_w`
    anchored at 0 (``trajectory``) and integrated as far as it is read.  Accessors
    return the curve w(t) = (w1, w2), the radius y = |w2|^2 and its derivative,
    and the accumulated angles (psi1, psi2) with psi(0) = 0, read off arg w.
    The -tau curve is the exact conjugate of the tau curve: the initial
    states are conjugate, and the integrator commutes with conjugation
    bit for bit (its tableau is real, rounding is symmetric in sign and
    step control reads only |state|).  For tau = 0 the real initial state
    keeps w real.  For p = 1 and tau != 0 the backward half is the forward
    half mirrored by ``_REVERSAL``, bit for bit by the same argument, and
    is not stepped (see :mod:`.ode_engine`).  At small tau the first factor
    shrinks to |w1|^2 = 1 - y_max, about (2 |tau|)^(2/p); its absolute
    tolerance is scaled by that much so that arg w1 keeps the digits of arg w2.
    """

    def __init__(self, param: TwistParam, tol: Tolerances):
        self.param = param
        self.tol = tol

    @cached_property
    def trajectory(self) -> Trajectory:
        return solve_w(self.param, self.tol)

    @cached_property
    def period(self):
        from .periods import period_ode

        return period_ode(self)

    @cached_property
    def Q(self) -> Trajectory:
        from .variation import solve_Q

        return solve_Q(self)

    def drift(self, window: float) -> dict:
        """Maximum deviation of I1 = |w|^2 from 1 and of I2 = Im(w1^p w2^q) from -2 tau
        over the accepted steps of a run over [-window, window]
        (:meth:`Trajectory.steps`), from the state arrays at once (:func:`_invariants`)."""
        i1, i2 = _invariants(self.param.pair, self.trajectory.steps(-window, window)[1].T)
        return {"I1": float(np.max(np.abs(i1 - 1.0))),
                "I2": float(np.max(np.abs(i2 + 2.0 * self.param.tau)))}

    def state(self, t) -> np.ndarray:
        """Real 4 x len states (Re w1, Im w1, Re w2, Im w2) at the 1-d array of times t."""
        return self.trajectory(t)

    def w(self, t) -> np.ndarray:
        """(w1, w2) as one complex 2 x len array."""
        return _w(self.trajectory(t))

    def y(self, t) -> np.ndarray:
        return _y(self.trajectory(t))

    def ydot(self, t) -> np.ndarray:
        return _ydot(self.param.pair, self.trajectory(t))

    def psi(self, t):
        """Accumulated angles (psi1, psi2) with psi(0) = 0, read off arg w.

        psi2 lifts arg w2 over each side's accepted steps, in stepping order
        outward from 0: |psi2'| = 2|tau|/y is at most (2|tau|)^(1-2/q), so
        no step turns w2 by pi.  Psi = p psi1 + q psi2 is the principal arg of
        w1^p w2^q against its value at 0; both lie on the line
        Im = -2 tau, so Psi needs no lift.  Then psi1 = (Psi - q psi2)/p.
        At tau = 0 for p = 1, w1 passes through 0 at t = 0, so arg w1 and
        psi are undefined there, and refused.
        """
        return self._lift(np.asarray(t, dtype=float), self.trajectory(t))

    def _lift(self, ts, s):
        """(psi1, psi2) at the times ts from the 4 x len states s there (see :meth:`psi`)."""
        p, q, traj = self.param.pair.p, self.param.pair.q, self.trajectory
        if p == 1 and self.param.tau == 0.0:
            raise ValueError("psi is undefined at tau = 0 for p = 1: w1 passes through 0 at t = 0")
        w2 = _w(s)[1]
        psi2, forward = np.empty(len(ts)), ts >= 0.0
        for d, on in ((1.0, forward), (-1.0, ~forward)):
            if on.any():
                _, Y, key = traj._stepped(d)
                k = np.searchsorted(key, d * ts[on], side="right") - 1   # the last node from 0
                # the unwrap of the nodes up to the last read is the whole unwrap's prefix
                nodes = _w(Y[:k.max() + 1].T)[1]
                lift = np.unwrap(np.angle(nodes / nodes[0]))
                psi2[on] = lift[k] + np.angle(w2[on] / nodes[k])
        z, twist = np.empty(len(ts), dtype=complex), _twist(p, q)
        z.real, z.imag = twist(s)
        Psi = np.angle(z * complex(*twist(traj.endpoint(0.0))).conjugate())
        return (Psi - q * psi2) / p, psi2


def _mirror(param: TwistParam):
    """The sign vector ``integrate`` mirrors the curve of ``param`` by: the reversal
    for p = 1, but for tau = 0, where w stays real and a mirrored zero imaginary
    part would turn -0.0; None otherwise."""
    return _REVERSAL if param.pair.p == 1 and param.tau else None


def solve_w(param: TwistParam, tol: Tolerances) -> Trajectory:
    """The canonical curve from :func:`initial_state`, anchored at 0 and integrated
    on read, with w1's absolute tolerance scaled and, for p = 1, its backward half
    mirrored from the forward one (see :class:`TwistTrajectory`)."""
    pair, tau = param.pair, param.tau
    shrink = min(1.0, (2.0 * abs(tau)) ** (2.0 / pair.p)) if tau else 1.0
    scale = np.array([shrink, shrink, 1.0, 1.0])
    return integrate(_field(pair.p, pair.q), initial_state(param), (0.0, 0.0), tol,
                     scale, mirror=_mirror(param))

