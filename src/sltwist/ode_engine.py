"""Deterministic initial-value solver with dense output and event location.

An owned DOP853 (Runge-Kutta pair of order 8, 7th-order dense output) whose
step control is scipy's ``solve_ivp(method="DOP853")``, step for step: its
initial step, the scale ``atol + rtol max(|y|, |y_new|)`` per real component,
the combined err5/err3 norm, safety 0.9, exponent -1/8, step factors in
[0.2, 10] and none above 1 right after a rejection, and a 10-ulp minimum step;
one tolerance is both atol and rtol.  A leg, a run of steps, is one function
generated and compiled once per state dimension: that step control and each
try's 12 stages and error norm in straight-line float code.  Handed flat
buffers, it appends each accepted step to them; handed none, it keeps nothing
and runs in constant memory.  The dense-output stages 13-15, which no step
control reads, run on arrays of many steps at once, so a field takes arrays too.
Every system is autonomous: a field is ``field(state)``, with no time argument.

A :class:`Trajectory` is anchored at t = 0 and grows on read: each side's run
stops at its first step at or past the farthest time read, and resumes there
when a read reaches past it.  No step of a side is clipped, so a side read in
pieces is, bit for bit, the run straight to its final extent.  An endpoint and
a landed read (:meth:`Trajectory.landed`) land on their times by one routine,
``Trajectory._land``: a leg that keeps nothing, from the last node of the side's
run before the time, a node the side stores or one of the side's run continued
past its steps without storing them, so that a check can read integrated states
far along a curve, on either side of the anchor, in memory that does not grow.
They differ in the first step size alone: scipy's initial step for an endpoint,
whose side is grown to its time first, and 2 |t - t_k| for a landed read.

Each side is the one store of its steps, and a read makes one pass per side
over the times that go to it: t > 0 forward, t < 0 backward, and t = 0 (or
-0.0) is the anchor, the state :func:`integrate` received, bit for bit, as an
endpoint at 0 is.  A forward node reads the step that ends at it, a backward
node the step that starts at it (the farthest one has only the step that ends
at it): the segments scipy's ``OdeSolution`` reads over the ascending grid.
Every read refuses a time that is not finite before anything is stepped.

A reversible system, one whose field a sign vector R reverses, field(R s)
= -R field(s), from a state R fixes, has its backward side from the anchor 0
in its forward side: t -> -t, s -> R s.  Every operation of a step and of the
dense output is a product, sum, difference or quotient, or reads |s| only, so
negating times, h and the stages and flipping state signs by R rounds alike on
both sides: the backward run is the forward one with its signs flipped, bit for
bit.  A mirrored trajectory steps its forward side alone, and its backward side
is the whole forward side, times negated and states multiplied by R, in one
place (``Trajectory._stepped``, which keeps it, read-only, until the forward
side grows), and its dense coefficients multiplied by R
where a read gathers them; its anchor keeps the bits :func:`integrate` received.
A landing at a backward time is R times the forward one: scipy's initial-step
probe reads states only through y + h d f and norms, so it rounds alike too.

:func:`locate_event` finds an event time by Newton's method on integrated
endpoints, from a seed.  :func:`brent`, a line-for-line port of scipy's
``brentq`` (``brentq.c``), serves the closure search for its tau.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

_BRENT_RTOL = 4 * float(np.finfo(float).eps)    # brentq's smallest rtol, and the event stop's
_BRENT_MAXITER = 100


class IntegrationError(RuntimeError):
    """Step-size underflow or non-finite field evaluation.

    ``last_time`` holds the last accepted time.
    """

    def __init__(self, message, last_time):
        super().__init__(message)
        self.last_time = last_time


class EventError(RuntimeError):
    """An event's Newton iterate left its bracket, or Newton did not converge."""


@dataclass(frozen=True)
class Tolerances:
    """One step tolerance, absolute and relative alike; the error control alone
    bounds the step size.  ``event_tol``, a tenth of it, bounds the last Newton
    step of an event time (plus 4 ulps of t), so event times are at least as
    accurate as the integrated states they are read from."""

    tol: float = 1e-12

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be strictly positive")

    @property
    def event_tol(self) -> float:
        return self.tol / 10


# The DOP853 tableau of scipy.integrate._ivp.dop853_coefficients to the last bit,
# rows ended by ";": rows 1-15 of A (a_sj, j < s; row 12 is the weight vector B of
# y_new, 13-15 make the dense-output stages); the error weights E5, E3 over stages
# 0-12; the 4 rows of dense-output weights D.  The nodes C are not kept: every field
# is autonomous, so no stage reads its time.
_ROWS = [[float(v) for v in row.split()] for row in """
    0.05260015195876773 ; 0.0197250569845379
    0.0591751709536137 ; 0.02958758547680685 0 0.08876275643042054 ; 0.2413651341592667 0
    -0.8845494793282861 0.924834003261792 ; 0.037037037037037035 0 0 0.17082860872947386
    0.12546768756682242 ; 0.037109375 0 0 0.17025221101954405 0.06021653898045596 -0.017578125
    ; 0.03709200011850479 0 0 0.17038392571223998 0.10726203044637328 -0.015319437748624402
    0.008273789163814023 ; 0.6241109587160757 0 0 -3.3608926294469414 -0.868219346841726
    27.59209969944671 20.154067550477894 -43.48988418106996 ; 0.47766253643826434 0 0
    -2.4881146199716677 -0.590290826836843 21.230051448181193 15.279233632882423
    -33.28821096898486 -0.020331201708508627 ; -0.9371424300859873 0 0 5.186372428844064
    1.0914373489967295 -8.149787010746927 -18.52006565999696 22.739487099350505
    2.4936055526796523 -3.0467644718982196 ; 2.273310147516538 0 0 -10.53449546673725
    -2.0008720582248625 -17.9589318631188 27.94888452941996 -2.8589982771350235
    -8.87285693353063 12.360567175794303 0.6433927460157636 ; 0.054293734116568765 0 0 0 0
    4.450312892752409 1.8915178993145003 -5.801203960010585 0.3111643669578199
    -0.1521609496625161 0.20136540080403034 0.04471061572777259 ; 0.056167502283047954 0 0 0 0
    0 0.25350021021662483 -0.2462390374708025 -0.12419142326381637 0.15329179827876568
    0.00820105229563469 0.007567897660545699 -0.008298 ; 0.03183464816350214 0 0 0 0
    0.028300909672366776 0.053541988307438566 -0.05492374857139099 0 0 -0.00010834732869724932
    0.0003825710908356584 -0.00034046500868740456 0.1413124436746325 ; -0.42889630158379194 0 0
    0 0 -4.697621415361164 7.683421196062599 4.06898981839711 0.3567271874552811 0 0 0
    -0.0013990241651590145 2.9475147891527724 -9.15095847217987 ; 0.01312004499419488 0 0 0 0
    -1.2251564463762044 -0.4957589496572502 1.6643771824549864 -0.35032884874997366
    0.3341791187130175 0.08192320648511571 -0.022355307863886294 0 ; -0.18980075407240762 0 0 0
    0 4.450312892752409 1.8915178993145003 -5.801203960010585 -0.4226823213237919
    -0.1521609496625161 0.20136540080403034 0.02265179219836082 0 ; -8.428938276109013 0 0 0 0
    0.5667149535193777 -3.0689499459498917 2.38466765651207 2.117034582445028
    -0.871391583777973 2.2404374302607883 0.6315787787694688 -0.08899033645133331
    18.148505520854727 -9.194632392478356 -4.436036387594894 ; 10.427508642579134 0 0 0 0
    242.28349177525817 165.20045171727028 -374.5467547226902 -22.113666853125306
    7.733432668472264 -30.674084731089398 -9.332130526430229 15.697238121770845
    -31.139403219565178 -9.35292435884448 35.81684148639408 ; 19.985053242002433 0 0 0 0
    -387.0373087493518 -189.17813819516758 527.8081592054236 -11.57390253995963 6.8812326946963
    -1.0006050966910838 0.7777137798053443 -2.778205752353508 -60.19669523126412
    84.32040550667716 11.99229113618279 ; -25.69393346270375 0 0 0 0 -154.18974869023643
    -231.5293791760455 357.6391179106141 93.40532418362432 -37.45832313645163 104.0996495089623
    29.8402934266605 -43.53345659001114 96.32455395918828 -39.17726167561544
    -149.72683625798564 ;""".split(";")[:-1]]
_A, _E5, _E3, _D = [[]] + _ROWS[:15], _ROWS[15], _ROWS[16], np.array(_ROWS[17:])
_KEPT = [s for s in range(16) if _D[:, s].any()]   # stages the dense output reads: 0, 5-15
_STEPPED = _KEPT.index(13)                           # of them, 0 and 5-12 come from the step


@lru_cache(maxsize=None)
def _leg(dim: int):
    """``leg(fun, t, t1, land, h_abs, direction, y, f, atol, rtol, ts=None, ys=None,
    ks=None)``: the steps of scipy's controller from t, state y, its field value f
    = fun(y) and the step size h_abs as straight-line float code, each try's 12
    stages and error norm, until a step reaches t1, with ``land`` clipped to end on
    it.  Given the ``array('d')`` buffers ts, ys and ks, it appends each accepted
    step's end time and state and its stages 0, 5-12 (then zeros for 13-15); with
    None it keeps nothing and runs in constant memory.  Returns the next step size,
    the state and its field value, from which a later leg resumes, the time it
    ended at and the node (time, state, field value) its last step started from.
    ``max(a, b)`` is written as CPython evaluates it, ``b if b > a else a``, and
    ``min(a, b)`` as ``b if b < a else a``."""
    comp = range(dim)

    def vec(fmt):
        return "".join(fmt.format(i=i) + ", " for i in comp)

    def comb(weights, i):
        return " + ".join(f"{w!r} * k{j}_{i}" for j, w in enumerate(weights) if w)

    def stage(s):
        arg = "".join(f"y{i} + ({comb(_A[s], i)}) * h, " for i in comp)
        return f"{vec(f'k{s}_{{i}}')}= fun(({arg}))"

    kept = "".join(vec(f"k{s}_{{i}}") for s in _KEPT[:_STEPPED])
    room = "0.0, " * (dim * (len(_KEPT) - _STEPPED))
    tries = ["if h_abs < min_step:",
             '    raise IntegrationError(f"step size {h_abs!r} underflows at t={t!r}", t)',
             "t_new = t + h_abs * direction",
             "if land and direction * (t_new - t1) > 0:",
             "    t_new = t1",
             "h = t_new - t",
             "h_abs = abs(h)",
             *[stage(s) for s in range(1, 12)],
             *[f"n{i} = y{i} + h * ({comb(_A[12], i)})" for i in comp],
             f"{vec('k12_{i}')}= fun(({vec('n{i}')}))"]
    for i in comp:
        tries += [f"u = abs(y{i})",
                  f"v = abs(n{i})",
                  f"s{i} = a{i} + (v if v > u else u) * rtol",
                  f"e5_{i} = ({comb(_E5, i)}) / s{i}",
                  f"e3_{i} = ({comb(_E3, i)}) / s{i}"]
    tries += ["e5 = " + " + ".join(f"e5_{i} * e5_{i}" for i in comp),
              "e3 = " + " + ".join(f"e3_{i} * e3_{i}" for i in comp),
              f"err = h_abs * e5 / sqrt((e5 + 0.01 * e3) * {dim}) if e5 or e3 else 0.0",
              "if not isfinite(err):",
              '    raise IntegrationError(f"non-finite state in a step {h!r} from t={t!r}", t)',
              "if err < 1:",
              "    factor = 10.0 if err == 0 else 0.9 * err ** -0.125",
              "    factor = factor if factor < 10.0 else 10.0",
              "    h_abs *= (factor if factor < 1.0 else 1.0) if rejected else factor",
              "    break",
              "factor = 0.9 * err ** -0.125",
              "h_abs *= factor if factor > 0.2 else 0.2",
              "rejected = True"]
    state, value = f"({vec('y{i}')})", f"({vec('k0_{i}')})"
    leg = ["def leg(fun, t, t1, land, h_abs, direction, y, f, atol, rtol, ts=None, ys=None, "
           "ks=None):",
           f"    {vec('y{i}')}= y", f"    {vec('k0_{i}')}= f", f"    {vec('a{i}')}= atol",
           "    toward, node = direction * inf, (t, y, f)",
           "    while direction * (t - t1) < 0:",
           "        min_step = 10 * abs(nextafter(t, toward) - t)",
           "        if min_step > h_abs:",
           "            h_abs = min_step",
           "        rejected = False",
           "        while True:",
           *["            " + line for line in tries],
           f"        node = t, {state}, {value}",
           "        if ks is not None:",
           f"            ks.fromlist([{kept}{room}])",
           "            ts.append(t_new)",
           f"            ys.fromlist([{vec('n{i}')}])",
           f"        t, {vec('y{i}')}{vec('k0_{i}')}= t_new, {vec('n{i}')}{vec('k12_{i}')}",
           f"    return h_abs, {state}, {value}, t, node"]
    scope = {"IntegrationError": IntegrationError, "inf": math.inf,
             "nextafter": math.nextafter, "sqrt": math.sqrt, "isfinite": math.isfinite}
    exec(compile("\n".join(leg), f"<dop853 leg dim={dim}>", "exec"), scope)
    return scope["leg"]


def _initial_step(field, y0, f0, span, direction, atol, rtol):
    """scipy's ``select_initial_step`` for the order-7 error estimate."""
    y0, f0 = np.asarray(y0), np.asarray(f0, dtype=float)
    scale, rms = np.asarray(atol) + np.abs(y0) * rtol, len(y0) ** 0.5
    d0, d1 = np.linalg.norm(y0 / scale) / rms, np.linalg.norm(f0 / scale) / rms
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    f1 = np.asarray(field(y0 + h0 * direction * f0), dtype=float)
    d2 = np.linalg.norm((f1 - f0) / scale) / rms / h0
    h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 8)
    return float(min(100 * h0, h1, span))


def _dense(field, T, Y, K):
    """The dense-output coefficients F of steps in stepping order, from their nodes
    T and Y and their stages K, into which stages 13-15 are written."""
    dim = Y.shape[1]
    H, dY = np.diff(T), np.diff(Y, axis=0)
    # stages 13-15 of all steps: one field call each on (dim, steps) arrays,
    # formed as a scalar stage of a leg is, product for product, so bit for bit
    k = dict(zip(_KEPT, K.transpose(1, 2, 0)))      # stage -> (dim, steps) view of K
    for s in _KEPT[_STEPPED:]:
        comb = reduce(np.add, (w * k[j] for j, w in enumerate(_A[s]) if w))
        for row, value in zip(k[s], field(Y[:-1].T + comb * H)):
            row[...] = value
    F, h = np.empty((len(H), 7, dim)), H[:, None]
    F[:, :3] = np.stack([dY, h * K[:, 0] - dY,
                         2 * dY - h * (K[:, _KEPT.index(12)] + K[:, 0])], axis=1)
    F[:, 3:] = h[:, None] * np.einsum("ij,sjd->sid", _D[:, _KEPT], K)
    return F


class _Side:
    """One side's steps in stepping order, d = 1 forward or -1 backward: the buffers
    a leg appends times, states and the stages of steps not yet in F to; their
    arrays T and Y and the search key d T, made again after each leg (a failed
    leg cuts the buffers back to what the arrays hold); F, step k's dense-output
    coefficients at F[:, :, k], extended on read; and the state, field value and
    step size its run resumes from, the first step size given when it is built."""

    def __init__(self, d, y, f, h_abs):
        self.d, self.ts, self.ys, self.ks = d, array("d", [0.0]), array("d", y), array("d")
        self.y, self.f, self.h_abs, self.F = y, f, h_abs, np.empty((7, len(y), 0))
        self.T, self.Y, self.key = np.zeros(1), np.array([y]), np.zeros(1)

    def coefficients(self, field):
        """F over every step so far; each step's stages 13-15 run once."""
        if self.ks:                         # the stages of steps not yet in F
            n, K = self.F.shape[2], np.frombuffer(self.ks).reshape(-1, len(_KEPT), len(self.y))
            F = _dense(field, self.T[n:], self.Y[n:], K).transpose(1, 2, 0)
            self.F, self.ks = np.concatenate([self.F, F], axis=2), array("d")
        return self.F


def _times(t) -> np.ndarray:
    """t as a 1-d float array, refused unless every time in it is finite."""
    tt = np.asarray(t, dtype=float)
    if tt.ndim != 1:
        raise ValueError(f"times must be a 1-d array, not of shape {tt.shape}")
    if not np.isfinite(tt).all():
        raise ValueError(f"time {tt[~np.isfinite(tt)][0]} is not finite")
    return tt


class Trajectory:
    """Dense-output solution of ``state' = field(state)``, grown on read (see the
    module docstring) on both sides of the anchor t = 0; with a ``mirror`` R,
    field(R s) = -R field(s), the backward side is the forward one reversed.

    Each side keeps its own steps in stepping order, and a read sends each time
    t > 0 to the forward side and t < 0 to the backward one, one pass per side;
    t = 0 reads the anchor.  On its side t reads the step k from T[k] to T[k+1]
    that ends at a forward node and starts at a backward one: ``Y[k] + P((t -
    T[k]) / (T[k+1] - T[k]))``, P with the coefficients F[:, :, k], by Horner's
    rule alternating x and 1 - x as scipy's DOP853 output does.  A mirrored
    side's T, Y and key are the whole forward side's, its times negated and its
    states multiplied by R, but for Y[0]: the anchor as :func:`integrate`
    received it; its F is the forward side's multiplied by R.

    ``time_grid`` and ``states`` are the accepted steps so far in ascending time,
    built on access.  Complex pairs are (re, im) components.  ``field``, ``tol``
    and the per-component ``atol`` are kept.
    """

    def __init__(self, field, y0, tol, atol, mirror):
        self.field, self.tol, self.atol = field, tol, atol
        self._rtol = max(tol.tol, 100 * np.finfo(float).eps)
        self._y0, self._mirror, self._mirrored = y0, mirror, (None, None)
        y = tuple(y0.tolist())
        f = tuple(field(y))
        self._sides = {d: _Side(d, y, f, _initial_step(field, y, f, math.inf, d, atol, self._rtol))
                       for d in ((1.0,) if mirror is not None else (1.0, -1.0))}

    def _grow(self, t) -> None:
        """Steps each side on until its last accepted step lies at or past the times t."""
        lo, hi = float(t.min(initial=0.0)), float(t.max(initial=0.0))
        if self._mirror is not None:
            hi = max(hi, -lo)
        for d, end in ((1.0, hi), (-1.0, lo)):
            side = self._sides.get(d)
            if side is None or d * (end - side.ts[-1]) <= 0:
                continue
            n, nk, dim = len(side.ts), len(side.ks), len(side.y)
            try:
                side.h_abs, side.y, side.f, _, _ = _leg(dim)(
                    self.field, side.ts[-1], end, False, side.h_abs, d, side.y, side.f,
                    self.atol, self._rtol, side.ts, side.ys, side.ks)
            except IntegrationError:        # the side stays as it was, for later reads
                del side.ts[n:], side.ys[n * dim:], side.ks[nk:]
                raise
            side.T, side.Y = np.array(side.ts), np.array(side.ys).reshape(len(side.ts), dim)
            side.key = d * side.T

    def _stepped(self, d):
        """T, Y and d T of side d so far, in stepping order (mirrored: the forward
        side's, made once per extent of the forward side and kept read-only)."""
        side = self._sides.get(d, self._sides[1.0])
        if side.d == d:
            return side.T, side.Y, side.key
        if self._mirrored[0] is not side.T:     # the forward side grew: a new T
            T, Y = 0.0 - side.T, side.Y * self._mirror
            Y[0] = self._y0                     # the anchor keeps its bits
            self._mirrored = side.T, (T, Y, -T)
            for a in self._mirrored[1]:
                a.setflags(write=False)
        return self._mirrored[1]

    def _ascending(self, i):
        """Times (i = 0) or states (1) of both sides so far, in ascending time."""
        back, fwd = self._stepped(-1.0)[i], self._stepped(1.0)[i]
        return np.concatenate([back[::-1], fwd[1:]])

    time_grid = property(lambda self: self._ascending(0))
    states = property(lambda self: self._ascending(1))

    def _read(self, d, t):
        """States at the times t of side d, dim x len (see the class docstring)."""
        T, Y, key = self._stepped(d)
        side = self._sides.get(d, self._sides[1.0])
        # k counts the inner nodes before t
        k = np.searchsorted(key[1:-1], d * t, "left" if d > 0 else "right")
        c = np.take(side.coefficients(self.field), k, axis=2, mode="clip")   # k is in range
        if side.d != d:
            c *= self._mirror[:, None]
        start = T[k]
        x = (t - start) / (T[k + 1] - start)
        x1 = 1 - x
        return ((((((c[6] * x + c[5]) * x1 + c[4]) * x + c[3]) * x1 + c[2]) * x + c[1]) * x1
                + c[0]) * x + Y[k].T

    def __call__(self, t):
        """States at the 1-d array of times t, dim x len (see the class docstring)."""
        tt = _times(t)
        self._grow(tt)
        y = np.empty((len(self._y0), len(tt)))
        y[:, tt == 0.0] = self._y0[:, None]
        for d, on in ((1.0, tt > 0.0), (-1.0, tt < 0.0)):
            if on.any():
                y[:, on] = self._read(d, tt[on])
        return y

    def steps(self, lo: float, hi: float):
        """Times and states of a run over [lo, hi]: the nodes to the first past each end."""
        self._grow(_times([lo, hi]))
        grid = self.time_grid
        i, j = np.searchsorted(grid, lo, side="right") - 1, np.searchsorted(grid, hi)
        return grid[i:j + 1], self.states[i:j + 1]

    def endpoint(self, t: float) -> np.ndarray:
        """The state at t, its side grown to t and then landed on by :meth:`_land`
        with scipy's initial step as the first try: the integrator's accuracy, not
        the dense interpolant's.  At t = 0 (or -0.0) it is a copy of the anchor's
        state as :func:`integrate` received it, signed zeros included."""
        tt = _times([float(t)])
        self._grow(tt)
        return self._land(tt, lambda y, f, span, d: _initial_step(
            self.field, y, f, span, d, self.atol, self._rtol))[:, 0]

    def landed(self, times) -> np.ndarray:
        """States at the 1-d array of times, dim x len, landed on by :meth:`_land`
        with 2 |t - t_k| as the first try: the one remaining step, unless the error
        control rejects it."""
        return self._land(_times(times), lambda y, f, span, d: 2.0 * span)

    def _land(self, tt, first_try) -> np.ndarray:
        """States at the times tt, dim x len, by the rule of :meth:`__call__`: t > 0
        forward, t < 0 backward, t = 0 (or -0.0) the anchor.  Each other time is
        stepped, landing on t, by a leg of its own that keeps nothing, from its
        side's last canonical node t_k before t, state y and field value f, with
        the first try ``first_try(y, f, |t - t_k|, d)``.  A side's canonical nodes
        are its run: its stored steps, and past them the run continued from the
        side's resume state by a leg that keeps nothing, in constant memory, once
        per call, through the side's times in order of |t|.  No side is changed.
        Both are the same steps, bit for bit, so a time's state depends on neither
        earlier reads nor the other times of the call.  A mirrored trajectory reads
        a backward time t as R times the forward landing at -t, in one pass."""
        field, atol, rtol, dim = self.field, self.atol, self._rtol, len(self._y0)
        leg, out, mirrored = _leg(dim), np.empty((dim, len(tt))), self._mirror is not None
        out[:, tt == 0.0] = self._y0[:, None]
        for d, side in self._sides.items():
            end, run_t = float(side.key[-1]), side.ts[-1]
            run_y, run_f, h_abs = side.y, side.f, side.h_abs
            # (|t|, index) of the side's times; a list sort, as numpy's first sort in a
            # process maps about 200 kB more of numpy's code
            for s, i in sorted((abs(t), i) for i, t in enumerate(tt.tolist())
                               if t != 0.0 and (mirrored or d * t > 0.0)):
                t = d * s
                if s <= end:
                    k = np.searchsorted(side.key, s, "left") - 1
                    y = tuple(side.Y[k].tolist())
                    node = float(side.T[k]), y, tuple(field(y))
                elif d * run_t < s:         # else the last step of the run reaches t too
                    h_abs, run_y, run_f, run_t, node = leg(field, run_t, t, False, h_abs, d,
                                                           run_y, run_f, atol, rtol)
                t_k, y, f = node
                span = s - d * t_k
                out[:, i] = leg(field, t_k, t, True, first_try(y, f, span, d), d, y, f,
                                atol, rtol)[1]
        if mirrored:
            out[:, tt < 0.0] *= self._mirror[:, None]
        return out


def integrate(field, state0, span, tol: Tolerances, atol_scale=1.0, *, mirror) -> Trajectory:
    """The :class:`Trajectory` of the autonomous ``state' = field(state)`` from
    ``state0`` at the anchor t = 0, each side of 0 that ``span`` reaches stepped at
    once past the span's end there; (0, 0) steps nothing, and a read past the steps
    grows them.  ``field`` gets a tuple of floats in a step and arrays in the
    initial-step probe and in the dense-output stages ((dim, steps) states); it
    returns dim floats or arrays.  ``atol_scale`` multiplies ``tol.tol`` in the
    absolute tolerance, per component.

    ``mirror`` is None, or a sign vector R of ones and minus ones that fixes
    ``state0`` by value and reverses ``field``, field(R s) = -R field(s), which
    the caller vouches for.  The forward side is then stepped alone and the
    backward side is read from it through R (see the module docstring).
    """
    y0 = np.asarray(state0, dtype=float)
    R = None if mirror is None else np.asarray(mirror, dtype=float)
    if R is not None and (R.shape != y0.shape or not (np.abs(R) == 1).all()
                          or not (R * y0 == y0).all()):
        raise ValueError(f"mirror {mirror} is not a sign vector that fixes the initial "
                         f"state {y0.tolist()}")
    atol = tuple(np.broadcast_to(tol.tol * np.asarray(atol_scale, dtype=float),
                                 y0.shape).tolist())
    traj = Trajectory(field, y0, tol, atol, R)
    traj._grow(_times(span))
    return traj


def _value(f, x: float) -> float:
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def brent(f, a: float, b: float, xtol: float) -> float:
    """A root of the scalar f in [a, b], where f changes sign.

    scipy's ``brentq`` step for step, with its errors, at rtol = 4 eps and
    maxiter = 100: inverse quadratic or secant steps that stay well inside
    the bracket, bisection otherwise, and convergence once the bracket is
    narrower than xtol + rtol |x|.  The same f, bracket and xtol give the same
    root, bit for bit.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    xpre, xcur = float(a), float(b)
    fpre, fcur = _value(f, xpre), _value(f, xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:                                    # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                                               # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry                         # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _value(f, xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


def locate_event(traj: Trajectory, g, g_prime, t: float, bracket) -> float:
    """The zero of ``g(state(t))`` that Newton's method reaches from the seed t.

    g and its time derivative ``g_prime(state(t))`` are read off the integrated state
    (:meth:`Trajectory.endpoint`) at each iterate.  It stops at a step within
    ``stop = event_tol + 4 eps |t|``, or at g's rounding floor, where steps stop
    shrinking (a flat extremum): a step no smaller than the last, within 100 stop.
    An iterate outside the bracket, or 20 steps without either, raise :class:`EventError`.
    """
    lo, hi = sorted((float(bracket[0]), float(bracket[1])))
    t, last = float(t), math.inf
    for _ in range(20):
        s = traj.endpoint(t)
        step = g(s) / g_prime(s)
        t -= step
        if not lo <= t <= hi:
            raise EventError(f"a Newton iterate t={t} left the bracket [{lo}, {hi}]")
        stop = traj.tol.event_tol + _BRENT_RTOL * abs(t)
        if abs(step) <= stop or last <= abs(step) <= 100.0 * stop:
            return float(t)
        last = abs(step)
    raise EventError(f"Newton did not converge in 20 steps in [{lo}, {hi}]")
