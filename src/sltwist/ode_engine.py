"""Deterministic initial-value solver with dense output and event location.

Thin layer over scipy's DOP853 (embedded Runge-Kutta of order 8 with a
7th-order continuous extension).  Everything downstream talks to
:class:`Trajectory` and :func:`locate_event`; nothing else in the package
calls scipy's integrators directly.

The initial state of :func:`integrate` is given at an anchor time inside
the span, and one :class:`Trajectory` covers the span on both sides of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import OdeSolution, solve_ivp
from scipy.optimize import brentq


class IntegrationError(RuntimeError):
    """Step-size underflow or non-finite field evaluation.

    ``last_time`` holds the furthest time the integrator reached.
    """

    def __init__(self, message, last_time=None):
        super().__init__(message)
        self.last_time = last_time


class EventError(RuntimeError):
    """No sign change of the event function in the given bracket."""


@dataclass(frozen=True)
class Tolerances:
    """Integrator tolerances.

    event_tol is in time units and must not exceed abs_tol so that event
    times are at least as accurate as the states they are read from.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_step: float = np.inf
    event_tol: float = 1e-13

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "max_step", "event_tol"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be strictly positive")
        if self.event_tol > self.abs_tol:
            raise ValueError("event_tol must not exceed abs_tol")


@dataclass
class Trajectory:
    """Dense-output solution of an autonomous first-order system.

    Integrated outward from the anchor ``t0``; ``time_grid`` and
    ``states`` hold the accepted steps of both sides in ascending time.
    States are real vectors; complex pairs are stored as consecutive
    (re, im) components.  ``drift`` records, for each named invariant,
    the maximum deviation from its reference value over the accepted
    integration steps.  Immutable after construction in practice: nothing
    in the package mutates a built trajectory.
    """

    t0: float
    time_grid: np.ndarray
    states: np.ndarray            # shape (len(time_grid), dim)
    interpolant: OdeSolution
    field: object                 # the right-hand side, kept for endpoints
    tol: Tolerances
    atol_scale: object = 1.0      # per-component factor on tol.abs_tol
    drift: dict = field(default_factory=dict)

    def __call__(self, t):
        """State at time t in the span (scalar -> 1-d array, array -> dim x len)."""
        if not self.covers(t):
            raise ValueError(f"t in [{np.min(t)}, {np.max(t)}] outside the integrated "
                             f"span [{self.time_grid[0]}, {self.time_grid[-1]}]")
        return self.interpolant(t)

    def covers(self, t) -> bool:
        t, grid = np.asarray(t), self.time_grid
        return bool(np.all((t >= grid[0] - 1e-12) & (t <= grid[-1] + 1e-12)))

    def endpoint(self, t: float) -> np.ndarray:
        """The state at t != t0 integrated from the last accepted step
        between t0 and t: the integrator's accuracy, not the dense interpolant's."""
        if t == self.t0 or not self.covers(t):
            raise ValueError(f"no integrated endpoint at t={t}")
        forward = t > self.t0
        if forward:
            k = np.searchsorted(self.time_grid, t) - 1
        else:
            k = np.searchsorted(self.time_grid, t, side="right")
        leg = integrate(self.field, self.states[k], (self.time_grid[k], t), self.tol,
                        atol_scale=self.atol_scale)
        return leg.states[-1 if forward else 0]


def _leg(field, y0, t0, t1, tol, atol_scale):
    """One DOP853 run from t0 to t1: (times, states, interpolants), ascending in time."""
    sol = solve_ivp(field, (t0, t1), y0, method="DOP853",
                    rtol=tol.rel_tol, atol=tol.abs_tol * np.asarray(atol_scale),
                    max_step=tol.max_step, dense_output=True)
    if not sol.success:
        last = sol.t[-1] if len(sol.t) else t0
        raise IntegrationError(
            f"integration stalled at t={last!r}: {sol.message}", last_time=last)
    order = slice(None, None, 1 if t1 > t0 else -1)
    return sol.t[order], sol.y.T[order], sol.sol.interpolants[order]


def integrate(field, state0, span, tol: Tolerances = Tolerances(),
              invariants=None, atol_scale=1.0, t0=None) -> Trajectory:
    """Integrate ``state' = field(t, state)`` from ``state0`` at ``t0`` to
    both ends of span, forward first.

    ``t0`` defaults to span[0], so span = (a, b) with b < a integrates
    backward from a.  Each side is the run a one-sided span from t0 would
    make, step for step.  ``invariants`` maps a name to ``(fn, reference)``;
    the drift of ``fn(state)`` from ``reference`` is recorded over the
    accepted steps.  ``atol_scale`` multiplies ``tol.abs_tol``, per
    component when it is an array.
    """
    lo, hi = sorted((float(span[0]), float(span[1])))
    t0 = float(span[0]) if t0 is None else float(t0)
    if lo == hi:
        raise ValueError("empty integration span")
    if not lo <= t0 <= hi:
        raise ValueError(f"anchor t0={t0} outside the span [{lo}, {hi}]")
    y0 = np.asarray(state0, dtype=float)
    anchor = (np.array([t0]), y0[None], [])
    fwd = _leg(field, y0, t0, hi, tol, atol_scale) if hi > t0 else anchor
    bwd = _leg(field, y0, t0, lo, tol, atol_scale) if lo < t0 else anchor
    grid = np.concatenate([bwd[0], fwd[0][1:]])
    traj = Trajectory(t0=t0, time_grid=grid, states=np.concatenate([bwd[1], fwd[1][1:]]),
                      interpolant=OdeSolution(grid, bwd[2] + fwd[2]), field=field,
                      tol=tol, atol_scale=atol_scale)
    if invariants:
        for name, (fn, ref) in invariants.items():
            vals = np.array([fn(s) for s in traj.states])
            traj.drift[name] = float(np.max(np.abs(vals - ref)))
    return traj


def _grid_bracket(h, ta, tb, n=400):
    """First sign-change subinterval of h (vectorised) on [ta, tb], from ta."""
    ts = np.linspace(ta, tb, n)
    vals = h(ts)
    if vals[0] == 0.0:
        return ta, ta
    hit = np.flatnonzero((vals[1:] == 0.0) | (np.sign(vals[1:]) != np.sign(vals[0])))
    if not len(hit):
        raise EventError(f"no sign change of event function in [{ta}, {tb}]")
    return ts[hit[0]], ts[hit[0] + 1]


def locate_event(traj: Trajectory, g, bracket, g_prime=None) -> float:
    """First zero of ``g(t, state(t))`` in the bracket, on the dense output.

    The bracket endpoints must produce a sign change of g (a grid scan,
    one interpolant read on the whole grid, localises the first crossing
    when g wiggles; g gets the time array and the dim x len states, so it
    must take arrays).  Refinement is Brent on the interpolant, then one
    Newton step on the integrated state at that time when ``g_prime``
    (dg/dt) is given.
    """
    ta, tb = float(bracket[0]), float(bracket[1])

    def h(t):
        return g(t, traj(t))

    def h_grid(ts):
        return np.broadcast_to(np.asarray(g(ts, traj(ts)), dtype=float), ts.shape)

    a, b = _grid_bracket(h_grid, ta, tb)
    if a == b:
        return a
    a, b = min(a, b), max(a, b)
    t_star = brentq(h, a, b, xtol=traj.tol.event_tol, rtol=4 * np.finfo(float).eps)
    if g_prime is not None and t_star != traj.t0:
        s = traj.endpoint(t_star)
        deriv = g_prime(t_star, s)
        if deriv != 0.0:
            step = g(t_star, s) / deriv
            if abs(step) < 100 * traj.tol.event_tol:
                t_star -= step
    lo, hi = min(ta, tb), max(ta, tb)
    return float(min(max(t_star, lo), hi))
