"""One twisted curve and what is computed along it, shared within one call.

A :class:`Curve` is built per (param, tol) by the caller that needs
several quantities of the same curve (a CLI subcommand, a test).  It
computes each piece once, on first use, and holds it for its own
lifetime only: nothing is cached across calls or at module level.
"""

from __future__ import annotations

from functools import cached_property

from .ode_engine import Tolerances
from .twisted_curve import TwistParam, TwistTrajectory, solve_w

__all__ = ["Curve"]


class Curve:
    """The curve of ``param`` at ``tol``: period data, one trajectory and
    the linearised solution, each computed on first use."""

    def __init__(self, param: TwistParam, tol: Tolerances = Tolerances()):
        self.param = param
        self.tol = tol
        self._traj: TwistTrajectory | None = None

    @cached_property
    def period(self):
        from .periods import period_ode

        return period_ode(self.param, self.tol, self)

    @cached_property
    def Q(self):
        from .variation import solve_Q

        return solve_Q(self.param, self.tol, curve=self)

    def traj(self, lo: float, hi: float) -> TwistTrajectory:
        """The trajectory, covering [lo, hi] and 0.

        A span beyond the one integrated so far is integrated afresh over
        the union of both, so every caller reads the same trajectory.
        """
        t = self._traj
        if t is None or lo < t.t_lo or hi > t.t_hi:
            if t is not None:
                lo, hi = min(lo, t.t_lo), max(hi, t.t_hi)
            self._traj = t = None       # free the narrower one before integrating
            self._traj = solve_w(self.param, (lo, hi), self.tol)
        return self._traj
