"""One twisted curve and what is computed along it, shared within one call.

A :class:`Curve` is built per (param, tol) by the caller that needs
several quantities of the same curve (a CLI subcommand, a test), with the
whole time span its consumers will read.  It computes each piece once, on
first use, and holds it for its own lifetime only: nothing is cached across
calls or at module level.  Its trajectory is integrated once, over that
span and 0; a read outside it raises ``ValueError``.
"""

from __future__ import annotations

from functools import cached_property

from .ode_engine import Tolerances
from .twisted_curve import TwistParam, TwistTrajectory, solve_w

__all__ = ["Curve"]


class Curve:
    """The curve of ``param`` at ``tol`` over ``span``: period data, one
    trajectory and the linearised solution, each computed on first use."""

    def __init__(self, param: TwistParam, tol: Tolerances = Tolerances(), *, span):
        self.param = param
        self.tol = tol
        self.span = span

    @cached_property
    def period(self):
        from .periods import period_ode

        return period_ode(self.param, self.tol, self)

    @cached_property
    def Q(self):
        from .variation import solve_Q

        return solve_Q(self)

    @cached_property
    def traj(self) -> TwistTrajectory:
        return solve_w(self.param, self.span, self.tol)
