"""Planar twisted curves w' = conj(w)^(n-1): catenoid profile machinery.

The unit profile w_1 starts at e^{i pi/2n} and conserves Im(w^n) = 1.
For n = 2 it is explicit, (e^t + i e^-t)/sqrt(2), and lives forever;
for n >= 3 it blows up at a finite lifetime T_1 in both directions.
The scaled family w_lam(t) = lam^{1/n} w_1(lam^{1-2/n} t) conserves
Im(w^n) = lam and models the neck profiles of the invariant cylinders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import beta as beta_fn

from .ode_engine import Tolerances, integrate

__all__ = [
    "CatenoidParams", "catenoid_lifetime", "lifetime_routes",
    "catenoid_flow", "unit_profile", "verify_catenoid_symmetry",
]

_LIFETIME_FRACTION = 0.995  # integrate the unit profile up to this fraction of T_1


@dataclass(frozen=True)
class CatenoidParams:
    """Twist degree n >= 2 and scale lam > 0 (waist radius lam^{1/n})."""

    n: int
    lam: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not self.lam > 0:
            raise ValueError("lam must be positive")


def lifetime_routes(n: int) -> tuple[float, float]:
    """Unit-profile lifetime by (singular quadrature, Beta closed form).

    T_1 = int_1^inf dy / (2 sqrt(y^n - 1)).  The substitution y = u^{-1/n}
    maps this to (1/2n) int_0^1 u^{1/2 - 1/n - 1} (1-u)^{-1/2} du, whose
    algebraic endpoint singularities are fed to adaptive weighted
    quadrature on the two halves.
    """
    if n < 3:
        raise ValueError("lifetime is infinite for n < 3")
    a = 0.5 - 1.0 / n
    c = 1.0 / (2.0 * n)
    left = quad(lambda u: c / math.sqrt(1.0 - u), 0.0, 0.5,
                weight="alg", wvar=(a - 1.0, 0.0), epsabs=1e-14, epsrel=1e-14)[0]
    right = quad(lambda u: c * u ** (a - 1.0), 0.5, 1.0,
                 weight="alg", wvar=(0.0, -0.5), epsabs=1e-14, epsrel=1e-14)[0]
    closed = beta_fn(a, 0.5) / (2.0 * n)
    return left + right, closed


def catenoid_lifetime(n: int) -> float:
    """Lifetime T_1 of the unit profile; both routes must agree to 1e-10."""
    by_quad, by_beta = lifetime_routes(n)
    if abs(by_quad - by_beta) > 1e-10:
        raise ArithmeticError(
            f"lifetime routes disagree for n={n}: {by_quad} vs {by_beta}")
    return by_quad


def _profile_field(n: int):
    def rhs(t, s):
        d = complex(s[0], -s[1]) ** (n - 1)
        return (d.real, d.imag)

    return rhs


def _read(traj, t):
    """w at scalar or array t, read off the (Re w, Im w) trajectory."""
    tt = np.asarray(t, dtype=float)
    s = traj(tt.ravel())
    w = (s[0] + 1j * s[1]).reshape(tt.shape)
    return complex(w) if tt.ndim == 0 else w


@lru_cache(maxsize=None)
def _unit_trajectory(n: int, span: float):
    w0 = np.exp(1j * math.pi / (2 * n))
    inv = {"Im_w^n": (lambda s: (complex(s[0], s[1]) ** n).imag, 1.0)}
    return integrate(_profile_field(n), [w0.real, w0.imag], (-span, span), Tolerances(),
                     inv, t0=0.0)


def unit_profile(n: int, t):
    """The unit profile w_1(t); scalar or array t.

    n = 2 is evaluated in closed form; otherwise the trajectory is
    integrated (and cached) out to 99.5% of the lifetime.
    """
    if n == 2:
        t = np.asarray(t, dtype=float)
        val = (np.exp(t) + 1j * np.exp(-t)) / math.sqrt(2.0)
        return complex(val) if val.ndim == 0 else val
    T1 = catenoid_lifetime(n)
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    if np.max(np.abs(tt)) >= T1:
        raise ValueError(f"|t| >= lifetime T_1 = {T1} for n = {n}")
    span = max(_LIFETIME_FRACTION * T1, np.max(np.abs(tt)) * (1 + 1e-12))
    return _read(_unit_trajectory(n, span), t)


def catenoid_flow(params: CatenoidParams, t, direct: bool = False):
    """Scaled flow w_lam(t) = lam^{1/n} w_1(lam^{1-2/n} t).

    ``direct=True`` integrates the field from the scaled initial value
    instead of applying the scaling law, as an independent route for
    verifying the scaling symmetry.
    """
    n, lam = params.n, params.lam
    if not direct:
        return lam ** (1.0 / n) * unit_profile(n, lam ** (1.0 - 2.0 / n) * np.asarray(t))
    w0 = lam ** (1.0 / n) * np.exp(1j * math.pi / (2 * n))
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    if n >= 3:
        T = catenoid_lifetime(n) * lam ** (2.0 / n - 1.0)
        if np.max(np.abs(tt)) >= T:
            raise ValueError(f"|t| >= scaled lifetime {T}")
    # the upper end stays above 0 so that t = 0 alone still has a span
    span = (min(tt.min(), 0.0), max(tt.max(), 1e-9))
    traj = integrate(_profile_field(n), [w0.real, w0.imag], span, Tolerances(), t0=0.0)
    return _read(traj, t)


def verify_catenoid_symmetry(n: int, sample_count: int = 100,
                             t_window: float | None = None) -> float:
    """max |w_1(-t) - e^{i pi/n} conj(w_1(t))| over samples.

    The two sides of the unit trajectory are separate integrations from
    0, so this residual measures the reflection symmetry of the profile
    rather than restating its construction.
    """
    if t_window is None:
        t_window = 0.9 * catenoid_lifetime(n) if n >= 3 else 5.0
    phase = np.exp(1j * math.pi / n)
    ts = np.linspace(0.0, t_window, sample_count)
    left = unit_profile(n, -ts)
    right = phase * np.conj(unit_profile(n, ts))
    return float(np.max(np.abs(np.atleast_1d(left - right))))
