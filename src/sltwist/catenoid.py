"""Planar twisted curves w' = conj(w)^(n-1): catenoid profile machinery.

The unit profile w_1 starts at e^{i pi/2n} and conserves Im(w^n) = 1.
For n = 2 it is explicit, (e^t + i e^-t)/sqrt(2), and lives forever;
for n >= 3 it blows up at a finite lifetime T_1 in both directions.
It is the model that the rescaled neck profiles of the invariant
cylinders approach.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .ode_engine import Tolerances, integrate
from .periods import _NODES, _WEIGHTS
from .twisted_curve import _compiled, _cpow_source

__all__ = [
    "catenoid_lifetime", "lifetime_routes", "unit_profile", "verify_catenoid_symmetry",
]

_LIFETIME_FRACTION = 0.995  # integrate the unit profile up to this fraction of T_1


def lifetime_routes(n: int) -> tuple[float, float]:
    """Unit-profile lifetime by (quadrature, Beta closed form).

    T_1 = int_1^inf dy / (2 sqrt(y^n - 1)).  The substitution y = u^{-1/n}
    maps this to (1/2n) int_0^1 u^{a - 1} (1-u)^{-1/2} du, a = 1/2 - 1/n.
    Split at u = 1/2, u = v^{2n} on the left and 1 - u = s^2 on the right
    remove both endpoint singularities:

        T_1 = int_0^{2^{-1/2n}} v^{n-3} dv / sqrt(1 - v^{2n})
              + (1/n) int_0^{2^{-1/2}} (1 - s^2)^{a-1} ds,

    two analytic integrands summed by the 64-node Gauss-Legendre rule of
    :mod:`.periods`.  The closed form is B(a, 1/2) / 2n from ``math.gamma``.
    """
    if n < 3:
        raise ValueError("lifetime is infinite for n < 3")
    a = 0.5 - 1.0 / n
    v_end, s_end = 0.5 ** (0.5 / n), math.sqrt(0.5)
    v, s = v_end * _NODES, s_end * _NODES
    left = v_end * (v ** (n - 3) / np.sqrt(1.0 - v ** (2 * n))) @ _WEIGHTS
    right = s_end * ((1.0 - s * s) ** (a - 1.0)) @ _WEIGHTS / n
    closed = math.gamma(a) * math.sqrt(math.pi) / math.gamma(a + 0.5) / (2.0 * n)
    return float(left + right), closed


def catenoid_lifetime(n: int) -> float:
    """Lifetime T_1 of the unit profile; both routes must agree to 1e-10."""
    by_quad, by_beta = lifetime_routes(n)
    if abs(by_quad - by_beta) > 1e-10:
        raise ArithmeticError(
            f"lifetime routes disagree for n={n}: {by_quad} vs {by_beta}")
    return by_quad


@lru_cache(maxsize=None)
def _profile_field(n: int):
    """w' = conj(w)^(n-1) for (Re w, Im w), generated as the curve field is."""
    body = ["z1r, z1i = s", "z1i = -z1i", *_cpow_source("z", [n - 1]),
            f"return (z{n - 1}r, z{n - 1}i)"]
    return _compiled(f"profile field n={n}", body)


@lru_cache(maxsize=8)      # spans above 0.995 T_1 come one per call; keep a few
def _unit_trajectory(n: int, span: float):
    w0 = np.exp(1j * math.pi / (2 * n))
    return integrate(_profile_field(n), [w0.real, w0.imag], (-span, span), Tolerances(), t0=0.0)


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
    s = _unit_trajectory(n, span)(tt.ravel())          # (Re w, Im w)
    w = (s[0] + 1j * s[1]).reshape(np.shape(t))
    return complex(w) if np.ndim(t) == 0 else w


def verify_catenoid_symmetry(n: int) -> float:
    """max |w_1(-t) - e^{i pi/n} conj(w_1(t))| at 100 times in [0, 0.9 T_1], or [0, 5] for n = 2.

    The two sides of the unit trajectory are separate integrations from
    0, so this residual measures the reflection symmetry of the profile
    rather than restating its construction.
    """
    t_window = 0.9 * catenoid_lifetime(n) if n >= 3 else 5.0
    phase = np.exp(1j * math.pi / n)
    ts = np.linspace(0.0, t_window, 100)
    left = unit_profile(n, -ts)
    right = phase * np.conj(unit_profile(n, ts))
    return float(np.max(np.abs(np.atleast_1d(left - right))))
