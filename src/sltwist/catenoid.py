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


@lru_cache(maxsize=None)
def _unit_trajectory(n: int):
    """The unit profile of degree n, anchored at 0 and grown as far as it is read."""
    w0 = np.exp(1j * math.pi / (2 * n))
    # not mirrored: the reflection multiplies by e^{i pi/n}, which rounds
    return integrate(_profile_field(n), [w0.real, w0.imag], (0.0, 0.0), Tolerances(), mirror=None)


def unit_profile(n: int, t):
    """The unit profile w_1 at the 1-d array of times t.

    n = 2 is evaluated in closed form, any other n read off :func:`_unit_trajectory`.
    """
    if n == 2:
        t = np.asarray(t, dtype=float)
        return (np.exp(t) + 1j * np.exp(-t)) / math.sqrt(2.0)
    T1 = catenoid_lifetime(n)
    if np.max(np.abs(t)) >= T1:
        raise ValueError(f"|t| >= lifetime T_1 = {T1} for n = {n}")
    s = _unit_trajectory(n)(t)          # (Re w, Im w)
    return s[0] + 1j * s[1]


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
    return float(np.max(np.abs(left - right)))
