"""Explicit curve families: contact-stationary twists and planar-phase circles."""

from __future__ import annotations

import math

import numpy as np

from ..twisted_curve import AdmissiblePair, _twist
from .immersion import CurveSampler


def _cs_rates(pair: AdmissiblePair, c: float) -> tuple[float, float, float, float]:
    """(sin c, cos c) and the rotation rates sin^q c cos^(p-2) c and
    sin^(q-2) c cos^p c of the CS curve's two factors, for c in (0, pi/2)."""
    if not 0.0 < c < math.pi / 2:
        raise ValueError("c must lie in (0, pi/2)")
    p, q = pair.p, pair.q
    s, co = math.sin(c), math.cos(c)
    return s, co, s**q * co ** (p - 2), s ** (q - 2) * co**p


def cs_parameters(pair: AdmissiblePair, c: float) -> tuple[float, float]:
    """Phase-drift parameters (a, b) of the explicit twisted CS curve.

    a = pi/2 and b = sin^(q-2)c cos^(p-2)c (p sin^2 c - q cos^2 c);
    b = 0 exactly when tan^2 c = q/p, the minimal (untwisted-phase) case.
    """
    p, q = pair.p, pair.q
    s, co, _, _ = _cs_rates(pair, c)
    b = s ** (q - 2) * co ** (p - 2) * (p * s * s - q * co * co)
    return math.pi / 2.0, b


def cs_curve(pair: AdmissiblePair, c: float, t) -> tuple[complex, complex]:
    """The explicit contact-stationary curve at angle c.

    w = (cos c e^{i t sin^q c cos^(p-2) c}, sin c e^{-i t sin^(q-2) c cos^p c}).
    The rotation rates are pinned by the defining relation itself: the
    first equality forces rate2/rate1 = cot^2 c and matching the modulus
    of e^{i(a+bt)} conj(w1)^p conj(w2)^q forces rate1 = sin^q c cos^(p-2) c
    (these also reproduce the homogeneous curve at the extreme twist).
    """
    s, co, rate1, rate2 = _cs_rates(pair, c)
    return (co * np.exp(1j * rate1 * np.asarray(t)),
            s * np.exp(-1j * rate2 * np.asarray(t)))


def cs_curve_sampler(pair: AdmissiblePair, c: float) -> CurveSampler:
    _, _, rate1, rate2 = _cs_rates(pair, c)

    def dfn(t):
        w1, w2 = cs_curve(pair, c, t)
        return (1j * rate1 * w1, -1j * rate2 * w2)

    return CurveSampler(lambda t: cs_curve(pair, c, t), dfn,
                        name=f"CS curve ({pair.p},{pair.q}) c={c}")


def cs_residual(pair: AdmissiblePair, c: float) -> tuple[float, float, float]:
    """(a, b, residual) of the defining relation of the CS curve.

    Checks conj(w1) w1' = -conj(w2) w2' = e^{i(a+bt)} conj(w1)^p conj(w2)^q
    with the analytic parameterisation at 100 times in [-20, 20], read as
    one 1-d array (the closed-form derivative takes the array too).
    """
    a, b = cs_parameters(pair, c)
    sampler = cs_curve_sampler(pair, c)
    t = np.linspace(-20.0, 20.0, 100)
    w1, w2 = sampler(t)
    d1, d2 = sampler.derivative(t)
    zr, zi = _twist(pair.p, pair.q)((w1.real, w1.imag, w2.real, w2.imag))
    rhs = np.exp(1j * (a + b * t)) * (zr - 1j * zi)        # conj(w1)^p conj(w2)^q
    res = np.max(np.abs([w1.conjugate() * d1 - rhs, -w2.conjugate() * d2 - rhs]))
    return a, b, float(res)


def cs_closing_period(pair: AdmissiblePair, m: int, n: int) -> tuple[float, float]:
    """(c, period) of the closed CS curve with tan^2 c = m/n (coprime).

    The two factors rotate at rates whose ratio is tan^2 c; the curve
    closes after T = 2 pi m / rate1 = 2 pi n / rate2.
    """
    if math.gcd(m, n) != 1 or m <= 0 or n <= 0:
        raise ValueError("m, n must be coprime positive integers")
    c = math.atan(math.sqrt(m / n))
    return c, 2.0 * math.pi * m / _cs_rates(pair, c)[2]


def hs_curve(m: int, n: int, s) -> np.ndarray:
    """The closed planar-phase curve labelled by coprime (m, n) in S^3.

    gamma(s) = (sqrt(n) e^{i s sqrt(m/n)}, i sqrt(m) e^{-i s sqrt(n/m)})
    / sqrt(m+n), periodic with period 2 pi sqrt(m n).
    """
    if math.gcd(m, n) != 1 or m <= 0 or n <= 0:
        raise ValueError("m, n must be coprime positive integers")
    root = math.sqrt(m + n)
    s = np.asarray(s, dtype=float)
    return np.array([
        math.sqrt(n) / root * np.exp(1j * s * math.sqrt(m / n)),
        1j * math.sqrt(m) / root * np.exp(-1j * s * math.sqrt(n / m)),
    ])


def hs_curve_sampler(m: int, n: int) -> CurveSampler:
    r1 = math.sqrt(m / n)
    r2 = math.sqrt(n / m)

    def dfn(t):
        w1, w2 = hs_curve(m, n, t)
        return 1j * r1 * w1, -1j * r2 * w2

    return CurveSampler(lambda t: hs_curve(m, n, t), dfn, name=f"HS curve ({m},{n})")
