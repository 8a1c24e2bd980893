"""The sinh-mapped Gauss-Legendre branch quadrature against independent references.

* mpmath on the same double roots, the same double Taylor coefficients and
  the same double split point q/n: this isolates the quadrature rule.
* QUADPACK (``scipy.integrate.quad``) on the same s-integrand, over every
  pair with n <= 8 and both signs of tau.
* The closure scan against a scan built from the QUADPACK reference.
* 40-digit mpmath roots and exact Taylor coefficients (the true periods)
  at (3,3) and small tau, where the two routes of ``periods`` differ.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from sltwist.closure import RationalTarget, scan_brackets
from sltwist.periods import (_gauss_legendre, partial_periods_quadrature, period_ode,
                             pthat_quadrature, pthat_quadrature_psi2)
from sltwist.twisted_curve import (AdmissiblePair, TwistParam, f_taylor_coeffs, tau_max,
                                   y_extrema)

ALL_PAIRS = [(p, n - p) for n in range(3, 9) for p in range(1, n // 2 + 1)]
WEIGHTS = {"period": lambda y, one_minus_y: 1.0,
           "psi1": lambda y, one_minus_y: 1.0 / one_minus_y,
           "psi2": lambda y, one_minus_y: 1.0 / y}


def _exact_taylor(pair, y0):
    """c_k = f^(k)(y0)/k!, k = 1..n, expanded from the factors of f in mpmath."""
    p, q = pair.p, pair.q
    c = [mp.mpf(0)] * (p + q + 1)
    for i in range(q + 1):
        for j in range(p + 1):
            c[i + j] += (mp.binomial(q, i) * y0 ** (q - i)
                         * mp.binomial(p, j) * (1 - y0) ** (p - j) * (-1) ** j)
    return c[1:]


def _mp_halves(pair, tau, weight, exact=False, dps=30):
    """(lo, hi) halves of int h dy / (2 sqrt(f(y) - 4 tau^2)) by mpmath.

    exact=False: the double roots, Taylor coefficients and q/n of the
    library; exact=True: roots refined to ``dps`` digits, exact Taylor
    coefficients and the exact split q/n.
    """
    with mp.workdps(dps):
        roots = [mp.mpf(r) for r in y_extrema(TwistParam(pair, tau))]
        if exact:
            target = 4 * mp.mpf(tau) ** 2
            roots = [mp.findroot(lambda y: y ** pair.q * (1 - y) ** pair.p - target, r)
                     for r in roots]
            qn = mp.mpf(pair.q) / pair.n
        else:
            qn = mp.mpf(pair.q / pair.n)
        out = []
        for y0, sign in zip(roots, (1, -1)):
            coeffs = (_exact_taylor(pair, y0) if exact else
                      [mp.mpf(float(c)) for c in f_taylor_coeffs(pair, float(y0))])
            c = [ck * sign ** k for k, ck in enumerate(coeffs, start=1)]

            def integrand(s, y0=y0, sign=sign, c=c):
                s2 = s * s
                G = c[-1]
                for ck in c[-2::-1]:
                    G = G * s2 + ck
                return WEIGHTS[weight](y0 + sign * s2, (1 - y0) - sign * s2) / mp.sqrt(G)

            # break points at a, 8a, 64a, ... resolve the pole at distance a
            end = mp.sqrt(sign * (qn - y0))
            a = mp.sqrt(min(y0 if sign > 0 else 1 - y0, end ** 2))
            points = [mp.mpf(0)] + [a * 8 ** k for k in range(40) if a * 8 ** k < end] + [end]
            out.append(mp.quad(integrand, points))
        return out


def _quadpack_halves(pair, tau, weight):
    """(lo, hi) by QUADPACK on the same s-integrand as the library."""
    out = []
    for y0, sign in zip(y_extrema(TwistParam(pair, tau)), (1.0, -1.0)):
        c = (f_taylor_coeffs(pair, y0) * sign ** np.arange(1, pair.n + 1)).tolist()

        def integrand(s, y0=y0, sign=sign, c=c):
            s2 = s * s
            G = 0.0
            for ck in c[::-1]:
                G = G * s2 + ck
            return WEIGHTS[weight](y0 + sign * s2, (1.0 - y0) - sign * s2) / math.sqrt(G)

        end = math.sqrt(sign * (pair.q / pair.n - y0))
        a = math.sqrt(min(y0 if sign > 0 else 1.0 - y0, end**2))
        points = [a * 8**k for k in range(40) if a * 8**k < end]
        out.append(quad(integrand, 0.0, end, epsabs=0.0, epsrel=1e-13, limit=200,
                        points=points)[0])
    return out


def _rel(a, b):
    return float(abs((a - b) / b))


def test_rule_integrates_polynomials_exactly():
    nodes, weights = _gauss_legendre()
    assert len(nodes) == 64 and np.all(np.diff(np.sort(nodes)) > 0)
    for k in range(128):
        assert abs(weights @ nodes**k * (k + 1) - 1.0) <= 1e-14


@pytest.mark.parametrize("p,q", [(1, 2), (1, 5), (2, 3), (3, 5)])
@pytest.mark.parametrize("where", ["1e-6", "1e-4", "0.01", "0.5", "1-1e-9"])
def test_quadrature_matches_mpmath_on_same_roots(p, q, where):
    pair = AdmissiblePair(p, q)
    tm = tau_max(pair)
    tau = {"1e-6": 1e-6, "1e-4": 1e-4, "0.01": 0.01 * tm, "0.5": 0.5 * tm,
           "1-1e-9": (1 - 1e-9) * tm}[where]
    param = TwistParam(pair, tau)
    lo, hi = _mp_halves(pair, tau, "period")
    qp, qm = partial_periods_quadrature(param)
    if p == 1:
        assert _rel(qp, lo + hi) <= 1e-13
    else:
        assert _rel(qp, lo) <= 1e-13 and _rel(qm, hi) <= 1e-13
    ref = 2 * p * tau * sum(_mp_halves(pair, tau, "psi1"))
    assert _rel(pthat_quadrature(param), ref) <= 1e-13
    ref = 2 * q * tau * sum(_mp_halves(pair, tau, "psi2"))
    assert _rel(pthat_quadrature_psi2(param), ref) <= 1e-13


@pytest.mark.parametrize("p,q", ALL_PAIRS)
def test_quadrature_matches_quadpack(p, q):
    pair = AdmissiblePair(p, q)
    tm = tau_max(pair)
    for tau in [1e-6, *(tm * np.array([1e-3, 0.1, 0.6, 0.999]))]:
        for t in (tau, -tau):
            param = TwistParam(pair, t)
            lo, hi = _quadpack_halves(pair, t, "period")
            qp, qm = partial_periods_quadrature(param)
            got, ref = ((qp,), (lo + hi,)) if p == 1 else ((qp, qm), (lo, hi))
            assert all(_rel(a, b) <= 1e-13 for a, b in zip(got, ref)), (t, got, ref)
            ref = 2 * q * t * sum(_quadpack_halves(pair, t, "psi2"))
            assert _rel(pthat_quadrature_psi2(param), ref) <= 1e-13, t


def _necklace_targets():
    """The rational targets of the benchmark's necklace ladder."""
    ladder = ([((1, 2), m) for m in (2, 4, 8, 16)] + [((1, 3), m) for m in (1, 2, 4, 8)]
              + [((2, 2), m) for m in (1, 2, 3, 4)] + [((3, 3), m) for m in (1, 2)]
              + [((1, 4), m) for m in (1, 3)])
    out = []
    for (p, q), m in ladder:
        n = p + q
        f = (Fraction((n - 1) * m, 2 * (n - 1) * m - 1) if p == 1
             else Fraction(p * m, 2 * p * m - 1))
        out.append(((p, q), f))
    return out


@pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 2), (3, 3), (1, 4)])
def test_scan_brackets_match_quadpack_scan(p, q):
    pair = AdmissiblePair(p, q)
    tm = tau_max(pair)
    taus = np.geomspace(1e-5 * tm, 0.999 * tm, 200)
    ref = np.array([2 * p * t * sum(_quadpack_halves(pair, t, "psi1")) for t in taus])
    lo, hi = ref.min() / math.pi, ref.max() / math.pi
    closure = {Fraction(a, b) for b in range(1, 13) for a in range(1, b + 1) if lo < a / b < hi}
    necklaces = {f for pq, f in _necklace_targets() if pq == (p, q)}
    assert necklaces and closure
    for f in sorted(closure | necklaces):
        target = RationalTarget(f.numerator, f.denominator)
        vals = ref - target.angle
        expect = [(float(taus[i]), float(taus[i + 1])) for i in range(len(taus) - 1)
                  if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0]
        assert scan_brackets(pair, target) == expect, f


# (3,3) at small tau: the true periods, from 40-digit roots and exact coefficients
SMALL_33 = [1.05e-6, 3e-6, 7.6e-6]


@pytest.mark.parametrize("tau", SMALL_33)
def test_ode_periods_match_mpmath_at_33_small_tau(tau):
    pair = AdmissiblePair(3, 3)
    lo, hi = _mp_halves(pair, tau, "period", exact=True, dps=40)
    data = period_ode(TwistParam(pair, tau))
    assert _rel(data.p_plus, lo) <= 1e-12
    assert _rel(data.p_minus, hi) <= 1e-12
    assert _rel(partial_periods_quadrature(TwistParam(pair, tau))[0], lo) <= 1e-14


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1(b): the Taylor coefficients of f at y_max are evaluated in the "
    "monomial basis at y_max ~ 1 - 2e-4, so c_1 = f'(y_max) ~ -3(1 - y_max)^2 keeps "
    "only 8 digits and the quadrature p_minus is off by 1.5e-9; expanded from the "
    "factors (y_max + d)^q (1 - y_max - d)^p they bring it within 1.7e-13"))
def test_quadrature_p_minus_matches_mpmath_at_33_small_tau():
    pair = AdmissiblePair(3, 3)
    _, hi = _mp_halves(pair, SMALL_33[0], "period", exact=True, dps=40)
    assert _rel(partial_periods_quadrature(TwistParam(pair, SMALL_33[0]))[1], hi) <= 1e-12
