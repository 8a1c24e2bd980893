"""The sinh-mapped Gauss-Legendre branch quadrature against independent references.

* mpmath on the same double root distances (y_min and 1 - y_max), the same
  double Taylor coefficients and the same double splits q/n and p/n: this
  isolates the quadrature rule.
* QUADPACK (``scipy.integrate.quad``) on the same s-integrand, over every
  pair with n <= 8 and both signs of tau.
* The closure scan against a scan built from the QUADPACK reference.
* 40-digit mpmath roots and exact Taylor coefficients (the true periods and
  angular periods) at small tau, where y_max sits next to 1.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from sltwist.closure import RationalTarget, scan_brackets
from sltwist.ode_engine import Tolerances
from sltwist.periods import (_gauss_legendre, partial_periods_quadrature,
                             pthat_quadrature, pthat_quadrature_psi2)
from sltwist.twisted_curve import (AdmissiblePair, TwistParam, TwistTrajectory, _gaps,
                                   f_taylor_coeffs, tau_max)

ALL_PAIRS = [(p, n - p) for n in range(3, 9) for p in range(1, n // 2 + 1)]
WEIGHTS = {"period": lambda y, one_minus_y: 1.0,
           "psi1": lambda y, one_minus_y: 1.0 / one_minus_y,
           "psi2": lambda y, one_minus_y: 1.0 / y}


def _rows(pair):
    """(a, b) of r^a (1 - r)^b = 4 tau^2, for r = y_min and then r = 1 - y_max."""
    return (pair.q, pair.p), (pair.p, pair.q)


def _exact_taylor(a, b, r):
    """c_k, k = 1..a+b, of (r + u)^a (1 - r - u)^b - r^a (1 - r)^b, expanded in mpmath."""
    c = [mp.mpf(0)] * (a + b + 1)
    for i in range(a + 1):
        for j in range(b + 1):
            c[i + j] += (mp.binomial(a, i) * r ** (a - i)
                         * mp.binomial(b, j) * (1 - r) ** (b - j) * (-1) ** j)
    return c[1:]


def _y_pair(half, near, far):
    """(y, 1 - y) from the distances of y from its root's end of [0, 1] and from the
    other end: y_min's half (0) is next to 0, y_max's (1) next to 1."""
    return (near, far) if half == 0 else (far, near)


def _mp_halves(pair, tau, weight, exact=False, dps=30):
    """(lo, hi) halves of int h dy / (2 sqrt(f(y) - 4 tau^2)) by mpmath, with
    y = r + s^2 (y_min's half) or 1 - y = r + s^2 (y_max's), r the root's
    distance from 0 or 1.

    exact=False: the double distances, Taylor coefficients and a/n of the
    library; exact=True: r solved from r^a (1 - r)^b = 4 tau^2 here to ``dps``
    digits, exact Taylor coefficients and the exact split a/n.
    """
    with mp.workdps(dps):
        target = 4 * mp.mpf(tau) ** 2
        out = []
        for half, ((a, b), r) in enumerate(zip(_rows(pair), _gaps(TwistParam(pair, tau)))):
            if exact:
                r = mp.findroot(lambda x, a=a, b=b: x ** a * (1 - x) ** b - target, mp.mpf(r))
                c = _exact_taylor(a, b, r)
                split = mp.mpf(a) / pair.n
            else:
                c = [mp.mpf(float(ck)) for ck in f_taylor_coeffs(a, b, r)]
                r, split = mp.mpf(r), mp.mpf(a / pair.n)

            def integrand(s, r=r, c=c, half=half):
                s2 = s * s
                G = c[-1]
                for ck in c[-2::-1]:
                    G = G * s2 + ck
                return WEIGHTS[weight](*_y_pair(half, r + s2, (1 - r) - s2)) / mp.sqrt(G)

            # break points at d, 8d, 64d, ... resolve the pole at distance r = d^2
            end = mp.sqrt(split - r)
            d = mp.sqrt(min(r, end ** 2))
            points = [mp.mpf(0)] + [d * 8 ** k for k in range(40) if d * 8 ** k < end] + [end]
            out.append(mp.quad(integrand, points))
        return out


def _quadpack_halves(pair, tau, weight):
    """(lo, hi) by QUADPACK on the same s-integrand as the library."""
    out = []
    for half, ((a, b), r) in enumerate(zip(_rows(pair), _gaps(TwistParam(pair, tau)))):
        c = f_taylor_coeffs(a, b, r).tolist()

        def integrand(s, r=r, c=c, half=half):
            s2 = s * s
            G = 0.0
            for ck in c[::-1]:
                G = G * s2 + ck
            return WEIGHTS[weight](*_y_pair(half, r + s2, (1.0 - r) - s2)) / math.sqrt(G)

        end = math.sqrt(a / pair.n - r)
        d = math.sqrt(min(r, end**2))
        points = [d * 8**k for k in range(40) if d * 8**k < end]
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
    param = TwistParam(pair, tau)
    data = TwistTrajectory(param, Tolerances()).period
    assert _rel(data.p_plus, lo) <= 1e-12
    assert _rel(data.p_minus, hi) <= 1e-12
    assert _rel(partial_periods_quadrature(TwistParam(pair, tau))[0], lo) <= 1e-14


@pytest.mark.parametrize("p,q,tau", [(3, 3, SMALL_33[0]), (4, 4, 1e-5), (4, 4, 1e-6)])
def test_quadrature_p_minus_matches_mpmath_at_small_tau(p, q, tau):
    # 1 - y_max is 2.0e-4 and 2.2e-3 at 1e-6: the half next to 1 keeps every digit
    pair = AdmissiblePair(p, q)
    _, hi = _mp_halves(pair, tau, "period", exact=True, dps=40)
    assert _rel(partial_periods_quadrature(TwistParam(pair, tau))[1], hi) <= 1e-13


@pytest.mark.parametrize("p,q,tau", [(2, 2, 1e-10), (2, 2, 1e-12), (1, 2, 1e-8)])
def test_angular_period_excess_matches_mpmath_at_tiny_tau(p, q, tau):
    # pthat - pi/2 is 1e-10 to 2e-7 here, so pthat needs all its digits; the
    # reference subtracts the same double pi/2.  At (2,2), 1e-12 the excess is
    # 1.07e-10 and 1e-6 of it is below half an ulp of pi/2: there the bound is
    # 4 ulps of pthat
    pair = AdmissiblePair(p, q)
    with mp.workdps(40):
        ref = 2 * p * mp.mpf(tau) * sum(_mp_halves(pair, tau, "psi1", exact=True, dps=40))
        excess = float(ref - mp.mpf(math.pi / 2))
    got = pthat_quadrature(TwistParam(pair, tau)) - math.pi / 2
    assert abs(got - excess) <= max(1e-6 * excess, 4 * math.ulp(math.pi / 2)), (got, excess)
