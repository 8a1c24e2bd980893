"""The numpy/stdlib pieces that replaced scipy in the runtime, against scipy.

scipy is a test dependency only; each replaced piece keeps it as a reference:

* ``ode_engine.brent`` against ``scipy.optimize.brentq``, bit for bit, at the
  library's own call sites (both closure passes) and on the
  brackets of r^a (1 - r)^b = 4 tau^2, the extrema's distances from 0 and 1.
* The array Newton of ``twisted_curve._extrema`` against brentq roots, each
  root solved for as its distance from 0 (y_min) or 1 (y_max).
* The Golub-Welsch Gegenbauer rule of ``geometry.torque`` against
  ``scipy.special.roots_jacobi``.
* The lifetime quadrature and Beta value of ``catenoid.lifetime_routes``
  against QUADPACK and ``scipy.special.beta``.
* ``scan_brackets`` on brentq roots against the library's.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import beta, roots_jacobi

import sltwist.closure as closure_mod
import sltwist.ode_engine as ode_engine
import sltwist.periods as periods_mod
from sltwist.catenoid import lifetime_routes
from sltwist.closure import RationalTarget, find_tau_for_angular_period, scan_brackets
from sltwist.geometry.torque import _gegenbauer_rule
from sltwist.periods import angular_periods
from sltwist.twisted_curve import AdmissiblePair, _extrema, tau_max

EPS = np.finfo(float).eps
ALL_PAIRS = [(p, n - p) for n in range(3, 9) for p in range(1, n // 2 + 1)]


def _outer_brackets(pair, tau):
    """For y_min and then 1 - y_max, the root distance r from 0 or 1: the function
    g(r) = r^a (1 - r)^b - 4 tau^2 and its bracket (lo, a/n)."""
    p, q, n = pair.p, pair.q, pair.n
    target = 4.0 * tau * tau
    out = []
    for a, b in ((q, p), (p, q)):
        def g(r, a=a, b=b):
            return r**a * (1.0 - r) ** b - target

        lo = min((2.0 * tau) ** (2.0 / a) / 4.0, 0.5 * a / n)
        while g(lo) >= 0.0:
            lo *= 0.5
        out.append((g, (lo, a / n)))
    return out


def _brentq_extrema(pair, taus):
    """(y_min, 1 - y_max) arrays by scalar brentq on each distance, xtol 1e-15, per tau."""
    out = []
    for tau in np.abs(np.asarray(taus, dtype=float)):
        out.append([brentq(g, *b, xtol=1e-15, rtol=4 * EPS)
                    for g, b in _outer_brackets(pair, tau)])
    return np.array(out).T


def _checked_brent(calls):
    """A stand-in for ``brent`` that also runs brentq and records both roots."""
    real = ode_engine.brent

    def brent(f, a, b, xtol):
        ours = real(f, a, b, xtol)
        calls.append((ours, brentq(f, a, b, xtol=xtol, rtol=4 * EPS, maxiter=100)))
        return ours

    return brent


# -- Brent -------------------------------------------------------------------------


def test_brent_is_brentq_in_both_closure_passes(monkeypatch):
    calls = []
    monkeypatch.setattr(closure_mod, "brent", _checked_brent(calls))
    cases = [((2, 2), (2, 3)), ((2, 3), (3, 5)), ((1, 3), (4, 7)), ((3, 3), (6, 11))]
    for (p, q), (a, b) in cases:
        find_tau_for_angular_period(AdmissiblePair(p, q), RationalTarget(a, b),
                                    ode_engine.Tolerances())
    assert len(calls) == len(cases) + 1          # (2,2) at 2/3 refines on the ODE route
    assert all(ours == ref for ours, ref in calls), calls


def test_brent_is_brentq_on_the_extrema_brackets():
    for p, q in [(1, 2), (2, 3), (3, 5), (4, 4)]:
        pair = AdmissiblePair(p, q)
        for tau in np.geomspace(1e-6, 0.999, 100) * tau_max(pair):
            for g, b in _outer_brackets(pair, tau):
                assert (ode_engine.brent(g, *b, 1e-15)
                        == brentq(g, *b, xtol=1e-15, rtol=4 * EPS)), (p, q, tau, b)


def test_brent_errors_are_brentqs(monkeypatch):
    with pytest.raises(ValueError, match="different signs"):
        ode_engine.brent(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="is NaN"):
        ode_engine.brent(lambda x: math.nan if x > 0.3 else -1.0, 0.0, 1.0, 1e-12)
    with pytest.raises(ValueError, match="too small"):
        ode_engine.brent(lambda x: x, -1.0, 1.0, 0.0)
    monkeypatch.setattr(ode_engine, "_BRENT_MAXITER", 3)
    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        ode_engine.brent(lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0, 1e-12)
    with pytest.raises(RuntimeError, match="Failed to converge after 3 iterations"):
        brentq(lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0, xtol=1e-12, maxiter=3)


# -- the extrema of an array of tau ----------------------------------------------


@pytest.mark.parametrize("p,q", ALL_PAIRS)
def test_extrema_within_brentq_tolerance(p, q):
    pair = AdmissiblePair(p, q)
    taus = np.geomspace(1e-6, 0.999, 60) * tau_max(pair)
    for t in (taus, -taus):
        got, ref = _extrema(pair, t), _brentq_extrema(pair, t)
        for y, r in zip(got, ref):
            assert np.all(np.abs(y - r) <= 2e-15 + 8 * EPS * np.abs(r)), np.abs(y - r).max()


# -- the Gegenbauer rule of the sphere quadrature --------------------------------


@pytest.mark.parametrize("m", range(2, 9))
def test_gegenbauer_rule_matches_roots_jacobi(m):
    a = (m - 2) / 2.0
    for k in (7, 8, 12):
        u, w = _gegenbauer_rule(k, a)
        u_ref, w_ref = roots_jacobi(k, a, a)
        assert np.max(np.abs(u - u_ref)) <= 1e-14
        assert np.max(np.abs(w - w_ref)) <= 1e-14
        assert np.array_equal(u, -u[::-1]) and np.array_equal(w, w[::-1])


# -- the catenoid lifetime -----------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 13))
def test_lifetime_routes_match_quadpack_and_beta(n):
    a, c = 0.5 - 1.0 / n, 1.0 / (2.0 * n)
    left = quad(lambda u: c / math.sqrt(1.0 - u), 0.0, 0.5,
                weight="alg", wvar=(a - 1.0, 0.0), epsabs=1e-14, epsrel=1e-14)[0]
    right = quad(lambda u: c * u ** (a - 1.0), 0.5, 1.0,
                 weight="alg", wvar=(0.0, -0.5), epsabs=1e-14, epsrel=1e-14)[0]
    by_quad, closed = lifetime_routes(n)
    assert abs(by_quad - (left + right)) <= 1e-13
    assert abs(closed * 2.0 * n - beta(a, 0.5)) <= 1e-15 * beta(a, 0.5)


# -- the closure scan ------------------------------------------------------------------


def _closure_targets():
    """The benchmark's necklace ladder, and every a/b with b <= 12 in each
    pair's attainable range (the targets of ``test_quadrature_rule``)."""
    ladder = ([((1, 2), m) for m in (2, 4, 8, 16)] + [((1, 3), m) for m in (1, 2, 4, 8)]
              + [((2, 2), m) for m in (1, 2, 3, 4)] + [((3, 3), m) for m in (1, 2)]
              + [((1, 4), m) for m in (1, 3)])
    out = {}
    for (p, q), m in ladder:
        n = p + q
        out.setdefault((p, q), set()).add(
            Fraction((n - 1) * m, 2 * (n - 1) * m - 1) if p == 1
            else Fraction(p * m, 2 * p * m - 1))
    for (p, q), targets in out.items():
        pair = AdmissiblePair(p, q)
        tm = tau_max(pair)
        vals = angular_periods(pair, np.geomspace(1e-5 * tm, 0.999 * tm, 200)) / math.pi
        targets |= {Fraction(a, b) for b in range(1, 13) for a in range(1, b + 1)
                    if vals.min() < a / b < vals.max()}
    return out


def test_scan_brackets_unchanged_on_brentq_roots(monkeypatch):
    targets = _closure_targets()
    assert sum(map(len, targets.values())) > 16
    ours = {(pq, f): scan_brackets(AdmissiblePair(*pq), RationalTarget(f.numerator,
                                                                      f.denominator))
            for pq, fs in targets.items() for f in fs}
    monkeypatch.setattr(periods_mod, "_extrema", _brentq_extrema)
    for (pq, f), brackets in ours.items():
        ref = scan_brackets(AdmissiblePair(*pq), RationalTarget(f.numerator, f.denominator))
        assert brackets == ref and brackets, (pq, f)
