import math

import numpy as np
import pytest

import sltwist.geometry as geo
from sltwist.ode_engine import Tolerances
from sltwist.twisted_curve import AdmissiblePair, TwistParam, TwistTrajectory, tau_max


# the equatorial twisting curve w(t) = (cos t, sin t)
CIRCLE = geo.CurveSampler(lambda t: (np.cos(t), np.sin(t)), lambda t: (-np.sin(t), np.cos(t)),
                          name="equatorial circle")


def _sampler(param, t_range):
    """The immersion over the chart times t_range."""
    return geo.immersion_sampler(TwistTrajectory(param, Tolerances()), t_range)


# -- immersion and Legendrian checks -----------------------------------------


@pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 3)])
def test_zero_twist_cylinder_lands_on_real_sphere(p, q):
    sampler = _sampler(TwistParam(AdmissiblePair(p, q), 0.0), (-1.5, 1.5))
    z = sampler(sampler.sample_points(200, seed=0))
    assert z.shape == (200, p + q)
    assert np.all(z.imag == 0.0)


def test_extreme_twist_homogeneous_formula_p1():
    pair = AdmissiblePair(1, 2)
    tm = tau_max(pair)
    param = TwistParam(pair, tm)
    traj = TwistTrajectory(param, Tolerances())
    n = 3
    ts = [0.0, 0.7, 2.2]
    for t, (w1, w2) in zip(ts, traj.w(np.array(ts)).T):
        w1_ref = -1j * math.sqrt(1.0 / n) * np.exp(2j * n * tm * t)
        w2_ref = math.sqrt((n - 1) / n) * np.exp(-2j * n * tm * t / (n - 1))
        assert abs(w1 - w1_ref) < 1e-9
        assert abs(w2 - w2_ref) < 1e-9


@pytest.mark.parametrize("p,q", [(2, 3), (2, 2), (3, 3)])
def test_extreme_twist_homogeneous_formula_p_gt_1(p, q):
    pair = AdmissiblePair(p, q)
    n = pair.n
    tm = tau_max(pair)
    traj = TwistTrajectory(TwistParam(pair, tm), Tolerances())
    ts = [0.0, 0.6, 1.7, 2.9]
    for t, (w1, w2) in zip(ts, traj.w(np.array(ts)).T):
        ref1 = math.sqrt(p / n) * np.exp(-1j * math.pi / (4 * p)) * np.exp(2j * n * tm * t / p)
        ref2 = math.sqrt(q / n) * np.exp(-1j * math.pi / (4 * q)) * np.exp(-2j * n * tm * t / q)
        assert abs(w1 - ref1) < 1e-9
        assert abs(w2 - ref2) < 1e-9


def test_pullback_metric_coefficients():
    # metric = |w'|^2 dt^2 + (1-y) g1 + y g2 checked by finite differences
    param = TwistParam(AdmissiblePair(2, 3), 0.05)
    sampler = _sampler(param, (-1.0, 1.0))
    h = 1e-5
    traj = TwistTrajectory(param, Tolerances())
    for u in sampler.sample_points(8, seed=2):
        (y,) = traj.y(u[:1])
        pq = param.pair
        speed2 = y ** (pq.q - 1) * (1 - y) ** (pq.p - 1)

        def vec(i, du):
            e = np.zeros(sampler.dim)
            e[i] = du
            return (sampler(u + e) - sampler(u - e)) / (2 * du)

        vt = vec(0, h)
        g_tt = float(np.sum(vt.real**2 + vt.imag**2))
        assert abs(g_tt - speed2) < 1e-6
        v1 = vec(1, h)   # first-factor chart angle
        g_11 = float(np.sum(v1.real**2 + v1.imag**2))
        assert abs(g_11 - (1 - y)) < 1e-6
        v2 = vec(sampler.dim - 1, h)  # last angle lives on the second factor
        g_22 = float(np.sum(v2.real**2 + v2.imag**2))
        expected = y * math.sin(u[sampler.dim - 2]) ** 2   # azimuthal on S^2
        assert abs(g_22 - expected) < 1e-6


def test_legendrian_residual_of_invariant_cylinder():
    param = TwistParam(AdmissiblePair(1, 2), 0.1)
    sampler = _sampler(param, (-1.5, 1.5))
    assert geo.legendrian_residual(sampler, 500) < 1e-6


def _legendrian_reference(sampler, count, seed, h=1e-3):
    """The residual point by point and direction by direction."""
    res = 0.0
    for u in sampler.sample_points(count, seed):
        z = sampler(u)
        for i in range(sampler.dim):
            e = np.zeros(sampler.dim)
            e[i] = h
            v = (-sampler(u + 2 * e) + 8 * sampler(u + e)
                 - 8 * sampler(u - e) + sampler(u - 2 * e)) / (12 * h)
            nrm = float(np.linalg.norm(np.concatenate([v.real, v.imag])))
            res = max(res, abs(float(np.imag(np.sum(np.conj(z) * v)))) / nrm)
    return res


@pytest.mark.parametrize("p,q,tau", [(1, 3, 0.05), (2, 3, 0.05), (3, 4, -0.01)])
def test_batch_sampler_matches_point_by_point(p, q, tau):
    sampler = _sampler(TwistParam(AdmissiblePair(p, q), tau), (-1.0, 1.0))
    u = sampler.sample_points(30, seed=3)
    z = sampler(u)
    for i, ui in enumerate(u):
        assert np.array_equal(sampler(ui), z[i])
    ref = _legendrian_reference(sampler, 30, 0)       # legendrian_residual draws with seed 0
    assert abs(geo.legendrian_residual(sampler, 30) - ref) <= 1e-12 * ref
    prod = geo.twisted_product(geo.equatorial_factor(2), geo.equatorial_factor(3),
                               CIRCLE, (-1.0, 1.0))
    u = prod.sample_points(5, seed=1)
    assert all(np.array_equal(prod(ui), zi) for ui, zi in zip(u, prod(u)))


def test_legendrian_residual_of_real_equator():
    eq = geo.equatorial_factor(3)
    assert geo.legendrian_residual(eq, 100) < 1e-12


def test_cs_curve_is_legendrian_analytically():
    pair = AdmissiblePair(1, 2)
    cs = geo.cs_curve_sampler(pair, 0.7)
    res = 0.0
    for t in np.linspace(-5.0, 5.0, 100):
        w = np.array(cs(t))
        d = np.array(cs.derivative(t))
        speed = math.sqrt(float(np.sum(d.real**2 + d.imag**2)))
        res = max(res, abs(geo.contact_pairing(w, d)) / speed)
    assert res < 1e-8


# -- twisted products ----------------------------------------------------------


def test_twisted_product_reproduces_cylinder():
    pair = AdmissiblePair(2, 3)
    param = TwistParam(pair, 0.05)
    traj = TwistTrajectory(param, Tolerances())
    curve = geo.twist_curve_sampler(TwistTrajectory(param, Tolerances()))
    prod = geo.twisted_product(geo.equatorial_factor(2),
                               geo.equatorial_factor(3), curve, (-1.0, 1.0))
    for u in prod.sample_points(10, seed=4):
        w1, w2 = traj.w(u[:1])[:, 0]
        s1 = np.array([math.cos(u[1]), math.sin(u[1])])
        st = math.sin(u[2])
        s2 = np.array([st * math.cos(u[3]), st * math.sin(u[3]), math.cos(u[2])])
        expected = np.concatenate([w1 * s1, w2 * s2])
        assert float(np.max(np.abs(prod(u) - expected))) < 1e-10


def test_twisted_product_phase_relation():
    pair = AdmissiblePair(1, 2)
    param = TwistParam(pair, 0.1)
    curve = geo.twist_curve_sampler(TwistTrajectory(param, Tolerances()))
    res = geo.phase_relation_residual(geo.equatorial_factor(1), geo.equatorial_factor(2), curve,
                                      np.linspace(-0.8, 0.8, 5))
    assert res < 1e-6
    pair23 = AdmissiblePair(2, 3)
    curve23 = geo.twist_curve_sampler(TwistTrajectory(TwistParam(pair23, 0.05),
                                                      Tolerances()))
    res23 = geo.phase_relation_residual(geo.equatorial_factor(2),
                                        geo.equatorial_factor(3), curve23,
                                        np.linspace(-0.8, 0.8, 5))
    assert res23 < 1e-6


def test_equatorial_twisting_curve_gives_real_sphere():
    factors = geo.equatorial_factor(2), geo.equatorial_factor(2)
    res = geo.phase_relation_residual(*factors, CIRCLE, np.linspace(0.3, 1.2, 4))
    prod = geo.twisted_product(*factors, CIRCLE, (-1.0, 1.0))
    assert res < 1e-6
    for u in prod.sample_points(10, seed=5):
        u[0] = 0.8
        assert float(np.max(np.abs(prod(u).imag))) < 1e-12


def test_planar_phase_curve_product_phases():
    hs = geo.hs_curve_sampler(1, 2)
    res = geo.phase_relation_residual(geo.equatorial_factor(1), geo.equatorial_factor(1), hs,
                                      np.linspace(-0.8, 0.8, 5))
    assert res < 1e-6


def _reference_cylinder(curve, t_range):
    """The invariant cylinder written out on its own: (w1 s1, w2 s2) with
    the real chart points s1, s2, the reference for the product's points."""
    pair = curve.param.pair
    p, q = pair.p, pair.q

    def fn(u):
        w1, w2 = curve.w(u[..., 0])
        s1 = geo.immersion._chart_point(p - 1, u[..., 1:p])
        s2 = geo.immersion._chart_point(q - 1, u[..., p:])
        return np.concatenate([np.asarray(w1)[..., None] * s1,
                               np.asarray(w2)[..., None] * s2], axis=-1)

    return fn


@pytest.mark.parametrize("p,q", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 4), (1, 6)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_cylinder_is_the_twisted_product_bit_for_bit(p, q, sign):
    pair = AdmissiblePair(p, q)
    t_range = (-1.2, 0.9)
    curve = TwistTrajectory(TwistParam(pair, sign * 0.3 * tau_max(pair)), Tolerances())
    sampler = geo.immersion_sampler(curve, t_range)
    assert sampler.box[0] == t_range and sampler.dim == pair.n - 1
    u = sampler.sample_points(1000, seed=7)
    z = sampler(u)
    ref = _reference_cylinder(curve, t_range)(u)
    assert z.tobytes() == ref.astype(complex).tobytes()
    assert z[0].tobytes() == sampler(u[0]).tobytes()


def test_product_reads_its_curve_inside_the_integrated_span():
    # the product's time box is t_range, not a fixed (-1, 1) beyond the curve, and
    # the curve is integrated to its first step past the largest time read
    traj = TwistTrajectory(TwistParam(AdmissiblePair(1, 2), 0.1), Tolerances())
    prod = geo.twisted_product(geo.equatorial_factor(1), geo.equatorial_factor(2),
                               geo.twist_curve_sampler(traj), (0.05, 0.45))
    u = prod.sample_points(200, seed=1)
    assert np.all((0.05 <= u[:, 0]) & (u[:, 0] <= 0.45))
    assert np.all(np.isfinite(prod(u)))
    assert traj.trajectory.time_grid[-2] < np.max(u[:, 0]) <= traj.trajectory.time_grid[-1]


def test_curve_samplers_read_arrays():
    ts = np.linspace(-3.0, 3.0, 41)
    twist = geo.twist_curve_sampler(TwistTrajectory(TwistParam(AdmissiblePair(2, 3), -0.05),
                                                    Tolerances()))
    w1, w2 = twist(ts)
    for i, t in enumerate(ts):
        a1, a2 = twist(np.array([t]))[:, 0]
        assert (w1[i], w2[i]) == (a1, a2)
    pair, c = AdmissiblePair(2, 3), 0.7
    co, s = math.cos(c), math.sin(c)
    rate1, rate2 = s**3, s * co**2                  # sin^q c cos^(p-2) c, sin^(q-2) c cos^p c
    r1, r2, root = math.sqrt(1 / 2), math.sqrt(2), math.sqrt(3)
    scalar = {                                      # each curve's formula, one time at a time
        "cs": lambda t: (co * complex(math.cos(rate1 * t), math.sin(rate1 * t)),
                         s * complex(math.cos(rate2 * t), -math.sin(rate2 * t))),
        "hs": lambda t: (math.sqrt(2) / root * complex(math.cos(r1 * t), math.sin(r1 * t)),
                         1j / root * complex(math.cos(r2 * t), -math.sin(r2 * t))),
        "circle": lambda t: (complex(math.cos(t)), complex(math.sin(t))),
    }
    samplers = {"cs": geo.cs_curve_sampler(pair, c), "hs": geo.hs_curve_sampler(1, 2),
                "circle": CIRCLE}
    for name, sampler in samplers.items():
        w1, w2 = sampler(ts)
        ref = np.array([scalar[name](t) for t in ts])
        assert np.max(np.abs(w1 - ref[:, 0])) <= 1e-15, name
        assert np.max(np.abs(w2 - ref[:, 1])) <= 1e-15, name


# -- explicit curve families ---------------------------------------------------


def test_cs_defining_relation_residual():
    pair = AdmissiblePair(1, 2)
    a, b, res = geo.cs_residual(pair, math.atan(math.sqrt(2.0)))
    assert a == math.pi / 2.0
    assert abs(b) < 1e-12          # minimal case: tan^2 c = q/p
    assert res < 1e-10
    _, b2, res2 = geo.cs_residual(pair, 0.9)
    assert abs(b2) > 0.1 and res2 < 1e-10
    _, _, res3 = geo.cs_residual(AdmissiblePair(2, 3), 0.8)
    assert res3 < 1e-10


def test_cs_minimal_angle_characterisation():
    for (p, q) in [(1, 2), (2, 3), (2, 2)]:
        pair = AdmissiblePair(p, q)
        c_star = math.atan(math.sqrt(q / p))
        assert abs(geo.cs_parameters(pair, c_star)[1]) < 1e-12
        assert abs(geo.cs_parameters(pair, c_star + 0.1)[1]) > 1e-3


def test_cs_closing_period():
    pair = AdmissiblePair(1, 2)
    c, T = geo.cs_closing_period(pair, 1, 1)
    assert abs(c - math.pi / 4.0) < 1e-15
    w0 = geo.cs_curve(pair, c, 0.0)
    wT = geo.cs_curve(pair, c, T)
    assert abs(w0[0] - wT[0]) < 1e-12 and abs(w0[1] - wT[1]) < 1e-12
    # T is minimal: half of it does not close
    wH = geo.cs_curve(pair, c, T / 2.0)
    assert abs(w0[0] - wH[0]) + abs(w0[1] - wH[1]) > 0.1


def test_planar_phase_curves_live_on_sphere():
    g = geo.hs_curve(1, 2, np.linspace(0.0, 8.0, 50))
    norms = np.sum(np.abs(g) ** 2, axis=0)
    assert float(np.max(np.abs(norms - 1.0))) < 1e-12
    sampler = geo.hs_curve_sampler(1, 2)
    res = 0.0
    for t in np.linspace(0.0, 2.0 * math.pi * math.sqrt(2.0), 60):
        w = np.array(sampler(t))
        d = np.array(sampler.derivative(t))
        speed = math.sqrt(float(np.sum(d.real**2 + d.imag**2)))
        res = max(res, abs(geo.contact_pairing(w, d)) / speed)
    assert res < 1e-10


def test_planar_phase_curve_periodicity():
    m, n = 1, 2
    T = 2.0 * math.pi * math.sqrt(m * n)
    a = geo.hs_curve(m, n, 0.3)
    b = geo.hs_curve(m, n, 0.3 + T)
    assert float(np.max(np.abs(a - b))) < 1e-12
