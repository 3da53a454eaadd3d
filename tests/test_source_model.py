"""Exact wavefunction, saddle/pole decomposition, densities and current."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from postexp import source_model as sm

from conftest import approx_mpmath_oracle, psi_contour_oracle, saddle_mpmath_oracle

EPS = np.finfo(float).eps


def test_params_validation():
    for bad in (0.0, -1.0, -1.5, 0.2, math.nan):
        with pytest.raises(ValueError):
            sm.SourceParams(bad)


def test_params_derived_quantities(p03):
    assert p03.k0 == 1.0 - 0.3j
    assert p03.omega0 == (1.0 - 0.3j) ** 2
    assert p03.tau0 == pytest.approx(1.0 / 1.2, rel=1e-15)
    assert p03.gamma_rate == pytest.approx(1.2, rel=1e-15)


def test_point_validation(p03):
    for x, t in ((-0.1, 1.0), (1.0, 0.0), (1.0, -2.0)):
        with pytest.raises(ValueError):
            sm.kernel(p03, x, t)


def test_boundary_identity(p03, p05):
    # the w-function evaluation at x = 0 must reproduce the prescribed value
    worst = 0.0
    for p in (p03, p05):
        for t in np.geomspace(0.01, 100.0, 50):
            t = float(t)
            worst = max(worst, abs(sm.kernel(p, 0.0, t).psi - cmath.exp(-1j * p.omega0 * t)))
    assert worst < 1e-10


def test_exact_matches_contour_oracle(p03, p05):
    # independent route: numerical contour integration with residue
    cases = [(p03, 1.5, 40.0), (p03, 0.3, 2.0), (p05, 4.0, 9.0)]
    for p, x, t in cases:
        ref = psi_contour_oracle(p.k0I, x, t)
        got = sm.kernel(p, x, t).psi
        assert abs(got - ref) / abs(ref) < 1e-9


def test_pole_crossing_flag(p03):
    x = 2.0
    t_cross = x / (2.0 * (1.0 + p03.k0I))
    assert not sm.kernel(p03, x, 0.99 * t_cross).pole_crossed
    assert sm.kernel(p03, x, 1.01 * t_cross).pole_crossed


def test_approx_is_saddle_plus_gated_pole(p03):
    # before the crossing (t_c = 1.43) the approximation is the saddle alone:
    # the pole part is 0 there, on both paths
    for x, t, crossed in ((2.0, 1.0, False), (2.0, 30.0, True)):
        want = (approx_mpmath_oracle(p03.k0I, x, t) if crossed
                else saddle_mpmath_oracle(p03.k0I, x, t)[0])
        for w in (sm.kernel(p03, x, t), sm.kernel(p03, np.array([x]), np.array([t]))):
            saddle, pole = complex(np.ravel(w.saddle)[0]), complex(np.ravel(w.pole)[0])
            assert bool(w.pole_crossed) == crossed
            assert (pole == 0.0) != crossed
            assert saddle + pole == pytest.approx(want, rel=1e-15)


def test_pole_part_is_present_only_past_the_crossing(p03):
    # Wave.pole is e^{-i omega0 t + i k0 x} past t_c, of modulus below 1, and
    # exactly 0 before it, on both paths: also far before the front, where
    # e^{k0I (2t - x)} passes double range. Its phase carries the rounding
    # of x^2/(4t), x and t
    xs, ts = np.array([[0.5], [3.0], [4000.0]]), np.geomspace(0.01, 3e4, 9)
    w = sm.kernel(p03, xs, ts)
    for (i, j), crossed in np.ndenumerate(w.pole_crossed):
        x, t = float(xs[i, 0]), float(ts[j])
        assert crossed == (t > x / (2.0 * (1.0 + p03.k0I)))
        with mpmath.workdps(40):
            k0 = mpmath.mpc(1, p03.k0I)
            want = complex(mpmath.exp(-1j * k0 * k0 * t + 1j * k0 * x))
        tol = 8.0 * EPS * (1.0 + x * x / (4.0 * t) + x + t)
        for pole in (complex(w.pole[i, j]), sm.kernel(p03, x, t).pole):
            if crossed:
                assert abs(pole) < 1.0 and abs(pole - want) <= tol * abs(want), (x, t)
            else:
                assert pole == 0.0, (x, t)


def test_saddle_density_quadruples_when_x_doubles(p03):
    # far from the trajectory the saddle term grows like x^2
    t = 5000.0
    r1 = abs(sm.kernel(p03, 3.0, t).saddle) ** 2
    r2 = abs(sm.kernel(p03, 6.0, t).saddle) ** 2
    assert r2 / r1 == pytest.approx(4.0, rel=1e-2)


def test_saddle_density_late_time_slope(p03):
    x = 2.0
    ts = np.geomspace(1e3, 1e5, 40)
    vals = np.abs(sm.kernel(p03, x, ts).saddle) ** 2
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    assert slope == pytest.approx(-3.0, abs=0.05)


def test_saddle_singular_locus_raises(p03):
    # the saddle's denominator (k0 - k_s)(k0 + k_s) is smallest, |k0I|, on the
    # trajectory k_s = 1; there it overflows only when |k0I| sqrt(t) is below
    # double range, and that raises instead of returning inf
    t = 1e-250
    with pytest.raises(sm.EvaluationDomainError, match="saddle part overflows"):
        sm.kernel(sm.SourceParams(-1e-200), 2.0 * t, t)
    assert cmath.isfinite(sm.kernel(sm.SourceParams(-1e-200), 2.0, 1.0).saddle)
    # the former singular point t = |tau| of the tau form is finite and exact
    x = 2e-6
    tau = x / (2.0 * p03.k0)
    got = sm.kernel(p03, x, abs(tau)).saddle
    want, kappa = saddle_mpmath_oracle(p03.k0I, x, abs(tau))
    assert abs(got - want) <= 8.0 * EPS * kappa * abs(want)


def test_current_matches_numeric_gradient(p03):
    h = 1e-5
    for x, t in ((0.7, 3.0), (2.5, 12.0)):
        w = sm.kernel(p03, x, t, derivative=True)
        J = 2.0 * (w.psi.conjugate() * w.dpsi_dx).imag
        dpsi = (sm.kernel(p03, x + h, t).psi - sm.kernel(p03, x - h, t).psi) / (2 * h)
        ref = 2.0 * (w.psi.conjugate() * dpsi).imag
        assert J == pytest.approx(ref, rel=1e-6)


def test_fringes_appear_only_after_pole_crossing(p015):
    # log-density curvature alternations: smooth before, oscillatory after
    x = 6.0
    t_cross = x / (2.0 * (1.0 + p015.k0I))

    def alternations(a, b, n):
        ts = np.linspace(a, b, n)
        lr = np.log(np.abs(sm.kernel(p015, x, ts).psi) ** 2)
        d2 = np.diff(lr, 2)
        sign = np.sign(d2)
        return int(np.sum(sign[:-1] * sign[1:] < 0))

    assert alternations(0.35 * t_cross, 0.85 * t_cross, 60) == 0
    assert alternations(1.3 * t_cross, 1.3 * t_cross + 30.0, 200) >= 6


def test_density_small_beyond_front(p03):
    # well outside x = 2t the density is far below its value at the front
    for t, x in ((5.0, 60.0), (2.0, 30.0), (10.0, 100.0)):
        far = abs(sm.kernel(p03, x, t).psi) ** 2
        front = abs(sm.kernel(p03, 2.0 * t, t).psi) ** 2
        assert far < front
