"""Exact wavefunction, saddle/pole decomposition, densities and current."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from postexp import source_model as sm

from conftest import psi_contour_oracle, saddle_mpmath_oracle

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


def test_point_validation():
    with pytest.raises(ValueError):
        sm.SpaceTimePoint(-0.1, 1.0)
    with pytest.raises(ValueError):
        sm.SpaceTimePoint(1.0, 0.0)
    with pytest.raises(ValueError):
        sm.SpaceTimePoint(1.0, -2.0)


def test_boundary_identity(p03, p05):
    # the w-function evaluation at x = 0 must reproduce the prescribed value
    worst = 0.0
    for p in (p03, p05):
        for t in np.geomspace(0.01, 100.0, 50):
            t = float(t)
            worst = max(worst, abs(sm.wavefunction(p, 0.0, t) - cmath.exp(-1j * p.omega0 * t)))
    assert worst < 1e-10


def test_exact_matches_contour_oracle(p03, p05):
    # independent route: numerical contour integration with residue
    cases = [(p03, 1.5, 40.0), (p03, 0.3, 2.0), (p05, 4.0, 9.0)]
    for p, x, t in cases:
        ref = psi_contour_oracle(p.k0I, x, t)
        got = sm.evaluate_exact(p, sm.SpaceTimePoint(x, t)).psi_exact
        assert abs(got - ref) / abs(ref) < 1e-9


def _u_moduli_mpmath(k0I, x, t):
    """|u_+-| from u_+- = +-(1 + i) sqrt(t/2) k0 (1 -+ tau/t), tau = x/(2 k0), at 40 digits."""
    with mpmath.workdps(40):
        k0 = mpmath.mpc(1, k0I)
        xm, tm = mpmath.mpf(x), mpmath.mpf(t)
        tau = xm / (2 * k0)
        pref = mpmath.mpc(1, 1) * mpmath.sqrt(tm / 2) * k0
        return float(abs(pref * (1 - tau / tm))), float(abs(pref * (1 + tau / tm)))


def test_u_moduli_closed_form(p05, p015):
    # the last two points put t at |tau|, where |u_+| = sqrt(t) |k0I| is
    # smallest and a difference of O(1) terms would cancel to nothing
    cases = [(p, float(x), float(t)) for p in (p05, p015)
             for x in np.geomspace(0.01, 30.0, 8) for t in np.geomspace(0.05, 300.0, 8)]
    for k0I in (-1e-8, -1e-4):
        p = sm.SourceParams(k0I)
        cases.append((p, 5.0, 5.0 / (2.0 * abs(p.k0))))
    for p, x, t in cases:
        got = sm.u_moduli(p, sm.SpaceTimePoint(x, t))
        for g, want in zip(got, _u_moduli_mpmath(p.k0I, x, t)):
            assert abs(g - want) <= 4.0 * EPS * want, (p.k0I, x, t, g, want)


def test_pole_crossing_flag(p03):
    x = 2.0
    t_cross = x / (2.0 * (1.0 + p03.k0I))
    before = sm.evaluate_exact(p03, sm.SpaceTimePoint(x, 0.99 * t_cross))
    after = sm.evaluate_exact(p03, sm.SpaceTimePoint(x, 1.01 * t_cross))
    assert not before.pole_crossed
    assert after.pole_crossed


def test_approx_is_saddle_plus_gated_pole(p03):
    for x, t in ((2.0, 1.0), (2.0, 30.0)):
        pt = sm.SpaceTimePoint(x, t)
        dec = sm.evaluate_exact(p03, pt)
        expected = dec.psi_saddle + (dec.psi_pole if dec.pole_crossed else 0j)
        assert sm.evaluate_approx(p03, pt) == pytest.approx(expected, rel=1e-15)


def test_saddle_density_quadruples_when_x_doubles(p03):
    # far from the trajectory the saddle term grows like x^2
    t = 5000.0
    r1 = abs(sm.evaluate_saddle(p03, sm.SpaceTimePoint(3.0, t))) ** 2
    r2 = abs(sm.evaluate_saddle(p03, sm.SpaceTimePoint(6.0, t))) ** 2
    assert r2 / r1 == pytest.approx(4.0, rel=1e-2)


def test_saddle_density_late_time_slope(p03):
    x = 2.0
    ts = np.geomspace(1e3, 1e5, 40)
    vals = [abs(sm.evaluate_saddle(p03, sm.SpaceTimePoint(x, float(t)))) ** 2
            for t in ts]
    slope = np.polyfit(np.log(ts), np.log(vals), 1)[0]
    assert slope == pytest.approx(-3.0, abs=0.05)


def test_saddle_singular_locus_raises(p03):
    # the saddle's denominator (k0 - k_s)(k0 + k_s) is smallest, |k0I|, on the
    # trajectory k_s = 1; there it overflows only when |k0I| sqrt(t) is below
    # double range, and that raises instead of returning inf
    t = 1e-250
    with pytest.raises(sm.EvaluationDomainError, match="saddle part overflows"):
        sm.evaluate_saddle(sm.SourceParams(-1e-200), sm.SpaceTimePoint(2.0 * t, t))
    assert cmath.isfinite(sm.evaluate_saddle(sm.SourceParams(-1e-200),
                                             sm.SpaceTimePoint(2.0, 1.0)))
    # the former singular point t = |tau| of the tau form is finite and exact
    x = 2e-6
    tau = x / (2.0 * p03.k0)
    got = sm.evaluate_saddle(p03, sm.SpaceTimePoint(x, abs(tau)))
    want, kappa = saddle_mpmath_oracle(p03.k0I, x, abs(tau))
    assert abs(got - want) <= 8.0 * EPS * kappa * abs(want)


def test_wavefunction_switch_on(p03):
    assert sm.wavefunction(p03, 1.0, -2.0) == 0j
    assert sm.wavefunction(p03, 1.0, 0.0) == 0j
    pt = sm.SpaceTimePoint(1.0, 3.0)
    assert sm.wavefunction(p03, 1.0, 3.0) == sm.evaluate_exact(p03, pt).psi_exact


def test_current_matches_numeric_gradient(p03):
    h = 1e-5
    for x, t in ((0.7, 3.0), (2.5, 12.0)):
        pt = sm.SpaceTimePoint(x, t)
        _, _, J = sm.density_and_current(p03, pt)
        psi = sm.evaluate_exact(p03, pt).psi_exact
        dpsi = (sm.evaluate_exact(p03, sm.SpaceTimePoint(x + h, t)).psi_exact
                - sm.evaluate_exact(p03, sm.SpaceTimePoint(x - h, t)).psi_exact) / (2 * h)
        ref = 2.0 * (psi.conjugate() * dpsi).imag
        assert J == pytest.approx(ref, rel=1e-6)


def test_fringes_appear_only_after_pole_crossing(p015):
    # log-density curvature alternations: smooth before, oscillatory after
    x = 6.0
    t_cross = x / (2.0 * (1.0 + p015.k0I))

    def alternations(a, b, n):
        ts = np.linspace(a, b, n)
        lr = np.array([math.log(abs(sm.evaluate_exact(
            p015, sm.SpaceTimePoint(x, float(t))).psi_exact) ** 2) for t in ts])
        d2 = np.diff(lr, 2)
        sign = np.sign(d2)
        return int(np.sum(sign[:-1] * sign[1:] < 0))

    assert alternations(0.35 * t_cross, 0.85 * t_cross, 60) == 0
    assert alternations(1.3 * t_cross, 1.3 * t_cross + 30.0, 200) >= 6


def test_density_small_beyond_front(p03):
    # well outside x = 2t the density is far below its value at the front
    for t, x in ((5.0, 60.0), (2.0, 30.0), (10.0, 100.0)):
        far = abs(sm.evaluate_exact(p03, sm.SpaceTimePoint(x, t)).psi_exact) ** 2
        front = abs(sm.evaluate_exact(p03, sm.SpaceTimePoint(2.0 * t, t)).psi_exact) ** 2
        assert far < front
