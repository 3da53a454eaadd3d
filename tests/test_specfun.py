"""Faddeeva function wrapper: identities, asymptotics, domain guards."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from postexp import specfun

from conftest import erfc_one_series, faddeeva_quad_oracle


def test_value_at_origin():
    assert specfun.faddeeva(0j) == pytest.approx(1.0 + 0j, abs=1e-15)


def test_imaginary_axis_reduces_to_scaled_erfc():
    # w(iy) = e^{y^2} erfc(y); erfc(1) from a series, not a library
    expected = math.e * erfc_one_series()
    got = specfun.faddeeva(1j)
    assert got.imag == pytest.approx(0.0, abs=1e-15)
    assert got.real == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(0.42758357615580705, rel=1e-12)


def test_matches_quadrature_oracle_upper_half_plane():
    zs = [0.3 + 0.2j, 1.0 + 1.0j, -2.5 + 0.7j, 4.0 + 0.05j,
          0.05 + 3.0j, -6.0 + 2.0j]
    for z in zs:
        ref = faddeeva_quad_oracle(z)
        got = specfun.faddeeva(z)
        assert abs(got - ref) / abs(ref) < 1e-10, z


def _mpmath_faddeeva(z: complex) -> complex:
    with mpmath.workdps(40):
        zm = mpmath.mpc(z.real, z.imag)
        return complex(mpmath.exp(-zm * zm) * mpmath.erfc(-1j * zm))


def _plane_points():
    """|z| from 1e-3 to 1e8 on rays through the upper half-plane, points
    within 1e-12 of the real axis on either side, and lower half-plane rays
    out to |z| = 25, where |exp(-z^2)| stays inside OVERFLOW_LIMIT."""
    zs = []
    for r in np.geomspace(1e-3, 1e8, 23):
        zs += [r * cmath.exp(1j * math.pi * k / 6.0) for k in range(7)]
        zs += [complex(s * r, d) for s in (1.0, -1.0) for d in (1e-12, -1e-12, -1e-6)]
    for r in np.geomspace(1e-3, 25.0, 12):
        zs += [r * cmath.exp(-1j * math.pi * k / 6.0) for k in range(1, 6)]
    return np.array(zs)


def test_matches_mpmath_across_the_plane():
    zs = _plane_points()
    lower = zs[zs.imag < 0.0]
    assert np.all(lower.imag ** 2 - lower.real ** 2 <= specfun.OVERFLOW_LIMIT)
    ref = np.array([_mpmath_faddeeva(z) for z in zs])
    got = specfun.faddeeva(zs)
    worst = np.abs(got - ref) / np.abs(ref)
    assert worst.max() <= 1e-13, zs[np.argmax(worst)]
    # the scalar path sums the same series with Python complex arithmetic;
    # the lower half-plane carries the rounding of exp(-z^2), ~eps |z|^2
    scalar = np.array([specfun.faddeeva(complex(z)) for z in zs])
    tol = 8.0 * np.finfo(float).eps * (1.0 + np.abs(zs) ** 2) * np.abs(got)
    assert np.all(np.abs(scalar - got) <= tol)


def test_reflection_identity():
    # w(-z) = 2 exp(-z^2) - w(z)
    for z in (0.3 + 0.7j, 2.0 + 0.1j, -1.0 + 2.5j, 4.0 - 0.2j):
        lhs = specfun.faddeeva(-z)
        rhs = 2.0 * cmath.exp(-z * z) - specfun.faddeeva(z)
        assert abs(lhs - rhs) / abs(lhs) < 1e-12


def test_asymptotic_series_monotone_improvement():
    for z in (5.5 + 1.0j, -6.0 + 2.0j, 7.0 - 0.3j, 9.0 + 9.0j):
        errs = [abs(specfun.faddeeva_asymptotic(z, m) - specfun.faddeeva(z))
                for m in range(4)]
        assert all(errs[i + 1] < errs[i] for i in range(3)), z


def test_asymptotic_series_accuracy_at_large_modulus():
    for z in (8.0 + 1.0j, -6.0 + 5.0j, 5.0 - 0.5j):
        ref = specfun.faddeeva(z)
        got = specfun.faddeeva_asymptotic(z, 6)
        assert abs(got - ref) / abs(ref) < 1e-5, z


def test_asymptotic_series_floor():
    with pytest.raises(specfun.FaddeevaDomainError):
        specfun.faddeeva_asymptotic(1.0 + 0.5j, 3)


def test_asymptotic_series_rejects_negative_term_count():
    with pytest.raises(ValueError):
        specfun.faddeeva_asymptotic(5.0 + 1j, -1)


def test_derivative_identity_against_finite_difference():
    z = 0.4 + 0.3j
    h = 1e-6
    fd = (specfun.faddeeva(z + h) - specfun.faddeeva(z - h)) / (2.0 * h)
    got = specfun.faddeeva_derivative(z)
    assert abs(got - fd) / abs(fd) < 1e-8


def test_overflow_guard():
    # deep in the lower half plane exp(-z^2) overflows; must raise, not inf
    with pytest.raises(specfun.FaddeevaDomainError):
        specfun.faddeeva(-40j)
    with pytest.raises(specfun.FaddeevaDomainError):
        specfun.faddeeva_asymptotic(-40j, 3)


# ------------------------------------------------------------- Lambert W

def _lambertw_points():
    """Arguments l = ln(-z) of W_{-1}: within 2.3e-16 .. 0.1 of the branch point
    l = -1, across z in (-1/e, 0), and from z = -1e-3 down to l = -1e5, where
    z = -e^l is far below double range."""
    ls = [-1.0 - d for d in np.geomspace(2.3e-16, 0.1, 60)]
    ls += list(np.log(-np.linspace(-0.36, -1e-3, 60)))
    ls += list(-np.geomspace(-math.log(1e-3), 1e5, 80))
    return [float(l) for l in ls]


def test_lambertw_m1_matches_mpmath():
    eps = np.finfo(float).eps
    for l in _lambertw_points():
        with mpmath.workdps(40):
            ref = float(mpmath.lambertw(-mpmath.exp(mpmath.mpf(l)), -1).real)
        got = specfun.lambertw_m1(l)
        assert isinstance(got, float) and got <= -1.0
        # a few ulps of l times the condition number |dW/dl| = |W/(1 + W)|,
        # plus a few ulps of W
        tol = 2.0 * eps * (1.0 + abs(l) / abs(1.0 + ref)) * abs(ref)
        assert abs(got - ref) <= tol, l
        # residual of w + ln(-w) = l, the equation in logs
        assert abs(got + math.log(-got) - l) <= 4.0 * eps * abs(l), l


def test_lambertw_m1_branch_point_and_domain():
    assert specfun.lambertw_m1(-1.0) == -1.0
    above = math.nextafter(-1.0, 0.0)
    for l in (above, 0.0, -0.0, 1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="real only for ln"):
            specfun.lambertw_m1(l)


def test_weideman_table_is_its_fft_construction():
    # the coefficients are written out so that scalar callers need no numpy;
    # rebuild them from the sampled f(t) = exp(-t^2) (L^2 + t^2)
    n = 40
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    t = scale * np.tan(np.arange(1 - m, m) * math.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    assert specfun._W_L == scale
    assert specfun._W_COEF == tuple(a[n:0:-1].tolist())
