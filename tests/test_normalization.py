"""Flux normalization: total emission, cumulative flux, spatial norm."""

import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from postexp import normalization as nz
from postexp import source_model as sm


def test_total_emitted_matches_closed_form():
    # total outflow equals 1/(2 |k0I|) from k0I -0.9 to -1e-12, and the
    # reported error bound covers the actual deviation without overstating
    # it by more than 100x (or 100 ulps of n_total)
    eps = np.finfo(float).eps
    for k0I in (-0.9, -0.5, -0.3, -0.1, -0.02, -0.0091, -0.002,
                -1e-4, -1e-7, -1e-9, -1e-10, -1e-12):
        p = sm.SourceParams(k0I)
        res = nz.total_emitted(p)
        exact = 1.0 / (2.0 * abs(k0I))
        err = abs(res.n_total - exact)
        assert err / exact < 1e-11, k0I
        assert err <= res.abs_error_estimate <= 100.0 * max(err, eps * res.n_total), k0I
        assert not res.tail_flagged
        assert res.tail_exponent < -1.0


def test_error_estimate_covers_rounding_at_tiny_decay_rate():
    # t_cut sits at the fixed horizon, where the cross term's remainder is
    # bounded, not integrated; the pole term's 2/gamma is exact
    p = sm.SourceParams(-1e-9)
    res = nz.total_emitted(p)
    exact = 0.5e9
    assert res.t_cut == nz.T_CUT_MAX
    assert abs(res.n_total - exact) / exact < 1e-14
    assert abs(res.n_total - exact) <= res.abs_error_estimate <= 1e-13 * res.n_total


def _cross_tail_qawf(p, t_cut, epsabs):
    """Integral of the cross term 2 Im(psi* s) over t > t_cut by QUADPACK's
    Fourier rule (QAWF) on psi* = e^{-gamma t/2} e^{i(1 - k0I^2) t}, with s
    from scipy's wofz."""
    from scipy.integrate import quad
    from scipy.special import wofz

    def s(t):
        z = (1.0 + 1j) * math.sqrt(0.5 * t) * p.k0
        c = (1.0 + 1j) / (2.0 * math.sqrt(2.0 * t))
        return c * (2j / math.sqrt(math.pi) - 2.0 * z * wofz(z))

    def envelope(t):
        return 2.0 * math.exp(-0.5 * p.gamma_rate * t) * s(t)

    tol = dict(wvar=p.omega0.real, epsabs=epsabs, limlst=200)
    sin_part = quad(lambda t: envelope(t).real, t_cut, np.inf, weight="sin", **tol)[0]
    cos_part = quad(lambda t: envelope(t).imag, t_cut, np.inf, weight="cos", **tol)[0]
    return sin_part + cos_part


@pytest.mark.parametrize("k0I", [-0.9, -0.5, -0.1, -0.02, -1e-4, -1e-9])
def test_tail_bound_covers_the_remainder(k0I):
    # the omitted integral past t_cut, by an independent Fourier quadrature,
    # lies under the bound, which is not vacuous (within 20x at these k0I)
    p = sm.SourceParams(k0I)
    res = nz.total_emitted(p)
    rest = _cross_tail_qawf(p, res.t_cut, 1e-6 * res.tail_estimate)
    assert abs(rest) <= res.tail_estimate <= 20.0 * abs(rest)


def test_total_emitted_rejects_unconverged_quadrature(monkeypatch):
    # panels of 50 in t span eight periods of the current's oscillation:
    # the rule is off by 2e-5 of n_total, disagrees with its merged-pair
    # twin, and the check must fire
    monkeypatch.setattr(nz, "PANEL_T", 50.0)
    with pytest.raises(nz.InternalConsistencyError, match="did not converge"):
        nz.total_emitted(sm.SourceParams(-0.0091))


def test_total_emitted_memory_and_panel_budget(monkeypatch):
    # the horizon caps t_cut, so the slowest decay costs bounded time and
    # memory; emitted_by_time past MAX_PANELS is refused before any w call
    tracemalloc.start()
    try:
        for k0I in (-1e-10, -1e-12):
            res = nz.total_emitted(sm.SourceParams(k0I))
            assert res.n_total == pytest.approx(0.5 / abs(k0I), rel=1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20

    def fail(*args, **kwargs):
        raise AssertionError("faddeeva evaluated")

    monkeypatch.setattr(nz, "faddeeva", fail)
    with pytest.raises(nz.InternalConsistencyError, match="panels"):
        nz.emitted_by_time(sm.SourceParams(-1e-9), 1e8)


def _slope_mpmath(k0I, t):
    """psi(0, t) = e^{-i omega0 t} (the boundary condition) and dpsi/dx(0, t)
    from both Faddeeva branches of the exact solution through
    w'(z) = -2 z w(z) + 2i/sqrt(pi), with w = e^{-z^2} erfc(-iz), no
    reflection, at 60 digits or the caller's precision if higher (the
    branches cancel to 1/|z|^2 of their size)."""
    with mpmath.workdps(max(60, mpmath.mp.dps)):
        k0, tm = mpmath.mpc(1, k0I), mpmath.mpf(t)
        z = mpmath.mpc(1, 1) * mpmath.sqrt(tm / 2) * k0
        c = mpmath.mpc(1, 1) / (2 * mpmath.sqrt(2 * tm))

        def w(q):
            return mpmath.exp(-q * q) * mpmath.erfc(-1j * q)

        dpsi = c * (z * (w(-z) - w(z)) + 2j / mpmath.sqrt(mpmath.pi))
        return mpmath.exp(-1j * k0 * k0 * tm), dpsi


@pytest.mark.parametrize("k0I", [-0.9, -0.3, -1e-3, -1e-9])
def test_boundary_current_matches_mpmath(k0I):
    # J(0, t) to a few eps (1 + |k0|^2 t) relative, the rounding of the
    # phase and of the 1/|z|^2 cancellation in s, from t = 1e-6 into the
    # far tail; values that underflow must come out as 0
    p = sm.SourceParams(k0I)
    eps = np.finfo(float).eps
    ts = np.geomspace(1e-6, 1e8, 29)
    got = nz.boundary_current(p, ts)
    for t, j in zip(ts, got):
        psi, dpsi = _slope_mpmath(k0I, t)
        ref = float(2 * mpmath.im(mpmath.conj(psi) * dpsi))
        tol = 16.0 * eps * (1.0 + abs(p.k0) ** 2 * t) * abs(ref) + sys.float_info.min
        assert abs(j - ref) <= tol, (t, j, ref)
    # the oracle's w' route against mpmath's own derivative of psi in x
    with mpmath.workdps(40):
        def psi_x(x):
            k0, tm = mpmath.mpc(1, k0I), mpmath.mpf(1)
            tau = x / (2 * k0)
            pref = mpmath.mpc(1, 1) * mpmath.sqrt(tm / 2) * k0
            u_p, u_m = pref * (1 - tau / tm), -pref * (1 + tau / tm)
            w = [mpmath.exp(-q * q) * mpmath.erfc(-1j * q) for q in (-u_p, -u_m)]
            return mpmath.exp(1j * x * x / (4 * tm)) * (w[0] + w[1]) / 2
        assert abs(mpmath.diff(psi_x, 0) - _slope_mpmath(k0I, 1.0)[1]) < 1e-30


@pytest.mark.parametrize("k0I", [-0.99, -0.9, -0.5, -0.1, -0.02, -1e-4, -1e-9])
def test_tail_bound_assumptions_hold_past_the_cut(k0I):
    # _tail_bound takes |s| <= A t^{-3/2} and |s'| <= 1.5 A t^{-5/2} for
    # t >= t_cut, A = 1/(sqrt(pi) |k0|^2); both ratios tend to 1/2
    p = sm.SourceParams(k0I)
    t_cut = nz.total_emitted(p).t_cut
    a = 1.0 / (math.sqrt(math.pi) * abs(p.k0) ** 2)

    def s(t):
        psi, dpsi = _slope_mpmath(k0I, t)
        return dpsi - 1j * mpmath.mpc(1, k0I) * psi

    for t in np.geomspace(t_cut, 1e8, 17):
        with mpmath.workdps(60):
            ds = mpmath.diff(s, mpmath.mpf(t))
            assert abs(s(t)) * t ** 1.5 <= 0.6 * a
            assert abs(ds) * t ** 2.5 <= 0.6 * 1.5 * a


def test_boundary_current_short_time_law(p05):
    # J(0,t) -> sqrt(2/(pi t)) with a linear-in-t relative deviation
    for k0I in (-0.1, -0.5, -0.9):
        p = sm.SourceParams(k0I)
        for t in (1e-5, 1e-4, 1e-3):
            law = math.sqrt(2.0 / (math.pi * t))
            got = nz.boundary_current(p, t)
            assert abs(got / law - 1.0) <= 6.0 * t


def test_boundary_current_sample_value(p03):
    assert nz.boundary_current(p03, 5.0) == pytest.approx(
        0.006447664719577986, rel=1e-9)


def test_cumulative_emission_monotone_and_saturating(p03):
    tau0 = p03.tau0
    values = [nz.emitted_by_time(p03, T) for T in (tau0, 5 * tau0, 20 * tau0)]
    assert values[0] < values[1] < values[2]
    n_total = nz.total_emitted(p03).n_total
    assert values[2] == pytest.approx(n_total, rel=1e-2)
    assert values[2] < n_total * (1.0 + 1e-9)


def test_cumulative_derivative_is_boundary_current(p03):
    T = 3.0
    h = 1e-3
    fd = (nz.emitted_by_time(p03, T + h) - nz.emitted_by_time(p03, T - h)) / (2 * h)
    assert fd == pytest.approx(nz.boundary_current(p03, T), rel=1e-6)


def test_spatial_norm_matches_cumulative_emission(p03):
    T = 20.0 * p03.tau0
    emitted = nz.emitted_by_time(p03, T)
    spatial = nz.spatial_norm(p03, T)
    assert abs(spatial / emitted - 1.0) < 2e-4


@pytest.mark.parametrize("k0I, T", [(-0.3, 60.0), (-0.05, 500.0)])
def test_spatial_norm_reaches_far_before_the_front(k0I, T):
    # the rule runs out to x = 40 T + 200, where |k0I| (x - 2T) passes
    # 0.9 ln(DBL_MAX): psi is bounded there, and the norm is conserved to
    # the docstring's 1e-4
    p = sm.SourceParams(k0I)
    assert abs(nz.spatial_norm(p, T) / nz.emitted_by_time(p, T) - 1.0) < 1e-4


def test_spatial_norm_matches_adaptive_quadrature(p03):
    # the panel rule against adaptive quadrature over the fringe range and
    # the far range, closed by the same C/x tail
    from scipy.integrate import quad

    T = 20.0 * p03.tau0
    x_big = 40.0 * T + 200.0

    def rho(x):
        return abs(sm.kernel(p03, x, T).psi) ** 2

    tol = dict(epsabs=0.0, epsrel=1e-13, limit=2000)
    near = quad(rho, 0.0, 2.0 * T, **tol)[0]
    far = quad(rho, 2.0 * T, x_big, **tol)[0]
    xs = np.linspace(x_big * 0.85, x_big, 40)
    tail = float(np.mean(np.abs(sm.kernel(p03, xs, T).psi) ** 2 * xs * xs)) / x_big
    assert nz.spatial_norm(p03, T) == pytest.approx(near + far + tail, rel=1e-12)


def test_spatial_norm_panel_budget(p03, monkeypatch):
    # the panel count grows with T; past MAX_PANELS the rule is refused
    # before any kernel call
    def fail(*args, **kwargs):
        raise AssertionError("kernel evaluated")

    monkeypatch.setattr(nz, "kernel", fail)
    with pytest.raises(nz.InternalConsistencyError, match="panels"):
        nz.spatial_norm(p03, 1e4)


def test_internal_consistency_is_a_computation_error():
    # the CLI maps a failure to exit 1 by its base class
    import postexp

    with pytest.raises(postexp.ComputationError, match="panels"):
        nz.spatial_norm(sm.SourceParams(-0.3), 1e300)


def test_density_far_tail(p03):
    # rho -> 4t/(pi x^2) far beyond the propagation front
    for t, x in ((5.0, 500.0), (10.0, 2000.0)):
        rho = abs(sm.kernel(p03, x, t).psi) ** 2
        assert rho * math.pi * x * x / (4.0 * t) == pytest.approx(1.0, abs=0.01)


def test_normalized_density(p03):
    # densities are divided by the closed form SourceParams.n_total, which
    # the quadrature of the boundary current confirms
    rho = abs(sm.kernel(p03, 1.5, 8.0).psi) ** 2
    assert p03.n_total == 1.0 / (2.0 * 0.3)
    assert rho / p03.n_total == pytest.approx(rho / nz.total_emitted(p03).n_total, rel=1e-12)
