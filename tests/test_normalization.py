"""Flux normalization: total emission, cumulative flux, spatial norm."""

import math
import tracemalloc

import numpy as np
import pytest

from postexp import normalization as nz
from postexp import source_model as sm


def test_total_emitted_matches_closed_form():
    # total outflow equals 1/(2 |k0I|), and the reported error bound covers
    # the actual deviation
    for k0I in (-0.9, -0.5, -0.3, -0.1, -0.02, -0.0091, -0.002):
        p = sm.SourceParams(k0I)
        res = nz.total_emitted(p)
        exact = 1.0 / (2.0 * abs(k0I))
        assert abs(res.n_total - exact) / exact < 1e-10, k0I
        assert res.abs_error_estimate >= abs(res.n_total - exact), k0I
        assert res.abs_error_estimate <= 1e-6 * res.n_total
        assert not res.tail_flagged
        assert res.tail_exponent < -1.0


def test_error_estimate_covers_rounding_at_tiny_decay_rate():
    # out at t ~ 1e10 each boundary_current carries ~eps t relative rounding;
    # the doubled-width difference alone undershot the deviation here
    p = sm.SourceParams(-1e-9)
    res = nz.total_emitted(p)
    exact = 0.5e9
    assert abs(res.n_total - exact) / exact < 1e-10
    assert abs(res.n_total - exact) <= res.abs_error_estimate <= 1e-6 * res.n_total


@pytest.mark.parametrize("k0I", [-0.9, -0.5, -0.1, -0.02])
def test_tail_bound_covers_the_remainder(k0I):
    # the omitted integral over [t_cut, 40 t_cut], by the same rule, lies
    # under the analytic bound, and the bound is not vacuous
    p = sm.SourceParams(k0I)
    res = nz.total_emitted(p)
    u0, u1 = math.sqrt(res.t_cut), math.sqrt(40.0 * res.t_cut)
    rest, rounding = nz._current_integral_and_rounding(p, u0, u1, nz._panel_count(u0, u1))
    assert abs(rest) <= res.tail_estimate + rounding
    assert res.tail_estimate < 1e-12 * res.n_total


def test_total_emitted_rejects_unconverged_quadrature(monkeypatch):
    # panels far wider than the current's oscillation: the rule and its
    # doubled-width twin disagree, and the check must fire
    monkeypatch.setattr(nz, "PANEL_WIDTH", 10.0)
    with pytest.raises(nz.InternalConsistencyError, match="did not converge"):
        nz.total_emitted(sm.SourceParams(-0.0091))


def test_total_emitted_memory_and_panel_budget():
    # the rule runs in blocks of PANEL_BLOCK panels, so a long horizon
    # costs time, not memory; one past MAX_PANELS is refused up front
    tracemalloc.start()
    try:
        res = nz.total_emitted(sm.SourceParams(-1e-7))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.n_total == pytest.approx(0.5e7, rel=1e-9)
    assert peak < 32 * 2 ** 20
    with pytest.raises(nz.InternalConsistencyError, match="panels"):
        nz.total_emitted(sm.SourceParams(-1e-10))


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


def test_density_far_tail(p03):
    # rho -> 4t/(pi x^2) far beyond the propagation front
    for t, x in ((5.0, 500.0), (10.0, 2000.0)):
        rho, _, _ = sm.density_and_current(p03, sm.SpaceTimePoint(x, t))
        assert rho * math.pi * x * x / (4.0 * t) == pytest.approx(1.0, abs=0.01)


def test_normalized_density(p03):
    # densities are divided by the closed form SourceParams.n_total, which
    # the quadrature of the boundary current confirms
    pt = sm.SpaceTimePoint(1.5, 8.0)
    rho, _, _ = sm.density_and_current(p03, pt)
    assert p03.n_total == 1.0 / (2.0 * 0.3)
    assert rho / p03.n_total == pytest.approx(rho / nz.total_emitted(p03).n_total, rel=1e-12)
