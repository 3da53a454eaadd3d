"""Semi-infinite chain: evolution, decay fits, transition times."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import j1

from postexp import lattice as lat

from conftest import (CROSSING_DELTA, CROSSING_HORIZON, CROSSING_SITES, chain_density_oracle,
                      envelope_crossing_oracle)


def test_params_validation():
    with pytest.raises(ValueError):
        lat.LatticeParams(0.0, 10.0)
    with pytest.raises(ValueError):
        lat.LatticeParams(1.2, 10.0)
    with pytest.raises(ValueError):
        lat.LatticeParams(0.3, -1.0)
    # the size bound: 9980 is the horizon of a MAX_SITES chain
    with pytest.raises(ValueError, match="MAX_SITES"):
        lat.LatticeParams(0.3, 1e6)
    with pytest.raises(ValueError, match="MAX_SITES"):
        lat.LatticeParams(0.3, 9980.000000000002)
    assert lat.LatticeParams(0.3, 9980.0).n_sites == lat.MAX_SITES
    # delta = 1 is allowed (band-edge configuration)
    lat.LatticeParams(1.0, 10.0)


def test_n_sites_follows_from_the_horizon():
    for t_max in (5e-324, 0.25, 0.5, 30.0, 50.5, 100.7, 9979.5):
        p = lat.LatticeParams(0.3, t_max)
        assert p.n_sites == math.ceil(2 * t_max) + 40
        assert p._fields == ("delta", "t_max") and p == (0.3, t_max)


def test_rate_formulas():
    p = lat.LatticeParams(0.3, 10.0)
    assert p.alpha_sq == pytest.approx(0.91, rel=1e-15)
    assert p.gamma == pytest.approx(2.0 * 0.09 / math.sqrt(0.91), rel=1e-15)
    gammas = [lat.LatticeParams(d, 10.0).gamma for d in (0.2, 0.3, 0.4)]
    assert gammas[0] < gammas[1] < gammas[2]
    with pytest.raises(ValueError):
        lat.LatticeParams(1.0, 10.0).gamma


def test_initial_state_and_norm_conservation():
    p = lat.LatticeParams(0.3, 30.0)
    amps = lat.evolve(p, [0.0, 10.0, 30.0])
    assert amps.shape == (3, p.n_sites)
    assert amps[0, 0] == pytest.approx(1.0 + 0j, abs=1e-12)
    assert np.max(np.abs(amps[0, 1:])) < 1e-12
    for row in amps:
        assert abs(np.sum(np.abs(row) ** 2) - 1.0) < 1e-10


def test_evolve_preconditions():
    p = lat.LatticeParams(0.3, 30.0)
    with pytest.raises(ValueError):
        lat.evolve(p, [-1.0, 2.0])
    with pytest.raises(ValueError):
        lat.evolve(p, [0.0, 40.0])
    with pytest.raises(ValueError):
        lat.evolve(p, [5.0, 2.0])


def _mode_matrix(delta, n):
    """Energies and the full N x N mode matrix V[n-1, k] = <n|k>."""
    energies, theta, first, scale = lat._spectral_data(delta, n)
    modes = np.empty((n, n))
    modes[0] = first
    modes[1:] = lat._mode_rows(n, theta, scale, np.arange(2, n + 1))
    return energies, modes


def test_evolve_matches_the_mode_matrix(monkeypatch):
    # seven mode rows a block, so that blocks split the chain unevenly
    p = lat.LatticeParams(0.3, 30.0)
    energies, modes = _mode_matrix(p.delta, p.n_sites)
    monkeypatch.setattr(lat, "BLOCK_BYTES", 8 * p.n_sites * 7)
    ts = [0.0, 3.5, 17.0, 30.0]
    want = np.exp(-1j * np.outer(ts, energies)) @ (modes * modes[0]).T
    assert np.max(np.abs(lat.evolve(p, ts) - want)) < 1e-15


def test_evolve_memory_is_bounded():
    # the N x N mode matrix of this 4000-site chain alone is 128 MB
    import tracemalloc

    p = lat.LatticeParams(0.3, 1980.0)
    lat._spectral_data(p.delta, p.n_sites)    # eigensolve outside the measurement
    tracemalloc.start()
    try:
        amps = lat.evolve(p, [0.0, 1.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert amps.shape == (2, 4000)
    assert peak < 8 * lat.BLOCK_BYTES


def test_forward_backward_roundtrip():
    # the mode matrix is orthogonal, so evolving forward then back is exact
    p = lat.LatticeParams(0.3, 30.0)
    _, modes = _mode_matrix(p.delta, p.n_sites)
    eye = np.eye(p.n_sites)
    assert np.max(np.abs(modes.T @ modes - eye)) < 1e-10
    assert np.max(np.abs(modes @ modes.T - eye)) < 1e-10


def test_fitted_decay_rate_matches_formula():
    for delta, horizon in ((0.2, 80.0), (0.3, 70.0), (0.4, 50.0)):
        p = lat.LatticeParams(delta, horizon)
        fitted = lat.fitted_decay_rate(p)
        assert abs(fitted - p.gamma) / p.gamma < 0.05


@pytest.mark.parametrize("delta", [0.81, 0.9])
def test_fitted_decay_rate_default_window_too_short(delta):
    # 12/gamma is within ten steps of t = 5 (0.81) or before it (0.9): no rate
    p = lat.LatticeParams(delta, 60.0)
    assert math.isnan(lat.fitted_decay_rate(p))


def test_tail_exponent_band():
    p = lat.LatticeParams(0.4, 400.0)
    slope = lat.tail_exponent(p, 1, window=(80.0, 380.0))
    assert abs(slope + 3.0) < 0.3


def test_tail_exponent_requires_enough_samples():
    p = lat.LatticeParams(0.4, 100.0)
    with pytest.raises(ValueError, match="shorter than 50 envelope steps"):
        lat.tail_exponent(p, 1, window=(99.0, 99.5))


def test_band_edge_matches_bessel_solution():
    # at delta = 1 the first-site amplitude is J1(2t)/t exactly
    p = lat.LatticeParams(1.0, 60.0)
    ts = np.linspace(0.5, 60.0, 120)
    dens = lat.site_density(p, 1, ts)
    ref = (j1(2.0 * ts) / ts) ** 2
    assert np.max(np.abs(dens - ref)) < 1e-6


def test_band_edge_tail_slope():
    p = lat.LatticeParams(1.0, 320.0)
    slope = lat.tail_exponent(p, 1, window=(20.0, 300.0))
    assert abs(slope + 3.0) < 0.1


def test_power_law_fitter_exact_on_pure_input():
    ts = np.arange(2.0, 300.0, 0.05)
    slope = lat.envelope_loglog_slope(ts, ts ** -3)
    assert slope == pytest.approx(-3.0, abs=1e-9)


def test_envelope_crossings_frozen(crossing_densities):
    # measured on the expm_multiply density, not on the library's
    gamma = lat.LatticeParams(CROSSING_DELTA, CROSSING_HORIZON).gamma
    frozen = {5: 72.36, 10: 65.16, 15: 62.92}
    ts, by_site = crossing_densities
    dens = []
    for n, expected in frozen.items():
        t, rho = envelope_crossing_oracle(ts, by_site[n], n, gamma)
        assert t == pytest.approx(expected, abs=0.5)
        dens.append(rho)
    assert dens[0] < dens[1] < dens[2]


def test_reading_resolution(crossing_densities):
    # the derived formula times beside the measured envelope crossings
    p = lat.LatticeParams(CROSSING_DELTA, CROSSING_HORIZON)
    ts, by_site = crossing_densities
    for n in CROSSING_SITES:
        t, _ = envelope_crossing_oracle(ts, by_site[n], n, p.gamma)
        assert abs(t / lat.lattice_transition_time(p, n) - 1.0) < 0.25


def test_formula_transition_times_frozen():
    p = lat.LatticeParams(0.3, 220.0)
    assert lat.lattice_transition_time(p, 1) == pytest.approx(122.2272, abs=1e-3)
    assert lat.lattice_transition_time(p, 5) == pytest.approx(67.6138, abs=1e-3)
    assert lat.lattice_transition_time(p, 10) == pytest.approx(59.5735, abs=1e-3)
    with pytest.raises(ValueError):
        lat.lattice_transition_time(p, 0)
    with pytest.raises(ValueError):
        lat.log_formula_prefactor(p, 0)


def test_site_one_formula_time_against_the_envelope_crossing(crossing_densities):
    # G_11 = -lam/(alpha^2 lam^2 + 1): the pole term (1 + alpha^2)/(2 alpha^2)
    # e^{-gamma t/2} meets twice an edge term delta^2/(2 sqrt(pi) (1 + alpha^2)^2)
    # t^{-3/2} at t_1, which lies within A11's 25 % of the measured crossing
    p = lat.LatticeParams(CROSSING_DELTA, CROSSING_HORIZON)
    t_1 = lat.lattice_transition_time(p, 1)
    a2, d2 = p.alpha_sq, p.delta ** 2
    pole = (1.0 + a2) / (2.0 * a2) * math.exp(-0.5 * p.gamma * t_1)
    band = d2 / (math.sqrt(math.pi) * (1.0 + a2) ** 2) * t_1 ** -1.5
    assert pole / band == pytest.approx(1.0, abs=1e-12)
    ts, by_site = crossing_densities
    t, _ = envelope_crossing_oracle(ts, by_site[1], 1, p.gamma)
    assert abs(t / t_1 - 1.0) < 0.25


@pytest.mark.parametrize("delta", [1e-3, 1e-9, 1e-150])
def test_site_one_prefactor_at_weak_coupling(delta):
    # C_1 = 2 alpha^2 delta^2 / (sqrt(pi) (1 + alpha^2)^3) with delta^2 as given,
    # not 1 - alpha^2, which rounds to 0 below delta ~ 1e-8
    p = lat.LatticeParams(delta, 50.0)
    want = math.log(2.0 * p.alpha_sq / (math.sqrt(math.pi) * (1.0 + p.alpha_sq) ** 3)) \
        + 2.0 * math.log(delta)
    assert lat.log_formula_prefactor(p, 1) == pytest.approx(want, rel=1e-14)


# ------------------------------------------- site densities against oracles

ORACLE_T_MAX = 40.0


def _close(got, want):
    return np.abs(got - want) <= 1e-6 * np.abs(want) + 1e-12


@pytest.mark.parametrize("delta", [0.3, 0.6, 1.0])
@pytest.mark.parametrize("t0", [0.0, 2.0])
@pytest.mark.parametrize("count", [1, 2, 7, 801, 4000])
def test_uniform_site_density_matches_expm_oracle(delta, t0, count):
    sites = (1, 5, 20)
    dt = (ORACLE_T_MAX - t0) / max(count - 1, 1)
    want = chain_density_oracle(delta, t0, dt, count, sites)
    p = lat.LatticeParams(delta, ORACLE_T_MAX)
    for col, n in enumerate(sites):
        got = lat.uniform_site_density(p, n, t0, dt, count)
        assert got.shape == (count,)
        assert _close(got, want[:, col]).all()


def test_site_density_blocks_match_expm_oracle(monkeypatch):
    # a block budget of 7 rows leaves a short last block on 801 times
    p = lat.LatticeParams(0.3, ORACLE_T_MAX)
    monkeypatch.setattr(lat, "BLOCK_BYTES", 7 * 16 * p.n_sites)
    dt = ORACLE_T_MAX / 800
    want = chain_density_oracle(0.3, 0.0, dt, 801, (1, 5, 20))
    ts = np.arange(801) * dt
    for col, n in enumerate((1, 5, 20)):
        assert _close(lat.site_density(p, n, ts), want[:, col]).all()


def test_uniform_site_density_band_edge_bessel():
    # at delta = 1 the first-site amplitude is J1(2t)/t exactly
    p = lat.LatticeParams(1.0, 60.0)
    t0, dt, count = 0.5, 0.05, 1191
    ts = t0 + np.arange(count) * dt
    assert _close(lat.uniform_site_density(p, 1, t0, dt, count), (j1(2.0 * ts) / ts) ** 2).all()


def test_uniform_site_density_preconditions():
    p = lat.LatticeParams(0.3, 30.0)
    for t0, dt, count in ((0.0, 0.1, 0), (0.0, 0.0, 5), (-1.0, 0.1, 5),
                          (0.0, 0.1, 302), (0.0, math.nan, 5), (0.0, 0.1, 2.0)):
        with pytest.raises(ValueError):
            lat.uniform_site_density(p, 1, t0, dt, count)
    with pytest.raises(ValueError):
        lat.uniform_site_density(p, p.n_sites + 1, 0.0, 0.1, 5)
    # t_max / 800 * 800 may round past t_max; the grid still ends at t_max
    assert lat.uniform_site_density(p, 1, 0.0, 30.0 / 800, 801).shape == (801,)


@pytest.mark.parametrize("times", [[0.0, math.nan], [math.nan], [-1.0, 5.0], [5.0, 10.5],
                                   [5.0, 1.0], []])
def test_time_lists_outside_the_horizon_are_refused(times):
    # nan compares false both ways, so it must fail the interval test itself
    p = lat.LatticeParams(0.3, 10.0)
    with pytest.raises(ValueError):
        lat.site_density(p, 2, times)
    with pytest.raises(ValueError):
        lat.evolve(p, times)


def test_site_density_memory_is_bounded():
    import tracemalloc

    p = lat.LatticeParams(0.3, 50.0)
    ts = np.linspace(0.0, 50.0, 100_000)
    lat.site_density(p, 5, ts[:10])         # eigensolve outside the measurement
    tracemalloc.start()
    try:
        dens = lat.site_density(p, 5, ts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dens.shape == ts.shape
    assert peak < 32 * 2**20                 # one T x N phase matrix is ~224 MB


def test_tail_exponent_checks_window_before_evaluating(monkeypatch):
    def fail(*args):
        raise AssertionError("density evaluated on a rejected window")

    monkeypatch.setattr(lat, "uniform_site_density", fail)
    monkeypatch.setattr(lat, "site_density", fail)
    p = lat.LatticeParams(0.4, 100.0)
    with pytest.raises(ValueError):
        lat.tail_exponent(p, 1, window=(99.0, 99.5))


SUMMARY_KEYS = ["delta", "gamma_formula", "fitted_gamma", "tail_exponent", "tail_exponent_site",
                "resolved_reading", "transition_time_site_1", "transition_time_site_3"]


@pytest.mark.parametrize("delta, t_max", [(d, t) for d in (1e-6, 0.3, 0.6, 0.9, 1.0)
                                          for t in (5e-324, 50.0, 220.0)] + [(0.3, 9980.0)])
def test_summary_reports_nan_where_the_chain_has_none(delta, t_max):
    # the summary fits on a horizon of at least SUMMARY_HORIZON, so a tiny
    # t_max changes nothing; 9980 is the horizon of a MAX_SITES chain
    s = lat.summary(delta, [1, 3], t_max)
    assert list(s) == SUMMARY_KEYS
    want = {"transition_time_site_1"}              # site 1's time only gates the tail
    if delta == 1e-6:
        want |= {"tail_exponent", "transition_time_site_3"}   # the tail window is exponential
    if delta >= 0.9:
        want.add("fitted_gamma")                   # 12/gamma comes before t = 5
    if delta == 1.0:
        want |= {"gamma_formula", "transition_time_site_3"}   # no resonance
    assert {k for k, v in s.items() if isinstance(v, float) and math.isnan(v)} == want
    assert s["tail_exponent_site"] == 3
    assert s["resolved_reading"] == ("n/a" if delta == 1.0 else "alpha_in_numerator")


def test_envelope_keeps_plateau_maxima():
    vals = np.array([0.0, 1.0, 1.0, 0.0] * 4 + [2.0, 0.0, 3.0, 0.0])
    te, ve = lat.envelope(np.arange(vals.size, dtype=float), vals)
    want = [k for k in range(1, vals.size - 1) if vals[k] >= vals[k - 1] and vals[k] >= vals[k + 1]]
    assert te.tolist() == want
    assert len(want) >= 8


# ------------------------------------- closed-form spectrum against eigensolvers

def _chain(delta, n):
    off = -np.ones(n - 1)
    off[0] = -delta
    return off


def _weights_close(got, want, delta, n):
    # near-degenerate +-E pairs around the resonance (gap ~ delta/sqrt(N))
    # make either basis's mode products uncertain by ~ eps sqrt(N)/delta
    eps = np.finfo(float).eps
    tol = 4.0 * eps * (4.0 + math.sqrt(n) / delta)
    return np.max(np.abs(got - want)) <= tol


@pytest.mark.parametrize("delta", [1e-3, 0.05, 0.3, 0.6, 1.0])
@pytest.mark.parametrize("n", [10, 11, 240, 1240])
def test_spectrum_matches_eigensolvers(delta, n):
    from scipy.linalg import eigh_tridiagonal

    energies, modes = _mode_matrix(delta, n)
    off = _chain(delta, n)
    dense = np.diag(off, 1) + np.diag(off, -1)
    mine = modes * modes[0]                         # <n|k><k|1>, sign-free
    for e_ref, v_ref in (np.linalg.eigh(dense), eigh_tridiagonal(np.zeros(n), off)):
        assert np.max(np.abs(energies - e_ref)) <= 8 * np.finfo(float).eps
        assert _weights_close(mine, v_ref * v_ref[0], delta, n)
    eye = np.eye(n)
    assert _weights_close(modes.T @ modes, eye, delta, n)
    # the cached O(N) data gives the same per-site weights as the matrix
    if n > 2 * lat.REFLECTION_MARGIN:
        p = lat.LatticeParams(delta, (n - 2 * lat.REFLECTION_MARGIN) / 2)
        assert p.n_sites == n
        for site in (1, 2, n // 2, n):
            e, w = lat._mode_weights(p, site)
            assert np.array_equal(e, energies)
            assert np.max(np.abs(w - mine[site - 1])) <= 4 * np.finfo(float).eps


def test_spectrum_roots_interlace_with_the_uniform_chain():
    # one root per ((j-1) pi/N, j pi/N): energies strictly between the
    # levels -2 cos(j pi/N) of the chain without site 1
    for delta, n in ((1e-3, 240), (0.3, 241), (1.0, 100)):
        energies = lat._spectral_data(delta, n)[0]
        uniform = -2.0 * np.cos(np.arange(1, n) * math.pi / n)
        assert np.all(energies[:-1] < uniform) and np.all(uniform < energies[1:])
        assert -2.0 < energies[0] and energies[-1] < 2.0


# ------------------------------------- transition formula against a dense scan

def _scan_transition_time(p, n):
    from scipy.optimize import brentq

    c = math.exp(lat.log_formula_prefactor(p, n))
    gamma = p.gamma

    def g(t):
        return t ** 1.5 - c * math.exp(0.5 * gamma * t)

    grid = np.geomspace(1e-2, p.t_max, 20000)
    vals = grid ** 1.5 - c * np.exp(0.5 * gamma * grid)
    down = np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))
    if down.size == 0:
        return None
    k = down[0]
    return brentq(g, grid[k], grid[k + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps)


def test_transition_time_matches_scan_and_brentq():
    found = missing = 0
    for delta in np.linspace(0.2, 0.8, 13):
        for t_max in (30.0, 220.0):
            p = lat.LatticeParams(float(delta), t_max)
            for n in range(2, 40):
                want = _scan_transition_time(p, n)
                got = lat.lattice_transition_time(p, n)
                assert math.isnan(got) == (want is None), (delta, t_max, n)
                if want is None:
                    missing += 1
                    continue
                found += 1
                assert abs(got - want) <= 1e-12 * want, (delta, t_max, n)
    assert found > 100 and missing > 100       # both outcomes exercised


def _log_equation_root(delta, n):
    """The falling root t > 3/gamma of 1.5 ln t = ln C_n + gamma t/2, in
    40-digit arithmetic."""
    with mpmath.workdps(40):
        d = mpmath.mpf(delta)
        a2 = 1 - d * d
        gamma = 2 * d * d / mpmath.sqrt(a2)
        log_c = (mpmath.log(2 * (n + a2 * (n - 2)) / (mpmath.sqrt(mpmath.pi) * (1 + a2) ** 3))
                 + (n + 1) * mpmath.log(mpmath.sqrt(a2)))

        def f(t):
            return 1.5 * mpmath.log(t) - log_c - gamma * t / 2

        lo = hi = 3 / gamma
        while f(hi) > 0:
            lo, hi = hi, 2 * hi
        return mpmath.findroot(f, (lo, hi), solver="anderson")


@pytest.mark.parametrize("delta, t_max, n, want", [
    (0.3, 9980.0, 16000, "8050.3558624674575"),
    (0.8, 800.0, 1500, "721.69028922924466"),
])
def test_far_site_root_where_c_n_underflows(delta, t_max, n, want):
    # C_n = e^{ln C_n} is below double range, its logarithm is not
    p = lat.LatticeParams(delta, t_max)
    assert math.exp(lat.log_formula_prefactor(p, n)) == 0.0
    ref = _log_equation_root(delta, n)
    assert abs(ref / mpmath.mpf(want) - 1) < 1e-16
    assert lat.lattice_transition_time(p, n) == pytest.approx(float(ref), rel=1e-12, abs=0.0)


def test_transition_time_without_a_root():
    # the far site's root, 721.69, lies past a horizon of 700: no time to report
    p = lat.LatticeParams(0.8, 700.0)
    assert math.isnan(lat.lattice_transition_time(p, 1500))
    assert lat.lattice_transition_time(p._replace(t_max=800.0), 1500) == pytest.approx(
        721.69028922924466, rel=1e-12)


# ------------------------------ the formula's derivation against the spectrum

def _pole_and_edge(delta, n, t):
    """Resonance-pole amplitude c_n^pole(t) and one band edge's |term|."""
    alpha = math.sqrt(1.0 - delta * delta)
    a2 = alpha * alpha
    pole = (delta * (1j / alpha) ** (n - 1) * (1.0 + a2) / (2.0 * a2)
            * np.exp(-delta * delta / alpha * t))          # e^{-i E_r t}
    edge = delta * (n + a2 * (n - 2)) / (2.0 * math.sqrt(math.pi) * (1.0 + a2) ** 2) * t ** -1.5
    return pole, edge


@pytest.mark.parametrize("delta", [0.3, 0.6])
def test_transition_formula_derivation(delta):
    from scipy.linalg import eigh_tridiagonal

    # c_n - pole_n is the two band-edge terms, whose envelope is 2 edge_n
    p = lat.LatticeParams(delta, 200.0)
    hops = -np.ones(p.n_sites - 1)
    hops[0] = -delta
    energies, modes = eigh_tridiagonal(np.zeros(p.n_sites), hops)
    ts = np.arange(40.0, p.t_max, 0.05)
    phases = np.exp(-1j * np.outer(ts, energies))
    for n in (2, 5, 10):
        c_n = phases @ (modes[n - 1] * modes[0])
        pole, edge = _pole_and_edge(delta, n, ts)
        ratio = float(np.max(np.abs(c_n - pole) / (2.0 * edge)))
        assert 0.99 <= ratio <= 1.02, (delta, n, ratio)
        # the formula time is where |pole| meets the band envelope
        t = lat.lattice_transition_time(p, n)
        pole_t, edge_t = _pole_and_edge(delta, n, t)
        assert abs(abs(pole_t) / (2.0 * edge_t) - 1.0) <= 1e-12, (delta, n, t)


@pytest.mark.parametrize("t_max", [math.inf, math.nan, -3.0, 0.0])
def test_horizon_is_checked_before_the_chain_is_sized(t_max):
    # LatticeParams checks t_max before it rounds 2 t_max up to an integer
    with pytest.raises(ValueError, match="t_max must be positive and finite"):
        lat.LatticeParams(0.3, t_max)


WEAK_T_MAX = 50.0


@pytest.mark.parametrize("delta", [1e-6, 1e-10, 1e-20, 1e-200, 5e-324])
def test_weak_coupling_matches_the_oracle_or_fails_typed(capsys, delta):
    # psi_1 = sin(N k)/delta loses digits as delta falls; past the bound the
    # command fails with one line instead of printing wrong densities
    from postexp import cli

    ts = np.linspace(0.0, WEAK_T_MAX, 6)
    rc = cli.main(["lattice", f"--delta={delta!r}", "--sites", "1,3", "--t-max", "50",
                   "--t-grid", ",".join(map(repr, ts.tolist())), "--parallelism", "1"])
    out, err = capsys.readouterr()
    if delta >= 1e-6:
        assert rc == 0
    if rc == 1:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        return
    assert (rc, err) == (0, "")
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in out.splitlines()[1:] if not line.startswith("#")])
    want = chain_density_oracle(delta, 0.0, WEAK_T_MAX / 5, 6, (1, 3))
    for col, n in enumerate((1, 3)):
        assert _close(rows[rows[:, 1] == n, 2], want[:, col]).all()


@pytest.mark.parametrize("delta", [1e-10, 1e-20, 1e-200, 5e-324])
def test_weak_coupling_modes_raise_a_computation_error(delta):
    p = lat.LatticeParams(delta, 50.5)   # 141 sites
    with pytest.raises(lat.ComputationError, match="lose precision"):
        lat.site_density(p, 1, [0.0])
