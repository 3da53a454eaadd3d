"""Shared fixtures and independent oracles.

Every numeric expectation in the test suite traces to one of these
oracles or to a closed-form identity computed inline. The oracles use a
different route than the library (direct quadrature instead of special
functions, contour integration instead of the w-function form, sparse
matrix exponentials instead of the chain's eigenbasis) so that agreement
is evidence, not tautology.
"""

import cmath
import math
from typing import NamedTuple

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from postexp import source_model, units


# ------------------------------------------------------------------ oracles

def faddeeva_quad_oracle(z: complex) -> complex:
    """w(z) for Im z > 0 by direct quadrature of its Hilbert-transform form.

    w(z) = (i/pi) * integral e^{-s^2} / (z - s) ds over the real line.
    Slow but independent of scipy.special.
    """
    if z.imag <= 0.0:
        raise ValueError("quadrature form only valid for Im z > 0")

    def integrand(s: float, part: int) -> float:
        v = math.exp(-s * s) / (z - s)
        return v.real if part == 0 else v.imag

    re, _ = quad(integrand, -np.inf, np.inf, args=(0,), limit=400,
                 epsabs=1e-14, epsrel=1e-12)
    im, _ = quad(integrand, -np.inf, np.inf, args=(1,), limit=400,
                 epsabs=1e-14, epsrel=1e-12)
    return (1j / math.pi) * (re + 1j * im)


def psi_contour_oracle(k0I: float, x: float, t: float) -> complex:
    """Exact wavefunction by numerical contour integration.

    Integrates the momentum representation along the diagonal line of
    steepest descent through the saddle at k_s = x/(2t), picking up the
    residue of the source pole once the saddle has moved past it. The
    half-width S is chosen so the Gaussian weight underflows at the ends.
    """
    k0 = 1.0 + 1j * k0I
    ks = x / (2.0 * t)
    rot = cmath.exp(-1j * math.pi / 4.0)
    S = math.sqrt(46.0 / t)

    def integrand(s: float, part: int) -> float:
        k = ks + s * rot
        v = cmath.exp(-s * s * t) * (1.0 / (k - k0) + 1.0 / (k + k0))
        return v.real if part == 0 else v.imag

    # give quad the pole shadows as interior break points when nearby
    pts = []
    for pole in (k0, -k0):
        s0 = ((pole - ks) / rot).real
        if -S < s0 < S:
            pts.append(s0)
    pts = sorted(pts)
    re, _ = quad(integrand, -S, S, args=(0,), limit=300, points=pts or None,
                 epsabs=1e-13, epsrel=1e-11)
    im, _ = quad(integrand, -S, S, args=(1,), limit=300, points=pts or None,
                 epsabs=1e-13, epsrel=1e-11)
    val = (1j / (2.0 * math.pi)) * cmath.exp(1j * ks * ks * t) * rot * (re + 1j * im)
    if ks < 1.0 + k0I:
        val += cmath.exp(-1j * k0 * k0 * t + 1j * k0 * x)
    return val


class ColdAtomOracle(NamedTuple):
    k0I: float
    x: float
    count: float      # atoms per pixel from the contour oracle at (x, t)
    ceiling: float    # closed-form upper bound on that count at t = t_p


def cold_atom_oracle(scenario, X: float, t: float) -> ColdAtomOracle:
    """Point-sampled atoms per pixel at detector distance X (m), model time t.

    The scales come from their definitions and units.HBAR, not from the
    scenario's properties: L = hbar/(m v), t_unit = 2 m L^2/hbar and
    k0I = -t_unit/(4 lifetime). The count is N * w * |psi|^2 / n_total with
    psi from the contour oracle, the pixel width w = pixel/L and the
    analytic norm n_total = 1/(2|k0I|). At t_p, |pole| = |saddle|, so
    |psi|^2 <= 4 |pole|^2 = 4 e^{2 k0I (2t - x)} up to the error of the
    saddle-plus-pole split; the ceiling allows 5 % for it (the split is off
    by under 2 % of |pole| for rb87 between 90 and 110 um).
    """
    L = units.HBAR / (scenario.mass * scenario.release_velocity)
    k0I = -2.0 * scenario.mass * L * L / units.HBAR / (4.0 * scenario.lifetime)
    x, w = X / L, scenario.pixel_size / L
    per_density = scenario.atom_number * w * 2.0 * abs(k0I)
    count = per_density * abs(psi_contour_oracle(k0I, x, t)) ** 2
    ceiling = per_density * 4.0 * math.exp(2.0 * k0I * (2.0 * t - x)) * 1.05
    return ColdAtomOracle(k0I, x, count, ceiling)


def psi_mpmath_oracle(k0I: float, x: float, t: float):
    """psi at the exact double inputs, with the condition number of its
    double-precision evaluation.

    kappa adds the size of the phase and w arguments (x^2/(4t) and |u|^2
    carry the input rounding) and the cancellation between the two w
    branches; a backward-stable evaluation is accurate to about eps*kappa.
    The branches can cancel to e^{-500} at late times, so the working
    precision grows until 25 digits survive the sum.
    """
    for dps in (40, 80, 160, 320, 640):
        with mpmath.workdps(dps):
            k0 = mpmath.mpc(1, k0I)
            xm, tm = mpmath.mpf(x), mpmath.mpf(t)
            tau = xm / (2 * k0)
            pref = mpmath.mpc(1, 1) * mpmath.sqrt(tm / 2) * k0
            u_plus, u_minus = pref * (1 - tau / tm), -pref * (1 + tau / tm)
            w_p, w_m = (mpmath.exp(-z * z) * mpmath.erfc(-1j * z) for z in (-u_plus, -u_minus))
            size = abs(w_p) + abs(w_m)
            if abs(w_p + w_m) > mpmath.mpf(10) ** (25 - dps) * size:
                psi = 0.5 * mpmath.exp(1j * xm * xm / (4 * tm)) * (w_p + w_m)
                kappa = (xm * xm / (4 * tm) + abs(u_plus) ** 2 + abs(u_minus) ** 2
                         + size / abs(w_p + w_m))
                return complex(psi), float(kappa)
    raise AssertionError(f"mpmath oracle did not converge at k0I={k0I}, x={x}, t={t}")


def _saddle_mpc(k0, xm, tm):
    """sqrt(2t/pi) tau e^{i x^2/(4t)} / ((i - 1) k0 (t^2 - tau^2)), tau = x/(2 k0)."""
    tau = xm / (2 * k0)
    return (mpmath.sqrt(2 * tm / mpmath.pi) * tau * mpmath.exp(1j * xm * xm / (4 * tm))
            / (mpmath.mpc(-1, 1) * k0 * (tm * tm - tau * tau)))


def saddle_mpmath_oracle(k0I: float, x: float, t: float):
    """The saddle part at the exact double inputs, by mpmath at 40 digits in
    the tau form, with its condition number.

    mpmath's exponent range holds t^2 - tau^2 where doubles underflow. A
    double evaluation carries the rounding of k_s = x/(2t) into the phase
    x^2/(4t) and, amplified by t/|t - tau|, into the denominator; so
    kappa = max(1, t/|t - tau|, x^2/(4t)).
    """
    with mpmath.workdps(40):
        k0 = mpmath.mpc(1, k0I)
        xm, tm = mpmath.mpf(x), mpmath.mpf(t)
        kappa = max(1, tm / abs(tm - xm / (2 * k0)), xm * xm / (4 * tm))
        return complex(_saddle_mpc(k0, xm, tm)), float(kappa)


def approx_mpmath_oracle(k0I: float, x: float, t: float) -> complex:
    """Saddle plus pole e^{-i k0^2 t + i k0 x} at the exact double inputs, at 40 digits."""
    with mpmath.workdps(40):
        k0 = mpmath.mpc(1, k0I)
        xm, tm = mpmath.mpf(x), mpmath.mpf(t)
        return complex(_saddle_mpc(k0, xm, tm) + mpmath.exp(-1j * k0 * k0 * tm + 1j * k0 * xm))


def log_ratio_oracle(k0I: float, x: float, t):
    """ln(|pole|/|saddle|) from the two closed-form moduli, in logs.

    |pole| = e^{k0I (2t - x)} and, with tau = x/(2 k0),
    |saddle| = sqrt(t/pi) x / (2 |k0|^2 |t^2 - tau^2|).
    """
    k0 = complex(1.0, k0I)
    tau = x / (2.0 * k0)
    log_pole = k0I * (2.0 * t - x)
    log_saddle = (0.5 * np.log(t / math.pi) + math.log(x / (2.0 * abs(k0) ** 2))
                  - np.log(np.abs(t * t - tau * tau)))
    return log_pole - log_saddle


def log_ratio_mpmath_oracle(k0I: float, x: float, t):
    """ln R and t d(ln R)/dt from the t-form at 40 digits, as mpf.

    Near t_c, t^2 - tau^2 cancels to order |k0I| t^2, so log_ratio_oracle
    rounds ln R to about eps/|k0I|, as the code under test would in t; 40
    digits keep about 28 down to k0I = -1e-12. t may be a double or an mpf.
    """
    with mpmath.workdps(40):
        k0 = mpmath.mpc(1, k0I)
        xm, tm = mpmath.mpf(x), mpmath.mpf(t)
        tau = xm / (2 * k0)
        q = tm * tm - tau * tau
        log_r = (mpmath.log(2 * mpmath.sqrt(mpmath.pi) * abs(k0) ** 2 / xm) - mpmath.log(tm) / 2
                 + k0I * (2 * tm - xm) + mpmath.log(abs(q)))
        return log_r, 2 * k0I * tm - mpmath.mpf(1) / 2 + mpmath.re(2 * tm * tm / q)


def max_log_ratio_after_pole(k0I: float, x: float, n: int = 200_000) -> float:
    """Brute-force sup of ln R over t > t_c = x/(2(1 + k0I)) on a dense grid.

    The grid is t_c itself (the sup is a limit there: d(ln R)/d(ln t) is
    of order 1/|k0I| at t_c) and then geometric in t - t_c, from 1e-13 t_c
    out past 200/|k0I|, so it also resolves the local maximum of R.
    """
    t_c = x / (2.0 * (1.0 + k0I))
    offsets = np.geomspace(1e-13, 10.0 + 200.0 / (abs(k0I) * t_c), n - 1)
    ts = t_c * (1.0 + np.concatenate(([0.0], offsets)))
    return float(np.max(log_ratio_oracle(k0I, x, ts)))


def brute_force_x_max(k0I: float) -> float:
    """Largest x with a transition: geometric bisection on the sign of
    max_log_ratio_after_pole, from [1e-4, 1e4/k0I^2] down to relative 1e-12."""
    lo, hi = 1e-4, 1e4 / (k0I * k0I)
    while hi / lo - 1.0 > 1e-12:
        mid = math.sqrt(lo * hi)
        if max_log_ratio_after_pole(k0I, mid, 20_000) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def chain_density_oracle(delta: float, t0: float, dt: float, count: int, sites) -> np.ndarray:
    """|c_n(t0 + k dt)|^2, k < count, by sparse matrix exponentials; shape (count, sites).

    No eigenbasis: expm_multiply applies e^{-iH t} to site 1 at each time
    or, for long grids, builds the one-step propagator e^{-iH dt} that
    advances the state. H is tridiagonal with first hop -delta, others -1,
    on 2 t_max + 200 sites, so nothing reflected from the cut (speed 2)
    reaches the sites by t_max.
    """
    from scipy.sparse import diags
    from scipy.sparse.linalg import expm_multiply

    t_max = t0 + (count - 1) * dt
    n = int(2.0 * t_max) + 200
    off = -np.ones(n - 1)
    off[0] = -delta
    h = diags([off, off], [-1, 1], format="csr", dtype=complex)
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    idx = [s - 1 for s in sites]
    if count <= 64:
        states = [expm_multiply(-1j * (t0 + k * dt) * h, e1)[idx] for k in range(count)]
        return np.abs(np.array(states)) ** 2
    psi = expm_multiply(-1j * t0 * h, e1)
    step = expm_multiply(-1j * dt * h, np.eye(n, dtype=complex))
    out = np.empty((count, len(idx)))
    for k in range(count):
        out[k] = np.abs(psi[idx]) ** 2
        psi = step @ psi
    return out


def envelope_crossing_oracle(ts, density, n: int, gamma: float):
    """(t, density) where the fitted exponential and power-law envelope lines
    of a sampled site-n density cross.

    |c_n(t)|^2 oscillates with period ~pi even while decaying exponentially,
    so everything runs on the local-maxima envelope past the ballistic front
    (group velocity 2): the exponential window is the first longest run of
    adjacent-maxima slopes within 20% of -gamma, the power window the first
    longest later run with log-log slope in -3 +- 0.6. The gap
    a t + b - (c ln t + d) between the two fits is concave with its peak at
    t = c/a; brentq finds its falling root, which must lie in the windows.
    """
    from scipy.optimize import brentq

    from postexp.lattice import envelope

    def longest_run(mask):
        edges = np.diff(np.concatenate(([0], mask.astype(np.int8), [0])))
        starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
        assert starts.size, f"no envelope window at site {n}"
        k = int(np.argmax(stops - starts))
        return int(starts[k]), int(stops[k])

    arrived = ts > n / 2.0 + 2.0
    te, de = envelope(ts[arrived], density[arrived])
    ln = np.log(de)
    slopes = np.diff(ln) / np.diff(te)
    i0, i1 = longest_run(np.abs(slopes + gamma) < 0.2 * gamma)
    assert i1 - i0 + 1 >= 6, f"no exponential-decay window at site {n}"
    a, b = np.polyfit(te[i0 : i1 + 1], ln[i0 : i1 + 1], 1)
    loglog = np.diff(ln) / np.diff(np.log(te))
    j0, j1 = longest_run((np.abs(loglog + 3.0) < 0.6) & (np.arange(loglog.size) > i1))
    assert j1 - j0 + 1 >= 4, f"no power-law window at site {n}"
    c, d = np.polyfit(np.log(te[j0 : j1 + 1]), ln[j0 : j1 + 1], 1)
    assert abs(a + gamma) < 0.2 * gamma and abs(c + 3.0) < 0.6, (a, c)

    def gap(t):
        return a * t + b - (c * math.log(t) + d)

    peak, last = c / a, te[-1]
    assert peak < last and gap(peak) > 0.0 > gap(last), \
        f"fitted envelopes do not cross at site {n}"
    t = brentq(gap, peak, last, xtol=1e-13)
    assert te[i0] <= t, f"fitted envelopes cross before the exponential window at site {n}"
    return t, math.exp(c * math.log(t) + d)


def erfc_one_series() -> float:
    """erfc(1) from the Maclaurin series of erf, no library calls."""
    total = 0.0
    fact = 1.0
    for n in range(40):
        if n > 0:
            fact *= n
        total += (-1.0) ** n / (fact * (2 * n + 1))
    return 1.0 - (2.0 / math.sqrt(math.pi)) * total


# ----------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def p01():
    return source_model.SourceParams(-0.1)


@pytest.fixture(scope="session")
def p015():
    return source_model.SourceParams(-0.15)


@pytest.fixture(scope="session")
def p03():
    return source_model.SourceParams(-0.3)


@pytest.fixture(scope="session")
def p05():
    return source_model.SourceParams(-0.5)


CROSSING_DELTA, CROSSING_HORIZON, CROSSING_SITES = 0.3, 220.0, (5, 10, 15)


@pytest.fixture(scope="session")
def crossing_densities():
    """ts = arange(2, 220, 0.05) and, by site (1 and CROSSING_SITES), the
    delta = 0.3 chain density there from chain_density_oracle, computed once
    for the session."""
    ts = np.arange(2.0, CROSSING_HORIZON, 0.05)
    sites = (1,) + CROSSING_SITES
    dens = chain_density_oracle(CROSSING_DELTA, 2.0, 0.05, ts.size, sites)
    return ts, dict(zip(sites, dens.T))


# ------------------------------------------------- acceptance verdict lines

def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the one-line acceptance verdicts after the test run."""
    import sys

    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if not verdicts:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for line in verdicts:
        terminalreporter.write_line("  " + line)
