"""Tight-binding chain analogue of the decaying source.

A semi-infinite chain with a weakened first hop delta traps most of the
initial site-1 amplitude in a long-lived resonance; site index plays the
role of detector distance. The chain is truncated to N = n_sites sites
(first hop -delta, all others -1, zero on-site energy), and N follows from
the horizon: N = ceil(2 t_max) + 2 REFLECTION_MARGIN puts the cut so far out
that nothing reflected from it (group velocity 2) reaches any site by
t_max, so every longer chain gives the same densities.

The truncated chain's eigensystem is closed-form. Away from site 1 an
eigenvector is a standing wave that vanishes past the cut,
psi_n = sin(k (N + 1 - n)) for n >= 2, with E = -2 cos k. The equation at
site 2, E psi_2 = -delta psi_1 - psi_3, then fixes psi_1 = sin(N k)/delta,
and the one at site 1, E psi_1 = -delta psi_2, leaves the secular equation

    2 cos k sin(N k) = delta^2 sin((N - 1) k),    0 < k < pi.

Deleting site 1 leaves the uniform (N - 1)-site chain, whose levels are
k = j pi/N, j = 1..N-1. By Cauchy interlacing, and since the secular
function is delta^2 (-1)^j sin(j pi/N) != 0 at k = j pi/N, each interval
((j - 1) pi/N, j pi/N), j = 1..N, holds exactly one root; k = 0 and
k = pi are trivial zeros. specfun.chain_levels bisects them, all N at once
for _spectral_data and one at a time for `postexp selftest`, in the offset
theta = k - (j - 1) pi/N until they stop shrinking. Written in theta the
phases stay below 2 pi, since sin(m k) reduces the integer part
(j - 1) m mod 2N exactly, so they keep full precision at any N.
The norm is sum_{m<N} sin^2(m k) + psi_1^2 with the first sum in closed
form, so the cached spectrum is O(N); a mode row costs one sine per level.

A site amplitude is the mode sum c_n(t) = sum_k <n|k><k|1> e^{-i E_k t}.
evolve, which returns every site, takes the phases e^{-i E_k t}<k|1> once
and multiplies them by the mode rows <n|k>, at most BLOCK_BYTES of rows at
a time, so it never holds the N x N mode matrix. On a uniform grid
t0 + m dt (the envelope fits and the CLI's default grid)
uniform_site_density splits m = b B + j with B = ceil(sqrt(count)) and sums
the modes as one (blocks x modes) @ (modes x B) product, so it takes
O(sqrt(count) n_sites) exponentials and memory instead of count n_sites.
Arbitrary time lists go through site_density, which evaluates the same sum
directly in row blocks of at most BLOCK_BYTES of phases.

The transition equation t^{3/2} = C e^{gamma t/2} is a Lambert-W equation, solved
from ln C by specfun.lambertw_m1 in the closed form of the continuum's late_time.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from . import ComputationError, specfun

ENVELOPE_STEP = 0.05
REFLECTION_MARGIN = 20   # sites beyond 2*t_max (group velocity 2)
BLOCK_BYTES = 4 << 20    # phase rows (site_density) or mode rows (evolve) held at once
SUMMARY_HORIZON = 220.0  # the summary's envelope fits need this much time to converge
T_FLOOR = 1e-2           # earliest admissible formula transition time
# the spectrum's t = 0 amplitudes c_1(0) - 1 and c_2(0) must stay below this.
# Against conftest.chain_density_oracle on chains of 120-4041 sites and delta
# from 0.1 down to 1e-16, the density error reached the test tolerance
# (1e-6 relative + 1e-12) from an amplitude error of 1.09e-6 on, and stayed
# below 0.12 of it up to this bound. Chains pass it from delta ~ 1e-8 to 1e-10 down
WEAK_COUPLING_LIMIT = 1e-7
# the CLI summary's tail fit holds two phase matrices of about 90 t_max^1.5
# bytes each; at this chain, that of t_max = 9980, `lattice` peaks
# near 0.3 GB RSS
MAX_SITES = 20_000


class _LatticeFields(NamedTuple):
    delta: float
    t_max: float


class LatticeParams(_LatticeFields):
    """The chain to the horizon t_max. An immutable tuple; the constructor,
    _make and _replace all check it."""

    __slots__ = ()

    def __new__(cls, delta: float, t_max: float):
        if not (0.0 < delta <= 1.0):
            raise ValueError(f"delta must be in (0, 1]; got {delta!r}")
        if not (t_max > 0.0 and math.isfinite(t_max)):
            raise ValueError(f"t_max must be positive and finite; got {t_max!r}")
        # n_sites <= MAX_SITES, checked on 2 t_max: its ceil overflows past 1e308
        if 2.0 * t_max > MAX_SITES - 2 * REFLECTION_MARGIN:
            raise ValueError(f"t_max must be at most {MAX_SITES / 2 - REFLECTION_MARGIN:g} "
                             f"(a chain of MAX_SITES={MAX_SITES} sites); got {t_max!r}")
        return super().__new__(cls, delta, t_max)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def n_sites(self) -> int:
        """The chain length: twice the reflection margin past 2 t_max."""
        return math.ceil(2.0 * self.t_max) + 2 * REFLECTION_MARGIN

    @property
    def alpha_sq(self) -> float:
        return 1.0 - self.delta * self.delta

    @property
    def alpha(self) -> float:
        return math.sqrt(self.alpha_sq)

    @property
    def gamma(self) -> float:
        """Resonance decay rate 2 delta^2 / alpha; undefined at delta = 1."""
        if self.delta == 1.0:
            raise ValueError("decay rate is undefined at delta = 1 (no resonance)")
        gamma = 2.0 * self.delta * self.delta / self.alpha
        if gamma < sys.float_info.min:
            raise ComputationError(f"decay rate 2 delta^2/alpha leaves double precision "
                                   f"at delta={self.delta!r}")
        return gamma


@lru_cache(maxsize=16)
def _spectral_data(delta: float, n_sites: int):
    """Energies, bracket offsets theta, normalized site-1 row and 1/norm per level.

    Level j (0-based) has k = j pi/N + theta_j, sorted ascending like E.
    psi_1 = sin(N k)/delta loses digits as delta falls, since sin(N k) is of
    order delta^2 for most levels: past WEAK_COUPLING_LIMIT on the t = 0
    amplitudes, which must be c_1 = 1 and c_2 = 0, it raises ComputationError.
    """
    n = n_sites
    with np.errstate(over="ignore", invalid="ignore"):
        energies, theta, first, scale = specfun.chain_levels(delta, n, np.arange(n) * (math.pi / n))
        # <1|k> = (-1)^j |<1|k>|, since sin(N k) = (-1)^j sin(N theta)
        first = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * first
        error = max(abs(first @ first - 1.0), abs(_mode_rows(n, theta, scale, 2) @ first))
    if not error <= WEAK_COUPLING_LIMIT:
        raise ComputationError(
            f"the chain's modes lose precision at delta={delta!r}: t = 0 amplitude "
            f"error {error:.2g} > {WEAK_COUPLING_LIMIT:g}")
    return energies, theta, first, scale


def _mode_rows(n_sites: int, theta: np.ndarray, scale: np.ndarray, sites) -> np.ndarray:
    """Normalized mode components <n|k> for sites n >= 2 (array or scalar n)."""
    m = n_sites + 1 - np.asarray(sites)[..., None]
    j = np.arange(n_sites)
    return np.sin(((j * m) % (2 * n_sites)) * (math.pi / n_sites) + theta * m) * scale


def _check_times(p: LatticeParams, ts: np.ndarray) -> None:
    if ts.size == 0:
        raise ValueError("empty time list")
    # the interval test, not its complement, so that nan fails it
    if not np.all((0.0 <= ts) & (ts <= p.t_max)):
        raise ValueError("times must lie within [0, t_max]")
    if np.any(np.diff(ts) < 0.0):
        raise ValueError("times must be sorted ascending")


def evolve(p: LatticeParams, times: Sequence[float]) -> np.ndarray:
    """Amplitudes c_n of exp(-iHt)|site 1>, (times x sites), column 0 site 1.

    Beside the result it holds the (times x modes) phases and one block of
    at most BLOCK_BYTES of mode rows, never the N x N mode matrix.
    """
    ts = np.asarray(times, dtype=float)
    _check_times(p, ts)
    n = p.n_sites
    energies, theta, first, scale = _spectral_data(p.delta, n)
    phases = np.exp(-1j * np.outer(ts, energies)) * first     # e^{-iE t}<k|1>
    amps = np.empty((ts.size, n), dtype=complex)
    amps[:, 0] = phases @ first
    rows = max(1, BLOCK_BYTES // (8 * n))
    for lo in range(2, n + 1, rows):
        block = np.arange(lo, min(lo + rows, n + 1))
        amps[:, block - 1] = phases @ _mode_rows(n, theta, scale, block).T
    return amps


def _mode_weights(p: LatticeParams, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Energies and weights <n|k><k|1> of the mode sum for c_n."""
    if not (1 <= n <= p.n_sites):
        raise ValueError(f"site index {n} outside 1..{p.n_sites}")
    energies, theta, first, scale = _spectral_data(p.delta, p.n_sites)
    row = first if n == 1 else _mode_rows(p.n_sites, theta, scale, n)
    return energies, first * row


def site_density(p: LatticeParams, n: int, times: Sequence[float]) -> np.ndarray:
    """|c_n(t)|^2 on an array of times, in row blocks of bounded memory."""
    energies, w = _mode_weights(p, n)
    ts = np.asarray(times, dtype=float)
    _check_times(p, ts)
    rows = max(1, BLOCK_BYTES // (16 * energies.size))
    out = np.empty(ts.size)
    for lo in range(0, ts.size, rows):
        amps = np.exp(-1j * np.outer(ts[lo : lo + rows], energies)) @ w
        out[lo : lo + rows] = np.abs(amps) ** 2
    return out


def uniform_site_density(
    p: LatticeParams, n: int, t0: float, dt: float, count: int
) -> np.ndarray:
    """|c_n(t)|^2 at t0 + m dt for m = 0..count-1, by a two-level phase split.

    With m = b B + j, e^{-iE t_m} = e^{-iE (t0 + b B dt)} e^{-iE j dt}: the
    weighted coarse phases (blocks x modes) times the fine phases
    (modes x B) give every amplitude, read off row by row.
    """
    energies, w = _mode_weights(p, n)
    if not (isinstance(count, (int, np.integer)) and count >= 1):
        raise ValueError(f"count must be an integer >= 1; got {count!r}")
    if not (math.isfinite(t0) and math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"need finite t0 and dt > 0; got t0={t0!r}, dt={dt!r}")
    last = t0 + (count - 1) * dt
    # a few ulps of slack: t_max / k * k may round just past t_max
    if t0 < 0.0 or last > p.t_max * (1.0 + 4.0 * np.finfo(float).eps):
        raise ValueError("times must lie within [0, t_max]")
    fine = math.isqrt(count - 1) + 1          # ceil(sqrt(count))
    blocks = -(-count // fine)
    starts = t0 + np.arange(blocks) * (fine * dt)
    coarse = np.exp(-1j * np.outer(starts, energies)) * w
    steps = np.exp(-1j * np.outer(energies, np.arange(fine) * dt))
    amps = (coarse @ steps).reshape(-1)[:count]
    return np.abs(amps) ** 2


def envelope(ts: np.ndarray, vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Interior local maxima; falls back to all points for oscillation-free data.

    The fallback makes the log-log fitter exact on a pure power law.
    """
    mid = vals[1:-1]
    idx = np.flatnonzero((mid >= vals[:-2]) & (mid >= vals[2:])) + 1
    if len(idx) < 8:
        return ts, vals
    return ts[idx], vals[idx]


def envelope_loglog_slope(ts: np.ndarray, vals: np.ndarray) -> float:
    te, ve = envelope(np.asarray(ts, float), np.asarray(vals, float))
    if len(te) < 2:
        raise ValueError("fewer than two envelope points")
    return float(np.polyfit(np.log(te), np.log(ve), 1)[0])


def _envelope_grid(
    p: LatticeParams, n: int, lo: float, hi: float
) -> Tuple[np.ndarray, np.ndarray]:
    """The fit grid arange(lo, hi, ENVELOPE_STEP) and |c_n|^2 on it."""
    ts = np.arange(lo, hi, ENVELOPE_STEP)
    return ts, uniform_site_density(p, n, lo, ENVELOPE_STEP, ts.size)


def fitted_decay_rate(p: LatticeParams) -> float:
    """Exponential rate of |c_1|^2 from a linear fit of its log from t = 5 to 12/gamma.

    The window ends there, or at 0.9 t_max if that is earlier, before the
    power-law tail starts contaminating the fit. From delta ~0.805 on,
    12/gamma comes less than ten envelope steps after the start, or before
    it; on a window that short the chain has no rate to fit, and the result
    is nan.
    """
    lo = 5.0
    hi = max(lo, min(12.0 / p.gamma, 0.9 * p.t_max))
    if hi - lo < 10.0 * ENVELOPE_STEP:
        return math.nan
    ts, dens = _envelope_grid(p, 1, lo, hi)
    slope = np.polyfit(ts, np.log(dens), 1)[0]
    return float(-slope)


def tail_exponent(p: LatticeParams, n: int, window: Tuple[float, float]) -> float:
    """Late-time log-log slope of the density envelope at site n over the
    window (lo, hi); expect ~ -3. A window outside (0, t_max] or shorter
    than 50 envelope steps raises ValueError before any density is evaluated."""
    lo, hi = window
    if not (0.0 < lo < hi <= p.t_max):
        raise ValueError(f"window {window!r} outside (0, t_max]")
    if math.ceil((hi - lo) / ENVELOPE_STEP) < 50:
        raise ValueError(f"window {window!r} shorter than 50 envelope steps")
    return envelope_loglog_slope(*_envelope_grid(p, n, lo, hi))


def log_formula_prefactor(p: LatticeParams, n: int) -> float:
    """ln C_n of the site-n transition equation t^{3/2} = C_n e^{gamma t/2}; C_n may underflow.

    C_n = 2 alpha^{n+1} (n + alpha^2 (n - 2)) / (sqrt(pi) (1 + alpha^2)^3),
    from the site-n Green's function of the semi-infinite chain, n >= 1.
    With E = -(lam + 1/lam), G_{n1} = -delta lam^n / (alpha^2 lam^2 + 1) for
    n >= 2. Its resonance pole lam_r = i/alpha, E_r = -i delta^2/alpha, gives
    |c_n^pole| = delta alpha^{-(n-1)} (1 + alpha^2)/(2 alpha^2) e^{-gamma t/2};
    each band edge E = +-2 gives a term of size
    delta (n + alpha^2 (n - 2)) / (2 sqrt(pi) (1 + alpha^2)^2) t^{-3/2},
    so the band envelope peaks at twice that. Setting |c_n^pole| equal to
    that peak gives the equation and C_n. At site 1, G_11 = -lam/(alpha^2 lam^2 + 1)
    gives both terms without the factor delta: (1 + alpha^2)/(2 alpha^2) e^{-gamma t/2}
    and delta^2/(2 sqrt(pi) (1 + alpha^2)^2) t^{-3/2}. So C_1 is C_n at n = 1,
    2 alpha^2 delta^2/(sqrt(pi) (1 + alpha^2)^3), taken with delta^2 itself in
    place of 1 - alpha^2, which rounds to 0 below delta ~ 1e-8.
    """
    if n < 1:
        raise ValueError("transition formula needs site index n >= 1")
    a2 = p.alpha_sq
    edge = n + a2 * (n - 2) if n >= 2 else p.delta * p.delta
    return (math.log(2.0 * edge / (math.sqrt(math.pi) * (1.0 + a2) ** 3))
            + (n + 1) * math.log(p.alpha))


def lattice_transition_time(p: LatticeParams, n: int) -> float:
    """Smallest admissible root of the site-n transition equation, or nan.

    g(t) = t^{3/2} - C e^{gamma t/2} is negative at both ends when a root
    pair exists; the admissible (exponential giving way to power) root is
    the downward crossing, i.e. the larger of the pair: t = -(3/gamma) W_{-1}(l)
    at l = ln(gamma/3) + (2/3) ln C. There is none when l > -1, and nan is
    also returned for a root outside [T_FLOOR, t_max].
    """
    l = math.log(p.gamma / 3.0) + (2.0 / 3.0) * log_formula_prefactor(p, n)
    t = -3.0 / p.gamma * specfun.lambertw_m1(l) if l <= -1.0 else math.nan
    return t if T_FLOOR <= t <= p.t_max else math.nan


def summary(delta: float, sites: Sequence[int], t_max: float) -> Dict[str, object]:
    """The `lattice` command's rate, tail and transition metadata, nan where
    the chain has none, on a horizon of at least SUMMARY_HORIZON: the user's
    t_max may be too short for stable envelope fits."""
    p = LatticeParams(delta, max(t_max, SUMMARY_HORIZON))
    resonant = delta < 1.0        # no resonance at delta = 1: no rate, no transition
    times = {n: lattice_transition_time(p, n) if resonant else math.nan for n in sites}
    # Largest requested site: its exponential segment ends earliest, so the
    # late-window power fit is least contaminated by the crossover. Before
    # its transition the window is still in the exponential era: no tail.
    tail_site = max(sites)
    window = (0.55 * p.t_max, 0.95 * p.t_max)
    return {"delta": delta,
            "gamma_formula": p.gamma if resonant else math.nan,
            "fitted_gamma": fitted_decay_rate(p) if resonant else math.nan,
            "tail_exponent": (tail_exponent(p, tail_site, window)
                              if not resonant or times[tail_site] <= window[0] else math.nan),
            "tail_exponent_site": tail_site,
            # the formula's prefactor is derived (log_formula_prefactor), with
            # 2 alpha^{n+1} in its numerator
            "resolved_reading": "alpha_in_numerator" if resonant else "n/a",
            # site 1's time only gates the tail fit; its line stays nan
            **{f"transition_time_site_{n}": math.nan if n == 1 else t for n, t in times.items()}}
