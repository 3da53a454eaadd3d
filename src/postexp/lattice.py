"""Tight-binding chain analogue of the decaying source.

A semi-infinite chain with a weakened first hop delta traps most of the
initial site-1 amplitude in a long-lived resonance; site index plays the
role of detector distance. The chain is truncated to N = n_sites sites
(first hop -delta, all others -1, zero on-site energy), which is exact up
to truncation: a reflection guard keeps the horizon causally disconnected
from the cut.

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
k = pi are trivial zeros. _spectral_data bisects all N brackets at once in
the offset theta = k - (j - 1) pi/N until they stop shrinking. Written in
theta the phases stay below 2 pi, since sin(m k) reduces the integer part
(j - 1) m mod 2N exactly, so they keep full precision at any N.
The norm is sum_{m<N} sin^2(m k) + psi_1^2 with the first sum in closed
form, so the cached spectrum is O(N); a mode row costs one sine per level.

A site amplitude is the mode sum c_n(t) = sum_k V[0,k] V[n-1,k] e^{-i E_k t}.
On a uniform grid t0 + m dt (the envelope fits and the CLI's default grid)
uniform_site_density splits m = b B + j with B = ceil(sqrt(count)) and sums
the modes as one (blocks x modes) @ (modes x B) product, so it takes
O(sqrt(count) n_sites) exponentials and memory instead of count n_sites.
Arbitrary time lists go through site_density, which evaluates the same sum
directly in row blocks of at most BLOCK_BYTES of phases.

The transition equation t^{3/2} = C e^{gamma t/2} and the crossing of the
fitted envelope lines are Lambert-W equations, solved in closed form by
specfun.lambertw_m1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .specfun import INV_E, lambertw_m1

ENVELOPE_STEP = 0.05
MIN_EXP_MAXIMA = 6       # local maxima needed for the exponential-window fit
MIN_POWER_MAXIMA = 4
REFLECTION_MARGIN = 20   # sites beyond 2*t_max (group velocity 2)
BLOCK_BYTES = 4 << 20    # complex phase rows held at once by site_density
T_FLOOR = 1e-2           # earliest admissible formula transition time


class TruncationUnsoundError(Exception):
    """The chain is too short for the requested horizon; reflections would arrive."""

    def __init__(self, required_n_sites: int, n_sites: int, t_max: float):
        self.required_n_sites = required_n_sites
        super().__init__(
            f"n_sites={n_sites} cannot hold t_max={t_max}: "
            f"need n_sites >= {required_n_sites}"
        )


class InsufficientWindowError(Exception):
    """The evolution horizon is too short to isolate the requested fit window."""


@dataclass(frozen=True)
class LatticeParams:
    delta: float
    n_sites: int
    t_max: float

    def __post_init__(self):
        if not (0.0 < self.delta <= 1.0):
            raise ValueError(f"delta must be in (0, 1]; got {self.delta!r}")
        if not (isinstance(self.n_sites, int) and self.n_sites >= 10):
            raise ValueError(f"n_sites must be an integer >= 10; got {self.n_sites!r}")
        if not (self.t_max > 0.0 and math.isfinite(self.t_max)):
            raise ValueError(f"t_max must be positive and finite; got {self.t_max!r}")
        required = required_sites(self.t_max)
        if self.n_sites < required:
            raise TruncationUnsoundError(required, self.n_sites, self.t_max)

    @classmethod
    def for_horizon(cls, delta: float, t_max: float) -> "LatticeParams":
        """The chain for this horizon, twice the reflection margin past 2 t_max."""
        return cls(delta=delta, n_sites=required_sites(t_max) + REFLECTION_MARGIN, t_max=t_max)

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
        return 2.0 * self.delta * self.delta / self.alpha


def required_sites(t_max: float) -> int:
    return int(math.ceil(2.0 * t_max)) + REFLECTION_MARGIN


@dataclass(frozen=True, eq=False)
class LatticeState:
    t: float
    amplitudes: np.ndarray   # c_n, index 0 is site 1

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


@lru_cache(maxsize=16)
def _spectral_data(delta: float, n_sites: int):
    """Energies, bracket offsets theta, normalized site-1 row and 1/norm per level.

    Level j (0-based) has k = j pi/N + theta_j, sorted ascending like E.
    """
    n, d2 = n_sites, delta * delta
    base = np.arange(n) * (math.pi / n)
    lo, hi = np.zeros(n), np.full(n, math.pi / n)
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((lo < mid) & (mid < hi)):
            break
        # (-1)^j times the secular function; positive just above each bracket's start
        g = 2.0 * np.cos(base + mid) * np.sin(n * mid) - d2 * np.sin((n - 1) * mid - base)
        up = g > 0.0
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    theta = 0.5 * (lo + hi)
    # psi_1 = sin(N k)/delta with sin(N k) = (-1)^j sin(N theta)
    first = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * np.sin(n * theta) / delta
    # sum_{m=1}^{N-1} sin^2(m k) = (N - 1)/2 - sin((N-1)k) cos(Nk) / (2 sin k),
    # whose signs (-1)^j cancel in theta
    bulk = 0.5 * (n - 1) - (np.sin((n - 1) * theta - base) * np.cos(n * theta)
                            / (2.0 * np.sin(base + theta)))
    scale = 1.0 / np.sqrt(bulk + first * first)
    return -2.0 * np.cos(base + theta), theta, first * scale, scale


def _mode_rows(n_sites: int, theta: np.ndarray, scale: np.ndarray, sites) -> np.ndarray:
    """Normalized mode components <n|k> for sites n >= 2 (array or scalar n)."""
    m = n_sites + 1 - np.asarray(sites)[..., None]
    j = np.arange(n_sites)
    return np.sin(((j * m) % (2 * n_sites)) * (math.pi / n_sites) + theta * m) * scale


def _modes(delta: float, n_sites: int) -> Tuple[np.ndarray, np.ndarray]:
    """Energies and the full N x N mode matrix V[n-1, k] = <n|k>."""
    energies, theta, first, scale = _spectral_data(delta, n_sites)
    modes = np.empty((n_sites, n_sites))
    modes[0] = first
    modes[1:] = _mode_rows(n_sites, theta, scale, np.arange(2, n_sites + 1))
    return energies, modes


def _check_times(p: LatticeParams, ts: np.ndarray) -> None:
    if ts.size == 0:
        raise ValueError("empty time list")
    if np.any(ts < 0.0) or np.any(ts > p.t_max):
        raise ValueError("times must lie within [0, t_max]")
    if np.any(np.diff(ts) < 0.0):
        raise ValueError("times must be sorted ascending")


def evolve(p: LatticeParams, times: Sequence[float]) -> List[LatticeState]:
    """Amplitudes of exp(-iHt)|site 1> at the requested times."""
    ts = np.asarray(times, dtype=float)
    _check_times(p, ts)
    energies, modes = _modes(p.delta, p.n_sites)
    weights = modes * modes[0, :]              # (n, k): <n|k><k|1>
    phases = np.exp(-1j * np.outer(ts, energies))
    states = phases @ weights.T
    return [LatticeState(t=float(t), amplitudes=states[i]) for i, t in enumerate(ts)]


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


def roundtrip_error(p: LatticeParams, t: float) -> float:
    """Forward-then-backward evolution defect of the initial state (unitarity)."""
    energies, modes = _modes(p.delta, p.n_sites)
    coeff = modes[0, :].astype(complex)
    psi_t = modes @ (np.exp(-1j * energies * t) * coeff)
    coeff_back = modes.T @ psi_t
    psi_0 = modes @ (np.exp(1j * energies * t) * coeff_back)
    target = np.zeros(p.n_sites, dtype=complex)
    target[0] = 1.0
    return float(np.max(np.abs(psi_0 - target)))


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
        raise InsufficientWindowError("fewer than two envelope points")
    return float(np.polyfit(np.log(te), np.log(ve), 1)[0])


def _longest_run(mask: np.ndarray) -> Tuple[int, int]:
    """(start, stop) half-open indices of the longest True run; (0, 0) if none."""
    edges = np.diff(np.concatenate(([0], np.asarray(mask, dtype=np.int8), [0])))
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    if starts.size == 0:
        return (0, 0)
    k = int(np.argmax(stops - starts))        # first of the longest on ties
    return (int(starts[k]), int(stops[k]))


def _envelope_grid(
    p: LatticeParams, n: int, lo: float, hi: float
) -> Tuple[np.ndarray, np.ndarray]:
    """The fit grid arange(lo, hi, ENVELOPE_STEP) and |c_n|^2 on it."""
    ts = np.arange(lo, hi, ENVELOPE_STEP)
    return ts, uniform_site_density(p, n, lo, ENVELOPE_STEP, ts.size)


def fitted_decay_rate(
    p: LatticeParams, n: int = 1, window: Optional[Tuple[float, float]] = None
) -> float:
    """Exponential rate of |c_n|^2 from a linear fit of its log over the window.

    The default window ends at 12/gamma, before the power-law tail starts
    contaminating the fit. From delta ~0.81 on, 12/gamma comes less than ten
    envelope steps after the start at t = 5, or before it; a window that
    short raises InsufficientWindowError.
    """
    if window is None:
        lo = 5.0
        window = (lo, max(lo, min(12.0 / p.gamma, 0.9 * p.t_max)))
    lo, hi = window
    if not (0.0 <= lo <= hi <= p.t_max):
        raise ValueError(f"window {window!r} outside [0, t_max]")
    if hi - lo < 10.0 * ENVELOPE_STEP:
        raise InsufficientWindowError(f"window {window!r} too short for a rate fit")
    ts, dens = _envelope_grid(p, n, lo, hi)
    slope = np.polyfit(ts, np.log(dens), 1)[0]
    return float(-slope)


def tail_exponent(
    p: LatticeParams, n: int, window: Optional[Tuple[float, float]] = None
) -> float:
    """Late-time log-log slope of the density envelope at site n; expect ~ -3."""
    if window is None:
        window = (0.25 * p.t_max, 0.95 * p.t_max)
    lo, hi = window
    if not (0.0 < lo < hi <= p.t_max):
        raise ValueError(f"window {window!r} outside (0, t_max]")
    if math.ceil((hi - lo) / ENVELOPE_STEP) < 50:
        raise InsufficientWindowError(f"window {window!r} too short for a tail fit")
    return envelope_loglog_slope(*_envelope_grid(p, n, lo, hi))


@dataclass(frozen=True)
class EnvelopeCrossing:
    t: float
    density: float
    exp_window: Tuple[float, float]
    power_window: Tuple[float, float]
    exp_slope: float
    power_slope: float


def measured_envelope_crossing(p: LatticeParams, n: int) -> EnvelopeCrossing:
    """Empirical exponential-to-power transition at site n.

    |c_n(t)|^2 oscillates with period ~pi even while decaying exponentially,
    so everything runs on the local-maxima envelope: the exponential window
    is the longest run of adjacent-maxima slopes within 20% of -gamma, the
    power window the longest later run with log-log slope in -3 +- 0.6, and
    the crossing is where the fitted exponential line last falls below the
    fitted power line.
    """
    gamma = p.gamma
    ts, dens = _envelope_grid(p, n, 2.0, p.t_max)
    arrived = ts > n / 2.0 + 2.0     # ballistic front at group velocity 2
    te, de = envelope(ts[arrived], dens[arrived])
    if len(te) < MIN_EXP_MAXIMA + MIN_POWER_MAXIMA:
        raise InsufficientWindowError(f"only {len(te)} envelope maxima at site {n}")
    ln = np.log(de)
    slopes = np.diff(ln) / np.diff(te)
    exp_ok = np.abs(slopes + gamma) < 0.2 * gamma
    i0, i1 = _longest_run(exp_ok)
    if i1 - i0 + 1 < MIN_EXP_MAXIMA:
        raise InsufficientWindowError(f"no exponential-decay window at site {n}")
    exp_fit = np.polyfit(te[i0 : i1 + 1], ln[i0 : i1 + 1], 1)

    loglog = np.diff(ln) / np.diff(np.log(te))
    power_ok = (np.abs(loglog + 3.0) < 0.6) & (np.arange(len(loglog)) > i1)
    j0, j1 = _longest_run(power_ok)
    if j1 - j0 + 1 < MIN_POWER_MAXIMA:
        raise InsufficientWindowError(f"no power-law window at site {n}")
    power_fit = np.polyfit(np.log(te[j0 : j1 + 1]), ln[j0 : j1 + 1], 1)

    # Both fitted slopes are negative (weighted means of slopes held near
    # -gamma and -3), so the gap a t + b - (c ln t + d) is concave: it rises
    # through 0, peaks at t = c/a and falls through 0 once. With r = a/c the
    # falling root solves (-r t) e^{-r t} = -r e^{(b - d)/c}, the W_{-1} branch.
    # An argument below -1/e means the lines never cross; one that underflows
    # to -0.0 puts the crossing at t = inf.
    r = exp_fit[0] / power_fit[0]
    log_arg = math.log(r) + (exp_fit[1] - power_fit[1]) / power_fit[0]
    z = -math.exp(min(log_arg, 0.0))
    t_cross = -lambertw_m1(z) / r if -INV_E <= z < 0.0 else math.inf
    if not te[i0] <= t_cross <= te[-1]:
        raise InsufficientWindowError(f"fitted envelopes do not cross at site {n}")
    rho = math.exp(power_fit[0] * math.log(t_cross) + power_fit[1])
    return EnvelopeCrossing(
        t=float(t_cross),
        density=rho,
        exp_window=(float(te[i0]), float(te[i1])),
        power_window=(float(te[j0]), float(te[j1])),
        exp_slope=float(exp_fit[0]),
        power_slope=float(power_fit[0]),
    )


def formula_prefactor(p: LatticeParams, n: int) -> float:
    """Prefactor C_n of the site-n transition equation t^{3/2} = C_n e^{gamma t/2}.

    C_n = 2 alpha^{n+1} (n + alpha^2 (n - 2)) / (sqrt(pi) (1 + alpha^2)^3),
    from the site-n Green's function of the semi-infinite chain, n >= 2.
    With E = -(lam + 1/lam), G_{n1} = -delta lam^n / (alpha^2 lam^2 + 1). Its
    resonance pole lam_r = i/alpha, E_r = -i delta^2/alpha, gives
    |c_n^pole| = delta alpha^{-(n-1)} (1 + alpha^2)/(2 alpha^2) e^{-gamma t/2};
    each band edge E = +-2 gives a term of size
    delta (n + alpha^2 (n - 2)) / (2 sqrt(pi) (1 + alpha^2)^2) t^{-3/2},
    so the band envelope peaks at twice that. Setting |c_n^pole| equal to
    that peak gives the equation and C_n.
    """
    if n < 2:
        raise ValueError("transition formula needs site index n >= 2")
    a2 = p.alpha_sq
    return 2.0 * (n + a2 * (n - 2)) / (math.sqrt(math.pi) * (1.0 + a2) ** 3) * p.alpha ** (n + 1)


def lattice_transition_time(p: LatticeParams, n: int) -> Optional[float]:
    """Smallest admissible root of the site-n transition equation, or None.

    g(t) = t^{3/2} - C e^{gamma t/2} is negative at both ends when a root
    pair exists; the admissible (exponential giving way to power) root is
    the downward crossing, i.e. the larger of the pair:
    t = -(3/gamma) W_{-1}(-(gamma/3) C^{2/3}). There is none when the
    argument lies below -1/e, and None is also returned for a root outside
    [T_FLOOR, t_max].
    """
    c = formula_prefactor(p, n)
    gamma = p.gamma
    # t^{3/2} = c e^{gamma t/2} is u e^u = z with u = -gamma t/3; z = -0.0
    # (c underflowed) puts the root at t = inf
    z = -(gamma / 3.0) * c ** (2.0 / 3.0)
    if not -INV_E <= z < 0.0:
        return None
    t = -3.0 / gamma * lambertw_m1(z)
    return t if T_FLOOR <= t <= p.t_max else None


@dataclass(frozen=True)
class FormulaResolution:
    sites: Tuple[int, ...]
    measured_times: Tuple[float, ...]
    measured_densities: Tuple[float, ...]
    predicted_times: Tuple[Optional[float], ...]


def resolve_formula_reading(
    p: LatticeParams, sites: Sequence[int] = (5, 10, 15)
) -> FormulaResolution:
    """Measured envelope crossings next to the derived transition times.

    A check of formula_prefactor against the density itself: the crossing
    of the fitted exponential and power-law envelope lines at each site
    beside the formula's root there.
    """
    sites = tuple(int(n) for n in sites)
    crossings = [measured_envelope_crossing(p, n) for n in sites]
    return FormulaResolution(
        sites=sites,
        measured_times=tuple(c.t for c in crossings),
        measured_densities=tuple(c.density for c in crossings),
        predicted_times=tuple(lattice_transition_time(p, n) for n in sites),
    )
