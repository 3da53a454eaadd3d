"""Tight-binding chain analogue of the decaying source.

A semi-infinite chain with a weakened first hop delta traps most of the
initial site-1 amplitude in a long-lived resonance; site index plays the
role of detector distance. The chain is truncated to n_sites and evolved
by full eigendecomposition of the symmetric tridiagonal Hamiltonian (first
off-diagonal -delta, all others -1), which is exact up to truncation: a
reflection guard keeps the horizon causally disconnected from the cut.

A site amplitude is the mode sum c_n(t) = sum_k V[0,k] V[n-1,k] e^{-i E_k t}.
On a uniform grid t0 + m dt (the envelope fits and the CLI's default grid)
uniform_site_density splits m = b B + j with B = ceil(sqrt(count)) and sums
the modes as one (blocks x modes) @ (modes x B) product, so it takes
O(sqrt(count) n_sites) exponentials and memory instead of count n_sites.
Arbitrary time lists go through site_density, which evaluates the same sum
directly in row blocks of at most BLOCK_BYTES of phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

ENVELOPE_STEP = 0.05
MIN_EXP_MAXIMA = 6       # local maxima needed for the exponential-window fit
MIN_POWER_MAXIMA = 4
REFLECTION_MARGIN = 20   # sites beyond 2*t_max (group velocity 2)
BLOCK_BYTES = 4 << 20    # complex phase rows held at once by site_density
READINGS = ("alpha_in_numerator", "alpha_in_denominator")


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
    def for_horizon(cls, delta: float, t_max: float, margin: int = 40) -> "LatticeParams":
        return cls(delta=delta, n_sites=int(math.ceil(2.0 * t_max)) + margin, t_max=t_max)

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
    from scipy.linalg import eigh_tridiagonal

    diag = np.zeros(n_sites)
    off = -np.ones(n_sites - 1)
    off[0] = -delta
    energies, modes = eigh_tridiagonal(diag, off)
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
    energies, modes = _spectral_data(p.delta, p.n_sites)
    weights = modes * modes[0, :]              # (n, k): <n|k><k|1>
    phases = np.exp(-1j * np.outer(ts, energies))
    states = phases @ weights.T
    return [LatticeState(t=float(t), amplitudes=states[i]) for i, t in enumerate(ts)]


def _mode_weights(p: LatticeParams, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Energies and weights <n|k><k|1> of the mode sum for c_n."""
    if not (1 <= n <= p.n_sites):
        raise ValueError(f"site index {n} outside 1..{p.n_sites}")
    energies, modes = _spectral_data(p.delta, p.n_sites)
    return energies, modes[0, :] * modes[n - 1, :]


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
    energies, modes = _spectral_data(p.delta, p.n_sites)
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
    contaminating the fit.
    """
    if window is None:
        window = (5.0, min(12.0 / p.gamma, 0.9 * p.t_max))
    lo, hi = window
    if not (0.0 <= lo < hi <= p.t_max):
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

    def gap(t):
        return (exp_fit[0] * t + exp_fit[1]) - (power_fit[0] * np.log(t) + power_fit[1])

    grid = np.linspace(te[i0], te[-1], 4000)
    vals = gap(grid)
    down = np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))
    if down.size == 0:
        raise InsufficientWindowError(f"fitted envelopes do not cross at site {n}")
    from scipy.optimize import brentq

    k = down[-1]
    t_cross = brentq(gap, grid[k], grid[k + 1])
    rho = math.exp(power_fit[0] * math.log(t_cross) + power_fit[1])
    return EnvelopeCrossing(
        t=float(t_cross),
        density=rho,
        exp_window=(float(te[i0]), float(te[i1])),
        power_window=(float(te[j0]), float(te[j1])),
        exp_slope=float(exp_fit[0]),
        power_slope=float(power_fit[0]),
    )


def formula_prefactor(p: LatticeParams, n: int, reading: str) -> float:
    """Prefactor of the site-n transition equation t^{3/2} = C e^{gamma t/2}.

    The typeset source of this formula is ambiguous about whether the factor
    2 alpha^{n+1} multiplies or divides; both readings are supported and
    resolve_formula_reading settles it empirically.
    """
    if reading not in READINGS:
        raise ValueError(f"unknown reading {reading!r}")
    a2 = p.alpha_sq
    alpha = p.alpha
    base = (n + a2 * (n - 2)) / (math.sqrt(math.pi) * (1.0 + a2) ** 3)
    if reading == "alpha_in_numerator":
        return base * 2.0 * alpha ** (n + 1)
    return base / (2.0 * alpha ** (n + 1))


def lattice_transition_time(
    p: LatticeParams, n: int, reading: str = "alpha_in_numerator"
) -> Optional[float]:
    """Smallest admissible root of the site-n transition equation, or None.

    g(t) = t^{3/2} - C e^{gamma t/2} is negative at both ends when a root
    pair exists; the admissible (exponential giving way to power) root is
    the downward crossing, i.e. the larger of the pair.
    """
    if n < 2:
        raise ValueError("transition formula needs site index n >= 2")
    c = formula_prefactor(p, n, reading)
    gamma = p.gamma
    grid = np.geomspace(1e-2, p.t_max, 4000)
    vals = grid ** 1.5 - c * np.exp(0.5 * gamma * grid)

    def g(t: float) -> float:
        return t ** 1.5 - c * math.exp(0.5 * gamma * t)

    down = np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0))
    if down.size == 0:
        return None
    from scipy.optimize import brentq

    k = down[0]
    return float(brentq(g, grid[k], grid[k + 1]))


@dataclass(frozen=True)
class FormulaResolution:
    reading: str
    sites: Tuple[int, ...]
    measured_times: Tuple[float, ...]
    measured_densities: Tuple[float, ...]
    predicted_numerator: Tuple[Optional[float], ...]
    predicted_denominator: Tuple[Optional[float], ...]
    spread_numerator: float
    spread_denominator: float


def resolve_formula_reading(
    p: LatticeParams, sites: Sequence[int] = (5, 10, 15)
) -> FormulaResolution:
    """Pick the transition-formula reading that tracks the measured crossings.

    Scored by the spread (std) of log(measured/predicted) across sites, with
    mean |log| as tie-break: the envelope measurement carries a uniform late
    bias, so cross-site consistency discriminates better than any single
    site's absolute error.
    """
    sites = tuple(int(n) for n in sites)
    if len(sites) < 2:
        raise ValueError("need at least two sites to resolve the reading")
    crossings = [measured_envelope_crossing(p, n) for n in sites]
    measured = tuple(c.t for c in crossings)
    preds = {}
    scores = {}
    for reading in READINGS:
        ts = tuple(lattice_transition_time(p, n, reading) for n in sites)
        preds[reading] = ts
        if any(t is None for t in ts):
            scores[reading] = (math.inf, math.inf)
            continue
        logs = np.log(np.array(measured) / np.array(ts, dtype=float))
        scores[reading] = (float(np.std(logs)), float(np.mean(np.abs(logs))))
    chosen = min(READINGS, key=lambda r: scores[r])
    return FormulaResolution(
        reading=chosen,
        sites=sites,
        measured_times=measured,
        measured_densities=tuple(c.density for c in crossings),
        predicted_numerator=preds["alpha_in_numerator"],
        predicted_denominator=preds["alpha_in_denominator"],
        spread_numerator=scores["alpha_in_numerator"][0],
        spread_denominator=scores["alpha_in_denominator"][0],
    )
