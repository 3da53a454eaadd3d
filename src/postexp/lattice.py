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

The transition equation t^{3/2} = C e^{gamma t/2} is a Lambert-W equation,
solved in closed form by specfun.lambertw_m1.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import ComputationError, UsageError
from .specfun import INV_E, lambertw_m1

ENVELOPE_STEP = 0.05
REFLECTION_MARGIN = 20   # sites beyond 2*t_max (group velocity 2)
BLOCK_BYTES = 4 << 20    # complex phase rows held at once by site_density
T_FLOOR = 1e-2           # earliest admissible formula transition time
# the CLI summary's tail fit holds two phase matrices of about 90 t_max^1.5
# bytes each; at this chain, the default for t_max = 9980, `lattice` peaks
# near 0.3 GB RSS
MAX_SITES = 20_000


class TruncationUnsoundError(UsageError):
    """The chain is too short for the requested horizon; reflections would arrive."""

    def __init__(self, required_n_sites: int, n_sites: int, t_max: float):
        self.required_n_sites = required_n_sites
        super().__init__(
            f"n_sites={n_sites} cannot hold t_max={t_max}: "
            f"need n_sites >= {required_n_sites}"
        )


class InsufficientWindowError(ComputationError):
    """The evolution horizon is too short to isolate the requested fit window."""


class _LatticeFields(NamedTuple):
    delta: float
    n_sites: int
    t_max: float


class LatticeParams(_LatticeFields):
    """The truncated chain. An immutable tuple; the constructor, _make and
    _replace all check it."""

    __slots__ = ()

    def __new__(cls, delta: float, n_sites: int, t_max: float):
        if not (0.0 < delta <= 1.0):
            raise ValueError(f"delta must be in (0, 1]; got {delta!r}")
        if not (isinstance(n_sites, int) and n_sites >= 10):
            raise ValueError(f"n_sites must be an integer >= 10; got {n_sites!r}")
        if n_sites > MAX_SITES:
            raise ValueError(f"n_sites={n_sites} exceeds MAX_SITES={MAX_SITES} "
                             f"(the default chain for t_max = {MAX_SITES / 2 - REFLECTION_MARGIN:g})")
        if not (t_max > 0.0 and math.isfinite(t_max)):
            raise ValueError(f"t_max must be positive and finite; got {t_max!r}")
        required = required_sites(t_max)
        if n_sites < required:
            raise TruncationUnsoundError(required, n_sites, t_max)
        return super().__new__(cls, delta, n_sites, t_max)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

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


def evolve(p: LatticeParams, times: Sequence[float]) -> np.ndarray:
    """Amplitudes c_n of exp(-iHt)|site 1>, (times x sites), column 0 site 1."""
    ts = np.asarray(times, dtype=float)
    _check_times(p, ts)
    energies, modes = _modes(p.delta, p.n_sites)
    weights = modes * modes[0, :]              # (n, k): <n|k><k|1>
    return np.exp(-1j * np.outer(ts, energies)) @ weights.T


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
        raise InsufficientWindowError("fewer than two envelope points")
    return float(np.polyfit(np.log(te), np.log(ve), 1)[0])


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
