"""Locate the exponential-to-algebraic transition of the decaying source.

The pole (resonance) and saddle (algebraic) densities cross where their
modulus ratio R(x, t) equals one. This module finds that crossing in time
at fixed x, the x that minimizes it, the largest x for which it exists at
all, and the purely-non-exponential threshold, all from the closed form

    ln R = ln(2 sqrt(pi) |k0|^2) - ln x - (ln t)/2 + 2 k0I t - k0I x + ln|t^2 - tau^2|

with tau = x/(2 k0). With a = Re tau^2 > 0 and b = |tau|^4, t |t^2 - tau^2|^2
d(ln R)/dt is the quintic 2 k0I t^5 + 1.5 t^4 - 4 k0I a t^3 - a t^2 + 2 k0I b t
- b/2, whose signs run - + + - - -: by Descartes' rule R has at most one
local maximum t_M in t > 0 and falls strictly after it. The local minimum
before t_M always lies before the pole crossing t_c = x/(2(1 + k0I)) (in
t = x u the roots solve x = h(u) for an h of k0I alone, and t_c/x lies past
h's peak), so the transition, the last downward crossing after t_c, is the
one root in [max(t_c, t_M), inf) and exists iff R >= 1 there. The late-time
reduction has a concave log-residual peaking at 3/gamma, which takes t_M's place.

Along t = t_c(x) the ratio tau/t_c = (1 + k0I)/(1 + i k0I) is fixed, so
g(x) = ln R(x, t_c) = C + (ln x)/2 - beta x with beta = k0I^2/(1 + k0I) and
C = ln(2 sqrt(pi) |k0|^2) - 1.5 ln(2(1 + k0I)) + ln|1 - (tau/t_c)^2|. R already
falls at t_c wherever x >= x_max / 2.44, so max R over t > t_c is e^g near
x_max and x_max = -W_{-1}(-2 beta e^{-2C})/(2 beta); the argument reduces to
-2(1 + k0I)^2/(pi((2 + k0I)^2 + k0I^2)), in [-1/(2 pi), 0).

The turning point of t_p(x) solves {ln R = 0, d(ln R)/dx = 0} by Newton's
method in (x, t). With s0 = 1/(4 k0^2) and q = t^2 - s0 x^2 the partials are
d/dx = -1/x - k0I + Re(-2 s0 x/q), d/dt = -1/(2t) + 2 k0I + Re(2t/q),
d2/dx2 = 1/x^2 + Re(-2 s0/q - 4 s0^2 x^2/q^2) and d2/dxdt = Re(4 s0 x t/q^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .source_model import (
    SADDLE_SINGULAR_TOL,
    SingularConfigurationError,
    SourceParams,
    SpaceTimePoint,
    kernel,
    pole_crossing_time,
)
from .specfun import lambertw_m1

ROOT_TOL = 1e-6          # |R - 1| at the reported transition time
NEWTON_STEPS = 50        # turning-point iteration cap


@dataclass(frozen=True)
class TransitionPoint:
    x: float
    t_p: float
    density_raw: float
    density_normalized: float
    method: str          # "exact_ratio" or "late_time"
    valid: bool
    residual: float      # |R - 1| for exact_ratio, equation residual for late_time


def _ratio_vec(p: SourceParams, x, ts):
    """Pole/saddle modulus ratio over broadcast x and t.

    Near t_c, |t^2 - tau^2| is of order |k0I| t^2; formed in complex
    arithmetic it keeps a relative rounding of about eps/|k0I|, where the
    expanded t^4 + |tau|^4 - 2 Re(tau^2) t^2 would lose eps/k0I^2.
    """
    tau = x / (2.0 * p.k0)
    pref = 2.0 * math.sqrt(math.pi) * abs(p.k0) ** 2 / x
    return pref * np.exp(2.0 * p.k0I * ts - p.k0I * x) * np.abs(ts * ts - tau * tau) / np.sqrt(ts)


def ratio_R(p: SourceParams, pt: SpaceTimePoint) -> float:
    """R = 2 sqrt(pi) |k0|^2 |t^2 - tau^2| / (x sqrt(t)) * e^{2 k0I t - k0I x}.

    This is |pole|/|saddle| identically away from the saddle's singular
    locus t^2 = tau^2, where it raises.
    """
    if pt.x <= 0.0:
        raise ValueError("ratio is defined for x > 0")
    tau = pt.x / (2.0 * p.k0)
    if abs(pt.t * pt.t - tau * tau) < SADDLE_SINGULAR_TOL:
        raise SingularConfigurationError(f"ratio singular at (x={pt.x!r}, t={pt.t!r})")
    return float(_ratio_vec(p, pt.x, pt.t))


def _crossing_value(p: SourceParams, x, ts, method: str):
    """Positive while the pole dominates, negative after the transition.

    exact_ratio gives R - 1; late_time gives the relative residual of the
    t >> |tau| reduction t^{3/2} = x e^{k0I x} e^{gamma t/2} / (2 sqrt(pi) |k0|^2).
    """
    if method == "exact_ratio":
        return _ratio_vec(p, x, ts) - 1.0
    log_c = np.log(x / (2.0 * math.sqrt(math.pi) * abs(p.k0) ** 2)) + p.k0I * x
    return np.expm1(1.5 * np.log(ts) - (log_c + 0.5 * p.gamma_rate * ts))


def _ratio_peak(p: SourceParams, xs: np.ndarray) -> np.ndarray:
    """t_M per x (0 where R has no local maximum): x times the largest
    positive real root of the quintic in u = t/x, from its companion matrix."""
    s0 = 1.0 / (4.0 * p.k0 * p.k0)
    a, b, k = s0.real, abs(s0) ** 2, p.k0I
    lead = 2.0 * k * xs
    comp = np.zeros(xs.shape + (5, 5))
    comp[..., 1:, :-1] = np.eye(4)
    # last column: minus the monic coefficients of u^0 .. u^4
    comp[..., 4] = np.stack([0.5 * b / lead, -b * np.ones_like(xs), a / lead,
                             2.0 * a * np.ones_like(xs), -1.5 / lead], axis=-1)
    lam = np.linalg.eigvals(comp)
    # a near-double root may come out as a complex pair: R is monotone through it
    return xs * np.where((lam.imag == 0.0) & (lam.real > 0.0), lam.real, 0.0).max(axis=-1)


# a closed form needs no cache, but the benchmark harness reads this
# function's cache_info(), so it keeps its name and lru_cache
@lru_cache(maxsize=256)
def _n_total_cached(k0I: float) -> float:
    return SourceParams(k0I).n_total


def transition_times(
    p: SourceParams, xs, method: str = "exact_ratio"
) -> List[TransitionPoint]:
    """Transition point per x of a grid; t_p is nan and invalid where none exists.

    t_p is the time where R falls through 1 (the downward crossing; the
    upward crossing right after the pole first appears is not a transition)
    at t > x/(2(1 + k0I)). Past s = max(t_c, t_M) the crossing value falls
    strictly (module docstring), so a root exists iff it is >= -ROOT_TOL at s;
    all rows bisect [s, 2^j s] together until |R - 1| < ROOT_TOL. method
    "late_time" solves the t >> |tau| reduction (see _crossing_value) and
    reports its residual.
    """
    if method not in ("exact_ratio", "late_time"):
        raise ValueError(f"unknown method {method!r}")
    xs = np.asarray(xs, dtype=float)
    if not ((xs > 0.0) & (xs < math.inf)).all():
        raise ValueError("transition_time requires finite x > 0")
    peak = _ratio_peak(p, xs) if method == "exact_ratio" else 3.0 / p.gamma_rate
    a = np.maximum(pole_crossing_time(p, xs), peak)
    # at x_max the root sits at t_c itself, where rounding decides the sign
    found = _crossing_value(p, xs, a, method) >= -ROOT_TOL
    b = 2.0 * a
    up = np.flatnonzero(found)
    while up.size:
        up = up[_crossing_value(p, xs[up], b[up], method) >= 0.0]
        a[up] = b[up]
        b[up] *= 2.0

    t_p, residual = np.full(xs.shape, math.nan), np.full(xs.shape, math.nan)
    active = np.flatnonzero(found)
    for _ in range(200):
        if active.size == 0:
            break
        mid = 0.5 * (a[active] + b[active])
        val = _crossing_value(p, xs[active], mid, method)
        res = np.abs(val)
        t_p[active] = mid
        residual[active] = res
        going = res >= ROOT_TOL
        above = val >= 0.0
        a[active[going & above]] = mid[going & above]
        b[active[going & ~above]] = mid[going & ~above]
        active = active[going]

    rho = np.full(xs.shape, math.nan)
    if found.any():
        rho[found] = np.abs(kernel(p, xs[found], t_p[found]).psi) ** 2
    # brackets start at t_c or later and mid > a, so every root is pole-crossed (valid)
    rows = zip(xs.tolist(), t_p.tolist(), rho.tolist(), (rho / _n_total_cached(p.k0I)).tolist(),
               found.tolist(), residual.tolist())
    return [TransitionPoint(x, t, r, rn, method, ok, res) for x, t, r, rn, ok, res in rows]


def transition_time(
    p: SourceParams, x: float, method: str = "exact_ratio"
) -> TransitionPoint:
    """Transition time t_p at fixed x, or an invalid point if none exists."""
    return transition_times(p, [x], method)[0]


def _log_ratio_partials(p: SourceParams, x: float, t: float):
    """ln R and its partials d/dx, d/dt, d2/dx2, d2/dxdt at one (x, t)."""
    s0, k = 1.0 / (4.0 * p.k0 * p.k0), p.k0I
    q = t * t - s0 * x * x
    d_x = -1.0 / x - k + (-2.0 * s0 * x / q).real
    d_t = -0.5 / t + 2.0 * k + (2.0 * t / q).real
    d_xx = 1.0 / (x * x) + (-2.0 * s0 / q - 4.0 * (s0 * x / q) ** 2).real
    d_xt = (4.0 * s0 * x * t / (q * q)).real
    return math.log(_ratio_vec(p, x, t)), d_x, d_t, d_xx, d_xt


def tp_turning_point(p: SourceParams) -> float:
    """x that minimizes t_p(x) over (0, x_max]; expected near 1/|k0I|.

    dt_p/dx has the sign of d(ln R)/dx, since R falls through 1 at t_p. If
    t_p still falls at x_max (it does at k0I -0.9: the stationary point lies
    past x_max, where no transition exists), x_max is returned. Otherwise
    Newton's method solves {ln R = 0, d(ln R)/dx = 0} in (x, t) from
    x0 = min(1/|k0I|, x_max/2), t0 = t_p(x0), in 4-7 steps.
    """
    x_max, t_max = critical_distance(p)
    if _log_ratio_partials(p, x_max, t_max)[1] < 0.0:
        return x_max
    x = min(1.0 / abs(p.k0I), 0.5 * x_max)
    t = transition_time(p, x).t_p
    for _ in range(NEWTON_STEPS):
        f, f_x, f_t, f_xx, f_xt = _log_ratio_partials(p, x, t)
        det = f_x * f_xt - f_t * f_xx
        dx, dt = (f_t * f_x - f * f_xt) / det, (f * f_xx - f_x * f_x) / det
        x, t = x + dx, t + dt
        if abs(dx) <= 1e-12 * x and abs(dt) <= 1e-12 * t:
            return x
    raise RuntimeError(f"turning-point Newton iteration did not converge at k0I={p.k0I!r}")


def max_distance(p: SourceParams) -> float:
    """Largest x admitting a transition: the closed form of the module docstring."""
    k = p.k0I
    z = -2.0 * (1.0 + k) ** 2 / (math.pi * ((2.0 + k) ** 2 + k * k))
    return -lambertw_m1(z) * (1.0 + k) / (2.0 * k * k)


def critical_distance(p: SourceParams) -> Tuple[float, float]:
    """Largest x admitting a transition, with its t_p.

    x_max is max_distance(p). It solves ln R(x, t_c(x)) = 0 and R falls
    after t_c there (module docstring), so the transition at x_max sits at
    t_c itself; t_p is the smallest double above t_c, the t_c+ limit in
    which the pole part is present.
    """
    x_max = max_distance(p)
    return x_max, math.nextafter(pole_crossing_time(p, x_max), math.inf)


def jittoh_criterion(p: SourceParams) -> Tuple[float, bool]:
    """Decay-rate to level-spacing quotient 4|k0I| and the >= 2 threshold."""
    q = 4.0 * abs(p.k0I)
    return q, q >= 2.0


@dataclass(frozen=True)
class CriticalDensityPoint:
    k0I: float
    x_max: float
    t_p: float
    density_exact: float
    density_approx: float
    valid: bool


def critical_density_curve(
    params: Sequence[SourceParams], normalized: bool = True
) -> List[CriticalDensityPoint]:
    """Density at (x_max, t_p) for each parameter set.

    Exact and saddle-plus-pole densities are both reported, divided by the
    emitted norm when normalized is set. x_max is closed-form and exists at
    every -1 < k0I < 0, so every point is valid.
    """
    out: List[CriticalDensityPoint] = []
    for p in params:
        x_max, t_p = critical_distance(p)
        w = kernel(p, x_max, t_p)
        # t_p > t_c, so the pole is present; the saddle part is nan on its
        # singular locus, and so is the approximation
        approx = w.saddle + w.pole
        n = _n_total_cached(p.k0I) if normalized else 1.0
        out.append(CriticalDensityPoint(
            p.k0I, x_max, t_p, abs(w.psi) ** 2 / n, abs(approx) ** 2 / n, True))
    return out
