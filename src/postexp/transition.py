"""Locate the exponential-to-algebraic transition of the decaying source.

The pole (resonance) and saddle (algebraic) densities cross where their
modulus ratio R(x, t) equals one. This module finds that crossing in time
at fixed x, the x that minimizes it, the largest x for which it exists at
all, and the purely-non-exponential threshold.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize_scalar

from .source_model import (
    SADDLE_SINGULAR_TOL,
    SingularConfigurationError,
    SourceParams,
    SpaceTimePoint,
    kernel,
    pole_crossing_time,
)

ROOT_TOL = 1e-6          # |R - 1| at the reported transition time
BISECT_REL_TOL = 1e-3    # relative tolerance of the critical-distance bisection
SCAN_CEILING_FACTOR = 100.0
SCAN_ROWS = 256          # x rows scanned at once (each row holds 720 times)


class RangeExhaustedError(Exception):
    """Every scanned x still admits a transition; the true limit is beyond the ceiling."""

    def __init__(self, ceiling: float):
        self.ceiling = ceiling
        super().__init__(
            f"transition exists at every x scanned up to the ceiling {ceiling!r}"
        )


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
    """Pole/saddle modulus ratio over broadcast x and t."""
    k0 = p.k0
    tau = x / (2.0 * k0)
    abs_tau2 = abs(tau) ** 2
    re_tau2 = (tau * tau).real
    t2 = ts * ts
    bracket = np.maximum(1.0 + (abs_tau2 * abs_tau2) / (t2 * t2) - 2.0 * re_tau2 / t2, 0.0)
    pref = 2.0 * math.sqrt(math.pi) * abs(k0) ** 2 / x
    return pref * ts ** 1.5 * np.exp(2.0 * p.k0I * ts - p.k0I * x) * np.sqrt(bracket)


def ratio_R(p: SourceParams, pt: SpaceTimePoint) -> float:
    """R = 2 sqrt(pi) |k0|^2 t^{3/2} / x * e^{2 k0I t - k0I x} * sqrt(B).

    B = 1 + |tau|^4/t^4 - 2 Re(tau^2)/t^2 = |t^2 - tau^2|^2 / t^4, so the
    ratio equals |pole|/|saddle| identically away from the singular locus.
    """
    if pt.x <= 0.0:
        raise ValueError("ratio is defined for x > 0")
    tau = pt.x / (2.0 * p.k0)
    if abs(pt.t * pt.t - tau * tau) < SADDLE_SINGULAR_TOL:
        raise SingularConfigurationError(f"ratio singular at (x={pt.x!r}, t={pt.t!r})")
    return float(_ratio_vec(p, pt.x, pt.t))


def _scan_grid(p: SourceParams, x: np.ndarray) -> np.ndarray:
    """Sorted scan times, one row per x; times at or before t_c are nan.

    Each row is a 600-point geometric grid from a tenth of max(x/2, 0.01)
    to 1e3/gamma plus 120 points clustered just after the pole crossing.
    """
    t_cross = pole_crossing_time(p, x)[:, None]
    lo = np.maximum(x / 2.0, 0.01) * 0.1
    hi = 1e3 / p.gamma_rate
    base = np.geomspace(lo, np.maximum(hi, lo * 10.0), 600, axis=-1)
    onset = t_cross * (1.0 + np.geomspace(1e-4, 1.0, 120))
    ts = np.sort(np.concatenate([base, onset], axis=1), axis=1)
    ts[ts <= t_cross] = math.nan
    return ts


def _crossing_value(p: SourceParams, x, ts, method: str):
    """Positive while the pole dominates, negative after the transition.

    exact_ratio gives R - 1; late_time gives the log-residual of the
    t >> |tau| reduction t^{3/2} = x e^{k0I x} e^{gamma t/2} / (2 sqrt(pi) |k0|^2).
    """
    if method == "exact_ratio":
        return _ratio_vec(p, x, ts) - 1.0
    log_c = np.log(x / (2.0 * math.sqrt(math.pi) * abs(p.k0) ** 2)) + p.k0I * x
    return 1.5 * np.log(ts) - (log_c + 0.5 * p.gamma_rate * ts)


def _brackets(p: SourceParams, xs: np.ndarray, method: str):
    """Per x, the scan interval (a, b) of the last downward crossing (valid where found).

    Rows are scanned SCAN_ROWS at a time so memory stays bounded.
    """
    a, b = np.empty(xs.shape), np.empty(xs.shape)
    found = np.empty(xs.shape, dtype=bool)
    for lo in range(0, xs.size, SCAN_ROWS):
        blk = slice(lo, lo + SCAN_ROWS)
        ts = _scan_grid(p, xs[blk])
        vals = _crossing_value(p, xs[blk, None], ts, method)
        # nan rows of the grid never compare true, so t <= t_c is skipped
        flips = (vals[:, :-1] >= 0.0) & (vals[:, 1:] < 0.0)
        last = flips.shape[1] - 1 - np.argmax(flips[:, ::-1], axis=1)
        rows = np.arange(ts.shape[0])
        found[blk], a[blk], b[blk] = flips[rows, last], ts[rows, last], ts[rows, last + 1]
    return a, b, found


@lru_cache(maxsize=256)
def _n_total_cached(k0I: float) -> float:
    from .normalization import total_emitted

    return total_emitted(SourceParams(k0I)).n_total


def transition_times(
    p: SourceParams, xs, method: str = "exact_ratio"
) -> List[TransitionPoint]:
    """Transition point per x of a grid; t_p is nan and invalid where none exists.

    t_p is the time where R falls through 1 (the downward crossing; the
    upward crossing right after the pole first appears is not a transition),
    searched over pole-crossed times t > x/(2(1 + k0I)) only, so a root is
    valid exactly when a bracket exists. All rows bisect together inside
    their brackets until |R - 1| < ROOT_TOL. method "late_time" solves the
    t >> |tau| reduction (see _crossing_value) and reports its residual.
    """
    if method not in ("exact_ratio", "late_time"):
        raise ValueError(f"unknown method {method!r}")
    xs = np.asarray(xs, dtype=float)
    if not ((xs > 0.0) & (xs < math.inf)).all():
        raise ValueError("transition_time requires finite x > 0")
    a, b, found = _brackets(p, xs, method)
    t_p, residual = np.full(xs.shape, math.nan), np.full(xs.shape, math.nan)
    active = np.flatnonzero(found)
    for _ in range(200):
        if active.size == 0:
            break
        mid = 0.5 * (a[active] + b[active])
        val = _crossing_value(p, xs[active], mid, method)
        res = np.abs(val) if method == "exact_ratio" else np.abs(np.expm1(val))
        t_p[active] = mid
        residual[active] = res
        going = res >= ROOT_TOL
        above = val >= 0.0
        a[active[going & above]] = mid[going & above]
        b[active[going & ~above]] = mid[going & ~above]
        active = active[going]

    rho, n_total = np.full(xs.shape, math.nan), math.nan
    if found.any():
        rho[found] = np.abs(kernel(p, xs[found], t_p[found]).psi) ** 2
        n_total = _n_total_cached(p.k0I)
    # brackets start after t_c, so every found root is pole-crossed (valid)
    rows = zip(xs.tolist(), t_p.tolist(), rho.tolist(), (rho / n_total).tolist(),
               found.tolist(), residual.tolist())
    return [TransitionPoint(x, t, r, rn, method, ok, res) for x, t, r, rn, ok, res in rows]


def transition_time(
    p: SourceParams, x: float, method: str = "exact_ratio"
) -> TransitionPoint:
    """Transition time t_p at fixed x, or an invalid point if none exists."""
    return transition_times(p, [x], method)[0]


def tp_turning_point(p: SourceParams) -> float:
    """x that minimizes t_p(x); expected near 1/|k0I|.

    Scans a 30-point grid around 1/|k0I| and refines by bounded golden-style
    minimization between the argmin's neighbors. A non-unimodal grid falls
    back to the raw grid argmin and emits a warning.
    """
    scale = 1.0 / abs(p.k0I)
    xs = np.geomspace(0.1 * scale, 2.5 * scale, 30)
    tps = np.array([q.t_p for q in transition_times(p, xs)])
    if np.isnan(tps).any():
        warnings.warn("transition missing on part of the turning-point grid")
        tps = np.where(np.isnan(tps), np.inf, tps)
    i_min = int(np.argmin(tps))
    diffs = np.diff(tps)
    unimodal = bool(np.all(diffs[:i_min] < 0.0) and np.all(diffs[i_min:] > 0.0))
    if not unimodal:
        warnings.warn("t_p(x) grid is not unimodal; returning grid argmin")
        return float(xs[i_min])
    lo = xs[max(i_min - 1, 0)]
    hi = xs[min(i_min + 1, len(xs) - 1)]
    res = minimize_scalar(
        lambda x: transition_time(p, float(x)).t_p,
        bounds=(float(lo), float(hi)),
        method="bounded",
        options={"xatol": 1e-4 * scale},
    )
    return float(res.x)


def critical_distance(p: SourceParams) -> Tuple[float, float]:
    """Largest x admitting a transition, with its t_p.

    Grid-scan up to 100/|k0I| for the last x with a transition bracket and
    the first without, then bisect to relative 1e-3; every bracketed x has a
    valid (pole-crossed) root, so only the final x is refined. Raises
    RangeExhaustedError if even the ceiling still has a transition.
    """
    ceiling = SCAN_CEILING_FACTOR / abs(p.k0I)
    xs = np.geomspace(0.01 / abs(p.k0I), ceiling, 80)
    valid = _brackets(p, xs, "exact_ratio")[2]
    if valid.all():
        raise RangeExhaustedError(ceiling)
    if not valid[0]:
        raise RuntimeError("no transition found at any scanned x")
    i = int(np.flatnonzero(valid)[-1])
    lo, hi = float(xs[i]), float(xs[i + 1])
    while (hi - lo) / lo > BISECT_REL_TOL:
        mid = 0.5 * (lo + hi)
        if _brackets(p, np.array([mid]), "exact_ratio")[2][0]:
            lo = mid
        else:
            hi = mid
    return lo, transition_time(p, lo).t_p


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
    emitted norm when normalized is set. Points whose critical distance
    cannot be bracketed are flagged invalid and skipped, not fatal.
    """
    out: List[CriticalDensityPoint] = []
    for p in params:
        try:
            x_max, t_p = critical_distance(p)
        except RangeExhaustedError:
            out.append(
                CriticalDensityPoint(p.k0I, math.nan, math.nan, math.nan, math.nan, False)
            )
            continue
        w = kernel(p, x_max, t_p)
        # the saddle part is nan on its singular locus, and so is the approximation
        approx = w.saddle + w.pole if w.pole_crossed else w.saddle
        n = _n_total_cached(p.k0I) if normalized else 1.0
        out.append(CriticalDensityPoint(
            p.k0I, x_max, t_p, abs(w.psi) ** 2 / n, abs(approx) ** 2 / n, True))
    return out
