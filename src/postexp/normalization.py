"""Emitted-norm bookkeeping for the decaying source.

The source injects probability at x = 0; the total ever emitted is the time
integral of the boundary current J(0, t). That integral equals 2/gamma
analytically, but total_emitted recomputes it numerically so the identity
stays a cross-check instead of an assumption.

The time integral is taken in u = sqrt(t), where the t^{-1/2} onset of J
becomes a smooth integrand 2u J(0, u^2), by a composite 20-point
Gauss-Legendre rule: one vectorized boundary_current call over all nodes.
Its error estimate is the difference from the same rule on panels twice
as wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .source_model import SourceParams, SpaceTimePoint, kernel

T_CUT_TAU0_MULTIPLE = 50.0
SMALL_T_FLOOR = 1e-8         # below this the t^{-1/2} onset is integrated analytically
PANEL_WIDTH = 0.5            # Gauss-Legendre panel width in u = sqrt(t)
GAUSS_ORDER = 20
PANEL_BLOCK = 4096           # panels per boundary_current call, bounding memory
MAX_PANELS = 2 ** 18         # beyond this (|k0I| below ~7e-10) the rule refuses


class InternalConsistencyError(Exception):
    """The computed norm violated a property it must have (e.g. positivity)."""


@dataclass(frozen=True)
class NormalizationResult:
    n_total: float
    t_cut: float
    tail_estimate: float
    abs_error_estimate: float
    tail_exponent: Optional[float]
    tail_flagged: bool


def boundary_current(p: SourceParams, t):
    """J(0, t) = 2 Im[psi* dpsi/dx] at x = 0, scalar or array t; ~ sqrt(2/(pi t)) as t -> 0+."""
    w = kernel(p, 0.0, t, derivative=True)
    return 2.0 * (w.psi.conjugate() * w.dpsi_dx).imag


def _current_integral(p: SourceParams, u0: float, u1: float, panels: int) -> float:
    """Integral of J(0, t) over t in [u0^2, u1^2] as 2u J(0, u^2) du, by the
    composite Gauss-Legendre rule on equal panels."""
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    edges = np.linspace(u0, u1, panels + 1)
    total = 0.0
    for i in range(0, panels, PANEL_BLOCK):
        block = edges[i : i + PANEL_BLOCK + 1]
        half = 0.5 * np.diff(block)[:, None]
        u = block[:-1, None] + half * (nodes + 1.0)
        total += float(np.sum(half * weights * 2.0 * u * boundary_current(p, u * u)))
    return total


def _fine_panels(u0: float, u1: float) -> int:
    """An even panel count with panels at most PANEL_WIDTH wide, so that
    joining neighbours gives the same rule at twice the width."""
    panels = 2 * max(1, math.ceil((u1 - u0) / (2.0 * PANEL_WIDTH)))
    if panels > MAX_PANELS:
        raise InternalConsistencyError(
            f"the current integral up to t = {u1 * u1:.3e} needs {panels} panels, "
            f"more than {MAX_PANELS}"
        )
    return panels


def total_emitted(p: SourceParams) -> NormalizationResult:
    """Integrate J(0, t) over all time.

    Substituting t = u^2 removes the integrable onset singularity, and the
    head [SMALL_T_FLOOR, t_cut] is the composite Gauss-Legendre rule in u;
    its error estimate |rule(h) - rule(2h)| must stay below 1e-6 of the
    head. The remaining [0, SMALL_T_FLOOR] sliver uses the analytic onset
    form, and the region beyond t_cut = 50 tau0 is a fitted power-law tail.
    The tail fit is flagged (and dropped) when the late current is too small
    or too erratic to fit, which costs nothing at the 1e-6 relative level.
    """
    t_cut = T_CUT_TAU0_MULTIPLE * p.tau0
    u0, u1 = math.sqrt(SMALL_T_FLOOR), math.sqrt(t_cut)
    panels = _fine_panels(u0, u1)
    head = _current_integral(p, u0, u1, panels)
    head_err = abs(head - _current_integral(p, u0, u1, panels // 2))
    # J ~ sqrt(2/(pi t)) at small t, so the [0, floor] slice is 2 sqrt(2 floor / pi);
    # the relative deviation from that law is <= 10 t over (-1, 0), making the
    # slice's own error bound onset * 10 * floor
    onset = 2.0 * math.sqrt(2.0 * SMALL_T_FLOOR / math.pi)
    onset_err = onset * 10.0 * SMALL_T_FLOOR

    tail, tail_exp, flagged = _tail_fit(p, t_cut)
    n = head + onset + tail
    if not (n > 0.0) or not math.isfinite(n):
        raise InternalConsistencyError(f"emitted norm came out {n!r}")
    if head_err > 1e-6 * max(abs(head), 1.0):
        raise InternalConsistencyError(
            f"quadrature did not converge: error {head_err:.3e} on partial sums "
            f"head={head!r}, onset={onset!r}, tail={tail!r}"
        )
    if abs(tail) > 0.01 * n:
        flagged = True
    abs_err = head_err + onset_err + (abs(tail) if flagged else 0.1 * abs(tail))
    return NormalizationResult(
        n_total=n,
        t_cut=t_cut,
        tail_estimate=tail,
        abs_error_estimate=abs_err,
        tail_exponent=tail_exp,
        tail_flagged=flagged,
    )


def _tail_fit(p: SourceParams, t_cut: float):
    """Power-law extrapolation of J over the last decade before t_cut.

    The true tail decays like e^{-gamma t / 2} t^{-3/2} and oscillates
    through zero, so only strictly positive samples enter the log-log fit.
    A steep fitted exponent p makes the extrapolated integral
    C t_cut^{p+1} / (-(p+1)) negligible, which is the expected outcome.
    """
    ts = np.geomspace(t_cut / 10.0, t_cut, 30)
    js = boundary_current(p, ts)
    mask = js > 0.0
    if mask.sum() < 6:
        return 0.0, None, True
    lt = np.log(ts[mask])
    lj = np.log(js[mask])
    slope, intercept = np.polyfit(lt, lj, 1)
    if slope >= -1.0:
        return 0.0, float(slope), True
    c = math.exp(intercept)
    tail = c * t_cut ** (slope + 1.0) / (-(slope + 1.0))
    return float(tail), float(slope), False


def emitted_by_time(p: SourceParams, T: float) -> float:
    """Norm emitted up to time T (no tail term)."""
    if T <= 0.0:
        return 0.0
    lo, hi = math.sqrt(min(SMALL_T_FLOOR, T)), math.sqrt(T)
    head = _current_integral(p, lo, hi, _fine_panels(lo, hi))
    onset = 2.0 * math.sqrt(2.0 * min(SMALL_T_FLOOR, T) / math.pi)
    return head + onset


def spatial_norm(p: SourceParams, T: float) -> float:
    """Integral of |psi(x, T)|^2 over x >= 0.

    Fringes live in x < 2T; beyond that the density settles onto the
    switch-on transient 4T/(pi x^2), so the far range is integrated on a
    grid and closed with a fitted C/x tail. Conservation against
    emitted_by_time holds at the 1e-4 level.
    """
    if T <= 0.0:
        return 0.0

    def rho(x):
        return np.abs(kernel(p, x, T).psi) ** 2

    from scipy.integrate import quad

    near, _ = quad(rho, 0.0, 2.0 * T, limit=800)
    x_big = 40.0 * T + 200.0
    far, _ = quad(rho, 2.0 * T, x_big, limit=800)
    xs = np.linspace(x_big * 0.85, x_big, 40)
    c = float(np.mean(rho(xs) * xs * xs))
    tail = c / x_big
    return near + far + tail


def normalized_density(p: SourceParams, pt: SpaceTimePoint, n_total: Optional[float] = None) -> float:
    """|psi|^2 / n_total at one point."""
    if n_total is None:
        n_total = total_emitted(p).n_total
    return abs(kernel(p, pt.x, pt.t).psi) ** 2 / n_total
