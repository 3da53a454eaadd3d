"""Emitted-norm bookkeeping for the decaying source.

The source injects probability at x = 0; the total ever emitted is the time
integral of the boundary current J(0, t). That integral equals 2/gamma
analytically, but total_emitted recomputes it numerically so the identity
stays a cross-check instead of an assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate

from .source_model import SourceParams, SpaceTimePoint, kernel

T_CUT_TAU0_MULTIPLE = 50.0
SMALL_T_FLOOR = 1e-8         # below this the t^{-1/2} onset is integrated analytically


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


def _current_in_u(u: float, p: SourceParams) -> float:
    """The integrand J(0, t) dt/du after t = u^2."""
    return 2.0 * u * boundary_current(p, u * u)


def total_emitted(p: SourceParams) -> NormalizationResult:
    """Integrate J(0, t) over all time.

    Substituting t = u^2 removes the integrable onset singularity; the
    remaining [0, SMALL_T_FLOOR] sliver uses the analytic onset form, and
    the region beyond t_cut = 50 tau0 is a fitted power-law tail. The tail
    fit is flagged (and dropped) when the late current is too small or too
    erratic to fit, which costs nothing at the 1e-6 relative level.
    """
    t_cut = T_CUT_TAU0_MULTIPLE * p.tau0
    head, head_err = integrate.quad(
        _current_in_u,
        math.sqrt(SMALL_T_FLOOR),
        math.sqrt(t_cut),
        args=(p,),
        limit=400,
        epsabs=1e-12,
        epsrel=1e-10,
    )
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
    lo = math.sqrt(min(SMALL_T_FLOOR, T))
    head, _ = integrate.quad(_current_in_u, lo, math.sqrt(T), args=(p,), limit=400)
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

    near, _ = integrate.quad(rho, 0.0, 2.0 * T, limit=800)
    x_big = 40.0 * T + 200.0
    far, _ = integrate.quad(rho, 2.0 * T, x_big, limit=800)
    xs = np.linspace(x_big * 0.85, x_big, 40)
    c = float(np.mean(rho(xs) * xs * xs))
    tail = c / x_big
    return near + far + tail


def normalized_density(p: SourceParams, pt: SpaceTimePoint, n_total: Optional[float] = None) -> float:
    """|psi|^2 / n_total at one point."""
    if n_total is None:
        n_total = total_emitted(p).n_total
    return abs(kernel(p, pt.x, pt.t).psi) ** 2 / n_total
