"""Emitted-norm bookkeeping for the decaying source.

The source injects probability at x = 0; the total ever emitted is the time
integral of the boundary current J(0, t). That integral equals 2/gamma
analytically (SourceParams.n_total, which every command uses);
total_emitted recomputes it numerically as a cross-check of that identity.

The time integral is taken in u = sqrt(t), where the t^{-1/2} onset of J
becomes a smooth integrand 2u J(0, u^2), by a composite 20-point
Gauss-Legendre rule: one vectorized boundary_current call over all nodes.
Its error estimate is the difference from the same rule on panels twice
as wide, plus a rounding bound and an analytic bound on the remainder
past t_cut. spatial_norm integrates |psi|^2 over x with the same rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .source_model import SourceParams, kernel

T_CUT_TAU0_MULTIPLE = 50.0
SMALL_T_FLOOR = 1e-8         # below this the t^{-1/2} onset is integrated analytically
PANEL_WIDTH = 0.5            # Gauss-Legendre panel width, in u = sqrt(t) or in x
GAUSS_ORDER = 20
PANEL_BLOCK = 4096           # panels per boundary_current call, bounding memory
MAX_PANELS = 2 ** 18         # beyond this (|k0I| below ~7e-10) the rule refuses
ROUNDING_FACTOR = 4.0        # per-evaluation rounding of J, in units of eps (1 + |k0|^2 t)
EPS = float(np.finfo(float).eps)


class InternalConsistencyError(Exception):
    """The computed norm violated a property it must have (e.g. positivity)."""


@dataclass(frozen=True)
class NormalizationResult:
    """n_total integrates J(0, t) over [0, t_cut]; the remainder past t_cut is
    not added but bounded by tail_estimate, which abs_error_estimate
    includes. tail_exponent is the power of t in that bound's envelope
    e^{-gamma t/2} t^{-3/2}; tail_flagged says the bound exceeds 1e-6 n_total."""

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


def _gauss_panels(f, a: float, b: float, panels: int):
    """Composite GAUSS_ORDER-point Gauss-Legendre sum of f over [a, b] on
    equal panels, PANEL_BLOCK panels per f call. f maps a (panels, nodes)
    array to values of that shape, or to a stack of such arrays, which are
    integrated separately."""
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    edges = np.linspace(a, b, panels + 1)
    total = 0.0
    for i in range(0, panels, PANEL_BLOCK):
        block = edges[i : i + PANEL_BLOCK + 1]
        half = 0.5 * np.diff(block)[:, None]
        x = block[:-1, None] + half * (nodes + 1.0)
        total = total + np.sum(half * weights * f(x), axis=(-2, -1))
    return total


def _current_integral(p: SourceParams, u0: float, u1: float, panels: int) -> float:
    """Integral of J(0, t) over t in [u0^2, u1^2], as 2u J(0, u^2) du."""
    return float(_gauss_panels(lambda u: 2.0 * u * boundary_current(p, u * u), u0, u1, panels))


def _current_integral_and_rounding(
    p: SourceParams, u0: float, u1: float, panels: int
) -> Tuple[float, float]:
    """_current_integral and a bound on its rounding error.

    At x = 0 the algebraic part of dpsi/dx is what is left after a
    cancellation of relative size |u_+|^2 = |k0|^2 t, so each evaluation
    of J carries a relative rounding error of about eps |k0|^2 t (0.75 eps t
    on average against mpmath at k0I = -1e-9); the bound sums
    ROUNDING_FACTOR eps (1 + |k0|^2 t) |weight * integrand| over the nodes.
    """
    k0_sq = abs(p.k0) ** 2

    def integrand(u):
        g = 2.0 * u * boundary_current(p, u * u)
        return np.stack((g, np.abs(g) * (1.0 + k0_sq * u * u)))

    value, spread = _gauss_panels(integrand, u0, u1, panels)
    return float(value), ROUNDING_FACTOR * EPS * float(spread)


def _panel_count(a: float, b: float) -> int:
    """An even panel count with panels at most PANEL_WIDTH wide over [a, b],
    so that joining neighbours gives the same rule at twice the width;
    more than MAX_PANELS is refused."""
    panels = 2 * max(1, math.ceil((b - a) / (2.0 * PANEL_WIDTH)))
    if panels > MAX_PANELS:
        raise InternalConsistencyError(
            f"the rule over [{a:.3e}, {b:.3e}] needs {panels} panels, more than {MAX_PANELS}"
        )
    return panels


def total_emitted(p: SourceParams) -> NormalizationResult:
    """Integrate J(0, t) over all time.

    Substituting t = u^2 removes the integrable onset singularity, and the
    head [SMALL_T_FLOOR, t_cut] is the composite Gauss-Legendre rule in u;
    its error estimate |rule(h) - rule(2h)| must stay below 1e-6 of the
    head. The remaining [0, SMALL_T_FLOOR] sliver uses the analytic onset
    form. The remainder past t_cut = 50 tau0 is left out and bounded by
    _tail_bound.
    """
    t_cut = T_CUT_TAU0_MULTIPLE * p.tau0
    u0, u1 = math.sqrt(SMALL_T_FLOOR), math.sqrt(t_cut)
    panels = _panel_count(u0, u1)
    head, rounding = _current_integral_and_rounding(p, u0, u1, panels)
    head_err = abs(head - _current_integral(p, u0, u1, panels // 2))
    # J ~ sqrt(2/(pi t)) at small t, so the [0, floor] slice is 2 sqrt(2 floor / pi);
    # the relative deviation from that law is <= 10 t over (-1, 0), making the
    # slice's own error bound onset * 10 * floor
    onset = 2.0 * math.sqrt(2.0 * SMALL_T_FLOOR / math.pi)
    onset_err = onset * 10.0 * SMALL_T_FLOOR

    tail = _tail_bound(p, t_cut)
    n = head + onset
    if not (n > 0.0) or not math.isfinite(n):
        raise InternalConsistencyError(f"emitted norm came out {n!r}")
    if head_err > 1e-6 * max(abs(head), 1.0):
        raise InternalConsistencyError(
            f"quadrature did not converge: error {head_err:.3e} on partial sums "
            f"head={head!r}, onset={onset!r}"
        )
    return NormalizationResult(
        n_total=n,
        t_cut=t_cut,
        tail_estimate=tail,
        abs_error_estimate=head_err + onset_err + rounding + tail,
        tail_exponent=-1.5,
        tail_flagged=tail > 1e-6 * n,
    )


def _tail_bound(p: SourceParams, t_cut: float) -> float:
    """Bound on |integral of J(0, t) over t > t_cut|.

    psi(0, t) = e^{-i omega0 t} exactly, so |psi| = e^{-gamma t/2}, and
    dpsi/dx(0, t) is i k0 psi plus an algebraic part s(t) with
    |s| -> t^{-3/2} / (2 sqrt(pi) |k0|^2) as t grows (within 7% of that at
    t_cut over -1 < k0I < 0). Hence J = 2 e^{-gamma t} + 2 Im(psi* s), and
    with |s| <= t^{-3/2} / (sqrt(pi) |k0|^2), twice the asymptote, the
    remainder is at most 2 e^{-gamma t_cut}/gamma plus
    (2/gamma) e^{-gamma t_cut/2} t_cut^{-3/2} * 2 / (sqrt(pi) |k0|^2).
    """
    gamma = p.gamma_rate
    pole = 2.0 * math.exp(-gamma * t_cut) / gamma
    cross = 4.0 * math.exp(-0.5 * gamma * t_cut) * t_cut ** -1.5 / (
        gamma * math.sqrt(math.pi) * abs(p.k0) ** 2)
    return pole + cross


def emitted_by_time(p: SourceParams, T: float) -> float:
    """Norm emitted up to time T (no tail term)."""
    if T <= 0.0:
        return 0.0
    lo, hi = math.sqrt(min(SMALL_T_FLOOR, T)), math.sqrt(T)
    head = _current_integral(p, lo, hi, _panel_count(lo, hi))
    onset = 2.0 * math.sqrt(2.0 * min(SMALL_T_FLOOR, T) / math.pi)
    return head + onset


def spatial_norm(p: SourceParams, T: float) -> float:
    """Integral of |psi(x, T)|^2 over x >= 0.

    Fringes live in x < 2T; beyond that the density settles onto the
    switch-on transient 4T/(pi x^2). The composite Gauss-Legendre rule
    covers [0, x_big] on panels at most PANEL_WIDTH wide, which resolve the
    fringes, and a C/x tail fitted at x_big closes the range. Conservation
    against emitted_by_time holds at the 1e-4 level. T beyond about
    3000 needs more than MAX_PANELS panels and raises
    InternalConsistencyError.
    """
    if T <= 0.0:
        return 0.0

    def rho(x):
        return np.abs(kernel(p, x, T).psi) ** 2

    x_big = 40.0 * T + 200.0
    body = _gauss_panels(rho, 0.0, x_big, _panel_count(0.0, x_big))
    xs = np.linspace(x_big * 0.85, x_big, 40)
    c = float(np.mean(rho(xs) * xs * xs))
    return float(body) + c / x_big
