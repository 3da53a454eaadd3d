"""Emitted-norm bookkeeping for the decaying source.

The source injects probability at x = 0; the total ever emitted is the time
integral of the boundary current J(0, t). That integral equals 2/gamma
analytically (SourceParams.n_total, which every command uses);
total_emitted recomputes it numerically as a cross-check of that identity.

The boundary split. At x = 0, tau = 0 and u_+ = -u_- = z with
z = (1 + i) sqrt(t/2) k0, z^2 = i omega0 t. Through the reflection
w(-z) = 2 e^{-z^2} - w(z), kernel's psi = (1/2)[w(-u_+) + w(-u_-)] becomes
e^{-i omega0 t} exactly, and its dpsi/dx = (c/2)[w'(-u_+) + w'(-u_-)],
with w'(z) = -2 z w(z) + 2i/sqrt(pi) and c = (1 + i)/(2 sqrt(2t)), becomes
2cz psi + s = i k0 psi + s, where s(t) = c (2i/sqrt(pi) - 2 z w(z)). Hence
J(0, t) = 2 e^{-gamma t} + 2 Im(psi* s): the pole term integrates to
2/gamma exactly, and only the cross term, ~ sqrt(2/(pi t)) early and
~ e^{-gamma t/2} t^{-3/2} late, is left to quadrature. z lies in the first
quadrant (arg k0 is in (-pi/4, 0)), so s is one Faddeeva call per node.

The cross term is integrated in u = sqrt(t), where its onset is smooth, by
a composite 20-point Gauss-Legendre rule on panels of equal width PANEL_T
in t, which resolve its e^{i(1 - k0I^2) t} oscillation at every u. The
error estimate is the difference from the same rule on merged panel pairs,
plus a rounding bound and a bound on the remainder past t_cut.
spatial_norm integrates |psi|^2 over x with the same rule.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from . import ComputationError
from .source_model import SQRT_PI, SourceParams, kernel
from .specfun import faddeeva

T_CUT_TAU0_MULTIPLE = 50.0
T_CUT_MAX = 1e4              # horizon for slow decay; the cross term is bounded past it
PANEL_T = 4.0                # panel width in t: two thirds of the current's period
PANEL_WIDTH = 0.5            # panel width in x for spatial_norm
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)
PANEL_BLOCK = 4096           # panels per integrand call, bounding memory
MAX_PANELS = 2 ** 18         # longer ranges are refused


class InternalConsistencyError(ComputationError):
    """The computed norm violated a property it must have (e.g. positivity)."""


class NormalizationResult(NamedTuple):
    """n_total is 2/gamma, the pole term's exact integral over all time, plus
    the cross term 2 Im(psi* s) integrated over [0, t_cut]. The cross term's
    remainder past t_cut is not added but bounded by tail_estimate, which
    abs_error_estimate includes. tail_exponent is the power of t in that
    bound's envelope e^{-gamma t/2} t^{-3/2}; tail_flagged says the bound
    exceeds 1e-6 n_total."""

    n_total: float
    t_cut: float
    tail_estimate: float
    abs_error_estimate: float
    tail_exponent: Optional[float]
    tail_flagged: bool


def _cross_current(p: SourceParams, t):
    """2 Im(psi* s) at x = 0, the part of J(0, t) beyond the pole term 2 e^{-gamma t}."""
    z = (1.0 + 1j) * np.sqrt(0.5 * t) * p.k0
    s = (1.0 + 1j) / (2.0 * np.sqrt(2.0 * t)) * (2j / SQRT_PI - 2.0 * z * faddeeva(z))
    return 2.0 * (np.exp(1j * p.omega0.conjugate() * t) * s).imag


def boundary_current(p: SourceParams, t):
    """J(0, t) = 2 Im[psi* dpsi/dx] at x = 0, scalar or array t; ~ sqrt(2/(pi t)) as t -> 0+."""
    return 2.0 * np.exp(-p.gamma_rate * t) + _cross_current(p, t)


def _panel_edges(b: float, width: float) -> np.ndarray:
    """Edges of an even number of equal panels at most width wide over [0, b],
    so that merging neighbours gives the same rule at twice the width; more
    than MAX_PANELS is refused."""
    panels = 2 * max(1, math.ceil(b / (2.0 * width)))
    if panels > MAX_PANELS:
        raise InternalConsistencyError(
            f"the rule over [0, {b:.3e}] needs {panels} panels, more than {MAX_PANELS}"
        )
    return np.linspace(0.0, b, panels + 1)


def _gauss_panels(f, edges: np.ndarray):
    """Composite Gauss-Legendre sum of f over the panels between edges,
    PANEL_BLOCK panels per f call. f maps a (panels, nodes) array to values
    of that shape, or to a stack of such arrays, which are integrated
    separately."""
    total = 0.0
    for i in range(0, edges.size - 1, PANEL_BLOCK):
        block = edges[i : i + PANEL_BLOCK + 1]
        half = 0.5 * np.diff(block)[:, None]
        x = block[:-1, None] + half * (_NODES + 1.0)
        total = total + np.sum(half * _WEIGHTS * f(x), axis=(-2, -1))
    return total


def _cross_integral(p: SourceParams, u_edges: np.ndarray):
    """Integral of the cross term over t in [0, u_edges[-1]^2], as
    2u cross(u^2) du, and a bound on its rounding error: each evaluation is
    off by about eps (1 + |k0|^2 t) relative (s cancels to 1/|z|^2 of its
    parts, and psi's phase is rounded at size t), summed 4x over the nodes.
    """
    k0_sq = abs(p.k0) ** 2

    def integrand(u):
        g = 2.0 * u * _cross_current(p, u * u)
        return np.stack((g, np.abs(g) * (1.0 + k0_sq * u * u)))

    value, spread = _gauss_panels(integrand, u_edges)
    return float(value), 4.0 * math.ulp(1.0) * float(spread)


def total_emitted(p: SourceParams) -> NormalizationResult:
    """Integrate J(0, t) over all time.

    The pole term contributes 2/gamma exactly. The cross term is the
    composite rule in u = sqrt(t) over [0, t_cut], t_cut = min(50 tau0,
    T_CUT_MAX); its error estimate |rule(h) - rule(2h)| must stay below
    1e-6 of n_total. The remainder past t_cut is left out and bounded by
    _tail_bound.
    """
    t_cut = min(T_CUT_TAU0_MULTIPLE * p.tau0, T_CUT_MAX)
    u_edges = np.sqrt(_panel_edges(t_cut, PANEL_T))
    cross, rounding = _cross_integral(p, u_edges)
    cross_err = abs(cross - _cross_integral(p, u_edges[::2])[0])
    tail = _tail_bound(p, t_cut)
    n = 2.0 / p.gamma_rate + cross
    if not (n > 0.0) or not math.isfinite(n):
        raise InternalConsistencyError(f"emitted norm came out {n!r}")
    if cross_err > 1e-6 * n:
        raise InternalConsistencyError(
            f"quadrature did not converge: error {cross_err:.3e} on the cross term "
            f"{cross!r}, n_total={n!r}"
        )
    return NormalizationResult(
        n_total=n,
        t_cut=t_cut,
        tail_estimate=tail,
        abs_error_estimate=cross_err + rounding + tail + math.ulp(1.0) * n,
        tail_exponent=-1.5,
        tail_flagged=tail > 1e-6 * n,
    )


def _tail_bound(p: SourceParams, t_cut: float) -> float:
    """Bound on |integral of 2 Im(psi* s) over t > T = t_cut|.

    psi* = e^{a t} with |a| = |omega0| and Re a = -gamma/2; by parts, the
    integral of e^{a t} s is -e^{a T} s(T)/a minus that of e^{a t} s'/a.
    Past t_cut |s| <= A t^{-3/2} and |s'| <= 1.5 A t^{-5/2}, with
    A = 1/(sqrt(pi) |k0|^2) twice the asymptote of |s| t^{3/2} (checked
    against mpmath), so the remainder is at most
    4 A e^{-gamma T/2} T^{-3/2} / |omega0|.
    """
    a = 1.0 / (SQRT_PI * abs(p.k0) ** 2)
    return 4.0 * a * math.exp(-0.5 * p.gamma_rate * t_cut) * t_cut ** -1.5 / abs(p.omega0)


def emitted_by_time(p: SourceParams, T: float) -> float:
    """Norm emitted up to time T: the pole term -2 expm1(-gamma T)/gamma plus
    the cross term by the rule of total_emitted."""
    if T <= 0.0:
        return 0.0
    cross, _ = _cross_integral(p, np.sqrt(_panel_edges(T, PANEL_T)))
    return -2.0 * math.expm1(-p.gamma_rate * T) / p.gamma_rate + cross


def spatial_norm(p: SourceParams, T: float) -> float:
    """Integral of |psi(x, T)|^2 over x >= 0.

    Fringes live in x < 2T; beyond that the density settles onto the
    switch-on transient 4T/(pi x^2). The composite Gauss-Legendre rule
    covers [0, x_big] on panels at most PANEL_WIDTH wide, which resolve the
    fringes, and a C/x tail fitted at x_big closes the range. Conservation
    against emitted_by_time holds at the 1e-4 level (measured for k0I from
    -0.9 to -0.001 and T up to 2900). T beyond about 3270 needs more than
    MAX_PANELS panels and raises InternalConsistencyError.
    """
    if T <= 0.0:
        return 0.0

    def rho(x):
        return np.abs(kernel(p, x, T).psi) ** 2

    x_big = 40.0 * T + 200.0
    body = _gauss_panels(rho, _panel_edges(x_big, PANEL_WIDTH))
    xs = np.linspace(x_big * 0.85, x_big, 40)
    c = float(np.mean(rho(xs) * xs * xs))
    return float(body) + c / x_big
