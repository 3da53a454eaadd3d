"""Locate the exponential-to-algebraic transition of the decaying source.

The pole (resonance) and saddle (algebraic) densities cross where their
modulus ratio R(x, t) equals one. This module finds that crossing in time
at fixed x, the x that minimizes it, the largest x for which it exists at
all, and the purely-non-exponential threshold, all from the closed form

    ln R = ln(2 sqrt(pi) |k0|^2) - ln x - (ln t)/2 + 2 k0I t - k0I x + ln|t^2 - tau^2|

with tau = x/(2 k0). Near the pole crossing t_c = x/(2(1 + k0I)), t^2 - tau^2
cancels to order |k0I| t^2, so R is coded once, in sigma = (t/t_c - 1)/kappa
with kappa = |k0I|: rho = tau/t_c = (1 + k0I)/(1 + i k0I) is fixed, and
1 + kappa sigma - rho = kappa (sigma + c) exactly with c = (1 - i)/(1 - i kappa).
With beta = kappa^2/(1 - kappa) and k0I (2t - x) = -beta x (sigma + 1), for t > 0

    ln R = ln(2 sqrt(pi) |k0|^2 kappa) - 1.5 ln(2(1 - kappa)) + (ln x)/2 - log1p(kappa sigma)/2
           + ln|sigma + c| + ln|1 + kappa sigma + rho| - beta x (sigma + 1),
    d(ln R)/d sigma = -kappa/(2(1 + kappa sigma)) + Re 1/(sigma + c)
                      + kappa Re 1/(1 + kappa sigma + rho) - beta x,

in which no term cancels. With a = Re tau^2 > 0 and b = |tau|^4,
t |t^2 - tau^2|^2 d(ln R)/dt = 2 k0I t^5 + 1.5 t^4 - 4 k0I a t^3 - a t^2
+ 2 k0I b t - b/2 has signs - + + - - -: by Descartes' rule R has at most one
local maximum t_M in t > 0 and falls strictly after it. The local minimum
before t_M lies before t_c (in t = x u the roots solve x = h(u) for an h of
k0I alone, and t_c/x lies past h's peak), so the transition is the one root
of ln R past sigma_M = max(0, sigma(t_M)) and exists iff ln R(sigma_M) >= 0.
Re c, Re rho > 0 give d(ln R)/d sigma < 2/sigma - beta x, so sigma_M < 2/(beta x).
The late-time reduction's concave log-residual peaks at 3/gamma, standing in for t_M.

At sigma = 0, g(x) = ln R(x, t_c) = C + (ln x)/2 - beta x with
C = ln(2 sqrt(pi) |k0|^2) - 1.5 ln(2(1 + k0I)) + ln|1 - rho^2|. R already
falls at t_c wherever x >= x_max / 2.44, so max R over t > t_c is e^g near
x_max and x_max = -W_{-1}(-2 beta e^{-2C})/(2 beta); the argument reduces to
-2(1 + k0I)^2/(pi((2 + k0I)^2 + k0I^2)), in [-1/(2 pi), 0).

The turning point of t_p(x) solves {ln R = 0, d(ln R)/dx = 0} by Newton's
method in (x, t). With s0 = 1/(4 k0^2) and q = t^2 - s0 x^2 the partials are
d/dx = -1/x - k0I + Re(-2 s0 x/q), d/dt = (d/d sigma)/(kappa t_c),
d2/dx2 = 1/x^2 + Re(-2 s0/q - 4 s0^2 x^2/q^2) and d2/dxdt = Re(4 s0 x t/q^2).
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import List, NamedTuple, Sequence, Tuple

from .source_model import EvaluationDomainError, SourceParams, kernel, pole_crossing_time
from .specfun import OVERFLOW_LIMIT, lambertw_m1

ROOT_TOL = 1e-6          # |ln R| (exact_ratio) or |residual| (late_time) at the root
NEWTON_STEPS = 50        # turning-point iteration cap


class TransitionPoint(NamedTuple):
    x: float
    t_p: float
    density_raw: float
    density_normalized: float
    method: str          # "exact_ratio" or "late_time"
    valid: bool
    residual: float      # |R - 1| at the solved sigma for exact_ratio (at the double
                         # t_p, + eps |t d(ln R)/dt|), equation residual for late_time


@lru_cache(maxsize=256)
def _sigma_terms(k0I: float):
    """kappa, c, rho = tau/t_c (real and imaginary parts) and the constant of ln R."""
    k = abs(k0I)
    c, rho = (1.0 - 1j) / (1.0 - 1j * k), (1.0 - k) / (1.0 - 1j * k)
    const = (math.log(2.0 * math.sqrt(math.pi) * abs(complex(1.0, k0I)) ** 2 * k)
             - 1.5 * math.log(2.0 - 2.0 * k))
    return k, c.real, c.imag, rho.real, rho.imag, const


def _log_ratio_sigma(p: SourceParams, x, s):
    """ln R and d(ln R)/d sigma at t = t_c(1 + kappa sigma), the module docstring's form."""
    k, c_re, c_im, rho_re, rho_im, const = _sigma_terms(p.k0I)
    bx, ks = k * k * x / (1.0 - k), k * s
    # real parts and moduli of sigma + c and 1 + kappa sigma + rho
    w, v = s + c_re, 1.0 + ks + rho_re
    mw, mv = math.hypot(w, c_im), math.hypot(v, rho_im)
    log_r = (const + 0.5 * (math.log(x) - math.log1p(ks)) + math.log(mw) + math.log(mv)
             - bx * (s + 1.0))
    return log_r, -0.5 * k / (1.0 + ks) + w / mw / mw + k * v / mv / mv - bx


def ratio_R(p: SourceParams, x: float, t: float) -> float:
    """R = 2 sqrt(pi) |k0|^2 |t^2 - tau^2| / (x sqrt(t)) * e^{2 k0I t - k0I x}.

    This is |pole|/|saddle| at every t > 0 (t^2 = tau^2 has no real root),
    evaluated in sigma so that it stays accurate near t_c. x <= 0, t <= 0
    and non-finite input raise ValueError.
    """
    if not (0.0 < x < math.inf and 0.0 < t < math.inf):
        raise ValueError(f"ratio needs finite x > 0 and t > 0, got (x, t) = ({x!r}, {t!r})")
    s = (t / pole_crossing_time(p, x) - 1.0) / abs(p.k0I)
    if not math.isfinite(s):
        raise EvaluationDomainError(x, t, "sigma = (t/t_c - 1)/|k0I| overflows")
    return math.exp(_log_ratio_sigma(p, x, s)[0])


def _falling_root(f, a, b):
    """(s, f(s)): s >= a with |f(s)| < ROOT_TOL where f falls through 0 once
    past a, or s = a where f(a) < ROOT_TOL. b doubles until f(b) < 0, then
    false position with the Illinois modification (the end kept twice in a
    row has its value halved) closes the bracket [a, b]."""
    fa = f(a)
    if fa < ROOT_TOL:
        return a, fa
    fb = f(b)
    while fb >= 0.0:
        a, fa, b = b, fb, 2.0 * b
        fb = f(b)
    s, val, kept = a, fa, 0
    for _ in range(200):
        s = a + (b - a) * (fa / (fa - fb))
        val = f(s)
        if abs(val) < ROOT_TOL:
            break
        if val > 0.0:
            a, fa = s, val
            fb = 0.5 * fb if kept > 0 else fb
            kept = 1
        else:
            b, fb = s, val
            fa = 0.5 * fa if kept < 0 else fa
            kept = -1
    return s, val


# a closed form needs no cache, but the benchmark harness reads this
# function's cache_info(), so it keeps its name and lru_cache
@lru_cache(maxsize=256)
def _n_total_cached(k0I: float) -> float:
    return SourceParams(k0I).n_total


def transition_times(
    p: SourceParams, xs, method: str = "exact_ratio"
) -> List[TransitionPoint]:
    """Transition point per x of a grid; t_p is nan and invalid where none exists.

    t_p is where R falls through 1 after t_c = x/(2(1 + k0I)); the upward
    crossing as the pole appears is not one. Each x is solved on its own by
    _falling_root. exact_ratio solves in sigma for
    sigma_M, then for the root of ln R past it, which exists iff
    ln R(sigma_M) >= -ROOT_TOL (at x_max it is sigma = 0, where ln R rounds
    to about 1e-14); t_p is at least the double after t_c. residual is
    |R - 1| at that sigma; at the double t_p add eps |t d(ln R)/dt|, of order
    eps/|k0I| and past 1e-6 below |k0I| = 1e-10. late_time solves the
    t >> |tau| reduction t^{3/2} = x e^{k0I x + gamma t/2} / (2 sqrt(pi) |k0|^2)
    in t past max(t_c, 3/gamma), on the log of both sides; its residual is
    relative, |expm1| of the log residual at the root.
    """
    if method not in ("exact_ratio", "late_time"):
        raise ValueError(f"unknown method {method!r}")
    xs = [float(x) for x in xs]
    if not all(0.0 < x < math.inf for x in xs):
        raise ValueError("transition_time requires finite x > 0")
    k = abs(p.k0I)
    if method == "exact_ratio" and xs:
        # sigma_M < b = 2/(beta x) and sigma_p < 1e3 b stay doubles while b < e^OVERFLOW_LIMIT
        x0 = min(xs)
        if math.log(2.0 - 2.0 * k) - 2.0 * math.log(k) - math.log(x0) > OVERFLOW_LIMIT:
            raise EvaluationDomainError(x0, x0 / (2.0 - 2.0 * k), "sigma overflows")
    n_total = _n_total_cached(p.k0I)
    rows = []
    for x in xs:
        t_c = pole_crossing_time(p, x)
        if method == "exact_ratio":
            b = 2.0 * (1.0 - k) / (k * k * x)
            # (1 + sigma) d(ln R)/d sigma stops relative at large sigma
            s_m = _falling_root(lambda s: (1.0 + s) * _log_ratio_sigma(p, x, s)[1], 0.0, b)[0]
            s_p, val = _falling_root(lambda s: _log_ratio_sigma(p, x, s)[0], s_m, b)
            t_p = max(t_c + t_c * k * s_p, math.nextafter(t_c, math.inf))
        else:
            # the log residual 1.5 ln t - ln(x e^{k0I x + gamma t/2}/(2 sqrt(pi) |k0|^2))
            # stays finite where its exponential overflows
            log_c = math.log(x / (2.0 * math.sqrt(math.pi) * abs(p.k0) ** 2)) + p.k0I * x
            a = max(t_c, 3.0 / p.gamma_rate)
            t_p, val = _falling_root(
                lambda t: 1.5 * math.log(t) - (log_c + 0.5 * p.gamma_rate * t), a, 2.0 * a)
        if abs(val) < ROOT_TOL:
            rho = abs(kernel(p, x, t_p).psi) ** 2
            rows.append(TransitionPoint(x, t_p, rho, rho / n_total, method, True,
                                        abs(math.expm1(val))))
        else:
            rows.append(TransitionPoint(x, math.nan, math.nan, math.nan, method, False, math.nan))
    return rows


def transition_time(
    p: SourceParams, x: float, method: str = "exact_ratio"
) -> TransitionPoint:
    """Transition time t_p at fixed x, or an invalid point if none exists."""
    return transition_times(p, [x], method)[0]


def _log_ratio_partials(p: SourceParams, x: float, t: float):
    """ln R and its partials d/dx, d/dt, d2/dx2, d2/dxdt at one (x, t)."""
    s0, k, t_c = 1.0 / (4.0 * p.k0 * p.k0), p.k0I, pole_crossing_time(p, x)
    q = t * t - s0 * x * x
    f, f_s = _log_ratio_sigma(p, x, (t / t_c - 1.0) / abs(k))
    d_x = -1.0 / x - k + (-2.0 * s0 * x / q).real
    d_xx = 1.0 / (x * x) + (-2.0 * s0 / q - 4.0 * (s0 * x / q) ** 2).real
    d_xt = (4.0 * s0 * x * t / (q * q)).real
    return f, d_x, f_s / (abs(k) * t_c), d_xx, d_xt


def tp_turning_point(p: SourceParams) -> float:
    """x that minimizes t_p(x) over (0, x_max]; expected near 1/|k0I|.

    dt_p/dx has the sign of d(ln R)/dx, since R falls through 1 at t_p. If
    t_p still falls at x_max (it does at k0I -0.9: the stationary point lies
    past x_max, where no transition exists), x_max is returned. Otherwise
    Newton's method solves {ln R = 0, d(ln R)/dx = 0} in (x, t) from
    x0 = min(1/|k0I|, x_max/2), t0 = t_p(x0), in 4-7 steps; where it does
    not converge in NEWTON_STEPS, EvaluationDomainError names its last iterate.
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
    raise EvaluationDomainError(
        x, t, f"turning-point Newton iteration did not converge at k0I={p.k0I!r}")


def max_distance(p: SourceParams) -> float:
    """Largest x admitting a transition: the closed form of the module docstring.

    x_max is about 1.4/k0I^2 at small |k0I|. Where k0I^2 is below the least
    normal double (|k0I| < 1.5e-154) it loses precision, then passes double
    range and 2 k0I^2 reaches 0; EvaluationDomainError gives ln x_max there.
    """
    k = p.k0I
    z = -2.0 * (1.0 + k) ** 2 / (math.pi * ((2.0 + k) ** 2 + k * k))
    w = lambertw_m1(z)
    if k * k < sys.float_info.min:
        log_x = math.log(-w) + math.log1p(k) - math.log(2.0) - 2.0 * math.log(-k)
        raise EvaluationDomainError(
            None, None, f"x_max = exp({log_x:.6g}) leaves double precision at k0I={k!r}")
    return -w * (1.0 + k) / (2.0 * k * k)


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


class CriticalDensityPoint(NamedTuple):
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
        # t_p > t_c, so the pole is present
        approx = w.saddle + w.pole
        n = _n_total_cached(p.k0I) if normalized else 1.0
        out.append(CriticalDensityPoint(
            p.k0I, x_max, t_p, abs(w.psi) ** 2 / n, abs(approx) ** 2 / n, True))
    return out
