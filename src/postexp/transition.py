"""Locate the exponential-to-algebraic transition of the decaying source.

The pole (resonance) and saddle (algebraic) densities cross where their
modulus ratio R(x, t) equals one. This module finds that crossing in time
at fixed x, the x that minimizes it, the largest x for which it exists at
all, and the purely-non-exponential threshold, all from the closed form

    ln R = ln(2 sqrt(pi) |k0|^2) - ln x - (ln t)/2 + 2 k0I t - k0I x + ln|t^2 - tau^2|

with tau = x/(2 k0); ratio_R takes it at given (x, t) from source_model.log_ratio. Near the
pole crossing t_c = x/(2(1 + k0I)), t^2 - tau^2 cancels to order |k0I| t^2, so the solver
works in sigma = (t/t_c - 1)/kappa, kappa = |k0I|: rho = tau/t_c = (1 + k0I)/(1 + i k0I) is fixed, and
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
k0I alone, and t_c/x lies past h's peak), so the transition is the one
falling root of ln R past t_c, and a sigma >= 0 lies before it iff ln R >= 0
or ln R still rises there. It exists where R exceeds 1 or rises at t_c: where
it rises (x < x_max/2.44), ln R peaks above 0.42 for k0I in [-0.9999, -1e-12].
Re c, Re rho > 0 give d(ln R)/d sigma < 2/sigma - beta x, so R falls past 2/(beta x).
The late-time reduction t^{3/2} = C e^{gamma t/2}, C = x e^{k0I x}/(2 sqrt(pi) |k0|^2), falls
through at t = -(3/gamma) W_{-1}(l), l = ln(gamma/3) + (2/3) ln C, real iff l <= -1,
where the solve for the root of ln R starts.

At sigma = 0, g(x) = ln R(x, t_c) = C + (ln x)/2 - beta x with
C = ln(2 sqrt(pi) |k0|^2) - 1.5 ln(2(1 + k0I)) + ln|1 - rho^2|. R already
falls at t_c wherever x >= x_max / 2.44, so max R over t > t_c is e^g near
x_max and x_max = -W_{-1}(-2 beta e^{-2C})/(2 beta); the argument reduces to
-2(1 + k0I)^2/(pi((2 + k0I)^2 + k0I^2)), in [-1/(2 pi), 0).

The turning point: at fixed sigma, x enters ln R only through (ln x)/2 - beta x (sigma + 1)
and t_p = x (1 + kappa sigma)/(2(1 + k0I)), so on ln R = 0, dt_p/dx = 0 is
(1 + kappa sigma) d(ln R)/d sigma = kappa (1/2 - beta x (sigma + 1)), linear in x as
beta (1 - kappa) = kappa^2. t_p rises with x past the locus, which tends to 1/kappa,

    x(sigma) = [(1 + kappa sigma)(Re 1/(sigma + c) + kappa Re 1/(1 + kappa sigma + rho)) - kappa] / kappa^2.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import List, NamedTuple, Sequence, Tuple

from .source_model import EvaluationDomainError, SourceParams, kernel, log_ratio, pole_crossing_time
from .specfun import OVERFLOW_LIMIT, lambertw_m1

ROOT_TOL = 1e-6          # |ln R| (exact_ratio) or |residual| (late_time) at the root


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

    This is |pole|/|saddle| at every t > 0 (t^2 = tau^2 has no real root), the exp
    of source_model.log_ratio, 0 where R underflows. x <= 0, t <= 0 and non-finite
    input raise ValueError, an R past double range EvaluationDomainError.
    """
    if not (0.0 < x < math.inf and 0.0 < t < math.inf):
        raise ValueError(f"ratio needs finite x > 0 and t > 0, got (x, t) = ({x!r}, {t!r})")
    try:
        return math.exp(log_ratio(p, x, t))
    except OverflowError:
        raise EvaluationDomainError(x, t, "R passes double range") from None


def _sigma_root(p: SourceParams, x: float, start: float):
    """(sigma, ln R) at the root of ln R past t_c, or sigma = 0 where R neither
    exceeds 1 nor rises there. Newton's method from start (not used unless in
    (0, inf)) keeps a bracket [lo, hi] and bisects where a step leaves it or R
    still rises; while hi is open, the point s is moved to 2 s + 1 instead."""
    s, lo, hi = 0.0, 0.0, math.inf
    f, d = _log_ratio_sigma(p, x, s)
    if f < ROOT_TOL and d < ROOT_TOL:
        return s, f
    step = start if 0.0 < start < math.inf else -f / d if d < 0.0 else math.nan
    for _ in range(200):
        # s lies left of the root iff R >= 1 there or R still rises (R is unimodal)
        if f >= 0.0 or d > 0.0:
            lo = s
        else:
            hi = s
        s = step if lo < step < hi else 0.5 * (lo + hi) if hi < math.inf else 2.0 * s + 1.0
        f, d = _log_ratio_sigma(p, x, s)
        if abs(f) < ROOT_TOL:
            break
        step = s - f / d if d < 0.0 else math.nan
    return s, f


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
    crossing as the pole appears is not one. exact_ratio solves each x on its
    own by one safeguarded Newton solve of ln R in sigma from the late_time
    root. Where R neither exceeds 1 nor rises at t_c, sigma is 0 and valid iff
    |ln R| < ROOT_TOL there (at x_max ln R rounds to about 1e-14); elsewhere it
    is the root of ln R past t_c. t_p is at least the double after t_c.
    residual is |R - 1| at that sigma; at the double t_p add eps |t d(ln R)/dt|,
    of order eps/|k0I| and past 1e-6 below |k0I| = 1e-10. late_time takes the
    t >> |tau| reduction's closed form (module docstring), valid iff that root
    exists at or after t_c with a log residual below ROOT_TOL (which rounds to
    about eps gamma t); residual is its |expm1|.
    """
    if method not in ("exact_ratio", "late_time"):
        raise ValueError(f"unknown method {method!r}")
    xs = [float(x) for x in xs]
    if not all(0.0 < x < math.inf for x in xs):
        raise ValueError("transition_time requires finite x > 0")
    k = abs(p.k0I)
    if method == "exact_ratio" and xs:
        # R falls past sigma = 2/(beta x) and its root lies below 1e3 times that,
        # a double while 2/(beta x) < e^OVERFLOW_LIMIT
        x0 = min(xs)
        if math.log(2.0 - 2.0 * k) - 2.0 * math.log(k) - math.log(x0) > OVERFLOW_LIMIT:
            raise EvaluationDomainError(x0, x0 / (2.0 - 2.0 * k), "sigma overflows")
        # a subnormal k0I^2 passes that bound only at x above 1e31, where
        # beta x = k0I^2 x/(1 + k0I) would keep a few of its bits, or none
        if k * k < sys.float_info.min:
            raise EvaluationDomainError(None, None, f"k0I^2 is subnormal at k0I={p.k0I!r}")
    n_total = _n_total_cached(p.k0I)
    log_scale = math.log(2.0 * math.sqrt(math.pi) * abs(p.k0) ** 2)
    rows = []
    for x in xs:
        t_c = pole_crossing_time(p, x)
        log_c = math.log(x) - log_scale + p.k0I * x
        l = math.log(p.gamma_rate / 3.0) + (2.0 / 3.0) * log_c
        t_p = -3.0 / p.gamma_rate * lambertw_m1(l) if l <= -1.0 else math.nan
        if method == "exact_ratio":
            s_p, val = _sigma_root(p, x, (t_p / t_c - 1.0) / k)
            t_p = max(t_c + t_c * k * s_p, math.nextafter(t_c, math.inf))
        else:
            if t_p == math.inf:
                raise EvaluationDomainError(x, t_c, "the late_time root passes double range")
            val = 1.5 * math.log(t_p) - (log_c + 0.5 * p.gamma_rate * t_p)
        if t_p >= t_c and abs(val) < ROOT_TOL:
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


def _turning_locus(p: SourceParams, s):
    """x(sigma) where t_p(x) is stationary at sigma, and ln R there (module docstring)."""
    k, c_re, c_im, rho_re, rho_im = _sigma_terms(p.k0I)[:5]
    w, v = s + c_re, 1.0 + k * s + rho_re
    # Re 1/(sigma + c) and Re 1/(1 + kappa sigma + rho), with no square of w, v > 0
    x = ((1.0 + k * s) * (1.0 / (w + c_im * c_im / w) + k / (v + rho_im * rho_im / v)) - k) / (k * k)
    return x, _log_ratio_sigma(p, x, s)[0]


def tp_turning_point(p: SourceParams) -> float:
    """x that minimizes t_p(x) over (0, x_max]; expected near 1/|k0I|.

    t_p(x) rises past the locus x(sigma) of the module docstring. Where the
    locus starts at or past x_max, or ln R <= 0 there, t_p still falls at
    x_max (as at k0I -0.9) and x_max is returned. Otherwise ln R along the
    locus falls through 0 once: the bracket's upper end doubles from 1/|k0I|
    until ln R < 0, then it is bisected until it stops shrinking, in at most
    about 65 evaluations of ln R.
    """
    x_max = max_distance(p)
    x, f = _turning_locus(p, 0.0)
    if x >= x_max or f <= 0.0:
        return x_max
    lo, hi = 0.0, 1.0 / abs(p.k0I)
    while _turning_locus(p, hi)[1] >= 0.0:
        lo, hi = hi, 2.0 * hi
    while lo < 0.5 * (lo + hi) < hi:
        s = 0.5 * (lo + hi)
        x, f = _turning_locus(p, s)
        lo, hi = (s, hi) if f >= 0.0 else (lo, s)
    return x


def max_distance(p: SourceParams) -> float:
    """Largest x admitting a transition: the closed form of the module docstring.

    x_max is about 1.4/k0I^2 at small |k0I|. Where k0I^2 is below the least
    normal double (|k0I| < 1.5e-154) it loses precision, then passes double
    range and 2 k0I^2 reaches 0; EvaluationDomainError gives ln x_max there.
    """
    k = p.k0I
    z = -2.0 * (1.0 + k) ** 2 / (math.pi * ((2.0 + k) ** 2 + k * k))
    w = lambertw_m1(math.log(-z))
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
    """Decay-rate to level-spacing quotient 4|k0I| (gamma_rate) and the >= 2 threshold."""
    return p.gamma_rate, p.gamma_rate >= 2.0


class CriticalDensityPoint(NamedTuple):
    k0I: float
    x_max: float
    t_p: float
    density_exact: float
    density_approx: float
    valid: bool


def critical_density_curve(params: Sequence[SourceParams]) -> List[CriticalDensityPoint]:
    """Density at (x_max, t_p) for each parameter set.

    Exact and saddle-plus-pole densities are both reported, divided by the
    emitted norm. x_max is closed-form and exists at every -1 < k0I < 0, so
    every point is valid.
    """
    out: List[CriticalDensityPoint] = []
    for p in params:
        x_max, t_p = critical_distance(p)
        w = kernel(p, x_max, t_p)
        # t_p > t_c, so the pole is present
        approx = w.saddle + w.pole
        n = _n_total_cached(p.k0I)
        out.append(CriticalDensityPoint(
            p.k0I, x_max, t_p, abs(w.psi) ** 2 / n, abs(approx) ** 2 / n, True))
    return out
