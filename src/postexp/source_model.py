"""Exact wavefunction of an exponentially decaying point source.

Dimensionless model on the half-line x >= 0: the value at the origin is
prescribed as psi(0, t) = exp(-i omega0 t) for t > 0 (nothing before the
switch-on), with omega0 = k0^2 and k0 = 1 + i k0I, -1 < k0I < 0. The exact
solution is a sum of two Faddeeva terms, asymptotically a saddle part plus a
pole part present past t_c; kernel evaluates all three at scalar or array (x, t).
"""

from __future__ import annotations

import cmath
import contextlib
import math
import sys
from typing import Any, NamedTuple, Optional, Tuple

from . import ComputationError, specfun

SQRT_PI = math.sqrt(math.pi)

# the kernel squares t, x and k_s = x/(2t) and multiplies two such squares;
# below this scale none of those products overflows
SCALE_LIMIT = 1e150
LOG_MAX, DBL_MIN = math.log(sys.float_info.max), sys.float_info.min


class EvaluationDomainError(ComputationError):
    """Exact evaluation left double precision at some (x, t), or at no
    point (x and t None)."""

    def __init__(self, x: Optional[float], t: Optional[float], reason: str):
        self.x, self.t = x, t
        at = "" if x is None else f" at (x={x!r}, t={t!r})"
        super().__init__(f"evaluation domain error{at}: {reason}")


class _SourceFields(NamedTuple):
    k0I: float


class SourceParams(_SourceFields):
    """Resonance parameters. k0I is the imaginary part of k0 = 1 + i k0I.

    An immutable tuple; the constructor, _make and _replace all check k0I.
    """

    __slots__ = ()

    def __new__(cls, k0I: float):
        if not (-1.0 < k0I < 0.0):
            raise ValueError(f"k0I must lie in (-1, 0), got {k0I!r}")
        return super().__new__(cls, k0I)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def k0(self) -> complex:
        return complex(1.0, self.k0I)

    @property
    def omega0(self) -> complex:
        return self.k0 * self.k0

    @property
    def tau0(self) -> float:
        """Resonance lifetime 1/(4 |k0I|)."""
        return 1.0 / (4.0 * abs(self.k0I))

    @property
    def gamma_rate(self) -> float:
        """Exponential decay rate of the source density, 4 |k0I|."""
        return 4.0 * abs(self.k0I)

    @property
    def n_total(self) -> float:
        """Total probability the source ever emits, 2/gamma = 1/(2 |k0I|).

        By Parseval in t, the integral of J(0, t) over t > 0 is 1/pi times
        that of k^2/|k^2 - k0^2|^2 over real k, whose residues at -k0 and
        conj(k0) give 1/(2 |k0I|); normalization.total_emitted checks it.
        """
        return 0.5 / abs(self.k0I)


class Wave(NamedTuple):
    """kernel output: arrays of the broadcast (x, t) shape, or, for Python
    float or int x and t, Python complex values and a bool."""

    psi: Any            # exact value
    saddle: Any         # algebraic part, finite: its poles k_s = +-k0 are off the real axis
    pole: Any           # resonance part e^{-i omega0 t} e^{i k0 x} past t_c, |pole| < 1; 0 before
    pole_crossed: Any   # t > x/(2(1 + k0I)), i.e. Im u_+ > 0
    dpsi_dx: Any        # d psi/dx; None unless derivative=True


def pole_crossing_time(p: SourceParams, x):
    """Earliest time with Im u_+ > 0 at this x, namely x / (2 (1 + k0I))."""
    return x / (2.0 * (1.0 + p.k0I))


def _point(x, t, i: int) -> Tuple[float, float]:
    if not specfun._is_array(x, t):
        return float(x), float(t)
    xb, tb = sys.modules["numpy"].broadcast_arrays(x, t)
    return float(xb.flat[i]), float(tb.flat[i])


def kernel(p: SourceParams, x, t, derivative: bool = False) -> Wave:
    """The wavefunction and its asymptotic parts over broadcast (x, t).

    psi = (1/2) e^{i k_s^2 t} [w(-u_+) + w(-u_-)], one vectorized w call per
    branch, with k_s = x/(2t) the stationary wavenumber and
    u_+- = +-(1 + i) sqrt(t/2) (k0 -+ k_s), to about eps (x^2/(4t) + |u_+-|^2).
    psi ~ saddle + pole: the saddle part sqrt(2/pi) t^{-1/2} e^{i k_s^2 t} k_s
    / ((i - 1)(k0 - k_s)(k0 + k_s)) is finite, as |k0 - k_s| >= |k0I| and
    |k0 + k_s| >= 1; the pole part is 0 before t_c. derivative adds d psi/dx from
    those w values by w'(z) = -2 z w(z) + 2i/sqrt(pi), to about eps |u_+-|^2, not by
    faddeeva_derivative, which sums a series above the axis at large |z|.

    x < 0, t <= 0 and non-finite inputs raise ValueError; t, x or x/(2t) at
    SCALE_LIMIT, or a saddle or w(z) past double range, EvaluationDomainError
    at the first offending point in flat order, alike on both paths: never inf or nan.
    """
    i = specfun.first_false((x >= 0.0) & (x < math.inf) & (t > 0.0) & (t < math.inf))
    if i is not None:
        raise ValueError(f"need finite x >= 0 and t > 0, got (x, t) = {_point(x, t, i)}")
    i = specfun.first_false((t < SCALE_LIMIT) & (x < SCALE_LIMIT) & (x / (2.0 * SCALE_LIMIT) < t))
    if i is not None:
        raise EvaluationDomainError(*_point(x, t, i), f"t, x or x/(2t) >= {SCALE_LIMIT!r}, "
                                    "where products of squares overflow")
    # one arithmetic for both; math/cmath are the faster choice for scalars
    if specfun._is_array(x, t):
        np = sys.modules["numpy"]
        sqrt, exp, quiet = np.sqrt, np.exp, np.errstate(over="ignore", invalid="ignore")
    else:
        sqrt, exp, quiet = math.sqrt, cmath.exp, contextlib.nullcontext()
    k0 = p.k0
    k_s = x / (2.0 * t)
    pref = (1.0 + 1j) * sqrt(t / 2.0)
    u_plus, u_minus = pref * (k0 - k_s), -pref * (k0 + k_s)
    phase = exp(1j * k_s * k_s * t)
    # t^{-1/2} last: t^{-1/2} k_s alone overflows at t ~ 5e-324 with k_s ~ 1e149,
    # and sqrt(2/(pi t)) at t < 3.5e-309
    with quiet:
        saddle = (k_s * phase / ((1j - 1.0) * (k0 - k_s) * (k0 + k_s))
                  * (math.sqrt(2.0 / math.pi) / sqrt(t)))
    # only for |k0I| below ~1e-147, where k_s ~ 1 and t is tiny
    i = specfun.first_false(abs(saddle) < math.inf)
    if i is not None:
        raise EvaluationDomainError(*_point(x, t, i), "saddle part overflows")
    # e^{-i k0^2 t + i k0 x} = phase e^{k0I (2t - x) + i (k0I^2 t - (x - 2t)^2/(4t))}:
    # sharing the saddle's phase keeps rounding of size x out of their relative phase
    crossed = t > pole_crossing_time(p, x)   # Im u_+ > 0 exactly; elsewhere 0 * e^{i ...}
    k = p.k0I
    pole = crossed * (phase * exp(crossed * k * (2.0 * t - x)
                                  + 1j * (k * k * t - (x - 2.0 * t) ** 2 / (4.0 * t))))
    try:
        w_p = specfun.faddeeva(-u_plus)
        w_m = specfun.faddeeva(-u_minus)
    except specfun.FaddeevaDomainError as exc:
        raise EvaluationDomainError(*_point(x, t, exc.index or 0), str(exc)) from exc
    psi = 0.5 * phase * (w_p + w_m)
    dpsi = None
    if derivative:
        c = (1.0 + 1j) / (2.0 * sqrt(2.0 * t))
        wd = 2.0 * (u_plus * w_p + u_minus * w_m) + 4j / SQRT_PI   # w'(-u_+) + w'(-u_-)
        dpsi = 0.5 * phase * (1j * k_s * (w_p + w_m) + c * wd)
    return Wave(psi, saddle, pole, crossed, dpsi)


def log_ratio(p: SourceParams, x, t):
    """ln R at x, t > 0, floats or arrays as kernel takes them, where R = |pole|/|saddle|
    = 2 sqrt(pi) t^{3/2} |k0 - k_s| |k0 + k_s| e^{k0I (2t - x)}/x. k_s = (x/t)/2 where
    x <= 2t; elsewhere q = 2t/x, with |k0 -+ k_s| = |k0 q -+ 1|/q. So no intermediate
    leaves double range where ln R does not, and a subnormal x keeps its bits."""
    if specfun._is_array(x, t):
        np = sys.modules["numpy"]
        log, hypot, pick = np.log, np.hypot, np.where
        quiet = np.errstate(over="ignore", invalid="ignore")   # in the branch not taken
    else:   # float arithmetic neither warns nor raises
        x, t, log, hypot, quiet = float(x), float(t), math.log, math.hypot, contextlib.nullcontext()
        def pick(near, a, b):
            return a if near else b
    k = p.k0I
    with quiet:
        near = 0.5 * x <= t
        s = pick(near, x / t / 2.0, 2.0 * t / x)   # k_s, or q; in [0, 1]
        im = k * pick(near, 1.0, s)                 # Im k0, or Im k0 q
        return (2.0 * k * (t - 0.5 * x) + math.log(2.0 * SQRT_PI)
                + pick(near, 1.5 * log(t) - log(x), log(x) - 0.5 * log(t) - math.log(4.0))
                + log(hypot(1.0 - s, im)) + log(hypot(1.0 + s, im)))


def density_cells(p: SourceParams, x, t):
    """The `density` table's cells at (x, t), floats or arrays as kernel takes
    them: rho, rho_saddle, rho_pole, pole_crossed, R = |pole|/|saddle| (nan at
    x = 0) and rho/n_total, with the pole unconditional, |pole| = e^{k0I (2t - x)}
    and, where |saddle| is subnormal, R from log_ratio. Past double range a cell is inf."""
    w = kernel(p, x, t)
    mod, saddle = abs(w.psi), abs(w.saddle)
    if specfun._is_array(x, t):
        np = sys.modules["numpy"]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            pole = np.exp(p.k0I * (2.0 * t - x))
            ratio = np.divide(pole, saddle, out=np.full(mod.shape, math.nan), where=x > 0.0)
            tail = (saddle < DBL_MIN) & (x > 0.0)
            xs, ts = (np.broadcast_to(v, tail.shape)[tail] for v in (x, t))
            ratio[tail] = np.exp(log_ratio(p, xs, ts))
            rho_saddle, rho_pole = saddle * saddle, pole * pole
    else:
        def exp(a):   # math.exp raises past LOG_MAX
            return math.exp(a) if a <= LOG_MAX else math.inf
        pole, ratio = exp(p.k0I * (2.0 * t - x)), math.nan
        if x > 0.0:
            ratio = pole / saddle if saddle >= DBL_MIN else exp(log_ratio(p, x, t))
        rho_saddle, rho_pole = saddle * saddle, pole * pole
    rho = mod * mod
    return rho, rho_saddle, rho_pole, w.pole_crossed, ratio, rho / p.n_total
