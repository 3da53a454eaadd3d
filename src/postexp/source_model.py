"""Exact wavefunction of an exponentially decaying point source.

Dimensionless model on the half-line x >= 0: the value at the origin is
prescribed as psi(0, t) = exp(-i omega0 t) for t > 0 (nothing before the
switch-on), with omega0 = k0^2 and k0 = 1 + i k0I, -1 < k0I < 0. The exact
solution is a sum of two Faddeeva terms; its asymptotic decomposition is a
saddle (algebraic) part plus a conditionally present pole (resonance) part.
kernel evaluates all three, and d psi/dx on request, at scalar or array (x, t).
"""

from __future__ import annotations

import cmath
import contextlib
import math
from typing import Any, NamedTuple, Optional, Tuple

from . import ComputationError, specfun

SQRT_PI = math.sqrt(math.pi)

# the kernel squares t, x and k_s = x/(2t) and multiplies two such squares;
# below this scale none of those products overflows
SCALE_LIMIT = 1e150


class EvaluationDomainError(ComputationError):
    """Exact evaluation left double precision at some (x, t), or at no
    point (x and t None)."""

    def __init__(self, x: Optional[float], t: Optional[float], reason: str):
        self.x = x
        self.t = t
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
    pole: Any           # resonance part e^{-i omega0 t} e^{i k0 x}, unconditional
    pole_crossed: Any   # t > x/(2(1 + k0I)), i.e. Im u_+ > 0
    dpsi_dx: Any        # d psi/dx; None unless derivative=True


def pole_crossing_time(p: SourceParams, x):
    """Earliest time with Im u_+ > 0 at this x, namely x / (2 (1 + k0I))."""
    return x / (2.0 * (1.0 + p.k0I))


def _point(x, t, i: int) -> Tuple[float, float]:
    if not specfun._is_array(x, t):
        return float(x), float(t)
    import numpy as np

    xb, tb = np.broadcast_arrays(x, t)
    return float(xb.flat[i]), float(tb.flat[i])


def kernel(p: SourceParams, x, t, derivative: bool = False) -> Wave:
    """The wavefunction and its asymptotic parts over broadcast (x, t).

    psi = (1/2) e^{i k_s^2 t} [w(-u_+) + w(-u_-)], one vectorized w call per
    branch, with k_s = x/(2t) the stationary wavenumber and
    u_+- = +-(1 + i) sqrt(t/2) (k0 -+ k_s). The saddle part is
    sqrt(2/pi) t^{-1/2} e^{i k_s^2 t} k_s / ((i - 1)(k0 - k_s)(k0 + k_s)):
    |k0 - k_s| >= |k0I| and |k0 + k_s| >= 1, so its denominator never
    vanishes. derivative adds d psi/dx through w'(z) = -2 z w(z) + 2i/sqrt(pi)
    and du_+-/dx = -(1+i)/(2 sqrt(2t)).

    x < 0, t <= 0 and non-finite inputs raise ValueError; a value that
    leaves double precision raises EvaluationDomainError at the first
    offending point (flat order), never inf or nan. Scalars and arrays
    refuse the same points with the same message.
    """
    i = specfun.first_false((x >= 0.0) & (x < math.inf) & (t > 0.0) & (t < math.inf))
    if i is not None:
        raise ValueError(f"need finite x >= 0 and t > 0, got (x, t) = {_point(x, t, i)}")
    # |pole| = e^{k0I (2t - x)} overflows far beyond the front; halved, the
    # test is the same in binary and cannot overflow itself
    i = specfun.first_false((p.k0I * (t - 0.5 * x) <= 0.5 * specfun.OVERFLOW_LIMIT)
                            & (t < SCALE_LIMIT) & (x < SCALE_LIMIT)
                            & (x / (2.0 * SCALE_LIMIT) < t))
    if i is not None:
        xi, ti = _point(x, t, i)
        reason = ("pole part overflows" if p.k0I * (ti - 0.5 * xi) > 0.5 * specfun.OVERFLOW_LIMIT
                  else f"t, x or x/(2t) >= {SCALE_LIMIT!r}, where products of squares overflow")
        raise EvaluationDomainError(xi, ti, reason)
    # one arithmetic for both; math/cmath are the faster choice for scalars
    if specfun._is_array(x, t):
        import numpy as np

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
    k = p.k0I
    pole = phase * exp(k * (2.0 * t - x) + 1j * (k * k * t - (x - 2.0 * t) ** 2 / (4.0 * t)))
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
    # Im u_+ > 0 in exact arithmetic, without the rounding of u_+ at t = t_c
    return Wave(psi, saddle, pole, t > pole_crossing_time(p, x), dpsi)


def density_cells(p: SourceParams, x, t):
    """The `density` table's cells at (x, t), floats or arrays as kernel takes
    them: rho, rho_saddle, rho_pole, pole_crossed, R = |pole|/|saddle| (nan at
    x = 0, inf where the saddle underflows to 0) and rho/n_total. A square
    past double range is IEEE inf, with no warning."""
    w = kernel(p, x, t)
    mod, saddle, pole = abs(w.psi), abs(w.saddle), abs(w.pole)
    if specfun._is_array(x, t):
        import numpy as np

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = np.divide(pole, saddle, out=np.full(mod.shape, math.nan), where=x > 0.0)
            rho_saddle, rho_pole = saddle * saddle, pole * pole
    else:
        # IEEE division, where Python raises: pole/0 is inf and 0/0 nan
        ratio = (pole / saddle if saddle else pole * math.inf) if x > 0.0 else math.nan
        rho_saddle, rho_pole = saddle * saddle, pole * pole
    rho = mod * mod
    return rho, rho_saddle, rho_pole, w.pole_crossed, ratio, rho / p.n_total
