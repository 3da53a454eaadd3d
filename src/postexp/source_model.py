"""Exact wavefunction of an exponentially decaying point source.

Dimensionless model on the half-line x >= 0: the value at the origin is
prescribed as psi(0, t) = exp(-i omega0 t) for t > 0 (nothing before the
switch-on), with omega0 = k0^2 and k0 = 1 + i k0I, -1 < k0I < 0. The exact
solution is a sum of two Faddeeva terms; its asymptotic decomposition is a
saddle (algebraic) part plus a conditionally present pole (resonance) part.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass
from typing import Any, NamedTuple, Tuple

from . import specfun

SQRT_PI = math.sqrt(math.pi)

# the kernel squares t, x and k_s = x/(2t) and multiplies two such squares;
# below this scale none of those products overflows
SCALE_LIMIT = 1e150


class EvaluationDomainError(Exception):
    """Exact evaluation left double precision at some (x, t)."""

    def __init__(self, x: float, t: float, reason: str):
        self.x = x
        self.t = t
        super().__init__(f"evaluation domain error at (x={x!r}, t={t!r}): {reason}")


@dataclass(frozen=True)
class SourceParams:
    """Resonance parameters. k0I is the imaginary part of k0 = 1 + i k0I."""

    k0I: float

    def __post_init__(self):
        if not (-1.0 < self.k0I < 0.0):
            raise ValueError(f"k0I must lie in (-1, 0), got {self.k0I!r}")

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


@dataclass(frozen=True)
class SpaceTimePoint:
    x: float
    t: float

    def __post_init__(self):
        if not (self.x >= 0.0 and math.isfinite(self.x)):
            raise ValueError(f"x must be finite and >= 0, got {self.x!r}")
        if not (self.t > 0.0 and math.isfinite(self.t)):
            raise ValueError(f"t must be finite and > 0, got {self.t!r}")


@dataclass(frozen=True)
class WaveDecomposition:
    """Exact value plus its asymptotic ingredients at one (x, t).

    tau = x/(2 k0) is the complex traversal time and k_saddle = x/(2t) the
    stationary wavenumber; every field is finite.
    """

    psi_exact: complex
    psi_saddle: complex
    psi_pole: complex
    pole_crossed: bool
    u_plus: complex
    u_minus: complex
    tau: complex
    k_saddle: float


class Wave(NamedTuple):
    """kernel output: arrays of the broadcast (x, t) shape, or scalars."""

    psi: Any            # exact value; None when exact=False
    saddle: Any         # algebraic part, finite: its poles k_s = +-k0 are off the real axis
    pole: Any           # resonance part e^{-i omega0 t} e^{i k0 x}, unconditional
    pole_crossed: Any   # t > x/(2(1 + k0I)), i.e. Im u_+ > 0
    dpsi_dx: Any        # d psi/dx; None unless derivative=True


def pole_crossing_time(p: SourceParams, x):
    """Earliest time with Im u_+ > 0 at this x, namely x / (2 (1 + k0I))."""
    return x / (2.0 * (1.0 + p.k0I))


def _u_pair(k0: complex, k_s, t, sqrt=math.sqrt):
    """u_+- = +-(1 + i) sqrt(t/2) (k0 -+ k_s)."""
    pref = (1.0 + 1j) * sqrt(t / 2.0)
    return pref * (k0 - k_s), -pref * (k0 + k_s)


def _point(x, t, i: int) -> Tuple[float, float]:
    if not specfun._is_array(x, t):
        return float(x), float(t)
    import numpy as np

    xb, tb = np.broadcast_arrays(x, t)
    return float(xb.flat[i]), float(tb.flat[i])


def kernel(p: SourceParams, x, t, exact: bool = True, derivative: bool = False) -> Wave:
    """The wavefunction and its asymptotic parts over broadcast (x, t).

    psi = (1/2) e^{i k_s^2 t} [w(-u_+) + w(-u_-)], one vectorized w call per
    branch, with k_s = x/(2t) the stationary wavenumber and
    u_+- = +-(1 + i) sqrt(t/2) (k0 -+ k_s). The saddle part is
    sqrt(2/pi) t^{-1/2} e^{i k_s^2 t} k_s / ((i - 1)(k0 - k_s)(k0 + k_s)):
    |k0 - k_s| >= |k0I| and |k0 + k_s| >= 1, so its denominator never
    vanishes. exact=False skips w for callers that need only the saddle and
    pole parts. derivative adds d psi/dx through w'(z) = -2 z w(z) + 2i/sqrt(pi)
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
    u_plus, u_minus = _u_pair(k0, k_s, t, sqrt)
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
    psi = dpsi = None
    if exact:
        try:
            w_p = specfun.faddeeva(-u_plus)
            w_m = specfun.faddeeva(-u_minus)
        except specfun.FaddeevaDomainError as exc:
            raise EvaluationDomainError(*_point(x, t, exc.index or 0), str(exc)) from exc
        psi = 0.5 * phase * (w_p + w_m)
        if derivative:
            c = (1.0 + 1j) / (2.0 * sqrt(2.0 * t))
            wd = 2.0 * (u_plus * w_p + u_minus * w_m) + 4j / SQRT_PI   # w'(-u_+) + w'(-u_-)
            dpsi = 0.5 * phase * (1j * k_s * (w_p + w_m) + c * wd)
    # Im u_+ > 0 in exact arithmetic, without the rounding of u_+ at t = t_c
    return Wave(psi, saddle, pole, t > pole_crossing_time(p, x), dpsi)


def evaluate_exact(p: SourceParams, pt: SpaceTimePoint) -> WaveDecomposition:
    """Exact wavefunction at one point with its decomposition record.

    The pole term is recorded unconditionally; pole_crossed says whether
    the asymptotic split would add it (Im u_+ > 0).
    """
    w = kernel(p, pt.x, pt.t)
    k_s = pt.x / (2.0 * pt.t)
    u_plus, u_minus = _u_pair(p.k0, k_s, pt.t)
    return WaveDecomposition(
        psi_exact=complex(w.psi),
        psi_saddle=complex(w.saddle),
        psi_pole=complex(w.pole),
        pole_crossed=bool(w.pole_crossed),
        u_plus=u_plus,
        u_minus=u_minus,
        tau=pt.x / (2.0 * p.k0),
        k_saddle=k_s,
    )


def evaluate_saddle(p: SourceParams, pt: SpaceTimePoint) -> complex:
    """Algebraic (steepest-descent) part, finite at every t > 0."""
    return complex(kernel(p, pt.x, pt.t, exact=False).saddle)


def evaluate_pole(p: SourceParams, pt: SpaceTimePoint) -> complex:
    """Resonance part e^{-i omega0 t} e^{i k0 x}, returned unconditionally."""
    return complex(kernel(p, pt.x, pt.t, exact=False).pole)


def evaluate_approx(p: SourceParams, pt: SpaceTimePoint) -> complex:
    """Saddle plus pole, the pole included only once Im u_+ > 0."""
    w = kernel(p, pt.x, pt.t, exact=False)
    return complex(w.saddle) + (complex(w.pole) if w.pole_crossed else 0j)


def u_moduli(p: SourceParams, pt: SpaceTimePoint) -> Tuple[float, float]:
    """Closed-form |u_+| and |u_-|, sqrt(t) |k0 -+ k_s| with k_s = x/(2t).

    Both moduli diverge as t -> 0+ and t -> inf; |u_+| bottoms out at
    t = |tau|, where k_s = |k0|.
    """
    k_s = pt.x / (2.0 * pt.t)
    root_t = math.sqrt(pt.t)
    return root_t * math.hypot(1.0 - k_s, p.k0I), root_t * math.hypot(1.0 + k_s, p.k0I)


def boundary_value(p: SourceParams, t: float) -> complex:
    """Prescribed origin value e^{-i omega0 t} for t > 0."""
    return cmath.exp(-1j * p.omega0 * t)


def wavefunction(p: SourceParams, x: float, t: float) -> complex:
    """Convenience evaluator honoring the switch-on: exactly 0 for t <= 0."""
    if t <= 0.0:
        return 0j
    return complex(kernel(p, x, t).psi)


def density_and_current(
    p: SourceParams, pt: SpaceTimePoint
) -> Tuple[float, complex, float]:
    """Probability density, analytic d psi/dx, and current at one point.

    rho = |psi|^2 and J = 2 Im[psi* dpsi/dx].
    """
    w = kernel(p, pt.x, pt.t, derivative=True)
    psi, dpsi = complex(w.psi), complex(w.dpsi_dx)
    return abs(psi) ** 2, dpsi, 2.0 * (psi.conjugate() * dpsi).imag


def density_grid(p: SourceParams, xs, ts):
    """|psi|^2 on the outer product of xs and ts (rows are x, columns t); 0 for t <= 0."""
    import numpy as np

    xs, ts = np.asarray(xs, dtype=float), np.asarray(ts, dtype=float)
    out = np.zeros((xs.size, ts.size))
    on = ts > 0.0
    out[:, on] = np.abs(kernel(p, xs[:, None], ts[on]).psi) ** 2
    return out
