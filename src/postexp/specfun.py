"""Complex special functions used by the exact source solution.

The central object is the scaled complementary error function
w(z) = exp(-z^2) erfc(-iz), together with its large-argument series and
its analytic derivative. Everything here is pure and stateless.

w(z) is Weideman's rational series (J.A.C. Weideman, SIAM J. Numer. Anal.
31, 1497, 1994) with N = 40 terms in the upper half-plane and the
reflection w(z) = 2 exp(-z^2) - w(-z) below it; it needs numpy only.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Optional

import numpy as np

SQRT_PI = math.sqrt(math.pi)

# exp(-z^2) in the lower half-plane grows like exp(Im(z)^2 - Re(z)^2);
# refuse evaluations whose log-modulus passes this instead of returning inf.
OVERFLOW_LIMIT = 0.9 * math.log(sys.float_info.max)


def _weideman_coefficients(n: int):
    """Taylor coefficients of Weideman's series in Z = (L + iz)/(L - iz),
    highest power first, and the scale L = sqrt(n / sqrt(2)).

    They are the discrete Fourier coefficients of
    f(t) = exp(-t^2) (L^2 + t^2) sampled at t = L tan(theta/2).
    """
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    t = scale * np.tan(np.arange(1 - m, m) * math.pi / (2 * m))
    f = np.concatenate(([0.0], np.exp(-t * t) * (scale * scale + t * t)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return a[n:0:-1].tolist(), scale


_W_COEF, _W_L = _weideman_coefficients(40)


class FaddeevaDomainError(ValueError):
    """w(z) cannot be evaluated in double precision; index locates z in an array argument."""

    def __init__(self, z: complex, reason: str, index: Optional[int] = None):
        self.z = z
        self.index = index
        super().__init__(f"w(z) domain error at z={z!r}: {reason}")


def first_false(ok) -> Optional[int]:
    """Flat index of the first False in a boolean array or scalar, else None.

    Scalars skip the array reduction, which costs more than what it guards.
    """
    if not isinstance(ok, np.ndarray):
        return None if ok else 0
    return None if ok.all() else int(np.flatnonzero(~ok)[0])


def faddeeva(z):
    """Scaled complementary error function w(z) = exp(-z^2) erfc(-iz).

    Takes a complex scalar (returns a complex) or an array (returns an array
    of its shape from one vectorized call). For Im z >= 0 it sums Weideman's
    40-term rational series by Horner's rule, with Z = (L + iz)/(L - iz):
    w = (2 p(Z)/(L - iz) + 1/sqrt(pi))/(L - iz). Against mpmath over |z| from
    1e-3 to 1e8, including |Im z| down to 1e-12, the largest relative error
    measured in the upper half-plane is 1.1e-15. Lower half-plane values
    follow the reflection w(z) = 2 exp(-z^2) - w(-z) and carry the rounding
    of exp(-z^2), about eps |z|^2 (5.2e-14 measured out to |z| = 30).
    Scalars use complex/cmath arithmetic and arrays numpy, summing the same
    series in the same order; they agree to a few ulps, not bit for bit.
    A non-finite argument, or one past the overflow guard, raises
    FaddeevaDomainError at the first offending z rather than returning inf.
    """
    array = isinstance(z, np.ndarray)
    if not array:
        z = complex(z)
    # |z| < inf fails exactly when a part is nan or infinite
    growth = z.imag * z.imag - z.real * z.real
    ok = (abs(z) < math.inf) & ((z.imag >= 0.0) | (growth <= OVERFLOW_LIMIT))
    i = first_false(ok)
    if i is None:
        w = _faddeeva_array(z) if array else _faddeeva_scalar(z)
        i = first_false(abs(w) < math.inf)
        if i is None:
            return w
    bad = complex(z.flat[i] if array else z)
    reason = "exp(-z^2) overflows" if abs(bad) < math.inf else "non-finite argument"
    raise FaddeevaDomainError(bad, reason, i if array else None)


def _faddeeva_scalar(z: complex) -> complex:
    lower = z.imag < 0.0
    zu = -z if lower else z
    d = _W_L - 1j * zu
    big_z = (_W_L + 1j * zu) / d
    acc = 0.0j
    for c in _W_COEF:
        acc = acc * big_z + c
    w = (2.0 * acc / d + 1.0 / SQRT_PI) / d
    return 2.0 * cmath.exp(-z * z) - w if lower else w


def _faddeeva_array(z: np.ndarray) -> np.ndarray:
    lower = z.imag < 0.0
    zu = np.where(lower, -z, z)
    d = _W_L - 1j * zu
    big_z = (_W_L + 1j * zu) / d
    acc = np.zeros_like(big_z)
    for c in _W_COEF:
        acc *= big_z
        acc += c
    w = (2.0 * acc / d + 1.0 / SQRT_PI) / d
    if lower.any():
        # exp(-z^2) only where it is bounded by the overflow guard
        reflection = np.exp(-z * z, out=np.zeros_like(w), where=lower)
        w = np.where(lower, 2.0 * reflection - w, w)
    return w


def faddeeva_asymptotic(z: complex, m_max: int) -> complex:
    """Truncated large-|z| series for w(z).

    i/(sqrt(pi) z) [1 + sum_{m=1..m_max} (2m-1)!!/(2 z^2)^m], plus the
    reflection term 2 exp(-z^2) when Im z < 0. Valid for |z| >= 3; used to
    validate the saddle-plus-pole split, not in production paths.
    """
    z = complex(z)
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    if abs(z) < 3.0:
        raise FaddeevaDomainError(z, "|z| below asymptotic validity floor 3")
    if z.imag < 0.0 and z.imag * z.imag - z.real * z.real > OVERFLOW_LIMIT:
        raise FaddeevaDomainError(z, "exp(-z^2) overflows in the lower half-plane")
    acc = 1.0 + 0.0j
    term = 1.0 + 0.0j
    inv2z2 = 1.0 / (2.0 * z * z)
    for m in range(1, m_max + 1):
        term *= (2 * m - 1) * inv2z2
        acc += term
    out = 1j / (SQRT_PI * z) * acc
    if z.imag < 0.0:
        out += 2.0 * cmath.exp(-z * z)
    return out


def faddeeva_derivative(z):
    """dw/dz via the identity w'(z) = -2 z w(z) + 2i/sqrt(pi); scalar or array."""
    return -2.0 * z * faddeeva(z) + 2j / SQRT_PI
