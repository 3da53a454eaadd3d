"""Complex special functions used by the exact source solution.

The central object is the scaled complementary error function
w(z) = exp(-z^2) erfc(-iz), together with its large-argument series and
its analytic derivative. Everything here is pure and stateless.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Optional

import numpy as np
from scipy.special import wofz

SQRT_PI = math.sqrt(math.pi)

# exp(-z^2) in the lower half-plane grows like exp(Im(z)^2 - Re(z)^2);
# refuse evaluations whose log-modulus passes this instead of returning inf.
OVERFLOW_LIMIT = 0.9 * math.log(sys.float_info.max)


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
    of its shape from one vectorized call). Accurate to better than 1e-12
    relative in the closed upper half-plane. Lower half-plane values follow
    the reflection w(-z) = 2 exp(-z^2) - w(z) and lose accuracy as exp(-z^2)
    grows; a non-finite argument, or one past the overflow guard, raises
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
        w = wofz(z)
        i = first_false(abs(w) < math.inf)
        if i is None:
            return w if array else complex(w)
    bad = complex(z.flat[i] if array else z)
    reason = "exp(-z^2) overflows" if abs(bad) < math.inf else "non-finite argument"
    raise FaddeevaDomainError(bad, reason, i if array else None)


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
