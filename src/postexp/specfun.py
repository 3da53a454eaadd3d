"""Complex special functions used by the exact source solution.

The central object is the scaled complementary error function
w(z) = exp(-z^2) erfc(-iz), together with its large-argument series and
its analytic derivative. Everything here is pure and stateless.

w(z) is Weideman's rational series (J.A.C. Weideman, SIAM J. Numer. Anal.
31, 1497, 1994) with N = 40 terms in the upper half-plane and the
reflection w(z) = 2 exp(-z^2) - w(-z) below it. Scalars need no numpy; array
arguments use it, and only they import it.

lambertw_m1 gives the lower real branch W_{-1} of w e^w = z, taken in
l = ln(-z). It closes the critical distance x_max and, in one closed form,
every crossing t^{3/2} = C e^{gamma t/2}: the continuum's late_time
transition and the lattice's, with l = ln(gamma/3) + (2/3) ln C.

chain_levels solves the tight-binding chain (postexp.lattice) by bisection:
like faddeeva, one value on floats and many at once on arrays.
"""

from __future__ import annotations

import cmath
import contextlib
import math
import sys
from typing import Optional

SQRT_PI = math.sqrt(math.pi)

# exp(-z^2) in the lower half-plane grows like exp(Im(z)^2 - Re(z)^2);
# refuse evaluations whose log-modulus passes this instead of returning inf.
OVERFLOW_LIMIT = 0.9 * math.log(sys.float_info.max)
HALF_MAX = 0.5 * sys.float_info.max


# Weideman's N = 40 series: the Taylor coefficients in Z = (L + iz)/(L - iz),
# highest power first, and the scale L = sqrt(N / sqrt(2)). They are the
# discrete Fourier coefficients of f(t) = exp(-t^2) (L^2 + t^2) sampled at
# t = L tan(theta/2), theta = k pi/(2N), k = 1 - 2N .. 2N - 1, taken from
# numpy.fft and written out (tests/test_specfun.py rebuilds them).
_W_L = 5.3182958969449885
_W_COEF = (
    -1.7356980998791865e-15, 1.201674910759281e-15, 1.1519170220749485e-14,
    -5.231716366324404e-15, -7.071088022159408e-14, 1.3778224047664046e-14,
    4.5341448909434655e-13, 1.203330952919568e-13, -2.90771851041427e-12,
    -2.7277735625830245e-12, 1.771418567386718e-11, 3.4727420938907015e-11,
    -9.055138860958323e-11, -3.5632350403602684e-10, 2.1085990731251058e-10,
    3.017780425551564e-09, 3.249746582945079e-09, -1.8315616834296834e-08,
    -6.351773483015411e-08, 1.419864237295343e-08, 5.912136953029057e-07,
    1.4835661133172014e-06, -1.066013898416273e-06, -1.8007447144723407e-05,
    -5.5913092642348794e-05, -3.939363145483805e-05, 0.000439807015986967,
    0.002705405633073729, 0.010048186242783535, 0.02920291647124188,
    0.07182361779074328, 0.15504263802479504, 0.2998943799615006,
    0.5266528988277086, 0.8472174576593815, 1.2563815675765133,
    1.7253830848179779, 2.201513794878312, 2.6160541527618597,
    2.899624509389705,
)


class FaddeevaDomainError(ValueError):
    """w(z) cannot be evaluated in double precision; index locates z in an array argument."""

    def __init__(self, z: complex, reason: str, index: Optional[int] = None):
        self.z = z
        self.index = index
        super().__init__(f"w(z) domain error at z={z!r}: {reason}")


def _is_array(*values) -> bool:
    """Whether any value is a numpy array; no value is one while numpy is unloaded."""
    np = sys.modules.get("numpy")
    return np is not None and any(isinstance(v, np.ndarray) for v in values)


def first_false(ok) -> Optional[int]:
    """Flat index of the first False in a boolean array or scalar, else None.

    Scalars skip the array reduction, which costs more than what it guards.
    """
    if not _is_array(ok):
        return None if ok else 0
    return None if ok.all() else int((~ok).ravel().argmax())


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
    Scalars and arrays sum the series in one function (_weideman), with
    complex and numpy arithmetic; they agree to a few ulps, not bit for bit.
    A non-finite argument, or one past the overflow guard, raises
    FaddeevaDomainError at the first offending z rather than returning inf.
    """
    array = _is_array(z)
    if array:
        import numpy as np

        quiet = np.errstate(over="ignore", invalid="ignore")
    else:
        z, quiet = complex(z), contextlib.nullcontext()
    with quiet:
        # squares and products past double range are inf or nan here, and fail
        # the guard. Below the real axis, z^2 = x^2 - y^2 + 2ixy: where 2xy passes
        # double range, exp(-z^2) is nan unless x^2 does too, which makes it 0
        x, y = z.real, z.imag
        ok = ((abs(x) < math.inf) & (abs(y) < math.inf)
              & ((y >= 0.0) | ((y * y - x * x <= OVERFLOW_LIMIT)
                               & ((abs(x * y) <= HALF_MAX) | (x * x == math.inf)))))
        i = first_false(ok)
        if i is None:
            if array:
                lower = y < 0.0
                w = _weideman(np.where(lower, -z, z))
                if lower.any():
                    # exp(-z^2) only where it is bounded by the overflow guard
                    reflection = np.exp(-z * z, out=np.zeros_like(w), where=lower)
                    w = np.where(lower, 2.0 * reflection - w, w)
            else:
                w = 2.0 * cmath.exp(-z * z) - _weideman(-z) if y < 0.0 else _weideman(z)
            i = first_false(abs(w) < math.inf)
            if i is None:
                return w
    bad = complex(z.flat[i] if array else z)
    # above the real axis no exp(-z^2) is taken: Weideman's divisions by
    # L - iz overflow where |z| nears double range
    reason = ("non-finite argument" if not cmath.isfinite(bad) else "exp(-z^2) overflows"
              if bad.imag < 0.0 else "the rational series overflows near double range")
    raise FaddeevaDomainError(bad, reason, i if array else None)


def _weideman(z):
    """The series for Im z >= 0, in operators only: a complex scalar or an array."""
    d = _W_L - 1j * z
    big_z = (_W_L + 1j * z) / d
    acc = 0.0
    for c in _W_COEF:
        acc = acc * big_z + c
    return (2.0 * acc / d + 1.0 / SQRT_PI) / d


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


# above the real axis and outside the square |Re z|, Im z < 8, the derivative's
# large-|z| series with 16 terms is within 2.8 eps of mpmath (checked out to
# 10 times the square), where the identity would lose eps |z|^2
_DERIVATIVE_SERIES_R = 8.0
_DERIVATIVE_SERIES_TERMS = 16


def faddeeva_derivative(z):
    """dw/dz of a complex scalar or an array.

    Above the real axis, at |Re z| or Im z >= 8, it sums the large-|z| series
    w'(z) = -i/(sqrt(pi) z^2) sum_m (2m+1)!!/(2 z^2)^m in 1/z: within a few eps
    of mpmath, and never past double range. Elsewhere it takes the identity
    w'(z) = -2 z w(z) + 2i/sqrt(pi), whose terms cancel to about
    -i/(sqrt(pi) z^2): the rounding of z w(z) grows to about eps |z|^2
    relative below the axis. z w(z) is formed first: 2z alone passes double
    range from |z| ~ 9e307. Non-finite z, and w(z) past double range, raise
    FaddeevaDomainError as faddeeva does.
    """
    array = _is_array(z)
    z = z if array else complex(z)
    x, y = z.real, z.imag
    series = ((0.0 <= y) & (y < math.inf) & (abs(x) < math.inf)
              & ((abs(x) >= _DERIVATIVE_SERIES_R) | (y >= _DERIVATIVE_SERIES_R)))
    if not array:
        return _derivative_series(z) if series else -2.0 * (z * faddeeva(z)) + 2j / SQRT_PI
    np = sys.modules["numpy"]
    near = np.where(series, 0.0, z)
    with np.errstate(over="ignore"):   # inside 1/z, only where |z| nears double range and 1/z^2 is 0
        far = _derivative_series(np.where(series, z, _DERIVATIVE_SERIES_R))
    return np.where(series, far, -2.0 * (near * faddeeva(near)) + 2j / SQRT_PI)


def _derivative_series(z):
    """The large-|z| series of w'(z) by Horner's rule in h = 1/(2 z^2)."""
    v = 1.0 / z
    h = 0.5 * v * v
    acc = 1.0
    for m in range(_DERIVATIVE_SERIES_TERMS, 0, -1):
        acc = 1.0 + (2 * m + 1) * h * acc
    return -1j / SQRT_PI * (v * v) * acc


# within this distance p of the branch point the series is exact to
# rounding, while a Halley step there would amplify the residual's rounding
# by 1/|1 + W|
_BRANCH_SERIES_P = 1e-3
# three steps reach rounding level from these guesses (mpmath-checked); cubic
# convergence makes a fourth a no-op, the rest is margin
_HALLEY_STEPS = 6


def lambertw_m1(l: float) -> float:
    """Real Lambert W on its lower branch, taken in l = ln(-z): the root
    w <= -1 of w e^w = z = -e^l, that is of w + ln(-w) = l.

    l must satisfy -inf < l <= -1 (z below double range included, the branch
    point exactly at l = -1); anything else, nan included, raises
    ValueError. The starting guess is the branch-point series in
    p = -sqrt(2(e z + 1)) = -sqrt(-2 expm1(l + 1)) for z < -1/4 and the
    asymptotic l - L2 + L2/l (L2 = ln(-l)) beyond; Halley steps then solve
    w + ln(-w) = l, except within |p| < 1e-3 of the branch point, where the
    series is kept. The error is a few ulps of l times |W/(1 + W)|.
    """
    if not -math.inf < l <= -1.0:
        raise ValueError(f"W_{{-1}} is real only for ln(-z) <= -1; got ln(-z)={l!r}")
    p = -math.sqrt(-2.0 * math.expm1(l + 1.0))
    w = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0))))
    if -p < _BRANCH_SERIES_P:
        return w
    if l <= math.log(0.25):
        l2 = math.log(-l)
        w = l - l2 + l2 / l
    for _ in range(_HALLEY_STEPS):
        f = w + math.log(-w) - l
        d1 = 1.0 + 1.0 / w
        step = f / (d1 + 0.5 * f / (w * w * d1))
        w -= step
        if abs(step) <= 4.0 * sys.float_info.epsilon * abs(w):
            break
    return w


def chain_levels(delta: float, n: int, base):
    """(E, theta, |<1|k>|, 1/norm) of the n-site chain's level k = base + theta
    in the bracket base = j pi/n, 0 < theta < pi/n (postexp.lattice): a float
    base runs on math, an array solves its brackets at once on numpy. Bisects
    (-1)^j times the secular function until the bracket stops shrinking; the
    norm is closed-form. Where psi_1 = sin(n k)/delta overflows, |<1|k>| is nan.
    """
    array = _is_array(base)
    xp = sys.modules["numpy"] if array else math   # cos, sin and sqrt of either
    cos, sin = xp.cos, xp.sin
    lo, hi, d2 = 0.0 * base, 0.0 * base + math.pi / n, delta * delta   # shaped like base
    while True:
        theta = 0.5 * (lo + hi)
        shrinking = (lo < theta) & (theta < hi)
        if not (shrinking.any() if array else shrinking):
            break
        # 2 cos k sin(n k) - delta^2 sin((n - 1) k), the sines' (-1)^j taken out
        up = 2.0 * cos(base + theta) * sin(n * theta) - d2 * sin((n - 1) * theta - base) > 0.0
        if array:
            lo, hi = xp.where(up, theta, lo), xp.where(up, hi, theta)
        else:
            lo, hi = (theta, hi) if up else (lo, theta)
    # sum_{m=1}^{n-1} sin^2(m k) = (n - 1)/2 - sin((n-1)k) cos(nk) / (2 sin k)
    bulk = 0.5 * (n - 1) - sin((n - 1) * theta - base) * cos(n * theta) / (2.0 * sin(base + theta))
    psi_1 = sin(n * theta) / delta
    scale = 1.0 / xp.sqrt(bulk + psi_1 * psi_1)
    return -2.0 * cos(base + theta), theta, psi_1 * scale, scale
