"""The kernel on scalars and arrays: property tests over the whole domain.

The domain is -1 < k0I < 0, x from 0 to past the critical distance (the
scan ceiling 100/|k0I| times 1.2), and t from 1e-6 into the tail (the
transition scan horizon 1e3/gamma). Values are checked against an mpmath
evaluation of w(z) = exp(-z^2) erfc(-iz) at 40 or more digits, never
against the kernel itself.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postexp import source_model as sm
from postexp import specfun

from conftest import psi_mpmath_oracle, saddle_mpmath_oracle

EPS = np.finfo(float).eps
# derandomized: the same examples every run, so tier-1 stays deterministic
EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True)


def _close(got, want, kappa):
    return abs(got - want) <= (1e-10 + 16.0 * EPS * kappa) * abs(want)


@st.composite
def domain_points(draw, n=4):
    """k0I and n (x, t) points spread log-uniformly over the domain."""
    k0I = -draw(st.floats(0.001, 0.999))
    ceiling = 1.2 * 100.0 / abs(k0I)
    horizon = 1e3 / (4.0 * abs(k0I))
    xs, ts = [], []
    for _ in range(n):
        xs.append(draw(st.one_of(st.just(0.0),
                                 st.floats(-8.0, 0.0).map(lambda e: ceiling * 10.0 ** e))))
        ts.append(10.0 ** draw(st.floats(-6.0, math.log10(horizon))))
    return k0I, np.array(xs), np.array(ts)


@EXAMPLES
@given(domain_points())
def test_kernel_psi_matches_mpmath(case):
    k0I, xs, ts = case
    psi = sm.kernel(sm.SourceParams(k0I), xs, ts).psi
    assert psi.shape == xs.shape
    for x, t, got in zip(xs, ts, psi):
        want, kappa = psi_mpmath_oracle(k0I, x, t)
        assert _close(got, want, kappa), (k0I, x, t, got, want)


@EXAMPLES
@given(domain_points(n=1))
def test_scalar_kernel_matches_mpmath(case):
    k0I, (x,), (t,) = case
    x, t = float(x), float(t)
    want, kappa = psi_mpmath_oracle(k0I, x, t)
    psi = sm.kernel(sm.SourceParams(k0I), x, t).psi
    assert _close(psi, want, kappa)
    rho = abs(psi) ** 2
    assert abs(rho - abs(want) ** 2) <= 2.0 * (1e-10 + 16.0 * EPS * kappa) * abs(want) ** 2


@EXAMPLES
@given(st.floats(0.001, 0.999), st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=50))
def test_boundary_identity_on_arrays(k, exponents):
    p = sm.SourceParams(-k)
    ts = 10.0 ** np.array(exponents)
    psi = sm.kernel(p, 0.0, ts).psi
    assert np.all(np.abs(psi - np.exp(-1j * p.omega0 * ts)) < 1e-10)


@EXAMPLES
@given(domain_points(n=8))
def test_continuity_residual_on_arrays(case):
    # d rho/dt + dJ/dx = 0 with J = 2 Im(psi* dpsi/dx) from the kernel's
    # derivative; central differences on steps well inside the local
    # length and time scales (distance to the source, Faddeeva argument,
    # chirp, source period).
    # Where the two w branches cancel, the difference quotients carry the
    # evaluation's own rounding, eps * kappa, divided by the step.
    k0I, xs, ts = case
    p = sm.SourceParams(k0I)
    xs = np.maximum(xs, 1e-6 * 1.2 * 100.0 / abs(k0I))
    len_x = np.minimum.reduce([np.ones_like(xs), xs, np.sqrt(ts), 2.0 * ts / xs])
    len_t = np.minimum.reduce([np.ones_like(ts), ts, (2.0 * ts / xs) ** 2])
    hx, ht = 1e-3 * len_x, 1e-3 * len_t

    def rho(x, t):
        return np.abs(sm.kernel(p, x, t).psi) ** 2

    def current(x, t):
        w = sm.kernel(p, x, t, derivative=True)
        return 2.0 * (np.conj(w.psi) * w.dpsi_dx).imag

    drho_dt = (rho(xs, ts + ht) - rho(xs, ts - ht)) / (2.0 * ht)
    dj_dx = (current(xs + hx, ts) - current(xs - hx, ts)) / (2.0 * hx)
    w = sm.kernel(p, xs, ts, derivative=True)
    kappa = np.array([psi_mpmath_oracle(k0I, x, t)[1] for x, t in zip(xs, ts)])
    noise = 64.0 * EPS * kappa * (np.abs(w.psi) ** 2 / ht + np.abs(w.psi * w.dpsi_dx) / hx)
    bound = 1e-3 * (np.abs(drho_dt) + np.abs(dj_dx)) + noise
    assert np.all(np.abs(drho_dt + dj_dx) <= bound), (k0I, xs, ts)


@pytest.mark.parametrize("x, t", [(2.5, 7.0), (0, 3), (1, 1e-6), (2.5, 70.0)])
def test_scalar_fields_are_python_types(p03, x, t):
    # Python float or int in, Python complex (and bool) out; arrays keep
    # the broadcast shape
    w = sm.kernel(p03, x, t, derivative=True)
    assert [type(v) for v in w] == [complex, complex, complex, bool, complex]
    assert w.pole_crossed == (t > x / (2.0 * (1.0 + p03.k0I)))
    w = sm.kernel(p03, np.full((3, 1), float(x)), np.array([t, 2 * t]), derivative=True)
    assert [v.shape for v in w] == [(3, 2)] * 5


# ---------------------------------------------------------------- domain

@pytest.mark.parametrize("x, t", [
    (-0.5, 1.0), (1.0, 0.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.nan),
    (math.inf, 1.0), (1.0, math.inf),
])
def test_out_of_domain_scalars_raise(p03, x, t):
    with pytest.raises(ValueError):
        sm.kernel(p03, x, t)


def test_out_of_domain_array_names_first_bad_value(p03):
    xs = np.array([0.5, 1.0, -3.0, -4.0])
    with pytest.raises(ValueError, match="-3.0"):
        sm.kernel(p03, xs, 2.0)
    ts = np.array([[1.0, math.nan], [2.0, 0.0]])
    with pytest.raises(ValueError, match="nan"):
        sm.kernel(p03, 1.0, ts)


def test_overflow_raises_typed_error_at_first_point(p03):
    # far beyond the front the pole part e^{k0I (2t - x)} overflows: a typed
    # error naming the first offending (x, t) in flat order, never inf
    xs = np.array([[1.0], [3000.0], [5000.0]])
    ts = np.array([1.0, 1e3, 1e-3])
    with pytest.raises(sm.EvaluationDomainError) as err:
        sm.kernel(p03, xs, ts)
    assert (err.value.x, err.value.t) == (3000.0, 1.0)
    with pytest.raises(sm.EvaluationDomainError):
        sm.kernel(p03, 4000.0, 1e-3)


def test_faddeeva_array_guard_reports_index():
    z = np.array([1j, 2.0 + 1j, complex(math.nan, 0.0), -40j])
    with pytest.raises(specfun.FaddeevaDomainError) as err:
        specfun.faddeeva(z)
    assert err.value.index == 2
    with pytest.raises(specfun.FaddeevaDomainError) as err:
        specfun.faddeeva(z[[0, 1, 3]])
    assert err.value.index == 2


def _saddle_close(got, k0I, x, t):
    want, kappa = saddle_mpmath_oracle(k0I, x, t)
    return abs(got - want) <= 8.0 * EPS * kappa * abs(want)


def test_saddle_matches_mpmath_at_tiny_x_and_t(p03):
    # t^2 = tau^2 has no real root; t^2 and tau^2 underflow from the third
    # point on, t^{-1/2} alone is 3.6e161 at t = 5e-324, and k_s = 1e149 at
    # the last point, where t^{-1/2} k_s alone would overflow
    points = [(1e-6, 1e-6), (2e-6, abs(2e-6 / (2.0 * p03.k0))), (1e-200, 1e-170),
              (1e-300, 1e-300), (5e-324, 5e-324), (0.0, 5e-324), (1e-174, 5e-324)]
    for x, t in points:
        scalar = sm.kernel(p03, x, t).saddle
        array = complex(sm.kernel(p03, np.array([x]), np.array([t])).saddle[0])
        for got in (scalar, array):
            assert _saddle_close(got, p03.k0I, x, t), (x, t, got)


def test_saddle_nan_only_on_singular_locus(p03):
    # the saddle's only singularity is k_s = +-k0, off the real k_s axis, so
    # no point of the domain gives nan: not t = |tau| either, where the tau
    # form t^2 - tau^2 has its nearest approach to zero
    x = 2e-6
    tau = x / (2.0 * p03.k0)
    w = sm.kernel(p03, np.array([x, x]), np.array([abs(tau), 1.0]))
    assert np.all(np.isfinite(w.saddle)) and np.all(np.isfinite(w.psi))
    for got, t in zip(w.saddle.tolist(), (abs(tau), 1.0)):
        assert _saddle_close(got, p03.k0I, x, t), (x, t, got)


def test_saddle_matches_mpmath_over_the_domain():
    # half of the times within 1e-3 of the pole crossing t_c, where t - tau
    # is smallest; every saddle is finite on both branches
    rng = np.random.default_rng(20)
    for k0I in -np.logspace(math.log10(0.98), -12, 32):
        p = sm.SourceParams(float(k0I))
        xs = 10.0 ** rng.uniform(-8.0, 3.0, 100)
        t_c = sm.pole_crossing_time(p, xs)
        ts = np.where(np.arange(100) % 2, t_c * (1.0 + rng.uniform(-1e-3, 1e-3, 100)),
                      10.0 ** rng.uniform(-6.0, 4.0, 100))
        array = sm.kernel(p, xs, ts).saddle
        for x, t, got in zip(xs.tolist(), ts.tolist(), array.tolist()):
            scalar = sm.kernel(p, x, t).saddle
            assert _saddle_close(scalar, p.k0I, x, t), (p.k0I, x, t, scalar)
            assert _saddle_close(got, p.k0I, x, t), (p.k0I, x, t, got)


def _outcome(p, x, t):
    """(psi, saddle, pole) of the kernel at one point, or its error message."""
    try:
        w = sm.kernel(p, x, t)
    except sm.EvaluationDomainError as err:
        return str(err)
    return tuple(complex(np.ravel(v)[0]) for v in (w.psi, w.saddle, w.pole))


EDGES = [
    (1e-200, 1e-170, -0.3),    # t^2 and tau^2 underflow to 0, the saddle does not
    (5e-324, 1.0, -0.3),       # the saddle underflows to 0
    (1.0, 1e300, -0.3),        # t^2 overflows
    (1.0, 1e154, -0.3),        # (x - 2t)^2 overflows
    (1.0, 1e-160, -0.3),       # k_s^2 = (x/2t)^2 overflows
    (2e-20, 1e-20, -1e-300),   # the saddle overflows: |k0 - k_s| = |k0I| at k_s = 1
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x, t, k0I", EDGES, ids=[f"{x}-{t}" for x, t, _ in EDGES])
def test_scalar_and_array_agree_at_the_edges(x, t, k0I):
    # no ZeroDivisionError, OverflowError, RuntimeWarning or silent nan: each
    # edge gives a finite value or the same typed error on both branches
    p = sm.SourceParams(k0I)
    scalar = _outcome(p, x, t)
    array = _outcome(p, np.array([x]), np.array([t]))
    if isinstance(scalar, str):
        assert scalar == array
        assert scalar.startswith(f"evaluation domain error at (x={x!r}, t={t!r})")
        return
    np.testing.assert_allclose(scalar, array, rtol=1e-15, atol=0.0)
    assert np.all(np.isfinite(scalar))


def test_first_offending_point_is_the_same_on_both_branches(p03):
    # a pole overflow after a scale overflow in flat order: both branches
    # name the scale point, as a point-by-point loop meets it first
    xs = np.array([1.0, 1.0, 5000.0])
    ts = np.array([1.0, 1e-160, 1.0])
    with pytest.raises(sm.EvaluationDomainError) as err:
        sm.kernel(p03, xs, ts)
    assert (err.value.x, err.value.t) == (1.0, 1e-160)
    assert str(err.value) == _outcome(p03, 1.0, 1e-160)
    assert "pole part overflows" in _outcome(p03, 5000.0, 1.0)
