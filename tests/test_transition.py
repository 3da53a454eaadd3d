"""Transition-time root finding, turning point, critical distance."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from postexp import source_model as sm
from postexp import transition as tr

from conftest import (approx_mpmath_oracle, brute_force_x_max, log_ratio_mpmath_oracle,
                      log_ratio_oracle, max_log_ratio_after_pole, psi_mpmath_oracle)

EPS = np.finfo(float).eps


def test_ratio_value(p03):
    got = tr.ratio_R(p03, 2.5, 7.0)
    assert got == pytest.approx(0.8866309684548577, rel=1e-9)


def test_ratio_rejects_boundary(p03):
    for x, t in ((0.0, 5.0), (-1.0, 5.0), (1.0, 0.0), (1.0, -2.0), (math.nan, 5.0),
                 (math.inf, 5.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError):
            tr.ratio_R(p03, x, t)


def test_ratio_at_tiny_distance_and_time(p03):
    # no singular locus for real t: R is finite where t^2 - tau^2 is below 1e-12
    got = tr.ratio_R(p03, 1e-6, 1e-6)
    assert got == pytest.approx(float(mpmath.exp(log_ratio_mpmath_oracle(-0.3, 1e-6, 1e-6)[0])),
                                rel=1e-13)


@pytest.mark.parametrize("k0I, x, t", [
    (-0.3, 1.0, 1e-17), (-0.3, 10.0, 5e-324), (-1e-8, 1e8, 1e-6), (-0.9999, 3.0, 1e-20),
    (-0.3, 1e3, 1.0), (-0.3, 2.5, 0.8), (-1e-3, 40.0, 5.0)])
def test_ratio_long_before_the_pole_crossing(k0I, x, t):
    # below t ~ eps t_c, 1 + kappa sigma rounds to 0, so before t_c/2 R comes
    # from the t-form; its ln R is good to a few ulps of |ln R|, which exp keeps
    want = float(_ratio_mpmath(k0I, x, t))
    rel = 4.0 * EPS * (1.0 + abs(math.log(want)))
    assert tr.ratio_R(sm.SourceParams(k0I), x, t) == pytest.approx(want, rel=rel)


def _ratio_mpmath(k0I, x, t):
    """|pole|/|saddle| at 40 digits, from the parts as kernel defines them."""
    with mpmath.workdps(40):
        k0 = mpmath.mpc(1, k0I)
        xm, tm = mpmath.mpf(x), mpmath.mpf(t)
        pole = mpmath.exp(-1j * k0 * k0 * tm + 1j * k0 * xm)
        saddle = (mpmath.sqrt(2 * tm / mpmath.pi) * (xm / (2 * k0))
                  / ((mpmath.mpc(-1, 1)) * k0 * (tm * tm - (xm / (2 * k0)) ** 2)))
        return abs(pole) / abs(saddle)


@pytest.mark.parametrize("x", [5e-324, 1e-323, 1.5e-323, 7e-322, 3e-320, 1e-310, 2e-308])
def test_ratio_at_subnormal_distance(x):
    # t_c and tau keep a subnormal's few bits, and t_c rounds to 0 for
    # |k0I| < 2^-53 at x = 5e-324; scaled into the normal range, ln R keeps
    # the rounding of its terms of size |ln 2^-1000| ~ 700
    factors = [1e-3, 0.1, 0.5, 0.7, 0.9, 1.0, 1.4, 2.0, 10.0, 1e3, 1e6, 1e10, 1e30, 1e100, 1e300]
    cases = [(k0I, x * f) for k0I in (-1e-3, -0.3, -0.9, -0.999999) for f in factors]
    checked = 0
    for k0I, t in cases + [(-1e-17, 1e-170)]:
        want = _ratio_mpmath(k0I, x, t) if t > 0.0 else 0.0
        if 1e-300 < want < 1e300:
            got = tr.ratio_R(sm.SourceParams(k0I), x, t)
            assert got == pytest.approx(float(want), rel=1e-12), (k0I, x, t)
            checked += 1
    assert checked >= 40


def test_ratio_past_double_range_is_a_typed_error():
    for k0I, x, t in ((-1e-8, 1e17, 1e-6), (-0.3, 1e4, 1.0)):
        with pytest.raises(sm.EvaluationDomainError, match="R passes double range"):
            tr.ratio_R(sm.SourceParams(k0I), x, t)


@pytest.mark.filterwarnings("error")
def test_sigma_overflow_is_a_typed_error(p03):
    # t_p/t_c passes the double range once k0I^2 x is below about 1e-277
    with pytest.raises(sm.EvaluationDomainError):
        tr.transition_times(sm.SourceParams(-1e-12), [1e-300, 1.0])
    with pytest.raises(sm.EvaluationDomainError):
        tr.ratio_R(p03, 1e-300, 1e10)


def test_pole_crossing_time(p03):
    assert tr.pole_crossing_time(p03, 2.0) == pytest.approx(2.0 / 1.4, rel=1e-15)


def test_transition_times_for_marked_distances(p03):
    # frozen root-finder outputs for the x = 0.1 / 2.5 / 12 columns
    frozen = {0.1: 12.4434, 2.5: 6.6774, 12.0: 9.0036}
    for x, expected in frozen.items():
        res = tr.transition_time(p03, x)
        assert res.valid
        assert res.method == "exact_ratio"
        assert res.t_p == pytest.approx(expected, abs=2e-3)
        assert res.residual < 1e-6
        assert res.t_p > tr.pole_crossing_time(p03, x)
        # the ratio really crosses 1 there
        assert tr.ratio_R(p03, x, res.t_p) == pytest.approx(1.0, abs=1e-5)


def test_density_fields_normalized_by_total_emission(p03):
    res = tr.transition_time(p03, 2.5)
    assert res.density_normalized == pytest.approx(
        res.density_raw * 2.0 * abs(p03.k0I), rel=1e-9)


def test_late_time_method_agrees_when_trajectory_is_distant(p03, p05):
    worst = 0.0
    qualifying = 0
    for p in (p03, p05):
        for x in (0.05, 0.1, 0.5, 1.0):
            exact = tr.transition_time(p, x, method="exact_ratio")
            late = tr.transition_time(p, x, method="late_time")
            tau = abs(x / (2.0 * p.k0))
            if exact.valid and exact.t_p > 10.0 * tau:
                qualifying += 1
                worst = max(worst, abs(exact.t_p - late.t_p) / exact.t_p)
    assert qualifying >= 5
    assert worst < 0.05


def test_unknown_method_rejected(p03):
    with pytest.raises(ValueError):
        tr.transition_time(p03, 1.0, method="newton")


def test_invalid_beyond_critical_distance(p03):
    x_max, _ = tr.critical_distance(p03)
    res = tr.transition_time(p03, 1.02 * x_max)
    assert not res.valid
    assert math.isnan(res.t_p)
    assert math.isnan(res.density_raw)


def test_turning_point_near_reciprocal_decay_scale(p01, p03):
    for p in (p01, p03):
        xstar = tr.tp_turning_point(p)
        target = 1.0 / abs(p.k0I)
        assert abs(xstar - target) / target < 0.20
        # deterministic
        assert tr.tp_turning_point(p) == xstar


@pytest.mark.parametrize("k0I, x, t", [(-0.3, 3.8, 7.0), (-0.05, 20.0, 60.0), (-0.9, 0.4, 2.5)])
def test_log_ratio_partials_match_finite_differences(k0I, x, t):
    p = sm.SourceParams(k0I)
    f, f_x, f_t, f_xx, f_xt = tr._log_ratio_partials(p, x, t)
    h, g = 1e-4 * x, 1e-4 * t

    def d_x(x, t):
        return (log_ratio_oracle(k0I, x + h, t) - log_ratio_oracle(k0I, x - h, t)) / (2.0 * h)

    assert f == pytest.approx(log_ratio_oracle(k0I, x, t), rel=1e-12, abs=1e-12)
    assert f_x == pytest.approx(d_x(x, t), rel=1e-6, abs=1e-9)
    assert f_t == pytest.approx((log_ratio_oracle(k0I, x, t + g)
                                 - log_ratio_oracle(k0I, x, t - g)) / (2.0 * g), rel=1e-6, abs=1e-9)
    assert f_xx == pytest.approx((d_x(x + h, t) - d_x(x - h, t)) / (2.0 * h), rel=1e-3)
    assert f_xt == pytest.approx((d_x(x, t + g) - d_x(x, t - g)) / (2.0 * g), rel=1e-3)


def _oracle_t_p(k0I, x):
    """Last downward root of ln R after t_c: dense-grid bracket, then brentq."""
    from scipy.optimize import brentq

    t_c = x / (2.0 * (1.0 + k0I))
    ts = t_c * (1.0 + np.geomspace(1e-13, 10.0 + 200.0 / (abs(k0I) * t_c), 20000))
    f = log_ratio_oracle(k0I, x, ts)
    i = np.flatnonzero((f[:-1] >= 0.0) & (f[1:] < 0.0))[-1]
    return brentq(lambda t: log_ratio_oracle(k0I, x, t), ts[i], ts[i + 1], xtol=1e-300)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k0I", [-0.05, -0.3, -0.6])
def test_turning_point_is_a_local_minimum(k0I):
    p = sm.SourceParams(k0I)
    xstar = tr.tp_turning_point(p)
    assert xstar < tr.critical_distance(p)[0]
    t_star = _oracle_t_p(k0I, xstar)
    for side in (1.0 - 1e-3, 1.0 + 1e-3):
        assert _oracle_t_p(k0I, xstar * side) >= t_star, side


@pytest.mark.filterwarnings("error")
def test_turning_point_at_the_critical_distance():
    # at k0I -0.9 the stationary point of t_p(x) lies past x_max
    p = sm.SourceParams(-0.9)
    x_max, _ = tr.critical_distance(p)
    assert tr.tp_turning_point(p) == x_max
    tps = [_oracle_t_p(-0.9, x) for x in np.linspace(0.05, 1.0 - 1e-6, 200) * x_max]
    assert np.all(np.diff(tps) < 0.0)


def test_critical_distance_frozen(p03):
    x_max, t_p = tr.critical_distance(p03)
    assert x_max == pytest.approx(13.650, rel=1e-2)
    assert t_p == pytest.approx(9.754, rel=1e-2)
    assert tr.transition_time(p03, 0.98 * x_max).valid


def test_critical_curve_shape_and_split_agreement():
    ks = [round(-0.1 * i, 1) for i in range(1, 9)]
    pts = tr.critical_density_curve([sm.SourceParams(k) for k in ks])
    assert [c.k0I for c in pts] == ks
    assert all(c.valid for c in pts)
    x_maxes = [c.x_max for c in pts]
    assert all(a > b for a, b in zip(x_maxes, x_maxes[1:]))
    for c in pts:
        rel = abs(c.density_approx - c.density_exact) / c.density_exact
        # saddle asymptotics degrade near the strong-decay end; 23.5%
        # measured at -0.8, inside 20% elsewhere
        assert rel < (0.25 if c.k0I <= -0.75 else 0.20), c.k0I


def test_jittoh_threshold():
    seen = set()
    for i in range(1, 11):
        k0I = -0.05 * i
        value, flagged = tr.jittoh_criterion(sm.SourceParams(k0I))
        assert value == 4.0 * abs(k0I)
        assert flagged == (value >= 2.0)
        seen.add(flagged)
    assert seen == {True, False}


def test_transition_curve_monotone_sections(p03):
    xs = np.geomspace(1e-4, 13.0, 100)
    exact = []
    pole = []
    for x in xs:
        res = tr.transition_time(p03, float(x))
        assert res.valid, x
        exact.append(res.density_raw)
        pole.append(abs(sm.kernel(p03, float(x), res.t_p).pole) ** 2)
    exact = np.array(exact)
    pole = np.array(pole)
    # pole density at the transition grows monotonically with distance;
    # the exact density does too away from the fringe zone and the
    # plateau next to x_max
    assert bool(np.all(np.diff(pole) > 0))
    sel = (xs >= 4.0) & (xs <= 11.0)
    assert bool(np.all(np.diff(exact[sel]) > 0))
    assert exact[-1] / exact[0] > 1e6


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k0I", [-1e-3, -1e-6, -1e-9, -1e-12], ids="{:.0e}".format)
def test_turning_point_is_a_local_minimum_at_small_decay_rates(k0I):
    # the t-form at 40 digits resolves t_p(x) near x*, where its relative
    # change over x* (1 +- 1e-3) is only a few 1e-8
    p = sm.SourceParams(k0I)
    xstar = tr.tp_turning_point(p)
    t_ps = []
    for x in (xstar * (1.0 - 1e-3), xstar, xstar * (1.0 + 1e-3)):
        with mpmath.workdps(40):
            t_ps.append(mpmath.findroot(lambda t: log_ratio_mpmath_oracle(k0I, x, t)[0],
                                        tr.transition_time(p, x).t_p))
    assert t_ps[1] < t_ps[0] and t_ps[1] < t_ps[2], t_ps


# ------------------------------------------- array form vs the closed form

def _ratio_closed_form(k0I, x, t):
    """R = 2 sqrt(pi) |k0|^2 t^{3/2} / x * e^{2 k0I t - k0I x} * |t^2 - tau^2| / t^2."""
    k0 = complex(1.0, k0I)
    tau = x / (2.0 * k0)
    return (2.0 * math.sqrt(math.pi) * abs(k0) ** 2 * t ** 1.5 / x
            * np.exp(2.0 * k0I * t - k0I * x) * np.abs(t * t - tau * tau) / (t * t))


def _late_time_closed_form(k0I, x, t):
    """t^{3/2} / (x e^{k0I x} e^{gamma t/2} / (2 sqrt(pi) |k0|^2)) - 1."""
    k0 = complex(1.0, k0I)
    rhs = (x * math.exp(k0I * x) * np.exp(2.0 * abs(k0I) * t)
           / (2.0 * math.sqrt(math.pi) * abs(k0) ** 2))
    return t ** 1.5 / rhs - 1.0


@pytest.mark.parametrize("k0I", [-0.023, -0.05, -0.3, -0.8])
@pytest.mark.parametrize("method", ["exact_ratio", "late_time"])
def test_transition_rows_are_last_downward_crossings(k0I, method):
    p = sm.SourceParams(k0I)
    x_max = brute_force_x_max(k0I)
    # the rows just below x_max have their root within 1e-4 t_c of t_c
    near = x_max * (1.0 - 10.0 ** -np.arange(4.0, 10.0))
    xs = np.sort(np.concatenate([np.geomspace(1e-3, 1.3 * x_max, 60), near]))
    rows = tr.transition_times(p, xs, method)
    assert [q.x for q in rows] == xs.tolist()
    assert all(q.method == method for q in rows)
    valid = np.array([q.valid for q in rows])
    assert valid.sum() >= 40
    if method == "exact_ratio":
        np.testing.assert_array_equal(valid, xs <= x_max)
    horizon = 1e3 / p.gamma_rate
    for x, t_p, valid_row in zip(xs, [q.t_p for q in rows], valid):
        if not valid_row:
            assert math.isnan(t_p)
            continue
        t_c = x / (2.0 * (1.0 + k0I))
        assert t_p > t_c
        if method == "exact_ratio":
            assert abs(_ratio_closed_form(k0I, x, t_p) - 1.0) <= 1e-6
            after = _ratio_closed_form(k0I, x, np.geomspace(t_p, horizon, 4000)[1:]) - 1.0
        else:
            assert abs(_late_time_closed_form(k0I, x, t_p)) <= 1e-6
            after = _late_time_closed_form(k0I, x, np.geomspace(t_p, horizon, 4000)[1:])
        # no later upward crossing: t_p is the last time the pole dominates
        assert np.all(after < 1e-6), (x, t_p)
    # an invalid row never reaches the crossing value 0 after t_c
    for x in xs[~valid]:
        if method == "exact_ratio":
            assert max_log_ratio_after_pole(k0I, x) < 0.0, x
        else:
            t_c = x / (2.0 * (1.0 + k0I))
            ts = t_c * (1.0 + np.geomspace(1e-13, 10.0 + horizon / t_c, 20000))
            assert np.max(_late_time_closed_form(k0I, x, ts)) < 0.0, x


def test_transition_times_match_scalar_form(p03):
    xs = np.geomspace(0.01, 14.0, 25)
    rows = tr.transition_times(p03, xs, "late_time")
    for x, row in zip(xs, rows):
        one = tr.transition_time(p03, float(x), "late_time")
        assert one.valid == row.valid
        assert (one.t_p == row.t_p) or (math.isnan(one.t_p) and math.isnan(row.t_p))


def test_transition_times_rejects_bad_x(p03):
    for bad in ([1.0, 0.0], [math.nan], [-1.0], [math.inf]):
        with pytest.raises(ValueError):
            tr.transition_times(p03, bad)


# x_max for log:-0.855843:-0.023345:35 from the former grid scan and
# bisection to relative 1e-3, which returned the low end of its bracket
CRITICAL_FROZEN = [
    0.6866895316687511,
    1.147485064041505,
    1.683180673306671,
    2.3294521984152015,
    3.1212223226743356,
    4.102939698959297,
    5.3198343341080365,
    6.830749775898898,
    8.716504679294772,
    11.068127805955903,
    13.988288675529184,
    17.629892078902984,
    22.159538716239624,
    27.779164047097062,
    34.762884991422666,
    43.4264783586367,
    54.20191842161097,
    67.59194722022505,
    84.14198850216985,
    104.74305561381259,
    130.15607254885904,
    161.73029924525298,
    200.95831128044978,
    249.2449337143061,
    309.3983692732367,
    383.35319124427406,
    475.39082449993236,
    588.9466293195549,
    729.5763797885104,
    903.7217941568471,
    1118.2879123264227,
    1385.003218770437,
    1712.9740754317813,
    2119.5387106743538,
    2622.3575757247945,
]


CRITICAL_KS = np.geomspace(-0.855843, -0.023345, 35)


# the smallest |k0I| need R near t_c to better than eps/k0I^2
@pytest.mark.parametrize("k0I", CRITICAL_KS.tolist() + [-0.01, -0.9999, -1e-6, -1e-7, -1e-8],
                         ids="{:.4g}".format)
def test_critical_distance_brackets_the_last_transition(k0I):
    p = sm.SourceParams(k0I)
    x_max, t_p = tr.critical_distance(p)
    assert max_log_ratio_after_pole(k0I, x_max * (1.0 - 1e-7)) >= 0.0
    assert max_log_ratio_after_pole(k0I, x_max * (1.0 + 1e-7)) < 0.0
    t_c = x_max / (2.0 * (1.0 + k0I))
    assert t_p > t_c
    assert abs(math.expm1(log_ratio_oracle(k0I, x_max, t_p))) <= tr.ROOT_TOL


def test_critical_distance_frozen_grid():
    got = [tr.critical_distance(sm.SourceParams(float(k)))[0] for k in CRITICAL_KS]
    rel = np.array(got) / np.array(CRITICAL_FROZEN) - 1.0
    # the bisection stopped at relative 1e-3 but its scan also missed roots
    # in (t_c, t_c (1 + 1e-4)), so it sat up to 0.47 % low
    assert np.all((rel > 0.0) & (rel < 5e-3)), rel


@pytest.mark.parametrize("k0I", [-1e-9, -1e-10, -1e-12, -1.5e-154])
def test_critical_distance_at_tiny_decay_rates(k0I):
    # R at t_c carries rounding of order eps/|k0I| here, but the root at
    # x_max is t_c itself, so none is solved for; at -1.5e-154, k0I^2 is
    # just above the least normal double and x_max is still finite
    x_max, t_p = tr.critical_distance(sm.SourceParams(k0I))
    with mpmath.workdps(40):
        k = mpmath.mpf(k0I)
        z = -2 * (1 + k) ** 2 / (mpmath.pi * ((2 + k) ** 2 + k * k))
        want = float(-mpmath.lambertw(z, -1).real * (1 + k) / (2 * k * k))
    assert x_max == pytest.approx(want, rel=1e-13)
    assert t_p == math.nextafter(x_max / (2.0 * (1.0 + k0I)), math.inf)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k0I", [-1e-200, -1e-155, -1.4e-154], ids="{:.1e}".format)
def test_x_max_outside_double_precision_is_a_typed_error(k0I):
    # k0I^2 below the least normal double: x_max ~ 1.4/k0I^2 loses precision
    # (-1.4e-154), passes DBL_MAX (-1e-155), and 2 k0I^2 is 0 (-1e-200)
    p = sm.SourceParams(k0I)
    for f in (tr.max_distance, tr.critical_distance, tr.tp_turning_point):
        with pytest.raises(sm.EvaluationDomainError, match=r"^evaluation domain error: x_max = exp"):
            f(p)


def test_turning_point_without_convergence_is_a_typed_error(p03, monkeypatch):
    monkeypatch.setattr(tr, "NEWTON_STEPS", 0)
    with pytest.raises(sm.EvaluationDomainError, match="did not converge at k0I=-0.3"):
        tr.tp_turning_point(p03)


@pytest.mark.parametrize("k0I", [-0.5, -0.1, -1e-2, -1e-4, -1e-6, -1e-8, -1e-9, -1e-10],
                         ids="{:.0e}".format)
def test_critical_densities_match_mpmath(k0I):
    # at t_c, u_+ and t^2 - tau^2 cancel to O(k0I), leaving a rounding of
    # eps/|k0I|; the saddle and pole parts share their large phase x^2/(4t),
    # so their sum adds none of size eps x
    (c,) = tr.critical_density_curve([sm.SourceParams(k0I)])
    exact = 2.0 * abs(k0I) * abs(psi_mpmath_oracle(k0I, c.x_max, c.t_p)[0]) ** 2
    approx = 2.0 * abs(k0I) * abs(approx_mpmath_oracle(k0I, c.x_max, c.t_p)) ** 2
    assert c.valid
    rel = 1e-13 + EPS / abs(k0I)
    assert c.density_exact == pytest.approx(exact, rel=rel, abs=0.0)
    assert c.density_approx == pytest.approx(approx, rel=rel, abs=0.0)


# fractions of x_max; a transition exists at each, the last one at t_c itself
SWEEP_FRACTIONS = np.concatenate([np.linspace(0.02, 0.98, 24), [0.999, 1.0]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k0I", (-np.geomspace(0.9999, 1e-12, 25)).tolist(), ids="{:.3g}".format)
def test_transition_found_at_every_distance_down_to_tiny_decay_rates(k0I):
    # at a double t_p, ln R is conditioned as eps |t d(ln R)/dt|, of order eps/|k0I|
    p = sm.SourceParams(k0I)
    x_max = tr.max_distance(p)
    rows = tr.transition_times(p, SWEEP_FRACTIONS * x_max)
    # late_time rows need only return without a warning
    tr.transition_times(p, SWEEP_FRACTIONS * x_max, "late_time")
    assert all(q.valid for q in rows), [q.x / x_max for q in rows if not q.valid]
    for q in rows:
        log_r, t_dlog_r = log_ratio_mpmath_oracle(k0I, q.x, q.t_p)
        assert abs(log_r) <= tr.ROOT_TOL + 2.0 * EPS * abs(t_dlog_r), q
        assert q.t_p > q.x / (2.0 * (1.0 + k0I))
    beyond = tr.transition_times(p, [1.02 * x_max, 1.5 * x_max])
    assert not any(q.valid for q in beyond)
    assert all(math.isnan(q.t_p) for q in beyond)


@pytest.mark.parametrize("k0I", [-0.9999, -0.3, -1e-4, -1e-9, -1e-12], ids="{:.4g}".format)
def test_transition_at_x_max_meets_critical_distance(k0I):
    p = sm.SourceParams(k0I)
    x_max, t_p = tr.critical_distance(p)
    res = tr.transition_time(p, x_max)
    assert res.valid
    assert res.t_p == pytest.approx(t_p, rel=1e-6)


# ------------------------------------------------- the scalar solve's domain

@st.composite
def _decay_rate_and_distance(draw):
    """k0I log-uniform in [-0.9999, -1e-12], x log-uniform in [1e-300, 2 x_max]."""
    k0I = -10.0 ** draw(st.floats(-12.0, math.log10(0.9999)))
    top = math.log10(2.0 * tr.max_distance(sm.SourceParams(k0I)))
    return k0I, 10.0 ** draw(st.floats(-300.0, top))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_decay_rate_and_distance(), st.sampled_from(["exact_ratio", "late_time"]))
@example((-1e-6, 1e-300), "late_time")
@example((-1e-12, 1e-300), "late_time")
@example((-1e-12, 1e-300), "exact_ratio")
@example((-0.9999, 1e-300), "late_time")
def test_every_distance_gives_rows_or_a_typed_error(case, method):
    # scalar math raises OverflowError, ValueError or ZeroDivisionError where
    # numpy only warned; each must stay out of reach or become the typed error
    k0I, x = case
    p = sm.SourceParams(k0I)
    try:
        (row,) = tr.transition_times(p, [x], method)
    except sm.EvaluationDomainError:
        return
    assert row.x == x and row.method == method
    if row.valid:
        assert x / (2.0 * (1.0 + k0I)) <= row.t_p < math.inf
        assert 0.0 <= row.density_raw < math.inf
        assert row.residual <= 1.001 * tr.ROOT_TOL
    else:
        assert math.isnan(row.t_p) and math.isnan(row.density_raw)


def test_transition_solve_cost_per_distance(monkeypatch):
    # false position with the Illinois modification closes each bracket in a
    # few steps; the bisection it replaced took about 45 evaluations per x
    calls = []
    log_ratio = tr._log_ratio_sigma

    def counted(*args):
        calls.append(args[1])
        return log_ratio(*args)

    monkeypatch.setattr(tr, "_log_ratio_sigma", counted)
    rows = 0
    for k0I in (-np.geomspace(0.9999, 1e-12, 25)).tolist():
        p = sm.SourceParams(k0I)
        for x in (SWEEP_FRACTIONS * tr.max_distance(p)).tolist():
            del calls[:]
            assert tr.transition_time(p, x).valid
            assert 0 < len(calls) <= 20, (k0I, x / tr.max_distance(p), len(calls))
            rows += 1
    assert rows == 650


def _late_time_mpmath_root(k0I, x):
    """The falling root t > 3/gamma of 1.5 ln t = ln x - ln(2 sqrt(pi) |k0|^2)
    + k0I x + gamma t/2, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        k0I, x = mpmath.mpf(k0I), mpmath.mpf(x)
        gamma = 4 * abs(k0I)
        log_c = mpmath.log(x) - mpmath.log(2 * mpmath.sqrt(mpmath.pi) * (1 + k0I ** 2)) + k0I * x

        def f(t):
            return 1.5 * mpmath.log(t) - log_c - gamma * t / 2

        lo = hi = 3 / gamma
        while f(hi) > 0:
            lo, hi = hi, 2 * hi
        return float(mpmath.findroot(f, (lo, hi), solver="anderson"))


def test_late_time_closed_form_matches_mpmath_root():
    # k0I log-uniform in [-0.99, -1e-6], x up to 3/k0I^2
    rng = np.random.default_rng(2009)
    k0Is = -10.0 ** rng.uniform(-6.0, math.log10(0.99), 60)
    xs = rng.uniform(0.0, 3.0, 60) / k0Is ** 2
    valid = 0
    for k0I, x in zip(k0Is.tolist(), xs.tolist()):
        row = tr.transition_time(sm.SourceParams(k0I), x, "late_time")
        if row.valid:
            valid += 1
            assert row.t_p == pytest.approx(_late_time_mpmath_root(k0I, x), rel=1e-12, abs=0.0)
    assert valid >= 40


@pytest.mark.parametrize("k0I", [-0.3, -0.9, -1e-3])
@pytest.mark.parametrize("x", [5e-324, 1.5e-323, 1e-320, 1e-310, 2.5e-308, 1e-300])
def test_late_time_root_at_subnormal_x(k0I, x):
    # below the least normal double x/(2 sqrt(pi) |k0|^2) underflows; the
    # logarithms of its two parts give the root all the same
    row = tr.transition_time(sm.SourceParams(k0I), x, "late_time")
    assert row.valid
    assert row.t_p == pytest.approx(_late_time_mpmath_root(k0I, x), rel=1e-9)


def test_late_time_root_past_double_range_is_a_computation_failure():
    with pytest.raises(sm.EvaluationDomainError, match="passes double range"):
        tr.transition_time(sm.SourceParams(-5e-324), 1.0, "late_time")
