"""The domain contract of the command line, as a seeded sweep.

Every subcommand runs in process (cli.main) on argvs drawn from the
documented domain, out to the edges of double range: -1 < k0I < 0 down to
-5e-324, x and t from 5e-324 to 1e300, delta in (0, 1] down to 5e-324. An
argv inside the domain exits 0, or 1 with exactly one `error:` line (for
density, only by the kernel's refusals, and with nan only in R at x = 0;
for lattice, with no nan in the table and nan in the summary only where a
docstring allows it); one with a value outside it exits 2 with one `error:`
line. No call raises, and none warns. Grids stay at 3 x 3 or smaller.
Scenario configs, written to files, put each field at a double-range edge
or at its rb87 value.

The library's contract, swept the same way: every callable in
postexp.__all__, called directly on the same domain and edges (Faddeeva
arguments as scalars and arrays), returns finite values (nan only where
its docstring says so) or raises UsageError, ValueError or
ComputationError, and never warns.
"""

import contextlib
import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from postexp import (ComputationError, LatticeParams, NormalizationResult, PhysicalScenario,
                     ScenarioReport, SourceParams, TransitionPoint, UsageError, Wave, cli,
                     critical_density_curve, critical_distance, evolve, faddeeva,
                     faddeeva_derivative, jittoh_criterion, kernel, lattice_transition_time,
                     load_scenario_config, ratio_R, scenario_transition_report, spatial_norm,
                     tail_exponent, to_dimensionless, to_physical, total_emitted,
                     tp_turning_point, transition_time, units)

SWEEP = settings(max_examples=250, deadline=None, derandomize=True)

TINY = 5e-324


def _log_uniform(lo: float, hi: float):
    """10^u for u uniform in [lo, hi], with 5e-324 for the lowest draws."""
    return st.floats(lo, hi).map(lambda u: max(10.0 ** u, TINY))


K0I = st.one_of(st.sampled_from([-TINY, -(1.0 - 2.0 ** -53), -0.3]),
                _log_uniform(-324.0, math.log10(1.0 - 2.0 ** -53)).map(lambda v: -v))
POSITIVE = st.one_of(st.sampled_from([TINY, 1e300]), _log_uniform(-324.0, 300.0))
DELTA = st.one_of(st.sampled_from([TINY, 1e-200, 1.0]), _log_uniform(-324.0, 0.0))

# values outside the domain, by option
OUTSIDE = {
    "k0i": [0.0, -1.0, -1.5, 0.5, math.nan, math.inf, -math.inf],
    "delta": [0.0, -0.1, 1.5, math.nan, math.inf],
    "t_max": [0.0, -3.0, math.nan, math.inf],
    "distance": [0.0, -1e-6, math.nan, math.inf],
}


def _grid(values):
    """A comma list of 1 to 3 distinct values, ascending."""
    return st.lists(values, min_size=1, max_size=3, unique=True).map(
        lambda vs: ",".join(map(repr, sorted(vs))))


@st.composite
def argvs(draw):
    """(argv, in_domain): an argv of one subcommand, maybe with one value
    taken from OUTSIDE."""
    command = draw(st.sampled_from(["density", "transition", "critical", "lattice",
                                    "scenario", "selftest"]))
    outside = draw(st.booleans()) and command != "selftest"

    def value(name, inside):
        if outside and name in OUTSIDE:
            return repr(draw(st.sampled_from(OUTSIDE[name])))
        return repr(draw(inside))

    if command == "density":
        x = _grid(st.one_of(st.just(0.0), POSITIVE))
        argv = [f"--k0i={value('k0i', K0I)}", "--x", draw(x), "--t-grid", draw(_grid(POSITIVE))]
    elif command == "transition":
        argv = [f"--k0i={value('k0i', K0I)}", "--x-grid", draw(_grid(POSITIVE)),
                "--method", draw(st.sampled_from(["exact_ratio", "late_time"]))]
    elif command == "critical":
        ks = draw(st.lists(K0I, min_size=1, max_size=3, unique=True))
        if outside:
            ks[0] = draw(st.sampled_from(OUTSIDE["k0i"]))
        argv = ["--k0i-grid=" + ",".join(map(repr, sorted(ks)))]
    elif command == "lattice":
        # short horizons keep the sweep's chains, and its time, small
        t_max = draw(st.one_of(st.just(TINY), _log_uniform(-3.0, math.log10(60.0))))
        sites = draw(st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True))
        argv = [f"--delta={value('delta', DELTA)}", "--sites", ",".join(map(str, sorted(sites))),
                f"--t-max={value('t_max', st.just(t_max))}"]
        if draw(st.booleans()):
            times = st.floats(0.0, 1.0).map(lambda f: f * t_max)
            argv += ["--t-grid", draw(_grid(times))]
    elif command == "scenario":
        distance = value("distance", _log_uniform(-9.0, 3.0))
        argv = ["--config", "rb87.cfg", f"--distance={distance}"]
    else:
        argv = []
    if command != "scenario" and command != "selftest":
        argv += ["--format", draw(st.sampled_from(["csv", "json"])), "--parallelism", "1"]
    return [command, *argv], not outside


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


# the kernel's one domain bound, and the saddle past double range at |k0I| < ~1e-147
DENSITY_REFUSALS = ("where products of squares overflow", "saddle part overflows")


def _check_density(argv, rc, out, err):
    """An in-domain density argv fails only by the kernel's refusals, and its
    table has nan only in R at x = 0 (the CSV table: JSON writes inf as null too)."""
    if rc == 1:
        assert any(reason in err for reason in DENSITY_REFUSALS), (argv, err)
        return
    if "json" in argv:
        rc, out, err = _main([v if v != "json" else "csv" for v in argv])
        assert (rc, err) == (0, ""), (argv, rc, err)
    head, *rows = out.splitlines()
    columns = head.split(",")
    for row in rows:
        for column, cell in zip(columns, row.split(",")):
            assert cell != "nan" or (column == "R" and float(row.split(",")[0]) == 0.0), (argv, row)


def _summary_nan_allowed(argv, key):
    """Whether the lattice summary field key may be nan, by the docstrings of
    lattice.summary, fitted_decay_rate and lattice_transition_time."""
    from postexp import lattice as lat

    option = dict(a[2:].split("=", 1) for a in argv if a.startswith("--") and "=" in a)
    delta, t_max = float(option["delta"]), float(option["t-max"])
    if key == "transition_time_site_1":
        return True
    if delta == 1.0:   # no resonance: no rate and no transition
        return key in ("gamma_formula", "fitted_gamma") or key.startswith("transition_time_site_")
    p = lat.LatticeParams(delta, max(t_max, lat.SUMMARY_HORIZON))
    if key == "fitted_gamma":   # a fit window shorter than ten envelope steps
        return min(12.0 / p.gamma, 0.9 * p.t_max) - 5.0 < 10.0 * lat.ENVELOPE_STEP
    sites = [int(n) for n in argv[argv.index("--sites") + 1].split(",")]
    if key == "tail_exponent":   # the tail site's transition not before the window start
        return not lat.lattice_transition_time(p, max(sites)) <= 0.55 * p.t_max
    if key.startswith("transition_time_site_"):   # no admissible root
        return math.isnan(lat.lattice_transition_time(p, int(key.rsplit("_", 1)[1])))
    return False


def _check_lattice(argv, rc, out, err):
    """An in-domain lattice table has no nan, and its summary has nan only
    where a docstring allows it (the CSV form: JSON writes nan as null)."""
    if rc == 1:
        return
    if "json" in argv:
        rc, out, err = _main([v if v != "json" else "csv" for v in argv])
        assert (rc, err) == (0, ""), (argv, rc, err)
    for line in out.splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(" = ", 1)
            assert value != "nan" or _summary_nan_allowed(argv, key), (argv, line)
        else:
            assert "nan" not in line.split(","), (argv, line)


@SWEEP
@given(argvs())
# a late_time root at subnormal x; chains whose modes or decay rate leave
# double precision
@example((["transition", "--k0i=-0.3", "--x-grid", "5e-324", "--method", "late_time"], True))
@example((["lattice", "--delta=1e-200", "--sites", "1,3", "--t-max=50"], True))
@example((["lattice", "--delta=1e-10", "--sites", "1", "--t-max=50", "--t-grid", "0"], True))
# a horizon whose default time step underflows
@example((["lattice", "--delta=1.0", "--sites", "1", "--t-max=5e-324"], True))
# k0I^2 underflows to 0 where x is large enough for sigma to stay a double
@example((["transition", "--k0i=-1.3e-227", "--x-grid", "9.5e227"], True))
# negative values in exponent notation, and a list of them, without "="
@example((["transition", "--k0i", "-1e-3", "--x-grid", "1"], True))
@example((["critical", "--k0i-grid", "-0.3,-0.2"], True))
# far before the front, where the unconditional pole part passes double range
@example((["density", "--k0i=-1e-3", "--x", "1e6", "--t-grid", "1e3", "--format", "csv"], True))
@example((["density", "--k0i=-0.999999", "--x", "1000", "--t-grid", "1e-6", "--format", "json"],
          True))
# |pole| and |saddle| both underflow to 0: R from their logarithms, not 0 * inf
@example((["density", "--k0i=-5.2e-05", "--x", "5.339120665510766e-255",
           "--t-grid", "7.451810723249581e+138", "--format", "csv"], True))
def test_every_argv_exits_by_the_domain(case):
    argv, in_domain = case
    rc, out, err = _main(argv)
    if in_domain:
        assert rc in (0, 1), (argv, rc, err)
        if argv[0] == "density":
            _check_density(argv, rc, out, err)
        if argv[0] == "lattice":
            _check_lattice(argv, rc, out, err)
    else:
        assert rc == 2, (argv, rc, err)
    if rc == 0:
        assert err == "", (argv, err)
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


RB87_CONFIG = {"mass_kg": units.RB87_MASS_KG, "lifetime_s": 400e-6,
               "release_velocity_m_per_s": 0.01, "atom_number": 1e6, "pixel_size_m": 3e-6}
EDGES = [TINY, 1e-300, 1e-200, 1e-100, 1e-30, 1.0, 1e30, 1e100, 1e200, 1e300, 1.7e308]
DISTANCES = [TINY, 1e-300, 1e-9, 1e-6, 1e-4, 1e-2, 1e3, 1e300]


@st.composite
def scenario_configs(draw):
    """(config fields, distance): each field of the rb87 config is, with
    probability 1/2, replaced by a double-range edge."""
    fields = {key: draw(st.sampled_from(EDGES)) if draw(st.booleans()) else value
              for key, value in RB87_CONFIG.items()}
    return fields, draw(st.sampled_from(DISTANCES))


@settings(SWEEP, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scenario_configs())
# m v underflows to 0 and overflows to inf: no unit system in double range
@example(({**RB87_CONFIG, "mass_kg": 1e-300, "release_velocity_m_per_s": 1e-300}, 1e-4))
@example(({**RB87_CONFIG, "mass_kg": 1e300, "release_velocity_m_per_s": 1e300}, 1e-4))
def test_every_scenario_config_exits_by_the_domain(tmp_path, case):
    fields, distance = case
    path = tmp_path / "scenario.cfg"
    path.write_text("".join(f"{key} = {value!r}\n" for key, value in fields.items()))
    argv = ["scenario", "--config", str(path), f"--distance={distance!r}"]
    rc, _, err = _main(argv)
    assert rc in (0, 1, 2), (fields, distance, rc, err)
    if rc == 0:
        assert err == "", (fields, distance, err)
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, (fields, distance, err)


# ------------------------------------------------ the library, called directly

LIBRARY_SWEEP = settings(max_examples=40, deadline=None, derandomize=True)

X_ANY = st.one_of(st.sampled_from([0.0, TINY, 1e300, -1.0, math.nan, math.inf]),
                  _log_uniform(-324.0, 300.0))
K0I_ANY = st.one_of(K0I, st.sampled_from(OUTSIDE["k0i"]))
DELTA_ANY = st.one_of(DELTA, st.sampled_from(OUTSIDE["delta"]))
# short horizons keep chains small; LatticeParams and lattice_transition_time, which
# build no chain, also take the longest
HORIZON = st.one_of(st.just(TINY), _log_uniform(-3.0, math.log10(60.0)))
T_MAX_ANY = st.one_of(HORIZON, st.sampled_from([9980.0, 9981.0, *OUTSIDE["t_max"]]))
SI = st.one_of(st.sampled_from(EDGES), st.just(None))
# parts of z: each side of 2|xy| = DBL_MAX, and of x^2 - y^2 = 0.9 ln DBL_MAX
PART = st.one_of(st.sampled_from([0.0, TINY, 1.0, 27.0, 1e9, 3e153, 1e154, 1e160, 1e300,
                                  1.7976931348623157e308, math.inf, math.nan]),
                 _log_uniform(-324.0, 308.0)).flatmap(lambda v: st.sampled_from([v, -v]))
Z = st.builds(complex, PART, PART)
Z_ANY = st.one_of(Z, st.lists(Z, min_size=1, max_size=4).map(np.array))


def _scenario(fields):
    """A PhysicalScenario with the rb87 value where a field is None."""
    values = [v if f is None else f for v, f in zip(RB87_CONFIG.values(), fields)]
    return PhysicalScenario(*values)


def _record(cls):
    return (st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=len(cls._fields),
                     max_size=len(cls._fields)), lambda values: cls(*values))


def _sorted_times(t_max):
    return st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3).map(
        lambda fs: sorted(f * t_max for f in fs))


@st.composite
def _tail_args(draw):
    delta, t_max = draw(DELTA), draw(HORIZON)
    lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    return delta, t_max, draw(st.integers(0, 45)), (lo * t_max, hi * t_max)


@st.composite
def _evolve_args(draw):
    t_max = draw(HORIZON)
    return draw(DELTA_ANY), t_max, draw(_sorted_times(t_max))


def _grid_of(values):
    return st.one_of(values, st.lists(values, min_size=1, max_size=3).map(np.array))


# name in postexp.__all__ -> (strategy of an argument tuple, the call on it)
LIBRARY_CALLS = {
    "SourceParams": (st.tuples(K0I_ANY), SourceParams),
    "LatticeParams": (st.tuples(DELTA_ANY, T_MAX_ANY), LatticeParams),
    "PhysicalScenario": (st.tuples(st.lists(SI, min_size=5, max_size=5)), _scenario),
    "TransitionPoint": _record(TransitionPoint),
    "Wave": _record(Wave),
    "NormalizationResult": _record(NormalizationResult),
    "ScenarioReport": _record(ScenarioReport),
    "faddeeva": (st.tuples(Z_ANY), faddeeva),
    "faddeeva_derivative": (st.tuples(Z_ANY), faddeeva_derivative),
    "kernel": (st.tuples(K0I_ANY, _grid_of(X_ANY), _grid_of(X_ANY), st.booleans()),
               lambda k, x, t, d: kernel(SourceParams(k), x, t, derivative=d)),
    "ratio_R": (st.tuples(K0I_ANY, X_ANY, X_ANY),
                lambda k, x, t: ratio_R(SourceParams(k), x, t)),
    "transition_time": (st.tuples(K0I_ANY, X_ANY, st.sampled_from(["exact_ratio", "late_time"])),
                        lambda k, x, m: transition_time(SourceParams(k), x, m)),
    "critical_distance": (st.tuples(K0I_ANY), lambda k: critical_distance(SourceParams(k))),
    "critical_density_curve": (
        st.tuples(st.lists(K0I_ANY, min_size=1, max_size=3)),
        lambda ks: critical_density_curve([SourceParams(k) for k in ks])),
    "jittoh_criterion": (st.tuples(K0I_ANY), lambda k: jittoh_criterion(SourceParams(k))),
    "tp_turning_point": (st.tuples(K0I_ANY), lambda k: tp_turning_point(SourceParams(k))),
    "total_emitted": (st.tuples(K0I_ANY), lambda k: total_emitted(SourceParams(k))),
    # small T, and one past MAX_PANELS, keep each quadrature cheap
    "spatial_norm": (st.tuples(K0I_ANY, st.one_of(_log_uniform(-324.0, math.log10(5.0)),
                                                  st.sampled_from([-1.0, math.nan, 1e4]))),
                     lambda k, T: spatial_norm(SourceParams(k), T)),
    "evolve": (_evolve_args(), lambda delta, t_max, ts: evolve(LatticeParams(delta, t_max), ts)),
    "lattice_transition_time": (
        st.tuples(DELTA_ANY, T_MAX_ANY, st.integers(-1, 20000)),
        lambda delta, t_max, n: lattice_transition_time(LatticeParams(delta, t_max), n)),
    "tail_exponent": (_tail_args(), lambda delta, t_max, n, window: tail_exponent(
        LatticeParams(delta, t_max), n, window)),
    "to_dimensionless": (st.tuples(st.lists(SI, min_size=5, max_size=5), X_ANY, X_ANY),
                         lambda fields, X, T: to_dimensionless(_scenario(fields), X, T)),
    "to_physical": (st.tuples(st.lists(SI, min_size=5, max_size=5), X_ANY, X_ANY),
                    lambda fields, x, t: to_physical(_scenario(fields), x, t)),
    "scenario_transition_report": (
        st.tuples(st.lists(SI, min_size=5, max_size=5), st.sampled_from(DISTANCES + [-1.0])),
        lambda fields, X: scenario_transition_report(_scenario(fields), X)),
    "load_scenario_config": (scenario_configs(), None),
}

# a nan in these results is documented: no transition, or no admissible root
DOCUMENTED_NAN = {
    "transition_time": lambda r: not r.valid,
    "scenario_transition_report": lambda r: not r.valid,
    "lattice_transition_time": lambda r: True,
}


def _numbers(value):
    """Every float in a result: its complex parts, array entries and fields."""
    if value is None or isinstance(value, (bool, str)):
        return
    if isinstance(value, (int, float)):
        yield float(value)
    elif isinstance(value, complex):
        yield from (value.real, value.imag)
    elif isinstance(value, np.ndarray):
        for v in value.ravel().tolist():
            yield from _numbers(v)
    else:
        for v in value:
            yield from _numbers(v)


def test_the_library_sweep_calls_every_public_callable():
    import postexp

    public = {name for name in postexp.__all__ if callable(getattr(postexp, name))}
    assert set(LIBRARY_CALLS) == public


@pytest.mark.parametrize("name", sorted(LIBRARY_CALLS))
def test_every_library_call_answers_by_the_domain(name, tmp_path):
    """A finite value (nan where documented) or a UsageError, ValueError or
    ComputationError, and never a warning."""
    args, call = LIBRARY_CALLS[name]
    if name == "load_scenario_config":
        def call(fields, distance):
            path = tmp_path / "scenario.cfg"
            path.write_text("".join(f"{key} = {value!r}\n" for key, value in
                                    {**fields, "detector_distance_m": distance}.items()))
            return load_scenario_config(str(path))

    @LIBRARY_SWEEP
    @given(args)
    def check(a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call(*a) if isinstance(a, tuple) else call(a)
            except (UsageError, ValueError, ComputationError):
                return
        nan_ok = DOCUMENTED_NAN.get(name, lambda r: False)(result)
        for v in _numbers(result):
            assert math.isfinite(v) or (nan_ok and math.isnan(v)), (a, result)

    check()
