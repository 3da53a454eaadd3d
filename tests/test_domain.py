"""The domain contract of the command line, as a seeded sweep.

Every subcommand runs in process (cli.main) on argvs drawn from the
documented domain, out to the edges of double range: -1 < k0I < 0 down to
-5e-324, x and t from 5e-324 to 1e300, delta in (0, 1] down to 5e-324. An
argv inside the domain exits 0, or 1 with exactly one `error:` line; one
with a value outside it exits 2 with one `error:` line. No call raises, and
none warns. Grids stay at 3 x 3 or smaller. Scenario configs, written
to files, put each field at a double-range edge or at its rb87 value.
"""

import contextlib
import io
import math
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from postexp import cli, units

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
    return rc, err.getvalue()


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
def test_every_argv_exits_by_the_domain(case):
    argv, in_domain = case
    rc, err = _main(argv)
    if in_domain:
        assert rc in (0, 1), (argv, rc, err)
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
    rc, err = _main(argv)
    assert rc in (0, 1, 2), (fields, distance, rc, err)
    if rc == 0:
        assert err == "", (fields, distance, err)
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, (fields, distance, err)
