"""Command-line front end: grids, formats, determinism, self checks."""

import functools
import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import jsonschema
import pytest

from postexp import cli

from conftest import max_log_ratio_after_pole, psi_mpmath_oracle, saddle_mpmath_oracle


def _schema(name):
    from importlib import resources

    path = resources.files("postexp").joinpath("schemas", name)
    return json.loads(path.read_text())


def _run(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


# ------------------------------------------------------------------- grids

def test_parse_grid_forms():
    assert cli.parse_grid("lin:0:1:3", "g") == [0.0, 0.5, 1.0]
    assert cli.parse_grid("log:1:100:3", "g") == pytest.approx([1.0, 10.0, 100.0])
    assert cli.parse_grid("log:-100:-1:3", "g") == pytest.approx([-100.0, -10.0, -1.0])
    assert cli.parse_grid("0.5,1.5,2.5", "g") == [0.5, 1.5, 2.5]
    assert cli.parse_grid("lin:2:2:1", "g") == [2.0]


def test_parse_grid_errors(monkeypatch):
    # a count past MAX_GRID_POINTS is refused before any list is built
    monkeypatch.setattr(cli, "_linspace", None)
    too_many = cli.MAX_GRID_POINTS + 1
    for bad in ("", "lin:1:2:0", "log:0:1:5", "log:-1:1:5", "3,2,1",
                "1,1,2", "lin:1:2", "lin:a:b:3", "nan,1", f"lin:0.1:1:{too_many}",
                f"log:0.1:1:{too_many}", "lin:0.1:1:200000000"):
        with pytest.raises(cli.UsageError):
            cli.parse_grid(bad, "g")


# ----------------------------------------------------------------- density

def test_density_csv_layout(capsys):
    rc, out, _ = _run(capsys, ["density", "--k0i", "-0.5", "--x", "0.5,1.5",
                               "--t-grid", "lin:1:5:3", "--parallelism", "1"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "x,t,rho_exact,rho_saddle,rho_pole,pole_crossed,R,rho_normalized"
    assert len(lines) == 1 + 6
    # x-major ordering, floats round-trip through repr
    first = lines[1].split(",")
    assert first[0] == "0.5" and first[1] == "1.0"
    for cell in first:
        float(cell)


def test_density_boundary_column_is_nan(capsys):
    # the ratio R is undefined on the emission boundary
    rc, out, _ = _run(capsys, ["density", "--k0i", "-0.3", "--x", "0",
                               "--t-grid", "lin:2:2:1", "--parallelism", "1"])
    assert rc == 0
    row = out.splitlines()[1].split(",")
    assert row[0] == "0.0"
    assert row[6] == "nan"


def test_density_json_schema(capsys):
    rc, out, _ = _run(capsys, ["density", "--k0i", "-0.5", "--x", "0.5",
                               "--t-grid", "lin:1:3:3", "--format", "json",
                               "--parallelism", "1"])
    assert rc == 0
    obj = json.loads(out)
    jsonschema.validate(obj, _schema("table.schema.json"))
    assert obj["command"] == "density"
    assert len(obj["rows"]) == 3


def test_density_rejects_negative_position(capsys):
    rc, _, err = _run(capsys, ["density", "--k0i", "-0.5", "--x", "-1",
                               "--t-grid", "lin:1:3:3"])
    assert rc == 2
    assert "error:" in err


# ---------------------------------------------------- transition / critical

def test_transition_valid_flag_beyond_reach(capsys):
    rc, out, _ = _run(capsys, ["transition", "--k0i", "-0.3", "--x-grid",
                               "13,14", "--parallelism", "1"])
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[0][4] == "1" and rows[1][4] == "0"
    assert rows[1][1] == "nan"
    assert rows[0][5] == "exact_ratio"


def test_transition_found_at_tiny_decay_rate(capsys):
    from postexp import source_model, transition

    x_max = transition.max_distance(source_model.SourceParams(-1e-9))
    rc, out, _ = _run(capsys, ["transition", "--k0i=-1e-9", "--x-grid",
                               f"{0.5 * x_max!r},{0.99 * x_max!r}", "--parallelism", "1"])
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 2
    for row in rows:
        assert row[4] == "1" and math.isfinite(float(row[1])), row


def test_transition_late_time_method(capsys):
    rc, out, _ = _run(capsys, ["transition", "--k0i", "-0.3", "--x-grid", "0.1",
                               "--method", "late_time", "--parallelism", "1"])
    assert rc == 0
    row = out.splitlines()[1].split(",")
    assert row[5] == "late_time"
    assert float(row[1]) == pytest.approx(12.44, abs=0.3)


def test_critical_single_point(capsys):
    rc, out, _ = _run(capsys, ["critical", "--k0i-grid", "lin:-0.5:-0.5:1",
                               "--format", "json", "--parallelism", "1"])
    assert rc == 0
    obj = json.loads(out)
    jsonschema.validate(obj, _schema("table.schema.json"))
    assert obj["columns"][:3] == ["k0I", "x_max", "t_p"]
    (row,) = obj["rows"]
    assert row[1] == pytest.approx(4.183, rel=1e-2)


@pytest.mark.parametrize("k0i", ["-1e-9", "-1e-10", "-1e-12"])
def test_critical_at_tiny_decay_rates(capsys, k0i):
    rc, out, _ = _run(capsys, ["critical", f"--k0i-grid={k0i}"])
    assert rc == 0
    k, x_max, t_p, rho_n, _, valid = map(float, out.splitlines()[1].split(","))
    assert t_p == math.nextafter(x_max / (2.0 * (1.0 + k)), math.inf) and valid == 1.0
    psi, _ = psi_mpmath_oracle(k, x_max, t_p)
    assert rho_n == pytest.approx(2.0 * abs(k) * abs(psi) ** 2, rel=1e-5, abs=0.0)


@pytest.mark.parametrize("k0i", ["-1e-200", "-1e-155"])
def test_critical_past_double_range_is_a_computation_failure(capsys, k0i):
    # x_max leaves double range (and at -1e-200, 2 k0I^2 is 0): exit 1 with
    # one error line, after the header
    rc, out, err = _run(capsys, ["critical", f"--k0i-grid={k0i}"])
    assert (rc, out) == (1, "k0I,x_max,t_p,rho_exact_normalized,rho_approx_normalized,valid\n")
    assert err.startswith("error: evaluation domain error: x_max = exp(") and err.count("\n") == 1


# ----------------------------------------------------------------- lattice

def test_lattice_rows_and_summary(capsys):
    rc, out, _ = _run(capsys, ["lattice", "--delta", "0.3", "--sites", "1,5",
                               "--t-max", "40", "--t-grid", "lin:0:40:81"])
    assert rc == 0
    lines = out.splitlines()
    data = [l for l in lines if not l.startswith("#")]
    notes = [l for l in lines if l.startswith("#")]
    assert data[0] == "t,n,density"
    assert len(data) == 1 + 2 * 81
    keys = {n.split("=")[0].strip("# ") for n in notes}
    assert {"fitted_gamma", "tail_exponent", "resolved_reading",
            "transition_time_site_5"} <= keys


def test_lattice_summary_values(capsys):
    rc, out, _ = _run(capsys, ["lattice", "--delta", "0.3", "--sites", "5",
                               "--t-max", "60", "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    s = obj["summary"]
    assert s["resolved_reading"] == "alpha_in_numerator"
    assert s["fitted_gamma"] == pytest.approx(0.1887, rel=5e-2)
    assert s["tail_exponent"] == pytest.approx(-3.0, abs=0.3)
    assert s["transition_time_site_5"] == pytest.approx(67.61, abs=0.1)


def test_lattice_summary_without_an_exponential_window(capsys):
    # at delta 0.6 the envelope fits find no exponential window; the
    # transition times come from the derived formula all the same
    rc, out, _ = _run(capsys, ["lattice", "--delta", "0.6", "--sites", "1,5,10",
                               "--t-max", "300", "--format", "json"])
    assert rc == 0
    s = json.loads(out)["summary"]
    assert s["resolved_reading"] == "alpha_in_numerator"
    assert s["transition_time_site_1"] is None
    assert s["transition_time_site_5"] == pytest.approx(9.047886, abs=1e-6)
    assert s["transition_time_site_10"] == pytest.approx(10.184971, abs=1e-6)


@pytest.mark.parametrize("delta", [0.81, 0.85, 0.9, 0.99])
def test_lattice_summary_at_strong_coupling(capsys, delta):
    # 12/gamma falls before the rate fit's start at t = 5: no fitted rate,
    # the rest of the summary as at weak coupling
    rc, out, _ = _run(capsys, ["lattice", "--delta", str(delta), "--sites", "1,5",
                               "--t-max", "40", "--format", "json"])
    assert rc == 0
    s = json.loads(out)["summary"]
    assert s["gamma_formula"] == pytest.approx(2.0 * delta ** 2 / math.sqrt(1.0 - delta ** 2),
                                               rel=1e-12)
    assert s["fitted_gamma"] is None
    assert s["tail_exponent"] == pytest.approx(-3.0, abs=0.1)
    assert 0.0 < s["transition_time_site_5"] < 40.0


def test_lattice_band_edge_summary(capsys):
    rc, out, _ = _run(capsys, ["lattice", "--delta", "1", "--sites", "1",
                               "--t-max", "40", "--format", "json"])
    assert rc == 0
    s = json.loads(out)["summary"]
    assert s["fitted_gamma"] is None
    assert s["resolved_reading"] == "n/a"
    assert s["tail_exponent"] == pytest.approx(-3.0, abs=0.1)


def test_lattice_truncation_guard(capsys):
    # horizons past that of a MAX_SITES chain are refused unbuilt
    for extra in (["--t-max", "1e6"], ["--t-max", "inf"], ["--t-max", "nan"]):
        rc, out, err = _run(capsys, ["lattice", "--delta", "0.3", "--sites", "1,5", *extra])
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("delta, sites", [("0.2", "1,3"), ("0.2", "1,20"), ("1e-6", "1,3"),
                                          ("0.2", "1"), ("1e-6", "1"), ("0.3", "1")])
def test_lattice_tail_exponent_only_on_a_tail(capsys, delta, sites):
    # the tail window of the 220 horizon starts at t = 121, before the tail
    # site's formula transition time (211 and 153 at delta 0.2, 341 and
    # 122.2 at site 1 for delta 0.2 and 0.3), or there is no transition
    # within the horizon (delta 1e-6): no tail to fit. Site 1's time is not
    # printed
    rc, out, _ = _run(capsys, ["lattice", "--delta", delta, "--sites", sites,
                               "--t-max", "50", "--format", "json"])
    assert rc == 0
    s = json.loads(out)["summary"]
    assert s["tail_exponent"] is None
    t_n = s[f"transition_time_site_{sites.split(',')[-1]}"]
    assert t_n is None or t_n > 0.55 * 220.0


# ---------------------------------------------------------------- scenario

def test_scenario_report_schema(capsys):
    rc, out, _ = _run(capsys, ["scenario", "--config", "rb87.cfg"])
    assert rc == 0
    obj = json.loads(out)
    jsonschema.validate(obj, _schema("scenario_report.schema.json"))
    rep = obj["report"]
    assert rep["t_p_physical_s"] == pytest.approx(0.01253, rel=1e-3)
    # the largest distance with a transition, about 1.2662 mm
    x_max = rep["largest_detector_distance_m"] / rep["L_m"]
    assert max_log_ratio_after_pole(rep["k0I"], x_max * (1.0 - 1e-7)) >= 0.0
    assert max_log_ratio_after_pole(rep["k0I"], x_max * (1.0 + 1e-7)) < 0.0


def test_scenario_distance_override(capsys):
    rc, out, _ = _run(capsys, ["scenario", "--config", "rb87.cfg",
                               "--distance", "2e-4"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["params"]["distance_m"] == pytest.approx(2e-4)
    assert obj["report"]["x_detector"] == pytest.approx(2e-4 / 7.307376718848893e-08, rel=1e-9)


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-6"])
def test_scenario_refuses_a_distance_outside_the_positive_reals(capsys, value):
    # the error line names the option the user typed, not an internal x
    rc, out, err = _run(capsys, ["scenario", "--config", "rb87.cfg", f"--distance={value}"])
    assert (rc, out) == (2, "")
    assert err == f"error: --distance must be positive and finite; got {float(value)!r}\n"


def test_scenario_has_no_format_option(capsys):
    # scenario writes one JSON report and takes no --format
    rc, out, err = _run(capsys, ["scenario", "--config", "rb87.cfg", "--format", "json"])
    assert (rc, out) == (2, "")
    assert "unrecognized arguments: --format json" in err


def test_scenario_missing_config(capsys):
    rc, _, err = _run(capsys, ["scenario", "--config", "does-not-exist.cfg"])
    assert rc == 2
    assert "not found" in err


def test_scenario_invalid_config_value(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mass_kg = -1\nlifetime_s = 4e-4\n"
                   "release_velocity_m_per_s = 0.01\natom_number = 1e6\n"
                   "pixel_size_m = 3e-6\n")
    rc, _, err = _run(capsys, ["scenario", "--config", str(cfg)])
    assert rc == 2
    assert "mass" in err


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_scenario_refuses_a_config_distance_by_its_key(capsys, tmp_path, value):
    # no --distance was typed, so the error line names the config key
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mass_kg = 1.44e-25\nlifetime_s = 4e-4\n"
                   "release_velocity_m_per_s = 0.01\natom_number = 1e6\n"
                   f"pixel_size_m = 3e-6\ndetector_distance_m = {value}\n")
    rc, out, err = _run(capsys, ["scenario", "--config", str(cfg)])
    assert (rc, out) == (2, "")
    assert err == (f"error: {cfg}: detector_distance_m must be positive and finite; "
                   f"got {float(value)!r}\n")


# ------------------------------------------------------------- determinism

def test_output_file_matches_stdout(capsys, tmp_path):
    argv = ["density", "--k0i", "-0.3", "--x", "0.5,2.0",
            "--t-grid", "log:0.5:20:25", "--parallelism", "1"]
    rc, out, _ = _run(capsys, argv)
    assert rc == 0
    path = tmp_path / "d.csv"
    rc2 = cli.main(argv + ["--out", str(path)])
    capsys.readouterr()
    assert rc2 == 0
    assert path.read_text() == out


def test_byte_determinism_across_parallelism(tmp_path, capsys):
    base = ["transition", "--k0i", "-0.3", "--x-grid", "log:0.5:12:16"]
    outputs = []
    for i, par in enumerate(("1", "3", "1")):
        path = tmp_path / f"run{i}.csv"
        rc = cli.main(base + ["--parallelism", par, "--out", str(path)])
        capsys.readouterr()
        assert rc == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_unwritable_output_path(capsys, tmp_path):
    rc, _, err = _run(capsys, ["critical", "--k0i-grid", "-0.5",
                               "--parallelism", "1",
                               "--out", str(tmp_path / "nodir" / "x.csv")])
    assert rc == 1


# ---------------------------------------------------------------- selftest

def test_selftest_passes(capsys):
    rc, out, _ = _run(capsys, ["selftest"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all(line.endswith(": PASS") for line in lines)
    names = [line.split(":")[0] for line in lines]
    assert names == ["SELFTEST boundary-identity", "SELFTEST faddeeva-identities",
                     "SELFTEST continuity-residual", "SELFTEST lattice-norm"]


def test_selftest_detects_injected_fault(capsys, monkeypatch):
    # poison the Faddeeva evaluation; the boundary identity must notice
    import postexp.specfun as specfun

    real = specfun.faddeeva
    monkeypatch.setattr(specfun, "faddeeva", lambda z: real(z) * (1.0 + 1e-6))
    rc, out, _ = _run(capsys, ["selftest"])
    assert rc == 1
    assert "SELFTEST boundary-identity: FAIL" in out


def test_selftest_detects_a_fault_in_the_chain_check(capsys, monkeypatch):
    # a delta off by 5e-7 in the shared chain solver gives the levels of
    # another chain: the site-1 sum rules must notice, and lattice, which
    # runs the same solver, must move with it
    from postexp import lattice, selftest, specfun

    real = specfun.chain_levels
    want = lattice._spectral_data(0.3, 100)[0]
    monkeypatch.setattr(specfun, "chain_levels",
                        lambda delta, n, base: real(delta * (1.0 + 5e-7), n, base))
    rc, out, _ = _run(capsys, ["selftest"])
    assert rc == 1
    assert out.splitlines()[:3] == [f"SELFTEST {name}: PASS" for name, _ in selftest.CHECKS[:3]]
    assert out.splitlines()[3].startswith("SELFTEST lattice-norm: FAIL (lattice sum-rule deviation")
    lattice._spectral_data.cache_clear()
    try:
        moved = lattice._spectral_data(0.3, 100)[0]
    finally:
        lattice._spectral_data.cache_clear()
    assert 0.0 < max(abs(moved - want)) < 1e-6


def test_chain_levels_agree_on_floats_and_arrays():
    # selftest solves the chain of LatticeParams(0.3, 30.0) one float bracket
    # at a time, lattice all brackets at once on an array: the same levels
    # and site-1 weights
    import numpy as np

    from postexp import lattice, selftest, specfun

    assert lattice.LatticeParams(selftest.CHAIN_DELTA, 30.0).n_sites == selftest.CHAIN_SITES
    for delta, n in ((selftest.CHAIN_DELTA, selftest.CHAIN_SITES), (0.7, 241), (1.0, 64)):
        energies, _, first, _ = specfun.chain_levels(delta, n, np.arange(n) * (math.pi / n))
        for j in range(n):
            e, _, a, _ = specfun.chain_levels(delta, n, j * (math.pi / n))
            assert type(e) is type(a) is float
            assert abs(e - energies[j]) <= 1e-15
            assert abs(a * a - first[j] ** 2) <= 1e-15
    assert selftest._check_lattice_norm() < 1e-14


def test_bad_k0i_is_usage_error(capsys):
    rc, _, err = _run(capsys, ["density", "--k0i", "-1.5", "--x", "1",
                               "--t-grid", "lin:1:2:2"])
    assert rc == 2
    assert "k0I" in err


@pytest.mark.parametrize("argv", [["transition", "--k0i", "-1e-3", "--x-grid", "1"],
                                  ["critical", "--k0i-grid", "-0.3,-0.2"]])
def test_negative_values_need_no_equals_sign(capsys, argv):
    # exponent notation and lists start with -<digit> like -0.3: values, not options
    rc, out, err = _run(capsys, argv)
    assert (rc, err) == (0, "")
    assert _run(capsys, [argv[0], f"{argv[1]}={argv[2]}", *argv[3:]]) == (0, out, "")
    # options are read as before
    rc, _, err = _run(capsys, [*argv, "--bad"])
    assert rc == 2 and "unrecognized arguments: --bad" in err
    rc, out, _ = _run(capsys, [argv[0], "-h"])
    assert rc == 0 and out.startswith(f"usage: postexp {argv[0]}")
    rc, _, err = _run(capsys, [argv[0], argv[1], "--format", "csv"])
    assert rc == 2 and "expected one argument" in err


# ---------------------------------------------------------------- streaming

STREAMED = [
    # x = 0 rows give R = nan; the grid straddles t_c, so pole_crossed is 0 and 1
    ["density", "--k0i", "-0.3", "--x", "0,0.5,3", "--t-grid", "log:0.1:20:11"],
    # past x_max (13.65) the rows are invalid, with nan cells
    ["transition", "--k0i", "-0.3", "--x-grid", "log:0.05:20:30"],
]


def _bytes(capsys, argv):
    rc = cli.main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    return out


@pytest.mark.parametrize("argv", STREAMED)
def test_small_blocks_give_identical_bytes(capsys, argv):
    # the density grid is small enough for the scalar path; SCALAR_POINTS = 0
    # sends it through the array path's blocks, which 1, 2 or 3 processes render
    for scalar_points in (cli.SCALAR_POINTS, 0):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cli, "SCALAR_POINTS", scalar_points)
            whole = _bytes(capsys, argv)
            whole_json = _bytes(capsys, argv + ["--format", "json"])
            m.setattr(cli, "BLOCK_ROWS", 7)
            for par in ("1", "2", "3"):
                assert _bytes(capsys, argv + ["--parallelism", par]) == whole
                assert _bytes(capsys, argv + ["--format", "json", "--parallelism", par]) == whole_json
    rows = [line.split(",") for line in whole.splitlines()[1:]]
    assert len(rows) % 7 != 0
    assert any(cell == "nan" for row in rows for cell in row)
    if argv[0] == "density":
        assert {row[5] for row in rows} == {"0", "1"}
        assert all(row[6] == "nan" for row in rows if row[0] == "0.0")
    else:
        assert {row[4] for row in rows} == {"0", "1"}


def _null(v):
    """JSON's null for a non-finite float."""
    return None if isinstance(v, float) and not math.isfinite(v) else v


def test_json_table_is_the_dumped_document(capsys):
    # written block by block, the document is json.dumps of it whole, with no
    # rows, an empty block, several blocks and a summary with a nan
    import argparse

    summary = {"b": math.nan, "a": "text", "c": 3}
    layouts = [[], [([], [])], [([0.5], [True])],
               [([1.0, math.inf], [False, True]), ([], []), (["x", "y"], [None, 2])]]
    for blocks, extra, par in itertools.product(layouts, (None, summary), (1, 2)):
        args = argparse.Namespace(format="json", out=None, parallelism=par)
        cli.emit_table(args, "cmd", {"g": "lin:0:1:2", "n": 1}, ["u", "v"],
                       [functools.partial(tuple, b) for b in blocks], summary=extra)
        rows = [[_null(v) for v in row] for block in blocks for row in zip(*block)]
        doc = {"schema_version": cli.SCHEMA_VERSION, "command": "cmd",
               "params": {"g": "lin:0:1:2", "n": 1}, "columns": ["u", "v"], "rows": rows}
        if extra:
            doc["summary"] = {k: _null(v) for k, v in extra.items()}
        assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_failure_after_a_block_leaves_the_rows_written(capsys, monkeypatch):
    # x = 1e6 fails in block k (one x per block) on the array path: both
    # formats keep the head and the k blocks before it, and exit 1 with the
    # same bytes at every --parallelism. With p processes block k is a
    # worker's unless k % p == 0, so k = 1, 2, 3 puts the failure in a
    # worker's block and in this process's wherever p is 2 or 3
    monkeypatch.setattr(cli, "SCALAR_POINTS", 0)
    monkeypatch.setattr(cli, "BLOCK_ROWS", 3)
    for k in (1, 2, 3):
        xs = ",".join(map(str, list(range(k)) + [1e6, 2e6, 3e6]))
        argv = ["density", "--k0i", "-0.3", "--x", xs, "--t-grid", "lin:1:5:3"]
        rc, out, err = _run(capsys, argv + ["--parallelism", "1"])
        assert rc == 1 and err.startswith("error: evaluation domain error at (x=1000000.0, ")
        assert err.count("\n") == 1 and out.count("\n") == 1 + 3 * k
        rc, out_json, err_json = _run(capsys, argv + ["--format", "json", "--parallelism", "1"])
        assert (rc, err_json) == (1, err)
        head = '"rows": [\n    [\n      0.0,\n'
        assert out_json.startswith("{\n") and head in out_json and not out_json.endswith("}\n")
        assert out_json.count("\n    [\n") == 3 * k
        for par in ("2", "3"):
            assert _run(capsys, argv + ["--parallelism", par]) == (1, out, err)
            assert _run(capsys, argv + ["--format", "json", "--parallelism", par]) == (
                1, out_json, err)


def _no_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


JSON_TABLES = [
    # x = 14 lies past x_max (13.65): its row has null cells
    (["transition", "--k0i", "-0.3", "--x-grid", "13,14"],
     lambda obj: obj["rows"][1][1:4] == [None] * 3 and obj["rows"][1][4] is False),
    # a string column
    (["transition", "--k0i", "-0.3", "--x-grid", "log:0.1:10:9", "--method", "late_time"],
     lambda obj: {row[5] for row in obj["rows"]} == {"late_time"}),
    # R is null at x = 0
    (["density", "--k0i", "-0.3", "--x", "0,0.5,3", "--t-grid", "log:0.1:20:11"],
     lambda obj: [row[6] is None for row in obj["rows"]] == [row[0] == 0.0 for row in obj["rows"]]),
    (["critical", "--k0i-grid", "lin:-0.6:-0.4:9"],
     lambda obj: len(obj["rows"]) == 9),
    # from delta ~0.81 the default fit window is too short: fitted_gamma is null
    (["lattice", "--delta", "0.9", "--sites", "1,4", "--t-max", "20"],
     lambda obj: obj["summary"]["fitted_gamma"] is None),
]


@pytest.mark.parametrize("argv, check", JSON_TABLES, ids=[" ".join(a[:2]) for a, _ in JSON_TABLES])
def test_cli_json_is_the_dumped_document(capsys, monkeypatch, argv, check):
    # each table command's JSON, in blocks of 7 rows rendered by one or two
    # processes and on both density paths, holds no NaN or Infinity and is
    # the strict dump of the document it parses to
    monkeypatch.setattr(cli, "BLOCK_ROWS", 7)
    for scalar_points, par in itertools.product((cli.SCALAR_POINTS, 0), ("1", "2")):
        monkeypatch.setattr(cli, "SCALAR_POINTS", scalar_points)
        out = _bytes(capsys, argv + ["--format", "json", "--parallelism", par])
        obj = json.loads(out, parse_constant=_no_constant)
        assert out == json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert check(obj)


# ------------------------------------------------- density: two paths

def _load_workloads():
    import importlib.util

    root = os.path.dirname(os.path.dirname(os.path.dirname(cli.__file__)))
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(root, "perfbench", "workloads.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SCAN_DENSITY = [argv for seed in range(1, 11)
                for argv in _load_workloads().argv_lists("scan", seed) if argv[0] == "density"]


def _both_paths(capsys, monkeypatch, argv):
    """(exit code, stdout, stderr) of argv on the scalar and on the array path."""
    runs = []
    for scalar_points in (10 ** 9, 0):
        monkeypatch.setattr(cli, "SCALAR_POINTS", scalar_points)
        runs.append(_run(capsys, argv))
    return runs


EDGE_DENSITY = [
    # t^2 and tau^2 underflow to 0, the saddle does not
    ["density", "--k0i", "-0.3", "--x", "1e-200", "--t-grid", "1e-170"],
    # the saddle underflows to 0: R is inf
    ["density", "--k0i", "-0.3", "--x", "5e-324", "--t-grid", "1"],
    # k_s = 1: |t^2 - tau^2| = 5e-15 t^2, and rho_saddle is 1.6e21
    ["density", "--k0i=-1e-10", "--x", "0.01", "--t-grid", "0.005"],
    # |saddle| = 2.8e159: rho_saddle is past double range, so inf
    ["density", "--k0i=-1e-10", "--x", "2e-300", "--t-grid", "1e-300"],
]


NEAR_UNIT = ["density", "--k0i", "-0.999", "--x", "0,0.001,0.015,0.5", "--t-grid", "log:100:1e6:30"]


@pytest.mark.parametrize("argv", SCAN_DENSITY + STREAMED[:1] + [NEAR_UNIT] + EDGE_DENSITY)
def test_density_paths_agree(capsys, monkeypatch, argv):
    # the scalar and numpy Faddeeva sums agree to a few ulps, not bit for bit;
    # rho is bounded through |psi|, as O(1) terms cancel in it near k0I = -1
    # (NEAR_UNIT: rho ~ 2e-26 at x 0.001, t 1e6 differs by 3e-7 relative)
    (rc_s, out_s, err_s), (rc_a, out_a, err_a) = _both_paths(capsys, monkeypatch, argv)
    assert rc_s == rc_a == 0 and err_s == err_a == ""
    head_s, *rows_s = out_s.splitlines()
    head_a, *rows_a = out_a.splitlines()
    assert head_s == head_a and len(rows_s) == len(rows_a) > 0
    for row_s, row_a in zip(rows_s, rows_a):
        s, a = row_s.split(","), row_a.split(",")
        assert s[:2] == a[:2] and s[5] == a[5], (row_s, row_a)
        for j in (2, 3, 4, 6, 7):
            fs, fa = float(s[j]), float(a[j])
            if not (math.isfinite(fs) and math.isfinite(fa)):
                assert s[j] == a[j], (row_s, row_a)
            elif j in (2, 7):
                assert abs(math.sqrt(fs) - math.sqrt(fa)) <= 1e-14, (row_s, row_a)
            else:
                assert abs(fs - fa) <= 1e-14 * abs(fa), (row_s, row_a)


def _saddle_columns(k0I, x, t):
    """rho_saddle = |saddle|^2 and R = |pole|/|saddle|, |pole| = e^{k0I (2t - x)}."""
    mod = abs(saddle_mpmath_oracle(k0I, x, t)[0])
    return mod * mod, math.exp(k0I * (2.0 * t - x)) / mod


def test_density_edges_on_both_paths(capsys, monkeypatch):
    wants = (_saddle_columns(-0.3, 1e-200, 1e-170), (0.0, math.inf),
             _saddle_columns(-1e-10, 0.01, 0.005), _saddle_columns(-1e-10, 2e-300, 1e-300))
    for argv, want in zip(EDGE_DENSITY, wants):
        for _, out, _ in _both_paths(capsys, monkeypatch, argv):
            row = out.splitlines()[1].split(",")
            assert [float(row[3]), float(row[6])] == pytest.approx(want, rel=1e-14), argv
    # t^2 overflows at the second point: a typed error and only the header
    argv = ["density", "--k0i", "-0.3", "--x", "0.5", "--t-grid", "1,1e300"]
    scalar, array = _both_paths(capsys, monkeypatch, argv)
    assert scalar == array
    assert scalar == (1, "x,t,rho_exact,rho_saddle,rho_pole,pole_crossed,R,rho_normalized\n",
                      "error: evaluation domain error at (x=0.5, t=1e+300): "
                      "t, x or x/(2t) >= 1e+150, where products of squares overflow\n")


def test_density_rho_pole_past_double_range(capsys):
    # before the front at x = 1e6, |pole|^2 = e^{2|k0I|(x - 2t)} passes DBL_MAX;
    # both paths print exactly those cells as inf, and warn about none
    k0I, x, edge = -1e-3, 1e6, math.log(sys.float_info.max)
    for count in (4000, 5000):
        assert (count <= cli.SCALAR_POINTS) == (count == 4000)
        argv = ["density", f"--k0i={k0I}", "--x", str(x), "--t-grid", f"lin:2.5e5:6e5:{count}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = _run(capsys, argv)
        assert rc == 0 and err == ""
        rows = [line.split(",") for line in out.splitlines()[1:]]
        log_sq = [2.0 * abs(k0I) * (x - 2.0 * float(row[1])) for row in rows]
        assert {row[4] == "inf" for row in rows} == {True, False}
        for row, e in zip(rows, log_sq):
            if abs(e - edge) > 1e-9 * edge:
                assert (row[4] == "inf") == (e > edge), row


@pytest.mark.parametrize("argv", STREAMED)
def test_streamed_file_matches_stdout(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setattr(cli, "BLOCK_ROWS", 7)
    out = _bytes(capsys, argv)
    path = tmp_path / "t.csv"
    assert cli.main(argv + ["--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_bytes() == out.encode()


TABLE_ARGVS = STREAMED + [
    ["critical", "--k0i-grid", "lin:-0.6:-0.4:3"],
    # the default 801-point grid, and a --t-grid: blocks of 7 rows cross sites
    ["lattice", "--delta", "0.3", "--sites", "1,4", "--t-max", "20"],
    ["lattice", "--delta", "0.3", "--sites", "1,4,6", "--t-max", "20", "--t-grid", "lin:0:20:30"],
]


@pytest.mark.parametrize("argv", TABLE_ARGVS)
def test_bytes_do_not_depend_on_parallelism(capsys, monkeypatch, argv):
    # one block per table, then blocks of 7 rows rendered by 1, 2, 3 and the
    # default number of processes, and by this process alone where fork
    # fails: the same bytes in both formats
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    assert cli.build_parser().parse_args(argv).parallelism >= 1
    for fmt in ("csv", "json"):
        whole = _bytes(capsys, argv + ["--format", fmt, "--parallelism", "1"])
        with monkeypatch.context() as m:
            m.setattr(cli, "BLOCK_ROWS", 7)
            for par in (["--parallelism", "1"], ["--parallelism", "2"], ["--parallelism", "3"], []):
                assert _bytes(capsys, argv + ["--format", fmt] + par) == whole
            m.setattr(os, "fork", no_fork)
            assert _bytes(capsys, argv + ["--format", fmt, "--parallelism", "2"]) == whole


def _two_processes():
    from postexp import parallel

    if parallel.process_count(2, 2, parallel.usable_cpus()) < 2:
        pytest.skip("needs two usable CPUs and os.fork")
    return parallel


def test_worker_that_ends_without_its_block_is_rendered_here(capsys, monkeypatch):
    # a worker that exits before it sends block 1: the first process renders
    # blocks 1 and 2 itself, so the table is whole, the bytes of one process
    _two_processes()
    parent = os.getpid()

    def block(value):
        if os.getpid() != parent:
            os._exit(3)
        return ([value],)

    def command(args):
        cli.emit_table(args, "critical", {}, ["v"],
                       [functools.partial(block, v) for v in (0.5, 1.5, 2.5)])
        return 0

    monkeypatch.setitem(cli.DISPATCH, "critical", command)
    whole = (0, "v\n0.5\n1.5\n2.5\n", "")
    assert _run(capsys, ["critical", "--k0i-grid", "-0.5", "--parallelism", "2"]) == whole
    assert _run(capsys, ["critical", "--k0i-grid", "-0.5", "--parallelism", "1"]) == whole


def test_error_in_a_workers_block_keeps_its_class_and_fields():
    # block 1 is the worker's and raises there and here: the first process
    # raises it in block 1's turn, as constructed, with its x and t
    from postexp.source_model import EvaluationDomainError

    parallel = _two_processes()

    def block(k):
        if k == 1:
            raise EvaluationDomainError(1.0, 2.0, "reason")
        return k

    texts = parallel.rendered([functools.partial(block, k) for k in range(3)], str, 2)
    assert next(texts) == "0"
    with pytest.raises(EvaluationDomainError) as info:
        next(texts)
    assert type(info.value) is EvaluationDomainError
    assert (info.value.x, info.value.t) == (1.0, 2.0)
    assert str(info.value) == str(EvaluationDomainError(1.0, 2.0, "reason"))


def test_process_count_is_capped():
    # one process per block at most, per usable CPU and per --parallelism
    from postexp import parallel

    assert parallel.process_count(4, 10, 2) == 2
    assert parallel.process_count(1, 10, 8) == 1
    assert parallel.process_count(8, 3, 8) == 3
    assert parallel.process_count(3, 10, 8) == 3
    assert parallel.process_count(8, 1, 8) == parallel.process_count(8, 0, 8) == 1
    if hasattr(os, "sched_getaffinity"):
        assert parallel.usable_cpus() == len(os.sched_getaffinity(0))


@pytest.mark.parametrize("value", ["0", "-1"])
def test_parallelism_below_one_is_usage_error(capsys, value):
    for argv in TABLE_ARGVS:
        rc, out, err = _run(capsys, argv + ["--parallelism", value])
        assert (rc, out) == (2, "")
        assert err == f"error: --parallelism must be >= 1; got {value}\n"
    # scenario's flag is ignored: the benchmark's traced pass appends it to scenario's argvs
    assert _run(capsys, ["scenario", "--config", "rb87.cfg", "--parallelism", value])[0] == 0


# ------------------------------------------------------------ import cost

FOOTPRINT = """
import contextlib, io, sys
from postexp import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in {argvs!r}]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == {package!r}))
"""


def _spawn(args, **env):
    """`python args` in a fresh process importing this tree's postexp, with
    stdout and stderr as bytes.

    The child gets this environment plus env, less OPENBLAS_NUM_THREADS
    unless env sets it (importing cli here has set it to "1").
    """
    return subprocess.run([sys.executable, *args], capture_output=True, env=_child_env(env))


def _child_env(env):
    """This environment plus env, with this tree's src on PYTHONPATH (_spawn)."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child.update(env, PYTHONPATH=path)
    return child


def _fresh(args, **env):
    """stdout of `python args` in a fresh process (_spawn), which must exit 0."""
    r = _spawn(args, **env)
    r.check_returncode()
    return r.stdout.decode()


def _fresh_footprint(argvs, package="scipy"):
    """Exit codes and loaded modules of package of the argvs run in a fresh process."""
    return _fresh(["-c", FOOTPRINT.format(argvs=argvs, package=package)]).strip()


def _package_imports_of(package):
    """(file, module) for each import of package, anywhere in a module of ours."""
    import ast

    found = []
    for root, _, names in os.walk(os.path.dirname(cli.__file__)):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(root, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    mods = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    mods = [node.module or ""]
                else:
                    continue
                found += [(name, m) for m in mods if m.split(".")[0] == package]
    return found


def test_package_imports_no_scipy():
    # scipy is a test dependency only: no module of the package may import it
    assert _package_imports_of("scipy") == []


def test_package_imports_no_dataclasses():
    # dataclasses imports inspect, ast, dis and tokenize, several ms of every
    # fresh process; the records are NamedTuples
    assert _package_imports_of("dataclasses") == []


def test_continuous_model_commands_run_without_scipy():
    # scipy costs most of a fresh process's start, and no command needs it
    argvs = [
        ["density", "--k0i", "-0.3", "--x", "0.5,2", "--t-grid", "lin:1:5:3"],
        ["transition", "--k0i", "-0.3", "--x-grid", "log:0.5:13:4"],
        ["critical", "--k0i-grid", "lin:-0.5:-0.5:1"],
        ["scenario", "--config", "rb87.cfg"],
    ]
    assert _fresh_footprint(argvs) == "[0, 0, 0, 0] []"


def test_lattice_and_selftest_run_without_scipy():
    argvs = [
        ["lattice", "--delta", "0.3", "--sites", "1,5", "--t-max", "40"],
        ["lattice", "--delta", "0.6", "--sites", "1,5", "--t-max", "40", "--t-grid", "lin:0:40:9"],
        ["selftest"],
    ]
    assert _fresh_footprint(argvs) == "[0, 0, 0] []"


def test_package_import_loads_no_numpy():
    code = ("import sys, postexp; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'postexp')))")
    assert _fresh(["-c", code]).strip() == "['postexp']"


ALL_NAMES = [
    "__version__", "LatticeParams", "NormalizationResult", "PhysicalScenario",
    "ScenarioReport", "SourceParams", "TransitionPoint", "Wave", "critical_density_curve",
    "critical_distance", "evolve", "faddeeva", "faddeeva_derivative", "jittoh_criterion",
    "kernel", "lattice_transition_time", "load_scenario_config", "ratio_R",
    "scenario_transition_report", "spatial_norm", "tail_exponent", "to_dimensionless",
    "to_physical", "total_emitted", "tp_turning_point", "transition_time",
]


def test_lazy_public_names():
    import importlib

    import postexp

    assert postexp.__all__ == ALL_NAMES
    assert set(ALL_NAMES) <= set(dir(postexp))
    ns = {}
    exec("from postexp import *", ns)
    assert set(ALL_NAMES) <= set(ns)
    for name in ALL_NAMES[1:]:
        home = importlib.import_module(f"postexp.{postexp._MODULE_OF[name]}")
        assert ns[name] is getattr(home, name) is getattr(postexp, name)
    with pytest.raises(AttributeError):
        postexp.no_such_name


FOOTPRINTS = [
    (["density", "--k0i", "-0.3", "--x", "0.5,2", "--t-grid", "lin:1:5:3"],
     ["source_model", "specfun"]),
    (["transition", "--k0i", "-0.3", "--x-grid", "log:0.5:13:4"],
     ["source_model", "specfun", "transition"]),
    (["critical", "--k0i-grid", "lin:-0.5:-0.5:1"], ["source_model", "specfun", "transition"]),
    (["lattice", "--delta", "0.3", "--sites", "1,5", "--t-max", "40"], ["lattice", "specfun"]),
    (["scenario", "--config", "rb87.cfg"], ["source_model", "specfun", "transition", "units"]),
    (["selftest"], ["selftest", "source_model", "specfun"]),
]


@pytest.mark.parametrize("argv, modules", FOOTPRINTS, ids=[a[0] for a, _ in FOOTPRINTS])
def test_subcommand_loads_only_its_modules(argv, modules):
    want = ["postexp", "postexp.cli"] + [f"postexp.{m}" for m in modules]
    assert _fresh_footprint([argv], package="postexp") == f"[0] {want}"


def test_subcommands_load_no_dataclasses_and_csv_no_json():
    # scenario writes JSON; a CSV table loads no json module
    argvs = [a for a, _ in FOOTPRINTS]
    assert _fresh_footprint(argvs, package="dataclasses") == f"{[0] * len(argvs)} []"
    csv = [a for a in argvs if a[0] != "scenario"]
    assert _fresh_footprint(csv, package="json") == f"{[0] * len(csv)} []"


def test_process_exit_loses_no_output(tmp_path, capsys):
    # the process entry flushes stdout and stderr and leaves by os._exit: a
    # piped table on the numpy path, and each exit code with its error line,
    # come out as from main() in the test process
    big = ["density", "--k0i", "-0.3", "--x", "0.5,3",
           "--t-grid", f"log:0.3:150:{cli.SCALAR_POINTS}"]
    path = tmp_path / "big.csv"
    piped = _spawn(["-m", "postexp.cli", *big])
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert cli.main(big + ["--out", str(path)]) == 0
    assert piped.stdout == path.read_bytes()
    assert piped.stdout.count(b"\n") == 1 + 2 * cli.SCALAR_POINTS
    for argv, code in (
        (["density", "--k0i", "-0.3", "--x", "1", "--t-grid", "1",
          "--out", str(tmp_path / "missing" / "t.csv")], 1),
        (["density", "--k0i", "-1.5", "--x", "1", "--t-grid", "1"], 2),
    ):
        fresh = _spawn(["-m", "postexp.cli", *argv])
        rc, out, err = _run(capsys, argv)
        assert (fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode()) == (rc, out, err)
        assert (rc, out) == (code, "")
        assert err.startswith("error: ") and err.count("\n") == 1


EXIT_ARGVS = [a for a, _ in FOOTPRINTS] + [
    ["--version"], ["--help"], ["density", "--k0i", "-1.5", "--x", "1", "--t-grid", "1"],
    ["lattice", "--delta", "0.3", "--sites", "1,500", "--t-max", "40"], ["no-such-command"],
]


@pytest.mark.parametrize("argv", EXIT_ARGVS, ids=lambda argv: " ".join(argv[:2]))
def test_fresh_process_exits_as_main(tmp_path, capsys, monkeypatch, argv):
    # the process entry leaves by os._exit after its flush: every subcommand,
    # --version, --help and three errors give, as a fresh process, the stdout,
    # stderr and exit code of main() here, to a pipe and, where the command
    # has --out, to a file
    monkeypatch.setenv("COLUMNS", "80")   # argparse's help width, here and in the child
    fresh = _spawn(["-m", "postexp.cli", *argv])
    want = _run(capsys, argv)
    assert (fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode()) == want
    if argv[0] in cli.DISPATCH and argv[0] != "selftest":
        here, there = tmp_path / "here", tmp_path / "there"
        fresh = _spawn(["-m", "postexp.cli", *argv, "--out", str(there)])
        rc, out, err = _run(capsys, argv + ["--out", str(here)])
        assert (fresh.returncode, fresh.stdout, fresh.stderr.decode()) == (rc, b"", err)
        assert (rc, out) == (want[0], "")
        if rc == 0:
            assert there.read_bytes() == here.read_bytes() == want[1].encode()


ATEXIT = """
import atexit, contextlib, io
from postexp import cli
before = atexit._ncallbacks()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in {argvs!r}]
print(codes, atexit._ncallbacks() - before)
"""


def test_no_subcommand_leaves_an_atexit_callback():
    # os._exit skips atexit callbacks: no command, numpy's import and forked
    # block workers included, may register one
    big = ["density", "--k0i", "-0.3", "--x", "1,2", "--t-grid", f"lin:1:100:{cli.BLOCK_ROWS}",
           "--out", os.devnull]
    argvs = [a for a, _ in FOOTPRINTS] + [big, big + ["--format", "json"]]
    assert _fresh(["-c", ATEXIT.format(argvs=argvs)]).strip() == f"{[0] * len(argvs)} 0"


RUN_ATEXIT = """
import atexit, sys
marker = sys.argv.pop(1)
atexit.register(lambda: open(marker, "a").write("ran\\n"))
from postexp import cli
cli.run()
"""


def test_process_entry_runs_the_atexit_callbacks(tmp_path):
    # run() leaves by os._exit, but only after the callbacks that the
    # environment registered (site, coverage tools): once each, in this
    # process and in no forked worker, on success, a usage error and a
    # reader that closed the pipe, with the exit codes unchanged
    big = ["density", "--k0i", "-0.3", "--x", "1,2", "--t-grid", f"lin:1:100:{cli.BLOCK_ROWS}"]
    for i, (argv, read, code) in enumerate((
        (["selftest"], None, 0),
        (["density", "--k0i", "-1.5", "--x", "1", "--t-grid", "1"], None, 2),
        (big, 1024, 1),
    )):
        marker = tmp_path / f"marker{i}"
        with open(tmp_path / "err", "wb") as fe:
            proc = subprocess.Popen([sys.executable, "-c", RUN_ATEXIT, str(marker), *argv],
                                    env=_child_env({}), stdout=subprocess.PIPE, stderr=fe)
            proc.stdout.read(read)
            proc.stdout.close()
            assert proc.wait(timeout=120) == code, argv
        assert marker.read_text() == "ran\n", argv


def _cli_alone(argv, tmp_path, read=None, **env):
    """Run `python -m postexp.cli argv` in a new session, with this
    environment plus env (_child_env), stdout to a file, or to a pipe
    closed after `read` bytes; (exit code, stdout, stderr) once
    it has exited, having checked that no process of its group, such as a
    forked worker, is still alive."""
    import signal

    out, err = tmp_path / "out", tmp_path / "err"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        proc = subprocess.Popen([sys.executable, "-m", "postexp.cli", *argv], env=_child_env(env),
                                stdout=fo if read is None else subprocess.PIPE, stderr=fe,
                                start_new_session=True)
        if read is not None:
            fo.write(proc.stdout.read(read))
            proc.stdout.close()
        code = proc.wait(timeout=120)
    try:
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        return code, out.read_bytes(), err.read_bytes()
    os.killpg(proc.pid, signal.SIGKILL)
    raise AssertionError(f"{argv}: a process of the CLI's group outlived it")


def test_cli_exit_leaves_no_worker(tmp_path):
    # density on two blocks of BLOCK_ROWS rows as a fresh process: to a pipe
    # closed after 1 kB (exit 1 with no error line, a closed reader), to a
    # file (exit 0), and failing in its second block (exit 1, one error
    # line); each exits as in one process
    for xs, read, code, errors, rows in (("1,2", 1024, 1, 0, None),
                                         ("1,2", None, 0, 0, 2 * cli.BLOCK_ROWS),
                                         ("1,5000", None, 1, 1, cli.BLOCK_ROWS)):
        argv = ["density", "--k0i", "-0.3", "--x", xs, "--t-grid", f"lin:1:100:{cli.BLOCK_ROWS}"]
        one, default = (_cli_alone(argv + par, tmp_path, read)
                        for par in (["--parallelism", "1"], []))
        assert one == default and one[0] == code
        assert one[2].count(b"\n") == errors and one[2].startswith(b"error: " * errors)
        assert errors or one[2] == b""
        if rows is not None:
            assert one[1].count(b"\n") == 1 + rows


@pytest.mark.parametrize("argv", [["critical", "--k0i-grid", "-0.5"],
                                  ["scenario", "--config", "rb87.cfg"], ["selftest"],
                                  ["--version"], ["--help"]],
                         ids=lambda argv: argv[0])
def test_reader_closed_before_any_output(tmp_path, argv):
    # the reader is gone before the process writes: with stdout buffered
    # (PYTHONUNBUFFERED empty), all of its output is still in the buffer when
    # main returns, or when argparse has printed --version or --help, and it
    # exits 1 with nothing on stderr
    assert _cli_alone(argv, tmp_path, read=0, PYTHONUNBUFFERED="") == (1, b"", b"")


def test_traced_benchmark_harness_runs_every_subcommand(tmp_path):
    # the benchmark's traced pass (perfbench/inproc.py) reads private caches
    # and wraps functions by name before any argv runs; a rename it does not
    # know about stops it with exit 1
    root = os.path.dirname(os.path.dirname(os.path.dirname(cli.__file__)))
    argvs = [a for a, _ in FOOTPRINTS]
    spec, result = tmp_path / "spec.json", tmp_path / "result.json"
    spec.write_text(json.dumps({"argvs": argvs, "trace": True, "out_dir": str(tmp_path)}))
    _fresh([os.path.join(root, "perfbench", "inproc.py"), str(spec), str(result)])
    out = json.loads(result.read_text())
    assert out["exit_codes"] == [0] * len(argvs)
    names = {span[0] for span in out["spans"]}
    assert "transition.critical_distance" in names
    assert "normalization.total_emitted" not in names


def test_error_path_loads_no_other_module(tmp_path):
    # the exit-code mapping looks up only classes of modules already loaded
    argv = ["density", "--k0i", "-0.3", "--x", "1", "--t-grid", "1",
            "--out", str(tmp_path / "missing" / "t.csv")]
    want = ["postexp", "postexp.cli", "postexp.source_model", "postexp.specfun"]
    assert _fresh_footprint([argv], package="postexp") == f"[1] {want}"


def test_cli_process_defaults_to_one_blas_thread():
    code = "import os; from postexp import {}; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _fresh(["-c", code.format("cli")]).strip() == "1"
    assert _fresh(["-c", code.format("cli")], OPENBLAS_NUM_THREADS="3").strip() == "3"
    # importing a library module leaves the environment alone
    assert _fresh(["-c", code.format("lattice, transition, units")]).strip() == "None"


def test_cli_blas_thread_count_leaves_bytes_unchanged():
    for argv in (["lattice", "--delta", "0.3", "--sites", "1,5", "--t-max", "120"],
                 ["transition", "--k0i", "-0.3", "--x-grid", "log:0.05:20:30"]):
        one, two = (_fresh(["-m", "postexp.cli", *argv], OPENBLAS_NUM_THREADS=n)
                    for n in ("1", "2"))
        assert one == two and one.count("\n") > 30


def test_exit_code_of_each_error_class(capsys, monkeypatch):
    # main maps an error to its exit code by base class alone: the package's
    # four error classes, and any other class derived from either base
    import postexp
    from postexp import normalization, source_model, units

    class NewUsageError(postexp.UsageError):
        pass

    class NewComputationError(postexp.ComputationError):
        pass

    assert cli.UsageError is postexp.UsageError
    assert not {"UsageError", "ComputationError"} & set(postexp.__all__)
    table = [
        (cli.UsageError("bad flag"), 2),
        (ValueError("bad value"), 2),
        (units.ScenarioUnrepresentableError("k0I <= -1"), 2),
        (NewUsageError("a new usage error"), 2),
        (source_model.EvaluationDomainError(1.0, 2.0, "overflow"), 1),
        (normalization.InternalConsistencyError("norm came out -1"), 1),
        (NewComputationError("a new failure"), 1),
        (OSError("disk full"), 1),
    ]
    for err, code in table:
        def fail(args, err=err):
            raise err

        monkeypatch.setitem(cli.DISPATCH, "selftest", fail)
        rc, _, msg = _run(capsys, ["selftest"])
        assert rc == code, type(err).__name__
        assert msg == f"error: {err}\n"


# ---------------------------------------------------- numpy-free commands

def test_cli_import_loads_no_numpy():
    code = "import sys, postexp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    assert _fresh(["-c", code]).strip() == "[]"


NUMPY_RUN = """
import contextlib, io, json, sys
if {blocked!r}:
    sys.modules["numpy"] = None   # any import of numpy now fails
from postexp import cli
runs = []
for argv in {argvs!r}:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runs.append([cli.main(argv), buf.getvalue()])
print(json.dumps([runs, "numpy" in sys.modules and sys.modules["numpy"] is not None]))
"""


def _numpy_run(argvs, blocked):
    """[[exit code, stdout], ...] of argvs in a fresh process, and whether numpy loaded."""
    return json.loads(_fresh(["-c", NUMPY_RUN.format(argvs=argvs, blocked=blocked)]))


def test_scalar_commands_run_with_numpy_blocked():
    argvs = [
        ["scenario", "--config", "rb87.cfg"],
        ["transition", "--k0i", "-0.3", "--x-grid", "log:0.05:20:40"],
        ["transition", "--k0i", "-0.3", "--x-grid", "log:0.05:20:40", "--method", "late_time"],
        ["critical", "--k0i-grid", "log:-0.9:-0.02:35"],
        # density grids up to SCALAR_POINTS points
        ["density", "--k0i", "-0.3", "--x", "0.5,3,7", "--t-grid", "log:0.3:150:100"],
        ["density", "--k0i", "-0.3", "--x", "0,0.5,3", "--t-grid", "1,2,3,4,5,6,7,8,9,10,11"],
    ]
    blocked, loaded = _numpy_run(argvs, blocked=True)
    assert not loaded
    assert [code for code, _ in blocked] == [0] * len(argvs)
    assert all(out.count("\n") > 30 for _, out in blocked[1:])
    assert _numpy_run(argvs, blocked=False) == [blocked, False]


def test_density_loads_numpy_only_above_scalar_points():
    for n_t, numpy_loaded in ((cli.SCALAR_POINTS, False), (cli.SCALAR_POINTS + 1, True)):
        argv = ["density", "--k0i", "-0.3", "--x", "3", "--t-grid", f"log:0.3:150:{n_t}"]
        runs, loaded = _numpy_run([argv + ["--out", os.devnull]], blocked=False)
        assert runs == [[0, ""]] and loaded == numpy_loaded


def test_array_commands_still_load_numpy():
    argvs = [
        ["density", "--k0i", "-0.3", "--x", "0.5,2", "--t-grid", "log:1:5:3"],
        ["lattice", "--delta", "0.3", "--sites", "1,5", "--t-max", "40"],
    ]
    runs, loaded = _numpy_run(argvs, blocked=False)
    assert loaded
    assert [code for code, _ in runs] == [0, 0]


def test_selftest_runs_with_numpy_blocked():
    # the four checks run on the standard library: with numpy's import made
    # to fail they pass, and unblocked they leave numpy unloaded
    from postexp import selftest

    want = "".join(f"SELFTEST {name}: PASS\n" for name, _ in selftest.CHECKS)
    assert _numpy_run([["selftest"]], blocked=True) == [[[0, want]], False]
    assert _numpy_run([["selftest"]], blocked=False) == [[[0, want]], False]


def test_parse_grid_matches_numpy_spacing():
    # lin: is numpy.linspace's rounding exactly; log: computes log10 and 10^y
    # with libm, which may differ from numpy's by an ulp, so it is held to
    # relative 1e-13 with both ends exact
    import random

    import numpy as np

    rng = random.Random(20261019)
    for _ in range(1000):
        n = rng.randint(2, 400)
        a = rng.uniform(-50.0, 50.0)
        b = a + rng.uniform(1e-3, 100.0)
        assert cli.parse_grid(f"lin:{a!r}:{b!r}:{n}", "g") == np.linspace(a, b, n).tolist()
        lo = rng.uniform(-8.0, 8.0)
        a, b = 10.0 ** lo, 10.0 ** (lo + rng.uniform(0.01, 12.0))
        if rng.random() < 0.5:
            a, b = -b, -a
        got = cli.parse_grid(f"log:{a!r}:{b!r}:{n}", "g")
        want = np.geomspace(a, b, n)
        assert got[0] == a and got[-1] == b
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


# the records, not the command line, refuse these values: exit 2, one line
RECORD_DOMAIN = [
    *(["density", f"--k0i={k}", "--x", "1", "--t-grid", "1"] for k in ("-1.5", "nan")),
    *(["transition", f"--k0i={k}", "--x-grid", "1"] for k in ("-1.5", "nan")),
    # nan is refused by the grid parser before any record is built
    *(["critical", f"--k0i-grid={k}"] for k in ("-1.5", "nan", "-0.5,0.5")),
    *(["lattice", f"--delta={d}", "--sites", "1", "--t-max", "10"] for d in ("1.5", "nan")),
    *(["lattice", "--delta", "0.3", "--sites", "1", f"--t-max={t}"] for t in ("inf", "nan", "-3")),
    # negative values in exponent notation, and lists, need no "="
    ["transition", "--k0i", "-1.5e0", "--x-grid", "1"],
    ["critical", "--k0i-grid", "-0.5,0.5"],
    *(["lattice", "--delta", "0.3", "--sites", "1", "--t-max", t] for t in ("inf", "nan", "-3e0")),
]


@pytest.mark.parametrize("argv", RECORD_DOMAIN, ids=" ".join)
def test_values_outside_the_records_exit_2(capsys, argv):
    rc, out, err = _run(capsys, argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_late_time_row_at_subnormal_x(capsys):
    rc, out, err = _run(capsys, ["transition", "--k0i", "-0.3", "--x-grid", "5e-324,0.5,13",
                                 "--method", "late_time", "--parallelism", "1"])
    assert (rc, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["5e-324", "0.5", "13.0"]
    assert all(r[4] == "1" for r in rows)
    assert 1200.0 < float(rows[0][1]) < 1300.0
