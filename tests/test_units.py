"""Physical-unit bridge: scales, scenario report, config parsing."""

import math

import numpy as np
import pytest

from postexp import units

from conftest import cold_atom_oracle, max_log_ratio_after_pole


RB87 = dict(mass=1.4431606e-25, lifetime=400e-6, release_velocity=0.01,
            atom_number=1e6, pixel_size=3e-6)


@pytest.fixture(scope="module")
def rb87():
    return units.PhysicalScenario(**RB87)


def test_scenario_validation():
    for field in RB87:
        bad = dict(RB87)
        bad[field] = -1.0
        with pytest.raises(ValueError):
            units.PhysicalScenario(**bad)
        bad[field] = math.inf
        with pytest.raises(ValueError):
            units.PhysicalScenario(**bad)


def test_derived_scales_frozen(rb87):
    assert rb87.length_unit == pytest.approx(7.307376718848893e-08, rel=1e-12)
    assert rb87.time_unit == pytest.approx(1.4614753437697788e-05, rel=1e-12)
    assert rb87.k0I == pytest.approx(-0.009134220898561116, rel=1e-12)


def test_source_params_bounds():
    # short lifetimes push the decay rate outside the representable band
    bad = dict(RB87, lifetime=1e-6)
    with pytest.raises(units.ScenarioUnrepresentableError) as err:
        units.source_params(units.PhysicalScenario(**bad))
    assert "k0I" in str(err.value)


def test_round_trip(rb87):
    pt, p = units.to_dimensionless(rb87, 100e-6, 1e-3)
    assert p.k0I == rb87.k0I
    X, T = units.to_physical(rb87, pt)
    assert X == pytest.approx(100e-6, rel=1e-12)
    assert T == pytest.approx(1e-3, rel=1e-12)


def test_scenario_report_frozen(rb87):
    rep = units.scenario_transition_report(rb87, 100e-6)
    assert rep.valid
    assert rep.method == "exact_ratio"
    assert rep.x_detector == pytest.approx(1368.4801515988172, rel=1e-9)
    assert rep.t_p == pytest.approx(857.367340284082, rel=1e-6)
    assert rep.t_p_physical_s == pytest.approx(0.012530212283786597, rel=1e-6)
    assert rep.atoms_per_pixel_point == pytest.approx(3784.96, rel=1e-4)
    assert rep.atoms_per_pixel_integral == pytest.approx(2616.9, rel=1e-3)
    # narrow pixel: the point sample is the headline number
    assert rep.pixel_over_L == pytest.approx(41.055, rel=1e-3)
    assert rep.atoms_per_pixel_at_transition == rep.atoms_per_pixel_point
    # the largest distance with a transition, about 1.2662 mm
    ref = cold_atom_oracle(rb87, rep.largest_detector_distance_m, rep.t_p)
    assert max_log_ratio_after_pole(ref.k0I, ref.x * (1.0 - 1e-7)) >= 0.0
    assert max_log_ratio_after_pole(ref.k0I, ref.x * (1.0 + 1e-7)) < 0.0


def test_scenario_count_under_closed_form_ceiling(rb87):
    # the pole/saddle fringes (period ~31 L) are narrower than the pixel
    # (~41 L), so the point sample swings from ~1% to ~98% of the ceiling
    # across this sweep, but never above it
    for X in np.linspace(90e-6, 110e-6, 11):
        rep = units.scenario_transition_report(rb87, float(X))
        ref = cold_atom_oracle(rb87, float(X), rep.t_p)
        assert rep.atoms_per_pixel_point == pytest.approx(ref.count, rel=1e-9), X
        assert rep.atoms_per_pixel_point <= ref.ceiling, X


def test_report_round_trips_to_dict(rb87):
    rep = units.scenario_transition_report(rb87, 100e-6)
    d = rep.to_dict()
    assert d["t_p"] == rep.t_p
    assert d["valid"] is True
    assert set(d) == set(units.ScenarioReport.__dataclass_fields__)


def test_report_runs_no_quadrature(rb87, monkeypatch):
    from postexp import normalization, transition

    calls = []
    real = normalization.total_emitted

    def counted(p):
        calls.append(p)
        return real(p)

    # the module's own name and any binding units may import
    monkeypatch.setattr(normalization, "total_emitted", counted)
    monkeypatch.setattr(units, "total_emitted", counted, raising=False)
    transition._n_total_cached.cache_clear()
    for X in (100e-6, 50e-6):
        rep = units.scenario_transition_report(rb87, X)
        assert rep.valid
    assert calls == []


def test_atoms_per_pixel_linear_in_atom_number(rb87):
    doubled = units.PhysicalScenario(**dict(RB87, atom_number=2e6))
    a = units.scenario_transition_report(rb87, 100e-6)
    b = units.scenario_transition_report(doubled, 100e-6)
    assert b.atoms_per_pixel_point == pytest.approx(2 * a.atoms_per_pixel_point, rel=1e-9)
    assert b.t_p == a.t_p


def test_config_loading_matches_bundled_values(rb87):
    from importlib import resources

    path = resources.files("postexp").joinpath("data", "rb87.cfg")
    scenario, distance = units.load_scenario_config(str(path))
    assert scenario == rb87
    assert distance == pytest.approx(100e-6)


def test_config_error_reporting(tmp_path):
    def write(name, text):
        f = tmp_path / name
        f.write_text(text)
        return str(f)

    good = ("mass_kg = 1.44e-25\nlifetime_s = 4e-4\n"
            "release_velocity_m_per_s = 0.01\natom_number = 1e6\n"
            "pixel_size_m = 3e-6\n")

    with pytest.raises(ValueError, match=r":2: duplicate key"):
        units.load_scenario_config(write("dup.cfg", "mass_kg = 1\nmass_kg = 2\n"))
    with pytest.raises(ValueError, match="unknown keys"):
        units.load_scenario_config(write("unk.cfg", good + "color = 3\n"))
    with pytest.raises(ValueError, match="missing required keys"):
        units.load_scenario_config(write("miss.cfg", "mass_kg = 1.44e-25\n"))
    with pytest.raises(ValueError, match=r":1: non-numeric"):
        units.load_scenario_config(write("bad.cfg", "mass_kg = heavy\n"))
    # comments and blank lines are fine
    scenario, distance = units.load_scenario_config(
        write("ok.cfg", "# header\n\n" + good))
    assert distance is None
    assert scenario.mass == pytest.approx(1.44e-25)
