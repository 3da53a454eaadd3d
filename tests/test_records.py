"""The package's records: immutable, hashable tuples; the validated ones are
checked on every path that builds one."""

import math

import pytest

from postexp import lattice, normalization, source_model, transition, units

RB87 = (1.4431606e-25, 400e-6, 0.01, 1e6, 3e-6, units.HBAR)
UNREPRESENTABLE = ("lies outside double range (mass, release_velocity and hbar give no "
                   "representable unit system)")

# (record type, valid fields, field set to a bad value, the value, error, message)
INVALID = [
    (source_model.SourceParams, (-0.3,), "k0I", 0.3, ValueError,
     "k0I must lie in (-1, 0), got 0.3"),
    (source_model.SourceParams, (-0.3,), "k0I", math.nan, ValueError,
     "k0I must lie in (-1, 0), got nan"),
    (lattice.LatticeParams, (0.3, 10.0), "delta", 1.2, ValueError,
     "delta must be in (0, 1]; got 1.2"),
    (lattice.LatticeParams, (0.3, 10.0), "t_max", 0.0, ValueError,
     "t_max must be positive and finite; got 0.0"),
    (lattice.LatticeParams, (0.3, 10.0), "t_max", 9980.5, ValueError,
     "t_max must be at most 9980 (a chain of MAX_SITES=20000 sites); got 9980.5"),
    (lattice.LatticeParams, (0.3, 10.0), "t_max", math.inf, ValueError,
     "t_max must be positive and finite; got inf"),
    (lattice.LatticeParams, (0.3, 10.0), "t_max", -3.0, ValueError,
     "t_max must be positive and finite; got -3.0"),
    (units.PhysicalScenario, RB87, "mass", -1.0, ValueError,
     "mass must be a positive finite number; got -1.0"),
    (units.PhysicalScenario, RB87, "lifetime", "1", ValueError,
     "lifetime must be a positive finite number; got '1'"),
    (units.PhysicalScenario, RB87, "hbar", math.nan, ValueError,
     "hbar must be a positive finite number; got nan"),
    # m v underflows to 0, or is so large that hbar/(m v) or 2 m L^2/hbar does
    (units.PhysicalScenario, RB87, "release_velocity", 5e-324, units.ScenarioUnrepresentableError,
     f"length_unit = inf {UNREPRESENTABLE}"),
    (units.PhysicalScenario, RB87, "mass", 1e300, units.ScenarioUnrepresentableError,
     f"length_unit = 0.0 {UNREPRESENTABLE}"),
    (units.PhysicalScenario, RB87, "release_velocity", 1e300, units.ScenarioUnrepresentableError,
     f"time_unit = 0.0 {UNREPRESENTABLE}"),
]


@pytest.mark.parametrize("cls, good, field, value, error, message", INVALID,
                         ids=[f"{c.__name__}-{f}-{v!r}" for c, _, f, v, *_ in INVALID])
def test_every_path_to_a_record_validates(cls, good, field, value, error, message):
    record = cls(*good)
    fields = list(good)
    fields[record._fields.index(field)] = value
    makers = [
        lambda: cls(*fields),
        lambda: cls(**dict(zip(record._fields, fields))),
        lambda: cls._make(fields),
        lambda: record._replace(**{field: value}),
    ]
    for make in makers:
        with pytest.raises(error) as err:
            make()
        assert type(err.value) is error and str(err.value) == message


def test_validated_records_keep_their_constructors():
    p = source_model.SourceParams(k0I=-0.3)
    assert p == source_model.SourceParams(-0.3) == (-0.3,)
    assert lattice.LatticeParams(delta=0.3, t_max=10.0) == (0.3, 10.0)
    # hbar defaults to HBAR, by position or keyword
    s = units.PhysicalScenario(*RB87[:5])
    assert s.hbar == units.HBAR and s == RB87
    assert units.PhysicalScenario(**dict(zip(s._fields, RB87))) == s
    assert s._replace(atom_number=2e6).atom_number == 2e6
    assert p._replace(k0I=-0.5) == (-0.5,)


def _records():
    p = source_model.SourceParams(-0.3)
    s = units.PhysicalScenario(*RB87)
    return [
        p,
        lattice.LatticeParams(0.3, 10.0),
        s,
        transition.transition_time(p, 2.5),
        transition.critical_density_curve([p])[0],
        units.scenario_transition_report(s, 100e-6),
        normalization.total_emitted(p),
    ]


RECORD_NAMES = ["SourceParams", "LatticeParams", "PhysicalScenario", "TransitionPoint",
                "CriticalDensityPoint", "ScenarioReport", "NormalizationResult"]


def test_records_are_hashable_immutable_tuples():
    records = _records()
    assert [type(r).__name__ for r in records] == RECORD_NAMES
    for record in records:
        name = type(record).__name__
        assert isinstance(record, tuple) and len(record) == len(record._fields), name
        assert record == tuple(record) and hash(record) == hash(tuple(record)), name
        copy = type(record)._make(record)
        assert {record: name}[copy] == name
        assert record._replace() == record
        assert record._asdict() == dict(zip(record._fields, record))
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 1.0)
        with pytest.raises(AttributeError):
            record.extra = 1.0
