"""Post-exponential decay of an exponentially decaying wave source.

Exact one-dimensional wavefunction for a source switched on at t = 0 and
decaying with lifetime tau0 = 1/(4|k0I|), its saddle/pole decomposition,
the exponential-to-algebraic transition time, emitted-norm normalization,
a tight-binding chain analogue, and a physical-units bridge.

The public names are resolved on first access (PEP 562), so importing the
package loads neither numpy nor any submodule; `python -m postexp.cli`
and the `postexp` script load only what their subcommand uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_SOURCES = {
    "lattice": ("LatticeParams", "evolve", "lattice_transition_time", "tail_exponent"),
    "normalization": ("NormalizationResult", "spatial_norm", "total_emitted"),
    "source_model": ("SourceParams", "Wave", "kernel"),
    "specfun": ("faddeeva", "faddeeva_derivative"),
    "transition": (
        "TransitionPoint",
        "critical_density_curve",
        "critical_distance",
        "jittoh_criterion",
        "ratio_R",
        "tp_turning_point",
        "transition_time",
    ),
    "units": (
        "PhysicalScenario",
        "ScenarioReport",
        "load_scenario_config",
        "scenario_transition_report",
        "to_dimensionless",
        "to_physical",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
