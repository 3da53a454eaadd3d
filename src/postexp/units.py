"""Bridge between SI quantities and the dimensionless model.

Unit system: length unit L = hbar/(m v) from the release velocity (so the
central wavenumber is 1), time unit 2 m L^2 / hbar. A physical lifetime
maps to k0I = -t_unit/(4 lifetime), the dimensionless decay parameter.

Compiled-in constants (sources):
  HBAR          1.054571817e-34 J s   (2019 SI redefinition, h/2pi, exact h)
  RB87_MASS_KG  1.4431606e-25 kg      (87Rb atomic mass, AME2020 rounded)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Dict, Optional, Tuple

import numpy as np

from .source_model import SourceParams, SpaceTimePoint, kernel
from .transition import _n_total_cached, max_distance, transition_time

HBAR = 1.054571817e-34
RB87_MASS_KG = 1.4431606e-25

COARSE_PIXEL_RATIO = 100.0   # pixel/L above this: pixel integral, not point sample
PIXEL_QUAD_ORDER = 128       # fixed-order Gauss-Legendre keeps output byte-stable

CONFIG_KEYS = {
    "mass_kg": "mass",
    "lifetime_s": "lifetime",
    "release_velocity_m_per_s": "release_velocity",
    "atom_number": "atom_number",
    "pixel_size_m": "pixel_size",
}
CONFIG_DETECTOR_KEY = "detector_distance_m"


class ScenarioUnrepresentableError(Exception):
    """The scenario maps outside the model's parameter domain; names the bound."""


@dataclass(frozen=True)
class PhysicalScenario:
    mass: float                 # kg
    lifetime: float             # s
    release_velocity: float     # m/s
    atom_number: float          # initial atoms in the source
    pixel_size: float           # m
    hbar: float = HBAR          # J s

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{f.name} must be a positive finite number; got {v!r}")

    @property
    def length_unit(self) -> float:
        return self.hbar / (self.mass * self.release_velocity)

    @property
    def time_unit(self) -> float:
        L = self.length_unit
        return 2.0 * self.mass * L * L / self.hbar

    @property
    def k0I(self) -> float:
        return -self.time_unit / (4.0 * self.lifetime)


def source_params(s: PhysicalScenario) -> SourceParams:
    k0I = s.k0I
    if k0I <= -1.0:
        raise ScenarioUnrepresentableError(
            f"k0I = {k0I:.6g} violates the bound k0I > -1 "
            "(lifetime too short for the release velocity)"
        )
    if k0I >= 0.0:
        raise ScenarioUnrepresentableError(f"k0I = {k0I:.6g} violates the bound k0I < 0")
    return SourceParams(k0I)


def to_dimensionless(
    s: PhysicalScenario, X: float, T: float
) -> Tuple[SpaceTimePoint, SourceParams]:
    """(X meters, T seconds) -> dimensionless point plus the source parameters."""
    p = source_params(s)
    return SpaceTimePoint(X / s.length_unit, T / s.time_unit), p


def to_physical(s: PhysicalScenario, pt: SpaceTimePoint) -> Tuple[float, float]:
    return pt.x * s.length_unit, pt.t * s.time_unit


@dataclass(frozen=True)
class ScenarioReport:
    L_m: float
    t_unit_s: float
    k0I: float
    x_detector: float
    t_p: float
    t_p_physical_s: float
    x_detector_physical_m: float
    atoms_per_pixel_at_transition: float
    atoms_per_pixel_point: float
    atoms_per_pixel_integral: float
    pixel_over_L: float
    largest_detector_distance_m: float
    valid: bool
    method: str

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _pixel_density_integral(p: SourceParams, x_center: float, width: float, t: float) -> float:
    """Normalized density integrated over the pixel, fixed-order quadrature."""
    lo = max(x_center - 0.5 * width, 0.0)
    hi = x_center + 0.5 * width
    nodes, weights = np.polynomial.legendre.leggauss(PIXEL_QUAD_ORDER)
    xs = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
    rho = np.abs(kernel(p, xs, t).psi) ** 2
    return 0.5 * (hi - lo) * float(weights @ rho) / _n_total_cached(p.k0I)


def scenario_transition_report(
    s: PhysicalScenario, X_detector: float, method: str = "exact_ratio"
) -> ScenarioReport:
    """Transition time and per-pixel atom count at a physical detector distance.

    The pixel count is reported both as point-density times pixel width and
    as the true pixel integral; the headline field uses the integral only in
    the coarse-pixel regime (pixel wider than 100 length units), where point
    sampling is meaningless.
    """
    if X_detector <= 0.0:
        raise ValueError("X_detector must be positive")
    p = source_params(s)
    L = s.length_unit
    x = X_detector / L
    tp = transition_time(p, x, method=method)
    width = s.pixel_size / L

    if tp.valid:
        point = s.atom_number * tp.density_normalized * width
        integral = s.atom_number * _pixel_density_integral(p, x, width, tp.t_p)
        headline = integral if width > COARSE_PIXEL_RATIO else point
        t_p, t_p_phys = tp.t_p, tp.t_p * s.time_unit
    else:
        point = integral = headline = math.nan
        t_p = t_p_phys = math.nan

    return ScenarioReport(
        L_m=L,
        t_unit_s=s.time_unit,
        k0I=p.k0I,
        x_detector=x,
        t_p=t_p,
        t_p_physical_s=t_p_phys,
        x_detector_physical_m=X_detector,
        atoms_per_pixel_at_transition=headline,
        atoms_per_pixel_point=point,
        atoms_per_pixel_integral=integral,
        pixel_over_L=width,
        largest_detector_distance_m=max_distance(p) * L,
        valid=tp.valid,
        method=method,
    )


def load_scenario_config(path: str) -> Tuple[PhysicalScenario, Optional[float]]:
    """Parse a flat key = value scenario file (SI units, '#' comments).

    Required keys: mass_kg, lifetime_s, release_velocity_m_per_s,
    atom_number, pixel_size_m. Optional: detector_distance_m (returned
    separately; the CLI lets a flag override it).
    """
    raw: Dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, val = text.partition("=")
            key = key.strip()
            if key in raw:
                raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
            try:
                raw[key] = float(val.strip())
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value for {key!r}") from None
    known = set(CONFIG_KEYS) | {CONFIG_DETECTOR_KEY}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"{path}: unknown keys {unknown}; expected {sorted(known)}")
    missing = sorted(set(CONFIG_KEYS) - set(raw))
    if missing:
        raise ValueError(f"{path}: missing required keys {missing}")
    kwargs = {attr: raw[key] for key, attr in CONFIG_KEYS.items()}
    return PhysicalScenario(**kwargs), raw.get(CONFIG_DETECTOR_KEY)
