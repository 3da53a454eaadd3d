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
import sys
from functools import lru_cache
from typing import Dict, NamedTuple, Optional, Tuple

from . import UsageError
from .source_model import SourceParams, kernel
from .transition import _n_total_cached, max_distance, transition_time

HBAR = 1.054571817e-34
RB87_MASS_KG = 1.4431606e-25

COARSE_PIXEL_RATIO = 100.0   # pixel/L above this: pixel integral, not point sample
PIXEL_QUAD_ORDER = 128       # fixed-order Gauss-Legendre keeps output byte-stable
NEWTON_STEPS = 20            # cap on the Newton steps per Gauss-Legendre node

CONFIG_KEYS = {
    "mass_kg": "mass",
    "lifetime_s": "lifetime",
    "release_velocity_m_per_s": "release_velocity",
    "atom_number": "atom_number",
    "pixel_size_m": "pixel_size",
}
CONFIG_DETECTOR_KEY = "detector_distance_m"


class ScenarioUnrepresentableError(UsageError):
    """The scenario maps outside the model's parameter domain; names the bound."""


class _ScenarioFields(NamedTuple):
    mass: float                 # kg
    lifetime: float             # s
    release_velocity: float     # m/s
    atom_number: float          # initial atoms in the source
    pixel_size: float           # m
    hbar: float = HBAR          # J s


class PhysicalScenario(_ScenarioFields):
    """A cold-atom source in SI units. An immutable tuple; the constructor,
    _make and _replace all check that every field is positive and finite,
    and that the length and time units are too."""

    __slots__ = ()

    def __new__(cls, mass: float, lifetime: float, release_velocity: float,
                atom_number: float, pixel_size: float, hbar: float = HBAR):
        self = super().__new__(cls, mass, lifetime, release_velocity, atom_number,
                               pixel_size, hbar)
        for name, v in zip(self._fields, self):
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number; got {v!r}")
        for name in ("length_unit", "time_unit"):
            try:
                v = getattr(self, name)
            except ZeroDivisionError:   # m v underflows to 0
                v = math.inf
            if not 0.0 < v < math.inf:
                raise ScenarioUnrepresentableError(
                    f"{name} = {v!r} lies outside double range (mass, release_velocity "
                    "and hbar give no representable unit system)")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

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
) -> Tuple[float, float, SourceParams]:
    """(X meters, T seconds) -> dimensionless (x, t) and the source parameters.

    X < 0, T <= 0 and non-finite input raise ValueError.
    """
    p = source_params(s)
    x, t = X / s.length_unit, T / s.time_unit
    if not (0.0 <= x < math.inf and 0.0 < t < math.inf):
        raise ValueError(f"need finite X >= 0 and T > 0, got (X, T) = ({X!r}, {T!r})")
    return x, t, p


def to_physical(s: PhysicalScenario, x: float, t: float) -> Tuple[float, float]:
    """Dimensionless (x, t) -> (X meters, T seconds); x < 0, t <= 0, non-finite,
    or an X or T past double range: ValueError."""
    if not (0.0 <= x < math.inf and 0.0 < t < math.inf):
        raise ValueError(f"need finite x >= 0 and t > 0, got (x, t) = ({x!r}, {t!r})")
    X, T = x * s.length_unit, t * s.time_unit
    if not (X < math.inf and T < math.inf):
        raise ValueError(f"(x, t) = ({x!r}, {t!r}) passes double range in SI units")
    return X, T


class ScenarioReport(NamedTuple):
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


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """Nodes (ascending) and weights of the n-point Gauss-Legendre rule on [-1, 1].

    Newton's method on P_n from Tricomi's x = (1 - 1/(8 n^2) + 1/(8 n^3))
    cos(pi (i - 1/4)/(n + 1/2)) finds each root of the upper half to
    rounding in 2-4 steps, and the lower half mirrors it. The weight is
    2/((1 - x^2) P_n'(x)^2), with P_n and P_n' from the three-term recurrence.
    """
    def legendre(x):
        p0, p1 = 1.0, x
        for m in range(2, n + 1):
            p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    upper = []
    for i in range(1, n // 2 + 1):
        x = (1.0 - (1.0 - 1.0 / n) / (8.0 * n * n)) * math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(NEWTON_STEPS):
            value, slope = legendre(x)
            x -= value / slope
            if abs(value / slope) <= sys.float_info.epsilon:
                break
        slope = legendre(x)[1]
        upper.append((x, 2.0 / ((1.0 - x * x) * slope * slope)))
    middle = [(0.0, 2.0 / legendre(0.0)[1] ** 2)] if n % 2 else []
    pairs = [(-x, w) for x, w in upper] + middle + upper[::-1]
    return tuple(x for x, _ in pairs), tuple(w for _, w in pairs)


def _pixel_density_integral(p: SourceParams, x_center: float, width: float, t: float) -> float:
    """Normalized density integrated over the pixel, fixed-order quadrature."""
    lo = max(x_center - 0.5 * width, 0.0)
    hi = x_center + 0.5 * width
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    nodes, weights = _gauss_legendre(PIXEL_QUAD_ORDER)
    total = math.fsum(w * abs(kernel(p, half * u + mid, t).psi) ** 2 for u, w in zip(nodes, weights))
    return half * total / _n_total_cached(p.k0I)


def scenario_transition_report(s: PhysicalScenario, X_detector: float) -> ScenarioReport:
    """Transition time and per-pixel atom count at a physical detector distance.

    The pixel count is reported both as point-density times pixel width and
    as the true pixel integral; the headline field uses the integral only in
    the coarse-pixel regime (pixel wider than 100 length units), where point
    sampling is meaningless. A field that passes double range (a product of
    SI and dimensionless values can where neither does) raises
    ScenarioUnrepresentableError.
    """
    if not 0.0 < X_detector < math.inf:
        raise ValueError(f"X_detector must be positive and finite; got {X_detector!r}")
    p = source_params(s)
    L = s.length_unit
    x = X_detector / L
    width = s.pixel_size / L
    if width == math.inf:
        raise ScenarioUnrepresentableError("pixel_over_L lies outside double range")
    tp = transition_time(p, x)

    if tp.valid:
        point = s.atom_number * tp.density_normalized * width
        integral = s.atom_number * _pixel_density_integral(p, x, width, tp.t_p)
        headline = integral if width > COARSE_PIXEL_RATIO else point
        t_p, t_p_phys = tp.t_p, tp.t_p * s.time_unit
    else:
        point = integral = headline = math.nan
        t_p = t_p_phys = math.nan

    report = ScenarioReport(
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
        method=tp.method,
    )
    outside = [name for name, v in zip(report._fields, report) if v == math.inf]
    if outside:
        raise ScenarioUnrepresentableError(f"{', '.join(outside)} lies outside double range")
    return report


def load_scenario_config(path: str) -> Tuple[PhysicalScenario, Optional[float]]:
    """Parse a flat key = value scenario file (SI units, '#' comments).

    Required keys: mass_kg, lifetime_s, release_velocity_m_per_s,
    atom_number, pixel_size_m. Optional: detector_distance_m (returned
    separately; the CLI lets a flag override it), which must be positive and
    finite.
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
    distance = raw.get(CONFIG_DETECTOR_KEY)
    if distance is not None and not 0.0 < distance < math.inf:
        raise ValueError(f"{path}: {CONFIG_DETECTOR_KEY} must be positive and finite; "
                         f"got {distance!r}")
    kwargs = {attr: raw[key] for key, attr in CONFIG_KEYS.items()}
    return PhysicalScenario(**kwargs), distance
