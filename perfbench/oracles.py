"""Independent checks of `postexp` CLI output.

Nothing here imports `postexp`. The oracles are:

- w(z) = exp(-z^2) erfc(-iz) from mpmath for the exact wavefunction;
- the closed-form pole and saddle moduli, and so the ratio R = |pole|/|saddle|;
- the analytic emitted norm n_total = 2/gamma = 1/(2|k0I|);
- a brute-force dense-t maximum of R for the existence of a transition;
- scipy.sparse.linalg.expm_multiply on the tridiagonal chain Hamiltonian;
- the JSON schema the package ships for `scenario`.

`check(argv, exit_code, text, src_dir, rng)` returns a list of problems; an
empty list means the output passed. The checks never test the A12 atom
band and accept any value of `largest_distance_is_lower_bound`, or its
absence if the shipped schema drops it.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Dict, List, Sequence

import mpmath
import numpy as np

mpmath.mp.dps = 40

HBAR = 1.054571817e-34
REL_EXACT = 1e-8       # rho_exact against mpmath, and the closed forms
ROOT_TOL = 1e-5        # |R(x, t_p) - 1| at a reported transition time
DENSITY_SAMPLES = 40
LATTICE_REL, LATTICE_ABS = 1e-6, 1e-12
GAMMA_REL = 0.05
TAIL_TOL = 0.1


# ----------------------------------------------------------------- parsing

def _options(argv: Sequence[str]) -> Dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}


def grid(spec: str) -> np.ndarray:
    """The grid a `lin:`/`log:`/comma spec denotes."""
    if spec.startswith(("lin:", "log:")):
        kind, a, b, n = spec.split(":")
        space = np.linspace if kind == "lin" else np.geomspace
        return space(float(a), float(b), int(n)) if int(n) > 1 else np.array([float(a)])
    return np.array([float(s) for s in spec.split(",") if s.strip()])


def parse_csv(text: str, columns: Sequence[str]):
    """(rows as lists of cell strings, `# key = value` summary lines as a dict)."""
    lines = text.splitlines()
    if not lines or lines[0].split(",") != list(columns):
        raise ValueError(f"header {lines[:1]!r} != {list(columns)!r}")
    body = [l for l in lines[1:] if not l.startswith("#")]
    summary = {}
    for l in lines[1:]:
        if l.startswith("# "):
            k, _, v = l[2:].partition(" = ")
            summary[k] = v
    cells = [l.split(",") for l in body]
    if any(len(c) != len(columns) for c in cells):
        raise ValueError("ragged row")
    return cells, summary


def _floats(cells, idx) -> np.ndarray:
    return np.array([[float(c[i]) for i in idx] for c in cells]).reshape(len(cells), len(idx))


# ------------------------------------------------------------ closed forms

def _tau2_gap(k: float, x, t):
    """|t^2 - tau^2| with tau = x / (2 k0), k0 = 1 + i k."""
    tau = np.asarray(x) / (2.0 * complex(1.0, k))
    return np.abs(np.asarray(t) ** 2 - tau * tau)


def rho_pole(k: float, x, t):
    """|exp(-i k0^2 t + i k0 x)|^2."""
    return np.exp(4.0 * k * np.asarray(t) - 2.0 * k * np.asarray(x))


def rho_saddle(k: float, x, t):
    """|sqrt(2t/pi) tau e^{i ks^2 t} / ((i-1) k0 (t^2 - tau^2))|^2."""
    abs_k0_sq = 1.0 + k * k
    mod = np.sqrt(np.asarray(t) / math.pi) * np.asarray(x) / (2.0 * abs_k0_sq * _tau2_gap(k, x, t))
    return mod * mod


def ratio(k: float, x, t):
    """R = |pole| / |saddle|."""
    return np.sqrt(rho_pole(k, x, t) / rho_saddle(k, x, t))


def pole_time(k: float, x):
    """Time after which the pole term is present: Im u_+ > 0."""
    return np.asarray(x) / (2.0 * (1.0 + k))


def max_ratio_after_pole(k: float, x: float) -> float:
    """Brute-force max of R over a dense t grid after the pole crossing."""
    t_c = float(pole_time(k, x))
    span = 200.0 / abs(k) + 10.0 * t_c
    ts = t_c + np.geomspace(1e-9 * max(t_c, 1e-3), span, 200_000)
    return float(np.max(ratio(k, x, ts)))


def rho_mpmath(k: float, x: float, t: float) -> float:
    """|psi|^2 with psi = (1/2) e^{i ks^2 t} [w(-u_+) + w(-u_-)], w from mpmath."""
    k0 = mpmath.mpc(1, k)
    x, t = mpmath.mpf(x), mpmath.mpf(t)
    tau = x / (2 * k0)
    pref = mpmath.mpc(1, 1) * mpmath.sqrt(t / 2) * k0
    u_p, u_m = pref * (1 - tau / t), -pref * (1 + tau / t)

    def w(z):
        return mpmath.exp(-z * z) * mpmath.erfc(-1j * z)

    ks = x / (2 * t)
    psi = mpmath.exp(1j * ks * ks * t) * (w(-u_p) + w(-u_m)) / 2
    return float(abs(psi) ** 2)


def _rel_bad(got, want, rel, floor=0.0) -> np.ndarray:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return ~(np.abs(got - want) <= rel * np.abs(want) + floor)


def _sample(n: int, k: int, rng: random.Random) -> List[int]:
    """First, last and k-2 seeded row indices."""
    if n <= k:
        return list(range(n))
    return sorted({0, n - 1, *rng.sample(range(1, n - 1), k - 2)})


# -------------------------------------------------------------- commands

def _check_density(argv, text, src_dir, rng) -> List[str]:
    o = _options(argv)
    k = float(o["--k0i"])
    cols = ["x", "t", "rho_exact", "rho_saddle", "rho_pole", "pole_crossed", "R", "rho_normalized"]
    cells, _ = parse_csv(text, cols)
    a = _floats(cells, range(8))
    xs, ts = grid(o["--x"]), grid(o["--t-grid"])
    want_x, want_t = np.repeat(xs, len(ts)), np.tile(ts, len(xs))
    if a.shape[0] != want_x.size:
        return [f"density: {a.shape[0]} rows, expected {want_x.size}"]
    x, t, rho, rs, rp, crossed, R, rn = a.T
    bad = []
    if _rel_bad(x, want_x, 1e-12).any() or _rel_bad(t, want_t, 1e-12).any():
        bad.append("density: x/t columns differ from the requested grid")
    for name, got, want in (
        ("rho_pole", rp, rho_pole(k, x, t)),
        ("rho_saddle", rs, rho_saddle(k, x, t)),
        ("R", R, ratio(k, x, t)),
    ):
        n = int(_rel_bad(got, want, REL_EXACT).sum())
        if n:
            bad.append(f"density: {n} rows with {name} off the closed form")
    t_c = pole_time(k, x)
    clear = np.abs(t - t_c) > 1e-9 * t_c
    n = int(((crossed == 1.0) != (t > t_c))[clear].sum())
    if n:
        bad.append(f"density: {n} rows with pole_crossed != (t > x/(2(1+k0I)))")
    n = int(_rel_bad(rn * (1.0 / (2.0 * abs(k))), rho, REL_EXACT, 1e-300).sum())
    if n:
        bad.append(f"density: {n} rows with rho_normalized * 2/gamma != rho_exact")
    for i in _sample(len(x), DENSITY_SAMPLES, rng):
        want = rho_mpmath(k, x[i], t[i])
        if _rel_bad(rho[i], want, REL_EXACT, 1e-300):
            bad.append(f"density: row {i} rho_exact {float(rho[i])!r} != mpmath {want!r}")
    return bad


def _check_transition(argv, text, src_dir, rng) -> List[str]:
    o = _options(argv)
    k = float(o["--k0i"])
    method = o.get("--method", "exact_ratio")
    cols = ["x", "t_p", "rho_at_tp_raw", "rho_at_tp_normalized", "valid", "method"]
    cells, _ = parse_csv(text, cols)
    a = _floats(cells, range(5))
    xs = grid(o["--x-grid"])
    if a.shape[0] != xs.size:
        return [f"transition: {a.shape[0]} rows, expected {xs.size}"]
    x, tp, raw, norm, valid = a.T
    bad = []
    if _rel_bad(x, xs, 1e-12).any():
        bad.append("transition: x column differs from the requested grid")
    if any(c[5] != method for c in cells):
        bad.append(f"transition: method column is not {method!r}")
    ok = valid == 1.0
    if np.isnan(tp[ok]).any() or not np.isnan(tp[~ok]).all():
        bad.append("transition: t_p is NaN on a valid row or finite on an invalid row")
        return bad
    if method == "exact_ratio":
        n = int((np.abs(ratio(k, x[ok], tp[ok]) - 1.0) > ROOT_TOL).sum())
        if n:
            bad.append(f"transition: {n} valid rows with |R(x, t_p) - 1| > {ROOT_TOL}")
    n = int((tp[ok] <= pole_time(k, x[ok])).sum())
    if n:
        bad.append(f"transition: {n} valid rows with t_p <= x/(2(1+k0I))")
    n = int(_rel_bad(norm[ok] / (2.0 * abs(k)), raw[ok], REL_EXACT, 1e-300).sum())
    if n:
        bad.append(f"transition: {n} rows with normalized * 2/gamma != raw density")
    idx = np.nonzero(ok)[0]
    for i in (idx[j] for j in _sample(len(idx), 10, rng)):
        want = rho_mpmath(k, x[i], tp[i])
        if _rel_bad(raw[i], want, REL_EXACT, 1e-300):
            bad.append(f"transition: row {i} density {float(raw[i])!r} != mpmath {want!r}")
    return bad


def _check_critical(argv, text, src_dir, rng) -> List[str]:
    o = _options(argv)
    cols = ["k0I", "x_max", "t_p", "rho_exact_normalized", "rho_approx_normalized", "valid"]
    cells, _ = parse_csv(text, cols)
    a = _floats(cells, range(6))
    ks = grid(o["--k0i-grid"])
    if a.shape[0] != ks.size:
        return [f"critical: {a.shape[0]} rows, expected {ks.size}"]
    bad = []
    if _rel_bad(a[:, 0], ks, 1e-12).any():
        bad.append("critical: k0I column differs from the requested grid")
    for k, x_max, tp, rho_n, _, valid in a.tolist():
        if valid != 1.0:
            # today an invalid row means the scan ceiling 100/|k0I| still has
            # a transition; a root finder that removes the ceiling makes the
            # row valid instead, which the branch below then checks
            if not math.isnan(x_max) or max_ratio_after_pole(k, 100.0 / abs(k)) < 1.0:
                bad.append(f"critical: k0I={k!r} invalid, but no transition at the ceiling")
            continue
        if not max_ratio_after_pole(k, 0.99 * x_max) >= 1.0:
            bad.append(f"critical: k0I={k!r} max R < 1 at 0.99 x_max={x_max!r}")
        if not max_ratio_after_pole(k, 1.01 * x_max) < 1.0:
            bad.append(f"critical: k0I={k!r} max R >= 1 at 1.01 x_max={x_max!r}")
        if not (tp > pole_time(k, x_max) and abs(float(ratio(k, x_max, tp)) - 1.0) <= ROOT_TOL):
            bad.append(f"critical: k0I={k!r} t_p={tp!r} is not a root of R = 1")
        want = rho_mpmath(k, x_max, tp) * 2.0 * abs(k)
        if _rel_bad(rho_n, want, REL_EXACT, 1e-300):
            bad.append(f"critical: k0I={k!r} normalized density {rho_n!r} != {want!r}")
    return bad


def chain_densities(delta: float, t_max: float, sites: Sequence[int], n_times: int) -> np.ndarray:
    """|<n| exp(-iHt) |1>|^2 on linspace(0, t_max, n_times), by expm_multiply."""
    from scipy.sparse import diags
    from scipy.sparse.linalg import expm_multiply

    n = int(2.0 * t_max) + 200   # the front moves at speed 2; no reflection by t_max
    off = -np.ones(n - 1)
    off[0] = -delta
    h = diags([off, off], [-1, 1], format="csr", dtype=complex)
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    states = expm_multiply(-1j * h, e1, start=0.0, stop=t_max, num=n_times, endpoint=True)
    return np.abs(states[:, [s - 1 for s in sites]]) ** 2


def _check_lattice(argv, text, src_dir, rng) -> List[str]:
    o = _options(argv)
    delta, t_max = float(o["--delta"]), float(o["--t-max"])
    sites = [int(s) for s in o["--sites"].split(",")]
    cells, summary = parse_csv(text, ["t", "n", "density"])
    a = _floats(cells, range(3))
    n_times = 801
    if a.shape[0] != n_times * len(sites):
        return [f"lattice: {a.shape[0]} rows, expected {n_times * len(sites)}"]
    bad = []
    want = chain_densities(delta, t_max, sites, n_times).T.reshape(-1)
    want_t = np.tile(np.linspace(0.0, t_max, n_times), len(sites))
    if _rel_bad(a[:, 0], want_t, 1e-12, 1e-12).any() or (a[:, 1] != np.repeat(sites, n_times)).any():
        bad.append("lattice: t/n columns differ from the requested grid")
    n = int(_rel_bad(a[:, 2], want, LATTICE_REL, LATTICE_ABS).sum())
    if n:
        bad.append(f"lattice: {n} rows off expm_multiply")
    try:
        gamma = float(summary["gamma_formula"])
        fitted = float(summary["fitted_gamma"])
        tail = float(summary["tail_exponent"])
        reading = summary["resolved_reading"]
        site_times = [float(summary[f"transition_time_site_{s}"]) for s in sites]
    except (KeyError, ValueError) as err:
        return bad + [f"lattice: summary block incomplete ({err})"]
    if delta < 1.0:
        closed = 2.0 * delta * delta / math.sqrt(1.0 - delta * delta)
        if _rel_bad(gamma, closed, 1e-12):
            bad.append(f"lattice: gamma_formula {gamma!r} != 2 delta^2/alpha = {closed!r}")
        if not abs(fitted - closed) <= GAMMA_REL * closed:
            bad.append(f"lattice: fitted_gamma {fitted!r} not within 5% of {closed!r}")
    if not abs(tail + 3.0) <= TAIL_TOL:
        bad.append(f"lattice: tail_exponent {tail!r} not within {TAIL_TOL} of -3")
    if reading not in ("alpha_in_numerator", "alpha_in_denominator", "n/a"):
        bad.append(f"lattice: unknown resolved_reading {reading!r}")
    for s, t_s in zip(sites, site_times):
        if (reading == "n/a" or s < 2) and not math.isnan(t_s):
            bad.append(f"lattice: site {s} has a transition time without a reading")
        if not math.isnan(t_s) and not 0.0 < t_s <= t_max:
            bad.append(f"lattice: site {s} transition time {t_s!r} outside (0, t_max]")
    return bad


def _read_config(path: str) -> Dict[str, float]:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            text = line.split("#", 1)[0].strip()
            if text:
                key, _, val = text.partition("=")
                out[key.strip()] = float(val)
    return out


def _check_scenario(argv, text, src_dir, rng) -> List[str]:
    import jsonschema

    o = _options(argv)
    schema_path = os.path.join(src_dir, "postexp", "schemas", "scenario_report.schema.json")
    with open(schema_path, encoding="utf-8") as fh:
        schema = json.load(fh)
    try:
        obj = json.loads(text)
        jsonschema.validate(obj, schema)
    except (ValueError, jsonschema.ValidationError) as err:
        return [f"scenario: output fails the shipped schema ({str(err).splitlines()[0]})"]
    rep = obj["report"]
    cfg = _read_config(os.path.join(src_dir, "postexp", "data", o["--config"]))
    m, v = cfg["mass_kg"], cfg["release_velocity_m_per_s"]
    L = HBAR / (m * v)
    t_unit = 2.0 * m * L * L / HBAR
    k = -t_unit / (4.0 * cfg["lifetime_s"])
    dist = float(o["--distance"])
    x = dist / L
    width = cfg["pixel_size_m"] / L
    bad = []
    for key, want in (("L_m", L), ("t_unit_s", t_unit), ("k0I", k), ("x_detector", x),
                      ("x_detector_physical_m", dist), ("pixel_over_L", width)):
        if rep[key] is None or _rel_bad(rep[key], want, 1e-12):
            bad.append(f"scenario: {key} {rep[key]!r} != {want!r}")
    if obj["params"]["distance_m"] != dist:
        bad.append("scenario: params.distance_m is not the requested distance")
    if rep["valid"]:
        tp = rep["t_p"]
        if not (tp > pole_time(k, x) and abs(float(ratio(k, x, tp)) - 1.0) <= ROOT_TOL):
            bad.append(f"scenario: t_p={tp!r} is not a root of R = 1")
        elif _rel_bad(rep["t_p_physical_s"], tp * t_unit, 1e-12):
            bad.append("scenario: t_p_physical_s != t_p * t_unit_s")
        else:
            point = cfg["atom_number"] * rho_mpmath(k, x, tp) * 2.0 * abs(k) * width
            if _rel_bad(rep["atoms_per_pixel_point"], point, REL_EXACT):
                bad.append(f"scenario: atoms_per_pixel_point {rep['atoms_per_pixel_point']!r} != {point!r}")
    return bad


def _check_selftest(argv, text, src_dir, rng) -> List[str]:
    lines = text.splitlines()
    if not lines or not all(l.startswith("SELFTEST ") and l.endswith(": PASS") for l in lines):
        return [f"selftest: not every line passes: {lines!r}"]
    return []


CHECKS = {
    "density": _check_density,
    "transition": _check_transition,
    "critical": _check_critical,
    "lattice": _check_lattice,
    "scenario": _check_scenario,
    "selftest": _check_selftest,
}


def check(argv: Sequence[str], exit_code: int, text: str, src_dir: str,
          rng: random.Random) -> List[str]:
    """Problems with one invocation's result; empty when it is correct."""
    if exit_code != 0:
        return [f"{argv[0]}: exit code {exit_code}"]
    try:
        return CHECKS[argv[0]](argv, text, src_dir, rng)
    except (ValueError, KeyError, IndexError) as err:
        return [f"{argv[0]}: unreadable output ({err!r})"]
