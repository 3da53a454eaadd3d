"""Acceptance criteria, one test per criterion.

Each test prints (and registers for the terminal summary) a single
verdict line before asserting, so a red run still shows every measured
value. Criteria run against the public API or the installed CLI, never
against private helpers.
"""

import cmath
import json
import math
import subprocess
import sys
import time

import numpy as np

from postexp import lattice as lat
from postexp import normalization as nz
from postexp import source_model as sm
from postexp import transition as tr
from postexp import units

from conftest import (CROSSING_DELTA, CROSSING_HORIZON, CROSSING_SITES, cold_atom_oracle,
                      envelope_crossing_oracle, psi_contour_oracle)

VERDICTS = []


def _verdict(tag, ok, detail):
    line = f"[{tag}] {'PASS' if ok else 'FAIL'}  {detail}"
    VERDICTS.append(line)
    print(line)
    return ok


def test_a01_boundary_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for k0I in (-0.1, -0.3, -0.5, -0.9):
        p = sm.SourceParams(k0I)
        for t in np.geomspace(0.01, 100.0, 200):
            t = float(t)
            worst = max(worst, abs(sm.kernel(p, 0.0, t).psi - cmath.exp(-1j * p.omega0 * t)))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 1.0
    assert _verdict("A1", ok, f"max boundary deviation {worst:.2e} (tol 1e-10), {dt:.2f}s")


def test_a02_exact_solution_vs_contour_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    samples = 0
    while samples < 20:
        k0I = rng.uniform(-0.85, -0.1)
        x = 10.0 ** rng.uniform(-1.0, 0.9)
        t = 10.0 ** rng.uniform(-0.5, 1.7)
        if abs(x / (2.0 * t) - (1.0 + k0I)) < 0.05:
            continue  # residue on/off boundary, oracle conditioning poor
        samples += 1
        p = sm.SourceParams(k0I)
        got = sm.kernel(p, x, t).psi
        ref = psi_contour_oracle(k0I, x, t)
        worst = max(worst, abs(got - ref) / abs(ref))
    dt = time.perf_counter() - t0
    ok = worst < 1e-6 and dt < 30.0
    assert _verdict("A2", ok, f"worst rel error {worst:.2e} over {samples} samples (tol 1e-6), {dt:.1f}s")


def test_a03_marked_transition_times():
    t0 = time.perf_counter()
    p = sm.SourceParams(-0.3)
    got = {x: tr.transition_time(p, x).t_p for x in (0.1, 2.5, 12.0)}
    expected = {0.1: 12.0, 2.5: 7.0, 12.0: 9.0}
    ok = all(abs(got[x] - expected[x]) <= 1.0 for x in expected)
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    detail = ", ".join(f"t_p({x})={got[x]:.3f} (want {expected[x]}+-1)" for x in sorted(got))
    assert _verdict("A3", ok, f"{detail}, {dt:.2f}s")


def test_a04_turning_point_location():
    t0 = time.perf_counter()
    offs = {}
    for k0I in (-0.1, -0.3):
        p = sm.SourceParams(k0I)
        xstar = tr.tp_turning_point(p)
        target = 1.0 / abs(k0I)
        offs[k0I] = abs(xstar - target) / target
    dt = time.perf_counter() - t0
    ok = all(v < 0.20 for v in offs.values()) and dt < 10.0
    detail = ", ".join(f"k0I={k}: off {v*100:.1f}%" for k, v in offs.items())
    assert _verdict("A4", ok, f"{detail} (tol 20%), {dt:.2f}s")


def test_a05_transition_density_grows_with_distance():
    t0 = time.perf_counter()
    p = sm.SourceParams(-0.5)
    dens = [tr.transition_time(p, x).density_raw for x in (0.1, 0.4, 1.5)]
    ok = dens[0] < dens[1] < dens[2]
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    assert _verdict("A5", ok, f"densities {dens[0]:.3e} < {dens[1]:.3e} < {dens[2]:.3e}, {dt:.2f}s")


def test_a06_critical_density_maximum_location():
    t0 = time.perf_counter()
    ks = [i / 100.0 for i in range(-90, -5, 5)]
    pts = tr.critical_density_curve([sm.SourceParams(k) for k in ks])
    valid = [c for c in pts if c.valid]
    best = max(valid, key=lambda c: c.density_exact)
    dt = time.perf_counter() - t0
    ok = -0.6 <= best.k0I <= -0.4 and len(valid) == len(ks) and dt < 120.0
    assert _verdict("A6", ok, f"max normalized density {best.density_exact:.3e} at k0I={best.k0I:+.2f} "
                              f"(band [-0.6,-0.4]), {len(valid)}/{len(ks)} valid, {dt:.1f}s")


def test_a07_strong_decay_threshold():
    params = [sm.SourceParams(-0.05 * i) for i in range(1, 11)]
    t0 = time.perf_counter()
    results = [tr.jittoh_criterion(p) for p in params]
    dt = time.perf_counter() - t0
    ok = all(flag == (4.0 * abs(p.k0I) >= 2.0) and value == 4.0 * abs(p.k0I)
             for p, (value, flag) in zip(params, results))
    ok = ok and {flag for _, flag in results} == {True, False}
    ok = ok and dt < 1e-3
    assert _verdict("A7", ok, f"threshold at 4|k0I|=2 on 10-point grid, {dt*1e6:.0f}us")


def test_a08_asymptotic_split_accuracy():
    t0 = time.perf_counter()
    details = []
    ok = True
    for k0I in (-0.15, -0.3):
        p = sm.SourceParams(k0I)
        worst = 0.0
        qualifying = 0
        for x in np.geomspace(0.2, 20.0, 10):
            for t in np.geomspace(0.2, 200.0, 10):
                x, t = float(x), float(t)
                # |u_+-| = sqrt(t) |k0 -+ x/(2t)|
                if math.sqrt(t) * min(abs(p.k0 - x / (2 * t)), abs(p.k0 + x / (2 * t))) < 5.0:
                    continue
                qualifying += 1
                w = sm.kernel(p, x, t)
                exact = abs(w.psi) ** 2
                approx = abs(w.saddle + (w.pole if w.pole_crossed else 0j)) ** 2
                worst = max(worst, abs(approx - exact) / exact)
        ok = ok and worst <= 0.05 and qualifying >= 30
        details.append(f"k0I={k0I}: worst {worst*100:.2f}% on {qualifying} pts")
    dt = time.perf_counter() - t0
    ok = ok and dt < 10.0
    assert _verdict("A8", ok, f"{'; '.join(details)} (tol 5%), {dt:.1f}s")


def _rho_j(p, x, t):
    """Density |psi|^2 and current 2 Im(psi* d psi/dx)."""
    w = sm.kernel(p, x, t, derivative=True)
    return abs(w.psi) ** 2, 2.0 * (w.psi.conjugate() * w.dpsi_dx).imag


def test_a09_finite_difference_residuals():
    t0 = time.perf_counter()
    h = 1e-4
    worst_s = 0.0
    rng = np.random.default_rng(20240816)
    for k0I in (-0.3, -0.5):
        p = sm.SourceParams(k0I)
        for _ in range(50):
            x = rng.uniform(0.1, 5.0)
            t = rng.uniform(0.5, 20.0)
            psi = lambda xx, tt: sm.kernel(p, xx, tt).psi
            ddt = (psi(x, t + h) - psi(x, t - h)) / (2 * h)
            dxx = (psi(x + h, t) - 2 * psi(x, t) + psi(x - h, t)) / (h * h)
            worst_s = max(worst_s, abs(1j * ddt + dxx) / max(abs(psi(x, t)), 1e-30))
    worst_c = 0.0
    rng = np.random.default_rng(20240817)
    for k0I in (-0.3, -0.5):
        p = sm.SourceParams(k0I)
        for _ in range(50):
            x = rng.uniform(0.1, 5.0)
            t = rng.uniform(0.5, 20.0)
            ddt = (_rho_j(p, x, t + h)[0] - _rho_j(p, x, t - h)[0]) / (2 * h)
            ddx = (_rho_j(p, x + h, t)[1] - _rho_j(p, x - h, t)[1]) / (2 * h)
            worst_c = max(worst_c, abs(ddt + ddx) / max(abs(ddt), abs(ddx), 1e-30))
    dt = time.perf_counter() - t0
    ok = worst_s < 1e-3 and worst_c < 1e-3 and dt < 10.0
    assert _verdict("A9", ok, f"evolution residual {worst_s:.2e}, conservation residual "
                              f"{worst_c:.2e} (tol 1e-3), {dt:.1f}s")


def test_a10_lattice_oracles():
    t0 = time.perf_counter()
    p = lat.LatticeParams(0.3, 30.0)
    amps = lat.evolve(p, [0.0, 10.0, 30.0])
    norm_dev = float(np.max(np.abs(np.sum(np.abs(amps) ** 2, axis=1) - 1.0)))

    gamma_errs = {}
    for delta, horizon in ((0.2, 80.0), (0.3, 70.0), (0.4, 50.0)):
        pp = lat.LatticeParams(delta, horizon)
        gamma_errs[delta] = abs(lat.fitted_decay_rate(pp) - pp.gamma) / pp.gamma

    p_tail = lat.LatticeParams(0.4, 400.0)
    tail = lat.tail_exponent(p_tail, 1, window=(80.0, 380.0))

    from scipy.special import j1
    pb = lat.LatticeParams(1.0, 60.0)
    ts = np.linspace(0.5, 60.0, 120)
    bessel_dev = float(np.max(np.abs(lat.site_density(pb, 1, ts) - (j1(2 * ts) / ts) ** 2)))

    dt = time.perf_counter() - t0
    ok = (norm_dev < 1e-10 and all(v < 0.05 for v in gamma_errs.values())
          and abs(tail + 3.0) < 0.3 and bessel_dev < 1e-6 and dt < 60.0)
    assert _verdict("A10", ok, f"norm dev {norm_dev:.1e}, gamma errs "
                               f"{'/'.join(f'{v*100:.3f}%' for v in gamma_errs.values())}, "
                               f"tail {tail:.3f}, band-edge dev {bessel_dev:.1e}, {dt:.1f}s")


def test_a11_lattice_transition_formula(crossing_densities):
    t0 = time.perf_counter()
    p = lat.LatticeParams(CROSSING_DELTA, CROSSING_HORIZON)
    ts, by_site = crossing_densities
    crossings = [envelope_crossing_oracle(ts, by_site[n], n, p.gamma) for n in CROSSING_SITES]
    errs = [abs(t / lat.lattice_transition_time(p, n) - 1.0)
            for n, (t, _) in zip(CROSSING_SITES, crossings)]
    dens = [rho for _, rho in crossings]
    dt = time.perf_counter() - t0
    ok = (max(errs) < 0.25 and dens[0] < dens[1] < dens[2] and dt < 120.0)
    assert _verdict("A11", ok, f"derived C_n, errors "
                               f"{'/'.join(f'{e*100:.1f}%' for e in errs)} (tol 25%), densities "
                               f"{dens[0]:.2e} < {dens[1]:.2e} < {dens[2]:.2e}, {dt:.1f}s")


def test_a12_cold_atom_scenario():
    t0 = time.perf_counter()
    from importlib import resources

    path = resources.files("postexp").joinpath("data", "rb87.cfg")
    scenario, distance = units.load_scenario_config(str(path))
    rep = units.scenario_transition_report(scenario, distance)
    t_ms = rep.t_p_physical_s * 1e3
    atoms = rep.atoms_per_pixel_at_transition
    ref = cold_atom_oracle(scenario, distance, rep.t_p)
    # t_p is where the closed-form |pole| = e^{k0I (2t - x)} meets |saddle|
    k0 = complex(1.0, ref.k0I)
    tau = ref.x / (2.0 * k0)
    saddle = (math.sqrt(rep.t_p / math.pi) * abs(tau)
              / (abs(k0) * abs(rep.t_p ** 2 - tau * tau)))
    ratio_dev = abs(math.exp(ref.k0I * (2.0 * rep.t_p - ref.x)) / saddle - 1.0)
    after_crossing = rep.t_p > ref.x / (2.0 * (1.0 + ref.k0I))
    oracle_dev = abs(atoms / ref.count - 1.0)
    time_ok = 5.0 <= t_ms <= 15.0 and ratio_dev <= 1e-6 and after_crossing
    atoms_ok = oracle_dev <= 1e-9 and atoms <= ref.ceiling
    dt = time.perf_counter() - t0
    ok = time_ok and atoms_ok and dt < 10.0
    assert _verdict("A12", ok, f"t_p {t_ms:.2f} ms (band [5,15], |R-1| {ratio_dev:.1e}, "
                               f"after t_c: {after_crossing}), atoms/pixel {atoms:.0f} "
                               f"(contour oracle dev {oracle_dev:.1e}, tol 1e-9; "
                               f"closed-form ceiling {ref.ceiling:.0f}), {dt:.1f}s")


def test_a13_cli_byte_determinism():
    t0 = time.perf_counter()

    def run(args):
        r = subprocess.run([sys.executable, "-m", "postexp.cli"] + args,
                           capture_output=True)
        assert r.returncode == 0, r.stderr.decode()
        return r.stdout

    commands = [
        ["density", "--k0i", "-0.5", "--x", "0.1,0.4,1.5", "--t-grid", "log:0.1:100:400"],
        ["transition", "--k0i", "-0.3", "--x-grid", "log:0.5:13:24"],
        ["critical", "--k0i-grid", "lin:-0.5:-0.4:2"],
        ["lattice", "--delta", "0.3", "--sites", "1,5", "--t-max", "120"],
        ["scenario", "--config", "rb87.cfg"],
        ["selftest"],
    ]
    stable = all(run(cmd) == run(cmd) for cmd in commands)
    dens1 = run(commands[0] + ["--parallelism", "1"])
    dens2 = run(commands[0] + ["--parallelism", "2"])
    rows = len(dens1.splitlines()) - 1
    dt = time.perf_counter() - t0
    ok = stable and dens1 == dens2 and rows == 1200 and dt < 60.0
    assert _verdict("A13", ok, f"repeat runs stable: {stable}, parallelism-invariant: "
                               f"{dens1 == dens2}, density rows {rows}, {dt:.1f}s")
