"""Seeded argv lists for the three benchmark workloads.

The seed picks decay rates, grid endpoints, detector distances and site
lists inside fixed ranges; it never changes a grid size, so every seed
asks the program for the same amount of work.
"""

from __future__ import annotations

import random
from typing import List

WORKLOADS = ("scan", "continuum", "lattice")

SCAN_K = 3   # k0I values per scan run


def _num(v: float) -> str:
    return f"{v:.6g}"


def _scan(rng: random.Random) -> List[List[str]]:
    runs = [["selftest"]]
    for _ in range(SCAN_K):
        k0i = _num(rng.uniform(-0.7, -0.05))
        x_lo, x_hi = rng.uniform(0.05, 0.5), rng.uniform(5.0, 20.0)
        runs.append(["transition", "--k0i", k0i,
                     "--x-grid", f"log:{_num(x_lo)}:{_num(x_hi)}:40"])
        # three x values, one from each third of [0.1, 10], so they never tie
        xs = [rng.uniform(lo, lo + 3.3) for lo in (0.1, 3.4, 6.7)]
        t_lo, t_hi = rng.uniform(0.05, 0.5), rng.uniform(50.0, 200.0)
        runs.append(["density", "--k0i", k0i, "--x", ",".join(_num(x) for x in xs),
                     "--t-grid", f"log:{_num(t_lo)}:{_num(t_hi)}:100"])
    for _ in range(2):
        runs.append(["scenario", "--config", "rb87.cfg",
                     "--distance", _num(rng.uniform(30e-6, 100e-6))])
    return runs


def _continuum(rng: random.Random) -> List[List[str]]:
    k0i = _num(rng.uniform(-0.6, -0.1))
    x_lo, x_hi = rng.uniform(0.05, 0.2), rng.uniform(15.0, 30.0)
    t_lo, t_hi = rng.uniform(0.005, 0.02), rng.uniform(100.0, 300.0)
    tx_lo, tx_hi = rng.uniform(0.005, 0.02), rng.uniform(20.0, 40.0)
    c_lo, c_hi = rng.uniform(-0.9, -0.85), rng.uniform(-0.025, -0.02)
    return [
        ["density", "--k0i", k0i, "--x", f"log:{_num(x_lo)}:{_num(x_hi)}:40",
         "--t-grid", f"log:{_num(t_lo)}:{_num(t_hi)}:2000"],
        ["transition", "--k0i", k0i, "--x-grid", f"log:{_num(tx_lo)}:{_num(tx_hi)}:2000"],
        ["critical", "--k0i-grid", f"log:{_num(c_lo)}:{_num(c_hi)}:35"],
    ]


def _sites(rng: random.Random) -> str:
    return ",".join(str(n) for n in (1, rng.randint(3, 7), rng.randint(8, 12), rng.randint(15, 25)))


def _lattice(rng: random.Random) -> List[List[str]]:
    return [
        ["lattice", "--delta", "0.3", "--sites", _sites(rng), "--t-max", "600"],
        ["lattice", "--delta", "0.6", "--sites", _sites(rng), "--t-max", "300"],
    ]


def argv_lists(workload: str, seed: int) -> List[List[str]]:
    """CLI argument lists (after `python -m postexp.cli`) for one workload."""
    build = {"scan": _scan, "continuum": _continuum, "lattice": _lattice}[workload]
    return build(random.Random(f"{workload}:{seed}"))
