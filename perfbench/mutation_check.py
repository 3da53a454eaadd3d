"""Show that the output checks catch a deliberately wrong row.

Usage, from the root of a checkout:  python3 perfbench/mutation_check.py

Runs one small invocation of each subcommand, requires the checks in
oracles.py to pass on the real output, then corrupts one value per case and
requires the checks to fail. Exits 0 only if every real output passes and
every corrupted one fails.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402

SRC = os.path.join(os.path.dirname(HERE), "src")


def _scale_cell(row: int, col, factor: float):
    cols = col if isinstance(col, tuple) else (col,)

    def mutate(text: str) -> str:
        lines = text.split("\n")
        cells = lines[row].split(",")
        for c in cols:
            cells[c] = repr(float(cells[c]) * factor)
        lines[row] = ",".join(cells)
        return "\n".join(lines)

    return mutate


def _summary(key: str, value: str):
    def mutate(text: str) -> str:
        return "\n".join(f"# {key} = {value}" if l.startswith(f"# {key} = ") else l
                         for l in text.split("\n"))

    return mutate


def _replace(old: str, new: str):
    return lambda text: text.replace(old, new, 1)


def _scenario_field(key: str, factor: float):
    def mutate(text: str) -> str:
        obj = json.loads(text)
        obj["report"][key] *= factor
        return json.dumps(obj)

    return mutate


# (argv, name of the corruption, corruption)
CASES = [
    (["density", "--k0i", "-0.3", "--x", "0.5,2,6", "--t-grid", "log:0.1:100:50"],
     "rho_exact of row 75 times 1 + 1e-6", _scale_cell(75, 2, 1.0 + 1e-6)),
    (["density", "--k0i", "-0.3", "--x", "0.5,2,6", "--t-grid", "log:0.1:100:50"],
     "R of row 30 times 1.001", _scale_cell(30, 6, 1.001)),
    (["density", "--k0i", "-0.3", "--x", "0.5,2,6", "--t-grid", "log:0.1:100:50"],
     "rho_exact and rho_normalized of row 1 both times 1 + 1e-6",
     _scale_cell(1, (2, 7), 1.0 + 1e-6)),
    (["transition", "--k0i", "-0.3", "--x-grid", "log:0.1:8:40"],
     "t_p of row 20 times 1.001", _scale_cell(20, 1, 1.001)),
    (["critical", "--k0i-grid", "lin:-0.5:-0.3:3"],
     "x_max of row 2 times 1.05", _scale_cell(2, 1, 1.05)),
    (["lattice", "--delta", "0.3", "--sites", "1,5,10", "--t-max", "120"],
     "density of row 200 times 1.001", _scale_cell(200, 2, 1.001)),
    (["lattice", "--delta", "0.3", "--sites", "1,5,10", "--t-max", "120"],
     "tail_exponent set to -2.5", _summary("tail_exponent", "-2.5")),
    (["scenario", "--config", "rb87.cfg", "--distance", "1e-4"],
     "t_p times 1.001", _scenario_field("t_p", 1.001)),
    (["scenario", "--config", "rb87.cfg", "--distance", "1e-4"],
     "an extra report field", lambda t: t.replace('"L_m"', '"extra": 1, "L_m"', 1)),
    (["selftest"], "one check reported as failed", _replace(": PASS", ": FAIL")),
]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=SRC)
    outputs = {}
    ok = True
    for argv, name, mutate in CASES:
        key = tuple(argv)
        if key not in outputs:
            r = subprocess.run([sys.executable, "-m", "postexp.cli", *argv],
                               capture_output=True, text=True, env=env, check=False)
            outputs[key] = r.stdout
            probs = oracles.check(argv, r.returncode, r.stdout, SRC, random.Random(0))
            print(f"{'PASS' if not probs else 'FAIL'}  real output of {' '.join(argv)}")
            ok &= not probs
        bad = mutate(outputs[key])
        assert bad != outputs[key], name
        probs = oracles.check(argv, 0, bad, SRC, random.Random(0))
        print(f"{'CAUGHT' if probs else 'MISSED'}  {argv[0]}: {name}: {probs[:1]}")
        ok &= bool(probs)
    print("all corruptions caught" if ok else "mutation check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
