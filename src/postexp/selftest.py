"""`postexp selftest`: four invariant checks on the standard library alone.

Each check returns its worst deviation and raises AssertionError when it
reaches its bound:

- boundary-identity: psi(0, t) = e^{-i omega0 t} at 50 geometric t in
  [0.01, 100] for k0I -0.3 and -0.5, on the scalar kernel (bound 1e-10);
- faddeeva-identities: w(0) = 1, the large-argument series and the
  analytic derivative against a central difference (1e-4);
- continuity-residual: d rho/dt + dJ/dx = 0 by central differences at
  three points (1e-3);
- lattice-norm: the site-1 weights of the delta 0.3 chain of the horizon
  30, that of LatticeParams(0.3, 30.0), sum to 1, and with the energies
  they give the moments <1|H^m|1> for m = 1..4 (1e-10).

The chain check solves the closed-form spectrum with the solver that
postexp.lattice runs, specfun.chain_levels, called with one float bracket
per level, so it needs no arrays. On the 100-site chain that takes about
2 ms, where importing numpy takes tens.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Tuple

from . import source_model, specfun

CHAIN_DELTA = 0.3
CHAIN_SITES = 100                 # LatticeParams(0.3, 30.0).n_sites


def _check_boundary() -> float:
    ts = [10.0 ** (4.0 * i / 49.0 - 2.0) for i in range(50)]   # numpy.geomspace(0.01, 100, 50)
    worst = max(abs(source_model.kernel(p, 0.0, t).psi - cmath.exp(-1j * p.omega0 * t))
                for p in map(source_model.SourceParams, (-0.3, -0.5)) for t in ts)
    if worst >= 1e-10:
        raise AssertionError(f"boundary deviation {worst:.3e} >= 1e-10")
    return worst


def _check_faddeeva() -> float:
    dev = abs(specfun.faddeeva(0.0 + 0.0j) - 1.0)
    worst = dev
    for z in (8.0 + 1.0j, -6.0 + 5.0j, 5.0 - 0.5j):
        a = specfun.faddeeva(z)
        b = specfun.faddeeva_asymptotic(z, 6)
        worst = max(worst, abs(a - b) / abs(a))
    z = 0.4 + 0.3j
    h = 1e-6
    fd = (specfun.faddeeva(z + h) - specfun.faddeeva(z - h)) / (2.0 * h)
    worst = max(worst, abs(specfun.faddeeva_derivative(z) - fd) / abs(fd))
    if worst >= 1e-4:
        raise AssertionError(f"worst faddeeva identity deviation {worst:.3e} >= 1e-4")
    return worst


def _check_continuity() -> float:
    p = source_model.SourceParams(-0.3)
    h = 1e-4
    worst = 0.0

    def rho_j(x, t):
        """rho = |psi|^2 and J = 2 Im(psi* d psi/dx)."""
        w = source_model.kernel(p, x, t, derivative=True)
        return abs(w.psi) ** 2, 2.0 * (w.psi.conjugate() * w.dpsi_dx).imag

    for x, t in ((0.7, 3.0), (2.0, 8.0), (4.0, 15.0)):
        drho_dt = (rho_j(x, t + h)[0] - rho_j(x, t - h)[0]) / (2.0 * h)
        dj_dx = (rho_j(x + h, t)[1] - rho_j(x - h, t)[1]) / (2.0 * h)
        scale = max(abs(drho_dt), abs(dj_dx), 1e-30)
        worst = max(worst, abs(drho_dt + dj_dx) / scale)
    if worst >= 1e-3:
        raise AssertionError(f"continuity residual {worst:.3e} >= 1e-3")
    return worst


def _check_lattice_norm() -> float:
    """sum_k w_k = 1 and the site-1 sum rules sum_k w_k E_k^m = <1|H^m|1>:
    0, delta^2, 0, delta^2 (1 + delta^2) for m = 1..4."""
    levels = [specfun.chain_levels(CHAIN_DELTA, CHAIN_SITES, j * (math.pi / CHAIN_SITES))
              for j in range(CHAIN_SITES)]
    d2 = CHAIN_DELTA * CHAIN_DELTA
    want = (1.0, 0.0, d2, 0.0, d2 * (1.0 + d2))
    worst = max(abs(math.fsum(a * a * e ** m for e, _, a, _ in levels) - moment)
                for m, moment in enumerate(want))
    if worst >= 1e-10:
        raise AssertionError(f"lattice sum-rule deviation {worst:.3e} >= 1e-10")
    return worst


CHECKS: Tuple[Tuple[str, Callable[[], float]], ...] = (
    ("boundary-identity", _check_boundary),
    ("faddeeva-identities", _check_faddeeva),
    ("continuity-residual", _check_continuity),
    ("lattice-norm", _check_lattice_norm),
)


def run() -> int:
    """Print one `SELFTEST <name>: PASS` or `: FAIL (<reason>)` line per
    check; 0 iff every check passes, else 1."""
    failed = False
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as err:
            print(f"SELFTEST {name}: FAIL ({err})")
            failed = True
            continue
        print(f"SELFTEST {name}: PASS")
    return 1 if failed else 0
