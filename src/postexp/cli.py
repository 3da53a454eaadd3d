"""Command-line front end: grid sweeps and reports as CSV or JSON.

Grid options (--x, --t-grid, --x-grid, --k0i-grid) take `lin:a:b:n`,
`log:a:b:n`, or a comma list like `0.1,0.4,1.5`. Grids are computed and
written in blocks of BLOCK_ROWS rows, and a lin:/log: count above
MAX_GRID_POINTS is refused, so memory stays bounded for any grid.
A table of two or more blocks is rendered by up to --parallelism
processes (never more than the usable CPUs or the blocks): forked
workers render their share of the blocks and this process writes every
block in order. Output is deterministic: identical invocations produce
byte-identical files, whatever --parallelism is.

Each subcommand imports only the modules it uses, and `json` only when it
writes JSON. `scenario`, `transition` and `critical` compute one point at a
time in pure Python and load no numpy; so does `density` on grids of at
most SCALAR_POINTS points, below which numpy's import costs more than the
grid. Larger `density` grids, `lattice` and `selftest` work on arrays and
import it.
The process runs numpy's BLAS on one thread unless OPENBLAS_NUM_THREADS is
already set: the computations are single-threaded, and an idle BLAS
worker only spins.

Exit codes, by the class of the error: 0 success; 2 usage error or invalid
input (postexp.UsageError, such as bad flags, grids, config values or
unrepresentable scenarios, and ValueError); 1 computation failure
(postexp.ComputationError, such as the evaluation domain or the envelope
window, and OSError). Each writes one `error:` line to stderr. A reader that
closes stdout early (`| head`) also exits 1, with no error line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import math
import os
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

# before any numpy import; a value the user set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import ComputationError, UsageError, __version__

SCHEMA_VERSION = "1"
LATTICE_SUMMARY_HORIZON = 220.0   # envelope fits need this much time to converge
BLOCK_ROWS = 8192                 # table rows computed and written at a time
SCALAR_POINTS = 4096              # density grids up to this size skip numpy
MAX_GRID_POINTS = 1_000_000       # lin:/log: counts above this are refused


# ---------------------------------------------------------------- plumbing

def _linspace(a: float, b: float, n: int) -> List[float]:
    """n >= 2 points i step + a, the last set to b: numpy.linspace's rounding."""
    step = (b - a) / (n - 1)
    return [i * step + a for i in range(n - 1)] + [b]


def parse_grid(text: str, name: str) -> List[float]:
    if text.startswith(("lin:", "log:")):
        kind, *rest = text.split(":")
        if len(rest) != 3:
            raise UsageError(f"{name}: expected {kind}:start:stop:count, got {text!r}")
        try:
            a, b, n = float(rest[0]), float(rest[1]), int(rest[2])
        except ValueError:
            raise UsageError(f"{name}: non-numeric grid spec {text!r}") from None
        if not 1 <= n <= MAX_GRID_POINTS:
            raise UsageError(f"{name}: grid count must lie in [1, {MAX_GRID_POINTS}], got {n}")
        if n == 1:
            vals = [a]
        elif kind == "lin":
            vals = _linspace(a, b, n)
        else:
            if a == 0.0 or b == 0.0 or (a < 0.0) != (b < 0.0):
                raise UsageError(f"{name}: log grid endpoints must be nonzero and same-signed")
            # 10^(evenly spaced log10 |v|) with both ends exact, as numpy.geomspace
            sign = -1.0 if a < 0.0 else 1.0
            exps = _linspace(math.log10(abs(a)), math.log10(abs(b)), n)
            vals = [a] + [sign * 10.0 ** e for e in exps[1:-1]] + [b]
    else:
        items = [s for s in text.split(",") if s.strip()]
        try:
            vals = [float(s) for s in items]
        except ValueError:
            raise UsageError(f"{name}: bad numeric list {text!r}") from None
    if not vals:
        raise UsageError(f"{name}: empty grid")
    if not all(math.isfinite(v) for v in vals):
        raise UsageError(f"{name}: grid values must be finite")
    if any(hi <= lo for lo, hi in zip(vals, vals[1:])):
        raise UsageError(f"{name}: grid must be strictly increasing")
    return vals


def check_k0i(value: float) -> float:
    if not (-1.0 < value < 0.0):
        raise UsageError(f"k0I must lie in (-1, 0); got {value!r}")
    return value


def _json_safe(v):
    if isinstance(v, (bool, int)):
        return v
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    return v


def _output(out: Optional[str]):
    """The --out file, or stdout (left open) when no path is given."""
    if out:
        return open(out, "w", encoding="utf-8", newline="")
    return contextlib.nullcontext(sys.stdout)


def _fmt_column(col, as_json: bool = False) -> List[str]:
    """Cells for one column, a numpy array or a sequence of Python values of
    one type. CSV: bools as 1/0, floats by repr (nan, inf, -inf), others by
    str. JSON: bools as true/false, floats by repr with non-finite ones null,
    others as json.dumps writes them."""
    values = col.tolist() if hasattr(col, "tolist") else list(col)
    kind = type(values[0]) if values else str
    if kind is bool:
        yes, no = ("true", "false") if as_json else ("1", "0")
        return [yes if v else no for v in values]
    if not as_json:
        return list(map(repr if kind is float else str, values))
    if kind is float:
        return [repr(v) if math.isfinite(v) else "null" for v in values]
    import json

    return [json.dumps(_json_safe(v)) for v in values]


# the JSON document's rows while its head and tail are dumped; argv holds no NUL
_ROWS_MARK = "\0rows"


class _Indexed(NamedTuple):
    """A column drawn from a short table of finite floats (a parse_grid grid),
    cells[index] (numpy arrays): its cells are formatted once per table entry
    instead of once per row, and serve both formats."""

    cells: Any      # object array of _fmt_column(grid)
    index: Any


def _cells(col, as_json: bool = False) -> List[str]:
    if isinstance(col, _Indexed):
        return col.cells[col.index].tolist()
    return _fmt_column(col, as_json)


def _csv_block(block) -> str:
    return "".join(",".join(row) + "\n" for row in zip(*(_cells(c) for c in block)))


def _json_block(block) -> str:
    """The block's rows as json.dumps(document, indent=2) writes them, without
    the separator before them."""
    rows = zip(*(_cells(c, True) for c in block))
    return ",\n".join("    [\n      " + ",\n      ".join(row) + "\n    ]" for row in rows)


def _thunks(block: Callable[[int, int], Sequence[object]], size: int) -> List[Callable]:
    """block(lo, hi) for each slice of at most BLOCK_ROWS of size rows, as thunks."""
    return [functools.partial(block, lo, min(lo + BLOCK_ROWS, size))
            for lo in range(0, size, BLOCK_ROWS)]


def emit_table(
    args,
    command: str,
    params: Dict[str, object],
    columns: Sequence[str],
    blocks: Sequence[Callable[[], Sequence[object]]],
    summary: Optional[Dict[str, object]] = None,
) -> None:
    """Write a table given as block thunks, each returning a sequence of
    equal-length columns.

    Both formats write each block as it is rendered, in order; a table of
    two or more blocks is rendered by up to --parallelism processes
    (postexp.parallel). Both render the rows from the same cells
    (_fmt_column), and the JSON bytes are json.dumps(document, indent=2,
    sort_keys=True) + "\n": the document is dumped with _ROWS_MARK for its
    rows and written around them.
    """
    if args.format == "csv":
        render, head, sep = _csv_block, ",".join(columns) + "\n", ""
        tail = "".join(f"# {k} = {_fmt_column([v])[0]}\n" for k, v in (summary or {}).items())
    else:
        import json

        obj = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "params": _json_safe(params),
            "columns": list(columns),
            "rows": _ROWS_MARK,
        }
        if summary:
            obj["summary"] = _json_safe(summary)
        render, sep = _json_block, "[\n"
        head, _, tail = json.dumps(obj, indent=2, sort_keys=True).partition(json.dumps(_ROWS_MARK))
    if args.parallelism > 1 and len(blocks) > 1:
        from . import parallel

        texts = parallel.rendered(blocks, render, args.parallelism)
    else:
        texts = (render(block()) for block in blocks)
    with _output(args.out) as fh, contextlib.closing(texts):
        fh.write(head)
        for text in texts:
            if not text:
                continue
            if args.format == "json":
                fh.write(sep)
                sep = ",\n"
            fh.write(text)
        if args.format == "json":
            tail = ("[]" if sep == "[\n" else "\n  ]") + tail + "\n"
        fh.write(tail)


# --------------------------------------------------------------- commands

def cmd_density(args) -> int:
    from . import source_model

    k0I = check_k0i(args.k0i)
    xs = parse_grid(args.x, "--x")
    ts = parse_grid(args.t_grid, "--t-grid")
    if xs[0] < 0.0:
        raise UsageError("--x: positions must be >= 0")
    if ts[0] <= 0.0:
        raise UsageError("--t-grid: times must be > 0")
    p = source_model.SourceParams(k0I)
    # up to SCALAR_POINTS, one point at a time costs less than importing numpy
    if len(xs) * len(ts) <= SCALAR_POINTS:
        blocks = [functools.partial(_density_points, p, xs, ts)]
    else:
        blocks = _density_arrays(p, xs, ts)
    emit_table(
        args,
        "density",
        {"k0i": k0I, "x": args.x, "t_grid": args.t_grid},
        ["x", "t", "rho_exact", "rho_saddle", "rho_pole", "pole_crossed", "R", "rho_normalized"],
        blocks,
    )
    return 0


def _density_points(p, xs: List[float], ts: List[float]):
    """The density table as one block of Python columns, one kernel call per
    point, x-major; the whole grid is computed before it is written, so an
    error leaves only the header written, as in _density_arrays."""
    from .source_model import kernel

    n_total = p.n_total
    rows = []
    for x in xs:
        for t in ts:
            w = kernel(p, x, t)
            mod, saddle, pole = abs(w.psi), abs(w.saddle), abs(w.pole)
            # R = |pole|/|saddle| as IEEE division gives it; nan at x = 0
            if x == 0.0:
                ratio = math.nan
            elif saddle == 0.0:
                ratio = math.inf if pole > 0.0 else math.nan
            else:
                ratio = pole / saddle
            rho = mod * mod
            rows.append((x, t, rho, saddle * saddle, pole * pole, w.pole_crossed, ratio,
                         rho / n_total))
    return tuple(zip(*rows))


def _density_arrays(p, xs: List[float], ts: List[float]):
    """The density table as thunks of numpy blocks of BLOCK_ROWS rows."""
    import numpy as np

    from .source_model import kernel

    xs, ts = np.array(xs), np.array(ts)
    n_total = p.n_total
    x_cells, t_cells = (np.array(_fmt_column(g), dtype=object) for g in (xs, ts))

    def block(lo, hi):
        # rows run x-major over the flattened (x, t) grid
        ix, it = np.divmod(np.arange(lo, hi), ts.size)
        x, t = xs[ix], ts[it]
        w = kernel(p, x, t)
        rho, saddle, pole = np.abs(w.psi) ** 2, np.abs(w.saddle), np.abs(w.pole)
        # R = |pole|/|saddle|; nan at x = 0, inf where the saddle underflows to 0;
        # a square past double range is IEEE inf, as on the scalar path
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ratio = np.divide(pole, saddle, out=np.full(x.shape, math.nan), where=x > 0.0)
            rho_saddle, rho_pole = saddle ** 2, pole ** 2
        return (_Indexed(x_cells, ix), _Indexed(t_cells, it),
                rho, rho_saddle, rho_pole, w.pole_crossed, ratio, rho / n_total)

    return _thunks(block, xs.size * ts.size)


def cmd_transition(args) -> int:
    from . import source_model, transition

    k0I = check_k0i(args.k0i)
    xs = parse_grid(args.x_grid, "--x-grid")
    if xs[0] <= 0.0:
        raise UsageError("--x-grid: positions must be > 0")
    p = source_model.SourceParams(k0I)

    def block(lo, hi):
        pts = transition.transition_times(p, xs[lo:hi], args.method)
        return tuple(zip(*((q.x, q.t_p, q.density_raw, q.density_normalized, q.valid, q.method)
                           for q in pts)))

    emit_table(
        args,
        "transition",
        {"k0i": k0I, "x_grid": args.x_grid, "method": args.method},
        ["x", "t_p", "rho_at_tp_raw", "rho_at_tp_normalized", "valid", "method"],
        _thunks(block, len(xs)),
    )
    return 0


def cmd_critical(args) -> int:
    from . import source_model, transition

    ks = parse_grid(args.k0i_grid, "--k0i-grid")
    for k in ks:
        check_k0i(k)
    params = [source_model.SourceParams(k) for k in ks]
    emit_table(
        args,
        "critical",
        {"k0i_grid": args.k0i_grid},
        ["k0I", "x_max", "t_p", "rho_exact_normalized", "rho_approx_normalized", "valid"],
        _thunks(lambda lo, hi: tuple(zip(*transition.critical_density_curve(params[lo:hi]))),
                len(params)),
    )
    return 0


def cmd_lattice(args) -> int:
    from . import lattice as lat

    if not (0.0 < args.delta <= 1.0):
        raise UsageError(f"--delta must be in (0, 1]; got {args.delta!r}")
    try:
        sites = [int(s) for s in args.sites.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"--sites: bad integer list {args.sites!r}") from None
    if not sites or any(n < 1 for n in sites):
        raise UsageError("--sites: need site indices >= 1")
    if not (0.0 < args.t_max < math.inf):
        raise UsageError("--t-max must be positive and finite")
    p = (lat.LatticeParams.for_horizon(args.delta, args.t_max) if args.n_sites is None
         else lat.LatticeParams(delta=args.delta, n_sites=args.n_sites, t_max=args.t_max))
    if max(sites) > p.n_sites:
        raise UsageError(f"--sites: site {max(sites)} exceeds n_sites={p.n_sites}")

    if args.t_grid:
        ts = parse_grid(args.t_grid, "--t-grid")
        if ts[0] < 0.0 or ts[-1] > p.t_max:
            raise UsageError("--t-grid: times must lie within [0, t_max]")

        def density(n, lo, hi):
            return lat.site_density(p, n, ts[lo:hi])
    else:
        ts = _linspace(0.0, p.t_max, 801)

        def density(n, lo, hi):
            # the two-level split depends on the count: always all 801 times
            return lat.uniform_site_density(p, n, 0.0, p.t_max / 800, 801)[lo:hi]

    def block(lo, hi):
        # rows run site-major: row r is site r // len(ts) at time r % len(ts)
        t_col, n_col, rho = [], [], []
        for i in range(lo // len(ts), (hi - 1) // len(ts) + 1):
            a, b = max(lo - i * len(ts), 0), min(hi - i * len(ts), len(ts))
            t_col += ts[a:b]
            n_col += [sites[i]] * (b - a)
            rho += density(sites[i], a, b).tolist()
        return t_col, n_col, rho

    summary = _lattice_summary(args.delta, sites, args.t_max)
    emit_table(
        args,
        "lattice",
        {"delta": args.delta, "sites": args.sites, "t_max": args.t_max, "n_sites": p.n_sites},
        ["t", "n", "density"],
        _thunks(block, len(sites) * len(ts)),
        summary=summary,
    )
    return 0


def _lattice_summary(delta: float, sites: List[int], t_max: float) -> Dict[str, object]:
    """Rate/tail/transition metadata, computed on a long-enough horizon.

    The user's t_max may be too short for stable envelope fits, so the
    summary evolves its own chain out to at least LATTICE_SUMMARY_HORIZON.
    """
    from . import lattice as lat

    t_res = max(t_max, LATTICE_SUMMARY_HORIZON)
    p_res = lat.LatticeParams.for_horizon(delta, t_res)
    summary: Dict[str, object] = {"delta": delta}
    if delta < 1.0:
        summary["gamma_formula"] = p_res.gamma
        try:
            summary["fitted_gamma"] = lat.fitted_decay_rate(p_res, n=1)
        except lat.InsufficientWindowError:
            summary["fitted_gamma"] = math.nan   # from delta ~0.81: no window before 12/gamma
    else:
        summary["gamma_formula"] = math.nan
        summary["fitted_gamma"] = math.nan
    # Largest requested site: its exponential segment ends earliest, so the
    # late-window power fit is least contaminated by the crossover.
    tail_site = max(sites)
    try:
        summary["tail_exponent"] = lat.tail_exponent(
            p_res, tail_site, window=(0.55 * t_res, 0.95 * t_res)
        )
    except lat.InsufficientWindowError:
        summary["tail_exponent"] = math.nan
    summary["tail_exponent_site"] = tail_site

    # the formula's prefactor is derived (lattice.formula_prefactor), with
    # 2 alpha^{n+1} in its numerator; there is no resonance at delta = 1
    summary["resolved_reading"] = "alpha_in_numerator" if delta < 1.0 else "n/a"
    for n in sites:
        t_n = lat.lattice_transition_time(p_res, n) if delta < 1.0 and n >= 2 else None
        summary[f"transition_time_site_{n}"] = math.nan if t_n is None else t_n
    return summary


def cmd_scenario(args) -> int:
    from . import units

    path = _resolve_config(args.config)
    scenario, config_distance = units.load_scenario_config(path)
    distance = args.distance if args.distance is not None else config_distance
    if distance is None:
        raise UsageError("config has no detector_distance_m; pass --distance")
    if distance <= 0.0:
        raise UsageError("--distance must be positive")
    report = units.scenario_transition_report(scenario, distance)
    import json

    obj = {
        "schema_version": SCHEMA_VERSION,
        "command": "scenario",
        "params": {"config": args.config, "distance_m": distance},
        "report": _json_safe(report.to_dict()),
    }
    with _output(args.out) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return 0


def _resolve_config(name: str) -> str:
    if os.path.exists(name):
        return name
    from importlib import resources

    bundled = resources.files("postexp").joinpath("data", name)
    if bundled.is_file():
        return str(bundled)
    raise UsageError(f"config file {name!r} not found (not a path, not bundled)")


# --------------------------------------------------------------- selftest

def _check_boundary() -> float:
    import numpy as np

    from . import source_model

    ts = np.geomspace(0.01, 100.0, 50)
    devs = (source_model.kernel(p, 0.0, ts).psi - np.exp(-1j * p.omega0 * ts)
            for p in map(source_model.SourceParams, (-0.3, -0.5)))
    worst = max(float(np.abs(d).max()) for d in devs)
    if worst >= 1e-10:
        raise AssertionError(f"boundary deviation {worst:.3e} >= 1e-10")
    return worst


def _check_faddeeva() -> float:
    from . import specfun

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
    from . import source_model

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
    import numpy as np

    from . import lattice as lat

    amps = lat.evolve(lat.LatticeParams.for_horizon(0.3, 30.0), [0.0, 10.0, 30.0])
    worst = float(np.max(np.abs(np.sum(np.abs(amps) ** 2, axis=1) - 1.0)))
    if worst >= 1e-10:
        raise AssertionError(f"lattice norm deviation {worst:.3e} >= 1e-10")
    return worst


SELFTEST_CHECKS = (
    ("boundary-identity", _check_boundary),
    ("faddeeva-identities", _check_faddeeva),
    ("continuity-residual", _check_continuity),
    ("lattice-norm", _check_lattice_norm),
)


def cmd_selftest(args) -> int:
    failed = False
    for name, fn in SELFTEST_CHECKS:
        try:
            fn()
        except Exception as err:
            print(f"SELFTEST {name}: FAIL ({err})")
            failed = True
            continue
        print(f"SELFTEST {name}: PASS")
    return 1 if failed else 0


# ------------------------------------------------------------------ main

def _add_common(sp) -> None:
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument(
        "--parallelism",
        type=int,
        default=os.cpu_count() or 1,
        help="most processes that render a table of several blocks, further capped "
             "by the usable CPUs; 1 means one process (default: the CPU count)",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="postexp",
        description="Exponential-to-algebraic decay of an exponentially decaying source.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    d = sub.add_parser("density", help="density components on an (x, t) grid")
    d.add_argument("--k0i", type=float, required=True)
    d.add_argument("--x", required=True, help="positions: comma list or lin:/log: grid")
    d.add_argument("--t-grid", dest="t_grid", required=True)
    _add_common(d)

    tr = sub.add_parser("transition", help="transition time t_p over an x grid")
    tr.add_argument("--k0i", type=float, required=True)
    tr.add_argument("--x-grid", dest="x_grid", required=True)
    tr.add_argument("--method", choices=("exact_ratio", "late_time"), default="exact_ratio")
    _add_common(tr)

    cr = sub.add_parser("critical", help="largest transition distance over a k0I grid")
    cr.add_argument("--k0i-grid", dest="k0i_grid", required=True)
    _add_common(cr)

    la = sub.add_parser("lattice", help="tight-binding chain densities and fits")
    la.add_argument("--delta", type=float, required=True)
    la.add_argument("--sites", required=True, help="comma list of site indices")
    la.add_argument("--t-max", dest="t_max", type=float, required=True)
    la.add_argument("--n-sites", dest="n_sites", type=int, default=None)
    la.add_argument("--t-grid", dest="t_grid", default=None)
    _add_common(la)

    sc = sub.add_parser("scenario", help="physical-units transition report (JSON)")
    sc.add_argument("--config", required=True, help="scenario config path or bundled name")
    sc.add_argument("--distance", type=float, default=None, help="detector distance in meters")
    sc.add_argument("--out", default=None)
    _add_common_noop(sc)

    sub.add_parser("selftest", help="fast invariant checks, exit 0 iff all pass")
    return ap


def _add_common_noop(sp) -> None:
    # scenario emits a single JSON report; these exist for interface symmetry
    sp.add_argument("--format", choices=("json",), default="json")
    sp.add_argument("--parallelism", type=int, default=1)


TABLES = ("density", "transition", "critical", "lattice")   # the emit_table commands
DISPATCH = {
    "density": cmd_density,
    "transition": cmd_transition,
    "critical": cmd_critical,
    "lattice": cmd_lattice,
    "scenario": cmd_scenario,
    "selftest": cmd_selftest,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command in TABLES and args.parallelism < 1:
            raise UsageError(f"--parallelism must be >= 1; got {args.parallelism}")
        code = DISPATCH[args.command](args)
        sys.stdout.flush()   # a closed reader shows here, not at exit
        return code
    except (UsageError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early, which is normal for a filter: as
        # Python's SIGPIPE note says, stdout goes to devnull, so the flush at
        # exit does not fail again, and the exit code is 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ComputationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def run() -> None:
    """The process entry (`postexp`, `python -m postexp.cli`): exit with
    main()'s code. gc.freeze() moves every live object to the permanent
    generation first, so the interpreter's final collections skip all that
    the imports made."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
