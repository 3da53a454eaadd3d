"""Command-line front end: grid sweeps and reports as CSV or JSON.

Grid options (--x, --t-grid, --x-grid, --k0i-grid) take `lin:a:b:n`,
`log:a:b:n`, or a comma list like `0.1,0.4,1.5`. Grids are computed and
written in blocks of BLOCK_ROWS rows, and a lin:/log: count above
MAX_GRID_POINTS is refused, so memory stays bounded for any grid.
A table of two or more blocks is rendered by up to --parallelism
processes (never more than the usable CPUs or the blocks): forked
workers render their share of the blocks, this process renders any block
a worker did not send, and it writes every block in order. Output is
deterministic: identical invocations produce byte-identical files,
whatever --parallelism is.

Each subcommand imports only the modules it uses, and `json` only when it
writes JSON. `scenario`, `transition` and `critical` compute one point at a
time in pure Python and load no numpy; so does `density` on grids of at
most SCALAR_POINTS points, below which numpy's import costs more than the
grid, and so does `selftest` (postexp.selftest). Larger `density` grids and
`lattice` work on arrays and import it.
The process runs numpy's BLAS on one thread unless OPENBLAS_NUM_THREADS is
already set: the computations are single-threaded, and an idle BLAS
worker only spins.

Exit codes, by the class of the error: 0 success; 2 usage error or invalid
input (postexp.UsageError, such as bad flags, grids, config values or
unrepresentable scenarios, and ValueError); 1 computation failure
(postexp.ComputationError, such as the evaluation domain or a chain whose
modes lose precision, and OSError). Each writes one `error:` line to
stderr. A reader that closes stdout early (`| head`) also exits 1, with no
error line. The process entry run() runs the atexit callbacks, then ends
by os._exit, without the rest of interpreter teardown.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import functools
import math
import os
import re
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

# before any numpy import; a value the user set wins
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import ComputationError, UsageError, __version__

SCHEMA_VERSION = "1"
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


def _json_safe(d: Dict[str, object]) -> Dict[str, object]:
    """The flat dict d with its non-finite floats as None, which JSON writes null."""
    return {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in d.items()}


def _document(command: str, params: Dict[str, object], **body) -> str:
    """The JSON document of a command, its envelope and body, as
    json.dumps(document, indent=2, sort_keys=True) writes it."""
    import json

    return json.dumps({"schema_version": SCHEMA_VERSION, "command": command,
                       "params": _json_safe(params), **body}, indent=2, sort_keys=True)


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

    return [json.dumps(v) for v in values]


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

        body = {"summary": _json_safe(summary)} if summary else {}
        doc = _document(command, params, columns=list(columns), rows=_ROWS_MARK, **body)
        render, sep = _json_block, "[\n"
        head, _, tail = doc.partition(json.dumps(_ROWS_MARK))
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

    p = source_model.SourceParams(args.k0i)
    xs = parse_grid(args.x, "--x")
    ts = parse_grid(args.t_grid, "--t-grid")
    if xs[0] < 0.0:
        raise UsageError("--x: positions must be >= 0")
    if ts[0] <= 0.0:
        raise UsageError("--t-grid: times must be > 0")
    # up to SCALAR_POINTS, one point at a time costs less than importing numpy
    if len(xs) * len(ts) <= SCALAR_POINTS:
        blocks = [functools.partial(_density_points, p, xs, ts)]
    else:
        blocks = _density_arrays(p, xs, ts)
    emit_table(
        args,
        "density",
        {"k0i": p.k0I, "x": args.x, "t_grid": args.t_grid},
        ["x", "t", "rho_exact", "rho_saddle", "rho_pole", "pole_crossed", "R", "rho_normalized"],
        blocks,
    )
    return 0


def _density_points(p, xs: List[float], ts: List[float]):
    """The density table as one block of Python columns, one call per point,
    x-major; the whole grid is computed before it is written, so an error
    leaves only the header written, as in _density_arrays."""
    from .source_model import density_cells

    return tuple(zip(*((x, t, *density_cells(p, x, t)) for x in xs for t in ts)))


def _density_arrays(p, xs: List[float], ts: List[float]):
    """The density table as thunks of numpy blocks of BLOCK_ROWS rows."""
    import numpy as np

    from .source_model import density_cells

    xs, ts = np.array(xs), np.array(ts)
    x_cells, t_cells = (np.array(_fmt_column(g), dtype=object) for g in (xs, ts))

    def block(lo, hi):
        # rows run x-major over the flattened (x, t) grid
        ix, it = np.divmod(np.arange(lo, hi), ts.size)
        return (_Indexed(x_cells, ix), _Indexed(t_cells, it), *density_cells(p, xs[ix], ts[it]))

    return _thunks(block, xs.size * ts.size)


def cmd_transition(args) -> int:
    from . import source_model, transition

    p = source_model.SourceParams(args.k0i)
    xs = parse_grid(args.x_grid, "--x-grid")
    if xs[0] <= 0.0:
        raise UsageError("--x-grid: positions must be > 0")

    def block(lo, hi):
        pts = transition.transition_times(p, xs[lo:hi], args.method)
        return tuple(zip(*((q.x, q.t_p, q.density_raw, q.density_normalized, q.valid, q.method)
                           for q in pts)))

    emit_table(
        args,
        "transition",
        {"k0i": p.k0I, "x_grid": args.x_grid, "method": args.method},
        ["x", "t_p", "rho_at_tp_raw", "rho_at_tp_normalized", "valid", "method"],
        _thunks(block, len(xs)),
    )
    return 0


def cmd_critical(args) -> int:
    from . import source_model, transition

    params = [source_model.SourceParams(k) for k in parse_grid(args.k0i_grid, "--k0i-grid")]
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

    try:
        sites = [int(s) for s in args.sites.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"--sites: bad integer list {args.sites!r}") from None
    if not sites or any(n < 1 for n in sites):
        raise UsageError("--sites: need site indices >= 1")
    p = lat.LatticeParams(args.delta, args.t_max)
    if max(sites) > p.n_sites:
        raise UsageError(f"--sites: site {max(sites)} exceeds n_sites={p.n_sites}")

    if args.t_grid:
        ts = parse_grid(args.t_grid, "--t-grid")
        if ts[0] < 0.0 or ts[-1] > p.t_max:
            raise UsageError("--t-grid: times must lie within [0, t_max]")
    else:
        ts = _linspace(0.0, p.t_max, 801)

    def density(n, lo, hi):
        if args.t_grid or p.t_max / 800 == 0.0:   # a user grid, or a step that underflows
            return lat.site_density(p, n, ts[lo:hi])
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

    summary = lat.summary(args.delta, sites, args.t_max)
    emit_table(
        args,
        "lattice",
        {"delta": args.delta, "sites": args.sites, "t_max": args.t_max, "n_sites": p.n_sites},
        ["t", "n", "density"],
        _thunks(block, len(sites) * len(ts)),
        summary=summary,
    )
    return 0


def cmd_scenario(args) -> int:
    from . import units

    path = _resolve_config(args.config)
    scenario, config_distance = units.load_scenario_config(path)
    distance = args.distance if args.distance is not None else config_distance
    if distance is None:
        raise UsageError("config has no detector_distance_m; pass --distance")
    if not 0.0 < distance < math.inf:
        raise UsageError(f"--distance must be positive and finite; got {distance!r}")
    report = units.scenario_transition_report(scenario, distance)
    doc = _document("scenario", {"config": args.config, "distance_m": distance},
                    report=_json_safe(report._asdict()))
    with _output(args.out) as fh:
        fh.write(doc + "\n")
    return 0


def _resolve_config(name: str) -> str:
    if os.path.exists(name):
        return name
    from importlib import resources

    bundled = resources.files("postexp").joinpath("data", name)
    if bundled.is_file():
        return str(bundled)
    raise UsageError(f"config file {name!r} not found (not a path, not bundled)")


def cmd_selftest(args) -> int:
    from . import selftest

    return selftest.run()


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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every argument starting with -<digit> or
    -.<digit> as a value, not an option: argparse's own pattern takes -0.3
    but not -1e-3 or the list -0.3,-0.2. Its subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
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
    la.add_argument("--t-grid", dest="t_grid", default=None)
    _add_common(la)

    sc = sub.add_parser("scenario", help="physical-units transition report (JSON)")
    sc.add_argument("--config", required=True, help="scenario config path or bundled name")
    sc.add_argument("--distance", type=float, default=None, help="detector distance in meters")
    sc.add_argument("--out", default=None)
    # ignored: perfbench/inproc.py appends --parallelism 1 to every argv but selftest's
    sc.add_argument("--parallelism", type=int, default=1)

    sub.add_parser("selftest", help="fast invariant checks, exit 0 iff all pass")
    return ap


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
        # Python's SIGPIPE note says, stdout goes to devnull, so a later flush
        # (run()'s, or the interpreter's at exit) does not fail again, and the
        # exit code is 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ComputationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def run() -> None:
    """The process entry (`postexp`, `python -m postexp.cli`): run the
    atexit callbacks that the environment registered (site, a coverage
    tool), flush stdout and stderr, then leave by os._exit with main()'s
    code, so the process skips the rest of interpreter teardown (module
    cleanup, final collections). No command registers an atexit callback,
    and any file it opens is closed before main() returns. A reader gone by
    that flush gives exit 1 and no error line, as in main()."""
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except BrokenPipeError:
            code = 1
    os._exit(code)


if __name__ == "__main__":
    run()
