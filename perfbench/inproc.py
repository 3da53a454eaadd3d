"""Run a list of `postexp.cli.main` calls in this process, optionally traced.

Usage: python inproc.py SPEC.json RESULT.json

SPEC holds {"argvs": [[...], ...], "trace": bool, "out_dir": path}. Each
argv runs as `postexp.cli.main(argv + ["--parallelism", "1"])` (`selftest`
takes no such flag) with stdout captured and written to
out_dir/inproc_<i>.out for the caller to check.

With tracing on, every public function of the package's modules is wrapped
at each module attribute that binds it (modules that import a name
directly, such as `transition` and `units`, hold their own binding), plus
the private `lattice._spectral_data` under the name `lattice.eigensolve`.
A wrapper records a span with its parent span; spans are aggregated in
memory per (function, parent) pair into calls, inclusive time, self time
(inclusive minus the time of child spans) and raised exceptions.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

MODULES = ("cli", "specfun", "source_model", "transition", "normalization", "lattice", "units")
# called once per output cell (640k times on the 80k-point density grid); its
# time stays in its caller, emit_table
UNTRACED = {"cli.fmt_cell"}
PRIVATE = {("lattice", "_spectral_data"): "lattice.eigensolve"}


class Tracer:
    def __init__(self):
        # stats[name][parent] = [calls, inclusive s, self s, raised]
        self.stats: Dict[str, Dict[Optional[str], List[float]]] = {}
        self.stack: List[List] = [[0.0, None]]   # [child time, name]; root sentinel
        self.matrix_bytes = 0

    def wrap(self, name: str, fn):
        stack, clock = self.stack, time.perf_counter
        by_parent = self.stats.setdefault(name, {})

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][1]
            frame = [0.0, name]
            stack.append(frame)
            raised = 0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised = 1
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                s = by_parent.get(parent)
                if s is None:
                    s = by_parent[parent] = [0, 0.0, 0.0, 0]
                s[0] += 1
                s[1] += dur
                s[2] += dur - frame[0]
                s[3] += raised

        return span

    def install(self, pkg: str = "postexp") -> None:
        mods = {m: importlib.import_module(f"{pkg}.{m}") for m in MODULES}
        targets = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_") and name not in UNTRACED:
                    targets[id(obj)] = (obj, name)
        for (short, attr), name in PRIVATE.items():
            obj = getattr(mods[short], attr)
            targets[id(obj)] = (obj, name)
        wrappers = {k: self.wrap(name, obj) for k, (obj, name) in targets.items()}
        site_density = mods["lattice"].site_density
        wrappers[id(site_density)] = self.wrap("lattice.site_density", self._count_matrix(site_density))
        everywhere = list(mods.values()) + [importlib.import_module(pkg)]
        for mod in everywhere:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and targets[id(obj)][0] is obj:
                    setattr(mod, attr, wrappers[id(obj)])

    def _count_matrix(self, fn):
        @functools.wraps(fn)
        def counted(p, n, times):
            self.matrix_bytes += 16 * p.n_sites * len(times)   # complex T x N phase matrix
            return fn(p, n, times)

        return counted


def span_cost(repeats: int = 5, n: int = 20000) -> float:
    """Seconds one span adds to a call: wrapped minus bare no-op, best of repeats."""
    def noop():
        return None

    wrapped = Tracer().wrap("calibration", noop)
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return best


def run(spec: dict) -> dict:
    from postexp import cli, lattice, transition

    caches = {"n_total_cache": transition._n_total_cached,
              "eigensolve_cache": lattice._spectral_data}
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()

    out = {"wall_s": [], "exit_codes": [], "output_bytes": []}
    for i, argv in enumerate(spec["argvs"]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            code = cli.main(list(argv) + ([] if argv[0] == "selftest" else ["--parallelism", "1"]))
            out["wall_s"].append(time.perf_counter() - t0)
        out["exit_codes"].append(code)
        data = buf.getvalue().encode()
        out["output_bytes"].append(len(data))
        with open(os.path.join(spec["out_dir"], f"inproc_{i}.out"), "wb") as fh:
            fh.write(data)
    if tracer:
        out["spans"] = [[n, p, *s] for n, by_parent in sorted(tracer.stats.items())
                        for p, s in by_parent.items()]
        out["matrix_bytes"] = tracer.matrix_bytes
        out["span_cost_s"] = span_cost()
        out.update({k: c.cache_info()._asdict() for k, c in caches.items()})
    return out


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
