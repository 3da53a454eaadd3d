"""postexp benchmark: fresh-process CLI workloads, plus a traced per-module run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {scan,continuum,lattice} --seed N \
        --seconds S --trace {0,1}

Every invocation is `python -m postexp.cli ...` with PYTHONPATH=src, run as a
fresh process in a closed loop with one client: the next starts only after
the previous one exits. The CLI keeps its default --parallelism. The whole
invocation list of the workload repeats until S seconds of it are measured.
Outputs are checked against independent oracles (oracles.py) outside the
timed region; a wrong output or an unexpected exit code counts as failed.

--trace 0 reports the end-to-end metrics (medians over repeats):
  setup_s      wall time of a fresh `python -c "import postexp.cli"`, sampled
               once before each pass of the list, at least 7 times
  wall_s       wall time of the workload's whole invocation list
  cpu_s        user + sys CPU of those invocations, pool workers included
  peak_rss_mb  largest peak RSS among them, pool workers included
--trace 1 reports the per-layer metrics: startup import times, per-command
wall times from one subprocess pass of the list, and per-module counts
and self times from in-process `postexp.cli.main` calls traced by inproc.py,
with the tracing overhead measured against an untraced pass.

The last stdout line is the result object; the line before it is a record
of the exact argv lists, the environment and the raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from typing import Dict, List, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work", str(os.getpid()))   # scratch for this run only
SETUP_PER_PASS = 1
SETUP_MIN = 7
STARTUP_REPEATS = 5
INVOCATION_TIMEOUT_S = 120.0
IMPORT_CLI = "import postexp.cli"
# what postexp.cli pulls in besides itself: numpy and the scipy submodules
IMPORT_SCIPY = "import numpy, scipy.special, scipy.integrate, scipy.optimize, scipy.linalg"
PARALLELISM = ("import postexp.cli as c; "
               "print(c.build_parser().parse_args(['critical', '--k0i-grid', '-0.5']).parallelism)")

# ROADMAP re-anchor baseline: (label, metric, low, high, unit)
BASELINE = (
    ("import postexp.cli", "startup.postexp_s", 0.71, 0.71, "s"),
    ("evaluate_exact per point", "source_model.evaluate_exact.per_call_us", 12.0, 12.0, "us"),
    ("transition_time per call", "transition.transition_time.per_call_ms", 0.55, 0.55, "ms"),
    ("critical_distance per call", "transition.critical_distance.per_call_ms", 25.0, 60.0, "ms"),
    ("total_emitted per call", "normalization.total_emitted.per_call_ms", 2.0, 2.0, "ms"),
    ("resolve_formula_reading per call", "lattice.resolve_formula_reading.per_call_s", 0.67, 0.67, "s"),
)
AGREE = 0.25   # a measured figure within +-25% of the baseline range agrees

# layers whose self time makes up each workload's dominant share
DOMINANT = {
    "scan": ("startup",),
    "continuum": ("source_model", "specfun", "transition", "cli"),
    "lattice": ("lattice",),
}
COMMANDS = ("density", "transition", "critical", "lattice", "scenario", "selftest")
LAYER_FUNCS = {
    "cli": ("main", "emit_table"),
    "specfun": ("faddeeva", "faddeeva_derivative"),
    "source_model": ("evaluate_exact", "density_and_current"),
    "transition": ("ratio_R", "transition_time", "critical_distance"),
    "normalization": ("total_emitted",),
    "lattice": ("site_density", "eigensolve", "measured_envelope_crossing",
                "resolve_formula_reading", "lattice_transition_time",
                "tail_exponent", "fitted_decay_rate"),
    "units": ("scenario_transition_report", "load_scenario_config"),
}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or it does not start)."""


# ------------------------------------------------------------- processes

def spawn(cmd: Sequence[str], out_path: str) -> dict:
    """Run one fresh process to completion; wall time and its rusage.

    os.wait4 reports the child's own usage plus that of every descendant it
    waited for, so pool workers count in cpu_s and in ru_maxrss.
    """
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(list(cmd), stdout=out, stderr=err, cwd=ROOT,
                                env={**os.environ, "PYTHONPATH": SRC},
                                start_new_session=True)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": ru.ru_utime + ru.ru_stime,
            "maxrss_mb": ru.ru_maxrss / 1024.0, "exit_code": proc.returncode}


def python_c(code: str, tag: str) -> dict:
    r = spawn([sys.executable, "-c", code], os.path.join(WORK, tag))
    if r["exit_code"] != 0:
        with open(os.path.join(WORK, tag + ".err"), encoding="utf-8", errors="replace") as fh:
            raise BenchError(f"`python -c {code!r}` failed: {fh.read()[-500:]}")
    return r


def cli_cmd(argv: Sequence[str]) -> List[str]:
    return [sys.executable, "-m", "postexp.cli", *argv]


# ---------------------------------------------------------- environment

def _git_commit() -> str | None:
    """HEAD's commit when the checkout is a git work tree with a loose ref."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(git, *ref[5:].split("/")), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "postexp")
    for dirpath, dirnames, files in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    # untimed: also compiles bytecode and warms the file cache
    python_c(PARALLELISM, "parallelism")
    with open(os.path.join(WORK, "parallelism"), encoding="utf-8") as fh:
        parallelism = int(fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "cli_default_parallelism": parallelism,
    }


# -------------------------------------------------------------- checking

class Checker:
    """Checks each distinct output once; identical bytes share a verdict."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.verdicts: Dict[tuple, List[str]] = {}
        self.problems: List[dict] = []

    def __call__(self, argv: Sequence[str], exit_code: int, path: str) -> bool:
        with open(path, "rb") as fh:
            data = fh.read()
        key = (tuple(argv), exit_code, hashlib.sha256(data).hexdigest())
        if key not in self.verdicts:
            probs = oracles.check(argv, exit_code, data.decode("utf-8", "replace"), SRC, self.rng)
            self.verdicts[key] = probs
            if probs:
                self.problems.append({"argv": list(argv), "problems": probs[:10]})
        return not self.verdicts[key]


# ------------------------------------------------------------- trace 0

def run_pass(argvs, check: Checker) -> List[dict]:
    """Every invocation once, in order, each checked after it exits."""
    runs = []
    for i, argv in enumerate(argvs):
        path = os.path.join(WORK, f"inv_{i}.out")
        r = spawn(cli_cmd(argv), path)
        r["ok"] = check(argv, r["exit_code"], path)
        runs.append(r)
    return runs


def end_to_end(argvs, seconds: float, check: Checker):
    setup, iterations, walls = [], [], []
    # stop when one more pass would overrun the budget by more than half a pass
    while not walls or sum(walls) + 0.5 * walls[-1] < seconds:
        # set-up samples spread over the run, so they see the same machine
        setup += [python_c(IMPORT_CLI, "setup")["wall_s"] for _ in range(SETUP_PER_PASS)]
        runs = run_pass(argvs, check)
        iterations.append(runs)
        walls.append(sum(r["wall_s"] for r in runs))
    while len(setup) < SETUP_MIN:
        setup.append(python_c(IMPORT_CLI, "setup")["wall_s"])
    cpus = [sum(r["cpu_s"] for r in it) for it in iterations]
    rss = [max(r["maxrss_mb"] for r in it) for it in iterations]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    raw = {"setup_s": setup, "iterations": iterations}
    return metrics, raw, [r for it in iterations for r in it]


# ------------------------------------------------------------- trace 1

def inproc_pass(argvs, trace: bool, check: Checker) -> dict:
    spec = os.path.join(WORK, "inproc_spec.json")
    result = os.path.join(WORK, "inproc_result.json")
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"argvs": argvs, "trace": trace, "out_dir": WORK}, fh)
    r = spawn([sys.executable, os.path.join(HERE, "inproc.py"), spec, result],
              os.path.join(WORK, "inproc.log"))
    if r["exit_code"] != 0:
        with open(os.path.join(WORK, "inproc.log.err"), encoding="utf-8", errors="replace") as fh:
            raise BenchError(f"in-process pass failed: {fh.read()[-800:]}")
    with open(result, encoding="utf-8") as fh:
        out = json.load(fh)
    out["ok"] = [check(argv, code, os.path.join(WORK, f"inproc_{i}.out"))
                 for i, (argv, code) in enumerate(zip(argvs, out["exit_codes"]))]
    return out


def _function_totals(spans) -> Dict[str, List[float]]:
    """name -> [calls, inclusive s, self s, raised], summed over parents."""
    out: Dict[str, List[float]] = {}
    for name, _parent, calls, incl, self_s, raised in spans:
        a = out.setdefault(name, [0, 0.0, 0.0, 0])
        a[0] += calls
        a[1] += incl
        a[2] += self_s
        a[3] += raised
    return out


def _hit_ratio(info: dict) -> float:
    total = info["hits"] + info["misses"]
    return info["hits"] / total if total else 0.0


def layer_metrics(workload, argvs, seconds: float, check: Checker):
    m: Dict[str, tuple] = {}
    samples = {"python_s": ("pass", []), "scipy_s": (IMPORT_SCIPY, []),
               "postexp_s": (IMPORT_CLI, [])}
    for _ in range(STARTUP_REPEATS):
        for code, got in samples.values():
            got.append(python_c(code, "startup")["wall_s"])
    for key, (_code, got) in samples.items():
        m[f"startup.{key}"] = (statistics.median(got), "s")
    import_s = m["startup.postexp_s"][0]

    subproc = run_pass(argvs, check)
    for c in COMMANDS:
        m[f"cmd.{c}_s"] = (sum(r["wall_s"] for a, r in zip(argvs, subproc) if a[0] == c), "s")

    # alternate untraced and traced in-process passes for the run's budget
    pairs, t0 = [], time.perf_counter()
    while not pairs or time.perf_counter() - t0 < seconds:
        pairs.append((inproc_pass(argvs, False, check), inproc_pass(argvs, True, check)))
    untraced = statistics.median(sum(u["wall_s"]) for u, _ in pairs)
    traced = statistics.median(sum(t["wall_s"]) for _, t in pairs)
    first = pairs[0][1]
    totals = [_function_totals(t["spans"]) for _, t in pairs]

    def med(name: str, field: int) -> float:
        """Median over traced passes of one function's calls/incl/self/raised."""
        return statistics.median(f.get(name, [0, 0.0, 0.0, 0])[field] for f in totals)

    def per_call(name: str) -> float:
        calls = med(name, 0)
        return med(name, 1) / calls if calls else 0.0

    m["cli.output_bytes"] = (sum(first["output_bytes"]), "B")
    for layer, names in LAYER_FUNCS.items():
        for short in names:
            m[f"{layer}.{short}.calls"] = (med(f"{layer}.{short}", 0), "count")
            m[f"{layer}.{short}.self_s"] = (med(f"{layer}.{short}", 2), "s")
    m["source_model.evaluate_exact.per_call_us"] = (1e6 * per_call("source_model.evaluate_exact"), "us")
    m["transition.transition_time.per_call_ms"] = (1e3 * per_call("transition.transition_time"), "ms")
    m["transition.critical_distance.invalid_rows"] = (med("transition.critical_distance", 3), "count")
    m["transition.n_total_cache.hit_ratio"] = (_hit_ratio(first["n_total_cache"]), "ratio")
    m["lattice.site_density.matrix_bytes"] = (first["matrix_bytes"], "B")
    m["lattice.eigensolve.hit_ratio"] = (_hit_ratio(first["eigensolve_cache"]), "ratio")

    # dominant share, out of a sequential single-worker equivalent of the
    # workload: one import per invocation plus the traced in-process time
    layer_self = {"startup": len(argvs) * import_s}
    for name, (_c, _i, self_s, _r) in _function_totals(first["spans"]).items():
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
    total = layer_self["startup"] + sum(first["wall_s"])
    m["share.dominant"] = (sum(layer_self.get(l, 0.0) for l in DOMINANT[workload]) / total, "ratio")

    spans = sum(c for _n, _p, c, *_ in first["spans"])
    m["trace.untraced_s"] = (untraced, "s")
    m["trace.overhead_s"] = (traced - untraced, "s")
    m["trace.spans"] = (spans, "count")
    m["trace.span_cost_us"] = (1e6 * first["span_cost_s"], "us")
    m["trace.overhead_est_s"] = (spans * first["span_cost_s"], "s")

    measured = {
        "startup.postexp_s": import_s,
        "source_model.evaluate_exact.per_call_us": 1e6 * per_call("source_model.evaluate_exact"),
        "transition.transition_time.per_call_ms": 1e3 * per_call("transition.transition_time"),
        "transition.critical_distance.per_call_ms": 1e3 * per_call("transition.critical_distance"),
        "normalization.total_emitted.per_call_ms": 1e3 * per_call("normalization.total_emitted"),
        "lattice.resolve_formula_reading.per_call_s": per_call("lattice.resolve_formula_reading"),
    }
    reconcile = [
        {"baseline": label, "roadmap": [lo, hi], "measured": measured[key], "unit": unit,
         "agrees": lo * (1 - AGREE) <= measured[key] <= hi * (1 + AGREE)}
        for label, key, lo, hi, unit in BASELINE
        if measured[key]   # 0 when this workload never calls it
    ]
    raw = {
        "startup": {k: got for k, (_code, got) in samples.items()},
        "subprocess_pass": subproc,
        "inproc_untraced_s": [sum(u["wall_s"]) for u, _ in pairs],
        "inproc_traced_s": [sum(t["wall_s"]) for _, t in pairs],
        "layer_self_s": layer_self,
        "dominant_layers": DOMINANT[workload],
        "spans_first_traced_pass": first["spans"],
        "reconcile_roadmap": reconcile,
    }
    attempts = subproc + [{"ok": ok} for u, t in pairs for ok in u["ok"] + t["ok"]]
    return m, raw, attempts


# ------------------------------------------------------------------ main

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "postexp", "cli.py")):
        print(f"error: no postexp source under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    try:
        env = environment()
        argvs = workloads.argv_lists(args.workload, args.seed)
        check = Checker(args.seed)
        if args.trace:
            metrics, raw, attempts = layer_metrics(args.workload, argvs, args.seconds, check)
        else:
            metrics, raw, attempts = end_to_end(argvs, args.seconds, check)
    except (BenchError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(WORK))   # only if no other run is using it

    failed = sum(1 for a in attempts if not a["ok"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "argv": [["python3", "-m", "postexp.cli", *a] for a in argvs],
        "failed_frac": failed / len(attempts),
        "check_problems": check.problems,
        "raw": raw,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempts),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
