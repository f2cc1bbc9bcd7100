#!/usr/bin/env python3
"""Outside-in benchmark for ellipsim.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload lints_particle_d3 --seed 1 --seconds 27 --trace 0

It imports the package from ``src/``, writes YAML inputs generated from
``--seed`` and drives ``ellipsim.cli.main`` in-process, exactly as a user
of ``ellipsim run-bandit`` or ``ellipsim potential-trace`` would, with one
worker and one BLAS thread. Every call's outputs are checked.

``--trace 0`` times calls for ``--seconds`` and reports the end-to-end
metrics. ``--trace 1`` runs a fixed number of calls with the package's
layer boundaries wrapped (see ``bench_trace.py``), so its call counts
repeat exactly, and reports the per-layer metrics. Either way the last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A failed check makes
``correct`` false and the exit code 1.
"""
import os

# pinned before numpy is imported anywhere in this process or its children
BLAS_THREADS = "1"
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")

SETUP_PROBES = 5
CPUS = sorted(os.sched_getaffinity(0))
MIN_TIMED_CALLS = 5
LAYERS = (
    "cli",
    "config",
    "harness",
    "bandit",
    "posterior",
    "distributions",
    "linalg",
    "potential",
    "reporting",
)


def import_package() -> types.SimpleNamespace:
    """Import ellipsim from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "ellipsim", "cli.py")):
        raise SystemExit(f"perfbench: no ellipsim sources under {SRC}")
    sys.path.insert(0, SRC)
    pkg = importlib.import_module("ellipsim")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported ellipsim from {pkg.__file__}, not {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"ellipsim.{name}") for name in LAYERS}
    )


# bench modules import numpy, so they come after the thread pins
sys.path.insert(0, BENCH_DIR)
import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402


def git_commit() -> str:
    """HEAD commit read from ``.git`` files; "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads_in_effect() -> str:
    """Thread count reported by numpy's bundled OpenBLAS, when it is found."""
    import ctypes
    import glob

    import numpy as np

    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def environment(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_effect": blas_threads_in_effect(),
        "workers": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "git_commit": git_commit(),
    }


class Session:
    """One workload's inputs, call bookkeeping and correctness record."""

    def __init__(self, pkg, wl: bench_inputs.Workload, seed: int, work: str, reference=None):
        self.pkg = pkg
        self.wl = wl
        self.reference = reference or bench_inputs.load_reference()
        self.inputs = bench_inputs.write_inputs(wl, seed, work)
        self.pool = [inp for inp in self.inputs.values() if inp.kind == "pool"]
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, inp: bench_inputs.Input, main=None) -> float:
        """One checked CLI call; returns its wall time in seconds.

        ``main`` replaces ``ellipsim.cli.main``, for the traced wrapper.
        """
        t0 = time.perf_counter()
        code, text = bench_inputs.call_cli(main or self.pkg.cli.main, inp.argv)
        wall = time.perf_counter() - t0
        units = self.wl.units if inp.kind != "warmup" else 1
        problems = bench_inputs.check_call(self.wl, inp, code, text, self.reference)
        self.attempted += units
        if problems:
            self.failed += units
            self.problems.extend(problems)
        return wall

    def warm_up(self) -> None:
        self.call(self.inputs["warmup"])


def on_cpu(i: int) -> None:
    """Pin this process, and the children it starts, to the i-th usable CPU."""
    os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def set_up(args, work: str):
    """Import, generate inputs and make one warm-up call."""
    pkg = import_package()
    session = Session(pkg, bench_inputs.WORKLOADS[args.workload], args.seed, work)
    session.warm_up()
    return session


def probe_setup_time(args, i: int) -> float:
    """Wall time from process start to the end of set-up, in a fresh interpreter."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
        os.path.join(args.work, f"probe{i}"),
    ]
    on_cpu(i)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        rc = proc.wait(timeout=170)
    if rc != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {rc}): {line.strip()}")
    return elapsed


def run_setup_probe(args) -> int:
    session = set_up(args, args.setup_probe)
    if session.problems:
        print("failed: " + "; ".join(session.problems), flush=True)
        return 1
    print("ready", flush=True)
    return 0


def high_percentile(values: list) -> tuple:
    """Highest percentile with at least ten samples beyond it, and its value.

    With fewer than 20 samples no percentile above the median has ten
    beyond it; the maximum is reported instead, as percentile 100.
    """
    n = len(values)
    if n < 20:
        return 100.0, max(values)
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def end_to_end(session: Session, args) -> dict:
    """Time pool calls for ``args.seconds`` of calls; derive the end-to-end metrics.

    The call time reported is the fastest timed call. On a shared machine,
    interference from other tenants only ever adds time. It comes in
    phases of a few seconds to a few minutes that slow identical calls by
    up to 2x, at times on one CPU more than the other. So successive calls
    (and set-up probes) alternate between the usable CPUs, and the minimum
    over a run is the estimate of the program's own cost that moves least
    with the phases. The median and a high percentile are printed
    alongside. The set-up probes are spread evenly over the run, so that
    their median does not hang on one phase; their time is not taken from
    the timed calls.
    """
    wl = session.wl
    session.call(session.inputs["reference"])
    walls, setup = [], []
    timed = 0.0
    while timed < args.seconds or len(walls) < MIN_TIMED_CALLS:
        if timed >= len(setup) * args.seconds / SETUP_PROBES:
            setup.append(probe_setup_time(args, len(setup)))
        on_cpu(len(walls))
        walls.append(session.call(session.pool[len(walls) % len(session.pool)]))
        timed += walls[-1]
    while len(setup) < SETUP_PROBES:
        setup.append(probe_setup_time(args, len(setup)))
    os.sched_setaffinity(0, CPUS)
    wall = min(walls)
    q, high = high_percentile(walls)
    print(
        f"calls {len(walls)}  wall min {wall:.4f} s  median {statistics.median(walls):.4f} s  "
        f"p{q:.0f} {high:.4f} s  setup samples {', '.join(f'{t:.3f}' for t in setup)} s"
    )
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "us_per_round": (wall / (wl.units * wl.rounds) * 1e6, "us"),
        "ms_per_unit": (wall / wl.units * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def traced(session: Session, tracer: bench_trace.Tracer = None) -> dict:
    """Fixed traced batch, each call paired with an untraced call on its input."""
    wl = session.wl
    tracer = tracer or bench_trace.Tracer()
    session.call(session.inputs["reference"])
    plain, wrapped = 0.0, 0.0
    replications_failed = 0
    batch = [session.pool[i % len(session.pool)] for i in range(wl.trace_calls)]
    for inp in batch:
        plain += session.call(inp)
        tracer.call += 1
        with bench_trace.instrument(session.pkg, tracer):
            wrapped += session.call(inp, tracer.wrap("cli.main", session.pkg.cli.main))
        if wl.regret:
            try:
                replications_failed += bench_inputs.headline(inp)["failed"]
            except (OSError, KeyError, ValueError):
                pass  # check_call has already counted the call as failed
    rounds = wl.trace_calls * wl.units * wl.rounds if wl.regret else 0
    trees = 0 if wl.regret else wl.trace_calls
    metrics = bench_trace.layer_metrics(
        tracer, rounds, trees, replications_failed, wrapped / plain - 1.0
    )
    return {name: (value, bench_trace.UNITS[name]) for name, value in metrics.items()}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return run_setup_probe(args)
    args.work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    try:
        session = set_up(args, args.work)
        env = environment(args)
        print("environment " + json.dumps(env, sort_keys=True))
        metrics = traced(session) if args.trace else end_to_end(session, args)
        for key in ("warmup", "reference"):
            inp = session.inputs[key]
            ref = session.reference[args.workload][key].get("digests")
            same = "matches seed commit" if inp.digests == ref else "differs from seed commit"
            print(f"digests {key} ({same}) " + json.dumps(inp.digests, sort_keys=True))
        for inp in session.pool:
            if inp.digests is not None:
                print(f"digests {inp.key} " + json.dumps(inp.digests, sort_keys=True))
    finally:
        shutil.rmtree(args.work, ignore_errors=True)
    for problem in session.problems:
        print(f"FAILED {problem}")
    share = session.failed / session.attempted
    print(f"failed_share {share:.6g} ({session.failed}/{session.attempted} units)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = not session.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
