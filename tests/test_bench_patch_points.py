"""The benchmark's tracer can still patch every name it wraps.

``perfbench/bench_trace.py`` replaces package functions and methods by
name while a traced run is active. A renamed or deleted name would only
show when the benchmark runs; entering and leaving its ``instrument``
block here makes it fail the test suite instead, with a ``KeyError``.
"""
import importlib
import importlib.util
import pathlib
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_TRACE = ROOT / "perfbench" / "bench_trace.py"
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


def load_bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace_under_test", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_patches_and_restores_every_target():
    bench_trace = load_bench_trace()
    pkg = types.SimpleNamespace(
        **{name: importlib.import_module(f"ellipsim.{name}") for name in LAYERS}
    )
    tracer = bench_trace.Tracer()
    targets = bench_trace._targets(pkg, tracer)
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]
    with bench_trace.instrument(pkg, tracer):
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original, attr
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, attr
