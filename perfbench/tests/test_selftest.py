"""Self-test of the benchmark harness, at tiny sizes.

    python3 -m pytest perfbench/tests

Checks that the benchmark still measures what it claims: every per-layer
metric that design.json assigns to a workload records work there, spans
nest, call counts repeat, tracing leaves outputs byte-identical, the
correctness gate rejects perturbed references and outputs, and the
benchmark refuses to run without the package sources.
"""
import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402

PKG = run.import_package()

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
with open(os.path.join(BENCH_DIR, "design.json"), encoding="utf-8") as fh:
    DESIGN = json.load(fh)

# failure counters: zero on a healthy run, so only their span must record work
FAILURE_COUNTERS = {
    "linalg.jitter_retries": "linalg.jittered_cholesky",
    "harness.replications_failed": "harness.run_experiment",
}


def tiny_session(name, work, seed=0):
    """A session on the tiny workload whose reference is recorded on the spot."""
    wl = bench_inputs.WORKLOADS[name].tiny()
    inputs = bench_inputs.write_inputs(wl, seed, str(work))
    entry = bench_inputs.record_entry(PKG.cli.main, wl, inputs)
    if wl.regret:
        entry["pool_range"] = {
            "final_mean_regret": [0.0, math.inf],
            "potential_sum_mean": [0.0, math.inf],
        }
    session = run.Session(PKG, wl, seed, str(work), reference={name: entry})
    session.warm_up()
    return session


def traced_run(name, work):
    session = tiny_session(name, work)
    tracer = bench_trace.Tracer(keep_spans=True)
    metrics = run.traced(session, tracer)
    assert session.problems == []
    return metrics, tracer


@pytest.fixture(scope="module", params=sorted(bench_inputs.WORKLOADS))
def traced_twice(request, tmp_path_factory):
    name = request.param
    first = traced_run(name, tmp_path_factory.mktemp(f"{name}-a"))
    second = traced_run(name, tmp_path_factory.mktemp(f"{name}-b"))
    return name, first, second


def test_benchmark_json_matches_the_code():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(bench_inputs.WORKLOADS)
    assert sorted(DESIGN["workloads"]) == sorted(names)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(
        bench_trace.PER_LAYER
    )
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for metric, entry in DESIGN["metric_workloads"].items():
        assert metric in per_layer
        assert set(entry["workloads"]) <= set(names)
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(end_to_end) == sorted(DESIGN["end_to_end"].keys() - {"failed_share"})
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_assigned_layers_record_work(traced_twice):
    name, (metrics, tracer), _ = traced_twice
    assert set(metrics) == {n for n, _, _ in bench_trace.PER_LAYER}
    for metric, entry in DESIGN["metric_workloads"].items():
        if name not in entry["workloads"]:
            continue
        if metric in FAILURE_COUNTERS:
            assert tracer.calls(FAILURE_COUNTERS[metric]) > 0, metric
        elif metric == "trace.overhead_share":
            # a difference of two timings; noise can make it negative at tiny sizes
            assert math.isfinite(metrics[metric][0])
        elif metric.endswith("_us"):
            assert metrics[metric[: -len("_us")] + "_calls"][0] >= 1, metric
        else:
            assert metrics[metric][0] > 0, metric


def test_counts_repeat_exactly(traced_twice):
    _, (first, _), (second, _) = traced_twice
    for name, unit, _ in bench_trace.PER_LAYER:
        if unit in ("count", "particles"):
            assert first[name] == second[name], name


def test_child_spans_nest_inside_parents(traced_twice):
    _, (_, tracer), _ = traced_twice
    spans = {span_id: (call, parent, name, start, end)
             for call, span_id, parent, name, start, end in tracer.spans}
    assert spans
    for call, parent, name, start, end in spans.values():
        if parent == 0:
            assert name == "cli.main"
            continue
        p_call, _, p_name, p_start, p_end = spans[parent]
        assert p_call == call
        assert p_start <= start <= end <= p_end, (name, p_name)


def test_gate_rejects_perturbed_reference(tmp_path):
    session = tiny_session("lints_particle_d3", tmp_path)
    wl, inp = session.wl, session.inputs["reference"]
    good = session.reference
    code, text = bench_inputs.call_cli(PKG.cli.main, inp.argv)
    assert bench_inputs.check_call(wl, inp, code, text, good) == []

    for mutate in (
        lambda r: r["reference"].update(final_mean_regret=r["reference"]["final_mean_regret"] * (1 + 1e-6)),
        lambda r: r["reference"].update(potential_sum_mean=r["reference"]["potential_sum_mean"] * (1 - 1e-6)),
        lambda r: r["checks"].update(pass_eq4=not r["checks"]["pass_eq4"]),
    ):
        bad = json.loads(json.dumps(good))
        mutate(bad["lints_particle_d3"])
        assert bench_inputs.check_call(wl, inp, code, text, bad)
    assert bench_inputs.check_call(wl, inp, 1, text, good)
    assert bench_inputs.check_call(wl, inp, None, "MeanOutOfRange", good)


def test_gate_rejects_perturbed_tree(tmp_path):
    session = tiny_session("exact_tree_h12", tmp_path)
    wl, good = session.wl, session.reference
    for inp in (session.inputs["reference"], session.pool[0]):
        code, text = bench_inputs.call_cli(PKG.cli.main, inp.argv)
        assert bench_inputs.check_call(wl, inp, code, text, good) == []
    bad = json.loads(json.dumps(good))
    bad["exact_tree_h12"]["reference"]["mean_total"] *= 1 + 1e-6
    inp = session.inputs["reference"]
    assert bench_inputs.check_call(wl, inp, 0, "", bad)

    # a pool tree is checked against the oracle, so perturb the output itself
    inp = session.pool[0]
    path = os.path.join(inp.out, "verification.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["mean_total"] *= 1 + 1e-6
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    inp.digests = None
    assert bench_inputs.check_call(wl, inp, 0, "", good)


def test_gate_rejects_changed_output_on_repeat(tmp_path):
    session = tiny_session("exact_tree_h12", tmp_path)
    inp = session.pool[0]
    session.call(inp)
    assert session.problems == []
    inp.digests = {name: "0" * 64 for name in inp.digests}
    session.call(inp)
    assert session.failed == session.wl.units
    assert any("differ" in p for p in session.problems)


def _brute_force_tree(atoms, weights, horizon):
    """Sum of posterior variances over every outcome path, weighted by its probability."""
    x, w = np.asarray(atoms), np.asarray(weights)
    total = 0.0
    for t in range(horizon):
        for path in itertools.product((0, 1), repeat=t):
            s = sum(path)
            post = w * x**s * (1 - x) ** (t - s)
            z = post.sum()
            if z <= 0:
                continue
            post = post / z
            mean = post @ x
            total += z * (post @ (x - mean) ** 2)
    return total


def test_finite_input_is_the_acceptance_shape():
    wl = bench_inputs.WORKLOADS["lints_finite_d3"]
    doc = bench_inputs.regret_doc(wl, wl.units, wl.rounds, 0)
    acceptance = run.importlib.import_module("ellipsim.acceptance")
    want = PKG.config.experiment_to_dict(acceptance.config_bernoulli_d3())
    for section in ("prior", "noise", "actions"):
        assert doc[section] == want[section], section
    assert doc["engine"]["kind"] == want["engine"]["kind"]
    assert doc["experiment"]["horizon"] == want["experiment"]["horizon"]


@pytest.mark.parametrize("seed", range(5))
def test_exact_oracle_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    atoms, weights = bench_inputs.scalar_prior(rng)
    total, _ = bench_inputs.exact_scalar_potential(atoms, weights, 7)
    assert total == pytest.approx(_brute_force_tree(atoms, weights, 7), rel=1e-12)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        BENCH_DIR,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".work", "__pycache__", "baseline"),
    )
    cmd = SPEC["command"] + [
        "--workload", "exact_tree_h12", "--seed", "0", "--seconds", "1", "--trace", "0",
    ]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
