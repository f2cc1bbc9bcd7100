"""The benchmark's tracer can still patch and read every name it uses.

``perfbench/bench_trace.py`` replaces package functions and methods by
name while a traced run is active. A renamed or deleted name would only
show when the benchmark runs; entering and leaving its ``instrument``
block here makes it fail the test suite instead, with a ``KeyError``. The
tests below also pin what the tracer reads besides the patched names, and
that a patched function is still called through the name it patches.
"""
import importlib
import importlib.util
import pathlib
import types

import numpy as np

from ellipsim import potential
from ellipsim.distributions import BernoulliMeanNoise, FiniteSupportPrior
from ellipsim.posterior import ParticleState

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


def test_particle_state_exposes_its_particles():
    # the tracer's episode hook counts distinct rows of state.particles
    prior = FiniteSupportPrior(
        atoms=np.array([[0.2], [0.8]]), weights=np.array([0.5, 0.5])
    )
    state = ParticleState(
        prior, BernoulliMeanNoise(), np.random.default_rng(0), n_particles=10
    )
    assert state.particles is state.atoms
    assert state.particles.shape == (10, 1)
    # a resample keeps one row per surviving draw; particles still lays out
    # all 10 particles, copies included
    state.weights = np.array([0.9] + [0.1 / 9] * 9)
    state._systematic_resample()
    assert state.atoms.shape[0] < 10
    assert state.particles.shape == (10, 1)
    assert np.array_equal(state.particles, state.atoms.repeat(state.counts, axis=0))


def test_exact_lattice_branches_through_the_module_level_helper(monkeypatch):
    # the tracer patches potential.enumerate_posterior_outcomes, so the
    # lattice must look it up there on every branching depth: H - 1 calls
    calls = []
    original = potential.enumerate_posterior_outcomes

    def counted(weights, likelihoods):
        calls.append(weights.shape[0])
        return original(weights, likelihoods)

    monkeypatch.setattr(potential, "enumerate_posterior_outcomes", counted)
    prior = FiniteSupportPrior(
        atoms=np.array([[0.3, 0.3], [0.6, 0.6], [0.3, 0.6], [0.6, 0.3]]),
        weights=np.full(4, 0.25),
    )
    nodes = potential._exact_potential(prior, BernoulliMeanNoise(), 6)[2]
    assert calls == nodes[:-1]
