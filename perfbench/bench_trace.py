"""Span tracing of ellipsim's layers from outside the package.

While a :func:`instrument` block is active, the functions and methods that
callers inside the package look up at call time are replaced by wrappers
that open a span named ``<layer>.<function>``. A span's self time is its
duration minus the time its child spans cover. Everything is restored
when the block exits, so untraced calls run the package unmodified.
"""
from __future__ import annotations

import contextlib
import functools
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

EPISODE_SPAN = "bandit.run_episode"


class Tracer:
    """Span stack with per-name aggregates and optional raw spans.

    Raw spans are ``(call, span_id, parent_id, name, start, end)`` tuples;
    they are kept only when ``keep_spans`` is set, because the exact-tree
    workload opens tens of thousands of spans per call. Individual
    durations are kept only for episodes, for their percentiles.
    """

    def __init__(self, keep_spans: bool = False):
        self.call = 0
        self._next_id = 0
        # frame: [name, span_id, parent_id, start, child_time]
        self._stack: List[list] = []
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, total, self]
        self.episode_durations: List[float] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.minima: Dict[str, float] = {}
        self.spans: Optional[List[Tuple]] = [] if keep_spans else None

    def enter(self, name: str) -> None:
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else 0
        self._stack.append([name, self._next_id, parent, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        name, span_id, parent, start, child = self._stack.pop()
        dur = end - start
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - child
        if name == EPISODE_SPAN:
            self.episode_durations.append(dur)
        if self._stack:
            self._stack[-1][4] += dur
        if self.spans is not None:
            self.spans.append((self.call, span_id, parent, name, start, end))

    def exclude(self, seconds: float) -> None:
        """Charge bookkeeping time to no layer: treat it as a child span."""
        if self._stack:
            self._stack[-1][4] += seconds

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def observe_min(self, key: str, value: float) -> None:
        self.minima[key] = min(value, self.minima.get(key, value))

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        """Span-opening wrapper; ``after(args, result)`` runs untimed."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                t0 = perf_counter()
                after(args, result)
                tracer.exclude(perf_counter() - t0)
            return result

        return traced

    def self_time(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, [0, 0.0, 0.0])[0])


def _ess(weights: np.ndarray) -> float:
    return 1.0 / float(weights @ weights)


def _targets(pkg, tracer: Tracer) -> List[Tuple[object, str, str, Optional[Callable]]]:
    """(owner, attribute, span name, after-hook) for every wrapped name.

    Owners are the namespaces the callers read at call time: ``cli`` for
    the config, harness, potential and reporting entry points, ``harness``
    for ``run_episode``, ``bandit`` and ``potential`` for the posterior
    and reward helpers, ``posterior`` for the linalg kernels, and the
    classes for engine, generator, noise and trace methods.
    """
    cli, config, harness, bandit = pkg.cli, pkg.config, pkg.harness, pkg.bandit
    posterior, distributions, potential = pkg.posterior, pkg.distributions, pkg.potential
    reporting = pkg.reporting

    def after_episode(args, episode) -> None:
        state = episode.final_state
        if isinstance(state, posterior.ParticleState):
            tracer.counters["particle_episodes"] += 1
            tracer.counters["particle_resamples"] += state.resample_count
            distinct = np.unique(state.particles, axis=0).shape[0]
            tracer.observe_min("particle_distinct", distinct)

    def after_particle_update(args, _result) -> None:
        tracer.observe_min("particle_ess", _ess(args[0].weights))

    targets = [
        (cli, "load_yaml", "config.load_yaml", None),
        (cli, "build_experiment", "config.build_experiment", None),
        (cli, "build_potential_run", "config.build_potential_run", None),
        (config, "experiment_to_dict", "config.experiment_to_dict", None),
        (cli, "run_experiment", "harness.run_experiment", None),
        (cli, "verify_expected_potential", "potential.verify_expected_potential", None),
        (harness, "run_episode", EPISODE_SPAN, after_episode),
        (bandit, "make_posterior", "posterior.make_posterior", None),
        (potential, "make_posterior", "posterior.make_posterior", None),
        (bandit, "sample_reward", "distributions.sample_reward", None),
        (posterior, "jittered_cholesky", "linalg.jittered_cholesky", None),
        (posterior, "chol_solve", "linalg.chol_solve", None),
        (potential, "adversarial_action", "potential.adversarial_action", None),
        (
            potential,
            "enumerate_posterior_outcomes",
            "posterior.enumerate_posterior_outcomes",
            None,
        ),
        (potential.PotentialTrace, "append_quads", "potential.append_quads", None),
    ]
    for name in (
        "write_summary_json",
        "write_regret_curve_csv",
        "write_potential_csv_from_summary",
        "write_potential_csv_from_report",
        "write_verification_json",
    ):
        targets.append((reporting, name, f"reporting.{name}", None))
    for cls in (
        bandit.KArmedGaussianGenerator,
        bandit.FixedActionsGenerator,
        bandit.UnitSphereGenerator,
    ):
        targets.append((cls, "sample_round", "bandit.sample_round", None))
    for cls in (
        posterior.GaussianConjugateState,
        posterior.FiniteSupportState,
        posterior.ParticleState,
    ):
        for method in (
            "sample",
            "quad_form",
            "update",
            "covariance",
            "clone",
            "outcome_probability",
        ):
            if method in vars(cls):
                hook = after_particle_update if (
                    cls is posterior.ParticleState and method == "update"
                ) else None
                targets.append((cls, method, f"posterior.{method}", hook))
    for cls in (
        distributions.GaussianNoise,
        distributions.BernoulliMeanNoise,
        distributions.UniformCenteredNoise,
        distributions.StudentTNoise,
    ):
        targets.append((cls, "likelihood", "distributions.likelihood", None))
    return targets


@contextlib.contextmanager
def instrument(pkg, tracer: Tracer) -> Iterator[Tracer]:
    """Wrap the package's layer boundaries for the duration of the block.

    Besides the spans, two counters are read here: LinAlgErrors raised by
    numpy's Cholesky inside a ``linalg.jittered_cholesky`` span (jitter
    retries), and the effective sample size of particle weights just
    before each systematic resample.
    """
    saved: List[Tuple[object, str, object]] = []

    def patch(owner, attr: str, new) -> None:
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    try:
        for owner, attr, name, hook in _targets(pkg, tracer):
            patch(owner, attr, tracer.wrap(name, vars(owner)[attr], hook))

        cholesky = np.linalg.cholesky

        def counted_cholesky(*args, **kwargs):
            try:
                return cholesky(*args, **kwargs)
            except np.linalg.LinAlgError:
                if tracer.inside("linalg.jittered_cholesky"):
                    tracer.counters["jitter_retries"] += 1
                raise

        patch(np.linalg, "cholesky", counted_cholesky)

        particle_cls = pkg.posterior.ParticleState
        resample = vars(particle_cls)["_systematic_resample"]

        def probed_resample(state):
            t0 = perf_counter()
            tracer.observe_min("particle_ess", _ess(state.weights))
            tracer.exclude(perf_counter() - t0)
            return resample(state)

        patch(particle_cls, "_systematic_resample", probed_resample)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (metric prefix, span): "<prefix>_us" is the span's self time per call and
# "<prefix>_calls" its call count
PER_CALL_SPANS = (
    ("posterior.sample", "posterior.sample"),
    ("posterior.quad_form", "posterior.quad_form"),
    ("posterior.update", "posterior.update"),
    ("posterior.covariance", "posterior.covariance"),
    ("posterior.clone", "posterior.clone"),
    ("posterior.outcome_probability", "posterior.outcome_probability"),
    ("posterior.init", "posterior.make_posterior"),
    ("bandit.action_draw", "bandit.sample_round"),
    ("distributions.likelihood", "distributions.likelihood"),
    ("distributions.sample_reward", "distributions.sample_reward"),
    ("linalg.cholesky", "linalg.jittered_cholesky"),
    ("linalg.chol_solve", "linalg.chol_solve"),
    ("potential.append_quads", "potential.append_quads"),
    ("potential.adversarial_action", "potential.adversarial_action"),
)

PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("bandit.round_self_us", "us", "lower"),
    ("bandit.round_self_calls", "count", "lower"),
    *(
        item
        for metric, _ in PER_CALL_SPANS
        for item in ((f"{metric}_us", "us", "lower"), (f"{metric}_calls", "count", "lower"))
    ),
    ("posterior.particle_resamples", "count", "higher"),
    ("posterior.particle_min_ess", "particles", "higher"),
    ("posterior.particle_distinct_min", "particles", "higher"),
    ("linalg.jitter_retries", "count", "lower"),
    ("potential.exact_nodes", "count", "lower"),
    ("potential.verify_self_ms", "ms", "lower"),
    ("harness.episode_ms_p50", "ms", "lower"),
    ("harness.episode_ms_p90", "ms", "lower"),
    ("harness.reduce_ms", "ms", "lower"),
    ("harness.replications_failed", "count", "lower"),
    ("config.build_ms", "ms", "lower"),
    ("reporting.write_ms", "ms", "lower"),
    ("cli.self_ms", "ms", "lower"),
    ("trace.overhead_share", "share", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def _per_call_us(tracer: Tracer, span: str) -> float:
    calls = tracer.calls(span)
    return tracer.self_time(span) / calls * 1e6 if calls else 0.0


def _layer_self_ms(tracer: Tracer, prefix: str, cli_calls: int) -> float:
    total = sum(stat[2] for name, stat in tracer.stats.items() if name.startswith(prefix))
    return total / cli_calls * 1e3


def layer_metrics(
    tracer: Tracer, rounds: int, trees: int, failed_replications: int, overhead: float
) -> Dict[str, float]:
    """Every per-layer metric from one traced batch.

    ``rounds`` is the number of replication-rounds the traced calls ran,
    ``trees`` the number of exact trees. Layers a workload does not
    exercise report zero calls and zero time.
    """
    cli_calls = tracer.calls("cli.main")
    out: Dict[str, float] = {
        "bandit.round_self_us": (
            tracer.self_time(EPISODE_SPAN) / rounds * 1e6 if rounds else 0.0
        ),
        "bandit.round_self_calls": float(rounds),
    }
    for metric, span in PER_CALL_SPANS:
        out[f"{metric}_us"] = _per_call_us(tracer, span)
        out[f"{metric}_calls"] = float(tracer.calls(span))
    episodes = tracer.counters.get("particle_episodes", 0.0)
    out["posterior.particle_resamples"] = (
        tracer.counters["particle_resamples"] / episodes if episodes else 0.0
    )
    out["posterior.particle_min_ess"] = float(tracer.minima.get("particle_ess", 0.0))
    out["posterior.particle_distinct_min"] = float(tracer.minima.get("particle_distinct", 0.0))
    out["linalg.jitter_retries"] = float(tracer.counters.get("jitter_retries", 0.0))
    out["potential.exact_nodes"] = (
        tracer.calls("potential.adversarial_action") / trees if trees else 0.0
    )
    verify_calls = tracer.calls("potential.verify_expected_potential")
    out["potential.verify_self_ms"] = (
        tracer.self_time("potential.verify_expected_potential") / verify_calls * 1e3
        if verify_calls
        else 0.0
    )
    episode_ms = [d * 1e3 for d in tracer.episode_durations]
    out["harness.episode_ms_p50"] = _percentile(episode_ms, 50)
    out["harness.episode_ms_p90"] = _percentile(episode_ms, 90)
    experiments = tracer.calls("harness.run_experiment")
    out["harness.reduce_ms"] = (
        tracer.self_time("harness.run_experiment") / experiments * 1e3 if experiments else 0.0
    )
    out["harness.replications_failed"] = float(failed_replications)
    out["config.build_ms"] = _layer_self_ms(tracer, "config.", cli_calls)
    out["reporting.write_ms"] = _layer_self_ms(tracer, "reporting.", cli_calls)
    out["cli.self_ms"] = tracer.self_time("cli.main") / cli_calls * 1e3
    out["trace.overhead_share"] = overhead
    return out
