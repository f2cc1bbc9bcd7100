"""Replicated experiments, the expected-potential verifier and their results.

Both jobs take one :class:`ExperimentConfig`, as ``run_experiment(cfg)``
and ``verify_expected_potential(cfg)``, and replicate
:func:`~ellipsim.bandit.run_episode` through one driver,
:func:`_run_replications`, which seeds each episode from
(master_seed, replication index), applies one failure rule and returns
episodes in index order, so results never depend on the worker count.
Regret summaries carry the regret and potential curves, the analytic
bound values and one-sided pass flags with Monte Carlo slack of
``tolerances.MONTE_CARLO_SLACK_SE`` standard errors; eq. 1's ridge
potential is replayed over each episode's actions in the worker that ran
it. The verifier compares E[sum of a.T Gamma_t a] with its log-det bound,
exactly over the outcome lattice of :mod:`ellipsim.potential` or by Monte
Carlo.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .bandit import (
    ACTION_RULES,
    REGRET_POLICIES,
    ActionSetGenerator,
    EpisodeFailure,
    EpisodeResult,
    check_episode,
    run_episode,
)
from .distributions import FiniteSupportPrior, Noise, Prior
from .linalg import PsdMatrix, psd_order_holds
from .posterior import EngineConfig, check_engine_compatible
from .potential import (
    _exact_potential,
    check_ridge,
    gamma1_eigs,
    identity_cap_excess,
    monte_carlo_margin,
    potential_bound,
    regret_bound,
    regret_bound_identity_cap,
    ridge_potential_bound,
    ridge_replay_excess,
    sigma_factor,
)
from .tolerances import (
    INEQUALITY_SLACK,
    REPLICATION_FAILURE_SHARE,
    RIDGE_POTENTIAL_SLACK,
)

CURVE_POINT_LIMIT = 10_000
CURVE_POINTS_WHEN_SUBSAMPLED = 1000

# the Monte Carlo standard error needs at least two replications
MONTE_CARLO_MIN_REPLICATIONS = 2
EXACT_NODE_LIMIT = 2**12 - 1  # the unmerged binary tree of horizon 12


class ExcessiveFailures(RuntimeError):
    """More than the budgeted share of replications failed."""


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    Construction is the one check of the run: an engine that can represent
    its prior and noise (checked first, raising
    :class:`~ellipsim.posterior.IncompatibleEngine`), then the limits below
    and :func:`~ellipsim.bandit.check_episode`, so every episode
    ``run_episode(cfg, rng)`` plays is checked already.
    :func:`run_experiment` and :func:`verify_expected_potential` both take
    one; for the verifier ``policy`` is the action rule. ``lam`` is eq. 1's
    ridge, which only the regret job replays.
    """

    prior: Prior
    noise: Noise
    engine: EngineConfig
    actions: ActionSetGenerator
    horizon: int
    replications: int
    master_seed: int = 0
    workers: int = 1
    policy: str = "lints"
    lam: float = 1.0

    def __post_init__(self):
        check_engine_compatible(self.prior, self.noise, self.engine)
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.replications < 1:
            raise ValueError(
                f"replications must be >= 1, got {self.replications}"
            )
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        check_ridge(self.lam)
        check_episode(self.prior, self.noise, self.actions, self.policy)


@dataclass
class RunSummary:
    """Reduced results of one experiment; every field is serialized.

    It holds no timing, so summaries from identical configs are
    byte-identical across reruns.
    """

    config: Dict
    dim: int
    horizon: int
    replications: int
    completed: int
    failed: int
    failures: List[Dict]
    master_seed: int
    sigma_factor: float
    gamma1_eigs: List[float]
    gamma1_within_identity: bool
    ts: List[int]
    mean_regret: List[float]
    stderr_regret: List[float]
    mean_gamma_quad: List[float]
    running_gamma_sum: List[float]
    final_mean_regret: float
    final_stderr_regret: float
    potential_sum_mean: float
    potential_sum_stderr: float
    eq1_max_violation: float
    bounds: Dict[str, Optional[float]]
    checks: Dict[str, Optional[bool]]

    FORMAT = "ellipsim-summary-v6"

    def to_dict(self) -> Dict:
        # shallow: the fields are JSON-ready already, and asdict's deep copy
        # of the config echo costs milliseconds at d = 100
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"format": self.FORMAT, **data}

    @property
    def all_checks_pass(self) -> bool:
        """No verdict is ``False``. Every run computes all four; the one
        ``None`` is ``pass_remark33`` when ``Gamma_1 <= I`` does not hold,
        where remark 3.3 is not applicable."""
        return all(v is not False for v in self.checks.values())


def _replicate(cfg: ExperimentConfig, record: Callable[..., Dict], rep: int) -> Dict:
    """Run one replication; returns ``record(cfg, episode)``, the arrays
    a job keeps of it, or an error record.

    An :class:`~ellipsim.bandit.EpisodeFailure`, a degraded engine, gives
    the error record; every other episode error propagates as itself.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, rep]))
    try:
        episode = run_episode(cfg, rng)
    except EpisodeFailure as exc:
        return {
            "replication": rep,
            "round": exc.round_index,
            "error_type": type(exc.cause).__name__,
            "message": str(exc.cause),
        }
    return record(cfg, episode)


def _potential_record(cfg: ExperimentConfig, episode: EpisodeResult) -> Dict:
    """The verifier's record: the posterior quadratic forms only."""
    return {"gamma_quads": np.asarray(episode.trace.gamma_quads)}


def _regret_record(cfg: ExperimentConfig, episode: EpisodeResult) -> Dict:
    """The regret job's record, with eq. 1's excess from a ridge tracker
    replayed over the episode's actions."""
    return {
        **_potential_record(cfg, episode),
        "cumulative_regret": episode.cumulative_regret,
        "eq1_excess": ridge_replay_excess(episode.actions, cfg.lam),
    }


def _run_replications(
    cfg: ExperimentConfig, record: Callable[..., Dict]
) -> Tuple[List[Dict], List[Dict]]:
    """Run every replication in index order; returns (successes, failures).

    The pool has ``min(cfg.workers, cfg.replications)`` processes, and a
    pool of one is no pool: those replications run in this process. Past
    ``REPLICATION_FAILURE_SHARE`` failures raise :class:`ExcessiveFailures`.
    """
    reps = range(cfg.replications)
    job = partial(_replicate, cfg, record)
    workers = min(cfg.workers, cfg.replications)
    if workers > 1:
        # imported here: an in-process run never loads the pool machinery
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, cfg.replications // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            raw = list(pool.map(job, reps, chunksize=chunk))
    else:
        raw = [job(rep) for rep in reps]
    failures = [r for r in raw if "error_type" in r]
    successes = [r for r in raw if "error_type" not in r]
    if len(failures) > REPLICATION_FAILURE_SHARE * cfg.replications:
        raise ExcessiveFailures(
            f"{len(failures)} of {cfg.replications} replications failed; "
            f"first: {failures[0]['error_type']}: {failures[0]['message']}"
        )
    return successes, failures


def _stderr(samples: np.ndarray) -> np.ndarray:
    """Monte Carlo standard error of the mean over axis 0,
    ``std(ddof=1) / sqrt(n)``; zero for a single sample, which has no
    spread estimate."""
    n = samples.shape[0]
    if n == 1:
        return np.zeros_like(samples[0])
    return samples.std(axis=0, ddof=1) / np.sqrt(n)


def _potential_stats(successes: List[Dict]) -> Tuple[np.ndarray, float, float]:
    """Per-round mean quad form, mean per-replication total and its stderr."""
    gammas = np.stack([r["gamma_quads"] for r in successes])
    totals = gammas.sum(axis=1)
    return gammas.mean(axis=0), float(totals.mean()), float(_stderr(totals))


def _curve_ts(horizon: int) -> np.ndarray:
    if horizon <= CURVE_POINT_LIMIT:
        return np.arange(1, horizon + 1)
    pts = np.linspace(1, horizon, CURVE_POINTS_WHEN_SUBSAMPLED)
    return np.unique(np.round(pts).astype(int))


def run_experiment(cfg: ExperimentConfig) -> RunSummary:
    """Run all replications of an experiment and reduce them.

    Failures follow :func:`_run_replications`. The reduction walks
    replications in index order, so worker count never changes results.
    ``cfg.policy`` must be one of ``REGRET_POLICIES``.
    """
    if cfg.policy not in REGRET_POLICIES:
        raise ValueError(f"unknown policy {cfg.policy!r}")
    # config imports this module
    from .config import experiment_to_dict

    config_echo = experiment_to_dict(cfg)
    successes, failures = _run_replications(cfg, _regret_record)
    regret = np.stack([r["cumulative_regret"] for r in successes])

    ts = _curve_ts(cfg.horizon)
    idx = ts - 1
    mean_regret = regret.mean(axis=0)
    stderr_regret = _stderr(regret)
    mean_gamma, potential_mean, potential_stderr = _potential_stats(successes)
    running_gamma = np.cumsum(mean_gamma)

    _, gamma1 = cfg.prior.moments()
    eigs = gamma1_eigs(gamma1)
    factor = sigma_factor(cfg.noise.sigma_sq_bound)
    dim = gamma1.dim
    horizon = cfg.horizon
    within_identity = psd_order_holds(gamma1, PsdMatrix.identity(dim))

    bounds: Dict[str, Optional[float]] = {
        "eq1_rhs": ridge_potential_bound(horizon, dim, cfg.lam),
        "thm23_rhs": potential_bound(horizon, factor, eigs),
        "eq4_rhs": regret_bound(horizon, dim, factor, eigs),
        "remark33_rhs": (
            regret_bound_identity_cap(horizon, dim, factor)
            if within_identity
            else None
        ),
    }

    eq1_violation = max(r["eq1_excess"] for r in successes)

    final_mean = float(mean_regret[-1])
    final_stderr = float(stderr_regret[-1])
    checks: Dict[str, Optional[bool]] = {
        "pass_eq1": bool(eq1_violation <= RIDGE_POTENTIAL_SLACK),
        "pass_thm23": bool(
            monte_carlo_margin(potential_mean, potential_stderr, bounds["thm23_rhs"])
            >= 0.0
        ),
        "pass_eq4": bool(
            monte_carlo_margin(final_mean, final_stderr, bounds["eq4_rhs"]) >= 0.0
        ),
        "pass_remark33": (
            bool(identity_cap_excess(horizon, eigs) <= INEQUALITY_SLACK)
            if within_identity
            else None
        ),
    }

    return RunSummary(
        config=config_echo,
        dim=dim,
        horizon=horizon,
        replications=cfg.replications,
        completed=len(successes),
        failed=len(failures),
        failures=failures,
        master_seed=cfg.master_seed,
        sigma_factor=factor,
        gamma1_eigs=eigs.tolist(),
        gamma1_within_identity=bool(within_identity),
        ts=ts.tolist(),
        mean_regret=mean_regret[idx].tolist(),
        stderr_regret=stderr_regret[idx].tolist(),
        mean_gamma_quad=mean_gamma[idx].tolist(),
        running_gamma_sum=running_gamma[idx].tolist(),
        final_mean_regret=final_mean,
        final_stderr_regret=final_stderr,
        potential_sum_mean=potential_mean,
        potential_sum_stderr=potential_stderr,
        eq1_max_violation=float(eq1_violation),
        bounds=bounds,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# expected-potential verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one expected-potential verification."""

    dim: int
    horizon: int
    replications: int
    exact: bool
    sigma_sq: float
    sigma_factor: float
    mean_total: float
    stderr_total: float
    bound: float
    holds: bool
    per_round_mean: List[float]
    gamma1_eigs: List[float]
    failed_replications: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def takes_exact_path(cfg: ExperimentConfig) -> bool:
    """Whether the verifier takes the exact outcome lattice of
    :mod:`ellipsim.potential`, else the Monte Carlo path; a Monte Carlo
    run with too few replications raises ``ValueError``.

    The lattice needs a finite-support prior, finitely many noise
    outcomes, the adversarial rule (deterministic in the state) and at
    most ``EXACT_NODE_LIMIT`` nodes in the worst case. With k outcomes,
    H rounds and d = 1 the action is always [1], so a node is a multiset
    of outcomes: at most C(H + k - 1, k) nodes. In d >= 2 nothing need
    merge, so the worst case is the full tree, (k^H - 1) / (k - 1) nodes.
    Bernoulli noise is exact up to H = 90 in d = 1 and H = 12 in d >= 2.
    In d >= 2 its adversarial directions may drive a reward mean out of
    [0, 1]; nothing here checks that, and the lattice then raises
    ``MeanOutOfRange`` where it first branches on such a direction.
    """
    prior, outcomes, horizon = cfg.prior, cfg.noise.finite_outcomes, cfg.horizon
    if (
        cfg.policy == "adversarial"
        and outcomes is not None
        and isinstance(prior, FiniteSupportPrior)
    ):
        k = len(outcomes)
        if prior.dim == 1:
            nodes = math.comb(horizon + k - 1, k)
        else:
            nodes = (k**horizon - 1) // (k - 1)
        if nodes <= EXACT_NODE_LIMIT:
            return True
    if cfg.replications < MONTE_CARLO_MIN_REPLICATIONS:
        raise ValueError(
            f"the Monte Carlo path needs >= {MONTE_CARLO_MIN_REPLICATIONS} "
            f"replications, got {cfg.replications}"
        )
    return False


def verify_expected_potential(cfg: ExperimentConfig) -> VerificationReport:
    """Estimate E[sum of a.T Gamma_t a] and compare it to the log-det bound.

    ``cfg.policy`` is the action rule: "adversarial" (top eigendirection of
    the posterior covariance, over the unit sphere) or "lints" (posterior
    sampling over the sets ``cfg.actions`` draws). Uses the exact outcome
    lattice when :func:`takes_exact_path`; otherwise averages the posterior
    quadratic forms of ``cfg.replications`` episodes through the same
    driver and failure rule as :func:`run_experiment` (degraded engines
    count in ``failed_replications``), and replays no ridge tracker. The bound
    holds when :func:`~ellipsim.potential.monte_carlo_margin` is >= 0, or
    on the exact path when mean <= bound + ``INEQUALITY_SLACK``.
    """
    if cfg.policy not in ACTION_RULES:
        raise ValueError(f"unknown action rule {cfg.policy!r}")
    prior, noise, horizon = cfg.prior, cfg.noise, cfg.horizon
    _, gamma1 = prior.moments()
    factor = sigma_factor(noise.sigma_sq_bound)
    eigs = gamma1_eigs(gamma1)
    bound = potential_bound(horizon, factor, eigs)
    report = partial(
        VerificationReport,
        dim=gamma1.dim,
        horizon=horizon,
        sigma_sq=noise.sigma_sq_bound,
        sigma_factor=factor,
        bound=bound,
        gamma1_eigs=eigs.tolist(),
    )

    if takes_exact_path(cfg):
        per_round, total, _ = _exact_potential(prior, noise, horizon)
        return report(
            replications=0,
            exact=True,
            mean_total=total,
            stderr_total=0.0,
            holds=bool(total <= bound + INEQUALITY_SLACK),
            per_round_mean=per_round.tolist(),
        )

    successes, failures = _run_replications(cfg, _potential_record)
    per_round, mean_total, stderr_total = _potential_stats(successes)
    return report(
        replications=len(successes),
        exact=False,
        mean_total=mean_total,
        stderr_total=stderr_total,
        holds=bool(monte_carlo_margin(mean_total, stderr_total, bound) >= 0.0),
        per_round_mean=per_round.tolist(),
        failed_replications=len(failures),
    )
