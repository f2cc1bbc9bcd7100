"""Replicated experiments, the expected-potential verifier and their results.

Both jobs take one :class:`ExperimentConfig`, as ``run_experiment(cfg)``
and ``verify_expected_potential(cfg)``, and replicate
:func:`~ellipsim.bandit.run_episode` through one driver,
:func:`_run_replications`, which seeds each episode from
(master_seed, replication index), applies one failure rule and returns
episodes in index order, so results never depend on the worker count.
Regret summaries carry the regret and potential curves, the analytic
bound values and one-sided pass flags with Monte Carlo slack of
``tolerances.MONTE_CARLO_SLACK_SE`` standard errors. The verifier
compares E[sum of a.T Gamma_t a] with its log-det bound, exactly over
the outcome lattice of :mod:`ellipsim.potential` or by Monte Carlo.
"""
from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Tuple

import numpy as np

from .bandit import (
    ACTION_RULES,
    REGRET_POLICIES,
    ActionSetGenerator,
    EpisodeFailure,
    check_episode,
    run_episode,
)
from .distributions import Noise, Prior
from .linalg import CholeskyFailure, PsdMatrix, psd_order_holds
from .posterior import DegenerateWeights, EngineConfig
from .potential import (
    _exact_potential,
    exact_path_applies,
    gamma1_eigs,
    identity_cap_excess,
    potential_bound,
    regret_bound,
    regret_bound_identity_cap,
    ridge_potential_bound,
    sigma_factor,
    thm23_margin,
)
from .tolerances import (
    INEQUALITY_SLACK,
    MONTE_CARLO_SLACK_SE,
    REPLICATION_FAILURE_SHARE,
    RIDGE_POTENTIAL_SLACK,
)

CURVE_POINT_LIMIT = 10_000
CURVE_POINTS_WHEN_SUBSAMPLED = 1000

KNOWN_CHECKS = ("eq1", "thm23", "eq4", "remark33")
# the Monte Carlo standard error needs at least two replications
MONTE_CARLO_MIN_REPLICATIONS = 2


class ExcessiveFailures(RuntimeError):
    """More than the budgeted share of replications failed."""


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    Any episode :func:`~ellipsim.bandit.run_episode` plays, ``lam=None`` too.
    :func:`run_experiment` and :func:`verify_expected_potential` both take
    one; for the verifier ``policy`` is the action rule.
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
    lam: Optional[float] = 1.0
    bound_checks: Tuple[str, ...] = KNOWN_CHECKS

    def __post_init__(self):
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
        if self.lam is not None and not self.lam >= 1.0:
            raise ValueError(f"lam must be >= 1, got {self.lam}")
        unknown = set(self.bound_checks) - set(KNOWN_CHECKS)
        if unknown:
            raise ValueError(f"unknown bound checks: {sorted(unknown)}")
        check_episode(self.prior, self.noise, self.actions, self.policy)


@dataclass
class RunSummary:
    """Reduced results of one experiment.

    ``wall_time_seconds`` is informational only and deliberately left out
    of :meth:`to_dict`, so serialized summaries from identical configs are
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
    wall_time_seconds: float = field(default=0.0, compare=False)

    FORMAT = "ellipsim-summary-v2"

    def to_dict(self) -> Dict:
        data = asdict(self)
        del data["wall_time_seconds"]
        return {"format": self.FORMAT, **data}

    @property
    def all_checks_pass(self) -> bool:
        return all(v is not False for v in self.checks.values())


def _replicate(cfg: ExperimentConfig, rep: int) -> Dict:
    """Run one replication; returns reduced arrays or an error record.

    Only a degraded engine gives a record; other episode errors are raised.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.master_seed, rep]))
    try:
        episode = run_episode(
            cfg.prior,
            cfg.noise,
            cfg.actions,
            cfg.engine,
            cfg.horizon,
            rng,
            policy=cfg.policy,
            lam=cfg.lam,
        )
    except EpisodeFailure as exc:
        if not isinstance(exc.cause, (DegenerateWeights, CholeskyFailure)):
            raise exc.cause from None
        return {
            "replication": rep,
            "round": exc.round_index,
            "error_type": type(exc.cause).__name__,
            "message": str(exc.cause),
        }
    trace = episode.trace
    return {
        "cumulative_regret": episode.cumulative_regret,
        "gamma_quads": np.asarray(trace.gamma_quads),
        "sigma_sum": trace.sigma_sum,
        "sigma_logdet_rhs": (
            None if trace.classical is None else trace.classical.logdet_bound()
        ),
    }


def _run_replications(cfg: ExperimentConfig) -> Tuple[List[Dict], List[Dict]]:
    """Run every replication in index order; returns (successes, failures).

    Past ``REPLICATION_FAILURE_SHARE`` failures raise :class:`ExcessiveFailures`.
    """
    reps = range(cfg.replications)
    if cfg.workers > 1:
        chunk = max(1, cfg.replications // (cfg.workers * 4))
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            raw = list(pool.map(partial(_replicate, cfg), reps, chunksize=chunk))
    else:
        raw = [_replicate(cfg, rep) for rep in reps]
    failures = [r for r in raw if "error_type" in r]
    successes = [r for r in raw if "error_type" not in r]
    if len(failures) > REPLICATION_FAILURE_SHARE * cfg.replications:
        raise ExcessiveFailures(
            f"{len(failures)} of {cfg.replications} replications failed; "
            f"first: {failures[0]['error_type']}: {failures[0]['message']}"
        )
    return successes, failures


def _potential_stats(successes: List[Dict]) -> Tuple[np.ndarray, float, float]:
    """Per-round mean quad form, mean per-replication total and its stderr."""
    gammas = np.stack([r["gamma_quads"] for r in successes])
    totals = gammas.sum(axis=1)
    n = len(successes)
    stderr = float(totals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return gammas.mean(axis=0), float(totals.mean()), stderr


def _curve_ts(horizon: int) -> np.ndarray:
    if horizon <= CURVE_POINT_LIMIT:
        return np.arange(1, horizon + 1)
    pts = np.linspace(1, horizon, CURVE_POINTS_WHEN_SUBSAMPLED)
    return np.unique(np.round(pts).astype(int))


def run_experiment(cfg: ExperimentConfig) -> RunSummary:
    """Run all replications of an experiment and reduce them.

    Failures follow :func:`_run_replications`. The reduction walks
    replications in index order, so worker count never changes results.
    The eq1 check needs the ridge tracker, so ``cfg.lam`` must be set,
    and ``cfg.policy`` must be one of ``REGRET_POLICIES``.
    """
    if cfg.lam is None:
        raise ValueError("run_experiment reports eq1 and needs a ridge lam")
    if cfg.policy not in REGRET_POLICIES:
        raise ValueError(f"unknown policy {cfg.policy!r}")
    start = time.perf_counter()
    # config imports this module
    from .config import experiment_to_dict

    config_echo = experiment_to_dict(cfg)
    successes, failures = _run_replications(cfg)
    regret = np.stack([r["cumulative_regret"] for r in successes])
    n = regret.shape[0]

    ts = _curve_ts(cfg.horizon)
    idx = ts - 1
    mean_regret = regret.mean(axis=0)
    # a singleton run has no spread estimate; report zero rather than nan
    if n > 1:
        stderr_regret = regret.std(axis=0, ddof=1) / np.sqrt(n)
    else:
        stderr_regret = np.zeros_like(mean_regret)
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

    # every completed episode ran the full horizon, so the ridge log-det
    # bound of each is compared with the one eq1 right-hand side
    eq1_violation = max(
        max(r["sigma_sum"] - r["sigma_logdet_rhs"] for r in successes),
        max(r["sigma_logdet_rhs"] for r in successes) - bounds["eq1_rhs"],
    )

    final_mean = float(mean_regret[-1])
    final_stderr = float(stderr_regret[-1])
    checks: Dict[str, Optional[bool]] = {}
    for name in KNOWN_CHECKS:
        key = f"pass_{name}"
        if name not in cfg.bound_checks:
            checks[key] = None
        elif name == "eq1":
            checks[key] = bool(eq1_violation <= RIDGE_POTENTIAL_SLACK)
        elif name == "thm23":
            margin = thm23_margin(potential_mean, potential_stderr, bounds["thm23_rhs"])
            checks[key] = bool(margin >= 0.0)
        elif name == "eq4":
            checks[key] = bool(
                final_mean + MONTE_CARLO_SLACK_SE * final_stderr <= bounds["eq4_rhs"]
            )
        else:
            checks[key] = (
                bool(identity_cap_excess(horizon, eigs) <= INEQUALITY_SLACK)
                if within_identity
                else None
            )

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
        gamma1_eigs=[float(v) for v in eigs],
        gamma1_within_identity=bool(within_identity),
        ts=[int(t) for t in ts],
        mean_regret=[float(v) for v in mean_regret[idx]],
        stderr_regret=[float(v) for v in stderr_regret[idx]],
        mean_gamma_quad=[float(v) for v in mean_gamma[idx]],
        running_gamma_sum=[float(v) for v in running_gamma[idx]],
        final_mean_regret=final_mean,
        final_stderr_regret=final_stderr,
        potential_sum_mean=potential_mean,
        potential_sum_stderr=potential_stderr,
        eq1_max_violation=float(eq1_violation),
        bounds=bounds,
        checks=checks,
        wall_time_seconds=time.perf_counter() - start,
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
    per_round_mean: Tuple[float, ...]
    gamma1_eigs: Tuple[float, ...]
    failed_replications: int = 0

    def to_dict(self) -> dict:
        # tuples as lists, as JSON reads them back
        return {
            k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()
        }


def verify_expected_potential(cfg: ExperimentConfig) -> VerificationReport:
    """Estimate E[sum of a.T Gamma_t a] and compare it to the log-det bound.

    ``cfg.policy`` is the action rule: "adversarial" (top eigendirection of
    the posterior covariance, over the unit sphere) or "lints" (posterior
    sampling over the sets ``cfg.actions`` draws). Uses the exact outcome
    lattice when :func:`~ellipsim.potential.exact_path_applies`; otherwise
    averages the posterior quadratic forms of ``cfg.replications``
    episodes, always with no ridge tracker, through the same driver and
    failure rule as :func:`run_experiment` (degraded engines count in
    ``failed_replications``). The bound holds when
    :func:`~ellipsim.potential.thm23_margin` is >= 0, or on the exact path
    when mean <= bound + ``INEQUALITY_SLACK``.
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
        gamma1_eigs=tuple(float(v) for v in eigs),
    )

    if exact_path_applies(prior, noise, horizon, cfg.policy):
        per_round, total = _exact_potential(prior, noise, horizon)
        return report(
            replications=0,
            exact=True,
            mean_total=total,
            stderr_total=0.0,
            holds=bool(total <= bound + INEQUALITY_SLACK),
            per_round_mean=tuple(per_round),
        )

    if cfg.replications < MONTE_CARLO_MIN_REPLICATIONS:
        raise ValueError(
            f"Monte Carlo needs >= {MONTE_CARLO_MIN_REPLICATIONS} replications, "
            f"got {cfg.replications}"
        )
    successes, failures = _run_replications(replace(cfg, lam=None))
    per_round, mean_total, stderr_total = _potential_stats(successes)
    return report(
        replications=len(successes),
        exact=False,
        mean_total=mean_total,
        stderr_total=stderr_total,
        holds=bool(thm23_margin(mean_total, stderr_total, bound) >= 0.0),
        per_round_mean=tuple(per_round),
        failed_replications=len(failures),
    )
