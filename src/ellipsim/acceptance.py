"""The acceptance gate: eleven runnable criteria that define done.

:data:`CRITERIA` is the one place a criterion's number and name are
written. Each criterion function takes the seed and returns
``(passed, message)``; :func:`run_criterion` times it and builds the
:class:`CriterionResult`, so the same registry backs both the pytest
suite and the ``acceptance`` CLI subcommand. Where the package has a
verdict or margin, a criterion reads it rather than restating it.
Criteria are independent: each builds its own configuration and seeds,
and none relies on another having run.
"""
from __future__ import annotations

import filecmp
import os
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Callable, List, Tuple

import numpy as np

from .bandit import KArmedGaussianGenerator, UnitSphereGenerator, run_episode
from .config import env_workers
from .distributions import (
    BernoulliMeanNoise,
    FiniteSupportPrior,
    GaussianNoise,
    GaussianPrior,
    StudentTNoise,
)
from .harness import ExperimentConfig, run_experiment, verify_expected_potential
from .linalg import PsdMatrix, psd_order_holds, random_psd, unit_rows
from .posterior import (
    EngineConfig,
    InflationReport,
    ParticleState,
    counterexample_prior,
    counterexample_report,
)
from .potential import gamma1_eigs, identity_cap_excess
from .reporting import write_bandit_outputs
from .tolerances import INEQUALITY_SLACK, MONTE_CARLO_SLACK_SE
from .verify import run_check

# what a criterion function returns: (passed, message)
Verdict = Tuple[bool, str]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    runtime_seconds: float
    message: str = ""

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"[{self.number:>2}/11] {self.name:<26} {status}  ({self.runtime_seconds:.1f} s)"
        if self.message and not self.passed:
            line += f"\n        {self.message}"
        return line


def _eight_atom_prior(seed_key: int, nonnegative: bool) -> FiniteSupportPrior:
    """Seeded 8-atom prior in the unit ball of R^3."""
    rng = np.random.default_rng(np.random.SeedSequence([77, seed_key]))
    atoms = rng.standard_normal((8, 3))
    if nonnegative:
        atoms = np.abs(atoms)
    atoms = unit_rows(atoms) * rng.uniform(0.3, 1.0, size=(8, 1))
    weights = rng.dirichlet(np.ones(8))
    return FiniteSupportPrior(atoms=atoms, weights=weights)


def config_gaussian_d5(seed: int = 0) -> ExperimentConfig:
    """d=5 Gaussian prior and noise, 20 fresh arms per round, T=1000."""
    return ExperimentConfig(
        prior=GaussianPrior(mean=np.zeros(5), cov=PsdMatrix.identity(5)),
        noise=GaussianNoise(sd=1.0),
        engine=EngineConfig(kind="gaussian_conjugate"),
        actions=KArmedGaussianGenerator(k=20, dim=5),
        horizon=1000,
        replications=200,
        master_seed=seed + 81001,
        workers=env_workers(default=1),
    )


def config_bernoulli_d3(seed: int = 0) -> ExperimentConfig:
    """d=3 finite-support prior, Bernoulli rewards, T=500."""
    return ExperimentConfig(
        prior=_eight_atom_prior(1, nonnegative=True),
        noise=BernoulliMeanNoise(),
        engine=EngineConfig(kind="finite_support"),
        actions=KArmedGaussianGenerator(k=10, dim=3, nonnegative=True),
        horizon=500,
        replications=500,
        master_seed=seed + 81002,
        workers=env_workers(default=1),
    )


def config_student_t_d3(seed: int = 0) -> ExperimentConfig:
    """d=3 finite-support prior, heavy-tailed rewards, T=500."""
    return ExperimentConfig(
        prior=_eight_atom_prior(2, nonnegative=False),
        noise=StudentTNoise(dof=3.0, scale=1.0),
        engine=EngineConfig(kind="finite_support"),
        actions=KArmedGaussianGenerator(k=10, dim=3),
        horizon=500,
        replications=500,
        master_seed=seed + 81003,
        workers=env_workers(default=1),
    )


def _fuzz(*names: str) -> Callable[[int], Verdict]:
    """A criterion that runs the named :data:`~ellipsim.verify.CHECKS` at
    their default instance counts and passes when every one does."""

    def criterion(seed: int) -> Verdict:
        reports = [run_check(name, seed) for name in names]
        message = "; ".join(
            f"{r.name} violated by {r.max_violation:.3e} (tol {r.tolerance:.1e})"
            for r in reports
            if not r.passed
        )
        return all(r.passed for r in reports), message

    return criterion


def counterexample_reference_problems(report: InflationReport) -> List[str]:
    """The reference checks on the inflation example after outcome 1.

    Both hold for every p: the posterior must be uniform on {1/4, 3/4}, and
    its variance must equal the pinned reference value 0.25 exactly.
    Returns one message per failed check.
    """
    problems: List[str] = []
    uniform_ok = bool(
        np.allclose(report.posterior_weights, [0.0, 0.5, 0.5], atol=1e-12)
    )
    if not uniform_ok:
        problems.append(
            f"posterior weights {report.posterior_weights.tolist()} are not "
            "uniform on the surviving points"
        )
    pinned_ok = report.posterior_variance == 0.25
    if not pinned_ok:
        problems.append(
            f"posterior variance measured {report.posterior_variance:.12g} "
            "(exact Bayes gives 1/16); the pinned reference value 0.25 is not "
            "attained. Note 0.25 is the square root of the measured value, "
            "i.e. the posterior standard deviation rather than the variance."
        )
    return problems


def counterexample_criterion(seed: int = 0) -> Verdict:
    """One exact Bayes update of the scalar inflation example at p=0.05.

    Sub-claims, in order: the reference checks of
    :func:`counterexample_reference_problems` (posterior uniform on
    {1/4, 3/4} after outcome 1, posterior variance equal to the pinned
    reference value 0.25 exactly); prior variance 0.031875 against an
    independent arithmetic oracle; variance inflation flagged.
    """
    p = 0.05
    report = counterexample_report(p, outcome=1.0)

    # independent oracle: direct weighted sums over the three support points
    atoms = np.array([0.0, 0.25, 0.75])
    weights = np.array([1.0 - 4.0 * p, 3.0 * p, p])
    oracle_mean = float(weights @ atoms)
    oracle_prior_var = float(weights @ (atoms - oracle_mean) ** 2)

    problems = counterexample_reference_problems(report)
    prior_var_ok = (
        abs(report.prior_variance - 0.031875) <= 1e-12
        and abs(report.prior_variance - oracle_prior_var) <= 1e-15
    )
    if not prior_var_ok:
        problems.append(
            f"prior variance {report.prior_variance!r} != 0.031875 oracle"
        )
    if not report.variance_inflated:
        problems.append("variance inflation flag is not set")
    return not problems, "; ".join(problems)


def exact_tree_criterion(seed: int = 0) -> Verdict:
    """Exhaustive-outcome expectation of the potential sum, 100 scalar priors."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 5]))
    noise = BernoulliMeanNoise()
    horizon = 10
    worst = -np.inf
    passed = True
    for i in range(100):
        if i == 0:
            prior = counterexample_prior(0.05)
        elif rng.random() < 0.3:
            prior = counterexample_prior(float(rng.uniform(0.01, 0.24)))
        else:
            n = int(rng.integers(2, 5))
            atoms = np.sort(rng.uniform(0.0, 1.0, size=n))[:, None]
            prior = FiniteSupportPrior(atoms=atoms, weights=rng.dirichlet(np.ones(n)))
        report = verify_expected_potential(
            ExperimentConfig(
                prior=prior,
                noise=noise,
                engine=EngineConfig(kind="finite_support"),
                actions=UnitSphereGenerator(dim=1),
                horizon=horizon,
                replications=1,
                master_seed=seed,
                policy="adversarial",
            )
        )
        if not report.exact:
            raise RuntimeError("expected the exact enumeration path")
        worst = max(worst, report.mean_total - report.bound)
        passed = passed and report.holds
    message = "" if passed else f"expectation exceeded the bound by {worst:.3e}"
    return passed, message


def monte_carlo_criterion(seed: int = 0) -> Verdict:
    """Monte Carlo potential check: d=3, 8 atoms, T=200, 500 replications."""
    prior = _eight_atom_prior(6, nonnegative=False)
    report = verify_expected_potential(
        ExperimentConfig(
            prior=prior,
            noise=GaussianNoise(sd=0.5),
            engine=EngineConfig(kind="finite_support"),
            actions=UnitSphereGenerator(dim=prior.dim),
            horizon=200,
            replications=500,
            master_seed=seed + 6,
            workers=env_workers(default=1),
            policy="adversarial",
        )
    )
    return report.holds, "" if report.holds else (
        f"mean {report.mean_total:.6g} exceeds bound {report.bound:.6g} "
        f"+ {MONTE_CARLO_SLACK_SE:g} stderr {report.stderr_total:.3g}"
    )


def regret_bounds_criterion(seed: int = 0) -> Verdict:
    """Mean regret + 3 stderr below the square-root bound, three setups."""
    problems: List[str] = []
    for label, cfg in (
        ("gaussian_d5", config_gaussian_d5(seed)),
        ("bernoulli_d3", config_bernoulli_d3(seed)),
        ("student_t_d3", config_student_t_d3(seed)),
    ):
        summary = run_experiment(cfg)
        mean, stderr = summary.final_mean_regret, summary.final_stderr_regret
        bound = summary.bounds["eq4_rhs"]
        if not summary.checks["pass_eq4"]:
            problems.append(
                f"{label}: regret {mean:.4g} "
                f"+ {MONTE_CARLO_SLACK_SE:g} x {stderr:.4g} exceeds {bound:.4g}"
            )
    return not problems, "; ".join(problems)


def identity_cap_criterion(seed: int = 0) -> Verdict:
    """log det(I + T Gamma_1) <= d log(1 + T) whenever Gamma_1 <= I."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 9]))
    worst = -np.inf
    cases = []
    for cfg in (config_gaussian_d5(seed), config_bernoulli_d3(seed), config_student_t_d3(seed)):
        _, gamma1 = cfg.prior.moments()
        cases.append((gamma1, cfg.horizon))
    prior6 = _eight_atom_prior(6, nonnegative=False)
    cases.append((prior6.moments()[1], 200))
    for _ in range(200):
        dim = int(rng.integers(1, 7))
        gamma = random_psd(dim, 1.0, rng)
        horizon = int(rng.integers(1, 10_001))
        cases.append((gamma, horizon))
    for gamma, horizon in cases:
        if not psd_order_holds(gamma, PsdMatrix.identity(gamma.dim)):
            continue
        worst = max(worst, identity_cap_excess(horizon, gamma1_eigs(gamma)))
    passed = worst <= INEQUALITY_SLACK
    return passed, "" if passed else f"cap violated by {worst:.3e}"


def engine_cross_validation_criterion(seed: int = 0) -> Verdict:
    """Particle filter against the conjugate engine on replayed episodes.

    Episode parameters are chosen so the terminal posterior still contracts
    (variance roughly 3x below the prior) while staying within reach of a
    20,000-particle filter that never rejuvenates its support: a sharper
    likelihood collapses the surviving atom count and the worst-of-20 mean
    error blows through the tolerance.
    """
    prior = GaussianPrior(mean=np.zeros(3), cov=PsdMatrix.unchecked(0.25 * np.eye(3)))
    noise = GaussianNoise(sd=2.5)
    cfg = ExperimentConfig(
        prior=prior,
        noise=noise,
        engine=EngineConfig(kind="gaussian_conjugate"),
        actions=KArmedGaussianGenerator(k=10, dim=3),
        horizon=100,
        replications=20,
    )
    worst_mean = 0.0
    worst_cov = 0.0
    for episode_seed in range(cfg.replications):
        rng = np.random.default_rng(np.random.SeedSequence([seed + 4040, episode_seed]))
        episode = run_episode(cfg, rng)
        exact = episode.final_state
        particle_rng = np.random.default_rng(
            np.random.SeedSequence([seed + 4041, episode_seed])
        )
        particle = ParticleState(prior, noise, particle_rng, n_particles=20_000)
        for action, reward in zip(episode.actions, episode.rewards):
            particle.update(action, float(reward))
        mean_err = float(np.linalg.norm(particle.mean() - exact.mean()))
        cov_err = float(
            np.linalg.norm(particle.covariance().mat - exact.covariance().mat)
        )
        worst_mean = max(worst_mean, mean_err)
        worst_cov = max(worst_cov, cov_err)
    passed = worst_mean <= 0.02 and worst_cov <= 0.05
    return passed, "" if passed else (
        f"worst mean error {worst_mean:.4g} (limit 0.02), "
        f"worst covariance error {worst_cov:.4g} (limit 0.05)"
    )


def determinism_criterion(seed: int = 0) -> Verdict:
    """Identical seeds must give byte-identical artifacts at any worker
    count: two runs, the second at another worker count (1 when the first
    pools, else 2), each written by ``run-bandit``'s own writer, must write
    the same files with the same bytes."""
    cfg = config_bernoulli_d3(seed)
    other = replace(cfg, workers=1 if cfg.workers > 1 else 2)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first"), os.path.join(tmp, "second")
        for out, run in ((first, cfg), (second, other)):
            write_bandit_outputs(out, run_experiment(run))
        names = sorted(set(os.listdir(first)) | set(os.listdir(second)))
        # a file missing on one side cannot be compared, and differs
        _, mismatched, missing = filecmp.cmpfiles(first, second, names, shallow=False)
    differ = sorted(mismatched + missing)
    return not differ, "" if not differ else f"files differ: {', '.join(differ)}"


CRITERIA: Tuple[Tuple[int, str, Callable[[int], Verdict]], ...] = (
    (1, "classical-potential", _fuzz("classical-potential")),
    (
        2,
        "logdet-properties",
        _fuzz("logdet-concavity", "logdet-variational", "logdet-shift"),
    ),
    (3, "variance-reduction", _fuzz("variance-reduction")),
    (4, "counterexample-exact", counterexample_criterion),
    (5, "potential-exact-tree", exact_tree_criterion),
    (6, "potential-monte-carlo", monte_carlo_criterion),
    (7, "trace-cauchy-schwarz", _fuzz("trace-cauchy-schwarz")),
    (8, "regret-bounds", regret_bounds_criterion),
    (9, "logdet-identity-cap", identity_cap_criterion),
    (10, "engine-cross-validation", engine_cross_validation_criterion),
    (11, "determinism", determinism_criterion),
)


def run_criterion(number: int, seed: int = 0) -> CriterionResult:
    """Run the numbered criterion, timed, and report it under its registry name."""
    for num, name, func in CRITERIA:
        if num == number:
            start = time.perf_counter()
            passed, message = func(seed)
            return CriterionResult(
                number=num,
                name=name,
                passed=passed,
                runtime_seconds=time.perf_counter() - start,
                message=message,
            )
    raise ValueError(f"no criterion numbered {number}")
