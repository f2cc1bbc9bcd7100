"""Bayesian linear bandit simulator.

Numerically verifies log-det potential inequalities for posterior
covariances under general priors and noise, and runs replicated
posterior-sampling bandit experiments against the resulting regret
bounds.
"""

from .bandit import (
    EpisodeResult,
    FiniteActionSet,
    FixedActionsGenerator,
    KArmedGaussianGenerator,
    UnitSphereGenerator,
    greedy_step,
    lints_step,
    optimal_action,
    run_episode,
    trace_cauchy_schwarz_check,
)
from .distributions import (
    BernoulliMeanNoise,
    FiniteSupportPrior,
    GaussianNoise,
    GaussianPrior,
    MeanOutOfRange,
    StudentTNoise,
    UniformBallPrior,
    UniformCenteredNoise,
    sample_reward,
)
from .harness import (
    ExperimentConfig,
    RunSummary,
    VerificationReport,
    run_experiment,
    verify_expected_potential,
)
from .linalg import (
    CholeskyFailure,
    PsdMatrix,
    jittered_cholesky,
    logdet_potential,
    psd_order_holds,
    random_psd,
    rank_one_shrink,
)
from .posterior import (
    DegenerateWeights,
    EngineConfig,
    FiniteSupportState,
    GaussianConjugateState,
    IncompatibleEngine,
    ParticleState,
    counterexample_prior,
    counterexample_report,
    enumerate_posterior_outcomes,
    make_posterior,
)
from .potential import ClassicalPotential, PotentialTrace, adversarial_action

__version__ = "0.1.0"

__all__ = [
    "BernoulliMeanNoise",
    "CholeskyFailure",
    "ClassicalPotential",
    "DegenerateWeights",
    "EngineConfig",
    "EpisodeResult",
    "ExperimentConfig",
    "FiniteActionSet",
    "FiniteSupportPrior",
    "FiniteSupportState",
    "FixedActionsGenerator",
    "GaussianConjugateState",
    "GaussianNoise",
    "GaussianPrior",
    "IncompatibleEngine",
    "KArmedGaussianGenerator",
    "MeanOutOfRange",
    "ParticleState",
    "PotentialTrace",
    "PsdMatrix",
    "RunSummary",
    "StudentTNoise",
    "UniformBallPrior",
    "UniformCenteredNoise",
    "UnitSphereGenerator",
    "VerificationReport",
    "adversarial_action",
    "counterexample_prior",
    "counterexample_report",
    "enumerate_posterior_outcomes",
    "greedy_step",
    "jittered_cholesky",
    "lints_step",
    "logdet_potential",
    "make_posterior",
    "optimal_action",
    "psd_order_holds",
    "random_psd",
    "rank_one_shrink",
    "run_episode",
    "run_experiment",
    "sample_reward",
    "trace_cauchy_schwarz_check",
    "verify_expected_potential",
]
