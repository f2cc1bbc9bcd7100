"""The expected posterior potential sum and its log-det ceiling.

The quantity of interest is E[sum_t a_t' Gamma_t a_t], the accumulated
quadratic form of actions through the evolving posterior covariance.
The claim: it never exceeds 2 max(sigma^2, 1) log det(I + T Gamma_1),
with the adversary free to pick the worst action every round.

Two verification modes below. Small discrete problems are enumerated
exactly over the full outcome tree, so the expectation carries no Monte
Carlo error at all; everything else is averaged over seeded episodes.
"""
import numpy as np

from ellipsim.bandit import UnitSphereGenerator
from ellipsim.distributions import (
    FiniteSupportPrior,
    BernoulliMeanNoise,
    GaussianNoise,
    UniformBallPrior,
)
from ellipsim.harness import ExperimentConfig, verify_expected_potential
from ellipsim.posterior import EngineConfig

# exact path: three scalar atoms, Bernoulli rewards, horizon 8. Scalar
# atoms keep every probed mean inside [0, 1] whatever the adversary does
prior = FiniteSupportPrior(
    atoms=np.array([[0.2], [0.5], [0.8]]),
    weights=np.array([0.5, 0.3, 0.2]),
)
report = verify_expected_potential(
    ExperimentConfig(
        prior=prior,
        noise=BernoulliMeanNoise(),
        engine=EngineConfig(kind="finite_support"),
        actions=UnitSphereGenerator(dim=1),
        horizon=8,
        replications=1,
        policy="adversarial",
    )
)
print("exact enumeration, finite prior + Bernoulli rewards")
print(f"  outcome tree depth   : {report.horizon}")
print(f"  expected potential   : {report.mean_total:.6f}")
print(f"  bound                : {report.bound:.6f}")
print(f"  holds                : {report.holds}")
print(f"  per-round (first 4)  : {np.round(report.per_round_mean[:4], 4)}")
print()

# Monte Carlo path: continuous prior, no enumeration possible
report = verify_expected_potential(
    ExperimentConfig(
        prior=UniformBallPrior(dim=3),
        noise=GaussianNoise(sd=1.0),
        engine=EngineConfig(kind="particle"),
        actions=UnitSphereGenerator(dim=3),
        horizon=40,
        replications=400,
        master_seed=0,
        policy="adversarial",
    )
)
print("Monte Carlo, uniform-ball prior + Gaussian noise, 400 episodes")
print(f"  mean potential sum   : {report.mean_total:.4f}")
print(f"  stderr               : {report.stderr_total:.4f}")
print(f"  bound                : {report.bound:.4f}")
print(f"  holds (3-sigma rule) : {report.holds}")
print()
print("the per-round expected quad form decays as observations accumulate:")
rounds = np.asarray(report.per_round_mean)
for t in (0, 4, 9, 19, 39):
    print(f"  round {t + 1:>2}: {rounds[t]:.4f}")
