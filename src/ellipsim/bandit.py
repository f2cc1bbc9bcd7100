"""Linear bandit rounds: action sets, the sampling policy, episodes.

An episode draws the true parameter from the prior, then repeats: present
an action set, let the policy pick, observe a noisy reward and update the
posterior. The policy of interest samples a parameter from the posterior
and plays its argmax; a greedy comparator plays the argmax of the
posterior mean; the adversarial rule plays the top eigendirection of the
posterior covariance over the unit sphere. Each policy's pick, and the
optimal action, is one ``argmax`` call on the round's action set inside
:func:`run_episode`. Per-round posterior quadratic forms are recorded in a
:class:`~ellipsim.potential.PotentialTrace`. :func:`run_episode` is the
one episode loop: it plays one episode of an
:class:`~ellipsim.harness.ExperimentConfig`, whose construction ran
:func:`check_episode` once for the whole run. Both the regret experiments
and the Monte Carlo potential verifier in :mod:`ellipsim.harness` run it;
the regret job replays eq. 1's ridge tracker over the actions it returns,
by :func:`~ellipsim.potential.ridge_replay_excess`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

import numpy as np
from numpy.typing import ArrayLike

from .distributions import (
    FiniteSupportPrior,
    MeanOutOfRange,
    Noise,
    Prior,
    sample_reward,
)
from .linalg import Array, CholeskyFailure, check_unit_rows, unit_rows
from .posterior import DegenerateWeights, PosteriorState, make_posterior
from .potential import PotentialTrace, adversarial_action
from .tolerances import INEQUALITY_SLACK, NORM_SLACK, REGRET_SLACK

if TYPE_CHECKING:
    # harness imports this module
    from .harness import ExperimentConfig


# the regret job's policies and the expected-potential verifier's action
# rules; run_episode plays both sets
REGRET_POLICIES = ("lints", "greedy")
ACTION_RULES = ("adversarial", "lints")


class EmptyActionSet(ValueError):
    """An action set with no actions was presented."""


@dataclass(frozen=True, eq=False)
class FixedActionsGenerator:
    """A finite menu of unit-ball actions, one per row, and its own action
    set every round."""

    vectors: Array

    def __post_init__(self):
        arr = np.asarray(self.vectors, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"actions must be (k, d), got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise EmptyActionSet("action set has no actions")
        check_unit_rows(arr, "action")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "vectors", arr)

    @classmethod
    def unchecked(cls, vectors: Array) -> "FixedActionsGenerator":
        """Wrap a (k, d) float64 array, k >= 1, whose rows have norm <= 1.

        Skips the validation for generators that guarantee it by
        construction; the array is taken over and frozen, not copied.
        """
        obj = cls.__new__(cls)
        vectors.flags.writeable = False
        object.__setattr__(obj, "vectors", vectors)
        return obj

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def nonnegative(self) -> bool:
        return bool(np.all(self.vectors >= -NORM_SLACK))

    def sample_round(self, rng: np.random.Generator) -> "FixedActionsGenerator":
        return self

    def argmax(self, theta: ArrayLike) -> Array:
        """Best action for the given parameter; ties go to the lowest index,
        as ``ndarray.argmax`` breaks them."""
        scores = self.vectors @ np.asarray(theta, dtype=np.float64)
        return self.vectors[scores.argmax()]


@dataclass(frozen=True)
class KArmedGaussianGenerator:
    """Draws k fresh unit-norm actions each round.

    Directions come from normalized Gaussian vectors; with ``nonnegative``
    set, coordinates are folded into the nonnegative orthant first, which
    keeps inner products with nonnegative parameters in [0, 1].
    """

    k: int
    dim: int
    nonnegative: bool = False

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    def sample_round(self, rng: np.random.Generator) -> FixedActionsGenerator:
        z = rng.standard_normal((self.k, self.dim))
        if self.nonnegative:
            z = np.abs(z)
        return FixedActionsGenerator.unchecked(unit_rows(z))


@dataclass(frozen=True)
class UnitSphereGenerator:
    """The whole unit sphere, its own action set every round; argmax normalizes."""

    dim: int
    nonnegative = False

    def sample_round(self, rng: np.random.Generator) -> "UnitSphereGenerator":
        return self

    def argmax(self, theta: ArrayLike) -> Array:
        vec = np.asarray(theta, dtype=np.float64)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            out = np.zeros(self.dim)
            out[0] = 1.0
            return out
        return vec / norm


ActionSetGenerator = Union[
    FixedActionsGenerator, KArmedGaussianGenerator, UnitSphereGenerator
]


class EpisodeFailure(RuntimeError):
    """The posterior engine degraded at ``round_index``; ``cause`` is its
    ``DegenerateWeights`` or ``CholeskyFailure``."""

    def __init__(self, round_index: int, cause: Exception):
        super().__init__(f"round {round_index}: {cause}")
        self.round_index = round_index
        self.cause = cause


@dataclass(frozen=True, eq=False)
class EpisodeResult:
    """Everything recorded over one episode."""

    theta_star: Array
    actions: Array
    optimal_actions: Array
    rewards: Array
    instant_regret: Array
    cumulative_regret: Array
    trace: PotentialTrace
    final_state: PosteriorState

    @property
    def horizon(self) -> int:
        return self.actions.shape[0]


def check_episode(
    prior: Prior, noise: Noise, generator: ActionSetGenerator, policy: str
) -> None:
    """Reject an episode setup that :func:`run_episode` cannot play.

    An unknown policy is a ``ValueError``, and so is the adversarial policy
    over anything but a :class:`UnitSphereGenerator`. Mean-restricted noise
    needs a finite-support prior under every policy, and every reward mean
    it can meet must lie inside the noise domain; otherwise
    :class:`~ellipsim.distributions.MeanOutOfRange` is raised. The
    adversarial policy's directions are certified in advance only in
    d = 1, where its action is always [1]; in d >= 2 they are not checked.
    """
    if policy == "adversarial":
        if not isinstance(generator, UnitSphereGenerator):
            raise ValueError("the adversarial policy plays over the unit sphere")
    elif policy not in REGRET_POLICIES:
        raise ValueError(f"unknown policy {policy!r}")
    if not noise.requires_unit_interval_mean:
        return
    if not isinstance(prior, FiniteSupportPrior):
        raise MeanOutOfRange(
            "mean-restricted noise needs a finite-support prior so the "
            "reward means can be bounded in advance"
        )
    if policy == "adversarial":
        if prior.dim > 1:
            return
        actions, label = np.ones((1, 1)), "the adversarial action [1]"
    elif isinstance(generator, FixedActionsGenerator):
        actions, label = generator.vectors, "fixed action set"
    else:
        atoms_nonneg = bool(np.all(prior.atoms >= -NORM_SLACK))
        if atoms_nonneg and generator.nonnegative:
            return
        raise MeanOutOfRange(
            "cannot certify reward means in [0, 1] for this prior/action setup"
        )
    products = prior.atoms @ actions.T
    if np.any(products < -NORM_SLACK) or np.any(products > 1.0 + NORM_SLACK):
        raise MeanOutOfRange(f"{label} produces reward means outside [0, 1]")


def run_episode(cfg: ExperimentConfig, rng: np.random.Generator) -> EpisodeResult:
    """Simulate one episode of the run ``cfg`` and return its record.

    ``cfg.policy`` is "lints", "greedy" or "adversarial"; ``cfg`` was
    checked when it was built (:func:`check_episode` says which setups each
    policy plays, ``check_engine_compatible`` which engines fit the prior
    and noise), so nothing is checked again here.

    The draw order per round is fixed (action set, then policy sample,
    then reward), so a single generator yields reproducible episodes.
    A degraded engine is re-raised as :class:`EpisodeFailure` carrying the
    offending round index; every other error, such as a reward mean out of
    range or a negative regret, propagates as itself.
    """
    prior, noise, generator = cfg.prior, cfg.noise, cfg.actions
    horizon, policy = cfg.horizon, cfg.policy
    theta_star = prior.sample(rng)
    state = make_posterior(prior, noise, cfg.engine, rng=rng, checked=False)
    dim = theta_star.shape[0]
    trace = PotentialTrace()
    actions = np.zeros((horizon, dim))
    optimal = np.zeros((horizon, dim))
    rewards = np.zeros(horizon)
    instant = np.zeros(horizon)
    # fixed and sphere generators present one set object every round
    last_set = None

    for t in range(horizon):
        try:
            aset = generator.sample_round(rng)
            if aset is not last_set:
                best = aset.argmax(theta_star)
                last_set = aset
            if policy == "lints":
                # only the argmax of the draw is played, so the policy is
                # invariant to positive rescaling of the sampled parameter
                chosen = aset.argmax(state.sample(rng))
            elif policy == "greedy":
                chosen = aset.argmax(state.mean())
            else:
                chosen = adversarial_action(state.covariance())
            quad = state.quad_form(chosen)
            trace.append_quads(quad)
            # the same BLAS dot as @, without the matmul dispatch's overhead
            y = sample_reward(noise, float(chosen.dot(theta_star)), rng)
            state.update(chosen, y)
        except (DegenerateWeights, CholeskyFailure) as exc:
            raise EpisodeFailure(t, exc) from exc
        gap = float(theta_star.dot(best - chosen))
        if gap < -REGRET_SLACK:
            raise RuntimeError(
                f"round {t}: negative regret {gap} against the optimal action"
            )
        actions[t] = chosen
        optimal[t] = best
        rewards[t] = y
        instant[t] = max(gap, 0.0)

    return EpisodeResult(
        theta_star=theta_star,
        actions=actions,
        optimal_actions=optimal,
        rewards=rewards,
        instant_regret=instant,
        cumulative_regret=np.cumsum(instant),
        trace=trace,
        final_state=state,
    )


@dataclass(frozen=True)
class TraceCauchySchwarzReport:
    """Empirical check of the paired-moment trace inequality."""

    lhs: float
    rhs: float
    holds: bool


def trace_cauchy_schwarz_check(
    xs: ArrayLike, zs: ArrayLike, tol: float = INEQUALITY_SLACK
) -> TraceCauchySchwarzReport:
    """Check E[X.T Z]^2 <= d * Tr(E[X X.T] E[Z Z.T]) on paired samples.

    The inequality holds for any joint law of (X, Z), in particular the
    empirical law of the rows of ``xs`` and ``zs``, so this is exact up
    to rounding: no Monte Carlo slack enters.
    """
    x = np.asarray(xs, dtype=np.float64)
    z = np.asarray(zs, dtype=np.float64)
    if x.shape != z.shape or x.ndim != 2:
        raise ValueError(f"need matching (n, d) sample arrays, got {x.shape}, {z.shape}")
    n, d = x.shape
    lhs = float(np.mean(np.sum(x * z, axis=1))) ** 2
    second_x = x.T @ x / n
    second_z = z.T @ z / n
    rhs = d * float(np.trace(second_x @ second_z))
    return TraceCauchySchwarzReport(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + tol))
