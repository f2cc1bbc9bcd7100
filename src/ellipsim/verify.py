"""Randomized numerical verification of the core inequalities.

Each check draws many random instances and records the worst violation of
one analytic inequality. A check is one row of :data:`CHECKS`: its seed
id, a one-instance function, its default instance count and its
tolerance. :func:`run_check` seeds the check's generator from (seed, check
id), runs the instances and keeps the worst. All checks are exact in the
sense that no Monte Carlo slack enters the inequality itself:
expectations over outcomes are enumerated, and the sample-based checks
hold for the empirical law of the drawn samples. A violation beyond
rounding tolerance therefore indicates a real defect, not an unlucky
draw.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .bandit import trace_cauchy_schwarz_check
from .distributions import BernoulliMeanNoise, FiniteSupportPrior, Noise, atom_moments
from .linalg import (
    PsdMatrix,
    logdet_potential,
    min_eigenvalue,
    psd_sqrt,
    random_psd,
    rank_one_shrink,
    symmetrize,
    unit_rows,
)
from .potential import (
    enumerate_posterior_outcomes,
    outcome_likelihoods,
    ridge_replay_excess,
)
from .tolerances import INEQUALITY_SLACK, RIDGE_POTENTIAL_SLACK


@dataclass(frozen=True)
class FuzzReport:
    """Worst-case result of one randomized inequality check."""

    name: str
    instances: int
    max_violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance


CLASSICAL_DIMS = (1, 2, 4, 8)
CLASSICAL_HORIZONS = (50, 500)
CLASSICAL_LAMBDAS = (1.0, 2.0, 10.0)
# largest dimension the log-det and trace checks draw
DIM_MAX = 6
# dominated Lambda draws per logdet-variational instance
VARIATIONAL_LAMBDAS = 50
# largest dimension and atom count of variance-reduction's random priors
PRIOR_DIM_MAX = 3
PRIOR_ATOMS_MAX = 8


def _log_uniform(rng: np.random.Generator, low: float, high: float) -> float:
    return float(np.exp(rng.uniform(np.log(low), np.log(high))))


def _classical_potential(rng: np.random.Generator) -> float:
    """Ridge potential telescope on random action sequences.

    Draws dimension, horizon and ridge weight from small fixed grids and
    checks both halves of the chain on every sequence: the summed
    quadratic forms are at most twice the log-det drop, which is at most
    2 * d * log(1 + T / (lam * d)).
    """
    dim = int(rng.choice(CLASSICAL_DIMS))
    lam = float(rng.choice(CLASSICAL_LAMBDAS))
    horizon = int(rng.choice(CLASSICAL_HORIZONS))
    dirs = unit_rows(rng.standard_normal((horizon, dim)))
    scales = np.where(rng.random(horizon) < 0.5, 1.0, rng.random(horizon))
    return ridge_replay_excess(dirs * scales[:, None], lam)


def _logdet_concavity(rng: np.random.Generator) -> float:
    """Concavity of Sigma -> log det(I + x Sigma) along random chords."""
    dim = int(rng.integers(1, DIM_MAX + 1))
    scale = _log_uniform(rng, 1e-2, 10.0)
    rank_a = int(rng.integers(1, dim + 1))
    rank_b = int(rng.integers(1, dim + 1))
    sig_a = random_psd(dim, scale, rng, rank=rank_a)
    sig_b = random_psd(dim, scale, rng, rank=rank_b)
    alpha = float(rng.random())
    x = _log_uniform(rng, 1e-3, 100.0)
    blend = alpha * sig_a.mat + (1.0 - alpha) * sig_b.mat
    lhs = alpha * logdet_potential(sig_a, x) + (1.0 - alpha) * logdet_potential(
        sig_b, x
    )
    return lhs - logdet_potential(blend, x)


def _logdet_variational(rng: np.random.Generator) -> float:
    """Variational form: log det(I + x Sigma) dominates every Lambda <= x I.

    For invertible Sigma and any PSD Lambda with Lambda <= x I,
    log det(Sigma^(1/2) (Sigma^{-1} + Lambda) Sigma^(1/2)) is at most the
    potential at x, with equality at Lambda = x I. Each instance draws
    many dominated Lambda and also checks the equality case.
    """
    dim = int(rng.integers(1, DIM_MAX + 1))
    scale = _log_uniform(rng, 1e-2, 10.0)
    base = random_psd(dim, scale, rng)
    # floor the spectrum so Sigma is safely invertible
    sigma = PsdMatrix.unchecked(base.mat + 1e-6 * scale * np.eye(dim))
    x = _log_uniform(rng, 1e-3, 100.0)
    root = psd_sqrt(sigma)
    potential = logdet_potential(sigma, x)
    worst = -np.inf
    for _ in range(VARIATIONAL_LAMBDAS):
        lam_mat = random_psd(dim, x, rng)
        inner = np.eye(dim) + root @ lam_mat.mat @ root
        _, inner_logdet = np.linalg.slogdet(symmetrize(inner))
        worst = max(worst, inner_logdet - potential)
    # equality at the top of the feasible set
    top = np.eye(dim) + x * root @ root
    _, top_logdet = np.linalg.slogdet(symmetrize(top))
    return max(worst, abs(top_logdet - potential))


def _logdet_shift(rng: np.random.Generator) -> float:
    """One-observation budget shift for the log-det potential.

    log(1 + v.T Sigma v) + logdet_potential(shrunk Sigma, x) is at most
    logdet_potential(Sigma, x + v.T v), where the shrink conditions Sigma
    on one unit-noise observation along v.
    """
    dim = int(rng.integers(1, DIM_MAX + 1))
    scale = _log_uniform(rng, 1e-2, 10.0)
    rank = int(rng.integers(1, dim + 1))
    sigma = random_psd(dim, scale, rng, rank=rank)
    v = rng.standard_normal(dim)
    norm = float(np.linalg.norm(v))
    if norm > 0:
        v = v / norm * float(rng.random())
    x = _log_uniform(rng, 1e-3, 100.0)
    quad = sigma.quad_form(v)
    shrunk = rank_one_shrink(sigma, v)
    lhs = np.log1p(quad) + logdet_potential(shrunk, x)
    return lhs - logdet_potential(sigma, x + float(v @ v))


def _random_mean_bounded_prior(rng: np.random.Generator) -> FiniteSupportPrior:
    """Finite prior in the nonnegative orthant of the unit ball."""
    dim = int(rng.integers(1, PRIOR_DIM_MAX + 1))
    n = int(rng.integers(2, PRIOR_ATOMS_MAX + 1))
    atoms = unit_rows(np.abs(rng.standard_normal((n, dim)))) * rng.random((n, 1))
    weights = rng.dirichlet(np.ones(n))
    return FiniteSupportPrior(atoms=atoms, weights=weights)


def _live_branches(
    atoms: np.ndarray, weights: np.ndarray, noise: Noise, action: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The outcome probabilities and child weights of one finite-support
    posterior, for the outcomes of positive probability."""
    raw, mass = enumerate_posterior_outcomes(
        weights[None, :], outcome_likelihoods(noise, atoms @ action)[None]
    )
    live = mass[0] > 0.0
    return mass[0, live], raw[0, live] / mass[0, live, None]


def _variance_reduction(rng: np.random.Generator) -> float:
    """Expected one-step posterior-covariance contraction, enumerated.

    For random finite priors under outcome-enumerable noise, the
    outcome-weighted average of the next-round covariance must sit below
    Gamma - Gamma a a.T Gamma / (sigma^2 + a.T Gamma a) in the
    positive-semidefinite order. Checked with the tight almost-sure
    variance bound over the surviving support and with the loose uniform
    bound; the worst margin over both is reported.

    The predictive branch probabilities must form a probability
    distribution; any normalization defect is itself recorded as a
    violation, so a corrupted likelihood cannot hide by emptying or
    inflating the outcome tree.
    """
    noise = BernoulliMeanNoise()
    prior = _random_mean_bounded_prior(rng)
    atoms, weights, dim = prior.atoms, prior.weights, prior.dim
    # a couple of warmup updates so non-prior filtrations are covered
    for _ in range(int(rng.integers(0, 3))):
        direction = np.abs(rng.standard_normal(dim))
        direction /= max(float(np.linalg.norm(direction)), 1e-12)
        probs, children = _live_branches(atoms, weights, noise, direction)
        if abs(float(probs.sum()) - 1.0) > INEQUALITY_SLACK:
            return abs(float(probs.sum()) - 1.0)
        weights = children[int(rng.choice(len(probs), p=probs / probs.sum()))]
    action = np.abs(rng.standard_normal(dim))
    action /= max(float(np.linalg.norm(action)), 1e-12)
    gamma = atom_moments(atoms, weights)[1].mat
    means = atoms @ action
    quad = float(weights @ (means - float(weights @ means)) ** 2)
    probs, children = _live_branches(atoms, weights, noise, action)
    prob_total = float(probs.sum())
    if abs(prob_total - 1.0) > INEQUALITY_SLACK:
        return abs(prob_total - 1.0)
    expected_next = np.zeros((dim, dim))
    for prob, child in zip(probs, children):
        expected_next += prob * atom_moments(atoms, child)[1].mat
    live = weights > 0
    tight_var = float(np.max(means[live] * (1.0 - means[live])))
    ga = gamma @ action
    worst = -np.inf
    for sigma_sq in (max(tight_var, 1e-12), noise.sigma_sq_bound):
        contraction = gamma - np.outer(ga, ga) / (sigma_sq + quad)
        margin = min_eigenvalue(symmetrize(contraction - expected_next))
        worst = max(worst, -margin)
    return worst


def _trace_cauchy_schwarz(rng: np.random.Generator) -> float:
    """Paired-moment trace inequality on random correlated samples."""
    dim = int(rng.integers(1, DIM_MAX + 1))
    n = int(rng.integers(10, 400))
    x = rng.standard_normal((n, dim)) @ rng.standard_normal((dim, dim))
    draw = rng.random()
    if draw < 0.15:
        z = x.copy()
    elif draw < 0.3:
        z = -x
    else:
        mix = rng.standard_normal((dim, dim))
        z = x @ mix + rng.standard_normal((n, dim)) * rng.uniform(0.0, 2.0)
    report = trace_cauchy_schwarz_check(x, z)
    return report.lhs - report.rhs


# every check by name: its seed id, its one-instance function, the instance
# count it runs at by default and its tolerance; a report's generator is
# seeded from (seed, id), so the ids stay fixed
CHECKS: Dict[str, Tuple[int, Callable[[np.random.Generator], float], int, float]] = {
    "classical-potential": (1, _classical_potential, 1000, RIDGE_POTENTIAL_SLACK),
    "logdet-concavity": (2, _logdet_concavity, 2000, INEQUALITY_SLACK),
    "logdet-variational": (3, _logdet_variational, 2000, INEQUALITY_SLACK),
    "logdet-shift": (4, _logdet_shift, 2000, INEQUALITY_SLACK),
    "variance-reduction": (5, _variance_reduction, 500, INEQUALITY_SLACK),
    "trace-cauchy-schwarz": (6, _trace_cauchy_schwarz, 1000, INEQUALITY_SLACK),
}


def _require_count(name: str, count: int) -> None:
    if count < 1:
        raise ValueError(f"instance count for {name} must be >= 1, got {count}")


def run_check(name: str, seed: int = 0, instances: Optional[int] = None) -> FuzzReport:
    """Run the named check at ``instances``, or at its default count.

    Each instance is one call of the check's instance function, which draws
    from the check's generator, seeded from (seed, check id), and returns
    its worst violation; the report holds the worst of them all. A NaN or
    infinite instance value counts as an ``inf`` violation: ``max`` would
    drop a NaN, and no instance of a working check is infinite. A count
    below 1 raises ValueError.
    """
    check_id, instance, default, tol = CHECKS[name]
    count = default if instances is None else instances
    _require_count(name, count)
    rng = np.random.default_rng(np.random.SeedSequence([seed, check_id]))
    worst = -np.inf
    for _ in range(count):
        value = instance(rng)
        worst = max(worst, value if math.isfinite(value) else np.inf)
    return FuzzReport(name, count, worst, tol)


def run_all_checks(
    sizes: Optional[Dict[str, int]] = None, seed: int = 0
) -> List[FuzzReport]:
    """Run every inequality check and return one report per check.

    ``sizes`` overrides instance counts per check name; an unknown name or
    a count below 1 raises ValueError before any check runs.
    """
    sizes = sizes or {}
    unknown = set(sizes) - set(CHECKS)
    if unknown:
        raise ValueError(f"unknown check names: {sorted(unknown)}")
    for name, count in sizes.items():
        _require_count(name, count)
    return [run_check(name, seed, sizes.get(name)) for name in CHECKS]
