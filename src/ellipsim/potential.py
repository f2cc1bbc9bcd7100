"""Bound formulas, potential trackers and the exact expected potential.

Every right-hand side that a check compares against (eqs. 1 and 4,
theorem 2.3, remark 3.3) is written once here, as a module-level function,
and so are the margins of the theorem 2.3 and remark 3.3 verdicts.

Two related quantities are tracked along an action sequence:

* the classical ridge potential, where the design covariance
  (lam * I + sum of a a.T)^{-1} shrinks deterministically and the summed
  quadratic forms are controlled by a log-det telescope;
* the general posterior potential, where the quadratic form is taken in
  the posterior covariance of the parameter, which is random and need not
  shrink on any single round.

The expected general potential sum under the adversarial action rule is
computed here exactly for small discrete models, over the outcome lattice
in which paths with the same (action, outcome) counts, and so the same
posterior, merge into one node carrying their summed probability. The
verifier that chooses between this and a Monte Carlo estimate over
episodes lives in :mod:`ellipsim.harness`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from .distributions import FiniteSupportPrior, Noise, Prior
from .linalg import Array, PsdMatrix
from .posterior import (
    EngineConfig,
    enumerate_posterior_outcomes,
    make_posterior,
)
from .tolerances import (
    EIGEN_TIE_REL,
    MONTE_CARLO_SLACK_SE,
    NORM_SLACK,
    PSD_SLACK,
)

# ---------------------------------------------------------------------------
# bound formulas: the one home of every right-hand side the checks compare to
# ---------------------------------------------------------------------------


def sigma_factor(sigma_sq: float) -> float:
    """max(sigma^2, 1), the noise factor in every posterior bound."""
    return max(sigma_sq, 1.0)


def gamma1_eigs(gamma1: PsdMatrix) -> Array:
    """Eigenvalues of the prior covariance Gamma_1, rounding negatives to 0."""
    return np.clip(np.linalg.eigvalsh(gamma1.mat), 0.0, None)


def logdet_growth(t: int, eigs: Sequence[float]) -> float:
    """log det(I + t * Gamma_1) from the eigenvalues of Gamma_1."""
    return float(np.sum(np.log1p(t * np.asarray(eigs))))


def potential_bound(t: int, factor: float, eigs: Sequence[float]) -> float:
    """Theorem 2.3: 2 * max(sigma^2, 1) * log det(I + t * Gamma_1)."""
    return 2.0 * factor * logdet_growth(t, eigs)


def regret_bound(t: int, dim: int, factor: float, eigs: Sequence[float]) -> float:
    """Eq. 4: sqrt(2 * max(sigma^2, 1) * d * t * log det(I + t * Gamma_1))."""
    return float(np.sqrt(2.0 * factor * dim * t * logdet_growth(t, eigs)))


def regret_bound_identity_cap(t: int, dim: int, factor: float) -> float:
    """Remark 3.3: d * sqrt(2 * max(sigma^2, 1) * t * log(1 + t)).

    Bounds the regret only when Gamma_1 <= I.
    """
    return float(dim * np.sqrt(2.0 * factor * t * np.log1p(t)))


def identity_cap_excess(t: int, eigs: Sequence[float]) -> float:
    """Remark 3.3's cap margin: log det(I + t * Gamma_1) - d * log(1 + t).

    The cap d * log(1 + t) bounds the log-det when Gamma_1 <= I, so there
    the excess is at most zero up to rounding.
    """
    return logdet_growth(t, eigs) - len(eigs) * float(np.log1p(t))


def thm23_margin(mean: float, stderr: float, bound: float) -> float:
    """How far a Monte Carlo mean of the potential sum sits below the
    theorem 2.3 bound widened by ``MONTE_CARLO_SLACK_SE`` standard errors;
    the bound holds when this is >= 0."""
    return bound + MONTE_CARLO_SLACK_SE * stderr - mean


def ridge_potential_bound(t: int, dim: int, lam: float) -> float:
    """Eq. 1: 2 * d * log(1 + t / (lam * d)), the ridge potential after t steps."""
    return 2.0 * dim * float(np.log1p(t / (lam * dim)))


class ClassicalPotential:
    """Deterministic ridge-covariance potential tracker.

    Holds Sigma_t = (lam * I + sum_{s<t} a_s a_s.T)^{-1}, updated by the
    rank-one shrink identity, together with a running log det kept
    incrementally: each step subtracts log(1 + quad) because the shrink
    divides the determinant by exactly that factor.
    """

    def __init__(self, dim: int, lam: float = 1.0):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if lam < 1.0:
            raise ValueError(f"lam must be >= 1 for the dimension bound, got {lam}")
        self.dim = dim
        self.lam = lam
        self.cov = np.eye(dim) / lam
        self.logdet_cov0 = -dim * np.log(lam)
        self.logdet_cov = self.logdet_cov0
        self.quad_sum = 0.0
        self.steps = 0

    def step(self, action: ArrayLike) -> float:
        """Absorb one action; returns the quadratic form a.T Sigma_t a."""
        a = np.asarray(action, dtype=np.float64)
        norm = float(np.linalg.norm(a))
        if norm > 1.0 + NORM_SLACK:
            raise ValueError(f"action norm must be <= 1, got {norm}")
        sv = self.cov @ a
        quad = float(a @ sv)
        # stays exactly symmetric: outer(sv, sv) is, entry for entry
        self.cov = self.cov - np.outer(sv, sv) / (1.0 + quad)
        self.logdet_cov -= np.log1p(quad)
        self.quad_sum += quad
        self.steps += 1
        return quad

    def logdet_bound(self) -> float:
        """2 * log(det Sigma_1 / det Sigma_{t+1}), the telescoped bound."""
        return 2.0 * (self.logdet_cov0 - self.logdet_cov)


@dataclass
class PotentialTrace:
    """Aligned record of general and classical potentials along one run.

    Each recorded round stores the posterior quadratic form a.T Gamma_t a
    and the classical quadratic form a.T Sigma_t a, with the classical
    state advanced in lockstep so the two sequences stay comparable round
    by round. With ``lam=None`` only the posterior forms are recorded.
    """

    dim: int
    lam: Optional[float] = 1.0
    gamma_quads: List[float] = field(default_factory=list)
    sigma_quads: List[float] = field(default_factory=list)

    def __post_init__(self):
        self.classical = (
            None if self.lam is None else ClassicalPotential(self.dim, lam=self.lam)
        )

    def append_quads(self, action: ArrayLike, gamma_quad: float) -> None:
        """Record a round from a precomputed posterior quadratic form."""
        if gamma_quad < -PSD_SLACK:
            raise ValueError(f"posterior quadratic form is negative: {gamma_quad}")
        if self.classical is not None:
            self.sigma_quads.append(self.classical.step(action))
        self.gamma_quads.append(max(float(gamma_quad), 0.0))

    @property
    def sigma_sum(self) -> float:
        return float(np.sum(self.sigma_quads))


def adversarial_action(gamma: PsdMatrix) -> Array:
    """Unit action along the top eigendirection of a posterior covariance.

    Deterministic by construction: when the leading eigenvalue is
    degenerate the lowest-index standard basis vector with a nonzero
    projection onto the leading eigenspace is projected and normalized,
    and the sign is fixed so the first nonzero entry is positive. For a
    multiple of the identity this yields the first basis vector.
    """
    # runs every adversarial round, so plain floats replace numpy calls where
    # they give the same bits as a boolean mask and np.linalg.norm (tested)
    arr = gamma.mat
    dim = arr.shape[0]
    eigvals, eigvecs = np.linalg.eigh(arr)
    lead = eigvals[-1]
    tol = EIGEN_TIE_REL * max(1.0, abs(lead))
    # eigh sorts ascending, so the lead is simple unless its neighbour ties
    if dim == 1 or eigvals[-2] < lead - tol:
        # contiguous as in np.linalg.norm: a strided dot may sum in another order
        v = np.ascontiguousarray(eigvecs[:, -1])
    else:
        basis = eigvecs[:, eigvals >= lead - tol]
        # rows of `basis` are the basis-vector projections onto the eigenspace
        row_norms = np.linalg.norm(basis, axis=1)
        idx = int(np.argmax(row_norms > tol))
        v = basis @ basis[idx]
    norm = math.sqrt(v.dot(v))
    if norm == 0.0:
        v = np.zeros(dim)
        v[0] = 1.0
        return v
    v = v / norm
    first = next((x for x in v.tolist() if abs(x) > 1e-12), 0.0)
    return -v if first < 0 else v


EXACT_ENUMERATION_LIMIT = 12


def exact_path_applies(
    prior: Prior, noise: Noise, horizon: int, action_rule: str
) -> bool:
    """Whether the exact outcome lattice applies: finite-support prior,
    finitely many noise outcomes, the adversarial rule (deterministic in
    the state) and a horizon of at most ``EXACT_ENUMERATION_LIMIT``.
    Otherwise :func:`ellipsim.harness.verify_expected_potential` takes
    the Monte Carlo path.

    With Bernoulli noise in d >= 2 the adversarial directions may drive a
    reward mean out of [0, 1]; nothing here checks that, and enumeration
    then raises ``MeanOutOfRange``.
    """
    return (
        action_rule == "adversarial"
        and noise.finite_outcomes is not None
        and isinstance(prior, FiniteSupportPrior)
        and horizon <= EXACT_ENUMERATION_LIMIT
    )


def _exact_potential(
    prior: Prior, noise: Noise, horizon: int
) -> Tuple[np.ndarray, float]:
    """Expected per-round adversarial-rule potentials over the merged lattice.

    A finite-support posterior is the prior reweighted by the likelihood of
    each (action, outcome) pair seen, so paths with the same multiset of
    pairs (for a scalar prior: the same success and failure counts, in any
    order) reach the same posterior and continue identically. Each depth
    keys its nodes on that multiset, with actions told apart by their exact
    bytes, and a node carries the summed probability of the paths into it.
    The first path to reach a key keeps its state as the representative,
    so the order of the nodes is deterministic. A scalar prior has t + 1
    nodes at depth t instead of 2^t.
    """
    root = make_posterior(prior, noise, EngineConfig(kind="finite_support"))
    per_round = np.zeros(horizon)
    action_ids: Dict[bytes, int] = {}
    # sorted (action index, outcome) pairs of a path -> [probability, state]
    level: Dict[Tuple, list] = {(): [1.0, root]}
    for t in range(horizon):
        nxt: Dict[Tuple, list] = {}
        for pairs, (prob, state) in level.items():
            action = adversarial_action(state.covariance())
            per_round[t] += prob * state.quad_form(action)
            if t + 1 == horizon:
                continue
            a = action_ids.setdefault(action.tobytes(), len(action_ids))
            for y, branch_prob, child in enumerate_posterior_outcomes(state, action):
                node = nxt.setdefault(tuple(sorted(pairs + ((a, y),))), [0.0, child])
                node[0] += prob * branch_prob
        level = nxt
    return per_round, float(per_round.sum())
