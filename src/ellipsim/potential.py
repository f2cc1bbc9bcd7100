"""Bound formulas, potential trackers and the exact expected potential.

Every right-hand side that a check compares against (eqs. 1 and 4,
theorem 2.3, remark 3.3) is written once here, as a module-level function,
and so are the margins of the Monte Carlo, eq. 1 and remark 3.3 verdicts.
The theorem 2.3, eq. 4 and remark 3.3 bounds take either one round count
``t`` and return a float, or an int array of round counts and return one
bound per entry, bit for bit the float each entry would give on its own,
so a curve is evaluated in one call.

Two related quantities are tracked along an action sequence:

* the classical ridge potential, where the design covariance
  (lam * I + sum of a a.T)^{-1} shrinks deterministically and the summed
  quadratic forms are controlled by a log-det telescope; it depends only
  on the actions, so :func:`ridge_replay_excess` replays
  :class:`ClassicalPotential` over them after an episode, and over the
  random sequences of the ``classical-potential`` check in
  :data:`ellipsim.verify.CHECKS`;
* the general posterior potential, where the quadratic form is taken in
  the posterior covariance of the parameter, which is random and need not
  shrink on any single round; :class:`PotentialTrace` records it as the
  episode plays.

The expected general potential sum under the adversarial action rule is
computed here exactly for small discrete models, over the outcome lattice
in which paths with the same (action, outcome) counts, and so the same
posterior, merge into one node carrying their summed probability. Each
depth of the lattice is one frontier, a matrix of posterior weights with
a vector of path probabilities, advanced by array operations over all its
nodes at once. The one-step branch, a finite-support posterior reweighted
by every outcome's likelihood, is written once, as
:func:`enumerate_posterior_outcomes`: the lattice branches each frontier
through it and the ``variance-reduction`` check of
:data:`ellipsim.verify.CHECKS` one posterior. The verifier lives in
:mod:`ellipsim.harness`, and so does the one choice between this and a
Monte Carlo estimate over episodes,
:func:`~ellipsim.harness.takes_exact_path`, with its node limit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from .distributions import FiniteSupportPrior, Noise, atom_moments
from .linalg import Array, PsdMatrix
from .posterior import DegenerateWeights, EngineConfig, make_posterior
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


def _per_t(values: Array, t: int | Array) -> float | Array:
    """The bound ``values`` as a float for one round count ``t``, else as
    the array of one bound per entry of the int array ``t``."""
    return values if np.ndim(t) else float(values)


def logdet_growth(t: int | Array, eigs: Sequence[float]) -> float | Array:
    """log det(I + t * Gamma_1) from the eigenvalues of Gamma_1."""
    terms = np.log1p(np.multiply.outer(t, np.asarray(eigs, dtype=np.float64)))
    return _per_t(terms.sum(axis=-1), t)


def potential_bound(
    t: int | Array, factor: float, eigs: Sequence[float]
) -> float | Array:
    """Theorem 2.3: 2 * max(sigma^2, 1) * log det(I + t * Gamma_1)."""
    return 2.0 * factor * logdet_growth(t, eigs)


def regret_bound(
    t: int | Array, dim: int, factor: float, eigs: Sequence[float]
) -> float | Array:
    """Eq. 4: sqrt(2 * max(sigma^2, 1) * d * t * log det(I + t * Gamma_1))."""
    return _per_t(np.sqrt(2.0 * factor * dim * t * logdet_growth(t, eigs)), t)


def regret_bound_identity_cap(
    t: int | Array, dim: int, factor: float
) -> float | Array:
    """Remark 3.3: d * sqrt(2 * max(sigma^2, 1) * t * log(1 + t)).

    Bounds the regret only when Gamma_1 <= I.
    """
    return _per_t(dim * np.sqrt(2.0 * factor * t * np.log1p(t)), t)


def identity_cap_excess(t: int, eigs: Sequence[float]) -> float:
    """Remark 3.3's cap margin: log det(I + t * Gamma_1) - d * log(1 + t).

    The cap d * log(1 + t) bounds the log-det when Gamma_1 <= I, so there
    the excess is at most zero up to rounding.
    """
    return logdet_growth(t, eigs) - len(eigs) * float(np.log1p(t))


def monte_carlo_margin(mean: float, stderr: float, bound: float) -> float:
    """How far a Monte Carlo mean sits below a one-sided bound widened by
    ``MONTE_CARLO_SLACK_SE`` standard errors; the bound holds when this is
    >= 0. The theorem 2.3 and eq. 4 verdicts both read it."""
    return bound + MONTE_CARLO_SLACK_SE * stderr - mean


def ridge_potential_bound(t: int, dim: int, lam: float) -> float:
    """Eq. 1: 2 * d * log(1 + t / (lam * d)), the ridge potential after t steps."""
    return 2.0 * dim * float(np.log1p(t / (lam * dim)))


def ridge_excess(
    quad_sum: float, logdet_rhs: float, t: int, dim: int, lam: float
) -> float:
    """Eq. 1's excess after t steps: how far the ridge quad sum exceeds its
    log-det bound or that log-det exceeds :func:`ridge_potential_bound`."""
    return max(quad_sum - logdet_rhs, logdet_rhs - ridge_potential_bound(t, dim, lam))


def check_ridge(lam: float) -> None:
    """Refuse an eq. 1 ridge outside ``1 <= lam < inf``: the dimension
    bound needs ``lam >= 1``, and an infinite ridge has no log det."""
    if not lam >= 1.0:
        raise ValueError(f"lam must be >= 1, got {lam}")
    if lam == math.inf:
        raise ValueError(f"lam must be finite, got {lam}")


class ClassicalPotential:
    """Deterministic ridge-covariance potential tracker.

    Holds Sigma_t = (lam * I + sum_{s<t} a_s a_s.T)^{-1}, updated in place
    by the rank-one shrink identity, together with a running log det kept
    incrementally: each step subtracts log(1 + quad) because the shrink
    divides the determinant by exactly that factor.
    """

    def __init__(self, dim: int, lam: float = 1.0):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        check_ridge(lam)
        self.dim = dim
        self.lam = lam
        self.cov = np.eye(dim) / lam
        self.logdet_cov0 = -dim * np.log(lam)
        self.logdet_cov = self.logdet_cov0

    def step(self, action: ArrayLike) -> float:
        """Absorb one action; returns the quadratic form a.T Sigma_t a.

        An action whose Euclidean norm exceeds 1 by more than NORM_SLACK
        is a ``ValueError``.
        """
        # contiguous, so the dot sums as np.linalg.norm's does: same bits
        a = np.ascontiguousarray(action, dtype=np.float64)
        norm = math.sqrt(a.dot(a))
        if norm > 1.0 + NORM_SLACK:
            raise ValueError(f"action norm must be <= 1, got {norm}")
        sv = self.cov @ a
        quad = float(a.dot(sv))
        # stays exactly symmetric: outer(sv, sv) is, entry for entry
        shrink = np.outer(sv, sv)
        shrink /= 1.0 + quad
        self.cov -= shrink
        self.logdet_cov -= np.log1p(quad)
        return quad

    def logdet_bound(self) -> float:
        """2 * log(det Sigma_1 / det Sigma_{t+1}), the telescoped bound."""
        return 2.0 * (self.logdet_cov0 - self.logdet_cov)


def ridge_replay_excess(actions: Array, lam: float) -> float:
    """Eq. 1's :func:`ridge_excess` after a :class:`ClassicalPotential`
    with ridge ``lam`` replays the ``(T, d)`` rows of ``actions``; the
    quadratic forms are summed by ``np.sum``."""
    horizon, dim = actions.shape
    ridge = ClassicalPotential(dim, lam=lam)
    quad_sum = float(np.sum([ridge.step(a) for a in actions]))
    return ridge_excess(quad_sum, ridge.logdet_bound(), horizon, dim, lam)


@dataclass
class PotentialTrace:
    """The posterior quadratic forms a.T Gamma_t a along one run, by round.

    Eq. 1's ridge potential depends only on the actions, so the regret job
    replays it over an episode's actions after it, by
    :func:`ridge_replay_excess`.
    """

    gamma_quads: List[float] = field(default_factory=list)

    def append_quads(self, gamma_quad: float) -> None:
        """Record a round from a precomputed posterior quadratic form."""
        if gamma_quad < -PSD_SLACK:
            raise ValueError(f"posterior quadratic form is negative: {gamma_quad}")
        self.gamma_quads.append(max(float(gamma_quad), 0.0))


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


def outcome_likelihoods(noise: Noise, proj: Array) -> Array:
    """The ``(k, n)`` likelihood rows of a finite-outcome noise: one row per
    outcome, one entry per atom, from the atoms' projections ``proj``."""
    return np.array([noise.likelihood(y, proj) for y in noise.finite_outcomes])


def enumerate_posterior_outcomes(
    weights: Array, likelihoods: Array
) -> Tuple[Array, Array]:
    """Branch finite-support posteriors over every next outcome.

    Takes an ``(N, n)`` weight matrix and the ``(N, k, n)`` likelihood rows
    of the k outcomes under each row's action. Returns the unnormalized
    children ``raw``, ``(N, k, n)``, and their masses, the outcome
    probabilities ``raw.sum(axis=2)``, ``(N, k)``. A child's weights are
    its row over its mass: the bits :meth:`FiniteSupportState.update`
    gives. A zero-mass outcome has no child; a non-finite mass is
    :class:`DegenerateWeights`.
    """
    raw = weights[:, None, :] * likelihoods
    mass = raw.sum(axis=2)
    if not np.isfinite(mass).all():
        raise DegenerateWeights("posterior weights vanished in outcome enumeration")
    return raw, mass


def _with_pair(key: Tuple, pair: Tuple[int, int]) -> Tuple:
    """A merge key one (action id, outcome index) pair later: the sorted
    ``(pair, count)`` items of the path."""
    counts = dict(key)
    counts[pair] = counts.get(pair, 0) + 1
    return tuple(sorted(counts.items()))


def _exact_potential(
    prior: FiniteSupportPrior, noise: Noise, horizon: int
) -> Tuple[np.ndarray, float, List[int]]:
    """Expected per-round adversarial-rule potentials over the merged lattice,
    their sum, and the number of lattice nodes at each depth.

    A finite-support posterior is the prior reweighted by the likelihood of
    each (action, outcome) pair seen, so paths with the same counts of
    pairs (for a scalar prior: the same success count) reach the same
    posterior and continue identically. Each depth is one frontier: an
    ``(N, n)`` matrix ``W`` of posterior weights over the prior's n atoms,
    the ``(N,)`` path probabilities ``P`` and one action id per node, with
    actions told apart by their exact bytes. Each action's projections
    ``atoms @ a`` and, once it branches, its ``(k, n)`` likelihood rows are
    computed once and kept in a table, so a Bernoulli mean range is checked
    once per action. A depth's quadratic forms, branch probabilities and
    children are then a few array operations over all nodes; a child's
    branch probability is the row sum that normalizes its weights. Children
    are visited parent by parent, outcome by outcome, and merge on their
    count key; the first path to reach a key keeps its weight row, so the
    node order is deterministic. A scalar prior has t + 1 nodes at depth t
    instead of 2^t.
    """
    root = make_posterior(prior, noise, EngineConfig(kind="finite_support"))
    atoms = root.atoms
    action_ids: Dict[bytes, int] = {}
    projections: List[Array] = []  # atoms @ a, by action id
    likelihoods: List[Array] = []  # (k, n) rows, by id, for actions that branch

    def action_id(action: Array) -> int:
        key = action.tobytes()
        if key not in action_ids:
            action_ids[key] = len(projections)
            projections.append(atoms @ action)
        return action_ids[key]

    per_round = np.zeros(horizon)
    nodes: List[int] = []
    W, P, keys = root.weights[None, :], np.ones(1), [()]
    for t in range(horizon):
        nodes.append(len(keys))
        if atoms.shape[1] == 1:
            # adversarial_action of any 1 x 1 covariance is exactly [1.0]
            acts = [action_id(np.ones(1))] * len(keys)
        else:
            acts = [action_id(adversarial_action(atom_moments(atoms, w)[1])) for w in W]
        proj = np.array(projections)[acts]
        mean = (W * proj).sum(axis=1)
        per_round[t] = P @ (W * (proj - mean[:, None]) ** 2).sum(axis=1)
        if t + 1 == horizon:
            break
        for proj_a in projections[len(likelihoods):]:
            likelihoods.append(outcome_likelihoods(noise, proj_a))
        # children keep the engine's bits, so d >= 2 directions and the
        # merges they key do not move
        raw, mass = enumerate_posterior_outcomes(W, np.array(likelihoods)[acts])
        # zero-mass outcomes have no child; np.nonzero walks parent-major
        parents, ys = np.nonzero(mass > 0.0)
        nxt: Dict[Tuple, int] = {}
        slots, first = [], []
        for c, (i, j) in enumerate(zip(parents.tolist(), ys.tolist())):
            key = _with_pair(keys[i], (acts[i], j))
            if key not in nxt:
                nxt[key] = len(nxt)
                first.append(c)
            slots.append(nxt[key])
        P_next = np.zeros(len(nxt))
        np.add.at(P_next, slots, P[parents] * mass[parents, ys])
        rep = (parents[first], ys[first])
        W, P, keys = raw[rep] / mass[rep][:, None], P_next, list(nxt)
    return per_round, float(per_round.sum()), nodes
