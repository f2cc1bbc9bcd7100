"""Bound formulas, potential trackers and the expected-potential verifier.

Every right-hand side that a check compares against (eqs. 1 and 4,
theorem 2.3, remark 3.3) is written once here, as a module-level function.

Two related quantities are tracked along an action sequence:

* the classical ridge potential, where the design covariance
  (lam * I + sum of a a.T)^{-1} shrinks deterministically and the summed
  quadratic forms are controlled by a log-det telescope;
* the general posterior potential, where the quadratic form is taken in
  the posterior covariance of the parameter, which is random and need not
  shrink on any single round.

The verifier estimates the expected general potential sum and compares it
against 2 * max(sigma^2, 1) * log det(I + T * Gamma_1). When the model is
small and discrete it is exact: it enumerates the outcome lattice, where
paths that reach the same posterior are merged into one node carrying
their summed probability. Otherwise it is a Monte Carlo estimate.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import ArrayLike

from .distributions import FiniteSupportPrior, Noise, Prior, sample_reward
from .linalg import Array, PsdMatrix
from .posterior import (
    DegenerateWeights,
    EngineConfig,
    FiniteSupportState,
    enumerate_posterior_outcomes,
    make_posterior,
)
from .tolerances import (
    EIGEN_TIE_REL,
    INEQUALITY_SLACK,
    LATTICE_MERGE_LOG,
    NORM_SLACK,
    PSD_SLACK,
    REPLICATION_FAILURE_SHARE,
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


def logdet_identity_cap(t: int, dim: int) -> float:
    """d * log(1 + t), which bounds log det(I + t * Gamma_1) when Gamma_1 <= I."""
    return dim * float(np.log1p(t))


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
    by round.
    """

    dim: int
    lam: float = 1.0
    gamma_quads: List[float] = field(default_factory=list)
    sigma_quads: List[float] = field(default_factory=list)

    def __post_init__(self):
        self.classical = ClassicalPotential(self.dim, lam=self.lam)

    def append_quads(self, action: ArrayLike, gamma_quad: float) -> float:
        """Record a round from a precomputed posterior quadratic form."""
        if gamma_quad < -PSD_SLACK:
            raise ValueError(f"posterior quadratic form is negative: {gamma_quad}")
        sigma_quad = self.classical.step(action)
        self.gamma_quads.append(max(float(gamma_quad), 0.0))
        self.sigma_quads.append(sigma_quad)
        return sigma_quad

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
    arr = gamma.mat
    dim = arr.shape[0]
    eigvals, eigvecs = np.linalg.eigh(arr)
    lead = eigvals[-1]
    tol = EIGEN_TIE_REL * max(1.0, abs(lead))
    mask = eigvals >= lead - tol
    basis = eigvecs[:, mask]
    if basis.shape[1] == 1:
        v = basis[:, 0]
    else:
        # rows of `basis` are the basis-vector projections onto the eigenspace
        row_norms = np.linalg.norm(basis, axis=1)
        idx = int(np.argmax(row_norms > tol))
        v = basis @ basis[idx]
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        v = np.zeros(dim)
        v[0] = 1.0
        return v
    v = v / norm
    nz = np.nonzero(np.abs(v) > 1e-12)[0]
    if nz.size and v[nz[0]] < 0:
        v = -v
    return v


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
        return {
            "dim": self.dim,
            "horizon": self.horizon,
            "replications": self.replications,
            "exact": self.exact,
            "sigma_sq": self.sigma_sq,
            "sigma_factor": self.sigma_factor,
            "mean_total": self.mean_total,
            "stderr_total": self.stderr_total,
            "bound": self.bound,
            "holds": self.holds,
            "per_round_mean": list(self.per_round_mean),
            "gamma1_eigs": list(self.gamma1_eigs),
            "failed_replications": self.failed_replications,
        }


ActionRule = Callable[[PsdMatrix], Array]

EXACT_ENUMERATION_LIMIT = 12
# the Monte Carlo standard error needs at least two replications
MONTE_CARLO_MIN_REPLICATIONS = 2


def exact_path_applies(
    prior: Prior, noise: Noise, horizon: int, action_rule: str
) -> bool:
    """Whether the exact outcome lattice applies: finite-support prior,
    finitely many noise outcomes, the adversarial rule (deterministic in
    the state) and a horizon of at most ``EXACT_ENUMERATION_LIMIT``.
    Otherwise the verifier takes the Monte Carlo path.

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


# children are hashed into buckets sqrt(LATTICE_MERGE_LOG) wide in every
# log-weight and compared within a bucket. Two states within the tolerance
# then straddle a bucket edge with odds of about 1e-6 per weight; keyed on
# a grid as fine as the tolerance, paths taken in a different order split
# often enough to break the t + 1 bound on random scalar priors by H = 11
_LATTICE_BUCKET_LOG = LATTICE_MERGE_LOG**0.5


def _merge_child(
    level: List[list],
    buckets: Dict[Tuple[float, ...], List[int]],
    prob: float,
    child: FiniteSupportState,
) -> None:
    """Add ``prob`` to the node of ``level`` that holds the same posterior
    as ``child``, or append ``child`` as a new node.

    Nodes are [path probability, state, log-weights]. Two posteriors over
    the shared support are the same when every log-weight agrees within
    ``LATTICE_MERGE_LOG``; a zero weight (log -inf) only matches a zero.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log_weights = np.log(child.weights)
        key = tuple(np.rint(log_weights / _LATTICE_BUCKET_LOG).tolist())
        bucket = buckets.setdefault(key, [])
        for slot in bucket:
            node = level[slot]
            # equal keys put the -inf entries in the same places; their
            # difference is nan, which the comparison lets through
            if not (np.abs(node[2] - log_weights) > LATTICE_MERGE_LOG).any():
                node[0] += prob
                return
    bucket.append(len(level))
    level.append([prob, child, log_weights])


def _exact_potential(
    prior: Prior, noise: Noise, horizon: int, rule: ActionRule
) -> Tuple[np.ndarray, float]:
    """Expected per-round potentials over the merged outcome lattice.

    Paths that reach the same posterior (for a scalar prior: the same
    success and failure counts, in any order) continue identically, so
    each depth holds every distinct posterior once, carrying the summed
    probability of the paths into it (see :func:`_merge_child`). The
    first path to reach a posterior keeps its state as the representative,
    so the order of the nodes is deterministic. A scalar prior has at most
    t + 1 nodes at depth t instead of 2^t.
    """
    root = make_posterior(prior, noise, EngineConfig(kind="finite_support"))
    per_round = np.zeros(horizon)
    level: List[list] = [[1.0, root, None]]
    for t in range(horizon):
        nxt: List[list] = []
        buckets: Dict[Tuple[float, ...], List[int]] = {}
        for prob, state, _ in level:
            action = rule(state.covariance())
            per_round[t] += prob * state.quad_form(action)
            if t + 1 == horizon:
                continue
            for _, branch_prob, child in enumerate_posterior_outcomes(state, action):
                _merge_child(nxt, buckets, prob * branch_prob, child)
        level = nxt
    return per_round, float(per_round.sum())


def verify_expected_potential(
    prior: Prior,
    noise: Noise,
    horizon: int,
    replications: int,
    master_seed: int = 0,
    engine: Optional[EngineConfig] = None,
    action_rule: str = "adversarial",
    action_generator=None,
) -> VerificationReport:
    """Estimate E[sum of a.T Gamma_t a] and compare it to the log-det bound.

    Uses the exact outcome lattice when :func:`exact_path_applies`;
    otherwise falls back to Monte Carlo over independent replications
    seeded from (master_seed, replication index).

    ``action_rule`` is "adversarial" (top eigendirection of the posterior
    covariance) or "lints" (posterior sampling over sets drawn from
    ``action_generator``).

    The pass criterion is mean <= bound + 3 * stderr, with stderr zero on
    the exact path.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if action_rule not in ("adversarial", "lints"):
        raise ValueError(f"unknown action rule {action_rule!r}")
    if action_rule == "lints" and action_generator is None:
        raise ValueError("the lints action rule needs an action generator")

    _, gamma1 = prior.moments()
    factor = sigma_factor(noise.sigma_sq_bound)
    eigs = gamma1_eigs(gamma1)
    bound = potential_bound(horizon, factor, eigs)
    eig_record = tuple(float(v) for v in eigs)

    if exact_path_applies(prior, noise, horizon, action_rule):
        per_round, total = _exact_potential(prior, noise, horizon, adversarial_action)
        return VerificationReport(
            dim=gamma1.dim,
            horizon=horizon,
            replications=0,
            exact=True,
            sigma_sq=noise.sigma_sq_bound,
            sigma_factor=factor,
            mean_total=total,
            stderr_total=0.0,
            bound=bound,
            holds=bool(total <= bound + INEQUALITY_SLACK),
            per_round_mean=tuple(per_round),
            gamma1_eigs=eig_record,
            failed_replications=0,
        )

    if replications < MONTE_CARLO_MIN_REPLICATIONS:
        raise ValueError(
            f"Monte Carlo needs >= {MONTE_CARLO_MIN_REPLICATIONS} replications, "
            f"got {replications}"
        )
    engine = engine or EngineConfig(kind="particle")
    per_round_sum = np.zeros(horizon)
    totals: List[float] = []
    failures = 0
    for rep in range(replications):
        rng = np.random.default_rng(np.random.SeedSequence([master_seed, rep]))
        try:
            theta = prior.sample(rng)
            state = make_posterior(prior, noise, engine, rng=rng)
            quads = np.zeros(horizon)
            for t in range(horizon):
                if action_rule == "adversarial":
                    action = adversarial_action(state.covariance())
                else:
                    aset = action_generator.sample_round(rng)
                    action = aset.argmax(state.sample(rng))
                quads[t] = state.quad_form(action)
                y = sample_reward(noise, float(action @ theta), rng)
                state.update(action, y)
        except DegenerateWeights:
            failures += 1
            continue
        per_round_sum += quads
        totals.append(float(quads.sum()))
    if failures > REPLICATION_FAILURE_SHARE * replications:
        raise DegenerateWeights(
            f"{failures} of {replications} replications failed, "
            f"over the {REPLICATION_FAILURE_SHARE:.0%} budget"
        )
    n = len(totals)
    arr = np.asarray(totals)
    mean_total = float(arr.mean())
    stderr_total = float(arr.std(ddof=1) / np.sqrt(n))
    return VerificationReport(
        dim=gamma1.dim,
        horizon=horizon,
        replications=n,
        exact=False,
        sigma_sq=noise.sigma_sq_bound,
        sigma_factor=factor,
        mean_total=mean_total,
        stderr_total=stderr_total,
        bound=bound,
        holds=bool(mean_total <= bound + 3.0 * stderr_total),
        per_round_mean=tuple(per_round_sum / n),
        gamma1_eigs=eig_record,
        failed_replications=failures,
    )
