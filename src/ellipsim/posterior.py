"""Posterior-state engines.

Three interchangeable representations of the conditional law of the
parameter given the observed (action, reward) pairs:

* ``gaussian_conjugate``: closed form for Gaussian prior + Gaussian noise,
  kept in covariance form so each update is a rank-one downdate.
* ``finite_support``: exact Bayes reweighting over fixed support points.
* ``particle``: sequential importance resampling for everything else: the
  finite-support engine run on prior draws, which it resamples.

All engines share the same surface: ``mean``, ``covariance``,
``quad_form``, ``sample`` and ``update``; updates mutate in place.

A bandit round asks for ``quad_form(a)`` and then ``update(a, y)`` on the
same action. Every engine projects on ``a`` once per round: ``quad_form``
keeps the action with its projection (``atoms @ a`` for the two
weighted-atom engines, ``cov @ a`` for the conjugate one), and ``update``
reuses that projection when it is handed the same array object holding
the same bytes, so an action changed in between is projected afresh. The
reweight then works in the likelihood array, and a particle resample
drops the kept projection with the old atoms.

The particle engine stores its particles as the finite support they
make: one row per distinct surviving prior draw, with its mass and its
number of copies, so a round costs O(distinct particles), not O(n).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import ArrayLike

from .distributions import (
    BernoulliMeanNoise,
    FiniteSupportPrior,
    GaussianNoise,
    GaussianPrior,
    Noise,
    Prior,
    atom_moments,
)
from .linalg import Array, PsdMatrix, chol_solve, jittered_cholesky


class DegenerateWeights(RuntimeError):
    """Every posterior weight underflowed to zero during an update."""


class IncompatibleEngine(ValueError):
    """The requested engine cannot represent the given prior/noise pair."""


@dataclass(frozen=True)
class EngineConfig:
    """Which posterior engine to run and its size parameters."""

    kind: str = "particle"
    particles: int = 20_000

    def __post_init__(self):
        if self.kind not in ("gaussian_conjugate", "finite_support", "particle"):
            raise ValueError(f"unknown engine kind {self.kind!r}")
        if self.particles < 2:
            raise ValueError(f"particles must be >= 2, got {self.particles}")


def _projection(kept: Optional[tuple], a: Array, rows: Array) -> Array:
    """``rows @ a``, reused from ``kept`` (quad_form's (action, its bytes,
    projection)) when ``a`` is the same array holding the same bytes."""
    if kept is not None and kept[0] is a and kept[1] == a.tobytes():
        return kept[2]
    return rows @ a


# the weighted-atom draw: above DRAW_SERIAL_MAX weights it works from sums
# of DRAW_BLOCK weights (_blocked_index). Near 8 blocks both ways cost about
# 6 us on a 2-core x86_64, so smaller draws stay serial. Neither size can
# change a result: the certificate keeps the serial draw's index.
DRAW_BLOCK = 128
DRAW_SERIAL_MAX = 8 * DRAW_BLOCK
_UNIT_ROUNDOFF = 2.0**-53
_NORMAL_MIN = float(np.finfo(np.float64).tiny)

def _serial_index(weights: Array, u: float) -> int:
    """The index ``Generator.choice(n, p=weights)`` draws for the uniform u."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


def _blocked_index(weights: Array, u: float) -> int:
    """:func:`_serial_index`, found from block sums and certified.

    The large-n draw of :meth:`FiniteSupportState.sample`, which states the
    certificate and its proof. It holds for any nonnegative finite weights
    with a positive finite total and any u in [0, 1); where the certificate
    refuses, the answer is :func:`_serial_index`'s own.
    """
    n = weights.shape[0]
    prefix = np.add.reduceat(weights, np.arange(0, n, DRAW_BLOCK)).cumsum()
    m = prefix.shape[0]
    total = float(prefix[-1])
    target = u * total
    j = int(prefix.searchsorted(target, side="right"))
    if j < m:
        lo = j * DRAW_BLOCK
        below = float(prefix[j - 1]) if j else 0.0
        values = weights[lo : lo + DRAW_BLOCK].cumsum()
        values += below
        k = int(values.searchsorted(target, side="right"))
        if k < values.shape[0]:
            if k:
                below = float(values[k - 1])
            slack = 4.0 * (n + DRAW_BLOCK + m + 4) * _UNIT_ROUNDOFF * total
            if (
                slack >= _NORMAL_MIN
                and float(values[k]) - target > slack
                and target - below > slack
            ):
                return lo + k
    return _serial_index(weights, u)


class GaussianConjugateState:
    """Gaussian posterior tracked through its covariance matrix.

    Keeps the covariance ``cov`` and the shift ``cov^{-1} @ mean``. An
    update along action a with observed reward y adds a y / sd^2 to the
    shift and subtracts h h.T from ``cov``, with h = cov a / sqrt(sd^2 +
    a.T cov a): the Sherman-Morrison form of adding a a.T / sd^2 to the
    precision. An outer product is exactly symmetric, so ``cov`` stays
    so. ``quad_form`` and ``mean`` are matrix-vector products; only
    ``sample`` factorizes, once per update.

    The draw keeps the square root of the precision form, L_P^{-T} for
    the lower Cholesky factor L_P of cov^{-1}. That matrix is the upper
    triangular factor of ``cov`` with positive diagonal, which is unique.
    With J the index reversal, J cov J = M M.T for the lower factor M,
    so J M J is that upper factor and equals L_P^{-T}: the same z gives
    the same draw up to rounding, and so the same chosen action.
    """

    def __init__(self, prior: GaussianPrior, noise: GaussianNoise):
        self.noise = noise
        mean0, cov0 = prior.moments()
        self.cov = np.array(cov0.mat)
        # check_engine_compatible has seen this factorization succeed
        self.shift = chol_solve(np.linalg.cholesky(cov0.mat), mean0)
        self._chol: Optional[Array] = None
        # (action, its bytes, cov @ action) from the last quad_form
        self._kept: Optional[tuple] = None

    @property
    def dim(self) -> int:
        return self.shift.shape[0]

    def _factor(self) -> Array:
        """Lower Cholesky factor M of the index-reversed covariance."""
        if self._chol is None:
            self._chol = jittered_cholesky(self.cov[::-1, ::-1])
        return self._chol

    def mean(self) -> Array:
        return self.cov @ self.shift

    def covariance(self) -> PsdMatrix:
        return PsdMatrix.unchecked(self.cov)

    def quad_form(self, v: ArrayLike) -> float:
        a = np.asarray(v, dtype=np.float64)
        proj = self.cov @ a
        self._kept = (a, a.tobytes(), proj)
        return float(a.dot(proj))

    def sample(self, rng: np.random.Generator) -> Array:
        z = rng.standard_normal(self.dim)
        # J M J z, with M contiguous: reverse z, multiply, reverse back
        return self.mean() + (self._factor() @ z[::-1])[::-1]

    def update(self, action: ArrayLike, y: float) -> None:
        a = np.asarray(action, dtype=np.float64)
        proj = _projection(self._kept, a, self.cov)
        var = self.noise.sd**2
        h = proj / np.sqrt(var + float(a.dot(proj)))
        self.cov -= np.outer(h, h)
        self.shift += a * (y * (1.0 / var))
        self._chol = None
        self._kept = None


class FiniteSupportState:
    """Exact discrete posterior over the prior's support points.

    The support never changes; an update multiplies each weight by the
    likelihood of the observed reward at that point's predicted mean and
    renormalizes. If every weight underflows to zero the update raises
    :class:`DegenerateWeights` rather than fabricating a posterior.
    """

    # names the engine in the DegenerateWeights message
    _label = "posterior"

    def __init__(self, prior: FiniteSupportPrior, noise: Noise):
        self.noise = noise
        self.atoms = prior.atoms
        self.weights = prior.weights.copy()
        # (action, its bytes, atoms @ action) from the last quad_form
        self._kept: Optional[tuple] = None

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    def mean(self) -> Array:
        return self.weights @ self.atoms

    def covariance(self) -> PsdMatrix:
        return atom_moments(self.atoms, self.weights)[1]

    def quad_form(self, v: ArrayLike) -> float:
        a = np.asarray(v, dtype=np.float64)
        proj = self.atoms @ a
        self._kept = (a, a.tobytes(), proj)
        m = float(self.weights @ proj)
        return float(self.weights @ (proj - m) ** 2)

    def sample(self, rng: np.random.Generator) -> Array:
        """One atom drawn with probability its weight.

        Picks the index ``rng.choice(n, p=weights)`` picks and leaves the
        generator in the same state: one ``rng.random()`` u and choice's
        arithmetic, a cumulative sum c divided by its last entry and a
        right-sided search for u, without choice's per-call checks of
        ``p``, which engine weights always pass: the prior's weights sum
        to 1, :meth:`update` refuses a zero or non-finite total and every
        likelihood is nonnegative. Up to ``DRAW_SERIAL_MAX`` atoms
        :func:`_serial_index` runs those statements.

        Above, the serial cumulative sum would cost most of the draw, so
        :func:`_blocked_index` works from blocks of B = ``DRAW_BLOCK``
        weights (the last may be short). One ``reduceat`` sums each block,
        a cumulative sum over the m block sums gives the block prefixes P
        and ``total = P[-1]``, a right-sided search finds the block of
        ``t = u * total``, and a cumulative sum of that block's weights
        plus the prefix before it gives the values v around the index k,
        ``v[k-1] <= t < v[k]`` (``v[-1]`` is that prefix, 0 in the first
        block). The certificate: k is returned only when t clears both
        neighbours by ``eta * total``, ``eta = 4 (n + B + m + 4) eps`` with
        eps = 2^-53, and that slack is a normal number. Otherwise,
        or when t falls past the last block or past its block's last
        value, the serial statements run on the same u.

        Proof sketch. Let S_i be the exact prefix sums. Summing nonnegative
        terms with k roundings, in any order, stays within a relative
        gamma_k = k eps / (1 - k eps) of the exact sum (Higham, Accuracy
        and Stability of Numerical Algorithms, 2002, section 4.2). So the
        serial c_i are within gamma_n of S_i, and v and total (B - 1
        roundings in a block sum, m - 1 in the prefixes, one in the
        offset) within gamma_(B+m). t and the serial quotients c_i / c[-1]
        round once more, clear of underflow: a normal slack keeps t normal,
        and t above the slack keeps u, and the quotients near it, above
        eta / 2. Chaining these, a certified t puts u S_n inside
        (S_(k-1), S_k) with a relative margin of eta less about
        2 (n + B + m + 1) eps, positive with room for the second-order
        terms. So c_(k-1) / c[-1] rounds to at most u and c_k / c[-1] to
        above it: the serial search stops at k. The margin also makes
        v[k] > v[k-1], so atom k has positive weight. A u on a cumulative
        value, u = 0 included, never passes.
        """
        w = self.weights
        u = rng.random()
        if w.shape[0] > DRAW_SERIAL_MAX:
            return self.atoms[_blocked_index(w, u)]
        return self.atoms[_serial_index(w, u)]

    def _reweight(self, action: ArrayLike, y: float) -> None:
        a = np.asarray(action, dtype=np.float64)
        proj = _projection(self._kept, a, self.atoms)
        # the likelihood is a fresh array (Noise.likelihood), so the
        # product and the normalization are formed in it; multiplication
        # commutes, so the bits are those of weights * likelihood
        raw = self.noise.likelihood(y, proj)
        raw *= self.weights
        total = float(raw.sum())
        if total <= 0.0 or not np.isfinite(total):
            raise DegenerateWeights(
                f"{self._label} weights vanished for outcome y={y!r}"
            )
        raw /= total
        self.weights = raw

    def update(self, action: ArrayLike, y: float) -> None:
        self._reweight(action, y)


class ParticleState(FiniteSupportState):
    """Sequential importance resampling over the distinct surviving draws.

    The n particles are prior draws, reweighted as the finite-support
    engine does and only ever resampled; the parameter is static, so there
    is no rejuvenation move and long runs can deplete distinct support.
    Systematic resampling triggers when the effective sample size drops
    below half the particle count. The generator passed at construction
    drives initialization and all resampling, keeping replays
    deterministic.

    A resample copies particles, and the copies of one draw keep equal
    weights from then on, so the engine stores the finite support they
    make: ``atoms`` holds the R <= n distinct surviving draws in draw
    order, ``weights`` their masses (the weight of all their copies) and
    ``counts`` their copies, which sum to n. The reads, the draw and the
    reweight are the finite-support engine's and cost O(R); ``particles``
    lays the rows out as the n particles, ``atoms.repeat(counts, axis=0)``,
    and the effective sample size is the n particles' own,
    ``1 / sum(mass**2 / counts)``.

    The resample places n systematic positions (i + u) / n from one
    ``rng.random()`` u and gives each row the positions at or above the
    cumulative mass before it and below its own: a position that ties with
    a cumulative mass goes to the next row, as a right-sided
    ``searchsorted`` of the positions would send it. The last row of
    positive mass owns every position past the sum before it, so no
    zero-mass row gets an offspring. Rows left without one are dropped,
    and each kept row's mass becomes counts / n.
    """

    _label = "particle"

    def __init__(
        self,
        prior: Prior,
        noise: Noise,
        rng: np.random.Generator,
        n_particles: int = EngineConfig.particles,
    ):
        self.noise = noise
        self.rng = rng
        self.atoms = prior.sample_many(rng, n_particles)
        self.weights = np.full(n_particles, 1.0 / n_particles)
        self.counts = np.ones(n_particles, dtype=np.intp)
        self.n_particles = n_particles
        self.resample_count = 0
        self._kept = None

    @property
    def particles(self) -> Array:
        """The n particles: each row of ``atoms`` repeated over its copies."""
        if self.atoms.shape[0] == self.n_particles:
            return self.atoms
        return self.atoms.repeat(self.counts, axis=0)

    def effective_sample_size(self) -> float:
        # each of a row's copies holds its mass / count
        return 1.0 / float((self.weights / self.counts) @ self.weights)

    # reweights through the shared helper rather than super().update(), so
    # one call opens one span when the class methods are wrapped for tracing
    def update(self, action: ArrayLike, y: float) -> None:
        self._reweight(action, y)
        if self.effective_sample_size() < self.n_particles / 2.0:
            self._systematic_resample()

    def _systematic_resample(self) -> None:
        n = self.n_particles
        positions = (np.arange(n) + self.rng.random()) / n
        cumulative = np.cumsum(self.weights)
        # the last row of positive mass (reweighting leaves one) owns every
        # position past the sum before it, so neither a sum that rounds
        # below 1 nor a last position that rounds up to 1.0 lands on a
        # zero-mass tail or past the end
        last = cumulative.shape[0] - 1
        while self.weights[last] == 0.0:
            last -= 1
        cumulative[last:] = np.inf
        # the positions below each cumulative mass, less those below the
        # one before it
        offspring = np.diff(positions.searchsorted(cumulative, side="left"), prepend=0)
        kept = offspring > 0
        self.atoms = self.atoms[kept]
        self.counts = offspring[kept]
        self.weights = self.counts / n
        self.resample_count += 1
        self._kept = None


PosteriorState = GaussianConjugateState | FiniteSupportState | ParticleState


def check_engine_compatible(prior: Prior, noise: Noise, engine: EngineConfig) -> None:
    """Raise :class:`IncompatibleEngine` when the engine cannot represent
    the prior/noise pair: conjugate needs a Gaussian prior with an
    invertible covariance and Gaussian noise, finite_support needs a
    discrete prior, particle takes any pair.
    """
    if engine.kind == "gaussian_conjugate":
        if not (isinstance(prior, GaussianPrior) and isinstance(noise, GaussianNoise)):
            raise IncompatibleEngine(
                "gaussian_conjugate requires a Gaussian prior and Gaussian noise"
            )
        try:
            np.linalg.cholesky(prior.cov.mat)
        except np.linalg.LinAlgError as exc:
            raise IncompatibleEngine(
                "gaussian_conjugate needs an invertible prior covariance"
            ) from exc
    if engine.kind == "finite_support" and not isinstance(prior, FiniteSupportPrior):
        raise IncompatibleEngine("finite_support requires a finite-support prior")


def make_posterior(
    prior: Prior,
    noise: Noise,
    engine: EngineConfig,
    rng: Optional[np.random.Generator] = None,
    *,
    checked: bool = True,
) -> PosteriorState:
    """Build the posterior state for a prior/noise pair.

    Raises :class:`IncompatibleEngine` when :func:`check_engine_compatible`
    does, or when the particle engine gets no generator for its draws.
    ``checked=False`` skips that check, for a caller whose pair has passed
    it already: an episode plays an ``ExperimentConfig``, which ran it
    when it was built.
    """
    if checked:
        check_engine_compatible(prior, noise, engine)
    if engine.kind == "gaussian_conjugate":
        return GaussianConjugateState(prior, noise)
    if engine.kind == "finite_support":
        return FiniteSupportState(prior, noise)
    if rng is None:
        raise IncompatibleEngine("particle engine needs a random generator")
    return ParticleState(prior, noise, rng, n_particles=engine.particles)


# ---------------------------------------------------------------------------
# one-dimensional variance inflation example
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InflationReport:
    """Measured quantities for the variance inflation example."""

    p: float
    prior_variance: float
    outcome: float
    outcome_probability: float
    posterior_weights: Array
    posterior_ratio: float
    posterior_variance: float
    variance_inflated: bool


def counterexample_prior(p: float) -> FiniteSupportPrior:
    """Three-point scalar prior on {0, 1/4, 3/4} with weights (1-4p, 3p, p).

    For any p in (0, 1/4) the Bernoulli observation y = 1 along the unit
    action inflates the posterior variance above the prior variance.
    """
    if not 0.0 < p < 0.25:
        raise ValueError(f"p must lie in (0, 1/4), got {p}")
    atoms = np.array([[0.0], [0.25], [0.75]])
    weights = np.array([1.0 - 4.0 * p, 3.0 * p, p])
    return FiniteSupportPrior(atoms=atoms, weights=weights)


def counterexample_report(p: float, outcome: float = 1.0) -> InflationReport:
    """Run one exact Bayes update of the inflation example and report it.

    With outcome 1 the surviving support is {1/4, 3/4} with equal mass,
    because the prior odds 3:1 cancel against the likelihood odds 1:3. The
    posterior variance is then ((3/4 - 1/4)/2)^2 = 1/16. The prior
    variance 0.75p - 2.25p^2 stays below 1/16 for every p in (0, 1/4)
    except p = 1/6, where the two are equal; the ``variance_inflated``
    flag reports the measured comparison rather than assuming it.
    """
    prior = counterexample_prior(p)
    noise = BernoulliMeanNoise()
    state = FiniteSupportState(prior, noise)
    action = np.array([1.0])
    prior_var = state.quad_form(action)
    prob = float(state.weights @ noise.likelihood(outcome, prior.atoms @ action))
    state.update(action, outcome)
    post_var = state.quad_form(action)
    w = state.weights
    ratio = float(w[1] / w[2]) if w[2] > 0 else float("inf")
    return InflationReport(
        p=p,
        prior_variance=prior_var,
        outcome=outcome,
        outcome_probability=prob,
        posterior_weights=w.copy(),
        posterior_ratio=ratio,
        posterior_variance=post_var,
        variance_inflated=bool(post_var > prior_var),
    )
