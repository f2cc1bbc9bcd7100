import copy

import numpy as np
import pytest
import scipy.stats
from scipy.linalg import cho_solve, solve_triangular
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsim import bandit
from ellipsim import posterior as posterior_mod
from ellipsim.bandit import (
    FixedActionsGenerator,
    KArmedGaussianGenerator,
    run_episode,
)
from ellipsim.distributions import (
    BernoulliMeanNoise,
    FiniteSupportPrior,
    GaussianNoise,
    GaussianPrior,
    StudentTNoise,
    UniformCenteredNoise,
)
from ellipsim.harness import ExperimentConfig
from ellipsim.linalg import PsdMatrix, random_psd, symmetrize
from ellipsim.posterior import (
    DRAW_BLOCK,
    DRAW_SERIAL_MAX,
    DegenerateWeights,
    EngineConfig,
    FiniteSupportState,
    GaussianConjugateState,
    IncompatibleEngine,
    ParticleState,
    counterexample_prior,
    counterexample_report,
    make_posterior,
)
from ellipsim.potential import (
    _exact_potential,
    enumerate_posterior_outcomes,
    outcome_likelihoods,
)

SEED = 4242


def gaussian_pair(dim=3, sd=0.7):
    prior = GaussianPrior(mean=np.full(dim, 0.3), cov=PsdMatrix.identity(dim))
    return prior, GaussianNoise(sd=sd)


def two_atom_state(noise=None):
    prior = FiniteSupportPrior(
        atoms=np.array([[0.2], [0.8]]), weights=np.array([0.5, 0.5])
    )
    return FiniteSupportState(prior, noise or BernoulliMeanNoise())


# ---------------------------------------------------------------------------
# conjugate engine
# ---------------------------------------------------------------------------


def test_conjugate_matches_dense_bayes_regression():
    """Oracle: precision-form normal equations computed with dense inverses."""
    rng = np.random.default_rng(SEED)
    prior, noise = gaussian_pair()
    state = GaussianConjugateState(prior, noise)

    actions = rng.standard_normal((7, 3)) * 0.5
    rewards = rng.standard_normal(7)
    for a, y in zip(actions, rewards):
        state.update(a, float(y))

    prec = np.linalg.inv(np.asarray(prior.cov))
    shift = prec @ prior.mean
    for a, y in zip(actions, rewards):
        prec = prec + np.outer(a, a) / noise.sd**2
        shift = shift + a * y / noise.sd**2
    cov_ref = np.linalg.inv(prec)
    mean_ref = cov_ref @ shift

    assert np.allclose(state.mean(), mean_ref, atol=1e-10)
    assert np.allclose(state.covariance().mat, cov_ref, atol=1e-10)
    v = rng.standard_normal(3)
    assert state.quad_form(v) == pytest.approx(v @ cov_ref @ v, abs=1e-10)


def test_conjugate_initial_state_reproduces_prior():
    prior, noise = gaussian_pair(dim=2)
    state = GaussianConjugateState(prior, noise)
    assert np.allclose(state.mean(), prior.mean)
    assert np.allclose(state.covariance().mat, np.asarray(prior.cov))


def test_conjugate_sampling_moments():
    prior, noise = gaussian_pair(dim=2, sd=1.0)
    state = GaussianConjugateState(prior, noise)
    state.update(np.array([1.0, 0.0]), 2.0)
    rng = np.random.default_rng(SEED)
    draws = np.array([state.sample(rng) for _ in range(20_000)])
    assert np.allclose(draws.mean(axis=0), state.mean(), atol=0.03)
    assert np.allclose(np.cov(draws.T), state.covariance().mat, atol=0.05)


def rel_err(got, ref):
    return float(np.linalg.norm(np.asarray(got) - ref) / np.linalg.norm(ref))


def test_conjugate_agrees_with_dense_inverse_after_many_updates():
    """600 unit-norm updates at d=50 against dense-inverse normal equations."""
    dim = 50
    rng = np.random.default_rng(SEED)
    prior, noise = gaussian_pair(dim=dim, sd=0.8)
    state = GaussianConjugateState(prior, noise)
    prec = np.eye(dim)
    shift = prec @ prior.mean
    for _ in range(600):
        a = rng.standard_normal(dim)
        a /= np.linalg.norm(a)
        y = float(rng.standard_normal())
        state.update(a, y)
        prec = prec + np.outer(a, a) / noise.sd**2
        shift = shift + a * y / noise.sd**2
    cov_ref = np.linalg.inv(prec)
    assert rel_err(state.mean(), cov_ref @ shift) < 1e-12
    for v in rng.standard_normal((5, dim)):
        assert rel_err(state.quad_form(v), v @ cov_ref @ v) < 1e-12


@pytest.mark.parametrize("dim, sd, updates", [(5, 0.001, 5000), (20, 0.01, 3000)])
def test_conjugate_downdates_do_not_drift_under_small_noise(dim, sd, updates, monkeypatch):
    """Long unit-action runs with small noise, where rank-one downdates of
    the covariance cancel most of it, against dense-inverse normal
    equations. A draw every round factorizes the covariance, and no
    factorization may fail: a jitter retry would hide drift."""
    calls, failures = [], []
    cholesky = np.linalg.cholesky

    def counted(mat):
        calls.append(None)
        try:
            return cholesky(mat)
        except np.linalg.LinAlgError:
            failures.append(np.array(mat))
            raise

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    rng = np.random.default_rng(SEED)
    prior, noise = gaussian_pair(dim=dim, sd=sd)
    state = GaussianConjugateState(prior, noise)
    prec = np.eye(dim)
    shift = prec @ prior.mean
    for t in range(1, updates + 1):
        a = rng.standard_normal(dim)
        a /= np.linalg.norm(a)
        y = float(rng.standard_normal())
        state.quad_form(a)
        state.update(a, y)
        state.sample(rng)
        prec = prec + np.outer(a, a) / sd**2
        shift = shift + a * y / sd**2
        if t % 1000 == 0:
            cov_ref = np.linalg.inv(prec)
            assert rel_err(state.mean(), cov_ref @ shift) < 1e-11
            for v in rng.standard_normal((5, dim)):
                assert rel_err(state.quad_form(v), v @ cov_ref @ v) < 1e-11
    # one factorization of the prior, then one per draw
    assert len(calls) == updates + 1
    assert failures == []


def test_conjugate_update_reuses_only_a_current_kept_projection():
    """``update`` takes ``cov @ a`` from the last ``quad_form`` only for the
    same, unchanged array, and drops it once the covariance moves."""
    prior, noise = gaussian_pair(dim=3)
    a = np.array([0.3, -0.5, 0.8])
    fresh = GaussianConjugateState(prior, noise)
    fresh.update(a.copy(), 0.7)
    changed = GaussianConjugateState(prior, noise)
    b = np.array([0.1, 0.2, 0.3])
    changed.quad_form(b)
    b[:] = a
    changed.update(b, 0.7)
    assert np.array_equal(changed.cov, fresh.cov)
    kept = GaussianConjugateState(prior, noise)
    kept.quad_form(a)
    kept.update(a, 0.7)
    assert np.array_equal(kept.cov, fresh.cov)
    kept.update(a, 0.7)
    fresh.update(a.copy(), 0.7)
    assert np.array_equal(kept.cov, fresh.cov)


def test_conjugate_precision_stays_exactly_symmetric():
    """Rank-one downdates by an outer product keep the covariance exactly
    symmetric, so the factorization of its reversal, which reads only the
    lower triangle, sees the matrix itself."""
    dim = 6
    rng = np.random.default_rng(SEED)
    cov = random_psd(dim, 2.0, rng).mat + 0.1 * np.eye(dim)
    assert np.count_nonzero(cov - np.diag(np.diag(cov))) > 0
    prior = GaussianPrior(mean=np.zeros(dim), cov=PsdMatrix(cov))
    state = GaussianConjugateState(prior, GaussianNoise(sd=0.37))
    for _ in range(1000):
        state.update(rng.standard_normal(dim) * 0.4, float(rng.standard_normal()))
        assert np.array_equal(state.cov, state.cov.T)
    want = np.linalg.cholesky(np.ascontiguousarray(state.cov[::-1, ::-1]))
    assert np.array_equal(state._factor(), want)


def test_conjugate_sample_is_mean_plus_inverse_transpose_factor_draw():
    """Pins the covariance square root: the same z must give the same draw.

    The reversed lower factor of the covariance is the inverse transpose
    of the precision's lower factor, the square root the engine drew with
    in precision form, so the draw also matches that form's within
    rounding."""
    rng = np.random.default_rng(SEED)
    prior, noise = gaussian_pair(dim=6)
    state = GaussianConjugateState(prior, noise)
    prec = np.linalg.inv(np.asarray(prior.cov))
    shift = prec @ prior.mean
    for a in rng.standard_normal((9, 6)) * 0.4:
        y = float(rng.standard_normal())
        state.update(a, y)
        prec = prec + np.outer(a, a) / noise.sd**2
        shift = shift + a * y / noise.sd**2
    gen = np.random.default_rng(SEED + 1)
    twin = copy.deepcopy(gen)
    draw = state.sample(gen)
    z = twin.standard_normal(6)
    factor = np.linalg.cholesky(state.cov[::-1, ::-1])
    expected = state.mean() + (factor @ z[::-1])[::-1]
    assert np.array_equal(draw, expected)
    chol_p = np.linalg.cholesky(symmetrize(prec))
    precision_form = np.linalg.solve(prec, shift) + solve_triangular(
        chol_p.T, z, lower=False
    )
    assert rel_err(draw, precision_form) < 1e-12


class PrecisionFormConjugateState:
    """Reference engine: the precision-form conjugate posterior, factorized
    once per update, with scipy's triangular and Cholesky solves.

    Keeps P = cov^{-1} and the shift P @ mean; an update adds a a.T / sd^2
    to P. Draws are mean + L.T^{-1} z for P = L L.T.
    """

    def __init__(self, prior, noise):
        self.noise = noise
        mean0, cov0 = prior.moments()
        chol0 = np.linalg.cholesky(cov0.mat)
        self.precision = symmetrize(cho_solve((chol0, True), np.eye(cov0.dim)))
        self.shift = self.precision @ mean0
        self._chol = None

    @property
    def dim(self):
        return self.shift.shape[0]

    def _factor(self):
        if self._chol is None:
            self._chol = np.linalg.cholesky(self.precision)
        return self._chol

    def mean(self):
        return cho_solve((self._factor(), True), self.shift)

    def quad_form(self, v):
        w = solve_triangular(self._factor(), np.asarray(v, dtype=np.float64), lower=True)
        return float(w @ w)

    def sample(self, rng):
        z = rng.standard_normal(self.dim)
        return self.mean() + solve_triangular(self._factor().T, z, lower=False)

    def update(self, action, y):
        a = np.asarray(action, dtype=np.float64)
        inv_var = 1.0 / self.noise.sd**2
        self.precision += np.outer(a, a) * inv_var
        self.shift += a * (y * inv_var)
        self._chol = None


def test_conjugate_episode_matches_lu_solve_reference(monkeypatch):
    """The covariance-form engine plays the precision-form engine's episode:
    the same actions and regret, quadratic forms within rounding."""
    dim, horizon = 20, 150
    prior, noise = gaussian_pair(dim=dim, sd=1.0)
    run = ExperimentConfig(
        prior=prior,
        noise=noise,
        engine=EngineConfig(kind="gaussian_conjugate"),
        actions=KArmedGaussianGenerator(k=10, dim=dim),
        horizon=horizon,
        replications=1,
    )

    def episode():
        return run_episode(run, np.random.default_rng(SEED))

    fast = episode()
    monkeypatch.setattr(
        bandit,
        "make_posterior",
        lambda prior, noise, engine, rng=None, checked=True: PrecisionFormConjugateState(
            prior, noise
        ),
    )
    ref = episode()
    assert isinstance(ref.final_state, PrecisionFormConjugateState)
    assert np.array_equal(fast.actions, ref.actions)
    assert np.array_equal(fast.cumulative_regret, ref.cumulative_regret)
    fast_q, ref_q = np.asarray(fast.trace.gamma_quads), np.asarray(ref.trace.gamma_quads)
    assert np.all(np.abs(fast_q - ref_q) <= 1e-12 * np.abs(ref_q))


# ---------------------------------------------------------------------------
# finite support engine
# ---------------------------------------------------------------------------


def test_finite_support_bernoulli_update_by_hand():
    state = two_atom_state()
    state.update(np.array([1.0]), 1.0)
    # posterior odds 0.2 : 0.8 after a success
    assert np.allclose(state.weights, [0.2, 0.8])
    assert state.mean()[0] == pytest.approx(0.2 * 0.2 + 0.8 * 0.8)


def test_finite_support_gaussian_update_matches_manual_bayes():
    noise = GaussianNoise(sd=0.4)
    state = two_atom_state(noise)
    y, a = 0.55, np.array([1.0])
    state.update(a, y)
    lik = scipy.stats.norm.pdf(y, loc=[0.2, 0.8], scale=0.4)
    ref = 0.5 * lik / (0.5 * lik).sum()
    assert np.allclose(state.weights, ref, atol=1e-12)


def branch_one(state, action):
    """The outcome masses and unnormalized children of one engine state."""
    lik = outcome_likelihoods(state.noise, state.atoms @ action)
    raw, mass = enumerate_posterior_outcomes(state.weights[None, :], lik[None])
    return raw[0], mass[0]


def test_finite_support_outcome_probability():
    state = two_atom_state()
    _, mass = branch_one(state, np.array([1.0]))
    # P(y=0) = 0.5*0.8 + 0.5*0.2 and P(y=1) = 0.5*0.2 + 0.5*0.8
    assert mass.tolist() == pytest.approx([0.5, 0.5])


def test_finite_support_degenerate_update_raises():
    prior = FiniteSupportPrior(
        atoms=np.array([[0.2], [0.8]]), weights=np.array([0.5, 0.5])
    )
    noise = UniformCenteredNoise(half_width=0.05)
    exact = FiniteSupportState(prior, noise)
    particle = ParticleState(prior, noise, np.random.default_rng(SEED), n_particles=10)
    # each engine names itself: the message reaches summary.json as a
    # failure record, so its wording is part of the output
    for state, word in ((exact, "posterior"), (particle, "particle")):
        # 0.5 is farther than the half width from both predicted means
        with pytest.raises(DegenerateWeights) as info:
            state.update(np.array([1.0]), 0.5)
        assert str(info.value) == f"{word} weights vanished for outcome y=0.5"


def test_finite_support_quad_form_matches_covariance():
    state = two_atom_state()
    v = np.array([1.3])
    assert state.quad_form(v) == pytest.approx(state.covariance().quad_form(v))


def test_enumerate_outcomes_is_a_martingale():
    """Tower property: outcome-weighted child means reproduce the mean."""
    noise = BernoulliMeanNoise()
    weights = np.array([[0.25, 0.35, 0.4], [0.6, 0.1, 0.3], [0.0, 0.5, 0.5]])
    for atoms, action in (
        ([[0.1], [0.6], [0.3]], [1.0]),
        ([[0.1, 0.3], [0.6, 0.2], [0.3, 0.7]], [0.8, 0.2]),
    ):
        atoms, action = np.array(atoms), np.array(action)
        lik = outcome_likelihoods(noise, atoms @ action)
        raw, mass = enumerate_posterior_outcomes(
            weights, np.broadcast_to(lik, (3, *lik.shape))
        )
        np.testing.assert_allclose(mass.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        child_means = (raw / mass[:, :, None]) @ atoms
        mixed = (mass[:, :, None] * child_means).sum(axis=1)
        np.testing.assert_allclose(mixed, weights @ atoms, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [3, 8, 20, 200])
def test_enumerate_outcomes_children_are_engine_updates_bit_for_bit(n):
    """A frontier of states with one action each, branched at once: every
    child row over its mass is the weights FiniteSupportState.update gives."""
    rng = np.random.default_rng(SEED + n)
    noise = BernoulliMeanNoise()
    atoms = rng.uniform(0.0, 0.5, size=(n, 3))
    prior = FiniteSupportPrior(atoms=atoms, weights=rng.dirichlet(np.ones(n)))
    states, actions = [], []
    for row in range(5):
        state = FiniteSupportState(prior, noise)
        for _ in range(row):
            state.update(np.full(3, 3.0**-0.5), float(rng.random() < 0.4))
        action = rng.random(3)
        states.append(state)
        actions.append(action / np.linalg.norm(action))
    raw, mass = enumerate_posterior_outcomes(
        np.array([s.weights for s in states]),
        np.array([outcome_likelihoods(noise, atoms @ a) for a in actions]),
    )
    for i, (state, action) in enumerate(zip(states, actions)):
        for j, y in enumerate(noise.finite_outcomes):
            child = copy.copy(state)
            child.update(action, y)
            assert np.array_equal(raw[i, j] / mass[i, j], child.weights)


def test_enumerate_outcomes_gives_no_child_at_zero_mass():
    noise = BernoulliMeanNoise()
    prior = FiniteSupportPrior(
        atoms=np.array([[0.0], [1.0]]), weights=np.array([0.5, 0.5])
    )
    state = FiniteSupportState(prior, noise)
    raw, mass = branch_one(state, np.array([1.0]))
    assert mass.tolist() == [0.5, 0.5]
    state.update(np.array([1.0]), 1.0)
    # all mass on the atom of mean 1, so a failure cannot happen
    raw, mass = branch_one(state, np.array([1.0]))
    assert mass.tolist() == [0.0, 1.0]
    assert raw[0].tolist() == [0.0, 0.0]
    # so the lattice keeps one child per point mass: two nodes a depth
    per_round, total, nodes = _exact_potential(prior, noise, 4)
    assert nodes == [1, 2, 2, 2]
    assert per_round.tolist() == [0.25, 0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "n",
    [
        1,
        8,
        2 * DRAW_BLOCK,
        2 * DRAW_BLOCK + 1,
        5 * DRAW_BLOCK + 3,
        DRAW_SERIAL_MAX,
        DRAW_SERIAL_MAX + 1,
        DRAW_SERIAL_MAX + 3 * DRAW_BLOCK + 3,
        20_000,
    ],
)
def test_finite_support_sample_reproduces_generator_choice(n):
    """The inline draw picks the index rng.choice(n, p=weights) picks and
    leaves the generator where choice leaves it, zero weights included."""
    rng = np.random.default_rng(SEED + n)
    weights = rng.random(n) * (rng.random(n) > 0.3)
    weights[[0, -1]] = 0.0
    weights[n // 2] = 1.0
    # atom i is (i / n, 0), so a drawn row names its index
    atoms = np.column_stack([np.arange(n) / n, np.zeros(n)])
    prior = FiniteSupportPrior(atoms=atoms, weights=weights / weights.sum())
    state = FiniteSupportState(prior, GaussianNoise(sd=0.5))
    ours, ref = np.random.default_rng(SEED), np.random.default_rng(SEED)
    for step in range(40):
        got = state.sample(ours)
        want = ref.choice(n, p=state.weights)
        assert state.weights[want] > 0.0
        assert np.array_equal(got, atoms[want])
        assert ours.random() == ref.random()
        if step % 10 == 9:
            state.update(np.array([1.0, 0.0]), float(rng.random()))


class FixedUniform:
    """Stands in for a generator whose next ``random()`` is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def indexed_state(weights):
    """A finite-support state holding ``weights`` (any positive total);
    atom i is (i, 0), so a drawn row names its index."""
    n = weights.shape[0]
    atoms = np.column_stack([np.arange(n) / n, np.zeros(n)])
    state = FiniteSupportState(
        FiniteSupportPrior(atoms=atoms, weights=np.full(n, 1.0 / n)),
        GaussianNoise(sd=0.5),
    )
    state.weights = weights
    return state


def drawn_index(state, u):
    return int(round(state.sample(FixedUniform(u))[0] * state.weights.shape[0]))


@settings(max_examples=300, deadline=None)
@given(
    n=st.sampled_from(
        [
            1,
            DRAW_BLOCK,
            DRAW_SERIAL_MAX,
            DRAW_SERIAL_MAX + 1,
            DRAW_SERIAL_MAX + 3 * DRAW_BLOCK + 3,
            3 * DRAW_SERIAL_MAX,
        ]
    )
    | st.integers(1, 3 * DRAW_SERIAL_MAX),
    seed=st.integers(0, 2**32 - 1),
    tail=st.sampled_from([0.3, 1.0, 5.0]),
    zero_share=st.floats(0.0, 1.0),
    zero_run=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    dominant=st.none() | st.tuples(st.floats(0.0, 1.0), st.floats(1.0, 1e15)),
    scale=st.sampled_from([1e-300, 1e-9, 1.0, 1e12, 1e290]),
    u=st.floats(0.0, 1.0, exclude_max=True),
)
def test_draw_picks_the_serial_index_for_any_weights(
    n, seed, tail, zero_share, zero_run, dominant, scale, u
):
    """Below, at and above the threshold, with a ragged last block, long
    zero runs, heavy tails, a dominant atom and totals far from 1, the
    draw picks the index of the serial cumulative sum for any u."""
    rng = np.random.default_rng(seed)
    weights = rng.pareto(tail, n) * (rng.random(n) >= zero_share)
    start = int(zero_run[0] * n)
    weights[start : start + int(zero_run[1] * n)] = 0.0
    if dominant is not None:
        weights[int(dominant[0] * (n - 1))] = dominant[1] * max(weights.sum(), 1.0)
    if weights.sum() == 0.0:
        weights[rng.integers(n)] = 1.0
    weights = weights / weights.sum() * scale
    want = posterior_mod._serial_index(weights, u)
    assert weights[want] > 0.0
    assert posterior_mod._blocked_index(weights, u) == want
    assert drawn_index(indexed_state(weights), u) == want


@pytest.mark.parametrize("ulps", [-1, 0, 1])
@pytest.mark.parametrize(
    "position",
    [5 * DRAW_BLOCK + 17, 5 * DRAW_BLOCK - 1, None],
    ids=["inside-a-block", "at-a-block-edge", "zero"],
)
def test_blocked_draw_refuses_a_u_on_a_cumulative_value(position, ulps, monkeypatch):
    """A u on a serial cumulative value, or a step of one ulp either side,
    is too close to call: the certificate refuses and the serial
    statements give the index."""
    n = DRAW_SERIAL_MAX + 3 * DRAW_BLOCK + 3
    weights = np.random.default_rng(SEED).random(n)
    weights /= weights.sum()
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    u = 0.0 if position is None else float(cdf[position])
    for _ in range(abs(ulps)):
        u = float(np.nextafter(u, 1.0 if ulps > 0 else 0.0))
    serial = posterior_mod._serial_index
    calls = []
    monkeypatch.setattr(
        posterior_mod, "_serial_index", lambda w, v: calls.append(v) or serial(w, v)
    )
    assert drawn_index(indexed_state(weights), u) == serial(weights, u)
    assert calls == [u]


def test_blocked_draw_certifies_ordinary_draws(monkeypatch):
    """Generator draws on a 20,000-atom posterior pass the certificate:
    the serial statements never run, and the draws are choice's."""
    n = 20_000
    rng = np.random.default_rng(SEED)
    weights = rng.pareto(1.0, n) * (rng.random(n) > 0.3)
    weights[n // 3 : n // 2] = 0.0
    state = indexed_state(weights / weights.sum())
    calls = []
    monkeypatch.setattr(posterior_mod, "_serial_index", lambda *args: calls.append(args))
    ours, ref = np.random.default_rng(SEED), np.random.default_rng(SEED)
    for _ in range(500):
        got = state.sample(ours)
        assert np.array_equal(got, state.atoms[ref.choice(n, p=state.weights)])
    assert calls == []


@settings(max_examples=50, deadline=None)
@given(
    w0=st.floats(0.05, 0.95),
    outcomes=st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=12),
)
def test_finite_support_weights_stay_normalized(w0, outcomes):
    prior = FiniteSupportPrior(
        atoms=np.array([[0.3], [0.6]]), weights=np.array([w0, 1.0 - w0])
    )
    state = FiniteSupportState(prior, BernoulliMeanNoise())
    for y in outcomes:
        state.update(np.array([1.0]), y)
    assert np.all(state.weights >= 0)
    assert state.weights.sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# particle engine
# ---------------------------------------------------------------------------


def test_particle_initial_moments_near_prior():
    prior, noise = gaussian_pair(dim=2)
    rng = np.random.default_rng(SEED)
    state = ParticleState(prior, noise, rng, n_particles=20_000)
    assert state.effective_sample_size() == pytest.approx(20_000)
    assert np.allclose(state.mean(), prior.mean, atol=0.03)
    assert np.allclose(state.covariance().mat, np.eye(2), atol=0.05)


def test_particle_update_reweights_and_resamples():
    prior, _ = gaussian_pair(dim=2)
    noise = GaussianNoise(sd=0.05)  # sharp likelihood forces a resample
    rng = np.random.default_rng(SEED)
    state = ParticleState(prior, noise, rng, n_particles=500)
    state.update(np.array([1.0, 0.0]), 0.3)
    assert state.resample_count == 1
    assert np.allclose(state.weights / state.counts, 1.0 / 500)
    assert state.n_particles == state.particles.shape[0] == 500


def test_particle_tracks_conjugate_posterior():
    prior, noise = gaussian_pair(dim=2, sd=1.5)
    exact = GaussianConjugateState(prior, noise)
    rng = np.random.default_rng(SEED)
    particle = ParticleState(prior, noise, rng, n_particles=20_000)

    action_rng = np.random.default_rng(SEED + 1)
    for _ in range(20):
        a = action_rng.standard_normal(2)
        a /= np.linalg.norm(a)
        y = float(a @ np.array([0.5, -0.2]) + action_rng.normal(0, 1.5))
        exact.update(a, y)
        particle.update(a, y)

    assert np.linalg.norm(particle.mean() - exact.mean()) < 0.05
    assert (
        np.linalg.norm(particle.covariance().mat - exact.covariance().mat) < 0.05
    )


class FixedDraw:
    """Stands in for the generator: ``random()`` returns a set value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def uniform(n):
    return np.full(n, 1.0 / n)


def resampled_indices(weights, u):
    """The particle indices a systematic resample at offset ``u`` draws."""
    n = weights.shape[0]
    prior, noise = gaussian_pair(dim=1)
    state = ParticleState(prior, noise, np.random.default_rng(SEED), n_particles=n)
    # particle i is (i,), so a resampled row names its index
    state.atoms = np.arange(n, dtype=np.float64)[:, None]
    state.weights = weights.copy()
    state.rng = FixedDraw(u)
    state._systematic_resample()
    assert np.array_equal(state.weights, state.counts / n)
    assert state.counts.sum() == n
    return state.particles[:, 0].astype(int)


@pytest.mark.parametrize(
    "weights,u",
    [
        # 1/8 is exact, so every position k/8 ties with a cumulative weight
        (uniform(8), 0.0),
        (uniform(10), 0.0),
        (uniform(1000), 0.0),
        (np.array([0.0, 0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0, 0.0]), 0.0),
        (np.array([0.0, 0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.25, 0.0, 0.0]), 0.5),
        (np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]), 0.0),
        (np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]), 0.999),
        (np.array([1.0, 0.0, 0.0]), 0.3),
        (np.array([0.0, 0.0, 1.0]), 0.3),
        (np.array([0.3, 0.7]), 0.0),
        (np.array([0.5, 0.5]), 0.0),
        (np.array([0.7, 0.3]), 0.999),
    ],
    ids=[
        "uniform8-u0",
        "uniform10-u0",
        "uniform1000-u0",
        "zero-runs-u0",
        "zero-runs-u0.5",
        "one-mass-u0",
        "one-mass-u0.999",
        "first-mass",
        "last-mass",
        "n2-u0",
        "n2-even-u0",
        "n2-u0.999",
    ],
)
def test_systematic_resample_picks_the_searchsorted_indices(weights, u):
    """The resample picks ``np.searchsorted(cumulative, positions,
    side="right")``: a position that ties with a cumulative
    weight goes to the next particle, so no zero-weight particle is drawn."""
    n = weights.shape[0]
    positions = (np.arange(n) + u) / n
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0
    want = np.searchsorted(cumulative, positions, side="right")
    assert np.array_equal(resampled_indices(weights, u), want)
    assert np.all(weights[want] > 0.0)


def test_systematic_resample_of_uniform_weights_at_u0_is_the_identity():
    # 1/8 is exact, so each position k/8 ties with particle k - 1's
    # cumulative weight and belongs to particle k
    assert np.array_equal(resampled_indices(uniform(8), 0.0), np.arange(8))


@pytest.mark.parametrize(
    "weights",
    [np.array([0.25, 0.5, 0.25, 0.0]), np.append(np.full(10, 0.1), 0.0)],
    ids=["exact-sum", "sum-rounds-below-1"],
)
def test_systematic_resample_gives_a_position_rounded_to_1_a_positive_weight(
    weights,
):
    """At u just below 1 the last position, (n - 1 + u) / n, rounds to 1.0;
    it goes to the last particle of positive weight, not to the zero-weight
    one after it nor past the end. In the second case the running sum also
    stops short of 1 before the zero-weight particle."""
    picked = resampled_indices(weights, np.nextafter(1.0, 0.0))
    assert np.all(weights[picked] > 0.0)
    assert picked[-1] == np.flatnonzero(weights)[-1]


@pytest.mark.parametrize("seed", range(5))
def test_systematic_resample_matches_searchsorted_on_random_weights(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 3000))
    weights = rng.random(n) ** 8 * (rng.random(n) > 0.5)
    weights[rng.integers(n)] = 1.0
    weights /= weights.sum()
    prior, noise = gaussian_pair(dim=2)
    state = ParticleState(prior, noise, np.random.default_rng(seed), n_particles=n)
    atoms, u = state.atoms.copy(), rng.random()
    state.weights = weights
    state.rng = FixedDraw(u)
    state._systematic_resample()
    cumulative = np.cumsum(weights)
    cumulative[-1] = 1.0
    want = np.searchsorted(cumulative, (np.arange(n) + u) / n, side="right")
    assert np.array_equal(state.particles, atoms[want])
    assert np.array_equal(state.weights, state.counts / n)
    assert np.all(weights[want] > 0.0)


def finite_and_particle_states():
    prior = FiniteSupportPrior(
        atoms=np.array([[0.2, 0.1], [0.5, -0.2], [-0.1, 0.4], [0.3, 0.3]]),
        weights=np.array([0.4, 0.3, 0.2, 0.1]),
    )
    noise = GaussianNoise(sd=0.5)
    gauss, _ = gaussian_pair(dim=2)
    return [
        lambda: FiniteSupportState(prior, noise),
        lambda: ParticleState(
            gauss, noise, np.random.default_rng(SEED), n_particles=500
        ),
    ]


@pytest.mark.parametrize(
    "make", finite_and_particle_states(), ids=["finite_support", "particle"]
)
def test_action_changed_after_quad_form_is_projected_afresh(make):
    state, fresh = make(), make()
    action = np.array([0.6, 0.8])
    state.quad_form(action)
    action[1] = -0.3
    state.update(action, 0.4)
    fresh.update(np.array([0.6, -0.3]), 0.4)
    assert np.array_equal(state.weights, fresh.weights)


class RecordingNoise:
    """Passes ``likelihood`` through and records the means it was given."""

    def __init__(self, noise):
        self.noise = noise
        self.means = []

    def likelihood(self, y, mean):
        self.means.append(mean)
        return self.noise.likelihood(y, mean)


@pytest.mark.parametrize(
    "make", finite_and_particle_states(), ids=["finite_support", "particle"]
)
def test_kept_projection_is_reused_only_for_the_same_unchanged_action(make):
    state = make()
    state.noise = recorder = RecordingNoise(state.noise)
    action = np.array([0.6, 0.8])
    action.flags.writeable = False
    state.quad_form(action)
    kept = state._kept[2]
    state.update(action.copy(), 0.4)
    assert recorder.means[-1] is not kept
    assert np.array_equal(recorder.means[-1], kept)
    state.quad_form(action)
    kept = state._kept[2]
    state.update(action, 0.4)
    assert recorder.means[-1] is kept
    if isinstance(state, ParticleState):
        state._systematic_resample()
        assert state._kept is None


class ReferenceFiniteSupportState:
    """Standalone finite-support engine: the reads and the reweight that a
    bandit episode uses, written out as the reference to reproduce."""

    def __init__(self, prior, noise):
        self.noise = noise
        self.atoms = prior.atoms
        self.weights = prior.weights.copy()

    def quad_form(self, v):
        proj = self.atoms @ np.asarray(v, dtype=np.float64)
        m = float(self.weights @ proj)
        return float(self.weights @ (proj - m) ** 2)

    def sample(self, rng):
        return self.atoms[rng.choice(self.atoms.shape[0], p=self.weights)]

    def update(self, action, y):
        a = np.asarray(action, dtype=np.float64)
        raw = self.weights * self.noise.likelihood(y, self.atoms @ a)
        self.weights = raw / float(raw.sum())


class ReferenceParticleState:
    """Standalone sequential importance resampler, with its own copies of
    the reads, the reweight and systematic resampling."""

    def __init__(self, prior, noise, rng, n_particles):
        self.noise = noise
        self.rng = rng
        self.particles = prior.sample_many(rng, n_particles)
        self.weights = np.full(n_particles, 1.0 / n_particles)
        self.resample_count = 0

    def quad_form(self, v):
        proj = self.particles @ np.asarray(v, dtype=np.float64)
        m = float(self.weights @ proj)
        return float(self.weights @ (proj - m) ** 2)

    def sample(self, rng):
        idx = rng.choice(self.particles.shape[0], p=self.weights)
        return self.particles[idx]

    def update(self, action, y):
        a = np.asarray(action, dtype=np.float64)
        raw = self.weights * self.noise.likelihood(y, self.particles @ a)
        self.weights = raw / float(raw.sum())
        n = self.particles.shape[0]
        if 1.0 / float(self.weights @ self.weights) < n / 2.0:
            positions = (np.arange(n) + self.rng.random()) / n
            cumulative = np.cumsum(self.weights)
            cumulative[-1] = 1.0
            idx = np.searchsorted(cumulative, positions)
            self.particles = self.particles[idx].copy()
            self.weights = np.full(n, 1.0 / n)
            self.resample_count += 1


def _replay_against(monkeypatch, prior, noise, gen, engine, horizon, make_ref):
    run = ExperimentConfig(
        prior=prior,
        noise=noise,
        engine=engine,
        actions=gen,
        horizon=horizon,
        replications=1,
    )

    def episode():
        return run_episode(run, np.random.default_rng(SEED))

    merged = episode()
    monkeypatch.setattr(
        bandit,
        "make_posterior",
        lambda prior, noise, engine, rng=None, checked=True: make_ref(prior, noise, rng),
    )
    ref = episode()
    assert np.array_equal(merged.actions, ref.actions)
    assert np.array_equal(merged.cumulative_regret, ref.cumulative_regret)
    return merged, ref


def _replay_particles_against_reference(monkeypatch, prior, noise, gen, engine, horizon):
    """A particle episode and its replay on :class:`ReferenceParticleState`.

    Actions, regret, resamples and the particles agree exactly. The
    quadratic forms and each particle's weight agree to rtol 1e-12: the
    engine sums over its distinct rows, the reference over every particle,
    and the two sums round apart in the last bits.
    """
    merged, ref = _replay_against(
        monkeypatch,
        prior,
        noise,
        gen,
        engine,
        horizon,
        lambda prior, noise, rng: ReferenceParticleState(
            prior, noise, rng, engine.particles
        ),
    )
    state, want = merged.final_state, ref.final_state
    assert isinstance(state, ParticleState)
    assert want.resample_count > 0
    assert state.resample_count == want.resample_count
    assert np.array_equal(state.particles, want.particles)
    np.testing.assert_allclose(
        merged.trace.gamma_quads, ref.trace.gamma_quads, rtol=1e-12, atol=0
    )
    per_particle = (state.weights / state.counts).repeat(state.counts)
    np.testing.assert_allclose(per_particle, want.weights, rtol=1e-12, atol=0)
    return state


def test_particle_episode_matches_standalone_reference(monkeypatch):
    prior = GaussianPrior(mean=np.zeros(3), cov=PsdMatrix(0.5 * np.eye(3)))
    noise = StudentTNoise(dof=4.0, scale=0.5)
    engine = EngineConfig(kind="particle", particles=3000)
    _replay_particles_against_reference(
        monkeypatch, prior, noise, KArmedGaussianGenerator(k=8, dim=3), engine, 100
    )


def test_particle_fixed_actions_episode_matches_standalone_reference(monkeypatch):
    """The same action rows every round: the projection kept by quad_form
    serves update, across resamples."""
    prior = GaussianPrior(mean=np.zeros(3), cov=PsdMatrix(0.5 * np.eye(3)))
    noise = StudentTNoise(dof=4.0, scale=0.5)
    engine = EngineConfig(kind="particle", particles=3000)
    vectors = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.6, 0.8, 0.0],
            [0.0, -0.6, 0.8],
        ]
    )
    _replay_particles_against_reference(
        monkeypatch, prior, noise, FixedActionsGenerator(vectors), engine, 100
    )


def test_finite_support_episode_matches_standalone_reference(monkeypatch):
    prior = FiniteSupportPrior(
        atoms=np.array(
            [[0.2, 0.1, 0.3], [0.5, 0.2, 0.1], [0.1, 0.4, 0.2], [0.3, 0.3, 0.3]]
        ),
        weights=np.array([0.4, 0.3, 0.2, 0.1]),
    )
    merged, ref = _replay_against(
        monkeypatch,
        prior,
        BernoulliMeanNoise(),
        KArmedGaussianGenerator(k=10, dim=3, nonnegative=True),
        EngineConfig(kind="finite_support"),
        200,
        lambda prior, noise, rng: ReferenceFiniteSupportState(prior, noise),
    )
    assert type(merged.final_state) is FiniteSupportState
    assert merged.trace.gamma_quads == ref.trace.gamma_quads
    assert np.array_equal(merged.final_state.weights, ref.final_state.weights)


# ---------------------------------------------------------------------------
# particles kept as distinct rows with copy counts
# ---------------------------------------------------------------------------


class DistinctDrawsPrior(FiniteSupportPrior):
    """A finite-support prior whose draws never coincide: the i-th draw of
    a call is scaled by 1 - i * 2**-40, so two equal rows are one draw."""

    def sample_many(self, rng, size):
        draws = super().sample_many(rng, size)
        return draws * (1.0 - np.arange(size) * 2.0**-40)[:, None]


def replay_cases():
    """(prior, noise, action generator, rounds) per noise family, each
    giving several resamples and keeping two or more distinct particles;
    the uniform boxcar empties a 500-particle filter after 36 rounds, so
    it plays 24. The Bernoulli prior spreads 4096 points over
    the nonnegative orthant of the unit ball, where every nonnegative unit
    action's mean lies in [0, 1]."""
    gauss = GaussianPrior(mean=np.zeros(3), cov=PsdMatrix(0.5 * np.eye(3)))
    rng = np.random.default_rng(7)
    atoms = np.abs(rng.standard_normal((4096, 3)))
    atoms *= rng.random((4096, 1)) ** (1 / 3) / np.linalg.norm(atoms, axis=1, keepdims=True)
    orthant = DistinctDrawsPrior(atoms=atoms, weights=np.full(4096, 1.0 / 4096))
    arms = KArmedGaussianGenerator(k=8, dim=3)
    return {
        "gaussian": (gauss, GaussianNoise(sd=0.5), arms, 40),
        "student_t": (gauss, StudentTNoise(dof=4.0, scale=0.5), arms, 40),
        "uniform": (gauss, UniformCenteredNoise(half_width=3.0), arms, 24),
        "bernoulli": (
            orthant,
            BernoulliMeanNoise(),
            KArmedGaussianGenerator(k=8, dim=3, nonnegative=True),
            100,
        ),
    }


@pytest.mark.parametrize("n", [500, 20_000])
@pytest.mark.parametrize("family", list(replay_cases()))
def test_distinct_particles_replay_the_reference(family, n, monkeypatch):
    """An episode on the engine against :class:`ReferenceParticleState`,
    which keeps every particle. After each resample the copy counts sum
    to n, every kept row has a copy and a mass of counts / n, and no two
    rows are one draw; each reweight calls the likelihood once, on the
    distinct rows alone."""
    prior, noise, arms, rounds = replay_cases()[family]
    lengths = []
    likelihood = vars(type(noise))["likelihood"]

    def counted(self, y, mean):
        lengths.append(np.shape(mean)[0])
        return likelihood(self, y, mean)

    monkeypatch.setattr(type(noise), "likelihood", counted)
    update = ParticleState.update
    resample = ParticleState._systematic_resample

    def checked_update(self, action, y):
        rows, calls = self.atoms.shape[0], len(lengths)
        update(self, action, y)
        assert lengths[calls:] == [rows]

    def checked_resample(self):
        resample(self)
        n_kept = self.atoms.shape[0]
        assert self.counts.shape == (n_kept,) and self.counts.sum() == n
        assert np.all(self.counts >= 1)
        assert np.array_equal(self.weights, self.counts / n)
        assert np.unique(self.atoms, axis=0).shape[0] == n_kept

    monkeypatch.setattr(ParticleState, "update", checked_update)
    monkeypatch.setattr(ParticleState, "_systematic_resample", checked_resample)
    engine = EngineConfig(kind="particle", particles=n)
    state = _replay_particles_against_reference(
        monkeypatch, prior, noise, arms, engine, rounds
    )
    assert state.resample_count >= 3
    assert state.atoms.shape[0] < n


# ---------------------------------------------------------------------------
# factory and configuration
# ---------------------------------------------------------------------------


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(kind="magic")
    with pytest.raises(ValueError):
        EngineConfig(kind="particle", particles=1)


def test_make_posterior_compatibility():
    gauss_prior, gauss_noise = gaussian_pair()
    finite_prior = counterexample_prior(0.05)

    state = make_posterior(gauss_prior, gauss_noise, EngineConfig(kind="gaussian_conjugate"))
    assert isinstance(state, GaussianConjugateState)

    with pytest.raises(IncompatibleEngine):
        make_posterior(finite_prior, BernoulliMeanNoise(), EngineConfig(kind="gaussian_conjugate"))
    with pytest.raises(IncompatibleEngine):
        make_posterior(gauss_prior, gauss_noise, EngineConfig(kind="finite_support"))
    with pytest.raises(IncompatibleEngine):
        make_posterior(gauss_prior, gauss_noise, EngineConfig(kind="particle"))

    rng = np.random.default_rng(SEED)
    particle = make_posterior(
        gauss_prior, gauss_noise, EngineConfig(kind="particle", particles=64), rng=rng
    )
    assert isinstance(particle, ParticleState)
    assert particle.n_particles == 64


# ---------------------------------------------------------------------------
# variance inflation example
# ---------------------------------------------------------------------------


def test_conjugate_engine_needs_an_invertible_prior_covariance():
    prior = GaussianPrior(mean=np.zeros(2), cov=PsdMatrix(np.diag([1.0, 0.0])))
    noise = GaussianNoise(sd=1.0)
    with pytest.raises(IncompatibleEngine, match="invertible prior covariance"):
        make_posterior(prior, noise, EngineConfig(kind="gaussian_conjugate"))
    # the particle engine samples a singular Gaussian prior fine
    rng = np.random.default_rng(SEED)
    particle = EngineConfig(kind="particle", particles=8)
    state = make_posterior(prior, noise, particle, rng=rng)
    assert np.all(state.atoms[:, 1] == 0.0)


def test_counterexample_prior_validation():
    with pytest.raises(ValueError):
        counterexample_prior(0.0)
    with pytest.raises(ValueError):
        counterexample_prior(0.25)


def test_counterexample_success_outcome_exact_values():
    report = counterexample_report(0.05, outcome=1.0)
    # prior variance: E[theta^2] - E[theta]^2 with hand-expanded sums
    e1 = 0.25 * 0.15 + 0.75 * 0.05
    e2 = 0.0625 * 0.15 + 0.5625 * 0.05
    assert report.prior_variance == pytest.approx(e2 - e1 * e1, abs=1e-15)
    assert report.outcome_probability == pytest.approx(e1, abs=1e-15)
    assert np.allclose(report.posterior_weights, [0.0, 0.5, 0.5], atol=1e-15)
    assert report.posterior_ratio == pytest.approx(1.0, abs=1e-12)
    # equal mass on {1/4, 3/4} has variance exactly 1/16
    assert report.posterior_variance == pytest.approx(0.0625, abs=1e-15)
    assert report.variance_inflated


def test_counterexample_failure_outcome_shrinks_variance():
    report = counterexample_report(0.05, outcome=0.0)
    assert not report.variance_inflated
    assert report.posterior_variance < report.prior_variance


@pytest.mark.parametrize("p", [0.01, 0.1, 0.16, 0.2, 0.24])
def test_counterexample_inflates_across_the_family(p):
    report = counterexample_report(p, outcome=1.0)
    # posterior variance is 1/16 regardless of p; the prior variance only
    # reaches 1/16 at p = 1/6
    assert report.posterior_variance == pytest.approx(0.0625, abs=1e-15)
    expected_inflation = report.prior_variance < 0.0625
    assert report.variance_inflated == expected_inflation
