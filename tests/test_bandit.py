import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ellipsim.bandit import (
    EmptyActionSet,
    EpisodeFailure,
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
from ellipsim.distributions import (
    BernoulliMeanNoise,
    FiniteSupportPrior,
    GaussianNoise,
    GaussianPrior,
)
from ellipsim.linalg import PsdMatrix
from ellipsim.posterior import EngineConfig, GaussianConjugateState

SEED = 333


# ---------------------------------------------------------------------------
# action sets and generators
# ---------------------------------------------------------------------------


def test_finite_action_set_argmax_and_ties():
    aset = FiniteActionSet(np.array([[1.0, 0.0], [0.0, 1.0], [0.6, -0.8]]))
    assert np.allclose(aset.argmax([2.0, 0.1]), [1.0, 0.0])
    # exact tie between the first two rows goes to the lower index
    assert np.allclose(aset.argmax([1.0, 1.0]), [1.0, 0.0])
    assert aset.dim == 2


def test_finite_action_set_validation():
    with pytest.raises(ValueError, match="norms"):
        FiniteActionSet(np.array([[1.2, 0.0]]))
    with pytest.raises(EmptyActionSet):
        FiniteActionSet(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        FiniteActionSet(np.zeros(3))


def test_sphere_action_set_normalizes():
    aset = UnitSphereGenerator(dim=3)
    theta = np.array([3.0, 0.0, 4.0])
    assert np.allclose(aset.argmax(theta), [0.6, 0.0, 0.8])
    assert np.allclose(aset.argmax(np.zeros(3)), [1.0, 0.0, 0.0])


def test_fixed_generator_repeats_and_reports_sign():
    gen = FixedActionsGenerator(np.array([[0.5, 0.5], [1.0, 0.0]]))
    rng = np.random.default_rng(SEED)
    assert gen.sample_round(rng) is gen.sample_round(rng)
    assert gen.nonnegative
    signed = FixedActionsGenerator(np.array([[-0.5, 0.5]]))
    assert not signed.nonnegative


def test_karmed_generator_shapes_and_folding():
    gen = KArmedGaussianGenerator(k=7, dim=4, nonnegative=True)
    rng = np.random.default_rng(SEED)
    aset = gen.sample_round(rng)
    assert aset.actions.shape == (7, 4)
    assert np.all(aset.actions >= 0)
    assert np.allclose(np.linalg.norm(aset.actions, axis=1), 1.0)
    assert not aset.actions.flags.writeable


def test_unit_sphere_generator():
    gen = UnitSphereGenerator(dim=2)
    rng = np.random.default_rng(SEED)
    # the sphere never changes, so the generator is its own action set
    assert gen.sample_round(rng) is gen
    assert not gen.nonnegative


# ---------------------------------------------------------------------------
# policy steps
# ---------------------------------------------------------------------------


def test_policy_steps_pick_argmax_of_their_parameter():
    prior = GaussianPrior(mean=np.array([1.0, 0.0]), cov=PsdMatrix.identity(2))
    state = GaussianConjugateState(prior, GaussianNoise(sd=1.0))
    aset = FiniteActionSet(np.array([[1.0, 0.0], [0.0, 1.0]]))

    assert np.allclose(greedy_step(state, aset), [1.0, 0.0])

    rng = np.random.default_rng(SEED)
    chosen, theta_tilde = lints_step(state, aset, rng)
    assert np.allclose(chosen, aset.argmax(theta_tilde))

    assert np.allclose(optimal_action([0.2, 0.9], aset), [0.0, 1.0])


def test_lints_step_is_seed_deterministic():
    prior = GaussianPrior(mean=np.zeros(2), cov=PsdMatrix.identity(2))
    state = GaussianConjugateState(prior, GaussianNoise(sd=1.0))
    aset = FiniteActionSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
    a1, t1 = lints_step(state, aset, np.random.default_rng(99))
    a2, t2 = lints_step(state, aset, np.random.default_rng(99))
    assert np.allclose(a1, a2)
    assert np.allclose(t1, t2)


# ---------------------------------------------------------------------------
# episodes
# ---------------------------------------------------------------------------


def gaussian_episode(policy="lints", horizon=40, seed=SEED):
    prior = GaussianPrior(mean=np.zeros(3), cov=PsdMatrix.identity(3))
    noise = GaussianNoise(sd=1.0)
    gen = KArmedGaussianGenerator(k=6, dim=3)
    rng = np.random.default_rng(seed)
    return run_episode(
        prior, noise, gen, EngineConfig(kind="gaussian_conjugate"),
        horizon=horizon, rng=rng, policy=policy,
    )


def test_episode_shapes_and_regret_accounting():
    result = gaussian_episode()
    assert result.horizon == 40
    assert result.actions.shape == (40, 3)
    assert np.all(result.instant_regret >= 0)
    assert np.allclose(result.cumulative_regret, np.cumsum(result.instant_regret))
    # per-round optimality of the recorded comparator
    for t in range(result.horizon):
        assert result.theta_star @ result.optimal_actions[t] >= (
            result.theta_star @ result.actions[t] - 1e-12
        )


def test_episode_is_reproducible():
    a = gaussian_episode(seed=11)
    b = gaussian_episode(seed=11)
    assert np.allclose(a.theta_star, b.theta_star)
    assert np.allclose(a.actions, b.actions)
    assert np.allclose(a.rewards, b.rewards)
    c = gaussian_episode(seed=12)
    assert not np.allclose(a.rewards, c.rewards)


def test_episode_trace_records_every_round():
    result = gaussian_episode(horizon=25)
    assert len(result.trace.gamma_quads) == 25
    assert len(result.trace.sigma_quads) == 25
    # posterior quads start at prior scale and end tighter
    assert result.trace.gamma_quads[0] == pytest.approx(1.0, abs=1e-9)
    assert result.trace.gamma_quads[-1] < result.trace.gamma_quads[0]


def test_episode_final_state_carries_the_posterior():
    result = gaussian_episode(horizon=30)
    assert isinstance(result.final_state, GaussianConjugateState)
    # 30 unit-norm observations at sd=1 tighten every direction
    cov = result.final_state.covariance()
    assert np.linalg.eigvalsh(cov.mat)[-1] < 1.0


def test_greedy_policy_also_runs():
    result = gaussian_episode(policy="greedy", horizon=10)
    assert result.horizon == 10


def test_bernoulli_episode_respects_mean_range():
    prior = FiniteSupportPrior(
        atoms=np.array([[0.1, 0.2], [0.4, 0.3], [0.2, 0.6]]),
        weights=np.array([0.3, 0.4, 0.3]),
    )
    noise = BernoulliMeanNoise()
    gen = KArmedGaussianGenerator(k=5, dim=2, nonnegative=True)
    rng = np.random.default_rng(SEED)
    result = run_episode(
        prior, noise, gen, EngineConfig(kind="finite_support"),
        horizon=50, rng=rng,
    )
    assert np.all(result.rewards >= 0)
    assert np.all(result.rewards <= 1)


def test_mean_range_validation_rejects_unbounded_priors():
    from ellipsim.distributions import MeanOutOfRange

    prior = GaussianPrior(mean=np.zeros(2), cov=PsdMatrix.identity(2))
    gen = KArmedGaussianGenerator(k=3, dim=2, nonnegative=True)
    rng = np.random.default_rng(SEED)
    with pytest.raises(MeanOutOfRange):
        run_episode(
            prior, BernoulliMeanNoise(), gen,
            EngineConfig(kind="particle", particles=100),
            horizon=5, rng=rng,
        )


def test_mean_range_validation_rejects_signed_action_sets():
    from ellipsim.distributions import MeanOutOfRange

    prior = FiniteSupportPrior(
        atoms=np.array([[0.5], [0.9]]), weights=np.array([0.5, 0.5])
    )
    gen = FixedActionsGenerator(np.array([[-1.0]]))
    rng = np.random.default_rng(SEED)
    with pytest.raises(MeanOutOfRange):
        run_episode(
            prior, BernoulliMeanNoise(), gen,
            EngineConfig(kind="finite_support"), horizon=5, rng=rng,
        )


def test_episode_rejects_bad_arguments():
    prior = GaussianPrior(mean=np.zeros(2), cov=PsdMatrix.identity(2))
    gen = KArmedGaussianGenerator(k=3, dim=2)
    rng = np.random.default_rng(SEED)
    with pytest.raises(ValueError):
        run_episode(prior, GaussianNoise(sd=1.0), gen,
                    EngineConfig(kind="gaussian_conjugate"), horizon=0, rng=rng)
    with pytest.raises(ValueError):
        run_episode(prior, GaussianNoise(sd=1.0), gen,
                    EngineConfig(kind="gaussian_conjugate"), horizon=5, rng=rng,
                    policy="ucb")


def test_adversarial_policy_plays_the_top_eigendirection_over_the_sphere():
    # Bernoulli noise with a sphere generator never certifies; the
    # adversarial policy skips that check and meets the means as it plays
    prior = FiniteSupportPrior(
        atoms=np.array([[0.2], [0.5], [0.9]]), weights=np.array([0.3, 0.4, 0.3])
    )
    engine = EngineConfig(kind="finite_support")
    rng = np.random.default_rng(SEED)
    result = run_episode(
        prior, BernoulliMeanNoise(), UnitSphereGenerator(1), engine,
        horizon=8, rng=rng, policy="adversarial", lam=None,
    )
    assert np.array_equal(result.actions, np.ones((8, 1)))
    assert np.all(result.instant_regret == 0.0)
    assert result.trace.classical is None
    assert result.trace.sigma_quads == []
    assert len(result.trace.gamma_quads) == 8
    with pytest.raises(ValueError, match="unit sphere"):
        run_episode(
            prior, BernoulliMeanNoise(), FixedActionsGenerator(np.array([[1.0]])),
            engine, horizon=8, rng=rng, policy="adversarial",
        )


def test_episode_failure_carries_round_index():
    failure = EpisodeFailure(7, RuntimeError("boom"))
    assert failure.round_index == 7
    assert "round 7" in str(failure)


# ---------------------------------------------------------------------------
# paired-moment trace inequality
# ---------------------------------------------------------------------------


def test_trace_cs_equal_and_opposite_pairs():
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal((200, 3))
    same = trace_cauchy_schwarz_check(x, x)
    flipped = trace_cauchy_schwarz_check(x, -x)
    assert same.holds and flipped.holds
    # flipping z only flips the sign inside the square
    assert same.lhs == pytest.approx(flipped.lhs)
    assert same.rhs == pytest.approx(flipped.rhs)


def test_trace_cs_matches_hand_computation():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    z = np.array([[1.0, 0.0], [1.0, 0.0]])
    report = trace_cauchy_schwarz_check(x, z)
    # E[x.z] = (1 + 0)/2; second moments by hand
    assert report.lhs == pytest.approx(0.25)
    ex = np.array([[0.5, 0.0], [0.0, 0.5]])
    ez = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert report.rhs == pytest.approx(2 * np.trace(ex @ ez))
    assert report.holds


def test_trace_cs_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        trace_cauchy_schwarz_check(np.zeros((3, 2)), np.zeros((4, 2)))


@settings(max_examples=80, deadline=None)
@given(
    x=arrays(np.float64, (12, 3), elements=st.floats(-5.0, 5.0)),
    z=arrays(np.float64, (12, 3), elements=st.floats(-5.0, 5.0)),
)
def test_trace_cs_holds_for_any_paired_samples(x, z):
    report = trace_cauchy_schwarz_check(x, z, tol=1e-7)
    assert report.holds
