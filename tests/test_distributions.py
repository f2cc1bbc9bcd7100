"""Priors and noise families against independent scipy / Monte Carlo oracles."""
import dataclasses

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from ellipsim import config as config_mod
from ellipsim.distributions import (
    BernoulliMeanNoise,
    FiniteSupportPrior,
    GaussianNoise,
    GaussianPrior,
    MeanOutOfRange,
    Noise,
    Prior,
    StudentTNoise,
    UniformBallPrior,
    UniformCenteredNoise,
    sample_reward,
)
from ellipsim.linalg import PsdMatrix
from ellipsim.tolerances import NORM_SLACK

SEED = 915


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------


def test_finite_support_moments_match_hand_sums():
    atoms = np.array([[0.1, 0.2], [0.5, -0.3], [-0.4, 0.0]])
    weights = np.array([0.2, 0.5, 0.3])
    prior = FiniteSupportPrior(atoms=atoms, weights=weights)
    mean, cov = prior.moments()

    ref_mean = np.zeros(2)
    for w, a in zip(weights, atoms):
        ref_mean += w * a
    ref_cov = np.zeros((2, 2))
    for w, a in zip(weights, atoms):
        d = a - ref_mean
        ref_cov += w * np.outer(d, d)

    assert np.allclose(mean, ref_mean)
    assert np.allclose(cov.mat, ref_cov)


def test_finite_support_validation():
    good = np.array([[0.5], [-0.5]])
    with pytest.raises(ValueError, match="nonnegative"):
        FiniteSupportPrior(atoms=good, weights=np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="sum to 1"):
        FiniteSupportPrior(atoms=good, weights=np.array([0.6, 0.6]))
    with pytest.raises(ValueError, match="unit ball"):
        FiniteSupportPrior(atoms=np.array([[1.5]]), weights=np.array([1.0]))
    with pytest.raises(ValueError, match="at least one"):
        FiniteSupportPrior(atoms=np.zeros((0, 2)), weights=np.zeros(0))


def test_finite_support_sampling_frequencies():
    prior = FiniteSupportPrior(
        atoms=np.array([[0.0], [1.0]]), weights=np.array([0.3, 0.7])
    )
    rng = np.random.default_rng(SEED)
    draws = prior.sample_many(rng, 4000)
    frac = float(np.mean(draws[:, 0] == 1.0))
    # binomial sd at n=4000 is about 0.0072; allow 4 of those
    assert abs(frac - 0.7) < 0.03


def test_gaussian_prior_moments_and_sampling():
    mean = np.array([1.0, -2.0])
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    prior = GaussianPrior(mean=mean, cov=PsdMatrix(cov))
    m, c = prior.moments()
    assert np.allclose(m, mean)
    assert np.allclose(c.mat, cov)

    rng = np.random.default_rng(SEED)
    draws = prior.sample_many(rng, 20_000)
    assert np.allclose(draws.mean(axis=0), mean, atol=0.05)
    assert np.allclose(np.cov(draws.T), cov, atol=0.08)


def test_gaussian_prior_singular_covariance_sampling():
    # degenerate direction must carry exactly zero variance in samples
    cov = np.array([[1.0, 1.0], [1.0, 1.0]])
    prior = GaussianPrior(mean=np.zeros(2), cov=PsdMatrix(cov))
    rng = np.random.default_rng(SEED)
    draws = prior.sample_many(rng, 500)
    null_dir = np.array([1.0, -1.0]) / np.sqrt(2)
    assert np.max(np.abs(draws @ null_dir)) < 1e-12


def test_uniform_ball_counts_as_unit_ball_prior():
    prior = UniformBallPrior(dim=3, radius=0.8)
    rng = np.random.default_rng(SEED)
    draws = prior.sample_many(rng, 5000)
    assert np.linalg.norm(draws, axis=1).max() <= 0.8 + 1e-12


def test_uniform_ball_covariance_against_monte_carlo():
    # closed form r^2/(d+2) I, oracle is the empirical covariance
    prior = UniformBallPrior(dim=4, radius=1.0)
    _, cov = prior.moments()
    assert np.allclose(cov.mat, np.eye(4) / 6.0)

    rng = np.random.default_rng(SEED)
    draws = prior.sample_many(rng, 200_000)
    emp = draws.T @ draws / draws.shape[0]
    assert np.allclose(emp, cov.mat, atol=0.004)


def test_uniform_ball_validation():
    with pytest.raises(ValueError):
        UniformBallPrior(dim=0)
    with pytest.raises(ValueError):
        UniformBallPrior(dim=2, radius=1.5)
    with pytest.raises(ValueError):
        UniformBallPrior(dim=2, radius=0.0)


def test_prior_dispatch_helpers():
    prior = UniformBallPrior(dim=2)
    mean, cov = prior.moments()
    assert mean.shape == (2,)
    assert cov.dim == 2
    rng = np.random.default_rng(SEED)
    theta = prior.sample(rng)
    assert theta.shape == (2,)


# ---------------------------------------------------------------------------
# noise families
# ---------------------------------------------------------------------------


def test_gaussian_noise_likelihood_matches_scipy():
    noise = GaussianNoise(sd=0.7)
    means = np.array([-1.0, 0.0, 2.5])
    got = noise.likelihood(0.3, means)
    ref = scipy.stats.norm.pdf(0.3, loc=means, scale=0.7)
    assert np.allclose(got, ref, rtol=1e-12)
    assert noise.sigma_sq_bound == pytest.approx(0.49)


def test_gaussian_noise_rejects_bad_sd():
    with pytest.raises(ValueError):
        GaussianNoise(sd=0.0)


def test_bernoulli_noise_basics():
    noise = BernoulliMeanNoise()
    assert noise.sigma_sq_bound == 0.25
    assert noise.requires_unit_interval_mean
    assert noise.finite_outcomes == (0.0, 1.0)
    means = np.array([0.2, 0.9])
    assert np.allclose(noise.likelihood(1.0, means), means)
    assert np.allclose(noise.likelihood(0.0, means), 1.0 - means)


def test_bernoulli_noise_mean_range():
    noise = BernoulliMeanNoise()
    with pytest.raises(MeanOutOfRange, match=r"\[0, 1\], got 1\.2$"):
        noise.likelihood(1.0, np.array([0.5, 1.2]))
    # rounding-level overshoot is clipped, not fatal
    got = noise.likelihood(1.0, np.array([1.0 + 1e-14]))
    assert got[0] == 1.0


def masked_check_mean(mean):
    """The Bernoulli mean check written with np.any, np.clip and a mask;
    a NaN mean lies outside [0, 1]."""
    arr = np.asarray(mean, dtype=np.float64)
    outside = ~((arr >= -NORM_SLACK) & (arr <= 1.0 + NORM_SLACK))
    if np.any(outside):
        bad = arr if arr.ndim == 0 else arr[outside]
        raise MeanOutOfRange(
            f"Bernoulli mean must lie in [0, 1], got {float(np.atleast_1d(bad)[0])}"
        )
    return np.clip(arr, 0.0, 1.0)


def masked_sample_reward(mean, rng):
    p = float(masked_check_mean(mean))
    return float(rng.random() < p)


def _outcome(fn, *args):
    """fn's result, or the text of the MeanOutOfRange it raises."""
    try:
        return fn(*args)
    except MeanOutOfRange as exc:
        return str(exc)


BERNOULLI_MEANS = [
    0.0, -0.0, 0.3, 1.0, 1.0 - 1e-17,
    # edges of the NORM_SLACK band
    -NORM_SLACK, 1.0 + NORM_SLACK,
    np.nextafter(-NORM_SLACK, -1.0), np.nextafter(1.0 + NORM_SLACK, 2.0),
    -0.5 * NORM_SLACK, 1.0 + 0.5 * NORM_SLACK,
    # out of range
    -0.2, 1.2, -np.inf, np.inf,
    float("nan"),
]


def test_bernoulli_mean_check_matches_the_masked_form_bit_for_bit():
    noise = BernoulliMeanNoise()
    means = [float(m) for m in BERNOULLI_MEANS]
    arrays = [np.array(m) for m in means] + [np.array(means[:11])]
    arrays += [np.array([0.5, m, 1.5, -1.0]) for m in means]
    for arr in arrays:
        got, want = _outcome(noise._check_mean, arr), _outcome(masked_check_mean, arr)
        if isinstance(want, str):
            assert got == want
            continue
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        for y in (0.0, 1.0):
            lik = noise.likelihood(y, arr)
            assert np.array_equal(lik, want if y else 1.0 - want, equal_nan=True)
    for mean in means:
        ours, ref = np.random.default_rng(SEED), np.random.default_rng(SEED)
        got = _outcome(noise.sample_reward, mean, ours)
        want = _outcome(masked_sample_reward, mean, ref)
        assert got == want
        assert ours.random() == ref.random()


def test_bernoulli_sampling_is_binary_with_right_rate():
    noise = BernoulliMeanNoise()
    rng = np.random.default_rng(SEED)
    draws = np.array([noise.sample_reward(0.3, rng) for _ in range(2000)])
    assert set(np.unique(draws)) <= {0.0, 1.0}
    assert abs(draws.mean() - 0.3) < 0.04


def test_uniform_noise_boxcar_density():
    noise = UniformCenteredNoise(half_width=0.5)
    assert noise.sigma_sq_bound == pytest.approx(0.25 / 3.0)
    means = np.array([0.0, 1.0])
    got = noise.likelihood(0.25, means)
    assert got[0] == pytest.approx(1.0)  # 1/(2*0.5) inside the support
    assert got[1] == 0.0


def test_student_t_likelihood_matches_scipy():
    noise = StudentTNoise(dof=3.0, scale=0.6)
    means = np.linspace(-2.0, 2.0, 9)
    for y in (-1.3, 0.0, 0.8):
        got = noise.likelihood(y, means)
        ref = scipy.stats.t.pdf(y, df=3.0, loc=means, scale=0.6)
        assert np.allclose(got, ref, rtol=1e-12)


def test_student_t_variance_matches_scipy():
    noise = StudentTNoise(dof=5.0, scale=1.2)
    assert noise.sigma_sq_bound == pytest.approx(
        scipy.stats.t.var(df=5.0, scale=1.2)
    )


def test_student_t_requires_finite_variance():
    with pytest.raises(ValueError):
        StudentTNoise(dof=2.0, scale=1.0)


@pytest.mark.parametrize(
    "noise,y",
    [
        (GaussianNoise(sd=0.8), 0.3),
        (BernoulliMeanNoise(), 1.0),
        (BernoulliMeanNoise(), 0.0),
        (UniformCenteredNoise(half_width=0.4), 0.5),
        (StudentTNoise(dof=3.0, scale=0.5), 0.3),
    ],
)
def test_likelihood_returns_a_fresh_array_and_leaves_the_means(noise, y):
    """The posterior engines reweight in place in the returned array."""
    means = np.linspace(0.05, 0.95, 7)
    means.flags.writeable = False
    before = means.copy()
    out = noise.likelihood(y, means)
    assert isinstance(out, np.ndarray)
    assert out.shape == means.shape and out.flags.writeable
    assert not np.shares_memory(out, means)
    assert np.array_equal(means, before)
    expected = out.copy()
    out *= 2.0
    again = noise.likelihood(y, means)
    assert again is not out
    assert np.array_equal(again, expected)


# one instance per noise family, with the means and rewards it accepts
LIKELIHOOD_CASES = {
    GaussianNoise: (GaussianNoise(sd=0.3), (-3.0, 3.0), (0.4, -2.5)),
    StudentTNoise: (StudentTNoise(dof=4.0, scale=0.2), (-3.0, 3.0), (0.4, 7.0)),
    UniformCenteredNoise: (UniformCenteredNoise(half_width=0.5), (-1.0, 1.0), (0.2, 0.9)),
    BernoulliMeanNoise: (BernoulliMeanNoise(), (0.0, 1.0), (0.0, 1.0)),
}


def test_every_noise_family_has_a_likelihood_case():
    assert set(LIKELIHOOD_CASES) == set(Noise.__subclasses__())


@pytest.mark.parametrize("family", list(LIKELIHOOD_CASES), ids=lambda cls: cls.__name__)
def test_likelihood_is_elementwise_bit_for_bit(family):
    """``likelihood(y, x)[idx]`` is ``likelihood(y, x[idx])`` bit for bit,
    in a fresh array: the particle engine's reweight, once per distinct
    particle for all its copies, rests on it. Repeated entries stand for
    copied particles."""
    noise, (lo, hi), rewards = LIKELIHOOD_CASES[family]
    rng = np.random.default_rng(SEED)
    for _ in range(40):
        n = int(rng.integers(1, 25_000))
        x = rng.uniform(lo, hi, n)
        x[rng.integers(n, size=n // 4)] = x[rng.integers(n, size=n // 4)]
        idx = rng.integers(n, size=int(rng.integers(1, 2 * n + 1)))
        if rng.random() < 0.5:
            idx.sort()
        for y in rewards:
            whole = noise.likelihood(y, x)
            part = noise.likelihood(y, x[idx])
            assert whole[idx].tobytes() == part.tobytes()
            assert not np.shares_memory(whole, x)


@pytest.mark.parametrize("dof,scale", [(3.0, 1.0), (4.0, 0.5), (7.5, 2.3)])
def test_student_t_likelihood_is_the_one_line_expression_bit_for_bit(dof, scale):
    noise = StudentTNoise(dof=dof, scale=scale)
    rng = np.random.default_rng(SEED)
    means = np.concatenate(
        [rng.standard_normal(500), rng.standard_normal(50) * 1e3, [0.0, -0.0, 1e-300]]
    )
    for y in (-1.3, 0.0, 0.8, 250.0):
        z = (y - means) / scale
        ref = np.exp(noise._log_const - (dof + 1.0) / 2.0 * np.log1p(z * z / dof))
        assert np.array_equal(noise.likelihood(y, means), ref)


@pytest.mark.parametrize("scale", [0.01, 0.5, 1.0, 2.3, 100.0])
def test_student_t_log_constant_matches_scipy_gammaln(scale):
    # the constant cancels lgamma terms near 70 down to about 0.23, so
    # both sides round at the scale of the terms, not of the result
    for dof in np.linspace(2.0, 60.0, 581)[1:]:
        terms = [
            scipy.special.gammaln((dof + 1.0) / 2.0),
            -scipy.special.gammaln(dof / 2.0),
            -0.5 * np.log(dof * np.pi),
            -np.log(scale),
        ]
        ref = sum(terms)
        got = StudentTNoise(dof=dof, scale=scale)._log_const
        assert abs(got - ref) <= 1e-14 * sum(abs(t) for t in terms), dof


@pytest.mark.parametrize(
    "noise,lo,hi,points",
    [
        (GaussianNoise(sd=0.8), -np.inf, np.inf, None),
        # the boxcar integrand is discontinuous, so hand quad the breaks
        (UniformCenteredNoise(half_width=0.4), -1.0, 2.0, (-0.03, 0.77)),
        (StudentTNoise(dof=3.0, scale=0.5), -np.inf, np.inf, None),
    ],
)
def test_continuous_likelihoods_integrate_to_one(noise, lo, hi, points):
    mean = 0.37
    total, err = scipy.integrate.quad(
        lambda y: float(noise.likelihood(y, np.array([mean]))[0]),
        lo,
        hi,
        points=points,
    )
    assert total == pytest.approx(1.0, abs=max(1e-8, 10 * err))


def test_bernoulli_likelihood_sums_to_one():
    noise = BernoulliMeanNoise()
    means = np.array([0.1, 0.5, 0.95])
    total = noise.likelihood(0.0, means) + noise.likelihood(1.0, means)
    assert np.allclose(total, 1.0)


def test_reward_sampling_dispatch_and_moments():
    rng = np.random.default_rng(SEED)
    noise = GaussianNoise(sd=0.5)
    draws = np.array([sample_reward(noise, 1.0, rng) for _ in range(4000)])
    assert abs(draws.mean() - 1.0) < 0.03
    assert abs(draws.std() - 0.5) < 0.03
    vals = noise.likelihood(1.0, np.array([1.0]))
    assert vals[0] == pytest.approx(scipy.stats.norm.pdf(0.0, scale=0.5))


# ---------------------------------------------------------------------------
# the two family bases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "noise,outcomes,unit_mean,sigma_sq",
    [
        (GaussianNoise(sd=0.5), None, False, 0.25),
        (BernoulliMeanNoise(), (0.0, 1.0), True, 0.25),
        (UniformCenteredNoise(half_width=0.3), None, False, 0.03),
        (StudentTNoise(dof=4.0, scale=2.0), None, False, 8.0),
    ],
)
def test_noise_capabilities(noise, outcomes, unit_mean, sigma_sq):
    assert noise.finite_outcomes == outcomes
    assert noise.requires_unit_interval_mean is unit_mean
    assert noise.sigma_sq_bound == pytest.approx(sigma_sq, rel=1e-12)


@pytest.mark.parametrize(
    "prior",
    [
        GaussianPrior(mean=np.array([0.5, -1.0]), cov=PsdMatrix(np.diag([2.0, 0.5]))),
        FiniteSupportPrior(
            atoms=np.array([[0.0, 0.1], [0.5, 0.5], [-0.3, 0.2]]),
            weights=np.array([0.2, 0.5, 0.3]),
        ),
        UniformBallPrior(dim=3, radius=0.7),
    ],
)
def test_prior_sample_is_the_first_of_sample_many(prior):
    for seed in range(50):
        one = prior.sample(np.random.default_rng(seed))
        many = prior.sample_many(np.random.default_rng(seed), 1)[0]
        assert np.array_equal(one, many)
        assert one.shape == (prior.dim,)


def test_every_config_family_subclasses_its_base():
    for table, base in ((config_mod._PRIORS, Prior), (config_mod._NOISES, Noise)):
        assert isinstance(base, type), base
        for cls in table.values():
            assert issubclass(cls, base), cls
            # dataclasses would take a base attribute as a field's default
            shared = {f.name for f in dataclasses.fields(cls)} & set(dir(base))
            assert not shared, (cls, shared)
