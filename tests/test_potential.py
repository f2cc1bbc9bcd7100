"""Potential tracking and the expected-potential verifier.

The exact verifier merges outcome paths with the same (action, outcome)
counts. It is checked against an unmerged enumeration of every path,
written with plain lists, which shares only the adversarial action rule
with it. The Monte Carlo verifier runs the package's episode loop; it is
checked against a standalone per-round loop that shares only the engines
with it.
"""
import ast
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ellipsim import harness, potential
from ellipsim.bandit import (
    EpisodeFailure,
    KArmedGaussianGenerator,
    UnitSphereGenerator,
    run_episode,
)
from ellipsim.distributions import (
    BernoulliMeanNoise,
    FiniteSupportPrior,
    GaussianNoise,
    GaussianPrior,
    MeanOutOfRange,
    UniformBallPrior,
    UniformCenteredNoise,
    sample_reward,
)
from ellipsim.harness import (
    ExcessiveFailures,
    ExperimentConfig,
    verify_expected_potential,
)
from ellipsim.linalg import CholeskyFailure, PsdMatrix, random_psd, row_norms
from ellipsim.posterior import (
    EngineConfig,
    counterexample_prior,
    make_posterior,
)
from ellipsim.potential import (
    PotentialTrace,
    adversarial_action,
    gamma1_eigs,
    logdet_growth,
    potential_bound,
    regret_bound,
    regret_bound_identity_cap,
    ridge_excess,
    ridge_potential_bound,
    ridge_replay_excess,
    sigma_factor,
)
from ellipsim.tolerances import EIGEN_TIE_REL, NORM_SLACK

SEED = 1789


def verify(
    prior,
    noise,
    horizon,
    replications=1,
    master_seed=0,
    engine=EngineConfig(kind="finite_support"),
    rule="adversarial",
    generator=None,
):
    """The verifier on the config of one run; the adversarial rule plays
    over the unit sphere unless ``generator`` says otherwise."""
    return verify_expected_potential(
        ExperimentConfig(
            prior=prior,
            noise=noise,
            engine=engine,
            actions=generator or UnitSphereGenerator(prior.dim),
            horizon=horizon,
            replications=replications,
            master_seed=master_seed,
            policy=rule,
        )
    )


# ---------------------------------------------------------------------------
# classical ridge replay
# ---------------------------------------------------------------------------


def _sequential_ridge(actions, lam):
    """Reference ridge tracker, one action at a time: Sigma_t shrinks by the
    rank-one identity and the log det drops by log(1 + quad) a step.
    Returns the per-step quadratic forms and the telescoped log-det bound."""
    cov = np.eye(actions.shape[1]) / lam
    quads, logdet_drop = [], 0.0
    for a in actions:
        sv = cov @ a
        quad = float(a @ sv)
        cov -= np.outer(sv, sv) / (1.0 + quad)
        quads.append(quad)
        logdet_drop += np.log1p(quad)
    return np.array(quads), 2.0 * logdet_drop


def replayed_sums(actions, lam):
    """The quad sum and log-det bound that ``ridge_replay_excess`` hands to
    ``ridge_excess``, and the excess it returns."""
    with mock.patch.object(potential, "ridge_excess", wraps=ridge_excess) as spy:
        excess = ridge_replay_excess(actions, lam)
    quad_sum, logdet_rhs = spy.call_args.args[:2]
    return quad_sum, logdet_rhs, excess


def test_classical_updates_match_dense_inverse():
    rng = np.random.default_rng(SEED)
    dim, lam, horizon = 4, 2.0, 150
    actions = rng.standard_normal((horizon, dim))
    actions /= np.linalg.norm(actions, axis=1, keepdims=True)
    gram = lam * np.eye(dim)
    expected = []
    for a in actions:
        expected.append(a @ np.linalg.inv(gram) @ a)
        gram += np.outer(a, a)
    reference, _ = _sequential_ridge(actions, lam)
    assert reference == pytest.approx(expected, abs=1e-10)

    quad_sum, logdet_rhs, _ = replayed_sums(actions, lam)
    assert quad_sum == pytest.approx(sum(expected), abs=1e-10)
    sign, logdet_final = np.linalg.slogdet(np.linalg.inv(gram))
    assert sign == 1.0
    _, logdet_first = np.linalg.slogdet(np.eye(dim) / lam)
    assert logdet_rhs == pytest.approx(2.0 * (logdet_first - logdet_final), abs=1e-9)


def test_classical_rejects_long_actions_and_small_lambda():
    with pytest.raises(ValueError):
        ridge_replay_excess(np.array([[1.1, 0.0]]), 1.0)
    unit = np.array([[1.0, 0.0]])
    with pytest.raises(ValueError):
        ridge_replay_excess(unit, 0.5)
    # a NaN ridge would give NaN quadratic forms
    with pytest.raises(ValueError, match="got nan"):
        ridge_replay_excess(unit, float("nan"))
    # nor has an infinite ridge a log det
    with pytest.raises(ValueError, match="lam must be finite, got inf"):
        ridge_replay_excess(unit, float("inf"))


def test_classical_rejects_a_nan_action():
    # a NaN row would give a NaN excess, which no eq. 1 verdict can read
    actions = np.array([[0.5, 0.0], [np.nan, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="action norms .* got nan$"):
        ridge_replay_excess(actions, 1.0)


def test_classical_rejects_over_norm_actions_where_linalg_norm_does():
    """The threshold is NORM_SLACK past 1 on linalg.row_norms' bits, for
    contiguous and strided rows alike, wherever the row sits."""
    rng = np.random.default_rng(SEED)
    limit = 1.0 + NORM_SLACK
    actions = [np.array([limit, 0.0]), np.array([np.nextafter(limit, 2.0), 0.0])]
    for dim in (1, 2, 3, 7, 40, 100):
        for k in range(-6, 7):
            a = rng.standard_normal(dim)
            actions.append(a / np.linalg.norm(a) * limit * (1.0 + k * 2.0**-52))
    matrix = rng.standard_normal((3, 4))
    matrix /= np.linalg.norm(matrix, axis=0) / limit
    actions += [matrix[:, j] for j in range(4)]
    rejected = 0
    for a in actions:
        norm = float(row_norms(a[None, :])[0])
        # alone, and as row 70 of 100 unit rows in C and in Fortran order
        rows = rng.standard_normal((100, a.shape[0]))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows[70] = a
        for stack in (a[None, :], rows, np.asfortranarray(rows)):
            if norm > limit:
                with pytest.raises(ValueError, match=re.escape(f"got {norm}") + "$"):
                    ridge_replay_excess(stack, 1.0)
            else:
                ridge_replay_excess(stack, 1.0)
        rejected += norm > limit
    assert 0 < rejected < len(actions)
    # rows a few ulps either side of the limit, where a squared norm summed
    # in another order than the dot's can fall on the other side of it
    for dim in (7, 40, 100):
        for a in rng.standard_normal((400, dim)):
            for k in (0, 1):
                row = a / np.linalg.norm(a) * limit * (1.0 + k * 2.0**-52)
                norm = float(row_norms(row[None, :])[0])
                if norm > limit:
                    with pytest.raises(ValueError, match=re.escape(f"got {norm}") + "$"):
                        ridge_replay_excess(row[None, :], 1.0)
                else:
                    ridge_replay_excess(row[None, :], 1.0)
    # the first over-norm row is the one named
    pair = np.array([[0.0, 1.25], [1.5, 0.0]])
    with pytest.raises(ValueError, match=r"got 1\.25$"):
        ridge_replay_excess(pair, 1.0)


@pytest.mark.parametrize("dim", [1, 3, 100])
@pytest.mark.parametrize("horizon", [1, 63, 64, 65, 197])
def test_blocked_replay_matches_the_sequential_tracker(horizon, dim):
    """Across block edges, with zero rows, short rows and unit rows, and
    with every row scaled down to 1e-6."""
    rng = np.random.default_rng([SEED, horizon, dim])
    actions = rng.standard_normal((horizon, dim))
    actions /= np.linalg.norm(actions, axis=1, keepdims=True)
    actions *= np.where(rng.random(horizon) < 0.5, 1.0, rng.random(horizon))[:, None]
    actions[rng.random(horizon) < 0.15] = 0.0
    actions[horizon // 2] = 0.0
    # tiny rows have tiny quadratic forms, which L_jj^2 - 1 would cancel away
    for scale, lam in ((1.0, 1.0), (1.0, 3.5), (1e-6, 1.0)):
        actions = actions * scale
        quads, logdet_ref = _sequential_ridge(actions, lam)
        quad_sum, logdet_rhs, excess = replayed_sums(actions, lam)
        assert quad_sum == pytest.approx(np.sum(quads), rel=1e-12, abs=1e-300)
        assert logdet_rhs == pytest.approx(logdet_ref, rel=1e-12, abs=1e-300)
        want = ridge_excess(np.sum(quads), logdet_ref, horizon, dim, lam)
        assert excess == pytest.approx(want, rel=0, abs=1e-12 * max(logdet_ref, 1.0))


@settings(max_examples=60, deadline=None)
@given(
    actions=arrays(
        np.float64, (25, 3), elements=st.floats(-1.0, 1.0, allow_nan=False)
    ),
    lam=st.floats(1.0, 10.0),
)
def test_classical_bound_chain_on_arbitrary_sequences(actions, lam):
    """Quad sum <= log-det bound <= dimension bound, for any action stream."""
    norms = np.linalg.norm(actions, axis=1, keepdims=True)
    actions = actions / np.maximum(norms, 1.0)
    quad_sum, logdet_rhs, _ = replayed_sums(actions, lam)
    assert quad_sum <= logdet_rhs + 1e-9
    assert logdet_rhs <= ridge_potential_bound(len(actions), 3, lam) + 1e-9


# ---------------------------------------------------------------------------
# adversarial action rule
# ---------------------------------------------------------------------------


def test_adversarial_action_is_top_eigenvector():
    rng = np.random.default_rng(SEED)
    gamma = random_psd(4, 1.0, rng)
    a = adversarial_action(gamma)
    assert np.linalg.norm(a) == pytest.approx(1.0)
    eigvals, eigvecs = np.linalg.eigh(gamma.mat)
    assert abs(a @ eigvecs[:, -1]) == pytest.approx(1.0, abs=1e-8)
    assert gamma.quad_form(a) == pytest.approx(eigvals[-1], abs=1e-9)


def test_adversarial_action_tie_breaks_deterministically():
    assert np.allclose(adversarial_action(PsdMatrix.identity(3)), [1.0, 0.0, 0.0])
    gamma = PsdMatrix(np.diag([2.0, 2.0, 1.0]))
    assert np.allclose(adversarial_action(gamma), [1.0, 0.0, 0.0])
    zero = PsdMatrix.unchecked(np.zeros((2, 2)))
    assert np.allclose(adversarial_action(zero), [1.0, 0.0])


def test_adversarial_action_sign_convention():
    # top eigenvector of this matrix is along (1, -1); the first nonzero
    # entry must come out positive whatever eigh returns
    gamma = PsdMatrix(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    a = adversarial_action(gamma)
    assert a[0] > 0


def masked_adversarial_action(gamma):
    """The adversarial rule written with a boolean mask and np.linalg.norm."""
    eigvals, eigvecs = np.linalg.eigh(gamma.mat)
    tol = EIGEN_TIE_REL * max(1.0, abs(eigvals[-1]))
    basis = eigvecs[:, eigvals >= eigvals[-1] - tol]
    if basis.shape[1] == 1:
        v = basis[:, 0]
    else:
        idx = int(np.argmax(np.linalg.norm(basis, axis=1) > tol))
        v = basis @ basis[idx]
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.eye(gamma.dim)[0]
    v = v / norm
    nz = np.nonzero(np.abs(v) > 1e-12)[0]
    return -v if nz.size and v[nz[0]] < 0 else v


def test_adversarial_action_matches_the_masked_form_bit_for_bit():
    rng = np.random.default_rng(SEED)
    gammas = []
    for dim in (1, 2, 3, 5, 40):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        tied = rng.uniform(0.0, 1.0, dim)
        tied[-2:] = 1.5
        gammas += [random_psd(dim, 1.0, rng) for _ in range(20)]
        gammas.append(PsdMatrix.unchecked(q @ np.diag(tied) @ q.T))
        gammas.append(PsdMatrix.identity(dim))
    for gamma in gammas:
        got, want = adversarial_action(gamma), masked_adversarial_action(gamma)
        assert np.array_equal(got, want) and np.array_equal(
            np.signbit(got), np.signbit(want)
        )


# ---------------------------------------------------------------------------
# general potential trace
# ---------------------------------------------------------------------------


def test_trace_bound_matches_dense_logdet():
    rng = np.random.default_rng(SEED)
    gamma1 = random_psd(3, 0.8, rng)
    eigs = gamma1_eigs(gamma1)
    horizon = 40
    _, ref = np.linalg.slogdet(np.eye(3) + horizon * gamma1.mat)
    assert logdet_growth(horizon, eigs) == pytest.approx(ref, abs=1e-10)
    # sigma factor saturates at 1 for sub-unit noise
    assert sigma_factor(0.5) == 1.0
    assert potential_bound(horizon, sigma_factor(0.5), eigs) == pytest.approx(
        2.0 * ref, abs=1e-9
    )


def scalar_bounds(t, dim, factor, eigs):
    """Theorem 2.3, eq. 4 and remark 3.3 at one t, written out in floats."""
    growth = float(np.sum(np.log1p(t * np.asarray(eigs))))
    return (
        2.0 * factor * growth,
        float(np.sqrt(2.0 * factor * dim * t * growth)),
        float(dim * np.sqrt(2.0 * factor * t * np.log1p(t))),
    )


@pytest.mark.parametrize("horizon", [300, 54_321], ids=["every-t", "subsampled"])
def test_bound_curves_match_per_t_calls_bit_for_bit(horizon):
    """An int array of t gives, entry for entry, the bits of the scalar call."""
    rng = np.random.default_rng(SEED)
    ts = harness._curve_ts(horizon)
    assert (ts.size == horizon) == (horizon <= harness.CURVE_POINT_LIMIT)
    for dim in range(1, 101):
        eigs = rng.exponential(size=dim) * rng.choice([1e-3, 0.25, 1.0, 30.0])
        eigs[: rng.integers(0, 2)] = 0.0
        eigs = list(eigs) if dim % 2 else eigs
        factor = sigma_factor(float(rng.choice([0.25, 1.0, 2.5])))
        curves = (
            potential_bound(ts, factor, eigs),
            regret_bound(ts, dim, factor, eigs),
            regret_bound_identity_cap(ts, dim, factor),
        )
        # every t at d <= 3, a spread of t beyond, to keep the loop short
        stride = 1 if dim <= 3 else 11
        for i in range(dim % stride, ts.size, stride):
            t = int(ts[i])
            scalar = (
                potential_bound(t, factor, eigs),
                regret_bound(t, dim, factor, eigs),
                regret_bound_identity_cap(t, dim, factor),
            )
            assert all(type(v) is float for v in scalar)
            assert scalar == scalar_bounds(t, dim, factor, eigs)
            assert tuple(float(curve[i]) for curve in curves) == scalar, (dim, t)


def test_trace_sigma_factor_above_one():
    assert sigma_factor(4.0) == 4.0


def test_trace_rejects_negative_quads():
    trace = PotentialTrace()
    with pytest.raises(ValueError):
        trace.append_quads(-1e-3)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("engine", ["finite_support", "gaussian_conjugate"])
def test_eq1_replays_the_ridge_tracker_over_the_played_actions(engine, workers):
    if engine == "finite_support":
        prior = _five_atom_prior()
    else:
        prior = GaussianPrior(mean=np.zeros(3), cov=PsdMatrix.identity(3))
    cfg = ExperimentConfig(
        prior=prior,
        noise=GaussianNoise(sd=0.5),
        engine=EngineConfig(kind=engine),
        actions=KArmedGaussianGenerator(k=4, dim=3),
        horizon=15,
        replications=3,
        master_seed=7,
        workers=workers,
        lam=2.0,
    )
    excesses = []
    for rep in range(cfg.replications):
        episode = run_episode(
            cfg, np.random.default_rng(np.random.SeedSequence([cfg.master_seed, rep]))
        )
        excesses.append(ridge_replay_excess(episode.actions, 2.0))
    assert harness.run_experiment(cfg).eq1_max_violation == max(excesses)


# ---------------------------------------------------------------------------
# exact enumeration path
# ---------------------------------------------------------------------------


def brute_force_expected_potential(atoms, weights, horizon):
    """Unmerged Bernoulli outcome tree under the adversarial rule.

    Every path is its own node, even where two paths reach the same
    posterior, so this is the 2^H tree the verifier's lattice collapses.
    """
    weights = np.asarray(weights, dtype=float)
    atoms = np.asarray(atoms, dtype=float).reshape(len(weights), -1)
    frontier = [(1.0, weights)]
    per_round = []
    for _ in range(horizon):
        round_sum = 0.0
        grown = []
        for prob, w in frontier:
            centered = atoms - w @ atoms
            cov = (w[:, None] * centered).T @ centered
            means = atoms @ adversarial_action(PsdMatrix.unchecked(cov))
            p_one = float(w @ means)
            round_sum += prob * float(w @ (means - p_one) ** 2)
            for lik, p_y in ((means, p_one), (1.0 - means, 1.0 - p_one)):
                if p_y <= 0:
                    continue
                child = w * lik
                grown.append((prob * p_y, child / child.sum()))
        per_round.append(round_sum)
        frontier = grown
    return per_round, sum(per_round)


def test_exact_tree_matches_brute_force():
    atoms = np.array([0.2, 0.6])
    weights = np.array([0.5, 0.5])
    prior = FiniteSupportPrior(atoms=atoms[:, None], weights=weights)
    report = verify(prior, BernoulliMeanNoise(), horizon=4)
    ref_rounds, ref_total = brute_force_expected_potential(atoms, weights, 4)
    assert report.exact
    assert report.stderr_total == 0.0
    assert report.mean_total == pytest.approx(ref_total, abs=1e-12)
    assert np.allclose(report.per_round_mean, ref_rounds, atol=1e-12)

    gamma1 = weights @ atoms**2 - (weights @ atoms) ** 2
    expected_bound = 2.0 * np.log1p(4 * gamma1)
    assert report.bound == pytest.approx(expected_bound, abs=1e-12)
    assert report.holds


def test_exact_tree_three_atoms_longer_horizon():
    atoms = np.array([0.1, 0.45, 0.9])
    weights = np.array([0.3, 0.45, 0.25])
    prior = FiniteSupportPrior(atoms=atoms[:, None], weights=weights)
    report = verify(prior, BernoulliMeanNoise(), horizon=8)
    _, ref_total = brute_force_expected_potential(atoms, weights, 8)
    assert report.mean_total == pytest.approx(ref_total, abs=1e-11)


def _lattice_priors():
    """Scalar and d=2 priors for the merged-lattice checks, with horizons."""
    rng = np.random.default_rng(SEED)
    cases = [(counterexample_prior(0.05), 12)]
    for _ in range(12):
        n = int(rng.integers(2, 5))
        atoms = np.sort(rng.uniform(0.0, 1.0, size=n))[:, None]
        cases.append(
            (
                FiniteSupportPrior(atoms=atoms, weights=rng.dirichlet(np.ones(n))),
                int(rng.integers(1, 11)),
            )
        )
    # the adversarial directions of these d >= 2 priors keep every mean in [0, 1]
    square = np.array([[0.3, 0.3], [0.6, 0.6], [0.3, 0.6], [0.6, 0.3]])
    cases.append((FiniteSupportPrior(atoms=square, weights=np.full(4, 0.25)), 8))
    rng = np.random.default_rng(9)
    atoms = rng.uniform(0.1, 0.5, size=(4, 3))
    weights = rng.dirichlet(np.ones(4))
    cases.append((FiniteSupportPrior(atoms=atoms, weights=weights), 8))
    return cases


LATTICE_CASES = _lattice_priors()
LATTICE_IDS = (
    ["counterexample"] + [f"scalar{i}" for i in range(12)] + ["square_d2", "random_d3"]
)
SCALAR_CASES = [case for case in LATTICE_CASES if case[0].dim == 1]


@pytest.mark.parametrize("prior,horizon", LATTICE_CASES, ids=LATTICE_IDS)
def test_merged_lattice_matches_unmerged_tree(prior, horizon):
    report = verify(prior, BernoulliMeanNoise(), horizon=horizon)
    ref_rounds, ref_total = brute_force_expected_potential(
        prior.atoms, prior.weights, horizon
    )
    assert report.exact
    np.testing.assert_allclose(report.per_round_mean, ref_rounds, rtol=1e-12, atol=0)
    assert report.mean_total == pytest.approx(ref_total, rel=1e-12, abs=0)


def _depth_nodes(prior, horizon):
    """Nodes at each depth of the exact lattice."""
    return potential._exact_potential(prior, BernoulliMeanNoise(), horizon)[2]


def success_count_potential(atoms, weights, horizon):
    """Expected potential per round of a scalar Bernoulli prior under the
    action [1], summed over success counts rather than paths.

    After n rounds with s successes the posterior weights are proportional
    to w0 * theta^s * (1 - theta)^(n - s), and C(n, s) times their sum is
    the probability of s successes, so round n contributes the sum over s
    of that probability times the posterior variance.
    """
    per_round = []
    for n in range(horizon):
        round_sum = 0.0
        for s in range(n + 1):
            joint = math.comb(n, s) * weights * atoms**s * (1.0 - atoms) ** (n - s)
            mass = joint.sum()
            if mass == 0.0:
                continue
            w = joint / mass
            round_sum += mass * float(w @ (atoms - w @ atoms) ** 2)
        per_round.append(round_sum)
    return per_round, sum(per_round)


@pytest.mark.parametrize(
    "horizon,expected", [(13, 0.09988966868420626), (90, 0.1062418033686322)]
)
def test_scalar_exact_path_matches_success_count_recursion(horizon, expected):
    # a scalar lattice has at most H(H + 1) / 2 nodes, so the counterexample
    # prior stays exact well past the d >= 2 reach of H = 12
    prior = counterexample_prior(0.05)
    report = verify(prior, BernoulliMeanNoise(), horizon=horizon, replications=1)
    ref_rounds, ref_total = success_count_potential(
        prior.atoms[:, 0], prior.weights, horizon
    )
    assert report.exact
    np.testing.assert_allclose(report.per_round_mean, ref_rounds, rtol=1e-12, atol=0)
    assert report.mean_total == pytest.approx(ref_total, rel=1e-12, abs=0)
    assert report.mean_total == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("prior,_", SCALAR_CASES, ids=LATTICE_IDS[: len(SCALAR_CASES)])
def test_scalar_lattice_keeps_one_node_per_success_count(prior, _):
    assert _depth_nodes(prior, 12) == [t + 1 for t in range(12)]


def test_lattice_keeps_histories_apart_whose_posteriors_nearly_agree():
    # the two atoms' log-weights after different success counts differ by
    # less than 1e-12, yet only equal counts give the same posterior
    prior = FiniteSupportPrior(
        atoms=np.array([[0.5], [0.5 + 1e-13]]), weights=np.array([0.5, 0.5])
    )
    assert _depth_nodes(prior, 4) == [1, 2, 3, 4]


@pytest.mark.parametrize(
    "case,horizon,expected",
    [("square_d2", 8, 125), ("square_d2", 12, 666), ("random_d3", 8, 255)],
)
def test_lattice_node_counts_in_higher_dimensions(case, horizon, expected):
    # the counts of the lattice keyed on (action, outcome) pairs: in d >= 2
    # two action multisets that reach the same posterior stay apart
    prior, _ = LATTICE_CASES[LATTICE_IDS.index(case)]
    assert sum(_depth_nodes(prior, horizon)) == expected


# ---------------------------------------------------------------------------
# Monte Carlo path
# ---------------------------------------------------------------------------


def test_monte_carlo_is_seed_deterministic():
    prior = FiniteSupportPrior(
        atoms=np.array([[0.2], [0.6]]), weights=np.array([0.5, 0.5])
    )
    noise = GaussianNoise(sd=0.5)  # continuous outcomes force the MC path
    kwargs = dict(
        horizon=5,
        replications=16,
        master_seed=7,
        engine=EngineConfig(kind="finite_support"),
    )
    first = verify(prior, noise, **kwargs)
    second = verify(prior, noise, **kwargs)
    assert not first.exact
    assert first.mean_total == second.mean_total
    assert first.stderr_total == second.stderr_total

    shifted = verify(
        prior, noise, horizon=5, replications=16, master_seed=8,
        engine=EngineConfig(kind="finite_support"),
    )
    assert shifted.mean_total != first.mean_total


def standalone_monte_carlo(
    prior, noise, horizon, replications, master_seed, engine, rule, generator=None
):
    """Per-round quads of each replication, from a loop written out here.

    Draws in the package's order: parameter, posterior state, then per
    round the action set, the posterior sample (lints only) and the reward.
    """
    quads = np.zeros((replications, horizon))
    for rep in range(replications):
        rng = np.random.default_rng(np.random.SeedSequence([master_seed, rep]))
        theta = prior.sample(rng)
        state = make_posterior(prior, noise, engine, rng=rng)
        for t in range(horizon):
            if rule == "adversarial":
                action = adversarial_action(state.covariance())
            else:
                action = generator.sample_round(rng).argmax(state.sample(rng))
            quads[rep, t] = state.quad_form(action)
            state.update(action, sample_reward(noise, float(action @ theta), rng))
    return quads


def _five_atom_prior(dim=3):
    rng = np.random.default_rng(SEED)
    atoms = rng.uniform(-1.0, 1.0, size=(5, dim))
    atoms /= np.maximum(1.0, np.linalg.norm(atoms, axis=1))[:, None]
    return FiniteSupportPrior(atoms=atoms, weights=rng.dirichlet(np.ones(5)))


MONTE_CARLO_CASES = {
    "adversarial_finite_support": dict(
        prior=_five_atom_prior(),
        noise=GaussianNoise(sd=0.5),
        engine=EngineConfig(kind="finite_support"),
        rule="adversarial",
        generator=None,
    ),
    "lints_conjugate": dict(
        prior=GaussianPrior(mean=np.zeros(3), cov=PsdMatrix.identity(3)),
        noise=GaussianNoise(sd=0.7),
        engine=EngineConfig(kind="gaussian_conjugate"),
        rule="lints",
        generator=KArmedGaussianGenerator(k=4, dim=3),
    ),
}


@pytest.mark.parametrize("case", MONTE_CARLO_CASES.values(), ids=MONTE_CARLO_CASES)
def test_monte_carlo_matches_a_standalone_loop(case):
    horizon, replications, master_seed = 25, 12, 5
    report = verify(
        case["prior"],
        case["noise"],
        horizon=horizon,
        replications=replications,
        master_seed=master_seed,
        engine=case["engine"],
        rule=case["rule"],
        generator=case["generator"],
    )
    quads = standalone_monte_carlo(
        case["prior"],
        case["noise"],
        horizon,
        replications,
        master_seed,
        case["engine"],
        case["rule"],
        case["generator"],
    )
    per_round_sum = np.zeros(horizon)
    for row in quads:
        per_round_sum += row
    totals = quads.sum(axis=1)
    assert not report.exact
    assert report.replications == replications
    assert np.array_equal(report.per_round_mean, per_round_sum / replications)
    assert report.mean_total == float(totals.mean())
    assert report.stderr_total == float(totals.std(ddof=1) / np.sqrt(replications))


def test_monte_carlo_reads_the_quads_of_run_episode():
    run = ExperimentConfig(
        prior=_five_atom_prior(),
        noise=GaussianNoise(sd=0.5),
        engine=EngineConfig(kind="finite_support"),
        actions=UnitSphereGenerator(3),
        horizon=10,
        replications=2,
        master_seed=3,
        policy="adversarial",
    )
    report = verify_expected_potential(run)
    episodes = [
        run_episode(run, np.random.default_rng(np.random.SeedSequence([3, rep])))
        for rep in range(2)
    ]
    quads = [np.asarray(ep.trace.gamma_quads) for ep in episodes]
    assert np.array_equal(report.per_round_mean, (quads[0] + quads[1]) / 2)


def test_monte_carlo_path_builds_no_ridge_tracker(monkeypatch):
    # only the regret job replays eq. 1; the verifier keeps the posterior quads
    def refuse(*args, **kwargs):
        raise AssertionError("ridge tracker built")

    monkeypatch.setattr(harness, "ridge_replay_excess", refuse)
    case = MONTE_CARLO_CASES["lints_conjugate"]
    report = verify(
        case["prior"],
        case["noise"],
        horizon=10,
        replications=2,
        engine=case["engine"],
        rule=case["rule"],
        generator=case["generator"],
    )
    assert not report.exact
    cfg = ExperimentConfig(
        prior=case["prior"],
        noise=case["noise"],
        engine=case["engine"],
        actions=case["generator"],
        horizon=10,
        replications=2,
    )
    with pytest.raises(AssertionError, match="ridge tracker built"):
        harness.run_experiment(cfg)


def test_monte_carlo_mean_out_of_range_surfaces_as_itself():
    # past the exact path's reach in d >= 2 (H = 12) the adversarial rule
    # runs by Monte Carlo, and its signed eigendirections push a Bernoulli
    # mean out of [0, 1]
    atoms = np.array(
        [[0.2, 0.1, 0.3], [0.5, 0.2, 0.1], [0.1, 0.4, 0.2], [0.3, 0.3, 0.3]]
    )
    prior = FiniteSupportPrior(atoms=atoms, weights=np.full(4, 0.25))
    with pytest.raises(MeanOutOfRange) as info:
        verify(
            prior,
            BernoulliMeanNoise(),
            horizon=13,
            replications=2,
        )
    assert type(info.value) is MeanOutOfRange


def test_monte_carlo_requires_two_replications():
    prior = UniformBallPrior(dim=2)
    with pytest.raises(ValueError, match="replications"):
        verify(
            prior,
            GaussianNoise(sd=1.0),
            horizon=3,
            replications=1,
            engine=EngineConfig(kind="particle"),
        )


def test_monte_carlo_failure_budget_trips():
    # boxcar noise starves a sparse particle cloud of any surviving weight
    prior = UniformBallPrior(dim=1)
    noise = UniformCenteredNoise(half_width=0.005)
    with pytest.raises(ExcessiveFailures, match="DegenerateWeights"):
        verify(
            prior,
            noise,
            horizon=2,
            replications=10,
            engine=EngineConfig(kind="particle", particles=20),
        )


def test_monte_carlo_counts_a_cholesky_failure_against_the_budget(monkeypatch):
    episode = harness.run_episode
    calls = []

    def fifth_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:
            raise EpisodeFailure(2, CholeskyFailure("synthetic failure"))
        return episode(*args, **kwargs)

    monkeypatch.setattr(harness, "run_episode", fifth_fails)
    report = verify(
        _five_atom_prior(), GaussianNoise(sd=0.5), horizon=3, replications=200
    )
    assert report.failed_replications == 1
    assert report.replications == 199


def test_adversarial_rule_takes_no_action_generator():
    with pytest.raises(ValueError, match="plays over the unit sphere"):
        verify(
            UniformBallPrior(dim=2),
            GaussianNoise(sd=1.0),
            horizon=3,
            replications=4,
            engine=EngineConfig(kind="particle"),
            generator=KArmedGaussianGenerator(k=2, dim=2),
        )


def test_verification_report_serialization():
    prior = FiniteSupportPrior(
        atoms=np.array([[0.3], [0.7]]), weights=np.array([0.4, 0.6])
    )
    report = verify(prior, BernoulliMeanNoise(), horizon=3)
    payload = report.to_dict()
    assert payload["exact"] is True
    assert payload["mean_total"] == report.mean_total
    assert len(payload["per_round_mean"]) == 3


def test_potential_imports_neither_bandit_nor_harness():
    # both import potential; the Monte Carlo verifier lives in harness so
    # that potential never needs them, not even inside a function
    tree = ast.parse(open(potential.__file__, encoding="utf-8").read())
    banned = {"bandit", "harness"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = (node.module or "").split(".")
            names = [base] + [base + [alias.name] for alias in node.names]
        else:
            continue
        for parts in names:
            assert not banned & set(parts), ast.unparse(node)
