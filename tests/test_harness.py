import ast

import numpy as np
import pytest

import ellipsim.harness as harness_mod
from ellipsim.bandit import EpisodeFailure, KArmedGaussianGenerator, UnitSphereGenerator
from ellipsim.distributions import (
    FiniteSupportPrior,
    GaussianNoise,
    GaussianPrior,
    MeanOutOfRange,
)
from ellipsim.harness import (
    ExcessiveFailures,
    ExperimentConfig,
    run_experiment,
)
from ellipsim.linalg import PsdMatrix
from ellipsim.posterior import EngineConfig
from ellipsim.reporting import format_float, write_potential_csv_from_summary


def small_config(**overrides):
    base = dict(
        prior=GaussianPrior(mean=np.zeros(2), cov=PsdMatrix.identity(2)),
        noise=GaussianNoise(sd=1.0),
        engine=EngineConfig(kind="gaussian_conjugate"),
        actions=KArmedGaussianGenerator(k=4, dim=2),
        horizon=20,
        replications=8,
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(horizon=0)
    with pytest.raises(ValueError):
        small_config(replications=0)
    with pytest.raises(ValueError):
        small_config(master_seed=-1)
    with pytest.raises(ValueError):
        small_config(workers=0)
    with pytest.raises(ValueError, match="lam must be >= 1"):
        small_config(lam=0.5)
    with pytest.raises(ValueError, match="lam must be >= 1, got nan"):
        small_config(lam=float("nan"))
    with pytest.raises(ValueError, match="lam must be finite, got inf"):
        small_config(lam=float("inf"))


def test_config_describes_the_verifier_episodes():
    # the adversarial rule over the sphere, as the potential verifier runs it
    small_config(policy="adversarial", actions=UnitSphereGenerator(2))
    with pytest.raises(ValueError, match="unit sphere"):
        small_config(policy="adversarial")
    with pytest.raises(ValueError, match="unknown policy"):
        small_config(policy="ucb")


def test_run_experiment_refuses_a_verifier_only_policy():
    # the episode loop plays the adversarial rule, a regret experiment does not
    cfg = small_config(policy="adversarial", actions=UnitSphereGenerator(2), horizon=5)
    with pytest.raises(ValueError, match=r"^unknown policy 'adversarial'$"):
        run_experiment(cfg)


def test_run_experiment_basic_shape():
    summary = run_experiment(small_config())
    assert summary.replications == 8
    assert summary.completed == 8
    assert summary.failed == 0
    assert summary.ts == list(range(1, 21))
    assert len(summary.mean_regret) == 20
    assert len(summary.stderr_regret) == 20
    assert all(s >= 0 for s in summary.stderr_regret)
    assert summary.final_mean_regret == summary.mean_regret[-1]
    # running gamma sum is a cumulative sum of the per-round means
    assert summary.running_gamma_sum[-1] == pytest.approx(
        sum(summary.mean_gamma_quad)
    )


def test_subsampled_potential_csv_sums_every_round(monkeypatch, tmp_path):
    # keep 10 of 50 rounds, as a run past CURVE_POINT_LIMIT keeps 1000
    monkeypatch.setattr(harness_mod, "CURVE_POINT_LIMIT", 20)
    monkeypatch.setattr(harness_mod, "CURVE_POINTS_WHEN_SUBSAMPLED", 10)
    summary = run_experiment(small_config(horizon=50, replications=4))
    assert summary.ts[-1] == 50 and len(summary.ts) == 10
    path = tmp_path / "potential.csv"
    write_potential_csv_from_summary(str(path), summary)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == summary.ts
    assert [row[2] for row in rows] == [
        format_float(v) for v in summary.running_gamma_sum
    ]
    assert float(rows[-1][2]) == pytest.approx(summary.potential_sum_mean)


def test_run_experiment_is_deterministic():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    assert a.to_dict() == b.to_dict()
    c = run_experiment(small_config(master_seed=6))
    assert c.mean_regret != a.mean_regret


def test_worker_count_never_changes_results():
    one = run_experiment(small_config(workers=1))
    two = run_experiment(small_config(workers=2))
    assert one.to_dict() == two.to_dict()


def test_wall_time_not_serialized():
    summary = run_experiment(small_config(replications=2, horizon=5))
    payload = summary.to_dict()
    assert "wall_time_seconds" not in payload
    assert summary.wall_time_seconds > 0


def test_single_replication_singleton_prior_has_zero_regret():
    # one atom: the posterior is the truth, so the policy is optimal
    prior = FiniteSupportPrior(
        atoms=np.array([[0.6, 0.3]]), weights=np.array([1.0])
    )
    cfg = ExperimentConfig(
        prior=prior,
        noise=GaussianNoise(sd=0.5),
        engine=EngineConfig(kind="finite_support"),
        actions=KArmedGaussianGenerator(k=3, dim=2),
        horizon=15,
        replications=1,
        master_seed=0,
    )
    summary = run_experiment(cfg)
    assert summary.completed == 1
    assert summary.final_mean_regret == pytest.approx(0.0, abs=1e-12)
    assert summary.final_stderr_regret == 0.0
    assert summary.all_checks_pass


def test_every_verdict_is_reported():
    summary = run_experiment(small_config())
    assert set(summary.bounds) == {"eq1_rhs", "thm23_rhs", "eq4_rhs", "remark33_rhs"}
    assert set(summary.checks) == {
        "pass_eq1",
        "pass_thm23",
        "pass_eq4",
        "pass_remark33",
    }
    # identity prior covariance sits inside the identity cap
    assert summary.gamma1_within_identity
    assert summary.bounds["remark33_rhs"] is not None
    assert summary.checks["pass_eq1"] is True
    assert summary.eq1_max_violation <= 1e-8
    for key in ("pass_eq1", "pass_thm23", "pass_eq4"):
        assert isinstance(summary.checks[key], bool), key


def test_wide_prior_disables_identity_cap():
    prior = GaussianPrior(mean=np.zeros(2), cov=PsdMatrix.unchecked(4.0 * np.eye(2)))
    summary = run_experiment(small_config(prior=prior, replications=2, horizon=5))
    assert not summary.gamma1_within_identity
    assert summary.bounds["remark33_rhs"] is None
    assert summary.checks["pass_remark33"] is None


def test_failure_budget_aborts_run(monkeypatch):
    original = harness_mod._replicate

    def sometimes_broken(cfg, record, rep):
        if rep % 2 == 0:
            return {
                "replication": rep,
                "round": 0,
                "error_type": "DegenerateWeights",
                "message": "synthetic failure",
            }
        return original(cfg, record, rep)

    monkeypatch.setattr(harness_mod, "_replicate", sometimes_broken)
    with pytest.raises(ExcessiveFailures, match="failed"):
        run_experiment(small_config())


def test_episode_error_other_than_engine_degradation_is_raised_as_itself(
    monkeypatch,
):
    def out_of_range(*args, **kwargs):
        raise EpisodeFailure(3, MeanOutOfRange("Bernoulli mean must lie in [0, 1]"))

    monkeypatch.setattr(harness_mod, "run_episode", out_of_range)
    with pytest.raises(MeanOutOfRange) as info:
        run_experiment(small_config())
    assert type(info.value) is MeanOutOfRange


def test_harness_has_one_replication_loop():
    # both Monte Carlo jobs go through _run_replications: one episode call
    # and one per-replication seed in the whole module
    tree = ast.parse(open(harness_mod.__file__, encoding="utf-8").read())
    called = [
        ast.unparse(node.func).rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    ]
    assert called.count("run_episode") == 1
    assert called.count("SeedSequence") == 1


def test_curve_subsampling_above_limit():
    ts = harness_mod._curve_ts(50_000)
    assert len(ts) <= 1000
    assert ts[0] == 1
    assert ts[-1] == 50_000
    assert np.all(np.diff(ts) > 0)

    dense = harness_mod._curve_ts(10_000)
    assert len(dense) == 10_000
