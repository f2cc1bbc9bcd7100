"""End-to-end runs of the command line driver.

Each test invokes main() with an argv list and inspects exit code,
captured output and any files written. Configs are small so the whole
module stays fast.
"""
import json

import numpy as np
import pytest

import ellipsim.acceptance as acceptance_mod
import ellipsim.harness as harness_mod
from ellipsim.cli import EXIT_CHECK_FAILED, EXIT_CONFIG, EXIT_OK, main
from ellipsim.config import build_experiment, build_potential_run, load_yaml
from ellipsim.harness import ExperimentConfig
from ellipsim.linalg import row_norms
from ellipsim.tolerances import NORM_SLACK

BANDIT_YAML = """\
experiment:
  horizon: 15
  replications: 4
  master_seed: 3
prior:
  kind: gaussian
  mean: [0.0, 0.0]
  cov: [[1.0, 0.0], [0.0, 1.0]]
noise:
  kind: gaussian
  sd: 0.5
engine:
  kind: gaussian_conjugate
actions:
  kind: karmed_gaussian
  k: 4
"""

POTENTIAL_YAML = """\
potential:
  horizon: 6
  replications: 30
  master_seed: 11
prior:
  kind: uniform_ball
  dim: 2
noise:
  kind: gaussian
  sd: 1.0
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# verify-lemmas
# ---------------------------------------------------------------------------


def test_verify_lemmas_small_instances(capsys):
    code = main(["verify-lemmas", "--instances", "5", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.count(" pass") >= 6
    assert "FAIL" not in out
    assert "classical-potential" in out
    assert "variance-reduction" in out


def test_verify_lemmas_rejects_zero_instances(capsys):
    code = main(["verify-lemmas", "--instances", "0"])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_verify_lemmas_config_file(tmp_path, capsys):
    cfg = write(tmp_path, "lemmas.yaml", "lemmas:\n  seed: 9\n  logdet-shift: 4\n")
    code = main(["verify-lemmas", "--config", cfg])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    # unnamed checks fall back to their default instance counts
    assert "logdet-shift" in out


def test_verify_lemmas_bad_config_key(tmp_path, capsys):
    cfg = write(tmp_path, "bad.yaml", "lemmas:\n  logdet_shift: 4\n")
    code = main(["verify-lemmas", "--config", cfg])
    assert code == EXIT_CONFIG
    assert "lemmas.logdet_shift" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# counterexample
# ---------------------------------------------------------------------------


def test_counterexample_default_fails_reference_value(capsys):
    # the exact posterior variance is 1/16; the pinned reference 0.25 is
    # its square root, so the reference check reports a failure
    code = main(["counterexample"])
    out = capsys.readouterr().out
    assert code == EXIT_CHECK_FAILED
    assert "posterior variance    : 0.0625" in out
    assert "reference check FAILED" in out
    assert "0.25" in out


def test_counterexample_posterior_is_uniform(capsys):
    main(["counterexample", "--p", "0.1"])
    out = capsys.readouterr().out
    assert "0, 0.5, 0.5" in out
    assert "non-monotone          : true" in out


def test_counterexample_other_outcome_contracts(capsys):
    code = main(["counterexample", "--y1", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "non-monotone          : false" in out


def test_counterexample_p_out_of_range(capsys):
    code = main(["counterexample", "--p", "0.5"])
    assert code == EXIT_CONFIG
    assert "--p" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# potential-trace
# ---------------------------------------------------------------------------


def test_potential_trace_writes_outputs(tmp_path, capsys):
    cfg = write(tmp_path, "pot.yaml", POTENTIAL_YAML)
    out_dir = tmp_path / "out"
    code = main(["potential-trace", "--config", cfg, "--out", str(out_dir)])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    assert "holds: true" in printed

    csv_lines = (out_dir / "potential.csv").read_text().splitlines()
    assert csv_lines[0] == "t,mean_gamma_quad,running_sum,thm23_bound"
    assert len(csv_lines) == 1 + 6

    blob = json.loads((out_dir / "verification.json").read_text())
    assert blob["holds"] is True
    assert blob["horizon"] == 6


def test_potential_trace_seed_flag_changes_estimate(tmp_path, capsys):
    cfg = write(tmp_path, "pot.yaml", POTENTIAL_YAML)
    main(["potential-trace", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "1"])
    first = capsys.readouterr().out
    main(["potential-trace", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "2"])
    second = capsys.readouterr().out
    assert first != second


def test_consecutive_calls_do_not_leak_a_seed(tmp_path, capsys):
    # main builds its parser once per process; a flag from one call must
    # not reach the next, whatever runs in between
    pot = write(
        tmp_path,
        "pot.yaml",
        POTENTIAL_YAML + "engine:\n  kind: particle\n  particles: 200\n",
    )
    run = write(tmp_path, "run.yaml", BANDIT_YAML)

    def trace(name, *flags):
        out = tmp_path / name
        code = main(["potential-trace", "--config", pot, "--out", str(out), *flags])
        assert code == EXIT_OK
        return (out / "verification.json").read_bytes()

    def bandit_seed(name, *flags):
        out = tmp_path / name
        main(["run-bandit", "--config", run, "--out", str(out), "--workers", "1", *flags])
        return json.loads((out / "summary.json").read_text())["master_seed"]

    config_seed = trace("config_seed", "--seed", "11")
    seeded = trace("seeded", "--seed", "5")
    assert trace("unseeded") == config_seed != seeded
    assert bandit_seed("bandit_seeded", "--seed", "99") == 99
    assert bandit_seed("bandit_unseeded") == 3
    assert trace("unseeded_again") == config_seed
    capsys.readouterr()


# Exact path: the adversarial rule's first direction, from the prior's
# covariance, has a negative entry and gives one atom a negative Bernoulli
# mean. The mean range is checked where the lattice first branches on it.
MEAN_OUT_OF_RANGE_YAML = """\
potential:
  horizon: 4
  replications: 1
  master_seed: 0
  action_rule: adversarial
prior:
  kind: finite_support
  atoms: [[0.2, 0.1, 0.3], [0.5, 0.2, 0.1], [0.1, 0.4, 0.2], [0.3, 0.3, 0.3]]
  weights: [0.25, 0.25, 0.25, 0.25]
noise:
  kind: bernoulli_mean
engine:
  kind: finite_support
"""


def test_potential_trace_mean_out_of_range_is_a_failed_run(tmp_path, capsys):
    cfg = write(tmp_path, "pot.yaml", MEAN_OUT_OF_RANGE_YAML)
    code = main(["potential-trace", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CHECK_FAILED
    assert err.startswith("run failed: Bernoulli mean must lie in [0, 1]")


@pytest.mark.parametrize("horizon", [1, 2])
def test_exact_path_checks_the_mean_range_only_where_it_branches(
    tmp_path, capsys, horizon
):
    # at H = 1 nothing branches on the out-of-range direction, so the run is
    # exact; from H = 2 the root branches on it
    cfg = write(
        tmp_path,
        "pot.yaml",
        MEAN_OUT_OF_RANGE_YAML.replace("horizon: 4", f"horizon: {horizon}"),
    )
    code = main(["potential-trace", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    if horizon == 1:
        assert code == EXIT_OK
        report = json.loads((tmp_path / "verification.json").read_text())
        assert report["exact"]
        assert report["mean_total"] == pytest.approx(0.02666462972008379, rel=1e-12)
    else:
        assert code == EXIT_CHECK_FAILED
        assert err == (
            "run failed: Bernoulli mean must lie in [0, 1], got -0.11467231955161812\n"
        )


# d = 1: the adversarial action is always [1], so the atoms are the reward
# means and a negative one is refused before anything runs
ONE_DIM_NEGATIVE_ATOM_YAML = """\
potential:
  horizon: 4
  replications: 1
  action_rule: adversarial
prior:
  kind: finite_support
  atoms: [[-0.5], [0.5]]
  weights: [0.5, 0.5]
noise:
  kind: bernoulli_mean
engine:
  kind: finite_support
"""


def test_potential_trace_one_dim_negative_atom_is_a_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "pot.yaml", ONE_DIM_NEGATIVE_ATOM_YAML)
    code = main(["potential-trace", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: potential: the adversarial action [1] produces reward "
        "means outside [0, 1]"
    )
    assert not (tmp_path / "out").exists()


# Monte Carlo lints rule: signed atoms and signed arms leave the Bernoulli
# mean range uncertified, as a regret experiment would be
UNCERTIFIED_LINTS_YAML = """\
potential:
  horizon: 6
  replications: 4
  action_rule: lints
prior:
  kind: finite_support
  atoms: [[0.5, -0.4], [0.2, 0.3]]
  weights: [0.5, 0.5]
noise:
  kind: bernoulli_mean
engine:
  kind: finite_support
actions:
  kind: karmed_gaussian
  k: 3
"""


def test_potential_trace_uncertified_lints_rule_is_a_config_error(tmp_path, capsys):
    cfg = write(tmp_path, "pot.yaml", UNCERTIFIED_LINTS_YAML)
    code = main(["potential-trace", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: actions: cannot certify reward means in [0, 1]"
    )
    assert not (tmp_path / "out").exists()


def test_potential_trace_monte_carlo_single_replication_is_a_config_error(
    tmp_path, capsys
):
    text = POTENTIAL_YAML.replace("replications: 30", "replications: 1")
    cfg = write(tmp_path, "pot.yaml", text)
    code = main(["potential-trace", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: potential.replications")
    assert not (tmp_path / "out").exists()


def test_potential_trace_incompatible_engine_is_a_config_error(tmp_path, capsys):
    text = POTENTIAL_YAML + "engine:\n  kind: finite_support\n"
    cfg = write(tmp_path, "pot.yaml", text)
    code = main(["potential-trace", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: engine: finite_support requires a finite-support prior"
    )
    assert not (tmp_path / "out").exists()


def test_potential_trace_adversarial_rule_with_actions_is_a_config_error(
    tmp_path, capsys
):
    # the adversarial rule plays over the unit sphere and would ignore it
    text = POTENTIAL_YAML + "actions:\n  kind: karmed_gaussian\n  k: 2\n"
    cfg = write(tmp_path, "pot.yaml", text)
    code = main(["potential-trace", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: actions: the adversarial action rule takes no actions section"
    )
    assert not (tmp_path / "out").exists()


def test_potential_trace_missing_config(capsys):
    code = main(["potential-trace", "--config", "/nonexistent.yaml"])
    assert code == EXIT_CONFIG
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        b"potential:\n  horizon: 6\xff\n",
        # the last value would win
        POTENTIAL_YAML.replace("replications: 30", "replications: 2\n  replications: 3")
        .encode(),
    ],
    ids=["not-utf8", "repeated-key"],
)
def test_unreadable_config_is_a_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "pot.yaml"
    cfg.write_bytes(text)
    out = tmp_path / "out"
    code = main(["potential-trace", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: <file>: ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# run-bandit
# ---------------------------------------------------------------------------


def test_run_bandit_writes_all_outputs(tmp_path, capsys):
    cfg = write(tmp_path, "run.yaml", BANDIT_YAML)
    out_dir = tmp_path / "out"
    code = main(["run-bandit", "--config", cfg, "--out", str(out_dir)])
    printed = capsys.readouterr().out
    assert code == EXIT_OK
    assert "completed 4/4 replications" in printed
    assert "pass_eq1: true" in printed

    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["format"] == "ellipsim-summary-v7"
    assert summary["checks"]["pass_eq4"] is True
    assert "wall_time_seconds" not in summary

    regret_lines = (out_dir / "regret_curve.csv").read_text().splitlines()
    assert regret_lines[0] == "t,mean_regret,stderr,eq4_bound,remark33_bound"
    assert len(regret_lines) == 1 + 15

    potential_lines = (out_dir / "potential.csv").read_text().splitlines()
    assert potential_lines[0] == "t,mean_gamma_quad,running_sum,thm23_bound"


# Theorem 2.3's Monte Carlo verdict fails at this wide prior, N(0, 25 I).
# ROADMAP item 5 may later rule thm23 out of scope here; the test then
# needs another prior whose verdict is False.
FAILING_BANDIT_YAML = """\
experiment:
  horizon: 50
  replications: 50
  master_seed: 0
prior:
  kind: gaussian
  mean: [0.0, 0.0, 0.0]
  cov: [[25.0, 0.0, 0.0], [0.0, 25.0, 0.0], [0.0, 0.0, 25.0]]
noise:
  kind: gaussian
  sd: 1.0
engine:
  kind: gaussian_conjugate
actions:
  kind: karmed_gaussian
  k: 10
"""


def test_run_bandit_failing_verdict_fails_the_run(tmp_path, capsys):
    cfg = write(tmp_path, "fail.yaml", FAILING_BANDIT_YAML)
    out_dir = tmp_path / "out"
    code = main(["run-bandit", "--config", cfg, "--out", str(out_dir)])
    printed = capsys.readouterr().out
    checks = json.loads((out_dir / "summary.json").read_text())["checks"]
    assert False in checks.values()
    assert "pass_thm23: false" in printed
    assert code == EXIT_CHECK_FAILED
    # Gamma_1 = 25 I is not <= I: remark 3.3 does not apply, and nothing
    # was skipped
    assert checks["pass_remark33"] is None
    assert "pass_remark33: not applicable" in printed
    assert "skipped" not in printed

    # no config line can turn a verdict off
    muted = FAILING_BANDIT_YAML.replace(
        "  master_seed: 0\n", "  master_seed: 0\n  bound_checks: [eq1, eq4]\n"
    )
    muted_cfg = write(tmp_path, "muted.yaml", muted)
    code = main(["run-bandit", "--config", muted_cfg, "--out", str(tmp_path / "muted")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: experiment.bound_checks: unknown key"
    )


def test_run_bandit_outputs_are_byte_stable(tmp_path, capsys):
    cfg = write(tmp_path, "run.yaml", BANDIT_YAML)
    for name in ("first", "second"):
        main(["run-bandit", "--config", cfg, "--out", str(tmp_path / name)])
    capsys.readouterr()
    for fname in ("summary.json", "regret_curve.csv", "potential.csv"):
        a = (tmp_path / "first" / fname).read_bytes()
        b = (tmp_path / "second" / fname).read_bytes()
        assert a == b


def test_run_bandit_seed_flag_overrides_config(tmp_path, capsys):
    cfg = write(tmp_path, "run.yaml", BANDIT_YAML)
    main(["run-bandit", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "99"])
    capsys.readouterr()
    a = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert a["master_seed"] == 99


def test_run_bandit_worker_count_is_cosmetic(tmp_path, capsys):
    cfg = write(tmp_path, "run.yaml", BANDIT_YAML)
    main(["run-bandit", "--config", cfg, "--out", str(tmp_path / "w1"), "--workers", "1"])
    main(["run-bandit", "--config", cfg, "--out", str(tmp_path / "w2"), "--workers", "2"])
    capsys.readouterr()
    a = (tmp_path / "w1" / "summary.json").read_bytes()
    b = (tmp_path / "w2" / "summary.json").read_bytes()
    assert a == b


def test_run_bandit_workers_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ELLIPSIM_WORKERS", "2")
    cfg = write(tmp_path, "run.yaml", BANDIT_YAML)
    code = main(["run-bandit", "--config", cfg, "--out", str(tmp_path / "env")])
    capsys.readouterr()
    assert code == EXIT_OK


def test_run_bandit_bad_workers_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ELLIPSIM_WORKERS", "many")
    cfg = write(tmp_path, "run.yaml", BANDIT_YAML)
    code = main(["run-bandit", "--config", cfg, "--out", str(tmp_path / "env")])
    assert code == EXIT_CONFIG
    assert "ELLIPSIM_WORKERS" in capsys.readouterr().err


def test_run_bandit_uncertifiable_mean_range_is_a_config_error(tmp_path, capsys):
    text = BANDIT_YAML.replace(
        "noise:\n  kind: gaussian\n  sd: 0.5\nengine:\n  kind: gaussian_conjugate",
        "noise:\n  kind: bernoulli_mean\nengine:\n  kind: particle\n  particles: 100",
    )
    cfg = write(tmp_path, "run.yaml", text)
    code = main(["run-bandit", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "config error: experiment: mean-restricted noise" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_run_bandit_lam_below_one_is_a_config_error(tmp_path, capsys):
    text = BANDIT_YAML.replace("master_seed: 3\n", "master_seed: 3\n  lam: 0.5\n")
    cfg = write(tmp_path, "run.yaml", text)
    code = main(["run-bandit", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "config error: experiment: lam must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_run_bandit_infinite_lam_is_a_config_error(tmp_path, capsys):
    text = BANDIT_YAML.replace("master_seed: 3\n", "master_seed: 3\n  lam: .inf\n")
    cfg = write(tmp_path, "run.yaml", text)
    code = main(["run-bandit", "--config", cfg, "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert "config error: experiment: lam must be finite, got inf" in (
        capsys.readouterr().err
    )
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "value, shown", [(".nan", "nan"), (".inf", "inf"), ("-.inf", "-inf")]
)
def test_run_bandit_non_finite_prior_cov_is_a_config_error(
    tmp_path, capsys, value, shown
):
    text = BANDIT_YAML.replace("[[1.0, 0.0]", f"[[{value}, 0.0]")
    cfg = write(tmp_path, "run.yaml", text)
    code = main(["run-bandit", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"config error: prior: matrix entries must be finite, got {shown} at (0, 0)"
    )
    assert not (tmp_path / "out").exists()


def test_run_bandit_incompatible_engine_is_a_config_error(tmp_path, capsys):
    text = BANDIT_YAML.replace("kind: gaussian_conjugate", "kind: finite_support")
    cfg = write(tmp_path, "run.yaml", text)
    code = main(["run-bandit", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: engine: finite_support requires a finite-support prior"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("policy", ["ucb", "adversarial"])
def test_run_bandit_unknown_policy_is_a_config_error(tmp_path, capsys, policy):
    # the episode loop plays the adversarial rule for the potential
    # verifier, but a regret experiment takes only lints and greedy
    text = BANDIT_YAML.replace(
        "master_seed: 3\n", f"master_seed: 3\n  policy: {policy}\n"
    )
    cfg = write(tmp_path, "run.yaml", text)
    code = main(["run-bandit", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"config error: experiment: unknown policy '{policy}'"
    )
    assert not (tmp_path / "out").exists()


def test_run_bandit_singular_conjugate_prior_is_a_config_error(tmp_path, capsys):
    text = BANDIT_YAML.replace("[0.0, 1.0]]", "[0.0, 0.0]]")
    cfg = write(tmp_path, "run.yaml", text)
    code = main(["run-bandit", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: engine: gaussian_conjugate needs an invertible prior covariance"
    )
    assert not (tmp_path / "out").exists()


def test_run_bandit_unknown_config_key(tmp_path, capsys):
    cfg = write(tmp_path, "bad.yaml", BANDIT_YAML + "extras:\n  a: 1\n")
    code = main(["run-bandit", "--config", cfg, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "config error" in err
    assert "extras" in err


# ---------------------------------------------------------------------------
# both Monte Carlo jobs
# ---------------------------------------------------------------------------

# a scalar model both jobs can run; potential-trace takes the exact path
TWO_ATOM_MODEL = """\
prior:
  kind: finite_support
  atoms: [[0.2], [0.8]]
  weights: [0.5, 0.5]
noise:
  kind: bernoulli_mean
engine:
  kind: {engine}
"""


def job_yaml(command, model):
    """The job section of ``command``'s test config over another model."""
    if command == "run-bandit":
        actions = "actions:\n  kind: karmed_gaussian\n  k: 4\n  nonnegative: true\n"
        return BANDIT_YAML.split("prior:")[0] + model + actions
    return POTENTIAL_YAML.split("prior:")[0] + model


@pytest.mark.parametrize(
    "command,builder",
    [("run-bandit", build_experiment), ("potential-trace", build_potential_run)],
)
def test_both_jobs_build_one_config_and_refuse_the_same_engine(
    tmp_path, capsys, command, builder
):
    model = TWO_ATOM_MODEL.format(engine="finite_support")
    good = write(tmp_path, "good.yaml", job_yaml(command, model))
    assert isinstance(builder(load_yaml(good)), ExperimentConfig)
    model = TWO_ATOM_MODEL.format(engine="gaussian_conjugate")
    bad = write(tmp_path, "bad.yaml", job_yaml(command, model))
    code = main([command, "--config", bad, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: engine: gaussian_conjugate requires a Gaussian prior"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("command", ["run-bandit", "potential-trace"])
def test_bernoulli_noise_needs_a_finite_support_prior(tmp_path, capsys, command, dim):
    # a continuous prior bounds no reward mean in advance, under any rule
    model = (
        f"prior:\n  kind: uniform_ball\n  dim: {dim}\n"
        "noise:\n  kind: bernoulli_mean\n"
    )
    cfg = write(tmp_path, "run.yaml", job_yaml(command, model))
    code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "mean-restricted noise needs a finite-support prior" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run-bandit", "potential-trace"])
def test_each_command_builds_its_run_once(tmp_path, capsys, monkeypatch, command):
    # building checks the engine (a Cholesky of the prior covariance) and
    # the episode; flags are resolved before it, so nothing rebuilds the run
    built = []
    post_init = ExperimentConfig.__post_init__

    def counted(cfg):
        built.append(cfg)
        post_init(cfg)

    monkeypatch.setattr(ExperimentConfig, "__post_init__", counted)
    text = BANDIT_YAML if command == "run-bandit" else POTENTIAL_YAML
    cfg = write(tmp_path, "run.yaml", text)
    out = str(tmp_path / "out")
    code = main([command, "--config", cfg, "--out", out, "--seed", "5"])
    capsys.readouterr()
    assert code == EXIT_OK
    assert len(built) == 1
    assert built[0].master_seed == 5


@pytest.mark.parametrize("command", ["run-bandit", "potential-trace"])
def test_unusable_out_is_a_config_error_before_any_replication(
    tmp_path, capsys, monkeypatch, command
):
    episodes = []
    monkeypatch.setattr(
        harness_mod, "run_episode", lambda *args, **kw: episodes.append(args)
    )
    text = BANDIT_YAML if command == "run-bandit" else POTENTIAL_YAML
    cfg = write(tmp_path, "run.yaml", text)
    blocker = write(tmp_path, "file", "")
    code = main([command, "--config", cfg, "--out", f"{blocker}/out"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: --out: ")
    assert episodes == []


# a run-bandit config by section; a family field's case replaces the
# section that holds it, with {v} where its value goes
BASE_SECTIONS = {
    "experiment": "experiment:\n  horizon: 5\n  replications: 2\n",
    "prior": (
        "prior:\n  kind: finite_support\n  atoms: [[0.5], [0.5]]\n"
        "  weights: [0.5, 0.5]\n"
    ),
    "noise": "noise:\n  kind: gaussian\n  sd: 1.0\n",
    "actions": "actions:\n  kind: karmed_gaussian\n  k: 3\n",
}
FAMILY_FIELDS = {
    "prior.atoms": (
        "prior:\n  kind: finite_support\n  atoms: [[0.5], [{v}]]\n"
        "  weights: [0.5, 0.5]\n"
    ),
    "prior.weights": (
        "prior:\n  kind: finite_support\n  atoms: [[0.5], [0.5]]\n"
        "  weights: [{v}, 0.5]\n"
    ),
    "prior.mean": "prior:\n  kind: gaussian\n  mean: [{v}]\n  cov: [[1.0]]\n",
    "actions.vectors": "actions:\n  kind: fixed\n  vectors: [[1.0], [{v}]]\n",
    "noise.sd": "noise:\n  kind: gaussian\n  sd: {v}\n",
    "noise.dof": "noise:\n  kind: student_t\n  dof: {v}\n",
    "noise.scale": "noise:\n  kind: student_t\n  scale: {v}\n",
    "noise.half_width": "noise:\n  kind: uniform_centered\n  half_width: {v}\n",
}


@pytest.mark.parametrize("value", [".nan", ".inf"])
@pytest.mark.parametrize("field", sorted(FAMILY_FIELDS))
def test_non_finite_family_parameter_is_a_config_error(tmp_path, capsys, field, value):
    section = field.split(".")[0]
    sections = {**BASE_SECTIONS, section: FAMILY_FIELDS[field].format(v=value)}
    cfg = write(tmp_path, "run.yaml", "".join(sections.values()))
    code = main(["run-bandit", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {section}: ")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# acceptance
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("second_passes", [True, False], ids=["all-pass", "failing"])
def test_acceptance_prints_each_verdict_and_the_suite_verdict(
    capsys, monkeypatch, second_passes
):
    stand_ins = (
        (1, "instant-pass", lambda seed: (True, "")),
        (2, "instant-second", lambda seed: (second_passes, f"seed was {seed}")),
    )
    monkeypatch.setattr(acceptance_mod, "CRITERIA", stand_ins)
    monkeypatch.setattr(acceptance_mod.time, "perf_counter", lambda: 0.0)
    code = main(["acceptance", "--seed", "4"])
    lines = [
        "[ 1/11] instant-pass               PASS  (0.0 s)",
        "[ 2/11] instant-second             PASS  (0.0 s)",
        "acceptance: ALL PASS",
    ]
    if not second_passes:
        lines[1:] = [
            "[ 2/11] instant-second             FAIL  (0.0 s)",
            "        seed was 4",
            "acceptance: FAILURES PRESENT",
        ]
    assert capsys.readouterr().out == "\n".join(lines) + "\n"
    assert code == (EXIT_OK if second_passes else EXIT_CHECK_FAILED)


# ---------------------------------------------------------------------------
# parser surface
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv,field,env",
    [
        (["run-bandit", "--config", "{run}", "--workers", "0"], "--workers", {}),
        (["run-bandit", "--config", "{run}", "--seed", "-1"], "--seed", {}),
        (["potential-trace", "--config", "{pot}", "--seed", "-1"], "--seed", {}),
        (["verify-lemmas", "--seed", "-1"], "--seed", {}),
        (["acceptance", "--seed", "-1"], "--seed", {}),
        (["verify-lemmas", "--config", "{lemmas}"], "lemmas.seed", {}),
        (["potential-trace", "--config", "{bad_pot}"], "potential.master_seed", {}),
        (["run-bandit", "--config", "{bad_run}"], "experiment.master_seed", {}),
        (["verify-lemmas", "--instances", "0"], "--instances", {}),
        (
            ["verify-lemmas", "--config", "{zero_count}"],
            "lemmas.logdet-shift",
            {},
        ),
        (
            ["run-bandit", "--config", "{run}"],
            "ELLIPSIM_WORKERS",
            {"ELLIPSIM_WORKERS": "0"},
        ),
        # a config value a flag overrides is still checked, on its own path
        (
            ["run-bandit", "--config", "{zero_workers}", "--workers", "2"],
            "experiment.workers",
            {},
        ),
        (
            ["run-bandit", "--config", "{bad_run}", "--seed", "5"],
            "experiment.master_seed",
            {},
        ),
    ],
    ids=[
        "run-bandit-workers-flag",
        "run-bandit-seed-flag",
        "potential-trace-seed-flag",
        "verify-lemmas-seed-flag",
        "acceptance-seed-flag",
        "lemmas-seed",
        "potential-master-seed",
        "experiment-master-seed",
        "verify-lemmas-instances-flag",
        "lemmas-instance-count",
        "workers-env-var",
        "experiment-workers-under-flag",
        "experiment-master-seed-under-flag",
    ],
)
def test_negative_seed_or_zero_workers_is_a_config_error(
    tmp_path, capsys, monkeypatch, argv, field, env
):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    paths = {
        "run": write(tmp_path, "run.yaml", BANDIT_YAML),
        "pot": write(tmp_path, "pot.yaml", POTENTIAL_YAML),
        "lemmas": write(tmp_path, "lemmas.yaml", "lemmas:\n  seed: -3\n"),
        "zero_count": write(tmp_path, "zero.yaml", "lemmas:\n  logdet-shift: 0\n"),
        "zero_workers": write(
            tmp_path,
            "zero_workers.yaml",
            BANDIT_YAML.replace("master_seed: 3", "master_seed: 3\n  workers: 0"),
        ),
        "bad_pot": write(
            tmp_path,
            "bad_pot.yaml",
            POTENTIAL_YAML.replace("master_seed: 11", "master_seed: -2"),
        ),
        "bad_run": write(
            tmp_path,
            "bad_run.yaml",
            BANDIT_YAML.replace("master_seed: 3", "master_seed: -2"),
        ),
    }
    argv = [arg.format(**paths) for arg in argv]
    if argv[0] in ("run-bandit", "potential-trace"):
        argv += ["--out", str(tmp_path / "out")]
    code = main(argv)
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {field}: must be >= ")
    assert not (tmp_path / "out").exists()


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_counterexample_rejects_bad_outcome(capsys):
    with pytest.raises(SystemExit):
        main(["counterexample", "--y1", "2"])
    capsys.readouterr()


# one fixed action whose np.linalg.norm is exactly 1 + 1e-12 (NORM_SLACK's
# limit); eq. 1's replay once refused it after the action set accepted it
UNIT_BALL_EDGE_ROW = [0.1006726181919071, 0.9648298881422095, 0.2428339162799928]
UNIT_BALL_EDGE_YAML = """\
experiment: {{horizon: 5, replications: 2}}
prior: {{kind: gaussian, mean: [0.0, 0.0, 0.0], cov: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}}
noise: {{kind: gaussian, sd: 1.0}}
engine: {{kind: gaussian_conjugate}}
actions: {{kind: fixed, vectors: [[{}, {}, {}]]}}
"""


def test_an_accepted_action_at_the_unit_ball_edge_runs(tmp_path, capsys):
    cfg = write(tmp_path, "run.yaml", UNIT_BALL_EDGE_YAML.format(*UNIT_BALL_EDGE_ROW))
    out = tmp_path / "out"
    assert main(["run-bandit", "--config", cfg, "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["completed"] == 2
    assert summary["checks"]["pass_eq1"] is True
    assert "pass_eq1: true" in capsys.readouterr().out


def test_an_action_one_ulp_past_the_unit_ball_is_a_config_error(
    tmp_path, capsys, monkeypatch
):
    episodes = []
    monkeypatch.setattr(
        harness_mod, "run_episode", lambda *args, **kw: episodes.append(args)
    )
    limit = 1.0 + NORM_SLACK
    row = np.array(UNIT_BALL_EDGE_ROW)
    assert row_norms(row[None, :])[0] <= limit
    while row_norms(row[None, :])[0] <= limit:
        row = row * (1.0 + 2.0**-52)
    cfg = write(tmp_path, "run.yaml", UNIT_BALL_EDGE_YAML.format(*map(repr, row.tolist())))
    code = main(["run-bandit", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: actions: ")
    assert "unit ball" in err
    assert episodes == []
