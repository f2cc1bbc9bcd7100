"""Config parsing: strict schemas, dotted error paths, round trips."""
import ast
import dataclasses
import math
import pathlib

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from ellipsim import config as config_mod
from ellipsim.bandit import (
    FixedActionsGenerator,
    KArmedGaussianGenerator,
    UnitSphereGenerator,
)
from ellipsim.config import (
    ConfigError,
    build_actions,
    build_engine,
    build_experiment,
    build_lemma_run,
    build_noise,
    build_potential_run,
    build_prior,
    experiment_to_dict,
    load_yaml,
)
from ellipsim.distributions import (
    BernoulliMeanNoise,
    FiniteSupportPrior,
    GaussianNoise,
    GaussianPrior,
    StudentTNoise,
    UniformBallPrior,
    UniformCenteredNoise,
)
from ellipsim.harness import ExperimentConfig
from ellipsim.posterior import EngineConfig


def full_doc():
    return {
        "experiment": {"horizon": 25, "replications": 4, "master_seed": 7},
        "prior": {"kind": "gaussian", "mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        "noise": {"kind": "gaussian", "sd": 0.5},
        "engine": {"kind": "gaussian_conjugate"},
        "actions": {"kind": "karmed_gaussian", "k": 5},
    }


# ---------------------------------------------------------------------------
# yaml loading
# ---------------------------------------------------------------------------


def test_load_yaml_reads_mapping(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("experiment:\n  horizon: 10\n")
    doc = load_yaml(str(path))
    assert doc == {"experiment": {"horizon": 10}}


def test_load_yaml_empty_file_is_empty_doc(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert load_yaml(str(path)) == {}


def test_load_yaml_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        load_yaml("/nonexistent/cfg.yaml")


def test_load_yaml_broken_syntax(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("a: [1, 2\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        load_yaml(str(path))


@pytest.mark.parametrize(
    "text,line",
    [
        ("experiment:\n  horizon: 10\n  horizon: 20\n", 3),
        ("prior:\n  kind: gaussian\nnoise: {}\nprior: {}\n", 4),
        ("a:\n  - {x: 1, y: 2, x: 3}\n", 2),
    ],
    ids=["nested", "section", "flow"],
)
def test_load_yaml_rejects_a_repeated_key(tmp_path, text, line):
    path = tmp_path / "dup.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"(?s)duplicate key .*line {line}, "):
        load_yaml(str(path))


def test_load_yaml_merge_keys_are_not_repeats(tmp_path):
    # a key of the mapping itself overrides a merged one
    path = tmp_path / "merge.yaml"
    path.write_text(
        "a: &a {x: 1, y: 2}\nb:\n  <<: *a\n  x: 3\nc:\n  <<: [*a, {z: 4}]\n"
    )
    assert load_yaml(str(path)) == {
        "a": {"x": 1, "y": 2},
        "b": {"x": 3, "y": 2},
        "c": {"x": 1, "y": 2, "z": 4},
    }


def same_document(got, want) -> bool:
    """Equal documents, floats by their bits: NaN matches NaN and a signed
    zero only its own sign."""
    if type(got) is not type(want):
        return False
    if isinstance(got, float):
        if math.isnan(want):
            return math.isnan(got)
        return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
    if isinstance(got, list):
        return len(got) == len(want) and all(map(same_document, got, want))
    if isinstance(got, dict):
        return got.keys() == want.keys() and all(
            same_document(got[k], want[k]) for k in got
        )
    return got == want


def assert_loads_as_safe_loader(tmp_path, text):
    path = tmp_path / "doc.yaml"
    path.write_text(text)
    got = load_yaml(str(path))
    want = yaml.load(text, Loader=yaml.SafeLoader)
    assert same_document(got, want), (got, want)
    return got


FLOAT_SPELLINGS = [
    # every YAML 1.1 float spelling, and some the implicit resolver leaves
    # as strings (+.5, -.5e+3, 1.0e5)
    "1_000.5", "1_0.0", "1.5_0", "1:30.5", "-1:30.5", ".inf", "-.Inf", "+.INF",
    ".NaN", ".nan", "+.5", ".5", "-.5e+3", "1.", "1.0e+5", "1.0E-5", "1.0e5",
    "-0.0", "+0.0", "0.0", "12.5", "-7.25", "2.5e-300", "1.7976931348623157e+308",
    # explicit tags
    "!!float 1", "!!float --1.", "!!float -+2.5", "!!float '1.5'", "!!float ' 2.5'",
    "!!float '1.5 '", "!!float 1e5", "!!float +.5", "!!float -.inf", "!!float 1__0.5",
    "!!float 1.0_", "!!float '1.5:30'", "!!float 0.5",
]


@pytest.mark.parametrize("spelling", FLOAT_SPELLINGS)
def test_load_yaml_reads_floats_as_the_safe_loader_does(tmp_path, spelling):
    # alone, among plain decimals, in a block list and in a nested list
    assert_loads_as_safe_loader(
        tmp_path,
        f"f: [0.5, {spelling}, -2.5]\ng: [{spelling}]\nh: {spelling}\n"
        f"b:\n  - - 1.5\n    - {spelling}\n  - [{spelling}, 0.25]\n",
    )


@pytest.mark.parametrize(
    "text",
    [
        # anchors and aliases, of a list and of its items
        "a: &x [1.5, 2.5]\nb: *x\nc: [&y 3.5, *y, 4.5]\nd: [*y, *y]\ne: [*x, *x]\n",
        # mixed and nested sequences
        "m: [1, 2.5, '3.5', three, 4.0, null, true, 0x1f, 1_000, 1:30, ~]\n"
        "n: [[1.0, 2.0], [3, 4.5], [], [[5.5]], [{x: 1.5}], [[0.5, '0.5']]]\n",
        "e: []\ns: !!seq [1.5, 2.5]\nt: !!set {1.5, 2.5}\np: !!omap [{a: 1.5}]\n",
    ],
    ids=["aliases", "mixed", "empty-and-tags"],
)
def test_load_yaml_reads_what_the_safe_loader_reads(tmp_path, text):
    assert_loads_as_safe_loader(tmp_path, text)


def test_load_yaml_refuses_a_sequence_tag_on_a_scalar(tmp_path):
    path = tmp_path / "seq.yaml"
    path.write_text("s: !!seq ''\n")
    with pytest.raises(ConfigError, match="expected a sequence node"):
        load_yaml(str(path))


def test_load_yaml_refuses_a_repeated_key_beside_float_lists(tmp_path):
    path = tmp_path / "dup.yaml"
    path.write_text("a: [1.5, 2.5]\nb: [[0.5], {x: 1.0, x: 2.0}]\n")
    with pytest.raises(ConfigError, match="(?s)duplicate key .*line 2, "):
        load_yaml(str(path))


@settings(max_examples=80, deadline=None)
@given(values=st.lists(st.lists(st.floats(), max_size=6), max_size=6))
def test_load_yaml_round_trips_float_lists(tmp_path_factory, values):
    text = yaml.safe_dump({"v": values, "flat": sum(values, [])})
    doc = assert_loads_as_safe_loader(tmp_path_factory.mktemp("rt"), text)
    assert same_document(doc["v"], values)


def test_load_yaml_rejects_non_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping of sections"):
        load_yaml(str(path))


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------


def test_gaussian_prior_round_trip():
    spec = {
        "kind": "gaussian",
        "mean": [0.5, -0.5],
        "cov": [[2.0, 0.0], [0.0, 1.0]],
    }
    prior = build_prior(spec)
    assert isinstance(prior, GaussianPrior)
    assert config_mod._to_dict(config_mod._PRIORS, prior) == spec


def test_finite_support_prior_round_trip():
    spec = {
        "kind": "finite_support",
        "atoms": [[0.0, 0.0], [0.5, 0.5]],
        "weights": [0.25, 0.75],
    }
    prior = build_prior(spec)
    assert isinstance(prior, FiniteSupportPrior)
    assert config_mod._to_dict(config_mod._PRIORS, prior) == spec


def test_uniform_ball_prior_defaults_radius():
    prior = build_prior({"kind": "uniform_ball", "dim": 3})
    assert isinstance(prior, UniformBallPrior)
    assert config_mod._to_dict(config_mod._PRIORS, prior) == {
        "kind": "uniform_ball",
        "dim": 3,
        "radius": 1.0,
    }


def test_prior_unknown_kind():
    with pytest.raises(ConfigError, match="unknown prior kind"):
        build_prior({"kind": "cauchy"})


def test_prior_unknown_key_names_path():
    spec = {"kind": "uniform_ball", "dim": 2, "radii": 1.0}
    with pytest.raises(ConfigError, match="prior.radii"):
        build_prior(spec)


def test_prior_missing_kind():
    with pytest.raises(ConfigError, match="prior.kind"):
        build_prior({"dim": 2})


def test_prior_domain_error_keeps_path():
    # weights that do not sum to 1 fail inside the distribution class;
    # the config layer re-addresses that as a prior error
    spec = {"kind": "finite_support", "atoms": [[0.1]], "weights": [0.5]}
    with pytest.raises(ConfigError, match="prior"):
        build_prior(spec)


# ---------------------------------------------------------------------------
# noise
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec, cls",
    [
        ({"kind": "gaussian", "sd": 1.5}, GaussianNoise),
        ({"kind": "bernoulli_mean"}, BernoulliMeanNoise),
        ({"kind": "uniform_centered", "half_width": 0.3}, UniformCenteredNoise),
        ({"kind": "student_t", "dof": 4.0, "scale": 0.5}, StudentTNoise),
    ],
)
def test_noise_round_trip(spec, cls):
    noise = build_noise(spec)
    assert isinstance(noise, cls)
    assert config_mod._to_dict(config_mod._NOISES, noise) == spec


def test_student_t_defaults():
    noise = build_noise({"kind": "student_t"})
    assert noise.dof == 3.0
    assert noise.scale == 1.0


def test_noise_unknown_kind():
    with pytest.raises(ConfigError, match="unknown noise kind"):
        build_noise({"kind": "laplace"})


def test_noise_domain_error_keeps_path():
    # dof <= 2 has no finite variance, rejected by the noise class
    with pytest.raises(ConfigError, match="noise"):
        build_noise({"kind": "student_t", "dof": 1.5})


def test_gaussian_noise_requires_sd():
    with pytest.raises(ConfigError, match="noise.sd"):
        build_noise({"kind": "gaussian"})


# ---------------------------------------------------------------------------
# engine and actions
# ---------------------------------------------------------------------------


def test_engine_defaults_when_section_absent():
    engine = build_engine(None)
    assert engine.kind == "particle"
    assert engine.particles == 20_000


def test_engine_explicit():
    engine = build_engine({"kind": "finite_support", "particles": 500})
    assert engine.kind == "finite_support"
    assert engine.particles == 500


def test_engine_unknown_kind():
    with pytest.raises(ConfigError, match="engine"):
        build_engine({"kind": "variational"})


def test_fixed_actions_round_trip():
    spec = {"kind": "fixed", "vectors": [[1.0, 0.0], [0.0, 1.0]]}
    gen = build_actions(spec, dim=2)
    assert isinstance(gen, FixedActionsGenerator)
    assert config_mod._to_dict(config_mod._ACTIONS, gen, derived=("dim",)) == spec


def test_fixed_actions_dim_mismatch():
    spec = {"kind": "fixed", "vectors": [[1.0, 0.0, 0.0]]}
    with pytest.raises(ConfigError, match="action dim 3 != prior dim 2"):
        build_actions(spec, dim=2)


def test_karmed_actions_default_signed():
    gen = build_actions({"kind": "karmed_gaussian", "k": 8}, dim=3)
    assert isinstance(gen, KArmedGaussianGenerator)
    assert gen.k == 8
    assert gen.nonnegative is False


def test_unit_sphere_actions():
    gen = build_actions({"kind": "unit_sphere"}, dim=4)
    assert isinstance(gen, UnitSphereGenerator)
    assert gen.dim == 4


def test_actions_unknown_kind():
    with pytest.raises(ConfigError, match="unknown action generator kind"):
        build_actions({"kind": "grid"}, dim=2)


# ---------------------------------------------------------------------------
# the family sections: one field reader and one serializer
# ---------------------------------------------------------------------------


# one spec per kind, every field written out, so a spec is exactly what
# the serializer writes back; actions take their dim from a 2-dim prior
SECTIONS = {
    "prior": (
        build_prior,
        config_mod._PRIORS,
        [
            {"kind": "gaussian", "mean": [0.5, -0.5], "cov": [[2.0, 0.0], [0.0, 1.0]]},
            {"kind": "finite_support", "atoms": [[0.5]], "weights": [1.0]},
            {"kind": "uniform_ball", "dim": 3, "radius": 0.5},
        ],
    ),
    "noise": (
        build_noise,
        config_mod._NOISES,
        [
            {"kind": "gaussian", "sd": 1.5},
            {"kind": "bernoulli_mean"},
            {"kind": "uniform_centered", "half_width": 0.3},
            {"kind": "student_t", "dof": 4.0, "scale": 0.5},
        ],
    ),
    "actions": (
        lambda spec: build_actions(spec, dim=2),
        config_mod._ACTIONS,
        [
            {"kind": "fixed", "vectors": [[1.0, 0.0], [0.0, 1.0]]},
            {"kind": "karmed_gaussian", "k": 4, "nonnegative": True},
            {"kind": "unit_sphere"},
        ],
    ),
}
SECTION_SPECS = [
    (name, spec) for name, (_, _, specs) in SECTIONS.items() for spec in specs
]


def test_section_specs_cover_every_kind():
    for name, (_, table, specs) in SECTIONS.items():
        assert sorted(spec["kind"] for spec in specs) == sorted(table), name


@pytest.mark.parametrize(
    "name, spec", SECTION_SPECS, ids=[f"{n}-{s['kind']}" for n, s in SECTION_SPECS]
)
def test_section_round_trip(name, spec):
    build, table, _ = SECTIONS[name]
    obj = build(spec)
    assert type(obj) is table[spec["kind"]]
    derived = ("dim",) if name == "actions" else ()
    assert config_mod._to_dict(table, obj, derived) == spec


def test_engine_round_trip():
    spec = {"kind": "finite_support", "particles": 500}
    assert config_mod._to_dict({}, build_engine(spec)) == spec


KEY_ERRORS = [
    ("prior", {"kind": "uniform_ball"}, "prior.dim: missing required field"),
    (
        "prior",
        {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]], "sd": 1.0},
        "prior.sd: unknown key (allowed: cov, kind, mean)",
    ),
    ("noise", {"kind": "uniform_centered"}, "noise.half_width: missing required field"),
    (
        "noise",
        {"kind": "bernoulli_mean", "sd": 1.0},
        "noise.sd: unknown key (allowed: kind)",
    ),
    ("actions", {"kind": "karmed_gaussian"}, "actions.k: missing required field"),
    # the generator's dim comes from the prior, never from the section
    (
        "actions",
        {"kind": "unit_sphere", "dim": 2},
        "actions.dim: unknown key (allowed: kind)",
    ),
    # the engine's kind is a field, listed once
    (
        "engine",
        {"kind": "particle", "size": 10},
        "engine.size: unknown key (allowed: kind, particles)",
    ),
]


@pytest.mark.parametrize(
    "name, spec, error",
    KEY_ERRORS,
    ids=[f"{name}-{error.split()[1]}" for name, _, error in KEY_ERRORS],
)
def test_section_key_errors_name_the_dotted_path(name, spec, error):
    build = build_engine if name == "engine" else SECTIONS[name][0]
    with pytest.raises(ConfigError) as info:
        build(spec)
    assert str(info.value) == error


FAMILY_CLASSES = [
    cls for _, table, _ in SECTIONS.values() for cls in table.values()
] + [EngineConfig]


def test_every_family_field_annotation_has_a_parser():
    for cls in FAMILY_CLASSES:
        for field in dataclasses.fields(cls):
            assert field.type in config_mod._PARSERS, (cls.__name__, field.name)


def test_config_writes_no_class_default():
    # a default lives on its class: config.py never calls .get(key, literal)
    # for a key that is a field with a default
    defaulted = {
        field.name
        for cls in FAMILY_CLASSES + [ExperimentConfig]
        for field in dataclasses.fields(cls)
        if field.default is not dataclasses.MISSING
    }
    tree = ast.parse(open(config_mod.__file__, encoding="utf-8").read())
    copies = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and len(node.args) == 2
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value in defaulted
        ):
            try:
                ast.literal_eval(node.args[1])
            except ValueError:
                continue
            copies.append(ast.unparse(node))
    assert copies == []


# ---------------------------------------------------------------------------
# scalar coercions
# ---------------------------------------------------------------------------


def test_bool_is_not_an_integer():
    doc = full_doc()
    doc["experiment"]["horizon"] = True
    with pytest.raises(ConfigError, match="expected an integer"):
        build_experiment(doc)


def test_bool_is_not_a_number():
    with pytest.raises(ConfigError, match="expected a number"):
        build_noise({"kind": "gaussian", "sd": True})


def test_string_is_not_an_integer():
    doc = full_doc()
    doc["experiment"]["replications"] = "40"
    with pytest.raises(ConfigError, match="expected an integer"):
        build_experiment(doc)


# ---------------------------------------------------------------------------
# full experiment documents
# ---------------------------------------------------------------------------


def test_build_experiment_full_document():
    cfg = build_experiment(full_doc())
    assert cfg.horizon == 25
    assert cfg.replications == 4
    assert cfg.master_seed == 7
    assert cfg.policy == "lints"
    assert cfg.lam == 1.0


def test_build_experiment_unknown_root_key():
    doc = full_doc()
    doc["extras"] = {}
    with pytest.raises(ConfigError, match="<root>.extras"):
        build_experiment(doc)


def test_build_experiment_unknown_experiment_key():
    # every run reports all four verdicts, so a check list is unknown too
    for key, value in (("horizons", 10), ("bound_checks", ["eq1", "eq4"])):
        doc = full_doc()
        doc["experiment"][key] = value
        with pytest.raises(ConfigError, match=f"experiment.{key}: unknown key"):
            build_experiment(doc)


def test_unknown_keys_of_mixed_types_are_a_config_error():
    # YAML keys need not be strings, and 1 and "foo" do not compare
    doc = full_doc()
    doc["experiment"].update({1: 10, "foo": 10})
    with pytest.raises(ConfigError, match="experiment.1: unknown key"):
        build_experiment(doc)


def test_build_experiment_missing_section():
    doc = full_doc()
    del doc["noise"]
    with pytest.raises(ConfigError, match="noise"):
        build_experiment(doc)


def test_build_experiment_engine_optional():
    doc = full_doc()
    del doc["engine"]
    cfg = build_experiment(doc)
    assert cfg.engine.kind == "particle"


def test_experiment_serialization_round_trips():
    cfg = build_experiment(full_doc())
    spec = experiment_to_dict(cfg)
    again = experiment_to_dict(build_experiment(spec))
    assert again == spec


def test_experiment_serialization_omits_workers():
    doc = full_doc()
    doc["experiment"]["workers"] = 4
    spec = experiment_to_dict(build_experiment(doc))
    assert "workers" not in spec["experiment"]


# ---------------------------------------------------------------------------
# lemma and potential run documents
# ---------------------------------------------------------------------------


def test_lemma_run_defaults():
    sizes, seed = build_lemma_run({})
    assert sizes == {}
    assert seed == 0


def test_lemma_run_explicit_sizes():
    sizes, seed = build_lemma_run(
        {"lemmas": {"seed": 3, "classical-potential": 40, "trace-cauchy-schwarz": 10}}
    )
    assert seed == 3
    assert sizes == {"classical-potential": 40, "trace-cauchy-schwarz": 10}


def test_lemma_run_rejects_zero_count():
    with pytest.raises(ConfigError, match="must be >= 1"):
        build_lemma_run({"lemmas": {"trace-cauchy-schwarz": 0}})


def test_lemma_run_rejects_unknown_check():
    with pytest.raises(ConfigError, match="lemmas.spectral_gap"):
        build_lemma_run({"lemmas": {"spectral_gap": 5}})


def potential_doc():
    return {
        "potential": {"horizon": 12, "replications": 6},
        "prior": {"kind": "uniform_ball", "dim": 2},
        "noise": {"kind": "gaussian", "sd": 1.0},
    }


def test_potential_run_defaults():
    run = build_potential_run(potential_doc())
    assert run.horizon == 12
    assert run.replications == 6
    assert run.master_seed == 0
    assert run.policy == "adversarial"
    assert isinstance(run.actions, UnitSphereGenerator)
    assert run.actions.dim == 2


def test_potential_run_replications_default():
    doc = potential_doc()
    del doc["potential"]["replications"]
    assert build_potential_run(doc).replications == 300


def test_potential_run_unknown_rule():
    doc = potential_doc()
    doc["potential"]["action_rule"] = "ucb"
    with pytest.raises(ConfigError, match="unknown action rule"):
        build_potential_run(doc)


def test_potential_run_lints_needs_actions():
    doc = potential_doc()
    doc["potential"]["action_rule"] = "lints"
    with pytest.raises(ConfigError, match="needs an actions section"):
        build_potential_run(doc)


def test_potential_run_lints_with_actions():
    doc = potential_doc()
    doc["potential"]["action_rule"] = "lints"
    doc["actions"] = {"kind": "unit_sphere"}
    run = build_potential_run(doc)
    assert run.policy == "lints"
    assert isinstance(run.actions, UnitSphereGenerator)


def test_potential_run_lints_rule_certifies_the_mean_range():
    doc = potential_doc()
    doc["potential"]["action_rule"] = "lints"
    doc["prior"] = {
        "kind": "finite_support",
        "atoms": [[0.5, -0.4], [0.2, 0.3]],
        "weights": [0.5, 0.5],
    }
    doc["noise"] = {"kind": "bernoulli_mean"}
    doc["engine"] = {"kind": "finite_support"}
    doc["actions"] = {"kind": "karmed_gaussian", "k": 3}
    with pytest.raises(ConfigError, match="actions: cannot certify"):
        build_potential_run(doc)
    # the adversarial rule keeps failing only if a mean leaves [0, 1]
    doc["potential"]["action_rule"] = "adversarial"
    del doc["actions"]
    assert build_potential_run(doc).policy == "adversarial"


def test_potential_run_horizon_required():
    doc = potential_doc()
    del doc["potential"]["horizon"]
    with pytest.raises(ConfigError, match="potential.horizon"):
        build_potential_run(doc)


def test_potential_run_monte_carlo_needs_two_replications():
    doc = potential_doc()
    doc["potential"]["replications"] = 1
    with pytest.raises(ConfigError, match="potential.replications: the Monte Carlo"):
        build_potential_run(doc)


def test_potential_run_exact_path_takes_any_replication_count():
    doc = {
        "potential": {"horizon": 4, "replications": 1},
        "prior": {
            "kind": "finite_support",
            "atoms": [[0.2], [0.8]],
            "weights": [0.5, 0.5],
        },
        "noise": {"kind": "bernoulli_mean"},
    }
    assert build_potential_run(doc).replications == 1
    # past the exact path's reach (H = 90 for a scalar Bernoulli model) the
    # same model takes the Monte Carlo path
    doc["potential"]["horizon"] = 91
    with pytest.raises(ConfigError, match="potential.replications"):
        build_potential_run(doc)


def test_potential_run_horizon_positive():
    doc = potential_doc()
    doc["potential"]["horizon"] = 0
    with pytest.raises(ConfigError, match="must be >= 1"):
        build_potential_run(doc)


def test_config_error_carries_path_attribute():
    try:
        build_prior({"kind": "mystery"})
    except ConfigError as err:
        assert err.path == "prior.kind"
    else:
        assert False, "expected ConfigError"


@pytest.mark.parametrize("horizon", [4, 91], ids=["exact", "monte_carlo"])
def test_potential_run_checks_the_engine_on_both_paths(horizon):
    # the exact path enumerates with finite_support, but an engine that
    # cannot represent the model is refused there too
    doc = {
        "potential": {"horizon": horizon, "replications": 2},
        "prior": {
            "kind": "finite_support",
            "atoms": [[0.2], [0.8]],
            "weights": [0.5, 0.5],
        },
        "noise": {"kind": "bernoulli_mean"},
        "engine": {"kind": "gaussian_conjugate"},
    }
    with pytest.raises(ConfigError, match="engine: gaussian_conjugate requires"):
        build_potential_run(doc)


@pytest.mark.parametrize("horizon", [4, 91], ids=["exact", "monte_carlo"])
def test_potential_run_refuses_zero_replications_on_every_path(horizon):
    doc = {
        "potential": {"horizon": horizon, "replications": 0},
        "prior": {
            "kind": "finite_support",
            "atoms": [[0.2], [0.8]],
            "weights": [0.5, 0.5],
        },
        "noise": {"kind": "bernoulli_mean"},
    }
    with pytest.raises(ConfigError, match="potential: replications must be >= 1"):
        build_potential_run(doc)


def test_build_experiment_rejects_an_incompatible_engine():
    doc = full_doc()
    doc["engine"] = {"kind": "finite_support"}
    with pytest.raises(ConfigError, match="engine: finite_support requires"):
        build_experiment(doc)


ROOT = pathlib.Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted((ROOT / "configs").glob("*.yaml")) + sorted(
    (ROOT / "tests" / "data").glob("golden*/*.yaml")
)
CLI_BUILDERS = {
    "experiment": build_experiment,
    "potential": build_potential_run,
    "lemmas": build_lemma_run,
}


def test_configs_are_shipped():
    assert SHIPPED_CONFIGS


@pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
def test_shipped_config_builds(path):
    doc = load_yaml(str(path))
    (section,) = set(doc) & set(CLI_BUILDERS)
    CLI_BUILDERS[section](doc)
