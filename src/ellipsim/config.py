"""YAML configuration: parsing, validation and serialization.

The schema is strict: unknown keys are rejected and every error carries
the dotted field path it refers to, so a typo in a nested section fails
fast with a usable message instead of silently running defaults.
The ``experiment`` section of ``run-bandit`` and the ``potential`` section
of ``potential-trace`` share one section parser, and both build a
:class:`~ellipsim.harness.ExperimentConfig`.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np
import yaml

from .bandit import (
    ActionSetGenerator,
    FixedActionsGenerator,
    KArmedGaussianGenerator,
    UnitSphereGenerator,
)
from .distributions import (
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
)
from .harness import KNOWN_CHECKS, MONTE_CARLO_MIN_REPLICATIONS, ExperimentConfig
from .linalg import PsdMatrix
from .posterior import EngineConfig, IncompatibleEngine, check_engine_compatible
from .potential import exact_path_applies
from .verify import DEFAULT_SIZES


class ConfigError(ValueError):
    """A configuration problem, addressed by dotted field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


WORKERS_ENV = "ELLIPSIM_WORKERS"


def env_workers(default: Optional[int] = None) -> Optional[int]:
    """Worker count from ``ELLIPSIM_WORKERS``, or ``default`` when unset.

    Anything but an integer >= 1 raises :class:`ConfigError`.
    """
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(WORKERS_ENV, f"expected an integer, got {raw!r}")
    if value < 1:
        raise ConfigError(WORKERS_ENV, f"worker count must be >= 1, got {value}")
    return value


# libyaml's parser when PyYAML was built with it; the constructors and
# resolvers are the same Python code, so the parsed documents are too
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_yaml(path: str) -> Dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_YAML_LOADER)
    except OSError as exc:
        raise ConfigError("<file>", f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError("<file>", f"invalid YAML: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, Mapping):
        raise ConfigError("<root>", "config must be a mapping of sections")
    return dict(doc)


def _check_keys(section: Mapping, allowed: Sequence[str], path: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(
            f"{path}.{unknown[0]}",
            f"unknown key (allowed: {', '.join(sorted(allowed))})",
        )


def _section(doc: Mapping, name: str, required: bool = True) -> Optional[Mapping]:
    if name not in doc:
        if required:
            raise ConfigError(name, "missing required section")
        return None
    sec = doc[name]
    if not isinstance(sec, Mapping):
        raise ConfigError(name, "section must be a mapping")
    return sec


def _require(section: Mapping, key: str, path: str) -> Any:
    if key not in section:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return section[key]


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    return float(value)


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _seed(section: Mapping, key: str, path: str) -> int:
    """The seed ``section[key]`` (default 0), refused on ``path.key`` if negative."""
    seed = _as_int(section.get(key, 0), f"{path}.{key}")
    if seed < 0:
        raise ConfigError(f"{path}.{key}", f"must be >= 0, got {seed}")
    return seed


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected a boolean, got {value!r}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    return value


def _as_matrix(value: Any, path: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, f"expected a numeric array: {exc}") from exc
    return arr


def build_prior(section: Mapping, path: str = "prior") -> Prior:
    kind = _as_str(_require(section, "kind", path), f"{path}.kind")
    try:
        if kind == "gaussian":
            _check_keys(section, ("kind", "mean", "cov"), path)
            mean = _as_matrix(_require(section, "mean", path), f"{path}.mean")
            cov = _as_matrix(_require(section, "cov", path), f"{path}.cov")
            return GaussianPrior(mean=mean, cov=PsdMatrix(cov))
        if kind == "finite_support":
            _check_keys(section, ("kind", "atoms", "weights"), path)
            atoms = _as_matrix(_require(section, "atoms", path), f"{path}.atoms")
            weights = _as_matrix(_require(section, "weights", path), f"{path}.weights")
            return FiniteSupportPrior(atoms=atoms, weights=weights)
        if kind == "uniform_ball":
            _check_keys(section, ("kind", "dim", "radius"), path)
            dim = _as_int(_require(section, "dim", path), f"{path}.dim")
            radius = _as_float(section.get("radius", 1.0), f"{path}.radius")
            return UniformBallPrior(dim=dim, radius=radius)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown prior kind {kind!r}")


def build_noise(section: Mapping, path: str = "noise") -> Noise:
    kind = _as_str(_require(section, "kind", path), f"{path}.kind")
    try:
        if kind == "gaussian":
            _check_keys(section, ("kind", "sd"), path)
            return GaussianNoise(sd=_as_float(_require(section, "sd", path), f"{path}.sd"))
        if kind == "bernoulli_mean":
            _check_keys(section, ("kind",), path)
            return BernoulliMeanNoise()
        if kind == "uniform_centered":
            _check_keys(section, ("kind", "half_width"), path)
            return UniformCenteredNoise(
                half_width=_as_float(
                    _require(section, "half_width", path), f"{path}.half_width"
                )
            )
        if kind == "student_t":
            _check_keys(section, ("kind", "dof", "scale"), path)
            return StudentTNoise(
                dof=_as_float(section.get("dof", 3.0), f"{path}.dof"),
                scale=_as_float(section.get("scale", 1.0), f"{path}.scale"),
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown noise kind {kind!r}")


def build_engine(section: Optional[Mapping], path: str = "engine") -> EngineConfig:
    if section is None:
        return EngineConfig()
    kind = _as_str(section.get("kind", "particle"), f"{path}.kind")
    _check_keys(section, ("kind", "particles"), path)
    particles = _as_int(
        section.get("particles", EngineConfig.particles), f"{path}.particles"
    )
    try:
        return EngineConfig(kind=kind, particles=particles)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def build_actions(
    section: Mapping, dim: int, path: str = "actions"
) -> ActionSetGenerator:
    kind = _as_str(_require(section, "kind", path), f"{path}.kind")
    try:
        if kind == "fixed":
            _check_keys(section, ("kind", "vectors"), path)
            vectors = _as_matrix(_require(section, "vectors", path), f"{path}.vectors")
            gen = FixedActionsGenerator(vectors=vectors)
            if gen.dim != dim:
                raise ConfigError(
                    f"{path}.vectors", f"action dim {gen.dim} != prior dim {dim}"
                )
            return gen
        if kind == "karmed_gaussian":
            _check_keys(section, ("kind", "k", "nonnegative"), path)
            return KArmedGaussianGenerator(
                k=_as_int(_require(section, "k", path), f"{path}.k"),
                dim=dim,
                nonnegative=_as_bool(
                    section.get("nonnegative", False), f"{path}.nonnegative"
                ),
            )
        if kind == "unit_sphere":
            _check_keys(section, ("kind",), path)
            return UnitSphereGenerator(dim=dim)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc
    raise ConfigError(f"{path}.kind", f"unknown action generator kind {kind!r}")


_EXPERIMENT_KEYS = (
    "horizon",
    "replications",
    "master_seed",
    "workers",
    "policy",
    "lam",
    "bound_checks",
)


def _parse_sections(
    doc: Mapping, job: str, job_keys: Sequence[str]
) -> Tuple[Mapping, Prior, Noise, EngineConfig]:
    """The job section, prior, noise and an engine that can represent them."""
    _check_keys(doc, (job, "prior", "noise", "engine", "actions"), "<root>")
    sec = _section(doc, job)
    _check_keys(sec, job_keys, job)
    prior = build_prior(_section(doc, "prior"))
    noise = build_noise(_section(doc, "noise"))
    engine = build_engine(_section(doc, "engine", required=False))
    try:
        check_engine_compatible(prior, noise, engine)
    except IncompatibleEngine as exc:
        raise ConfigError("engine", str(exc)) from exc
    return sec, prior, noise, engine


def _experiment_config(
    path: str, mean_path: Optional[str] = None, **fields: Any
) -> ExperimentConfig:
    """``ExperimentConfig(**fields)``, refused as a :class:`ConfigError` on
    ``path``, or on ``mean_path`` when a reward mean range is uncertified."""
    try:
        return ExperimentConfig(**fields)
    except MeanOutOfRange as exc:
        raise ConfigError(mean_path or path, str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def build_experiment(doc: Mapping) -> ExperimentConfig:
    """Assemble a full experiment from a parsed config document."""
    exp, prior, noise, engine = _parse_sections(doc, "experiment", _EXPERIMENT_KEYS)
    actions = build_actions(_section(doc, "actions"), prior.dim)

    checks = exp.get("bound_checks", list(KNOWN_CHECKS))
    if not isinstance(checks, Sequence) or isinstance(checks, str):
        raise ConfigError("experiment.bound_checks", "expected a list of check names")
    checks = tuple(_as_str(c, "experiment.bound_checks") for c in checks)
    # the episode loop also plays the verifier's adversarial rule, but a
    # regret experiment takes only these two
    policy = _as_str(exp.get("policy", "lints"), "experiment.policy")
    if policy not in ("lints", "greedy"):
        raise ConfigError("experiment", f"unknown policy {policy!r}")

    return _experiment_config(
        "experiment",
        prior=prior,
        noise=noise,
        engine=engine,
        actions=actions,
        horizon=_as_int(_require(exp, "horizon", "experiment"), "experiment.horizon"),
        replications=_as_int(
            _require(exp, "replications", "experiment"), "experiment.replications"
        ),
        master_seed=_seed(exp, "master_seed", "experiment"),
        workers=_as_int(exp.get("workers", 1), "experiment.workers"),
        policy=policy,
        lam=_as_float(exp.get("lam", 1.0), "experiment.lam"),
        bound_checks=checks,
    )


@dataclass(frozen=True)
class LemmaRunConfig:
    sizes: Dict[str, int]
    seed: int


def build_lemma_run(doc: Mapping) -> LemmaRunConfig:
    """Sizes and seed for the inequality checks; all fields optional."""
    _check_keys(doc, ("lemmas",), "<root>")
    sec = _section(doc, "lemmas", required=False) or {}
    allowed = ("seed",) + tuple(DEFAULT_SIZES)
    _check_keys(sec, allowed, "lemmas")
    sizes: Dict[str, int] = {}
    for name in DEFAULT_SIZES:
        if name in sec:
            count = _as_int(sec[name], f"lemmas.{name}")
            if count < 1:
                raise ConfigError(
                    f"lemmas.{name}", f"instance count must be >= 1, got {count}"
                )
            sizes[name] = count
    return LemmaRunConfig(sizes=sizes, seed=_seed(sec, "seed", "lemmas"))


def build_potential_run(doc: Mapping) -> ExperimentConfig:
    """The expected-potential verifier's run: ``policy`` is the action rule,
    ``lam=None``, and the adversarial rule plays over the unit sphere."""
    sec, prior, noise, engine = _parse_sections(
        doc, "potential", ("horizon", "replications", "master_seed", "action_rule")
    )
    rule = _as_str(sec.get("action_rule", "adversarial"), "potential.action_rule")
    if rule not in ("adversarial", "lints"):
        raise ConfigError("potential.action_rule", f"unknown action rule {rule!r}")
    if rule == "adversarial":
        if "actions" in doc:
            raise ConfigError(
                "actions", "the adversarial action rule takes no actions section"
            )
        actions = UnitSphereGenerator(dim=prior.dim)
    elif "actions" not in doc:
        raise ConfigError("actions", "the lints action rule needs an actions section")
    else:
        actions = build_actions(_section(doc, "actions"), prior.dim)
    cfg = _experiment_config(
        "potential",
        "actions" if rule == "lints" else None,
        prior=prior,
        noise=noise,
        engine=engine,
        actions=actions,
        horizon=_as_int(_require(sec, "horizon", "potential"), "potential.horizon"),
        replications=_as_int(sec.get("replications", 300), "potential.replications"),
        master_seed=_seed(sec, "master_seed", "potential"),
        policy=rule,
        lam=None,
    )
    # the exact path runs no replications
    if cfg.replications < MONTE_CARLO_MIN_REPLICATIONS and not exact_path_applies(
        prior, noise, cfg.horizon, rule
    ):
        raise ConfigError(
            "potential.replications",
            f"the Monte Carlo path needs >= {MONTE_CARLO_MIN_REPLICATIONS}, "
            f"got {cfg.replications}",
        )
    return cfg


# ---------------------------------------------------------------------------
# serialization back to plain dicts
# ---------------------------------------------------------------------------


def prior_to_dict(prior: Prior) -> Dict:
    if isinstance(prior, GaussianPrior):
        return {
            "kind": "gaussian",
            "mean": prior.mean.tolist(),
            "cov": prior.cov.mat.tolist(),
        }
    if isinstance(prior, FiniteSupportPrior):
        return {
            "kind": "finite_support",
            "atoms": prior.atoms.tolist(),
            "weights": prior.weights.tolist(),
        }
    return {"kind": "uniform_ball", "dim": prior.dim, "radius": prior.radius}


def noise_to_dict(noise: Noise) -> Dict:
    if isinstance(noise, GaussianNoise):
        return {"kind": "gaussian", "sd": noise.sd}
    if isinstance(noise, BernoulliMeanNoise):
        return {"kind": "bernoulli_mean"}
    if isinstance(noise, UniformCenteredNoise):
        return {"kind": "uniform_centered", "half_width": noise.half_width}
    return {"kind": "student_t", "dof": noise.dof, "scale": noise.scale}


def engine_to_dict(engine: EngineConfig) -> Dict:
    return {"kind": engine.kind, "particles": engine.particles}


def actions_to_dict(gen: ActionSetGenerator) -> Dict:
    if isinstance(gen, FixedActionsGenerator):
        return {"kind": "fixed", "vectors": np.asarray(gen.vectors).tolist()}
    if isinstance(gen, KArmedGaussianGenerator):
        return {
            "kind": "karmed_gaussian",
            "k": gen.k,
            "nonnegative": gen.nonnegative,
        }
    return {"kind": "unit_sphere"}


def experiment_to_dict(cfg: ExperimentConfig) -> Dict:
    # workers is an execution detail, not semantics: leaving it out keeps
    # serialized summaries identical across worker counts
    return {
        "experiment": {
            "horizon": cfg.horizon,
            "replications": cfg.replications,
            "master_seed": cfg.master_seed,
            "policy": cfg.policy,
            "lam": cfg.lam,
            "bound_checks": list(cfg.bound_checks),
        },
        "prior": prior_to_dict(cfg.prior),
        "noise": noise_to_dict(cfg.noise),
        "engine": engine_to_dict(cfg.engine),
        "actions": actions_to_dict(cfg.actions),
    }
