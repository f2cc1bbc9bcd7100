"""YAML configuration: parsing, validation and serialization.

The schema is strict: unknown and repeated keys are rejected and every
error carries the dotted field path it refers to, so a typo in a nested
section fails fast with a usable message instead of silently running
defaults. Each command's builder also takes its flags, so a flag, the
environment and the YAML resolve in one place.
The schema is the classes: a prior, noise or action section's ``kind``
picks a class from one ``kind -> class`` table, and its other keys and
their defaults are that class's dataclass fields, as the engine
section's are :class:`~ellipsim.posterior.EngineConfig`'s. One field
reader builds every such section and one serializer writes it back.
The ``experiment`` section of ``run-bandit`` and the ``potential`` section
of ``potential-trace`` share one section parser, and both build a
:class:`~ellipsim.harness.ExperimentConfig`.
"""
from __future__ import annotations

import os
from dataclasses import MISSING, fields
from typing import Any, Callable, Collection, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np
import yaml

from .bandit import (
    ACTION_RULES,
    REGRET_POLICIES,
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
from .harness import ExperimentConfig, takes_exact_path
from .linalg import PsdMatrix
from .posterior import EngineConfig, IncompatibleEngine
from .verify import CHECKS


class ConfigError(ValueError):
    """A configuration problem, addressed by dotted field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def at_least(value: int, least: int, path: str) -> int:
    """``value``, refused on ``path`` when below ``least``: the one rule for
    every seed, worker count and instance count, from any source."""
    if value < least:
        raise ConfigError(path, f"must be >= {least}, got {value}")
    return value


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
    return at_least(value, 1, WORKERS_ENV)


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The safe loader, on libyaml's parser when PyYAML was built with it
    (the constructors and resolvers are the same Python code, so the parsed
    documents are too), refusing a key repeated in one mapping."""

    def construct_mapping(self, node, deep=False):
        # the node's own pairs: merge keys are deleted from this list in
        # place, and merged pairs go to a new one
        pairs = node.value
        mapping = super().construct_mapping(node, deep=deep)
        if len(mapping) != len(pairs):
            # a repeated key, or merged keys
            seen = set()
            for key_node, _ in pairs:
                key = self.construct_object(key_node)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping",
                        node.start_mark,
                        f"found duplicate key {key!r}",
                        key_node.start_mark,
                    )
                seen.add(key)
        return mapping


def load_yaml(path: str) -> Dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_Loader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("<file>", f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError("<file>", f"invalid YAML: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, Mapping):
        raise ConfigError("<root>", "config must be a mapping of sections")
    return dict(doc)


def _check_keys(section: Mapping, allowed: Collection[str], path: str) -> None:
    # YAML keys need not be strings, and mixed types do not compare
    unknown = sorted(set(section) - set(allowed), key=str)
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


def _bounded(section: Mapping, key: str, path: str, least: int, default=0) -> int:
    """The integer ``section[key]`` (``default`` when absent), refused on
    ``path.key`` below ``least``."""
    key_path = f"{path}.{key}"
    return at_least(_as_int(section.get(key, default), key_path), least, key_path)


def _seed(section: Mapping, key: str, path: str, flag: Optional[int]) -> int:
    """The ``--seed`` flag when given, else ``section[key]`` (default 0).
    The section's value is checked either way, each on its own path."""
    seed = _bounded(section, key, path, 0)
    return seed if flag is None else at_least(flag, 0, "--seed")


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


# one table per family section, ``kind -> class``; the engine section has
# none, its ``kind`` is an :class:`EngineConfig` field
_PRIORS = {
    "gaussian": GaussianPrior,
    "finite_support": FiniteSupportPrior,
    "uniform_ball": UniformBallPrior,
}
_NOISES = {
    "gaussian": GaussianNoise,
    "bernoulli_mean": BernoulliMeanNoise,
    "uniform_centered": UniformCenteredNoise,
    "student_t": StudentTNoise,
}
_ACTIONS = {
    "fixed": FixedActionsGenerator,
    "karmed_gaussian": KArmedGaussianGenerator,
    "unit_sphere": UnitSphereGenerator,
}

# the YAML value parser of each annotation a family field carries
_PARSERS: Dict[str, Callable[[Any, str], Any]] = {
    "float": _as_float,
    "int": _as_int,
    "bool": _as_bool,
    "str": _as_str,
    "Array": _as_matrix,
    "PsdMatrix": lambda value, path: PsdMatrix(_as_matrix(value, path)),
}


def _kind(table: Mapping[str, type], noun: str, section: Mapping, path: str) -> type:
    kind = _as_str(_require(section, "kind", path), f"{path}.kind")
    if kind not in table:
        raise ConfigError(f"{path}.kind", f"unknown {noun} kind {kind!r}")
    return table[kind]


def _read(cls: type, section: Mapping, path: str, **derived: Any) -> Any:
    """``cls`` built from ``section``.

    The keys are ``kind`` and the dataclass fields of ``cls``, less those
    ``derived`` supplies; a field with no default is required. A
    ``ValueError`` from a parser or from ``cls`` is refused on ``path``.
    """
    names = [f.name for f in fields(cls)]
    values = {name: v for name, v in derived.items() if name in names}
    read = [f for f in fields(cls) if f.name not in values]
    _check_keys(section, {"kind"} | {f.name for f in read}, path)
    try:
        for f in read:
            key = f"{path}.{f.name}"
            if f.name in section:
                values[f.name] = _PARSERS[f.type](section[f.name], key)
            elif f.default is MISSING:
                raise ConfigError(key, "missing required field")
        return cls(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def build_prior(section: Mapping, path: str = "prior") -> Prior:
    return _read(_kind(_PRIORS, "prior", section, path), section, path)


def build_noise(section: Mapping, path: str = "noise") -> Noise:
    return _read(_kind(_NOISES, "noise", section, path), section, path)


def build_engine(section: Optional[Mapping], path: str = "engine") -> EngineConfig:
    return _read(EngineConfig, section or {}, path)


def build_actions(
    section: Mapping, dim: int, path: str = "actions"
) -> ActionSetGenerator:
    cls = _kind(_ACTIONS, "action generator", section, path)
    gen = _read(cls, section, path, dim=dim)
    # fixed vectors carry their own dim; the other kinds take the prior's
    if gen.dim != dim:
        raise ConfigError(f"{path}.vectors", f"action dim {gen.dim} != prior dim {dim}")
    return gen


# a job document's sections besides its own; ``experiment``'s keys are the
# other ExperimentConfig fields
_FAMILY_SECTIONS = ("prior", "noise", "engine", "actions")
_EXPERIMENT_KEYS = tuple(
    f.name for f in fields(ExperimentConfig) if f.name not in _FAMILY_SECTIONS
)


def _parse_sections(
    doc: Mapping, job: str, job_keys: Sequence[str]
) -> Tuple[Mapping, Prior, Noise, EngineConfig]:
    """The job section, prior, noise and engine."""
    _check_keys(doc, (job,) + _FAMILY_SECTIONS, "<root>")
    sec = _section(doc, job)
    _check_keys(sec, job_keys, job)
    prior = build_prior(_section(doc, "prior"))
    noise = build_noise(_section(doc, "noise"))
    engine = build_engine(_section(doc, "engine", required=False))
    return sec, prior, noise, engine


def _experiment_config(
    path: str, mean_path: Optional[str] = None, **values: Any
) -> ExperimentConfig:
    """``ExperimentConfig(**values)``, refused as a :class:`ConfigError` on
    ``engine`` when the engine cannot represent the prior and noise, on
    ``mean_path`` (default ``path``) when a reward mean range is
    uncertified, and otherwise on ``path``."""
    try:
        return ExperimentConfig(**values)
    except IncompatibleEngine as exc:
        raise ConfigError("engine", str(exc)) from exc
    except MeanOutOfRange as exc:
        raise ConfigError(mean_path or path, str(exc)) from exc
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def build_experiment(
    doc: Mapping, seed: Optional[int] = None, workers: Optional[int] = None
) -> ExperimentConfig:
    """Assemble a full experiment from a parsed config document and the
    ``--seed`` and ``--workers`` flags. The worker count resolves as the
    flag, then ``ELLIPSIM_WORKERS``, then ``experiment.workers``."""
    exp, prior, noise, engine = _parse_sections(doc, "experiment", _EXPERIMENT_KEYS)
    actions = build_actions(_section(doc, "actions"), prior.dim)

    # the episode loop also plays the verifier's adversarial rule, but a
    # regret experiment takes only these two
    policy = _as_str(exp.get("policy", ExperimentConfig.policy), "experiment.policy")
    if policy not in REGRET_POLICIES:
        raise ConfigError("experiment", f"unknown policy {policy!r}")
    master_seed = _seed(exp, "master_seed", "experiment", seed)
    config_workers = _bounded(exp, "workers", "experiment", 1, ExperimentConfig.workers)
    if workers is None:
        workers = env_workers(default=config_workers)
    else:
        at_least(workers, 1, "--workers")

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
        master_seed=master_seed,
        workers=workers,
        policy=policy,
        lam=_as_float(exp.get("lam", ExperimentConfig.lam), "experiment.lam"),
    )


def build_lemma_run(
    doc: Mapping, seed: Optional[int] = None, instances: Optional[int] = None
) -> Tuple[Dict[str, int], int]:
    """``(sizes, seed)`` for the inequality checks: the instance count of
    each check the document names, or ``instances`` (the ``--instances``
    flag) for every check, and the seed. All fields optional."""
    _check_keys(doc, ("lemmas",), "<root>")
    sec = _section(doc, "lemmas", required=False) or {}
    allowed = ("seed",) + tuple(CHECKS)
    _check_keys(sec, allowed, "lemmas")
    sizes = {name: _bounded(sec, name, "lemmas", 1) for name in CHECKS if name in sec}
    seed = _seed(sec, "seed", "lemmas", seed)
    if instances is not None:
        sizes = dict.fromkeys(CHECKS, at_least(instances, 1, "--instances"))
    return sizes, seed


def build_potential_run(doc: Mapping, seed: Optional[int] = None) -> ExperimentConfig:
    """The expected-potential verifier's run, seeded by the ``--seed`` flag
    when given: ``policy`` is the action rule, and the adversarial rule
    plays over the unit sphere."""
    sec, prior, noise, engine = _parse_sections(
        doc, "potential", ("horizon", "replications", "master_seed", "action_rule")
    )
    rule = _as_str(sec.get("action_rule", "adversarial"), "potential.action_rule")
    if rule not in ACTION_RULES:
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
        master_seed=_seed(sec, "master_seed", "potential", seed),
        policy=rule,
    )
    try:
        takes_exact_path(cfg)
    except ValueError as exc:
        raise ConfigError("potential.replications", str(exc)) from exc
    return cfg


# ---------------------------------------------------------------------------
# serialization back to plain dicts
# ---------------------------------------------------------------------------


def _to_dict(table: Mapping[str, type], obj: Any, derived: Sequence[str] = ()) -> Dict:
    """The section :func:`_read` builds ``obj`` from, less ``derived``."""
    out = {"kind": kind for kind, cls in table.items() if type(obj) is cls}
    for f in fields(obj):
        if f.name not in derived:
            value = getattr(obj, f.name)
            # arrays and PsdMatrix as nested lists
            plain = isinstance(value, (int, float, str))
            out[f.name] = value if plain else np.asarray(value).tolist()
    return out


def experiment_to_dict(cfg: ExperimentConfig) -> Dict:
    # workers is an execution detail, not semantics: leaving it out keeps
    # serialized summaries identical across worker counts
    exp = {key: getattr(cfg, key) for key in _EXPERIMENT_KEYS if key != "workers"}
    return {
        "experiment": exp,
        "prior": _to_dict(_PRIORS, cfg.prior),
        "noise": _to_dict(_NOISES, cfg.noise),
        "engine": _to_dict({}, cfg.engine),
        # the generator's dim is the prior's
        "actions": _to_dict(_ACTIONS, cfg.actions, derived=("dim",)),
    }
