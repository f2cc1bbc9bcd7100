"""Acceptance gate: every numbered criterion runs at its stated tolerance.

Each test prints the criterion's one-line verdict and then asserts it.
No tolerances are loosened here; a criterion that cannot reach its
pinned reference value fails loudly, its message naming the numbers
it found.
"""
import ast
import dataclasses
import inspect
import os
import types

import pytest

import ellipsim.acceptance as acceptance_mod
import ellipsim.verify as verify_mod
from ellipsim.acceptance import CRITERIA, config_gaussian_d5, run_criterion
from ellipsim.config import ConfigError

SUITE_SEED = 0


@pytest.mark.parametrize(
    "number, name",
    [(num, name) for num, name, _ in CRITERIA],
    ids=[f"{num:02d}-{name}" for num, name, _ in CRITERIA],
)
def test_criterion(number, name):
    result = run_criterion(number, seed=SUITE_SEED)
    print(result.summary_line())
    assert result.name == name
    assert result.passed, result.message or f"criterion {number} failed"


def test_registry_is_complete():
    numbers = [num for num, _, _ in CRITERIA]
    assert numbers == list(range(1, 12))


def test_run_criterion_reports_the_registry_number_and_name():
    result = run_criterion(9, seed=SUITE_SEED)
    assert (result.number, result.name) == CRITERIA[8][:2]
    assert result.runtime_seconds >= 0.0


def test_criterion_facts_are_written_once():
    # only run_criterion builds a CriterionResult, so a criterion's number
    # and name come from CRITERIA alone
    tree = ast.parse(inspect.getsource(acceptance_mod))
    builders = [
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "CriterionResult"
    ]
    assert builders == ["run_criterion"]
    # a check's instance count and tolerance live in its verify.CHECKS row:
    # each instance function takes only its generator, no verify function
    # takes a tolerance, and run_check's count defaults to the row's
    for name, (_, instance, _, _) in verify_mod.CHECKS.items():
        assert list(inspect.signature(instance).parameters) == ["rng"], name
    for name, func in inspect.getmembers(verify_mod, inspect.isfunction):
        if func.__module__ == verify_mod.__name__:
            params = inspect.signature(func).parameters
            assert "tol" not in params, name
            if "instances" in params:
                assert params["instances"].default is None, name


@pytest.mark.parametrize("first_call_only", [False, True], ids=["bytes", "missing"])
def test_determinism_compares_every_file_the_writer_writes(monkeypatch, first_call_only):
    # a writer that adds one file, with new bytes on each call or on the
    # first call only, must fail criterion 11 on that file, with no name
    # list kept by the criterion
    tiny = dataclasses.replace(
        acceptance_mod.config_bernoulli_d3(), horizon=5, replications=2
    )
    monkeypatch.setattr(acceptance_mod, "config_bernoulli_d3", lambda seed: tiny)
    calls = []
    write_bandit_outputs = acceptance_mod.write_bandit_outputs

    def writes_one_more(out, summary):
        write_bandit_outputs(out, summary)
        calls.append(out)
        if len(calls) == 1 or not first_call_only:
            with open(os.path.join(out, "stamp.txt"), "w") as fh:
                fh.write(str(len(calls)))

    monkeypatch.setattr(acceptance_mod, "write_bandit_outputs", writes_one_more)
    assert acceptance_mod.determinism_criterion() == (False, "files differ: stamp.txt")
    assert len(calls) == 2


def test_unknown_criterion_number():
    with pytest.raises(ValueError, match="no criterion numbered"):
        run_criterion(99)


def test_workers_env_var_sets_criterion_worker_count(monkeypatch):
    monkeypatch.delenv("ELLIPSIM_WORKERS", raising=False)
    assert config_gaussian_d5().workers == 1
    monkeypatch.setenv("ELLIPSIM_WORKERS", "3")
    assert config_gaussian_d5().workers == 3


def test_monte_carlo_criterion_reads_workers_env_var(monkeypatch):
    # criterion 6 fans out like criteria 8 and 11; its verdict does not
    # depend on the worker count, so only the config is checked
    monkeypatch.setenv("ELLIPSIM_WORKERS", "2")
    seen = []

    def record(cfg):
        seen.append(cfg)
        return types.SimpleNamespace(holds=True)

    monkeypatch.setattr(acceptance_mod, "verify_expected_potential", record)
    assert acceptance_mod.monte_carlo_criterion() == (True, "")
    assert [cfg.workers for cfg in seen] == [2]


@pytest.mark.parametrize("raw", ["many", "0"])
def test_bad_workers_env_var_is_a_config_error(monkeypatch, raw):
    monkeypatch.setenv("ELLIPSIM_WORKERS", raw)
    with pytest.raises(ConfigError, match="ELLIPSIM_WORKERS"):
        config_gaussian_d5()
