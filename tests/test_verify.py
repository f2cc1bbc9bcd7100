"""Randomized inequality checks: reduced-size smoke runs, determinism, and
mutation sensitivity (a broken implementation must be caught, otherwise the
checks prove nothing).
"""
import numpy as np
import pytest

import ellipsim.verify as verify
from ellipsim.distributions import BernoulliMeanNoise
from ellipsim.linalg import PsdMatrix
from ellipsim.reporting import lemma_table
from ellipsim.verify import CHECKS, run_all_checks, run_check

SMALL = 60


@pytest.mark.parametrize(
    "name", list(CHECKS), ids=lambda name: "check_" + name.replace("-", "_")
)
def test_checks_pass_at_reduced_size(name):
    report = run_check(name, seed=3, instances=SMALL)
    assert report.passed, report
    assert report.instances == SMALL


def test_checks_are_seed_deterministic():
    a = run_check("logdet-concavity", 9, 40)
    b = run_check("logdet-concavity", 9, 40)
    c = run_check("logdet-concavity", 10, 40)
    assert a.max_violation == b.max_violation
    assert a.max_violation != c.max_violation


def test_run_all_checks_covers_every_name():
    reports = run_all_checks(sizes={name: 25 for name in CHECKS}, seed=1)
    assert sorted(r.name for r in reports) == sorted(CHECKS)
    assert all(r.passed for r in reports)


def test_run_all_checks_rejects_bad_sizes():
    with pytest.raises(ValueError, match="unknown"):
        run_all_checks(sizes={"no-such-check": 10})
    with pytest.raises(ValueError):
        run_all_checks(sizes={"logdet-shift": 0})


@pytest.mark.parametrize("count", [0, -5])
def test_run_check_refuses_counts_below_one(count):
    # zero instances would report a worst violation of -inf, a pass
    with pytest.raises(ValueError, match="must be >= 1"):
        run_check("logdet-shift", 0, count)


def test_check_ids_are_fixed():
    # a report's generator is seeded from (seed, id), so the ids must not move
    assert [(name, row[0]) for name, row in CHECKS.items()] == [
        ("classical-potential", 1),
        ("logdet-concavity", 2),
        ("logdet-variational", 3),
        ("logdet-shift", 4),
        ("variance-reduction", 5),
        ("trace-cauchy-schwarz", 6),
    ]


def test_summary_line_formats_state():
    report = run_check("trace-cauchy-schwarz", 0, 20)
    line = lemma_table([report]).splitlines()[2]
    assert "trace-cauchy-schwarz" in line
    assert "pass" in line


def test_shift_check_catches_a_missing_shrink(monkeypatch):
    monkeypatch.setattr(verify, "rank_one_shrink", lambda sigma, v: sigma)
    report = run_check("logdet-shift", 0, 100)
    assert not report.passed
    assert report.max_violation > 0.01


def test_a_nan_instance_is_an_infinite_violation(monkeypatch):
    # max(worst, nan) keeps worst, so the driver must count a NaN itself
    monkeypatch.setattr(
        verify,
        "rank_one_shrink",
        lambda sigma, v: PsdMatrix.unchecked(np.full_like(sigma.mat, np.nan)),
    )
    report = run_check("logdet-shift", 0, 50)
    assert report.max_violation == np.inf
    assert not report.passed


def test_variance_reduction_catches_a_corrupted_likelihood(monkeypatch):
    original = BernoulliMeanNoise.likelihood

    def inflated(self, y, mean):
        out = original(self, y, mean)
        if y == 0.0:
            return np.ones_like(out)
        return out

    monkeypatch.setattr(BernoulliMeanNoise, "likelihood", inflated)
    report = run_check("variance-reduction", 0, 100)
    assert not report.passed
    assert report.max_violation > 0.01


def test_variance_reduction_catches_a_negated_likelihood(monkeypatch):
    original = BernoulliMeanNoise.likelihood
    monkeypatch.setattr(
        BernoulliMeanNoise,
        "likelihood",
        lambda self, y, mean: -original(self, y, mean),
    )
    report = run_check("variance-reduction", 0, 50)
    assert not report.passed


def test_logdet_checks_survive_hundredfold_tighter_tolerance():
    # the inequalities are analytic; observed slack is rounding only
    for name in ("logdet-concavity", "logdet-variational", "logdet-shift"):
        report = run_check(name, 2, SMALL)
        assert report.max_violation <= 1e-11, report
