"""Randomized inequality checks: reduced-size smoke runs, determinism, and
mutation sensitivity (a broken implementation must be caught, otherwise the
checks prove nothing).
"""
import numpy as np
import pytest

import ellipsim.verify as verify
from ellipsim.distributions import BernoulliMeanNoise
from ellipsim.linalg import PsdMatrix
from ellipsim.verify import (
    DEFAULT_SIZES,
    check_classical_potential,
    check_logdet_concavity,
    check_logdet_shift,
    check_logdet_variational,
    check_trace_cauchy_schwarz,
    check_variance_reduction,
    run_all_checks,
)

SMALL = 60


@pytest.mark.parametrize(
    "check",
    [
        check_classical_potential,
        check_logdet_concavity,
        check_logdet_variational,
        check_logdet_shift,
        check_variance_reduction,
        check_trace_cauchy_schwarz,
    ],
)
def test_checks_pass_at_reduced_size(check):
    report = check(instances=SMALL, seed=3)
    assert report.passed, report.summary_line()
    assert report.instances == SMALL


def test_checks_are_seed_deterministic():
    a = check_logdet_concavity(instances=40, seed=9)
    b = check_logdet_concavity(instances=40, seed=9)
    c = check_logdet_concavity(instances=40, seed=10)
    assert a.max_violation == b.max_violation
    assert a.max_violation != c.max_violation


def test_run_all_checks_covers_every_name():
    reports = run_all_checks(sizes={name: 25 for name in DEFAULT_SIZES}, seed=1)
    assert sorted(r.name for r in reports) == sorted(DEFAULT_SIZES)
    assert all(r.passed for r in reports)


def test_run_all_checks_rejects_bad_sizes():
    with pytest.raises(ValueError, match="unknown"):
        run_all_checks(sizes={"no-such-check": 10})
    with pytest.raises(ValueError):
        run_all_checks(sizes={"logdet-shift": 0})


def test_summary_line_formats_state():
    report = check_trace_cauchy_schwarz(instances=20, seed=0)
    line = report.summary_line()
    assert "trace-cauchy-schwarz" in line
    assert "pass" in line


def test_shift_check_catches_a_missing_shrink(monkeypatch):
    monkeypatch.setattr(verify, "rank_one_shrink", lambda sigma, v: sigma)
    report = check_logdet_shift(instances=100, seed=0)
    assert not report.passed
    assert report.max_violation > 0.01


def test_a_nan_instance_is_an_infinite_violation(monkeypatch):
    # max(worst, nan) keeps worst, so the driver must count a NaN itself
    monkeypatch.setattr(
        verify,
        "rank_one_shrink",
        lambda sigma, v: PsdMatrix.unchecked(np.full_like(sigma.mat, np.nan)),
    )
    report = check_logdet_shift(instances=50, seed=0)
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
    report = check_variance_reduction(instances=100, seed=0)
    assert not report.passed
    assert report.max_violation > 0.01


def test_variance_reduction_catches_a_negated_likelihood(monkeypatch):
    original = BernoulliMeanNoise.likelihood
    monkeypatch.setattr(
        BernoulliMeanNoise,
        "likelihood",
        lambda self, y, mean: -original(self, y, mean),
    )
    report = check_variance_reduction(instances=50, seed=0)
    assert not report.passed


def test_logdet_checks_survive_hundredfold_tighter_tolerance():
    # the inequalities are analytic; observed slack is rounding only
    for check in (check_logdet_concavity, check_logdet_variational, check_logdet_shift):
        report = check(instances=SMALL, seed=2, tol=1e-11)
        assert report.passed, report.summary_line()
