"""Command-line driver.

Subcommands: verify-lemmas, counterexample, potential-trace, run-bandit,
acceptance. Exit codes: 0 success, 1 check failure, 2 configuration or
usage error.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from typing import List, Optional

from . import acceptance as acceptance_mod
from . import reporting
from .config import (
    ConfigError,
    at_least,
    build_experiment,
    build_lemma_run,
    build_potential_run,
    load_yaml,
)
from .distributions import MeanOutOfRange
from .harness import ExcessiveFailures, run_experiment, verify_expected_potential
from .posterior import DegenerateWeights, counterexample_report
from .verify import run_all_checks

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def _make_out(path: str) -> None:
    """Create the ``--out`` directory before a run, so that an unusable
    path is refused before any replication runs."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError("--out", f"cannot create output directory: {exc}") from exc


def cmd_verify_lemmas(args: argparse.Namespace) -> int:
    doc = load_yaml(args.config) if args.config else {}
    sizes, seed = build_lemma_run(doc, args.seed, args.instances)
    reports = run_all_checks(sizes=sizes, seed=seed)
    print(reporting.lemma_table(reports))
    return EXIT_OK if all(r.passed for r in reports) else EXIT_CHECK_FAILED


def cmd_counterexample(args: argparse.Namespace) -> int:
    try:
        report = counterexample_report(args.p, outcome=float(args.y1))
    except ValueError as exc:
        raise ConfigError("--p", str(exc))
    f = reporting.format_float
    print(f"p = {f(report.p)}, observed outcome = {f(report.outcome)}")
    print(f"prior variance        : {f(report.prior_variance)}")
    print(
        "posterior weights     : "
        + ", ".join(f(w) for w in report.posterior_weights)
    )
    print(f"posterior ratio       : {f(report.posterior_ratio)}")
    print(f"posterior variance    : {f(report.posterior_variance)}")
    print(f"non-monotone          : {str(report.variance_inflated).lower()}")
    if args.y1 != 1:
        return EXIT_OK
    failures = acceptance_mod.counterexample_reference_problems(report)
    if failures:
        for msg in failures:
            print(f"reference check FAILED: {msg}")
        return EXIT_CHECK_FAILED
    print("reference checks passed")
    return EXIT_OK


def cmd_potential_trace(args: argparse.Namespace) -> int:
    cfg = build_potential_run(load_yaml(args.config), args.seed)
    _make_out(args.out)
    report = verify_expected_potential(cfg)
    reporting.write_trace_outputs(args.out, report)
    mode = "exact" if report.exact else f"{report.replications} replications"
    print(f"expected potential sum ({mode}): {report.mean_total:.6g}")
    print(f"bound 2*max(sigma^2,1)*logdet  : {report.bound:.6g}")
    print(f"holds: {str(report.holds).lower()}")
    return EXIT_OK if report.holds else EXIT_CHECK_FAILED


def cmd_run_bandit(args: argparse.Namespace) -> int:
    cfg = build_experiment(load_yaml(args.config), args.seed, args.workers)
    _make_out(args.out)
    start = time.perf_counter()
    summary = run_experiment(cfg)
    seconds = time.perf_counter() - start
    reporting.write_bandit_outputs(args.out, summary)
    print(
        f"completed {summary.completed}/{summary.replications} replications "
        f"in {seconds:.1f} s ({summary.failed} failed)"
    )
    print(
        f"final mean regret {summary.final_mean_regret:.6g} "
        f"+- {summary.final_stderr_regret:.3g} stderr"
    )
    for name, value in summary.checks.items():
        shown = "not applicable" if value is None else str(value).lower()
        print(f"{name}: {shown}")
    return EXIT_OK if summary.all_checks_pass else EXIT_CHECK_FAILED


def cmd_acceptance(args: argparse.Namespace) -> int:
    seed = at_least(args.seed, 0, "--seed")
    results = [
        acceptance_mod.run_criterion(num, seed) for num, _, _ in acceptance_mod.CRITERIA
    ]
    for result in results:
        print(result.summary_line())
    passed = all(r.passed for r in results)
    print(f"acceptance: {'ALL PASS' if passed else 'FAILURES PRESENT'}")
    return EXIT_OK if passed else EXIT_CHECK_FAILED


# parse_args leaves the parser as it was, so one parser serves every call
@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipsim",
        description=(
            "Bayesian linear bandit simulator: inequality verification, "
            "posterior-potential traces and regret experiments."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify-lemmas", help="run the randomized inequality checks"
    )
    p_verify.add_argument("--config", help="YAML config with a lemmas section")
    p_verify.add_argument("--seed", type=int, help="seed override")
    p_verify.add_argument(
        "--instances", type=int, help="same instance count for every check"
    )
    p_verify.set_defaults(func=cmd_verify_lemmas)

    p_counter = sub.add_parser(
        "counterexample", help="exact one-step variance inflation example"
    )
    p_counter.add_argument("--p", type=float, default=0.05, help="prior weight knob")
    p_counter.add_argument(
        "--y1", type=int, choices=(0, 1), default=1, help="observed first outcome"
    )
    p_counter.set_defaults(func=cmd_counterexample)

    p_pot = sub.add_parser(
        "potential-trace", help="verify the expected potential sum bound"
    )
    p_pot.add_argument("--config", required=True, help="YAML config file")
    p_pot.add_argument("--out", default=".", help="output directory")
    p_pot.add_argument("--seed", type=int, help="seed override")
    p_pot.set_defaults(func=cmd_potential_trace)

    p_run = sub.add_parser("run-bandit", help="run a replicated regret experiment")
    p_run.add_argument("--config", required=True, help="YAML config file")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--seed", type=int, help="master seed override")
    p_run.add_argument("--workers", type=int, help="worker process count")
    p_run.set_defaults(func=cmd_run_bandit)

    p_acc = sub.add_parser("acceptance", help="run the full acceptance suite")
    p_acc.add_argument("--seed", type=int, default=0, help="suite seed")
    p_acc.set_defaults(func=cmd_acceptance)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ExcessiveFailures, DegenerateWeights, MeanOutOfRange) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
