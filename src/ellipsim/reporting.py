"""Deterministic CSV and JSON emitters.

Floats in CSV files are rendered with 12 significant digits and a fixed
"\\n" line ending; JSON is dumped with sorted keys. Identical inputs
therefore produce byte-identical files on every platform and rerun.
"""
from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Sequence

import numpy as np

from .harness import RunSummary, VerificationReport
from .potential import (
    potential_bound,
    regret_bound,
    regret_bound_identity_cap,
)
from .verify import FuzzReport


def format_float(x: float) -> str:
    """12-significant-digit rendering; nan spelled out for missing values."""
    if x != x:
        return "nan"
    return f"{x:.12g}"


def _write_lines(path: str, lines: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


def _csv_row(t: int, *values: float) -> str:
    return ",".join([str(t)] + [format_float(v) for v in values])


def write_regret_curve_csv(path: str, summary: RunSummary) -> None:
    """Columns: t, mean_regret, stderr, eq4_bound, remark33_bound.

    The last column is nan when the prior covariance is not dominated by
    the identity, since the capped bound does not apply there.
    """
    lines = ["t,mean_regret,stderr,eq4_bound,remark33_bound"]
    dim, factor, ts = summary.dim, summary.sigma_factor, np.asarray(summary.ts)
    eq4 = regret_bound(ts, dim, factor, summary.gamma1_eigs)
    if summary.gamma1_within_identity:
        cap = regret_bound_identity_cap(ts, dim, factor)
    else:
        cap = np.full(len(ts), float("nan"))
    for row in zip(summary.ts, summary.mean_regret, summary.stderr_regret, eq4, cap):
        lines.append(_csv_row(*row))
    _write_lines(path, lines)


def write_potential_csv(
    path: str,
    ts: Sequence[int],
    mean_gamma_quad: Sequence[float],
    running_sum: Sequence[float],
    sigma_factor: float,
    gamma1_eigs: Sequence[float],
) -> None:
    """Columns: t, mean_gamma_quad, running_sum (over all rounds to t), thm23_bound."""
    lines = ["t,mean_gamma_quad,running_sum,thm23_bound"]
    bounds = potential_bound(np.asarray(ts), sigma_factor, gamma1_eigs)
    for row in zip(ts, mean_gamma_quad, running_sum, bounds):
        lines.append(_csv_row(*row))
    _write_lines(path, lines)


def write_potential_csv_from_summary(path: str, summary: RunSummary) -> None:
    write_potential_csv(
        path,
        summary.ts,
        summary.mean_gamma_quad,
        summary.running_gamma_sum,
        summary.sigma_factor,
        summary.gamma1_eigs,
    )


def write_potential_csv_from_report(path: str, report: VerificationReport) -> None:
    write_potential_csv(
        path,
        list(range(1, report.horizon + 1)),
        report.per_round_mean,
        np.cumsum(report.per_round_mean),
        report.sigma_factor,
        report.gamma1_eigs,
    )


def dump_json(data: Dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def write_summary_json(path: str, summary: RunSummary) -> None:
    _write_lines(path, [dump_json(summary.to_dict()).rstrip("\n")])


def write_verification_json(path: str, report: VerificationReport) -> None:
    _write_lines(path, [dump_json(report.to_dict()).rstrip("\n")])


def write_bandit_outputs(out: str, summary: RunSummary) -> None:
    """``run-bandit``'s files in directory ``out``, created if missing:
    summary.json, regret_curve.csv and potential.csv."""
    os.makedirs(out, exist_ok=True)
    write_summary_json(os.path.join(out, "summary.json"), summary)
    write_regret_curve_csv(os.path.join(out, "regret_curve.csv"), summary)
    write_potential_csv_from_summary(os.path.join(out, "potential.csv"), summary)


def write_trace_outputs(out: str, report: VerificationReport) -> None:
    """``potential-trace``'s files in directory ``out``, created if
    missing: potential.csv and verification.json."""
    os.makedirs(out, exist_ok=True)
    write_potential_csv_from_report(os.path.join(out, "potential.csv"), report)
    write_verification_json(os.path.join(out, "verification.json"), report)


def lemma_table(reports: List[FuzzReport]) -> str:
    header = (
        f"{'check':<28} {'instances':>8} {'max violation':>14} "
        f"{'tolerance':>10}  result"
    )
    rows = [header, "-" * len(header)]
    for r in reports:
        rows.append(
            f"{r.name:<28} {r.instances:>8} {r.max_violation:>14.3e} "
            f"{r.tolerance:>10.1e}  {'pass' if r.passed else 'FAIL'}"
        )
    return "\n".join(rows)
