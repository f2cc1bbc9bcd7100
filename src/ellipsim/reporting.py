"""Deterministic CSV and JSON emitters.

Floats in CSV files are rendered with 12 significant digits and a fixed
"\\n" line ending; JSON is dumped with sorted keys. Identical inputs
therefore produce byte-identical files on every platform and rerun.
"""
from __future__ import annotations

import json
import os
from typing import Dict, Iterable, List, Sequence

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
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_regret_curve_csv(path: str, summary: RunSummary) -> None:
    """Columns: t, mean_regret, stderr, eq4_bound, remark33_bound.

    The last column is nan when the prior covariance is not dominated by
    the identity, since the capped bound does not apply there.
    """
    lines = ["t,mean_regret,stderr,eq4_bound,remark33_bound"]
    eigs = summary.gamma1_eigs
    for i, t in enumerate(summary.ts):
        cap = (
            regret_bound_identity_cap(t, summary.dim, summary.sigma_factor)
            if summary.gamma1_within_identity
            else float("nan")
        )
        lines.append(
            ",".join(
                [
                    str(t),
                    format_float(summary.mean_regret[i]),
                    format_float(summary.stderr_regret[i]),
                    format_float(
                        regret_bound(t, summary.dim, summary.sigma_factor, eigs)
                    ),
                    format_float(cap),
                ]
            )
        )
    _write_lines(path, lines)


def write_potential_csv(
    path: str,
    ts: Sequence[int],
    mean_gamma_quad: Sequence[float],
    sigma_factor: float,
    gamma1_eigs: Sequence[float],
) -> None:
    """Columns: t, mean_gamma_quad, running_sum, thm23_bound."""
    lines = ["t,mean_gamma_quad,running_sum,thm23_bound"]
    running = 0.0
    for i, t in enumerate(ts):
        running += float(mean_gamma_quad[i])
        lines.append(
            ",".join(
                [
                    str(t),
                    format_float(mean_gamma_quad[i]),
                    format_float(running),
                    format_float(potential_bound(t, sigma_factor, gamma1_eigs)),
                ]
            )
        )
    _write_lines(path, lines)


def write_potential_csv_from_summary(path: str, summary: RunSummary) -> None:
    write_potential_csv(
        path,
        summary.ts,
        summary.mean_gamma_quad,
        summary.sigma_factor,
        summary.gamma1_eigs,
    )


def write_potential_csv_from_report(path: str, report: VerificationReport) -> None:
    write_potential_csv(
        path,
        list(range(1, report.horizon + 1)),
        list(report.per_round_mean),
        report.sigma_factor,
        list(report.gamma1_eigs),
    )


def dump_json(data: Dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def write_summary_json(path: str, summary: RunSummary) -> None:
    _write_lines(path, [dump_json(summary.to_dict()).rstrip("\n")])


def write_verification_json(path: str, report: VerificationReport) -> None:
    _write_lines(path, [dump_json(report.to_dict()).rstrip("\n")])


def lemma_table(reports: List[FuzzReport]) -> str:
    header = (
        f"{'check':<28} {'instances':>8} {'max violation':>14} "
        f"{'tolerance':>10}  result"
    )
    rows = [header, "-" * len(header)]
    rows.extend(report.summary_line() for report in reports)
    return "\n".join(rows)
