"""Workload inputs, CLI calls and output checks for the ellipsim benchmark.

Every input is a YAML document generated here from a workload seed; the
package only ever sees the written file, through ``ellipsim.cli.main``.
Each workload has three kinds of input:

* a tiny warm-up input with a fixed seed, run once during set-up;
* a reference input with a fixed seed at the timed size, whose verdicts
  and headline numbers were recorded at the seed commit
  (``reference.json``);
* a pool of inputs derived from ``--seed``, which the timed calls cycle
  through.

Pool outputs are checked against invariants, against a band recorded at
the seed commit (regret workloads) or an independent oracle (exact
tree), and against their own earlier digests: a repeated input must give
byte-identical files.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import yaml

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")

POOL_SIZE = 8
# libyaml's emitter when present: the d=100 inputs hold 10^4 floats each,
# and emitting them in pure Python would dominate set-up time
DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
REFERENCE_SEED = 0
# relative tolerance for the reference input, whose numbers are fixed by
# the seed commit; it absorbs last-bit BLAS drift, nothing more
REFERENCE_REL_TOL = 1e-9
# the exact oracle sums the same tree in another order
ORACLE_REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: which CLI command and what size per call.

    A call is one CLI invocation. ``units`` is replications per call for
    the regret workloads and 1 (one tree) for the exact workload;
    ``rounds`` is the horizon T, or H for the tree. The warm-up call is
    always one unit of ``warmup_rounds``.
    """

    name: str
    command: str
    units: int
    rounds: int
    warmup_rounds: int
    trace_calls: int
    particles: int = 0

    @property
    def regret(self) -> bool:
        return self.command == "run-bandit"

    def tiny(self) -> "Workload":
        """A much smaller copy, for the benchmark self-test."""
        return dataclasses.replace(
            self,
            units=1,
            rounds=min(self.rounds, 4 if not self.regret else 12),
            warmup_rounds=min(self.warmup_rounds, 3),
            trace_calls=2,
            particles=min(self.particles, 500),
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("lints_finite_d3", "run-bandit", 2, 500, 20, 12),
        Workload("lints_conjugate_d100", "run-bandit", 1, 600, 30, 8),
        Workload("lints_particle_d3", "run-bandit", 1, 200, 20, 12, particles=20_000),
        Workload("exact_tree_h12", "potential-trace", 1, 12, 6, 6),
    )
}


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------


def regret_doc(wl: Workload, units: int, rounds: int, master_seed: int) -> Dict:
    """YAML document for one run-bandit call of a regret workload."""
    experiment = {
        "horizon": rounds,
        "replications": units,
        "master_seed": master_seed,
        "workers": 1,
    }
    doc = {"experiment": experiment}
    if wl.name == "lints_finite_d3":
        # prior, noise, engine and arms of acceptance.config_bernoulli_d3; the
        # prior is built as acceptance._eight_atom_prior(1, nonnegative=True)
        rng = np.random.default_rng(np.random.SeedSequence([77, 1]))
        atoms = np.abs(rng.standard_normal((8, 3)))
        atoms = atoms / np.linalg.norm(atoms, axis=1, keepdims=True) * rng.uniform(0.3, 1.0, (8, 1))
        doc.update(
            prior={
                "kind": "finite_support",
                "atoms": atoms.tolist(),
                "weights": rng.dirichlet(np.ones(8)).tolist(),
            },
            noise={"kind": "bernoulli_mean"},
            engine={"kind": "finite_support"},
            actions={"kind": "karmed_gaussian", "k": 10, "nonnegative": True},
        )
    elif wl.name == "lints_conjugate_d100":
        dim = 100
        doc.update(
            prior={
                "kind": "gaussian",
                "mean": [0.0] * dim,
                "cov": np.eye(dim).tolist(),
            },
            noise={"kind": "gaussian", "sd": 1.0},
            engine={"kind": "gaussian_conjugate"},
            actions={"kind": "karmed_gaussian", "k": 20},
        )
    elif wl.name == "lints_particle_d3":
        # prior, noise, engine and arms of configs/bandit_student_t_d3.yaml
        doc.update(
            prior={
                "kind": "gaussian",
                "mean": [0.0, 0.0, 0.0],
                "cov": (0.5 * np.eye(3)).tolist(),
            },
            noise={"kind": "student_t", "dof": 4.0, "scale": 0.5},
            engine={"kind": "particle", "particles": wl.particles},
            actions={"kind": "karmed_gaussian", "k": 8},
        )
    else:
        raise ValueError(f"{wl.name} is not a regret workload")
    return doc


def counterexample_atoms(p: float) -> Tuple[List[float], List[float]]:
    return [0.0, 0.25, 0.75], [1.0 - 4.0 * p, 3.0 * p, p]


def scalar_prior(rng: np.random.Generator) -> Tuple[List[float], List[float]]:
    """Criterion-5-style scalar prior: a counterexample prior or 2-4 atoms."""
    if rng.random() < 0.3:
        return counterexample_atoms(float(rng.uniform(0.01, 0.24)))
    n = int(rng.integers(2, 5))
    atoms = np.sort(rng.uniform(0.0, 1.0, size=n))
    return atoms.tolist(), rng.dirichlet(np.ones(n)).tolist()


def tree_doc(atoms: List[float], weights: List[float], horizon: int) -> Dict:
    """YAML document for one potential-trace call on a scalar prior."""
    return {
        "potential": {"horizon": horizon, "action_rule": "adversarial"},
        "prior": {
            "kind": "finite_support",
            "atoms": [[a] for a in atoms],
            "weights": list(weights),
        },
        "noise": {"kind": "bernoulli_mean"},
    }


@dataclass
class Input:
    """One generated input: its YAML document, file and output directory."""

    key: str
    doc: Dict
    argv: List[str]
    out: str
    kind: str  # "warmup", "reference" or "pool"
    digests: Optional[Dict[str, str]] = None


def _pool_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def make_docs(wl: Workload, seed: int) -> List[Tuple[str, str, Dict]]:
    """(key, kind, document) for the warm-up, reference and pool inputs."""
    docs: List[Tuple[str, str, Dict]] = []
    if wl.regret:
        docs.append(
            ("warmup", "warmup", regret_doc(wl, 1, wl.warmup_rounds, REFERENCE_SEED))
        )
        docs.append(("reference", "reference", regret_doc(wl, wl.units, wl.rounds, REFERENCE_SEED)))
        for i in range(POOL_SIZE):
            docs.append(
                (f"pool{i}", "pool", regret_doc(wl, wl.units, wl.rounds, _pool_seed(seed, i)))
            )
        return docs
    atoms, weights = counterexample_atoms(0.05)
    docs.append(("warmup", "warmup", tree_doc(atoms, weights, wl.warmup_rounds)))
    docs.append(("reference", "reference", tree_doc(atoms, weights, wl.rounds)))
    for i in range(POOL_SIZE):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 5, i]))
        atoms, weights = scalar_prior(rng)
        docs.append((f"pool{i}", "pool", tree_doc(atoms, weights, wl.rounds)))
    return docs


def write_inputs(wl: Workload, seed: int, work: str) -> Dict[str, Input]:
    """Generate every input of a workload and write it under ``work``."""
    os.makedirs(work, exist_ok=True)
    inputs: Dict[str, Input] = {}
    # the inputs of a regret workload differ only in their experiment
    # section, so each distinct section is dumped once; the d=100 prior
    # would otherwise make input generation a large share of setup_s
    sections: Dict[str, str] = {}
    for key, kind, doc in make_docs(wl, seed):
        path = os.path.join(work, f"{key}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            for name, section in doc.items():
                text = repr((name, section))
                if text not in sections:
                    sections[text] = yaml.dump(
                        {name: section}, Dumper=DUMPER, default_flow_style=None, sort_keys=False
                    )
                fh.write(sections[text])
        out = os.path.join(work, key)
        argv = [wl.command, "--config", path, "--out", out]
        if wl.regret:
            argv += ["--workers", "1"]
        inputs[key] = Input(key, doc, argv, out, kind)
    return inputs


# ---------------------------------------------------------------------------
# calling the package
# ---------------------------------------------------------------------------


def call_cli(main, argv: List[str]) -> Tuple[Optional[int], str]:
    """Run ``main(argv)`` with its console output captured.

    Returns the exit code and the captured text; an exception escaping
    the CLI is returned as a ``None`` exit code with its description.
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = main(argv)
    except Exception as exc:  # an unhandled error is a failed call, not a crash
        return None, f"{buf.getvalue()}{type(exc).__name__}: {exc}"
    return code, buf.getvalue()


def digests(out: str) -> Dict[str, str]:
    """sha256 of every file a call wrote."""
    result = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            result[name] = hashlib.sha256(fh.read()).hexdigest()
    return result


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def load_reference() -> Dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def exact_scalar_potential(
    atoms: List[float], weights: List[float], horizon: int
) -> Tuple[float, float]:
    """Independent oracle: expected adversarial potential of a scalar prior.

    With one dimension the adversarial action is always 1, so each node of
    the outcome tree contributes its posterior variance, and the posterior
    depends only on the success and failure counts. Summing over counts
    with binomial path multiplicities gives the tree total in O(H^2)
    terms. Returns (expected potential sum, 2 max(1/4, 1) log(1 + H var0)).
    """
    x = np.asarray(atoms, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    total = 0.0
    for t in range(horizon):
        for s in range(t + 1):
            path = w * x**s * (1.0 - x) ** (t - s)
            z = float(path.sum())
            if z <= 0.0:
                continue
            post = path / z
            mean = float(post @ x)
            var = float(post @ (x - mean) ** 2)
            total += math.comb(t, s) * z * var
    mean0 = float(w @ x)
    var0 = float(w @ (x - mean0) ** 2)
    return total, 2.0 * math.log1p(horizon * var0)


def record_entry(main, wl: Workload, inputs: Dict[str, Input]) -> Dict:
    """Reference entry for a workload from its warm-up and reference calls.

    The pool band is left out; ``record_reference.py`` adds it.
    """
    entry: Dict = {}
    for key in ("warmup", "reference"):
        inp = inputs[key]
        code, text = call_cli(main, inp.argv)
        if code != 0:
            raise RuntimeError(f"{wl.name} {key}: exit code {code}: {text}")
        got = headline(inp)
        if wl.regret:
            entry["checks"] = got["checks"]
            entry[key] = {name: got[name] for name in ("final_mean_regret", "potential_sum_mean")}
        else:
            entry["holds"] = got["holds"]
            entry[key] = {"mean_total": got["mean_total"]}
        entry[key]["digests"] = digests(inp.out)
    return entry


def _rel_close(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(abs(ref), 1e-300)


def headline(inp: Input) -> Dict:
    """Verdict flags and headline numbers from a call's outputs."""
    if inp.argv[0] == "run-bandit":
        with open(os.path.join(inp.out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        return {
            "checks": summary["checks"],
            "final_mean_regret": summary["final_mean_regret"],
            "potential_sum_mean": summary["potential_sum_mean"],
            "replications": summary["replications"],
            "completed": summary["completed"],
            "failed": summary["failed"],
            "horizon": summary["horizon"],
            "master_seed": summary["master_seed"],
        }
    with open(os.path.join(inp.out, "verification.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    return {
        "holds": report["holds"],
        "exact": report["exact"],
        "mean_total": report["mean_total"],
        "bound": report["bound"],
        "horizon": report["horizon"],
    }


def check_call(
    wl: Workload, inp: Input, code: Optional[int], text: str, reference: Dict
) -> List[str]:
    """Problems with one call's outputs; an empty list means correct."""
    if code != 0:
        return [f"{inp.key}: exit code {code}: {text.strip()[-300:]}"]
    try:
        got = headline(inp)
    except (OSError, KeyError, ValueError) as exc:
        return [f"{inp.key}: unreadable output: {type(exc).__name__}: {exc}"]
    problems: List[str] = []
    ref = reference[wl.name]
    if wl.regret:
        exp = inp.doc["experiment"]
        if got["checks"] != ref["checks"]:
            problems.append(f"verdicts {got['checks']} != reference {ref['checks']}")
        for field, want in (
            ("replications", exp["replications"]),
            ("completed", exp["replications"]),
            ("failed", 0),
            ("horizon", exp["horizon"]),
            ("master_seed", exp["master_seed"]),
        ):
            if got[field] != want:
                problems.append(f"{field} {got[field]} != {want}")
        numbers = ("final_mean_regret", "potential_sum_mean")
        if inp.kind == "pool":
            for name in numbers:
                lo, hi = ref["pool_range"][name]
                if not lo <= got[name] <= hi:
                    problems.append(f"{name} {got[name]!r} outside [{lo!r}, {hi!r}]")
        else:
            for name in numbers:
                want = ref[inp.kind][name]
                if not _rel_close(got[name], want, REFERENCE_REL_TOL):
                    problems.append(f"{name} {got[name]!r} != reference {want!r}")
    else:
        prior = inp.doc["prior"]
        atoms = [a[0] for a in prior["atoms"]]
        total, bound = exact_scalar_potential(atoms, prior["weights"], got["horizon"])
        if got["holds"] is not ref["holds"] or got["exact"] is not True:
            problems.append(f"holds={got['holds']} exact={got['exact']}")
        if got["horizon"] != inp.doc["potential"]["horizon"]:
            problems.append(f"horizon {got['horizon']}")
        if not _rel_close(got["mean_total"], total, ORACLE_REL_TOL):
            problems.append(f"mean_total {got['mean_total']!r} != oracle {total!r}")
        if not _rel_close(got["bound"], bound, ORACLE_REL_TOL):
            problems.append(f"bound {got['bound']!r} != {bound!r}")
        if inp.kind != "pool":
            want = ref[inp.kind]["mean_total"]
            if not _rel_close(got["mean_total"], want, REFERENCE_REL_TOL):
                problems.append(f"mean_total {got['mean_total']!r} != reference {want!r}")
    found = digests(inp.out)
    if inp.digests is None:
        inp.digests = found
    elif found != inp.digests:
        problems.append("outputs differ from an earlier call on the same input")
    return [f"{inp.key}: {p}" for p in problems]
