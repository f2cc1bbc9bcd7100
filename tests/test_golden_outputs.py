"""CLI outputs stay byte-identical to recorded digests.

Tiny configs in ``tests/data/golden/`` run ``run-bandit`` on one each of
the finite-support, Gaussian conjugate and particle engines, and the
greedy policy over a fixed action menu. Those in
``tests/data/golden_potential/`` run ``potential-trace`` on the exact
outcome lattice, a scalar prior and a d = 2 prior under Bernoulli noise,
and on the Monte Carlo path, a uniform-ball prior under Gaussian noise.
One in ``tests/data/golden_lemmas/`` runs ``verify-lemmas``, whose table
on standard output is its only output. The sha256 of each output file, and
of the printed table, is compared with ``tests/data/golden_digests.json``,
so a speed-up or refactor that moves a single output bit fails here.
Floating-point results can differ across numpy releases and BLAS builds,
so the test skips when the numpy version or the BLAS library's name and
version differ from those the digests were recorded with; the package
computes nothing with scipy, so its version is not part of the key. The
record also holds the ``summary.json`` schema tag, ``RunSummary.FORMAT``,
it was made under.

To record the digests again, at a commit whose outputs are known good:

    PYTHONPATH=src python tests/test_golden_outputs.py

The recorder refuses to replace a ``summary.json`` digest under the same
schema tag, numpy version and BLAS build: a change to the summary's bytes
bumps the tag first.
"""
import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from ellipsim.cli import EXIT_OK, main
from ellipsim.harness import RunSummary

DATA = pathlib.Path(__file__).resolve().parent / "data"
DIGESTS = DATA / "golden_digests.json"
# record key: (subcommand, extra flags, config directory, output files);
# STDOUT names what the command prints, and a command with no output file
# takes no --out
STDOUT = "stdout"
COMMANDS = {
    "digests": (
        "run-bandit",
        ["--workers", "1"],
        DATA / "golden",
        ("summary.json", "regret_curve.csv", "potential.csv"),
    ),
    "potential_trace_digests": (
        "potential-trace",
        [],
        DATA / "golden_potential",
        ("verification.json", "potential.csv"),
    ),
    "lemma_table_digests": ("verify-lemmas", [], DATA / "golden_lemmas", (STDOUT,)),
}


def configs(key):
    return sorted(COMMANDS[key][2].glob("*.yaml"))


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def output_digests(key: str, config: pathlib.Path, out: pathlib.Path):
    command, flags, _, outputs = COMMANDS[key]
    argv = [command, "--config", str(config), *flags]
    if outputs != (STDOUT,):
        argv += ["--out", str(out)]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(argv) == EXIT_OK
    return {
        name: hashlib.sha256(
            printed.getvalue().encode() if name == STDOUT else (out / name).read_bytes()
        ).hexdigest()
        for name in outputs
    }


def recorded():
    return json.loads(DIGESTS.read_text())


def test_every_config_has_recorded_digests():
    record = recorded()
    for key in COMMANDS:
        assert sorted(record[key]) == [c.name for c in configs(key)]


def test_digests_were_recorded_under_the_current_summary_format():
    assert recorded()["summary_format"] == RunSummary.FORMAT


def unbumped_summary_changes(old, new):
    """Configs whose ``summary.json`` digest differs between two records
    made with the same schema tag and library versions."""
    same = ("summary_format", "versions")
    if any(old.get(k) != new[k] for k in same):
        return []
    return sorted(
        name
        for name, files in new["digests"].items()
        if name in old["digests"]
        and old["digests"][name]["summary.json"] != files["summary.json"]
    )


def test_recorder_refuses_a_summary_change_under_the_same_tag():
    old = recorded()
    new = json.loads(json.dumps(old))
    name = sorted(new["digests"])[0]
    new["digests"][name]["summary.json"] = "0" * 64
    assert unbumped_summary_changes(old, new) == [name]
    new["summary_format"] = old["summary_format"] + "-next"
    assert unbumped_summary_changes(old, new) == []
    new = json.loads(json.dumps(old))
    new["versions"] = {**old["versions"], "numpy": "0.0"}
    new["digests"][name]["summary.json"] = "0" * 64
    assert unbumped_summary_changes(old, new) == []


def check_digests(key, config, tmp_path):
    record = recorded()
    if record["versions"] != versions():
        pytest.skip(
            f"digests recorded with {record['versions']}, running {versions()}: "
            "floating-point results may differ across releases"
        )
    assert output_digests(key, config, tmp_path) == record[key][config.name]


@pytest.mark.parametrize("config", configs("digests"), ids=lambda c: c.stem)
def test_run_bandit_outputs_match_recorded_digests(config, tmp_path):
    check_digests("digests", config, tmp_path)


@pytest.mark.parametrize(
    "config", configs("potential_trace_digests"), ids=lambda c: c.stem
)
def test_potential_trace_outputs_match_recorded_digests(config, tmp_path):
    check_digests("potential_trace_digests", config, tmp_path)


@pytest.mark.parametrize("config", configs("lemma_table_digests"), ids=lambda c: c.stem)
def test_verify_lemmas_table_matches_recorded_digest(config, tmp_path):
    check_digests("lemma_table_digests", config, tmp_path)


if __name__ == "__main__":
    record = {"summary_format": RunSummary.FORMAT, "versions": versions()}
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        for key in COMMANDS:
            record[key] = {
                c.name: output_digests(key, c, out / key / c.stem) for c in configs(key)
            }
    changed = unbumped_summary_changes(recorded(), record)
    if changed:
        sys.exit(
            f"summary.json changed under {RunSummary.FORMAT} for {', '.join(changed)}: "
            "bump RunSummary.FORMAT before recording"
        )
    DIGESTS.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    sys.stdout.write(f"wrote {DIGESTS}\n")
