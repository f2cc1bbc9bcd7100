"""CLI outputs stay byte-identical to recorded digests.

Three tiny configs in ``tests/data/golden/`` run ``run-bandit`` on one each
of the finite-support, Gaussian conjugate and particle engines. Two in
``tests/data/golden_potential/`` run ``potential-trace`` on the exact
outcome lattice, a scalar prior and a d = 2 prior under Bernoulli noise.
The sha256 of each output file is compared with
``tests/data/golden_digests.json``, so a speed-up or refactor that moves a
single output bit fails here. Floating-point results can differ across
numpy and scipy releases, so the test skips when either version differs
from the one the digests were recorded with.

To record the digests again, at a commit whose outputs are known good:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""
import hashlib
import json
import pathlib
import sys
import tempfile

import numpy as np
import pytest
import scipy

from ellipsim.cli import EXIT_OK, main

DATA = pathlib.Path(__file__).resolve().parent / "data"
DIGESTS = DATA / "golden_digests.json"
# record key: (subcommand, extra flags, config directory, output files)
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
}


def configs(key):
    return sorted(COMMANDS[key][2].glob("*.yaml"))


def versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def output_digests(key: str, config: pathlib.Path, out: pathlib.Path):
    command, flags, _, outputs = COMMANDS[key]
    argv = [command, "--config", str(config), "--out", str(out), *flags]
    assert main(argv) == EXIT_OK
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in outputs
    }


def recorded():
    return json.loads(DIGESTS.read_text())


def test_every_config_has_recorded_digests():
    record = recorded()
    for key in COMMANDS:
        assert sorted(record[key]) == [c.name for c in configs(key)]


def check_digests(key, config, tmp_path, capsys):
    record = recorded()
    if record["versions"] != versions():
        pytest.skip(
            f"digests recorded with {record['versions']}, running {versions()}: "
            "floating-point results may differ across releases"
        )
    got = output_digests(key, config, tmp_path)
    capsys.readouterr()
    assert got == record[key][config.name]


@pytest.mark.parametrize("config", configs("digests"), ids=lambda c: c.stem)
def test_run_bandit_outputs_match_recorded_digests(config, tmp_path, capsys):
    check_digests("digests", config, tmp_path, capsys)


@pytest.mark.parametrize(
    "config", configs("potential_trace_digests"), ids=lambda c: c.stem
)
def test_potential_trace_outputs_match_recorded_digests(config, tmp_path, capsys):
    check_digests("potential_trace_digests", config, tmp_path, capsys)


if __name__ == "__main__":
    record = {"versions": versions()}
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        for key in COMMANDS:
            record[key] = {
                c.name: output_digests(key, c, out / key / c.stem) for c in configs(key)
            }
    DIGESTS.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    sys.stdout.write(f"wrote {DIGESTS}\n")
