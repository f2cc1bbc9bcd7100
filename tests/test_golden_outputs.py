"""`run-bandit` outputs stay byte-identical to recorded digests.

Three tiny configs in ``tests/data/golden/`` run one each of the
finite-support, Gaussian conjugate and particle engines. The sha256 of
each output file is compared with ``tests/data/golden_digests.json``, so a
speed-up that moves a single output bit fails here. Floating-point
results can differ across numpy and scipy releases, so the test skips
when either version differs from the one the digests were recorded with.

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
CONFIGS = sorted((DATA / "golden").glob("*.yaml"))
DIGESTS = DATA / "golden_digests.json"
OUTPUTS = ("summary.json", "regret_curve.csv", "potential.csv")


def versions():
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def output_digests(config: pathlib.Path, out: pathlib.Path):
    argv = ["run-bandit", "--config", str(config), "--out", str(out)]
    assert main([*argv, "--workers", "1"]) == EXIT_OK
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS
    }


def recorded():
    return json.loads(DIGESTS.read_text())


def test_every_config_has_recorded_digests():
    assert sorted(recorded()["digests"]) == [c.name for c in CONFIGS]


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_run_bandit_outputs_match_recorded_digests(config, tmp_path, capsys):
    record = recorded()
    if record["versions"] != versions():
        pytest.skip(
            f"digests recorded with {record['versions']}, running {versions()}: "
            "floating-point results may differ across releases"
        )
    got = output_digests(config, tmp_path)
    capsys.readouterr()
    assert got == record["digests"][config.name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {
            config.name: output_digests(config, pathlib.Path(tmp) / config.stem)
            for config in CONFIGS
        }
    record = {"versions": versions(), "digests": digests}
    DIGESTS.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n")
    sys.stdout.write(f"wrote {DIGESTS}\n")
