"""A run loads only the modules its computation uses.

Each case runs ``ellipsim.cli.main`` in a fresh interpreter and lists what
it left in ``sys.modules``. No run needs scipy: the Student-t constant is
``math.lgamma`` and the conjugate engine is plain numpy. A run on one
worker needs no process pool either, which ``harness`` imports only for
a pool of more than one process; a one-replication run has none at any
worker count. A run that does start a pool loads ``concurrent.futures``;
that case shows the probe sees a lazy import.
"""
import json
import os
import pathlib
import subprocess
import sys

import pytest
import yaml

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
GOLDEN = TESTS / "data" / "golden"
GOLDEN_POTENTIAL = TESTS / "data" / "golden_potential"
HEAVY = ("scipy", "multiprocessing", "concurrent")

PROBE = """
import contextlib, io, json, sys
from ellipsim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def heavy_modules_after(argv, out):
    """Exit code of ``main(argv)`` in a fresh interpreter, and the modules
    under a ``HEAVY`` root it loaded."""
    env = dict(os.environ)
    env.pop("ELLIPSIM_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", PROBE, *argv, "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    code, modules = json.loads(run.stdout)
    return code, [m for m in modules if m.split(".")[0] in HEAVY]


@pytest.mark.parametrize(
    "argv",
    [
        ["run-bandit", "--config", GOLDEN / "particle_student_t_d3.yaml", "--workers", "1"],
        ["run-bandit", "--config", GOLDEN / "finite_bernoulli_d3.yaml", "--workers", "1"],
        ["run-bandit", "--config", GOLDEN / "conjugate_d5.yaml", "--workers", "1"],
        ["potential-trace", "--config", GOLDEN_POTENTIAL / "square_d2_h8.yaml"],
    ],
    ids=["particle-student-t", "finite-support", "conjugate", "exact-lattice"],
)
def test_a_one_worker_run_imports_no_scipy_and_no_pool(argv, tmp_path):
    assert heavy_modules_after([str(a) for a in argv], tmp_path) == (0, [])


def test_a_conjugate_monte_carlo_trace_imports_no_scipy_and_no_pool(tmp_path):
    doc = yaml.safe_load((GOLDEN_POTENTIAL / "mc_uniform_ball_d2_h10.yaml").read_text())
    doc["prior"] = {"kind": "gaussian", "mean": [0.1, -0.2], "cov": [[1.0, 0.3], [0.3, 0.5]]}
    doc["engine"] = {"kind": "gaussian_conjugate"}
    config = tmp_path / "conjugate_trace.yaml"
    config.write_text(yaml.safe_dump(doc))
    argv = ["potential-trace", "--config", str(config)]
    assert heavy_modules_after(argv, tmp_path) == (0, [])


def test_a_one_replication_run_starts_no_pool_at_any_worker_count(tmp_path):
    # the pool is sized by the run: one replication needs no pool at all
    doc = yaml.safe_load((GOLDEN / "finite_bernoulli_d3.yaml").read_text())
    doc["experiment"]["replications"] = 1
    config = tmp_path / "one_replication.yaml"
    config.write_text(yaml.safe_dump(doc))
    argv = ["run-bandit", "--config", str(config), "--workers", "4"]
    assert heavy_modules_after(argv, tmp_path) == (0, [])


def test_a_pooled_run_loads_the_process_pool(tmp_path):
    # the probe's positive control: two workers on three replications
    argv = ["run-bandit", "--config", str(GOLDEN / "finite_bernoulli_d3.yaml"), "--workers", "2"]
    code, heavy = heavy_modules_after(argv, tmp_path)
    assert code == 0
    assert "concurrent.futures" in heavy
