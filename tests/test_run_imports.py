"""A run loads only the modules its computation uses.

Each case runs ``ellipsim.cli.main`` in a fresh interpreter and lists what
it left in ``sys.modules``. Finite-support, particle and exact-lattice
runs on one worker need no scipy, since the Student-t constant is
``math.lgamma``, and no process pool, which ``harness`` imports only for
more than one worker. The conjugate engine's solves still load
``scipy.linalg``; that case shows the probe sees a lazy import.
"""
import json
import os
import pathlib
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
GOLDEN = TESTS / "data" / "golden"
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
        ["potential-trace", "--config", TESTS / "data" / "golden_potential" / "square_d2_h8.yaml"],
    ],
    ids=["particle-student-t", "finite-support", "exact-lattice"],
)
def test_a_one_worker_run_imports_no_scipy_and_no_pool(argv, tmp_path):
    assert heavy_modules_after([str(a) for a in argv], tmp_path) == (0, [])


def test_the_conjugate_engine_still_loads_scipy_linalg(tmp_path):
    argv = ["run-bandit", "--config", str(GOLDEN / "conjugate_d5.yaml"), "--workers", "1"]
    code, heavy = heavy_modules_after(argv, tmp_path)
    assert code == 0
    assert "scipy.linalg" in heavy
