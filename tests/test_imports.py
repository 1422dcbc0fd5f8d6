"""The CLI's import footprint: scipy.optimize loads only when tracking needs it,
the CSV kernel only when a CSV is written, concurrent.futures only when a
batched kernel first splits its blocks across threads, and ``qgplab.qgp``
only when it is imported by name.

A fresh interpreter records whether ``scipy.optimize`` is in ``sys.modules``
after importing the CLI, after a ``conditions`` run that keeps the eigh
ordering, and around a ``build_frame`` whose levels cross.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

WELL_SEPARATED = """
[model]
name = fourier
dim = 3
term1 = {{"matrix": [[0,0,0],[0,2,0],[0,0,5]], "omega": 0.0, "amplitude": 1.0}}
term2 = {{"matrix": [[0,0.3,0.1],[0.3,0,0.2],[0.1,0.2,0]], "omega": 1.7, "amplitude": 1.0}}
term3 = {{"matrix": [[0,[0,-0.3],[0,-0.1]],[[0,0.3],0,[0,-0.2]],[[0,0.1],[0,0.2],0]], "omega": 1.7, "amplitude": 1.0, "phase": -1.5707963267948966}}

[run]
tau_end = 4.0
samples = 1024
level = 1

[output]
dir = {out}
outputs = conditions
"""

PROBE = """
import json, sys
config, out, tests = sys.argv[1:]
loaded = lambda: "scipy.optimize" in sys.modules
state = {}
from qgplab import cli
state["after_import"] = loaded()
state["kernel_after_import"] = "qgplab._g17" in sys.modules
state["futures_after_import"] = "concurrent.futures" in sys.modules
state["qgp_after_import"] = "qgplab.qgp" in sys.modules
state["conditions_exit"] = cli.main(["conditions", "--config", config, "--out", out])
state["after_conditions"] = loaded()
state["kernel_after_conditions"] = "qgplab._g17" in sys.modules
state["qgp_after_conditions"] = "qgplab.qgp" in sys.modules
from qgplab import qgp
state["qgp_imported"] = callable(qgp.qgp)
import numpy as np
from qgplab.frames import TimeGrid, build_frame
sys.path.insert(0, tests)
from conftest import uncoupled_crossings
model, lines = uncoupled_crossings()
grid = TimeGrid.uniform(-1.0, 1.0, 800)
state["before_tracking"] = loaded()
frame = build_frame(model, grid, gamma_mode="analytic_derivative")
state["after_tracking"] = loaded()
expected = lines(grid.samples)
expected = expected[:, np.argsort(expected[0])]
state["energy_error"] = float(np.max(np.abs(frame.energies - expected)))
print(json.dumps(state))
"""


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("imports")
    config = tmp / "separated.ini"
    config.write_text(WELL_SEPARATED.format(out=tmp / "out"))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(config), str(tmp / "out"), str(TESTS)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_leaves_scipy_optimize_unloaded(probe):
    assert probe["after_import"] is False


def test_conditions_run_without_assignments_leaves_it_unloaded(probe):
    assert probe["conditions_exit"] == 0
    assert probe["after_conditions"] is False


def test_level_crossings_load_the_real_solver_and_track(probe):
    assert probe["before_tracking"] is False
    assert probe["after_tracking"] is True
    assert probe["energy_error"] < 1e-12


def test_csv_kernel_loads_on_the_first_write(probe):
    assert probe["kernel_after_import"] is False
    assert probe["kernel_after_conditions"] is True


def test_cli_import_leaves_the_thread_pool_unloaded(probe):
    assert probe["futures_after_import"] is False


def test_cli_leaves_qgp_unloaded_until_it_is_imported(probe):
    assert probe["qgp_after_import"] is False
    assert probe["qgp_after_conditions"] is False
    assert probe["qgp_imported"] is True
