"""The scripts under scripts/, run as a user runs them."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_regime_comparison_flips_both_verdicts():
    text = run_script("regime_comparison.py")
    regimes = text.split("--- regime ")[1:]
    assert [r.split(":")[0] for r in regimes] == ["A_gap_test_blind", "B_gap_test_paranoid"]
    verdicts = [re.findall(r"ratio +\S+ -> (PASS|FAIL)", r) for r in regimes]
    assert verdicts == [["PASS", "FAIL"], ["FAIL", "PASS"]]  # [traditional, new]
    for regime in regimes:
        simulated, closed = re.search(r"min fidelity +(\S+) \(closed form (\S+)\)", regime).groups()
        assert simulated == closed


def test_k_sweep_writes_one_row_per_k(tmp_path):
    run_script("k_sweep.py", str(tmp_path))
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0] == "k,traditional_ratio,traditional_pass,new_ratio,new_pass,min_fidelity"
    assert [float(line.split(",")[0]) for line in lines[1:]] == [
        0.25, 0.5, 1.0, 2.0, 5.0, 20.0, 50.0, 200.0
    ]


def test_run_figure1_writes_the_figure_files(tmp_path):
    run_script("run_figure1.py", str(tmp_path))
    headers = {
        "bloch.csv": "tau,evo_x,evo_y,evo_z,adia_x,adia_y,adia_z",
        "P.csv": "tau,P_simulated,P_closed_form",
    }
    for name, header in headers.items():
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == header and len(lines) > 1
    assert (tmp_path / "figure1.svg").read_text().startswith("<svg ")


def test_reference_outputs_writes_every_run(tmp_path):
    out = tmp_path / "reference"
    run_script("reference_outputs.py", str(out), "0")
    pairs = [f"conditions_m3_n{n}.csv" for n in (0, 1, 2, 4, 5, 6, 7)]
    expected = {
        "spin2_resonant-seed0": ["fidelity.csv", "trajectory.csv"],
        "ladder8_dense-seed0": ["fidelity.csv", "trajectory.csv"],
        "generic8_conditions-seed0": [*pairs, "summary.txt"],
        "sweep": ["summary.csv"],
        "figure1": ["P.csv", "bloch.csv", "figure1.svg"],
        "k_sweep": ["summary.csv"],
        "regime_comparison": [],
    }
    written = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
    assert written == sorted(
        f"{run}/{name}" for run, names in expected.items() for name in [*names, "stdout.txt"]
    )
    stdout = (out / "spin2_resonant-seed0" / "stdout.txt").read_text()
    assert stdout.startswith("simulate: wrote OUT/spin2_resonant-seed0/trajectory.csv ")


def test_untested_lines_reports_lines_no_test_ran():
    from qgplab import cli, numerics

    text = run_script("untested_lines.py", "-q", "-p", "no:cacheprovider",
                      str(ROOT / "tests" / "test_numerics.py"))
    reported = {}
    for path, line in re.findall(r"^src/qgplab/(\w+\.py):(\d+): ", text, flags=re.M):
        reported.setdefault(path, set()).add(int(line))

    def lines_of(func):
        source, start = inspect.getsourcelines(func)
        return set(range(start, start + len(source)))

    assert reported["cli.py"] & lines_of(cli.main)
    assert not reported.get("numerics.py", set()) & lines_of(numerics.valid_runs)
    # the non-uniform grid rule of derivative_series and cumulative_integral
    assert not reported.get("numerics.py", set()) & lines_of(numerics._local_polynomial)
