"""The scripts under scripts/, run as a user runs them."""

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
