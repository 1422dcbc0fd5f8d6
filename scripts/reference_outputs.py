#!/usr/bin/env python3
"""Write the outputs that a behaviour-preserving change must leave byte-identical.

For each seed (default 0 1 5) the three configs of perfbench/workloads.py run
through the qgplab CLI.  Then, once: figure1 on a 512-sample grid, a
rotating-spin sweep over k x xi (3 x 2 points), scripts/k_sweep.py and
scripts/regime_comparison.py.  Each run gets its own directory under OUT
holding every file it wrote and its stdout (stdout.txt), with OUT written as
"OUT".  Compare the trees of two checkouts with ``diff -r``.

The program runs from the src/ next to this script.

Usage: python3 scripts/reference_outputs.py OUT [SEED ...]
"""
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.dont_write_bytecode = True  # leave perfbench/ as checked out
import workloads  # noqa: E402  (numpy only; it never imports qgplab)

SWEEP_CONFIG = """
[model]
name = rotating_spin
eta = 1.0
xi = 0.5
k = 1.0

[run]
tau_end = 1.0
samples = 256
level = upper

[sweep]
k = 0.5,1.0,2.0
xi = 0.05,0.5
"""


def run(out: Path, name: str, *argv: str) -> None:
    """Run ``python argv`` on this checkout's src/; its stdout goes to out/name."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{name}: exit code {done.returncode}\n{done.stderr}")
    (out / name).mkdir(exist_ok=True)
    (out / name / "stdout.txt").write_text(done.stdout.replace(str(out), "OUT"))


def cli(out: Path, name: str, *args: str) -> None:
    run(out, name, "-m", "qgplab.cli", *args, "--out", str(out / name))


def main(out: Path, seeds: list[int]) -> None:
    out.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as configs:
        for seed in seeds:
            for name in workloads.GENERATORS:
                workload = workloads.generate(name, seed)
                config = Path(configs, f"{name}-{seed}.ini")
                config.write_text(workload.config)
                cli(out, f"{name}-seed{seed}", workload.subcommand, "--config", str(config))
        config = Path(configs, "sweep.ini")
        config.write_text(SWEEP_CONFIG)
        cli(out, "sweep", "sweep", "--config", str(config))
    cli(out, "figure1", "figure1", "--grid", "512")
    run(out, "k_sweep", str(ROOT / "scripts" / "k_sweep.py"), str(out / "k_sweep"))
    run(out, "regime_comparison", str(ROOT / "scripts" / "regime_comparison.py"))


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__.rsplit("\n\n", 1)[-1].strip())
    main(Path(sys.argv[1]).resolve(), [int(s) for s in sys.argv[2:]] or [0, 1, 5])
