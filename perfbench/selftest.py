"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. The metric names and units that ``run.py`` prints are the ones
   ``BENCHMARK.json`` declares, and so are the workload names.
2. For every workload and every output cell it can corrupt, an error of
   1e-6 injected after the first timed pass trips the oracle check: the run
   reports ``correct`` false and one failed pass of two attempted, which is
   its ``failed_frac``.
3. Seeds 0 and 1 of every workload do the same work: their traced runs fail
   nothing and agree on every work count below.

Each run.py call is one fresh process, as in the benchmark; the whole test
takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent

#: per-layer counts that must not depend on the seed
SAME_WORK = (
    "evolve.substeps_per_interval",
    "evolve.substeps_total",
    "evolve.refinements",
    "models.sample_points",
    "linalg.expm_mats",
    "linalg.eigh_mats",
    "frames.assign_calls",
)


def bench(*args: str) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


def check_declared_metrics() -> None:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        got = {m["name"]: m["unit"] for m in declared[key]}
        assert got == table, f"BENCHMARK.json {key} {got} != run.py {table}"
    names = [w["name"] for w in declared["workloads"]]
    assert names == list(workloads.GENERATORS), names
    print("ok: BENCHMARK.json declares the metrics and workloads run.py reports")


def check_injected_errors() -> None:
    for name in workloads.GENERATORS:
        cells = workloads.generate(name, 0).corruptible
        for i, (path, column) in enumerate(cells):
            report, text = bench("--workload", name, "--seed", "0", "--seconds", "0",
                                 "--trace", "0", "--corrupt", str(i))
            assert not report["correct"], (name, path, column)
            assert (report["attempted"], report["failed"]) == (2, 1), report
            assert "failed_frac = 1/2 = 0.5" in text, text
            print(f"ok: {name}: {workloads.CORRUPTION:g} added to {path}:{column} "
                  "fails the pass (failed_frac 1/2)")


def check_seed_symmetry() -> None:
    for name in workloads.GENERATORS:
        counts = []
        for seed in ("0", "1"):
            report, _ = bench("--workload", name, "--seed", seed, "--seconds", "0", "--trace", "1")
            assert report["correct"] and report["failed"] == 0, (name, seed, report)
            counts.append({key: report["metrics"][key]["value"] for key in SAME_WORK})
        assert counts[0] == counts[1], (name, counts)
        print(f"ok: {name}: seeds 0 and 1 pass every check and do the same work {counts[0]}")


if __name__ == "__main__":
    check_declared_metrics()
    check_injected_errors()
    check_seed_symmetry()
    print("selftest passed")
