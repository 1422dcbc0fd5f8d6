"""qgplab benchmark: one oracle-checked workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes

Run it from the root of a checkout; the program is imported from the
checkout's ``src/`` and nowhere else.  Set-up (untimed) generates the
workload's INI config and oracle from the seed.  ``setup_s`` is then the
median time to import ``qgplab.cli`` over several fresh processes.  The
workload itself runs in one more fresh process (``worker.py``): a warm-up
pass, then timed passes of the workload's CLI call for S seconds, each
checked against the oracle.  A pass fails on an exception, a nonzero exit
code, a missing output or an oracle error above the workload's target;
``attempted`` and ``failed`` count passes.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from passes with spans around each layer, alternated with untraced
passes so that ``trace.overhead_s`` compares the two.  Human-readable lines
come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import workloads

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {
    "wall_max_s": "s",
    "setup_s": "s",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (``--trace 1``): name -> unit
PER_LAYER = {
    "cli.self_s": "s",
    "cli.parse_s": "s",
    "models.sample_s": "s",
    "models.sample_points": "count",
    "frames.build_frame_s": "s",
    "frames.self_s": "s",
    "frames.assign_s": "s",
    "frames.assign_calls": "count",
    "linalg.eigh_s": "s",
    "linalg.eigh_mats": "count",
    "linalg.expm_s": "s",
    "linalg.expm_mats": "count",
    "numerics.derivative_s": "s",
    "evolve.self_s": "s",
    "evolve.substeps_total": "count",
    "evolve.substeps_per_interval": "count",
    "evolve.refinements": "count",
    "evolve.useful_ratio": "ratio",
    "qgp.qgp_s": "s",
    "conditions.report_s": "s",
    "metrics.fidelity_s": "s",
    "reporting.write_csv_s": "s",
    "reporting.bytes_written": "B",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

#: measuring time per run, as in BENCHMARK.json
RUN_SECONDS = 20.0
#: BLAS and OpenMP threads: at most the cores present, and at most two
THREADS = str(min(2, os.cpu_count() or 1))
#: fresh imports timed for setup_s, after one that fills the bytecode cache
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150
#: accuracy_digits of an output equal to its oracle to the last bit
MAX_DIGITS = 16.0

PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import qgplab.cli; print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*workloads.GENERATORS, "all"],
        help="'all' runs every workload with --trace 0 and then 1",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt", type=int, default=None, metavar="I",
        help="self-test only: add a 1e-6 error to output cell I of the first timed pass",
    )
    return parser.parse_args(argv)


def time_imports(src: Path, env: dict) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(src)], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def digits(err: float) -> float:
    """Correct decimal digits, -log10 of the largest oracle error (0 if none)."""
    if not math.isfinite(err):
        return 0.0
    return min(MAX_DIGITS, -math.log10(err)) if err > 0 else MAX_DIGITS


def summarize(passes: list[dict], trace: bool) -> tuple[dict, list[str]]:
    """Metrics and their human-readable lines from the worker's pass records."""
    timed = [p for p in passes if not p.get("warmup")]
    plain = [p["wall"] for p in timed if not p["traced"]]
    errors = [p["error"] for p in passes if p["error"] is not None]
    lines = [
        f"passes: {len(passes)} attempted (1 warm-up), "
        f"{sum(p['failure'] is not None for p in passes)} failed",
    ]
    lines += [f"  failed: {p['failure']}" for p in passes if p["failure"] is not None]
    max_err = max(errors) if errors else math.inf
    lines.append(f"max_err = {max_err!r} (largest oracle error over all passes)")
    if not trace:
        # The slowest pass, not the median: on a shared host other tenants
        # slow the passes of a run in bursts, and across seeds the slowest
        # pass had the smallest worst-case spread (README, "Noise on a
        # shared host").
        return {"wall_max_s": max(plain), "max_err": max_err}, lines
    layers = [p["layers"] for p in timed if p.get("layers")]
    if not layers:
        raise RuntimeError("no traced pass succeeded")
    # all layers from the one pass of median traced wall, so that the self
    # times still sum to its trace.wall_s
    layers.sort(key=lambda rec: rec["trace.wall_s"])
    metrics = dict(layers[(len(layers) - 1) // 2])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain)
    lines.append(f"per-layer metrics: the median of {len(layers)} traced passes; "
                 f"untraced wall {statistics.median(plain)!r} s, median of {len(plain)} passes")
    return metrics, lines


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int,
                 corrupt: int | None = None) -> dict | None:
    """Run one workload in fresh processes, print its lines, return its report."""
    src = root / "src"
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    work = root / ".perfbench-work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.generate(name, seed)
        (work / "scenario.ini").write_text(workload.config)
        np.savez(work / "oracle.npz", **workload.oracle)
        spec = {
            "root": str(root), "workload": name, "subcommand": workload.subcommand,
            "config": str(work / "scenario.ini"), "oracle": str(work / "oracle.npz"),
            "out": str(work / "out"), "result": str(work / "result.json"),
            "target": workload.target, "seconds": seconds, "trace": bool(trace),
            "corrupt": None if corrupt is None else workload.corruptible[corrupt],
        }
        (work / "spec.json").write_text(json.dumps(spec))
        setup = [] if trace else time_imports(src, env)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(work / "spec.json")],
            env=env, stdout=subprocess.DEVNULL, timeout=WORKER_TIMEOUT_S,
        )
        if done.returncode != 0:
            print(f"run.py: {name}: worker exited with code {done.returncode}", file=sys.stderr)
            return None
        result = json.loads((work / "result.json").read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only if no other run is using it

    passes = result["passes"]
    failed = sum(p["failure"] is not None for p in passes)
    measured, lines = summarize(passes, bool(trace))
    print(f"workload {name}, seed {seed}, {seconds:g} s, trace {trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in result["machine"].items()))
    for line in lines:
        print(line)
    print(f"failed_frac = {failed}/{len(passes)} = {failed / len(passes)!r}")
    if trace:
        table = PER_LAYER
    else:
        table = END_TO_END
        measured["setup_s"] = statistics.median(setup)
        measured["accuracy_digits"] = digits(measured["max_err"])
        measured["peak_rss_mb"] = result["peak_rss_mb"]
        print(f"setup_s: median of {len(setup)} fresh imports {[round(t, 4) for t in setup]}")
        plain = [p["wall"] for p in passes if not p.get("warmup")]
        print(f"wall_max_s: slowest of {len(plain)} timed passes {[round(t, 4) for t in plain]}, "
              f"median {statistics.median(plain)!r} s")
    for metric, unit in table.items():
        print(f"{metric} = {measured[metric]!r} {unit}")
    return {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {metric: {"value": measured[metric], "unit": unit}
                    for metric, unit in table.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "qgplab" / "cli.py").is_file():
        print(f"run.py: no qgplab sources at {root / 'src' / 'qgplab'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        report = run_workload(root, args.workload, args.seed, args.seconds, args.trace,
                              args.corrupt)
        if report is None:
            return 1
        print(json.dumps(report))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.GENERATORS:
        for trace in (0, 1):
            report = run_workload(root, name, args.seed, args.seconds, trace)
            if report is None:
                return 1
            combined["correct"] = combined["correct"] and report["correct"]
            combined["attempted"] += report["attempted"]
            combined["failed"] += report["failed"]
            combined["metrics"].update(
                {f"{name}/{metric}": value for metric, value in report["metrics"].items()}
            )
            print()
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
