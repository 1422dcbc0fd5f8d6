"""Run one workload in this fresh process and write a record of every pass.

    python3 perfbench/worker.py SPEC.json

``run.py`` writes SPEC: the checkout root, the workload, its config and
oracle files, the accuracy target, how long to measure, whether to trace,
and optionally a (file, column) cell to corrupt after the first timed pass
(the self-test's injected error).  One pass is one ``qgplab.cli.main`` call,
the entry point of the ``qgplab`` console script.  The first pass warms the
process up and is not timed.  Every pass is checked against the oracle
outside its timed region, and its outputs are removed before the next one.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import time


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    sys.path.insert(0, src)
    import numpy as np
    import qgplab
    from qgplab import cli

    if not os.path.realpath(qgplab.__file__).startswith(src + os.sep):
        print(f"worker: imported qgplab from {qgplab.__file__}, not {src}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    name, out, target = spec["workload"], spec["out"], spec["target"]
    with np.load(spec["oracle"]) as data:
        oracle = {key: data[key] for key in data.files}
    argv = [spec["subcommand"], "--config", spec["config"], "--out", out]

    def one_pass(traced: bool, corrupt=None) -> dict:
        shutil.rmtree(out, ignore_errors=True)
        tracer = tracing.Tracer()
        failure, err = None, None
        with tracing.install(tracer) if traced else contextlib.nullcontext():
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # an escape is a failed operation
                code, failure = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        if failure is None and code != 0:
            failure = f"exit code {code}"
        if failure is None:
            if corrupt is not None:
                workloads.corrupt(os.path.join(out, corrupt[0]), corrupt[1])
            try:
                err = workloads.check(name, out, oracle)
            except workloads.CheckFailed as exc:
                failure = str(exc)
            else:
                if err > target:
                    failure = f"oracle error {err:.3e} above target {target:g}"
        shutil.rmtree(out, ignore_errors=True)
        return {"wall": wall, "traced": traced, "error": err, "failure": failure,
                "spans": tracer.spans if traced else None}

    passes = [one_pass(False)]
    passes[0]["warmup"] = True
    corrupt = spec.get("corrupt")
    begin = time.perf_counter()
    while True:
        if spec["trace"]:
            passes.append(one_pass(False, corrupt))
            passes.append(one_pass(True))
        else:
            passes.append(one_pass(False, corrupt))
        corrupt = None
        if time.perf_counter() - begin >= spec["seconds"]:
            break

    # spans stayed in memory until here
    for record in passes:
        spans = record.pop("spans")
        if spans is not None and record["failure"] is None:
            record["layers"] = tracing.layer_metrics(spans)
    result = {
        "machine": machine(),
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
