"""Spans around the public functions of each qgplab layer, recorded from outside.

``install`` replaces a fixed set of module attributes with wrappers that
record a span (name, start, end, parent) per call and restores them on
exit.  Spans stay in memory until the run ends; ``layer_metrics`` turns the
spans of one pass into per-layer self times and counts.  Per-cell helpers
such as ``reporting.format_float`` are deliberately not wrapped: a span per
cell would cost more than the work it measures.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


def _matrices(args, kwargs, result):
    return math.prod(np.shape(args[0])[:-2])


def _points(args, kwargs, result):
    return int(np.size(args[1]))


def _evolution(args, kwargs, result):
    return (result.substeps_per_interval, result.refinements, result.grid.n - 1)


def _written(args, kwargs, result):
    return os.path.getsize(args[0])


def _targets():
    """(owner, attribute, span name, what to record about the call)."""
    from qgplab import cli, evolve, frames, metrics, numerics, qgp, reporting
    from qgplab.models import HamiltonianModel

    return (
        (cli, "main", "cli.main", None),
        (cli, "parse_config", "cli.parse_config", None),
        (cli, "build_frame", "frames.build_frame", None),
        (cli, "evolve_schrodinger", "evolve.evolve_schrodinger", _evolution),
        (cli, "condition_report", "conditions.condition_report", None),
        (HamiltonianModel, "sample", "models.sample", _points),
        (HamiltonianModel, "sample_derivative", "models.sample_derivative", _points),
        (evolve, "expm_unitary_batch", "linalg.expm_unitary_batch", _matrices),
        (frames, "eigh_batch", "linalg.eigh_batch", _matrices),
        (frames, "linear_sum_assignment", "frames.linear_sum_assignment", None),
        (numerics, "derivative_series", "numerics.derivative_series", None),
        (qgp, "qgp", "qgp.qgp", None),
        (metrics, "fidelity", "metrics.fidelity", None),
        (reporting, "write_csv", "reporting.write_csv", _written),
    )


#: span name -> the per-layer metric its self time is added to
SELF_TIME = {
    "cli.main": "cli.self_s",
    "cli.parse_config": "cli.parse_s",
    "frames.build_frame": "frames.self_s",
    "evolve.evolve_schrodinger": "evolve.self_s",
    "conditions.condition_report": "conditions.report_s",
    "models.sample": "models.sample_s",
    "models.sample_derivative": "models.sample_s",
    "linalg.expm_unitary_batch": "linalg.expm_s",
    "linalg.eigh_batch": "linalg.eigh_s",
    "frames.linear_sum_assignment": "frames.assign_s",
    "numerics.derivative_series": "numerics.derivative_s",
    "qgp.qgp": "qgp.qgp_s",
    "metrics.fidelity": "metrics.fidelity_s",
    "reporting.write_csv": "reporting.write_csv_s",
}

COUNTS = (
    "evolve.substeps_total",
    "evolve.substeps_per_interval",
    "evolve.refinements",
    "evolve.useful_ratio",
    "linalg.expm_mats",
    "linalg.eigh_mats",
    "models.sample_points",
    "frames.assign_calls",
    "reporting.bytes_written",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    info: object = None


@dataclass
class Tracer:
    """Spans of one thread, in call order; a parent precedes its children."""

    spans: list = field(default_factory=list)
    _open: list = field(default_factory=list)

    def call(self, name, fn, args, kwargs, record):
        span = Span(name, 0.0, 0.0, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if record is not None:
            span.info = record(args, kwargs, result)
        return result


@contextmanager
def install(tracer: Tracer):
    """Route every call of the wrapped functions through ``tracer`` while active."""
    saved = []
    try:
        for owner, attr, name, record in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))

            def wrapper(*args, _fn=original, _name=name, _record=record, **kwargs):
                return tracer.call(_name, _fn, args, kwargs, _record)

            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(spans: list) -> dict:
    """Per-layer self times (s) and counts of one traced pass.

    The pass must have exactly one root span; the self times then sum to its
    duration, which is reported as ``trace.wall_s``.
    """
    roots = [s for s in spans if s.parent < 0]
    if len(roots) != 1:
        raise ValueError(f"a traced pass needs one root span, got {len(roots)}")
    child = [0.0] * len(spans)
    in_evolve = [False] * len(spans)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
            in_evolve[i] = in_evolve[s.parent]
        in_evolve[i] = in_evolve[i] or s.name == "evolve.evolve_schrodinger"

    out = {name: 0.0 for name in sorted(set(SELF_TIME.values()))}
    out.update({name: 0 for name in COUNTS})
    out["frames.build_frame_s"] = 0.0
    final_substeps = 0
    for i, s in enumerate(spans):
        out[SELF_TIME[s.name]] += (s.end - s.start) - child[i]
        if s.name == "frames.build_frame":
            out["frames.build_frame_s"] += s.end - s.start
        elif s.name == "evolve.evolve_schrodinger":
            substeps, refinements, intervals = s.info
            out["evolve.substeps_per_interval"] = max(out["evolve.substeps_per_interval"], substeps)
            out["evolve.refinements"] += refinements
            final_substeps += substeps * intervals
        elif s.name == "linalg.expm_unitary_batch":
            out["linalg.expm_mats"] += s.info
            if in_evolve[i]:
                out["evolve.substeps_total"] += s.info
        elif s.name == "linalg.eigh_batch":
            out["linalg.eigh_mats"] += s.info
        elif s.name in ("models.sample", "models.sample_derivative"):
            out["models.sample_points"] += s.info
        elif s.name == "frames.linear_sum_assignment":
            out["frames.assign_calls"] += 1
        elif s.name == "reporting.write_csv":
            out["reporting.bytes_written"] += s.info
    total = out["evolve.substeps_total"]
    out["evolve.useful_ratio"] = final_substeps / total if total else 0.0
    wall = roots[0].end - roots[0].start
    self_sum = sum(out[name] for name in set(SELF_TIME.values()))
    if abs(self_sum - wall) > 1e-6 * max(wall, 1.0):
        raise ValueError(f"self times sum to {self_sum!r} s, traced wall is {wall!r} s")
    out["trace.wall_s"] = wall
    return out
