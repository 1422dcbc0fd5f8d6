"""Command-line front end: scenario configs, condition reports, sweeps.

Subcommands
-----------
simulate    integrate the configured model and emit trajectory/fidelity CSVs
conditions  evaluate the adiabaticity criteria and emit a CSV + summary
figure1     reproduce the robust-model reference figure (Bloch curves, P)
sweep       grid-sweep up to three model parameters and tabulate verdicts

Configs are INI-style key = value sections ([model], [run], [conditions],
[output]).  Exit codes: 0 success, 2 config/usage error or unusable output
path, 3 numerical error.

Every subcommand, and each point of ``sweep``, is a projection of one
``ScenarioRun``, which computes each stage of the chain at most once;
``figure1`` runs the fixed ``FIGURE1`` scenario.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import sys
from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from functools import cached_property

import numpy as np

from . import metrics, reporting
from .conditions import PAIRINGS, condition_report
from .errors import ConfigError, NumericalError, QgplabError
from .evolve import evolve_schrodinger
from .frames import TimeGrid, adiabatic_trajectory, build_frame
from .linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, default_hermiticity_tol, hermiticity_defect
from .models import (
    BlochCurveModel,
    FourierTerm,
    HamiltonianModel,
    RobustModelParams,
    RotatingSpinParams,
    SmoothScalar,
    bloch_curve,
    fourier_nlevel,
    robust_model,
    rotating_spin,
)

MIN_GRID = 64

_PAULI = {"sigma_x": SIGMA_X, "sigma_y": SIGMA_Y, "sigma_z": SIGMA_Z}

#: the names [output] outputs accepts
OUTPUTS = ("trajectory", "fidelity", "conditions")


@dataclass
class ScenarioConfig:
    model_name: str
    model_params: dict
    tau_start: float = 0.0
    tau_end: float = 2.0 * np.pi
    samples: int = 4096
    level: int = 1
    tol: float = 1e-9
    delta: float = 0.1
    traditional_threshold: float = 0.1
    pairing: str = "conservative"
    out_dir: str = "out"
    outputs: tuple = OUTPUTS
    sweep: dict = field(default_factory=dict)


def _get(section, key, cast, where):
    if key not in section:
        raise ConfigError(f"missing field '{key}' in section [{where}]")
    raw = section[key]
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"field '{key}' in [{where}]: cannot parse {raw!r}") from exc


def _finite(value, where: str):
    """``value``, a number or an array; ConfigError naming ``where`` unless
    every entry is finite."""
    if not np.isfinite(value).all():
        raise ConfigError(f"{where}: must be finite, got {np.asarray(value).tolist()!r}")
    return value


def _parse_level(raw: str) -> int:
    aliases = {"upper": 1, "plus": 1, "+": 1, "lower": 0, "minus": 0, "-": 0}
    key = raw.strip().lower()
    if key in aliases:
        return aliases[key]
    return int(raw)


def _parse_outputs(raw: str) -> tuple:
    outputs = tuple(p.strip() for p in raw.split(",") if p.strip())
    unknown = ", ".join(repr(p) for p in outputs if p not in OUTPUTS)
    if unknown:
        choices = ", ".join(OUTPUTS)
        raise ConfigError(f"field 'outputs' in [output]: unknown {unknown} (choose from {choices})")
    return outputs


#: ScenarioConfig field -> (section, key, cast, the option that overrides it);
#: the sections besides [model] and [sweep] take exactly these keys
_FIELDS = {
    "tau_start": ("run", "tau_start", float, None),
    "tau_end": ("run", "tau_end", float, None),
    "samples": ("run", "samples", int, "grid"),
    "level": ("run", "level", _parse_level, None),
    "tol": ("run", "tol", float, "tol"),
    "delta": ("conditions", "delta", float, "delta"),
    "traditional_threshold": ("conditions", "traditional_threshold", float, None),
    "pairing": ("conditions", "pairing", str, None),
    "out_dir": ("output", "dir", str, "out"),
    "outputs": ("output", "outputs", _parse_outputs, None),
}


def _need(params: dict, key: str, cast=float):
    return _finite(_get(params, key, cast, "model"), f"field '{key}' in [model]")


def _parse_scalar_descriptor(params: dict, prefix: str) -> SmoothScalar:
    kind = params.get(f"{prefix}_type", "const").strip().lower()
    key = f"{prefix}_coeffs"
    coeffs = _get(params, key, lambda raw: [float(v) for v in raw.split(",")], "model")
    _finite(coeffs, f"field '{key}' in [model]")
    if kind in ("const", "constant"):
        if len(coeffs) != 1:
            raise ConfigError(f"'{prefix}_coeffs' in [model]: constant wants one value")
        return SmoothScalar.constant(coeffs[0])
    if kind in ("poly", "polynomial"):
        return SmoothScalar.poly(coeffs)
    if kind in ("sin", "sinusoid"):
        if len(coeffs) not in (3, 4):
            raise ConfigError(
                f"'{prefix}_coeffs' in [model]: sinusoid wants offset,amplitude,omega[,phase]"
            )
        return SmoothScalar.sinusoid(*coeffs)
    raise ConfigError(f"'{prefix}_type' in [model]: unknown kind {kind!r}")


def _rotating_spin(params: dict):
    rot = RotatingSpinParams(eta=_need(params, "eta"), xi=_need(params, "xi"), K=_need(params, "k"))
    return rotating_spin(rot), rot


def _robust(params: dict):
    robust = RobustModelParams(*(_need(params, key) for key in ("eta", "eta0", "eta1", "eta2")))
    return robust_model(robust), robust


def _bloch_curve(params: dict):
    theta = _parse_scalar_descriptor(params, "theta")
    phi = _parse_scalar_descriptor(params, "phi")
    a = _need(params, "a") if "a" in params else 0.0
    b = _need(params, "b") if "b" in params else 1.0
    if not b > 0:
        raise ConfigError(f"field 'b' in [model]: must be positive, got {b!r}")
    curve = BlochCurveModel(theta=theta, phi=phi, A=SmoothScalar.constant(a), B=SmoothScalar.constant(b))
    return bloch_curve(curve), None


def _fourier(params: dict):
    dim = _need(params, "dim", int)
    if dim < 2:
        raise ConfigError(f"field 'dim' in [model]: must be an integer >= 2, got {dim}")
    terms = [_parse_term(key, params[key], dim) for key in sorted(params) if key.startswith("term")]
    try:
        return fourier_nlevel(dim, terms), None
    except ValueError as exc:  # numpy cannot shape a dim x dim stack
        raise ConfigError(f"field 'dim' in [model]: {exc}") from exc


#: model name -> (float-valued keys, which [sweep] takes; its other keys;
#: the builder of the model and of the record its closed forms take)
_MODELS = {
    "rotating_spin": (("eta", "xi", "k"), (), _rotating_spin),
    "robust": (("eta", "eta0", "eta1", "eta2"), (), _robust),
    "bloch_curve": (("a", "b"), ("theta_type", "theta_coeffs", "phi_type", "phi_coeffs"), _bloch_curve),
    "fourier": ((), ("dim", "term*"), _fourier),
}


def parse_config(path: str) -> ScenarioConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        read = parser.read(path)
        # values are interpolated on access, so read them all here
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if parser.defaults():
        raise ConfigError("unknown section [DEFAULT] (its keys would enter every section)")
    if "model" not in sections:
        raise ConfigError("missing section [model]")
    model_section = sections["model"]
    name = _get(model_section, "name", str, "model").strip().lower()
    params = {k: v for k, v in model_section.items() if k != "name"}
    _check_keys(sections, name)

    cfg = ScenarioConfig(model_name=name, model_params=params)
    for attr, (section, key, cast, _) in _FIELDS.items():
        if key in sections.get(section, {}):
            setattr(cfg, attr, _get(sections[section], key, cast, section))
    sweep = sections.get("sweep", {})
    cfg.sweep = {key: _get(sweep, key, _float_list, "sweep") for key in sweep}
    return cfg


def _check_keys(sections: dict[str, dict], model_name: str) -> None:
    """Reject an unknown model, section or key, naming the first one."""
    if model_name not in _MODELS:
        raise ConfigError(f"field 'name' in [model]: unknown model {model_name!r}")
    floats, others, _ = _MODELS[model_name]
    model_keys = others + floats
    allowed = {}
    for section, key, *_ in _FIELDS.values():
        allowed.setdefault(section, []).append(key)
    allowed.update(model=("name", *model_keys), sweep=floats)
    for section, values in sections.items():
        if section not in allowed:
            raise ConfigError(f"unknown section [{section}] (choose from {', '.join(allowed)})")
        for key in values:
            if any(fnmatchcase(key, pattern) for pattern in allowed[section]):
                continue
            if section == "sweep" and any(fnmatchcase(key, p) for p in model_keys):
                raise ConfigError(
                    f"field '{key}' in [sweep]: not a float-valued key of {model_name}"
                    f" (sweepable: {', '.join(floats) or 'none'})"
                )
            raise ConfigError(
                f"field '{key}' in [{section}]: unknown key"
                f" (choose from {', '.join(allowed[section])})"
            )


def _float_list(raw: str) -> list[float]:
    return [float(v) for v in raw.split(",") if v.strip() != ""]


def _validate(cfg: ScenarioConfig, sources: dict[str, str]) -> None:
    """Check the scalar fields; ``sources`` names the option that set a field.

    Model parameters and ``level`` are checked when ``ScenarioRun`` builds
    the model.
    """

    def where(attr: str) -> str:
        section, key = _FIELDS[attr][:2]
        return sources.get(attr, f"field '{key}' in [{section}]")

    if cfg.samples < MIN_GRID:
        raise ConfigError(f"{where('samples')}: grid size {cfg.samples} < {MIN_GRID}")
    for attr in ("tau_start", "tau_end"):
        _finite(getattr(cfg, attr), where(attr))
    if not cfg.tau_end > cfg.tau_start:
        raise ConfigError(f"{where('tau_end')}: must exceed tau_start")
    with np.errstate(over="ignore", invalid="ignore"):
        taus = np.linspace(cfg.tau_start, cfg.tau_end, cfg.samples)
        if not (np.isfinite(taus).all() and np.all(np.diff(taus) > 0)):
            raise ConfigError(
                f"{where('samples')}: {cfg.samples} samples on [{cfg.tau_start!r}, "
                f"{cfg.tau_end!r}] give no increasing finite grid"
            )
    if not (np.isfinite(cfg.tol) and cfg.tol > 0):
        raise ConfigError(f"{where('tol')}: must be finite and positive, got {cfg.tol!r}")
    if not 0.0 < cfg.delta < 1.0:
        raise ConfigError(f"{where('delta')}: must lie in (0, 1)")
    threshold = cfg.traditional_threshold
    if not (np.isfinite(threshold) and threshold > 0):
        raise ConfigError(
            f"{where('traditional_threshold')}: must be finite and positive, got {threshold!r}"
        )
    if cfg.pairing not in PAIRINGS:
        raise ConfigError(f"{where('pairing')}: {' or '.join(PAIRINGS)}")
    for key, values in cfg.sweep.items():
        _finite(values, f"field '{key}' in [sweep]")


def build_model(cfg: ScenarioConfig) -> tuple[HamiltonianModel, object]:
    """The configured model and the parameter record its closed forms take,
    ``RotatingSpinParams`` or ``RobustModelParams`` (None for other models)."""
    return _MODELS[cfg.model_name][2](cfg.model_params)


def _parse_term(key: str, raw: str, dim: int) -> FourierTerm:
    """A ``term*`` field: a JSON object with a ``matrix`` (a Pauli name, or
    rows of numbers or [re, im] pairs; Hermitian, dim x dim) and optional
    omega, amplitude, phase."""
    import json

    where = f"field '{key}' in [model]"
    try:
        spec = json.loads(raw)
        matrix = spec["matrix"]
        if not isinstance(matrix, str):
            matrix = np.array(
                [[complex(*c) if isinstance(c, list) and len(c) == 2 else complex(c) for c in row]
                 for row in matrix]
            )
        elif matrix in _PAULI:
            matrix = _PAULI[matrix]
        else:
            raise ConfigError(f"{where}: unknown matrix name {matrix!r}")
        numbers = {
            name: float(spec.get(name, default))
            for name, default in (("omega", 0.0), ("amplitude", 1.0), ("phase", 0.0))
        }
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as a term object") from exc
    for name, value in (("matrix", matrix), *numbers.items()):
        _finite(value, f"{where} ({name})")
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (dim, dim):
        raise ConfigError(f"{where}: matrix has shape {matrix.shape}, expected {(dim, dim)}")
    if hermiticity_defect(matrix) > default_hermiticity_tol(matrix):
        raise ConfigError(f"{where}: matrix is not Hermitian")
    return FourierTerm(matrix=matrix, **numbers)


class ScenarioRun:
    """One scenario: model -> grid -> frame -> report / evolution -> fidelity.

    The model is built, and ``cfg.level`` checked against it, on
    construction; every later stage at most once, on first use.  The
    evolution starts where ``trajectory``, the adiabatic orbit of level
    ``cfg.level``, starts.  That orbit is all of the frame ``simulate`` reads,
    so it releases the frame (``del run.frame``) once the orbit is built and
    before the evolution runs; the other subcommands keep the frame.
    """

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.model, self.params = build_model(cfg)
        if not 0 <= cfg.level < self.model.dim:
            raise ConfigError(
                f"field 'level' in [run]: {cfg.level} is not a level of a "
                f"{self.model.dim}-level model"
            )

    @cached_property
    def grid(self) -> TimeGrid:
        return TimeGrid.uniform(self.cfg.tau_start, self.cfg.tau_end, self.cfg.samples)

    @cached_property
    def frame(self):
        return build_frame(self.model, self.grid)

    @cached_property
    def report(self):
        cfg = self.cfg
        return condition_report(
            self.frame, cfg.level, delta_threshold=cfg.delta,
            traditional_threshold=cfg.traditional_threshold, pairing=cfg.pairing,
        )

    @cached_property
    def trajectory(self):
        return adiabatic_trajectory(self.frame, self.cfg.level)

    @cached_property
    def evolution(self):
        psi0 = self.trajectory.states[0].copy()
        return evolve_schrodinger(self.model, psi0, self.grid, tol=self.cfg.tol)

    @cached_property
    def fidelity(self):
        return metrics.fidelity(self.evolution, self.trajectory)


def cmd_simulate(cfg: ScenarioConfig) -> int:
    written = [name for name in ("trajectory", "fidelity") if name in cfg.outputs]
    if not written:
        raise ConfigError("field 'outputs' in [output]: simulate writes trajectory or fidelity")
    run = ScenarioRun(cfg)
    grid, closed_form = run.grid, []
    if "fidelity" in written and isinstance(run.params, RotatingSpinParams):
        # ahead of the evolution, as it may not exist (A = 0); the closed form
        # counts time from the start of the evolution
        closed_form = [metrics.closed_form_F(run.params, grid.samples - cfg.tau_start)]
    # the orbit is all of the frame that the evolution and the fidelity read
    run.trajectory
    del run.frame
    result, fid = run.evolution, run.fidelity
    out = reporting.ensure_dir(cfg.out_dir)

    if "trajectory" in written:
        columns = [grid.samples]
        header = ["tau"]
        for n in range(run.model.dim):
            header += [f"re_a{n}", f"im_a{n}"]
            columns += [result.states[:, n].real, result.states[:, n].imag]
        header.append("norm")
        columns.append(result.norms)
        reporting.write_csv(f"{out}/trajectory.csv", header, columns)

    if "fidelity" in written:
        header = ["tau", "F_simulated", "F_closed_form"][: 2 + len(closed_form)]
        reporting.write_csv(f"{out}/fidelity.csv", header, [grid.samples, fid.values, *closed_form])
    files = " and ".join(f"{out}/{name}.csv" for name in written)
    print(f"simulate: wrote {files} (min F = {reporting.format_float(np.min(fid.values))})")
    return 0


def cmd_conditions(cfg: ScenarioConfig) -> int:
    run = ScenarioRun(cfg)
    report = run.report
    multi = len(report.pairs) > 1
    tables = {
        f"conditions_m{p.pair[0]}_n{p.pair[1]}.csv" if multi else "conditions.csv": [
            run.grid.samples, p.gap, p.gamma_abs, p.delta, p.traditional_ratio,
            getattr(p, f"new_ratio_{cfg.pairing}"),
        ]
        for p in report.pairs
    }
    lines = [
        f"model: {report.model_label}",
        f"level: {report.level}",
        f"traditional: max ratio {reporting.format_float(report.max_traditional)} at "
        f"tau {reporting.format_float(report.tau_at_max_traditional)} "
        f"(threshold {reporting.format_float(report.traditional_threshold)}) -> "
        f"{'PASS' if report.traditional_pass else 'FAIL'}",
        f"new ({report.pairing}): max ratio {reporting.format_float(report.max_new)} at "
        f"tau {reporting.format_float(report.tau_at_max_new)} "
        f"(threshold {reporting.format_float(report.new_threshold)}) -> "
        f"{'PASS' if report.new_pass else 'FAIL'}",
        f"new (strict reading): max ratio {reporting.format_float(report.max_new_strict)}",
        f"new (conservative reading): max ratio "
        f"{reporting.format_float(report.max_new_conservative)}",
        f"predicted occupation floor (1-delta)^2: "
        f"{reporting.format_float(report.probability_floor)}",
    ]
    if "fidelity" in cfg.outputs or "trajectory" in cfg.outputs:
        fid, occ = run.fidelity, metrics.occupation(run.evolution, run.frame, cfg.level)
        lines.append(f"observed min fidelity: {reporting.format_float(np.min(fid.values))}")
        lines.append(f"observed min occupation: {reporting.format_float(np.min(occ.values))}")
    text = "\n".join(lines) + "\n"

    out = reporting.ensure_dir(cfg.out_dir)
    header = ["tau", "gap", "|gamma|", "delta_qgp", "traditional_ratio", "new_ratio"]
    for name, columns in tables.items():
        reporting.write_csv(f"{out}/{name}", header, columns)
    with open(f"{out}/summary.txt", "w", newline="\n") as fh:
        fh.write(text)
    print(text, end="")
    return 0


#: the robust-model reference figure: a strong static field (eta0) and a
#: fast drive (eta2) on tau in [0, 2 pi], starting in the upper level
FIGURE1 = ScenarioConfig(
    model_name="robust",
    model_params={"eta": "1.0", "eta0": "20.0", "eta1": "1.0", "eta2": "100.0"},
    tol=1e-6,
)


def cmd_figure1(cfg: ScenarioConfig) -> int:
    run = ScenarioRun(cfg)
    grid, frame, result = run.grid, run.frame, run.evolution
    occ = metrics.occupation(result, frame, cfg.level)
    p_closed = np.asarray(metrics.closed_form_P(run.params, grid.samples))
    floor = metrics.p_min(run.params)
    min_p = float(np.min(occ.values))
    if min_p < floor - 1e-6:
        raise NumericalError(
            f"min occupation {min_p:.9f} fell below the floor {floor:.9f}"
        )
    out = reporting.ensure_dir(cfg.out_dir)

    evo = reporting.bloch_vector(result.states)
    adia = reporting.bloch_vector(frame.vectors[:, :, cfg.level].copy())
    reporting.write_csv(
        f"{out}/bloch.csv",
        ["tau", "evo_x", "evo_y", "evo_z", "adia_x", "adia_y", "adia_z"],
        [grid.samples, evo[:, 0], evo[:, 1], evo[:, 2], adia[:, 0], adia[:, 1], adia[:, 2]],
    )

    reporting.write_csv(
        f"{out}/P.csv", ["tau", "P_simulated", "P_closed_form"],
        [grid.samples, occ.values, p_closed],
    )

    reporting.write_svg_curves(
        f"{out}/figure1.svg",
        [
            (reporting.project_isometric(evo), "red", 1.2, "evolution orbit"),
            (reporting.project_isometric(adia), "blue", 0.6, "adiabatic orbit"),
        ],
        title="robust model: evolution vs adiabatic orbit (Bloch projection)",
    )
    print(
        f"figure1: wrote {out}/bloch.csv, {out}/P.csv, {out}/figure1.svg "
        f"(min P = {reporting.format_float(min_p)}, floor = {reporting.format_float(floor)})"
    )
    return 0


def cmd_sweep(cfg: ScenarioConfig) -> int:
    if not cfg.sweep:
        raise ConfigError("missing section [sweep] (nothing to sweep)")
    if len(cfg.sweep) > 3:
        raise ConfigError(f"section [sweep]: at most 3 swept parameters, got {len(cfg.sweep)}")
    names = list(cfg.sweep.keys())
    grids = [cfg.sweep[name] for name in names]
    if any(len(g) == 0 for g in grids):
        empty = names[[len(g) for g in grids].index(0)]
        raise ConfigError(f"field '{empty}' in [sweep]: empty range")
    total = int(np.prod([len(g) for g in grids]))
    if total > 10_000:
        raise ConfigError(f"section [sweep]: {total} points exceed the 10000-point budget")

    rows = []
    for values in itertools.product(*grids):
        point = dict(cfg.model_params)
        point.update({name: repr(v) for name, v in zip(names, values)})
        run = ScenarioRun(replace(cfg, model_params=point, sweep={}))
        report = run.report
        rows.append(
            list(values)
            + [
                report.max_traditional,
                1.0 if report.traditional_pass else 0.0,
                report.max_new,
                1.0 if report.new_pass else 0.0,
                float(np.min(run.fidelity.values)),
            ]
        )
    table = np.array(rows, dtype=float)
    header = names + [
        "traditional_ratio", "traditional_pass", "new_ratio", "new_pass", "min_fidelity",
    ]
    out = reporting.ensure_dir(cfg.out_dir)
    reporting.write_csv(f"{out}/summary.csv", header, [table[:, i] for i in range(table.shape[1])])
    print(f"sweep: wrote {out}/summary.csv ({len(rows)} points)")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "conditions": cmd_conditions,
    "figure1": cmd_figure1,
    "sweep": cmd_sweep,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgplab",
        description="Adiabatic-condition laboratory: simulate, diagnose, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        # figure1 runs the fixed FIGURE1 scenario: no config, no criterion
        configured = name != "figure1"
        p = sub.add_parser(name)
        if configured:
            p.add_argument("--config", required=True, help="scenario config path")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--grid", type=int, default=None, help="grid sample override")
        p.add_argument("--tol", type=float, default=None, help="integrator tolerance override")
        if configured:
            p.add_argument("--delta", type=float, default=None, help="criterion delta override")
    return parser


def _apply_overrides(cfg: ScenarioConfig, args: argparse.Namespace) -> dict[str, str]:
    """Set the fields given as options; map each to the option that set it."""
    sources = {}
    for attr, (*_, option) in _FIELDS.items():
        value = getattr(args, option, None) if option else None
        if value is not None:
            setattr(cfg, attr, value)
            sources[attr] = f"option --{option}"
    return sources


#: (parameter, value) of glibc's M_MMAP_THRESHOLD, M_TRIM_THRESHOLD and
#: M_ARENA_MAX, which ``main`` sets
_MALLOPT = ((-3, 64 << 20), (-1, 256 << 20), (-8, 1))


def _tune_heap() -> None:
    """Keep freed memory mapped for reuse (glibc only).

    By default glibc serves blocks above a dynamic threshold (at most 32 MiB)
    with ``mmap``, unmaps them when they are freed and trims the free heap
    top, so a run page-faults its stacks and the pool's per-block temporaries
    in again each time it allocates them.  ``_MALLOPT`` serves blocks up to
    64 MiB from the heap (a (32768, 8, 8) complex stack is 32 MiB), keeps up
    to 256 MiB of free top mapped, and makes the pool's threads share one
    arena instead of each keeping its own high-water mark.  The settings hold
    for the whole process, also after ``main`` returns.  Without ``mallopt``
    nothing happens; no result changes either way.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no glibc
        return
    for param, value in _MALLOPT:
        mallopt(param, value)


def main(argv: list[str] | None = None) -> int:
    _tune_heap()
    args = make_parser().parse_args(argv)
    try:
        cfg = replace(FIGURE1) if args.command == "figure1" else parse_config(args.config)
        _validate(cfg, _apply_overrides(cfg, args))
        return COMMANDS[args.command](cfg)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except QgplabError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
