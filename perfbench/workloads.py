"""Seeded inputs and independent oracles for the benchmark workloads.

This module imports numpy only, never qgplab: every oracle is computed from
the physics of the generated input, apart from the program it checks.

Each seed gives an input that is equivalent by symmetry to every other seed,
so the amount of work does not depend on it:

* ``spin2_resonant`` shifts ``tau_start``; for the rotating spin that is a
  constant sigma_z rotation of h(tau).
* ``ladder8_dense`` conjugates a spin-7/2 in a rotating field by a
  Haar-random unitary V.
* ``generic8_conditions`` draws three random Hermitian terms scaled to
  spectral norm 0.6 on top of diag(0, 4, ..., 28); by Weyl's inequality the
  gaps stay >= 4 - 2 * 3 * 0.6 = 0.4 for every seed, so no level crossing or
  tracking failure can occur.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

#: size of an injected output error; every check must flag it
CORRUPTION = 1e-6


@dataclass(frozen=True)
class Workload:
    """One generated input: the CLI call, its config and its oracle arrays."""

    name: str
    subcommand: str
    config: str
    oracle: dict
    #: largest accepted oracle error; a larger one fails the operation
    target: float
    #: (file, column) cells that the self-test corrupts one at a time
    corruptible: tuple


def _ini(model: dict, run: dict, outputs: str) -> str:
    lines = ["[model]"]
    lines += [f"{key} = {value}" for key, value in model.items()]
    lines += ["", "[run]"]
    lines += [f"{key} = {value}" for key, value in run.items()]
    lines += ["", "[output]", f"outputs = {outputs}", ""]
    return "\n".join(lines)


def _matrix_json(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def _term(matrix: np.ndarray, omega: float, amplitude: float, phase: float = 0.0) -> str:
    return json.dumps(
        {"matrix": _matrix_json(matrix), "omega": omega, "amplitude": amplitude, "phase": phase}
    )


# ---------------------------------------------------------------------------
# spin2_resonant: rotating spin-1/2 at resonance (regime A)
# ---------------------------------------------------------------------------

SPIN_ETA, SPIN_XI, SPIN_K = 0.995, 0.0999, 1.0


def _spin2_resonant(rng: np.random.Generator) -> Workload:
    eta, xi, k = SPIN_ETA, SPIN_XI, SPIN_K
    a = math.hypot((1.0 - k) * eta, xi)
    omega = 2.0 * k * eta
    shift = float(rng.uniform(0.0, 2.0 * math.pi / omega))
    tau_end = shift + 2.0 * math.pi / a  # two periods pi/A of the fidelity
    taus = np.linspace(shift, tau_end, 4097)
    energy = math.hypot(eta, xi)
    bracket = ((1.0 - k) * eta * eta / energy + xi * xi / energy) / a
    x = a * (taus - shift)
    f_exact = np.sqrt(np.cos(x) ** 2 + np.sin(x) ** 2 * bracket**2)
    config = _ini(
        {"name": "rotating_spin", "eta": repr(eta), "xi": repr(xi), "k": repr(k)},
        {"tau_start": repr(shift), "tau_end": repr(tau_end), "samples": 4097,
         "level": "upper", "tol": "1e-9"},
        "trajectory,fidelity",
    )
    return Workload(
        "spin2_resonant", "simulate", config, {"tau": taus, "F": f_exact},
        target=1e-8, corruptible=(("fidelity.csv", "F_simulated"),),
    )


# ---------------------------------------------------------------------------
# ladder8_dense: spin-7/2 in a near-resonant rotating field, basis V
# ---------------------------------------------------------------------------

LADDER_ETA, LADDER_XI, LADDER_OMEGA = 1.0, 0.1, 0.9


def spin_matrices(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jx, Jy, Jz of spin j = (dim - 1)/2 with m ascending along the basis."""
    j = 0.5 * (dim - 1)
    m = np.arange(dim) - j
    jp = np.zeros((dim, dim), dtype=complex)
    jp[np.arange(1, dim), np.arange(dim - 1)] = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jx = 0.5 * (jp + jp.conj().T)
    jy = -0.5j * (jp - jp.conj().T)
    return jx, jy, np.diag(m).astype(complex)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _ladder8_dense(rng: np.random.Generator) -> Workload:
    dim = 8
    eta, xi, omega = LADDER_ETA, LADDER_XI, LADDER_OMEGA
    jx, jy, jz = spin_matrices(dim)
    v = haar_unitary(rng, dim)
    vd = v.conj().T
    period = 2.0 * math.pi / math.hypot(eta - omega, xi)
    taus = np.linspace(0.0, period, 4096)
    # h(tau) = V R(tau) H0 R(tau)^+ V^+ with R = exp(-i omega Jz tau), so the
    # exact propagator is V R(tau) exp(-i (H0 - omega Jz) tau) V^+.
    lam, w = np.linalg.eigh(eta * jz + xi * jx - omega * jz)
    inner = np.einsum("ij,kj,lj->kil", w, np.exp(-1j * np.outer(taus, lam)), w.conj())
    rot = np.exp(-1j * omega * np.outer(taus, np.diag(jz).real))
    propagator = v @ (rot[:, :, None] * inner) @ vd
    top = np.linalg.eigh(v @ (eta * jz + xi * jx) @ vd)[1][:, -1]
    model = {"name": "fourier", "dim": dim}
    model["term1"] = _term(v @ jz @ vd, 0.0, eta)
    model["term2"] = _term(v @ jx @ vd, omega, xi)
    model["term3"] = _term(v @ jy @ vd, omega, xi, -0.5 * math.pi)
    config = _ini(
        model,
        {"tau_start": "0.0", "tau_end": repr(period), "samples": 4096,
         "level": dim - 1, "tol": "1e-6"},
        "trajectory,fidelity",
    )
    return Workload(
        "ladder8_dense", "simulate", config,
        {"tau": taus, "propagator": propagator, "top": top},
        target=5e-7, corruptible=(("trajectory.csv", "re_a0"),),
    )


# ---------------------------------------------------------------------------
# generic8_conditions: condition report of a seeded 8-level Fourier model
# ---------------------------------------------------------------------------

GENERIC_LEVEL = 3
GENERIC_OMEGAS = (1.0, 2.0, 3.0)
GENERIC_TERM_NORM = 0.6


def _generic8_conditions(rng: np.random.Generator) -> Workload:
    dim = 8
    h0 = np.diag(4.0 * np.arange(dim)).astype(complex)
    mats = []
    for _ in GENERIC_OMEGAS:
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        herm = 0.5 * (g + g.conj().T)
        mats.append(herm * (GENERIC_TERM_NORM / np.linalg.norm(herm, 2)))
    taus = np.linspace(0.0, 2.0 * math.pi, 32768)
    cos = np.cos(np.outer(taus, GENERIC_OMEGAS))
    dsin = -np.sin(np.outer(taus, GENERIC_OMEGAS)) * np.array(GENERIC_OMEGAS)
    stack = np.stack(mats)
    h = h0 + np.einsum("kt,tij->kij", cos, stack)
    dh = np.einsum("kt,tij->kij", dsin, stack)
    energies, vectors = np.linalg.eigh(h)
    m = GENERIC_LEVEL
    gap = energies - energies[:, m : m + 1]
    # |gamma_nm| = |<phi_n|dh|phi_m>| / |e_m - e_n|, independent of the gauge
    cross = np.abs(np.einsum("kin,kij,kj->kn", vectors.conj(), dh, vectors[:, :, m]))
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = cross / np.abs(gap)
    model = {"name": "fourier", "dim": dim, "term0": _term(h0, 0.0, 1.0)}
    for i, (mat, omega) in enumerate(zip(mats, GENERIC_OMEGAS), start=1):
        model[f"term{i}"] = _term(mat, omega, 1.0)
    config = _ini(
        model,
        {"tau_start": "0.0", "tau_end": repr(2.0 * math.pi), "samples": 32768,
         "level": m, "tol": "1e-9"},
        "conditions",
    )
    return Workload(
        "generic8_conditions", "conditions", config,
        {"tau": taus, "gap": gap, "gamma": gamma},
        target=1e-9,
        corruptible=((f"conditions_m{m}_n0.csv", "gap"),
                     (f"conditions_m{m}_n{dim - 1}.csv", "|gamma|")),
    )


GENERATORS = {
    "spin2_resonant": _spin2_resonant,
    "ladder8_dense": _ladder8_dense,
    "generic8_conditions": _generic8_conditions,
}


def generate(name: str, seed: int) -> Workload:
    """The input of workload ``name`` for ``seed`` (same seed, same input)."""
    return GENERATORS[name](np.random.default_rng([seed, list(GENERATORS).index(name)]))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class CheckFailed(Exception):
    """An output file is missing or malformed."""


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    try:
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except OSError as exc:
        raise CheckFailed(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise CheckFailed(f"malformed {path}: {exc}") from exc
    if data.shape[1] != len(header):
        raise CheckFailed(f"{path}: {data.shape[1]} columns under {len(header)} names")
    return header, data


def _column(header: list[str], data: np.ndarray, name: str, path: str) -> np.ndarray:
    if name not in header:
        raise CheckFailed(f"{path}: no column {name!r}")
    return data[:, header.index(name)]


def _require_grid(path: str, taus: np.ndarray, expected: np.ndarray) -> None:
    if taus.shape != expected.shape or np.max(np.abs(taus - expected)) > 1e-12 * (
        1.0 + np.max(np.abs(expected))
    ):
        raise CheckFailed(f"{path}: tau column differs from the configured grid")


def _check_spin2(out: str, oracle: dict) -> float:
    path = f"{out}/fidelity.csv"
    header, data = read_csv(path)
    _require_grid(path, _column(header, data, "tau", path), oracle["tau"])
    return float(np.max(np.abs(_column(header, data, "F_simulated", path) - oracle["F"])))


def _check_ladder8(out: str, oracle: dict) -> float:
    path = f"{out}/trajectory.csv"
    header, data = read_csv(path)
    _require_grid(path, _column(header, data, "tau", path), oracle["tau"])
    dim = oracle["top"].size
    psi = np.stack(
        [_column(header, data, f"re_a{n}", path) + 1j * _column(header, data, f"im_a{n}", path)
         for n in range(dim)],
        axis=1,
    )
    exact = oracle["propagator"] @ psi[0]
    state_err = float(np.max(np.linalg.norm(psi - exact, axis=1)))
    # the initial state must be the top level of h(0), in any phase
    level_err = 1.0 - float(np.abs(np.vdot(oracle["top"], psi[0])))
    return max(state_err, level_err)


def _check_generic8(out: str, oracle: dict) -> float:
    m = GENERIC_LEVEL
    err = 0.0
    for n in range(oracle["gap"].shape[1]):
        if n == m:
            continue
        path = f"{out}/conditions_m{m}_n{n}.csv"
        header, data = read_csv(path)
        _require_grid(path, _column(header, data, "tau", path), oracle["tau"])
        gap_err = np.max(np.abs(_column(header, data, "gap", path) - oracle["gap"][:, n]))
        gamma_err = np.max(np.abs(_column(header, data, "|gamma|", path) - oracle["gamma"][:, n]))
        err = max(err, float(gap_err), float(gamma_err))
    try:
        open(f"{out}/summary.txt").close()
    except OSError as exc:
        raise CheckFailed(f"missing {out}/summary.txt") from exc
    return err


CHECKS = {
    "spin2_resonant": _check_spin2,
    "ladder8_dense": _check_ladder8,
    "generic8_conditions": _check_generic8,
}


def check(name: str, out: str, oracle: dict) -> float:
    """Largest oracle error of the outputs in ``out``; CheckFailed if absent."""
    err = CHECKS[name](out, oracle)
    if not math.isfinite(err):
        raise CheckFailed(f"non-finite oracle error {err!r}")
    return err


def corrupt(path: str, column: str, delta: float = CORRUPTION) -> None:
    """Add ``delta`` to the middle row of ``column`` in a written CSV."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    col = lines[0].split(",").index(column)
    row = (len(lines) - 1) // 2
    cells = lines[row].split(",")
    cells[col] = f"{float(cells[col]) + delta:.17g}"
    lines[row] = ",".join(cells)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines))
