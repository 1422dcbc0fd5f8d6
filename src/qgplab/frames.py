"""Gauge-continuous instantaneous eigenframes over a time grid.

``build_frame`` diagonalizes h(tau) on every grid sample, tracks levels by
maximum overlap, fixes each eigenvector's phase by discrete parallel
transport (successive overlaps real and positive, anchored at tau = 0), and
assembles the non-adiabatic coupling matrix gamma_nm = i<phi_n|phi_m_dot>.

Tracking is batched.  Where every overlap of a column with the same column
one sample earlier exceeds 1/sqrt(2), the eigh ordering is kept: it is then
the unique maximum-overlap matching.  ``linear_sum_assignment`` runs only at
the other steps, and the orderings it finds are composed there.  The
transport phase of each level is the cumulative sum of its matched-overlap
angles.  A matched overlap below 0.5 raises ``TrackingAmbiguityError``.
scipy's solver is imported at the first such step, so a run whose tracking
keeps the eigh ordering never loads ``scipy.optimize``.

The per-sample stages run in the ``EXPM_BLOCK``-sample blocks of
``linalg.for_blocks``, each block writing its slice of one output: the
diagonal overlaps, the transport phase multiply and the gamma assembly.
The assignment steps and the cumulative sum of the angles stay sequential,
and ``eigh_batch``, ``model.sample_derivative`` and
``numerics.derivative_series`` are called on the calling thread.

gamma comes from one of three routes, recorded in ``gamma_mode``:

* ``analytic_frame``      - the model supplies energies, vectors and gamma in
  closed form (its own smooth gauge);
* ``analytic_derivative`` - off-diagonals from i<phi_n|dh|phi_m>/(e_m - e_n),
  diagonals from finite differences of the gauge-fixed vectors;
* ``finite_difference``   - 4th-order differences of the vectors throughout.

``level_orbit(model, grid, m)`` is the adiabatic orbit of one level,
``adiabatic_trajectory(build_frame(model, grid), m)`` to the byte.  On the
analytic-derivative route it shares ``build_frame``'s eigh, tracking, gap
check and overlap warning, then differentiates phi_m alone and forms only
gamma_mm: no gamma stack, no stencil of every vector and no h-dot.  The
transport phases are multiplied into eigh's own vectors.

``pair_series(frame, m, n)`` alone checks a level pair (OutOfRange, or
ValueError for m == n) and derives all per-pair data once: |gamma_nm|, arg
gamma_nm unwrapped per coupled run with its ``unwrap_flags`` (counted on
every gamma route), and Delta_mn, valid where it is not NaN.  |gamma_nm| >
``COUPLING_FLOOR`` (1e-12) is the one vanishing-coupling rule; it makes a
pair uncoupled (no coupled sample), partial or coupled (every sample).
``qgp.qgp`` raises on uncoupled pairs, ``theta_series`` on all but coupled
ones, ``evolve_coefficients`` on partial ones (it skips uncoupled ones), and
``condition_report`` on an uncoupled pair while another coupling out of the
level persists.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .errors import (
    GapClosureError,
    OutOfRangeError,
    TrackingAmbiguityError,
    UndefinedArgError,
)
from .linalg import EXPM_BLOCK, dagger, eigh_batch, for_blocks
from .models import HamiltonianModel, SmoothScalar

log = logging.getLogger(__name__)

#: couplings below this magnitude have no well-defined phase
COUPLING_FLOOR = 1e-12

#: a pairwise gap below this raises GapClosureError
GAP_FLOOR = 1e-8

#: every diagonal overlap above this makes the identity the unique matching
_IDENTITY_OVERLAP = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing tau samples (uniform unless stated otherwise)."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("grid needs at least two samples")
        if np.any(np.diff(samples) <= 0):
            raise ValueError("grid samples must be strictly increasing")
        object.__setattr__(self, "samples", samples)

    @classmethod
    def uniform(cls, tau_start: float, tau_end: float, n: int) -> "TimeGrid":
        if n < 2:
            raise ValueError("need at least two samples")
        if not tau_end > tau_start:
            raise ValueError("tau_end must exceed tau_start")
        return cls(np.linspace(tau_start, tau_end, n))

    @property
    def n(self) -> int:
        return int(self.samples.size)


@dataclass(frozen=True, eq=False)
class SpectralFrame:
    """Tracked eigenvalues, gauge-fixed eigenvectors and gamma on a grid.

    ``energies[k, n]`` follows level n by continuity (not re-sorted);
    ``vectors[k, :, n]`` is its eigenvector; ``gamma[k, n, m]`` is
    i<phi_n|phi_m_dot> at sample k.  ``delta_analytic``, when the model
    provides it, holds the closed-form QGP matrix on the same ordering.
    """

    grid: TimeGrid
    energies: np.ndarray
    vectors: np.ndarray
    gamma: np.ndarray
    min_gap: float
    gamma_mode: str
    model: HamiltonianModel | None = None
    delta_analytic: np.ndarray | None = None
    min_overlap: float = 1.0

    @property
    def dim(self) -> int:
        return self.energies.shape[1]

    @property
    def n_samples(self) -> int:
        return self.energies.shape[0]

    def completeness_defect(self) -> float:
        """Max deviation of sum_n |phi_n><phi_n| from the identity."""
        gram = np.einsum("kin,kjn->kij", self.vectors, self.vectors.conj())
        eye = np.eye(self.dim)
        return float(np.max(np.abs(gram - eye)))


def gamma_route(model: HamiltonianModel, gamma_mode: str = "auto") -> str:
    """The gamma route ``build_frame(model, grid, gamma_mode)`` takes."""
    if gamma_mode == "auto":
        if model.analytic_frame is not None:
            return "analytic_frame"
        if model.derivative_batch is not None:
            return "analytic_derivative"
        return "finite_difference"
    if gamma_mode not in ("analytic_frame", "analytic_derivative", "finite_difference"):
        raise ValueError(f"unknown gamma_mode {gamma_mode!r}")
    if gamma_mode == "analytic_frame" and model.analytic_frame is None:
        raise ValueError(f"model {model.label!r} has no analytic frame")
    if gamma_mode == "analytic_derivative" and model.derivative_batch is None:
        raise ValueError(f"model {model.label!r} has no analytic derivative")
    return gamma_mode


def _pairwise_min_gap(energies: np.ndarray) -> float:
    sorted_e = np.sort(energies, axis=1)
    return float(np.min(np.diff(sorted_e, axis=1)))


def _checked_gap(energies: np.ndarray) -> float:
    """The pairwise min gap; GapClosureError below ``GAP_FLOOR``."""
    min_gap = _pairwise_min_gap(energies)
    if min_gap < GAP_FLOOR:
        raise GapClosureError(f"min gap {min_gap:.3e} below floor {GAP_FLOOR:.3e}")
    return min_gap


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``scipy.optimize.linear_sum_assignment``, imported on the first call."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def _diagonal_overlaps(vectors: np.ndarray) -> np.ndarray:
    """<phi_n(k-1)|phi_n(k)> for every column n and step k, shape (K-1, N)."""
    out = np.empty((vectors.shape[0] - 1, vectors.shape[2]), dtype=vectors.dtype)

    def block(k0, k1):
        np.einsum("kin,kin->kn", vectors[k0:k1].conj(), vectors[k0 + 1 : k1 + 1], out=out[k0:k1])

    for_blocks(block, out.shape[0], EXPM_BLOCK)
    return out


def _track_levels(
    energies: np.ndarray, vectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Tracked energies, phase-fixed vectors and the smallest matched overlap.

    When every diagonal overlap of a step exceeds 1/sqrt(2), each other
    overlap in its row is at most sqrt(1 - |diag|^2) < |diag| (orthonormal
    columns), so the identity is the unique maximum matching there.  The
    transport phases are multiplied into ``vectors``, which the caller gives
    up, once it is complex.
    """
    vectors = vectors.astype(np.result_type(vectors, 1j), copy=False)
    overlaps = _diagonal_overlaps(vectors)
    steps = np.flatnonzero(np.any(np.abs(overlaps) <= _IDENTITY_OVERLAP, axis=1))
    if steps.size:
        # order[k, n]: raw eigh column of tracked level n at sample k
        order = np.empty(energies.shape, dtype=int)
        current = np.arange(energies.shape[1])
        start = 0
        for k in steps:
            weight = np.abs(vectors[k].conj().T @ vectors[k + 1])
            rows, cols = linear_sum_assignment(-weight)
            matched = weight[rows, cols]
            if np.min(matched) < 0.5:
                raise TrackingAmbiguityError(
                    f"maximum overlap {np.min(matched):.3f} < 0.5 between samples "
                    f"{k} and {k + 1}; grid too coarse"
                )
            order[start : k + 1] = current
            current = cols[current]
            start = k + 1
        order[start:] = current
        energies = np.take_along_axis(energies, order, axis=1)
        vectors = np.take_along_axis(vectors, order[:, None, :], axis=2)
        overlaps = _diagonal_overlaps(vectors)
    phases = np.zeros(energies.shape)
    np.cumsum(np.angle(overlaps), axis=0, out=phases[1:])

    def block(k0, k1):
        vectors[k0:k1] *= np.exp(-1j * phases[k0:k1])[:, None, :]

    for_blocks(block, vectors.shape[0], EXPM_BLOCK)
    min_overlap = min(1.0, float(np.min(np.abs(overlaps))))
    return energies, vectors, min_overlap


def _tracked_eigh(
    model: HamiltonianModel, taus: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """``_track_levels`` of eigh on the samples of ``model``, warning on a low overlap."""
    energies, vectors = eigh_batch(model.sample(taus))
    energies, vectors, min_overlap = _track_levels(energies, vectors)
    if min_overlap < 0.99:
        log.warning("level-tracking overlap dropped to %.4f (< 0.99); consider a finer grid",
                    min_overlap)
    return energies, vectors, min_overlap


def _gamma_diagonal(vectors: np.ndarray, dvec: np.ndarray) -> np.ndarray:
    """gamma_nn = i<phi_n|phi_n_dot> of each column n of ``vectors``, shape (K, N)."""
    return 1j * np.einsum("kin,kin->kn", vectors.conj(), dvec)


def _gamma(
    vectors: np.ndarray, dvec: np.ndarray, energies: np.ndarray, dh: np.ndarray | None
) -> np.ndarray:
    """gamma_nm = i<phi_n|phi_m_dot>, assembled per block in place.

    With ``dh`` (a complex stack the caller gives up) the off-diagonals are
    i <phi_n|dh|phi_m> / (e_m - e_n), written over ``dh``: each block reads
    only its own slice and forms dh @ phi before it writes.  Only the
    diagonal comes from the differentiated vectors ``dvec``.
    """
    gamma = np.empty(vectors.shape, dtype=np.result_type(vectors, 1j)) if dh is None else dh
    idx = np.arange(vectors.shape[-1])

    def block(k0, k1):
        v, dv, g = vectors[k0:k1], dvec[k0:k1], gamma[k0:k1]
        if dh is None:
            np.multiply(1j, dagger(v) @ dv, out=g)
            return
        np.matmul(dagger(v), g @ v, out=g)
        g *= 1j
        g /= energies[k0:k1, None, :] - energies[k0:k1, :, None]
        g[:, idx, idx] = _gamma_diagonal(v, dv)

    with np.errstate(divide="ignore", invalid="ignore"):
        for_blocks(block, gamma.shape[0], EXPM_BLOCK)
    return gamma


def build_frame(
    model: HamiltonianModel,
    grid: TimeGrid,
    gamma_mode: str = "auto",
) -> SpectralFrame:
    """Construct the gauge-continuous eigenframe of ``model`` on ``grid``."""
    mode = gamma_route(model, gamma_mode)
    taus = grid.samples
    delta, min_overlap = None, 1.0

    if mode == "analytic_frame":
        energies, vectors, gamma = model.analytic_frame.frame_at(taus)
        if model.analytic_frame.delta_at is not None:
            delta = model.analytic_frame.delta_at(taus)
    else:
        energies, vectors, min_overlap = _tracked_eigh(model, taus)
    min_gap = _checked_gap(energies)

    if mode != "analytic_frame":
        dvec = numerics.derivative_series(vectors, taus)
        dh = None
        if mode == "analytic_derivative":
            # private to this call, so gamma can be assembled over it
            dh = np.require(model.sample_derivative(taus), dtype=complex, requirements="CW")
        gamma = _gamma(vectors, dvec, energies, dh)

    return SpectralFrame(
        grid=grid,
        energies=energies,
        vectors=vectors,
        gamma=gamma,
        min_gap=min_gap,
        gamma_mode=mode,
        model=model,
        delta_analytic=delta,
        min_overlap=min_overlap,
    )


@dataclass(frozen=True, eq=False)
class QgpSeries:
    """Per-pair data of the ordered pair (m, n), built by ``pair_series``.

    ``coupled`` is |gamma_nm| > COUPLING_FLOOR; ``arg`` is arg gamma_nm
    unwrapped per coupled run (NaN elsewhere) and ``unwrap_flags`` counts its
    steps above pi/2.  ``delta`` (Delta_mn) and ``ratio`` (Delta_mn/2|gamma_nm|)
    are NaN where ``valid`` is False: off the coupled samples and, without a
    closed form, on one-sample runs.
    """

    pair: tuple[int, int]
    delta: np.ndarray
    gamma_abs: np.ndarray
    coupled: np.ndarray
    arg: np.ndarray
    unwrap_flags: int

    @property
    def valid(self) -> np.ndarray:
        return ~np.isnan(self.delta)

    @property
    def ratio(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return self.delta / (2.0 * self.gamma_abs)

    @property
    def coupling(self) -> str:
        """``"uncoupled"`` (no coupled sample), ``"partial"`` or ``"coupled"``."""
        return "coupled" if self.coupled.all() else "partial" if self.coupled.any() else "uncoupled"

    def require_valid(self) -> None:
        if not bool(np.all(self.valid)):
            undefined = int(np.count_nonzero(~self.valid))
            raise UndefinedArgError(f"QGP for pair {self.pair} undefined on {undefined} samples")


def pair_series(frame: SpectralFrame, m: int, n: int) -> QgpSeries:
    """Every per-pair quantity of the ordered pair (m, n), checked and derived once.

    Delta_mn is the frame's closed form if it has one, else gamma_mm - gamma_nn
    plus the 4th-order stencil of the unwrapped arg gamma_nm on each coupled run.
    """
    _require_levels(frame.dim, m, n)
    if m == n:
        raise ValueError(f"pair ({m}, {n}) needs two different levels")
    taus = frame.grid.samples
    coupling = frame.gamma[:, n, m]
    gamma_abs = np.abs(coupling)
    coupled = gamma_abs > COUPLING_FLOOR
    analytic = frame.delta_analytic is not None
    if analytic:
        delta = frame.delta_analytic[:, m, n].astype(float)
        delta[~coupled] = np.nan
    else:
        diag = frame.gamma[:, m, m].real - frame.gamma[:, n, n].real
        delta = np.full(taus.size, np.nan)
    arg, flags = np.full(taus.size, np.nan), 0
    for start, stop in numerics.valid_runs(coupled):
        run_arg, large = numerics.unwrap_angles(np.angle(coupling[start:stop]))
        arg[start:stop] = run_arg
        flags += large
        if not analytic and stop - start > 1:
            darg = numerics.derivative_series(run_arg, taus[start:stop])
            delta[start:stop] = diag[start:stop] + darg
    return QgpSeries((m, n), delta, gamma_abs, coupled, arg, flags)


def theta_series(frame: SpectralFrame, m: int, n: int) -> tuple[np.ndarray, int]:
    """theta_mn on every grid sample, with the count of large unwrap steps.

    theta_mn(tau) = int_0^tau (e_m - e_n + gamma_nn - gamma_mm) dlambda
                    + arg gamma_mn(tau), unwrapped continuously from tau=0.
    """
    series = pair_series(frame, n, m)  # its arg is arg gamma_mn
    if series.coupling != "coupled":
        raise UndefinedArgError(f"|gamma_{m}{n}| fell below {COUPLING_FLOOR:g}; arg undefined")
    return pair_theta(frame, series), series.unwrap_flags


def pair_theta(frame: SpectralFrame, series: QgpSeries) -> np.ndarray:
    """theta_mn from the coupled ``pair_series(frame, n, m)``; logs its unwrap flags."""
    n, m = series.pair
    e, g = frame.energies, frame.gamma
    integral = numerics.cumulative_integral(
        e[:, m] - e[:, n] + g[:, n, n].real - g[:, m, m].real, frame.grid.samples
    )
    if series.unwrap_flags:
        log.warning("theta_%d%d: %d unwrap steps exceeded pi/2; grid may be coarse",
                    m, n, series.unwrap_flags)
    return integral + series.arg


@dataclass(frozen=True, eq=False)
class AdiabaticTrajectory:
    """U(1)-invariant adiabatic orbit of one level.

    states[k] = exp(-i * phases[k]) * phi_m(tau_k) with
    phases[k] = int_0^tau_k (e_m - gamma_mm) dlambda; phases[0] = 0.  It
    keeps the grid but not the frame, so the orbit outlives the frame's other
    levels and gamma.
    """

    grid: TimeGrid
    level: int
    phases: np.ndarray
    states: np.ndarray


def _orbit(
    grid: TimeGrid, m: int, energy: np.ndarray, gamma_mm: np.ndarray, phi: np.ndarray
) -> AdiabaticTrajectory:
    phases = numerics.cumulative_integral(energy - gamma_mm.real, grid.samples)
    states = np.exp(-1j * phases)[:, None] * phi
    return AdiabaticTrajectory(grid=grid, level=m, phases=phases, states=states)


def adiabatic_trajectory(frame: SpectralFrame, m: int) -> AdiabaticTrajectory:
    _require_levels(frame.dim, m)
    return _orbit(frame.grid, m, frame.energies[:, m], frame.gamma[:, m, m], frame.vectors[:, :, m])


def level_orbit(model: HamiltonianModel, grid: TimeGrid, m: int) -> AdiabaticTrajectory:
    """``adiabatic_trajectory(build_frame(model, grid), m)``, the same bytes.

    On the analytic-derivative route only gamma_mm is formed: the 4th-order
    stencil of phi_m alone, shape (K, N), and the einsum of ``_gamma``'s
    diagonal.  No gamma stack is built and h-dot is never sampled, so the
    orbit holds the eigh stacks and nothing of size (K, N, N) beside them.
    The other routes build the frame.
    """
    if gamma_route(model) != "analytic_derivative":
        return adiabatic_trajectory(build_frame(model, grid), m)
    _require_levels(model.dim, m)
    taus = grid.samples
    energies, vectors, _ = _tracked_eigh(model, taus)
    _checked_gap(energies)
    dphi = numerics.derivative_series(vectors, taus, column=m)
    gamma_mm = _gamma_diagonal(vectors[:, :, m : m + 1], dphi[:, :, None])[:, 0]
    return _orbit(grid, m, energies[:, m], gamma_mm, vectors[:, :, m])


def regauge(frame: SpectralFrame, fs: list[SmoothScalar]) -> SpectralFrame:
    """Apply phi_n -> e^{i f_n(tau)} phi_n with f_n(tau_0) = 0.

    gamma transforms consistently: gamma_nm -> e^{i(f_m - f_n)} gamma_nm for
    n != m and gamma_nn -> gamma_nn - f_n'.  Gauge-invariant data
    (delta_analytic) is carried over unchanged.
    """
    if len(fs) != frame.dim:
        raise ValueError(f"need {frame.dim} gauge functions, got {len(fs)}")
    taus = frame.grid.samples
    f_vals = np.stack([f.value(taus) for f in fs], axis=1)
    f_dots = np.stack([f.d1(taus) for f in fs], axis=1)
    if np.max(np.abs(f_vals[0])) > 1e-12:
        raise ValueError("gauge functions must vanish at the first grid sample")
    phase = np.exp(1j * f_vals)
    vectors = frame.vectors * phase[:, None, :]
    gamma = frame.gamma * np.exp(1j * (f_vals[:, None, :] - f_vals[:, :, None]))
    idx = np.arange(frame.dim)
    gamma[:, idx, idx] = frame.gamma[:, idx, idx] - f_dots
    return replace(frame, vectors=vectors, gamma=gamma, gamma_mode=frame.gamma_mode + "+regauge")


def _require_levels(dim: int, *levels: int) -> None:
    for lvl in levels:
        if not 0 <= lvl < dim:
            raise OutOfRangeError(f"level {lvl} outside 0..{dim - 1}")

