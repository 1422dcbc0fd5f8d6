"""Exact dynamics, two independent ways.

* ``evolve_schrodinger`` integrates i dpsi/dtau = h(tau) psi with an
  exponential step rule (``StepRule``): every factor of a substep applies
  exp(-i dt sum_k w_k h(t0 + c_k dt)) with real weights w, so each step is
  exactly unitary and norm drift is a property of the implementation, not of
  the step size.  Accuracy is controlled by halving the substep width until
  successive refinements agree below ``tol``.
* ``evolve_coefficients`` integrates the adiabatic-coefficient equations
  c_m' = i sum_n c_n M_mn on a spectral frame, with M_mn = |gamma_mn|
  e^{i theta_mn} rebuilt between frame samples from linearly interpolated
  magnitude and phase; the generator -M is Hermitian, so the same unitary
  stepper applies.

Step rules
----------
``CF4`` (the rule of both adaptive integrators) is the 4th-order commutator-free
Magnus rule of Blanes & Moan (Appl. Numer. Math. 56, 2006; see also
Alvermann & Fehske, J. Comput. Phys. 230, 2011).  With Gauss nodes
c = 1/2 -+ sqrt(3)/6, H_k = h(t0 + c_k dt) and weights
a1 = (3 - 2 sqrt(3))/12, a2 = (3 + 2 sqrt(3))/12 one substep is

    U = exp(-i dt (a1 H_1 + a2 H_2)) exp(-i dt (a2 H_1 + a1 H_2)),

the right factor applied first (swapping them drops the rule to 2nd order).
``MIDPOINT`` is the 2nd-order exponential midpoint rule exp(-i dt h(t_mid)),
kept as the reference method (the default of ``schrodinger_fixed_step``).

Stages of one fixed-substep pass
--------------------------------
The grid intervals are taken in chunks whose sample stack is at most
``_CHUNK_BYTES`` (8 MiB).  Where a chunk can hold whole ``EXPM_BLOCK``
blocks of exponentials, the U such units of the pass are split evenly over
the n chunks: chunk c starts at unit ceil(c U / n), so the chunks differ by
at most one unit and the last is never the larger.  A chunk holds one array:
its stacked samples become its generators, sum_k W[j, k] h(t0 + c_k dt) for
each factor j, formed a 32nd of the chunk at a time through one small
temporary; ``expm_unitary_batch`` writes the exponentials over them; and the
substep exponentials of each grid interval are composed with
``linalg.matmul_batch``, the last product straight into the interval's slice
of the transfers.  The chunk is released before the next one is sampled.  So
a pass holds its transfers, one chunk, and either the sub-block temporaries
of the Pade blocks in flight or the composition's running products (two
stacks of one matrix per interval).
``_scan_states`` turns the n transfers into the n + 1 states by a two-level
blocked scan: blocks of w = ceil(sqrt(n)) transfers, w - 1 batched in-block
prefix products, a sequential walk over the ceil(n/w) block ends for each
block's start state, and one batched matvec for all states.  That is about
n batched products and sqrt(n) Python steps where a loop takes n matvecs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, StepUnderflowError, UndefinedArgError
from .frames import SpectralFrame, TimeGrid, adiabatic_trajectory, pair_series, pair_theta
from .linalg import EXPM_BLOCK, expm_unitary_batch, matmul_batch, require_state
from .models import HamiltonianModel

#: bytes of each chunk's one stack of step matrices (samples, overwritten by
#: the generators and then by their exponentials): bounds peak memory for
#: every N; 2**17 matrices at N = 2, a whole number of ``EXPM_BLOCK`` blocks
#: at N = 8.  4 MiB chunks lower the peak further but make more pool
#: barriers per pass: slower in 8 of 10 paired benchmark runs
_CHUNK_BYTES = 8 << 20

_MIN_STEP = 1e-12


@dataclass(frozen=True, eq=False)
class EvolutionResult:
    """States sampled on a grid, with unitarity bookkeeping."""

    grid: TimeGrid
    states: np.ndarray
    norms: np.ndarray
    method: str
    substeps_per_interval: int
    total_steps: int
    max_norm_drift: float
    refinements: int
    #: max state difference between successive refinements, one per halving
    convergence: tuple[float, ...] = ()


@dataclass(frozen=True, eq=False)
class StepRule:
    """Exponential step rule on one substep [t0, t0 + dt].

    ``nodes`` are the sample points c_k as fractions of dt; row j of
    ``weights`` is factor j = exp(-i dt sum_k W[j, k] h(t0 + c_k dt)).
    Rows are listed in the order the factors are applied.  There are as many
    factors as nodes, so a pass forms the generators over the samples.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        k = np.size(self.nodes)
        if np.shape(self.weights) != (k, k):
            raise ValueError(
                f"weights must be {k}x{k} for {k} nodes, got shape {np.shape(self.weights)}"
            )


MIDPOINT = StepRule(nodes=np.array([0.5]), weights=np.array([[1.0]]))

_SQRT3 = np.sqrt(3.0)
_CF4_A1 = (3.0 - 2.0 * _SQRT3) / 12.0
_CF4_A2 = (3.0 + 2.0 * _SQRT3) / 12.0
CF4 = StepRule(
    nodes=np.array([0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0]),
    weights=np.array([[_CF4_A2, _CF4_A1], [_CF4_A1, _CF4_A2]]),
)


def _compose_intervals(step_us: np.ndarray, out: np.ndarray) -> None:
    """Product over the substep axis (time order) of (n, s, N, N) unitaries,
    the last product written straight to ``out`` (n, N, N)."""
    u = step_us[:, 0]
    for j in range(1, step_us.shape[1] - 1):
        u = matmul_batch(step_us[:, j], u)
    if step_us.shape[1] == 1:
        out[...] = u
    else:
        matmul_batch(step_us[:, -1], u, out=out)


def _factor_generators(hs: np.ndarray, weights: np.ndarray) -> None:
    """Factor j = sum_k W[j, k] h_k of every substep, as scaled sums of the
    stacked samples (n, s, nodes, N, N), written over them.

    A 32nd of the intervals at a time through one temporary, so that the
    temporaries stay small and in cache; ``weights @ hs`` is one tiny matmul
    per substep, ~3x slower at N = 2.
    """
    sub = max(1, len(hs) // 32)
    g = np.empty_like(hs[:sub])
    for r0 in range(0, len(hs), sub):
        h = hs[r0 : r0 + sub]
        g = g[: len(h)]
        for j, row in enumerate(weights):
            np.multiply(h[:, :, 0], row[0], out=g[:, :, j])
            for k in range(1, h.shape[2]):
                g[:, :, j] += row[k] * h[:, :, k]
        h[...] = g


def _interval_transfers(
    sample_h, taus: np.ndarray, substeps: int, dim: int, rule: StepRule
) -> np.ndarray:
    """Transfer matrix of every grid interval: ``substeps`` steps of ``rule``."""
    n_int = taus.size - 1
    transfers = np.empty((n_int, dim, dim), dtype=complex)
    per_interval = substeps * rule.nodes.size
    matrix_bytes = np.dtype(complex).itemsize * dim * dim
    block = max(1, _CHUNK_BYTES // (matrix_bytes * per_interval))
    # where a chunk can hold ``unit`` intervals, a whole number of
    # ``EXPM_BLOCK`` exponentials, chunks are whole units: each starts on an
    # ``EXPM_BLOCK`` boundary of the pass's stack, so the Pade degrees do not
    # depend on the chunking.  Chunk c starts at unit ceil(c U / n), so the
    # chunks differ by at most one unit and the last is never the larger: a
    # short last chunk would run its exponentials as one block on the
    # calling thread.
    unit = EXPM_BLOCK // math.gcd(EXPM_BLOCK, per_interval)
    if unit > block:
        unit = 1
    n_units = -(-n_int // unit)
    n_chunks = -(-n_units // (block // unit))
    bounds = [min(n_int, unit * -(-c * n_units // n_chunks)) for c in range(n_chunks + 1)]
    offsets = ((np.arange(substeps)[:, None] + rule.nodes[None, :]) / substeps).ravel()
    for i0, i1 in zip(bounds[:-1], bounds[1:]):
        t0 = taus[i0:i1]
        spans = taus[i0 + 1 : i1 + 1] - t0
        points = t0[:, None] + offsets[None, :] * spans[:, None]
        # the chunk's one array: its samples, overwritten by the generators
        # and then by their exponentials
        hs = np.require(sample_h(points.ravel()), dtype=complex, requirements="CW")
        hs = hs.reshape(i1 - i0, substeps, rule.nodes.size, dim, dim)
        _factor_generators(hs, rule.weights)
        hs = hs.reshape(i1 - i0, -1, dim, dim)
        dts = np.broadcast_to((spans / substeps)[:, None], hs.shape[:2])
        expm_unitary_batch(hs, dts, out=hs)
        _compose_intervals(hs, transfers[i0:i1])
        # release the chunk before the next one is sampled
        del hs
    return transfers


def _scan_states(transfers: np.ndarray, psi0: np.ndarray) -> np.ndarray:
    """States psi_0 .. psi_n with psi_{i+1} = transfers[i] @ psi_i, by the
    blocked scan of the module docstring (the last block padded with
    identities, whose products are never read)."""
    n, dim = transfers.shape[0], psi0.size
    width = math.isqrt(n - 1) + 1
    n_blocks = -(-n // width)
    prefix = np.empty((n_blocks * width, dim, dim), dtype=complex)
    prefix[:n] = transfers
    prefix[n:] = np.eye(dim)
    prefix = prefix.reshape(n_blocks, width, dim, dim)
    for j in range(1, width):
        prefix[:, j] = matmul_batch(prefix[:, j], prefix[:, j - 1])
    starts = np.empty((n_blocks, dim), dtype=complex)
    starts[0] = psi0
    for b in range(1, n_blocks):
        starts[b] = prefix[b - 1, -1] @ starts[b - 1]
    states = np.empty((n + 1, dim), dtype=complex)
    states[0] = psi0
    states[1:] = (prefix @ starts[:, None, :, None]).reshape(-1, dim)[:n]
    return states


def _propagate_fixed(
    sample_h, psi0: np.ndarray, taus: np.ndarray, substeps: int, rule: StepRule
) -> np.ndarray:
    transfers = _interval_transfers(sample_h, taus, substeps, psi0.size, rule)
    return _scan_states(transfers, psi0)


#: refinement aborts once a single pass would exceed this many substeps
_MAX_TOTAL_SUBSTEPS = 1 << 25


def _adaptive_states(
    sample_h, psi0: np.ndarray, grid: TimeGrid, tol: float
) -> tuple[np.ndarray, int, tuple[float, ...]]:
    """Halve CF4 substeps until successive refinements agree below tol.

    Returns the states, the substeps per interval and the convergence trail.
    """
    taus = grid.samples
    substeps = 1
    trail = []
    states = _propagate_fixed(sample_h, psi0, taus, substeps, CF4)
    while True:
        if np.max(np.diff(taus)) / (2 * substeps) < _MIN_STEP:
            raise StepUnderflowError(
                f"substep below {_MIN_STEP:g} before reaching tol {tol:g}"
            )
        if 2 * substeps * (taus.size - 1) > _MAX_TOTAL_SUBSTEPS:
            last = f"; last refinement difference {trail[-1]:.3g}" if trail else ""
            raise StepUnderflowError(
                f"no convergence below tol {tol:g} within the budget of "
                f"{_MAX_TOTAL_SUBSTEPS} substeps per pass{last}"
            )
        finer = _propagate_fixed(sample_h, psi0, taus, 2 * substeps, CF4)
        trail.append(float(np.max(np.linalg.norm(finer - states, axis=1))))
        states, substeps = finer, 2 * substeps
        if trail[-1] <= max(tol, 5e-14):
            return states, substeps, tuple(trail)


def _result(grid, states, method, substeps, trail) -> EvolutionResult:
    norms = np.linalg.norm(states, axis=1)
    return EvolutionResult(
        grid=grid,
        states=states,
        norms=norms,
        method=method,
        substeps_per_interval=substeps,
        total_steps=substeps * (grid.n - 1),
        max_norm_drift=float(np.max(np.abs(norms - 1.0))),
        refinements=len(trail),
        convergence=trail,
    )


def evolve_schrodinger(
    model: HamiltonianModel,
    psi0: np.ndarray,
    grid: TimeGrid,
    tol: float = 1e-9,
) -> EvolutionResult:
    """Integrate i dpsi/dtau = h(tau) psi from the first grid sample."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    psi0 = require_state(psi0)
    if psi0.size != model.dim:
        raise GridMismatchError(f"state dim {psi0.size} != model dim {model.dim}")
    states, substeps, trail = _adaptive_states(model.sample, psi0, grid, tol)
    return _result(grid, states, "schrodinger", substeps, trail)


def schrodinger_fixed_step(
    model: HamiltonianModel,
    psi0: np.ndarray,
    grid: TimeGrid,
    substeps: int,
    *,
    rule: StepRule = MIDPOINT,
) -> np.ndarray:
    """Fixed-substep states (used by convergence-order tests)."""
    return _propagate_fixed(model.sample, require_state(psi0), grid.samples, substeps, rule)


def _coupling_pairs(frame: SpectralFrame) -> list[tuple[int, int, np.ndarray, np.ndarray]]:
    """(m, n, |gamma_mn|, unwrapped theta_mn) for each m < n with a coupling.

    Uncoupled pairs are skipped; a partly coupled one raises UndefinedArg.
    """
    pairs = []
    for m in range(frame.dim):
        for n in range(m + 1, frame.dim):
            series = pair_series(frame, n, m)  # |gamma_mn| and arg gamma_mn
            if series.coupling == "uncoupled":
                continue
            if series.coupling == "partial":
                raise UndefinedArgError(f"|gamma_{m}{n}| vanishes on part of the grid; M undefined")
            pairs.append((m, n, series.gamma_abs, pair_theta(frame, series)))
    return pairs


def evolve_coefficients(
    frame: SpectralFrame,
    c0: np.ndarray,
    tol: float = 1e-9,
) -> EvolutionResult:
    """Integrate c' = i M(tau) c on the frame grid (generator -M, Hermitian).

    M_mn = |gamma_mn| e^{i theta_mn} for each pair of ``_coupling_pairs``,
    M_nm = conj(M_mn), and zero elsewhere, the diagonal included.  Between
    frame samples, |gamma_mn| and the unwrapped theta_mn are interpolated
    linearly and recombined, which is exact whenever the phase rate is
    constant and avoids the |theta_dot|^2 error of interpolating the complex
    M directly.
    """
    c0 = require_state(c0)
    if c0.size != frame.dim:
        raise GridMismatchError(f"coefficient dim {c0.size} != frame dim {frame.dim}")
    dim = frame.dim
    taus = frame.grid.samples
    pairs = _coupling_pairs(frame)

    def sample_generator(ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        out = np.zeros((ts.size, dim, dim), dtype=complex)
        for m, n, magnitude, theta in pairs:
            entry = np.interp(ts, taus, magnitude) * np.exp(
                1j * np.interp(ts, taus, theta)
            )
            out[:, m, n] = entry
            out[:, n, m] = np.conjugate(entry)
        return -out

    states, substeps, trail = _adaptive_states(sample_generator, c0, frame.grid, tol)
    return _result(frame.grid, states, "coefficients", substeps, trail)


def reconstruct_state(frame: SpectralFrame, coefficients: EvolutionResult) -> np.ndarray:
    """sum_n c_n(tau) |Phi_n^adia(tau)> on the frame grid; shape (K, N)."""
    if coefficients.grid is not frame.grid and not np.array_equal(
        coefficients.grid.samples, frame.grid.samples
    ):
        raise GridMismatchError("coefficient result lives on a different grid")
    out = np.zeros((frame.n_samples, frame.dim), dtype=complex)
    for n in range(frame.dim):
        traj = adiabatic_trajectory(frame, n)
        out += coefficients.states[:, n][:, None] * traj.states
    return out
