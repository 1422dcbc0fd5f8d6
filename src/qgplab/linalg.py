"""Dense complex linear algebra for small N (2 <= N <= ~16).

Hermitian eigendecomposition, unitary matrix exponentials, and the
Hermiticity and unit-norm checks the rest of the package leans on.
Everything operates on plain ``numpy`` arrays; eigenvectors are stored as
matrix *columns*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, NotHermitianError

# Pauli matrices, used by every built-in model.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Relative gap below which eigh flags a spectrum as degenerate.
DEGENERACY_RTOL = 1e-10


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose acting on the last two axes."""
    return np.conjugate(np.swapaxes(a, -1, -2))


def max_abs(a: np.ndarray) -> float:
    """Largest entry magnitude (0.0 for empty input)."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermiticity_defect(h: np.ndarray) -> float:
    """Max-entry norm of H - H^dagger."""
    return max_abs(h - dagger(h))


def default_hermiticity_tol(h: np.ndarray) -> float:
    """1e-10 times the largest entry magnitude (with an absolute floor)."""
    return 1e-10 * max(max_abs(h), 1.0)


def require_hermitian(h: np.ndarray) -> np.ndarray:
    """Validate Hermiticity and return the exactly-Hermitian part.

    Raises NotHermitianError if the defect exceeds
    ``default_hermiticity_tol``.  The returned matrix is (H + H^dagger)/2 so
    downstream spectral routines see an exactly self-adjoint input.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h.view(float))):
        raise NotHermitianError("matrix contains non-finite entries")
    tol = default_hermiticity_tol(h)
    defect = hermiticity_defect(h)
    if defect > tol:
        raise NotHermitianError(
            f"Hermiticity defect {defect:.3e} exceeds tolerance {tol:.3e}"
        )
    return 0.5 * (h + dagger(h))


def require_state(psi: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Validate that psi is a unit vector within ``tol``."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > tol:
        raise ValueError(f"state norm {nrm!r} deviates from 1 by more than {tol}")
    return psi


@dataclass(frozen=True)
class EigenSystem:
    """Instantaneous eigensystem: ascending eigenvalues, orthonormal columns.

    ``degenerate`` is True when some gap is below DEGENERACY_RTOL times the
    spectral radius; eigh permits this but downstream frame building rejects
    it via its own gap floor.
    """

    values: np.ndarray
    vectors: np.ndarray
    degenerate: bool

    @property
    def dim(self) -> int:
        return self.values.shape[0]


def eigh(h: np.ndarray) -> EigenSystem:
    """Hermitian eigendecomposition with ascending eigenvalues.

    Per-eigenvector phase is arbitrary here; gauge fixing happens in the
    spectral-flow layer.
    """
    h = require_hermitian(h)
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    radius = max(float(np.max(np.abs(values))), 1.0)
    gaps = np.diff(values)
    degenerate = bool(values.size > 1 and np.min(gaps) < DEGENERACY_RTOL * radius)
    return EigenSystem(values=values, vectors=vectors, degenerate=degenerate)


def eigh_batch(hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Hermitian eigendecomposition over the leading axis.

    Symmetrizes the stack (callers guarantee near-Hermiticity) and returns
    (values (K, N), vectors (K, N, N)).
    """
    hs = 0.5 * (hs + dagger(hs))
    return np.linalg.eigh(hs)


def expm_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) via spectral decomposition; unitary by construction."""
    system = eigh(h)
    phases = np.exp(-1j * system.values * t)
    return (system.vectors * phases) @ dagger(system.vectors)


def expm_unitary_batch(hs: np.ndarray, ts: np.ndarray | float) -> np.ndarray:
    """Batched exp(-i H_k t_k) for a stack of Hermitian matrices.

    Uses the closed 2x2 Pauli form when possible (much faster than batched
    eigh and exactly unitary); falls back to batched eigh otherwise.
    """
    hs = np.asarray(hs, dtype=complex)
    ts = np.broadcast_to(np.asarray(ts, dtype=float), hs.shape[:-2])
    if hs.shape[-1] == 2:
        return _expm_pauli_batch(hs, ts)
    values, vectors = eigh_batch(hs)
    phases = np.exp(-1j * values * ts[..., None])
    return np.einsum("...ij,...j,...kj->...ik", vectors, phases, vectors.conj())


def _expm_pauli_batch(hs: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """exp(-i(a*I + b.sigma)t) = e^{-iat}(cos|b|t I - i sin|b|t bhat.sigma)."""
    a = 0.5 * (hs[..., 0, 0] + hs[..., 1, 1]).real
    bz = 0.5 * (hs[..., 0, 0] - hs[..., 1, 1]).real
    bx = hs[..., 0, 1].real
    by = -hs[..., 0, 1].imag
    bnorm = np.sqrt(bx * bx + by * by + bz * bz)
    angle = bnorm * ts
    cos_a = np.cos(angle)
    # sin(|b|t)/|b| via sinc keeps the |b| -> 0 limit exact.
    sin_over = ts * np.sinc(angle / np.pi)
    phase = np.exp(-1j * a * ts)
    out = np.empty(hs.shape, dtype=complex)
    out[..., 0, 0] = phase * (cos_a - 1j * sin_over * bz)
    out[..., 1, 1] = phase * (cos_a + 1j * sin_over * bz)
    out[..., 0, 1] = phase * (-1j * sin_over * (bx - 1j * by))
    out[..., 1, 0] = phase * (-1j * sin_over * (bx + 1j * by))
    return out
