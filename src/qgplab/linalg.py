"""Dense complex linear algebra for small N (2 <= N <= ~16).

Hermitian eigendecomposition, unitary matrix exponentials, and the
Hermiticity and unit-norm checks the rest of the package leans on.
Everything operates on plain ``numpy`` arrays; eigenvectors are stored as
matrix *columns*.

Batched exponentials exp(-i H t) take the closed 2x2 Pauli form for N = 2
and scaling-and-squaring diagonal Pade for N > 2 (Higham, SIAM J. Matrix
Anal. Appl. 26, 2005; Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31,
2009).  With A = -i H t skew-Hermitian, split the [m/m] approximant into
its odd part U = A sum_k b_{2k+1} A^{2k} and even part
V = sum_k b_{2k} A^{2k}; then r_m(A) = (V - U)^{-1} (V + U).  V is
Hermitian and U skew-Hermitian, so with Q = V - U, a polynomial in the
normal matrix A and hence normal, V + U = Q^dagger and
r_m(A) = Q^{-1} Q^dagger is unitary in exact arithmetic (equivalently
|r_m(iy)| = 1 for real y).  The degree m in {3, 5, 7, 9, 13} is the
smallest whose theta_m (Higham 2005, Table 2.3: backward error below
2^-53) bounds the largest ||A||_1 of a block; above theta_13, A is divided
by 2^s and the result squared s times.  The single-matrix ``expm_unitary``
keeps the spectral route and serves as the oracle of the batched one.
``expm_unitary_batch`` takes a numpy-style ``out``, which may be the
generator stack itself.  Each block of ``EXPM_BLOCK`` matrices forms its A
in its own slice of ``out`` and picks its degree and squarings from the
whole block; the approximant is then evaluated in sub-blocks of 256
matrices, each written over its A, so a block's temporaries are a few
sub-blocks: U and V are summed in place and Q = V - U overwrites the
sub-block's A.  The Pauli form also runs block by block, on the calling
thread, so its elementwise temporaries are one block's worth.

``matmul_batch`` multiplies stacks of matrices.  ``np.matmul`` pays a fixed
cost per 2x2 product in a stack (~0.4 us), so for N = 2 it forms the four
entries as elementwise products of the stacked entries, 5-7x faster on
(16384, 2, 2) stacks and equal to ``@`` at rounding level; for N > 2 it is
``@``.

The batched kernels split their stacks across threads.  ``for_blocks``
runs the N > 2 exponential, ``eigh_batch``, the ``fourier`` model's
sample sums and the per-sample stages of ``frames.build_frame`` (diagonal
overlaps, transport phases, gamma assembly) on a thread pool, one fixed
contiguous block of the leading axis per task, each task writing a disjoint
slice of an output allocated beforehand.  numpy releases the interpreter
lock inside LAPACK, ``matmul`` and ``einsum``, so the blocks run in
parallel.  The pool is created on first use with one worker per CPU the
process may run on (``os.sched_getaffinity``); with one such CPU, or one
block, the blocks run inline on the calling thread, and there is no option.  The bytes do not
depend on the thread count: the block boundaries are fixed (``EXPM_BLOCK``
from index 0), every result is computed per matrix within its block, and
the exponential picks its Pade degree and squarings per block, exactly as
an inline loop over the same blocks does.  The public functions themselves
(``eigh_batch``, ``expm_unitary_batch``, ``model.sample``,
``model.sample_derivative``, ``numerics.derivative_series``) always run on
the calling thread; only the blocks they hand to ``for_blocks`` run on the
pool.
"""

from __future__ import annotations

import math
import os
import threading
from contextvars import copy_context
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, NotHermitianError

# Pauli matrices, used by every built-in model.
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: matrices per block of the batched kernels (bounds their temporaries and
#: fixes where the N > 2 exponential picks its Pade degree)
EXPM_BLOCK = 1024
#: matrices per sub-block of the N > 2 Pade evaluation (bounds its temporaries)
_PADE_SUB_BLOCK = 256

#: the pool of ``for_blocks``, created on first use
_pool = None
_pool_lock = threading.Lock()
#: ``worker`` is set on the pool's own threads
_local = threading.local()

#: (m, theta_m) of Higham (2005), Table 2.3, ascending in m
_PADE_THETA = (
    (3, 1.495585217958292e-2),
    (5, 2.539398330063230e-1),
    (7, 9.504178996162932e-1),
    (9, 2.097847961257068e0),
    (13, 5.371920351148152e0),
)
#: [m/m] Pade coefficients b_j = (2m - j)! m! / ((2m)! j! (m - j)!) of exp;
#: b_0 = 1 makes r_m(0) = solve(I, I) exactly the identity
_PADE_COEFFS = {
    m: [
        math.factorial(2 * m - j) * math.factorial(m)
        / (math.factorial(2 * m) * math.factorial(j) * math.factorial(m - j))
        for j in range(m + 1)
    ]
    for m, _ in _PADE_THETA
}


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
    if not np.isfinite(h).all():
        raise NotHermitianError("matrix contains non-finite entries")
    tol = default_hermiticity_tol(h)
    defect = hermiticity_defect(h)
    if defect > tol:
        raise NotHermitianError(
            f"Hermiticity defect {defect:.3e} exceeds tolerance {tol:.3e}"
        )
    return 0.5 * (h + dagger(h))


def require_state(psi: np.ndarray) -> np.ndarray:
    """Validate that psi is a unit vector within 1e-12."""
    psi = np.asarray(psi, dtype=complex).reshape(-1)
    nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > 1e-12:
        raise ValueError(f"state norm {nrm!r} deviates from 1 by more than 1e-12")
    return psi


@dataclass(frozen=True)
class EigenSystem:
    """Instantaneous eigensystem: ascending eigenvalues, orthonormal columns."""

    values: np.ndarray
    vectors: np.ndarray


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
    return EigenSystem(values=values, vectors=vectors)


def for_blocks(fn, n: int, block: int) -> None:
    """Call ``fn(k0, k1)`` for the blocks [0, block), [block, 2 block), ...
    of range(n), on the pool of the module docstring.

    Runs inline when one CPU is usable, when there is one block, or when
    called from a worker of the pool.  Waits for every block, then raises
    the error of the first block that failed.
    """
    bounds = [(k0, min(k0 + block, n)) for k0 in range(0, n, block)]
    workers = min(len(os.sched_getaffinity(0)), len(bounds))
    if workers <= 1 or getattr(_local, "worker", False):
        for k0, k1 in bounds:
            fn(k0, k1)
        return
    from concurrent.futures import ThreadPoolExecutor, wait

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                len(os.sched_getaffinity(0)), initializer=setattr, initargs=(_local, "worker", True)
            )
    # each block runs in a copy of the caller's context, so np.errstate holds there
    futures = [_pool.submit(copy_context().run, fn, k0, k1) for k0, k1 in bounds]
    wait(futures)
    for future in futures:
        future.result()


def eigh_batch(hs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Hermitian eigendecomposition over the leading axis.

    Symmetrizes each block of the stack (callers guarantee
    near-Hermiticity) and returns (values (K, N), vectors (K, N, N)).
    Raises NotHermitianError on non-finite entries.
    """
    hs = np.asarray(hs)
    flat = hs.reshape(-1, *hs.shape[-2:])
    dtype = np.result_type(hs.dtype, 0.5)
    values = np.empty(flat.shape[:-1], dtype=np.finfo(dtype).dtype)
    vectors = np.empty(flat.shape, dtype=dtype)

    def block(k0, k1):
        h = flat[k0:k1]
        if not np.isfinite(h).all():
            raise NotHermitianError("matrix stack contains non-finite entries")
        values[k0:k1], vectors[k0:k1] = np.linalg.eigh(0.5 * (h + dagger(h)))

    for_blocks(block, flat.shape[0], EXPM_BLOCK)
    return values.reshape(hs.shape[:-1]), vectors.reshape(hs.shape)


def expm_unitary(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) via spectral decomposition; unitary by construction."""
    system = eigh(h)
    phases = np.exp(-1j * system.values * t)
    return (system.vectors * phases) @ dagger(system.vectors)


def expm_unitary_batch(
    hs: np.ndarray, ts: np.ndarray | float, out: np.ndarray | None = None
) -> np.ndarray:
    """Batched exp(-i H_k t_k) for a stack (..., N, N) of Hermitian matrices.

    Both routes work on blocks of ``EXPM_BLOCK`` matrices of the flattened
    stack.  N = 2 takes the closed Pauli form, block by block on the calling
    thread.  N > 2 takes scaling-and-squaring diagonal Pade on the pool (see
    the module docstring): unitary by construction, a few matmuls and one
    batched ``solve`` per sub-block of ``_PADE_SUB_BLOCK`` matrices, with the
    degree and the squarings picked from the largest ||H_k t_k||_1 of the
    block.  Each block forms its A = -i H t in its own slice of ``out``, a
    sub-block at a time, and the approximant overwrites A.  On 16,380 random
    8x8 generators at the evolution step scale (||H t||_2 <= 0.028) it is
    2.3e-15 from the spectral route with unitarity defect 1.1e-15 (spectral
    route: 4.4e-15); at ||A||_1 = 1e3 (8 squarings) the defect stays
    <= 1e-13 for N <= 16.

    The result is written to ``out`` when given, a complex array of the
    shape of ``hs``, which may be ``hs`` itself: each sub-block reads its
    matrices before it writes them.  The bytes do not depend on ``out``.
    """
    hs = np.asarray(hs, dtype=complex)
    ts = np.broadcast_to(np.asarray(ts, dtype=float), hs.shape[:-2])
    if out is None:
        out = np.empty(hs.shape, dtype=complex)
    elif out.shape != hs.shape or out.dtype != complex:
        raise ValueError(f"out must be a complex array of shape {hs.shape}")
    dim = hs.shape[-1]
    flat_hs = hs.reshape(-1, dim, dim)
    flat_ts = ts.reshape(-1)
    flat_out = out.reshape(-1, dim, dim)
    n = flat_hs.shape[0]
    if dim == 2:
        # inline: each block is a run of small ufunc calls that hold the lock
        for k0 in range(0, n, EXPM_BLOCK):
            k1 = min(k0 + EXPM_BLOCK, n)
            _expm_pauli_batch(flat_hs[k0:k1], flat_ts[k0:k1], flat_out[k0:k1])
    else:

        def block(k0, k1):
            for j0 in range(k0, k1, _PADE_SUB_BLOCK):
                j1 = min(j0 + _PADE_SUB_BLOCK, k1)
                h, a = flat_hs[j0:j1], flat_out[j0:j1]
                np.add(h, dagger(h), out=a)
                a *= (-0.5j * flat_ts[j0:j1])[:, None, None]
            _pade_unitary(flat_out[k0:k1])

        for_blocks(block, n, EXPM_BLOCK)
    if not np.may_share_memory(flat_out, out):  # out's leading axes did not flatten
        out[...] = flat_out.reshape(out.shape)
    return out


def _pade_unitary(a: np.ndarray) -> np.ndarray:
    """exp(a) for a block of skew-Hermitian matrices by diagonal Pade,
    written over ``a``, which is returned.

    The degree and the squarings come from the largest ||A||_1 of the whole
    block; the approximant is then evaluated ``_PADE_SUB_BLOCK`` matrices at
    a time.  The even powers are summed into U and V as they are formed,
    and b_1 I and b_0 I are added last, so every entry is rounded as in
    b_1 I + sum_k b_{2k+3} A^{2k+2} and its even counterpart.
    """
    norm = float(np.abs(a).sum(axis=-2).max())
    if not math.isfinite(norm):
        raise NotHermitianError("generator contains non-finite entries")
    squarings = 0
    for m, theta in _PADE_THETA:
        if norm <= theta:
            break
    else:
        squarings = math.ceil(math.log2(norm / theta))
        a *= 0.5**squarings
    b = _PADE_COEFFS[m]
    n = a.shape[-1]
    for j0 in range(0, len(a), _PADE_SUB_BLOCK):
        sub = a[j0 : j0 + _PADE_SUB_BLOCK]
        square = sub @ sub
        odd, even = b[3] * square, b[2] * square
        power = square
        for k in range(1, m // 2):
            power = power @ square
            odd += b[2 * k + 3] * power
            even += b[2 * k + 2] * power
        del square, power
        odd.reshape(len(odd), n * n)[:, :: n + 1] += b[1]
        even.reshape(len(even), n * n)[:, :: n + 1] += b[0]
        odd = sub @ odd
        np.subtract(even, odd, out=sub)
        even += odd
        del odd
        r = np.linalg.solve(sub, even)
        del even
        for _ in range(squarings):
            r = r @ r
        sub[...] = r
    return a


def matmul_batch(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` over broadcast stacks of square matrices (..., N, N);
    elementwise for N = 2 (see the module docstring).  Writes to ``out`` when
    given, which must not overlap ``a`` or ``b``."""
    if a.shape[-2:] != (2, 2) or b.shape[-2:] != (2, 2):
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    out[..., 0, 0] = a00 * b00 + a01 * b10
    out[..., 0, 1] = a00 * b01 + a01 * b11
    out[..., 1, 0] = a10 * b00 + a11 * b10
    out[..., 1, 1] = a10 * b01 + a11 * b11
    return out


def _expm_pauli_batch(hs: np.ndarray, ts: np.ndarray, out: np.ndarray) -> None:
    """exp(-i(a*I + b.sigma)t) = e^{-iat}(cos|b|t I - i sin|b|t bhat.sigma)
    for a block (K, 2, 2), written to ``out``; a, b are copied out of ``hs``
    first, so ``out`` may be ``hs``."""
    a = 0.5 * (hs[..., 0, 0] + hs[..., 1, 1]).real
    bz = 0.5 * (hs[..., 0, 0] - hs[..., 1, 1]).real
    bx = hs[..., 0, 1].real.copy()
    by = -hs[..., 0, 1].imag
    bnorm = np.sqrt(bx * bx + by * by + bz * bz)
    angle = bnorm * ts
    cos_a = np.cos(angle)
    # sin(|b|t)/|b| via sinc keeps the |b| -> 0 limit exact.
    sin_over = ts * np.sinc(angle / np.pi)
    phase = np.exp(-1j * a * ts)
    out[..., 0, 0] = phase * (cos_a - 1j * sin_over * bz)
    out[..., 1, 1] = phase * (cos_a + 1j * sin_over * bz)
    out[..., 0, 1] = phase * (-1j * sin_over * (bx - 1j * by))
    out[..., 1, 0] = phase * (-1j * sin_over * (bx + 1j * by))
