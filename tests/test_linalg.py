import math
import os
import threading
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from qgplab import linalg, models
from qgplab.errors import NoConvergenceError, NotHermitianError
from qgplab.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, eigh_batch, expm_unitary


def char_poly_coeffs(h: np.ndarray) -> np.ndarray:
    """det(lambda I - H) coefficients by the Faddeev-LeVerrier trace
    recursion (no eigendecomposition involved)."""
    n = h.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(h)
    for k in range(1, n + 1):
        m = h @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(h @ m).real / k
    return coeffs


def bracketed_roots(coeffs: np.ndarray, lo: float, hi: float, n_scan: int = 20000):
    """Real roots of a monic real polynomial by sign scanning + bisection."""
    xs = np.linspace(lo, hi, n_scan)
    vals = np.polyval(coeffs, xs)
    roots = []
    for i in range(n_scan - 1):
        a, b = xs[i], xs[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(a)
            continue
        if fa * fb < 0:
            for _ in range(200):
                mid = 0.5 * (a + b)
                fm = np.polyval(coeffs, mid)
                if fa * fm <= 0:
                    b = mid
                else:
                    a, fa = mid, fm
                if b - a < 1e-14 * max(1.0, abs(mid)):
                    break
            roots.append(0.5 * (a + b))
    return np.array(roots)


class TestEigh:
    """``eigh_batch``, the one eigensolver, on single matrices, and the input
    checks of ``expm_unitary``, its single-matrix caller."""

    def test_sigma_z(self):
        values, vectors = eigh_batch(SIGMA_Z)
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-14)
        # lower level is |1> = (0,1), upper is |0> = (1,0), up to phase
        assert abs(abs(vectors[1, 0]) - 1.0) < 1e-14
        assert abs(abs(vectors[0, 1]) - 1.0) < 1e-14

    def test_sigma_x(self):
        values, vectors = eigh_batch(SIGMA_X)
        np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-14)
        minus, plus = vectors[:, 0], vectors[:, 1]
        r = 1.0 / np.sqrt(2.0)
        assert abs(abs(np.vdot([r, -r], minus)) - 1.0) < 1e-12
        assert abs(abs(np.vdot([r, r], plus)) - 1.0) < 1e-12

    def test_matches_characteristic_polynomial_roots(self, rng):
        h = random_hermitian(rng, 4)
        coeffs = char_poly_coeffs(h)
        radius = np.max(np.sum(np.abs(h), axis=1)) + 1.0
        roots = np.sort(bracketed_roots(coeffs, -radius, radius))
        values, _ = eigh_batch(h)
        assert roots.size == 4
        np.testing.assert_allclose(values, roots, atol=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError, match="^Hermiticity defect "):
            expm_unitary(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), 1.0)
        with pytest.raises(NotHermitianError, match="^expected a square matrix"):
            expm_unitary(np.zeros((2, 3)), 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(NotHermitianError, match="^matrix contains non-finite entries$"):
            expm_unitary(np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex), 1.0)

    def test_lapack_failure_is_no_convergence(self, monkeypatch):
        def fail(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NoConvergenceError, match="^Eigenvalues did not converge$"):
            eigh_batch(SIGMA_Z)
        with pytest.raises(NoConvergenceError, match="^Eigenvalues did not converge$"):
            eigh_batch(np.stack([SIGMA_Z] * 3))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_batch_rejects_non_finite(self, rng, value):
        hs = np.stack([random_hermitian(rng, 3) for _ in range(3)])
        hs[1, 2, 0] = value
        with pytest.raises(NotHermitianError, match="non-finite"):
            eigh_batch(hs)

    def test_accepts_non_contiguous_input(self, rng):
        # transposes and strided slices have a non-contiguous last axis
        h = random_hermitian(rng, 3)
        sub = random_hermitian(rng, 6)[::2, ::2]
        for view in (h.T, sub):
            assert not view.flags.c_contiguous
            np.testing.assert_array_equal(eigh_batch(view)[0], eigh_batch(view.copy())[0])
            np.testing.assert_array_equal(
                expm_unitary(view, 0.3), expm_unitary(view.copy(), 0.3)
            )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
    def test_reconstruction_and_trace(self, seed, n):
        h = random_hermitian(np.random.default_rng(seed), n)
        values, v = eigh_batch(h)
        # V^dag H V diagonal within 1e-10
        diag = v.conj().T @ h @ v
        off = diag - np.diag(np.diag(diag))
        assert np.max(np.abs(off)) < 1e-10 * max(1.0, np.max(np.abs(values)))
        assert abs(np.trace(h).real - np.sum(values)) < 1e-10 * max(
            1.0, np.sum(np.abs(values))
        )
        # residuals and unitarity
        resid = h @ v - v * values
        assert np.max(np.abs(resid)) < 1e-10 * max(1.0, np.max(np.abs(h)))
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-10
        assert np.all(np.diff(values) >= 0)


class TestRequireHermitian:
    def test_rejects_non_square(self):
        with pytest.raises(NotHermitianError, match=r"^expected a square matrix, got shape \(2, 3\)$"):
            linalg.require_hermitian(np.zeros((2, 3)))


class TestExpmUnitary:
    def test_zero_generator(self):
        np.testing.assert_allclose(expm_unitary(np.zeros((3, 3)), 7.3), np.eye(3), atol=1e-14)

    def test_sigma_z_diagonal_phases(self):
        u = expm_unitary(SIGMA_Z, np.pi / 2)
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        np.testing.assert_allclose(u, expected, atol=1e-14)

    def test_matches_pade_exponential(self, rng):
        h = random_hermitian(rng, 3)
        u = expm_unitary(h, 0.7)
        ref = scipy.linalg.expm(-1j * h * 0.7)
        np.testing.assert_allclose(u, ref, atol=1e-11)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_semigroup_and_unitarity(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, 4)
        t1, t2 = rng.uniform(-2, 2, 2)
        u12 = expm_unitary(h, t1 + t2)
        np.testing.assert_allclose(u12, expm_unitary(h, t1) @ expm_unitary(h, t2), atol=1e-10)
        assert np.max(np.abs(u12 @ u12.conj().T - np.eye(4))) < 1e-11
        assert abs(abs(np.linalg.det(u12)) - 1.0) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            expm_unitary(np.array([[0.0, 2.0], [0.0, 0.0]]), 1.0)

    def test_pauli_fast_path_matches_eigh_route(self, rng):
        hs = np.stack([random_hermitian(rng, 2) for _ in range(8)])
        ts = rng.uniform(-3, 3, 8)
        fast = linalg.expm_unitary_batch(hs, ts)
        slow = np.stack([expm_unitary(hs[i], ts[i]) for i in range(8)])
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_sigma_y_consistency(self):
        u = expm_unitary(SIGMA_Y, np.pi / 2)
        # rotation by pi about y up to phase: |0> -> |1> direction
        psi = u @ np.array([1.0, 0.0])
        assert abs(abs(psi[1]) - 1.0) < 1e-12


class TestMatmulBatch:
    """The elementwise N = 2 product against ``@``."""

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((64, 2, 2), (64, 2, 2)),
        ((3, 1, 2, 2), (4, 2, 2)),
        ((2, 2), (5, 2, 2)),
        ((7, 2, 2), (2, 2)),
        ((5, 3, 3), (1, 3, 3)),
        ((6, 2, 2), (6, 2, 3)),
    ])
    def test_matches_matmul(self, rng, a_shape, b_shape):
        a = rng.normal(size=a_shape) + 1j * rng.normal(size=a_shape)
        b = rng.normal(size=b_shape) + 1j * rng.normal(size=b_shape)
        out, expected = linalg.matmul_batch(a, b), a @ b
        assert out.shape == expected.shape
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)

    def test_strided_and_real_operands(self, rng):
        stack = rng.normal(size=(40, 3, 2, 2)) + 1j * rng.normal(size=(40, 3, 2, 2))
        a = stack[:, 1].swapaxes(-1, -2)
        b = rng.normal(size=(40, 2, 2))
        out = linalg.matmul_batch(a, b)
        assert out.dtype == complex
        np.testing.assert_allclose(out, a @ b, rtol=0, atol=1e-14)


def unitarity_defect(us: np.ndarray) -> float:
    return float(np.max(np.abs(us @ linalg.dagger(us) - np.eye(us.shape[-1]))))


def unit_one_norm_stack(rng, shape, n):
    """Random Hermitian matrices of the given leading shape with ||h||_1 = 1."""
    hs = np.stack([random_hermitian(rng, n) for _ in range(int(np.prod(shape)))])
    hs /= np.abs(hs).sum(axis=-2).max(axis=-1)[:, None, None]
    return hs.reshape(*shape, n, n)


class TestExpmBatchPade:
    """The N > 2 batch route against the spectral ``expm_unitary`` oracle."""

    # just below each theta_m reaches every degree; 1e3 needs 8 squarings
    NORMS = [1e-8] + [0.9 * theta for _, theta in linalg._PADE_THETA] + [40.0, 1e3]

    @pytest.mark.parametrize("n", [3, 4, 8, 16])
    @pytest.mark.parametrize("norm", NORMS)
    def test_matches_spectral_oracle(self, rng, n, norm):
        hs = unit_one_norm_stack(rng, (3, 2), n)
        # both signs and zero; the largest |t| makes max ||A||_1 = norm
        ts = norm * np.array([[1.0, -0.5], [0.0, -1.0], [0.25, 0.7]])
        us = linalg.expm_unitary_batch(hs, ts)
        assert us.shape == (3, 2, n, n)
        oracle = np.array(
            [[expm_unitary(hs[i, j], ts[i, j]) for j in range(2)] for i in range(3)]
        )
        np.testing.assert_allclose(us, oracle, rtol=0, atol=1e-14 * max(1.0, norm))
        assert unitarity_defect(us) <= 1e-12
        np.testing.assert_array_equal(us[1, 0], np.eye(n))

    @pytest.mark.parametrize("n", [3, 8])
    def test_zero_generator_is_exact_identity(self, n):
        us = linalg.expm_unitary_batch(np.zeros((4, n, n)), np.array([-2.0, 0.0, 1e-3, 7.3]))
        np.testing.assert_array_equal(us, np.broadcast_to(np.eye(n), (4, n, n)))

    def test_blocks_pick_their_own_degree(self, rng):
        # one large-norm matrix in the second block only
        k = linalg.EXPM_BLOCK + 5
        hs = unit_one_norm_stack(rng, (k,), 4)
        ts = rng.uniform(-0.01, 0.01, k)
        ts[linalg.EXPM_BLOCK + 2] = 300.0
        us = linalg.expm_unitary_batch(hs, ts)
        oracle = np.stack([expm_unitary(h, t) for h, t in zip(hs, ts)])
        np.testing.assert_allclose(us, oracle, rtol=0, atol=1e-11)
        assert unitarity_defect(us) <= 1e-12
        first = linalg.expm_unitary_batch(hs[: linalg.EXPM_BLOCK], ts[: linalg.EXPM_BLOCK])
        np.testing.assert_array_equal(us[: linalg.EXPM_BLOCK], first)

    def test_rejects_non_finite_generator(self):
        hs = np.zeros((2, 3, 3), dtype=complex)
        hs[1, 0, 0] = np.nan
        with pytest.raises(NotHermitianError):
            linalg.expm_unitary_batch(hs, 1.0)


def hermitian_stack(rng, k, n):
    a = rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))
    return 0.5 * (a + linalg.dagger(a))


def usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


class TestForBlocks:
    """The kernels split by ``for_blocks`` against the same calls run inline.

    Two usable CPUs are patched in, so that the pool runs on any host.
    """

    @pytest.fixture
    def pade_threads(self, monkeypatch):
        """Thread of each ``_pade_unitary`` call, in call order."""
        threads = []
        original = linalg._pade_unitary

        def recorded(a):
            threads.append(threading.get_ident())
            return original(a)

        monkeypatch.setattr(linalg, "_pade_unitary", recorded)
        return threads

    @staticmethod
    def inline(monkeypatch, call):
        with monkeypatch.context() as patch:
            usable_cpus(patch, 1)
            return call()

    def test_blocked_exponentials_equal_inline(self, rng, monkeypatch, pade_threads):
        usable_cpus(monkeypatch, 2)
        block = linalg.EXPM_BLOCK
        k = 5 * block + 77
        hs = hermitian_stack(rng, k, 8)
        hs /= np.abs(hs).sum(axis=-2).max(axis=-1)[:, None, None]
        # max ||A||_1 of each block: degrees 3, 5, 7 and 13, then 4 and 9 squarings
        scales = np.repeat([1e-2, 0.2, 0.9, 5.0, 80.0, 2e3], block)[:k]
        ts = scales * rng.uniform(-1.0, 1.0, k)
        ts[::block] = scales[::block]
        us = linalg.expm_unitary_batch(hs, ts)
        main = threading.get_ident()
        assert len(pade_threads) == 6 and main not in pade_threads
        pade_threads.clear()
        inline = self.inline(monkeypatch, lambda: linalg.expm_unitary_batch(hs, ts))
        assert pade_threads == [main] * 6
        assert np.array_equal(us, inline)

    def test_blocked_eigh_and_fourier_samples_equal_inline(self, rng, monkeypatch):
        usable_cpus(monkeypatch, 2)
        k = 3 * linalg.EXPM_BLOCK + 5
        hs = hermitian_stack(rng, k, 8)
        values, vectors = linalg.eigh_batch(hs)
        inline_values, inline_vectors = self.inline(monkeypatch, lambda: linalg.eigh_batch(hs))
        assert np.array_equal(values, inline_values)
        assert np.array_equal(vectors, inline_vectors)

        terms = [models.FourierTerm(h, omega, 1.3, 0.2)
                 for h, omega in zip(hermitian_stack(rng, 3, 8), (0.0, 1.0, 2.5))]
        model = models.fourier_nlevel(8, terms)
        taus = np.linspace(0.0, 7.0, k)
        for sample in (model.sample, model.sample_derivative):
            assert np.array_equal(sample(taus), self.inline(monkeypatch, lambda: sample(taus)))

    def test_error_reaches_the_caller_after_every_block(self, monkeypatch, pade_threads):
        usable_cpus(monkeypatch, 2)
        hs = np.zeros((5 * linalg.EXPM_BLOCK, 3, 3), dtype=complex)
        hs[2 * linalg.EXPM_BLOCK + 7, 0, 0] = np.nan
        finished = []
        recorded = linalg._pade_unitary

        def slow(a):
            time.sleep(0.05)
            out = recorded(a)
            finished.append(len(a))
            return out

        monkeypatch.setattr(linalg, "_pade_unitary", slow)
        with pytest.raises(NotHermitianError, match="non-finite"):
            linalg.expm_unitary_batch(hs, 1.0)
        assert len(pade_threads) == 5
        assert finished == [linalg.EXPM_BLOCK] * 4

    def test_first_failing_block_raises(self, monkeypatch):
        usable_cpus(monkeypatch, 2)

        def fail(k0, k1):
            if k0 in (2, 5):
                raise ValueError(f"block {k0}")

        with pytest.raises(ValueError, match="block 2"):
            linalg.for_blocks(fail, 8, 1)

    def test_blocks_keep_the_callers_errstate(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        seen = []
        with np.errstate(over="raise"):
            linalg.for_blocks(lambda k0, k1: seen.append(np.geterr()["over"]), 4, 1)
        assert seen == ["raise"] * 4

    def test_nested_call_runs_inline_in_its_worker(self, monkeypatch):
        usable_cpus(monkeypatch, 2)
        pairs = []

        def outer(k0, k1):
            mine = threading.get_ident()
            linalg.for_blocks(lambda j0, j1: pairs.append((mine, threading.get_ident())), 4, 1)

        caller = threading.Thread(target=linalg.for_blocks, args=(outer, 8, 1), daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert len(pairs) == 32
        assert all(worker == inner for worker, inner in pairs)
        assert caller.ident not in {worker for worker, _ in pairs}

    @pytest.mark.parametrize("cpus, n, block", [(1, 6 * 1024, 1024), (2, 5, 10)],
                             ids=["one-cpu", "one-block"])
    def test_runs_inline_without_a_pool(self, rng, monkeypatch, pade_threads, cpus, n, block):
        usable_cpus(monkeypatch, cpus)
        monkeypatch.setattr(linalg, "_pool", None)
        threads = []
        linalg.for_blocks(lambda k0, k1: threads.append(threading.get_ident()), n, block)
        if cpus == 1:
            linalg.expm_unitary_batch(hermitian_stack(rng, n, 3), 0.01)
            linalg.eigh_batch(hermitian_stack(rng, n, 3))
        assert linalg._pool is None
        assert set(threads + pade_threads) == {threading.get_ident()}


def six_block_stack(rng, n):
    """The stack of ``test_blocked_exponentials_equal_inline``: six blocks
    whose max ||A||_1 gives degrees 3, 5, 7 and 13, then 4 and 9 squarings."""
    block = linalg.EXPM_BLOCK
    k = 5 * block + 77
    hs = hermitian_stack(rng, k, n)
    hs /= np.abs(hs).sum(axis=-2).max(axis=-1)[:, None, None]
    scales = np.repeat([1e-2, 0.2, 0.9, 5.0, 80.0, 2e3], block)[:k]
    ts = scales * rng.uniform(-1.0, 1.0, k)
    ts[::block] = scales[::block]
    return hs, ts


class TestInPlace:
    """``expm_unitary_batch(hs, ts, out=hs)`` against a fresh result."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("n", [2, 8])
    def test_out_may_be_the_stack(self, rng, monkeypatch, n, cpus):
        usable_cpus(monkeypatch, cpus)
        hs, ts = six_block_stack(rng, n)
        expected = linalg.expm_unitary_batch(hs.copy(), ts)
        assert linalg.expm_unitary_batch(hs, ts, out=hs) is hs
        assert np.array_equal(hs, expected)

    @pytest.mark.parametrize("n", [2, 8])
    def test_out_must_flatten_without_a_copy(self, rng, n):
        # leading axes that reshape cannot merge without a copy
        hs = np.ascontiguousarray(hermitian_stack(rng, 6 * 5, n).reshape(6, 5, n, n))
        ts = rng.uniform(-0.5, 0.5, (5, 6)).T
        out = np.empty((5, 6, n, n), dtype=complex).transpose(1, 0, 2, 3)
        view = hs.transpose(1, 0, 2, 3)
        for stack, times, target in ((hs, ts, out), (view, ts.T, view)):
            with pytest.raises(ValueError, match="^out's leading axes must flatten without a copy$"):
                linalg.expm_unitary_batch(stack, times, out=target)

    @pytest.mark.parametrize("n", [2, 3])
    def test_out_must_fit_the_stack(self, rng, n):
        hs = hermitian_stack(rng, 4, n)
        for out in (np.empty((4, n, n)), np.empty((3, n, n), dtype=complex)):
            with pytest.raises(ValueError, match="out must be a complex array of shape"):
                linalg.expm_unitary_batch(hs, 0.1, out=out)


def reference_pade_unitary(a):
    """The out-of-place diagonal Pade of the earlier ``_pade_unitary``: a list
    of powers, sum() for U and V, and solve(V - U, V + U)."""
    norm = float(np.abs(a).sum(axis=-2).max())
    squarings = 0
    for m, theta in linalg._PADE_THETA:
        if norm <= theta:
            break
    else:
        squarings = math.ceil(math.log2(norm / theta))
        a = a * 0.5**squarings
    b = linalg._PADE_COEFFS[m]
    eye = np.eye(a.shape[-1])
    powers = [a @ a]
    for _ in range(m // 2 - 1):
        powers.append(powers[-1] @ powers[0])
    odd = b[1] * eye + sum(b[2 * k + 3] * p for k, p in enumerate(powers))
    even = b[0] * eye + sum(b[2 * k + 2] * p for k, p in enumerate(powers))
    odd = a @ odd
    r = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        r = r @ r
    return r


class TestPadeOracle:
    """The in-place Pade evaluation against the out-of-place one, byte for byte."""

    # each degree, then 4 and 9 squarings, as in six_block_stack
    NORMS = [1e-2, 0.2, 0.9, 2.0, 5.0, 80.0, 2e3]

    @pytest.mark.parametrize("pattern", ["dense", "tridiagonal"])
    @pytest.mark.parametrize("n", [3, 8, 16])
    def test_bytes_equal_the_out_of_place_evaluation(self, rng, n, pattern):
        for norm in self.NORMS:
            hs = hermitian_stack(rng, 64, n)
            if pattern == "tridiagonal":
                # a selection rule: exact zeros, whose signs the bytes also compare
                hs *= np.abs(np.subtract.outer(np.arange(n), np.arange(n))) == 1
            hs /= np.abs(hs).sum(axis=-2).max(axis=-1)[:, None, None]
            ts = norm * rng.uniform(-1.0, 1.0, 64)
            ts[:3] = norm, 0.0, -norm
            a = (-1j * ts)[:, None, None] * (0.5 * (hs + linalg.dagger(hs)))
            expected = reference_pade_unitary(a.copy()).tobytes()
            assert linalg._pade_unitary(a.copy()).tobytes() == expected
            assert linalg.expm_unitary_batch(hs, ts).tobytes() == expected


class TestStateHelpers:
    def test_require_state_accepts_unit(self):
        linalg.require_state(np.array([1.0, 0.0], dtype=complex))

    def test_require_state_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            linalg.require_state(np.array([1.0, 1.0], dtype=complex))
