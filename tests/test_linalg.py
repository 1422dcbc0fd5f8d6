import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_hermitian
from qgplab import linalg
from qgplab.errors import NotHermitianError
from qgplab.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z, eigh, expm_unitary


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
    def test_sigma_z(self):
        system = eigh(SIGMA_Z)
        np.testing.assert_allclose(system.values, [-1.0, 1.0], atol=1e-14)
        # lower level is |1> = (0,1), upper is |0> = (1,0), up to phase
        assert abs(abs(system.vectors[1, 0]) - 1.0) < 1e-14
        assert abs(abs(system.vectors[0, 1]) - 1.0) < 1e-14

    def test_sigma_x(self):
        system = eigh(SIGMA_X)
        np.testing.assert_allclose(system.values, [-1.0, 1.0], atol=1e-14)
        minus, plus = system.vectors[:, 0], system.vectors[:, 1]
        r = 1.0 / np.sqrt(2.0)
        assert abs(abs(np.vdot([r, -r], minus)) - 1.0) < 1e-12
        assert abs(abs(np.vdot([r, r], plus)) - 1.0) < 1e-12

    def test_matches_characteristic_polynomial_roots(self, rng):
        h = random_hermitian(rng, 4)
        coeffs = char_poly_coeffs(h)
        radius = np.max(np.sum(np.abs(h), axis=1)) + 1.0
        roots = np.sort(bracketed_roots(coeffs, -radius, radius))
        system = eigh(h)
        assert roots.size == 4
        np.testing.assert_allclose(system.values, roots, atol=1e-9)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_rejects_non_finite(self):
        with pytest.raises(NotHermitianError):
            eigh(np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex))

    def test_accepts_non_contiguous_input(self, rng):
        # transposes and strided slices have a non-contiguous last axis
        h = random_hermitian(rng, 3)
        sub = random_hermitian(rng, 6)[::2, ::2]
        for view in (h.T, sub):
            assert not view.flags.c_contiguous
            np.testing.assert_array_equal(eigh(view).values, eigh(view.copy()).values)
            np.testing.assert_array_equal(
                expm_unitary(view, 0.3), expm_unitary(view.copy(), 0.3)
            )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 8))
    def test_reconstruction_and_trace(self, seed, n):
        h = random_hermitian(np.random.default_rng(seed), n)
        system = eigh(h)
        v = system.vectors
        # V^dag H V diagonal within 1e-10
        diag = v.conj().T @ h @ v
        off = diag - np.diag(np.diag(diag))
        assert np.max(np.abs(off)) < 1e-10 * max(1.0, np.max(np.abs(system.values)))
        assert abs(np.trace(h).real - np.sum(system.values)) < 1e-10 * max(
            1.0, np.sum(np.abs(system.values))
        )
        # residuals and unitarity
        resid = h @ v - v * system.values
        assert np.max(np.abs(resid)) < 1e-10 * max(1.0, np.max(np.abs(h)))
        assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-10
        assert np.all(np.diff(system.values) >= 0)


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


class TestStateHelpers:
    def test_require_state_accepts_unit(self):
        linalg.require_state(np.array([1.0, 0.0], dtype=complex))

    def test_require_state_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            linalg.require_state(np.array([1.0, 1.0], dtype=complex))
