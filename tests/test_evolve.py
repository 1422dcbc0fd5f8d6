import math
import os
import tracemalloc

import numpy as np
import pytest

from conftest import random_hermitian
from qgplab import evolve, linalg, metrics, models
from qgplab.errors import GridMismatchError, StepUnderflowError, UndefinedArgError
from qgplab.evolve import (
    CF4,
    _coupling_pairs,
    evolve_coefficients,
    evolve_schrodinger,
    reconstruct_state,
    schrodinger_fixed_step,
)
from qgplab.frames import TimeGrid, adiabatic_trajectory, build_frame, theta_series
from qgplab.linalg import SIGMA_X, SIGMA_Z
from qgplab.models import (
    BlochCurveModel,
    RotatingSpinParams,
    SmoothScalar,
    bloch_curve,
    FourierTerm,
    constant_model,
    fourier_nlevel,
    robust_adiabatic_projector,
    robust_exact_propagator,
    robust_model,
    rotating_spin,
)


def upper_state(params):
    """Pure state of the + adiabatic orbit at tau = 0."""
    rho = robust_adiabatic_projector(params, 0.0, +1)
    vals, vecs = np.linalg.eigh(rho)
    return vecs[:, np.argmax(vals)]


class TestSchrodinger:
    def test_constant_sigma_z_stationary_phase(self):
        model = constant_model(SIGMA_Z)
        grid = TimeGrid.uniform(0.0, np.pi, 257)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        result = evolve_schrodinger(model, psi0, grid, tol=1e-12)
        np.testing.assert_allclose(result.states[-1], np.exp(-1j * np.pi) * psi0, atol=1e-10)

    def test_unitarity_over_4096_steps(self, regime_unfaithful):
        model = rotating_spin(regime_unfaithful)
        grid = TimeGrid.uniform(0.0, 40.0, 4097)
        psi0 = model.analytic_frame.frame_at(np.array([0.0]))[1][0, :, 1].copy()
        result = evolve_schrodinger(model, psi0, grid, tol=1e-9)
        assert result.total_steps >= 4096
        assert result.max_norm_drift <= 1e-9

    def test_robust_states_match_exact_propagator(self, fig1_params):
        model = robust_model(fig1_params)
        grid = TimeGrid.uniform(0.0, 1.0, 513)
        psi0 = upper_state(fig1_params)
        result = evolve_schrodinger(model, psi0, grid, tol=1e-8)
        reference = np.stack(
            [robust_exact_propagator(fig1_params, float(t)) @ psi0 for t in grid.samples[::32]]
        )
        fid = np.abs(np.einsum("kn,kn->k", reference.conj(), result.states[::32]))
        assert np.min(fid) >= 1.0 - 1e-7

    def test_rotating_fidelity_matches_closed_form(self, regime_unfaithful):
        params = regime_unfaithful
        model = rotating_spin(params)
        period = metrics.rotating_fidelity_period(params)
        grid = TimeGrid.uniform(0.0, 2.0 * period, 2049)
        frame = build_frame(model, grid, gamma_mode="analytic_frame")
        psi0 = frame.vectors[0, :, 1].copy()
        result = evolve_schrodinger(model, psi0, grid, tol=1e-9)
        fid = metrics.fidelity(result, adiabatic_trajectory(frame, 1))
        expected = metrics.closed_form_F(params, grid.samples)
        np.testing.assert_allclose(fid.values, expected, atol=1e-6)

    def test_second_order_convergence(self, rng):
        model = rotating_spin(RotatingSpinParams(eta=1.0, xi=0.7, K=2.0))
        grid = TimeGrid.uniform(0.0, 3.0, 9)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        reference = schrodinger_fixed_step(model, psi0, grid, 2048)
        err = []
        for substeps in (4, 8, 16):
            states = schrodinger_fixed_step(model, psi0, grid, substeps)
            err.append(np.max(np.linalg.norm(states - reference, axis=1)))
        assert err[0] / err[1] >= 3.0
        assert err[1] / err[2] >= 3.0

    def test_cf4_fourth_order_convergence(self):
        model = rotating_spin(RotatingSpinParams(eta=1.0, xi=0.7, K=2.0))
        grid = TimeGrid.uniform(0.0, 3.0, 9)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        reference = schrodinger_fixed_step(model, psi0, grid, 2048, rule=CF4)
        err = []
        for substeps in (4, 8, 16):
            states = schrodinger_fixed_step(model, psi0, grid, substeps, rule=CF4)
            err.append(np.max(np.linalg.norm(states - reference, axis=1)))
        assert err[0] / err[1] >= 12.0
        assert err[1] / err[2] >= 12.0

    def test_regime_a_cf4_few_substeps(self, regime_unfaithful):
        params = regime_unfaithful
        model = rotating_spin(params)
        grid = TimeGrid.uniform(0.0, 2.0 * metrics.rotating_fidelity_period(params), 4097)
        frame = build_frame(model, grid, gamma_mode="analytic_frame")
        result = evolve_schrodinger(model, frame.vectors[0, :, 1].copy(), grid, tol=1e-9)
        fid = metrics.fidelity(result, adiabatic_trajectory(frame, 1))
        np.testing.assert_allclose(
            fid.values, metrics.closed_form_F(params, grid.samples), atol=1e-8
        )
        assert result.substeps_per_interval <= 8

    @pytest.mark.parametrize("tol", [1e-6, 1e-9])
    def test_convergence_trail(self, regime_unfaithful, tol):
        params = regime_unfaithful
        model = rotating_spin(params)
        grid = TimeGrid.uniform(0.0, metrics.rotating_fidelity_period(params), 257)
        psi0 = build_frame(model, grid, gamma_mode="analytic_frame").vectors[0, :, 1].copy()
        result = evolve_schrodinger(model, psi0, grid, tol=tol)
        trail, stop = result.convergence, max(tol, 5e-14)
        assert isinstance(trail, tuple) and len(trail) == result.refinements >= 2
        assert trail[-1] <= stop
        assert all(diff > stop for diff in trail[:-1])

    def test_step_underflow(self):
        # h swings on the 1e-13 scale, so refinements over a 2e-12 interval
        # never agree and the minimum-step guard must fire
        stiff = models.HamiltonianModel(
            dim=2,
            evaluate_batch=lambda taus: (
                np.cos(1e13 * taus)[:, None, None] * SIGMA_Z
                + np.sin(1e13 * taus)[:, None, None] * SIGMA_X
            ),
            label="stiff",
        )
        grid = TimeGrid(np.array([0.0, 2e-12]))
        psi0 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(StepUnderflowError, match="substep below 1e-12"):
            evolve_schrodinger(stiff, psi0, grid, tol=1e-12)

    def test_substep_budget_names_tol_and_last_difference(self, regime_unfaithful, monkeypatch):
        # 64 intervals: passes of 128 and 256 substeps fit the budget, 512 do not
        model = rotating_spin(regime_unfaithful)
        grid = TimeGrid.uniform(0.0, 2.0, 65)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        monkeypatch.setattr(evolve, "_MAX_TOTAL_SUBSTEPS", 256)
        with pytest.raises(StepUnderflowError) as raised:
            evolve_schrodinger(model, psi0, grid, tol=1e-14)
        halved = [evolve._propagate_fixed(model.sample, psi0, grid.samples, s, CF4) for s in (2, 4)]
        last = float(np.max(np.linalg.norm(halved[1] - halved[0], axis=1)))
        assert str(raised.value) == (
            "no convergence below tol 1e-14 within the budget of 256 substeps per pass; "
            f"last refinement difference {last:.3g}"
        )

    def test_rejects_unnormalized_state(self):
        model = constant_model(SIGMA_Z)
        grid = TimeGrid.uniform(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            evolve_schrodinger(model, np.array([1.0, 1.0]), grid)

    @pytest.mark.parametrize("tol", [0.0, float("nan")])
    def test_rejects_bad_tol(self, tol):
        model = constant_model(SIGMA_Z)
        grid = TimeGrid.uniform(0.0, 1.0, 3)
        with pytest.raises(ValueError, match="tol"):
            evolve_schrodinger(model, np.array([1.0, 0.0], dtype=complex), grid, tol=tol)


def sequential_states(transfers, psi0):
    """psi_{i+1} = transfers[i] @ psi_i one interval at a time: the scan's oracle."""
    states = np.empty((transfers.shape[0] + 1, psi0.size), dtype=complex)
    states[0] = psi = psi0
    for i, transfer in enumerate(transfers):
        psi = transfer @ psi
        states[i + 1] = psi
    return states


class TestStateScan:
    # 1 and 2 are a single block; 63 and 65 pad the last block, 64 fills it
    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 4095])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_matches_sequential_loop(self, rng, dim, n):
        a = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
        transfers = linalg.expm_unitary_batch(a + linalg.dagger(a), 1.0)
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi0 /= np.linalg.norm(psi0)
        states = evolve._scan_states(transfers, psi0)
        # a state is a product of at most n unitaries on either side; each
        # product adds O(dim eps) error
        atol = 4 * dim * (n + 1) * np.finfo(float).eps
        np.testing.assert_allclose(
            states, sequential_states(transfers, psi0), rtol=0, atol=atol
        )


class TestChunking:
    CHUNK = 1 << 16

    def test_chunks_are_bounded_in_bytes_and_match_one_chunk(self, rng, monkeypatch):
        a, b = random_hermitian(rng, 8), random_hermitian(rng, 8)
        returned = []

        def sample_h(ts):
            hs = a + ts[:, None, None] * b
            returned.append(hs.nbytes)
            return hs

        psi0 = np.eye(8, dtype=complex)[0]
        taus = np.linspace(0.0, 1.0, 201)
        monkeypatch.setattr(evolve, "_CHUNK_BYTES", self.CHUNK)
        chunked = evolve._propagate_fixed(sample_h, psi0, taus, 2, evolve.CF4)
        # 200 intervals x 2 substeps x 2 nodes of 1 KiB, 16 intervals per chunk
        assert len(returned) == 13 and max(returned) <= self.CHUNK
        returned.clear()
        monkeypatch.setattr(evolve, "_CHUNK_BYTES", 1 << 40)
        whole = evolve._propagate_fixed(sample_h, psi0, taus, 2, evolve.CF4)
        assert len(returned) == 1
        # chunking regroups the exponential's blocks, so equal to rounding only
        np.testing.assert_allclose(chunked, whole, rtol=0, atol=1e-13)


class TestAlignedChunks:
    def test_chunks_split_evenly_on_block_boundaries_and_equal_one_chunk(self, rng, monkeypatch):
        a, b = random_hermitian(rng, 8), random_hermitian(rng, 8)
        returned = []

        def sample_h(ts):
            returned.append(ts.size)
            return a + ts[:, None, None] * b

        psi0 = np.eye(8, dtype=complex)[0]
        taus = np.linspace(0.0, 1.0, 2100)
        monkeypatch.setattr(evolve, "_CHUNK_BYTES", 8 << 20)
        chunked = evolve._propagate_fixed(sample_h, psi0, taus, 2, evolve.CF4)
        # 2,099 intervals x 4 samples: 8 MiB holds 2,048 intervals, so two
        # chunks, 1,280 and 819 intervals, the first 5 blocks of 1,024 matrices
        assert returned == [4 * 1280, 4 * 819]
        returned.clear()
        monkeypatch.setattr(evolve, "_CHUNK_BYTES", 1 << 40)
        whole = evolve._propagate_fixed(sample_h, psi0, taus, 2, evolve.CF4)
        assert returned == [4 * 2099]
        assert np.array_equal(chunked, whole)


class TestEvenChunks:
    def test_units_are_split_evenly_and_equal_one_chunk(self, rng, monkeypatch):
        a, b = random_hermitian(rng, 8), random_hermitian(rng, 8)
        returned = []

        def sample_h(ts):
            returned.append(ts.size)
            return a + ts[:, None, None] * b

        psi0 = np.eye(8, dtype=complex)[0]
        taus = np.linspace(0.0, 1.0, 2100)
        monkeypatch.setattr(evolve, "_CHUNK_BYTES", 4 << 20)
        chunked = evolve._propagate_fixed(sample_h, psi0, taus, 4, evolve.CF4)
        # 2,099 intervals x 8 samples: a unit of 1,024 matrices is 128
        # intervals, so 17 units, the last one short; 4 MiB holds 4 units, so
        # 5 chunks, starting at units ceil(17 c / 5) = 0, 4, 7, 11 and 14,
        # where chunks of 4 units would leave a last chunk of 51 intervals
        assert returned == [8 * 512, 8 * 384, 8 * 512, 8 * 384, 8 * 307]
        assert {math.ceil(size / (8 * 128)) for size in returned} == {3, 4}
        returned.clear()
        monkeypatch.setattr(evolve, "_CHUNK_BYTES", 1 << 40)
        whole = evolve._propagate_fixed(sample_h, psi0, taus, 4, evolve.CF4)
        assert returned == [8 * 2099]
        assert np.array_equal(chunked, whole)


class TestComposition:
    def test_single_factor_substep_is_the_transfer(self, rng):
        # one midpoint substep per interval: each transfer is one exponential
        h = random_hermitian(rng, 3)
        psi0 = np.eye(3, dtype=complex)[1]
        grid = TimeGrid.uniform(0.0, 2.0, 33)
        states = schrodinger_fixed_step(constant_model(h), psi0, grid, 1)
        expected = np.stack([linalg.expm_unitary(h, t) @ psi0 for t in grid.samples])
        np.testing.assert_allclose(states, expected, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("factors", [1, 2, 3, 4, 5])
    def test_in_place_products_equal_a_loop(self, rng, dim, factors):
        # the running products overwrite applied factors: same bytes as a loop
        steps = rng.standard_normal((7, factors, dim, dim)) + 1j * rng.standard_normal(
            (7, factors, dim, dim))
        expected = steps[:, 0]
        for j in range(1, factors):
            expected = linalg.matmul_batch(steps[:, j], expected)
        out = np.empty((7, dim, dim), dtype=complex)
        evolve._compose_intervals(steps.copy(), out)
        assert np.array_equal(out, expected)


class TestPassMemory:
    def test_one_pass_holds_one_chunk_and_one_pade_block(self, rng, monkeypatch):
        # one usable CPU: the exponential's blocks run inline, one at a time
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        dim, substeps = 8, 2
        model = fourier_nlevel(dim, [FourierTerm(random_hermitian(rng, dim), omega, 1.0, 0.1)
                                     for omega in (0.0, 1.0, 2.0)])
        psi0 = np.eye(dim, dtype=complex)[0]
        taus = np.linspace(0.0, 10.0, 4097)
        tracemalloc.start()
        try:
            states = evolve._propagate_fixed(model.sample, psi0, taus, substeps, CF4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix_bytes = 16 * dim * dim
        transfers = (taus.size - 1) * matrix_bytes
        # a chunk's samples and its generator stack (which the exponentials
        # overwrite), no larger than the pass's 2 x 2 matrices per substep,
        # plus one Pade block's temporaries: A, A^2, a power, U, V, a product
        stack = min(evolve._CHUNK_BYTES, (taus.size - 1) * substeps * 2 * matrix_bytes)
        bound = 2 * stack + 6 * linalg.EXPM_BLOCK * matrix_bytes
        assert peak - transfers - states.nbytes <= bound


class TestSampleStacks:
    def test_read_only_real_samples_are_copied_before_they_are_overwritten(self):
        # a pass writes its generators over the sampled stack
        h = np.diag([0.0, 1.0, 3.0])
        h[0, 2] = h[2, 0] = 0.5
        shared = np.broadcast_to(h, (4096, 3, 3))
        model = models.HamiltonianModel(dim=3, evaluate_batch=lambda taus: shared[: taus.size])
        psi0 = np.eye(3, dtype=complex)[0]
        grid = TimeGrid.uniform(0.0, 2.0, 65)
        states = schrodinger_fixed_step(model, psi0, grid, 2, rule=CF4)
        expected = schrodinger_fixed_step(constant_model(h), psi0, grid, 2, rule=CF4)
        assert np.array_equal(states, expected)
        assert np.array_equal(shared[0], h)


class TestChunkMemory:
    """A pass holds, beside its transfers and states, one chunk, the 32nd of
    one that the generators are formed through, and one Pade block's
    temporaries: its norm, and eight arrays of one sub-block.

    The chunks are 4 MiB here, and the default 8 MiB in one case.  The
    composition writes its running products into the chunk's applied factors
    and the transfers, so at 2 substeps it holds no quarter-chunk products
    beside the chunk.
    """

    CHUNK = 4 << 20

    @staticmethod
    def pass_peak(model, taus, substeps):
        psi0 = np.eye(model.dim, dtype=complex)[0]
        tracemalloc.start()
        try:
            states = evolve._propagate_fixed(model.sample, psi0, taus, substeps, CF4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - (taus.size - 1) * 16 * model.dim**2 - states.nbytes

    def bound(self, dim, chunk=CHUNK):
        matrix_bytes = 16 * dim * dim
        return (chunk + chunk // 32 + 8 * linalg._PADE_SUB_BLOCK * matrix_bytes
                + linalg.EXPM_BLOCK * matrix_bytes)

    def test_dense_pass_holds_one_array_per_chunk(self, rng, monkeypatch):
        # the model, grid and single CPU of TestPassMemory: a 16 MiB sample
        # stack over the pass, so four chunks
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(evolve, "_CHUNK_BYTES", self.CHUNK)
        dim = 8
        model = fourier_nlevel(dim, [FourierTerm(random_hermitian(rng, dim), omega, 1.0, 0.1)
                                     for omega in (0.0, 1.0, 2.0)])
        peak = self.pass_peak(model, np.linspace(0.0, 10.0, 4097), 2)
        assert peak <= self.bound(dim)

    def test_default_chunk_holds_one_array(self, rng, monkeypatch):
        # the same 16 MiB sample stack in two chunks of the default 8 MiB
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        dim = 8
        model = fourier_nlevel(dim, [FourierTerm(random_hermitian(rng, dim), omega, 1.0, 0.1)
                                     for omega in (0.0, 1.0, 2.0)])
        peak = self.pass_peak(model, np.linspace(0.0, 10.0, 4097), 2)
        assert peak <= self.bound(dim, evolve._CHUNK_BYTES)

    def test_pauli_pass_holds_one_array_per_chunk(self, monkeypatch):
        # 4,096 intervals x 4 substeps x 2 nodes: a 2 MiB sample stack, one
        # chunk, whose unused bytes hold the model's sampling temporaries
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(evolve, "_CHUNK_BYTES", self.CHUNK)
        model = rotating_spin(RotatingSpinParams(eta=1.0, xi=0.5, K=1.0))
        peak = self.pass_peak(model, np.linspace(0.0, 2.0 * np.pi, 4097), 4)
        assert peak <= self.bound(2)


class TestStepRule:
    def test_needs_one_factor_per_node(self):
        with pytest.raises(ValueError, match=r"^weights must be 2x2 for 2 nodes, got shape \(1, 2\)$"):
            evolve.StepRule(nodes=np.array([0.25, 0.75]), weights=np.array([[0.5, 0.5]]))


class TestValidation:
    def test_state_of_another_dimension(self):
        grid = TimeGrid.uniform(0.0, 1.0, 65)
        with pytest.raises(GridMismatchError, match=r"^state dim 3 != model dim 2$"):
            evolve_schrodinger(constant_model(SIGMA_Z), np.array([1.0, 0.0, 0.0]), grid)

    def test_coefficients_of_another_dimension(self):
        frame = build_frame(constant_model(SIGMA_Z), TimeGrid.uniform(0.0, 1.0, 65))
        with pytest.raises(GridMismatchError, match=r"^coefficient dim 3 != frame dim 2$"):
            evolve_coefficients(frame, np.array([1.0, 0.0, 0.0], dtype=complex))

    def test_reconstruction_on_another_grid(self):
        model = constant_model(SIGMA_Z)
        frame = build_frame(model, TimeGrid.uniform(0.0, 1.0, 65))
        other = build_frame(model, TimeGrid.uniform(0.0, 2.0, 65))
        result = evolve_coefficients(other, np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(GridMismatchError, match=r"^coefficient result lives on a different grid$"):
            reconstruct_state(frame, result)


def coupling_matrix(frame, monkeypatch):
    """M(tau) that ``evolve_coefficients`` integrates, sampled on the frame grid."""
    generators = []
    adaptive = evolve._adaptive_states

    def spy(sample_h, *args):
        generators.append(sample_h)
        return adaptive(sample_h, *args)

    monkeypatch.setattr(evolve, "_adaptive_states", spy)
    evolve_coefficients(frame, np.eye(frame.dim, dtype=complex)[0])
    return -generators[0](frame.grid.samples)


class TestCouplingMatrix:
    def test_constant_model_zero(self, monkeypatch):
        frame = build_frame(constant_model(SIGMA_Z), TimeGrid.uniform(0.0, 1.0, 65))
        assert _coupling_pairs(frame) == []
        assert np.max(np.abs(coupling_matrix(frame, monkeypatch))) == 0.0

    def test_theta_antisymmetry(self):
        model = rotating_spin(RotatingSpinParams(eta=1.0, xi=0.5, K=1.0))
        frame = build_frame(model, TimeGrid.uniform(0.0, 5.0, 2049), gamma_mode="analytic_frame")
        t01, _ = theta_series(frame, 0, 1)
        t10, _ = theta_series(frame, 1, 0)
        folded = np.mod(t01 + t10 + np.pi, 2.0 * np.pi) - np.pi
        assert np.max(np.abs(folded)) < 1e-8

    def test_hermitian_with_zero_diagonal(self, monkeypatch):
        model = rotating_spin(RotatingSpinParams(eta=1.0, xi=0.5, K=1.0))
        frame = build_frame(model, TimeGrid.uniform(0.0, 5.0, 1025), gamma_mode="analytic_frame")
        m = coupling_matrix(frame, monkeypatch)
        assert np.all(m[:, 0, 0] == 0) and np.all(m[:, 1, 1] == 0)
        np.testing.assert_allclose(m, np.conjugate(np.swapaxes(m, 1, 2)), atol=1e-12)

    def test_rotating_magnitude_constant(self, monkeypatch):
        params = RotatingSpinParams(eta=1.0, xi=0.5, K=1.0)
        frame = build_frame(
            rotating_spin(params), TimeGrid.uniform(0.0, 5.0, 1025), gamma_mode="analytic_frame"
        )
        [(m, n, magnitude, _)] = _coupling_pairs(frame)
        assert (m, n) == (0, 1)
        np.testing.assert_allclose(magnitude, params.coupling_abs, atol=1e-12)
        matrix = coupling_matrix(frame, monkeypatch)
        np.testing.assert_allclose(np.abs(matrix[:, 1, 0]), params.coupling_abs, atol=1e-12)

    def test_partial_zero_coupling_rejected(self):
        curve = BlochCurveModel(
            theta=SmoothScalar.constant(np.pi / 3), phi=SmoothScalar.poly([0.0, 0.0, 1.0])
        )
        frame = build_frame(
            bloch_curve(curve), TimeGrid.uniform(0.0, 1.0, 257), gamma_mode="analytic_frame"
        )
        with pytest.raises(UndefinedArgError):
            _coupling_pairs(frame)

    def test_partial_zero_coupling_rejected_by_coefficients(self):
        curve = BlochCurveModel(
            theta=SmoothScalar.constant(np.pi / 3), phi=SmoothScalar.poly([0.0, 0.0, 1.0])
        )
        frame = build_frame(
            bloch_curve(curve), TimeGrid.uniform(0.0, 1.0, 257), gamma_mode="analytic_frame"
        )
        with pytest.raises(UndefinedArgError):
            evolve_coefficients(frame, np.array([0.0, 1.0], dtype=complex))


class TestCoefficients:
    def test_no_coupling_keeps_coefficients(self):
        model = models.fourier_nlevel(
            2,
            [
                models.FourierTerm(SIGMA_Z, 0.0, 1.0),
                models.FourierTerm(SIGMA_Z, 1.3, 0.4),
            ],
        )
        frame = build_frame(model, TimeGrid.uniform(0.0, 4.0, 513), gamma_mode="analytic_derivative")
        c0 = np.array([1.0, 0.0], dtype=complex)
        result = evolve_coefficients(frame, c0, tol=1e-10)
        np.testing.assert_allclose(result.states, np.broadcast_to(c0, result.states.shape), atol=1e-12)

    def test_rotating_occupation_matches_fidelity_square(self, regime_unfaithful):
        params = regime_unfaithful
        model = rotating_spin(params)
        period = metrics.rotating_fidelity_period(params)
        grid = TimeGrid.uniform(0.0, 2.0 * period, 2049)
        frame = build_frame(model, grid, gamma_mode="analytic_frame")
        c0 = np.array([0.0, 1.0], dtype=complex)
        result = evolve_coefficients(frame, c0, tol=1e-9)
        assert len(result.convergence) == result.refinements
        assert result.convergence[-1] <= 1e-9 < min(result.convergence[:-1], default=1.0)
        expected = metrics.closed_form_F(params, grid.samples) ** 2
        np.testing.assert_allclose(np.abs(result.states[:, 1]) ** 2, expected, atol=1e-6)

    def test_bloch_cross_method(self, rng):
        curve = BlochCurveModel(
            theta=SmoothScalar.sinusoid(1.0, 0.25, 1.1),
            phi=SmoothScalar.poly([0.0, 1.5, 0.3]),
            B=SmoothScalar.constant(2.0),
        )
        model = bloch_curve(curve)
        grid = TimeGrid.uniform(0.0, 3.0, 2049)
        frame = build_frame(model, grid, gamma_mode="analytic_frame")
        psi0 = frame.vectors[0, :, 1].copy()
        tol = 1e-9
        schro = evolve_schrodinger(model, psi0, grid, tol=tol)
        coeff = evolve_coefficients(frame, np.array([0.0, 1.0], dtype=complex), tol=tol)
        recon = reconstruct_state(frame, coeff)
        fid = np.abs(np.einsum("kn,kn->k", recon.conj(), schro.states))
        assert np.min(fid) >= 1.0 - 1e-6
        # frame-equivalence contract in the full state, phases included
        diff = np.max(np.linalg.norm(recon - schro.states, axis=1))
        assert diff <= 2.0 * tol + 1e-7

    def test_norm_drift_bounded(self, regime_rescued):
        params = regime_rescued
        model = rotating_spin(params)
        period = metrics.rotating_fidelity_period(params)
        grid = TimeGrid.uniform(0.0, 3.0 * period, 1025)
        frame = build_frame(model, grid, gamma_mode="analytic_frame")
        result = evolve_coefficients(frame, np.array([0.0, 1.0], dtype=complex), tol=1e-9)
        assert result.max_norm_drift <= 1e-9


class TestExactConstant:
    def test_cross_method_with_integrator(self, rng):
        h = random_hermitian(rng, 3)
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi0 /= np.linalg.norm(psi0)
        tau = 1.3
        direct = linalg.expm_unitary(h, tau) @ psi0
        grid = TimeGrid.uniform(0.0, tau, 257)
        stepped = evolve_schrodinger(constant_model(h), psi0, grid, tol=1e-11)
        np.testing.assert_allclose(stepped.states[-1], direct, atol=1e-8)
