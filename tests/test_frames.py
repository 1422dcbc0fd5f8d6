import dataclasses
import logging
import os
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment as scipy_linear_sum_assignment

from qgplab import evolve, frames, linalg, models, qgp
from qgplab.errors import (
    GapClosureError,
    OutOfRangeError,
    TrackingAmbiguityError,
    UndefinedArgError,
)
from qgplab.frames import (
    TimeGrid,
    adiabatic_trajectory,
    build_frame,
    regauge,
    theta_series,
)
from qgplab.linalg import SIGMA_Z, eigh_batch
from conftest import random_hermitian, uncoupled_crossings
from qgplab.models import (
    BlochCurveModel,
    RotatingSpinParams,
    SmoothScalar,
    bloch_curve,
    constant_model,
    rotating_spin,
)


@pytest.fixture(scope="module")
def rot_params():
    return RotatingSpinParams(eta=1.0, xi=0.5, K=1.0)


@pytest.fixture(scope="module")
def rot_model(rot_params):
    return rotating_spin(rot_params)


@pytest.fixture(scope="module")
def grid():
    return TimeGrid.uniform(0.0, 2.0 * np.pi, 4097)


def breathing_z_model(amplitude=0.5):
    """a(tau) sigma_z with a(tau) > 0: eigenvectors frozen, gamma = 0."""
    return models.fourier_nlevel(
        2, [models.FourierTerm(SIGMA_Z, 1.0, amplitude, 0.0),
            models.FourierTerm(SIGMA_Z, 0.0, 1.0, 0.0)]
    )


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(0.0, 1.0, 5)
        assert g.n == 5
        np.testing.assert_allclose(np.diff(g.samples), 0.25)

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0, 1.0, 0.5]))

    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            TimeGrid(np.array([0.0]))

    def test_uniform_rejects_fewer_than_two_samples(self):
        with pytest.raises(ValueError, match="^need at least two samples$"):
            TimeGrid.uniform(0.0, 1.0, 1)

    @pytest.mark.parametrize("tau_end", [0.0, -1.0])
    def test_uniform_rejects_an_empty_span(self, tau_end):
        with pytest.raises(ValueError, match="^tau_end must exceed tau_start$"):
            TimeGrid.uniform(0.0, tau_end, 5)


class TestBuildFrame:
    def test_constant_hamiltonian(self, grid):
        frame = build_frame(constant_model(SIGMA_Z), grid)
        assert np.max(np.abs(frame.gamma)) < 1e-12
        np.testing.assert_allclose(frame.energies[:, 0], -1.0, atol=1e-14)
        np.testing.assert_allclose(frame.energies[:, 1], 1.0, atol=1e-14)

    @pytest.mark.parametrize(
        "mode,tol", [("analytic_frame", 1e-12), ("analytic_derivative", 1e-10),
                     ("finite_difference", 1e-5)]
    )
    def test_rotating_coupling_magnitude(self, rot_model, rot_params, grid, mode, tol):
        frame = build_frame(rot_model, grid, gamma_mode=mode)
        expected = rot_params.coupling_abs
        np.testing.assert_allclose(np.abs(frame.gamma[:, 0, 1]), expected, atol=tol)

    def test_bloch_diagonal_gamma_in_model_gauge(self):
        theta0 = np.pi / 3
        curve = BlochCurveModel(
            theta=SmoothScalar.constant(theta0), phi=SmoothScalar.poly([0.0, 2.0])
        )
        frame = build_frame(
            bloch_curve(curve), TimeGrid.uniform(0.0, 1.0, 257), gamma_mode="analytic_frame"
        )
        expected = -2.0 * np.sin(theta0 / 2.0) ** 2  # -phi_dot sin^2(theta/2)
        np.testing.assert_allclose(frame.gamma[:, 1, 1].real, expected, atol=1e-13)

    def test_auto_takes_finite_differences_without_a_derivative(self):
        # the 4th-order stencils at h = 2 pi / 2048 ~ 3e-3 err by about
        # h^4 ~ 1e-10 times the eigenvectors' 5th derivative; 1e-7 leaves a
        # factor 1e3 for that at a gap of 1.5 and a unit drive frequency
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        model = models.fourier_nlevel(3, [
            models.FourierTerm(np.diag([0.0, 2.0, 4.0]).astype(complex), 0.0, 1.0, 0.0),
            models.FourierTerm(0.5 * (a + a.conj().T), 1.0, 0.3, 0.2),
        ])
        grid = TimeGrid.uniform(0.0, 2.0 * np.pi, 2049)
        bare = dataclasses.replace(model, derivative_batch=None)
        numeric = build_frame(bare, grid)
        assert numeric.gamma_mode == "finite_difference"
        analytic = build_frame(model, grid, gamma_mode="analytic_derivative")
        off = ~np.eye(3, dtype=bool)
        np.testing.assert_allclose(
            np.abs(numeric.gamma[:, off]), np.abs(analytic.gamma[:, off]), rtol=0, atol=1e-7
        )

    @pytest.mark.parametrize("mode, message", [
        ("exact", "^unknown gamma_mode 'exact'$"),
        ("analytic_frame", "^model 'const' has no analytic frame$"),
        ("analytic_derivative", "^model 'const' has no analytic derivative$"),
    ])
    def test_rejects_a_gamma_mode_the_model_cannot_take(self, mode, message):
        model = models.HamiltonianModel(
            dim=2, evaluate_batch=lambda taus: np.broadcast_to(SIGMA_Z, (taus.size, 2, 2)).copy(),
            label="const",
        )
        with pytest.raises(ValueError, match=message):
            build_frame(model, TimeGrid.uniform(0.0, 1.0, 65), gamma_mode=mode)

    def test_gamma_hermitian_symmetry_and_real_diagonal(self, rot_model, grid):
        for mode in ("analytic_derivative", "finite_difference"):
            frame = build_frame(rot_model, grid, gamma_mode=mode)
            sym = frame.gamma - np.conjugate(np.swapaxes(frame.gamma, 1, 2))
            assert np.max(np.abs(sym)) < 1e-8
            assert np.max(np.abs(frame.gamma[:, [0, 1], [0, 1]].imag)) < 1e-8

    def test_completeness(self, rot_model, grid):
        frame = build_frame(rot_model, grid, gamma_mode="analytic_derivative")
        assert frame.completeness_defect() < 1e-10

    def test_overlap_continuity(self, rot_model, grid):
        frame = build_frame(rot_model, grid, gamma_mode="analytic_derivative")
        v = frame.vectors
        overlaps = np.abs(np.einsum("kin,kin->kn", v[:-1].conj(), v[1:]))
        assert np.min(overlaps) >= 0.99
        assert frame.min_overlap >= 0.99

    def test_gap_closure_rejected(self):
        crossing = models.fourier_nlevel(
            2, [models.FourierTerm(SIGMA_Z, 0.0, 1.0, -np.pi / 2)]  # sin-like ramp through 0
        )
        # cos(0*tau - pi/2) = 0 constant; build a real crossing instead: tau*sigma_z
        ramp = models.HamiltonianModel(
            dim=2,
            evaluate_batch=lambda taus: taus[:, None, None] * SIGMA_Z,
            derivative_batch=lambda taus: np.ones_like(taus)[:, None, None] * SIGMA_Z,
            label="ramp",
        )
        with pytest.raises(GapClosureError):
            build_frame(ramp, TimeGrid.uniform(-1.0, 1.0, 257))

    def test_tracking_ambiguity_on_coarse_grid(self):
        # One step swings the eigenbasis from computational to Fourier, so
        # every overlap is 1/sqrt(5) < 0.5 and no assignment is trustworthy.
        n = 5
        levels = np.diag(np.arange(1.0, n + 1)).astype(complex)
        fourier = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
        rotated = fourier @ levels @ fourier.conj().T
        model = models.HamiltonianModel(
            dim=n,
            evaluate_batch=lambda taus: (
                (1 - taus)[:, None, None] * levels + taus[:, None, None] * rotated
            ),
            label="basis swing",
        )
        with pytest.raises(TrackingAmbiguityError):
            build_frame(model, TimeGrid.uniform(0.0, 1.0, 2), gamma_mode="finite_difference")


class TestGammaAt:
    """frame.gamma[k, n, m] at grid samples k."""

    def test_constant_model_zero(self, grid):
        frame = build_frame(constant_model(SIGMA_Z), grid)
        k = int(np.searchsorted(grid.samples, 1.234))
        assert frame.gamma[k, 0, 1] == 0

    def test_hermitian_symmetry_at_random_taus(self, rot_model, grid, rng):
        frame = build_frame(rot_model, grid, gamma_mode="analytic_derivative")
        for k in rng.integers(0, grid.n, 100):
            g01 = frame.gamma[k, 0, 1]
            g10 = frame.gamma[k, 1, 0]
            assert abs(g01 - np.conjugate(g10)) < 1e-10

    def test_rotating_closed_form(self, rot_model, rot_params, grid):
        # the analytic path hits the closed form to 1e-8; the numeric gauges
        # carry the finite-difference error on top
        expected = rot_params.coupling_abs
        k = int(np.searchsorted(grid.samples, 0.5))
        tols = (("analytic_frame", 1e-8), ("analytic_derivative", 1e-6), ("finite_difference", 1e-5))
        for mode, tol in tols:
            frame = build_frame(rot_model, grid, gamma_mode=mode)
            assert abs(abs(frame.gamma[k, 0, 1]) - expected) < tol


class TestTheta:
    def test_rejects_equal_levels(self, rot_model, grid):
        frame = build_frame(rot_model, grid, gamma_mode="analytic_frame")
        with pytest.raises(ValueError, match=r"^pair \(1, 1\) needs two different levels$"):
            theta_series(frame, 1, 1)

    @pytest.mark.parametrize("m, n, level", [(2, 0, 2), (0, -1, -1)])
    def test_rejects_a_level_out_of_range(self, rot_model, grid, m, n, level):
        frame = build_frame(rot_model, grid, gamma_mode="analytic_frame")
        with pytest.raises(OutOfRangeError, match=rf"^level {level} outside 0\.\.1$"):
            theta_series(frame, m, n)

    def test_at_zero_is_arg_gamma(self, rot_model, grid):
        frame = build_frame(rot_model, grid, gamma_mode="analytic_frame")
        expected = np.angle(frame.gamma[0, 1, 0])
        series, _ = theta_series(frame, 1, 0)
        assert series[0] == pytest.approx(expected, abs=1e-12)

    def test_theta_dot_equals_gap_minus_qgp(self, rot_model, grid):
        frame = build_frame(rot_model, grid, gamma_mode="analytic_derivative")
        series, _ = theta_series(frame, 1, 0)
        from qgplab.numerics import derivative_series

        theta_dot = derivative_series(series, grid.samples)
        delta = qgp.qgp(frame, 1, 0).delta
        gap_term = frame.energies[:, 1] - frame.energies[:, 0]
        np.testing.assert_allclose(theta_dot, gap_term - delta, atol=1e-6)

    def test_theta_dot_constant_for_rotating(self, rot_model, rot_params, grid):
        frame = build_frame(rot_model, grid, gamma_mode="analytic_frame")
        series, _ = theta_series(frame, 1, 0)
        from qgplab.numerics import derivative_series

        theta_dot = derivative_series(series, grid.samples)
        expected = 2.0 * rot_params.energy - rot_params.qgp
        np.testing.assert_allclose(theta_dot, expected, atol=1e-8)

    def test_undefined_arg_for_constant_model(self, grid):
        frame = build_frame(constant_model(SIGMA_Z), grid)
        with pytest.raises(UndefinedArgError):
            theta_series(frame, 0, 1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_large_unwrap_steps_are_flagged(self):
        # a grid too coarse for the drive phase: increments exceed pi/2
        fast = rotating_spin(RotatingSpinParams(eta=1.0, xi=0.4, K=40.0))
        frame = build_frame(fast, TimeGrid.uniform(0.0, 2.0, 65), gamma_mode="analytic_derivative")
        _, flagged = theta_series(frame, 1, 0)
        assert flagged > 0
        fine = build_frame(
            fast, TimeGrid.uniform(0.0, 2.0, 4097), gamma_mode="analytic_derivative"
        )
        _, flagged_fine = theta_series(fine, 1, 0)
        assert flagged_fine == 0


class TestAdiabaticTrajectory:
    def test_constant_sigma_z_ground_state_phase(self, grid):
        frame = build_frame(constant_model(SIGMA_Z), grid)
        traj = adiabatic_trajectory(frame, 0)  # ground level e = -1
        expected = np.exp(1j * grid.samples)[:, None] * frame.vectors[:, :, 0]
        np.testing.assert_allclose(traj.states, expected, atol=1e-12)
        assert traj.phases[0] == 0.0

    def test_gauge_invariance_under_random_cubic(self, rot_model, grid, rng):
        frame = build_frame(rot_model, grid, gamma_mode="analytic_derivative")
        base = [adiabatic_trajectory(frame, m).states for m in range(2)]
        coeffs = rng.normal(0.0, 0.3, (2, 3))
        fs = [SmoothScalar.poly([0.0, *c]) for c in coeffs]
        regauged = regauge(frame, fs)
        for m in range(2):
            moved = adiabatic_trajectory(regauged, m).states
            assert np.max(np.abs(moved - base[m])) < 1e-8

    def test_rotating_matches_analytic_orbit(self, rot_model, grid):
        numeric = build_frame(rot_model, grid, gamma_mode="analytic_derivative")
        analytic = build_frame(rot_model, grid, gamma_mode="analytic_frame")
        for m in range(2):
            t_num = adiabatic_trajectory(numeric, m).states
            t_ana = adiabatic_trajectory(analytic, m).states
            overlap = np.einsum("kn,kn->k", t_ana.conj(), t_num)
            np.testing.assert_allclose(np.abs(overlap), 1.0, atol=1e-8)
            # up to the arbitrary tau=0 eigh phase, the orbits agree as states
            assert np.max(np.abs(overlap / overlap[0] - 1.0)) < 1e-8

    def test_coincidence_criterion(self):
        model = breathing_z_model()
        grid = TimeGrid.uniform(0.0, 4.0, 2049)
        frame = build_frame(model, grid, gamma_mode="analytic_derivative")
        assert np.max(np.abs(frame.gamma[:, 0, 1])) < 1e-12
        traj = adiabatic_trajectory(frame, 0)
        psi0 = frame.vectors[0, :, 0].copy()
        result = evolve.evolve_schrodinger(model, psi0, grid, tol=1e-10)
        overlap = np.einsum("kn,kn->k", traj.states.conj(), result.states)
        assert np.min(np.abs(overlap)) >= 1.0 - 1e-8
        # phases agree too: the dressed orbit *is* the solution when decoupled
        assert np.max(np.abs(overlap - 1.0)) < 1e-6


class TestLevelOrbit:
    """``level_orbit(model, grid, m)`` is ``adiabatic_trajectory(build_frame(model,
    grid), m)`` byte for byte, on every route; on the analytic-derivative one
    it never samples h-dot."""

    @staticmethod
    def models():
        curve = BlochCurveModel(theta=SmoothScalar.poly([1.0, 0.3]), phi=SmoothScalar.poly([0.0, 1.0]))
        return {
            "fourier3": random_fourier(3, 3),
            "fourier8": random_fourier(4, 8),
            "robust": models.robust_model(models.RobustModelParams(1.0, 2.0, 0.5, 3.0)),
            "bloch_curve": bloch_curve(curve),
            "rotating": rotating_spin(RotatingSpinParams(eta=1.0, xi=0.5, K=1.0)),
            "finite_difference": bloch_curve(BlochCurveModel(
                theta=SmoothScalar.from_callable(curve.theta.value),
                phi=SmoothScalar.from_callable(curve.phi.value),
            )),
        }

    @pytest.mark.parametrize("name", ["fourier3", "fourier8", "robust", "bloch_curve",
                                      "rotating", "finite_difference"])
    def test_equals_the_orbit_of_the_frame(self, name):
        model = self.models()[name]
        grid = TimeGrid.uniform(0.0, 2.0, 1025)
        frame = build_frame(model, grid)
        for m in range(model.dim):
            expected, orbit = adiabatic_trajectory(frame, m), frames.level_orbit(model, grid, m)
            assert orbit.grid is grid and orbit.level == m
            assert np.array_equal(orbit.phases, expected.phases)
            assert np.array_equal(orbit.states, expected.states)

    @pytest.mark.parametrize("samples", [4, 7, 60])
    def test_short_and_clustered_grids(self, rng, samples):
        # numpy's gradient below 5 samples, the local quartic above
        model = random_fourier(3, 3)
        grid = TimeGrid(np.cumsum(rng.uniform(0.5, 1.5, samples)) / (2.0 * samples))
        frame = build_frame(model, grid)
        for m in range(3):
            expected, orbit = adiabatic_trajectory(frame, m), frames.level_orbit(model, grid, m)
            assert np.array_equal(orbit.phases, expected.phases)
            assert np.array_equal(orbit.states, expected.states)

    def test_analytic_derivative_route_samples_no_derivative(self, monkeypatch):
        model = random_fourier(3, 8)
        monkeypatch.setattr(models.HamiltonianModel, "sample_derivative", None)
        orbit = frames.level_orbit(model, TimeGrid.uniform(0.0, 1.0, 257), 5)
        assert orbit.states.shape == (257, 8)

    def test_level_outside_the_model_raises(self):
        with pytest.raises(OutOfRangeError, match="level 3 outside 0..2"):
            frames.level_orbit(random_fourier(3, 3), TimeGrid.uniform(0.0, 1.0, 65), 3)


class TestRegauge:
    def test_rejects_a_wrong_count_of_functions(self, rot_model, grid):
        frame = build_frame(rot_model, grid, gamma_mode="analytic_frame")
        with pytest.raises(ValueError, match="^need 2 gauge functions, got 3$"):
            regauge(frame, [SmoothScalar.constant(0.0)] * 3)

    def test_rejects_nonzero_anchor(self, rot_model, grid):
        frame = build_frame(rot_model, grid, gamma_mode="analytic_frame")
        with pytest.raises(ValueError):
            regauge(frame, [SmoothScalar.constant(0.3), SmoothScalar.constant(0.0)])

    def test_gamma_transformation_is_consistent(self, rot_model, grid, rng):
        frame = build_frame(rot_model, grid, gamma_mode="analytic_derivative")
        fs = [SmoothScalar.poly([0.0, *rng.normal(0.0, 0.2, 2)]) for _ in range(2)]
        regauged = regauge(frame, fs)
        # recompute gamma from the regauged vectors by finite differences
        from qgplab.numerics import derivative_series

        dvec = derivative_series(regauged.vectors, grid.samples)
        direct = 1j * np.einsum("kin,kim->knm", regauged.vectors.conj(), dvec)
        assert np.max(np.abs(direct - regauged.gamma)) < 1e-5


def sequential_track(energies, vectors):
    """Oracle: the per-sample tracking loop that ``build_frame`` batched.

    One assignment per step on the overlaps of the already tracked and
    phase-fixed vectors, then parallel transport of that one step.
    """
    energies = energies.copy()
    vectors = vectors.copy()
    dim = energies.shape[1]
    min_overlap = 1.0
    for k in range(1, energies.shape[0]):
        overlap = vectors[k - 1].conj().T @ vectors[k]
        weight = np.abs(overlap)
        rows, cols = scipy_linear_sum_assignment(-weight)
        perm = np.empty(dim, dtype=int)
        perm[rows] = cols
        matched = weight[rows, perm[rows]]
        if np.min(matched) < 0.5:
            raise TrackingAmbiguityError(
                f"maximum overlap {np.min(matched):.3f} < 0.5 between samples "
                f"{k - 1} and {k}; grid too coarse"
            )
        vectors[k] = vectors[k][:, perm]
        energies[k] = energies[k][perm]
        diag = overlap[np.arange(dim), perm]
        vectors[k] *= np.exp(-1j * np.angle(diag))[None, :]
        min_overlap = min(min_overlap, float(np.min(np.abs(diag))))
    return energies, vectors, min_overlap


def sequential_frame(model, grid):
    """Oracle frame: sequential tracking, then the three-operand einsum for
    the off-diagonal gamma of the analytic-derivative route."""
    energies, vectors = eigh_batch(model.sample(grid.samples))
    energies, vectors, min_overlap = sequential_track(energies, vectors)
    hdots = model.sample_derivative(grid.samples)
    cross = np.einsum("kin,kij,kjm->knm", vectors.conj(), hdots, vectors)
    denom = energies[:, None, :] - energies[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = 1j * cross / denom
    return energies, vectors, gamma, min_overlap


def random_fourier(seed, dim=4):
    rng = np.random.default_rng(seed)
    terms = [models.FourierTerm(np.diag(3.0 * np.arange(dim)).astype(complex), 0.0, 1.0)]
    for omega in (1.0, 2.3):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        terms.append(models.FourierTerm(0.5 * (g + g.conj().T), omega, 0.4, rng.uniform(0, 6)))
    return models.fourier_nlevel(dim, terms)


@pytest.fixture
def assign_calls(monkeypatch):
    calls = []

    def counted(weight):
        calls.append(weight)
        return scipy_linear_sum_assignment(weight)

    monkeypatch.setattr(frames, "linear_sum_assignment", counted)
    return calls


class TestLevelTracking:
    def test_uncoupled_crossings_follow_the_lines(self, assign_calls):
        model, lines = uncoupled_crossings()
        grid = TimeGrid.uniform(-1.0, 1.0, 800)
        crossings = np.array([-0.4, 0.15, 1.0 / 3.0])
        assert np.min(np.abs(grid.samples[:, None] - crossings)) > 1e-4
        frame = build_frame(model, grid, gamma_mode="analytic_derivative")
        expected = lines(grid.samples)
        expected = expected[:, np.argsort(expected[0])]
        np.testing.assert_allclose(frame.energies, expected, rtol=0.0, atol=1e-12)
        # one assignment per reordering, none elsewhere
        assert len(assign_calls) == 3
        # the vectors do not move: continuous through every crossing
        assert np.max(np.abs(frame.vectors - frame.vectors[0])) < 1e-12
        assert frame.min_overlap == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(frame.gamma)) < 1e-10

    # Bounds are >= 10x the measured differences to the sequential oracle:
    # vectors 1.6e-14 / 9.2e-15, off-diagonal gamma 5.6e-15 / 2.3e-13.
    @pytest.mark.parametrize(
        "case,vector_bound,gamma_bound",
        [("fourier4", 2e-13, 1e-13), ("crossings", 1e-13, 3e-12)],
    )
    def test_matches_sequential_loop(self, case, vector_bound, gamma_bound):
        if case == "fourier4":
            model = random_fourier(7)
            grid = TimeGrid.uniform(0.0, 2.0 * np.pi, 4096)
        else:
            q, _ = np.linalg.qr(random_hermitian(np.random.default_rng(11), 3))
            model, _ = uncoupled_crossings(basis=q)
            grid = TimeGrid.uniform(-1.0, 1.0, 800)
        energies, vectors, gamma, min_overlap = sequential_frame(model, grid)
        frame = build_frame(model, grid, gamma_mode="analytic_derivative")
        np.testing.assert_array_equal(frame.energies, energies)
        assert np.max(np.abs(frame.vectors - vectors)) < vector_bound
        off = ~np.eye(model.dim, dtype=bool)
        assert np.max(np.abs(frame.gamma[:, off] - gamma[:, off])) < gamma_bound
        assert frame.min_overlap == pytest.approx(min_overlap, rel=3e-15)

    def test_well_separated_model_never_assigns(self, assign_calls):
        frame = build_frame(random_fourier(3), TimeGrid.uniform(0.0, 2.0 * np.pi, 4096))
        assert frame.min_overlap > 0.99
        assert assign_calls == []

    def test_ambiguity_names_the_first_failing_pair(self):
        # the basis swings from computational to Fourier between samples 2 and 3
        n = 5
        levels = np.diag(np.arange(1.0, n + 1)).astype(complex)
        fourier = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n) / np.sqrt(n)
        rotated = fourier @ levels @ fourier.conj().T
        model = models.HamiltonianModel(
            dim=n,
            evaluate_batch=lambda taus: np.where(
                (taus > 0.6)[:, None, None], rotated, levels
            ) * (1.0 + taus)[:, None, None],
            label="late basis swing",
        )
        grid = TimeGrid.uniform(0.0, 1.0, 5)
        with pytest.raises(TrackingAmbiguityError) as expected:
            sequential_track(*eigh_batch(model.sample(grid.samples)))
        with pytest.raises(TrackingAmbiguityError) as raised:
            build_frame(model, grid, gamma_mode="finite_difference")
        assert str(raised.value) == str(expected.value)
        assert "between samples 2 and 3" in str(raised.value)

    def test_low_overlap_warns(self, caplog):
        fast = rotating_spin(RotatingSpinParams(eta=1.0, xi=0.4, K=40.0))
        grid = TimeGrid.uniform(0.0, 2.0, 65)
        with caplog.at_level(logging.WARNING, logger="qgplab.frames"):
            frame = build_frame(fast, grid, gamma_mode="analytic_derivative")
        [record] = [r for r in caplog.records if r.name == "qgplab.frames"]
        assert record.levelno == logging.WARNING
        assert record.getMessage() == (
            f"level-tracking overlap dropped to {frame.min_overlap:.4f} (< 0.99); "
            "consider a finer grid"
        )
        _, _, min_overlap = sequential_track(*eigh_batch(fast.sample(grid.samples)))
        assert frame.min_overlap < 0.99
        assert frame.min_overlap == pytest.approx(min_overlap, rel=3e-15)


class TestGammaOverDerivative:
    """On the analytic-derivative route gamma is assembled over the model's
    derivative stack, after it is made a writable complex array."""

    def test_read_only_real_derivative_is_copied_before_it_is_overwritten(self):
        rng = np.random.default_rng(5)
        h0 = np.diag([0.0, 1.0, 3.0]).astype(complex)
        hdot = np.real(random_hermitian(rng, 3))
        shared = np.broadcast_to(hdot, (4096, 3, 3))

        def linear(derivative_batch):
            return models.HamiltonianModel(
                dim=3, evaluate_batch=lambda taus: h0 + taus[:, None, None] * hdot,
                derivative_batch=derivative_batch,
            )

        grid = TimeGrid.uniform(0.0, 0.5, 513)
        frame = build_frame(linear(lambda taus: shared[: taus.size]), grid)
        copied = build_frame(linear(lambda taus: shared[: taus.size].astype(complex)), grid)
        assert frame.gamma_mode == "analytic_derivative"
        for name in ("energies", "vectors", "gamma"):
            assert np.array_equal(getattr(frame, name), getattr(copied, name))
        assert np.array_equal(shared[0], hdot)

    def test_gamma_stage_holds_three_stacks(self, monkeypatch):
        # one CPU: the per-sample blocks run inline, one at a time
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        dim, samples = 8, 4096
        model = random_fourier(3, dim)
        grid = TimeGrid.uniform(0.0, 2.0 * np.pi, samples)
        tracemalloc.start()
        try:
            frame = build_frame(model, grid, gamma_mode="analytic_derivative")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert frame.min_overlap > 0.99
        matrix_bytes = 16 * dim * dim
        # the vectors, their derivative and gamma written over h-dot; one
        # block's conjugate transpose and product; the energies and as much
        # again for the smaller per-sample arrays
        bound = (3 * samples * matrix_bytes + 2 * linalg.EXPM_BLOCK * matrix_bytes
                 + samples * dim * 16)
        assert peak <= bound


class TestPooledFrame:
    """build_frame's per-sample blocks on a two-CPU pool against the same call
    run inline on one CPU: every array is bit-identical."""

    @pytest.mark.parametrize("case,mode,assignments", [
        ("fourier4", "analytic_derivative", 0),
        ("fourier4", "finite_difference", 0),
        ("crossings", "analytic_derivative", 3),
        ("crossings", "finite_difference", 3),
    ])
    def test_pooled_equals_inline(self, monkeypatch, assign_calls, case, mode, assignments):
        if case == "fourier4":
            model, grid = random_fourier(3), TimeGrid.uniform(0.0, 2.0 * np.pi, 5000)
        else:
            q, _ = np.linalg.qr(random_hermitian(np.random.default_rng(11), 3))
            model, _ = uncoupled_crossings(basis=q)
            grid = TimeGrid.uniform(-1.0, 1.0, 3000)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        pooled = build_frame(model, grid, gamma_mode=mode)
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            inline = build_frame(model, grid, gamma_mode=mode)
        assert len(assign_calls) == 2 * assignments
        for name in ("energies", "vectors", "gamma"):
            assert np.array_equal(getattr(pooled, name), getattr(inline, name))
        assert pooled.min_overlap == inline.min_overlap
