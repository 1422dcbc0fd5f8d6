import numpy as np
import pytest

from qgplab import evolve, metrics, models, qgp
from qgplab.errors import DegenerateAError, GridMismatchError, InvalidParamsError
from qgplab.frames import TimeGrid, adiabatic_trajectory, build_frame
from qgplab.metrics import (
    closed_form_F,
    closed_form_P,
    fidelity,
    occupation,
    p_min,
    rotating_fidelity_period,
)
from qgplab.models import (
    RobustModelParams,
    RotatingSpinParams,
    robust_adiabatic_projector,
    robust_exact_propagator,
    robust_model,
    rotating_spin,
)


def upper_state(params):
    rho = robust_adiabatic_projector(params, 0.0, +1)
    vals, vecs = np.linalg.eigh(rho)
    return vecs[:, np.argmax(vals)]


class TestFidelity:
    def test_identical_states_give_one(self):
        model = rotating_spin(RotatingSpinParams(eta=1.0, xi=0.5, K=1.0))
        grid = TimeGrid.uniform(0.0, 1.0, 129)
        frame = build_frame(model, grid, gamma_mode="analytic_frame")
        traj = adiabatic_trajectory(frame, 1)
        fake = evolve.EvolutionResult(
            grid=grid, states=traj.states, method="exact", substeps_per_interval=1,
        )
        np.testing.assert_allclose(fidelity(fake, traj).values, 1.0, atol=1e-12)

    def test_orthogonal_states_give_zero(self):
        model = rotating_spin(RotatingSpinParams(eta=1.0, xi=0.5, K=1.0))
        grid = TimeGrid.uniform(0.0, 1.0, 129)
        frame = build_frame(model, grid, gamma_mode="analytic_frame")
        upper = adiabatic_trajectory(frame, 1)
        lower = adiabatic_trajectory(frame, 0)
        fake = evolve.EvolutionResult(
            grid=grid, states=lower.states, method="exact", substeps_per_interval=1,
        )
        np.testing.assert_allclose(fidelity(fake, upper).values, 0.0, atol=1e-12)

    def test_grid_mismatch_rejected(self):
        model = rotating_spin(RotatingSpinParams(eta=1.0, xi=0.5, K=1.0))
        frame_a = build_frame(model, TimeGrid.uniform(0.0, 1.0, 65), gamma_mode="analytic_frame")
        frame_b = build_frame(model, TimeGrid.uniform(0.0, 1.0, 129), gamma_mode="analytic_frame")
        traj_b = adiabatic_trajectory(frame_b, 1)
        fake = evolve.EvolutionResult(
            grid=frame_a.grid, states=frame_a.vectors[:, :, 1], method="exact",
            substeps_per_interval=1,
        )
        with pytest.raises(GridMismatchError):
            fidelity(fake, traj_b)

    def test_state_dimension_mismatch_rejected(self):
        grid = TimeGrid.uniform(0.0, 1.0, 65)
        frame = build_frame(models.constant_model(np.diag([0.0, 1.0, 3.0])), grid)
        traj = adiabatic_trajectory(frame, 0)
        fake = evolve.EvolutionResult(
            grid=grid, states=traj.states[:, :2], method="exact", substeps_per_interval=1,
        )
        with pytest.raises(GridMismatchError, match="^state dimensions differ$"):
            fidelity(fake, traj)

    def test_simulated_matches_closed_form(self, regime_rescued):
        params = regime_rescued
        model = rotating_spin(params)
        grid = TimeGrid.uniform(0.0, 2.0 * rotating_fidelity_period(params), 2049)
        frame = build_frame(model, grid, gamma_mode="analytic_frame")
        psi0 = frame.vectors[0, :, 1].copy()
        result = evolve.evolve_schrodinger(model, psi0, grid, tol=1e-9)
        fid = fidelity(result, adiabatic_trajectory(frame, 1))
        np.testing.assert_allclose(fid.values, closed_form_F(params, grid.samples), atol=1e-6)
        assert np.all(fid.values >= 0.0) and np.all(fid.values <= 1.0 + 1e-12)
        # the bookkeeping is derived from the states and the refinement trail
        norms = np.linalg.norm(result.states, axis=1)
        assert np.array_equal(result.norms, norms)
        assert result.total_steps == result.substeps_per_interval * (grid.n - 1)
        assert result.max_norm_drift == float(np.max(np.abs(norms - 1.0)))
        assert result.refinements == len(result.convergence) > 0


class TestClosedFormF:
    def test_tau_zero_is_one(self):
        assert closed_form_F(RotatingSpinParams(eta=1.0, xi=0.5, K=3.0), 0.0) == 1.0

    def test_static_direction_k_zero_stays_one(self):
        params = RotatingSpinParams(eta=0.8, xi=0.6, K=0.0)
        taus = np.linspace(0.0, 20.0, 501)
        np.testing.assert_allclose(closed_form_F(params, taus), 1.0, atol=1e-12)

    def test_unfaithful_regime_minimum(self, regime_unfaithful):
        params = regime_unfaithful
        # K = 1: A = xi, bracket collapses to sin(theta)
        expected_min = params.sin_theta
        a = params.xi
        assert closed_form_F(params, np.pi / (2.0 * a)) == pytest.approx(expected_min, abs=1e-12)
        taus = np.linspace(0.0, 2.0 * np.pi / a, 20001)
        assert np.min(closed_form_F(params, taus)) == pytest.approx(expected_min, abs=1e-8)

    def test_degenerate_a_rejected(self):
        with pytest.raises(DegenerateAError):
            closed_form_F(RotatingSpinParams(eta=1.0, xi=1e-300, K=1.0), 0.5)

    def test_periodicity(self, rng):
        params = RotatingSpinParams(eta=1.2, xi=0.4, K=3.7)
        period = rotating_fidelity_period(params)
        taus = rng.uniform(0.0, 10.0, 64)
        np.testing.assert_allclose(
            closed_form_F(params, taus + period), closed_form_F(params, taus), atol=1e-10
        )

    def test_values_in_unit_interval(self, rng):
        params = RotatingSpinParams(eta=1.0, xi=0.3, K=5.0)
        values = closed_form_F(params, rng.uniform(0.0, 50.0, 1000))
        assert np.all(values >= 0.0) and np.all(values <= 1.0 + 1e-12)


class TestClosedFormP:
    def test_tau_zero_is_one(self, fig1_params):
        assert closed_form_P(fig1_params, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_matches_exact_propagator(self, fig1_params, rng):
        psi0 = upper_state(fig1_params)
        for tau in rng.uniform(0.0, 2.0 * np.pi, 40):
            u = robust_exact_propagator(fig1_params, float(tau))
            psi = u @ psi0
            proj = robust_adiabatic_projector(fig1_params, float(tau), +1)
            exact = float(np.real(np.conj(psi) @ proj @ psi))
            assert abs(exact - closed_form_P(fig1_params, float(tau))) < 1e-12

    def test_unit_interval(self, fig1_params):
        taus = np.linspace(0.0, 4.0 * np.pi, 30001)
        values = closed_form_P(fig1_params, taus)
        assert np.all(values >= -1e-9) and np.all(values <= 1.0 + 1e-9)

    def test_minus_orbit_same_probability(self, fig1_params, rng):
        rho0 = robust_adiabatic_projector(fig1_params, 0.0, -1)
        vals, vecs = np.linalg.eigh(rho0)
        psi0 = vecs[:, np.argmax(vals)]
        for tau in rng.uniform(0.0, 5.0, 10):
            u = robust_exact_propagator(fig1_params, float(tau))
            psi = u @ psi0
            proj = robust_adiabatic_projector(fig1_params, float(tau), -1)
            exact = float(np.real(np.conj(psi) @ proj @ psi))
            assert abs(exact - closed_form_P(fig1_params, float(tau))) < 1e-12

    def test_simulated_probability_matches(self, fig1_params):
        model = robust_model(fig1_params)
        grid = TimeGrid.uniform(0.0, 1.0, 1025)
        psi0 = upper_state(fig1_params)
        result = evolve.evolve_schrodinger(model, psi0, grid, tol=1e-7)
        frame = build_frame(model, grid, gamma_mode="analytic_derivative")
        occ = occupation(result, frame, 1)
        np.testing.assert_allclose(occ.values, closed_form_P(fig1_params, grid.samples), atol=1e-6)


    def test_closed_gap_scale_rejected(self):
        # eta + eta1 = 0 and eta0 = 0: N(0) = 0
        with pytest.raises(InvalidParamsError, match=r"^gap scale N\(tau\) must be positive$"):
            closed_form_P(RobustModelParams(eta=1.0, eta0=0.0, eta1=-1.0, eta2=1.0), 0.5)

    def test_vanishing_eta_bar_rejected(self):
        with pytest.raises(InvalidParamsError, match="^eta_bar = 0; closed form undefined$"):
            closed_form_P(RobustModelParams(eta=1.0, eta0=1.0, eta1=0.0, eta2=-1.0), 0.5)


class TestPMin:
    def test_closed_gap_scale_rejected(self):
        with pytest.raises(InvalidParamsError, match=r"^N\(0\) must be positive$"):
            p_min(RobustModelParams(eta=1.0, eta0=0.0, eta1=-1.0, eta2=1.0))

    def test_no_z_component_gives_one(self):
        params = RobustModelParams(eta=0.0, eta0=5.0, eta1=0.0, eta2=3.0)
        assert p_min(params) == 1.0

    def test_reference_value(self, fig1_params):
        assert p_min(fig1_params) == pytest.approx(1.0 - 4.0 / 404.0, abs=1e-15)
        assert p_min(fig1_params) == pytest.approx(0.9900990099009901, abs=1e-15)

    @pytest.mark.parametrize("eta2", [10.0, 100.0, 1000.0])
    def test_floor_independent_of_eta2(self, eta2):
        params = RobustModelParams(eta=1.0, eta0=20.0, eta1=1.0, eta2=eta2)
        taus = np.linspace(0.0, 2.0 * np.pi, 400001)
        assert np.min(closed_form_P(params, taus)) >= p_min(params)


class TestRandomizedOracleAgreement:
    def test_rotating_ten_random_draws(self):
        rng = np.random.default_rng(512)
        for _ in range(10):
            params = RotatingSpinParams(
                eta=float(rng.uniform(0.3, 2.0)),
                xi=float(rng.uniform(0.05, 1.0)),
                K=float(rng.uniform(0.2, 8.0)),
            )
            model = rotating_spin(params)
            grid = TimeGrid.uniform(0.0, 1.5 * rotating_fidelity_period(params), 1025)
            frame = build_frame(model, grid, gamma_mode="analytic_frame")
            psi0 = frame.vectors[0, :, 1].copy()
            result = evolve.evolve_schrodinger(model, psi0, grid, tol=1e-8)
            fid = fidelity(result, adiabatic_trajectory(frame, 1))
            np.testing.assert_allclose(
                fid.values, closed_form_F(params, grid.samples), atol=1e-6
            )

    def test_robust_ten_random_draws(self):
        rng = np.random.default_rng(513)
        for _ in range(10):
            params = RobustModelParams(
                eta=float(rng.uniform(0.2, 1.5)),
                eta0=float(rng.uniform(5.0, 25.0)),
                eta1=float(rng.uniform(0.1, 1.5)),
                eta2=float(rng.uniform(2.0, 30.0)),
            )
            model = robust_model(params)
            grid = TimeGrid.uniform(0.0, 1.5, 513)
            psi0 = upper_state(params)
            result = evolve.evolve_schrodinger(model, psi0, grid, tol=1e-7)
            frame = build_frame(model, grid, gamma_mode="analytic_derivative")
            occ = occupation(result, frame, 1)
            np.testing.assert_allclose(
                occ.values, closed_form_P(params, grid.samples), atol=1e-6
            )


class TestQgpRatioRobust:
    def test_fig1_ratio_and_sign(self, fig1_params):
        """Over two periods pi/eta2, the median |Delta_+-|/|gamma_+-| lies within a
        factor 2 of eta0/eta1 and Delta_+- carries the sign of e_- - e_+."""
        horizon = 2.0 * np.pi / fig1_params.eta2
        frame = build_frame(
            robust_model(fig1_params),
            TimeGrid.uniform(0.0, horizon, 8192),
            gamma_mode="analytic_derivative",
        )
        series = qgp.qgp(frame, 1, 0)
        valid = series.valid
        ratio = np.median(np.abs(series.delta[valid]) / series.gamma_abs[valid])
        expected = fig1_params.eta0 / fig1_params.eta1
        assert expected / 2.0 <= ratio <= expected * 2.0
        gap = frame.energies[valid, 0] - frame.energies[valid, 1]
        assert np.all(np.sign(series.delta[valid]) == np.sign(gap))

    def test_label_swap_flips_both_signs(self, fig1_params):
        model = robust_model(fig1_params)
        horizon = 2.0 * np.pi / fig1_params.eta2
        frame = build_frame(
            model, TimeGrid.uniform(0.0, horizon, 4097), gamma_mode="analytic_derivative"
        )
        plus = qgp.qgp(frame, 1, 0)
        minus = qgp.qgp(frame, 0, 1)
        both = plus.valid & minus.valid
        np.testing.assert_allclose(plus.delta[both], -minus.delta[both], atol=1e-8)
        gap_10 = frame.energies[:, 0] - frame.energies[:, 1]
        assert np.all(np.sign(plus.delta[both]) == np.sign(gap_10[both]))
        assert np.all(np.sign(minus.delta[both]) == np.sign(-gap_10[both]))
