import numpy as np
import pytest

from qgplab import linalg, models, qgp
from qgplab.errors import GapClosureError, InvalidParamsError, NotHermitianError
from qgplab.linalg import SIGMA_X, SIGMA_Y, SIGMA_Z
from qgplab.models import (
    BlochCurveModel,
    FourierTerm,
    RobustModelParams,
    RotatingSpinParams,
    SmoothScalar,
    bloch_curve,
    fourier_nlevel,
    robust_model,
    rotating_spin,
)


def robust_hamiltonian_nested(params: RobustModelParams, tau: float) -> np.ndarray:
    """h(tau) of the robust model from its defining nested exponentials.

    An independent route to the closed-form Pauli components that
    ``robust_model`` samples; tests pin the two against each other.
    """
    p = params
    u_z = linalg.expm_unitary(SIGMA_Z, p.eta * tau)
    u_x = linalg.expm_unitary(SIGMA_X, -p.eta2 * tau)  # e^{+i eta2 sx tau}
    inner = p.eta0 * SIGMA_X + p.eta1 * (u_x @ SIGMA_Z @ linalg.dagger(u_x))
    return p.eta * SIGMA_Z + u_z @ inner @ linalg.dagger(u_z)


ALL_MODELS = {}


def _zoo():
    if not ALL_MODELS:
        ALL_MODELS["rotating"] = rotating_spin(RotatingSpinParams(eta=1.0, xi=0.4, K=2.0))
        ALL_MODELS["robust"] = robust_model(RobustModelParams(eta=0.6, eta0=8.0, eta1=0.5, eta2=11.0))
        ALL_MODELS["bloch"] = bloch_curve(
            BlochCurveModel(
                theta=SmoothScalar.sinusoid(1.1, 0.3, 1.7),
                phi=SmoothScalar.poly([0.0, 1.2, 0.2]),
                A=SmoothScalar.poly([0.1, 0.05]),
                B=SmoothScalar.sinusoid(2.0, 0.5, 0.9),
            )
        )
        ALL_MODELS["fourier"] = fourier_nlevel(
            3,
            [
                FourierTerm(np.diag([1.0, 0.0, -1.0]).astype(complex), 0.0, 1.0),
                FourierTerm(
                    np.array([[0, 1, 0], [1, 0, 1j], [0, -1j, 0]], dtype=complex), 1.3, 0.4
                ),
            ],
        )
    return ALL_MODELS


class TestHamiltonianModel:
    def test_sample_derivative_needs_a_derivative(self):
        model = models.HamiltonianModel(
            dim=2, evaluate_batch=lambda taus: np.broadcast_to(SIGMA_Z, (taus.size, 2, 2)),
            label="plain",
        )
        with pytest.raises(InvalidParamsError, match="^model 'plain' has no analytic derivative$"):
            model.sample_derivative([0.0, 1.0])


class TestRotatingSpin:
    def test_at_tau_zero(self):
        model = rotating_spin(RotatingSpinParams(eta=0.7, xi=0.3, K=5.0))
        np.testing.assert_allclose(model.evaluate(0.0), 0.7 * SIGMA_Z + 0.3 * SIGMA_X, atol=1e-15)

    def test_entrywise_formula(self):
        params = RotatingSpinParams(eta=1.0, xi=0.05, K=1.0)
        model = rotating_spin(params)
        tau = 0.37
        phase = 2.0 * params.K * params.eta * tau
        expected = (
            params.eta * SIGMA_Z
            + params.xi * (SIGMA_X * np.cos(phase) + SIGMA_Y * np.sin(phase))
        )
        np.testing.assert_allclose(model.evaluate(tau), expected, atol=1e-14)

    def test_analytic_qgp_is_constant_2_k_eta_cos_theta(self):
        params = RotatingSpinParams(eta=1.0, xi=0.5, K=3.0)
        model = rotating_spin(params)
        taus = np.linspace(0.0, 5.0, 11)
        delta = model.analytic_frame.delta_at(taus)
        expected = 2.0 * params.K * params.eta * params.cos_theta
        np.testing.assert_allclose(delta[:, 1, 0], expected, atol=1e-14)
        np.testing.assert_allclose(delta[:, 0, 1], -expected, atol=1e-14)

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            RotatingSpinParams(eta=-1.0, xi=0.5, K=1.0)
        with pytest.raises(InvalidParamsError):
            RotatingSpinParams(eta=1.0, xi=0.0, K=1.0)
        with pytest.raises(InvalidParamsError, match="^rotating spin parameters must be finite$"):
            RotatingSpinParams(eta=1.0, xi=0.5, K=np.inf)


class TestRobustModel:
    def test_at_tau_zero(self):
        p = RobustModelParams(eta=1.0, eta0=20.0, eta1=1.0, eta2=100.0)
        expected = p.eta0 * SIGMA_X + (p.eta + p.eta1) * SIGMA_Z
        np.testing.assert_allclose(robust_model(p).evaluate(0.0), expected, atol=1e-13)

    @pytest.mark.parametrize("tau", [0.0, 0.1, 0.5])
    def test_gap_equals_2n(self, tau):
        p = RobustModelParams(eta=0.9, eta0=7.0, eta1=0.8, eta2=5.0)
        values, _ = linalg.eigh_batch(robust_model(p).evaluate(tau))
        gap = values[1] - values[0]
        assert abs(gap - 2.0 * float(p.gap_scale(tau))) < 1e-10

    def test_fig1_regime_constructs(self, fig1_params):
        # a strong static field and a weak wobble
        assert fig1_params.eta0 >= 10 * fig1_params.eta and fig1_params.eta0 >= 10 * fig1_params.eta1
        model = robust_model(fig1_params)
        h = model.evaluate(0.3)
        assert linalg.hermiticity_defect(h) < 1e-12

    def test_exponential_route_matches_closed_form(self, rng):
        p = RobustModelParams(eta=1.3, eta0=6.0, eta1=0.7, eta2=9.0)
        model = robust_model(p)
        taus = rng.uniform(0.0, 4.0, 12)
        pointwise = np.stack([robust_hamiltonian_nested(p, float(t)) for t in taus])
        np.testing.assert_allclose(pointwise, model.sample(taus), atol=1e-13)

    def test_non_finite_params_rejected(self):
        with pytest.raises(InvalidParamsError, match="^robust model parameters must be finite$"):
            RobustModelParams(eta=1.0, eta0=np.nan, eta1=1.0, eta2=1.0)

    def test_negative_mixed_radicand_rejected(self):
        with pytest.raises(InvalidParamsError):
            RobustModelParams(eta=1.0, eta0=0.1, eta1=5.0, eta2=-1.0)

    def test_exact_propagator_solves_schrodinger(self, fig1_params):
        eps = 1e-6
        worst = 0.0
        model = robust_model(fig1_params)
        for tau in (0.1, 0.9, 2.7):
            du = (
                models.robust_exact_propagator(fig1_params, tau + eps)
                - models.robust_exact_propagator(fig1_params, tau - eps)
            ) / (2 * eps)
            u = models.robust_exact_propagator(fig1_params, tau)
            worst = max(worst, linalg.max_abs(1j * du - model.evaluate(tau) @ u))
        assert worst < 1e-6


class TestBlochCurve:
    def test_equator_point_is_sigma_x(self):
        curve = BlochCurveModel(
            theta=SmoothScalar.constant(np.pi / 2), phi=SmoothScalar.constant(0.0)
        )
        np.testing.assert_allclose(bloch_curve(curve).evaluate(0.3), SIGMA_X, atol=1e-15)

    def test_pole_is_diagonal(self):
        curve = BlochCurveModel(
            theta=SmoothScalar.constant(0.0),
            phi=SmoothScalar.constant(0.0),
            A=SmoothScalar.constant(0.5),
            B=SmoothScalar.constant(2.0),
        )
        h = bloch_curve(curve).evaluate(1.0)
        np.testing.assert_allclose(h, 0.5 * np.eye(2) + 2.0 * SIGMA_Z, atol=1e-15)

    def test_unit_eigenvalues_on_tilted_circle(self):
        curve = BlochCurveModel(
            theta=SmoothScalar.constant(np.pi / 3), phi=SmoothScalar.poly([0.0, 2.0])
        )
        model = bloch_curve(curve)
        for tau in np.linspace(0.0, 3.0, 16):
            vals, _ = linalg.eigh_batch(model.evaluate(tau))
            np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-12)

    def test_gap_closure_raises(self):
        curve = BlochCurveModel(
            theta=SmoothScalar.constant(1.0),
            phi=SmoothScalar.constant(0.0),
            B=SmoothScalar.poly([1.0, -2.0]),  # B < 0 for tau > 0.5
        )
        with pytest.raises(GapClosureError):
            bloch_curve(curve).sample(np.linspace(0.0, 1.0, 9))


class TestFourier:
    def test_constant_sigma_z(self):
        model = fourier_nlevel(2, [FourierTerm(SIGMA_Z, 0.0, 1.0)])
        np.testing.assert_allclose(model.evaluate(2.2), SIGMA_Z, atol=1e-15)

    def test_reproduces_rotating_spin(self):
        params = RotatingSpinParams(eta=0.8, xi=0.3, K=1.5)
        omega = params.omega
        model_f = fourier_nlevel(
            2,
            [
                FourierTerm(SIGMA_Z, 0.0, params.eta),
                FourierTerm(SIGMA_X, omega, params.xi, 0.0),
                FourierTerm(SIGMA_Y, omega, params.xi, -np.pi / 2),  # sin = cos(x - pi/2)
            ],
        )
        model_r = rotating_spin(params)
        taus = np.linspace(0.0, 7.0, 40)
        np.testing.assert_allclose(model_f.sample(taus), model_r.sample(taus), atol=1e-14)

    def test_empty_terms_is_zero_and_evolution_is_identity(self):
        model = fourier_nlevel(3, [])
        np.testing.assert_allclose(model.evaluate(1.0), np.zeros((3, 3)), atol=0)
        from qgplab.evolve import evolve_schrodinger
        from qgplab.frames import TimeGrid

        psi0 = np.array([0.0, 1.0, 0.0], dtype=complex)
        result = evolve_schrodinger(model, psi0, TimeGrid.uniform(0.0, 2.0, 65), tol=1e-12)
        np.testing.assert_allclose(result.states, np.broadcast_to(psi0, result.states.shape), atol=1e-14)

    def test_rejects_a_term_of_the_wrong_shape(self):
        with pytest.raises(InvalidParamsError, match=r"^term 0 has shape \(3, 3\), expected \(2, 2\)$"):
            fourier_nlevel(2, [FourierTerm(np.eye(3), 1.0, 1.0)])

    def test_rejects_non_hermitian_term(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NotHermitianError):
            fourier_nlevel(2, [FourierTerm(bad, 1.0, 1.0)])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("terms, named", [
        ([FourierTerm(np.diag([0.0, 2e10, 5e10]), 0.0, 1e300)], "[0]"),
        ([FourierTerm(np.diag([0.0, 2.0, 5.0]), 1e308, 1.0)], "[0]"),
        ([FourierTerm(np.diag([0.0, 1.0, 1.0]), 0.0, 1e308),
          FourierTerm(np.eye(3), 1.0, 1e308)], "[0, 1]"),
    ], ids=["amplitude", "amplitude-omega", "only-the-sum"])
    def test_rejects_a_non_finite_bound_naming_the_terms(self, terms, named):
        coupling = FourierTerm(np.ones((3, 3)), 1.7, 1.0)
        with pytest.raises(InvalidParamsError, match=rf"fourier terms \{named}\: .* not finite"):
            fourier_nlevel(3, [*terms, coupling])


class TestModelInvariants:
    @pytest.mark.parametrize("name", ["rotating", "robust", "bloch", "fourier"])
    def test_hermitian_on_random_taus(self, name, rng):
        model = _zoo()[name]
        taus = rng.uniform(0.0, 10.0, 1000)
        hs = model.sample(taus)
        defect = linalg.max_abs(hs - linalg.dagger(hs))
        assert defect < 1e-12

    @pytest.mark.parametrize("name", ["rotating", "robust", "bloch", "fourier"])
    def test_derivative_matches_finite_difference(self, name, rng):
        model = _zoo()[name]
        eps = 1e-5
        taus = rng.uniform(0.0, 5.0, 16)
        fd = (model.sample(taus + eps) - model.sample(taus - eps)) / (2 * eps)
        assert linalg.max_abs(fd - model.sample_derivative(taus)) < 1e-6

    @pytest.mark.parametrize("name", ["rotating", "robust", "bloch", "fourier", "constant",
                                      "reparametrized"])
    def test_sample_returns_one_matrix_per_tau(self, name):
        zoo = dict(_zoo(), constant=models.constant_model(0.5 * SIGMA_X + SIGMA_Z))
        rmap = qgp.ReparamMap(f=SmoothScalar.poly([0.0, 1.0, 0.5]), domain=(0.0, 2.0))
        zoo["reparametrized"] = qgp.reparametrized_model(zoo["rotating"], rmap)
        model = zoo[name]
        n = model.dim
        for sample in (model.sample, model.sample_derivative):
            assert sample(0.3).shape == (1, n, n)
            assert sample([0.1, 0.2]).shape == (2, n, n)
            np.testing.assert_array_equal(sample(0.3)[0], sample([0.1, 0.3])[1])

    @pytest.mark.parametrize("params", [
        RotatingSpinParams(eta=1.0, xi=0.4, K=2.0),
        RotatingSpinParams(eta=0.995, xi=0.0999, K=1.0),
        RotatingSpinParams(eta=0.3, xi=2.5, K=-0.7),
    ])
    def test_rotating_spin_frame_is_its_bloch_curve(self, params, rng):
        # the rotating field is the Bloch curve theta = acos(eta/E), phi = 2 K eta tau
        # with B = E and A = 0; both closed forms must agree
        curve = bloch_curve(BlochCurveModel(
            theta=SmoothScalar.constant(np.arccos(params.eta / params.energy)),
            phi=SmoothScalar.poly([0.0, 2.0 * params.K * params.eta]),
            A=SmoothScalar.constant(0.0),
            B=SmoothScalar.constant(params.energy),
        ))
        spin = rotating_spin(params)
        taus = np.sort(rng.uniform(-3.0, 7.0, 64))
        for got, want in zip(spin.analytic_frame.frame_at(taus), curve.analytic_frame.frame_at(taus)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-14
        delta = spin.analytic_frame.delta_at(taus)
        assert np.max(np.abs(delta - curve.analytic_frame.delta_at(taus))) < 1e-14

    @pytest.mark.parametrize("name", ["rotating", "bloch"])
    def test_analytic_gamma_is_i_phi_dagger_phi_dot(self, name, rng):
        # gamma[k, n, m] = i <phi_n|d phi_m/dtau>, by central differences of the
        # closed-form vectors themselves (same gauge)
        frame_at = _zoo()[name].analytic_frame.frame_at
        taus, eps = rng.uniform(0.0, 5.0, 25), 1e-6
        _, vectors, gamma = frame_at(taus)
        dv = (frame_at(taus + eps)[1] - frame_at(taus - eps)[1]) / (2 * eps)
        expected = 1j * np.einsum("kin,kim->knm", vectors.conj(), dv)
        assert linalg.max_abs(gamma - expected) < 1e-8

    @pytest.mark.parametrize("name", ["rotating", "bloch"])
    def test_analytic_frame_solves_eigenproblem(self, name, rng):
        model = _zoo()[name]
        taus = rng.uniform(0.0, 5.0, 25)
        energies, vectors, _ = model.analytic_frame.frame_at(taus)
        hs = model.sample(taus)
        resid = np.einsum("kij,kjn->kin", hs, vectors) - energies[:, None, :] * vectors
        assert np.max(np.abs(resid)) < 1e-10
        # and the energies agree with eigh ordering
        vals, _ = linalg.eigh_batch(hs)
        np.testing.assert_allclose(energies, vals, atol=1e-10)
