"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion; any assertion failure marks the criterion FAILED.
"""

import time

import numpy as np
import pytest

from qgplab import cli, evolve, metrics, models, qgp
from qgplab.conditions import PiMatrix, condition_report, constant_case_solution
from qgplab.frames import TimeGrid, adiabatic_trajectory, build_frame, regauge
from qgplab.models import (
    BlochCurveModel,
    RobustModelParams,
    RotatingSpinParams,
    SmoothScalar,
    bloch_curve,
    robust_adiabatic_projector,
    robust_exact_propagator,
    robust_model,
    rotating_spin,
)

RNG_SEED = 74012


def announce(number: int, text: str) -> None:
    print(f"\ncriterion {number:2d} PASS: {text}")


def rotating_run(params: RotatingSpinParams, periods=2.0, samples=4097, tol=1e-8):
    model = rotating_spin(params)
    horizon = periods * metrics.rotating_fidelity_period(params)
    grid = TimeGrid.uniform(0.0, horizon, samples)
    frame = build_frame(model, grid, gamma_mode="analytic_frame")
    psi0 = frame.vectors[0, :, 1].copy()
    result = evolve.evolve_schrodinger(model, psi0, grid, tol=tol)
    fid = metrics.fidelity(result, adiabatic_trajectory(frame, 1))
    return frame, result, fid


@pytest.fixture(scope="module")
def fig1_run():
    """Shared eta2=100 robust-model simulation over [0, 2*pi]."""
    params = RobustModelParams(eta=1.0, eta0=20.0, eta1=1.0, eta2=100.0)
    model = robust_model(params)
    grid = TimeGrid.uniform(0.0, 2.0 * np.pi, 4097)
    frame = build_frame(model, grid, gamma_mode="analytic_derivative")
    rho0 = robust_adiabatic_projector(params, 0.0, +1)
    vals, vecs = np.linalg.eigh(rho0)
    psi0 = vecs[:, np.argmax(vals)]
    result = evolve.evolve_schrodinger(model, psi0, grid, tol=1e-7)
    return params, model, grid, frame, result


def test_criterion_01_unitarity(fig1_run, regime_unfaithful):
    """Norm drift stays within 1e-9 over >= 4096 unitary CF4 steps."""
    _, _, _, _, robust_result = fig1_run
    drifts = [robust_result.max_norm_drift]
    steps = [robust_result.total_steps]
    _, rot_result, _ = rotating_run(regime_unfaithful)
    drifts.append(rot_result.max_norm_drift)
    steps.append(rot_result.total_steps)
    assert min(steps) >= 4096
    assert max(drifts) <= 1e-9
    announce(1, f"max norm drift {max(drifts):.2e} over >= {min(steps)} steps")


def test_criterion_02_rotating_fidelity_oracle():
    """Simulated overlap matches the closed-form fidelity to 1e-6 across a
    parameter grid covering both regimes, in under 5 s."""
    grid_of_params = [
        RotatingSpinParams(0.995, 0.0999, 1.0),   # traditional passes, F dips
        RotatingSpinParams(1.0, 0.05, 200.0),     # traditional fails, F ~ 1
        RotatingSpinParams(1.0, 0.5, 1.0),
        RotatingSpinParams(1.0, 1.0, 0.5),
        RotatingSpinParams(2.0, 0.3, 5.0),
        RotatingSpinParams(0.5, 0.5, 2.0),
        RotatingSpinParams(1.0, 0.05, 50.0),
        RotatingSpinParams(1.0, 0.2, 0.25),
    ]
    start = time.perf_counter()
    worst = 0.0
    for params in grid_of_params:
        _, _, fid = rotating_run(params, samples=2049)
        reference = metrics.closed_form_F(params, fid.grid.samples)
        worst = max(worst, float(np.max(np.abs(fid.values - reference))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 5.0
    announce(2, f"{len(grid_of_params)} parameter sets, max |F_sim - F| = {worst:.2e} in {elapsed:.2f} s")


def test_criterion_03_counterexample_regime(regime_unfaithful):
    """Traditional criterion passes while the evolution leaves the orbit."""
    params = regime_unfaithful
    a = np.hypot((1.0 - params.K) * params.eta, params.xi)
    exact_min = abs(((1.0 - params.K) * params.eta * params.cos_theta
                     + params.xi * params.sin_theta) / a)
    assert metrics.closed_form_F(params, np.pi / (2.0 * a)) == pytest.approx(exact_min, abs=1e-12)
    frame, _, fid = rotating_run(params, periods=2.0, samples=4097)
    assert abs(np.min(fid.values) - exact_min) <= 1e-6
    report = condition_report(frame, 1, delta_threshold=0.1)
    assert report.traditional_pass and report.max_traditional <= 0.1
    assert not report.new_pass and report.max_new > report.new_threshold
    announce(3, f"min F = {np.min(fid.values):.6f} (= closed form {exact_min:.6f}); "
                f"traditional {report.max_traditional:.4f} <= 0.1, new {report.max_new:.2f} FAILS")


def test_criterion_04_rescue_regime(regime_rescued):
    """Traditional criterion fails yet the evolution stays adiabatic."""
    frame, _, fid = rotating_run(regime_rescued, periods=2.0, samples=4097)
    report = condition_report(frame, 1, delta_threshold=0.1)
    assert np.min(fid.values) >= 0.99
    assert not report.traditional_pass
    assert report.new_pass
    announce(4, f"min F = {np.min(fid.values):.6f} >= 0.99; traditional "
                f"{report.max_traditional:.2f} FAILS, new {report.max_new:.4f} passes")


def test_criterion_05_qgp_constancy():
    """Delta_+- equals 2*K*eta*cos(theta) at every sample."""
    params = RotatingSpinParams(eta=1.0, xi=0.5, K=1.0)
    model = rotating_spin(params)
    grid = TimeGrid.uniform(0.0, 2.0 * np.pi, 4097)
    worst = {}
    for mode, tol in (("analytic_frame", 1e-8), ("finite_difference", 1e-5)):
        frame = build_frame(model, grid, gamma_mode=mode)
        series = qgp.qgp(frame, 1, 0)
        assert bool(np.all(series.valid))
        dev = float(np.max(np.abs(series.delta - params.qgp)))
        assert dev <= tol
        worst[mode] = dev
    announce(5, "Delta_+- constant: analytic {analytic_frame:.2e}, finite-diff "
                "{finite_difference:.2e}".format(**worst))


def test_criterion_06_curvature_identity():
    """Delta/(2|gamma|) equals the geodesic curvature on random curves."""
    rng = np.random.default_rng(RNG_SEED)
    taus = np.linspace(0.0, 1.0, 4097)
    worst_fd = 0.0
    produced = 0
    while produced < 10:
        theta = SmoothScalar.poly([rng.uniform(0.7, np.pi - 0.7), *rng.normal(0.0, 0.12, 3)])
        phi = SmoothScalar.poly([0.0, rng.uniform(0.9, 1.5), *rng.normal(0.0, 0.25, 3)])
        curve = BlochCurveModel(theta=theta, phi=phi)
        coupling = np.abs(models.bloch_coupling(curve, taus))
        theta_vals = theta.value(taus)
        if np.min(coupling) < 0.05 or np.min(theta_vals) < 0.25 or np.max(theta_vals) > np.pi - 0.25:
            continue
        produced += 1
        blind = BlochCurveModel(
            theta=SmoothScalar.from_callable(theta.value),
            phi=SmoothScalar.from_callable(phi.value),
        )
        dev_fd = qgp.qgp_curvature_identity(blind, taus, gamma_mode="finite_difference")
        worst_fd = max(worst_fd, dev_fd)
        assert dev_fd <= 1e-4
        dev_an = qgp.qgp_curvature_identity(curve, taus[::8], gamma_mode="analytic_frame")
        assert dev_an <= 1e-8
    announce(6, f"10 random Bloch curves: finite-diff <= {worst_fd:.2e}, analytic <= 1e-8")


def test_criterion_07_gauge_invariance():
    """20 random regaugings move Delta, |gamma| and the orbits by < 1e-8."""
    rng = np.random.default_rng(RNG_SEED)
    model = rotating_spin(RotatingSpinParams(eta=1.0, xi=0.5, K=1.0))
    grid = TimeGrid.uniform(0.0, 2.0 * np.pi, 4097)
    frame = build_frame(model, grid, gamma_mode="analytic_derivative")
    base = qgp.qgp(frame, 1, 0)
    base_orbits = [adiabatic_trajectory(frame, m).states for m in range(2)]
    worst = 0.0
    for _ in range(20):
        fs = [SmoothScalar.poly([0.0, *rng.normal(0.0, 0.4, 3)]) for _ in range(2)]
        moved = regauge(frame, fs)
        series = qgp.qgp(moved, 1, 0)
        worst = max(worst, float(np.max(np.abs(series.delta - base.delta))))
        worst = max(worst, float(np.max(np.abs(series.gamma_abs - base.gamma_abs))))
        for m in range(2):
            states = adiabatic_trajectory(moved, m).states
            worst = max(worst, float(np.max(np.abs(states - base_orbits[m]))))
        assert worst < 1e-8
    announce(7, f"20 regaugings: max change {worst:.2e} < 1e-8")


def test_criterion_08_reparametrization():
    """Delta/|gamma| survives monotone time maps; the flattening map makes
    e_- - e_+ + Delta constant."""
    rng = np.random.default_rng(RNG_SEED)
    model = rotating_spin(RotatingSpinParams(eta=1.0, xi=0.5, K=1.0))
    worst = 0.0
    for amp in rng.uniform(0.1, 0.4, 3):
        rmap = qgp.ReparamMap(
            f=SmoothScalar(
                value=lambda t, a=amp: t + a * np.sin(t),
                deriv=lambda t, a=amp: 1.0 + a * np.cos(t),
                deriv2=lambda t, a=amp: -a * np.sin(t),
            ),
            domain=(-0.5, 7.5),
        )
        dev = qgp.reparam_invariance_check(model, (0.0, 2.0 * np.pi), rmap, samples=2049)
        worst = max(worst, dev)
        assert dev <= 1e-4
    curve = BlochCurveModel(
        theta=SmoothScalar.constant(np.pi / 3), phi=SmoothScalar.poly([0.0, 0.0, 1.0])
    )
    flat = qgp.reparametrize_flat(bloch_curve(curve), (0.1, 1.0))
    variation = float(np.max(np.abs(flat.combination - flat.combination.mean())))
    assert variation <= 1e-4
    announce(8, f"ratio invariance <= {worst:.2e}; flattened combination varies by {variation:.2e}")


def test_criterion_09_berry_difference():
    """Loop integral of Delta equals the Berry-phase difference + 2*pi*w."""
    residuals = []
    params = RotatingSpinParams(eta=1.0, xi=0.5, K=1.0)
    loop = TimeGrid.uniform(0.0, np.pi / (params.K * params.eta), 8193)
    frame = build_frame(rotating_spin(params), loop, gamma_mode="analytic_derivative")
    result = qgp.berry_difference(frame, 1, 0)
    residuals.append(abs(result.residual))

    curve = BlochCurveModel(theta=SmoothScalar.constant(np.pi / 3), phi=SmoothScalar.poly([0.0, 1.0]))
    loop2 = TimeGrid.uniform(0.0, 2.0 * np.pi, 8193)
    frame2 = build_frame(bloch_curve(curve), loop2, gamma_mode="analytic_derivative")
    result2 = qgp.berry_difference(frame2, 1, 0)
    residuals.append(abs(result2.residual))

    winding_curve = BlochCurveModel(
        theta=SmoothScalar.sinusoid(np.pi / 3, 0.2, 1.0, np.pi / 2),
        phi=SmoothScalar.sinusoid(0.0, 0.3, 1.0, 0.0),
    )
    frame3 = build_frame(bloch_curve(winding_curve), loop2, gamma_mode="analytic_derivative")
    result3 = qgp.berry_difference(frame3, 1, 0)
    residuals.append(abs(result3.residual))
    assert result3.winding == 1
    assert max(residuals) <= 1e-5
    announce(9, f"three loops (w = {result.winding}, {result2.winding}, {result3.winding}): "
                f"max residual {max(residuals):.2e} <= 1e-5")


def test_criterion_10_robust_model(fig1_run):
    """Simulated occupation matches the exact closed form to 1e-6; the
    occupation floor is insensitive to eta2; U(tau) solves the equation."""
    params, model, grid, frame, result = fig1_run
    occ = metrics.occupation(result, frame, 1)
    closed = np.asarray(metrics.closed_form_P(params, grid.samples))
    agreement = float(np.max(np.abs(occ.values - closed)))
    assert agreement <= 1e-6

    floors = {}
    for eta2 in (10.0, 100.0, 1000.0):
        pars = RobustModelParams(eta=1.0, eta0=20.0, eta1=1.0, eta2=eta2)
        if eta2 == 100.0:
            min_p = float(np.min(occ.values))
        else:
            mdl = robust_model(pars)
            g = TimeGrid.uniform(0.0, 2.0 * np.pi, 4097)
            rho0 = robust_adiabatic_projector(pars, 0.0, +1)
            vals, vecs = np.linalg.eigh(rho0)
            res = evolve.evolve_schrodinger(mdl, vecs[:, np.argmax(vals)], g, tol=1e-5)
            frm = build_frame(mdl, g, gamma_mode="analytic_derivative")
            min_p = float(np.min(metrics.occupation(res, frm, 1).values))
        floors[eta2] = min_p
        assert min_p >= metrics.p_min(pars) - 1e-6

    eps = 1e-6
    worst_u = 0.0
    for tau in (0.2, 1.1, 3.0):
        du = (robust_exact_propagator(params, tau + eps)
              - robust_exact_propagator(params, tau - eps)) / (2 * eps)
        u = robust_exact_propagator(params, tau)
        worst_u = max(worst_u, float(np.max(np.abs(1j * du - model.evaluate(tau) @ u))))
    assert worst_u <= 1e-6
    announce(10, f"|P_sim - P_closed| <= {agreement:.2e}; min P " +
                 ", ".join(f"{k:g}: {v:.6f}" for k, v in floors.items()) +
                 f" >= {metrics.p_min(params):.6f}; ||i dU - hU|| <= {worst_u:.2e}")


def test_criterion_11_pi_machinery():
    """Spectral bound on 1000 random draws; exact constant-case amplitude;
    the passing criterion really forces |c_m| >= 1 - delta."""
    from qgplab.conditions import pi_bound

    rng = np.random.default_rng(RNG_SEED)
    worst_margin = np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        omegas = np.cumsum(rng.uniform(3.0, 8.0, n))
        g = np.triu(rng.uniform(0.0, 0.35, (n, n)), 1)
        pi = PiMatrix(omegas=omegas, couplings=g + g.T)
        report = pi_bound(pi)
        worst_margin = min(worst_margin, float(np.min(report.margins)))
        assert np.all(report.margins >= 0)

    omegas = np.array([0.0, 5.0, 11.0])
    g = np.zeros((3, 3))
    g[0, 1] = g[1, 0] = 0.25
    g[1, 2] = g[2, 1] = 0.2
    pi = PiMatrix(omegas=omegas, couplings=g)
    grid = TimeGrid.uniform(0.0, 12.0, 1025)
    ode = evolve.evolve_schrodinger(
        models.constant_model(-pi.matrix()), np.eye(3, dtype=complex)[0], grid, tol=1e-11
    )
    exact = constant_case_solution(pi, 0, grid.samples)
    ode_agreement = float(np.max(np.abs(np.abs(ode.states[:, 0]) - np.abs(exact))))
    assert ode_agreement <= 1e-8

    floor_checks = 0
    taus = np.linspace(0.0, 30.0, 3001)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        omegas = np.cumsum(rng.uniform(2.0, 6.0, n))
        g = np.triu(rng.uniform(0.0, 0.3, (n, n)), 1)
        pi = PiMatrix(omegas=omegas, couplings=g + g.T)
        for m in range(n):
            ratio = pi.condition_ratio(m, pairing="conservative")
            delta = ratio * np.sqrt(n - 1)
            if delta >= 0.5:
                continue
            floor_checks += 1
            amplitude = np.abs(constant_case_solution(pi, m, taus))
            assert np.min(amplitude) >= 1.0 - delta
            assert np.min(amplitude) ** 2 >= (1.0 - delta) ** 2
    assert floor_checks > 100
    announce(11, f"1000 spectral bounds hold (worst margin {worst_margin:.3f}); "
                 f"ODE agreement {ode_agreement:.2e}; {floor_checks} occupation floors verified")


def test_criterion_12_frame_equivalence():
    """Schrodinger-frame and coefficient-frame evolutions agree on every
    built-in model with fidelity 1 - 1e-6."""
    runs = []
    p_rot = RotatingSpinParams(eta=1.0, xi=0.5, K=2.0)
    runs.append((rotating_spin(p_rot),
                 TimeGrid.uniform(0.0, 2.0 * metrics.rotating_fidelity_period(p_rot), 2049)))
    p_rob = RobustModelParams(eta=0.8, eta0=8.0, eta1=0.6, eta2=5.0)
    runs.append((robust_model(p_rob), TimeGrid.uniform(0.0, 2.0, 2049)))
    curve = BlochCurveModel(
        theta=SmoothScalar.sinusoid(1.0, 0.25, 1.1),
        phi=SmoothScalar.poly([0.0, 1.5, 0.3]),
        B=SmoothScalar.constant(2.0),
    )
    runs.append((bloch_curve(curve), TimeGrid.uniform(0.0, 3.0, 2049)))
    # three-level rotating-field analogue: cos and sin quadratures with
    # matched sparsity, so no coupling ever crosses zero
    x_coupling = np.array([[0, 0.3, 0.1], [0.3, 0, 0.2], [0.1, 0.2, 0]], dtype=complex)
    y_coupling = 1j * np.array([[0, -0.3, -0.1], [0.3, 0, -0.2], [0.1, 0.2, 0]], dtype=complex)
    runs.append((
        models.fourier_nlevel(
            3,
            [
                models.FourierTerm(np.diag([0.0, 2.0, 5.0]).astype(complex), 0.0, 1.0),
                models.FourierTerm(x_coupling, 1.7, 1.0, 0.0),
                models.FourierTerm(y_coupling, 1.7, 1.0, -np.pi / 2),
            ],
        ),
        TimeGrid.uniform(0.0, 4.0, 2049),
    ))
    worst = 1.0
    for model, grid in runs:
        mode = "analytic_frame" if model.analytic_frame is not None else "analytic_derivative"
        frame = build_frame(model, grid, gamma_mode=mode)
        level = 1
        psi0 = frame.vectors[0, :, level].copy()
        schro = evolve.evolve_schrodinger(model, psi0, grid, tol=1e-9)
        c0 = np.zeros(model.dim, dtype=complex)
        c0[level] = 1.0
        coeff = evolve.evolve_coefficients(frame, c0, tol=1e-9)
        recon = evolve.reconstruct_state(frame, coeff)
        fid = np.abs(np.einsum("kn,kn->k", recon.conj(), schro.states))
        worst = min(worst, float(np.min(fid)))
        assert np.min(fid) >= 1.0 - 1e-6
    announce(12, f"{len(runs)} models: worst cross-method fidelity {worst:.9f}")


def test_criterion_13_figure1(tmp_path):
    """The figure pipeline emits both Bloch curves with the adiabatic orbit
    oscillating at 2*eta2 and the occupation above its floor."""
    out = tmp_path / "fig1"
    assert cli.main(["figure1", "--out", str(out), "--grid", "4096", "--tol", "1e-6"]) == 0
    import csv

    with open(out / "bloch.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = np.array([[float(v) for v in row] for row in reader])
    tau = rows[:, 0]
    for base in (1, 4):
        norms = np.linalg.norm(rows[:, base : base + 3], axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9
    z_adia = rows[:, 6]
    spectrum = np.abs(np.fft.rfft(z_adia - z_adia.mean()))
    peak = int(np.argmax(spectrum))
    omega_peak = 2.0 * np.pi * peak / (tau[-1] - tau[0])
    assert abs(omega_peak - 200.0) <= 10.0
    with open(out / "P.csv", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        p_rows = np.array([[float(v) for v in row] for row in reader])
    params = RobustModelParams(eta=1.0, eta0=20.0, eta1=1.0, eta2=100.0)
    assert float(np.min(p_rows[:, 1])) >= metrics.p_min(params) - 1e-6
    assert (out / "figure1.svg").exists()
    announce(13, f"adiabatic z oscillates at {omega_peak:.1f} ~ 2*eta2 = 200; "
                 f"min P = {np.min(p_rows[:, 1]):.6f}")
