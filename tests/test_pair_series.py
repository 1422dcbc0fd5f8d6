"""The per-pair coupling stage against the code it replaced, bit for bit.

``oracle_qgp``, ``oracle_theta`` and ``oracle_coupling_pairs`` are the
bodies of ``qgp.qgp``, ``frames.theta_series`` and ``evolve._coupling_pairs``
from before ``frames.pair_series`` existed, each deriving |gamma|, the
unwrapped arg gamma and the vanishing-coupling test on its own.
"""

import numpy as np
import pytest

from qgplab import cli, conditions, evolve, frames, numerics, qgp
from qgplab.errors import UndefinedArgError
from qgplab.frames import COUPLING_FLOOR, TimeGrid, build_frame, pair_series, theta_series
from qgplab.models import (
    BlochCurveModel,
    RotatingSpinParams,
    SmoothScalar,
    bloch_curve,
    constant_model,
    rotating_spin,
)
from test_conditions import separated_fourier


def oracle_qgp(frame, m, n):
    """(delta, gamma_abs, valid, unwrap_flags) as ``qgp.qgp`` computed them."""
    coupling = frame.gamma[:, n, m]
    gamma_abs = np.abs(coupling)
    valid = gamma_abs > COUPLING_FLOOR
    if not valid.any():
        raise UndefinedArgError(f"gamma_{n}{m} vanishes on the whole grid")
    taus = frame.grid.samples
    flags = 0
    if frame.delta_analytic is not None:
        delta = frame.delta_analytic[:, m, n].astype(float).copy()
        delta[~valid] = np.nan
    else:
        diag = frame.gamma[:, m, m].real - frame.gamma[:, n, n].real
        delta = np.full(taus.size, np.nan)
        for start, stop in numerics.valid_runs(valid):
            arg, large = numerics.unwrap_angles(np.angle(coupling[start:stop]))
            flags += large
            if stop - start == 1:
                continue
            darg = numerics.derivative_series(arg, taus[start:stop])
            delta[start:stop] = diag[start:stop] + darg
        valid = valid & ~np.isnan(delta)
    return delta, gamma_abs, valid, flags


def oracle_theta(frame, m, n):
    coupling = frame.gamma[:, m, n]
    if np.min(np.abs(coupling)) < COUPLING_FLOOR:
        raise UndefinedArgError(f"|gamma_{m}{n}| fell below {COUPLING_FLOOR:g}; arg undefined")
    taus = frame.grid.samples
    integrand = (
        frame.energies[:, m]
        - frame.energies[:, n]
        + frame.gamma[:, n, n].real
        - frame.gamma[:, m, m].real
    )
    integral = numerics.cumulative_integral(integrand, taus)
    arg, large = numerics.unwrap_angles(np.angle(coupling))
    return integral + arg, large


def oracle_coupling_pairs(frame):
    pairs = []
    for m in range(frame.dim):
        for n in range(m + 1, frame.dim):
            magnitude = np.abs(frame.gamma[:, m, n])
            if np.max(magnitude) < COUPLING_FLOOR:
                continue
            if np.min(magnitude) < COUPLING_FLOOR:
                raise UndefinedArgError(f"|gamma_{m}{n}| vanishes on part of the grid")
            theta, _ = oracle_theta(frame, m, n)
            pairs.append((m, n, magnitude, theta))
    return pairs


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


ISOLATED_ZERO = BlochCurveModel(  # phi_dot = 0 at tau = 0 only
    theta=SmoothScalar.constant(np.pi / 3), phi=SmoothScalar.poly([0.0, 0.0, 1.0])
)

FRAMES = {
    "separated_fourier": lambda: build_frame(
        separated_fourier(np.random.default_rng(7), 4),
        TimeGrid.uniform(0.0, 2.0 * np.pi, 1024), gamma_mode="analytic_derivative",
    ),
    "isolated_zero": lambda: build_frame(
        bloch_curve(ISOLATED_ZERO), TimeGrid.uniform(0.0, 1.0, 513), gamma_mode="analytic_frame"
    ),
    "constant": lambda: build_frame(
        constant_model(np.diag([0.0, 1.0, 3.0]).astype(complex)), TimeGrid.uniform(0.0, 1.0, 65)
    ),
    "rotating_spin": lambda: build_frame(
        rotating_spin(RotatingSpinParams(eta=1.0, xi=0.5, K=1.0)),
        TimeGrid.uniform(0.0, 2.0 * np.pi, 2049), gamma_mode="analytic_frame",
    ),
}

#: the coupling class of every pair of each frame
CLASSES = {
    "separated_fourier": "coupled",
    "isolated_zero": "partial",
    "constant": "uncoupled",
    "rotating_spin": "coupled",
}


@pytest.fixture(scope="module", params=list(FRAMES))
def named_frame(request):
    return request.param, FRAMES[request.param]()


def ordered_pairs(dim):
    return [(m, n) for m in range(dim) for n in range(dim) if m != n]


class TestAgainstTheOracles:
    def test_qgp_is_bitwise_unchanged(self, named_frame):
        name, frame = named_frame
        for m, n in ordered_pairs(frame.dim):
            stage = pair_series(frame, m, n)
            assert stage.coupling == CLASSES[name]
            assert same_bits(stage.gamma_abs, np.abs(frame.gamma[:, n, m]))
            try:
                delta, gamma_abs, valid, flags = oracle_qgp(frame, m, n)
            except UndefinedArgError:
                with pytest.raises(UndefinedArgError, match=f"gamma_{n}{m} vanishes"):
                    qgp.qgp(frame, m, n)
                assert not stage.valid.any() and np.isnan(stage.delta).all()
                continue
            series = qgp.qgp(frame, m, n)
            assert series.pair == (m, n)
            assert same_bits(series.delta, delta)
            assert same_bits(series.gamma_abs, gamma_abs)
            assert same_bits(series.valid, valid)
            # analytic frames counted no flags before; these grids resolve arg gamma
            assert series.unwrap_flags == flags
            with np.errstate(invalid="ignore", divide="ignore"):
                assert same_bits(series.ratio, delta / (2.0 * gamma_abs))

    def test_theta_is_bitwise_unchanged(self, named_frame):
        _, frame = named_frame
        for m, n in ordered_pairs(frame.dim):
            try:
                expected, expected_flags = oracle_theta(frame, m, n)
            except UndefinedArgError:
                with pytest.raises(UndefinedArgError, match=f"gamma_{m}{n}"):
                    theta_series(frame, m, n)
                continue
            theta, flags = theta_series(frame, m, n)
            assert same_bits(theta, expected) and flags == expected_flags

    def test_coefficient_states_are_bitwise_unchanged(self, named_frame, monkeypatch):
        name, frame = named_frame
        c0 = np.eye(frame.dim, dtype=complex)[0]
        if CLASSES[name] == "partial":
            for pairs in (evolve._coupling_pairs, oracle_coupling_pairs):
                with pytest.raises(UndefinedArgError, match="vanishes on part of the grid"):
                    pairs(frame)
            return
        states = evolve.evolve_coefficients(frame, c0, tol=1e-6).states
        monkeypatch.setattr(evolve, "_coupling_pairs", oracle_coupling_pairs)
        assert same_bits(states, evolve.evolve_coefficients(frame, c0, tol=1e-6).states)


class TestOneDerivation:
    def test_analytic_frames_count_unwrap_flags(self):
        # arg gamma winds 20 times per 2 pi, about 2 rad per step of this grid;
        # the closed-form Delta needs no unwrap, but the stage still reports
        # that the grid does not resolve arg gamma
        curve = BlochCurveModel(
            theta=SmoothScalar.sinusoid(np.pi / 3, 0.2, 20.0, np.pi / 2),
            phi=SmoothScalar.sinusoid(0.0, 0.3, 20.0),
        )
        grid = TimeGrid.uniform(0.0, 2.0 * np.pi, 65)
        frame = build_frame(bloch_curve(curve), grid, gamma_mode="analytic_frame")
        assert frame.delta_analytic is not None
        _, large = numerics.unwrap_angles(np.angle(frame.gamma[:, 0, 1]))
        assert large > 0
        assert qgp.qgp(frame, 1, 0).unwrap_flags == large

    def test_berry_difference_unwraps_once(self, monkeypatch):
        params = RotatingSpinParams(eta=1.0, xi=0.5, K=1.0)
        grid = TimeGrid.uniform(0.0, np.pi / (params.K * params.eta), 8193)
        frame = build_frame(rotating_spin(params), grid, gamma_mode="analytic_derivative")
        calls = []

        def counting(angles):
            calls.append(len(angles))
            return unwrap(angles)

        unwrap = numerics.unwrap_angles
        monkeypatch.setattr(numerics, "unwrap_angles", counting)
        result = qgp.berry_difference(frame, 1, 0)
        assert not result.masked and abs(result.residual) <= 1e-5
        assert calls == [grid.n]

    def test_conditions_builds_each_pair_once(self, tmp_path, monkeypatch):
        built = []

        def spy(frame, m, n):
            built.append((m, n))
            return stage(frame, m, n)

        stage = frames.pair_series
        for module in (frames, qgp, conditions, evolve):
            if hasattr(module, "pair_series"):
                monkeypatch.setattr(module, "pair_series", spy)
        config = tmp_path / "fourier3.ini"
        config.write_text(FOURIER3_CONFIG.format(out=tmp_path / "out"))
        assert cli.main(["conditions", "--config", str(config)]) == 0
        assert sorted(built) == [(1, 0), (1, 2)]


FOURIER3_CONFIG = """
[model]
name = fourier
dim = 3
term1 = {{"matrix": [[0, 0, 0], [0, 4, 0], [0, 0, 8]]}}
term2 = {{"matrix": [[0, 1, 0.5], [1, 0, 1], [0.5, 1, 0]], "omega": 1.0, "amplitude": 0.3}}

[run]
tau_end = 3.0
samples = 256
level = 1

[output]
dir = {out}
outputs = conditions
"""
