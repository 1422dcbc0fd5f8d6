"""Closed-form reference quantities for the two built-in 2-level models,
plus generic fidelity/occupation measurement of simulated runs.

The closed forms serve as oracles for the integrators; where formula and
simulation could ever disagree, the Schrodinger integrator is the primary
truth and the discrepancy is surfaced, not patched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAError, GridMismatchError, InvalidParamsError
from .evolve import EvolutionResult
from .frames import AdiabaticTrajectory, SpectralFrame, TimeGrid
from .models import RobustModelParams, RotatingSpinParams


@dataclass(frozen=True, eq=False)
class FidelitySeries:
    """Per-sample measured values in [0, 1]."""

    grid: TimeGrid
    values: np.ndarray


def _require_same_grid(a: TimeGrid, b: TimeGrid) -> None:
    if a.n != b.n or not np.array_equal(a.samples, b.samples):
        raise GridMismatchError("series live on different grids")


def fidelity(result: EvolutionResult, trajectory: AdiabaticTrajectory) -> FidelitySeries:
    """|<Phi_adia(tau)|psi(tau)>| per sample.

    Projective: the overlap is divided by the state norms, so values stay in
    [0, 1] by Cauchy-Schwarz while any integrator norm drift remains visible
    in the EvolutionResult itself.
    """
    _require_same_grid(result.grid, trajectory.grid)
    if result.states.shape != trajectory.states.shape:
        raise GridMismatchError("state dimensions differ")
    values = np.abs(np.einsum("kn,kn->k", trajectory.states.conj(), result.states))
    values /= result.norms * np.linalg.norm(trajectory.states, axis=1)
    return FidelitySeries(grid=result.grid, values=values)


def occupation(result: EvolutionResult, frame: SpectralFrame, m: int) -> FidelitySeries:
    """P_m(tau) = |<phi_m(tau)|psi(tau)>|^2 (gauge independent, projective)."""
    _require_same_grid(result.grid, frame.grid)
    amp = np.einsum("kn,kn->k", frame.vectors[:, :, m].conj(), result.states)
    values = (np.abs(amp) / result.norms) ** 2
    return FidelitySeries(grid=result.grid, values=values)


def _fidelity_rate(params: RotatingSpinParams) -> float:
    """A = sqrt((1-K)^2 eta^2 + xi^2); raises DegenerateA when A vanishes
    (K = 1 with xi = 0: resonance with no coupling)."""
    a = math.hypot((1.0 - params.K) * params.eta, params.xi)
    if a < 1e-15:
        raise DegenerateAError("A = 0; the closed-form fidelity is singular")
    return a


def closed_form_F(params: RotatingSpinParams, tau) -> float | np.ndarray:
    """Fidelity of the rotating-spin dynamic orbit with the upper adiabatic
    orbit: sqrt(cos^2(A tau) + sin^2(A tau) * bracket^2)."""
    a = _fidelity_rate(params)
    bracket = ((1.0 - params.K) * params.eta * params.cos_theta + params.xi * params.sin_theta) / a
    taus = np.asarray(tau, dtype=float)
    out = np.sqrt(np.cos(a * taus) ** 2 + np.sin(a * taus) ** 2 * bracket**2)
    return float(out) if np.ndim(tau) == 0 else out


def rotating_fidelity_period(params: RotatingSpinParams) -> float:
    """Period pi/A of the closed-form fidelity."""
    return math.pi / _fidelity_rate(params)


def closed_form_P(params: RobustModelParams, tau) -> float | np.ndarray:
    """Probability of staying in the upper adiabatic orbit of the robust model.

    Exact: derived by composing the SO(3) rotations of the model's
    closed-form propagator, and pinned against it to ~1e-15 in the tests.
    The lower orbit gives the same value (the two are complementary pure
    states).  Small oscillatory terms are accumulated before the large
    static ones to keep the 1e-6 oracle agreement honest at large eta2.
    """
    p = params
    taus = np.asarray(tau, dtype=float)
    n0 = float(p.gap_scale(0.0))
    nt = p.gap_scale(taus)
    if n0 <= 0 or np.any(nt <= 0):
        raise InvalidParamsError("gap scale N(tau) must be positive")
    ebar = p.eta_bar
    if ebar < 1e-15:
        raise InvalidParamsError("eta_bar = 0; closed form undefined")
    etil_sq = p.eta_tilde_sq
    cos2f = np.cos(2 * p.eta2 * taus)
    cosf_sq = np.cos(p.eta2 * taus) ** 2
    sinbar_sq = np.sin(ebar * taus) ** 2
    # the secular -2*etil^4 term pairs with sin^2(eta2 tau)
    small = (
        -(2.0 * etil_sq**2 / ebar**2) * sinbar_sq
        + (4.0 * p.eta * (p.eta0 + p.eta2) * etil_sq / ebar**2)
        * (1.0 - cosf_sq) * sinbar_sq
        + (p.eta * etil_sq / ebar) * np.sin(2 * ebar * taus) * np.sin(2 * p.eta2 * taus)
    )
    big = p.eta0**2 + p.eta1**2 + p.eta**2 * cos2f + 2 * p.eta * p.eta1 * cosf_sq
    out = (small + big) / (2.0 * n0 * nt) + 0.5
    return float(out) if np.ndim(tau) == 0 else out


def p_min(params: RobustModelParams) -> float:
    """Occupation floor 1 - (eta + eta1)^2 / N(0)^2, independent of eta2."""
    n0_sq = params.eta0**2 + (params.eta + params.eta1) ** 2
    if n0_sq <= 0:
        raise InvalidParamsError("N(0) must be positive")
    return 1.0 - (params.eta + params.eta1) ** 2 / n0_sq
