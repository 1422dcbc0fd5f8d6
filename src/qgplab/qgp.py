"""Quantum geometric potential, Bloch-sphere curvature, and loop identities.

The QGP of the pair (m, n) is

    Delta_mn = gamma_mm - gamma_nn + d/dtau arg gamma_nm ,

a gauge-invariant correction to the instantaneous gap.  For 2-level systems
Delta_mn / (2|gamma_mn|) equals the geodesic curvature of the eigenstate's
Bloch-sphere curve with arclength ds = 2|gamma_mn| dtau; over closed loops
the integral of Delta_mn is the difference of the two Berry phases up to an
integer number of 2 pi windings of the coupling.

``qgp`` is ``frames.pair_series``, which checks the pair and owns its
data, plus an UndefinedArgError when |gamma_nm| <= 1e-12 on the whole grid
(an uncoupled pair); the Berry-phase check takes its winding from the
stage's arg.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .errors import (
    DegenerateCouplingError,
    InvariantViolationError,
    NotClosedError,
    SingularPointError,
    UndefinedArgError,
)
from .frames import (
    QgpSeries,
    SpectralFrame,
    TimeGrid,
    _pairwise_min_gap,
    build_frame,
    pair_series,
)
from .linalg import max_abs
from .models import (
    BlochCurveModel,
    HamiltonianModel,
    SmoothScalar,
    bloch_curve,
)

_SPEED_FLOOR = 1e-10


def qgp(frame: SpectralFrame, m: int, n: int) -> QgpSeries:
    """Quantum geometric potential Delta_mn on the frame grid: ``frames.pair_series``
    of (m, n), raising UndefinedArg when gamma_nm vanishes on the whole grid."""
    series = pair_series(frame, m, n)
    if series.coupling == "uncoupled":
        raise UndefinedArgError(f"gamma_{n}{m} vanishes on the whole grid")
    return series


# ---------------------------------------------------------------------------
# Bloch-sphere geometry
# ---------------------------------------------------------------------------


def geodesic_curvature(curve: BlochCurveModel, tau) -> float | np.ndarray:
    """Geodesic curvature at tau of the curve's (theta, phi) path on the unit sphere.

    rho = (r x r_s) . r_ss in terms of theta, phi and their first and second
    tau-derivatives; requires a regular point (nonzero speed).
    """
    tau_arr = np.atleast_1d(np.asarray(tau, dtype=float))
    th = curve.theta.value(tau_arr)
    td = curve.theta.d1(tau_arr)
    tdd = curve.theta.d2(tau_arr)
    pd = curve.phi.d1(tau_arr)
    pdd = curve.phi.d2(tau_arr)
    sin_th, cos_th = np.sin(th), np.cos(th)
    speed_sq = td * td + (pd * sin_th) ** 2
    if np.any(np.sqrt(speed_sq) < _SPEED_FLOOR):
        raise SingularPointError("curve speed below 1e-10; curvature undefined")
    num = (
        td * pdd * sin_th
        + 2 * td * td * pd * cos_th
        + pd**3 * sin_th**2 * cos_th
        - pd * tdd * sin_th
    )
    rho = num / speed_sq**1.5
    return float(rho[0]) if np.ndim(tau) == 0 else rho


def qgp_curvature_identity(
    curve: BlochCurveModel,
    taus: np.ndarray,
    gamma_mode: str = "auto",
) -> float:
    """max_tau |Delta_+-/(2|gamma_+-|) - rho| for a 2-level Bloch model."""
    grid = TimeGrid(np.asarray(taus, dtype=float))
    frame = build_frame(bloch_curve(curve), grid, gamma_mode=gamma_mode)
    series = qgp(frame, 1, 0)
    rho = geodesic_curvature(curve, grid.samples)
    dev = np.abs(series.ratio - rho)
    if not series.valid.any():
        raise UndefinedArgError("coupling vanished everywhere on the grid")
    return float(np.nanmax(dev[series.valid]))


# ---------------------------------------------------------------------------
# Berry-phase difference over closed loops
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BerryDifference:
    """Loop integrals entering the Berry-phase-difference identity.

    ``berry_m``/``berry_n`` are gauge-invariant Berry phases (diagonal gamma
    integral plus the frame's closure phase).  ``residual`` is
    integral_delta - (berry_m - berry_n) - 2*pi*winding; ``masked`` marks
    loops where the coupling vanished somewhere, in which case the winding
    is not asserted.
    """

    integral_delta: float
    winding: int
    berry_m: float
    berry_n: float
    residual: float
    masked: bool


def berry_difference(frame: SpectralFrame, m: int, n: int) -> BerryDifference:
    """Check integral of Delta_mn over a closed loop against Berry phases.

    The loop must close to 1e-10 relative to max|h|, the coupling winding
    must be within 0.05 of an integer, and the identity must hold to 1e-5.
    """
    if frame.model is None:
        raise NotClosedError("frame carries no model; cannot verify closure")
    taus = frame.grid.samples
    h0 = frame.model.evaluate(float(taus[0]))
    h1 = frame.model.evaluate(float(taus[-1]))
    scale = max(max_abs(h0), 1.0)
    if max_abs(h1 - h0) > 1e-10 * scale:
        raise NotClosedError(
            f"h(tau_end) differs from h(tau_start) by {max_abs(h1 - h0):.3e}"
        )
    closure = np.einsum("in,in->n", frame.vectors[0].conj(), frame.vectors[-1])
    if np.min(np.abs(closure)) < 1.0 - 1e-6:
        raise NotClosedError("eigenframe does not close up to phases over the loop")

    series = qgp(frame, m, n)
    masked = not bool(np.all(series.valid))

    beta_m = float(np.angle(closure[m]))
    beta_n = float(np.angle(closure[n]))
    berry_m = numerics.trapezoid(frame.gamma[:, m, m].real, taus) + beta_m
    berry_n = numerics.trapezoid(frame.gamma[:, n, n].real, taus) + beta_n

    if masked:
        integral_delta, winding = 0.0, 0
        for start, stop in numerics.valid_runs(series.valid):
            if stop - start > 1:
                integral_delta += numerics.trapezoid(series.delta[start:stop], taus[start:stop])
    else:
        winding_raw = (series.arg[-1] - series.arg[0] - (beta_m - beta_n)) / (2.0 * np.pi)
        winding = int(np.round(winding_raw))
        if abs(winding_raw - winding) > 0.05:
            raise InvariantViolationError(f"coupling winding {winding_raw:.4f} is not an integer")
        integral_delta = numerics.trapezoid(series.delta, taus)
    residual = integral_delta - (berry_m - berry_n) - 2.0 * np.pi * winding
    if not masked and abs(residual) > 1e-5:
        raise InvariantViolationError(
            f"Berry-difference identity residual {residual:.3e} exceeds 1e-05"
        )
    return BerryDifference(integral_delta, winding, berry_m, berry_n, residual, masked)


# ---------------------------------------------------------------------------
# Reparametrization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReparamMap:
    """Strictly increasing smooth time map tau -> tau' = f(tau)."""

    f: SmoothScalar
    domain: tuple[float, float]

    def forward(self, tau) -> np.ndarray:
        return self.f.value(np.asarray(tau, dtype=float))

    def inverse(self, tau_prime) -> np.ndarray:
        """Invert by monotone-table bracketing plus at most 60 Newton steps,
        stopping once every step is below 1e-13."""
        tp = np.asarray(tau_prime, dtype=float)
        lo, hi = self.domain
        table_x = np.linspace(lo, hi, 4097)
        table_f = self.f.value(table_x)
        if np.any(np.diff(table_f) <= 0):
            raise DegenerateCouplingError("time map is not strictly increasing")
        x = np.interp(tp, table_f, table_x)
        for _ in range(60):
            resid = self.f.value(x) - tp
            slope = self.f.d1(x)
            step = resid / slope
            x = np.clip(x - step, lo, hi)
            if np.max(np.abs(step)) < 1e-13:
                break
        return x


def reparametrized_model(model: HamiltonianModel, rmap: ReparamMap) -> HamiltonianModel:
    """Physically rescaled model in the new time: h'(tau') = g' h(g(tau')).

    g = f^{-1}; the dtau/dtau' factor keeps the Schrodinger dynamics the
    same path traversed at the new rate, so eigenvalues, gamma and Delta all
    scale by g' while Delta/|gamma| is untouched.
    """

    def evaluate_batch(tau_primes):
        tau = rmap.inverse(tau_primes)
        gp = 1.0 / rmap.f.d1(tau)
        return gp[:, None, None] * model.sample(tau)

    derivative_batch = None
    if model.derivative_batch is not None and rmap.f.deriv2 is not None:

        def derivative_batch(tau_primes):
            tau = rmap.inverse(tau_primes)
            fp = rmap.f.d1(tau)
            fpp = rmap.f.d2(tau)
            gp = 1.0 / fp
            gpp = -fpp / fp**3
            return (
                gpp[:, None, None] * model.sample(tau)
                + (gp**2)[:, None, None] * model.sample_derivative(tau)
            )

    return HamiltonianModel(
        dim=model.dim,
        label=f"{model.label}|reparam",
        evaluate_batch=evaluate_batch,
        derivative_batch=derivative_batch,
    )


@dataclass(frozen=True, eq=False)
class FlatReparamResult:
    """Monotone grid map and the frame re-expressed in the new time.

    ``combination`` is e'_- - e'_+ + Delta'_{+-} at the new samples; the
    construction makes it constant up to the quadrature of the map.
    ``rate`` is dtau'/dtau at the original samples.
    """

    tau: np.ndarray
    tau_prime: np.ndarray
    frame: SpectralFrame | None
    combination: np.ndarray
    rate: np.ndarray


def reparametrize_flat(
    model: HamiltonianModel,
    interval: tuple[float, float],
    samples: int = 4097,
) -> FlatReparamResult:
    """Flatten e_- - e_+ + Delta_+- to a constant by a monotone time map.

    The map's rate is proportional to |e_- - e_+ + Delta_+-| itself, which
    is the measure that actually makes the combination constant (the
    arclength measure |gamma_+-| only fixes |gamma'|).  Raises
    DegenerateCoupling if the combination vanishes or changes sign.
    """
    a, b = float(interval[0]), float(interval[1])
    if b == a:
        tau = np.array([a])
        return FlatReparamResult(
            tau=tau, tau_prime=tau.copy(), frame=None,
            combination=np.array([]), rate=np.ones(1),
        )
    if b < a:
        raise ValueError("interval must be ordered")
    if model.dim != 2:
        raise ValueError("flat reparametrization is defined for 2-level models")
    grid = TimeGrid.uniform(a, b, samples)
    frame = build_frame(model, grid)
    series = qgp(frame, 1, 0)
    series.require_valid()
    comb = frame.energies[:, 0] - frame.energies[:, 1] + series.delta
    if np.min(np.abs(comb)) < 1e-9 or (np.max(np.sign(comb)) != np.min(np.sign(comb))):
        raise DegenerateCouplingError(
            "e_- - e_+ + Delta_+- vanishes or changes sign; map not invertible"
        )
    speed = np.abs(comb)
    cum = numerics.cumulative_trapezoid(speed, grid.samples)
    scale = (b - a) / cum[-1]
    tau_prime = a + scale * cum
    stretch = 1.0 / (scale * speed)  # dtau/dtau' at the samples

    energies = frame.energies * stretch[:, None]
    delta = frame.delta_analytic
    new_frame = replace(
        frame,
        grid=TimeGrid(tau_prime),
        energies=energies,
        gamma=frame.gamma * stretch[:, None, None],
        min_gap=_pairwise_min_gap(energies),
        gamma_mode=frame.gamma_mode + "+flat",
        model=None,
        delta_analytic=None if delta is None else delta * stretch[:, None, None],
    )
    return FlatReparamResult(
        tau=grid.samples,
        tau_prime=tau_prime,
        frame=new_frame,
        combination=comb * stretch,
        rate=scale * speed,
    )


def reparam_invariance_check(
    model: HamiltonianModel,
    interval: tuple[float, float],
    rmap: ReparamMap,
    samples: int = 4097,
    gamma_mode: str = "auto",
) -> float:
    """max |(Delta_10/|gamma_10|)(tau) - (Delta'_10/|gamma'_10|)(f(tau))| on the grid.

    The reparametrized frame is rebuilt from scratch on the image grid, so
    the check exercises the whole numeric pipeline, not the scaling law.
    """
    a, b = float(interval[0]), float(interval[1])
    grid = TimeGrid.uniform(a, b, samples)
    frame = build_frame(model, grid, gamma_mode=gamma_mode)
    series = qgp(frame, 1, 0)

    image = rmap.forward(grid.samples)
    new_model = reparametrized_model(model, rmap)
    new_frame = build_frame(new_model, TimeGrid(image), gamma_mode=gamma_mode)
    new_series = qgp(new_frame, 1, 0)

    both = series.valid & new_series.valid
    if not both.any():
        raise UndefinedArgError("no commonly valid samples for the comparison")
    ratio_old = series.delta[both] / series.gamma_abs[both]
    ratio_new = new_series.delta[both] / new_series.gamma_abs[both]
    return float(np.max(np.abs(ratio_old - ratio_new)))
