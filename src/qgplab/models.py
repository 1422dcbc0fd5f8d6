"""Hamiltonian models: tau -> Hermitian matrix, with optional analytic extras.

A model bundles the matrix-valued function h(tau), sampled on whole arrays of
tau, with, when available, its analytic time derivative (also batched) and a
closed-form eigenframe (energies, eigenvectors, non-adiabatic coupling
matrix, and the geometric gap correction).  All models are constructed
already dimensionless.

Built-in models:

* ``rotating_spin``  - spin-1/2 in a rotating magnetic field,
  h = eta*sz + xi*(sx cos(2*K*eta*tau) + sy sin(2*K*eta*tau)).
* ``robust_model``   - 2-level system built from nested conjugations by
  matrix exponentials, engineered so the occupation floor is insensitive to
  the fast-drive magnitude.
* ``bloch_curve``    - h = A(tau)*I + B(tau)*nhat(tau).sigma for a smooth
  curve nhat on the Bloch sphere.
* ``fourier_nlevel`` - sum_k a_k cos(w_k tau + p_k) H_k for Hermitian H_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import linalg
from .errors import GapClosureError, InvalidParamsError, NotHermitianError
from .linalg import SIGMA_X, SIGMA_Z

# Step used when a scalar's derivative has to fall back to finite differences.
_FD_STEP = 1e-5


@dataclass(frozen=True)
class SmoothScalar:
    """Scalar function of tau with optional analytic derivatives.

    ``value`` must accept numpy arrays.  Missing derivatives fall back to
    5-point central differences with step 1e-5.
    """

    value: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray] | None = None
    deriv2: Callable[[np.ndarray], np.ndarray] | None = None

    def d1(self, tau):
        if self.deriv is not None:
            return self.deriv(np.asarray(tau, dtype=float))
        return self._fd(tau, order=1)

    def d2(self, tau):
        if self.deriv2 is not None:
            return self.deriv2(np.asarray(tau, dtype=float))
        return self._fd(tau, order=2)

    def _fd(self, tau, order: int):
        tau = np.asarray(tau, dtype=float)
        h = _FD_STEP
        f = self.value
        if order == 1:
            return (8 * (f(tau + h) - f(tau - h)) - (f(tau + 2 * h) - f(tau - 2 * h))) / (12 * h)
        return (
            -(f(tau + 2 * h) + f(tau - 2 * h))
            + 16 * (f(tau + h) + f(tau - h))
            - 30 * f(tau)
        ) / (12 * h * h)

    @classmethod
    def constant(cls, c: float) -> "SmoothScalar":
        return cls(
            value=lambda tau, c=c: np.full_like(np.asarray(tau, dtype=float), c),
            deriv=lambda tau: np.zeros_like(np.asarray(tau, dtype=float)),
            deriv2=lambda tau: np.zeros_like(np.asarray(tau, dtype=float)),
        )

    @classmethod
    def poly(cls, coeffs) -> "SmoothScalar":
        """Polynomial sum_i coeffs[i] * tau**i."""
        c = np.asarray(coeffs, dtype=float)
        d1 = np.polynomial.polynomial.polyder(c) if c.size > 1 else np.zeros(1)
        d2 = np.polynomial.polynomial.polyder(c, 2) if c.size > 2 else np.zeros(1)
        pv = np.polynomial.polynomial.polyval
        return cls(
            value=lambda tau, c=c: pv(np.asarray(tau, dtype=float), c),
            deriv=lambda tau, d=d1: pv(np.asarray(tau, dtype=float), d),
            deriv2=lambda tau, d=d2: pv(np.asarray(tau, dtype=float), d),
        )

    @classmethod
    def sinusoid(cls, offset: float, amplitude: float, omega: float, phase: float = 0.0) -> "SmoothScalar":
        """offset + amplitude * sin(omega*tau + phase)."""
        return cls(
            value=lambda tau: offset + amplitude * np.sin(omega * np.asarray(tau, dtype=float) + phase),
            deriv=lambda tau: amplitude * omega * np.cos(omega * np.asarray(tau, dtype=float) + phase),
            deriv2=lambda tau: -amplitude * omega**2 * np.sin(omega * np.asarray(tau, dtype=float) + phase),
        )

    @classmethod
    def from_callable(cls, f: Callable) -> "SmoothScalar":
        """Value-only wrapper; derivatives go through finite differences."""
        return cls(value=lambda tau, f=f: np.asarray(f(np.asarray(tau, dtype=float)), dtype=float))


@dataclass(frozen=True)
class AnalyticFrame:
    """Closed-form eigenframe sampled on a tau array.

    ``frame_at(taus)`` takes a 1-D float array of K taus and returns
    (energies (K, N) ascending, vectors (K, N, N) with eigenvector columns,
    gamma (K, N, N)) in the model's chosen gauge.  ``delta_at``, when
    present, returns the closed-form QGP matrix Delta[m, n] on the same
    level ordering.
    """

    frame_at: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    delta_at: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True, eq=False)
class HamiltonianModel:
    """Time-dependent Hermitian generator with optional analytic structure.

    The model is batch-only: ``evaluate_batch`` maps a 1-D float array of K
    taus to h, shape (K, dim, dim), and ``derivative_batch``, when present,
    gives dh/dtau the same way.  ``sample`` and ``sample_derivative`` turn
    any tau or taus into that array, so the closures receive nothing else.
    ``evaluate`` is the single-tau view of ``sample``.
    """

    dim: int
    evaluate_batch: Callable[[np.ndarray], np.ndarray]
    derivative_batch: Callable[[np.ndarray], np.ndarray] | None = None
    analytic_frame: AnalyticFrame | None = None
    label: str = ""

    def sample(self, taus) -> np.ndarray:
        """h at every tau in ``taus``; shape (K, dim, dim)."""
        return self.evaluate_batch(np.atleast_1d(np.asarray(taus, dtype=float)))

    def sample_derivative(self, taus) -> np.ndarray:
        if self.derivative_batch is None:
            raise InvalidParamsError(f"model {self.label!r} has no analytic derivative")
        return self.derivative_batch(np.atleast_1d(np.asarray(taus, dtype=float)))

    def evaluate(self, tau: float) -> np.ndarray:
        """h at the single time ``tau``; shape (dim, dim)."""
        return self.sample(tau)[0]


def _hermitian_2x2(z, upper, lower, a=None) -> np.ndarray:
    """(K, 2, 2) stack [[a + z, upper], [lower, a - z]]; without ``a`` the
    diagonal is (z, -z)."""
    out = np.empty(np.shape(upper) + (2, 2), dtype=complex)
    out[:, 0, 0] = z if a is None else a + z
    out[:, 1, 1] = -z if a is None else a - z
    out[:, 0, 1] = upper
    out[:, 1, 0] = lower
    return out


def _spin_half_frame(a, b, c, s, phi, phi_dot, coupling):
    """Frame of a*I + b*nhat.sigma with nhat at azimuth ``phi`` (K,) and c, s =
    cos, sin of half its polar angle: columns (s, -c e^{i phi}) for a - b and
    (c, s e^{i phi}) for a + b, gamma_nn = -phi_dot (c^2, s^2), gamma_01 = coupling."""
    eip = np.exp(1j * phi)
    k = eip.size
    energies = np.empty((k, 2))
    energies[:, 0] = a - b
    energies[:, 1] = a + b
    vectors = np.empty((k, 2, 2), dtype=complex)
    vectors[:, 0, 0] = s
    vectors[:, 1, 0] = -c * eip
    vectors[:, 0, 1] = c
    vectors[:, 1, 1] = s * eip
    gamma = np.empty((k, 2, 2), dtype=complex)
    gamma[:, 0, 0] = -phi_dot * c * c
    gamma[:, 1, 1] = -phi_dot * s * s
    gamma[:, 0, 1] = coupling
    gamma[:, 1, 0] = np.conjugate(coupling)
    return energies, vectors, gamma


def _spin_half_delta(taus, d) -> np.ndarray:
    """(K, 2, 2) QGP matrix with Delta_10 = d = -Delta_01."""
    delta = np.zeros((taus.size, 2, 2))
    delta[:, 1, 0] = d
    delta[:, 0, 1] = -d
    return delta


# ---------------------------------------------------------------------------
# Rotating spin-1/2 model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RotatingSpinParams:
    """Parameters of the rotating spin-1/2 model (all dimensionless).

    ``eta`` and ``xi`` are the static/rotating field strengths, ``K`` the
    sweep-rate multiplier; the instantaneous eigenvalues are
    +-sqrt(eta^2 + xi^2).
    """

    eta: float
    xi: float
    K: float

    def __post_init__(self):
        if not (self.eta > 0 and self.xi > 0):
            raise InvalidParamsError("rotating spin requires eta > 0 and xi > 0")
        if not all(math.isfinite(v) for v in (self.eta, self.xi, self.K)):
            raise InvalidParamsError("rotating spin parameters must be finite")

    @property
    def energy(self) -> float:
        """Instantaneous eigenvalue magnitude sqrt(eta^2 + xi^2)."""
        return math.hypot(self.eta, self.xi)

    @property
    def cos_theta(self) -> float:
        return self.eta / self.energy

    @property
    def sin_theta(self) -> float:
        return self.xi / self.energy

    @property
    def omega(self) -> float:
        """Drive angular frequency 2*K*eta."""
        return 2.0 * self.K * self.eta

    @property
    def coupling_abs(self) -> float:
        """|gamma_+-| = K*eta*sin(theta), constant in tau."""
        return abs(self.K * self.eta * self.sin_theta)

    @property
    def qgp(self) -> float:
        """Delta_+- = 2*K*eta*cos(theta), constant in tau."""
        return 2.0 * self.K * self.eta * self.cos_theta


def rotating_spin(params: RotatingSpinParams) -> HamiltonianModel:
    """Spin-1/2 in a field rotating about z at frequency 2*K*eta."""
    eta, xi, K = params.eta, params.xi, params.K
    omega = params.omega

    def evaluate_batch(taus):
        off = xi * np.exp(-1j * (omega * taus))  # xi*(cos - i sin) couples |0><1|
        return _hermitian_2x2(eta, off, np.conjugate(off))

    def derivative_batch(taus):
        doff = -1j * omega * xi * np.exp(-1j * (omega * taus))
        return _hermitian_2x2(0.0, doff, np.conjugate(doff), a=0.0)  # diagonal +0.0

    # the Bloch curve theta = acos(eta/E), phi = omega*tau, B = E, A = 0
    half = 0.5 * math.acos(params.cos_theta)
    c, s, e = math.cos(half), math.sin(half), params.energy
    g_abs = K * eta * params.sin_theta

    def frame_at(taus):
        return _spin_half_frame(0.0, e, c, s, omega * taus, omega, g_abs)

    def delta_at(taus):
        return _spin_half_delta(taus, params.qgp)

    return HamiltonianModel(
        dim=2,
        analytic_frame=AnalyticFrame(frame_at=frame_at, delta_at=delta_at),
        label=f"rotating_spin(eta={eta:g},xi={xi:g},K={K:g})",
        evaluate_batch=evaluate_batch,
        derivative_batch=derivative_batch,
    )


# ---------------------------------------------------------------------------
# Robust model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RobustModelParams:
    """Parameters of the robust 2-level model.

    The occupation-floor statements only hold for a strong static field and
    a weak wobble (eta0/eta and eta0/eta1 >= 10).  The mixed-frequency
    radicand eta*eta0 + eta*eta2 + eta2*eta1 must be nonnegative for the
    closed-form probability to be real.
    """

    eta: float
    eta0: float
    eta1: float
    eta2: float

    def __post_init__(self):
        vals = (self.eta, self.eta0, self.eta1, self.eta2)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidParamsError("robust model parameters must be finite")
        if self.eta_tilde_sq < 0:
            raise InvalidParamsError(
                "eta*eta0 + eta*eta2 + eta2*eta1 must be nonnegative "
                f"(got {self.eta_tilde_sq:g}); the closed-form probability is "
                "only defined for such parameters"
            )

    @property
    def eta_bar(self) -> float:
        """sqrt(eta1^2 + (eta0 + eta2)^2)."""
        return math.hypot(self.eta1, self.eta0 + self.eta2)

    @property
    def eta_tilde_sq(self) -> float:
        return self.eta * self.eta0 + self.eta * self.eta2 + self.eta2 * self.eta1

    def gap_scale(self, tau) -> np.ndarray:
        """N(tau): half the instantaneous eigenvalue gap."""
        tau = np.asarray(tau, dtype=float)
        z = self.eta + self.eta1 * np.cos(2 * self.eta2 * tau)
        y = self.eta1 * np.sin(2 * self.eta2 * tau)
        return np.sqrt(self.eta0**2 + z * z + y * y)


def _robust_trig(p: RobustModelParams, taus: np.ndarray):
    """cos/sin of 2 eta tau and sin/cos of 2 eta2 tau."""
    return (
        np.cos(2 * p.eta * taus),
        np.sin(2 * p.eta * taus),
        np.sin(2 * p.eta2 * taus),
        np.cos(2 * p.eta2 * taus),
    )


def _robust_bloch_components(p: RobustModelParams, taus: np.ndarray):
    """Pauli components of the robust Hamiltonian (closed form)."""
    c2e, s2e, s2f, c2f = _robust_trig(p, taus)
    hx = p.eta0 * c2e - p.eta1 * s2f * s2e
    hy = p.eta0 * s2e + p.eta1 * s2f * c2e
    hz = p.eta + p.eta1 * c2f
    return hx, hy, hz


def robust_model(params: RobustModelParams) -> HamiltonianModel:
    """2-level model with a fast wobble riding on a strong static field.

    Samples the closed-form Pauli components of the nested-exponential
    definition h = eta sz + U_z (eta0 sx + eta1 U_x sz U_x^dag) U_z^dag,
    with U_z = exp(-i eta sz tau) and U_x = exp(i eta2 sx tau).
    """
    p = params

    def evaluate_batch(taus):
        hx, hy, hz = _robust_bloch_components(p, taus)
        return _hermitian_2x2(hz, hx - 1j * hy, hx + 1j * hy)

    def derivative_batch(taus):
        c2e, s2e, s2f, c2f = _robust_trig(p, taus)
        dhx = (
            -2 * p.eta * p.eta0 * s2e
            - 2 * p.eta2 * p.eta1 * c2f * s2e
            - 2 * p.eta * p.eta1 * s2f * c2e
        )
        dhy = (
            2 * p.eta * p.eta0 * c2e
            + 2 * p.eta2 * p.eta1 * c2f * c2e
            - 2 * p.eta * p.eta1 * s2f * s2e
        )
        dhz = -2 * p.eta2 * p.eta1 * s2f
        return _hermitian_2x2(dhz, dhx - 1j * dhy, dhx + 1j * dhy)

    return HamiltonianModel(
        dim=2,
        label=(
            f"robust(eta={p.eta:g},eta0={p.eta0:g},eta1={p.eta1:g},eta2={p.eta2:g})"
        ),
        evaluate_batch=evaluate_batch,
        derivative_batch=derivative_batch,
    )


def robust_exact_propagator(params: RobustModelParams, tau: float) -> np.ndarray:
    """The model's exact propagator U(tau), a product of three exponentials."""
    p = params
    u1 = linalg.expm_unitary(SIGMA_Z, p.eta * tau)
    u2 = linalg.expm_unitary(SIGMA_X, -p.eta2 * tau)
    u3 = linalg.expm_unitary((p.eta0 + p.eta2) * SIGMA_X + p.eta1 * SIGMA_Z, tau)
    return u1 @ u2 @ u3


def robust_adiabatic_projector(params: RobustModelParams, tau, sign: int) -> np.ndarray:
    """Density matrix of the +- adiabatic orbit, (I +- hhat.sigma)/2."""
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    hx, hy, hz = _robust_bloch_components(params, taus)
    n = params.gap_scale(taus)
    rho = _hermitian_2x2(
        sign * hz / (2 * n), sign * (hx - 1j * hy) / (2 * n), sign * (hx + 1j * hy) / (2 * n), a=0.5
    )
    return rho if np.ndim(tau) else rho[0]


# ---------------------------------------------------------------------------
# Bloch-sphere curve model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlochCurveModel:
    """2-level Hamiltonian A(tau)*I + B(tau)*nhat(tau).sigma.

    nhat = (sin th cos ph, sin th sin ph, cos th).  B must stay positive on
    the run interval (nonzero gap).  Analytic derivatives of theta/phi/A/B
    unlock the closed-form frame and QGP.
    """

    theta: SmoothScalar
    phi: SmoothScalar
    A: SmoothScalar = field(default_factory=lambda: SmoothScalar.constant(0.0))
    B: SmoothScalar = field(default_factory=lambda: SmoothScalar.constant(1.0))

    @property
    def has_analytic_derivatives(self) -> bool:
        return all(
            s.deriv is not None for s in (self.theta, self.phi, self.A, self.B)
        )


def bloch_coupling(curve: BlochCurveModel, taus: np.ndarray) -> np.ndarray:
    """gamma_{-+} = (phi_dot sin(theta) - i theta_dot)/2 in the standard gauge."""
    taus = np.asarray(taus, dtype=float)
    return 0.5 * (
        curve.phi.d1(taus) * np.sin(curve.theta.value(taus)) - 1j * curve.theta.d1(taus)
    )


def bloch_qgp(curve: BlochCurveModel, taus: np.ndarray) -> np.ndarray:
    """Closed-form QGP of the upper orbit in theta/phi derivatives."""
    taus = np.asarray(taus, dtype=float)
    th = curve.theta.value(taus)
    td = curve.theta.d1(taus)
    tdd = curve.theta.d2(taus)
    pd = curve.phi.d1(taus)
    pdd = curve.phi.d2(taus)
    sin_th, cos_th = np.sin(th), np.cos(th)
    num = (
        td * pdd * sin_th
        + 2 * td * td * pd * cos_th
        + pd**3 * sin_th**2 * cos_th
        - pd * tdd * sin_th
    )
    den = td * td + (pd * sin_th) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        return num / den


def bloch_curve(curve: BlochCurveModel) -> HamiltonianModel:
    """Build the Hamiltonian model for a Bloch-sphere curve."""

    def components(taus):
        th = curve.theta.value(taus)
        ph = curve.phi.value(taus)
        a = curve.A.value(taus)
        b = curve.B.value(taus)
        if np.any(b <= 0):
            raise GapClosureError("B(tau) <= 0 sampled; gap closes")
        return th, ph, a, b

    def evaluate_batch(taus):
        th, ph, a, b = components(taus)
        nx = np.sin(th) * np.cos(ph)
        ny = np.sin(th) * np.sin(ph)
        nz = np.cos(th)
        return _hermitian_2x2(b * nz, b * (nx - 1j * ny), b * (nx + 1j * ny), a=a)

    derivative_batch = None
    analytic = None
    if curve.has_analytic_derivatives:

        def derivative_batch(taus):
            th, ph, a, b = components(taus)
            td, pd = curve.theta.d1(taus), curve.phi.d1(taus)
            ad, bd = curve.A.d1(taus), curve.B.d1(taus)
            sin_th, cos_th = np.sin(th), np.cos(th)
            sin_ph, cos_ph = np.sin(ph), np.cos(ph)
            nx, ny, nz = sin_th * cos_ph, sin_th * sin_ph, cos_th
            dnx = td * cos_th * cos_ph - pd * sin_th * sin_ph
            dny = td * cos_th * sin_ph + pd * sin_th * cos_ph
            dnz = -td * sin_th
            bx = bd * nx + b * dnx
            by = bd * ny + b * dny
            bz = bd * nz + b * dnz
            return _hermitian_2x2(bz, bx - 1j * by, bx + 1j * by, a=ad)

        def frame_at(taus):
            th, ph, a, b = components(taus)
            half = 0.5 * th
            return _spin_half_frame(
                a, b, np.cos(half), np.sin(half), ph, curve.phi.d1(taus), bloch_coupling(curve, taus)
            )

        delta_at = None
        if all(s.deriv2 is not None for s in (curve.theta, curve.phi)):

            def delta_at(taus):
                return _spin_half_delta(taus, bloch_qgp(curve, taus))

        analytic = AnalyticFrame(frame_at=frame_at, delta_at=delta_at)

    return HamiltonianModel(
        dim=2,
        analytic_frame=analytic,
        label="bloch_curve",
        evaluate_batch=evaluate_batch,
        derivative_batch=derivative_batch,
    )


# ---------------------------------------------------------------------------
# Generic N-level Fourier model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourierTerm:
    matrix: np.ndarray
    omega: float
    amplitude: float
    phase: float = 0.0


def fourier_nlevel(dim: int, terms: list[FourierTerm]) -> HamiltonianModel:
    """h(tau) = sum_k amplitude_k * cos(omega_k tau + phase_k) * H_k.

    Real combinations of Hermitian coefficient matrices, so Hermiticity is
    guaranteed term by term.  An empty term list is the zero Hamiltonian.
    Raises InvalidParamsError when sum_k |a_k| max|H_k| or
    sum_k |a_k omega_k| max|H_k|, which bound the entries of h and h', is
    not finite.
    """
    mats = []
    for i, term in enumerate(terms):
        m = np.asarray(term.matrix, dtype=complex)
        if m.shape != (dim, dim):
            raise InvalidParamsError(f"term {i} has shape {m.shape}, expected {(dim, dim)}")
        if linalg.hermiticity_defect(m) > linalg.default_hermiticity_tol(m):
            raise NotHermitianError(f"fourier term {i} is not Hermitian")
        mats.append(0.5 * (m + linalg.dagger(m)))
    stack = np.stack(mats) if mats else np.zeros((0, dim, dim), dtype=complex)
    omegas = np.array([t.omega for t in terms], dtype=float)
    amps = np.array([t.amplitude for t in terms], dtype=float)
    phases = np.array([t.phase for t in terms], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        bounds = np.stack([np.abs(amps), np.abs(amps * omegas)])
        bounds *= np.abs(stack).max(axis=(1, 2), initial=0.0)
        finite = np.isfinite(bounds.sum(axis=1)).all()
    if not finite:
        # a sum of T terms overflows only if some term reaches max / T
        bad = np.flatnonzero(~np.all(bounds < np.finfo(float).max / len(terms), axis=0))
        raise InvalidParamsError(
            f"fourier terms {bad.tolist()}: "
            "|amplitude| * max|matrix| or |amplitude * omega| * max|matrix|, summed over "
            "the terms, is not finite"
        )

    def combine(weights):
        out = np.empty((weights.shape[0], dim, dim), dtype=complex)

        def block(k0, k1):
            np.einsum("kt,tij->kij", weights[k0:k1], stack, out=out[k0:k1])

        linalg.for_blocks(block, weights.shape[0], linalg.EXPM_BLOCK)
        return out

    def evaluate_batch(taus):
        return combine(amps * np.cos(np.outer(taus, omegas) + phases))

    def derivative_batch(taus):
        return combine(-amps * omegas * np.sin(np.outer(taus, omegas) + phases))

    return HamiltonianModel(
        dim=dim,
        label=f"fourier({len(terms)} terms, dim={dim})",
        evaluate_batch=evaluate_batch,
        derivative_batch=derivative_batch,
    )


def constant_model(h: np.ndarray, label: str = "constant") -> HamiltonianModel:
    """Time-independent Hamiltonian as a model (handy for tests and the CLI)."""
    h = linalg.require_hermitian(np.asarray(h, dtype=complex))
    dim = h.shape[0]

    def evaluate_batch(taus):
        return np.broadcast_to(h, (taus.size, dim, dim)).copy()

    def derivative_batch(taus):
        return np.zeros((taus.size, dim, dim), dtype=complex)

    return HamiltonianModel(
        dim=dim,
        label=label,
        evaluate_batch=evaluate_batch,
        derivative_batch=derivative_batch,
    )
