"""Adiabaticity criteria and the constant-coefficient machinery.

Two pointwise criteria are evaluated on a spectral frame for a chosen
initial level m:

* traditional: max |gamma_nm| / |e_n - e_m| <= threshold (the gap alone);
* new:         max |gamma_km| / |e_n - e_m + Delta_mn| <= delta/sqrt(N-1),
  where Delta_mn is the quantum geometric potential.

For N > 2 the pairing of the numerator index k with the denominator pair
(m, n) is ambiguous; both the conservative reading (max over all k != m,
n != m combinations) and the strict one (k = n) are computed.

The constant-coefficient case is handled exactly through the self-adjoint
matrix Pi (omega_k on the diagonal, |gamma_kl| off it): its spectrum obeys
|eta_m - omega_m| <= sqrt(sum_k 2 |gamma_km|^2) and the surviving amplitude
is c_m(tau) = sum_k |U_mk|^2 e^{i eta_k tau}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GapClosureError,
    InvalidParamsError,
    InvariantViolationError,
    MatchingAmbiguityError,
    UndefinedArgError,
)
from .frames import SpectralFrame, pair_series
from .linalg import eigh_batch

#: readings of the new criterion's numerator index (module docstring)
PAIRINGS = ("conservative", "strict")


# ---------------------------------------------------------------------------
# Frame-based criteria
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PairConditionSeries:
    """Per-sample ingredients of both criteria for one (m, n) pair."""

    pair: tuple[int, int]
    gap: np.ndarray                 # e_n - e_m
    gamma_abs: np.ndarray           # |gamma_nm|
    delta: np.ndarray               # Delta_mn (NaN where undefined)
    traditional_ratio: np.ndarray
    new_ratio_strict: np.ndarray
    new_ratio_conservative: np.ndarray


@dataclass(frozen=True, eq=False)
class ConditionReport:
    """Criteria evaluation for one initial level of one model run."""

    model_label: str
    level: int
    delta_threshold: float
    traditional_threshold: float
    pairing: str
    pairs: list[PairConditionSeries]
    max_traditional: float
    tau_at_max_traditional: float
    max_new: float
    max_new_strict: float
    max_new_conservative: float
    tau_at_max_new: float
    traditional_pass: bool
    new_pass: bool
    new_threshold: float    # delta / sqrt(N - 1)

    @property
    def probability_floor(self) -> float:
        """(1 - delta)^2, the occupation the new condition guarantees."""
        return (1.0 - self.delta_threshold) ** 2


def condition_report(
    frame: SpectralFrame,
    m: int,
    delta_threshold: float = 0.1,
    traditional_threshold: float = 0.1,
    pairing: str = "conservative",
) -> ConditionReport:
    """Evaluate both criteria for initial level m over the whole grid."""
    if not 0.0 < delta_threshold < 1.0:
        raise InvalidParamsError("delta must lie in (0, 1)")
    if pairing not in PAIRINGS:
        raise InvalidParamsError(f"unknown pairing {pairing!r}")
    if frame.min_gap <= 0:
        raise GapClosureError("frame has a closed gap")
    dim = frame.dim
    taus = frame.grid.samples
    # only what the report reads; all stages held at once would raise the peak memory
    stages = (pair_series(frame, m, n) for n in range(dim) if n != m)
    others = {s.pair[1]: (s.gamma_abs, s.delta, s.coupling) for s in stages}
    # conservative numerator: the largest coupling out of level m at each tau
    max_coupling = np.max([gamma_abs for gamma_abs, _, _ in others.values()], axis=0)
    persists = any(coupling != "uncoupled" for _, _, coupling in others.values())

    pairs = []
    for n, (gamma_abs, delta, coupling) in others.items():
        gap = frame.energies[:, n] - frame.energies[:, m]
        if coupling == "uncoupled":
            # no transition channel, ratios vanish; the QGP denominator is
            # only needed when some coupling out of the level survives
            if persists:
                raise UndefinedArgError(
                    f"Delta_{m}{n} undefined (gamma_{n}{m} vanishes) but other "
                    "couplings out of the level persist"
                )
            trad = strict = conservative = np.zeros_like(gap)
        else:
            with np.errstate(invalid="ignore", divide="ignore"):
                trad = gamma_abs / np.abs(gap)
                denom = np.abs(gap + delta)
                strict = gamma_abs / denom
                conservative = max_coupling / denom
        pairs.append(PairConditionSeries(
            pair=(m, n), gap=gap, gamma_abs=gamma_abs, delta=delta, traditional_ratio=trad,
            new_ratio_strict=strict, new_ratio_conservative=conservative,
        ))

    def masked_max(name: str) -> tuple[float, float]:
        """The largest finite ratio ``name`` over all pairs, and its tau."""
        stack = np.stack([getattr(p, name) for p in pairs])
        masked = np.where(np.isfinite(stack), stack, -np.inf)
        j_pair, j_tau = np.unravel_index(np.argmax(masked), masked.shape)
        return float(masked[j_pair, j_tau]), float(taus[j_tau])

    max_trad, tau_trad = masked_max("traditional_ratio")
    max_strict, tau_strict = masked_max("new_ratio_strict")
    max_cons, tau_cons = masked_max("new_ratio_conservative")
    max_new, tau_new = (max_cons, tau_cons) if pairing == "conservative" else (max_strict, tau_strict)

    new_threshold = delta_threshold / math.sqrt(dim - 1)
    return ConditionReport(
        model_label=frame.model.label if frame.model is not None else "",
        level=m,
        delta_threshold=delta_threshold,
        traditional_threshold=traditional_threshold,
        pairing=pairing,
        pairs=pairs,
        max_traditional=max_trad,
        tau_at_max_traditional=tau_trad,
        max_new=max_new,
        max_new_strict=max_strict,
        max_new_conservative=max_cons,
        tau_at_max_new=tau_new,
        traditional_pass=bool(max_trad <= traditional_threshold),
        new_pass=bool(max_new <= new_threshold),
        new_threshold=new_threshold,
    )


# ---------------------------------------------------------------------------
# Pi-matrix machinery (constant |gamma| and theta_dot)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PiMatrix:
    """Self-adjoint Pi with omegas on the diagonal, |gamma_kl| off it."""

    omegas: np.ndarray
    couplings: np.ndarray

    def __post_init__(self):
        omegas = np.asarray(self.omegas, dtype=float)
        couplings = np.asarray(self.couplings, dtype=float)
        n = omegas.size
        if couplings.shape != (n, n):
            raise InvalidParamsError("couplings shape must match omegas")
        if np.max(np.abs(couplings - couplings.T)) > 0:
            raise InvalidParamsError("couplings must be symmetric")
        if np.any(np.diag(couplings) != 0):
            raise InvalidParamsError("couplings must have zero diagonal")
        if np.any(couplings < 0):
            raise InvalidParamsError("couplings must be nonnegative (magnitudes)")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "couplings", couplings)

    @property
    def dim(self) -> int:
        return self.omegas.size

    def matrix(self) -> np.ndarray:
        return np.diag(self.omegas).astype(complex) + self.couplings

    def level_bounds(self) -> np.ndarray:
        """sqrt(sum_{k != m} 2 |gamma_km|^2) per level."""
        return np.sqrt(2.0 * np.sum(self.couplings**2, axis=0))

    def condition_ratio(self, m: int, pairing: str = "conservative") -> float:
        """Criterion ratio for constant couplings: |gamma_km| over the
        phase-rate gaps |omega_n - omega_m|."""
        if pairing not in PAIRINGS:
            raise InvalidParamsError(f"unknown pairing {pairing!r}")
        others = [n for n in range(self.dim) if n != m]
        gaps = np.abs(self.omegas[others] - self.omegas[m])
        if np.min(gaps) == 0:
            return math.inf
        if pairing == "strict":
            return float(np.max(self.couplings[others, m] / gaps))
        return float(np.max(self.couplings[others, m]) / np.min(gaps))


@dataclass(frozen=True)
class PiBoundReport:
    """Eigenvalues of Pi matched to omegas, with the per-level bound."""

    etas: np.ndarray
    omegas: np.ndarray
    shifts: np.ndarray
    bounds: np.ndarray
    margins: np.ndarray


def pi_bound(pi: PiMatrix) -> PiBoundReport:
    """Verify |eta_m - omega_m| <= sqrt(sum 2|gamma_km|^2) per level.

    Levels are matched by sorting both spectra ascending.  If the safety
    intervals around the omegas overlap (coupling comparable to the omega
    spacing), the pairing is ill-defined and MatchingAmbiguity is raised
    carrying the margins of both candidate orderings.
    """
    etas, vectors = eigh_batch(pi.matrix())
    order = np.argsort(pi.omegas, kind="stable")
    bounds = pi.level_bounds()
    radii = np.maximum(bounds, np.sum(pi.couplings, axis=0))
    sorted_omegas = pi.omegas[order]
    sorted_radii = radii[order]
    lo = sorted_omegas - sorted_radii
    hi = sorted_omegas + sorted_radii
    ambiguous = bool(np.any(hi[:-1] > lo[1:]))

    shifts = np.empty(pi.dim)
    shifts[order] = etas - sorted_omegas
    margins = bounds - np.abs(shifts)
    if ambiguous:
        overlap_match = np.argmax(np.abs(vectors), axis=0)
        alt = np.full(pi.dim, np.nan)
        if np.unique(overlap_match).size == pi.dim:
            alt_shifts = np.empty(pi.dim)
            alt_shifts[overlap_match] = etas - pi.omegas[overlap_match]
            alt = bounds - np.abs(alt_shifts)
        raise MatchingAmbiguityError(
            "omega spacing is smaller than the total coupling; eta-omega "
            "pairing is ill-defined",
            sorted_margins=margins,
            overlap_margins=alt,
        )
    if np.any(margins < 0):
        raise InvariantViolationError(
            f"Pi eigenvalue bound violated: worst margin {np.min(margins):.3e}"
        )
    return PiBoundReport(
        etas=etas, omegas=pi.omegas, shifts=shifts, bounds=bounds, margins=margins
    )


def constant_case_solution(pi: PiMatrix, m: int, tau) -> complex | np.ndarray:
    """Exact surviving amplitude c'_m(tau) = sum_k |U_mk|^2 e^{i eta_k tau}."""
    etas, vectors = eigh_batch(pi.matrix())
    weights = np.abs(vectors[m, :]) ** 2
    taus = np.asarray(tau, dtype=float)
    out = np.sum(weights * np.exp(1j * np.outer(np.atleast_1d(taus), etas)), axis=1)
    return complex(out[0]) if np.ndim(tau) == 0 else out
