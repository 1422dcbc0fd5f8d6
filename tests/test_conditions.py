import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qgplab import conditions, evolve, qgp
from qgplab.conditions import (
    PiMatrix,
    condition_report,
    constant_case_solution,
    pi_bound,
)
from qgplab.errors import (
    GapClosureError,
    InvalidParamsError,
    InvariantViolationError,
    MatchingAmbiguityError,
    UndefinedArgError,
)
from dataclasses import replace

from conftest import random_hermitian
from qgplab.frames import TimeGrid, build_frame, regauge
from qgplab.linalg import SIGMA_Z, expm_unitary
from qgplab.models import (
    FourierTerm,
    RotatingSpinParams,
    SmoothScalar,
    constant_model,
    fourier_nlevel,
    rotating_spin,
)


def rotating_frame(params, n=2049, horizon=None):
    model = rotating_spin(params)
    horizon = horizon if horizon is not None else 2.0 * np.pi
    return build_frame(model, TimeGrid.uniform(0.0, horizon, n), gamma_mode="analytic_frame")


def rotating_traditional_ratio(p):
    return p.coupling_abs / (2.0 * p.energy)


def rotating_new_ratio(p):
    return p.coupling_abs / abs(2.0 * p.energy - p.qgp)


class TestFrameCriteria:
    def test_constant_model_ratios_vanish(self):
        frame = build_frame(constant_model(SIGMA_Z), TimeGrid.uniform(0.0, 1.0, 65))
        report = condition_report(frame, 0, delta_threshold=0.1)
        assert report.max_traditional == 0.0 and report.traditional_pass
        assert report.max_new == 0.0 and report.new_pass

    def test_rotating_ratios_match_closed_forms(self):
        p = RotatingSpinParams(eta=1.0, xi=0.5, K=2.0)
        frame = rotating_frame(p)
        report = condition_report(frame, 1, delta_threshold=0.5)
        assert report.max_traditional == pytest.approx(rotating_traditional_ratio(p), abs=1e-10)
        assert report.max_new == pytest.approx(rotating_new_ratio(p), abs=1e-10)
        # N = 2: strict and conservative coincide
        assert report.max_new_strict == pytest.approx(report.max_new_conservative, abs=1e-12)

    def test_unfaithful_regime_traditional_passes_new_fails(self, regime_unfaithful):
        report = condition_report(
            rotating_frame(regime_unfaithful), 1, delta_threshold=0.1, traditional_threshold=0.1
        )
        assert report.traditional_pass and report.max_traditional <= 0.1
        assert not report.new_pass and report.max_new > report.new_threshold
        assert report.max_new == pytest.approx(rotating_new_ratio(regime_unfaithful), abs=1e-9)

    def test_rescued_regime_traditional_fails_new_passes(self, regime_rescued):
        report = condition_report(
            rotating_frame(regime_rescued, horizon=0.1), 1,
            delta_threshold=0.1, traditional_threshold=0.1,
        )
        assert not report.traditional_pass and report.max_traditional > 0.1
        assert report.new_pass and report.max_new <= report.new_threshold

    def test_probability_floor(self):
        p = RotatingSpinParams(eta=1.0, xi=0.5, K=2.0)
        report = condition_report(rotating_frame(p), 1, delta_threshold=0.2)
        assert report.probability_floor == pytest.approx(0.64)

    def test_vanishing_coupling_beside_a_persisting_one_raises(self):
        # diag(0, 1, 3) + cos(tau) (|0><1| + h.c.): |2> never mixes, so
        # gamma_20 vanishes identically while gamma_10 persists
        model = fourier_nlevel(3, [
            FourierTerm(np.diag([0.0, 1.0, 3.0]), 0.0, 1.0),
            FourierTerm(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), 1.0, 1.0),
        ])
        frame = build_frame(model, TimeGrid.uniform(0.0, 4.0, 257))
        with pytest.raises(UndefinedArgError, match=r"^Delta_02 undefined \(gamma_20 vanishes\) "
                           "but other couplings out of the level persist$"):
            condition_report(frame, 0)

    def test_rejects_bad_delta(self):
        frame = rotating_frame(RotatingSpinParams(eta=1.0, xi=0.5, K=1.0))
        with pytest.raises(InvalidParamsError):
            condition_report(frame, 1, delta_threshold=1.5)

    def test_rejects_unknown_pairing(self):
        frame = rotating_frame(RotatingSpinParams(eta=1.0, xi=0.5, K=1.0), n=65)
        with pytest.raises(InvalidParamsError, match="^unknown pairing 'loose'$"):
            condition_report(frame, 1, pairing="loose")

    def test_rejects_a_closed_gap(self):
        frame = rotating_frame(RotatingSpinParams(eta=1.0, xi=0.5, K=1.0), n=65)
        with pytest.raises(GapClosureError, match="^frame has a closed gap$"):
            condition_report(replace(frame, min_gap=0.0), 1)


def separated_fourier(rng, dim):
    """Levels 4 apart, shaken by two random Hermitian Fourier terms."""
    terms = [FourierTerm(np.diag(4.0 * np.arange(dim)).astype(complex), 0.0, 1.0)]
    for omega in (1.0, 2.3):
        terms.append(FourierTerm(random_hermitian(rng, dim), omega, 0.3, rng.uniform(0, 6)))
    return fourier_nlevel(dim, terms)


#: per-sample agreement of Delta and |gamma| that the gauge test asserts
GAUGE_ATOL = 1e-8

#: each report maximum and the per-pair ratio it is taken over
MAX_RATIOS = {
    "max_traditional": "traditional_ratio",
    "max_new_strict": "new_ratio_strict",
    "max_new_conservative": "new_ratio_conservative",
}


def reciprocal_max_bound(old, new, field, eps):
    """Largest |1/new.field - 1/old.field| allowed when every Delta and
    |gamma| moved by at most eps.

    Per sample, 1/ratio = |gap + Delta| / g, with g = |gamma_nm| (the largest
    coupling out of the level for the conservative ratio) and the gap gauge
    invariant, so it moves by at most eps (1 + 1/ratio) / g_new.  The smallest
    reciprocal then moves by at most that bound at the sample where either
    report attains it.  Near a pole of the ratio this stays of order eps / g,
    where the ratio itself may move by eps g / |gap + Delta|^2.
    """
    key = MAX_RATIOS[field]
    ratios = []
    for report in (old, new):
        stack = np.stack([getattr(p, key) for p in report.pairs])
        ratios.append(np.where(np.isfinite(stack), stack, -np.inf))
    g_new = np.stack([p.gamma_abs for p in new.pairs])
    if key == "new_ratio_conservative":
        g_new = np.broadcast_to(g_new.max(axis=0), g_new.shape)
    spots = [np.unravel_index(np.argmax(r), r.shape) for r in ratios]
    return max(eps * (1.0 + 1.0 / ratios[0][s]) / g_new[s] for s in spots)


class TestGaugeInvariance:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.sampled_from([3, 4]))
    # max_new_strict = 8796: a 2.6e-12 move of Delta shifts the ratio by 4.4e-8 relative
    @example(seed=135676, dim=4)
    def test_regauge_leaves_the_report_unchanged(self, seed, dim):
        rng = np.random.default_rng(seed)
        grid = TimeGrid.uniform(0.0, 2.0 * np.pi, 1024)
        frame = build_frame(separated_fourier(rng, dim), grid, gamma_mode="analytic_derivative")
        # f_n(0) = 0 and degree 4, which the 4th-order stencil differentiates exactly
        scale = (2.0 * np.pi) ** -np.arange(4.0)
        fs = [SmoothScalar.poly(np.r_[0.0, rng.uniform(-2.0, 2.0, 4) * scale])
              for _ in range(dim)]
        moved = regauge(frame, fs)
        m = int(rng.integers(dim))
        # a flagged unwrap step leaves arg gamma, hence Delta, unresolved by the grid
        assume(all(qgp.qgp(frame, m, n).unwrap_flags == 0 for n in range(dim) if n != m))
        kwargs = dict(delta_threshold=rng.uniform(0.05, 0.95),
                      traditional_threshold=10.0 ** rng.uniform(-2.0, 1.0))
        pairings = ("conservative", "strict")
        before = [condition_report(frame, m, pairing=p, **kwargs) for p in pairings]
        after = [condition_report(moved, m, pairing=p, **kwargs) for p in pairings]
        for report in before:
            assume(abs(report.max_traditional - report.traditional_threshold) > 1e-6)
            assume(abs(report.max_new - report.new_threshold) > 1e-6)
        for old, new in zip(before, after):
            for old_pair, new_pair in zip(old.pairs, new.pairs, strict=True):
                assert new_pair.pair == old_pair.pair
                np.testing.assert_allclose(
                    new_pair.delta, old_pair.delta, rtol=0, atol=GAUGE_ATOL
                )
                np.testing.assert_allclose(
                    new_pair.gamma_abs, old_pair.gamma_abs, rtol=0, atol=GAUGE_ATOL
                )
            for field in MAX_RATIOS:
                moved_by = abs(1.0 / getattr(new, field) - 1.0 / getattr(old, field))
                assert moved_by <= reciprocal_max_bound(old, new, field, GAUGE_ATOL)
            assert new.traditional_pass == old.traditional_pass
            assert new.new_pass == old.new_pass


class TestPiBound:
    def test_zero_couplings_exact(self):
        pi = PiMatrix(omegas=np.array([0.0, 3.0, 7.0]), couplings=np.zeros((3, 3)))
        report = pi_bound(pi)
        np.testing.assert_allclose(report.shifts, 0.0, atol=1e-14)
        np.testing.assert_allclose(report.bounds, 0.0)

    def test_two_level_closed_form(self):
        # eigenvalues of [[0, g], [g, w]] are w/2 -+ sqrt(w^2/4 + g^2)
        pi = PiMatrix(omegas=np.array([0.0, 10.0]), couplings=np.array([[0.0, 0.1], [0.1, 0.0]]))
        report = pi_bound(pi)
        shift = math.sqrt(25.0 + 0.01) - 5.0
        np.testing.assert_allclose(np.abs(report.shifts), shift, atol=1e-12)
        np.testing.assert_allclose(report.bounds, math.sqrt(0.02), atol=1e-15)
        assert np.all(report.margins > 0)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_random_five_level_bound_holds(self, seed):
        rng = np.random.default_rng(seed)
        omegas = np.sort(rng.uniform(0.0, 50.0, 5))
        omegas += 6.0 * np.arange(5)  # enforce spacing
        g = rng.uniform(0.0, 0.4, (5, 5))
        g = np.triu(g, 1)
        g = g + g.T
        report = pi_bound(PiMatrix(omegas=omegas, couplings=g))
        assert np.all(report.margins >= 0)

    def test_matching_ambiguity_raised(self):
        omegas = np.array([0.0, 1.0, 1.1])
        g = np.zeros((3, 3))
        g[1, 2] = g[2, 1] = 5.0
        with pytest.raises(MatchingAmbiguityError) as exc:
            pi_bound(PiMatrix(omegas=omegas, couplings=g))
        assert exc.value.sorted_margins is not None

    def test_ambiguous_pi_is_solved_once(self, monkeypatch):
        calls = []
        exact = conditions.eigh_batch
        monkeypatch.setattr(conditions, "eigh_batch", lambda h: calls.append(h) or exact(h))
        g = np.zeros((3, 3))
        g[1, 2] = g[2, 1] = 5.0
        with pytest.raises(MatchingAmbiguityError):
            pi_bound(PiMatrix(omegas=np.array([0.0, 1.0, 1.1]), couplings=g))
        assert len(calls) == 1

    def test_invalid_couplings_rejected(self):
        with pytest.raises(InvalidParamsError):
            PiMatrix(omegas=np.zeros(2), couplings=np.array([[0.0, -0.1], [-0.1, 0.0]]))
        with pytest.raises(InvalidParamsError):
            PiMatrix(omegas=np.zeros(2), couplings=np.array([[0.1, 0.0], [0.0, 0.1]]))

    def test_three_level_shape_and_symmetry_rejected(self):
        with pytest.raises(InvalidParamsError, match="couplings shape must match omegas"):
            PiMatrix(omegas=np.array([0.0, 3.0, 7.0]), couplings=np.zeros((2, 2)))
        asymmetric = np.zeros((3, 3))
        asymmetric[0, 1], asymmetric[1, 0] = 0.1, 0.2
        with pytest.raises(InvalidParamsError, match="couplings must be symmetric"):
            PiMatrix(omegas=np.array([0.0, 3.0, 7.0]), couplings=asymmetric)

    def test_three_level_condition_ratio(self):
        g = np.zeros((3, 3))
        g[0, 1] = g[1, 0] = 0.4
        g[0, 2] = g[2, 0] = 1.5
        g[1, 2] = g[2, 1] = 0.3
        pi = PiMatrix(omegas=np.array([0.0, 2.0, 5.0]), couplings=g)
        # level 0: couplings 0.4 and 1.5 over the gaps 2 and 5
        assert pi.condition_ratio(0) == 1.5 / 2.0
        assert pi.condition_ratio(0, pairing="strict") == 1.5 / 5.0
        # levels 0 and 1 share omega 1.0: a zero phase-rate gap
        degenerate = PiMatrix(omegas=np.array([1.0, 1.0, 4.0]), couplings=g)
        assert degenerate.condition_ratio(0) == math.inf
        assert degenerate.condition_ratio(2, pairing="strict") == 1.5 / 3.0

    def test_misspelt_pairing_rejected(self):
        # the two readings differ here: 2.0 / 5 conservative, 1.5 / 5 strict
        g = np.zeros((3, 3))
        g[0, 1] = g[1, 0] = 1.5
        g[0, 2] = g[2, 0] = 2.0
        pi = PiMatrix(omegas=np.array([0.0, 5.0, 7.0]), couplings=g)
        assert pi.condition_ratio(0) == 2.0 / 5.0
        assert pi.condition_ratio(0, pairing="strict") == 1.5 / 5.0
        with pytest.raises(InvalidParamsError, match="^unknown pairing 'strcit'$"):
            pi.condition_ratio(0, pairing="strcit")

    def test_violated_bound_raises(self, monkeypatch):
        """The bound holds for every Pi whose safety intervals are disjoint, so the
        eigenvalues are shifted by 0.25: every margin is then 0 - 0.25."""
        exact = conditions.eigh_batch
        monkeypatch.setattr(conditions, "eigh_batch", lambda h: (
            exact(h)[0] + 0.25, exact(h)[1]))
        pi = PiMatrix(omegas=np.array([0.0, 3.0, 7.0]), couplings=np.zeros((3, 3)))
        with pytest.raises(InvariantViolationError, match="worst margin -2.500e-01"):
            pi_bound(pi)


class TestConstantCaseSolution:
    def test_zero_couplings_pure_phase(self):
        pi = PiMatrix(omegas=np.array([2.0, 5.0]), couplings=np.zeros((2, 2)))
        taus = np.linspace(0.0, 4.0, 17)
        c = constant_case_solution(pi, 0, taus)
        np.testing.assert_allclose(c, np.exp(2.0j * taus), atol=1e-12)

    def test_two_level_rabi_floor(self):
        # min |c_m| = |dw| / sqrt(dw^2 + 4 g^2), reached at half a Rabi period
        g, dw = 0.1, 10.0
        pi = PiMatrix(omegas=np.array([0.0, dw]), couplings=np.array([[0.0, g], [g, 0.0]]))
        rabi = math.sqrt(dw * dw / 4.0 + g * g)
        taus = np.linspace(0.0, 2.0 * np.pi / rabi, 4001)
        c = np.abs(constant_case_solution(pi, 0, taus))
        expected_floor = abs(dw) / math.sqrt(dw * dw + 4.0 * g * g)
        assert np.min(c) == pytest.approx(expected_floor, abs=1e-10)

    def test_matches_exact_constant_evolution(self, rng):
        omegas = np.array([0.0, 4.0, 9.0])
        g = np.zeros((3, 3))
        g[0, 1] = g[1, 0] = 0.2
        g[1, 2] = g[2, 1] = 0.15
        g[0, 2] = g[2, 0] = 0.05
        pi = PiMatrix(omegas=omegas, couplings=g)
        basis = np.eye(3, dtype=complex)
        for tau in rng.uniform(0.0, 8.0, 6):
            for m in range(3):
                via_expm = (expm_unitary(-pi.matrix(), float(tau)) @ basis[m])[m]
                direct = constant_case_solution(pi, m, float(tau))
                assert abs(via_expm - direct) < 1e-10

    def test_matches_ode_integration(self):
        omegas = np.array([0.0, 6.0])
        g = np.array([[0.0, 0.3], [0.3, 0.0]])
        pi = PiMatrix(omegas=omegas, couplings=g)
        grid = TimeGrid.uniform(0.0, 5.0, 513)
        result = evolve.evolve_schrodinger(
            constant_model(-pi.matrix()), np.array([1.0, 0.0], dtype=complex), grid, tol=1e-11
        )
        direct = constant_case_solution(pi, 0, grid.samples)
        np.testing.assert_allclose(np.abs(result.states[:, 0]), np.abs(direct), atol=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_sufficiency_floor(self, seed):
        """Whenever the constant-case criterion passes with delta, the
        surviving amplitude stays above 1 - delta at all times."""
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 5)
        omegas = np.cumsum(rng.uniform(2.0, 6.0, n))
        g = np.triu(rng.uniform(0.0, 0.25, (n, n)), 1)
        g = g + g.T
        pi = PiMatrix(omegas=omegas, couplings=g)
        m = int(rng.integers(0, n))
        ratio = pi.condition_ratio(m, pairing="conservative")
        delta = ratio * math.sqrt(n - 1)
        if delta >= 0.3:
            return  # criterion not satisfied with a small delta; out of scope
        taus = np.linspace(0.0, 20.0, 2001)
        amplitude = np.abs(constant_case_solution(pi, m, taus))
        assert np.min(amplitude) >= 1.0 - delta
