import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from qgplab.numerics import cumulative_integral, derivative_series, valid_runs


def stacked_stencil(y, h):
    """Oracle: the interior 4th-order stencil as a stack of five shifted
    copies contracted with the weights."""
    k = y.shape[0]
    weights = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
    win = np.stack([y[i : k - 4 + i] for i in range(5)])
    return np.tensordot(weights, win, axes=(0, 0)) / h


class TestDerivativeSeries:
    def test_uniform_interior_matches_stacked_stencil(self, rng):
        y = rng.standard_normal((300, 4, 4)) + 1j * rng.standard_normal((300, 4, 4))
        x = np.linspace(0.0, 2.0, 300)
        got = derivative_series(y, x)[2:-2]
        expected = stacked_stencil(y, x[1] - x[0])
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))

    def test_quartic_is_exact(self):
        x = np.linspace(-1.0, 1.0, 41)
        y = np.stack([x**4 - 2.0 * x**3, 3.0 * x**2 + x], axis=1)
        dy = np.stack([4.0 * x**3 - 6.0 * x**2, 6.0 * x + 1.0], axis=1)
        np.testing.assert_allclose(derivative_series(y, x), dy, rtol=0.0, atol=1e-11)


class TestOneColumn:
    """``derivative_series(y, x, column=j)`` is ``derivative_series(y, x)[..., j]``
    byte for byte.  BLAS rounds an entry of the edge rows by the width of the
    product: a column alone differs from the whole row at N = 2 and 3."""

    @pytest.mark.parametrize("grid", ["uniform", "clustered", "short"])
    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_column_equals_the_whole_stack(self, rng, grid, dim):
        k = {"uniform": 257, "clustered": 60, "short": 4}[grid]
        x = clustered_grid(rng, k) if grid == "clustered" else np.linspace(0.0, 1.0, k)
        y = rng.standard_normal((k, dim, dim)) + 1j * rng.standard_normal((k, dim, dim))
        whole = derivative_series(y, x)
        for j in range(dim):
            assert np.array_equal(derivative_series(y, x, column=j), whole[..., j])


class TestShortGrids:
    """Grids too short for the 4th-order rules fall back to numpy's gradient
    and the trapezoid rule."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "clustered"])
    def test_derivative_is_numpy_gradient(self, rng, k, uniform):
        x = np.linspace(0.0, 1.0, k) if uniform else np.cumsum(rng.uniform(0.1, 1.0, k))
        y = rng.standard_normal((k, 3, 3)) + 1j * rng.standard_normal((k, 3, 3))
        expected = np.gradient(y, x, axis=0, edge_order=min(2, k - 1))
        assert np.array_equal(derivative_series(y, x), expected)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "clustered"])
    def test_integral_is_trapezoid(self, rng, k, uniform):
        x = np.linspace(0.0, 1.0, k) if uniform else np.cumsum(rng.uniform(0.1, 1.0, k))
        y = rng.standard_normal(k)
        got = cumulative_integral(y, x)
        np.testing.assert_allclose(got, cumulative_trapezoid(y, x, initial=0.0),
                                   rtol=1e-15, atol=1e-15)
        assert got[0] == 0.0


def clustered_grid(rng, samples):
    """A seeded non-uniform grid: steps spread over 2.5 decades, smallest step
    at least 1e-3 of the mean step, placed on [a, a + 2] for a random a."""
    steps = 10.0 ** rng.uniform(-2.5, 0.0, samples - 1)
    assert steps.min() >= 1e-3 * steps.mean()
    start = rng.uniform(-3.0, 3.0)
    return start + 2.0 * np.concatenate(([0.0], np.cumsum(steps))) / steps.sum()


def cubic_map_grid(samples):
    """u + u**3 on a uniform u in [0, 1]: the step grows fourfold along the grid."""
    u = np.linspace(0.0, 1.0, samples)
    return u + u**3


def max_rel_error(got, expected):
    return np.max(np.abs(got - expected)) / np.max(np.abs(expected))


class TestNonUniformGrids:
    """On a non-uniform grid each node or step takes the polynomial through
    its 5 (derivative) or 4 (integral) nearest nodes, so both rules are exact
    for polynomials up to that degree."""

    SIZES = (5, 6, 7, 9, 33, 500)

    @pytest.mark.parametrize("samples", SIZES)
    def test_derivative_exact_for_quartics(self, samples):
        rng = np.random.default_rng(samples)
        x = clustered_grid(rng, samples)
        for degree in range(5):
            # a (samples, 2, 2) stack of complex polynomials, shaped like frame vectors
            coeffs = rng.standard_normal((degree + 1, 2, 2)) + 1j * rng.standard_normal((degree + 1, 2, 2))
            y = np.moveaxis(np.polynomial.polynomial.polyval(x, coeffs), -1, 0)
            dy = np.moveaxis(
                np.polynomial.polynomial.polyval(x, np.polynomial.polynomial.polyder(coeffs)), -1, 0
            )
            if degree == 0:
                assert np.max(np.abs(derivative_series(y, x))) <= 1e-9 * np.max(np.abs(y))
            else:
                assert max_rel_error(derivative_series(y, x), dy) <= 1e-9

    @pytest.mark.parametrize("samples", SIZES[:1] + (4,) + SIZES[1:])
    def test_integral_exact_for_cubics(self, samples):
        rng = np.random.default_rng(1000 + samples)
        x = clustered_grid(rng, samples)
        for degree in range(4):
            coeffs = rng.standard_normal(degree + 1)
            anti = np.polynomial.polynomial.polyint(coeffs)
            y = np.polynomial.polynomial.polyval(x, coeffs)
            expected = np.polynomial.polynomial.polyval(x, anti) - np.polynomial.polynomial.polyval(x[0], anti)
            assert max_rel_error(cumulative_integral(y, x), expected) <= 1e-12

    def test_fourth_order_convergence_on_the_cubic_map_grid(self):
        def errors(samples):
            x = cubic_map_grid(samples)
            d_err = np.max(np.abs(derivative_series(np.sin(3.0 * x), x) - 3.0 * np.cos(3.0 * x)))
            i_err = np.max(np.abs(cumulative_integral(np.sin(3.0 * x), x) - (1.0 - np.cos(3.0 * x)) / 3.0))
            return np.array([d_err, i_err])

        coarse, fine = errors(129), errors(257)
        assert np.all(coarse / fine >= 10.0)


def looped_runs(mask):
    """Oracle: maximal [start, stop) runs of True, found sample by sample."""
    runs, start = [], None
    for i, ok in enumerate(mask):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(mask)))
    return runs


class TestValidRuns:
    def test_matches_the_loop_on_random_masks(self, rng):
        for size in (2, 3, 17, 1000):
            for density in (0.1, 0.5, 0.9):
                mask = rng.random(size) < density
                assert valid_runs(mask) == looped_runs(mask)

    @pytest.mark.parametrize("mask,runs", [
        (np.ones(7, dtype=bool), [(0, 7)]),
        (np.zeros(7, dtype=bool), []),
        (np.array([True]), [(0, 1)]),
        (np.array([False]), []),
    ], ids=["all-true", "all-false", "one-true", "one-false"])
    def test_edge_masks(self, mask, runs):
        assert valid_runs(mask) == looped_runs(mask) == runs

    def test_bounds_are_plain_ints(self, rng):
        runs = valid_runs(rng.random(100) < 0.5)
        assert runs and all(type(i) is int for run in runs for i in run)
