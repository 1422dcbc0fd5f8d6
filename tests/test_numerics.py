import numpy as np
import pytest

from qgplab.numerics import derivative_series, valid_runs


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
