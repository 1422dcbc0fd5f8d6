import numpy as np

from qgplab.numerics import derivative_series


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
