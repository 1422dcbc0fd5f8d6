"""Finite-difference, quadrature and phase-unwrapping helpers of the frame layer.

``derivative_series`` and ``cumulative_integral`` are 4th order on every
grid.  Uniform grids use fixed stencils (the 5-point derivative, the 4-point
step integral, one-sided at the edges).  Non-uniform grids use the local
polynomial through the 5 nodes nearest each node (derivative) or the 4 nodes
nearest each step (step integral), its weights solved per node in scaled
offsets.  Shorter grids fall back to ``np.gradient`` and the trapezoid rule.
"""

from __future__ import annotations

import numpy as np

# One-sided 4th-order stencils for the first two / last two grid points.
_EDGE0 = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0
_EDGE1 = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0


def _is_uniform(x: np.ndarray) -> bool:
    """Whether every step of the grid x equals the first to a relative 1e-9.

    The absolute slack of 1e-15 times the largest |x| absorbs the rounding
    of linspace far from the origin.
    """
    steps = np.diff(x)
    scale = max(abs(x[0]), abs(x[-1]), 1.0)
    return bool(np.allclose(steps, steps[0], rtol=1e-9, atol=1e-15 * scale))


def _local_polynomial(
    y: np.ndarray, x: np.ndarray, out: np.ndarray, integrate: bool, pick=...
) -> np.ndarray:
    """Fill out[i] with the derivative at x[i] (or with ``integrate`` the integral
    over [x[i], x[i+1]]) of the polynomial through the 5 (4) nodes nearest i,
    for the entries ``pick`` of y's trailing axes.

    All windows' Vandermonde systems, in the scaled offsets (x - x[i]) / span,
    are solved at once; the weights are applied as shifted slices of y.
    """
    k, n = x.size, out.shape[0]
    width = 4 if integrate else 5
    lead = (width - 1) // 2  # window nodes before node i, away from the edges
    nodes = x[np.clip(np.arange(n) - lead, 0, k - width)[:, None] + np.arange(width)]
    span = nodes[:, -1] - nodes[:, 0]
    powers = np.arange(width)
    # the weights w are exact on each monomial: sum_j w_j s_j**p = functional(s**p)
    vandermonde_t = ((nodes - x[:n, None]) / span[:, None])[:, None, :] ** powers[:, None]
    if integrate:
        functional = span[:, None] * (np.diff(x) / span)[:, None] ** (powers + 1) / (powers + 1)
    else:
        functional = np.zeros((n, width))
        functional[:, 1] = 1.0 / span
    weights = np.linalg.solve(vandermonde_t, functional[:, :, None])[:, :, 0]

    part = y[pick]
    w = weights.reshape(weights.shape + (1,) * (part.ndim - 1))
    inner = slice(lead, k - width + lead + 1)
    mid, term = out[inner], np.empty_like(out[inner])
    np.multiply(part[: k - width + 1], w[inner, 0], out=mid)
    for j in range(1, width):
        mid += np.multiply(part[j : k - width + 1 + j], w[inner, j], out=term)
    for i in [*range(lead), *range(inner.stop, n)]:
        edge = y[:width] if i < lead else y[-width:]
        out[i] = np.tensordot(weights[i], edge, axes=(0, 0))[pick]
    return out


def derivative_series(y: np.ndarray, x: np.ndarray, column: int | None = None) -> np.ndarray:
    """d y/d x sampled on the grid x, differentiating along axis 0.

    Uniform grids use 4th-order central stencils with one-sided 4th-order
    edges; non-uniform grids differentiate the quartic through the 5 nodes
    nearest each node.  Grids shorter than 5 samples use numpy.gradient.

    With ``column`` only y[..., column] is differentiated, to the bytes of
    ``derivative_series(y, x)[..., column]``: the edge rows are weighted sums
    that BLAS rounds by an entry's place in the whole row, so those few rows
    are formed on all of y and then indexed.
    """
    y = np.asarray(y)
    x = np.asarray(x, dtype=float)
    pick = ... if column is None else (..., column)
    part = y[pick]
    k = x.size
    if k < 5:
        return np.gradient(part, x, axis=0, edge_order=min(2, k - 1))
    h = x[1] - x[0]
    out = np.empty_like(part, dtype=np.result_type(y.dtype, float))
    if _is_uniform(x):
        # (y[i-2] - 8 y[i-1] + 8 y[i+1] - y[i+2]) / 12h, accumulated in place
        mid = out[2:-2]
        np.subtract(part[3:-1], part[1:-3], out=mid)
        mid *= 8.0
        mid += part[:-4]
        mid -= part[4:]
        mid /= 12.0 * h
        out[0] = np.tensordot(_EDGE0, y[:5], axes=(0, 0))[pick] / h
        out[1] = np.tensordot(_EDGE1, y[:5], axes=(0, 0))[pick] / h
        out[-1] = -np.tensordot(_EDGE0, y[-5:][::-1], axes=(0, 0))[pick] / h
        out[-2] = -np.tensordot(_EDGE1, y[-5:][::-1], axes=(0, 0))[pick] / h
        return out
    return _local_polynomial(y, x, out, integrate=False, pick=pick)


def unwrap_angles(angles: np.ndarray) -> tuple[np.ndarray, int]:
    """Continuous phase from sampled angles.

    Per-step increments are folded into (-pi, pi]; returns the unwrapped
    series together with the number of steps whose folded increment exceeded
    pi/2 (a sign the grid may be too coarse for unambiguous unwrapping).
    """
    angles = np.asarray(angles, dtype=float)
    unwrapped = np.unwrap(angles)
    increments = np.diff(unwrapped)
    large = int(np.count_nonzero(np.abs(increments) > 0.5 * np.pi))
    return unwrapped, large


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Composite trapezoid running integral with a leading zero."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


# 4-point Newton-Cotes weights for one uniform step: interior steps use the
# centered window (k-1..k+2); the first and last steps use one-sided windows.
_STEP_CENTERED = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0
_STEP_LEFT = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
_STEP_RIGHT = _STEP_LEFT[::-1]


def cumulative_integral(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """4th-order running integral with a leading zero.

    Each step integrates the cubic through the four nearest nodes (exact for
    polynomial integrands up to degree 3, which the phase bookkeeping needs);
    grids shorter than 4 samples fall back to the trapezoid rule.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    k = x.size
    if k < 4:
        return cumulative_trapezoid(y, x)
    h = x[1] - x[0]
    increments = np.empty(k - 1)
    if _is_uniform(x):
        win = np.stack([y[i : k - 3 + i] for i in range(4)])
        increments[1:-1] = h * np.tensordot(_STEP_CENTERED, win, axes=(0, 0))
        increments[0] = h * np.dot(_STEP_LEFT, y[:4])
        increments[-1] = h * np.dot(_STEP_RIGHT, y[-4:])
    else:
        _local_polynomial(y, x, increments, integrate=True)
    out = np.zeros(k)
    out[1:] = np.cumsum(increments)
    return out


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.trapezoid(np.asarray(y, dtype=float), np.asarray(x, dtype=float)))


def valid_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal [start, stop) index runs where mask is True."""
    # the edges of the False-padded mask alternate start, stop, start, ...
    padded = np.concatenate(([False], np.asarray(mask, dtype=bool), [False]))
    edges = np.flatnonzero(np.diff(padded))
    return [(int(start), int(stop)) for start, stop in zip(edges[::2], edges[1::2])]
