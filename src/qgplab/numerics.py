"""Finite-difference and phase-unwrapping helpers used by the frame layer."""

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


def fornberg_weights(x: np.ndarray, x0: float, order: int) -> np.ndarray:
    """Finite-difference weights for d^order/dx^order at x0 on nodes x.

    Fornberg's recursion; exact for polynomials up to degree len(x)-1.
    """
    n = len(x)
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2 = 1.0
        c5 = c4
        c4 = x[i] - x0
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


def derivative_series(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d y/d x sampled on the grid x, differentiating along axis 0.

    Uniform grids use 4th-order central stencils with one-sided 4th-order
    edges; non-uniform grids use 5-point Fornberg weights per node.  Grids
    shorter than 5 samples fall back to numpy.gradient.
    """
    y = np.asarray(y)
    x = np.asarray(x, dtype=float)
    k = x.size
    if k < 5:
        return np.gradient(y, x, axis=0, edge_order=min(2, k - 1))
    h = x[1] - x[0]
    out = np.empty_like(y, dtype=np.result_type(y.dtype, float))
    if _is_uniform(x):
        # (y[i-2] - 8 y[i-1] + 8 y[i+1] - y[i+2]) / 12h, accumulated in place
        mid = out[2:-2]
        np.subtract(y[3:-1], y[1:-3], out=mid)
        mid *= 8.0
        mid += y[:-4]
        mid -= y[4:]
        mid /= 12.0 * h
        out[0] = np.tensordot(_EDGE0, y[:5], axes=(0, 0)) / h
        out[1] = np.tensordot(_EDGE1, y[:5], axes=(0, 0)) / h
        out[-1] = -np.tensordot(_EDGE0, y[-5:][::-1], axes=(0, 0)) / h
        out[-2] = -np.tensordot(_EDGE1, y[-5:][::-1], axes=(0, 0)) / h
        return out
    for i in range(k):
        lo = min(max(i - 2, 0), k - 5)
        w = fornberg_weights(x[lo : lo + 5], x[i], 1)
        out[i] = np.tensordot(w, y[lo : lo + 5], axes=(0, 0))
    return out


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
        for i in range(k - 1):
            lo = min(max(i - 1, 0), k - 4)
            nodes = x[lo : lo + 4]
            coeffs = np.polynomial.polynomial.polyfit(nodes - x[i], y[lo : lo + 4], 3)
            anti = np.polynomial.polynomial.polyint(coeffs)
            increments[i] = np.polynomial.polynomial.polyval(x[i + 1] - x[i], anti)
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
