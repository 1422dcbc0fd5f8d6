"""Deterministic CSV and SVG emission.

Floats are printed with 17 significant digits so identical runs produce
byte-identical files; lines always end with LF.  The vector-graphics writer
emits plain polyline SVG with no library dependency.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np


#: rows formatted per ``%`` operation in ``write_csv``
_CSV_BLOCK_ROWS = 256

#: width and height of ``write_svg_curves`` drawings, in pixels
_SVG_SIZE = 640


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write equal-length columns under the given header names.

    Each block of rows is one ``%`` operation on a ``%.17g`` row template,
    which prints every cell exactly as ``format_float`` does.
    """
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"column lengths differ: {sorted(lengths)}")
    rows = len(columns[0]) if columns else 0
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        columns = [np.asarray(c, dtype=float) for c in columns]
        row = ",".join(["%.17g"] * len(columns)) + "\n"
        for start in range(0, rows, _CSV_BLOCK_ROWS):
            block = np.column_stack([c[start : start + _CSV_BLOCK_ROWS] for c in columns])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def bloch_vector(states: np.ndarray) -> np.ndarray:
    """Bloch vectors (K, 3) of a stack of 2-level pure states (K, 2)."""
    a, b = states[:, 0], states[:, 1]
    x = 2.0 * np.real(np.conjugate(a) * b)
    y = 2.0 * np.imag(np.conjugate(a) * b)
    z = np.abs(a) ** 2 - np.abs(b) ** 2
    return np.stack([x, y, z], axis=1)


def project_isometric(points: np.ndarray) -> np.ndarray:
    """Fixed oblique projection of (K, 3) points onto the drawing plane."""
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    u = x - 0.5 * y
    v = -z + 0.25 * x + 0.4 * y  # SVG y grows downward
    return np.stack([u, v], axis=1)


def write_svg_curves(
    path: str,
    curves: Iterable[tuple[np.ndarray, str, float, str]],
    title: str,
) -> None:
    """Polyline plot of 2D curves: (points (K, 2), color, width, label)."""
    curves = list(curves)
    allpts = np.concatenate([c[0] for c in curves]) if curves else np.zeros((1, 2))
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    margin = 0.08 * _SVG_SIZE
    scale = (_SVG_SIZE - 2 * margin) / np.max(span)

    def to_pixels(pts: np.ndarray) -> np.ndarray:
        return margin + (pts - lo) * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
        f'<text x="{_SVG_SIZE // 2}" y="24" text-anchor="middle" '
        f'font-family="monospace" font-size="14">{title}</text>',
    ]
    legend_y = 44
    for pts, color, width, label in curves:
        pix = to_pixels(pts)
        coords = " ".join(f"{p[0]:.2f},{p[1]:.2f}" for p in pix)
        lines.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width:g}"/>'
        )
        lines.append(
            f'<text x="16" y="{legend_y}" font-family="monospace" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
        legend_y += 16
    lines.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
