"""Deterministic CSV and SVG emission.

Floats are printed with 17 significant digits so identical runs produce
byte-identical files; lines always end with LF.  The vector-graphics writer
emits plain polyline SVG with no library dependency.

``write_csv`` prints every cell exactly as ``'%.17g' % x`` does (C ``%g``
with precision 17), with a numpy kernel in place of one ``%`` per cell:

1. The decimal exponent X = floor(log10 |x|) is exact: the binary exponent
   of x leaves two candidates, and a comparison with the smallest double not
   below the power of ten between them picks one.
2. V = |x| * 10**(16 - X) lies in [1e16, 1e17).  It is evaluated in
   double-double arithmetic, as Dekker's exact product of |x| with the double
   nearest 10**(16 - X) plus |x| times the rounded rest of that power.  The
   error is below 1e-13, so the nearest integer to the result is V rounded
   to 17 significant digits whenever the fraction of V is not within 1e-6 of
   one half.  A result of 1e17 carries into the exponent.
3. The sign, the ``0.000`` prefix and the first digit, the other 16 digits
   (twice: before and after the dot), the dot, and the ``e+dd[d]`` suffix
   with the separator are taken as 8-byte words from small tables.  A mask
   row chosen by C's ``%g`` rules (fixed notation for -4 <= X < 17, no
   trailing zeros) and the number of significant digits clears what is not
   printed, and deleting the zero bytes compacts a block of rows at once.

A cell whose digits the kernel cannot show to be exact (nan, inf, a
subnormal, a magnitude outside about 1e-289..1e289, a fraction near one
half) is printed by one ``%`` operation per block, which formats it as
``format_float`` does.  The kernel lives in ``qgplab._g17``; it is imported
and its tables are built, from Python integers, on the first write.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np


#: width and height of ``write_svg_curves`` drawings, in pixels
_SVG_SIZE = 640


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path: str, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write equal-length columns under the given header names.

    Every cell is printed exactly as ``format_float`` prints it, by the
    kernel described in the module docstring.
    """
    lengths = {len(c) for c in columns}
    if len(lengths) > 1:
        raise ValueError(f"column lengths differ: {sorted(lengths)}")
    rows = len(columns[0]) if columns else 0
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        if rows:
            from ._g17 import kernel  # compiled on the first write, not at import

            kernel().write(fh, [np.asarray(c, dtype=float) for c in columns])


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
