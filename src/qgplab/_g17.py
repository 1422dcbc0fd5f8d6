"""The ``%.17g`` kernel of ``reporting.write_csv``; the method is described there.

``reporting`` imports this module on its first CSV write, so that importing
the package does not compile it.
"""

from __future__ import annotations

import functools
import math
from typing import BinaryIO

import numpy as np

#: cells formatted per block; keeps each per-cell temporary at 64 KiB
BLOCK_CELLS = 8192

#: binary exponents e of the magnitudes [2**e, 2**(e + 1)) the kernel formats
#: (about 1e-289..1e289); beyond them 10**(16 - X) or the split of x overflows
_BINARY_EXPONENTS = np.arange(-960, 961)

#: a scaled fraction this close to one half is left to ``%``
_TIE_MARGIN = 1e-6

#: 2**27 + 1, Veltkamp's constant: splits a double into two 26-bit halves
_SPLITTER = 134217729.0

#: 8-byte words per cell: head (sign, ``0.000`` prefix, first digit); digits
#: 1-8 and 9-16; the dot; digits 1-8 and 9-16 again; suffix and separator
_WORDS = 7


def _pow10(j: int) -> tuple[float, float]:
    """The double nearest 10**j and the double nearest 10**j minus it."""
    if j >= 0:
        hi = float(10**j)
        return hi, float(10**j - int(hi))
    q = 10**-j
    hi = 1 / q  # int true division rounds correctly
    num, den = hi.as_integer_ratio()
    return hi, (den - num * q) / (q * den)


def _words(texts: list[str]) -> np.ndarray:
    """ASCII strings of at most 8 bytes, NUL-padded, as uint64 words."""
    return np.array(texts, dtype="S8").view(np.uint64)


class Kernel:
    """The lookup tables and the formatting of blocks of cells."""

    def __init__(self) -> None:
        # X = floor(e log10 2) is exact here: for 0 < |e| <= 960, e log10 2
        # is at least 4.5e-4 away from an integer
        x_of_e = np.floor(_BINARY_EXPONENTS * math.log10(2.0)).astype(np.intp)
        # X of the lowest bucket, and the upper candidate of the highest
        x_min, x_max = int(x_of_e[0]), int(x_of_e[-1]) + 1
        xs = np.arange(x_min, x_max + 2)  # + 1: a rounding carry
        # powers 10**(16 - X) to scale by and 10**(X + 1) to compare with
        js = range(min(16 - x_max, x_min + 1), max(16 - x_min, x_max + 1) + 1)
        hi, lo = np.array([_pow10(j) for j in js]).T
        # per biased exponent (0..2047): formatted here or by ``%``, the index
        # of X, and the smallest double >= 10**(X + 1) that moves it up one;
        # everything else takes X = 0, which prints zeros
        biased = _BINARY_EXPONENTS + 1023
        step = x_of_e + 1 - js.start
        self.exact = np.zeros(2048, dtype=bool)
        self.exact[biased] = True
        self.x_low = np.full(2048, -x_min, dtype=np.intp)
        self.x_low[biased] = x_of_e - x_min
        self.x_step = np.full(2048, np.inf)
        self.x_step[biased] = np.where(lo[step] > 0, np.nextafter(hi[step], np.inf), hi[step])

        # per X index: 10**(16 - X) ~ hi + lo, hi = hi_top + hi_rest (26 + 27 bits)
        scale = 16 - xs[:-1] - js.start
        self.hi, self.lo = hi[scale], lo[scale]
        mantissa, exponent = np.frexp(self.hi)
        self.hi_top = np.ldexp(np.floor(np.ldexp(mantissa, 26)), exponent - 26)
        self.hi_rest = self.hi - self.hi_top

        # head 50 sign + 10 zeros + d0 is (sign, prefix zeros, first digit);
        # suffix 2 i + s is (X index i, separator s)
        fixed = (-4 <= xs) & (xs < 17)
        self.heads = _words([
            sign + ("0." + "0" * (zeros - 1) if zeros else "") + str(d0)
            for sign in ("", "-") for zeros in range(5) for d0 in range(10)
        ])
        self.head = 10 * np.where(fixed & (xs < 0), -xs, 0)
        self.suffixes = _words([
            ("" if f else f"e{x:+03d}").ljust(7, "\0") + sep
            for x, f in zip(xs.tolist(), fixed.tolist()) for sep in ",\n"
        ])

        # 4-digit groups in bytes 0-3 and in bytes 4-7 of a word
        g = np.arange(10_000)
        chars = np.zeros((2, g.size, 8), dtype=np.uint8)
        chars[0, :, :4] = chars[1, :, 4:] = 48 + np.stack(
            [g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
        self.groups, self.groups_high = chars.view(np.uint64)[..., 0]
        self.dot = _words(["."])[0]
        # per group k: 1 + index (d0 = 0) of its last nonzero digit, or 1
        zeros = sum((g % 10**i == 0).astype(np.intp) for i in range(1, 5))
        last = np.arange(4)[:, None] * 4 + 5 - zeros
        self.significant = np.where(g > 0, last, 1).astype(np.uint8)

        # mask rows by (notation, s = 1..17 significant digits): keep digits
        # 1..a-1, then the dot and digits a..s-1 if s > a.  a is 1 in exponent
        # notation (class 0), X + 1 in fixed notation with X >= 0 (class
        # X + 1: the integer digits) and s when X < 0 (class 18)
        s = np.arange(1, 18)
        a = np.empty((19, 17), dtype=np.intp)
        a[0], a[1:18], a[18] = 1, s[:, None], s
        digit = np.arange(1, 17)
        masks = np.zeros((19, 17, 8 * _WORDS), dtype=bool)
        masks[:, :, :8] = masks[:, :, 48:] = True
        masks[:, :, 8:24] = digit < a[:, :, None]
        masks[:, :, 24] = s > a
        masks[:, :, 32:48] = (a[:, :, None] <= digit) & (digit < s[:, None])
        self.masks = (masks * np.uint8(0xFF)).reshape(-1, 8 * _WORDS).view(np.uint64)
        cls = np.where(fixed, np.where(xs < 0, 18, xs + 1), 0)
        self.mask_row = 17 * cls - 1

    def write(self, fh: BinaryIO, columns: list[np.ndarray]) -> None:
        """Write the rows of equal-length float64 columns to binary file ``fh``."""
        block = max(1, BLOCK_CELLS // len(columns))
        cells = block * len(columns)
        separator = np.zeros(cells, dtype=np.intp)  # 0: comma, 1: line end
        separator[len(columns) - 1 :: len(columns)] = 1
        rows = np.empty((cells, _WORDS), dtype=np.uint64)
        rows[:, 3] = self.dot
        out = np.empty_like(rows)
        for start in range(0, len(columns[0]), block):
            x = np.column_stack([c[start : start + block] for c in columns]).ravel()
            fh.write(self.format(x, separator[: x.size], rows[: x.size], out[: x.size]))

    def format(self, x: np.ndarray, separator: np.ndarray, rows: np.ndarray,
               out: np.ndarray) -> bytes:
        """``'%.17g' % v`` and its separator for every cell v of ``x``, joined.

        ``rows`` and ``out`` are (cells, 7) uint64 work buffers; word 3 of
        ``rows`` holds the dot.
        """
        bits = x.view(np.int64)
        biased = (bits >> 52) & 0x7FF
        ax = np.abs(x)
        left = ~self.exact.take(biased)
        if left.any():
            ax[left] = 0.0
            left &= x != 0.0  # zeros print as 0 on the kernel's X = 0 path
        xi = self.x_low.take(biased) + (ax >= self.x_step.take(biased))

        # V = ax * 10**(16 - X): exact product ax * hi = p + err, plus ax * lo
        p = ax * self.hi.take(xi)
        split = ax * _SPLITTER
        top = split - (split - ax)
        rest = ax - top
        top_hi, rest_hi = self.hi_top.take(xi), self.hi_rest.take(xi)
        err = rest * rest_hi - (((p - top * top_hi) - rest * top_hi) - top * rest_hi)
        err += ax * self.lo.take(xi)
        nearest = np.floor(err + 0.5)
        left |= np.abs(err - nearest) > 0.5 - _TIE_MARGIN
        digits = p.astype(np.int64) + nearest.astype(np.int64)
        carry = digits == 10**17
        digits[carry] = 10**16
        xi += carry

        high = digits // 10**8
        low = digits - high * 10**8
        d0 = high // 10**8
        mid = high - d0 * 10**8
        g1 = mid // 10**4
        g2 = mid - g1 * 10**4
        g3 = low // 10**4
        g4 = low - g3 * 10**4
        sig = self.significant
        s = np.maximum(np.maximum(sig[0].take(g1), sig[1].take(g2)),
                       np.maximum(sig[2].take(g3), sig[3].take(g4)))

        rows[:, 0] = self.heads.take(self.head.take(xi) + 50 * (bits < 0) + d0)
        rows[:, 1] = rows[:, 4] = self.groups.take(g1) | self.groups_high.take(g2)
        rows[:, 2] = rows[:, 5] = self.groups.take(g3) | self.groups_high.take(g4)
        rows[:, 6] = self.suffixes.take(2 * xi + separator)
        np.take(self.masks, self.mask_row.take(xi) + s, axis=0, out=out, mode="clip")
        out &= rows

        if left.any():
            at = np.flatnonzero(left)
            text = ("%.17g " * at.size % tuple(x[at].tolist())).split()
            raw = out.view(np.uint8)
            raw[at, :-1] = 0  # the last byte is the separator
            raw[at, :25] = np.array(text, dtype="S25").view(np.uint8).reshape(-1, 25)
        return out.tobytes().translate(None, b"\0")


@functools.cache
def kernel() -> Kernel:
    """The kernel, its tables built on the first call."""
    return Kernel()
